"""Whole-program index for the static analyzer.

The per-module rules in :mod:`repro.analysis.rules` see one file at a
time, which is exactly the blind spot cross-module determinism bugs
hide in: an unseeded RNG returned from a helper, module-level state
shared by sweep worker processes, a category constant that
drifted from the telemetry registry.  This module builds the project
structures the interprocedural rules (:mod:`repro.analysis.xrules`)
need:

* **module index** — every ``*.py`` under the analysis root, parsed
  once, with top-level symbol tables (functions, classes, assignments);
  discovery skips ``__pycache__`` directories and files that are not
  valid UTF-8 instead of aborting the whole pass;
* **import resolution** — absolute and relative imports, ``import …
  as`` aliasing, and re-export chains through package ``__init__``
  modules;
* **approximate call graph** — direct calls, module-attribute calls,
  ``self``/``cls`` method calls with inheritance and override
  (virtual-dispatch) edges, constructor-typed and annotation-typed
  receivers, and a bounded name-based fallback for everything else.
  Function *references* (callbacks passed to ``schedule()`` and
  friends) count as edges too, so dispatch-driven code is reachable;
* **reachability** — closure over the call graph from the sweep worker
  entry points (any function named ``run_cell``, plus the distributed
  executor's ``worker_loop``) and from the engine dispatch roots
  (every callback registered with ``schedule`` / ``schedule_at``);
* **constant resolution** — following module-level assignments and
  imports to literal values, used by the obs-schema rule to check
  category constants against the registry;
* **emit-site registry** — every ``.emit(...)`` call in the tree with
  its resolved category, literal event name and data fields.

The graph never imports the code under analysis — everything is AST —
so it is safe on broken or dependency-missing trees and fast enough
(< 5 s over the full repo, asserted in CI) to run in the lint job.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: Sentinel for constants that could not be resolved statically.
UNRESOLVED = object()

#: Maximum number of same-named methods the name-based call-resolution
#: fallback will fan out to.  Beyond this the method name is considered
#: too generic (``get``, ``close``, …) and no edge is added — an
#: unsound but deliberate trade: generic names would connect the whole
#: program and drown the reachability-scoped rules in false positives.
NAME_FALLBACK_LIMIT = 4

#: Import-chain / constant-chain resolution depth bound (cycle guard).
MAX_CHAIN = 16

#: Function names that root the sweep-worker reachability closure:
#: ``run_cell`` (the in-process loop and every worker call it) and
#: ``worker_loop`` (the spool worker's claim/execute/commit loop) both
#: run cells, so both anchor the sweep-purity contract.
SWEEP_WORKER_ENTRY_NAMES = ("run_cell", "worker_loop")


def _attr_chain(node: ast.AST) -> Optional[str]:
    """Dotted name for Name/Attribute chains (``a.b.c``), else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class ClassInfo:
    """One class definition in the project."""

    qname: str
    name: str
    module: str
    node: ast.ClassDef
    #: Base expressions as dotted strings (resolved lazily by the graph).
    base_names: Tuple[str, ...]
    #: method name -> function qname
    methods: Dict[str, str] = field(default_factory=dict)


@dataclass
class FunctionInfo:
    """One function or method definition (nested functions included)."""

    qname: str
    name: str
    module: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    #: Qualified name of the enclosing class, if this is a method.
    class_qname: Optional[str] = None
    #: Qualified name of the enclosing function, for nested defs.
    parent_qname: Optional[str] = None
    params: Tuple[str, ...] = ()
    lineno: int = 0
    #: Resolved call edges: (Call node, target qnames).
    calls: List[Tuple[ast.Call, Tuple[str, ...]]] = field(default_factory=list)
    #: Function references in non-call position (callbacks): qnames.
    refs: List[Tuple[ast.AST, str]] = field(default_factory=list)
    #: Project classes this function constructs (qnames).
    constructs: Set[str] = field(default_factory=set)


@dataclass
class ModuleInfo:
    """Everything the graph knows about one source file."""

    name: str
    path: Path
    rel_path: str
    tree: ast.Module
    source_lines: Sequence[str]
    is_package: bool
    #: local alias -> fully qualified imported symbol (``from m import x``).
    symbol_imports: Dict[str, str] = field(default_factory=dict)
    #: local alias -> module dotted name (``import m [as a]``).
    module_aliases: Dict[str, str] = field(default_factory=dict)
    #: top-level name -> assigned value expression.
    assigns: Dict[str, ast.expr] = field(default_factory=dict)
    #: top-level function name -> qname.
    functions: Dict[str, str] = field(default_factory=dict)
    #: top-level class name -> qname.
    classes: Dict[str, str] = field(default_factory=dict)


@dataclass
class EmitSite:
    """One ``tracer.emit(...)`` call site in the tree."""

    module: str
    rel_path: str
    path: str
    line: int
    node: ast.Call
    #: The category argument expression and its resolved value (or None).
    category_expr: Optional[ast.expr]
    category: Optional[str]
    #: Literal event name, when statically known.
    name: Optional[str]
    #: Data field names passed as keywords.
    fields: Tuple[str, ...]


class ProjectGraph:
    """Project-wide index over one analysis root.

    Build with :meth:`build`; the constructor only wires empty tables.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: Files skipped during discovery: (path, reason).
        self.skipped: List[Tuple[Path, str]] = []
        #: method name -> [function qnames] (for the bounded fallback).
        self._methods_by_name: Dict[str, List[str]] = {}
        #: class qname -> direct subclass qnames.
        self._subclasses: Dict[str, List[str]] = {}
        self._callees: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, root: Path) -> "ProjectGraph":
        graph = cls(Path(root))
        graph._discover()
        graph._index_symbols()
        graph._resolve_hierarchy()
        graph._build_call_graph()
        return graph

    def _discover(self) -> None:
        root = self.root
        if root.is_file():
            files = [root]
            base = root.parent
        else:
            files = sorted(
                p for p in root.rglob("*.py")
                if "__pycache__" not in p.parts
            )
            base = root
        prefix = ""
        if (root / "__init__.py").exists():
            # The root itself is a package: modules are named from it.
            prefix = root.name
            base = root
        for path in files:
            try:
                source = path.read_text(encoding="utf-8")
            except (UnicodeDecodeError, OSError) as exc:
                self.skipped.append((path, type(exc).__name__))
                continue
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as exc:
                self.skipped.append((path, f"SyntaxError: {exc.msg}"))
                continue
            rel = path.relative_to(base) if base in path.parents else path
            rel_posix = rel.as_posix()
            parts = list(rel.parts)
            is_package = parts[-1] == "__init__.py"
            if is_package:
                parts = parts[:-1]
            else:
                parts[-1] = parts[-1][: -len(".py")]
            dotted = ".".join(([prefix] if prefix else []) + parts)
            if not dotted:
                dotted = root.name
                is_package = True
            self.modules[dotted] = ModuleInfo(
                name=dotted,
                path=path,
                rel_path=rel_posix,
                tree=tree,
                source_lines=source.splitlines(),
                is_package=is_package,
            )

    def _index_symbols(self) -> None:
        for mod in self.modules.values():
            self._index_imports(mod)
            for node in mod.tree.body:
                self._index_toplevel(mod, node)

    def _index_imports(self, mod: ModuleInfo) -> None:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        mod.module_aliases[alias.asname] = alias.name
                    else:
                        # ``import a.b.c`` binds ``a``.
                        head = alias.name.split(".")[0]
                        mod.module_aliases[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from_base(mod, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    mod.symbol_imports[local] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )

    def _resolve_from_base(
        self, mod: ModuleInfo, node: ast.ImportFrom
    ) -> Optional[str]:
        if node.level == 0:
            return node.module or ""
        # Relative import: walk up from the module's package.
        parts = mod.name.split(".")
        if not mod.is_package:
            parts = parts[:-1]
        up = node.level - 1
        if up > len(parts):
            return None
        base_parts = parts[: len(parts) - up] if up else parts
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts)

    def _index_toplevel(self, mod: ModuleInfo, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qname = f"{mod.name}.{node.name}"
            mod.functions[node.name] = qname
            self._add_function(mod, node, qname, None, None)
        elif isinstance(node, ast.ClassDef):
            qname = f"{mod.name}.{node.name}"
            mod.classes[node.name] = qname
            bases = tuple(
                b for b in (_attr_chain(base) for base in node.bases)
                if b is not None
            )
            info = ClassInfo(
                qname=qname, name=node.name, module=mod.name,
                node=node, base_names=bases,
            )
            self.classes[qname] = info
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    m_qname = f"{qname}.{sub.name}"
                    info.methods[sub.name] = m_qname
                    self._add_function(mod, sub, m_qname, qname, None)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            if value is None:
                return
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    mod.assigns[target.id] = value

    def _add_function(
        self,
        mod: ModuleInfo,
        node: ast.AST,
        qname: str,
        class_qname: Optional[str],
        parent_qname: Optional[str],
    ) -> None:
        args = node.args  # type: ignore[attr-defined]
        params = tuple(
            a.arg
            for a in (args.posonlyargs + args.args + args.kwonlyargs)
        )
        info = FunctionInfo(
            qname=qname,
            name=node.name,  # type: ignore[attr-defined]
            module=mod.name,
            node=node,
            class_qname=class_qname,
            parent_qname=parent_qname,
            params=params,
            lineno=getattr(node, "lineno", 0),
        )
        self.functions[qname] = info
        if class_qname is not None:
            self._methods_by_name.setdefault(info.name, []).append(qname)
        # Nested function definitions become their own FunctionInfo.
        for sub in ast.walk(node):
            if sub is node:
                continue
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if getattr(sub, "_repro_indexed", False):
                    continue
                sub._repro_indexed = True  # type: ignore[attr-defined]
                self._add_function(
                    mod, sub, f"{qname}.{sub.name}", class_qname, qname
                )

    def _resolve_hierarchy(self) -> None:
        for info in self.classes.values():
            mod = self.modules[info.module]
            for base_name in info.base_names:
                base_qname = self._resolve_class_name(mod, base_name)
                if base_qname is not None:
                    self._subclasses.setdefault(base_qname, []).append(
                        info.qname
                    )

    def _resolve_class_name(
        self, mod: ModuleInfo, dotted: str
    ) -> Optional[str]:
        kind, qname = self.resolve_symbol(mod, dotted)
        return qname if kind == "class" else None

    # ------------------------------------------------------------------
    # Symbol resolution
    # ------------------------------------------------------------------

    def resolve_symbol(
        self, mod: ModuleInfo, dotted: str
    ) -> Tuple[Optional[str], Optional[str]]:
        """Resolve ``dotted`` as seen from ``mod``.

        Returns ``(kind, qname)`` where kind is ``"function"``,
        ``"class"``, ``"module"`` or ``"const"``; ``(None, None)`` when
        the name does not resolve to a project symbol.  Re-export
        chains through ``__init__`` modules are followed.
        """
        head, _, rest = dotted.partition(".")
        target: Optional[str] = None
        if head in mod.symbol_imports:
            target = mod.symbol_imports[head]
        elif head in mod.module_aliases:
            target = mod.module_aliases[head]
        elif head in mod.functions:
            target = mod.functions[head]
        elif head in mod.classes:
            target = mod.classes[head]
        elif head in mod.assigns:
            target = f"{mod.name}.{head}"
        else:
            return None, None
        qualified = f"{target}.{rest}" if rest else target
        return self._resolve_qualified(qualified)

    def _resolve_qualified(
        self, qualified: str, depth: int = 0
    ) -> Tuple[Optional[str], Optional[str]]:
        if depth > MAX_CHAIN:
            return None, None
        if qualified in self.functions:
            return "function", qualified
        if qualified in self.classes:
            return "class", qualified
        if qualified in self.modules:
            return "module", qualified
        # Split into the longest module prefix plus an attribute path.
        parts = qualified.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod_name = ".".join(parts[:cut])
            if mod_name not in self.modules:
                continue
            mod = self.modules[mod_name]
            attr = parts[cut]
            rest = ".".join(parts[cut + 1:])
            if attr in mod.functions and not rest:
                return "function", mod.functions[attr]
            if attr in mod.classes:
                cls_qname = mod.classes[attr]
                if not rest:
                    return "class", cls_qname
                info = self.classes.get(cls_qname)
                if info and rest in info.methods:
                    return "function", info.methods[rest]
                return None, None
            if attr in mod.symbol_imports:
                # Re-export chain (``from .engine import Simulator`` in
                # a package ``__init__``).
                chained = mod.symbol_imports[attr]
                full = f"{chained}.{rest}" if rest else chained
                return self._resolve_qualified(full, depth + 1)
            if attr in mod.module_aliases and rest:
                return self._resolve_qualified(
                    f"{mod.module_aliases[attr]}.{rest}", depth + 1
                )
            if attr in mod.assigns and not rest:
                return "const", f"{mod_name}.{attr}"
            return None, None
        return None, None

    # ------------------------------------------------------------------
    # Constant resolution
    # ------------------------------------------------------------------

    def resolve_constant(
        self, mod: ModuleInfo, expr: ast.expr, depth: int = 0
    ) -> Any:
        """Statically evaluate ``expr`` in ``mod``; UNRESOLVED on failure.

        Follows names through module-level assignments and imports
        (including re-export chains), resolving string/number constants
        and tuples thereof — enough for the telemetry taxonomy.
        """
        if depth > MAX_CHAIN:
            return UNRESOLVED
        if isinstance(expr, ast.Constant):
            return expr.value
        if isinstance(expr, ast.Tuple):
            out = []
            for elt in expr.elts:
                value = self.resolve_constant(mod, elt, depth + 1)
                if value is UNRESOLVED:
                    return UNRESOLVED
                out.append(value)
            return tuple(out)
        dotted = _attr_chain(expr)
        if dotted is None:
            return UNRESOLVED
        return self.resolve_constant_name(mod, dotted, depth + 1)

    def resolve_constant_name(
        self, mod: ModuleInfo, dotted: str, depth: int = 0
    ) -> Any:
        if depth > MAX_CHAIN:
            return UNRESOLVED
        head, _, rest = dotted.partition(".")
        if not rest and head in mod.assigns:
            return self.resolve_constant(mod, mod.assigns[head], depth + 1)
        if head in mod.symbol_imports:
            qualified = mod.symbol_imports[head] + (f".{rest}" if rest else "")
            return self._resolve_constant_qualified(qualified, depth + 1)
        if head in mod.module_aliases:
            qualified = mod.module_aliases[head] + (f".{rest}" if rest else "")
            return self._resolve_constant_qualified(qualified, depth + 1)
        return UNRESOLVED

    def _resolve_constant_qualified(self, qualified: str, depth: int) -> Any:
        if depth > MAX_CHAIN:
            return UNRESOLVED
        parts = qualified.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod_name = ".".join(parts[:cut])
            if mod_name not in self.modules:
                continue
            mod = self.modules[mod_name]
            attr = ".".join(parts[cut:])
            return self.resolve_constant_name(mod, attr, depth + 1)
        return UNRESOLVED

    def constant_owner(
        self, mod: ModuleInfo, expr: ast.expr
    ) -> Optional[Tuple[str, str]]:
        """The ``(module, name)`` whose assignment terminates ``expr``.

        Follows the same chains as :meth:`resolve_constant` but reports
        *where* the terminal literal lives — the obs-schema rule uses
        this to tell a registry constant from a drifted local copy.
        """
        dotted = _attr_chain(expr)
        if dotted is None:
            return None
        current_mod, current = mod, dotted
        for _ in range(MAX_CHAIN):
            head, _, rest = current.partition(".")
            if not rest and head in current_mod.assigns:
                value = current_mod.assigns[head]
                if isinstance(value, ast.Constant):
                    return current_mod.name, head
                chained = _attr_chain(value)
                if chained is None:
                    return current_mod.name, head
                current = chained
                continue
            if head in current_mod.symbol_imports:
                qualified = current_mod.symbol_imports[head] + (
                    f".{rest}" if rest else ""
                )
            elif head in current_mod.module_aliases:
                qualified = current_mod.module_aliases[head] + (
                    f".{rest}" if rest else ""
                )
            else:
                return None
            parts = qualified.split(".")
            found = False
            for cut in range(len(parts) - 1, 0, -1):
                mod_name = ".".join(parts[:cut])
                if mod_name in self.modules:
                    current_mod = self.modules[mod_name]
                    current = ".".join(parts[cut:])
                    found = True
                    break
            if not found:
                return None
        return None

    # ------------------------------------------------------------------
    # Call graph
    # ------------------------------------------------------------------

    def _build_call_graph(self) -> None:
        for info in self.functions.values():
            self._link_function(info)
        self._callees = {}
        for info in self.functions.values():
            succ: Set[str] = set()
            for _node, targets in info.calls:
                succ.update(targets)
            for _node, target in info.refs:
                succ.add(target)
            for cls_qname in info.constructs:
                cls = self.classes.get(cls_qname)
                if cls and "__init__" in cls.methods:
                    succ.add(cls.methods["__init__"])
            self._callees[info.qname] = succ

    def _own_body(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk a function body, excluding nested function bodies."""
        stack: List[ast.AST] = list(ast.iter_child_nodes(node))
        while stack:
            current = stack.pop()
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield current
            stack.extend(ast.iter_child_nodes(current))

    def _local_types(self, info: FunctionInfo) -> Dict[str, str]:
        """name -> class qname, from annotations and constructor calls."""
        mod = self.modules[info.module]
        types: Dict[str, str] = {}
        if info.class_qname is not None and info.params:
            first = info.params[0]
            if first in ("self", "cls"):
                types[first] = info.class_qname
        args = info.node.args  # type: ignore[attr-defined]
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            ann = arg.annotation
            if ann is None:
                continue
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                # String annotation: parse the dotted name textually.
                dotted = ann.value.strip().strip('"')
                kind, qname = self.resolve_symbol(mod, dotted)
            else:
                dotted = _attr_chain(ann)
                if dotted is None:
                    continue
                kind, qname = self.resolve_symbol(mod, dotted)
            if kind == "class" and qname is not None:
                types[arg.arg] = qname
        for node in self._own_body(info.node):
            value: Optional[ast.expr] = None
            target: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Call)
            ):
                dotted = _attr_chain(value.func)
                if dotted is None:
                    continue
                kind, qname = self.resolve_symbol(mod, dotted)
                if kind == "class" and qname is not None:
                    types.setdefault(target.id, qname)
        return types

    def _method_candidates(
        self, cls_qname: str, method: str, virtual: bool = True
    ) -> List[str]:
        """Resolve ``method`` on ``cls_qname``: MRO walk + overrides."""
        out: List[str] = []
        seen: Set[str] = set()
        # Up the bases for the statically-known target.
        stack = [cls_qname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if method in info.methods:
                out.append(info.methods[method])
                break
            mod = self.modules[info.module]
            for base in info.base_names:
                base_qname = self._resolve_class_name(mod, base)
                if base_qname:
                    stack.append(base_qname)
        if virtual:
            # Down the subclasses for overrides (virtual dispatch).
            stack = list(self._subclasses.get(cls_qname, ()))
            seen_sub: Set[str] = set()
            while stack:
                current = stack.pop()
                if current in seen_sub:
                    continue
                seen_sub.add(current)
                info = self.classes.get(current)
                if info is not None and method in info.methods:
                    out.append(info.methods[method])
                stack.extend(self._subclasses.get(current, ()))
        return out

    def resolve_callable(
        self, info: FunctionInfo, expr: ast.expr
    ) -> List[str]:
        """Candidate function qnames for a call/callback expression."""
        mod = self.modules[info.module]
        if isinstance(expr, ast.Name):
            name = expr.id
            # Sibling or own nested function first.
            scope: Optional[FunctionInfo] = info
            while scope is not None:
                nested = f"{scope.qname}.{name}"
                if nested in self.functions:
                    return [nested]
                scope = (
                    self.functions.get(scope.parent_qname)
                    if scope.parent_qname
                    else None
                )
            kind, qname = self.resolve_symbol(mod, name)
            if kind == "function" and qname is not None:
                return [qname]
            if kind == "class" and qname is not None:
                info.constructs.add(qname)
                return []
            return []
        if isinstance(expr, ast.Attribute):
            receiver = expr.value
            method = expr.attr
            # self.m() / cls.m() / typed receivers.
            if isinstance(receiver, ast.Name):
                types = self._types_cache(info)
                if receiver.id in types:
                    return self._method_candidates(types[receiver.id], method)
            dotted = _attr_chain(expr)
            if dotted is not None:
                kind, qname = self.resolve_symbol(mod, dotted)
                if kind == "function" and qname is not None:
                    return [qname]
                if kind == "class" and qname is not None:
                    info.constructs.add(qname)
                    return []
            # Bounded name-based fallback for untyped receivers.
            candidates = self._methods_by_name.get(method, ())
            if 0 < len(candidates) <= NAME_FALLBACK_LIMIT:
                return list(candidates)
            return []
        return []

    def _types_cache(self, info: FunctionInfo) -> Dict[str, str]:
        cached = getattr(info, "_types", None)
        if cached is None:
            cached = self._local_types(info)
            info._types = cached  # type: ignore[attr-defined]
        return cached

    def _link_function(self, info: FunctionInfo) -> None:
        for node in self._own_body(info.node):
            if isinstance(node, ast.Call):
                targets = self.resolve_callable(info, node.func)
                info.calls.append((node, tuple(targets)))
                # Function references passed as arguments (callbacks).
                for arg in list(node.args) + [
                    kw.value for kw in node.keywords
                ]:
                    self._note_ref(info, arg)
            elif isinstance(node, (ast.Assign, ast.Return)):
                value = node.value
                if value is not None:
                    self._note_ref(info, value)

    def _note_ref(self, info: FunctionInfo, expr: ast.expr) -> None:
        if not isinstance(expr, (ast.Name, ast.Attribute)):
            return
        if isinstance(expr, ast.Name):
            scope: Optional[FunctionInfo] = info
            while scope is not None:
                nested = f"{scope.qname}.{expr.id}"
                if nested in self.functions:
                    info.refs.append((expr, nested))
                    return
                scope = (
                    self.functions.get(scope.parent_qname)
                    if scope.parent_qname
                    else None
                )
        mod = self.modules[info.module]
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ):
            types = self._types_cache(info)
            if expr.value.id in types:
                for qname in self._method_candidates(
                    types[expr.value.id], expr.attr
                ):
                    info.refs.append((expr, qname))
                return
        dotted = _attr_chain(expr)
        if dotted is None:
            return
        kind, qname = self.resolve_symbol(mod, dotted)
        if kind == "function" and qname is not None:
            info.refs.append((expr, qname))

    def callees(self, qname: str) -> Set[str]:
        return self._callees.get(qname, set())

    # ------------------------------------------------------------------
    # Reachability and entry points
    # ------------------------------------------------------------------

    def reachable_from(self, entries: Sequence[str]) -> Set[str]:
        """Transitive closure over call + reference edges."""
        seen: Set[str] = set()
        stack = [q for q in entries if q in self.functions]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._callees.get(current, ()))
        return seen

    def run_cell_entries(self) -> List[str]:
        """Sweep worker entry points: every function named ``run_cell``."""
        return [
            q for q, f in self.functions.items()
            if f.name == "run_cell" and f.class_qname is None
        ]

    def sweep_worker_entries(self) -> List[str]:
        """All sweep worker roots: ``run_cell`` *and* the spool worker.

        The spool's ``worker_loop`` runs cells in independent processes,
        so everything reachable from it is subject to the same purity
        contract as ``run_cell`` (no cache-key-invisible inputs).
        """
        return [
            q for q, f in self.functions.items()
            if f.name in SWEEP_WORKER_ENTRY_NAMES and f.class_qname is None
        ]

    def schedule_sites(
        self,
    ) -> List[Tuple[FunctionInfo, ast.Call, Optional[ast.expr], Tuple[str, ...]]]:
        """Every ``.schedule(…)`` / ``.schedule_at(…)`` call site.

        Returns ``(enclosing function, call, callback expr, callback
        qnames)``; the callback is argument 1 (after the delay/time).
        """
        out = []
        for info in self.functions.values():
            for node, _targets in info.calls:
                func = node.func
                if not (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("schedule", "schedule_at")
                ):
                    continue
                cb_expr = node.args[1] if len(node.args) > 1 else None
                cb_targets: Tuple[str, ...] = ()
                if cb_expr is not None:
                    cb_targets = tuple(self.resolve_callable(info, cb_expr))
                out.append((info, node, cb_expr, cb_targets))
        return out

    def dispatch_entries(self) -> List[str]:
        """Callback functions registered with the engine's scheduler."""
        entries: List[str] = []
        for _info, _node, _expr, targets in self.schedule_sites():
            entries.extend(targets)
        return entries

    # ------------------------------------------------------------------
    # Telemetry registry
    # ------------------------------------------------------------------

    def emit_sites(self) -> List[EmitSite]:
        """Every ``.emit(...)`` call with resolved category metadata."""
        sites: List[EmitSite] = []
        for mod in self.modules.values():
            for node in ast.walk(mod.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"
                ):
                    continue
                category_expr: Optional[ast.expr] = None
                name_expr: Optional[ast.expr] = None
                if len(node.args) >= 3:
                    category_expr = node.args[2]
                if len(node.args) >= 4:
                    name_expr = node.args[3]
                for kw in node.keywords:
                    if kw.arg == "category":
                        category_expr = kw.value
                    elif kw.arg == "name":
                        name_expr = kw.value
                category: Optional[str] = None
                if category_expr is not None:
                    value = self.resolve_constant(mod, category_expr)
                    if isinstance(value, str):
                        category = value
                name: Optional[str] = None
                if isinstance(name_expr, ast.Constant) and isinstance(
                    name_expr.value, str
                ):
                    name = name_expr.value
                fields = tuple(
                    sorted(
                        kw.arg
                        for kw in node.keywords
                        if kw.arg not in (None, "category", "name", "path_id")
                    )
                )
                sites.append(
                    EmitSite(
                        module=mod.name,
                        rel_path=mod.rel_path,
                        path=str(mod.path),
                        line=node.lineno,
                        node=node,
                        category_expr=category_expr,
                        category=category,
                        name=name,
                        fields=fields,
                    )
                )
        return sites

    def find_module(self, suffix: str) -> Optional[ModuleInfo]:
        """The unique module whose dotted name ends with ``suffix``."""
        matches = [
            m for name, m in self.modules.items()
            if name == suffix or name.endswith("." + suffix)
        ]
        if len(matches) == 1:
            return matches[0]
        return None
