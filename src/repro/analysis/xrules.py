"""Interprocedural (whole-program) rules for ``repro.analysis``.

These rules run over the :class:`repro.analysis.graph.ProjectGraph`
rather than one module at a time, closing the per-module analyzer's
blind spots:

* ``seed-taint`` — nondeterministic values (``hash()``, ``id()``, wall
  clocks, pids, global-RNG draws, unseeded RNGs) must never flow into
  an RNG seed, even through helper functions and call chains;
* ``event-order`` — callbacks enqueued at equal simulated timestamps
  must not rely on accidental ordering: custom time-keyed heaps need
  an explicit tie-break, sibling same-time callbacks must not be
  coupled through shared state, and scheduling from set iteration is
  hash-order nondeterminism;
* ``sweep-purity`` — code reachable from the sweep worker entry point
  (``run_cell``) must not read or mutate module-level mutable state or
  the process environment: both are inputs the result cache key cannot
  see, i.e. cross-process races on result correctness;
* ``obs-schema`` — every ``emit()`` category must resolve to a value
  registered in ``repro.obs.events`` and category constants must not
  be re-declared outside the registry; ``sample()`` metrics must be in
  ``SERIES_METRICS``.

All four honour the line-scoped ``# repro: allow[rule-id]`` markers
(applied by :func:`repro.analysis.core.analyze_project`).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import Finding, ProjectRule, register_project
from repro.analysis.graph import (
    EmitSite,
    FunctionInfo,
    ModuleInfo,
    ProjectGraph,
    UNRESOLVED,
    _attr_chain,
)
from repro.analysis.rules import _GLOBAL_RANDOM_FUNCS, _TIME_FUNCS

# ----------------------------------------------------------------------
# seed-taint
# ----------------------------------------------------------------------

#: Parameter names that declare "this is a deterministic seed input".
_SEED_NAME = re.compile(r"(^|_)seed(s)?(_|$)")

#: datetime constructors that read host clocks.
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: os-level nondeterminism sources.
_OS_FUNCS = frozenset({"getpid", "getppid", "urandom"})

#: uuid constructors that are time/host dependent.
_UUID_FUNCS = frozenset({"uuid1", "uuid4"})

#: Mutating container methods treated as writes by sweep-purity.
_MUTATORS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "pop", "popitem",
        "clear", "remove", "discard", "setdefault", "appendleft", "popleft",
        "__setitem__", "__delitem__",
    }
)

#: Module-level constructors that create shared mutable containers.
_MUTABLE_CTORS = frozenset(
    {
        "list", "dict", "set", "bytearray", "deque", "Counter",
        "defaultdict", "OrderedDict",
    }
)

#: Names whose presence in a heap entry's tie-break slot makes it
#: deterministic (sequence counters).
_COUNTER_NAME = re.compile(r"(^|_)(seq|count|counter|idx|index|i|n)(_|$)")

#: First-tuple-element names that denote a simulated-time key.
_TIME_KEY_NAME = re.compile(
    r"(^|_)(time|now|deadline|when|at|t|expiry|fire)(_|$)"
)


def _is_seed_name(name: str) -> bool:
    return bool(_SEED_NAME.search(name))


@dataclass
class _TaintSummary:
    """Interprocedural facts about one function.

    ``return_labels`` may contain concrete source descriptions
    (``"hash() at mod.py:12"``) and symbolic parameter labels
    (``"param:name"``) meaning "the return value carries whatever the
    caller passes for that parameter".  ``seed_sink_params`` are the
    parameters that flow — possibly through further calls — into an
    RNG seed position.
    """

    return_labels: Set[str] = field(default_factory=set)
    seed_sink_params: Set[str] = field(default_factory=set)

    def snapshot(self) -> Tuple[frozenset, frozenset]:
        return frozenset(self.return_labels), frozenset(self.seed_sink_params)


class _TaintPass:
    """One abstract-interpretation pass over a function body."""

    def __init__(
        self,
        rule: "SeedTaintRule",
        graph: ProjectGraph,
        info: FunctionInfo,
        summaries: Dict[str, _TaintSummary],
        report: bool,
        findings: List[Finding],
    ) -> None:
        self.rule = rule
        self.graph = graph
        self.info = info
        self.mod = graph.modules[info.module]
        self.summaries = summaries
        self.report = report
        self.findings = findings
        self.summary = summaries[info.qname]
        self.env: Dict[str, Set[str]] = {
            p: {f"param:{p}"} for p in info.params
        }

    # -- expression labels -------------------------------------------------

    def eval(self, expr: Optional[ast.expr]) -> Set[str]:
        if expr is None:
            return set()
        if isinstance(expr, ast.Constant):
            return set()
        if isinstance(expr, ast.Name):
            return set(self.env.get(expr.id, ()))
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        if isinstance(expr, ast.Attribute):
            # ``x.attr`` carries x's labels (a draw bound to a tainted
            # object, ``self.seed`` on a tainted receiver, ...).
            return self.eval(expr.value)
        labels: Set[str] = set()
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                labels |= self.eval(child)
            elif isinstance(child, ast.comprehension):
                labels |= self.eval(child.iter)
        return labels

    def _source(self, desc: str, node: ast.AST) -> Set[str]:
        return {f"{desc} at {self.mod.rel_path}:{getattr(node, 'lineno', 0)}"}

    def _eval_call(self, call: ast.Call) -> Set[str]:
        arg_exprs = list(call.args) + [kw.value for kw in call.keywords]
        arg_labels = [self.eval(a) for a in arg_exprs]
        chain = _attr_chain(call.func)
        parts = chain.split(".") if chain else []
        tail = parts[-1] if parts else ""

        # Intrinsic nondeterminism sources.
        if chain in ("hash", "id"):
            out = self._source(f"{chain}()", call)
            for labels in arg_labels:
                out |= labels
            return out
        if len(parts) == 2 and parts[0] == "time" and tail in _TIME_FUNCS:
            return self._source(f"{chain}()", call)
        if (
            len(parts) >= 2
            and parts[-2] in ("datetime", "date")
            and tail in _DATETIME_FUNCS
        ):
            return self._source(f"{chain}()", call)
        if len(parts) == 2 and parts[0] == "os" and tail in _OS_FUNCS:
            return self._source(f"{chain}()", call)
        if len(parts) >= 1 and tail in _UUID_FUNCS:
            return self._source(f"{chain}()", call)
        if (
            len(parts) == 2
            and parts[0] == "random"
            and tail in _GLOBAL_RANDOM_FUNCS
        ):
            return self._source(f"global RNG {chain}()", call)

        # RNG constructions: the object carries its seed's labels; an
        # argument-less construction is itself a nondeterminism source.
        if tail in ("Random", "default_rng"):
            if not call.args and not call.keywords:
                return self._source(f"unseeded {tail}()", call)
            seed_arg = call.args[0] if call.args else call.keywords[0].value
            self._check_sink(
                seed_arg, self.eval(seed_arg), call, f"{tail}() seed"
            )
            out: Set[str] = set()
            for labels in arg_labels:
                out |= labels
            return out
        if tail == "seed" and isinstance(call.func, ast.Attribute) and call.args:
            # rng.seed(x): x is a seed sink; the call returns None.
            receiver = self.eval(call.func.value)
            if receiver or True:
                self._check_sink(
                    call.args[0], self.eval(call.args[0]), call, "rng.seed()"
                )
            return set()

        # Project callees: map arguments through their summaries.
        targets = self.graph.resolve_callable(self.info, call.func)
        if targets:
            out = set()
            for qname in targets:
                out |= self._apply_callee(qname, call, arg_exprs, arg_labels)
            return out

        # Unknown callee: taint propagates through (str(), min(), ...).
        out = set()
        if isinstance(call.func, ast.Attribute):
            out |= self.eval(call.func.value)
        for labels in arg_labels:
            out |= labels
        # Seed-named keywords are declared sinks even on unknown callees
        # (dataclass constructors, external APIs).
        for kw in call.keywords:
            if kw.arg is not None and _is_seed_name(kw.arg):
                self._check_sink(
                    kw.value, self.eval(kw.value), kw.value,
                    f"seed parameter `{kw.arg}`",
                )
        return out

    def _apply_callee(
        self,
        qname: str,
        call: ast.Call,
        arg_exprs: List[ast.expr],
        arg_labels: List[Set[str]],
    ) -> Set[str]:
        callee = self.graph.functions[qname]
        summary = self.summaries.setdefault(qname, _TaintSummary())
        params = list(callee.params)
        bound_method = (
            callee.class_qname is not None
            and isinstance(call.func, ast.Attribute)
            and params
            and params[0] in ("self", "cls")
        )
        if bound_method:
            params = params[1:]
        # Map call arguments onto parameter names.
        param_args: Dict[str, Tuple[ast.expr, Set[str]]] = {}
        for i, expr in enumerate(call.args):
            if i < len(params):
                param_args[params[i]] = (expr, arg_labels[i])
        for j, kw in enumerate(call.keywords):
            if kw.arg is not None:
                param_args[kw.arg] = (
                    kw.value, arg_labels[len(call.args) + j]
                )
        # Arguments flowing into the callee's seed sinks.
        for pname, (expr, labels) in param_args.items():
            if pname in summary.seed_sink_params or _is_seed_name(pname):
                self._check_sink(
                    expr, labels, expr,
                    f"seed parameter `{pname}` of {callee.name}()",
                )
        # The call's value: concrete return sources plus pass-through
        # parameter labels mapped back to this site's arguments.
        out: Set[str] = set()
        for label in summary.return_labels:
            if label.startswith("param:"):
                pname = label[len("param:"):]
                if pname in param_args:
                    out |= param_args[pname][1]
            else:
                out.add(label)
        return out

    def _check_sink(
        self,
        expr: ast.expr,
        labels: Set[str],
        node: ast.AST,
        what: str,
    ) -> None:
        concrete = sorted(x for x in labels if not x.startswith("param:"))
        params = {x[len("param:"):] for x in labels if x.startswith("param:")}
        self.summary.seed_sink_params |= params & set(self.info.params)
        if concrete and self.report:
            self.findings.append(
                Finding(
                    path=str(self.mod.path),
                    line=getattr(node, "lineno", 0),
                    col=getattr(node, "col_offset", 0) + 1,
                    rule=self.rule.rule_id,
                    message=(
                        f"nondeterministic value reaches {what}: "
                        f"tainted by {concrete[0]}"
                    ),
                )
            )

    # -- statements --------------------------------------------------------

    def run(self) -> None:
        body = self.info.node.body  # type: ignore[attr-defined]
        # Two passes pick up loop-carried taint.
        for _ in range(2):
            for stmt in body:
                self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested functions are analyzed separately
        if isinstance(stmt, ast.Assign):
            labels = self.eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, labels)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            labels = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.env.setdefault(stmt.target.id, set()).update(labels)
        elif isinstance(stmt, ast.Return):
            self.summary.return_labels |= self.eval(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self.eval(stmt.iter))
            for sub in stmt.body + stmt.orelse:
                self._stmt(sub)
        elif isinstance(stmt, (ast.While, ast.If)):
            self.eval(stmt.test)
            for sub in stmt.body + stmt.orelse:
                self._stmt(sub)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                labels = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, labels)
            for sub in stmt.body:
                self._stmt(sub)
        elif isinstance(stmt, ast.Try):
            for sub in (
                stmt.body + stmt.orelse + stmt.finalbody
                + [s for h in stmt.handlers for s in h.body]
            ):
                self._stmt(sub)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)

    def _bind(self, target: ast.expr, labels: Set[str]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = set(labels)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, labels)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, labels)


@register_project
class SeedTaintRule(ProjectRule):
    """No nondeterministic value may become (part of) an RNG seed."""

    rule_id = "seed-taint"
    rationale = (
        "RNGs are tainted at construction: a seed derived from hash(), "
        "id(), a wall clock, a pid or an unseeded RNG — even through "
        "helper functions — silently breaks bit-identical reruns and "
        "sweep-cache addressing; seeds must come from derive_seed or "
        "an explicit seed parameter."
    )

    #: Fixpoint bound over the call graph (summaries grow monotonically).
    MAX_ROUNDS = 8

    def check(self, graph: ProjectGraph) -> Iterable[Finding]:
        summaries: Dict[str, _TaintSummary] = {
            q: _TaintSummary() for q in graph.functions
        }
        order = sorted(graph.functions)
        for _ in range(self.MAX_ROUNDS):
            changed = False
            for qname in order:
                summary = summaries[qname]
                before = summary.snapshot()
                _TaintPass(
                    self, graph, graph.functions[qname], summaries,
                    report=False, findings=[],
                ).run()
                if summary.snapshot() != before:
                    changed = True
            if not changed:
                break
        findings: List[Finding] = []
        for qname in order:
            _TaintPass(
                self, graph, graph.functions[qname], summaries,
                report=True, findings=findings,
            ).run()
        return _dedupe(findings)


# ----------------------------------------------------------------------
# event-order
# ----------------------------------------------------------------------

@register_project
class EventOrderRule(ProjectRule):
    """Equal-timestamp events must not rely on accidental ordering."""

    rule_id = "event-order"
    rationale = (
        "The engine breaks same-timestamp ties by insertion order; a "
        "custom time-keyed heap without a sequence counter compares "
        "payloads (crash or nondeterminism), sibling callbacks "
        "scheduled at one timestamp must not race through shared "
        "state, and scheduling from set iteration couples the event "
        "order to PYTHONHASHSEED."
    )

    #: Call-graph depth bound for callback effect sets.
    EFFECT_DEPTH = 40

    def check(self, graph: ProjectGraph) -> Iterable[Finding]:
        findings: List[Finding] = []
        findings.extend(self._check_heap_entries(graph))
        findings.extend(self._check_sibling_races(graph))
        findings.extend(self._check_set_scheduling(graph))
        return _dedupe(findings)

    # -- (a) custom heaps without a tie-break ------------------------------

    def _check_heap_entries(self, graph: ProjectGraph) -> List[Finding]:
        findings = []
        for mod in graph.modules.values():
            for node in ast.walk(mod.tree):
                if not (
                    isinstance(node, ast.Call)
                    and _attr_chain(node.func) is not None
                    and _attr_chain(node.func).split(".")[-1] == "heappush"
                    and len(node.args) == 2
                ):
                    continue
                entry = node.args[1]
                if not isinstance(entry, ast.Tuple) or len(entry.elts) < 2:
                    continue
                first = entry.elts[0]
                first_name = _attr_chain(first) or ""
                if not _TIME_KEY_NAME.search(first_name.split(".")[-1]):
                    continue
                if not self._is_tie_break(entry.elts[1]):
                    findings.append(
                        Finding(
                            path=str(mod.path),
                            line=node.lineno,
                            col=node.col_offset + 1,
                            rule=self.rule_id,
                            message=(
                                "time-keyed heap entry without a sequence "
                                "tie-break: equal timestamps fall through "
                                "to comparing the payload (use "
                                "(time, next(counter), payload))"
                            ),
                        )
                    )
        return findings

    @staticmethod
    def _is_tie_break(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return True
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func) or ""
            if chain.split(".")[-1] in ("next", "int"):
                return True
        chain = _attr_chain(node)
        if chain is not None and _COUNTER_NAME.search(chain.split(".")[-1]):
            return True
        return False

    # -- (b) order-coupled same-time siblings ------------------------------

    def _effects(
        self,
        graph: ProjectGraph,
        qname: str,
        cache: Dict[str, Tuple[Set[str], Set[str]]],
        seen: Optional[Set[str]] = None,
    ) -> Tuple[Set[str], Set[str]]:
        """(writes, reads) of ``self.*`` attributes, callees included."""
        if qname in cache:
            return cache[qname]
        if seen is None:
            seen = set()
        if qname in seen or len(seen) > self.EFFECT_DEPTH:
            return set(), set()
        seen.add(qname)
        info = graph.functions.get(qname)
        if info is None:
            return set(), set()
        writes: Set[str] = set()
        reads: Set[str] = set()
        for node in graph._own_body(info.node):
            if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name
            ) and node.value.id == "self":
                label = f"self.{node.attr}"
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    writes.add(label)
                else:
                    reads.add(label)
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ) and node.func.attr in _MUTATORS:
                base = node.func.value
                if (
                    isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "self"
                ):
                    writes.add(f"self.{base.attr}")
        for callee in graph.callees(qname):
            sub_w, sub_r = self._effects(graph, callee, cache, seen)
            writes |= sub_w
            reads |= sub_r
        cache[qname] = (writes, reads)
        return writes, reads

    def _check_sibling_races(self, graph: ProjectGraph) -> List[Finding]:
        findings = []
        by_function: Dict[str, List[Tuple[FunctionInfo, ast.Call, Tuple[str, ...]]]] = {}
        for info, node, _expr, targets in graph.schedule_sites():
            if node.args and targets:
                by_function.setdefault(info.qname, []).append(
                    (info, node, targets)
                )
        effect_cache: Dict[str, Tuple[Set[str], Set[str]]] = {}
        for sites in by_function.values():
            groups: Dict[str, List[Tuple[FunctionInfo, ast.Call, Tuple[str, ...]]]] = {}
            for info, node, targets in sites:
                groups.setdefault(ast.dump(node.args[0]), []).append(
                    (info, node, targets)
                )
            for group in groups.values():
                if len(group) < 2:
                    continue
                # Document order, so the finding lands on the later site.
                group.sort(key=lambda item: (item[1].lineno, item[1].col_offset))
                for i in range(len(group)):
                    for j in range(i + 1, len(group)):
                        info_a, node_a, targets_a = group[i]
                        info_b, node_b, targets_b = group[j]
                        if set(targets_a) == set(targets_b):
                            continue  # same callback: a tick pattern
                        w_a: Set[str] = set()
                        r_a: Set[str] = set()
                        for t in targets_a:
                            w, r = self._effects(graph, t, effect_cache)
                            w_a |= w
                            r_a |= r
                        w_b: Set[str] = set()
                        r_b: Set[str] = set()
                        for t in targets_b:
                            w, r = self._effects(graph, t, effect_cache)
                            w_b |= w
                            r_b |= r
                        shared = (w_a & (r_b | w_b)) | (w_b & r_a)
                        if not shared:
                            continue
                        mod = graph.modules[info_b.module]
                        findings.append(
                            Finding(
                                path=str(mod.path),
                                line=node_b.lineno,
                                col=node_b.col_offset + 1,
                                rule=self.rule_id,
                                message=(
                                    "same-timestamp sibling callbacks are "
                                    f"order-coupled through {sorted(shared)[0]}"
                                    "; their relative order is only the "
                                    "insertion-order tie-break — make the "
                                    "ordering explicit"
                                ),
                            )
                        )
        return findings

    # -- (c) scheduling from set iteration ---------------------------------

    def _check_set_scheduling(self, graph: ProjectGraph) -> List[Finding]:
        findings = []
        for info in graph.functions.values():
            mod = graph.modules[info.module]
            set_names = self._set_typed_names(info)
            for node in graph._own_body(info.node):
                if not isinstance(node, (ast.For, ast.AsyncFor)):
                    continue
                if not self._is_set_iter(node.iter, set_names):
                    continue
                for sub in ast.walk(node):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in ("schedule", "schedule_at")
                    ):
                        findings.append(
                            Finding(
                                path=str(mod.path),
                                line=sub.lineno,
                                col=sub.col_offset + 1,
                                rule=self.rule_id,
                                message=(
                                    "schedules events while iterating a "
                                    "set: enqueue order (and so the "
                                    "tie-break) follows hash order; "
                                    "iterate sorted(...) instead"
                                ),
                            )
                        )
                        break
        return findings

    @staticmethod
    def _set_typed_names(info: FunctionInfo) -> Set[str]:
        names: Set[str] = set()
        node = info.node
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target, value = sub.targets[0], sub.value
                if isinstance(target, ast.Name) and (
                    isinstance(value, (ast.Set, ast.SetComp))
                    or (
                        isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Name)
                        and value.func.id in ("set", "frozenset")
                    )
                ):
                    names.add(target.id)
        return names

    @staticmethod
    def _is_set_iter(iter_node: ast.expr, set_names: Set[str]) -> bool:
        if isinstance(iter_node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(iter_node, ast.Name) and iter_node.id in set_names:
            return True
        if isinstance(iter_node, ast.Call):
            func = iter_node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
        return False


# ----------------------------------------------------------------------
# sweep-purity
# ----------------------------------------------------------------------

#: Modules whose module-level state is exempt: the observability layer
#: (metrics registry, sanitizer flag) is deliberately process-local and
#: never feeds results — see docs/static-analysis.md.
PURITY_EXEMPT = ("obs/", "util/sanitize.py")


@register_project
class SweepPurityRule(ProjectRule):
    """No shared module state or env reads on the sweep worker path."""

    rule_id = "sweep-purity"
    rationale = (
        "Code reachable from run_cell and worker_loop executes in sweep "
        "worker processes; module-level mutable state and os.environ "
        "reads are "
        "inputs the result-cache key cannot see, so they silently "
        "decide what a cached cell *means* — a cross-process race on "
        "result correctness.  ALL-CAPS registries and the obs/sanitize "
        "layers are exempt by convention."
    )

    def check(self, graph: ProjectGraph) -> Iterable[Finding]:
        state = self._module_state(graph)
        reachable = graph.reachable_from(graph.sweep_worker_entries())
        findings: List[Finding] = []
        for qname in sorted(reachable):
            info = graph.functions[qname]
            findings.extend(self._check_function(graph, info, state))
        return _dedupe(findings)

    def _exempt(self, mod: ModuleInfo) -> bool:
        rel = mod.rel_path
        return any(
            rel.startswith(pat) or f"/{pat}" in f"/{rel}"
            if pat.endswith("/")
            else rel == pat or rel.endswith("/" + pat)
            for pat in PURITY_EXEMPT
        )

    def _module_state(self, graph: ProjectGraph) -> Dict[str, Set[str]]:
        """module name -> names of module-level mutable state.

        ALL-CAPS names are treated as declared constants/registries and
        skipped; dunder names likewise.  A name *rebound* through a
        ``global`` statement counts as state regardless of its
        initializer.
        """
        state: Dict[str, Set[str]] = {}
        for mod in graph.modules.values():
            if self._exempt(mod):
                continue
            names: Set[str] = set()
            for name, value in mod.assigns.items():
                if name.isupper() or name.startswith("__"):
                    continue
                if isinstance(value, (ast.List, ast.Dict, ast.Set)):
                    names.add(name)
                elif isinstance(value, ast.Call):
                    func = value.func
                    ctor = _attr_chain(func)
                    base = ctor.split(".")[-1] if ctor else ""
                    if base in _MUTABLE_CTORS:
                        names.add(name)
                    else:
                        kind, _q = graph.resolve_symbol(mod, ctor or "")
                        if kind == "class":
                            names.add(name)
            # global-rebound names are state even without a mutable init.
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.Global):
                    for name in node.names:
                        if not name.isupper() and name in mod.assigns:
                            names.add(name)
            if names:
                state[mod.name] = names
        return state

    def _check_function(
        self,
        graph: ProjectGraph,
        info: FunctionInfo,
        state: Dict[str, Set[str]],
    ) -> List[Finding]:
        mod = graph.modules[info.module]
        findings: List[Finding] = []
        own_state = state.get(mod.name, set())
        local_names = self._local_bindings(info)
        global_decls: Set[str] = set()
        for node in graph._own_body(info.node):
            if isinstance(node, ast.Global):
                global_decls.update(node.names)

        def report(node: ast.AST, owner: str, name: str, kind: str) -> None:
            findings.append(
                Finding(
                    path=str(mod.path),
                    line=getattr(node, "lineno", info.lineno),
                    col=getattr(node, "col_offset", 0) + 1,
                    rule=self.rule_id,
                    message=(
                        f"{kind} module-level mutable state `{owner}.{name}` "
                        "from code reachable from run_cell: a cache-key-"
                        "invisible input and a cross-process hazard"
                    ),
                )
            )

        for node in graph._own_body(info.node):
            # os.environ access anywhere on the worker path.
            chain = _attr_chain(node) if isinstance(node, ast.Attribute) else None
            if chain is not None and chain.startswith("os.environ"):
                findings.append(
                    Finding(
                        path=str(mod.path),
                        line=node.lineno,
                        col=node.col_offset + 1,
                        rule=self.rule_id,
                        message=(
                            "reads os.environ from code reachable from "
                            "run_cell: an input the result-cache key "
                            "cannot see"
                        ),
                    )
                )
            if isinstance(node, ast.Name):
                name = node.id
                is_state = name in own_state and (
                    name in global_decls or name not in local_names
                )
                if not is_state:
                    continue
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    if name in global_decls:
                        report(node, mod.name, name, "rebinds")
                else:
                    report(node, mod.name, name, "reads")
            elif isinstance(node, ast.Attribute):
                resolved = self._resolve_state_attr(graph, mod, node, state)
                if resolved is None:
                    continue
                owner, name = resolved
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    report(node, owner, name, "mutates")
                else:
                    report(node, owner, name, "reads")
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ) and node.func.attr in _MUTATORS:
                base = node.func.value
                if isinstance(base, ast.Name):
                    name = base.id
                    if name in own_state and name not in local_names:
                        report(node, mod.name, name, "mutates")
                elif isinstance(base, ast.Attribute):
                    resolved = self._resolve_state_attr(
                        graph, mod, base, state
                    )
                    if resolved is not None:
                        report(node, resolved[0], resolved[1], "mutates")
            elif isinstance(node, (ast.Subscript,)) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                base = node.value
                if isinstance(base, ast.Name):
                    if base.id in own_state and base.id not in local_names:
                        report(node, mod.name, base.id, "mutates")
                elif isinstance(base, ast.Attribute):
                    resolved = self._resolve_state_attr(
                        graph, mod, base, state
                    )
                    if resolved is not None:
                        report(node, resolved[0], resolved[1], "mutates")
        return findings

    @staticmethod
    def _resolve_state_attr(
        graph: ProjectGraph,
        mod: ModuleInfo,
        node: ast.Attribute,
        state: Dict[str, Set[str]],
    ) -> Optional[Tuple[str, str]]:
        """``alias.name`` access to another module's state, if any."""
        chain = _attr_chain(node)
        if chain is None or "." not in chain:
            return None
        head, attr = chain.rsplit(".", 1)
        target: Optional[str] = None
        if head in mod.module_aliases:
            target = mod.module_aliases[head]
        elif head in mod.symbol_imports:
            target = mod.symbol_imports[head]
        if target is None or target not in state:
            return None
        if attr in state[target]:
            return target, attr
        return None

    @staticmethod
    def _local_bindings(info: FunctionInfo) -> Set[str]:
        names: Set[str] = set(info.params)
        for node in ast.walk(info.node):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not info.node:
                    names.add(node.name)
        return names


# ----------------------------------------------------------------------
# obs-schema
# ----------------------------------------------------------------------

@register_project
class ObsSchemaRule(ProjectRule):
    """Telemetry categories and metrics must match the registry."""

    rule_id = "obs-schema"
    rationale = (
        "The emit-site registry is only queryable if every category "
        "resolves to a value registered in repro.obs.events; a "
        "re-declared category constant or an off-registry sample() "
        "metric silently drifts from the taxonomy exporters and "
        "summaries key on."
    )

    def check(self, graph: ProjectGraph) -> Iterable[Finding]:
        registry = self._registry_module(graph)
        if registry is None:
            return []
        categories = graph.resolve_constant_name(registry, "CATEGORIES")
        if not isinstance(categories, tuple):
            return []
        series = graph.resolve_constant_name(registry, "SERIES_METRICS")
        series_metrics = (
            set(series) if isinstance(series, tuple) else None
        )
        findings: List[Finding] = []
        flagged_owners: Set[Tuple[str, str]] = set()
        for site in graph.emit_sites():
            findings.extend(
                self._check_emit_site(
                    graph, site, registry, set(categories), flagged_owners
                )
            )
        if series_metrics is not None:
            findings.extend(self._check_samples(graph, series_metrics))
        return _dedupe(findings)

    @staticmethod
    def _registry_module(graph: ProjectGraph) -> Optional[ModuleInfo]:
        mod = graph.find_module("obs.events")
        if mod is not None:
            return mod
        candidates = [
            m for m in graph.modules.values() if "CATEGORIES" in m.assigns
        ]
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _check_emit_site(
        self,
        graph: ProjectGraph,
        site: EmitSite,
        registry: ModuleInfo,
        categories: Set[str],
        flagged_owners: Set[Tuple[str, str]],
    ) -> List[Finding]:
        findings: List[Finding] = []
        expr = site.category_expr
        if expr is None:
            return findings
        mod = graph.modules[site.module]
        if site.category is not None and site.category not in categories:
            findings.append(
                Finding(
                    path=site.path,
                    line=site.line,
                    col=expr.col_offset + 1,
                    rule=self.rule_id,
                    message=(
                        f"emit() category {site.category!r} is not "
                        "registered in the telemetry taxonomy "
                        f"({registry.name}.CATEGORIES)"
                    ),
                )
            )
        # A constant that resolves to a literal defined outside the
        # registry module is drift waiting to happen: the local copy
        # will not follow a registry rename.
        if isinstance(expr, (ast.Name, ast.Attribute)):
            owner = graph.constant_owner(mod, expr)
            if (
                owner is not None
                and owner[0] != registry.name
                and owner not in flagged_owners
                and site.category is not None
            ):
                flagged_owners.add(owner)
                owner_mod = graph.modules[owner[0]]
                value = owner_mod.assigns.get(owner[1])
                findings.append(
                    Finding(
                        path=str(owner_mod.path),
                        line=getattr(value, "lineno", 1),
                        col=getattr(value, "col_offset", 0) + 1,
                        rule=self.rule_id,
                        message=(
                            f"category constant `{owner[1]}` re-declares "
                            f"{site.category!r} outside the registry; "
                            f"import it from {registry.name} instead"
                        ),
                    )
                )
        return findings

    def _check_samples(
        self, graph: ProjectGraph, series_metrics: Set[str]
    ) -> List[Finding]:
        findings: List[Finding] = []
        for mod in graph.modules.values():
            for node in ast.walk(mod.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sample"
                    and len(node.args) >= 5
                ):
                    continue
                metric = node.args[3]
                if isinstance(metric, ast.Constant) and isinstance(
                    metric.value, str
                ):
                    if metric.value not in series_metrics:
                        findings.append(
                            Finding(
                                path=str(mod.path),
                                line=metric.lineno,
                                col=metric.col_offset + 1,
                                rule=self.rule_id,
                                message=(
                                    f"sample() metric {metric.value!r} is "
                                    "not in SERIES_METRICS; register it "
                                    "or fix the name"
                                ),
                            )
                        )
        return findings


def _dedupe(findings: Sequence[Finding]) -> List[Finding]:
    seen: Set[Tuple[str, int, str, str]] = set()
    out: List[Finding] = []
    for f in sorted(findings):
        key = (f.path, f.line, f.rule, f.message)
        if key in seen:
            continue
        seen.add(key)
        out.append(f)
    return out
