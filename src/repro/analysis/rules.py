"""Determinism and protocol-invariant rules for ``repro.analysis``.

Every rule exists because a violation silently breaks a property the
evaluation depends on: bit-identical reruns (the parallel sweep cache
and the derandomized property suites both diff results across
processes and PYTHONHASHSEED values), or a QUIC/MPQUIC invariant the
paper's numbers assume.  See ``docs/static-analysis.md`` for the
catalog with examples.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.core import Finding, ModuleContext, Rule, register

#: Locations where wall-clock access is legitimate: benchmark harnesses
#: time real execution, the parallel executor reports elapsed wall time
#: for its own scheduling diagnostics (never into results), the
#: distributed executor's lease TTLs are real-time by nature (deadlines
#: must keep advancing while a worker is SIGKILLed), and the metrics
#: registry owns the one sanctioned timing handle.
WALL_CLOCK_EXEMPT = (
    "benchmarks/",
    "experiments/parallel.py",
    "experiments/distributed.py",
    "obs/metrics.py",
)

#: The only module allowed to touch ``time.perf_counter`` directly;
#: everything else times through ``repro.obs.metrics.clock`` (or the
#: ``timed()`` scope) so wall-time attribution stays in one place.
PERF_TIMING_EXEMPT = ("benchmarks/", "obs/metrics.py")

#: ``time`` module functions that read host clocks.
_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "clock",
    }
)

#: ``datetime``/``date`` constructors that read host clocks.
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: Functions of the process-global ``random`` module RNG.  Calling any
#: of them couples results to import order and other modules' draws.
_GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "vonmisesvariate",
        "gammavariate",
        "betavariate",
        "paretovariate",
        "weibullvariate",
        "seed",
    }
)

_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)

_DICT_MUTATORS = frozenset(
    {"pop", "popitem", "clear", "update", "setdefault", "__delitem__"}
)

#: Identifiers that denote simulated-time or rate quantities.
_TIME_RATE_NAME = re.compile(
    r"(^|_)(time|now|deadline|rtt|srtt|delay|rate|bw|bandwidth|goodput|cwnd|ssthresh)(_|$|s$)"
)


def _walk(tree: ast.AST) -> Iterator[ast.AST]:
    return ast.walk(tree)


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


def _is_exempt(ctx: ModuleContext, exempt: Sequence[str]) -> bool:
    rel = ctx.rel_path
    for pattern in exempt:
        if pattern.endswith("/"):
            if rel.startswith(pattern) or f"/{pattern}" in f"/{rel}":
                return True
        elif rel == pattern or rel.endswith("/" + pattern):
            return True
    return False


@register
class WallClockRule(Rule):
    """No host wall clocks inside the simulation or transport code."""

    rule_id = "wall-clock"
    rationale = (
        "Simulated time is the only clock; reading time.time() or "
        "datetime.now() makes results vary run to run and breaks the "
        "bit-identical parallel/serial sweep equivalence."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if _is_exempt(ctx, WALL_CLOCK_EXEMPT):
            return []
        findings = []
        for node in _walk(ctx.tree):
            if isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if chain is None:
                    continue
                parts = chain.split(".")
                if parts[0] == "time" and parts[-1] in _TIME_FUNCS and len(parts) == 2:
                    findings.append(
                        self.finding(ctx, node, f"wall-clock read `{chain}()`")
                    )
                elif (
                    parts[-1] in _DATETIME_FUNCS
                    and len(parts) >= 2
                    and parts[-2] in ("datetime", "date")
                ):
                    findings.append(
                        self.finding(ctx, node, f"wall-clock read `{chain}()`")
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in _TIME_FUNCS:
                            findings.append(
                                self.finding(
                                    ctx,
                                    node,
                                    f"imports wall-clock `time.{alias.name}`",
                                )
                            )
        return findings


@register
class PerfTimingRule(Rule):
    """All timing goes through the metrics registry's clock."""

    rule_id = "perf-timing"
    rationale = (
        "Ad-hoc time.perf_counter() timing scatters wall-clock reads "
        "that the metrics registry cannot attribute; use "
        "repro.obs.metrics.clock() (or metrics.timed()) so profiles "
        "and per-subsystem wall time stay consistent."
    )

    #: Unlike the wall-clock rule, bare *references* are flagged too:
    #: ``pc = time.perf_counter`` followed by ``pc()`` would evade a
    #: call-only check.
    _FORBIDDEN = frozenset({"perf_counter", "perf_counter_ns"})

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if _is_exempt(ctx, PERF_TIMING_EXEMPT):
            return []
        findings = []
        for node in _walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                chain = _attr_chain(node)
                if chain is None:
                    continue
                parts = chain.split(".")
                if (
                    len(parts) == 2
                    and parts[0] == "time"
                    and parts[1] in self._FORBIDDEN
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"direct `{chain}` timing (use "
                            "repro.obs.metrics.clock instead)",
                        )
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in self._FORBIDDEN:
                            findings.append(
                                self.finding(
                                    ctx,
                                    node,
                                    f"imports `time.{alias.name}` (use "
                                    "repro.obs.metrics.clock instead)",
                                )
                            )
        return findings


@register
class UnseededRandomRule(Rule):
    """RNG must be an injected, explicitly seeded instance."""

    rule_id = "unseeded-random"
    rationale = (
        "The process-global random module (and unseeded Random()/"
        "default_rng()) draws from shared, order-dependent state; "
        "loss processes must come from a seeded rng passed in."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings = []
        for node in _walk(ctx.tree):
            if isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if chain is None:
                    continue
                parts = chain.split(".")
                if (
                    len(parts) == 2
                    and parts[0] == "random"
                    and parts[1] in _GLOBAL_RANDOM_FUNCS
                ):
                    findings.append(
                        self.finding(
                            ctx, node, f"call to process-global RNG `{chain}()`"
                        )
                    )
                elif parts[-1] == "Random" and not node.args and not node.keywords:
                    findings.append(
                        self.finding(
                            ctx, node, "`random.Random()` without an explicit seed"
                        )
                    )
                elif (
                    parts[-1] == "default_rng"
                    and "random" in parts
                    and not node.args
                    and not node.keywords
                ):
                    findings.append(
                        self.finding(
                            ctx, node, "`default_rng()` without an explicit seed"
                        )
                    )
                elif (
                    len(parts) >= 3
                    and parts[-2] == "random"
                    and parts[0] in ("np", "numpy")
                    and parts[-1] not in ("default_rng", "Generator", "SeedSequence")
                ):
                    findings.append(
                        self.finding(
                            ctx, node, f"call to numpy global RNG `{chain}()`"
                        )
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name in _GLOBAL_RANDOM_FUNCS:
                        findings.append(
                            self.finding(
                                ctx,
                                node,
                                f"imports process-global RNG `random.{alias.name}`",
                            )
                        )
        return findings


@register
class SetIterationRule(Rule):
    """Never iterate a set directly — order depends on PYTHONHASHSEED."""

    rule_id = "set-iteration"
    rationale = (
        "Set iteration order is hash-dependent; feeding it into event "
        "scheduling or wire encoding changes results across "
        "PYTHONHASHSEED values.  Iterate sorted(...) instead."
    )

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Set):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                "set",
                "frozenset",
            ):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS
            ):
                return True
        return False

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings = []
        for node in _walk(ctx.tree):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._is_set_expr(it):
                    findings.append(
                        self.finding(
                            ctx,
                            it,
                            "iteration over a set expression (hash-order "
                            "nondeterminism); wrap in sorted(...)",
                        )
                    )
        return findings


@register
class MutableDefaultRule(Rule):
    """No mutable default arguments."""

    rule_id = "mutable-default"
    rationale = (
        "A mutable default is shared across every call; state leaks "
        "between simulations and couples independent runs."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings = []
        for node in _walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set", "bytearray")
                )
                if mutable:
                    findings.append(
                        self.finding(
                            ctx,
                            default,
                            "mutable default argument; use None and "
                            "create inside the function",
                        )
                    )
        return findings


@register
class FloatEqualityRule(Rule):
    """No ``==``/``!=`` on float time/rate quantities."""

    rule_id = "float-equality"
    rationale = (
        "Simulated timestamps and rates are accumulated floats; exact "
        "comparison is brittle under re-association (e.g. a different "
        "summation order in a refactor).  Compare with tolerances or "
        "ordering operators."
    )

    def _is_float_literal(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        # Unary minus on a float literal (-1.0).
        if (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.UAdd))
            and self._is_float_literal(node.operand)
        ):
            return True
        return False

    def _is_time_rate_name(self, node: ast.AST) -> bool:
        chain = _attr_chain(node)
        if chain is None:
            return False
        return bool(_TIME_RATE_NAME.search(chain.split(".")[-1]))

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings = []
        for node in _walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                pair = (left, right)
                literal = any(self._is_float_literal(x) for x in pair)
                both_named = all(self._is_time_rate_name(x) for x in pair)
                if literal or both_named:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            "float equality on a time/rate quantity; use "
                            "an ordering comparison or tolerance",
                        )
                    )
        return findings


@register
class SilentExceptRule(Rule):
    """No bare ``except:`` or swallowed broad exceptions."""

    rule_id = "silent-except"
    rationale = (
        "A swallowed exception in the engine turns an invariant "
        "violation into silently-wrong results; failures must "
        "propagate or be handled narrowly."
    )

    def _swallows(self, handler: ast.ExceptHandler) -> bool:
        return all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            or isinstance(stmt, ast.Continue)
            for stmt in handler.body
        )

    def _is_broad(self, type_node: Optional[ast.expr]) -> bool:
        if type_node is None:
            return True
        names = (
            [type_node]
            if not isinstance(type_node, ast.Tuple)
            else list(type_node.elts)
        )
        for name in names:
            chain = _attr_chain(name)
            if chain in ("Exception", "BaseException"):
                return True
        return False

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings = []
        for node in _walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(
                    self.finding(ctx, node, "bare `except:`; name the exception")
                )
            elif self._is_broad(node.type) and self._swallows(node):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "broad exception silently swallowed; handle "
                        "narrowly or re-raise",
                    )
                )
        return findings


@register
class ObsCategoryRule(Rule):
    """Telemetry categories must be the registered ``CAT_*`` constants."""

    rule_id = "obs-category"
    rationale = (
        "Free-form category strings drift from the registered qlog "
        "taxonomy in repro.obs.events and silently break exporters "
        "and trace queries keyed on category."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings = []
        for node in _walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
            ):
                continue
            category: Optional[ast.expr] = None
            if len(node.args) >= 3:
                category = node.args[2]
            for kw in node.keywords:
                if kw.arg == "category":
                    category = kw.value
            if category is None:
                continue
            if isinstance(category, ast.Constant) and isinstance(category.value, str):
                findings.append(
                    self.finding(
                        ctx,
                        category,
                        f"emit() with literal category {category.value!r}; "
                        "use the CAT_* constant from repro.obs.events",
                    )
                )
        return findings


@register
class DictMutationRule(Rule):
    """No mutating a dict while iterating over it."""

    rule_id = "dict-mutation"
    rationale = (
        "Inserting or deleting during iteration either raises at "
        "runtime or, via .pop on a copy-free loop, skips entries "
        "depending on insertion history."
    )

    def _loop_container(self, iter_node: ast.expr) -> Optional[str]:
        """Unparsed container expression when iterating a dict view."""
        target = iter_node
        if (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Attribute)
            and iter_node.func.attr in ("keys", "items", "values")
            and not iter_node.args
        ):
            target = iter_node.func.value
        if isinstance(target, (ast.Name, ast.Attribute)):
            return ast.unparse(target)
        return None

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings = []
        for node in _walk(ctx.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            container = self._loop_container(node.iter)
            if container is None:
                continue
            for sub in ast.walk(node):
                if sub is node.iter:
                    continue
                if isinstance(sub, ast.Delete):
                    for tgt in sub.targets:
                        if (
                            isinstance(tgt, ast.Subscript)
                            and ast.unparse(tgt.value) == container
                        ):
                            findings.append(
                                self.finding(
                                    ctx,
                                    sub,
                                    f"deletes from `{container}` while "
                                    "iterating it; iterate list(...) instead",
                                )
                            )
                elif (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _DICT_MUTATORS
                    and ast.unparse(sub.func.value) == container
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            sub,
                            f"calls `{container}.{sub.func.attr}()` while "
                            "iterating it; iterate list(...) instead",
                        )
                    )
        return findings


#: Modules on the per-packet hot path: one object allocation or bytes
#: copy here multiplies by the packet count of every simulation (see
#: docs/performance.md, "hot-path anatomy").
HOT_PATH_MODULES = (
    "quic/frames.py",
    "quic/wire.py",
    "quic/packet.py",
    "quic/connection.py",
    "quic/recovery.py",
    "quic/stream.py",
    "quic/ackmgr.py",
    "netsim/engine.py",
    "netsim/link.py",
    "util/ranges.py",
    "util/reassembly.py",
    "tcp/flow.py",
    "tcp/segment.py",
    "mptcp/connection.py",
    "mptcp/scheduler.py",
)


@register
class HotPathRule(Rule):
    """No quadratic ``bytes +=`` or frozen dataclasses in hot modules."""

    rule_id = "hot-path"
    rationale = (
        "The per-packet modules pay any per-object cost once per "
        "simulated packet: `bytes +=` accumulation copies the whole "
        "buffer each step (quadratic), and frozen dataclasses "
        "construct via object.__setattr__ (3-4x a __slots__ class).  "
        "Use a bytearray and plain __slots__ classes; genuine cold "
        "paths may carry `# repro: allow[hot-path]`."
    )

    def _in_hot_module(self, ctx: ModuleContext) -> bool:
        rel = ctx.rel_path
        return any(
            rel == pattern or rel.endswith("/" + pattern)
            for pattern in HOT_PATH_MODULES
        )

    def _is_bytes_init(self, node: ast.expr) -> bool:
        """True for ``b"..."`` literals and ``bytes(...)`` calls."""
        if isinstance(node, ast.Constant) and isinstance(node.value, bytes):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "bytes"
        )

    def _is_frozen_dataclass(self, node: ast.ClassDef) -> bool:
        for deco in node.decorator_list:
            if not isinstance(deco, ast.Call):
                continue
            name = _attr_chain(deco.func)
            if name is None or name.split(".")[-1] != "dataclass":
                continue
            for kw in deco.keywords:
                if (
                    kw.arg == "frozen"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                ):
                    return True
        return False

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not self._in_hot_module(ctx):
            return []
        findings = []
        # Names bound to a bytes value anywhere in the module; `+=` on
        # one of them is the classic quadratic accumulator.  Names also
        # bound to bytearray(...) are excluded: `+=` on a bytearray is
        # an in-place extend, which is exactly the recommended fix.
        byte_names = set()
        bytearray_names = set()
        for node in _walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if value is None:
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                is_bytes = self._is_bytes_init(value)
                is_bytearray = (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "bytearray"
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        if is_bytes:
                            byte_names.add(target.id)
                        elif is_bytearray:
                            bytearray_names.add(target.id)
        byte_names -= bytearray_names
        for node in _walk(ctx.tree):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
                target = node.target
                if isinstance(target, ast.Name) and target.id in byte_names:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            "bytes `+=` accumulation on the packet hot "
                            "path copies the buffer every step; build "
                            "into a bytearray instead",
                        )
                    )
            elif isinstance(node, ast.ClassDef) and self._is_frozen_dataclass(
                node
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"frozen dataclass `{node.name}` in a hot-path "
                        "module constructs via object.__setattr__; use "
                        "a __slots__ class with explicit __init__",
                    )
                )
        return findings
