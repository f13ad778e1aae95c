"""Outside-in per-layer tracer for the e2e benchmark.

The program under test is not edited: :meth:`Tracer.install` wraps
public boundary callables of ``repro`` (functions, methods, scheduled
callbacks, datagram handlers) with spans and puts the originals back on
:meth:`Tracer.uninstall`.  A span is billed to a *layer*, which is the
name of the module that defines the wrapped callable (``quic``,
``netsim.link``, ...).

Per-packet spans number in the millions per run, so they are folded
into their layer's totals as they close instead of being kept one by
one: a layer's self time is the time its spans were open minus the part
their child spans cover, and exactly one span accumulates at any
instant, so the self times of all layers sum to the traced wall time
minus whatever ran outside every span (``coverage``).  Only the
``run_cell`` spans are kept individually, for the per-cell percentiles.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The layers of the ledger, named after the modules of ``src/repro``.
LAYERS: Tuple[str, ...] = (
    "netsim.engine", "netsim.link", "netsim.node", "quic", "quic.wire",
    "core", "cc", "tcp", "mptcp", "util", "apps", "expdesign",
    "experiments", "obs",
)
#: Spans of callables defined outside ``repro`` (not part of coverage).
OTHER = "other"

#: Modules that are a layer of their own; any other ``repro.<pkg>.*``
#: module belongs to layer ``<pkg>``.
_MODULE_LAYERS = {
    "repro.netsim.engine": "netsim.engine",
    "repro.netsim.link": "netsim.link",
    "repro.quic.wire": "quic.wire",
}

#: Counts only the wrappers can see (return values, handler calls).
WRAPPER_COUNTS: Tuple[str, ...] = (
    "netsim.engine.events",
    "netsim.link.datagrams",
    "netsim.link.send_refused",
    "experiments.cache_gets",
    "experiments.cache_hits",
    "experiments.cache_puts",
)

_FUNCTIONS: Tuple[Tuple[str, str], ...] = (
    ("repro.quic.wire", "encode_packet"),
    ("repro.quic.wire", "decode_packet"),
    ("repro.tcp.wire", "encode_segment"),
    ("repro.tcp.wire", "decode_segment"),
    ("repro.apps.transport", "make_client_server"),
    ("repro.expdesign.parameters", "generate_scenarios"),
    ("repro.experiments.parallel", "plan_class_sweep"),
    ("repro.experiments.parallel", "execute_class_sweep"),
    ("repro.experiments.parallel", "result_to_dict"),
    ("repro.experiments.parallel", "result_from_dict"),
    ("repro.experiments.figures", "time_ratio_series"),
    ("repro.experiments.figures", "aggregation_benefit_series"),
)
_METHODS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("repro.netsim.engine", "Simulator", ("run", "run_until")),
    ("repro.netsim.node", "Host", ("send", "deliver")),
    ("repro.quic.recovery", "LossRecovery", ("on_packet_sent", "on_ack_received")),
    ("repro.quic.ackmgr", "AckManager", ("on_packet_received", "build_ack")),
    ("repro.util.reassembly", "Reassembler", ("insert", "pop_ready")),
    ("repro.apps.bulk", "BulkTransferApp", ("run",)),
)
#: Wrapped on the base class and on every subclass that overrides them.
_HIERARCHIES: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("repro.cc", "CongestionController", ("on_ack", "on_loss_event", "on_rto")),
    ("repro.core.scheduler", "Scheduler", ("select_path",)),
    ("repro.mptcp.scheduler", "SubflowScheduler", ("select",)),
)


def layer_of_module(module: Optional[str]) -> str:
    """``repro.quic.connection`` -> ``quic``; non-repro -> ``other``."""
    if not module or not module.startswith("repro."):
        return OTHER
    layer = _MODULE_LAYERS.get(module)
    if layer is not None:
        return layer
    package = module.split(".")[1]
    if package == "netsim":
        return "netsim.node"  # hosts, topology, fault injection
    return package if package in LAYERS else OTHER


def defining_module(fn: Callable[..., Any]) -> Optional[str]:
    """Module that defines ``fn``'s code.

    A bound method answers with the module of its function, not of the
    instance's class: ``MultipathQuicConnection.datagram_received`` is
    inherited ``quic`` code and must not be billed to ``core``.
    """
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    return getattr(fn, "__module__", None)


def _all_subclasses(cls: type) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


class Tracer:
    """Folds spans into per-layer self time, call counts and counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS + (OTHER,)}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS + (OTHER,)}
        self.counts: Dict[str, int] = {name: 0 for name in WRAPPER_COUNTS}
        #: Duration of every ``run_cell`` span, in plan order.
        self.cell_ms: List[float] = []
        #: Wall time of the recording windows (``with tracer:``).
        self.wall_s = 0.0
        self._window_start = 0.0
        #: Layers of the open spans; only the innermost accumulates,
        #: since ``_mark[0]``, the instant of the last enter or exit.
        self._stack: List[str] = []
        self._mark = [0.0]
        self._patches: List[Tuple[Any, str, Any]] = []
        self._layer_cache: Dict[Any, str] = {}

    # -- recording window ------------------------------------------------

    def __enter__(self) -> "Tracer":
        self._window_start = self.clock()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.wall_s += self.clock() - self._window_start

    @property
    def coverage(self) -> float:
        """Share of the recorded wall time spent inside layer spans."""
        covered = sum(self.self_s[layer] for layer in LAYERS)
        return covered / self.wall_s if self.wall_s > 0 else 0.0

    # -- spans -------------------------------------------------------------

    def span(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        """``fn`` wrapped in a span billed to ``layer``."""
        clock, stack, mark = self.clock, self._stack, self._mark
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            now = clock()
            if stack:
                self_s[stack[-1]] += now - mark[0]
            stack.append(layer)
            mark[0] = now
            calls[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self_s[stack.pop()] += now - mark[0]
                mark[0] = now

        return traced

    def callback_layer(self, fn: Callable[..., Any]) -> str:
        """Layer of a scheduled callback or handler (cached per code)."""
        func = getattr(fn, "__func__", fn)
        key = getattr(func, "__code__", None)
        if key is None:  # partials, callable instances: not worth caching
            return layer_of_module(defining_module(fn))
        layer = self._layer_cache.get(key)
        if layer is None:
            layer = self._layer_cache[key] = layer_of_module(defining_module(fn))
        return layer

    def _dispatch(self, layer: str, fn: Callable[..., None], *args: Any) -> None:
        """Timer callback standing in for ``fn``: a span for ``layer``."""
        clock, stack, mark, self_s = self.clock, self._stack, self._mark, self.self_s
        now = clock()
        if stack:
            self_s[stack[-1]] += now - mark[0]
        stack.append(layer)
        mark[0] = now
        self.calls[layer] += 1
        self.counts["netsim.engine.events"] += 1
        try:
            fn(*args)
        finally:
            now = clock()
            self_s[stack.pop()] += now - mark[0]
            mark[0] = now

    # -- patching ------------------------------------------------------------

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def wrap_method(self, cls: type, name: str, layer: Optional[str] = None) -> None:
        original = cls.__dict__[name]
        layer = layer or layer_of_module(defining_module(original))
        self._patch(cls, name, self.span(original, layer))

    def wrap_function(
        self,
        module: Any,
        name: str,
        layer: Optional[str] = None,
        replacement: Optional[Callable[..., Any]] = None,
        rebind_prefix: str = "repro",
    ) -> None:
        """Wrap ``module.name`` and every ``from module import name`` copy.

        A ``from``-import binds the original function object in the
        importing module's globals; patching the defining module alone
        would leave those callers untraced, so every loaded module under
        ``rebind_prefix`` whose global *is* the original is rebound too.
        """
        original = getattr(module, name)
        if replacement is None:
            layer = layer or layer_of_module(defining_module(original))
            replacement = self.span(original, layer)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name != rebind_prefix and not mod_name.startswith(rebind_prefix + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def install(self) -> None:
        """Wrap the boundary callables listed at the top of this file."""
        load = importlib.import_module
        for mod_name, name in _FUNCTIONS:
            self.wrap_function(load(mod_name), name)
        for mod_name, cls_name, names in _METHODS:
            cls = getattr(load(mod_name), cls_name)
            for name in names:
                self.wrap_method(cls, name)
        for mod_name, cls_name, names in _HIERARCHIES:
            base = getattr(load(mod_name), cls_name)
            for cls in [base] + _all_subclasses(base):
                for name in names:
                    if name in cls.__dict__:
                        self.wrap_method(cls, name)
        self._install_engine(load("repro.netsim.engine").Simulator)
        self._install_node_and_link(
            load("repro.netsim.node").Host, load("repro.netsim.link").Link
        )
        self._install_experiments(load("repro.experiments.parallel"))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _install_engine(self, simulator: type) -> None:
        dispatch, layer_for = self._dispatch, self.callback_layer
        for name in ("schedule", "schedule_at"):
            push = self.span(simulator.__dict__[name], "netsim.engine")

            def schedule(
                sim: Any, when: float, fn: Callable[..., None], *args: Any,
                _push: Callable[..., Any] = push,
            ) -> Any:
                return _push(sim, when, dispatch, layer_for(fn), fn, *args)

            self._patch(simulator, name, functools.wraps(simulator.__dict__[name])(schedule))

    def _install_node_and_link(self, host: type, link: type) -> None:
        counts, layer_for, span = self.counts, self.callback_layer, self.span
        set_handler = host.__dict__["set_datagram_handler"]

        @functools.wraps(set_handler)
        def set_datagram_handler(self_: Any, handler: Callable[..., None]) -> None:
            set_handler(self_, span(handler, layer_for(handler)))

        self._patch(host, "set_datagram_handler", set_datagram_handler)
        link_send = span(link.__dict__["send"], "netsim.link")

        @functools.wraps(link_send)
        def send(self_: Any, datagram: Any) -> bool:
            accepted = link_send(self_, datagram)
            counts["netsim.link.datagrams"] += 1
            if not accepted:
                counts["netsim.link.send_refused"] += 1
            return accepted

        self._patch(link, "send", send)

    def _install_experiments(self, parallel: Any) -> None:
        counts, clock, cell_ms, span = self.counts, self.clock, self.cell_ms, self.span
        cache = parallel.ResultCache
        cache_get = span(cache.__dict__["get"], "experiments")
        cache_put = span(cache.__dict__["put"], "experiments")
        run_cell_span = span(parallel.run_cell, "experiments")

        @functools.wraps(cache_get)
        def get(self_: Any, cell: Any) -> Any:
            result = cache_get(self_, cell)
            counts["experiments.cache_gets"] += 1
            if result is not None:
                counts["experiments.cache_hits"] += 1
            return result

        @functools.wraps(cache_put)
        def put(self_: Any, cell: Any, result: Any) -> None:
            cache_put(self_, cell, result)
            counts["experiments.cache_puts"] += 1

        @functools.wraps(run_cell_span)
        def run_cell(cell: Any) -> Any:
            start = clock()
            try:
                return run_cell_span(cell)
            finally:
                cell_ms.append((clock() - start) * 1e3)

        self._patch(cache, "get", get)
        self._patch(cache, "put", put)
        self.wrap_function(parallel, "run_cell", replacement=run_cell)

    # -- output ----------------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        return {
            "wall_s": self.wall_s,
            "coverage": self.coverage,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "cell_ms": list(self.cell_ms),
        }
