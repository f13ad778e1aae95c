"""Unit tests of the span tracer.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_trace.py -q
"""

from __future__ import annotations

import sys
import types

import pytest

from benchmarks.e2e.trace import LAYERS, OTHER, Tracer, defining_module, layer_of_module


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


def test_self_time_is_duration_minus_children(clock: FakeClock) -> None:
    tracer = Tracer(clock)
    inner = tracer.span(lambda: clock.advance(2.0), "cc")

    def outer_body() -> None:
        clock.advance(1.0)
        inner()
        clock.advance(0.5)
        inner()
        clock.advance(0.25)

    with tracer:
        tracer.span(outer_body, "quic")()
    assert tracer.self_s["quic"] == pytest.approx(1.75)
    assert tracer.self_s["cc"] == pytest.approx(4.0)
    assert (tracer.calls["quic"], tracer.calls["cc"]) == (1, 2)
    assert tracer.wall_s == pytest.approx(5.75)
    assert tracer.coverage == pytest.approx(1.0)


def test_three_levels_and_same_layer_nesting(clock: FakeClock) -> None:
    tracer = Tracer(clock)
    leaf = tracer.span(lambda: clock.advance(1.0), "util")
    middle = tracer.span(lambda: (clock.advance(1.0), leaf(), clock.advance(1.0)), "quic")
    top = tracer.span(lambda: (clock.advance(1.0), middle(), middle()), "quic")
    with tracer:
        top()
    assert tracer.self_s["quic"] == pytest.approx(5.0)
    assert tracer.self_s["util"] == pytest.approx(2.0)
    assert tracer.calls["quic"] == 3


def test_time_outside_every_span_lowers_coverage(clock: FakeClock) -> None:
    tracer = Tracer(clock)
    work = tracer.span(lambda: clock.advance(3.0), "experiments")
    with tracer:
        clock.advance(1.0)
        work()
    assert tracer.coverage == pytest.approx(0.75)


def test_other_layer_is_not_coverage(clock: FakeClock) -> None:
    tracer = Tracer(clock)
    with tracer:
        tracer.span(lambda: clock.advance(1.0), OTHER)()
        tracer.span(lambda: clock.advance(1.0), "tcp")()
    assert tracer.coverage == pytest.approx(0.5)


def test_exception_unwinds_the_span_stack(clock: FakeClock) -> None:
    tracer = Tracer(clock)

    def boom() -> None:
        clock.advance(1.0)
        raise ValueError("boom")

    inner = tracer.span(boom, "cc")

    def outer_body() -> None:
        clock.advance(1.0)
        try:
            inner()
        finally:
            clock.advance(1.0)

    outer = tracer.span(outer_body, "quic")
    with tracer:
        with pytest.raises(ValueError):
            outer()
        outer_again = tracer.span(lambda: clock.advance(2.0), "tcp")
        outer_again()
    assert tracer._stack == []
    assert tracer.self_s["cc"] == pytest.approx(1.0)
    assert tracer.self_s["quic"] == pytest.approx(2.0)
    assert tracer.self_s["tcp"] == pytest.approx(2.0)


def test_dispatch_bills_the_callback_layer_and_counts_events(clock: FakeClock) -> None:
    tracer = Tracer(clock)
    seen = []

    def callback(value: int) -> None:
        clock.advance(2.0)
        seen.append(value)

    engine_loop = tracer.span(
        lambda: (clock.advance(1.0), tracer._dispatch("netsim.link", callback, 7)),
        "netsim.engine",
    )
    with tracer:
        engine_loop()
    assert seen == [7]
    assert tracer.self_s["netsim.engine"] == pytest.approx(1.0)
    assert tracer.self_s["netsim.link"] == pytest.approx(2.0)
    assert tracer.counts["netsim.engine.events"] == 1


def test_layer_of_module() -> None:
    assert layer_of_module("repro.quic.connection") == "quic"
    assert layer_of_module("repro.quic.wire") == "quic.wire"
    assert layer_of_module("repro.netsim.engine") == "netsim.engine"
    assert layer_of_module("repro.netsim.topology") == "netsim.node"
    assert layer_of_module("repro.tcp.wire") == "tcp"
    assert layer_of_module("repro.analysis.rules") == OTHER
    assert layer_of_module("json") == OTHER
    assert layer_of_module(None) == OTHER


def test_bound_method_is_attributed_to_the_defining_module() -> None:
    """An inherited handler is its base class's code, whatever the instance."""

    def datagram_received(self: object) -> None:
        pass

    datagram_received.__module__ = "repro.quic.connection"
    base = type("Base", (), {"datagram_received": datagram_received, "__module__": "repro.quic.connection"})
    sub = type("Sub", (base,), {"__module__": "repro.core.connection"})
    handler = sub().datagram_received
    assert type(handler.__self__).__module__ == "repro.core.connection"
    assert defining_module(handler) == "repro.quic.connection"
    assert Tracer().callback_layer(handler) == "quic"


def test_real_multipath_handler_is_quic_code() -> None:
    from repro.core.connection import MultipathQuicConnection

    assert defining_module(MultipathQuicConnection.datagram_received) == "repro.quic.connection"


@pytest.fixture
def fake_modules():
    """``fakepkg.defs`` defines ``encode``; ``fakepkg.user`` from-imports it."""
    defs = types.ModuleType("fakepkg.defs")
    exec("def encode(x):\n    return x * 2\n", defs.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.encode = defs.encode  # what ``from fakepkg.defs import encode`` binds
    exec("def call(x):\n    return encode(x)\n", user.__dict__)
    outsider = types.ModuleType("elsewhere")
    outsider.encode = defs.encode
    modules = {"fakepkg.defs": defs, "fakepkg.user": user, "elsewhere": outsider}
    sys.modules.update(modules)
    yield defs, user, outsider
    for name in modules:
        del sys.modules[name]


def test_wrap_function_rebinds_from_import_copies(fake_modules, clock: FakeClock) -> None:
    defs, user, outsider = fake_modules
    original = defs.encode
    tracer = Tracer(clock)
    tracer.wrap_function(defs, "encode", layer="quic.wire", rebind_prefix="fakepkg")
    assert user.call(3) == 6 and defs.encode(2) == 4
    assert tracer.calls["quic.wire"] == 2  # the copy in ``user`` is traced too
    assert outsider.encode is original  # outside the prefix: left alone
    tracer.uninstall()
    assert defs.encode is original and user.encode is original
    assert user.call(3) == 6 and tracer.calls["quic.wire"] == 2


def test_install_traces_a_transfer_and_uninstall_restores() -> None:
    from repro.experiments import parallel
    from repro.expdesign.parameters import Scenario
    from repro.netsim.engine import Simulator
    from repro.netsim.topology import PathConfig

    originals = (Simulator.__dict__["schedule"], parallel.run_cell, parallel.ResultCache.__dict__["get"])
    path = PathConfig(10.0, 30.0, 60.0)
    cells = parallel.plan_class_sweep([Scenario("t", 0, (path, path))], 50_000, False)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer:
            results = parallel.execute_cells(cells, jobs=1, cache=None, telemetry=None)
    finally:
        tracer.uninstall()
    assert (Simulator.__dict__["schedule"], parallel.run_cell, parallel.ResultCache.__dict__["get"]) == originals
    assert all(r.completed for r in results)
    events = sum(int(r.details["sim_events"]) for r in results)
    assert tracer.counts["netsim.engine.events"] == events
    assert len(tracer.cell_ms) == len(cells)
    for layer in ("netsim.engine", "netsim.link", "netsim.node", "quic", "core", "tcp", "mptcp", "cc", "apps", "experiments"):
        assert tracer.calls[layer] > 0 and tracer.self_s[layer] > 0.0, layer
    assert sum(tracer.self_s[layer] for layer in LAYERS) <= tracer.wall_s
    # execute_cells itself is not a boundary, so its loop is uncovered.
    assert 0.9 < tracer.coverage <= 1.0
