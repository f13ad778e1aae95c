"""Discrete-event network simulator (Mininet substitute).

The paper evaluates (MP)QUIC and (MP)TCP over Mininet links configured
with a rate, a propagation delay, a drop-tail queue sized from a queuing
delay, and Bernoulli random loss.  This package reproduces exactly those
link semantics inside a deterministic event-driven simulator.
"""

from repro.netsim.bottleneck import Router, SharedBottleneckTopology
from repro.netsim.engine import Simulator, Timer
from repro.netsim.link import Link, LinkStats
from repro.netsim.node import Datagram, Host, Interface
from repro.netsim.topology import PathConfig, TwoPathTopology

__all__ = [
    "Simulator",
    "Timer",
    "Link",
    "LinkStats",
    "Datagram",
    "Host",
    "Interface",
    "PathConfig",
    "TwoPathTopology",
    "Router",
    "SharedBottleneckTopology",
]
