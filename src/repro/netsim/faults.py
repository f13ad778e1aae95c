"""Deterministic fault injection: timed mutations of a live network.

The paper's robustness story (§4.3) hinges on *dynamics*: a path that
goes dark mid-transfer, a WiFi link whose rate collapses as the user
walks away, loss that arrives in bursts for a while and then clears.
Static link parameters cannot express any of that, so this module adds
a declarative :class:`FaultTimeline` — an ordered set of
:class:`FaultEvent`\\ s, each applying one :class:`Mutation` to one path
at an absolute simulated time.  ns-3-based multipath reproductions
treat scheduled link up/down and parameter changes as first-class
scenario inputs; this is the simulator-native equivalent.

Design rules:

* **Deterministic.**  A timeline is plain frozen data; replaying the
  same timeline over the same seeded topology yields bit-identical
  simulations.  Burst-loss episodes derive their randomness from the
  mutation's own ``seed`` combined with a CRC of the link name, never
  from global state.
* **Cache-addressable.**  :meth:`FaultTimeline.key_material` renders
  the timeline into canonical JSON-compatible data, so the experiment
  layers can fold it into result-cache keys: same scenario + different
  timeline = different key.
* **Observable.**  When a tracer is attached, every fired event emits a
  typed ``network:*`` event (:data:`repro.obs.events.CAT_NETWORK`), so
  traces show the network timeline next to the transport's reaction.

Mutations are applied through :meth:`repro.netsim.link.Link.apply`,
which re-plans in-flight serialization where needed (rate changes) and
distinguishes *link down* (datagrams dropped at the NIC, queue flushed)
from *blackholing* (datagrams serialized — consuming bandwidth — then
silently discarded, the classic mid-box failure).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.events import CAT_NETWORK, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.engine import Simulator
    from repro.netsim.link import Link


# ----------------------------------------------------------------------
# Mutations
# ----------------------------------------------------------------------

class Mutation:
    """One atomic change to a link's behaviour.

    Concrete mutations are frozen dataclasses; ``kind`` doubles as the
    obs event name and the cache-key discriminator.
    """

    kind = "abstract"

    def apply_to_link(self, link: "Link") -> None:
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        """JSON-compatible parameters (cache keys and obs payloads)."""
        return asdict(self)  # type: ignore[call-overload]


@dataclass(frozen=True)
class LinkDown(Mutation):
    """Administratively disable the link.

    Queued and in-flight-serializing datagrams are dropped at the NIC;
    datagrams already propagating (on the wire) still arrive.  New
    sends are rejected until a :class:`LinkUp`.
    """

    kind = "link_down"

    def apply_to_link(self, link: "Link") -> None:
        link.set_up(False)


@dataclass(frozen=True)
class LinkUp(Mutation):
    """Re-enable a previously downed link."""

    kind = "link_up"

    def apply_to_link(self, link: "Link") -> None:
        link.set_up(True)


@dataclass(frozen=True)
class RateChange(Mutation):
    """Change the serialization rate mid-simulation.

    A datagram currently being clocked onto the wire is re-planned: the
    bytes not yet serialized finish at the new rate.
    """

    rate_mbps: float

    kind = "rate_change"

    def apply_to_link(self, link: "Link") -> None:
        link.set_rate(self.rate_mbps * 1e6)


@dataclass(frozen=True)
class DelayChange(Mutation):
    """Change the path's two-way propagation delay.

    Mirrors :class:`repro.netsim.topology.PathConfig`: ``rtt_ms`` is
    split evenly per direction.  Datagrams already propagating keep the
    delay they departed with (physics, not configuration).
    """

    rtt_ms: float

    kind = "delay_change"

    def apply_to_link(self, link: "Link") -> None:
        link.set_prop_delay(self.rtt_ms / 2.0 / 1e3)


@dataclass(frozen=True)
class LossChange(Mutation):
    """Step the independent (Bernoulli) random-loss rate.

    Replaces any burst-loss model currently installed on the link —
    same override semantics as ``TwoPathTopology.set_path_loss``.
    """

    loss_percent: float

    kind = "loss_change"

    def apply_to_link(self, link: "Link") -> None:
        link.set_burst_loss(None)
        link.set_loss_rate(self.loss_percent / 100.0)


@dataclass(frozen=True)
class BurstLossStart(Mutation):
    """Begin a Gilbert-Elliott bursty-loss episode (wireless fading).

    ``seed`` keeps the episode deterministic: the per-link RNG derives
    from ``seed`` and a CRC of the link's name, so forward and return
    directions fade independently yet reproducibly.  A later
    :class:`LossChange` (e.g. to 0) ends the episode.
    """

    loss_percent: float
    mean_burst: float = 4.0
    seed: int = 0

    kind = "burst_loss_start"

    def apply_to_link(self, link: "Link") -> None:
        from repro.netsim.link import GilbertElliottLoss

        rng = random.Random(zlib.crc32(link.name.encode()) ^ (self.seed * 0x9E3779B1))
        link.set_burst_loss(
            GilbertElliottLoss(
                avg_loss_rate=self.loss_percent / 100.0,
                mean_burst=self.mean_burst,
                rng=rng,
            )
        )


@dataclass(frozen=True)
class Blackhole(Mutation):
    """Silently discard datagrams after serialization.

    Distinct from :class:`LinkDown`: the sender's NIC still accepts and
    clocks out every datagram (bandwidth and queueing behave normally),
    but nothing ever reaches the far end — the failure mode of a dead
    middlebox or a stale route, and the hardest one for a transport to
    detect (only timers fire, no local error).
    """

    enabled: bool = True

    kind = "blackhole"

    def apply_to_link(self, link: "Link") -> None:
        link.set_blackhole(self.enabled)


# ----------------------------------------------------------------------
# Timeline
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FaultEvent:
    """Apply ``mutation`` to path ``path`` at simulated time ``time``."""

    time: float
    path: int
    mutation: Mutation

    def __post_init__(self) -> None:
        if self.time < 0.0:
            raise ValueError("fault time must be non-negative")
        if self.path < 0:
            raise ValueError("path index must be non-negative")


@dataclass(frozen=True)
class FaultTimeline:
    """A scenario's network dynamics: fault events in time order.

    Events are normalised to ``(time, path, kind)`` order at
    construction, so two timelines listing the same events in different
    order are equal — and produce identical cache keys.
    """

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.time, e.path, e.mutation.kind))
        )
        object.__setattr__(self, "events", ordered)

    def __bool__(self) -> bool:
        return bool(self.events)

    def key_material(self) -> List[Dict[str, Any]]:
        """Canonical JSON-compatible form for result-cache keys."""
        return [
            {
                "time": ev.time,
                "path": ev.path,
                "mutation": {"kind": ev.mutation.kind, **ev.mutation.describe()},
            }
            for ev in self.events
        ]

    def install(
        self, sim: "Simulator", topology: Any, trace: Optional[Tracer] = None
    ) -> None:
        """Schedule every event against a running simulation.

        ``topology`` must offer ``apply_fault(path_index, mutation)``
        (see :class:`repro.netsim.topology.TwoPathTopology`).  With a
        :class:`repro.obs.Tracer` attached, each firing emits a typed
        ``network:<kind>`` event carrying the mutation parameters.
        """
        for ev in self.events:
            if ev.path >= len(topology.paths):
                raise ValueError(
                    f"fault references path {ev.path} but the topology "
                    f"has {len(topology.paths)} paths"
                )
            sim.schedule_at(ev.time, self._fire, ev, sim, topology, trace)

    @staticmethod
    def _fire(
        ev: FaultEvent, sim: "Simulator", topology: Any, trace: Optional[Tracer]
    ) -> None:
        topology.apply_fault(ev.path, ev.mutation)
        if trace is not None:
            trace.emit(
                sim.now, "network", CAT_NETWORK, ev.mutation.kind,
                ev.path, **ev.mutation.describe(),
            )


# ----------------------------------------------------------------------
# Terse constructors (scenario files and tests)
# ----------------------------------------------------------------------

def link_down(time: float, path: int) -> FaultEvent:
    return FaultEvent(time, path, LinkDown())


def link_up(time: float, path: int) -> FaultEvent:
    return FaultEvent(time, path, LinkUp())


def rate_change(time: float, path: int, rate_mbps: float) -> FaultEvent:
    return FaultEvent(time, path, RateChange(rate_mbps))


def delay_change(time: float, path: int, rtt_ms: float) -> FaultEvent:
    return FaultEvent(time, path, DelayChange(rtt_ms))


def loss_change(time: float, path: int, loss_percent: float) -> FaultEvent:
    return FaultEvent(time, path, LossChange(loss_percent))


def burst_loss(
    time: float, path: int, loss_percent: float,
    mean_burst: float = 4.0, seed: int = 0,
) -> FaultEvent:
    return FaultEvent(time, path, BurstLossStart(loss_percent, mean_burst, seed))


def blackhole(time: float, path: int, enabled: bool = True) -> FaultEvent:
    return FaultEvent(time, path, Blackhole(enabled))


def timeline(*events: FaultEvent) -> FaultTimeline:
    """``timeline(link_down(2.0, 0), link_up(4.0, 0))`` and similar."""
    return FaultTimeline(tuple(events))
