"""Packet schedulers for Multipath QUIC.

The default scheduler mirrors the Linux MPTCP default the paper starts
from: prefer the lowest smoothed-RTT path whose congestion window is
not full.  MPQUIC differs in two ways (paper §3, *Packet Scheduling*):
control frames may go on any path, and traffic is duplicated onto
paths whose RTT is still unknown rather than pinging-and-waiting or
blind round-robin.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

from repro.obs import metrics as _metrics
from repro.quic.connection import PathLiveness, PathState
from repro.util import sanitize as _san


class Scheduler(ABC):
    """Chooses the path carrying the next data packet."""

    name = "abstract"

    #: When True the connection duplicates data onto every sendable
    #: path, not just RTT-unknown ones (see RedundantScheduler).
    duplicate_everywhere = False

    @abstractmethod
    def select_path(self, paths: List[PathState]) -> Optional[PathState]:
        """Return a usable path with window space, or None when blocked.

        ``paths`` holds the connection's usable paths (active, and not
        potentially failed unless every path is).
        """

    def choose(self, paths: List[PathState]) -> Optional[PathState]:
        """Select a path, counting and sanity-checking the decision."""
        path = self.select_path(paths)
        if _metrics.METRICS and path is not None:
            _metrics.REGISTRY.inc("scheduler.decisions")
        if _san.SANITIZE and path is not None:
            # A scheduler must only pick from the offered paths and
            # never overcommit a full congestion window.
            _san.check(
                any(p is path for p in paths),
                "scheduler selected a path outside the candidate list",
                scheduler=self.name,
                path_id=path.path_id,
            )
            _san.check(
                path.can_send_data(),
                "scheduler selected a path with no congestion window room",
                scheduler=self.name,
                path_id=path.path_id,
            )
            # Fresh data never rides a path under active probing or one
            # already retired (the connection's _usable_paths filter
            # must have kept them out of the candidate list).
            liveness = getattr(path, "liveness", PathLiveness.ACTIVE)
            _san.check(
                liveness is not PathLiveness.PROBING
                and liveness is not PathLiveness.ABANDONED,
                "scheduler selected a probing or abandoned path",
                scheduler=self.name,
                path_id=path.path_id,
                liveness=getattr(liveness, "value", str(liveness)),
            )
        return path

    @staticmethod
    def sendable(paths: List[PathState]) -> List[PathState]:
        """Paths with congestion-window room."""
        return [p for p in paths if p.can_send_data()]


class SinglePathScheduler(Scheduler):
    """Plain QUIC: always the initial path."""

    name = "single"

    def select_path(self, paths: List[PathState]) -> Optional[PathState]:
        candidates = self.sendable(paths)
        for path in candidates:
            if path.path_id == 0:
                return path
        return candidates[0] if candidates else None


class LowestRttScheduler(Scheduler):
    """Default MPQUIC scheduler (paper §3).

    Among paths with window space, prefer the lowest smoothed RTT.
    Paths without an RTT estimate are only picked when no measured
    path can send — they otherwise receive duplicated traffic via the
    connection's duplication hook.
    """

    name = "lowest_rtt"

    def select_path(self, paths: List[PathState]) -> Optional[PathState]:
        # Single fused pass: this runs once per data packet, so the
        # two-listcomp-plus-min formulation was a measurable cost.
        best: Optional[PathState] = None
        best_rtt = 0.0
        fallback: Optional[PathState] = None
        for p in paths:
            if not p.can_send_data():
                continue
            if p.rtt_known:
                rtt = p.rtt.smoothed
                if (
                    best is None
                    or rtt < best_rtt
                    # Deterministic path-id tie-break, as in the old
                    # (smoothed, path_id) sort key.
                    or (rtt == best_rtt and p.path_id < best.path_id)  # repro: allow[float-equality]
                ):
                    best, best_rtt = p, rtt
            elif fallback is None or p.path_id < fallback.path_id:
                fallback = p
        return best if best is not None else fallback


class RoundRobinScheduler(Scheduler):
    """Cycles over sendable paths; the paper's discarded alternative.

    Kept for the scheduler ablation: it is fragile when paths have
    very different delays (head-of-line blocking at the receiver).
    """

    name = "round_robin"

    def __init__(self) -> None:
        self._last_path_id = -1

    def select_path(self, paths: List[PathState]) -> Optional[PathState]:
        candidates = sorted(self.sendable(paths), key=lambda p: p.path_id)
        if not candidates:
            return None
        for path in candidates:
            if path.path_id > self._last_path_id:
                self._last_path_id = path.path_id
                return path
        self._last_path_id = candidates[0].path_id
        return candidates[0]


class RedundantScheduler(LowestRttScheduler):
    """Send every packet on *all* paths with window room.

    Not in the paper, but the logical extreme of its duplication idea:
    trade goodput for latency robustness.  Under path failure the worst
    request delay collapses to the surviving path's RTT (see the
    handover ablation).  Selection is lowest-RTT; the connection's
    duplication hook copies the payload onto every other sendable path.
    """

    name = "redundant"

    #: The connection duplicates onto all paths, not just RTT-unknown ones.
    duplicate_everywhere = True


def make_scheduler(name: str) -> Scheduler:
    """Factory by name; 'lowest_rtt_no_dup' shares LowestRtt's logic
    (duplication is controlled by ``QuicConfig.duplicate_on_unknown_rtt``)."""
    name = name.lower()
    if name in ("lowest_rtt", "lowest_rtt_no_dup"):
        return LowestRttScheduler()
    if name == "round_robin":
        return RoundRobinScheduler()
    if name == "single":
        return SinglePathScheduler()
    if name == "redundant":
        return RedundantScheduler()
    raise ValueError(f"unknown scheduler: {name}")
