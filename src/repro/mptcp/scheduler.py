"""MPTCP subflow schedulers.

The Linux default scheduler prefers the established subflow with the
lowest smoothed RTT among those with congestion-window space.  Its RTT
estimates come from Karn-sampled, delayed-ACK-inflated measurements, so
under load it can mis-prefer the slow path — one of the behaviours the
paper observes causing head-of-line blocking (§4.1).
"""

from __future__ import annotations

from typing import Collection, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.tcp.flow import TcpFlow


class SubflowScheduler:
    """Base class: choose the subflow for the next data chunk."""

    name = "abstract"

    def select(self, subflows: Collection["TcpFlow"]) -> Optional["TcpFlow"]:
        raise NotImplementedError

    @staticmethod
    def usable(subflows: Collection["TcpFlow"]) -> List["TcpFlow"]:
        """Established subflows with cwnd room, skipping potentially
        failed ones unless every subflow is in that state."""
        ready = [f for f in subflows if f.established and f.can_take_data()]
        good = [f for f in ready if not f.potentially_failed]
        return good or ready


class LowestRttSubflowScheduler(SubflowScheduler):
    """Linux MPTCP's default scheduler."""

    name = "lowest_rtt"

    def select(self, subflows: Collection["TcpFlow"]) -> Optional["TcpFlow"]:
        # One pass, ranking as `usable()` + min-by-RTT would: healthy
        # before potentially failed, RTT-sampled before unsampled, then
        # lowest (srtt, interface); unsampled subflows all rank equal,
        # so the first in order wins.
        best: Optional["TcpFlow"] = None
        best_rank: Tuple[bool, bool, float, int] = (True, True, 0.0, 0)
        for flow in subflows:
            if not flow.can_take_data():
                continue
            rtt = flow.rtt
            if rtt.has_sample:
                rank = (flow.potentially_failed, False, rtt.smoothed,
                        flow.interface_index)
            else:
                rank = (flow.potentially_failed, True, 0.0, 0)
            if best is None or rank < best_rank:
                best, best_rank = flow, rank
        return best


class RoundRobinSubflowScheduler(SubflowScheduler):
    """Round-robin over usable subflows (mptcp's rr module)."""

    name = "round_robin"

    def __init__(self) -> None:
        self._last = -1

    def select(self, subflows: Collection["TcpFlow"]) -> Optional["TcpFlow"]:
        candidates = sorted(self.usable(subflows), key=lambda f: f.interface_index)
        if not candidates:
            return None
        for flow in candidates:
            if flow.interface_index > self._last:
                self._last = flow.interface_index
                return flow
        self._last = candidates[0].interface_index
        return candidates[0]


class BackupSubflowScheduler(SubflowScheduler):
    """Primary/backup mode (how iOS deploys MPTCP, paper §1).

    All data rides the primary (initial) subflow; the backup is used
    only while the primary is potentially failed — pure handover
    insurance with no aggregation.
    """

    name = "backup"

    def __init__(self, primary_interface: int = 0) -> None:
        self.primary_interface = primary_interface

    def select(self, subflows: Collection["TcpFlow"]) -> Optional["TcpFlow"]:
        primary = next(
            (
                f for f in subflows
                if f.interface_index == self.primary_interface and f.established
            ),
            None,
        )
        if primary is not None and not primary.potentially_failed:
            # A congestion-limited primary means *wait*, not fail over.
            return primary if primary.can_take_data() else None
        ready = [
            f for f in subflows
            if f.established and f.can_take_data() and f is not primary
        ]
        backups = [f for f in ready if not f.potentially_failed]
        if backups:
            return backups[0]
        return ready[0] if ready else None


def make_subflow_scheduler(name: str, primary_interface: int = 0) -> SubflowScheduler:
    """Factory by name ('lowest_rtt', 'round_robin', 'backup')."""
    name = name.lower()
    if name == "lowest_rtt":
        return LowestRttSubflowScheduler()
    if name == "round_robin":
        return RoundRobinSubflowScheduler()
    if name == "backup":
        return BackupSubflowScheduler(primary_interface)
    raise ValueError(f"unknown MPTCP scheduler: {name}")
