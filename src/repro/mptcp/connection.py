"""The MPTCP connection: data sequence space over TCP subflows.

Follows Linux MPTCP v0.91 behaviour as described by the paper and by
Raiciu et al. (NSDI'12):

* data is **bound** to a subflow at transmission time (the scheduler
  fills each subflow's congestion window with MSS-sized chunks carrying
  DSS mappings) and subflow-level retransmissions must stay in sequence
  on the same subflow;
* a connection-level cumulative DATA_ACK and a **shared receive
  window** over the data sequence space;
* **ORP**: when the shared window blocks sending, the chunk at
  ``DATA_UNA`` is opportunistically reinjected on a subflow with free
  window and the subflow holding it is penalised (cwnd halved);
* after a subflow RTO, its outstanding chunks are also reinjected on
  the remaining subflows (handover behaviour), while the subflow itself
  still retransmits them in sequence — the duplicate traffic the paper
  notes limits MPTCP goodput;
* OLIA coupled congestion control and the default lowest-RTT scheduler.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Optional, Tuple

from repro.cc import OliaCoordinator, make_controller
from repro.mptcp.scheduler import SubflowScheduler, make_subflow_scheduler
from repro.netsim.engine import Simulator
from repro.netsim.node import Datagram, Host
from repro.obs import metrics as _metrics
from repro.obs.events import Tracer
from repro.quic.flowcontrol import ReceiveWindow
from repro.tcp.config import TcpConfig, TLS_MESSAGE_SIZES
from repro.tcp.flow import FlowOwner, TcpFlow
from repro.tcp.segment import Segment
from repro.util.ranges import RangeSet
from repro.util.reassembly import Reassembler


class _Mapping:
    """DSS mappings of one subflow, ordered by subflow sequence."""

    def __init__(self) -> None:
        self.starts: List[int] = []  # subflow seq of each chunk
        self.entries: List[Tuple[int, int, int]] = []  # (sf_start, dsn, length)
        #: Every DSN byte ever bound here (reinjections included), so
        #: "did this subflow ever hold byte d?" is one bisect.
        self.dsn_bound = RangeSet()

    def add(self, sf_start: int, dsn: int, length: int) -> None:
        self.starts.append(sf_start)
        self.entries.append((sf_start, dsn, length))
        self.dsn_bound.add(dsn, dsn + length)

    def lookup(self, seq: int) -> Optional[Tuple[int, int, int]]:
        """Mapping entry covering subflow sequence ``seq``."""
        idx = bisect.bisect_right(self.starts, seq) - 1
        if idx < 0:
            return None
        entry = self.entries[idx]
        if entry[0] <= seq < entry[0] + entry[2]:
            return entry
        return None

    def dsn_ranges_bound(self) -> List[Tuple[int, int]]:
        """All (dsn_start, dsn_stop) chunks ever bound to the subflow."""
        return [(dsn, dsn + length) for _, dsn, length in self.entries]


class MptcpConnection(FlowOwner):
    """One endpoint of a Multipath TCP connection."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        role: str,
        config: Optional[TcpConfig] = None,
        trace: Optional[Tracer] = None,
        initial_interface: int = 0,
    ) -> None:
        if role not in ("client", "server"):
            raise ValueError("role must be 'client' or 'server'")
        self.sim = sim
        self.host = host
        self.role = role
        self.config = config or TcpConfig()
        self.trace = trace
        self.initial_interface = initial_interface
        self.scheduler: SubflowScheduler = make_subflow_scheduler(
            self.config.scheduler, primary_interface=initial_interface
        )
        self._olia = (
            OliaCoordinator(mss=self.config.mss)
            if self.config.multipath_cc == "olia"
            else None
        )

        # One subflow per interface; only the initial one connects now.
        self.subflows: Dict[int, TcpFlow] = {}
        self._mappings: Dict[int, _Mapping] = {}
        for iface in host.interfaces:
            self._create_subflow(iface.index)
        host.set_datagram_handler(self._datagram_received)

        # --- data-level sender state ---
        self._dsn_buf = bytearray()
        self._dsn_next = 0  # next never-bound dsn
        self._dsn_fin: Optional[int] = None
        self._reinject = RangeSet()  # dsn ranges queued for rebinding
        self.data_una = 0
        self._peer_data_window_edge = self.config.initial_receive_window
        self._last_penalty: Dict[int, float] = {}
        self._last_orp_dsn = -1
        #: When the shared window first blocked sending (-1 = not
        #: blocked).  ORP waits out one RTT before reinjecting so a
        #: merely in-flight head chunk is not treated as stuck.
        self._window_blocked_since = -1.0

        # --- data-level receiver state ---
        self.reassembler = Reassembler()
        self._recv_window = ReceiveWindow(
            self.config.initial_receive_window,
            self.config.max_receive_window,
            autotune=self.config.window_autotune,
        )

        # --- TLS model (runs over the data sequence space) ---
        self._tls_bytes_expected = 0
        self._tls_stage = 0
        if role == "server" and self.config.use_tls:
            # Expect the ClientHello from the start: with multiple
            # subflows the first data may arrive on a join subflow
            # before the initial subflow finishes establishing.
            self._tls_bytes_expected = TLS_MESSAGE_SIZES["client_hello"]
        self.secure_established = False
        self.established_at: Optional[float] = None

        # --- app interface ---
        self.on_established: Optional[Callable[[], None]] = None
        self.on_app_data: Optional[Callable[[bytes, bool], None]] = None
        self.app_bytes_received = 0

        # --- stats ---
        self.reinjected_bytes = 0
        self.orp_events = 0
        self.penalisations = 0

    # ------------------------------------------------------------------
    # Subflow management
    # ------------------------------------------------------------------

    def _make_cc(self, interface_index: int):
        if self._olia is not None:
            return self._olia.path_controller(interface_index)
        return make_controller(self.config.multipath_cc, mss=self.config.mss)

    def _create_subflow(self, interface_index: int) -> TcpFlow:
        flow = TcpFlow(
            self.sim,
            self.host,
            interface_index,
            self.role,
            self.config,
            self._make_cc(interface_index),
            owner=self,
            mapped_delivery=True,
            trace=self.trace,
            name=f"mptcp-{self.role}-sf{interface_index}",
        )
        self.subflows[interface_index] = flow
        self._mappings[interface_index] = _Mapping()
        return flow

    def connect(self) -> None:
        """Client: 3-way handshake on the initial subflow.

        Additional subflows join only after the initial handshake
        completes (MP_JOIN requires the MP_CAPABLE exchange), costing
        one extra round trip before the second path can carry data —
        the startup disadvantage against MPQUIC (§3, Path Management).
        """
        if self.role != "client":
            raise ValueError("only clients connect()")
        self.subflows[self.initial_interface].connect()

    @property
    def initial_subflow(self) -> TcpFlow:
        return self.subflows[self.initial_interface]

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def send_app_data(self, data: bytes, fin: bool = False) -> None:
        """Write application bytes onto the data sequence space."""
        if not self.secure_established:
            raise RuntimeError("connection not yet established")
        self._write_dsn(data, fin)

    def all_sent_data_acked(self) -> bool:
        if self._dsn_fin is None:
            return False
        return self.data_una >= self._dsn_fin

    @property
    def smoothed_rtt(self) -> float:
        rtts = [f.rtt.smoothed for f in self.subflows.values() if f.rtt.has_sample]
        return min(rtts) if rtts else 0.0

    def _write_dsn(self, data: bytes, fin: bool = False) -> None:
        self._dsn_buf += data
        if fin:
            self._dsn_fin = len(self._dsn_buf)
        self._push_data()

    # ------------------------------------------------------------------
    # Scheduler: bind DSN chunks to subflows
    # ------------------------------------------------------------------

    def _push_data(self) -> None:
        """Bind pending data to subflows, reinjections first."""
        subflows = self.subflows.values()
        while True:
            flow = self.scheduler.select(subflows)
            if flow is None:
                return
            if self._reinject:
                dsn_start, dsn_stop = next(iter(self._reinject))
                dsn_stop = min(dsn_stop, dsn_start + self.config.mss)
                self._reinject.remove(dsn_start, dsn_stop)
                self._bind_chunk(flow, dsn_start, dsn_stop)
                self.reinjected_bytes += dsn_stop - dsn_start
                continue
            if self._dsn_next < len(self._dsn_buf):
                if self._dsn_next >= self._peer_data_window_edge:
                    # Shared receive window is closed: try ORP.
                    if self._window_blocked_since < 0:
                        self._window_blocked_since = self.sim.now
                    self._maybe_orp(flow, window_blocked=True)
                    return
                self._window_blocked_since = -1.0
                dsn_start = self._dsn_next
                dsn_stop = min(
                    len(self._dsn_buf),
                    dsn_start + self.config.mss,
                    self._peer_data_window_edge,
                )
                self._dsn_next = dsn_stop
                self._bind_chunk(flow, dsn_start, dsn_stop)
                continue
            # No new data: a free subflow may rescue the stream tail,
            # but only from a subflow that looks dead (otherwise plain
            # idleness would spam duplicates).
            if self.data_una < self._dsn_next:
                self._maybe_orp(flow, window_blocked=False)
            return

    def _bind_chunk(self, flow: TcpFlow, dsn_start: int, dsn_stop: int) -> None:
        """Bind data chunk [dsn_start, dsn_stop) to ``flow``.

        From here on the bytes live in the subflow's sequence space:
        subflow-level retransmissions are pinned to this path, exactly
        the inflexibility MPQUIC removes (§3, Packet Scheduling).
        """
        mapping = self._mappings[flow.interface_index]
        mapping.add(flow.buffered_end_seq, dsn_start, dsn_stop - dsn_start)
        flow.write(self._dsn_buf[dsn_start:dsn_stop])

    def _maybe_orp(self, free_flow: TcpFlow, window_blocked: bool = True) -> None:
        """Opportunistic Retransmission and Penalisation [Raiciu12].

        The chunk holding up the shared window (at DATA_UNA) is
        reinjected on the free subflow; the subflow it was bound to is
        penalised by halving its congestion window (at most once per
        RTT).
        """
        if not self.config.enable_orp:
            return
        if self.data_una >= len(self._dsn_buf):
            return
        if self.data_una == self._last_orp_dsn:
            return  # already reinjected this chunk; wait for progress
        holder = self._holder_of(self.data_una)
        if holder is None or holder.interface_index == free_flow.interface_index:
            return
        if not window_blocked and not holder.potentially_failed:
            return
        if (
            window_blocked
            and not holder.potentially_failed
            and self.sim.now - self._window_blocked_since
            < max(holder.rtt.smoothed, 0.01)
        ):
            # The head chunk may simply still be in flight: give it one
            # round trip before declaring it stuck.
            return
        chunk_stop = min(self.data_una + self.config.mss, len(self._dsn_buf))
        self.orp_events += 1
        self._last_orp_dsn = self.data_una
        self._bind_chunk(free_flow, self.data_una, chunk_stop)
        self.reinjected_bytes += chunk_stop - self.data_una
        # Penalise the slow subflow, rate-limited to once per RTT.
        now = self.sim.now
        last = self._last_penalty.get(holder.interface_index, -1.0)
        if now - last > max(holder.rtt.smoothed, 0.01):
            self._last_penalty[holder.interface_index] = now
            self.penalisations += 1
            cc = holder.cc
            # "We halve its congestion window" [Raiciu12].  ssthresh is
            # left alone: the penalty is a transient brake, not a
            # permanent cap (a slow-starting subflow may resume).
            cc.cwnd_bytes = max(cc.cwnd_bytes / 2.0, 2 * self.config.mss)

    def _holder_of(self, dsn: int) -> Optional[TcpFlow]:
        """The subflow ORP penalises for DSN byte ``dsn``: of the
        subflows that were *ever* bound that byte, the last in
        interface order — not the most recent binding (see
        docs/protocol_notes.md, "ORP holder")."""
        best: Optional[TcpFlow] = None
        for iface, mapping in self._mappings.items():
            if dsn in mapping.dsn_bound:
                best = self.subflows[iface]
        return best

    # ------------------------------------------------------------------
    # FlowOwner hooks
    # ------------------------------------------------------------------

    def flow_established(self, flow: TcpFlow) -> None:
        if flow.interface_index == self.initial_interface:
            if self.role == "client":
                self._open_joins()
                self._start_tls_client()
            else:
                if self.config.use_tls:
                    self._tls_bytes_expected = TLS_MESSAGE_SIZES["client_hello"]
                    self._tls_stage = 0
                else:
                    self._secure_done()
        self._push_data()

    def _open_joins(self) -> None:
        for iface, flow in self.subflows.items():
            if iface != self.initial_interface and self.host.interfaces[iface].up:
                flow.connect()

    def _start_tls_client(self) -> None:
        if not self.config.use_tls:
            self._secure_done()
            return
        self._tls_bytes_expected = TLS_MESSAGE_SIZES["server_hello"]
        self._tls_stage = 0
        self._write_dsn(b"\x16" * TLS_MESSAGE_SIZES["client_hello"])

    def flow_mapped_data(
        self, flow: TcpFlow, dsn: int, data: bytes, data_fin: bool
    ) -> None:
        if data_fin:
            self.reassembler.set_final_size(dsn + len(data))
        new_highest = dsn + len(data)
        if new_highest > self._recv_window.highest_received:
            self._recv_window.on_data_received(
                min(new_highest, self._recv_window.advertised_limit)
            )
        self.reassembler.insert(dsn, data)
        ready = self.reassembler.pop_ready()
        if not ready and not self.reassembler.is_complete():
            return
        self._recv_window.on_data_consumed(len(ready))
        new_limit = self._recv_window.maybe_update(self.sim.now, self.smoothed_rtt)
        payload = self._consume_tls(ready)
        fin = self.reassembler.is_complete()
        if payload or fin:
            self.app_bytes_received += len(payload)
            if self.on_app_data:
                self.on_app_data(payload, fin)
        if new_limit is not None:
            # The wider window rides a pure ACK on the delivering
            # subflow (other subflows pick it up on their own ACKs).
            flow.send_ack()

    def _consume_tls(self, data: bytes) -> bytes:
        if not self.config.use_tls or self.secure_established:
            return data
        sizes = TLS_MESSAGE_SIZES
        while data and self._tls_bytes_expected > 0:
            take = min(len(data), self._tls_bytes_expected)
            self._tls_bytes_expected -= take
            data = data[take:]
            if self._tls_bytes_expected == 0:
                if self.role == "server":
                    if self._tls_stage == 0:
                        self._write_dsn(b"\x16" * sizes["server_hello"])
                        self._tls_bytes_expected = sizes["client_finished"]
                        self._tls_stage = 1
                    else:
                        self._write_dsn(b"\x16" * sizes["server_finished"])
                        self._secure_done()
                else:
                    if self._tls_stage == 0:
                        self._write_dsn(b"\x16" * sizes["client_finished"])
                        self._tls_bytes_expected = sizes["server_finished"]
                        self._tls_stage = 1
                    else:
                        self._secure_done()
        return data

    def _secure_done(self) -> None:
        self.secure_established = True
        self.established_at = self.sim.now
        if self.on_established:
            self.on_established()

    def flow_window_edge(self, flow: TcpFlow) -> int:
        return self._recv_window.advertised_limit

    def flow_data_ack(self, flow: TcpFlow) -> Optional[int]:
        return self.reassembler.read_offset

    def flow_on_ack(self, flow: TcpFlow, data_ack: Optional[int]) -> None:
        if data_ack is not None and data_ack > self.data_una:
            self.data_una = data_ack
            self._reinject.remove(0, data_ack)
            self._window_blocked_since = -1.0  # head progressed
        # The segment's window_edge was absorbed by the flow; mirror it
        # into the shared (DSN) window edge.
        if flow.peer_window_edge > self._peer_data_window_edge:
            self._peer_data_window_edge = flow.peer_window_edge
        self._push_data()

    def flow_on_rto(self, flow: TcpFlow) -> None:
        """Reinject data stuck on a timed-out subflow.

        Linux's ``mptcp_retransmit_timer`` reinjects the head-of-queue
        segment on another subflow per timeout.  Once the subflow is
        deemed potentially failed (no activity since last transmission,
        pull #70) everything it still holds is reinjected so a handover
        can complete (§4.3); meanwhile the subflow itself also
        retransmits in sequence — duplicate traffic the paper counts
        against MPTCP.
        """
        if not self.config.reinject_on_rto:
            return
        mapping = self._mappings[flow.interface_index]
        for sf_start, dsn, length in mapping.entries:
            if sf_start + length <= flow.snd_una:
                continue  # delivered and acknowledged on the subflow
            dsn_stop = dsn + length
            if dsn_stop <= self.data_una:
                continue
            self._reinject.add(max(dsn, self.data_una), dsn_stop)
            if not flow.potentially_failed:
                break  # ordinary RTO: reinject only the head chunk
        self._push_data()

    def flow_dss_for_range(
        self, flow: TcpFlow, start: int, stop: int
    ) -> Optional[Tuple[int, bool]]:
        entry = self._mappings[flow.interface_index].lookup(start)
        if entry is None:
            return None
        sf_start, dsn, length = entry
        seg_dsn = dsn + (start - sf_start)
        seg_len = stop - start
        data_fin = (
            self._dsn_fin is not None and seg_dsn + seg_len == self._dsn_fin
        )
        return seg_dsn, data_fin

    def flow_mapping_stop(self, flow: TcpFlow, start: int) -> int:
        entry = self._mappings[flow.interface_index].lookup(start)
        if entry is None:
            return 1 << 62
        sf_start, _dsn, length = entry
        return sf_start + length

    # ------------------------------------------------------------------
    # Demux and teardown
    # ------------------------------------------------------------------

    def _datagram_received(self, datagram: Datagram, interface_index: int) -> None:
        segment: Segment = datagram.payload
        flow = self.subflows.get(interface_index)
        if flow is None:
            return
        if _metrics.METRICS:
            # Re-scope wall time from the delivering link to `mptcp`, as
            # QuicConnection.datagram_received does for `quic`.
            _metrics.REGISTRY.enter("mptcp")
            try:
                flow.segment_received(segment)
            finally:
                _metrics.REGISTRY.exit()
        else:
            flow.segment_received(segment)

    def close_timers(self) -> None:
        for flow in self.subflows.values():
            flow.close_timers()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def bytes_sent_per_subflow(self) -> Dict[int, int]:
        return {i: f.bytes_sent for i, f in self.subflows.items()}

    def subflow_stats(self) -> Dict[int, Dict[str, float]]:
        out: Dict[int, Dict[str, float]] = {}
        for i, f in self.subflows.items():
            out[i] = {
                "segments_sent": f.segments_sent,
                "bytes_sent": f.bytes_sent,
                "bytes_retransmitted": f.bytes_retransmitted,
                "srtt": f.rtt.smoothed,
                "rtos": f.rto_count,
                "fast_retransmits": f.fast_retransmits,
                "potentially_failed": float(f.potentially_failed),
            }
        return out
