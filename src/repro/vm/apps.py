"""Guest VNF applications.

The paper runs, inside the guests:

* the DPDK ``l2fwd`` sample app as the VNF of loopback chains -- it
  "cross-connects interfaces, updates the MAC addresses, and forwards
  packets in batches" with a strict TX-drain policy, which is exactly why
  latency *rises* at 0.10 R+ (Sec. 5.3: "the strict batch processing of
  DPDK l2fwd");
* a VALE instance as the VNF in VALE chains, cross-connecting two ptnet
  ports with adaptive batching (no low-load penalty);
* the in-VM VALE *bridge* used to attach two pkt-gen instances to a
  single ptnet port for VALE's bidirectional tests (Sec. 5.2 explains
  the workaround and that it costs an extra forwarding hop).

The in-guest measurement tools live in :mod:`repro.traffic.guest`.
"""

from __future__ import annotations

from math import inf, nextafter
from typing import TYPE_CHECKING

from repro.core.packet import Packet, batch_stats
from repro.core.ring import Ring
from repro.cpu.cores import Core
from repro.cpu.costmodel import Cost
from repro.vif.virtio import VirtualInterface

if TYPE_CHECKING:
    from repro.core.engine import Simulator

#: DPDK l2fwd TX drain interval (BURST_TX_DRAIN_US is 100 us in the DPDK
#: sample app; a buffered packet waits at most this long).
L2FWD_DRAIN_NS = 100_000.0
L2FWD_BURST = 32

#: MAC-rewrite plus forwarding-table work of the l2fwd sample app.
L2FWD_PROC = Cost(per_batch=40.0, per_packet=45.0)

#: The VALE-instance VNF cross-connecting two ptnet ports inside a guest:
#: one packet copy between VALE ports plus lookup, no syscall on the ptnet
#: fast path.
GUEST_VALE_PROC = Cost(per_batch=80.0, per_packet=90.0, per_byte=0.55)

#: The pkt-gen attachment bridge (netmap vif -> VALE instance -> ptnet
#: port): crosses two guest-kernel rings, i.e. roughly twice the copies of
#: the plain VNF cross-connect.
GUEST_VALE_BRIDGE_PROC = Cost(per_batch=160.0, per_packet=180.0, per_byte=1.1)


class GuestL2Fwd:
    """DPDK l2fwd: poll rx, rewrite MACs, buffer TX, drain on burst/timeout."""

    def __init__(
        self,
        sim: "Simulator",
        rx_vif: VirtualInterface,
        tx_vif: VirtualInterface,
        burst: int = L2FWD_BURST,
        drain_ns: float = L2FWD_DRAIN_NS,
        proc: Cost = L2FWD_PROC,
        dst_mac: int = 0x02_00_00_00_00_02,
    ) -> None:
        self.sim = sim
        self.rx_vif = rx_vif
        self.tx_vif = tx_vif
        self.burst = burst
        self.drain_ns = drain_ns
        self.proc = proc
        self.dst_mac = dst_mac
        self._tx_buffer: list[Packet] = []
        self._tx_frames = 0
        self._last_flush_ns = 0.0
        self.forwarded = 0

    # Parking declarations (see Core.start).
    @property
    def park_rings(self) -> tuple[Ring, ...]:
        return (self.rx_vif.to_guest,)

    def park_deadline(self) -> float:
        """Buffered frames flush on the TX drain timer; polls before it
        (with an empty rx ring) are no-ops."""
        if not self._tx_buffer:
            return inf
        # poll() flushes once ``now - last >= drain``; two ulps below the
        # sum, float rounding of that difference cannot fire yet.
        due = self._last_flush_ns + self.drain_ns
        return nextafter(nextafter(due, -inf), -inf)

    def poll(self, core: Core) -> float:
        rx_ring = self.rx_vif.to_guest
        if not rx_ring._frames and not self._tx_buffer:
            return 0.0  # idle: nothing to receive, nothing pending drain
        cycles = 0.0
        batch = rx_ring.pop_batch(self.burst)
        if batch:
            n, total_bytes = batch_stats(batch)
            cycles += self.rx_vif.costs.guest_rx.cycles(n, total_bytes)
            cycles += self.proc.cycles(n, total_bytes)
            for item in batch:
                # Template rewrite covers every frame the item carries.
                item.dst_mac = self.dst_mac
                item.hops += 1
            self._tx_buffer.extend(batch)
            self._tx_frames += n
        now = self.sim.now
        should_flush = self._tx_buffer and (
            self._tx_frames >= self.burst
            or now - self._last_flush_ns >= self.drain_ns
        )
        if should_flush:
            out = self._tx_buffer
            out_frames = self._tx_frames
            self._tx_buffer = []
            self._tx_frames = 0
            self._last_flush_ns = now
            _, total_bytes = batch_stats(out)
            cycles += self.tx_vif.costs.guest_tx.cycles(out_frames, total_bytes)
            ring = self.tx_vif.to_host
            delay = core.cycles_to_ns(cycles) + self.tx_vif.notify_ns
            self.sim.after(delay, lambda: ring.push_batch(out))
            self.forwarded += out_frames
        return cycles


class GuestValeXConnect:
    """A VALE instance inside the guest cross-connecting two ptnet ports.

    Adaptive batching: every poll forwards *everything* available, in both
    directions -- VALE "dynamically adjusts the batch size" (Sec. 5.3), so
    there is no TX-drain delay at low load.
    """

    MAX_BATCH = 512

    def __init__(
        self,
        sim: "Simulator",
        vif_a: VirtualInterface,
        vif_b: VirtualInterface,
        proc: Cost = GUEST_VALE_PROC,
    ) -> None:
        self.sim = sim
        self.vif_a = vif_a
        self.vif_b = vif_b
        self.proc = proc
        self.forwarded = 0

    @property
    def park_rings(self) -> tuple[Ring, ...]:
        return (self.vif_a.to_guest, self.vif_b.to_guest)

    def poll(self, core: Core) -> float:
        cycles = 0.0
        for rx, tx in ((self.vif_a, self.vif_b), (self.vif_b, self.vif_a)):
            batch = rx.to_guest.pop_batch(self.MAX_BATCH)
            if not batch:
                continue
            n, total_bytes = batch_stats(batch)
            step = rx.costs.guest_rx.cycles(n, total_bytes)
            step += self.proc.cycles(n, total_bytes)
            step += tx.costs.guest_tx.cycles(n, total_bytes)
            for item in batch:
                item.hops += 1
            ring = tx.to_host
            delay = core.cycles_to_ns(cycles + step)
            self.sim.after(delay, lambda ring=ring, batch=batch: ring.push_batch(batch))
            self.forwarded += n
            cycles += step
        return cycles


class GuestValeBridge:
    """The in-VM VALE instance that multiplexes pkt-gen onto one ptnet port.

    The paper attaches the two pkt-gen instances "to a netmap virtual
    interface, which is in turn attached to the ptnet port through a VALE
    instance", noting this "imposes an extra hop of packet forwarding" and
    that VALE's bidirectional p2v/v2v results are therefore lower bounds.
    """

    MAX_BATCH = 256

    def __init__(
        self,
        sim: "Simulator",
        vif: VirtualInterface,
        proc: Cost = GUEST_VALE_BRIDGE_PROC,
        ring_slots: int = 1024,
    ) -> None:
        self.sim = sim
        self.vif = vif
        self.proc = proc
        #: netmap vif rings between pkt-gen and the bridge.
        self.gen_to_bridge = Ring(ring_slots, name="bridge.in")
        self.bridge_to_monitor = Ring(ring_slots, name="bridge.out")
        self.forwarded = 0

    @property
    def park_rings(self) -> tuple[Ring, ...]:
        return (self.gen_to_bridge, self.vif.to_guest)

    def poll(self, core: Core) -> float:
        cycles = 0.0
        # pkt-gen TX -> ptnet port (towards the host SUT).
        outbound = self.gen_to_bridge.pop_batch(self.MAX_BATCH)
        if outbound:
            n, total_bytes = batch_stats(outbound)
            step = self.proc.cycles(n, total_bytes)
            step += self.vif.costs.guest_tx.cycles(n, total_bytes)
            ring = self.vif.to_host
            self.sim.after(core.cycles_to_ns(step), lambda: ring.push_batch(outbound))
            self.forwarded += n
            cycles += step
        # ptnet port -> pkt-gen RX (from the host SUT).
        inbound = self.vif.to_guest.pop_batch(self.MAX_BATCH)
        if inbound:
            n, total_bytes = batch_stats(inbound)
            step = self.vif.costs.guest_rx.cycles(n, total_bytes)
            step += self.proc.cycles(n, total_bytes)
            ring = self.bridge_to_monitor
            delay = core.cycles_to_ns(cycles + step)
            self.sim.after(delay, lambda: ring.push_batch(inbound))
            self.forwarded += n
            cycles += step
        return cycles
