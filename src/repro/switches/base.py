"""Software switch framework.

A :class:`SoftwareSwitch` is a :class:`~repro.cpu.cores.Task` pinned to the
single SUT core (Sec. 5.1).  Scenario builders attach *ports* -- physical
NICs or virtual interfaces -- and declare *forwarding paths* between them
(the l2patch / port-mirror / cross-connect configurations of Appendix A).
Each poll-loop iteration ("breath", in Snabb terms) services every path:
pop a batch from the input, pay the receive + processing + transmit cycle
costs (modulated by the switch's stability process), and deliver the
batch to the output once that time has elapsed.

Mechanisms expressed here, switch models toggle them via params:

* run-to-completion vs pipeline servicing (``params.pipeline``);
* poll-mode vs interrupt I/O (``params.interrupt_driven`` plus NIC
  interrupt moderation);
* strict batch constitution with a timeout (t4p4s);
* TX drain buffering on vif outputs (FastClick);
* per-path service-cost jitter and Poisson stalls;
* memory-bus accounting for vhost-user copies (binds in v2v);
* per-switch processing hooks (OvS flow cache, VALE MAC learning, ...).
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING

from repro.core.packet import Packet, batch_stats
from repro.core.ring import Ring
from repro.core.rng import RngRegistry
from repro.cpu.cores import Core
from repro.cpu.costmodel import Cost
from repro.nic.port import NicPort
from repro.switches.jitter import CostJitter, StallProcess
from repro.switches.params import SwitchParams
from repro.vif.virtio import VirtualInterface

if TYPE_CHECKING:
    from repro.core.engine import Simulator
    from repro.cpu.numa import MemoryBus


class Attachment:
    """A switch-side port: common interface over NICs and vifs."""

    is_vif = False

    def __init__(self, name: str) -> None:
        self.name = name

    @property
    def input_ring(self) -> Ring:
        raise NotImplementedError

    def deliver(self, sim: "Simulator", packets: list[Packet], delay_ns: float) -> None:
        raise NotImplementedError

    def rx_cost(self, params: SwitchParams) -> Cost:
        raise NotImplementedError

    def tx_cost(self, params: SwitchParams) -> Cost:
        raise NotImplementedError


class PhyAttachment(Attachment):
    """A physical NIC port bound to the switch (DPDK PMD or netmap)."""

    def __init__(self, port: NicPort) -> None:
        super().__init__(port.name)
        self.port = port

    @property
    def input_ring(self) -> Ring:
        return self.port.rx_ring

    def deliver(self, sim: "Simulator", packets: list[Packet], delay_ns: float) -> None:
        port = self.port
        sim.after(delay_ns, lambda: port.send_batch(packets))

    def rx_cost(self, params: SwitchParams) -> Cost:
        return params.nic_rx

    def tx_cost(self, params: SwitchParams) -> Cost:
        return params.nic_tx


class VifAttachment(Attachment):
    """A guest-facing virtual interface (vhost-user or ptnet)."""

    is_vif = True

    def __init__(self, vif: VirtualInterface) -> None:
        super().__init__(vif.name)
        self.vif = vif

    @property
    def input_ring(self) -> Ring:
        return self.vif.to_host

    def deliver(self, sim: "Simulator", packets: list[Packet], delay_ns: float) -> None:
        ring = self.vif.to_guest
        sim.after(delay_ns + self.vif.notify_ns, lambda: ring.push_batch(packets))

    def rx_cost(self, params: SwitchParams) -> Cost:
        return params.vif_costs.host_rx

    def tx_cost(self, params: SwitchParams) -> Cost:
        return params.vif_costs.host_tx


class ForwardingPath:
    """One direction of traffic through the switch: input -> output."""

    def __init__(self, inp: Attachment, out: Attachment, jitter: CostJitter, link_slots: int):
        self.input = inp
        self.output = out
        self.jitter = jitter
        self.forwarded = 0
        self.bidir_vif = False  # set when the reverse path also exists
        # t4p4s strict batching state.
        self.wait_started_ns: float | None = None
        # FastClick vif TX drain buffer state (frame count tracked
        # separately: a buffered block fills many descriptor slots).
        self.tx_buffer: list[Packet] = []
        self.tx_buffer_frames = 0
        self.tx_buffer_since_ns = 0.0
        # Snabb pipeline staging link (used only when params.pipeline).
        self.link = Ring(link_slots, name=f"{inp.name}->{out.name}.link")


class SoftwareSwitch:
    """Base class for the seven switch models (a Task on the SUT core)."""

    def __init__(
        self,
        sim: "Simulator",
        params: SwitchParams,
        rngs: RngRegistry | None = None,
        bus: "MemoryBus | None" = None,
    ) -> None:
        self.sim = sim
        self.params = params
        self.rngs = rngs if rngs is not None else RngRegistry()
        self.bus = bus
        self.attachments: list[Attachment] = []
        self.paths: list[ForwardingPath] = []
        self.core: Core | None = None
        self.total_forwarded = 0
        #: Optional per-batch probe (:class:`repro.obs.session.SwitchProbe`);
        #: None unless an observation session is attached, so the only
        #: un-observed cost is one attribute test per serviced batch.
        self.obs = None
        #: Optional per-flow accounting (:class:`repro.obs.flowstats.FlowStats`),
        #: same disabled-by-default contract as ``obs``.
        self.flowstats = None
        self._stalls = (
            StallProcess(
                self.rngs.stream(f"{params.name}.stall"),
                params.stall_period_ns,
                params.stall_cycles,
            )
            if params.stall_period_ns is not None
            else None
        )

    # -- wiring ----------------------------------------------------------

    def attach_phy(self, port: NicPort) -> PhyAttachment:
        """Bind a physical port (applies the switch's ring provisioning)."""
        port.rx_ring.capacity = self.params.nic_rx_slots
        port.tx_slots = self.params.nic_tx_slots
        if self.params.rx_moderation_ns is not None:
            port.rx_moderation_ns = self.params.rx_moderation_ns
        attachment = PhyAttachment(port)
        self.attachments.append(attachment)
        return attachment

    def attach_vif(self, vif: VirtualInterface) -> VifAttachment:
        attachment = VifAttachment(vif)
        self.attachments.append(attachment)
        return attachment

    def add_path(self, inp: Attachment, out: Attachment) -> ForwardingPath:
        """Declare a forwarding direction from ``inp`` to ``out``."""
        sigma = self.params.jitter_sigma
        period = self.params.jitter_period_ns
        if inp.is_vif or out.is_vif:
            sigma += self.params.jitter_sigma_vif
            if self.params.jitter_period_vif_ns is not None:
                period = self.params.jitter_period_vif_ns
        jitter = CostJitter(
            self.rngs.stream(f"{self.params.name}.jitter.{len(self.paths)}"),
            sigma=sigma,
            period_ns=period,
        )
        path = ForwardingPath(inp, out, jitter, link_slots=self.params.vring_slots)
        # Detect bidirectional use of the same vif endpoints (vring
        # cache-line bouncing surcharge).
        for other in self.paths:
            if other.input is out and other.output is inp:
                path.bidir_vif = other.bidir_vif = True
        self.paths.append(path)
        return path

    def bind_core(self, core: Core) -> None:
        """Pin the switch to its (single) SUT core and start polling.

        This is the paper's methodology ("Software switches are always
        deployed on a single core", Sec. 5.1); :meth:`bind_cores` adds the
        multi-core deployment the paper leaves to future work.
        """
        self.core = core
        self._configure_core(core)
        core.attach(self)
        if self.params.interrupt_driven:
            for path in self.paths:
                path.input.input_ring.on_push = core.wake
        core.start()

    def bind_cores(self, cores: list[Core]) -> None:
        """Distribute forwarding paths across several worker cores.

        Multi-core scaling (the paper's future work, Sec. 6): paths are
        assigned round-robin, the way multi-queue data planes pin one
        worker thread per queue.  One core degenerates to :meth:`bind_core`.
        """
        if not cores:
            raise ValueError("need at least one core")
        if len(cores) == 1:
            self.bind_core(cores[0])
            return
        self.core = cores[0]
        assignments: list[list[ForwardingPath]] = [[] for _ in cores]
        for index, path in enumerate(self.paths):
            assignments[index % len(cores)].append(path)
        for core, paths in zip(cores, assignments):
            self._configure_core(core)
            core.attach(_Worker(self, paths))
            if self.params.interrupt_driven:
                for path in paths:
                    path.input.input_ring.on_push = core.wake
            core.start()

    def _configure_core(self, core: Core) -> None:
        core.interrupt_driven = self.params.interrupt_driven
        core.interrupt_latency_ns = self.params.interrupt_latency_ns
        if self.params.idle_poll_cycles is not None:
            core.idle_loop_cycles = self.params.idle_poll_cycles

    # -- the poll loop -----------------------------------------------------

    def poll(self, core: Core) -> float:
        return self._poll_paths(core, self.paths)

    # Parking declarations (see Core.start): a run-to-completion,
    # stall-free poll-mode switch only drains its input rings.

    @property
    def park_rings(self) -> list[Ring] | None:
        return self._park_rings(self.paths)

    def park_deadline(self) -> float:
        return self._park_deadline(self.paths)

    def _park_rings(self, paths: list[ForwardingPath]) -> list[Ring] | None:
        params = self.params
        if params.pipeline or params.interrupt_driven or self._stalls is not None:
            return None  # staging links, interrupt lines, stall timers
        return [path.input.input_ring for path in paths]

    def _park_deadline(self, paths: list[ForwardingPath]) -> float:
        for path in paths:
            if path.wait_started_ns is not None or path.tx_buffer:
                return -inf  # strict-batch wait or TX drain pending: busy
        return inf

    def _poll_paths(self, core: Core, paths: list[ForwardingPath]) -> float:
        cycles = 0.0
        if self._stalls is not None:
            cycles += self._stalls.cycles_due(self.sim.now)
            if cycles and self.obs is not None:
                self.obs.on_global_overhead("stall", cycles)
        if self.params.pipeline:
            worked = 0.0
            # TX stages first so staged packets leave one breath after
            # arriving (classic pipeline timing).
            for path in paths:
                worked += self._serve_pipeline_tx(path, core, cycles + worked)
            for path in paths:
                worked += self._serve_pipeline_rx(path, core, cycles + worked)
            if worked:
                app = self.params.app_overhead_cycles * max(1, len(self.attachments))
                worked += app
                if self.obs is not None:
                    self.obs.on_global_overhead("app", app)
            cycles += worked
        else:
            for path in paths:
                cycles += self._serve_path(path, core, cycles)
        return cycles

    # -- run-to-completion servicing -----------------------------------------

    def _serve_path(self, path: ForwardingPath, core: Core, carried_cycles: float) -> float:
        now = self.sim.now
        batch = self._take_batch(path, now)
        if not batch:
            return self._flush_drain(path, core, carried_cycles, now)
        n, total_bytes = batch_stats(batch)
        rx_c, proc_c, tx_c = self._batch_cycle_parts(path, batch, n, total_bytes)
        raw = rx_c + proc_c + tx_c
        cycles = raw * path.jitter.multiplier(now) * self._overload_factor()
        delay_ns = core.cycles_to_ns(carried_cycles + cycles)
        delay_ns = max(delay_ns, self._bus_delay(path, total_bytes, now))
        for packet in batch:
            packet.hops += 1
        self._on_forward(batch, path)
        if self.obs is not None:
            self.obs.on_batch(
                path, now, rx_c, proc_c, tx_c, cycles - raw, n, batch, delay_ns
            )
        if self.flowstats is not None:
            self.flowstats.fwd_batch(batch)
        if self.params.tx_drain_ns is not None and path.output.is_vif:
            self._buffer_tx(path, batch, core, carried_cycles + cycles, now)
        else:
            path.output.deliver(self.sim, batch, delay_ns)
        path.forwarded += n
        self.total_forwarded += n
        return cycles

    def _take_batch(self, path: ForwardingPath, now: float) -> list[Packet]:
        ring = path.input.input_ring
        occupancy = ring._frames
        if occupancy == 0:
            path.wait_started_ns = None
            return []
        wait = self.params.batch_wait_ns
        if wait is not None and occupancy < self.params.batch_size:
            if path.wait_started_ns is None:
                path.wait_started_ns = now
                return []
            if now - path.wait_started_ns < wait:
                return []
        path.wait_started_ns = None
        return ring.pop_batch(self.params.batch_size)

    def _batch_cycles(self, path: ForwardingPath, batch: list[Packet], n: int, total_bytes: int) -> float:
        rx, proc, tx = self._batch_cycle_parts(path, batch, n, total_bytes)
        return rx + proc + tx

    def _batch_cycle_parts(
        self, path: ForwardingPath, batch: list[Packet], n: int, total_bytes: int
    ) -> tuple[float, float, float]:
        """(rx, proc, tx) cycle components of one serviced batch.

        Kept separate so the observability layer can attribute cycles to
        stages; :meth:`_batch_cycles` is their sum.
        """
        rx = path.input.rx_cost(self.params).cycles(n, total_bytes)
        tx = path.output.tx_cost(self.params).cycles(n, total_bytes)
        if path.bidir_vif:
            penalty = self.params.bidir_vif_penalty
            if path.input.is_vif:
                rx *= penalty
            if path.output.is_vif:
                tx *= penalty
        return rx, self._proc_cycles(batch, path, n, total_bytes), tx

    def _proc_cycles(self, batch: list[Packet], path: ForwardingPath, n: int, total_bytes: int) -> float:
        """Core switching logic cost; subclasses specialise (flow caches...)."""
        return self.params.proc.cycles(n, total_bytes)

    def _on_forward(self, batch: list[Packet], path: ForwardingPath) -> None:
        """State-update hook (MAC learning, flow tables); cost via _proc_cycles."""

    # -- flow-cache introspection (repro.flows) ---------------------------

    def on_flow_population(self, population) -> None:
        """Notification that a non-trivial flow population will be offered.

        Most switches need nothing: their caches exist unconditionally.
        t4p4s enables its capacity-bounded flow table here so single-flow
        runs keep their original (cheaper, golden-pinned) lookup path.
        """

    def cache_stats(self) -> dict:
        """Flow-cache occupancy and hit/miss counters, if the switch has
        a capacity-bounded cache (empty dict otherwise)."""
        return {}

    def _overload_factor(self) -> float:
        """Snabb's thrash cliff; 1.0 for everyone else."""
        threshold = self.params.thrash_attachments
        if threshold is not None and len(self.attachments) >= threshold:
            return self.params.thrash_factor
        return 1.0

    def _bus_delay(self, path: ForwardingPath, total_bytes: int, now: float) -> float:
        if self.bus is None:
            return 0.0
        copy_bytes = 0
        if path.input.is_vif:
            copy_bytes += path.input.vif.host_copy_bytes(total_bytes)  # type: ignore[attr-defined]
        if path.output.is_vif:
            copy_bytes += path.output.vif.host_copy_bytes(total_bytes)  # type: ignore[attr-defined]
        if copy_bytes <= 0:
            return 0.0
        return self.bus.reserve(copy_bytes, now)

    # -- FastClick TX drain -----------------------------------------------

    def _buffer_tx(
        self,
        path: ForwardingPath,
        batch: list[Packet],
        core: Core,
        cycles_so_far: float,
        now: float,
    ) -> None:
        if not path.tx_buffer:
            path.tx_buffer_since_ns = now
        path.tx_buffer.extend(batch)
        for item in batch:
            path.tx_buffer_frames += item.count
        if path.tx_buffer_frames >= self.params.tx_drain_burst:
            self._deliver_buffered(path, core, cycles_so_far)

    def _flush_drain(self, path: ForwardingPath, core: Core, carried: float, now: float) -> float:
        if (
            self.params.tx_drain_ns is not None
            and path.tx_buffer
            and now - path.tx_buffer_since_ns >= self.params.tx_drain_ns
        ):
            self._deliver_buffered(path, core, carried)
            return 1.0  # drain bookkeeping is not free
        return 0.0

    def _deliver_buffered(self, path: ForwardingPath, core: Core, cycles_so_far: float) -> None:
        buffered = path.tx_buffer
        path.tx_buffer = []
        path.tx_buffer_frames = 0
        path.output.deliver(self.sim, buffered, core.cycles_to_ns(cycles_so_far))

    # -- Snabb pipeline servicing ---------------------------------------------

    def _serve_pipeline_rx(self, path: ForwardingPath, core: Core, carried: float) -> float:
        """Input app: NIC/vif receive + processing, stage into the link."""
        now = self.sim.now
        batch = path.input.input_ring.pop_batch(self.params.batch_size)
        if not batch:
            return 0.0
        n, total_bytes = batch_stats(batch)
        rx_c = path.input.rx_cost(self.params).cycles(n, total_bytes)
        proc_c = self._proc_cycles(batch, path, n, total_bytes)
        raw = rx_c + proc_c
        cycles = raw * path.jitter.multiplier(now) * self._overload_factor()
        for packet in batch:
            packet.hops += 1
        self._on_forward(batch, path)
        if self.obs is not None:
            self.obs.on_batch(
                path, now, rx_c, proc_c, 0.0, cycles - raw, 0, batch,
                core.cycles_to_ns(carried + cycles),
            )
        link = path.link
        self.sim.after(core.cycles_to_ns(carried + cycles), lambda: link.push_batch(batch))
        return cycles

    def _serve_pipeline_tx(self, path: ForwardingPath, core: Core, carried: float) -> float:
        """Output app: drain the link into the NIC/vif."""
        now = self.sim.now
        batch = path.link.pop_batch(self.params.batch_size)
        if not batch:
            return self._flush_drain(path, core, carried, now)
        n, total_bytes = batch_stats(batch)
        tx_c = path.output.tx_cost(self.params).cycles(n, total_bytes)
        cycles = tx_c * path.jitter.multiplier(now) * self._overload_factor()
        delay_ns = core.cycles_to_ns(carried + cycles)
        delay_ns = max(delay_ns, self._bus_delay(path, total_bytes, now))
        if self.obs is not None:
            self.obs.on_batch(
                path, now, 0.0, 0.0, tx_c, cycles - tx_c, n, batch, delay_ns
            )
        if self.flowstats is not None:
            self.flowstats.fwd_batch(batch)
        if self.params.tx_drain_ns is not None and path.output.is_vif:
            self._buffer_tx(path, batch, core, carried + cycles, now)
        else:
            path.output.deliver(self.sim, batch, delay_ns)
        path.forwarded += n
        self.total_forwarded += n
        return cycles


class _Worker:
    """A per-core slice of a multi-core switch (a subset of its paths)."""

    def __init__(self, switch: SoftwareSwitch, paths: list[ForwardingPath]):
        self.switch = switch
        self.paths = paths

    def poll(self, core: Core) -> float:
        return self.switch._poll_paths(core, self.paths)

    @property
    def park_rings(self) -> list[Ring] | None:
        return self.switch._park_rings(self.paths)

    def park_deadline(self) -> float:
        return self.switch._park_deadline(self.paths)
