"""Representation-independence of the flyweight packet blocks.

The block representation and the scheduler fast paths are *encodings*, not
model changes: every observable figure -- throughput, loss, latency, meter
and port counters, observed metrics -- must be bit-identical to running
the same scenario with seed-style one-object-per-frame emission, and a run
must be deterministic regardless of how many runs preceded it.
"""

from __future__ import annotations

import json

import pytest

from _helpers import FAST_MEASURE_NS, FAST_WARMUP_NS, strip_park_declarations

from repro.core.engine import Simulator
from repro.core.packet import PacketBlock, per_packet_emission
from repro.core.rng import RngRegistry
from repro.core.warp import state_fingerprint
from repro.cpu.numa import Machine
from repro.measure.runner import drive
from repro.nic.port import NicPort
from repro.scenarios import loopback, p2p, p2v, v2v
from repro.scenarios.base import Testbed, connect_ports
from repro.switches.base import SoftwareSwitch, _Worker
from repro.switches.registry import create_switch
from repro.traffic.generator import PacedSource
from repro.traffic.guest import GuestMonitor
from repro.traffic.moongen import MoonGenRx, MoonGenTx
from repro.vm.apps import GuestL2Fwd, GuestValeBridge, GuestValeXConnect


def _canon(value):
    return repr(value) if isinstance(value, float) else value


def _run_stats(tb, result) -> dict:
    """Every observable figure of a driven testbed, floats repr-exact.

    ``events_executed`` is deliberately absent: it is an engine work
    counter, not a measurement.
    """
    stats = {
        "gbps": [_canon(g) for g in result.per_direction_gbps],
        "mpps": [_canon(m) for m in result.per_direction_mpps],
        "forwarded": tb.switch.total_forwarded,
        "meter_packets": [m.packets for m in tb.meters],
        "meter_bytes": [m.bytes for m in tb.meters],
        "warmup_packets": [m.warmup_packets for m in tb.meters],
        "ring_drops": [
            (p.input.input_ring.name, p.input.input_ring.dropped, p.input.input_ring.enqueued)
            for p in tb.switch.paths
        ],
        "path_forwarded": [p.forwarded for p in tb.switch.paths],
        "port_tx": [
            (p.name, p.tx_packets, p.tx_bytes, p.tx_dropped, p.driver_drops, p.rx_packets)
            for p in (tb.extras.get("sut_ports") or ())
        ],
    }
    if result.latency is not None and len(result.latency):
        lat = result.latency
        stats["latency"] = {
            "n": len(lat),
            "mean_us": _canon(lat.mean_us),
            "p50": _canon(lat.percentile_us(50)),
            "p99": _canon(lat.percentile_us(99)),
        }
    return stats


def _drive_fast(tb, **kwargs):
    return drive(tb, warmup_ns=FAST_WARMUP_NS, measure_ns=FAST_MEASURE_NS, **kwargs)


class TestBlockVsPerPacketBitIdentity:
    def test_p2p_throughput_identical(self):
        tb_blocks = p2p.build("ovs-dpdk", frame_size=64)
        blocks = _run_stats(tb_blocks, _drive_fast(tb_blocks))
        with per_packet_emission():
            tb_exact = p2p.build("ovs-dpdk", frame_size=64)
            exact = _run_stats(tb_exact, _drive_fast(tb_exact))
        assert blocks == exact

    def test_p2p_bidirectional_identical(self):
        tb_blocks = p2p.build("vale", frame_size=64, bidirectional=True)
        blocks = _run_stats(tb_blocks, _drive_fast(tb_blocks, bidirectional=True))
        with per_packet_emission():
            tb_exact = p2p.build("vale", frame_size=64, bidirectional=True)
            exact = _run_stats(tb_exact, _drive_fast(tb_exact, bidirectional=True))
        assert blocks == exact

    def test_v2v_identical(self):
        tb_blocks = v2v.build("vale", frame_size=64)
        blocks = _run_stats(tb_blocks, _drive_fast(tb_blocks))
        with per_packet_emission():
            tb_exact = v2v.build("vale", frame_size=64)
            exact = _run_stats(tb_exact, _drive_fast(tb_exact))
        assert blocks == exact

    def test_v2v_latency_probes_identical(self):
        """Probes materialise out of blocks with the same seqs and RTTs."""
        tb_blocks = v2v.build_latency("ovs-dpdk")
        blocks = _run_stats(tb_blocks, drive(tb_blocks, measure_ns=2_000_000.0))
        with per_packet_emission():
            tb_exact = v2v.build_latency("ovs-dpdk")
            exact = _run_stats(tb_exact, drive(tb_exact, measure_ns=2_000_000.0))
        assert "latency" in blocks
        assert blocks == exact

    def test_observed_run_metrics_identical(self):
        """The obs layer sees the same figures whichever encoding runs."""
        from repro.obs.session import ObsConfig, observe

        def observed_snapshot():
            tb = p2p.build("ovs-dpdk", frame_size=64)
            obs = observe(tb, ObsConfig(trace=True, metrics=True, profile=True))
            result = _drive_fast(tb)
            obs.finish(result)
            snap = json.loads(json.dumps(obs.metrics_snapshot(), default=repr, sort_keys=True))
            return _run_stats(tb, result), snap

        stats_blocks, snap_blocks = observed_snapshot()
        with per_packet_emission():
            stats_exact, snap_exact = observed_snapshot()
        assert stats_blocks == stats_exact
        assert snap_blocks == snap_exact


class TestSeqDeterminism:
    """Satellite: per-run seq scoping -- identical runs, identical seqs."""

    @staticmethod
    def _emitted_seqs(probe_interval=20_000.0, per_packet=False):
        class Recorder(PacedSource):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.emitted = []

            def _emit(self, batch):
                self.emitted.extend(batch)

        sim = Simulator()  # resets the per-run seq counter
        src = Recorder(sim, rate_pps=2e6, frame_size=64, probe_interval_ns=probe_interval)
        if per_packet:
            with per_packet_emission():
                src.start(0.0)
                sim.run_until(200_000.0)
        else:
            src.start(0.0)
            sim.run_until(200_000.0)
        seqs, probe_seqs = [], []
        for item in src.emitted:
            if item.__class__ is PacketBlock:
                seqs.extend(range(item.seq0, item.seq0 + item.count))
            else:
                seqs.append(item.seq)
                if item.is_probe:
                    probe_seqs.append(item.seq)
        return seqs, probe_seqs

    def test_two_identical_runs_assign_identical_seqs(self):
        first = self._emitted_seqs()
        second = self._emitted_seqs()
        assert first == second
        assert first[0][0] == 0  # scoped to the run, not the process

    def test_block_and_per_packet_emission_assign_identical_seqs(self):
        blocks = self._emitted_seqs()
        exact = self._emitted_seqs(per_packet=True)
        assert blocks == exact

    def test_scenario_runs_are_process_history_independent(self):
        def stats():
            tb = p2p.build("vpp", frame_size=64)
            return _run_stats(tb, _drive_fast(tb))

        assert stats() == stats()


class TestCoreParkingEquivalence:
    def test_parked_and_busy_polled_runs_match(self, monkeypatch):
        """Parking removes idle poll events, not observable behaviour."""
        from repro.traffic.guest import GuestMonitor

        tb = v2v.build("ovs-dpdk", frame_size=64)
        parked = _run_stats(tb, _drive_fast(tb))

        original_init = GuestMonitor.__init__

        def no_parking_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            del self.park_rings

        monkeypatch.setattr(GuestMonitor, "__init__", no_parking_init)
        tb = v2v.build("ovs-dpdk", frame_size=64)
        assert tb.vms  # the monitor runs in a guest in this scenario
        busy = _run_stats(tb, _drive_fast(tb))
        assert parked == busy

    @staticmethod
    def _p2p_two_cores():
        """Bidirectional p2p with VPP's two paths on two worker cores."""
        sim = Simulator()
        machine = Machine(sim)
        rngs = RngRegistry(1)
        switch = create_switch("vpp", sim, rngs=rngs, bus=machine.node0.bus)
        gen0, gen1 = NicPort(sim, "g0"), NicPort(sim, "g1")
        sut0, sut1 = NicPort(sim, "s0"), NicPort(sim, "s1")
        connect_ports(gen0, sut0)
        connect_ports(gen1, sut1)
        a0, a1 = switch.attach_phy(sut0), switch.attach_phy(sut1)
        switch.add_path(a0, a1)
        switch.add_path(a1, a0)
        cores = [machine.node0.add_core(f"sut{i}") for i in range(2)]
        switch.bind_cores(cores)
        tb = Testbed(sim, machine, rngs, switch, cores[0], 64, scenario="p2p-mc")
        for gen, mon in ((gen0, gen1), (gen1, gen0)):
            MoonGenTx(sim, gen, 2e6, 64).start(0.0)
            tb.meters.append(MoonGenRx(sim, mon, 64).meter)
        return tb

    @pytest.mark.parametrize("task_type,build", [
        pytest.param(task_type, build, id=task_type.__name__.lstrip("_"))
        for task_type, build in (
            (SoftwareSwitch, lambda: p2p.build(
                "vpp", frame_size=64, bidirectional=True, rate_pps=2e6)),
            (_Worker, None),
            # 100 Kpps: single-frame buffers, so the TX drain timer fires.
            (GuestL2Fwd, lambda: loopback.build(
                "vpp", frame_size=64, n_vnfs=2, rate_pps=1e5)),
            (GuestValeXConnect, lambda: loopback.build(
                "vale", frame_size=64, n_vnfs=2, rate_pps=5e5)),
            (GuestValeBridge, lambda: p2v.build(
                "vale", frame_size=64, bidirectional=True, rate_pps=5e5)),
            (GuestMonitor, lambda: v2v.build("ovs-dpdk", frame_size=64, rate_pps=8e5)),
        )
    ])
    def test_each_parkable_task_type_parks_exactly(self, monkeypatch, task_type, build):
        """Stripping one task type's declaration changes nothing observable
        (engine counters included) -- only how many polls are dispatched."""
        build = build or self._p2p_two_cores

        def run():
            tb = build()
            stats = _run_stats(tb, _drive_fast(tb))
            return (stats, state_fingerprint(tb)), tb.sim.events_parked

        parked, parked_polls = run()
        strip_park_declarations(monkeypatch, [task_type])
        busy, fewer_parked_polls = run()
        assert parked == busy
        assert fewer_parked_polls < parked_polls
