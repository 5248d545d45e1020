"""Property-based tests for the fast-forward tiers' contracts.

Three contracts, sampled with pinned hypothesis seeds so CI failures
reproduce:

1. **Parking observable-invariance** -- on every multi-hop shape, runs
   whose idle cores park are bit-identical to the busy-poll reference
   (park declarations stripped): same end-state fingerprint, same
   per-direction rates (repr-compared), same event count, for sampled
   (switch, shape, rate, seed).
2. **Fluid tolerance** -- when the fluid tier engages, the extrapolated
   rate is within the declared tolerance of the exact rate, across a
   sampled (rate, seed, window) grid.
3. **Between-fault exactness** -- a resilience run whose cores park
   through the inter-fault stretches reproduces the busy-poll
   degradation timeline and recovery metrics bit-for-bit, for sampled
   fault instants and durations.
"""

from __future__ import annotations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from _helpers import strip_park_declarations
from repro.core.fluid import fluid_tolerance, try_fluid
from repro.core.warp import state_fingerprint
from repro.faults.watchdog import InvariantWatchdog
from repro.measure.runner import drive
from repro.scenarios import loopback, p2p, p2v, v2v

#: Shapes beyond clean uni p2p (which replay covers) and a sub-capacity
#: rate band per shape (slowest-switch headroom).
SHAPES = {
    "p2p-bidi": (p2p.build, {"bidirectional": True}, 0.5e6, 2.0e6),
    "p2v": (p2v.build, {}, 0.3e6, 1.0e6),
    "v2v": (v2v.build, {}, 0.2e6, 0.8e6),
    "loopback": (loopback.build, {"n_vnfs": 2}, 0.1e6, 0.5e6),
}

EXACT_SWITCHES = ["bess", "fastclick", "ovs-dpdk", "vpp", "t4p4s"]


class TestParkingInvariance:
    @seed(20260807)
    @settings(max_examples=8, deadline=None)
    @given(
        shape=st.sampled_from(sorted(SHAPES)),
        switch=st.sampled_from(EXACT_SWITCHES),
        rate_frac=st.floats(min_value=0.0, max_value=1.0),
        run_seed=st.integers(min_value=1, max_value=1_000_000),
    )
    def test_parked_run_matches_busy_polling(self, shape, switch, rate_frac, run_seed):
        build, kwargs, lo, hi = SHAPES[shape]
        rate = lo + rate_frac * (hi - lo)
        bidir = kwargs.get("bidirectional", False)

        def run():
            tb = build(switch, frame_size=64, rate_pps=rate, seed=run_seed, **kwargs)
            res = drive(tb, warmup_ns=2e5, measure_ns=2.5e6, bidirectional=bidir)
            return res, state_fingerprint(tb)

        r_parked, f_parked = run()
        with pytest.MonkeyPatch.context() as patch:
            strip_park_declarations(patch)
            r_busy, f_busy = run()
        assert r_parked.events_parked > 0
        assert f_busy == f_parked
        assert [repr(v) for v in r_busy.per_direction_gbps] == [
            repr(v) for v in r_parked.per_direction_gbps
        ]
        assert r_busy.events == r_parked.events


class TestFluidTolerance:
    @seed(20260807)
    @settings(max_examples=6, deadline=None)
    @given(
        rate_mpps=st.floats(min_value=0.5, max_value=5.0),
        run_seed=st.integers(min_value=1, max_value=1_000_000),
        window_ms=st.floats(min_value=20.0, max_value=80.0),
    )
    def test_fluid_rate_within_tolerance(self, rate_mpps, run_seed, window_ms):
        rate = rate_mpps * 1e6
        measure_ns = window_ms * 1e6

        def run(fluid):
            tb = p2p.build("vpp", frame_size=64, rate_pps=rate, seed=run_seed)
            return drive(tb, warmup_ns=6e5, measure_ns=measure_ns, fluid=fluid)

        with pytest.MonkeyPatch.context() as patch:
            patch.delenv("REPRO_WATCHDOG", raising=False)  # fluid declines it
            exact = run(False)
            approx = run(True)
        assert approx.warp.mode == "fluid" and approx.warp.engaged
        # The same run declines once a watchdog scans it.
        tb = p2p.build("vpp", frame_size=64, rate_pps=rate, seed=run_seed)
        InvariantWatchdog(tb).start()
        assert try_fluid(tb, 6e5, 6e5 + measure_ns).reason == "watchdog-active"
        assert exact.mpps > 0
        rel_err = abs(approx.mpps - exact.mpps) / exact.mpps
        assert rel_err <= fluid_tolerance(), (
            f"fluid {approx.mpps} vs exact {exact.mpps}: {rel_err:.4%}"
        )


class TestBetweenFaultExactness:
    @seed(20260807)
    @settings(max_examples=5, deadline=None)
    @given(
        fault_frac=st.floats(min_value=0.1, max_value=0.7),
        duration_ns=st.floats(min_value=1e5, max_value=6e5),
        run_seed=st.integers(min_value=1, max_value=1_000_000),
    )
    def test_resilience_timeline_bit_identical(
        self, fault_frac, duration_ns, run_seed
    ):
        from repro.faults.plan import FaultEvent, FaultPlan
        from repro.measure.resilience import measure_resilience

        warmup_ns, measure_ns = 6e5, 4e6

        def run():
            plan = FaultPlan.of(
                FaultEvent.from_dict(
                    {"kind": "nic-link-flap", "target": "sut-nic.p1",
                     "at_ns": warmup_ns + fault_frac * measure_ns,
                     "duration_ns": duration_ns}
                )
            )
            return measure_resilience(
                p2p.build, "vpp", 64, plan,
                warmup_ns=warmup_ns, measure_ns=measure_ns,
                rate_pps=1e6, seed=run_seed,
            )

        res_parked, rep_parked, _ = run()
        with pytest.MonkeyPatch.context() as patch:
            strip_park_declarations(patch)
            res_busy, rep_busy, _ = run()
        assert res_parked.events_parked > 0
        assert rep_busy.to_dict() == rep_parked.to_dict()
        assert repr(res_busy.gbps) == repr(res_parked.gbps)
        assert res_busy.events == res_parked.events
