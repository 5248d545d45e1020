"""Dev harness: parked and warped runs vs the busy-poll reference.

Sweeps every switch over the scenario shapes -- unidirectional and
bidirectional p2p, p2v, v2v and a loopback VNF chain -- under saturating
and sub-capacity input, and asserts per cell that

* the end-state fingerprint (every counter, timestamp, stats accumulator,
  RNG stream, engine seq/event count and idle streak;
  :func:`repro.core.warp.state_fingerprint`) and the measured results are
  bit-identical across three runs: the busy-poll reference (testbed built
  with the tasks' park declarations stripped), parked with warp off, and
  parked with warp on;
* the replay tier's engage/decline decision matches the contract: replay
  engages on clean unidirectional p2p for the run-to-completion switches;
  every other cell declines with the replay tier's stable reason.

Usage: ``PYTHONPATH=src python tools/warp_check.py [measure_ns]``
(default 3 ms; CI runs the 10x window).
"""

import sys
import time

sys.path.insert(0, "src")
sys.path.insert(0, "tests")

from _helpers import strip_park_declarations  # noqa: E402

from repro.core.warp import state_fingerprint  # noqa: E402
from repro.measure.runner import drive  # noqa: E402
from repro.scenarios import loopback, p2p, p2v, v2v  # noqa: E402

SWITCHES = ["bess", "fastclick", "ovs-dpdk", "vpp", "t4p4s", "snabb", "vale"]

#: Replay's decline reason for switches it cannot mirror, on clean
#: unidirectional p2p; the other switches must engage there.
EXPECTED_DECLINE = {"snabb": "pipeline-switch", "vale": "interrupt-driven"}

#: (label, builder, build kwargs, sub-capacity rate in pps, replay's
#: decline reason for the shape; None: decided per switch).  Rates sit at
#: roughly 0.3x the slowest switch's capacity for the shape so the
#: sub-capacity cell is idle-dominated for every switch.
SHAPES = [
    ("p2p", p2p.build, {}, 3_000_000.0, None),
    ("p2p-bidi", p2p.build, {"bidirectional": True}, 2_000_000.0, "bidirectional"),
    ("p2v", p2v.build, {}, 1_000_000.0, "scenario:p2v"),
    ("v2v", v2v.build, {}, 800_000.0, "scenario:v2v"),
    ("loopback", loopback.build, {"n_vnfs": 2}, 500_000.0, "scenario:loopback-2"),
]


class _Patch:
    """The ``setattr`` half of pytest's monkeypatch, with undo."""

    def __init__(self):
        self._undo = []

    def setattr(self, target, name, value):
        self._undo.append((target, name, target.__dict__[name]))
        setattr(target, name, value)

    def undo(self):
        while self._undo:
            target, name, value = self._undo.pop()
            setattr(target, name, value)


def run(build, switch, warp, measure, rate, kwargs, busy=False):
    patch = _Patch()
    if busy:
        strip_park_declarations(patch)
    try:
        tb = build(switch, frame_size=64, rate_pps=rate, seed=1, **kwargs)
    finally:
        patch.undo()
    t0 = time.perf_counter()
    res = drive(tb, warmup_ns=600_000.0, measure_ns=measure, warp=warp)
    wall = time.perf_counter() - t0
    return res, state_fingerprint(tb), wall


def diff(a, b, path="root"):
    if a == b:
        return
    if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            diff(x, y, f"{path}[{i}]")
    else:
        print(f"  MISMATCH at {path}:\n    busy: {a!r}\n    run:  {b!r}")


def check_engagement(switch, decline, report):
    """The replay engage/decline contract for one cell; error or None."""
    if report is None:
        return "no warp report"
    expected = decline if decline is not None else EXPECTED_DECLINE.get(switch)
    if expected is None:
        if not (report.engaged and report.mode == "replay"):
            return f"expected replay to engage, got {report.describe()}"
        return None
    if report.engaged:
        return f"expected decline ({expected}), got {report.describe()}"
    if report.reason != expected:
        return f"expected decline reason {expected!r}, got {report.reason!r}"
    return None


def results(res):
    return [repr(v) for v in res.per_direction_gbps], res.events


def main():
    measure = float(sys.argv[1]) if len(sys.argv) > 1 else 3_000_000.0
    failures = 0
    for switch in SWITCHES:
        for shape, build, kwargs, sub_rate, decline in SHAPES:
            for label, rate in [("saturating", None), ("sub-capacity", sub_rate)]:
                r_busy, f_busy, w_busy = run(
                    build, switch, False, measure, rate, kwargs, busy=True
                )
                r_off, f_off, w_off = run(build, switch, False, measure, rate, kwargs)
                r_on, f_on, w_on = run(build, switch, True, measure, rate, kwargs)
                ident = f_busy == f_off == f_on
                same_res = results(r_busy) == results(r_off) == results(r_on)
                engage_err = check_engagement(switch, decline, r_on.warp)
                ok = ident and same_res and engage_err is None
                if not ok:
                    failures += 1
                wr = r_on.warp.describe() if r_on.warp else "none"
                print(
                    f"{'OK ' if ok else 'FAIL'} {switch:10s} {shape:9s} "
                    f"{label:12s} busy={w_busy:6.3f}s parked={w_off:6.3f}s "
                    f"warp={w_on:6.3f}s parked_polls={r_off.events_parked}  {wr}"
                )
                if engage_err is not None:
                    print(f"  ENGAGEMENT: {engage_err}")
                for name, fingerprint in (("parked", f_off), ("warp", f_on)):
                    if fingerprint != f_busy:
                        print(f"  {name} run differs from the busy-poll reference:")
                        diff(f_busy, fingerprint)
                if not same_res:
                    for name, res in (("busy", r_busy), ("parked", r_off), ("warp", r_on)):
                        print(f"  {name:6s} {res.per_direction_gbps} ev={res.events}")
    print("failures:", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
