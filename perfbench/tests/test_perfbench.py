"""The benchmark's own checks: names, layer map, output check, failures.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import hostspeed
import instrument
import outputs
import pytest
import run
from workloads import WORKLOADS, Task

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def _benchmark() -> dict:
    with open(BENCHMARK) as fh:
        return json.load(fh)


def test_metric_and_workload_names_are_plain():
    bench = _benchmark()
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert set(WORKLOADS) == {w["name"] for w in bench["workloads"]}


def test_every_layer_bucket_maps_to_a_repro_module():
    package = os.path.join(run.SRC, "repro")
    for bucket, paths in instrument.LAYERS.items():
        for path in paths:
            assert os.path.exists(os.path.join(package, path)), (bucket, path)
    for metric, targets in instrument.COUNTS.items():
        for path, _ in targets:
            assert os.path.exists(os.path.join(package, path)), (metric, path)


def test_layer_map_covers_the_per_layer_shares_and_counts():
    with open(run.LAYER_MAP_PATH) as fh:
        layer_map = json.load(fh)
    for bucket in instrument.BUCKETS:
        assert f"{bucket}.share" in layer_map["layers"]
    for metric in instrument.COUNTS:
        assert metric in layer_map["layers"]
    for workload in WORKLOADS:
        assert workload in layer_map["workloads"]


def _task(workload: str, name: str) -> Task:
    return next(t for t in WORKLOADS[workload]() if t.name == name)


def _pass(tasks) -> run.Pass:
    return run.run_pass(tasks, 1, instrument.Recorder())


def test_output_check_passes_on_its_own_reference_and_fails_when_perturbed():
    task = _task("observed-faults", "resilience/p2p/vpp")
    first = _pass([task])
    reference = [outputs.comparable(r) for r in first.records]
    assert run.tally([first], reference, None)[:2] == (1, 0)

    again = _pass([task])
    assert run.tally([again], reference, None)[:2] == (1, 0)

    perturbed = json.loads(json.dumps(reference))
    perturbed[0]["meters"][0][0] += 1
    attempted, failed, reasons = run.tally([again], perturbed, None)
    assert (attempted, failed) == (1, 1)
    assert "differ from the reference" in reasons[0]


def test_engine_counters_alone_do_not_fail_the_output_check():
    task = _task("ndr-latency", "sweep/p2p/vpp")
    first = _pass([task])
    reference = [outputs.comparable(r) for r in first.records]
    assert all("_events" in r and "_warp" in r for r in first.records)
    for record in first.records:
        record["_events"] += 1000
        record["_warp"] = [False, "none", "pipeline-switch", 0.0, 0]
    assert run.tally([first], reference, None)[:2] == (len(first.records), 0)


def test_golden_cross_check_fails_on_a_perturbed_cell():
    tasks = [t for t in WORKLOADS["ndr-latency"]() if t.name == "sweep/p2p/vpp"]
    one = _pass(tasks)
    golden = outputs.load_golden()
    assert outputs.golden_overlaps(one.records) == 1
    assert run.tally([one], None, golden)[1] == 0
    cell = dict(golden["p2p/vpp/uni"], forwarded=golden["p2p/vpp/uni"]["forwarded"] + 1)
    assert run.tally([one], None, dict(golden, **{"p2p/vpp/uni": cell}))[1] == 1


def test_a_raising_run_counts_in_fail_frac():
    task = _task("observed-faults", "resilience/p2p/vpp")

    def raising(seed):
        task.call(seed)
        raise RuntimeError("simulated failure after the drive")

    one = _pass([task, Task("bad", task.kind, raising)])
    attempted, failed, reasons = run.tally([one], None, None)
    assert (attempted, failed) == (2, 1)
    assert "RuntimeError" in reasons[0]


def test_a_failed_campaign_run_counts_in_fail_frac():
    from repro.campaign.executor import run_campaign
    from repro.campaign.spec import CampaignSpec, RunSpec

    good = RunSpec(scenario="p2p", switch="vpp", warmup_ns=20_000.0, measure_ns=50_000.0)
    bad = RunSpec(scenario="p2p", switch="bess", extra=(("_inject", "error"),))
    campaign = CampaignSpec("x", (good, bad, good))
    one = _pass([Task("campaign/x", "campaign", lambda seed: run_campaign(campaign, workers=1))])
    attempted, failed, _ = run.tally([one], None, None)
    assert (attempted, failed) == (3, 1)


def test_invariants_reject_impossible_outputs():
    record = {"task": "ndr/p2p/vpp", "frame_size": 64, "ndr_pps": 2e7, "trials": [[1e6, 1.5]]}
    problems = outputs.invariant_problems(record)
    assert any("line rate" in p for p in problems)
    assert any("outside [0, 1]" in p for p in problems)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_exists_for_every_workload(workload):
    reference = outputs.load_reference(workload)
    assert reference, workload


def test_reference_seconds_scale_each_piece_by_the_host_speed_before_it():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_KERNEL_S
    # Samples (calibration windows) at [1, 1.5] and [3, 3.5]; the second
    # finds the host twice as slow.  With two samples, each piece's
    # window median is the mean of both (1.5 ref).
    speed.starts, speed.ends, speed.kernel_s = [1.0, 3.0], [1.5, 3.5], [ref, 2 * ref]
    assert speed.host(0.0, 4.0) == pytest.approx(3.0)
    assert speed.scaled(0.0, 4.0) == pytest.approx(3.0 / 1.5)
    assert speed.host(1.2, 3.2) == pytest.approx(1.5)
    speed.starts.append(5.0)
    speed.ends.append(5.5)
    speed.kernel_s.append(2 * ref)
    assert speed.scaled(3.5, 5.0) == pytest.approx(1.5 / 2)


def test_a_sampled_pass_excludes_sampling_from_host_time():
    task = _task("observed-faults", "resilience/p2p/vpp")
    speed = hostspeed.HostSpeed(interval_s=0.0)
    t0 = time.perf_counter()
    one = run.run_pass([task], 1, instrument.Recorder(), speed=speed)
    elapsed = time.perf_counter() - t0
    # The first sample precedes the pass; the others fall inside it.
    assert len(speed.kernel_s) >= 2
    inside = sum(end - start for start, end in zip(speed.starts[1:], speed.ends[1:]))
    assert 0 < one.wall_s <= elapsed - inside
    assert sum(one.run_s) <= one.wall_s
    assert one.ref_wall_s > 0 and len(one.ref_run_s) == len(one.run_s)


def test_reports_every_declared_metric():
    task = _task("observed-faults", "resilience/p2v/vale")
    recorder = instrument.Recorder()
    profile = instrument.LayerProfile()
    untraced = [run.run_pass([task], 1, recorder, speed=hostspeed.HostSpeed())]
    traced = [run.run_pass([task], 1, recorder, profile)]
    bench = _benchmark()
    assert {m["name"] for m in bench["end_to_end"]} <= set(run.end_to_end(untraced, [0.1]))
    assert {m["name"] for m in bench["per_layer"]} <= set(run.per_layer(untraced, traced, profile))


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ndr-latency",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
