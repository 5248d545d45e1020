"""Unit tests for the repro-bench command-line interface."""

from __future__ import annotations

import re

import pytest

from repro.cli import main
from repro.switches.registry import switch_names


def test_throughput_command(capsys):
    assert main(["p2p", "--switch", "bess", "--size", "64"]) == 0
    out = capsys.readouterr().out
    assert "p2p unidirectional 64B bess" in out
    assert "Gbps" in out


def test_bidirectional_flag(capsys):
    assert main(["p2p", "--switch", "bess", "--bidirectional"]) == 0
    assert "bidirectional" in capsys.readouterr().out


def test_loopback_with_vnfs(capsys):
    assert main(["loopback", "--switch", "vale", "--vnfs", "2"]) == 0
    assert "loopback" in capsys.readouterr().out


def test_v2v_latency_command(capsys):
    assert main(["v2v-latency", "--switch", "vale"]) == 0
    out = capsys.readouterr().out
    assert "v2v RTT latency" in out
    assert "us" in out


def test_latency_sweep_command(capsys):
    assert main(["p2p", "--switch", "bess", "--latency"]) == 0
    out = capsys.readouterr().out
    assert "0.10 R+" in out
    assert "0.99 R+" in out


def test_suite_command(capsys):
    assert main(["suite", "--switch", "vale", "--suite", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "suite 'smoke'" in out
    assert "p2p-64B" in out


def test_unknown_suite(capsys):
    assert main(["suite", "--suite", "nonexistent"]) == 1
    assert "unknown suite" in capsys.readouterr().out


def test_window_overrides_accepted(capsys):
    assert main([
        "p2p", "--switch", "bess",
        "--warmup-ns", "100000", "--measure-ns", "400000",
    ]) == 0
    assert "Gbps" in capsys.readouterr().out


def test_window_overrides_on_v2v_latency(capsys):
    assert main([
        "v2v-latency", "--switch", "vale",
        "--warmup-ns", "200000", "--measure-ns", "1500000",
    ]) == 0
    assert "us" in capsys.readouterr().out


def test_suite_renders_inapplicable_cells(capsys):
    assert main([
        "suite", "--switch", "bess", "--suite", "paper",
        "--warmup-ns", "100000", "--measure-ns", "300000",
    ]) == 0
    out = capsys.readouterr().out
    # BESS cannot host the 4/5-VM chains (footnote 5): the table says so
    # instead of printing literal None.
    assert "n/a (qemu)" in out
    assert "None" not in out


def test_campaign_command_smoke(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([
        "campaign", "--suite", "smoke", "--switches", "bess,vale",
        "--warmup-ns", "100000", "--measure-ns", "300000",
    ]) == 0
    out = capsys.readouterr().out
    assert "campaign summary:" in out
    assert "8/8 runs" in out
    assert "8 executed" in out

    # Second invocation: everything memoised, nothing simulated.
    assert main([
        "campaign", "--suite", "smoke", "--switches", "bess,vale",
        "--warmup-ns", "100000", "--measure-ns", "300000",
    ]) == 0
    out = capsys.readouterr().out
    assert "0 executed" in out
    assert "8 cache hits" in out


def test_campaign_no_warp_reaches_pooled_runs_and_cache_keys(capsys, tmp_path, monkeypatch):
    """--no-warp travels like --fluid, through the environment, so pooled
    runs store no replay label and the cache keys the toggle."""
    import csv

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_WARP", "1")  # restored after main() sets it
    monkeypatch.delenv("REPRO_WATCHDOG", raising=False)  # replay declines it
    args = [
        "campaign", "--suite", "smoke", "--switches", "vpp",
        "--warmup-ns", "100000", "--measure-ns", "1000000",
    ]

    def p2p_label(flag):
        path = f"{flag.strip('-')}.csv"
        assert main(args + [flag, "--export-csv", path]) == 0
        rows = list(csv.DictReader(open(path)))
        return next(row["warp"] for row in rows if row["scenario"] == "p2p")

    assert p2p_label("--warp") == "replay"
    assert p2p_label("--no-warp") == ""
    assert "4 executed" in capsys.readouterr().out.rsplit("campaign summary:", 1)[1]


def test_campaign_rejects_unknown_suite_and_switch(capsys):
    assert main(["campaign", "--suite", "nope"]) == 1
    assert "unknown suite" in capsys.readouterr().out
    assert main(["campaign", "--suite", "smoke", "--switches", "bess,warp"]) == 1
    assert "unknown switches" in capsys.readouterr().out


def test_campaign_store_and_csv(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([
        "campaign", "--suite", "smoke", "--switches", "bess",
        "--no-cache", "--store", "log.jsonl", "--export-csv", "out.csv",
        "--warmup-ns", "100000", "--measure-ns", "300000",
    ]) == 0
    capsys.readouterr()
    assert (tmp_path / "log.jsonl").exists()
    assert (tmp_path / "out.csv").read_text().startswith("key,")

    # Resume executes nothing: all four runs are already in the store.
    assert main([
        "campaign", "--suite", "smoke", "--switches", "bess",
        "--no-cache", "--store", "log.jsonl", "--resume",
        "--warmup-ns", "100000", "--measure-ns", "300000",
    ]) == 0
    out = capsys.readouterr().out
    assert "0 executed" in out
    assert "4 resumed" in out


def test_unknown_switch_rejected(capsys):
    assert main(["p2p", "--switch", "notaswitch"]) == 1
    err = capsys.readouterr().err
    assert "notaswitch" in err
    # The error must be actionable: every registered switch is listed.
    for name in switch_names():
        assert name in err


def test_unknown_scenario_rejected():
    with pytest.raises(SystemExit):
        main(["warp-drive"])


def test_perf_command_writes_report(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out_path = tmp_path / "bench.json"
    assert main([
        "perf", "--cases", "engine.dispatch", "--repeat", "1",
        "--json", "--perf-out", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "engine.dispatch" in out
    assert "Mev/s" in out
    import json

    report = json.loads(out_path.read_text())
    assert report["cases"]["engine.dispatch"]["events_per_sec"] > 0
    # The committed baseline resolves independently of the cwd.
    assert "speedup" in report


def test_perf_rejects_unknown_case(capsys):
    assert main(["perf", "--cases", "nope"]) == 1
    assert "unknown perf cases" in capsys.readouterr().out


def test_perf_gate_passes_within_tolerance(tmp_path, capsys):
    """--max-regress lets the bench fail CI; a generous baseline passes."""
    import json

    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(
        {"cases": {"engine.dispatch": {"kind": "engine", "wall_s": 1e9}}}
    ))
    assert main([
        "perf", "--cases", "engine.dispatch", "--repeat", "1",
        "--baseline", str(baseline), "--max-regress", "20",
    ]) == 0
    assert "perf gate" in capsys.readouterr().err


def test_perf_gate_fails_on_regression(tmp_path, capsys):
    import json

    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(
        {"cases": {"engine.dispatch": {"kind": "engine", "wall_s": 1e-9}}}
    ))
    assert main([
        "perf", "--cases", "engine.dispatch", "--repeat", "1",
        "--baseline", str(baseline), "--max-regress", "20",
    ]) == 4
    assert "regressed" in capsys.readouterr().err


def test_perf_gate_fails_closed_without_baseline(tmp_path, capsys):
    assert main([
        "perf", "--cases", "engine.dispatch", "--repeat", "1",
        "--baseline", str(tmp_path / "missing.json"), "--max-regress", "20",
    ]) == 4
    assert "failing closed" in capsys.readouterr().err


def test_profile_surfaces_warp_state(capsys):
    """--profile reports what the fast-forward did (here: why it declined
    -- per-packet profiling is one of the replay-safety guard rails)."""
    assert main(["p2p", "--switch", "vpp", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "warp: declined[replay]: per-packet-tracing" in out
    assert re.search(r"^events: \d+ \(0 replayed, \d+ parked\)$", out, re.M)


def test_no_warp_flag(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_WARP", "1")  # restored after main() sets it
    assert main(["p2p", "--switch", "vpp", "--profile", "--no-warp"]) == 0
    assert "warp: disabled" in capsys.readouterr().out
