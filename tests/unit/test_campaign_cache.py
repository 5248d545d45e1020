"""Unit tests for the on-disk result cache and its fingerprint keying."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.campaign.cache import ResultCache, params_fingerprint, run_key
from repro.campaign.spec import RunRecord, RunSpec
from repro.switches.params import ALL_PARAMS
from repro.cpu.costmodel import Cost


def _record(spec: RunSpec) -> RunRecord:
    return RunRecord(spec=spec, per_direction_gbps=[9.5], per_direction_mpps=[14.1], events=3)


def test_put_then_get_round_trips(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = RunSpec("p2p", "vpp")
    assert cache.get(spec) is None
    cache.put(spec, _record(spec))
    hit = cache.get(spec)
    assert hit is not None
    assert hit.gbps == pytest.approx(9.5)
    assert hit.cached  # hits are flagged so telemetry can count them
    assert len(cache) == 1


def test_key_depends_on_spec_fields(tmp_path):
    base = RunSpec("p2p", "vpp")
    assert run_key(base) == run_key(RunSpec("p2p", "vpp"))
    assert run_key(base) != run_key(RunSpec("p2p", "vpp", seed=2))
    assert run_key(base) != run_key(RunSpec("p2p", "vpp", frame_size=256))
    assert run_key(base) != run_key(RunSpec("p2p", "bess"))


def test_fingerprint_changes_with_cost_model(monkeypatch):
    before = params_fingerprint("vpp")
    recalibrated = replace(ALL_PARAMS["vpp"], proc=Cost(per_batch=1.0, per_packet=1.0))
    monkeypatch.setitem(ALL_PARAMS, "vpp", recalibrated)
    assert params_fingerprint("vpp") != before
    # Other switches' fingerprints are unaffected.
    assert params_fingerprint("bess") == params_fingerprint("bess")


def test_recalibration_invalidates_entries(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path / "cache")
    spec = RunSpec("p2p", "vpp")
    cache.put(spec, _record(spec))
    assert cache.get(spec) is not None

    recalibrated = replace(ALL_PARAMS["vpp"], proc=Cost(per_batch=1.0, per_packet=1.0))
    monkeypatch.setitem(ALL_PARAMS, "vpp", recalibrated)
    fresh_view = ResultCache(tmp_path / "cache")  # fingerprints memoised per instance
    assert fresh_view.get(spec) is None


def test_invalidate_one_and_all(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    a, b = RunSpec("p2p", "vpp"), RunSpec("p2p", "bess")
    cache.put(a, _record(a))
    cache.put(b, _record(b))
    assert cache.invalidate(a) == 1
    assert cache.get(a) is None
    assert cache.get(b) is not None
    assert cache.invalidate() == 1
    assert len(cache) == 0


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = RunSpec("p2p", "vpp")
    path = cache.put(spec, _record(spec))
    path.write_text("{ not json")
    assert cache.get(spec) is None


def test_fingerprint_changes_with_engine_features(monkeypatch):
    """Toggling or versioning the warp engine invalidates cache keys."""
    monkeypatch.delenv("REPRO_WARP", raising=False)
    warp_on = params_fingerprint("vpp")
    monkeypatch.setenv("REPRO_WARP", "0")
    warp_off = params_fingerprint("vpp")
    assert warp_on != warp_off

    import repro.core.warp as warp_mod

    monkeypatch.delenv("REPRO_WARP", raising=False)
    monkeypatch.setattr(warp_mod, "WARP_VERSION", warp_mod.WARP_VERSION + 1)
    assert params_fingerprint("vpp") not in (warp_on, warp_off)


def test_turbo_era_entries_are_misses(tmp_path, monkeypatch):
    """Rows cached before the chain turbo was retired (WARP_VERSION 1,
    ``warp`` column possibly ``turbo``) never mix with current rows."""
    import repro.core.warp as warp_mod

    monkeypatch.delenv("REPRO_WARP", raising=False)
    current = warp_mod.WARP_VERSION
    assert current >= 2
    spec = RunSpec("p2p", "vpp")
    monkeypatch.setattr(warp_mod, "WARP_VERSION", 1)
    turbo_era = ResultCache(tmp_path / "cache")
    record = _record(spec)
    record.warp = "turbo"
    turbo_era.put(spec, record)
    assert turbo_era.get(spec) is not None

    monkeypatch.setattr(warp_mod, "WARP_VERSION", current)
    assert ResultCache(tmp_path / "cache").get(spec) is None


def test_engine_toggle_invalidates_entries(tmp_path, monkeypatch):
    """A record cached with warp on is a miss once warp is off (and back)."""
    monkeypatch.delenv("REPRO_WARP", raising=False)
    cache = ResultCache(tmp_path / "cache")
    spec = RunSpec("p2p", "vpp")
    cache.put(spec, _record(spec))
    assert cache.get(spec) is not None

    monkeypatch.setenv("REPRO_WARP", "0")
    off_view = ResultCache(tmp_path / "cache")  # fingerprints memoised per instance
    assert off_view.get(spec) is None

    monkeypatch.delenv("REPRO_WARP", raising=False)
    on_view = ResultCache(tmp_path / "cache")
    assert on_view.get(spec) is not None
