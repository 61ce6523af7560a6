"""Tests for the repro bench harness (schema, gate, CLI plumbing)."""

import json

import pytest

from repro.experiments.microbench import (
    WORKLOADS,
    check_against_baseline,
    main as bench_main,
    run_bench,
)


def test_workload_names_unique_and_nonempty():
    names = [w.name for w in WORKLOADS]
    assert len(names) == len(set(names))
    assert names  # the suite is not empty


def test_run_bench_schema():
    results = run_bench(names=["octree_build"], repeats=1)
    assert "_schema" in results
    assert results["repeats"] == 1
    row = results["benchmarks"]["octree_build"]
    assert row["median_ms"] > 0
    assert row["min_ms"] <= row["median_ms"]
    assert "description" in row
    assert "speedup" not in row  # no baseline given


def test_run_bench_against_baseline_adds_speedup():
    baseline = run_bench(names=["octree_build"], repeats=1)
    results = run_bench(names=["octree_build"], repeats=1, baseline=baseline)
    row = results["benchmarks"]["octree_build"]
    assert row["baseline_median_ms"] == baseline["benchmarks"]["octree_build"]["median_ms"]
    assert row["speedup"] == pytest.approx(
        row["baseline_median_ms"] / row["median_ms"], rel=1e-3
    )


def test_unknown_workload_rejected():
    with pytest.raises(KeyError):
        run_bench(names=["octree_build", "bogus"])


def test_gate_passes_and_fails():
    baseline = run_bench(names=["octree_build"], repeats=1)
    results = run_bench(names=["octree_build"], repeats=1, baseline=baseline)
    # A run can't be 1000x slower than itself moments earlier...
    assert check_against_baseline(results, gate=1000.0) == []
    # ...and can't be 1000x faster either, so an absurdly tight gate trips.
    violations = check_against_baseline(results, gate=0.001)
    assert violations and "octree_build" in violations[0]
    # Workloads without a baseline row are skipped, not failed.
    fresh = run_bench(names=["octree_build"], repeats=1)
    assert check_against_baseline(fresh, gate=0.001) == []


def test_cli_writes_json_and_gates(tmp_path):
    out = tmp_path / "bench.json"
    assert bench_main(["--only", "octree_build", "--repeats", "1",
                       "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "octree_build" in doc["benchmarks"]

    # gate against itself: passes
    assert bench_main(["--only", "octree_build", "--repeats", "1",
                       "--baseline", str(out), "--gate", "1000"]) == 0
    # absurd gate: regression reported through the exit code
    assert bench_main(["--only", "octree_build", "--repeats", "1",
                       "--baseline", str(out), "--gate", "0.001"]) == 1


def test_cli_gate_requires_baseline():
    with pytest.raises(SystemExit):
        bench_main(["--only", "octree_build", "--repeats", "1",
                    "--gate", "2.0"])


# -- timed-region audit -------------------------------------------------------
# Each workload's `prepare` does the untimed setup and returns the callable
# that gets timed. These tests pin that expensive preparation (input
# generation, octree construction) cannot leak into the timed region: after
# prepare() has run, the builders are sabotaged and the timed callable must
# still succeed.

_BY_NAME = {w.name: w for w in WORKLOADS}


def _bomb(*args, **kwargs):  # pragma: no cover - must never run
    raise AssertionError("untimed prepare work leaked into the timed region")


def test_traversal_timing_excludes_octree_build(monkeypatch):
    """The gated `traversal` workload times the kernel, not build_octree."""
    import repro.apps.barneshut as barneshut
    import repro.apps.flatoctree as flatoctree

    fn = _BY_NAME["traversal"].prepare()
    monkeypatch.setattr(flatoctree, "build_flat_octree", _bomb)
    monkeypatch.setattr(barneshut, "build_flat_octree", _bomb)
    monkeypatch.setattr(barneshut, "build_octree", _bomb)
    counts = fn()
    assert counts.shape == (2048,)


@pytest.mark.parametrize(
    "name", ["octree_build", "traversal", "traversal_flat", "leaf_batch"]
)
def test_octree_workloads_exclude_input_generation(monkeypatch, name):
    """Plummer-sphere generation happens in prepare, never in the timing."""
    import repro.apps.barneshut as barneshut
    import repro.experiments.microbench as microbench

    fn = _BY_NAME[name].prepare()
    monkeypatch.setattr(barneshut, "plummer_sphere", _bomb)
    monkeypatch.setattr(microbench, "octree_inputs", _bomb)
    fn()  # still runs: inputs were captured during prepare
