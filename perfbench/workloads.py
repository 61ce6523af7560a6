"""The benchmark's three workloads: inputs from a seed, passes, checks.

Every workload is driven through the public ``repro`` API in this one
process (``service_sweep`` adds the service's own pool workers). A
workload makes its inputs in the constructor from the benchmark seed;
the program only ever sees those inputs. :meth:`Workload.run_pass`
performs one pass and returns the operations it made, each with its
host latency and its simulated output; :meth:`Workload.check` then
checks those outputs and marks the operations that fail.

* ``paper_adapt`` — s1, s4 and s6 under ``adapt``, serially through
  ``run_scenario``; one operation per scenario run.
* ``large_grid`` — one seeded ``LargeGridSpec`` of 15,000 nodes run by
  ``run_large_grid`` at ``shards=1``; one operation per run.
* ``service_sweep`` — a ``SimulationService`` with two pool workers: a
  cold phase over ten distinct miniature jobs through a fresh disk cache,
  then a restarted service re-querying them; one operation per request.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Optional

from repro import api
from repro.experiments import result_to_dict
from repro.experiments.scenarios import DEFAULT_BH, BarnesHutFactory

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"
LARGE_GRID_GOLDEN = ROOT / "tests" / "golden" / "large_grid.json"
#: where the service's cache directories and the span files go.
OUT_DIR = HERE / "out"

PAPER_SCENARIOS = ("s1", "s4", "s6")


def summary_text(summary: dict) -> str:
    """The byte form every output check compares (``repro run --json``)."""
    return json.dumps(summary, indent=2, sort_keys=True)


def digest(summary: dict) -> str:
    return hashlib.sha256(summary_text(summary).encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Op:
    """One operation: a scenario run, a large-grid run or a request."""

    label: str
    ms: float
    summary: Optional[dict] = None
    #: why the operation failed; None while it counts as successful
    error: Optional[str] = None
    #: service requests: "miss", "disk" or "memory" (the expected source)
    kind: str = ""
    #: service requests: the service's own ``ServedResult.elapsed_ms``
    served_ms: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class PassResult:
    wall_s: float
    ops: list[Op]
    extra: dict[str, Any] = field(default_factory=dict)


class Workload:
    """Base: no in-process set-up, no teardown."""

    name = ""

    def setup(self) -> None:
        pass

    def close(self) -> None:
        pass

    def run_pass(self, tracer: Any = None) -> PassResult:
        raise NotImplementedError

    def check(self, passes: list[PassResult]) -> None:
        """Mark every operation whose output is wrong (in place)."""
        raise NotImplementedError


def _timed_op(label: str, fn: Any, tracer: Any) -> Op:
    t0 = time.perf_counter()
    try:
        summary = fn()
        op = Op(label, (time.perf_counter() - t0) * 1e3, summary)
    except Exception as exc:  # counted as a failed operation
        op = Op(label, (time.perf_counter() - t0) * 1e3,
                error=f"{type(exc).__name__}: {exc}")
    if tracer is not None:
        tracer.harvest()
    return op


def _check_repeats(passes: list[PassResult]) -> dict[str, str]:
    """Every run of one label must give the same bytes; returns them."""
    first: dict[str, str] = {}
    for result in passes:
        for op in result.ops:
            if not op.ok:
                continue
            text = summary_text(op.summary)
            if first.setdefault(op.label, text) != text:
                op.error = "output differs from an earlier run of the same input"
    return first


def _check_reference(
    passes: list[PassResult], texts: dict[str, str], expected: dict
) -> None:
    for label, text in texts.items():
        want = expected.get(label)
        got = hashlib.sha256(text.encode()).hexdigest()
        if want is not None and want != got:
            for result in passes:
                for op in result.ops:
                    if op.label == label and op.ok:
                        op.error = f"digest {got[:12]} != reference {want[:12]}"


# -- paper_adapt --------------------------------------------------------------


class PaperAdapt(Workload):
    """s1, s4, s6 under ``adapt``; the simulation seed is the benchmark seed."""

    name = "paper_adapt"

    def __init__(self, seed: int, specs: Optional[dict] = None) -> None:
        self.seed = seed
        self.specs = specs or {sid: api.scenario(sid) for sid in PAPER_SCENARIOS}

    def run_pass(self, tracer: Any = None) -> PassResult:
        t0 = time.perf_counter()
        ops = []
        for sid, spec in self.specs.items():
            def run(spec=spec) -> dict:
                result = api.run_scenario(spec, "adapt", seed=self.seed)
                summary = result_to_dict(result)
                if not result.completed:
                    raise RuntimeError("run hit max_sim_time before completing")
                return summary
            ops.append(_timed_op(sid, run, tracer))
        return PassResult(time.perf_counter() - t0, ops)

    def check(self, passes: list[PassResult]) -> None:
        texts = _check_repeats(passes)
        expected = load_reference()[self.name].get(str(self.seed), {})
        _check_reference(passes, texts, expected)


# -- large_grid ---------------------------------------------------------------


def large_grid_spec(seed: int) -> Any:
    """A 15,000-node, 40-period grid whose dynamics the seed decides.

    The size and the scripted load curve (busy enough to grow, decaying
    through the dead band, low enough to shrink) are fixed, so host time
    compares across seeds; the seed decides every node's churn, spikes
    and reports (the run seed) and which cluster's uplink storms when.
    """
    rng = random.Random(seed)
    periods = 40
    return api.LargeGridSpec(
        n_clusters=125,
        nodes_per_cluster=150,
        initial_per_cluster=120,
        periods=periods,
        busy_profile=tuple(
            round(0.9 - 0.6 * p / (periods - 1), 4) for p in range(periods)
        ),
        storm_cluster=rng.randrange(1, 125),
        storm_period=rng.randrange(10, 15),
    )


class LargeGrid(Workload):
    """One seeded large-grid run per pass, unsharded."""

    name = "large_grid"

    def __init__(self, seed: int, spec: Any = None) -> None:
        self.seed = seed
        self.spec = spec if spec is not None else large_grid_spec(seed)

    def run_pass(self, tracer: Any = None) -> PassResult:
        t0 = time.perf_counter()
        op = _timed_op(
            "large_grid",
            lambda: api.run_large_grid(self.spec, seed=self.seed, shards=1),
            tracer,
        )
        wall = time.perf_counter() - t0
        node_periods = 0
        if op.ok:
            node_periods = sum(row["nodes"] for row in op.summary["periods"])
        return PassResult(wall, [op], {"node_periods": node_periods})

    def check(self, passes: list[PassResult]) -> None:
        texts = _check_repeats(passes)
        for result in passes:
            for op in result.ops:
                if op.ok and (
                    sum(op.summary["decision_counts"].values())
                    != self.spec.periods
                    or op.summary["final_nodes"] <= 0
                ):
                    op.error = "decision count or node count out of range"
        expected = load_reference()[self.name].get(str(self.seed), {})
        _check_reference(passes, texts, expected)
        # the repo's own golden: the default spec at seed 0
        golden = LARGE_GRID_GOLDEN.read_text(encoding="utf-8")
        default = summary_text(
            api.run_large_grid(api.LargeGridSpec(), seed=0, shards=1)
        )
        if default != golden:
            for result in passes:
                for op in result.ops:
                    op.error = op.error or "default spec differs from golden"


# -- service_sweep --------------------------------------------------------------

#: scenarios the miniature jobs are made from
SERVICE_SCENARIOS = ("s1", "s2c", "s3", "s4", "s6")
REQUERIES = 2000
OUTSTANDING = 4
WORKERS = 2


def miniature(sid: str, iterations: int = 2) -> Any:
    """A paper scenario with its Barnes-Hut run cut to ``iterations``."""
    return replace(
        api.scenario(sid),
        app_factory=BarnesHutFactory(replace(DEFAULT_BH, n_iterations=iterations)),
    )


def service_jobs(
    seed: int, scenarios: tuple[str, ...] = SERVICE_SCENARIOS
) -> list[tuple[str, Any]]:
    """One (label, SweepJob) per scenario and variant, in a seeded order.

    The seed draws each job's simulation seed and the order; the mix of
    scenarios is fixed, so the cost of a pass compares across seeds.
    """
    rng = random.Random(seed)
    jobs = []
    for sid in scenarios:
        for variant in ("none", "adapt"):
            sim_seed = rng.randrange(1000)
            jobs.append((f"{sid}/{variant}/{sim_seed}",
                         api.SweepJob(miniature(sid), variant, sim_seed)))
    rng.shuffle(jobs)
    return jobs


class ServiceSweep(Workload):
    """Cold closed-loop sweep through a warm pool, then cached re-queries."""

    name = "service_sweep"

    def __init__(self, seed: int, jobs: Optional[list] = None,
                 requeries: int = REQUERIES) -> None:
        self.seed = seed
        self.jobs = jobs if jobs is not None else service_jobs(seed)
        rng = random.Random(seed + 1)
        self.requery_order = [rng.randrange(len(self.jobs))
                              for _ in range(requeries)]
        self.service: Any = None
        #: seconds from pool start until every worker ran its warm-up job
        self.spawn_s = 0.0

    def setup(self) -> None:
        """Spawn the pool and run one warm-up job on each worker."""
        # the source digest every cache key embeds is computed once per
        # process; a service pays it before its first request
        api.code_fingerprint()
        t0 = time.perf_counter()
        self.service = api.SimulationService(WORKERS).start()
        warm = [api.SweepJob(miniature("s2a", 1), "none", seed)
                for seed in range(WORKERS)]
        for served in self.service.sweep(warm):
            if not served.ok:
                raise RuntimeError(f"warm-up job failed: {served.error}")
        self.spawn_s = time.perf_counter() - t0

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def run_pass(self, tracer: Any = None) -> PassResult:
        OUT_DIR.mkdir(exist_ok=True)
        directory = tempfile.mkdtemp(prefix="cache-", dir=OUT_DIR)
        try:
            t0 = time.perf_counter()
            self.service.cache = api.ResultCache(directory=directory)
            cold = self._cold_phase()
            t1 = time.perf_counter()
            requery = self._requery_phase(directory)
            wall = time.perf_counter() - t0
        finally:
            self.service.cache = None
            shutil.rmtree(directory, ignore_errors=True)
        if tracer is not None:
            tracer.harvest()
        return PassResult(wall, cold + requery, {"cold_s": t1 - t0})

    def _cold_phase(self) -> list[Op]:
        service = self.service
        ops: dict[int, Op] = {}
        started: dict[int, float] = {}
        pending = list(self.jobs)
        while pending or service.outstanding:
            while pending and service.outstanding < OUTSTANDING:
                label, job = pending.pop(0)
                t = time.perf_counter()
                ticket = service.submit(job)
                started[ticket] = t
                ops[ticket] = Op(label, 0.0, kind="miss")
            ticket, served = service.poll()
            self._settle(ops[ticket], served, started[ticket], expect_hit=False)
        return [ops[t] for t in sorted(ops)]

    def _requery_phase(self, directory: str) -> list[Op]:
        restarted = api.SimulationService(
            WORKERS, cache=api.ResultCache(directory=directory)
        )
        ops = []
        seen: set[int] = set()
        try:
            for index in self.requery_order:
                label, job = self.jobs[index]
                op = Op(label, 0.0, kind="memory" if index in seen else "disk")
                seen.add(index)
                t = time.perf_counter()
                restarted.submit(job)
                _, served = restarted.poll()
                self._settle(op, served, t, expect_hit=True)
                ops.append(op)
        finally:
            restarted.close()
        return ops

    @staticmethod
    def _settle(op: Op, served: Any, started: float, expect_hit: bool) -> None:
        op.ms = (time.perf_counter() - started) * 1e3
        op.served_ms = served.elapsed_ms
        if not served.ok:
            op.error = f"JobError: {served.error}"
        elif served.cache_hit != expect_hit:
            op.error = "cache hit" if served.cache_hit else "cache miss"
        else:
            op.summary = served.summary

    def check(self, passes: list[PassResult]) -> None:
        """Each result must equal a direct ``run_scenario`` of its job."""
        direct = {}
        for label, job in self.jobs:
            result = api.run_scenario(job.scenario, job.variant, seed=job.seed)
            direct[label] = summary_text(result_to_dict(result))
        texts: dict[int, str] = {}
        for result in passes:
            for op in result.ops:
                if not op.ok:
                    continue
                text = texts.get(id(op.summary))
                if text is None:
                    text = texts[id(op.summary)] = summary_text(op.summary)
                if text != direct[op.label]:
                    op.error = "service result differs from a direct run"


WORKLOADS = {w.name: w for w in (PaperAdapt, LargeGrid, ServiceSweep)}


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (1-99), interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]
