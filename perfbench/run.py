"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_adapt --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched:
set-up time (median of fresh interpreters started to ready), mean host
seconds per pass, and peak resident memory. Passes repeat until
``--seconds`` have gone by. ``--trace 1`` makes one
untraced and one traced pass of the same inputs and reports the
per-layer ledger of the traced one (see ``tracer.py``); the aggregated
spans are written to ``perfbench/out/``.

Every run checks its simulated outputs (``workloads.py``). Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The run happens in a forked child; the parent is the child subreaper
(Linux ``prctl``) and exits only once every process the run started has
ended, including helpers that outlive their own parent, such as the
``multiprocessing`` resource tracker of the service's pool.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

#: fresh interpreters timed per ``setup_s`` sample set
SETUP_SAMPLES = 5
#: seconds left processes get to end by themselves before they are killed
LEFTOVER_GRACE_S = 10.0
PR_SET_CHILD_SUBREAPER = 36


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds from starting a fresh interpreter to ready."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
        ) as probe:
            line = probe.stdout.readline().strip()
            samples.append(time.perf_counter() - t0)
            probe.stdout.read()
            code = probe.wait(timeout=60)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    return statistics.median(samples)


def _hwm_kb(pid: str) -> int:
    """Peak resident set (VmHWM) of one process, in kB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its live pool workers."""
    total = _hwm_kb("self")
    for child in multiprocessing.active_children():
        total += _hwm_kb(str(child.pid))
    return total / 1024.0


def _median_ms(ops, kind=None, field="ms") -> float:
    values = [getattr(op, field) for op in ops if kind is None or op.kind == kind]
    return statistics.median(values) if values else 0.0


def report_lines(workload, passes) -> list[str]:
    """The workload's own figures, printed ahead of the JSON line."""
    from workloads import percentile

    ops = [op for p in passes for op in p.ops]
    lines = [f"passes: {len(passes)}, operations: {len(ops)}"]
    if workload.name == "paper_adapt":
        for sid in workload.specs:
            times = [op.ms / 1e3 for op in ops if op.label == sid]
            lines.append(
                f"{sid}_adapt_s: {statistics.median(times):.4f} s (n={len(times)})"
            )
    elif workload.name == "large_grid":
        node_periods = sum(p.extra["node_periods"] for p in passes)
        wall = sum(p.wall_s for p in passes)
        lines.append(f"node_periods_per_s: {node_periods / wall:.1f} 1/s")
    else:
        cold = [op for op in ops if op.kind == "miss"]
        hits = [op for op in ops if op.kind != "miss"]
        cold_s = sum(p.extra["cold_s"] for p in passes)
        lines.append(f"jobs_per_s: {len(cold) / cold_s:.3f} 1/s (n={len(cold)})")
        lines.append(f"miss_ms.p50: {_median_ms(cold):.3f} ms (n={len(cold)})")
        hit_ms = [op.ms for op in hits]
        lines.append(f"hit_ms.p50: {percentile(hit_ms, 50):.4f} ms (n={len(hits)})")
        lines.append(f"hit_ms.p90: {percentile(hit_ms, 90):.4f} ms (n={len(hits)})")
        for kind in ("disk", "memory"):
            n = sum(op.kind == kind for op in hits)
            lines.append(
                f"{kind}_hit_ms.p50: {_median_ms(hits, kind):.4f} ms client, "
                f"{_median_ms(hits, kind, 'served_ms'):.4f} ms "
                f"ServedResult.elapsed_ms (n={n})"
            )
    failed = sum(not op.ok for op in ops)
    lines.append(f"failed_frac: {failed / max(len(ops), 1):.4f} ({failed}/{len(ops)})")
    for op in ops:
        if not op.ok:
            lines.append(f"FAILED {op.label}: {op.error}")
    return lines


def run_untraced(workload, seconds: float) -> tuple[list, dict]:
    """Passes until `seconds` have gone by; the end-to-end metrics."""
    workload.setup()
    try:
        passes = []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < seconds:
            # each pass starts from a collected heap, so when the cyclic
            # collector runs does not depend on the passes before it
            gc.collect()
            passes.append(workload.run_pass())
        rss = peak_rss_mb()
    finally:
        workload.close()
    workload.check(passes)
    # The mean, not the median, of the passes: host speed here switches
    # between a fast and a ~1.7x slower state for tens of seconds at a
    # time, and a median picks whichever state held most of the window
    # while the mean moves with the share of each.
    metrics = {
        "wall_s": (statistics.fmean(p.wall_s for p in passes), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return passes, metrics


def run_traced(workload_cls, seed: int) -> tuple[list, dict]:
    """One untraced pass, then one traced window (set-up plus one pass).

    The layers' self times add up to the traced window; the tracing
    overhead compares the two passes alone.
    """
    from tracer import Tracer, leftover_wrappers
    from workloads import OUT_DIR

    reference = workload_cls(seed)
    gc.collect()
    reference.setup()
    try:
        untraced = reference.run_pass()
    finally:
        reference.close()

    # The traced window starts and ends with a full collection: abandoned
    # simulation generators run their ``finally`` blocks (which call layer
    # functions) when collected, and that must happen inside the window
    # of the pass that made them for the counts to repeat exactly.
    tracer = Tracer()
    workload = workload_cls(seed)
    gc.collect()
    try:
        tracer.install()
        workload.setup()
        traced = workload.run_pass(tracer)
        gc.collect()
        tracer.harvest()
    finally:
        tracer.uninstall()
        workload.close()
    leftovers = leftover_wrappers()
    # one check over both passes: a label's outputs must be byte-identical
    # across them, so the wrappers provably did not reorder events
    workload.check([untraced, traced])
    if leftovers:
        for op in traced.ops:
            op.error = op.error or f"wrappers left installed: {leftovers}"

    metrics = layer_metrics(tracer, traced)
    metrics["pool.spawn_s"] = (getattr(workload, "spawn_s", 0.0), "s")
    metrics["trace.overhead"] = (traced.wall_s / untraced.wall_s, "x")
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
    spans_file.write_text(json.dumps(
        {"workload": workload.name, "seed": seed,
         "window_s": tracer.window_seconds,
         "pass_s": {"untraced": untraced.wall_s, "traced": traced.wall_s},
         "self_s": tracer.self_seconds(), "spans": tracer.span_records()},
        indent=1,
    ))
    print(f"spans written to {spans_file.relative_to(ROOT)}")
    return [untraced, traced], metrics


def layer_metrics(tracer, traced) -> dict:
    """The per-layer ledger of one traced window, ``name -> (value, unit)``."""
    self_s = tracer.self_seconds()
    counts = tracer.counts
    total = tracer.total_seconds
    calls = tracer.calls
    events = counts.get("engine.events", 0)
    attempts = counts.get("satin.steal.attempts", 0)
    successes = counts.get("satin.steal.successes", 0)
    hits = counts.get("cache.memory_hits", 0) + counts.get("cache.disk_hits", 0)
    lookups = hits + counts.get("cache.misses", 0)

    m = {
        "engine.events": (events, "count"),
        "engine.processes": (counts.get("engine.processes", 0), "count"),
        "engine.ns_per_event": (
            self_s["engine"] / events * 1e9 if events else 0.0, "ns"),
        "engine.max_queue_len": (counts.get("engine.max_queue_len", 0), "count"),
        "queues.calls": (tracer.layer_calls("queues"), "count"),
        "network.transfers": (calls.get("network:Network.transfer", 0), "count"),
        "satin.worker.resumes": (
            tracer.span_count("satin.worker:Worker._run"), "count"),
        "satin.remote_steal.resumes": (
            tracer.span_count("satin.remote_steal:Worker._remote_steal"),
            "count"),
        "satin.steal.attempts": (attempts, "count"),
        "satin.steal.successes": (successes, "count"),
        "satin.steal.success_ratio": (
            successes / attempts if attempts else 0.0, "ratio"),
        "registry.calls": (tracer.layer_calls("registry"), "count"),
        "zorilla.calls": (tracer.layer_calls("zorilla"), "count"),
        "coordinator.decisions": (counts.get("coordinator.decisions", 0), "count"),
        # scenario runs made in this process; service results were
        # simulated by the pool workers, which no span sees
        "apps.iterations": (
            sum(op.summary.get("iterations_done", 0)
                for op in traced.ops if op.ok and op.kind == ""),
            "count"),
        "gridstate.calls": (tracer.layer_calls("gridstate"), "count"),
        "streaming.refolds": (counts.get("streaming.refolds", 0), "count"),
        "streaming.sync_s": (
            total("streaming:StreamingDecisionState.sync"), "s"),
        "streaming.decide_s": (
            total("streaming:StreamingDecisionState.decide"), "s"),
        "pool.jobs": (counts.get("pool.jobs", 0), "count"),
        "pool.retries": (counts.get("pool.retries", 0), "count"),
        "pool.wait_s": (total("pool:WarmPool.next_result"), "s"),
        "cache.key_calls": (calls.get("cache:cache_key", 0), "count"),
        "cache.key_s": (total("cache:cache_key"), "s"),
        "cache.get_s": (total("cache:ResultCache.get"), "s"),
        "cache.put_s": (total("cache:ResultCache.put"), "s"),
        "cache.memory_hits": (counts.get("cache.memory_hits", 0), "count"),
        "cache.disk_hits": (counts.get("cache.disk_hits", 0), "count"),
        "cache.misses": (counts.get("cache.misses", 0), "count"),
        "cache.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "trace.wall_s": (tracer.window_seconds, "s"),
    }
    for layer, seconds in self_s.items():
        m[f"{layer}.self_s"] = (seconds, "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = workloads.WORKLOADS[args.workload]

    if args.trace:
        passes, metrics = run_traced(workload_cls, args.seed)
        lines = report_lines(workload_cls(args.seed), passes)
    else:
        setup_s = measure_setup(args.workload, args.seed)
        workload = workload_cls(args.seed)
        passes, metrics = run_untraced(workload, args.seconds)
        metrics = {"setup_s": (setup_s, "s"), **metrics}
        lines = report_lines(workload, passes)

    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    ops = [op for p in passes for op in p.ops]
    failed = sum(not op.ok for op in ops)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def _children() -> list[int]:
    """Pids of this process's live children, from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def reap_all() -> list[int]:
    """Wait for every child, orphans included; kill any left too long.

    Returns the pids that had to be killed.
    """
    deadline = time.monotonic() + LEFTOVER_GRACE_S
    killed: list[int] = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                if child not in killed:
                    killed.append(child)
                os.kill(child, signal.SIGKILL)
        time.sleep(0.01)


def supervise(fn, *args) -> int:
    """Run ``fn(*args)`` in a forked child; return its exit code once the
    child and every process it left behind have ended."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")
    sys.stdout.flush()
    sys.stderr.flush()
    child = os.fork()
    if child == 0:
        return fn(*args)
    previous = signal.signal(
        signal.SIGTERM, lambda signum, frame: os.kill(child, signum))
    try:
        _, status = os.waitpid(child, 0)
        killed = reap_all()
    finally:
        signal.signal(signal.SIGTERM, previous)
    if killed:
        print(f"perfbench: killed processes left running: {killed}",
              file=sys.stderr)
    code = os.waitstatus_to_exitcode(status)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(supervise(main))
