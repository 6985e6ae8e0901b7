#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload nyc-day-cold --seed 7 --seconds 20 --trace 0

A run repeats whole rounds of the workload — set-up, then one timed
``run()`` of the full trace — until another round would overrun
``--seconds``, but makes at least the workload's ``min_rounds`` rounds
and at least three set-ups (extra ones are timed, then dropped unrun).
Every round repeats the same frames, so a frame's latency is the median
of its rounds' timings, and ``throughput_rps`` uses the median round
time.  ``setup_s`` is the import time plus the median set-up.  After
the last round, the first round's outputs are checked by
:mod:`perfbench.check`, and every later round must reproduce them frame
for frame.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics instead,
with the traced rounds' throughput loss as ``trace.overhead_pct``; the
spans are written to ``.perfbench_out/``.

The process pins BLAS/OpenMP threads to one and fixes ``PYTHONHASHSEED``
by re-executing itself once.  Durable artifacts live in a fresh
directory under ``.perfbench_run/`` that is removed when the run ends.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
MIN_SETUPS = 3


def _pin_environment() -> None:
    """Re-execute this process once with the pinned environment."""
    if all(os.environ.get(key) == value for key, value in PINNED_ENV.items()):
        return
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})


def _percentile(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile, the rule ``SimulationResult.perf_stats`` uses."""
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return sorted_samples[rank - 1]


def _frame_latencies(rounds: list[list[float]]) -> list[float]:
    """Each dispatched frame's median latency over the rounds, sorted.

    Rounds that do not line up frame for frame (a failed run) are pooled.
    """
    import numpy as np

    if len({len(r) for r in rounds}) == 1:
        return sorted(np.median(np.array(rounds), axis=0).tolist())
    return sorted(ms for r in rounds for ms in r)


def _frames(result) -> list[tuple]:
    """Per dispatched frame: its time and the exact assignments it made."""
    by_time = defaultdict(list)
    for a in result.assignments:
        by_time[a.frame_time_s].append((a.taxi_id, a.request_ids, a.total_drive_km))
    return [
        (f.time_s, tuple(sorted(by_time.get(f.time_s, ()))))
        for f in result.frame_stats
        if f.dispatch_ms > 0.0
    ]


def _outcomes(result) -> tuple:
    return tuple(
        (o.request_id, o.taxi_id, o.dispatch_time_s, o.pickup_time_s, o.dropoff_time_s,
         o.abandoned)
        for o in result.outcomes
    )


def _layer_metrics(layers, counts, result, prepared) -> dict[str, float]:
    """Per-layer figures of one traced slice; span figures cover the round."""
    zero = {"calls": 0.0, "ms": 0.0, "self_ms": 0.0}

    def span(name: str) -> dict[str, float]:
        return layers.get(name, zero)

    perf = result.perf_stats()
    telemetry = result.dispatch_telemetry
    journal = prepared.durable_dir / "journal.jsonl" if prepared.durable_dir else None
    return {
        "trace.generate_ms": span("trace.generate")["ms"],
        "simulation.run_ms": span("simulation.run")["ms"],
        "simulation.self_ms": span("simulation.run")["self_ms"],
        "simulation.frames": float(result.frames_run),
        "frame_cache.pickup_ms": span("frame_cache.pickup")["ms"],
        "frame_cache.pickup_calls": span("frame_cache.pickup")["calls"],
        "frame_cache.trip_ms": span("frame_cache.trip")["ms"],
        "frame_cache.hits": float(telemetry.get("cache_hits", 0)),
        "frame_cache.misses": float(telemetry.get("cache_misses", 0)),
        "geometry.batch_calls": span("geometry.batch")["calls"],
        "geometry.pairs_computed": float(counts["geometry.pairs_computed"]),
        "geometry.batch_ms": span("geometry.batch")["ms"],
        "dispatch.calls": span("dispatch")["calls"],
        "dispatch.ms": span("dispatch")["ms"],
        "dispatch.self_ms": span("dispatch")["self_ms"],
        "matching.pref_build_ms": span("matching.pref_build")["ms"],
        "matching.pref_pairs": float(counts["matching.pref_pairs"]),
        "matching.solve_ms": span("matching.solve")["ms"],
        "matching.warm_solve_ms": span("matching.warm_solve")["ms"],
        "matching.warm_solve_calls": span("matching.warm_solve")["calls"],
        "matching.warm_hit_rate": float(perf.get("warm_hit_rate", 0.0)),
        "matching.warm_rebuild_fraction": float(perf.get("warm_rebuild_fraction", 0.0)),
        "streaming.match_epoch_ms": span("streaming.match_epoch")["ms"],
        "streaming.zone_plan_ms": span("streaming.zone_plan")["ms"],
        "streaming.queue_depths_ms": span("streaming.queue_depths")["ms"],
        "streaming.events_processed": float(telemetry.get("events_processed", 0)),
        "streaming.zone_groups_mean": float(perf.get("zone_groups_mean", 0.0)),
        "resilience.commit_ms": span("resilience.commit")["ms"],
        "resilience.journal_ms": span("resilience.journal")["ms"],
        "resilience.checkpoint_ms": span("resilience.checkpoint")["ms"],
        "resilience.checkpoints": span("resilience.checkpoint")["calls"],
        "resilience.journal_bytes": float(journal.stat().st_size) if journal else 0.0,
        "resilience.snapshot_bytes_max": float(
            counts["resilience.snapshot_bytes_max"]
        ),
        "resilience.audit_ms": span("resilience.audit")["ms"],
        "resilience.frames_audited": float(perf.get("frames_audited", 0.0)),
        "sharing.pack_ms": span("sharing.pack")["ms"],
        "packing.enumerate_ms": span("packing.enumerate")["ms"],
        "packing.groups_feasible": float(counts["packing.groups_feasible"]),
        "packing.set_packing_ms": span("packing.set_packing")["ms"],
        "routing.route_calls": span("routing.route")["calls"],
        "routing.route_ms": span("routing.route")["ms"],
        "sharing.table_ms": span("sharing.table")["ms"],
    }


#: Figures read from one slice's result; summed over a round's slices
#: (rates and means are averaged instead).
_PER_SLICE_SUM = (
    "simulation.frames", "frame_cache.hits", "frame_cache.misses",
    "streaming.events_processed", "resilience.journal_bytes", "resilience.frames_audited",
)
_PER_SLICE_MEAN = (
    "matching.warm_hit_rate", "matching.warm_rebuild_fraction", "streaming.zone_groups_mean",
)


def _merge_slices(per_slice: list[dict[str, float]]) -> dict[str, float]:
    """One round's figures: span totals once, slice figures summed or averaged."""
    merged = dict(per_slice[0])
    for key in _PER_SLICE_SUM:
        merged[key] = sum(s[key] for s in per_slice)
    for key in _PER_SLICE_MEAN:
        merged[key] = statistics.fmean(s[key] for s in per_slice)
    return merged


def _run_round(workload, seed: int, scratch: Path, tracer) -> tuple[float, float, list, list]:
    """Set up and run one round, traced when ``tracer`` is given.

    Returns ``(setup_s, run_s, prepared, results)``, where ``run_s`` sums
    the ``run()`` calls of the round's slices.
    """
    from perfbench.workloads import prepare_round

    # Whatever the earlier rounds left behind is the benchmark's own
    # bookkeeping: freeze it so that the program's garbage collections
    # scan the same heap in every round.
    gc.collect()
    gc.freeze()
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        prepared = prepare_round(workload, seed, scratch)
        setup_s = time.perf_counter() - start
        results = []
        run_s = 0.0
        for one in prepared:
            start = time.perf_counter()
            results.append(one.run())
            run_s += time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return setup_s, run_s, prepared, results


def _count_operations(workload, prepared, results, rounds) -> tuple[bool, int, int]:
    """Check the first round's outputs and count every round's operations.

    ``prepared`` and ``results`` are the first round's; ``rounds`` holds,
    per round and slice, the dispatched frames and the outcomes.  Returns
    ``(correct, attempted, failed)``.
    """
    from perfbench.check import check_run

    correct = True
    attempted = failed = 0
    for index, (one, result) in enumerate(zip(prepared, results)):
        report = check_run(workload.kind, one.fleet, one.requests, one.sim_config, result,
                           one.durable_dir)
        for fault in report.faults():
            print(f"check: slice {index}: {fault}", file=sys.stderr)
        reference_frames, reference_outcomes = rounds[0][index]
        bad_times = {result.frame_stats[i].time_s for i in report.bad_frames}
        # A fault outside a dispatched frame is not one operation's fault.
        correct &= not report.errors and bad_times <= {t for t, _ in reference_frames}
        for slices in rounds:
            frames, outcomes = slices[index]
            attempted += len(frames)
            failed += abs(len(frames) - len(reference_frames))
            failed += sum(
                1
                for got, want in zip(frames, reference_frames)
                if got != want or want[0] in bad_times
            )
            if outcomes != reference_outcomes:
                print(f"check: slice {index}: a later round's outcomes differ from the first",
                      file=sys.stderr)
                correct = False
    return correct, attempted, failed


def measure(workload, seed: int, seconds: float, trace: bool, scratch: Path,
            layer_units: dict[str, str]) -> dict:
    """All rounds of one run, then the checks; returns the result object."""
    from perfbench.tracer import Tracer
    from perfbench.workloads import prepare_round

    import_s = time.perf_counter() - _T0

    setups: list[float] = []
    run_s: list[float] = []  # untraced rounds
    traced_s: list[float] = []
    dispatch_ms: list[list[float]] = []  # per untraced round, frame by frame
    # Per round, per slice: (dispatched frames, outcomes).
    rounds: list[list[tuple[list[tuple], tuple]]] = []
    layer_rounds: list[dict[str, float]] = []
    while True:
        tracer = Tracer() if trace and len(rounds) % 2 == 1 else None
        setup_s, elapsed, prepared, results = _run_round(workload, seed, scratch, tracer)
        setups.append(setup_s)
        rounds.append([(_frames(r), _outcomes(r)) for r in results])
        if tracer is None:
            run_s.append(elapsed)
            dispatch_ms.append(
                [f.dispatch_ms for r in results for f in r.frame_stats if f.dispatch_ms > 0.0]
            )
        else:
            traced_s.append(elapsed)
            layers = tracer.layers()
            layer_rounds.append(_merge_slices([
                _layer_metrics(layers, tracer.counts, r, p) for r, p in zip(results, prepared)
            ]))
            last_tracer = tracer
        if len(rounds) == 1:
            first = (prepared, results)
            # One round's peak, whatever the number of rounds that follow.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        total = sum(run_s) + sum(traced_s)
        if (
            len(rounds) >= workload.min_rounds
            and total + total / len(rounds) > seconds
            and (not trace or traced_s)
        ):
            break
    while len(setups) < MIN_SETUPS:
        start = time.perf_counter()
        prepare_round(workload, seed, scratch)
        setups.append(time.perf_counter() - start)

    start = time.perf_counter()
    correct, attempted, failed = _count_operations(workload, *first, rounds)
    print(f"run.py: {len(rounds)} rounds, run() {total:.1f} s, set-ups "
          f"{sum(setups):.1f} s, checks {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    requests_per_round = sum(len(p.requests) for p in first[0])
    if trace:
        metrics = {
            key: (statistics.fmean(r[key] for r in layer_rounds), unit)
            for key, unit in layer_units.items()
            if key != "trace.overhead_pct"
        }
        # Throughput lost to tracing: 1 - traced / untraced req/s.
        metrics["trace.overhead_pct"] = (
            100.0 * (1.0 - statistics.fmean(run_s) / statistics.fmean(traced_s)), "%"
        )
        last_tracer.dump(ROOT / ".perfbench_out" / f"spans-{workload.name}-seed{seed}.npz")
    else:
        frame_ms = _frame_latencies(dispatch_ms)
        metrics = {
            "throughput_rps": (requests_per_round / statistics.median(run_s), "req/s"),
            "frame_p50_ms": (_percentile(frame_ms, 0.50), "ms"),
            "frame_p95_ms": (_percentile(frame_ms, 0.95), "ms"),
            "setup_s": (import_s + statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    _pin_environment()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    scratch_root = ROOT / ".perfbench_run"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        summary = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), scratch, layer_units)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still holds its directory
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
