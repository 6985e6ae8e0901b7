#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs, compared against the bounds.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--seconds 20]

Run ``i`` of each set uses seed ``--first-seed + i`` in both sets, and the
two sets alternate run by run (A then B, then B then A, ...) so that slow
drift of the host lands on both.  For every workload and end-to-end
metric it prints each set's median and quartiles, the quartile spread
as a share of the median, and whether

* each set's spread stays within the metric's bound (``setup_s`` is
  exempt: its spread is reported but not judged), and
* the second set's median is no worse than the first's by more than the
  bound.

It also checks that both sets fail the same share of operations.  Exits
1 when anything disagrees.  Every run is a fresh process, one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in a fresh process; its final JSON line.

    The run's wall time, set-up and checks included, is added as
    ``wall_s``.
    """
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.perf_counter() - start
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = args.workload or names

    results: dict[str, dict[str, list[dict]]] = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for workload in workloads:
            for side in order:
                out = run_once(workload, seed, args.seconds)
                results[workload][side].append(out)
                values = " ".join(
                    f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()
                )
                print(f"[{side}] {workload} seed={seed} correct={out['correct']} "
                      f"failed={out['failed']}/{out['attempted']} wall={out['wall_s']:.1f}s {values}",
                      flush=True)

    ok = True
    print()
    for workload in workloads:
        print(f"== {workload}")
        sets = results[workload]
        shares = {
            side: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for side, runs in sets.items()
        }
        if shares["A"] != shares["B"] or not all(r["correct"] for s in sets.values() for r in s):
            ok = False
            print(f"   failed share A={shares['A']} B={shares['B']} or a run was incorrect: NO")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = [f"   {name:15s}"]
            medians = {}
            for side in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in sets[side]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians[side] = med
                judged = name != "setup_s"
                if judged and spread > bound:
                    ok = False
                line.append(f"{side}: median {med:.4g} [{q1:.4g}, {q3:.4g}] "
                            f"spread {spread:.3f}{'' if not judged else ' ok' if spread <= bound else ' WIDE'}")
            worse = medians["B"] / medians["A"] - 1.0
            if metric["better"] == "higher":
                worse = -worse
            agree = worse <= bound
            ok &= agree
            line.append(f"shift {worse:+.3f} (bound {bound}) {'agree' if agree else 'DISAGREE'}")
            print("  ".join(line))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
