#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit against this checkout, as BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --parent <ref> --pr <n> --seed <first seed> \\
        --workloads pcm-laws,cauchy-laws,index-scale \\
        --claim index-scale:pass_s --change "what the change does"

The parent is exported with ``git archive`` into a temporary directory; the
change is the working tree of this checkout.  Both sides must hold the same
``perfbench/`` and ``BENCHMARK.json``, with no untracked file under either on
the change side, or the script exits 2 before running anything.

Each workload first gets one traced run per side (``--seconds 1 --trace 1``)
for the per-layer metrics, then ten pairs of untraced runs of
``perfbench/run.py``, each as long as ``BENCHMARK.json``'s ``run_seconds``.
A pair runs both sides with the same seed, the parent first in odd-numbered
pairs and the change first in even-numbered ones.  Workload w (counting from
0) takes the pair seeds seed + 10*w onwards; the traced runs take the seeds
after all of those, one per workload.

Each row of ``end_to_end`` gives a metric's median and quartiles on both
sides (``statistics.quantiles(n=4, method='inclusive')``), the pairs the
change won and lost (ties count for neither) and the relative change of the
median.  Each run's JSON line is echoed to stderr as it arrives.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ("checks_run", "work_units")  # exact counts, reported as the values seen
TRACED_SECONDS = 1
PAIRS = 10  # pairs per workload
BENCH_PATHS = ("perfbench", "BENCHMARK.json")


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(statistics.median(runs), 6), "q1": round(q1, 6),
            "q3": round(q3, 6), "runs": [round(x, 6) for x in runs]}


def wins_and_losses(parent: list[float], change: list[float], better: str) -> tuple[int, int]:
    """Pairs where the change reads better, and where it reads worse; ties count for neither."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return wins, losses


def median_change(parent: list[float], change: list[float]) -> float:
    before = statistics.median(parent)
    return round((statistics.median(change) - before) / before, 4)


def values(results: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in results]


def end_to_end_row(workload: str, spec: dict, seeds: list[int], seconds: float,
                   parent: list[dict], change: list[dict]) -> dict:
    """One metric of one workload over the pairs; ``parent``/``change`` hold run.py's
    JSON results in pair order."""
    before, after = values(parent, spec["name"]), values(change, spec["name"])
    wins, losses = wins_and_losses(before, after, spec["better"])
    row = {"workload": workload, "metric": spec["name"], "unit": spec["unit"],
           "better": spec["better"], "bound": spec["bound"],
           "parent": summary(before), "change": summary(after), "pairs": len(seeds),
           "change_wins": wins, "change_losses": losses,
           "median_change": median_change(before, after)}
    sides = {"parent": parent, "change": change}
    for count in COUNTS:
        row[count] = {side: sorted(set(values(results, count))) for side, results in sides.items()}
    row["failed_over_attempted"] = {
        side: [sum(r["failed"] for r in results), sum(r["attempted"] for r in results)]
        for side, results in sides.items()}
    row["correct"] = {side: all(r["correct"] for r in results) for side, results in sides.items()}
    row["seeds"] = list(seeds)
    row["seconds"] = seconds
    return row


def seeds(first: int, workloads: list[str]) -> tuple[dict, dict]:
    """Each workload's PAIRS pair seeds, and its one traced seed after all of those."""
    pair_seeds = {w: [first + k * PAIRS + i for i in range(PAIRS)]
                  for k, w in enumerate(workloads)}
    traced_seeds = {w: first + len(workloads) * PAIRS + k for k, w in enumerate(workloads)}
    return pair_seeds, traced_seeds


def same_bench(parent: str, root: Path = ROOT) -> bool:
    """Whether the working tree holds the parent's benchmark files and no others."""
    differs = subprocess.run(["git", "diff", "--quiet", parent, "--", *BENCH_PATHS], cwd=root)
    untracked = subprocess.run(["git", "ls-files", "--others", "--exclude-standard", "--",
                                *BENCH_PATHS], cwd=root, capture_output=True, text=True,
                               check=True)
    return differs.returncode == 0 and not untracked.stdout


def per_layer_rows(workload: str, specs: list[dict], parent: dict, change: dict) -> list[dict]:
    return [{"workload": workload, "metric": spec["name"], "unit": spec["unit"],
             "parent": [parent["metrics"][spec["name"]]["value"]],
             "change": [change["metrics"][spec["name"]]["value"]]}
            for spec in specs if spec["name"] in parent["metrics"]]


def run(side: str, checkout: Path, workload: str, seed: int, seconds: float,
        trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(command[1:])} in {checkout} exited "
                         f"{done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps({"side": side, "workload": workload, "seed": seed, "trace": trace,
                      **result}), file=sys.stderr, flush=True)
    return result


def export(ref: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--seed", type=int, required=True, help="first seed")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims a gain on")
    parser.add_argument("--change", required=True, help="what the change does")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = args.workloads.split(",")
    if not same_bench(args.parent):
        print(f"bench_pairs: perfbench/ or BENCHMARK.json differs from {args.parent}, "
              "or holds an untracked file", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    timed = [spec for spec in bench["end_to_end"] if spec["name"] not in COUNTS]
    pair_seeds, traced_seeds = seeds(args.seed, workloads)
    rows, layers = [], []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp)
        export(args.parent, parent)
        checkouts = [("parent", parent), ("change", ROOT)]
        for w in workloads:
            traced = {side: run(side, checkout, w, traced_seeds[w], TRACED_SECONDS, 1)
                      for side, checkout in checkouts}
            layers += per_layer_rows(w, bench["per_layer"], traced["parent"], traced["change"])
            results = {"parent": [], "change": []}
            for i, seed in enumerate(pair_seeds[w]):
                for side, checkout in checkouts if i % 2 == 0 else checkouts[::-1]:
                    results[side].append(run(side, checkout, w, seed, seconds, 0))
            rows += [end_to_end_row(w, spec, pair_seeds[w], seconds,
                                    results["parent"], results["change"]) for spec in timed]
    seed_text = ", ".join(f"{s[0]}-{s[-1]} ({w})" for w, s in pair_seeds.items())
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    claim = dict(zip(("workload", "metric"), args.claim.split(":", 1))) if args.claim else None
    report = {
        "pr": args.pr,
        "change": args.change,
        "claimed": claim,
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "method": f"{PAIRS} pairs per workload, parent commit and change run one after "
                  "the other with the same seed, parent first on odd pairs and change first "
                  f"on even pairs; seeds {seed_text}; quartiles by statistics.quantiles(n=4, "
                  "method='inclusive'); a win is a pair where the change reads better, ties "
                  "count for neither",
        "machine": f"Python {platform.python_version()}, {cores}-core {platform.machine()} "
                   f"{platform.system()}; calibrated times as perfbench defines them",
        "end_to_end": rows,
        "per_layer_traced": {
            "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                       f"--seconds {TRACED_SECONDS} --trace 1",
            "seeds": list(traced_seeds.values()),
            "note": "one run per side and workload ("
                    + ", ".join(f"seed {s} {w}" for w, s in traced_seeds.items())
                    + "), the same seed on both sides, run before the pairs",
            "entries": layers,
        },
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    for row in rows:
        print(f"{row['workload']:12} {row['metric']:12} {row['parent']['median']:>12g} -> "
              f"{row['change']['median']:<12g} {row['median_change']:+.2%}  "
              f"wins {row['change_wins']}/{row['pairs']}")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
