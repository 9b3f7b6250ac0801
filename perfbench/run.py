"""pcmcat benchmark: one workload, one seed, a closed loop from one thread.

    python3 perfbench/run.py --workload pcm-laws --seed 1 --seconds 30 --trace 0

One caller waits for each verdict and sends the next request at once.  The
run sets up (imports, inputs, warm-up), then repeats whole passes over the
workload's items for about --seconds seconds, then checks every outcome
against the expected answers.  Times are calibrated: each is scaled by how
fast a fixed pure-Python kernel ran around it (see `calibrated`).  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 the run adds one traced pass, reports the per-layer ones and
writes its spans to .perfbench/spans-<workload>.gz.  See perfbench/README.md.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7  # this process plus six fresh ones
KERNEL_REFERENCE_S = 1e-3


def kernel() -> None:
    """Fixed pure-Python work, much like pcmcat's: tuples, dicts and Fractions."""
    table = {}
    total = Fraction(0)
    for i in range(400):
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i
        total += Fraction(i % 7, 1 + i % 3)


def kernel_s() -> float:
    """Seconds one kernel call takes right now (mean of two)."""
    started = time.perf_counter()
    kernel()
    kernel()
    return (time.perf_counter() - started) / 2


def calibrated(seconds: float, kernel_seconds: float) -> float:
    """A time measured while one kernel call took kernel_seconds, scaled to the
    reference speed at which it takes KERNEL_REFERENCE_S.

    The benchmark shares its processor with other work, which slows pure-Python
    code by up to a factor of two for minutes at a time.  The kernel slows by
    the same factor, so the ratio cancels it; a change to pcmcat's own speed
    is not cancelled, since the kernel does not run pcmcat code.
    """
    return seconds * KERNEL_REFERENCE_S / kernel_seconds


@dataclass
class Pass:
    latencies_s: list  # calibrated, one per item
    raw_latencies_s: list
    raw_wall_s: float  # uncalibrated, kernel timing included
    outcomes: list
    checked: list = None  # one workloads.Checked per item, once checked

    @property
    def wall_s(self) -> float:
        """Calibrated time of the pass: its items' latencies added up."""
        return sum(self.latencies_s)


def run_pass(items, call) -> Pass:
    """Send every item in order, each as soon as the last verdict is back.

    The kernel is timed before each item and after the last one; an item's
    latency is calibrated by the median of the four kernel times nearest it,
    which a single slow kernel sample does not move.
    """
    gc.collect()
    latencies, kernels, outcomes = [], [], []
    started = time.perf_counter()
    for item in items:
        kernels.append(kernel_s())
        sent = time.perf_counter()
        try:
            outcome = call(item)
        except Exception as exc:  # a raising item is a failed item; the loop goes on
            outcome = exc
        latencies.append(time.perf_counter() - sent)
        outcomes.append(outcome)
    kernels.append(kernel_s())
    raw_wall_s = time.perf_counter() - started
    scaled = [calibrated(latency, statistics.median(kernels[max(0, i - 1):i + 3]))
              for i, latency in enumerate(latencies)]
    return Pass(scaled, latencies, raw_wall_s, outcomes)


def check_pass(items, done: Pass, workloads) -> Pass:
    """Check every outcome of the pass against the expected answers, untimed."""
    done.checked = []
    for item, outcome in zip(items, done.outcomes):
        if isinstance(outcome, Exception):
            result = workloads.Checked(0, 0, f"raised {type(outcome).__name__}: {outcome}")
        else:
            try:
                result = item.check(outcome)
            except Exception as exc:  # a malformed outcome fails its item
                result = workloads.Checked(0, 0, f"check raised {type(exc).__name__}: {exc}")
        if result.error is not None:
            result.error = f"{item.label}: {result.error}"
        done.checked.append(result)
    done.outcomes = None  # outcomes can hold whole categories; keep only the verdicts
    return done


def measure(workload, workloads, seconds: float, items) -> list:
    """Whole passes until about `seconds` have gone by; at least two.

    `items` are the first pass's, made during set-up; each later pass gets
    its own from the workload.
    """
    passes = []
    started = time.perf_counter()
    while True:
        if passes:
            items = workload.items(len(passes))
        passes.append(check_pass(items, run_pass(items, lambda item: item.run()), workloads))
        mean_pass = statistics.mean(p.raw_wall_s for p in passes)
        if len(passes) >= 2 and time.perf_counter() - started + 0.5 * mean_pass >= seconds:
            return passes


def setup_samples(args, own_setup_s: float) -> list:
    """This process's set-up time plus that of fresh processes doing only set-up."""
    samples = [own_setup_s]
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end_metrics(passes, setup_s: float) -> dict:
    latencies = [x for p in passes for x in p.latencies_s]
    return {
        "pass_s": (statistics.median(p.wall_s for p in passes), "s"),
        "item_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "item_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        # exact per pass; the smallest pass counts, since they must not fall
        "checks_run": (min(sum(c.checks for c in p.checked) for p in passes), "count"),
        "work_units": (min(sum(c.work for c in p.checked) for p in passes), "count"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time in seconds, and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pcmcat" / "__init__.py").is_file():
        print(f"perfbench: no pcmcat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pcmcat
    import tracing
    import workloads

    if Path(pcmcat.__file__).resolve().parent != SRC / "pcmcat":
        print(f"perfbench: imported pcmcat from {pcmcat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    first_items = workload.items(0)
    workload.warm_up()
    own_setup_s = calibrated(time.perf_counter() - _STARTED,
                             statistics.median(kernel_s() for _ in range(5)))
    if args.setup_only:
        print(repr(own_setup_s))
        return 0

    setup = [] if args.trace else setup_samples(args, own_setup_s)
    passes = measure(workload, workloads, args.seconds, first_items)
    if args.trace:
        tracer = tracing.Tracer()
        items = workload.items(len(passes))
        with tracing.installed(tracer):
            traced = run_pass(items, lambda item: tracer.item(item.label, item.run))
        passes_traced = [check_pass(items, traced, workloads)]
        overhead_s = traced.wall_s - statistics.median(p.wall_s for p in passes)
        # span times are calibrated like the pass they belong to
        scale = traced.wall_s / sum(traced.raw_latencies_s)
        metrics = tracing.per_layer_metrics(tracer, overhead_s, scale)
        tracer.write(ROOT / ".perfbench" / f"spans-{args.workload}.gz", scale)
    else:
        passes_traced = []
        metrics = end_to_end_metrics(passes, statistics.median(setup))

    checked = [c for p in passes + passes_traced for c in p.checked]
    errors = [c.error for c in checked if c.error is not None]
    for error in errors[:10]:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    items_per_pass = len(passes[0].checked)
    print(f"{args.workload} seed={args.seed}: {len(passes)} untraced and "
          f"{len(passes_traced)} traced passes of {items_per_pass} items; "
          f"error_rate = {len(errors)}/{len(checked)} = {len(errors) / len(checked):.6g}")
    print("  uncalibrated pass wall times: "
          + ", ".join(f"{p.raw_wall_s:.3f} s" for p in passes + passes_traced))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(checked),
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
