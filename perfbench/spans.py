"""Calls, self time and total time per span name, from the span file of a traced run.

Times are calibrated like the run's own metrics.

    python3 perfbench/spans.py .perfbench/spans-cauchy-laws.gz --request "matrix:2[Z3]"

--request keeps only the items whose label contains the given text.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("path", type=Path)
    parser.add_argument("--request", help="keep items whose label contains this text")
    args = parser.parse_args(argv)
    tracer, scale = tracing.Tracer.read(args.path)
    requests = None
    if args.request is not None:
        requests = {r for r, label in enumerate(tracer.labels) if r and args.request in label}
    print(f"{len(tracer.labels) - 1 if requests is None else len(requests)} items, "
          f"{len(tracer.start)} spans")
    print(f"{'span':40} {'calls':>9} {'total_s':>10} {'self_s':>10} "
          f"{'mean_total_us':>14} {'mean_self_us':>13}")
    stats = tracing.self_times(tracer, requests)
    for name, (calls, self_ns, total_ns) in sorted(stats.items(), key=lambda kv: -kv[1][1]):
        if calls:
            total_s, self_s = total_ns * scale / 1e9, self_ns * scale / 1e9
            print(f"{name:40} {calls:9d} {total_s:10.4f} {self_s:10.4f} "
                  f"{total_s / calls * 1e6:14.2f} {self_s / calls * 1e6:13.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
