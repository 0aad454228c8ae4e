"""Fail when engine throughput regressed against ``BENCH_engine.json``.

Re-runs the perf suite (the hot-path micros; whole runs are measured
by ``benchmarks/e2e``) and compares events/sec per benchmark against the
committed record at the repo root, which ``python -m repro bench
--repeat 5`` rewrites.  A benchmark fails when it is more
than ``REGRESSION_TOLERANCE`` (25 %) below the recorded value — generous
because events/sec on shared CI hosts swings easily by double-digit
percentages; the check is meant to catch order-of-magnitude mistakes
(an accidentally disabled cache, quadratic scan reintroduced), not 5 %
drifts.

Benchmarks present in the fresh results but absent from the baseline
(new suite entries whose record has not been regenerated yet) are
skipped with a notice — they cannot gate until a baseline exists.  On
failure, the per-benchmark deltas are repeated on stderr so CI logs
show *which* entries moved and by how much without scrolling back.

Exit codes: 0 ok, 1 regression, 2 missing/invalid record or bad args.
"""

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src"))

from repro.harness.perfbench import (  # noqa: E402
    BENCH_FILE,
    REGRESSION_TOLERANCE,
    SUITE,
    load_record,
    run_suite,
)

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--record", default=os.path.join(REPO_ROOT, BENCH_FILE),
        help="committed benchmark record to compare against")
    parser.add_argument("--repeat", type=int, default=2,
                        help="best-of-N fresh measurement (default 2)")
    parser.add_argument(
        "--tolerance", type=float, default=REGRESSION_TOLERANCE,
        help="allowed fractional regression (default %(default)s)")
    parser.add_argument("--quick", action="store_true",
                        help="shrunken problem sizes (smoke mode; rates "
                             "are not comparable to a full-size record — "
                             "combine with a quick-mode record or a wide "
                             "--tolerance)")
    parser.add_argument("--only", default=None,
                        help="comma-separated subset of benchmark names "
                             "to run and gate on")
    args = parser.parse_args(argv)

    only = None
    if args.only is not None:
        only = tuple(x.strip() for x in args.only.split(",") if x.strip())
        unknown = [n for n in only if n not in SUITE]
        if not only or unknown:
            print(f"error: --only {args.only!r} "
                  + (f"names unknown benchmarks {unknown}; " if unknown
                     else "names no benchmarks; ")
                  + f"choose from {sorted(SUITE)}", file=sys.stderr)
            return 2

    record = load_record(args.record)
    if not record or "results" not in record:
        print(f"error: no benchmark record at {args.record}", file=sys.stderr)
        return 2
    baseline = record["results"]

    fresh = run_suite(repeat=args.repeat, quick=args.quick, only=only,
                      out=sys.stdout)

    failed = []  # (name, base_rate, rate, ratio)
    for name, now in sorted(fresh.items()):
        base = baseline.get(name)
        base_rate = base.get("events_per_sec") if base else None
        if not base_rate:
            print(f"  {name:34s} skipped: no baseline in "
                  f"{os.path.basename(args.record)} (new benchmark? "
                  f"regenerate the record to gate it)")
            continue
        rate = now["events_per_sec"]
        ratio = rate / base_rate
        status = "ok"
        if ratio < 1.0 - args.tolerance:
            status = "REGRESSED"
            failed.append((name, base_rate, rate, ratio))
        print(f"  {name:34s} {base_rate:>12.0f} -> {rate:>12.0f} ev/s "
              f"({ratio:5.2f}x)  {status}")

    if failed:
        print(f"\nregression beyond {args.tolerance:.0%} tolerance vs "
              f"{os.path.basename(args.record)}:", file=sys.stderr)
        for name, base_rate, rate, ratio in failed:
            print(f"  {name}: {(1.0 - ratio):.1%} below baseline "
                  f"({base_rate:.0f} -> {rate:.0f} ev/s)", file=sys.stderr)
        return 1
    print("\nno regression beyond tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
