#!/usr/bin/env python3
"""Gate on the sparse-first scale bench artifact.

Reads a ``BENCH_scale.json`` produced by ``bench scale`` and fails
(exit 1) unless the pipeline demonstrably scales sub-quadratically in
time and avoids dense n x n memory:

* **Wall-clock**: a least-squares log-log fit of the map median against
  n across all sizes must have slope at most ``--max-slope`` (default
  1.85; a dense pipeline is >= 2, the sparse pipeline's nnz grows ~
  linearly in n for block-sparse networks so its slope sits near 1).
* **Memory**: for every size at or above ``--dense-min-n``, the peak RSS
  of the map run must stay below ``--dense-fraction`` of the ``8n^2``
  bytes a single dense f64 matrix would need (default 0.25 -- one dense
  Laplacian anywhere in the pipeline bursts through this immediately:
  at 20k neurons the cap is 800 MiB vs a 3.2 GiB dense matrix), and
  below an absolute ceiling of ``--max-peak-mib``.

Memory gates are skipped (with a warning) when the artifact reports
``peak_rss_supported: false`` -- a non-Linux host without /proc.

Usage:
    check_bench_scale.py [path/to/BENCH_scale.json] [--max-slope 1.85]
"""

import argparse
import json
import math
import sys


def fit_loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    mx = sum(lx) / n
    my = sum(ly) / n
    denom = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / denom


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "artifact",
        nargs="?",
        default="results/BENCH_scale.json",
        help="bench artifact to check (default: results/BENCH_scale.json)",
    )
    parser.add_argument(
        "--max-slope",
        type=float,
        default=1.85,
        help="maximum log-log slope of map time vs n (quadratic is 2.0)",
    )
    parser.add_argument(
        "--dense-fraction",
        type=float,
        default=0.25,
        help="peak RSS bound as a fraction of the dense 8n^2 footprint",
    )
    parser.add_argument(
        "--dense-min-n",
        type=int,
        default=10_000,
        help="apply the dense-fraction gate only at or above this n",
    )
    parser.add_argument(
        "--max-peak-mib",
        type=float,
        default=1536.0,
        help="absolute peak-RSS ceiling for any size, in MiB",
    )
    args = parser.parse_args()

    with open(args.artifact, encoding="utf-8") as fh:
        data = json.load(fh)

    sizes = data.get("sizes", [])
    if len(sizes) < 2:
        print(f"error: {args.artifact} has fewer than 2 'sizes' entries", file=sys.stderr)
        return 1
    sizes = sorted(sizes, key=lambda s: s["n"])

    mem_supported = data.get("peak_rss_supported", True)
    print(
        f"{args.artifact}: samples={data.get('samples', '?')} "
        f"hardware_threads={data.get('hardware_threads', '?')} "
        f"peak_rss_supported={mem_supported}"
    )
    header = (
        f"{'n':>7} {'nnz':>10} {'map_ms':>10} {'xbars':>6} {'outl_%':>6} {'gen_ms':>8} "
        f"{'peak_MiB':>9} {'dense_MiB':>10} {'peak/dense':>10}"
    )
    print(header)
    print("-" * len(header))

    failures = []
    for s in sizes:
        n = s["n"]
        peak = s["peak_rss_bytes"]
        dense = s["dense_bytes"]
        frac = peak / dense if dense else float("inf")
        # The mapping's quality next to its time: crossbars, and outliers
        # as a share of the connections.
        xbars = s.get("crossbars", "?")
        outl = f"{100 * s['outliers'] / s['nnz']:.1f}" if "outliers" in s and s["nnz"] else "?"
        print(
            f"{n:>7} {s['nnz']:>10} {s['map_median_ns'] / 1e6:>10.1f} "
            f"{xbars:>6} {outl:>6} "
            f"{s['gen_median_ns'] / 1e6:>8.1f} {peak / 2**20:>9.1f} "
            f"{dense / 2**20:>10.1f} {frac:>10.3f}"
        )
        if mem_supported:
            if peak / 2**20 > args.max_peak_mib:
                failures.append(
                    f"n={n}: peak RSS {peak / 2**20:.1f} MiB exceeds the "
                    f"{args.max_peak_mib:.0f} MiB ceiling"
                )
            if n >= args.dense_min_n and frac > args.dense_fraction:
                failures.append(
                    f"n={n}: peak RSS is {frac:.3f} of the dense 8n^2 footprint "
                    f"(limit {args.dense_fraction}) -- an O(n^2) allocation is back"
                )

    slope = fit_loglog_slope(
        [s["n"] for s in sizes], [max(s["map_median_ns"], 1) for s in sizes]
    )
    print(f"\nmap wall-clock log-log slope: {slope:.3f} (limit {args.max_slope})")
    if slope > args.max_slope:
        failures.append(
            f"map time scales as n^{slope:.2f} (limit n^{args.max_slope}) -- "
            "the pipeline has gone quadratic"
        )

    if not mem_supported:
        print("warning: peak RSS unsupported on this host; memory gates skipped")

    if failures:
        print(file=sys.stderr)
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1

    print(f"OK: {len(sizes)} sizes, sub-quadratic time, O(nnz)-bounded memory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
