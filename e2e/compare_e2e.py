#!/usr/bin/env python3
"""Compare output sets of the e2e benchmark against the bounds in BENCHMARK.json.

An output set is a directory of files, each holding the standard output of
one `e2e` run (its `# e2e workload=... seed=... trace=...` header and its
final JSON line). The first set is the baseline (the parent commit); every
later set is compared with it.

    python3 e2e/compare_e2e.py parent_runs/ change_runs/

For every (workload, end-to-end metric) the script prints each set's median,
quartiles and run count, and the change of each later set's median from the
baseline's. It marks:

  REGRESSION  the median is worse than the baseline's by more than the bound;
  unresolved  within the bound, but the baseline's own spread (interquartile
              range over median) exceeds the bound, and not every run of the
              set beats every run of the baseline;
  WIN         given at least 10 pairs (runs of both sets with the same
              workload and seed), the set wins at least 9 in 10 pairs (ties
              count for neither) and its median beats the baseline's by more
              than the baseline's interquartile range.

Per-layer metrics (runs with --trace 1) are listed with their medians, and
marked `same` when every run reads exactly the value of the run it pairs
with in the next set, `differs` otherwise. Deterministic counts and design
quality must read `same` between two sets of the same code.

Exit status: 1 on any REGRESSION or when a set fails more operations than
the baseline, 2 on unusable input, 0 otherwise.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load_run(path):
    """Returns (workload, seed, trace, result) of one saved run, with result
    None when the run printed no result line; None for a file that is not
    the output of a run."""
    lines = [line for line in path.read_text(errors="replace").splitlines() if line.strip()]
    header = next((line for line in lines if line.startswith("# e2e ")), None)
    if header is None:
        return None
    fields = dict(part.split("=", 1) for part in header[len("# e2e "):].split() if "=" in part)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    return fields.get("workload"), fields.get("seed"), fields.get("trace") == "1", result


def load_set(directory):
    """{(workload, trace): {(seed, n): result}} for every run saved in
    `directory`, where n counts earlier runs of the same seed: the n-th run
    of a seed in one set pairs with the n-th run of that seed in another."""
    runs = defaultdict(dict)
    for path in sorted(Path(directory).iterdir()):
        run = load_run(path) if path.is_file() else None
        if run is None:
            continue
        workload, seed, trace, result = run
        if result is None:
            print(f"skipping {path}: the run printed no result", file=sys.stderr)
            continue
        same = runs[(workload, trace)]
        same[(seed, sum(s == seed for s, _ in same))] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def describe(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def compare_metric(base, other, direction, bound):
    """Verdict of `other` against `base`: a dict of {(seed, n): value} each."""
    base_values, other_values = list(base.values()), list(other.values())
    b1, b2, b3 = quartiles(base_values)
    _, o2, _ = quartiles(other_values)
    change = (o2 - b2) / b2 if b2 else 0.0
    worse = change if direction == "lower" else -change
    pairs = [(base[s], other[s]) for s in base if s in other]
    wins = sum(better(o, b, direction) for b, o in pairs)
    verdict = "ok"
    if worse > bound:
        verdict = "REGRESSION"
    elif b2 and (b3 - b1) / abs(b2) > bound and not all(
        better(o, b, direction) for o in other_values for b in base_values
    ):
        verdict = "unresolved"
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and better(o2, b2, direction) and abs(o2 - b2) > b3 - b1:
        verdict = "WIN"
    return change, f"{wins}/{len(pairs)}", verdict


def main(argv):
    args = argv[1:]
    if len(args) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    if not all(Path(directory).is_dir() for directory in args):
        print("every output set must be a directory", file=sys.stderr)
        return 2
    sets = [load_set(directory) for directory in args]
    if not all(sets):
        print("an output set holds no e2e runs", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    status = 0

    print(f"{'workload':<13} {'metric':<18} " + "  ".join(f"set{i}" for i in range(len(sets))))
    for workload in workloads:
        timed = [s.get((workload, False), {}) for s in sets]
        if not timed[0]:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            columns = [{key: r["metrics"][name]["value"] for key, r in runs.items()} for runs in timed]
            row = f"{workload:<13} {name:<18} {describe(list(columns[0].values()))}"
            for other in columns[1:]:
                if not other:
                    continue
                change, wins, verdict = compare_metric(columns[0], other, metric["better"], metric["bound"])
                row += f"  | {describe(list(other.values()))} {change:+.1%} wins {wins} {verdict}"
                status = 1 if verdict == "REGRESSION" else status
            print(row)
        failed = [sum(r["failed"] for r in runs.values()) for runs in timed]
        attempted = [sum(r["attempted"] for r in runs.values()) for runs in timed]
        print(f"{workload:<13} {'failed/attempted':<18} " + "  ".join(f"{f}/{a}" for f, a in zip(failed, attempted)))
        if any(f > failed[0] for f in failed[1:]):
            status = 1

    print()
    for workload in workloads:
        traced = [s.get((workload, True), {}) for s in sets]
        if not any(traced):
            continue
        for metric in spec["per_layer"]:
            name = metric["name"]
            columns = [{key: r["metrics"][name]["value"] for key, r in runs.items()} for runs in traced if runs]
            paired = [(column[key], other[key]) for column, other in zip(columns, columns[1:]) for key in column if key in other]
            same = ("same" if all(a == b for a, b in paired) else "differs") if paired else ""
            medians = "  ".join(f"{statistics.median(column.values()):.6g}" for column in columns)
            print(f"{workload:<13} {name:<30} {medians}  {same}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
