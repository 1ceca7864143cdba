#!/usr/bin/env python3
"""Compare two sets of benchmark records.

    python3 bench/compare.py BASE NEW

BASE and NEW are record files or directories of them (as written by
``bench/run.py`` to ``.bench_out/records/``). For each workload and metric it
prints the median of each side, the change of NEW against BASE, and BASE's
interquartile range as a share of its median. Records made on different
kernel backends are never compared: the command exits with status 2.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path) -> list[dict]:
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def backends(records) -> set:
    return {r["label"]["backend"] for r in records}


def collect(records) -> dict:
    """(workload, metric) -> list of values."""
    out = defaultdict(list)
    for r in records:
        for name, m in r["metrics"].items():
            out[(r["workload"], name)].append(m["value"])
    return out


def spread(values) -> float:
    if len(values) < 2:
        return float("nan")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("error: no records found", file=sys.stderr)
        return 2
    kinds = backends(base) | backends(new)
    if len(kinds) != 1:
        print(f"error: records come from different kernel backends {sorted(kinds)}; "
              "compare runs of one backend only", file=sys.stderr)
        return 2
    b, n = collect(base), collect(new)
    print(f"backend {kinds.pop()}; {len(base)} base and {len(new)} new records")
    print(f"{'workload':<10} {'metric':<38} {'base':>12} {'new':>12} {'change':>8} "
          f"{'base IQR':>8}")
    for key in sorted(b.keys() & n.keys()):
        mb, mn = statistics.median(b[key]), statistics.median(n[key])
        change = f"{(mn / mb - 1.0) * 100:+.1f}%" if mb else "n/a"
        print(f"{key[0]:<10} {key[1]:<38} {mb:>12.6g} {mn:>12.6g} {change:>8} "
              f"{spread(b[key]) * 100:>7.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
