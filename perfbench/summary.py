#!/usr/bin/env python3
"""Median, quartiles and spread of saved benchmark runs.

    python3 perfbench/summary.py [RECORD.json ...]

Reads the records ``run.py`` keeps under ``.perfbench/results/``
(default: all of them) and prints, per workload and trace mode, each
metric's median, first and third quartile, sample count, and spread
(quartile distance as a share of the median).
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def main(argv=None):
    paths = [Path(p) for p in (argv if argv is not None else sys.argv[1:])]
    if not paths:
        paths = sorted(Path(".perfbench/results").glob("*-t[01]-*[0-9].json"))
    groups = defaultdict(lambda: defaultdict(list))
    units = {}
    for path in paths:
        record = json.loads(path.read_text())
        result = record.get("result")
        if not result:
            continue
        key = (record["workload"], record["trace"])
        for name, metric in result["metrics"].items():
            groups[key][name].append(metric["value"])
            units[name] = metric["unit"]
    for (workload, trace), metrics in sorted(groups.items()):
        print(f"{workload} (trace {trace})")
        for name, values in metrics.items():
            med = statistics.median(values)
            if len(values) > 1:
                q1, __, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:<40} {med:>14.6g} {units[name]:<6} "
                  f"q1={q1:<12.6g} q3={q3:<12.6g} n={len(values):<3} "
                  f"spread={spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
