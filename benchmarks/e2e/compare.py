#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results against their bounds.

    python3 benchmarks/e2e/compare.py --base A1.json A2.json A3.json \\
        --new B1.json B2.json B3.json

Each file is a result written by ``bench_e2e.py --out``.  For every
(workload, metric) pair whose metric has a bound in ``BENCHMARK.json`` it
prints each set's median and quartiles and one verdict:

* ``unresolved`` -- either set's spread (quartile distance over median) is
  wider than the bound, and not every new run beats every base run;
* ``regressed`` -- the new median is worse than the base median by more
  than the bound, a share of the base median;
* ``agree`` -- otherwise.

Results whose environment records differ in calibrated field-backend kinds
are refused: that calibration is a per-process timing decision.  Exit
status: 0 when nothing regressed, 1 when something did, 2 when refused.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class EnvironmentMismatch(Exception):
    """The two sets ran under different field-backend calibrations."""


def load_bounds(path=BENCHMARK_JSON):
    """End-to-end metric name -> (unit, better, bound)."""
    with open(path) as fh:
        spec = json.load(fh)
    return {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    }


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base, new, better, bound):
    """``agree``, ``regressed`` or ``unresolved`` for one metric."""
    sign = 1 if better == "lower" else -1
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    spread = max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed)
    if spread > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "agree"
        return "unresolved"
    return "regressed" if sign * (nmed - bmed) / bmed > bound else "agree"


def _by_workload(results):
    grouped = {}
    for result in results:
        env = result["environment"]
        if env["trace"]:
            continue
        grouped.setdefault(env["workload"], []).append(result)
    return grouped


def compare(base_results, new_results, bounds):
    """Rows of (workload, metric, unit, base values, new values, verdict)."""
    backends = {
        json.dumps(r["environment"]["field_backends"], sort_keys=True)
        for r in base_results + new_results
    }
    if len(backends) > 1:
        raise EnvironmentMismatch(
            "field-backend calibration differs between runs: %s"
            % " vs ".join(sorted(backends))
        )
    base, new = _by_workload(base_results), _by_workload(new_results)
    rows = []
    for workload in sorted(set(base) & set(new)):
        for name, (unit, better, bound) in bounds.items():
            a = [r["metrics"][name]["value"] for r in base[workload]]
            b = [r["metrics"][name]["value"] for r in new[workload]]
            rows.append((workload, name, unit, a, b, verdict(a, b, better, bound)))
    return rows


def _load(paths):
    results = []
    for path in paths:
        with open(path) as fh:
            results.append(json.load(fh))
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    try:
        rows = compare(_load(args.base), _load(args.new), load_bounds())
    except EnvironmentMismatch as exc:
        print("refused: %s" % exc)
        return 2
    print("%-13s %-17s %-36s %-36s %s"
          % ("workload", "metric", "base median [q1, q3]",
             "new median [q1, q3]", "verdict"))
    for workload, name, unit, a, b, label in rows:
        cells = []
        for values in (a, b):
            q1, med, q3 = quartiles(values)
            cells.append("%.4g [%.4g, %.4g] %s" % (med, q1, q3, unit))
        print("%-13s %-17s %-36s %-36s %s"
              % (workload, name, cells[0], cells[1], label))
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
