"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the saved standard output of runs, one file per
run, as sweep.py writes them; sweep.py also calls compare() itself.
For every workload and end-to-end metric it prints each side's median
and quartiles, the pairs the change won (runs paired by seed; ties
count for neither side), and the verdict against the bound in
BENCHMARK.json: "worse" when the change's median is worse than the
base's by more than the bound, "unresolved" when the base's own spread
(quartile distance over median) exceeds the bound, else "within".
Traced runs are compared too, with no bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory: Path) -> list[dict]:
    """The record of every run whose output file ends in a result line."""
    runs = []
    for path in sorted(directory.glob("*.txt")):
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        if len(lines) < 2:
            continue
        try:
            record = json.loads(lines[-2])["record"]
            result = json.loads(lines[-1])
        except (json.JSONDecodeError, KeyError):
            print(f"skipping {path}: no result", file=sys.stderr)
            continue
        record["correct"] = result["correct"]
        runs.append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def grouped(runs: list[dict]) -> dict:
    """(workload, trace) -> metric -> {seed: value}."""
    out: dict = {}
    for run in runs:
        prov = run["provenance"]
        metrics = out.setdefault((prov["workload"], prov["trace"]), {})
        for name, m in run["metrics"].items():
            metrics.setdefault(name, {})[prov["seed"]] = m["value"]
    return out


def metric_specs() -> dict:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def compare(base: list[dict], change: list[dict]) -> int:
    """Print the comparison of two sets of runs; return how many metrics got worse beyond their bound."""
    specs = metric_specs()
    for side, runs in (("base", base), ("change", change)):
        bad = [r["provenance"]["seed"] for r in runs if not r["correct"] or r["failed"]]
        if bad:
            print(f"{side}: runs with failed ops or wrong output, seeds {bad}")
    a, b = grouped(base), grouped(change)
    worse = 0
    for key in sorted(set(a) & set(b)):
        workload, trace = key
        print(f"\n{workload} (trace {trace})")
        print(f"  {'metric':<44} {'base q1/med/q3':>32} {'change q1/med/q3':>32} {'won':>7}  verdict")
        for name in sorted(set(a[key]) & set(b[key])):
            spec = specs.get(name, {"better": "lower"})
            lower = spec["better"] == "lower"
            va, vb = a[key][name], b[key][name]
            seeds = sorted(set(va) & set(vb))
            won = sum(1 for s in seeds if ((vb[s] < va[s]) if lower else (vb[s] > va[s])))
            qa, qb = quartiles(list(va.values())), quartiles(list(vb.values()))
            verdict = ""
            if "bound" in spec and trace == 0:
                change_share = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
                worse_share = change_share if lower else -change_share
                if worse_share > spec["bound"]:
                    verdict = f"worse by {worse_share:.1%} > {spec['bound']:.0%}"
                    worse += 1
                elif spread(list(va.values())) > spec["bound"]:
                    verdict = "unresolved: base spread exceeds bound"
                else:
                    verdict = f"within {spec['bound']:.0%} ({change_share:+.1%})"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"  {name:<44} {fmt.format(*qa):>32} {fmt.format(*qb):>32} {won:>3}/{len(seeds):<3}  {verdict}")
    return worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    return 1 if compare(load_runs(args.base), load_runs(args.change)) else 0


if __name__ == "__main__":
    sys.exit(main())
