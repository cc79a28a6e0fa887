"""Run sets of benchmark runs, one fresh process each, and compare them.

    python3 bench/sweep.py --out runs --seeds 1-10
    python3 bench/sweep.py --out runs --tree base=../parent --tree change=.
    python3 bench/sweep.py --out runs --seeds 1-3 --trace 1 --workloads tables

Each --tree LABEL=PATH names a source checkout; the default is this
one.  Runs are sequential, so that they do not compete for the
processor, and interleaved: for every workload and seed, each tree runs
once, and the tree that runs first rotates from seed to seed.  A drift
of the machine's speed over minutes then falls on every tree alike, not
between them.  Each run's standard output is saved as
LABEL/<workload>-seed<N>-trace<T>.txt under --out, the input of
compare.py.

For untraced runs it then prints, per tree, workload and end-to-end
metric, the median and the spread (quartile distance over median) next
to the metric's bound in BENCHMARK.json, flagging a spread above a third
of the bound, and compares every pair of trees with compare.py.
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
from pathlib import Path

from compare import BENCHMARK, compare, grouped, load_runs, quartiles, spread

ROOT = BENCHMARK.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def tree(text: str) -> tuple[str, Path]:
    label, sep, path = text.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError(f"expected LABEL=PATH, got {text!r}")
    return label, Path(path).resolve()


def print_spreads(label: str, runs: list[dict], bounds: dict) -> None:
    for (workload, _), metrics in sorted(grouped(runs).items()):
        print(f"\n{label}: {workload}")
        for name, by_seed in sorted(metrics.items()):
            values = list(by_seed.values())
            q1, med, q3 = quartiles(values)
            s = spread(values)
            bound = bounds.get(name)
            flag = "" if bound is None or s < bound / 3 else "  above a third of the bound"
            print(f"  {name:<14} n={len(values):<3} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {s:6.1%}  bound {bound}{flag}")


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tree", type=tree, action="append", help="LABEL=PATH of a source checkout (repeatable)")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trees = args.tree or [("this", ROOT)]
    if len({label for label, _ in trees}) != len(trees):
        parser.error("tree labels must differ")

    failures = 0
    for workload in args.workloads.split(","):
        for j, seed in enumerate(args.seeds):
            for label, root in trees[j % len(trees):] + trees[: j % len(trees)]:
                cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
                out = args.out / label
                out.mkdir(parents=True, exist_ok=True)
                (out / f"{workload}-seed{seed}-trace{args.trace}.txt").write_text(proc.stdout, encoding="utf-8")
                result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
                ok = result is not None and result["correct"] and not result["failed"]
                failures += not ok
                status = "ok" if ok else f"FAILED (exit {proc.returncode}) {proc.stderr.strip()[-300:]}"
                print(f"{label} {workload} seed {seed}: {status}", flush=True)

    if args.trace == 0:
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        runs = {label: load_runs(args.out / label) for label, _ in trees}
        for label, _ in trees:
            print_spreads(label, runs[label], bounds)
        for (base, _), (change, _) in itertools.combinations(trees, 2):
            print(f"\n=== {base} (base) vs {change} (change)")
            compare(runs[base], runs[change])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
