"""Compare two source trees on the checked-load mix, in one process.

    PYTHONPATH=src python3 scripts/ab_inproc.py PARENT_SRC CHANGE_SRC
    PYTHONPATH=src python3 scripts/ab_inproc.py ../parent/src src --ops 60 --rounds 30

Each SRC is a directory holding an `xraycross` package (a checkout's
`src`).  The benchmark's own modules, which draw the inputs, import
`xraycross` by that name, so one copy must be importable as usual.  The
two packages are imported under different names, so both
live in this process, and every op of the mix runs on both, in an order
that alternates between op and round.  Timing both in one process cancels
the drift between processes that a machine's speed shows over minutes.

The ops are the benchmark's `checked-load` op on the benchmark's own
inputs: the mix of bench/workloads.py, the instances drawn in
bench/inputs.py's order for `--seed`, op k taking the k-th size of the
mix in turn.  An op is `cpn_xray` (generate), `canonical_json`,
`json.loads` of that text with `from_interchange` (timed together as
from_interchange), then `validate_poset`, `validate_consistency` and
`validate_darboux`.  The projection matrices are built before any
timing, once per tree.  One round runs every op on both trees; a first,
untimed round warms both up.

For the op and for each stage it prints the median, over rounds, of the
change/parent ratio of the round's summed seconds, with its quartiles.
A ratio below 1 means the change is faster.  It ends with a PASS line
when, on every op, both trees wrote the same JSON and found the same
violations.
"""

import argparse
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from inputs import instance_order, projection_rows  # noqa: E402
from workloads import CheckedLoad  # noqa: E402

STAGES = ("generate", "canonical_json", "from_interchange", "validate_poset", "validate_consistency", "validate_darboux")


def import_tree(src: Path, name: str):
    """The `xraycross` package under src, imported as `name`, with its
    generators and xray modules."""
    init = src / "xraycross" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"{src} holds no xraycross package")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.generators"), importlib.import_module(f"{name}.xray")


def run_op(generators, xray, n: int, pi, seconds: list[float]):
    """One checked-load op, adding each stage's seconds to seconds; returns
    (JSON text, violation strings)."""
    clock = time.perf_counter
    t0 = clock()
    x = generators.cpn_xray(n, pi)
    t1 = clock()
    text = xray.canonical_json(x)
    t2 = clock()
    y = xray.from_interchange(json.loads(text))
    t3 = clock()
    poset = xray.validate_poset(y)
    t4 = clock()
    consistency = xray.validate_consistency(y)
    t5 = clock()
    darboux = xray.validate_darboux(y)
    t6 = clock()
    for i, (a, b) in enumerate(zip((t0, t1, t2, t3, t4, t5), (t1, t2, t3, t4, t5, t6))):
        seconds[i] += b - a
    return text, [str(v) for v in poset + consistency + darboux]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="source directory of the parent's xraycross package")
    parser.add_argument("change", type=Path, help="source directory of the change's xraycross package")
    parser.add_argument("--ops", type=int, default=60, help="ops per round, cycling through the mix (default 60)")
    parser.add_argument("--rounds", type=int, default=30, help="timed rounds (default 30)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the instance order (default 1)")
    args = parser.parse_args(argv)
    if args.ops < 1 or args.rounds < 1:
        parser.error("--ops and --rounds must be at least 1")

    mix = CheckedLoad.mix
    drawn: dict = {}
    sizes = []
    for k in range(args.ops):
        d, n = mix[k % len(mix)]
        order = instance_order("checked-load", args.seed, d, n)
        j = drawn.get((d, n), 0)
        drawn[(d, n)] = j + 1
        sizes.append((d, n, order[j % len(order)]))
    trees = [import_tree(args.parent.resolve(), "xraycross_parent"), import_tree(args.change.resolve(), "xraycross_change")]
    ops = [[(n, gen.ProjectionMatrix(projection_rows(d, n, i))) for d, n, i in sizes] for gen, _ in trees]

    same = True
    ratios: list[list[float]] = [[] for _ in range(len(STAGES) + 1)]
    for r in range(args.rounds + 1):
        totals = [[0.0] * len(STAGES) for _ in trees]
        for k in range(args.ops):
            first = (r + k) % 2
            out = [None, None]
            for side in (first, 1 - first):
                generators, xray = trees[side]
                n, pi = ops[side][k]
                out[side] = run_op(generators, xray, n, pi, totals[side])
            same &= out[0] == out[1]
        if r == 0:
            continue  # warm-up
        parent, change = totals
        for i in range(len(STAGES)):
            ratios[i].append(change[i] / parent[i])
        ratios[-1].append(sum(change) / sum(parent))

    print(f"{args.ops} ops x {args.rounds} rounds, change/parent time ratio: median [q1, q3]")
    for name, values in zip(STAGES + ("op",), ratios):
        q1, q2, q3 = quartiles(values)
        print(f"{name:22s} {q2:.3f} [{q1:.3f}, {q3:.3f}]")
    print("ab_inproc: " + ("PASS" if same else "FAIL: the trees' outputs differ"))
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
