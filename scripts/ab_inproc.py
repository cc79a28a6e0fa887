"""Compare two source trees on a benchmark workload, in one process.

    python3 scripts/ab_inproc.py PARENT_SRC CHANGE_SRC --workload tables --ops 60 --rounds 10
    python3 scripts/ab_inproc.py ../parent/src src --workload query --ops 20 --rounds 15

Each SRC is a directory holding an `xraycross` package (a checkout's
`src`).  Each tree imports the benchmark's own `bench/inputs.py` and
`bench/workloads.py` for itself, while `sys.modules["xraycross"]` and
its submodules point at that tree; the binding is restored afterwards,
and made again around all that runs for the tree, because `inputs`
imports `xraycross` lazily.  Timing both trees in one process cancels
the drift between processes that a machine's speed shows over minutes.

Nothing here defines an op.  Set-up is the workload's `setup_batch`,
run as often as bench/run.py runs it before timing, and more until op
--ops - 1 is ready; then all it holds is collected and frozen
(`gc.freeze`), so that no collection in a timed round walks it.  Op k
is the workload's `op(k)`, on both trees in an order that alternates
between op and round; each output is checked by that tree's
`check(k, out)` right after its op and dropped before the other tree's
op runs.  A first, untimed round warms both trees up.

It prints the median, over rounds, of the change/parent ratio of the
round's summed op seconds, with its quartiles (below 1: the change is
faster), and PASS when both trees' checks find no error on every op and
give equal digests.  Otherwise it stops at the first fault, an op that
raises included, with a FAIL line naming the tree and the op.

A/A runs, this tree against a byte-identical copy of its `src` on a
2-CPU VM, the tree given first, then the copy (query twice):

    checked-load --ops 60 --rounds 10   1.003 [0.998, 1.008]   0.999 [0.996, 1.013]
    tables       --ops 60 --rounds 10   0.999 [0.986, 1.000]   1.000 [0.995, 1.002]
    query        --ops 20 --rounds 15   0.992 [0.989, 1.013]   0.985 [0.958, 1.017]
                                        0.979 [0.974, 0.986]   0.988 [0.977, 0.999]

So `query` favours the tree given second by 1-2%.  Cancel such a bias
with both orders: r_AB as above, and r_BA with CHANGE_SRC first (it
reads parent/change); sqrt(r_AB / r_BA) is the ratio without it.
"""

import argparse
import gc
import importlib
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("checked-load", "query", "tables")
BOUND = ("xraycross", "inputs", "workloads")


class Fault(Exception):
    """An op that raised, or whose output failed its check."""


class Tree:
    """One source tree and its own import of the benchmark's modules."""

    def __init__(self, name: str, src: Path):
        if not (src / "xraycross" / "__init__.py").is_file():
            raise SystemExit(f"{src} holds no xraycross package")
        self.name = name
        self.src = str(src)
        self.modules: dict = {}

    @contextmanager
    def bound(self):
        """sys.modules and sys.path pointing at this tree, restored on exit."""
        saved = {m: sys.modules.pop(m) for m in [m for m in sys.modules if m.split(".")[0] in BOUND]}
        sys.modules.update(self.modules)
        sys.path[:0] = [self.src, str(ROOT / "bench")]
        try:
            yield
        finally:
            del sys.path[:2]
            self.modules = {m: sys.modules.pop(m) for m in [m for m in sys.modules if m.split(".")[0] in BOUND]}
            sys.modules.update(saved)

    def set_up(self, args, workdir: Path) -> None:
        with self.bound():
            inputs, workloads = importlib.import_module("inputs"), importlib.import_module("workloads")
            self.wl = workloads.WORKLOADS[args.workload](args.seed, workdir, inputs.load_reference())
            made = 0
            while made < self.wl.setup_batches or not self.wl.ready(args.ops - 1):
                for _ in self.wl.setup_batch():
                    pass
                made += 1

    def run(self, k: int) -> tuple[float, str]:
        """Op k's seconds and its checked digest; raises Fault on an error."""
        with self.bound():
            try:
                start = time.perf_counter()
                out = self.wl.op(k)
                seconds = time.perf_counter() - start
                got, errors, _ = self.wl.check(k, out)
            except Exception as e:
                raise Fault(f"{self.name} op {k} raised {type(e).__name__}: {e}") from None
        if errors:
            raise Fault(f"{self.name} op {k}: {errors[0]}")
        return seconds, got


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(trees: list[Tree], args) -> list[float]:
    """The change/parent ratio of each timed round's summed op seconds."""
    ratios = []
    for r in range(args.rounds + 1):
        totals = [0.0, 0.0]
        for k in range(args.ops):
            first = (r + k) % 2
            digests = [None, None]
            for side in (first, 1 - first):
                seconds, digests[side] = trees[side].run(k)
                totals[side] += seconds
            if digests[0] != digests[1]:
                raise Fault(f"op {k}: the trees' digests differ: parent {digests[0]}, change {digests[1]}")
        if r:  # round 0 warms up
            ratios.append(totals[1] / totals[0])
    return ratios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="source directory of the parent's xraycross package")
    parser.add_argument("change", type=Path, help="source directory of the change's xraycross package")
    parser.add_argument("--workload", choices=WORKLOADS, default="checked-load", help="benchmark op to compare (default checked-load)")
    parser.add_argument("--ops", type=int, default=60, help="ops per round, the benchmark's ops 0 .. OPS-1 (default 60)")
    parser.add_argument("--rounds", type=int, default=30, help="timed rounds (default 30)")
    parser.add_argument("--seed", type=int, default=1, help="the benchmark's seed for set-up (default 1)")
    args = parser.parse_args(argv)
    if args.ops < 1 or args.rounds < 1:
        parser.error("--ops and --rounds must be at least 1")

    trees = [Tree("parent", args.parent.resolve()), Tree("change", args.change.resolve())]
    print(f"{args.workload}: {args.ops} ops x {args.rounds} rounds, change/parent time ratio: median [q1, q3]", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for tree in trees:
                tree.set_up(args, Path(tempfile.mkdtemp(dir=tmp)))
            gc.collect()
            gc.freeze()
            ratios = compare(trees, args)
        except Fault as e:
            print(f"ab_inproc: FAIL: {e}")
            return 1
    q1, q2, q3 = quartiles(ratios)
    print(f"op {q2:.3f} [{q1:.3f}, {q3:.3f}]")
    print("ab_inproc: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
