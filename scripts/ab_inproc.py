"""Compare two source trees on a benchmark workload, in one process.

    PYTHONPATH=src python3 scripts/ab_inproc.py PARENT_SRC CHANGE_SRC
    PYTHONPATH=src python3 scripts/ab_inproc.py ../parent/src src --ops 60 --rounds 30
    PYTHONPATH=src python3 scripts/ab_inproc.py ../parent/src src --workload query
    PYTHONPATH=src python3 scripts/ab_inproc.py ../parent/src src --workload tables

Each SRC is a directory holding an `xraycross` package (a checkout's
`src`).  The benchmark's own modules, which draw the inputs, import
`xraycross` by that name, so one copy must be importable as usual.  The
two packages are imported under different names, so both
live in this process, and every op of the mix runs on both, in an order
that alternates between op and round.  Timing both in one process cancels
the drift between processes that a machine's speed shows over minutes.

`--workload checked-load` (the default) runs the benchmark's
`checked-load` op on the benchmark's own inputs: the mix of
bench/workloads.py, the instances drawn in bench/inputs.py's order for
`--seed`, op k taking the k-th size of the mix in turn.  An op is
`cpn_xray` (generate), `canonical_json`, `json.loads` of that text with
`from_interchange` (timed together as from_interchange), then
`validate_poset`, `validate_consistency` and `validate_darboux`.  The
projection matrices are built before any timing, once per tree.

`--workload query` runs the benchmark's `query` op.  The benchmark's
set-up for `--seed` draws the held X-rays and their seeded points; each
tree loads every X-ray from its canonical JSON with its own checked
`load_xray` and fills its caches through `crossing_graph`, before any
timing.  An op re-queries every held X-ray as `bench/workloads.py`'s
`query_one` does, and holds every output until the whole pass ends, as
the benchmark's op does, so the garbage collections that output causes
are timed.  Its stages are tables (`propagate` of the three
invariants), checks (`check_parity` and `check_sig_equals_poincare_at_i`),
serialize (`serialize_table` of the three tables), circle (the top
wall's circle-oracle values and deltas with the engine's) and locate
(`locate` of the seeded points).

`--workload tables` runs the benchmark's `tables` op.  Op k's X-ray is
the k-th instance of the `tables` mix, drawn as for checked-load, and
its canonical JSON is made before any timing; both trees load the same
text.  An op makes the calls of `bench/workloads.py`'s `Tables.op`:
load (`json.loads` and `from_interchange`, the checked `load_xray`
before it validates) and validate (`validate_all`), then subchambers
and crossing_graph of every stratum, then tables (`propagate` of the
three invariants, both checks and `serialize_table` of the three
tables, as `invariant_tables` makes them).  When a change allocates
less in one stage, garbage collections move into later stages of the
same process, so a stage the change leaves alone can read a few
percent slower; the op ratio is the one to trust.

One round runs every op on both trees; a first, untimed round warms
both up.  For the op and for each stage it prints the median, over
rounds, of the change/parent ratio of the round's summed seconds, with
its quartiles.  A ratio below 1 means the change is faster.  It ends
with a PASS line when, on every op, both trees gave the same output:
for checked-load the same JSON and the same violations; for query the
same table rows, check lines, engine and circle deltas and located
chambers; for tables the same violations and table rows.

`--workload query` favours the tree given second, for a reason not yet
found (switching the garbage collector off does not remove it): an A/A
run of one tree against a byte-identical copy reads about 0.93 on
tables and 0.98 on the op.  So run a query A/B in both orders:

    PYTHONPATH=src python3 scripts/ab_inproc.py PARENT_SRC CHANGE_SRC --workload query   # r_AB
    PYTHONPATH=src python3 scripts/ab_inproc.py CHANGE_SRC PARENT_SRC --workload query   # r_BA

r_BA, as printed, is parent/change.  The bias multiplies both ratios
alike, so the change/parent ratio with it cancelled is sqrt(r_AB / r_BA).
"""

import argparse
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from inputs import instance_order, load_reference, projection_rows  # noqa: E402
from workloads import CheckedLoad, Query, Tables, delta, level_delta  # noqa: E402
from xraycross.generators import ProjectionMatrix, cpn_xray  # noqa: E402
from xraycross.xray import canonical_json  # noqa: E402

CHECKED_LOAD_STAGES = ("generate", "canonical_json", "from_interchange", "validate_poset", "validate_consistency", "validate_darboux")
QUERY_STAGES = ("tables", "checks", "serialize", "circle", "locate")
TABLES_STAGES = ("load", "validate", "subchambers", "crossing_graph", "tables")
MODULES = ("arrangement", "circle", "engine", "generators", "intpoly", "xray")


def import_tree(src: Path, name: str) -> SimpleNamespace:
    """The `xraycross` package under src, imported as `name`: its
    modules by their short names."""
    init = src / "xraycross" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"{src} holds no xraycross package")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return SimpleNamespace(**{module: importlib.import_module(f"{name}.{module}") for module in MODULES})


def mix_instances(workload, args) -> list[tuple[int, int, int]]:
    """(d, n, universe index) of each op: op k takes the k-th size of the
    workload's mix in turn, and the next instance of that size in the
    seed's order."""
    drawn: dict = {}
    sizes = []
    for k in range(args.ops):
        d, n = workload.mix[k % len(workload.mix)]
        order = instance_order(workload.name, args.seed, d, n)
        j = drawn.get((d, n), 0)
        drawn[(d, n)] = j + 1
        sizes.append((d, n, order[j % len(order)]))
    return sizes


def checked_load_ops(trees, args) -> list[list]:
    """Each tree's checked-load ops: (n, its projection matrix) per op."""
    sizes = mix_instances(CheckedLoad, args)
    return [[(n, tree.generators.ProjectionMatrix(projection_rows(d, n, i))) for d, n, i in sizes] for tree in trees]


def run_checked_load(tree, op, seconds: list[float]):
    """One checked-load op, adding each stage's seconds to seconds; returns
    (JSON text, violation strings)."""
    generators, xray = tree.generators, tree.xray
    n, pi = op
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


def tables_ops(trees, args) -> list[list]:
    """Each tree's tables ops: the canonical JSON text of each op's
    X-ray, the same texts for both trees."""
    texts = [canonical_json(cpn_xray(n, ProjectionMatrix(projection_rows(d, n, i)))) for d, n, i in mix_instances(Tables, args)]
    return [texts for _ in trees]


def run_tables(tree, text, seconds: list[float]):
    """One tables op, adding each stage's seconds to seconds; returns the
    violations and table rows as JSON text."""
    arrangement, engine, xray = tree.arrangement, tree.engine, tree.xray
    specs = (engine.SIGNATURE, engine.POINCARE, engine.EULER)
    clock = time.perf_counter
    t0 = clock()
    x = xray.from_interchange(json.loads(text))
    t1 = clock()
    violations = xray.validate_all(x)
    t2 = clock()
    for sid in x.ids:
        arrangement.subchambers(x, sid)
    t3 = clock()
    for sid in x.ids:
        arrangement.crossing_graph(x, sid)
    t4 = clock()
    sig, poin, eul = (engine.propagate(x, spec) for spec in specs)
    engine.check_parity(x, sig, eul)
    engine.check_sig_equals_poincare_at_i(x, sig, poin)
    rows = [engine.serialize_table(x, t) for t in (sig, poin, eul)]
    t5 = clock()
    for i, (a, b) in enumerate(zip((t0, t1, t2, t3, t4), (t1, t2, t3, t4, t5))):
        seconds[i] += b - a
    return json.dumps([[str(v) for v in violations], rows])


def query_ops(trees, args) -> list[list]:
    """Each tree's query ops: every op is the same pass over the held
    X-rays, (X-ray, seeded points) in the benchmark's order, the X-rays
    loaded by the tree and their caches filled."""
    with tempfile.TemporaryDirectory() as tmp:
        wl = Query(args.seed, Path(tmp), load_reference())
        for _ in range(wl.setup_batches):
            for _ in wl.setup_batch():
                pass
        files = []
        for k, (_, x, _, points, _, _) in enumerate(wl.items):
            path = Path(tmp) / f"held-{k}.json"
            path.write_text(canonical_json(x), encoding="utf-8")
            files.append((path, points))
        held = [[] for _ in trees]
        for path, points in files:
            for tree, xrays in zip(trees, held):
                x = tree.generators.load_xray(path, checked=True)
                for sid in x.ids:
                    tree.arrangement.crossing_graph(x, sid)
                xrays.append((x, points))
    return [[xrays] * args.ops for xrays in held]


def run_query(tree, held, seconds: list[float]):
    """One query op, the benchmark's `query_one` over every held X-ray,
    adding each stage's seconds to seconds.  Every output is held until
    the pass ends, then returned as plain JSON text."""
    arrangement, circle, engine = tree.arrangement, tree.circle, tree.engine
    specs = (engine.SIGNATURE, engine.POINCARE, engine.EULER)
    zero = tree.intpoly.IntPolynomial.zero()
    clock = time.perf_counter
    out = []
    for x, points in held:
        top = x.top_id
        t0 = clock()
        sig, poin, eul = (engine.propagate(x, spec) for spec in specs)
        t1 = clock()
        reports = (engine.check_parity(x, sig, eul), engine.check_sig_equals_poincare_at_i(x, sig, poin))
        t2 = clock()
        rows = [engine.serialize_table(x, t) for t in (sig, poin, eul)]
        t3 = clock()
        pairs = []
        if x.torus_rank == 1:
            data = circle.from_rank1_xray(x)
            chambers = sorted(arrangement.subchambers(x, top), key=lambda cell: cell.rep[0])
            for cell in chambers:
                a = cell.rep[0]
                pairs.append((sig.value(top, cell.index), circle.signature_regular(data, a)))
                pairs.append((poin.value(top, cell.index), circle.poincare_regular(data, a)))
            for c in data.levels():
                below = [cell.index for cell in chambers if cell.rep[0] < c][-1:]
                above = [cell.index for cell in chambers if cell.rep[0] > c][:1]
                pairs.append((level_delta(sig, top, below, above, 0), circle.wall_cross_delta(data, c, engine.INTEGER)))
                pairs.append(
                    (level_delta(poin, top, below, above, zero), circle.wall_cross_delta(data, c, engine.INT_POLYNOMIAL))
                )
                pairs.append((circle.signature_singular(data, c), None))
        else:
            for edge in arrangement.crossing_graph(x, top).edges:
                data = circle.restrict_to_line(
                    x, top, edge.source, edge.dest, sig_table=sig, poin_table=poin, facet_rep=edge.facet_rep
                )
                pairs.append((delta(sig, top, edge, 0), circle.wall_cross_delta(data, 0, engine.INTEGER)))
                pairs.append((delta(poin, top, edge, zero), circle.wall_cross_delta(data, 0, engine.INT_POLYNOMIAL)))
        t4 = clock()
        located = [arrangement.locate(x, top, q).index for q in points]
        t5 = clock()
        for i, (a, b) in enumerate(zip((t0, t1, t2, t3, t4), (t1, t2, t3, t4, t5))):
            seconds[i] += b - a
        out.append((reports, rows, pairs, located))
    return json.dumps([plain_query(*one) for one in out])


def plain_query(reports, rows, pairs, located) -> list:
    """One X-ray's query output in plain values, comparable across trees:
    report lines as (title, name, passed, detail), polynomials as their
    coefficient lists."""

    def plain(value):
        return value if value is None or isinstance(value, int) else list(value.coeffs)

    lines = [[r.title, line.name, line.passed, line.detail] for r in reports for line in r.lines]
    return [lines, rows, [[plain(w), plain(g)] for w, g in pairs], located]


WORKLOADS = {
    "checked-load": (CHECKED_LOAD_STAGES, checked_load_ops, run_checked_load),
    "query": (QUERY_STAGES, query_ops, run_query),
    "tables": (TABLES_STAGES, tables_ops, run_tables),
}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="source directory of the parent's xraycross package")
    parser.add_argument("change", type=Path, help="source directory of the change's xraycross package")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="checked-load", help="benchmark op to compare (default checked-load)")
    parser.add_argument("--ops", type=int, default=60, help="ops per round, cycling through the mix (default 60)")
    parser.add_argument("--rounds", type=int, default=30, help="timed rounds (default 30)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the instance order (default 1)")
    args = parser.parse_args(argv)
    if args.ops < 1 or args.rounds < 1:
        parser.error("--ops and --rounds must be at least 1")

    stages, make_ops, run = WORKLOADS[args.workload]
    trees = [import_tree(args.parent.resolve(), "xraycross_parent"), import_tree(args.change.resolve(), "xraycross_change")]
    ops = make_ops(trees, args)

    same = True
    ratios: list[list[float]] = [[] for _ in range(len(stages) + 1)]
    for r in range(args.rounds + 1):
        totals = [[0.0] * len(stages) for _ in trees]
        for k in range(args.ops):
            first = (r + k) % 2
            out = [None, None]
            for side in (first, 1 - first):
                out[side] = run(trees[side], ops[side][k], totals[side])
            same &= out[0] == out[1]
        if r == 0:
            continue  # warm-up
        parent, change = totals
        for i in range(len(stages)):
            ratios[i].append(change[i] / parent[i])
        ratios[-1].append(sum(change) / sum(parent))

    print(f"{args.workload}: {args.ops} ops x {args.rounds} rounds, change/parent time ratio: median [q1, q3]")
    for name, values in zip(stages + ("op",), ratios):
        q1, q2, q3 = quartiles(values)
        print(f"{name:22s} {q2:.3f} [{q1:.3f}, {q3:.3f}]")
    print("ab_inproc: " + ("PASS" if same else "FAIL: the trees' outputs differ"))
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
