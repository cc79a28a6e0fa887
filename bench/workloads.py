"""The three workloads: inputs, the timed op, and the check of its output.

Each workload is a closed loop driven by one thread: the next op starts
when the previous one returns.  Set-up makes inputs in units of one
"batch"; run.py times every batch, and makes more batches on demand
when a long run uses up the inputs made so far.  A batch is a generator
that yields after each step of its work (one X-ray, or a hundred
matrices), so that run.py can calibrate its time step by step, as it
does op by op.

The program is called through its module objects (arrangement.locate,
not a name bound at import), so the tracer's wrappers take effect.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterator
from fractions import Fraction
from pathlib import Path

from xraycross import arrangement, circle, engine, generators, xray
from xraycross.arrangement import EXTERIOR
from xraycross.intpoly import IntPolynomial

from inputs import (
    UNIVERSE,
    digest,
    fixture_errors,
    fixtures,
    instance_order,
    projection_rows,
    size_key,
    table_rows,
)

SPECS = (engine.SIGNATURE, engine.POINCARE, engine.EULER)


def nontree_edges(graphs) -> int:
    """Edges the cycle check covers beyond a spanning tree, over walls of dim >= 1."""
    return sum(len(g.edges) - len(g.nodes) + 1 for g in graphs if g.edges)


def invariant_tables(x):
    """propagate x3, both consistency checks and serialize_table x3."""
    sig, poin, eul = (engine.propagate(x, spec) for spec in SPECS)
    parity = engine.check_parity(x, sig, eul)
    gauss = engine.check_sig_equals_poincare_at_i(x, sig, poin)
    rows = [engine.serialize_table(x, t) for t in (sig, poin, eul)]
    return (sig, poin), (parity, gauss), rows


def check_errors(reports) -> list[str]:
    return [f"{r.title}: {line.detail}" for r in reports for line in r.lines if not line.passed]


class Workload:
    """Inputs are made in batches; op(k) runs input k; check(k, out) verifies it.

    check returns (digest, errors, counts).  mix lists the (d, n) sizes
    or fixture names of one cycle of ops, in order.
    """

    name = ""
    mix: tuple = ()
    batch_ops = 0
    setup_batches = 3
    trace_ops = 0

    def __init__(self, seed: int, workdir: Path, reference: dict):
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.items: list = []
        self._orders: dict = {}
        self._used: dict = {}

    def ready(self, k: int) -> bool:
        return k < len(self.items)

    def next_instance(self, d: int, n: int) -> tuple[int, bool]:
        """Next universe index of size (d, n) in this seed's order, and
        whether it repeats an instance made earlier in this run."""
        key = (d, n)
        if key not in self._orders:
            self._orders[key] = instance_order(self.name, self.seed, d, n)
        j = self._used.get(key, 0)
        self._used[key] = j + 1
        return self._orders[key][j % UNIVERSE], j >= UNIVERSE

    def setup_batch(self) -> Iterator[None]:
        raise NotImplementedError

    def op(self, k: int):
        raise NotImplementedError

    def check(self, k: int, out) -> tuple[str, list[str], dict]:
        raise NotImplementedError


class Tables(Workload):
    """Cold `xraycross invariants` on a fresh X-ray file per op.

    Geometry dominates here: subchambers and crossing_graph, and the
    exactgeom hulls and clips under them.  (2,4) fills two slots of the
    cycle so the median falls inside one size, and (3,4) is one fifth
    so p90 falls inside the largest size.
    """

    name = "tables"
    mix = ((2, 3), (2, 4), (2, 4), (2, 5), (3, 4))
    # Batches differ in cost with the instances they draw, so set-up
    # makes five and reports their median.
    batch_ops = 40
    setup_batches = 5
    trace_ops = 30

    def setup_batch(self) -> Iterator[None]:
        for _ in range(self.batch_ops):
            k = len(self.items)
            d, n = self.mix[k % len(self.mix)]
            i, repeat = self.next_instance(d, n)
            x = generators.cpn_xray(n, generators.ProjectionMatrix(projection_rows(d, n, i)))
            path = self.workdir / f"tables-{k}.json"
            generators.save_xray(x, path)
            self.items.append((d, n, i, repeat, path))
            yield

    def op(self, k: int):
        path = self.items[k][4]
        x = generators.load_xray(path, checked=True)
        cells = [arrangement.subchambers(x, sid) for sid in x.ids]
        graphs = [arrangement.crossing_graph(x, sid) for sid in x.ids]
        _, reports, rows = invariant_tables(x)
        return x, cells, graphs, reports, rows

    def check(self, k: int, out):
        d, n, i, repeat, _ = self.items[k]
        x, cells, graphs, reports, rows = out
        errors = check_errors(reports)
        got = digest(table_rows(*rows))
        want = self.reference["tables"][size_key(d, n)][i]
        if got != want:
            errors.append(f"table digest {got} differs from reference {want} for ({d},{n}) #{i}")
        counts = {
            "generators.strata": len(x.strata),
            "arrangement.cells": sum(len(c) for c in cells),
            "arrangement.edges": sum(len(g.edges) for g in graphs),
            "arrangement.separators": sum(len(e.separators) for g in graphs for e in g.edges),
            "engine.table_entries": len(rows[0]),
            "engine.nontree_edges": nontree_edges(graphs),
            "inputs_reused": int(repeat),
        }
        return got, errors, counts


class CheckedLoad(Workload):
    """`xraycross gen` then `validate`: no subchambers, no propagation.

    d = 1 ops are bound by cpn_xray's scan of column subsets and d = 2
    ops by validate_darboux, so an arrangement change must not move
    this workload.
    """

    name = "checked-load"
    mix = ((1, 10), (1, 11), (2, 6), (2, 7), (2, 7))
    # A batch is the program's ProjectionMatrix checks (about 0.1 ms each),
    # so it holds more than one run uses and set-up makes five, which
    # lifts each batch's time and their median well above the jitter of
    # this VM.  Inputs past the universe only count as reused if an op
    # runs them.
    batch_ops = 1000
    setup_batches = 5
    trace_ops = 30

    def __init__(self, seed: int, workdir: Path, reference: dict):
        super().__init__(seed, workdir, reference)
        # the benchmark's own RNG runs here, before set-up is timed, so
        # setup_s times program code only
        self.rows = {(d, n, i): projection_rows(d, n, i) for d, n in set(self.mix) for i in range(UNIVERSE)}

    def setup_batch(self) -> Iterator[None]:
        for j in range(1, self.batch_ops + 1):
            d, n = self.mix[len(self.items) % len(self.mix)]
            i, repeat = self.next_instance(d, n)
            self.items.append((d, n, i, repeat, generators.ProjectionMatrix(self.rows[d, n, i])))
            if j % 100 == 0:
                yield

    def op(self, k: int):
        _, n, _, _, pi = self.items[k]
        text = xray.canonical_json(generators.cpn_xray(n, pi))
        x = xray.from_interchange(json.loads(text))
        violations = xray.validate_poset(x) + xray.validate_consistency(x) + xray.validate_darboux(x)
        return text, x, violations

    def check(self, k: int, out):
        d, n, i, repeat, _ = self.items[k]
        text, x, violations = out
        errors = [str(v) for v in violations]
        got = digest(text)
        want = self.reference["xray"][size_key(d, n)][i]
        if got != want:
            errors.append(f"X-ray digest {got} differs from reference {want} for ({d},{n}) #{i}")
        counts = {"generators.strata": len(x.strata), "xray.violations": len(violations), "inputs_reused": int(repeat)}
        return got, errors, counts


def regular_points(x, rng: random.Random, count: int) -> list:
    """Seeded points of the top wall that lie on no smaller wall."""
    top = x.stratum(x.top_id).wall
    lower = [x.stratum(g).wall for g in x.below(x.top_id)]
    points = []
    while len(points) < count:
        weights = [Fraction(rng.randint(1, 60)) for _ in top.vertices]
        total = sum(weights)
        q = tuple(sum(w * v[c] for w, v in zip(weights, top.vertices)) / total for c in range(top.ambient_dim))
        if not any(w.contains(q) for w in lower):
            points.append(q)
    return points


class Query(Workload):
    """A library user re-querying X-rays they already hold.

    Set-up loads the X-rays and fills their caches through crossing_graph,
    so ops build no cells.  One op re-queries every held X-ray in the
    seed's order: propagate, checks and serialize, the circle-oracle
    deltas of the top wall, and locate on a few seeded regular points.
    An op is a whole pass because single queries range from 2 ms
    (fixtures) to 30 ms ((2,6)), and quantiles of that mix would hinge on
    which few instances a seed draws.  Each set-up batch adds one seeded
    instance of every size plus fresh copies of the five fixtures, so
    batches cost the same and three batches average over three instances.
    """

    name = "query"
    sizes = ((1, 8), (2, 5), (2, 6), (3, 4))
    fixture_names = ("cp3", "cp4", "ncp4", "simplex2", "cube2")
    mix = sizes + fixture_names
    points_per_xray = 4
    trace_ops = 10

    def setup_batch(self) -> Iterator[None]:
        batch = len(self.items) // len(self.mix)
        rng = random.Random(f"query/{self.seed}/{batch}")
        built = fixtures()
        for name in self.mix:
            if isinstance(name, str):
                x = built[name]
                want = self.reference["fixtures"][name]
            else:
                d, n = name
                i, _ = self.next_instance(d, n)
                x = generators.cpn_xray(n, generators.ProjectionMatrix(projection_rows(d, n, i)))
                want = self.reference["tables"][size_key(d, n)][i]
                name = (d, n, i)
            path = self.workdir / f"query-{len(self.items)}.json"
            generators.save_xray(x, path)
            x = generators.load_xray(path, checked=True)
            graphs = [arrangement.crossing_graph(x, sid) for sid in x.ids]
            points = regular_points(x, rng, self.points_per_xray)
            expected = []
            for q in points:
                hits = [c.index for c in arrangement.subchambers(x, x.top_id) if c.cell.contains(q)]
                if len(hits) != 1:
                    raise RuntimeError(f"point {q} lies in {len(hits)} subchambers of {name}")
                expected.append(hits[0])
            self.items.append((name, x, want, points, expected, nontree_edges(graphs)))
            yield
        rng.shuffle(self.items)

    def ready(self, k: int) -> bool:
        return bool(self.items)

    def op(self, k: int):
        return [query_one(x, points) for _, x, _, points, _, _ in self.items]

    def check(self, k: int, out):
        errors = []
        digests = []
        counts = {"generators.strata": 0, "engine.table_entries": 0, "engine.nontree_edges": 0, "circle.edges_checked": 0}
        for (name, x, want, _, expected, nontree), (reports, rows, mismatches, checked, located) in zip(self.items, out):
            errors += check_errors(reports) + mismatches
            joined = table_rows(*rows)
            got = digest(joined)
            digests.append(got)
            if got != want:
                errors.append(f"table digest {got} differs from reference {want} for {name}")
            if isinstance(name, str):
                errors += fixture_errors(name, joined)
            if located != expected:
                errors.append(f"locate in {name} gave subchambers {located}, expected {expected}")
            counts["generators.strata"] += len(x.strata)
            counts["engine.table_entries"] += len(rows[0])
            counts["engine.nontree_edges"] += nontree
            counts["circle.edges_checked"] += checked
        return digest(digests), errors, counts


def query_one(x, points):
    """Tables, top-wall oracle deltas and point location for one held X-ray."""
    (sig, poin), reports, rows = invariant_tables(x)
    top = x.top_id
    mismatches = []
    checked = 0
    if x.torus_rank == 1:
        data = circle.from_rank1_xray(x)
        chambers = sorted(arrangement.subchambers(x, top), key=lambda cell: cell.rep[0])
        for cell in chambers:
            a = cell.rep[0]
            pairs = (
                (sig.value(top, cell.index), circle.signature_regular(data, a)),
                (poin.value(top, cell.index), circle.poincare_regular(data, a)),
            )
            mismatches += [f"chamber {cell.index}: engine {w}, circle {g}" for w, g in pairs if w != g]
            checked += 1
        # crossing each critical level upward: the engine's change between
        # the chambers on either side (the exterior counts as 0) against
        # the circle's delta
        for c in data.levels():
            below = [cell.index for cell in chambers if cell.rep[0] < c][-1:]
            above = [cell.index for cell in chambers if cell.rep[0] > c][:1]
            pairs = (
                (level_delta(sig, top, below, above, 0), circle.wall_cross_delta(data, c, engine.INTEGER)),
                (
                    level_delta(poin, top, below, above, IntPolynomial.zero()),
                    circle.wall_cross_delta(data, c, engine.INT_POLYNOMIAL),
                ),
            )
            mismatches += [f"level {c}: engine {w}, circle {g}" for w, g in pairs if w != g]
            # raises PropagationError if the values from below and above disagree
            circle.signature_singular(data, c)
            checked += 1
    else:
        for edge in arrangement.crossing_graph(x, top).edges:
            data = circle.restrict_to_line(
                x, top, edge.source, edge.dest, sig_table=sig, poin_table=poin, facet_rep=edge.facet_rep
            )
            pairs = (
                (delta(sig, top, edge, 0), circle.wall_cross_delta(data, 0, engine.INTEGER)),
                (delta(poin, top, edge, IntPolynomial.zero()), circle.wall_cross_delta(data, 0, engine.INT_POLYNOMIAL)),
            )
            mismatches += [f"edge {edge.source}->{edge.dest}: engine {w}, circle {g}" for w, g in pairs if w != g]
            checked += 1
    located = [arrangement.locate(x, top, q).index for q in points]
    return reports, rows, mismatches, checked, located


def level_delta(table, top: str, below: list, above: list, zero):
    """Value of the chamber above minus the chamber below; an empty side is the exterior."""
    return sum((table.value(top, i) for i in above), zero) - sum((table.value(top, i) for i in below), zero)


def delta(table, top: str, edge, zero):
    def at(node):
        return zero if node == EXTERIOR else table.value(top, node)

    return at(edge.dest) - at(edge.source)


WORKLOADS = {cls.name: cls for cls in (Tables, CheckedLoad, Query)}
