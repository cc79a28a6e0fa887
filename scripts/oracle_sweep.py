"""Randomized cross-validation of the recursion against the circle formulas.

Two sweeps.  The rank-1 sweep draws random circle X-rays, propagates
the recursion over their chambers, and demands exact agreement with the
closed-form localization sums, including the two-sided singular value
at every critical level.  The restriction sweep walks every crossing
edge of the rank-2 worked examples and compares the recursion's jump
with the jump of the residual circle built from the separating wall.
Both assert that circle.cross_check passes, one wall at a time.

Random components come in sign-mirrored pairs with equal seeds so that
the invariants telescope to zero outside the moment image, as they must
for any compact example.
"""

import argparse
from fractions import Fraction
from random import Random

from xraycross.arrangement import crossing_graph, subchambers
from xraycross.circle import cross_check
from xraycross.engine import POINCARE, SIGNATURE, propagate
from xraycross.exactgeom import hull
from xraycross.generators import ProjectionMatrix, cpn_xray
from xraycross.intpoly import IntPolynomial
from xraycross.ratmath import as_vec
from xraycross.xray import Stratum, VertexData, WeightedXray, validate_all


def mirrored_rank1(rng: Random) -> WeightedXray:
    pairs = rng.randint(1, 3)
    n = rng.randint(2, 4)
    levels: set[Fraction] = set()
    while len(levels) < 2 * pairs:
        levels.add(Fraction(rng.randint(-24, 24), rng.randint(1, 4)))
    ordered = sorted(levels)
    interior = ordered[1:-1]
    rng.shuffle(interior)

    placements = []
    for j in range(pairs):
        if j == 0:
            signs = [1] + [rng.choice((1, 1, 0)) for _ in range(n - 1)]
            at, mirror_at = ordered[0], ordered[-1]
        else:
            signs = [1, -1] + [rng.choice((1, -1, 0)) for _ in range(n - 2)]
            at, mirror_at = interior.pop(), interior.pop()
        weights = tuple(s * rng.randint(1, 4) for s in signs)
        seeds = dict(
            seed_signature=rng.randint(-5, 5),
            seed_poincare=IntPolynomial(
                tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 3)))
            ),
            seed_euler=rng.randint(-5, 5),
        )
        placements.append((at, weights, seeds))
        placements.append((mirror_at, tuple(-w for w in weights), seeds))

    placements.sort(key=lambda t: t[0])
    strata = [
        Stratum(
            f"v{i + 1}",
            hull([as_vec((at,))]),
            ("top",),
            (),
            VertexData(tuple(as_vec((w,)) for w in weights), **seeds),
        )
        for i, (at, weights, seeds) in enumerate(placements)
    ]
    strata.append(Stratum("top", hull([as_vec((ordered[0],)), as_vec((ordered[-1],))])))
    return WeightedXray(1, n, tuple(strata))


def rank1_sweep(count: int, seed: int) -> tuple[int, int]:
    rng = Random(seed)
    chambers = levels = 0
    for _ in range(count):
        x = mirrored_rank1(rng)
        violations = validate_all(x)
        if violations:
            raise AssertionError(f"generator produced an invalid X-ray: {violations}")
        report = cross_check(x, "top", propagate(x, SIGNATURE), propagate(x, POINCARE))
        assert report.passed, [line for line in report.lines if not line.passed]
        chambers += len(subchambers(x, "top"))
        levels += len(x.vertex_ids)
    return chambers, levels


WORKED = {
    "cp4-generic": (
        (0, 4, 2, Fraction(8, 5), Fraction(12, 5)),
        (0, 0, 4, Fraction(3, 4), Fraction(19, 10)),
    ),
    "cp4-nongeneric": (
        (0, 4, 0, Fraction(3, 2), Fraction(5, 2)),
        (0, 0, 4, Fraction(5, 2), Fraction(3, 2)),
    ),
}


def restriction_sweep() -> int:
    edges = 0
    for name, rows in WORKED.items():
        x = cpn_xray(4, ProjectionMatrix(rows))
        sig = propagate(x, SIGNATURE)
        poin = propagate(x, POINCARE)
        for sid in x.ids:
            if x.dim(sid) < 1:
                continue
            report = cross_check(x, sid, sig, poin)
            assert report.passed, (name, sid, [line for line in report.lines if not line.passed])
            edges += len(crossing_graph(x, sid).edges)
    return edges


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200, help="random rank-1 X-rays to draw")
    parser.add_argument("--seed", type=int, default=20260816)
    args = parser.parse_args(argv)

    chambers, levels = rank1_sweep(args.count, args.seed)
    print(
        f"rank-1 sweep: {args.count} X-rays, {chambers} chambers matched the "
        f"closed forms, {levels} singular levels two-sided consistent"
    )
    edges = restriction_sweep()
    print(f"restriction sweep: {edges} crossing edges matched the residual circle")
    print("oracle sweep: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
