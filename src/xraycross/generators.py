"""X-ray constructors: CPn under a rank-d subtorus, Delzant polytopes, file I/O.

The CPn generator projects the standard n-simplex action through a d x
(n+1) rational matrix: vertices are the column images, weights are
column differences, and positive-dimensional strata correspond to
subsets of columns that are maximal for their affine span.  The Delzant
generator turns a simple full-dimensional polytope with vertex weights
into the structure-free X-ray of a toric manifold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from typing import Mapping, Sequence

from .errors import MalformedXray, ValidationFailed
from .exactgeom import AffineSpan, Polytope, bits, face_lattice, hull
from .intpoly import IntPolynomial
from .ratmath import RatVector, as_vec, format_rational, rank, vsub
from .xray import (
    Stratum,
    VertexData,
    WeightedXray,
    canonical_json,
    from_interchange,
    validate_all,
)


@dataclass(frozen=True)
class ProjectionMatrix:
    """d x (n+1) rational matrix; columns are the images of the CPn vertices."""

    rows: tuple[RatVector, ...]

    def __post_init__(self):
        rows = tuple(as_vec(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows or not rows[0]:
            raise ValueError("projection matrix must be nonempty")
        if len({len(r) for r in rows}) != 1:
            raise ValueError("projection matrix rows differ in length")
        if rank(rows) != len(rows):
            raise ValueError("projection matrix must have full row rank")

    @property
    def d(self) -> int:
        return len(self.rows)

    @property
    def cols(self) -> int:
        return len(self.rows[0])

    def column(self, j: int) -> RatVector:
        return tuple(r[j] for r in self.rows)


def cpn_xray(n: int, pi: ProjectionMatrix) -> WeightedXray:
    """X-ray of CPn restricted to the rank-d subtorus given by pi.

    Strata are the column subsets K that are maximal for their affine
    span (plus the full set as the top stratum); the wall of K is the
    hull of its columns.  Every vertex is an isolated fixed point with
    weights {col_j - col_k} and seeds (1, 1, 1).

    A flat of dimension < d is spanned by at most d of its columns, so
    the strata are found as the flats of <= d columns, each collecting
    every column on it: C(n+1, <=d) spans, not 2^(n+1) subsets.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if pi.cols != n + 1:
        raise ValueError(f"matrix must have {n + 1} columns, got {pi.cols}")
    d = pi.d
    cols = [pi.column(j) for j in range(n + 1)]
    if len(set(cols)) != len(cols):
        raise ValueError("fixed points not isolated: unsupported")

    everyone = tuple(range(n + 1))
    # At most d points span a flat of dimension < d.  When every column
    # lies on one such flat it collects all of them, which is the top.
    subsets: dict[tuple[int, ...], None] = {everyone: None}
    for size in range(1, d + 1):
        for B in combinations(everyone, size):
            span = AffineSpan.from_points([cols[b] for b in B])
            subsets[tuple(j for j in everyone if span.contains(cols[j]))] = None

    def name(K: tuple[int, ...]) -> str:
        if K == everyone:
            return "top"
        if len(K) == 1:
            return f"v{K[0] + 1}"
        return "w" + "-".join(str(k + 1) for k in K)

    strata = []
    for K in subsets:
        parents = tuple(name(P) for P in subsets if set(K) < set(P))
        vertex_data = None
        if len(K) == 1:
            k = K[0]
            weights = tuple(sorted(vsub(cols[j], cols[k]) for j in range(n + 1) if j != k))
            vertex_data = VertexData(weights, 1, IntPolynomial.one(), 1)
        strata.append(
            Stratum(
                id=name(K),
                wall=hull([cols[k] for k in K]),
                parents=parents,
                vertex_data=vertex_data,
            )
        )
    return WeightedXray(d, n, tuple(strata))


def delzant_xray(p: Polytope, weights_at_vertices: Mapping[RatVector, Sequence[RatVector]]) -> WeightedXray:
    """Structure-free X-ray of a toric manifold with moment polytope p.

    p must be simple and full-dimensional; weights_at_vertices maps each
    vertex point to the d weights at that fixed point (the edge
    directions, up to positive scale).  The result carries the full face
    lattice of p as its stratum poset and is validated before return.
    Faces are vertex bitmasks (`face_lattice`); a face's parents are the
    faces whose masks contain its own.
    """
    d = p.ambient_dim
    if p.dim != d:
        raise ValueError("polytope must be full-dimensional")
    if any(t.bit_count() != d for t in p.vertex_masks):
        raise ValueError("non-simple polytope")

    def name(k: int, mask: int) -> str:
        if k == d:
            return "top"
        nums = [j + 1 for j in bits(mask)]
        if k == 0:
            return f"v{nums[0]}"
        prefix = "e" if k == 1 else "f"
        return prefix + "-".join(str(i) for i in nums)

    lattice = face_lattice(p)
    strata = []
    for k, level in enumerate(lattice):
        for mask in sorted(level):
            parents = tuple(name(j, m) for j in range(k + 1, d + 1) for m in lattice[j] if m & mask == mask)
            verts = [p.vertices[j] for j in bits(mask)]
            vertex_data = None
            if k == 0:
                v = verts[0]
                if v not in weights_at_vertices:
                    raise ValueError(f"no weights supplied for vertex ({', '.join(format_rational(c) for c in v)})")
                weights = tuple(sorted(as_vec(w) for w in weights_at_vertices[v]))
                vertex_data = VertexData(weights, 1, IntPolynomial.one(), 1)
            strata.append(Stratum(id=name(k, mask), wall=hull(verts), parents=parents, vertex_data=vertex_data))
    x = WeightedXray(d, d, tuple(strata))
    violations = validate_all(x)
    if violations:
        raise ValidationFailed(violations)
    return x


def standard_simplex_xray(d: int) -> WeightedXray:
    """X-ray of CPd as a toric manifold: the standard d-simplex."""
    if d < 1:
        raise ValueError("d must be at least 1")
    zero = tuple(Fraction(0) for _ in range(d))
    basis = [tuple(Fraction(1 if i == j else 0) for j in range(d)) for i in range(d)]
    p = hull([zero] + basis)
    weights: dict[RatVector, list[RatVector]] = {zero: list(basis)}
    for i, e in enumerate(basis):
        weights[e] = [vsub(zero, e)] + [vsub(basis[j], e) for j in range(d) if j != i]
    return delzant_xray(p, weights)


def standard_cube_xray(d: int) -> WeightedXray:
    """X-ray of the product of d projective lines: the unit d-cube."""
    if d < 1:
        raise ValueError("d must be at least 1")
    corners = [tuple(Fraction(b) for b in bits) for bits in product((0, 1), repeat=d)]
    p = hull(corners)
    weights = {
        v: [
            tuple(Fraction((1 if v[i] == 0 else -1) if i == j else 0) for j in range(d))
            for i in range(d)
        ]
        for v in corners
    }
    return delzant_xray(p, weights)


def save_xray(x: WeightedXray, path) -> None:
    Path(path).write_text(canonical_json(x), encoding="utf-8")


def load_xray(path, checked: bool = True) -> WeightedXray:
    """Read an interchange file; reject structurally invalid X-rays.

    checked=False skips the three validators (the parse-level shape
    checks always run).
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedXray(f"parse error: line {e.lineno} column {e.colno}: {e.msg}") from None
    except ValueError as e:  # an integer past the interpreter's digit limit
        raise MalformedXray(f"parse error: {e}") from None
    x = from_interchange(doc)
    if checked:
        violations = validate_all(x)
        if violations:
            raise ValidationFailed(violations)
    return x
