"""Exact Gale transforms, Gale diagrams, and the integer realization of every sphere.

The planar constructions never form unit vectors (those are irrational);
positive-ray direction classes carry the same information exactly, because
the origin-in-relative-interior test is invariant under positive scaling.
The regular polygon is likewise irrational, so diagrams are realized on
small primitive integer directions in the same cyclic order, and the
direction classes are re-verified with exact arithmetic.  A sphere's
certificate already is its diagram, of dimension e = min(n, 3) - 1: its
slots (`Certificate.slots`) are the direction classes, in counterclockwise
order for a maximum odd cycle, on the two rays of a line for a two-set
partition and the one zero class for the simplex boundary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .complexes import NonFaceFamily, _built
from .linalg import (
    Vec,
    _fraction_free_rref,
    _integer_row,
    cross2,
    dot,
    is_zero_vec,
    kernel_basis,
    matrix_rank,
    solve,
    vec,
)
from .oracle import PointConfiguration
from .recognizer import Certificate, InternalInconsistency, _blocks, _certificate, _family


# a direction class: the primitive integer vector on a positive ray
DiagramDirection = tuple[int, int]


class NotAffinelySpanning(ValueError):
    """gale_transform needs points that affinely span their space."""


class InvalidConfiguration(ValueError):
    """A vector configuration violates the Gale invariants."""


class ZeroInput(ValueError):
    """A direction or dependence vector must be nonzero."""


@dataclass(frozen=True)
class GaleConfiguration:
    """Vectors y_1..y_n in Q^e with zero sum, spanning Q^e; checked unless the library built them."""

    vectors: tuple[Vec, ...]

    def __post_init__(self):
        vs = tuple(vec(v) for v in self.vectors)
        object.__setattr__(self, "vectors", vs)
        if not vs:
            raise InvalidConfiguration("a Gale configuration needs at least one vector")
        dims = {len(v) for v in vs}
        if len(dims) != 1:
            raise InvalidConfiguration(f"vectors of mixed dimensions {sorted(dims)}")
        e = dims.pop()
        # each column summed over its common denominator, in ints, not by adding Fractions
        if any(sum(_integer_row(v[coord] for v in vs)) for coord in range(e)):
            raise InvalidConfiguration("vectors must sum to zero exactly")
        if matrix_rank([list(v) for v in vs]) != e:
            raise InvalidConfiguration(f"vectors must linearly span Q^{e}")

    @property
    def n(self) -> int:
        return len(self.vectors)

    @property
    def dim(self) -> int:
        return len(self.vectors[0])


def primitive_direction(v: Sequence) -> DiagramDirection:
    """The primitive integer vector on the positive ray through v (v nonzero)."""
    a, b = v[0], v[1]
    if type(a) is not int or type(b) is not int:
        a, b = _integer_row((a, b))
    if a == 0 and b == 0:
        raise ZeroInput("the zero vector has no direction")
    g = math.gcd(a, b)
    return a // g, b // g


def _angular_cmp(a: Sequence, b: Sequence) -> int:
    """Counterclockwise comparison of nonzero vectors from the positive x-axis."""
    ha = 0 if (a[1] > 0 or (a[1] == 0 and a[0] > 0)) else 1
    hb = 0 if (b[1] > 0 or (b[1] == 0 and b[0] > 0)) else 1
    if ha != hb:
        return ha - hb
    c = cross2(a, b)
    return (c < 0) - (c > 0)


def sort_counterclockwise(directions: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    return sorted(directions, key=functools.cmp_to_key(_angular_cmp))


def _standard_classes(vectors: Sequence[Vec]) -> list[list[int]] | None:
    """Labels grouped by direction class: one class at e = 0, the positive then the negative vectors at
    e = 1, and in the plane the classes in counterclockwise order.

    None unless the classes are standard: no zero vector at e >= 1, two
    classes at e = 1, and in the plane an odd number 2k+1 >= 3 of classes
    with every k+1 consecutive ones inside an open half-plane.  That rules
    out antipodal classes too: one of p and -p lies at most k steps after
    the other, so that window spans a half turn.
    """
    if not vectors[0]:
        return [list(range(1, len(vectors) + 1))]
    if any(is_zero_vec(v) for v in vectors):
        return None
    if len(vectors[0]) == 1:
        signs = [[i for i, v in enumerate(vectors, start=1) if (v[0] > 0) is positive] for positive in (True, False)]
        return signs if all(signs) else None
    members_of: dict[DiagramDirection, list[int]] = {}
    for i, v in enumerate(vectors, start=1):
        members_of.setdefault(primitive_direction(v), []).append(i)
    s = len(members_of)
    if s < 3 or s % 2 == 0:
        return None
    k = (s - 1) // 2
    ordered = sort_counterclockwise(members_of)
    if any(cross2(ordered[j], ordered[(j + k) % s]) <= 0 for j in range(s)):
        return None
    return [members_of[p] for p in ordered]


def _verified_classes(cert: Certificate, vectors: list[Vec]) -> bool:
    """Exact check that the vectors still encode the certificate's combinatorics.

    The direction classes must be standard and, in order, equal the
    certificate's slots up to rotation (slot 0 holds vertex 1): that pins
    down the symbolic diagram's face lattice for every vertex subset.
    """
    classes = _standard_classes(vectors)
    if classes is None:
        return False
    shift = next(j for j, labels in enumerate(classes) if 1 in labels)
    return classes[shift:] + classes[:shift] == [list(block) for block in cert.slots]


def realize_gale_vectors(cert: Certificate) -> GaleConfiguration:
    """Integer Gale vectors in Q^e, e = min(n, 3) - 1: (w_s L / |block s|) u_s for each vertex of block `cert.slots[s]`.

    L is the lcm of the block sizes, so every entry is an `int`; a uniform
    scale leaves the kernel that `reconstruct_points` reads unchanged.  Only
    u_s and w_s depend on n: u = () and w = 1 give the simplex (n = 1), u =
    (1,), (-1,) and w = 1, 1 the free sum of two simplices (Gruenbaum, Convex
    Polytopes, 6.1).  At odd n >= 3 the u_s, in counterclockwise order, are
    (1, 2i-k) for i = 0..k with weight k, then (-1, k-1-2j) for j = 0..k-1
    with weight k+1: no two are antipodal (the antipodes of the second group
    have the other parity), and they encode the regular polygon's face lattice
    (6.3).  The vectors sum to L sum_s w_s u_s = 0, checked in ints;
    `_verified_classes` confirms the classes and so the span.
    """
    m, n, k = cert.m, cert.n, cert.k
    directions, weights = ([()], [1]) if n == 1 else ([(1,), (-1,)], [1, 1])
    if n >= 3:
        directions = [(1, 2 * i - k) for i in range(k + 1)] + [(-1, k - 1 - 2 * j) for j in range(k)]
        weights = [k] * (k + 1) + [k + 1] * k
    scale = math.lcm(*map(len, cert.slots))
    vectors: list[tuple[int, ...]] = [()] * m
    for block, w, u in zip(cert.slots, weights, directions):
        factor = w * scale // len(block)
        y = tuple(factor * a for a in u)
        for v in block:
            vectors[v - 1] = y
    zero_sum = not any(sum(w * u[c] for w, u in zip(weights, directions)) for c in range(len(directions[0])))
    if not (zero_sum and _verified_classes(cert, vectors)):
        raise InternalInconsistency(f"integer directions for k = {k} fail the zero sum or the diagram check")
    return _built(GaleConfiguration, vectors=tuple(vectors))


def gale_transform(points: PointConfiguration) -> GaleConfiguration:
    """Rows of a kernel basis of the homogenized coordinate matrix.

    The configuration is built without the constructor's checks, which the
    construction proves: the basis vectors are independent, so the rows
    span, and each lies in the kernel of the all-ones row, so the rows sum
    to zero.
    """
    n, d = points.n, points.dim
    rows = [[p[r] for p in points.points] for r in range(d)]
    rows.append([1] * n)
    kern = kernel_basis(rows)
    if n - len(kern) < d + 1:
        raise NotAffinelySpanning(f"points do not affinely span Q^{d}")
    return _built(GaleConfiguration, vectors=tuple(tuple(b[i] for b in kern) for i in range(n)))


def reconstruct_points(g: GaleConfiguration) -> PointConfiguration:
    """Affinely spanning points in Q^{n-e-1} whose Gale transform spans like g.

    Point i is column i of the kernel basis of the configuration's
    coordinate rows (`linalg.kernel_basis`: 1 at its own free column, 0 at
    the others) without its last vector, which leaves a complement of the
    all-ones vector, the sum of the whole basis (zero sum).  Read off the
    fraction-free reduction, `det` times the rref, the point of the k-th
    free column is the k-th unit vector, or the origin for the last one,
    and that of the pivot column of row r has the homogeneous row
    (-red[r][free], det), divided by its gcd, with the sign that makes it
    the primitive row with last entry > 0 that `PointConfiguration` stores.
    The points skip the constructor's checks, which this proves: each has
    d >= 1 coordinates.
    """
    n, e = g.n, g.dim
    d = n - e - 1
    if d < 1:
        raise InvalidConfiguration(f"reconstruction needs n - e - 1 >= 1, got {d}")
    red, pivots, det, _ = _fraction_free_rref([_integer_row(v[coord] for v in g.vectors) for coord in range(e)])
    taken = set(pivots)
    free = [j for j in range(n) if j not in taken]
    rows: list[tuple[int, ...]] = [()] * n
    for k, j in enumerate(free):
        rows[j] = tuple(int(i == k) for i in range(d)) + (1,)
    for row, j in zip(red, pivots):
        h = [-row[f] for f in free[:d]] + [det]
        divisor = math.gcd(*h) if det > 0 else -math.gcd(*h)
        rows[j] = tuple(x // divisor for x in h)
    return _built(PointConfiguration, _rows=tuple(rows))


def dependence_from_direction(g: GaleConfiguration, alpha: Sequence) -> Vec:
    """lambda_i = <alpha, y_i>: an affine dependence of the reconstructed points."""
    a = vec(alpha)
    if len(a) != g.dim:
        raise ValueError(f"alpha must have dimension {g.dim}")
    if is_zero_vec(a):
        raise ZeroInput("alpha must be nonzero")
    lam = tuple(dot(a, y) for y in g.vectors)
    assert not is_zero_vec(lam)  # the y_i span, so some inner product is nonzero
    return lam


def direction_from_dependence(g: GaleConfiguration, lam: Sequence) -> Vec:
    """The unique alpha with <alpha, y_i> = lambda_i for all i."""
    weights = vec(lam)
    if len(weights) != g.n:
        raise ValueError(f"lambda must have one weight per vector ({g.n})")
    if is_zero_vec(weights):
        raise ZeroInput("lambda must be nonzero")
    alpha = solve([list(y) for y in g.vectors], weights)
    if alpha is None:
        raise InvalidConfiguration("lambda is not a dependence for this configuration")
    return alpha


def relint_origin_test(vectors: Iterable[Sequence]) -> bool:
    """Exact test: does the origin lie in relint(conv(vectors)) in the plane?

    True iff the vectors admit a strictly positive combination summing to
    zero: the nonzero ones positively span the plane, or they all lie on a
    line with both rays present, or everything is the zero vector.
    """
    vs = [vec(v) for v in vectors]
    if not vs:
        return False
    if any(len(v) != 2 for v in vs):
        raise ValueError("relint_origin_test expects planar vectors")
    nonzero = [v for v in vs if not is_zero_vec(v)]
    if not nonzero:
        return True
    classes = sorted({primitive_direction(v) for v in nonzero})
    if len(classes) == 1:
        return False
    if len(classes) == 2:
        a, b = classes
        return a == (-b[0], -b[1])
    ordered = sort_counterclockwise(classes)
    s = len(ordered)
    return all(cross2(ordered[i], ordered[(i + 1) % s]) > 0 for i in range(s))


def recover_nonfaces(g: GaleConfiguration) -> tuple[NonFaceFamily, Certificate] | None:
    """Read a sphere back off a configuration of dimension e <= 2, if it is one.

    Returns None unless the direction classes are standard (see
    `_standard_classes`) and, when there are at most three, every class
    carries at least two vectors.  The classes, in that order, are the
    slots (the blocks B_0, B_{-2}, ..., B_{-4k} in the plane), and members
    are rebuilt as unions of k consecutive blocks.  Those checks prove the
    certificate valid but for m, which `_family` checks.
    """
    if g.dim > 2:
        raise InvalidConfiguration("recover_nonfaces expects a configuration of dimension at most 2")
    classes = _standard_classes(g.vectors)
    if classes is None or (len(classes) <= 3 and any(len(c) < 2 for c in classes)):
        return None
    cert = _certificate(_blocks([sum(1 << (v - 1) for v in c) for c in classes]))
    return _family(cert), cert
