"""Independent oracles: exact hulls, homology mod 2, the pseudomanifold test.

The oracles answer geometric and topological questions from first principles
so the other modules can be checked against them.  The homology reads the
minimal non-faces, which `complexes` derives again from the facets, but
nothing here takes a Gale diagram as input.  A point configuration is
its points' primitive integer homogeneous rows, and the hull reads nothing
else: facet enumeration reduces the matrix whose columns are those rows
once, sparsest columns first, and keeps facets as bitmasks until they are
decoded into label tuples.  At codimension c = n - D - 1 <= 3, which every
realized sphere has (n = D+3), the facets are read off the kernel of that matrix,
a Gale transform recomputed from the coordinates alone: a D-subset is a
facet iff the c+1 kernel rows outside it have a strictly positive linear
dependence (Gale duality), and bitmasks of cofactor signs decide that for
many subsets at once.  The realized spheres meet the planar case c = 2,
where the rows g_i lie in the plane and D_jk*g_i - D_ik*g_j + D_ij*g_k = 0
for D_ij = det(g_i, g_j): one table of the signs of these determinants,
one bitmask per row, decides every D-subset, one AND per pair of rows
(`_planar_facets`).  At larger codimension each D-subset is tested by
the signs of exact integer determinants, computed from an integer normal
eliminated per subset and shared by the D+1 subsets each one belongs to.
Homology is linear algebra over GF(2) on int bitsets, on the faces of the
complex or on the nerve of its minimal non-faces, whichever
`complexes.enumerate_chains` finds cheaper.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import and_, mul, or_
from typing import Sequence

from .complexes import (
    MAX_HULL_WORK,
    Chains,
    EnumerationLimitError,
    Face,
    SimplicialComplex,
    _clip,
    _face,
    _from_masks,
    enumerate_chains,
)
from .linalg import Vec, _fraction_free_rref, vec


class NotFullDimensional(ValueError):
    """The points do not affinely span their ambient space."""


class NonSimplicial(ValueError):
    """Some supporting hyperplane contains more than D of the points."""


class InteriorPoint(ValueError):
    """Some labelled point is not a vertex of the hull."""


@dataclass(frozen=True, eq=False)
class PointConfiguration:
    """Labelled points x_1, ..., x_n in Q^D; label i is points[i-1].

    A configuration is its points' primitive integer homogeneous rows
    `_rows`: x becomes (L*x, L), L > 0 the lcm of its denominators, the one
    integer row on the ray of (x, 1) whose entries have gcd 1.  Equality and
    hashing compare the rows, and the hull reads only them.  The constructor
    checks its points and converts them once; a configuration the library
    derives is built from its rows by `complexes._built`, and its `points`,
    tuples of `Fraction`, are decoded the first time something reads them
    and kept in the instance __dict__.
    """

    points: tuple[Vec, ...]

    def __post_init__(self):
        pts = tuple(vec(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("a point configuration needs at least one point")
        dims = {len(p) for p in pts}
        if len(dims) != 1:
            raise ValueError(f"points of mixed dimensions {sorted(dims)}")
        if pts[0] == ():
            raise ValueError("points must live in dimension >= 1")
        rows = []
        for p in pts:
            scale = math.lcm(*(x.denominator for x in p))
            rows.append((*(x.numerator * (scale // x.denominator) for x in p), scale))
        object.__setattr__(self, "_rows", tuple(rows))

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __getattr__(self, name):  # called only for names missing from the instance __dict__
        if name != "points":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        pts = tuple(tuple(Fraction(a, row[-1]) for a in row[:-1]) for row in self._rows)
        object.__setattr__(self, "points", pts)
        return pts

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def dim(self) -> int:
        return len(self._rows[0]) - 1


def hull_facets(pc: PointConfiguration) -> tuple[Face, ...]:
    """Facets of the convex hull as sorted label tuples.

    A D-subset S spanning a hyperplane is a facet iff every other point
    lies strictly on one side.  A supporting hyperplane through more than D
    points makes the hull non-simplicial, which is reported, for the
    lexicographically least such S, rather than guessed around.
    """
    return tuple(sorted(map(_face, _facet_masks(pc))))


def _facet_masks(pc: PointConfiguration) -> list[int]:
    """The facets of `hull_facets` as bitmasks, unsorted.

    The (D+1) x n matrix M whose columns are the points' rows h = (L*x, L)
    (`PointConfiguration._rows`) is reduced once, its columns stably sorted
    most zeros first (Markowitz): on a realized polytope, n - 3 unit
    vectors and the origin, every pivot is then 1 and each step rewrites
    one row.  Its rank decides `NotFullDimensional`.  The rest depends on
    the codimension c = n - D - 1:

    - c <= MINOR_MAX_CODIM: the facets are read off the kernel of M (see
      `_kernel_facets`), with bitmask operations over the c-subsets of the
      points instead of a scan over the D-subsets; at c = 2 over pairs of
      points, from planar determinants (`_planar_facets`).
    - larger c: each D-subset is scanned, once a check made before any
      work finds the scan within `complexes.MAX_HULL_WORK` (else
      EnumerationLimitError).  The side of p relative to S is the
      orientation chi(T) of T = S + {p}, the sign of the determinant of
      T's rows in label order, times (-1)^#{s in S : s > p}; S is a facet
      iff these signs agree and none is zero (the oriented-matroid facet
      criterion).  Orientations are memoized by the bitmask of T, since D+1
      subsets share each one.  A memo miss eliminates S's rows,
      fraction-free, to an integer normal (a, b), <a, x> + b = 0 on the
      hyperplane, once per subset, and chi(T) = sign(<normal, h_p>) *
      (-1)^(D + free + swaps + #{s in S : s > p}), with `free` the
      non-pivot column and `swaps` the elimination's row swaps.
    """
    n, d = pc.n, pc.dim
    if n - d - 1 > MINOR_MAX_CODIM:
        work = math.comb(n, d) * (d * d + n - d)
        if work > MAX_HULL_WORK:
            raise EnumerationLimitError(
                f"too many hyperplanes to test: scanning the {d}-subsets of {n} points in Q^{d} takes "
                f"{_clip(str(work))} units of work, past the limit of {MAX_HULL_WORK}"
            )
    homogeneous = pc._rows
    order = sorted(range(n), key=lambda j: -homogeneous[j].count(0))
    red, pivots, det, _ = _fraction_free_rref([list(r) for r in zip(*(homogeneous[j] for j in order))])
    if len(pivots) < d + 1:
        raise NotFullDimensional(f"points span less than Q^{d}")
    if n - d - 1 <= MINOR_MAX_CODIM:
        return _kernel_facets(homogeneous, red, pivots, det, order)
    bits = [1 << i for i in range(n)]
    chi: dict[int, int] = {}
    facets: list[int] = []
    for combo in itertools.combinations(range(n), d):
        members = 0
        for i in combo:
            members |= bits[i]
        normal: list[int] | None = None
        pos = neg = coplanar = False
        reorder = -1 if d % 2 else 1  # (-1)^#{s in S : s > p}
        for p in range(n):
            if members & bits[p]:
                reorder = -reorder
                continue
            key = members | bits[p]
            side = chi.get(key)
            if side is not None:
                side *= reorder
            else:
                if normal is None:
                    normal, _, flip = _subset_normal(homogeneous, combo)
                    if normal is None:
                        break  # affinely dependent subset
                s = sum(map(mul, normal, homogeneous[p]))
                side = flip if s > 0 else -flip if s < 0 else 0
                chi[key] = side * reorder
            if side > 0:
                pos = True
            elif side < 0:
                neg = True
            else:
                coplanar = True
            if pos and neg:
                break  # cuts through the hull: coplanar points do not matter
        if pos == neg:
            continue  # cuts through the hull, or S is affinely dependent
        if coplanar:
            raise _non_simplicial(homogeneous, combo)
        facets.append(members)
    return facets


# Largest codimension n - D - 1 at which `hull_facets` reads the facets off
# the kernel of the point matrix; above it the cofactors have no closed form
# here, and the sign masks grow as C(n, c-1).  Time of the kernel path over
# that of the per-subset path, best of 5 over 20 random configurations
# (BENCH_sparse_hull.json; c = 2 from BENCH_planar_hull.json, which times
# the planar determinants), for D = 1, 2, 4, 6, 8:  c = 2: 0.62, 0.34, 0.13,
# 0.07, 0.03;  c = 3: 2.68, 0.70, 0.28, 0.16, 0.04;  c = 0, 1: 0.17-0.91.
# Only at c = 3 and D = 1 does the per-subset path win, and those hulls take
# under 0.2 ms on either path, so the cut stays at 3.
MINOR_MAX_CODIM = 3


def _kernel_facets(
    homogeneous: Sequence[Sequence[int]], red: list[list[int]], pivots: list[int], det: int, order: list[int]
) -> list[int]:
    """The facet masks, unsorted, from the full-rank reduction of M, for c <= 3.

    Column k of the reduction is point order[k].  Gale duality (Grünbaum,
    *Convex Polytopes*, 5.4): give point i the row g_i of an n x c matrix
    whose columns span ker M.  For a D-subset S with complement
    C = c_0 < ... < c_c, the values of S's hyperplane functional at the
    points lie in the row space of M, the orthogonal complement of ker M,
    and vanish on S; so on C they are a linear dependence of the g_j, and S
    is independent iff the g over C have rank c, which makes that
    dependence unique up to scale: lambda_j = (-1)^j det(g over C - c_j)
    (Cramer).  The sides of the points of C are then +-lambda, so S is a
    facet iff every lambda_j is nonzero and all have one sign, S is
    dependent iff every lambda_j is zero, and otherwise, when the nonzero
    ones agree, S supports a hyperplane through more than D points.
    Another basis of ker M flips all these signs or none, so any column
    order of the reduction will do.

    The rows come from the reduction: the point of the pivot column of row
    r gets -red[r][free columns] and that of the j-th free column det * e_j.
    At c = 2 they lie in the plane, and for C = {i, j, k}, i < j < k,
    Cramer's rule is the identity D_jk*g_i - D_ik*g_j + D_ij*g_k = 0 with
    D_ij = det(g_i, g_j), so lambda = (D_jk, -D_ik, D_ij): `_planar_facets`
    reads every S off the signs of the D_ij.  At c = 1 and 3, which no
    realized sphere meets, for each (c-1)-subset V, the cofactor vector
    w_V with <w_V, x> = det(g_V, x) gives two bitmasks, the z > max V with
    <w_V, g_z> > 0 and those with <w_V, g_z> < 0.  Write C = U + {z} with
    U a c-subset and z > max U.  Times the common sign (-1)^(c-1), lambda_c
    is -det(g_U), the bit of max U in the masks of U - max U, and the other
    lambda_j are (-1)^k <w_V, g_z>, V the k-th (c-1)-subset of U in lex
    order.  So ORing c masks tells, for every z at once, whether some
    lambda is positive, negative or zero; S is the complement of U + {z}.
    """
    n = len(homogeneous)
    c = n - len(pivots)
    full = (1 << n) - 1
    if c == 0:
        return [full ^ 1 << i for i in range(n)]  # a simplex
    taken = set(pivots)
    free = [j for j in range(n) if j not in taken]
    g: list[list[int]] = [[]] * n
    for j, col in enumerate(free):
        g[order[col]] = [det if k == j else 0 for k in range(c)]
    for row, col in zip(red, pivots):
        g[order[col]] = [-row[f] for f in free]
    if c == 2:
        return _planar_facets(homogeneous, g)
    signs: dict[tuple[int, ...], tuple[int, int]] = {}
    for v in itertools.combinations(range(n), c - 1):
        w = _cofactor([g[i] for i in v])
        pos = neg = 0
        for z in range(v[-1] + 1 if v else 0, n):
            s = sum(map(mul, w, g[z]))
            if s > 0:
                pos |= 1 << z
            elif s < 0:
                neg |= 1 << z
        signs[v] = pos, neg
    facets: list[int] = []
    offenders: list[int] = []
    for head_set in itertools.combinations(range(n), c - 1):
        # U = head_set + {b}: its first (c-1)-subset in lex order is head_set,
        # and the k-th after that drops head_set's (c-1-k)-th member and adds b.
        pos_h, neg_h = signs[head_set]
        zero_h = ~(pos_h | neg_h)
        drops = [head_set[:i] + head_set[i + 1:] for i in reversed(range(c - 1))]
        head = sum(1 << i for i in head_set)
        for b in range(head_set[-1] + 1 if head_set else 0, n):
            last = 1 << b
            some_pos = -1 if neg_h & last else pos_h
            some_neg = -1 if pos_h & last else neg_h
            some_zero = zero_h if (pos_h | neg_h) & last else -1
            for k, v in enumerate(drops, 1):
                pos, neg = signs[v + (b,)]
                if k & 1:
                    pos, neg = neg, pos
                some_pos |= pos
                some_neg |= neg
                some_zero |= ~(pos | neg)
            one_sign = (some_pos ^ some_neg) & full & -(last << 1)  # over z > b
            if not one_sign:
                continue
            outside = full ^ head ^ last
            for found, into in ((one_sign & ~some_zero, facets), (one_sign & some_zero, offenders)):
                while found:
                    z = found & -found
                    into.append(outside ^ z)
                    found ^= z
    if offenders:
        raise _non_simplicial(homogeneous, tuple(i - 1 for i in min(map(_face, offenders))))
    return facets


def _planar_facets(homogeneous: Sequence[Sequence[int]], g: list[list[int]]) -> list[int]:
    """The facet masks, unsorted, at c = 2 from the planar Gale rows g_i of `_kernel_facets`.

    The complement {i, j, k} of a D-subset, i < j < k, has
    lambda = (D_jk, -D_ik, D_ij), D_ij = det(g_i, g_j) (see
    `_kernel_facets`).  Row i's masks hold the k > i with D_ik > 0 (pos),
    < 0 (neg), >= 0 (nonneg) and <= 0 (nonpos).  So for each pair i < j one
    AND gives the k > j that make facets: pos[j] & neg[i] when D_ij > 0,
    neg[j] & pos[i] when D_ij < 0, none when D_ij = 0.  The same AND of the
    weak masks gives the k whose lambdas agree where nonzero and are not
    all 0: the facets and the supports through more than D points, the
    least of which raises NonSimplicial.  At D_ij = 0 those are the k with
    D_jk and -D_ik of one weak sign, not both 0.
    """
    n = len(g)
    full = (1 << n) - 1
    pos, neg, nonneg, nonpos = [0] * n, [0] * n, [0] * n, [0] * n
    for i, (a, b) in enumerate(g):
        p = q = 0
        for k in range(i + 1, n):
            x, y = g[k]
            s = a * y - b * x
            if s > 0:
                p |= 1 << k
            elif s < 0:
                q |= 1 << k
        above = full ^ ((2 << i) - 1)
        pos[i], neg[i], nonneg[i], nonpos[i] = p, q, above ^ q, above ^ p
    facets: list[int] = []
    offenders: list[int] = []
    for i in range(n - 2):
        pos_i, neg_i, nonneg_i, nonpos_i = pos[i], neg[i], nonneg[i], nonpos[i]
        for j in range(i + 1, n - 1):
            bit = 1 << j
            if pos_i & bit:
                found, weak = pos[j] & neg_i, nonneg[j] & nonpos_i
            elif neg_i & bit:
                found, weak = neg[j] & pos_i, nonpos[j] & nonneg_i
            else:  # lambda = (D_jk, -D_ik, 0)
                found = 0
                both_zero = nonneg[j] & nonpos[j] & nonneg_i & nonpos_i
                weak = (nonneg[j] & nonpos_i | nonpos[j] & nonneg_i) & ~both_zero
            outside = full ^ 1 << i ^ bit
            while weak:
                low = weak & -weak
                (facets if found & low else offenders).append(outside ^ low)
                weak ^= low
    if offenders:
        raise _non_simplicial(homogeneous, tuple(i - 1 for i in min(map(_face, offenders))))
    return facets


def _cofactor(rows: list[list[int]]) -> tuple[int, ...]:
    """w with <w, x> = det(rows, x), for no rows (c = 1) or two rows of length 3 (c = 3)."""
    if not rows:
        return (1,)
    a, b = rows
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _subset_normal(homogeneous: Sequence[Sequence[int]], combo: tuple[int, ...]):
    """(normal, det, flip) for the rows `combo`, or (None, 0, 0) if they are dependent.

    The normal is integer with free-column entry `det`, and
    flip = (-1)^(D + free + swaps) turns sign(<normal, h>) into the sign of
    the determinant of the subset's rows followed by h.
    """
    d = len(combo)
    red, pivots, det, swaps = _fraction_free_rref([homogeneous[i] for i in combo])
    if len(pivots) != d:
        return None, 0, 0
    free = next(c for c in range(d + 1) if c not in pivots)
    normal = [0] * (d + 1)
    normal[free] = det
    for row, col in zip(red, pivots):
        normal[col] = -row[free]
    return normal, det, -1 if (d + free + swaps) % 2 else 1


def _non_simplicial(homogeneous: Sequence[Sequence[int]], combo: tuple[int, ...]) -> NonSimplicial:
    """The error for the independent subset `combo`, whose hyperplane supports more points."""
    normal, det, _ = _subset_normal(homogeneous, combo)
    shown = "(" + ", ".join(str(Fraction(a, det)) for a in normal) + ")"  # free-column entry 1
    on = tuple(p + 1 for p, h in enumerate(homogeneous) if not sum(map(mul, normal, h)))
    return NonSimplicial(f"supporting hyperplane {_clip(shown)} contains points {_clip(str(on))}")


def boundary_complex(pc: PointConfiguration) -> SimplicialComplex:
    """The boundary complex of a simplicial hull with all points extremal.

    Once `hull_facets` has ruled out supporting hyperplanes through more
    than D points, each facet holds exactly its D vertices, so a point is
    a vertex exactly when it lies on some facet.  Those facets are distinct
    D-sets, an antichain, so the complex is built from their masks
    unchecked.
    """
    masks = _facet_masks(pc)
    missing = (1 << pc.n) - 1 & ~reduce(or_, masks, 0)
    if missing:
        raise InteriorPoint(f"point {(missing & -missing).bit_length()} is not a vertex of the hull")
    return _from_masks(SimplicialComplex, pc.n, masks)


def betti_mod2(c: SimplicialComplex, chains: Chains | None = None) -> tuple[int, ...]:
    """Reduced Betti numbers over GF(2) for dimensions -1 .. d.

    A d-sphere has profile (0, ..., 0, 1); that is the necessary condition
    this oracle contributes.  `chains` is `complexes.enumerate_chains(c)`,
    computed here when not given: the faces of `c`, or the nerve N of the
    minimal non-faces, read by Alexander duality as b_i(c) = b_{m-i-3}(N)
    (see `complexes._nerve`).  A vertex in every facet is in no minimal
    non-face, so the complex is a cone over it, and acyclic: the full
    simplex among them.  That is answered before any enumeration, since
    the nerve of a cone is a full simplex, the worst case per face.
    """
    d = c.dimension
    if reduce(and_, c._masks):
        return (0,) * (d + 2)
    if chains is None:
        chains = enumerate_chains(c)
    betti = _reduced_betti(chains.groups)  # betti[j + 1] = b_j
    if chains.nerve_tally is None:
        return tuple(betti)
    shift = c.m - 2
    return tuple(betti[shift - i] if shift - i < len(betti) else 0 for i in range(-1, d + 1))


def _reduced_betti(groups: list[list[int]]) -> list[int]:
    """Reduced GF(2) Betti numbers of the complex whose faces of size s are the bitmasks groups[s].

    Entry s is the Betti number in dimension s - 1.  Each boundary column
    is an int whose bits index the faces one size down, and its rank is
    that of an XOR basis keyed by leading bit.
    """
    ranks = [0] * (len(groups) + 1)  # ranks[s] = rank of boundary C_{s-1} -> C_{s-2}
    for s in range(1, len(groups)):
        index = {f: i for i, f in enumerate(groups[s - 1])}
        basis: dict[int, int] = {}  # leading bit -> reduced column
        for face in groups[s]:
            col = 0
            rest = face
            while rest:
                bit = rest & -rest
                col |= 1 << index[face ^ bit]
                rest ^= bit
            while col:
                lead = col.bit_length() - 1
                if lead not in basis:
                    basis[lead] = col
                    break
                col ^= basis[lead]
        ranks[s] = len(basis)
    return [len(groups[s]) - ranks[s] - ranks[s + 1] for s in range(len(groups))]


def sphere_betti_profile(d: int) -> tuple[int, ...]:
    return tuple(0 for _ in range(d + 1)) + (1,)


def is_pseudomanifold(c: SimplicialComplex) -> bool:
    """Pure, every ridge in exactly two facets, facet graph connected."""
    d = c.dimension
    facets = c._masks
    if any(fm.bit_count() != d + 1 for fm in facets):
        return False
    ridges: dict[int, list[int]] = {}  # ridge mask -> facets containing it
    for fi, fm in enumerate(facets):
        rest = fm
        while rest:
            bit = rest & -rest
            ridges.setdefault(fm ^ bit, []).append(fi)
            rest ^= bit
    neighbors: list[list[int]] = [[] for _ in facets]
    for fs in ridges.values():
        if len(fs) != 2:
            return False
        neighbors[fs[0]].append(fs[1])
        neighbors[fs[1]].append(fs[0])
    seen = {0}
    frontier = [0]
    while frontier:
        for nb in neighbors[frontier.pop()]:
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return len(seen) == len(facets)
