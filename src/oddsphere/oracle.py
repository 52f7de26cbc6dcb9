"""Independent oracles: exact hulls, homology mod 2, the pseudomanifold test.

The oracles answer geometric and topological questions from first principles
so the other modules can be checked against them.  The homology reads the
minimal non-faces, which `complexes` derives again from the facets, but
nothing here reads a Gale diagram.  Facet enumeration tests every D-subset
of the points by the signs of exact integer determinants: each point becomes
one integer homogeneous column, the matrix of these columns is reduced once,
and each orientation is computed once and shared by the D+1 subsets it
contains.  At small codimension n - D - 1, which every realized sphere has
(n = D+3), an orientation is the sign of a minor of the one reduction; at
large codimension it comes from an integer normal eliminated per subset,
since a normal serves all the orientations of its subset.
Homology is linear algebra over GF(2) on int bitsets, on the faces of the
complex or on the nerve of its minimal non-faces, whichever
`complexes.enumerate_chains` finds cheaper.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .complexes import Chains, Face, SimplicialComplex, _from_masks, _mask, enumerate_chains
from .linalg import Vec, _fraction_free_rref, _integer_row, vec


class NotFullDimensional(ValueError):
    """The points do not affinely span their ambient space."""


class NonSimplicial(ValueError):
    """Some supporting hyperplane contains more than D of the points."""


class InteriorPoint(ValueError):
    """Some labelled point is not a vertex of the hull."""


@dataclass(frozen=True)
class PointConfiguration:
    """Labelled points x_1, ..., x_n in Q^D; label i is points[i-1]."""

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

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return len(self.points[0])


def hull_facets(pc: PointConfiguration) -> tuple[Face, ...]:
    """Facets of the convex hull as sorted label tuples.

    Each D-subset S spanning a hyperplane is tested exactly: it is a facet
    iff every other point lies strictly on one side.  A supporting
    hyperplane through more than D points makes the hull non-simplicial,
    which is reported rather than guessed around.

    Point x becomes the integer row h = (L*x, L), with L > 0 the lcm of its
    denominators.  The side of p relative to S is the orientation chi(T)
    of T = S + {p}, the sign of the determinant of T's rows in label order,
    times (-1)^#{s in S : s > p}; S is a facet iff these signs agree and
    none is zero (the oriented-matroid facet criterion).  Orientations are
    memoized by the bitmask of T, since D+1 subsets share each one.

    The (D+1) x n matrix M whose columns are the rows h is reduced once;
    its rank decides `NotFullDimensional`.  What a memo miss computes
    depends only on the codimension c = n - D - 1:

    - c <= MINOR_MAX_CODIM: chi(T) is the sign of a minor of the reduced
      matrix of size at most min(c, D+1), times a global sign (see
      `_reduced_orientation`).
    - larger c: fraction-free elimination of S's rows gives an integer
      normal (a, b), <a, x> + b = 0 on the hyperplane, once per subset, and
      chi(T) = sign(<normal, h_p>) * (-1)^(D + free + swaps + #{s in S : s > p}),
      with `free` the non-pivot column and `swaps` the elimination's row
      swaps.  One normal serves all n - D orientations of its subset, which
      beats a large minor per orientation.
    """
    n, d = pc.n, pc.dim
    homogeneous = [_integer_row(p + (1,)) for p in pc.points]
    reduction = _fraction_free_rref([list(col) for col in zip(*homogeneous)])
    if len(reduction[1]) < d + 1:
        raise NotFullDimensional(f"points span less than Q^{d}")
    reduced = _reduced_orientation(*reduction) if n - d - 1 <= MINOR_MAX_CODIM else None
    bits = [1 << i for i in range(n)]
    chi: dict[int, int] = {}
    facets: list[Face] = []
    for combo in itertools.combinations(range(n), d):
        members = 0
        for i in combo:
            members |= bits[i]
        normal: list[int] | None = None
        pos = neg = False
        coplanar: list[int] = []
        reorder = -1 if d % 2 else 1  # (-1)^#{s in S : s > p}
        for p in range(n):
            if members & bits[p]:
                reorder = -reorder
                continue
            key = members | bits[p]
            side = chi.get(key)
            if side is not None:
                side *= reorder
            elif reduced is not None:
                side = chi[key] = reduced(sorted((*combo, p)))
                side *= reorder
            else:
                if normal is None:
                    normal, det, flip = _subset_normal(homogeneous, combo)
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
                coplanar.append(p + 1)
            if pos and neg:
                break  # cuts through the hull: coplanar points do not matter
        if pos == neg:
            continue  # cuts through the hull, or S is affinely dependent
        labels = tuple(i + 1 for i in combo)
        if coplanar:
            if normal is None:
                normal, det, _ = _subset_normal(homogeneous, combo)
            shown = tuple(Fraction(a, det) for a in normal)  # free-column entry 1
            raise NonSimplicial(
                f"supporting hyperplane {shown} contains points "
                f"{tuple(sorted(set(labels) | set(coplanar)))}"
            )
        facets.append(labels)
    return tuple(sorted(facets))


def _subset_normal(homogeneous: list[list[int]], combo: tuple[int, ...]):
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


# Largest codimension n - D - 1 at which `hull_facets` reads orientations
# off the global reduction.  Best-of-5 single-hull time of the minor path
# over that of the per-subset path on random points (BENCH_chirotope_hull.json):
# c = 2, 3: 0.13-0.84 for D = 2..8, 1.0 for D = 1;  c = 4: 0.20-0.71 for
# D = 3..8 but 1.06 for D = 2;  c = 6: 1.15-1.23 for D = 2, 3.
MINOR_MAX_CODIM = 3


def _reduced_orientation(red: list[list[int]], pivots: list[int], det: int, swaps: int):
    """chi(T) for sorted lists T of D+1 columns, from the full-rank reduction of M.

    With R the reduced matrix, M = M_P * R / det on the pivot columns P, and
    each pivot column of R is det times a unit column.  Expanding det R_T
    along the pivot columns in T (rows I, positions J within T) leaves the
    minor of R on the rows outside I and the columns of T outside P, so

        chi(T) = (-1)^swaps * sign(det)^(D+|T & P|) * (-1)^(sum I + sum J) * sign(minor),

    and D + |T & P| has the parity of k + 1, k = |T - P| <= c being the
    minor's size.
    """
    pivot_row = [-1] * len(red[0])
    for r, col in enumerate(pivots):
        pivot_row[col] = r
    all_rows = (1 << len(red)) - 1
    base = -1 if swaps else 1
    negative = det < 0

    def orientation(t: list[int]) -> int:
        sign = base
        used = 0
        free: list[int] = []
        for pos, j in enumerate(t):
            r = pivot_row[j]
            if r < 0:
                free.append(j)
            else:
                used |= 1 << r
                if (r + pos) & 1:
                    sign = -sign
        if negative and not len(free) % 2:
            sign = -sign
        rest = all_rows ^ used
        block = []
        while rest:
            low = rest & -rest
            row = red[low.bit_length() - 1]
            block.append([row[j] for j in free])
            rest ^= low
        return sign * _determinant_sign(block)

    return orientation


def _determinant_sign(block: list[list[int]]) -> int:
    """Sign of the determinant of a small square integer matrix (1 if empty)."""
    k = len(block)
    if k == 0:
        return 1
    if k == 1:
        x = block[0][0]
    elif k == 2:
        x = block[0][0] * block[1][1] - block[0][1] * block[1][0]
    else:
        _, pivots, x, swaps = _fraction_free_rref(block)
        if len(pivots) < k:
            return 0
        if swaps:
            x = -x
    return (x > 0) - (x < 0)


def boundary_complex(pc: PointConfiguration) -> SimplicialComplex:
    """The boundary complex of a simplicial hull with all points extremal.

    Once `hull_facets` has ruled out supporting hyperplanes through more
    than D points, each facet holds exactly its D vertices, so a point is
    a vertex exactly when it lies on some facet.  Those facets are distinct
    D-sets, an antichain, so the complex is not re-checked.
    """
    facets = hull_facets(pc)
    on_facets = {label for f in facets for label in f}
    for label in range(1, pc.n + 1):
        if label not in on_facets:
            raise InteriorPoint(f"point {label} is not a vertex of the hull")
    return _from_masks(SimplicialComplex, pc.n, [_mask(f) for f in facets], facets)


def betti_mod2(c: SimplicialComplex, chains: Chains | None = None) -> tuple[int, ...]:
    """Reduced Betti numbers over GF(2) for dimensions -1 .. d.

    A d-sphere has profile (0, ..., 0, 1); that is the necessary condition
    this oracle contributes.  `chains` is `complexes.enumerate_chains(c)`,
    computed here when not given: the faces of `c`, or the nerve N of the
    minimal non-faces, read by Alexander duality as b_i(c) = b_{m-i-3}(N)
    (see `complexes._nerve`).  No minimal non-face means the full simplex,
    which is acyclic.
    """
    d = c.dimension
    if d == c.m - 1:
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
