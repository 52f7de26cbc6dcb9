"""Helpers shared across the test modules."""

import itertools
import math
import random
from fractions import Fraction

from hypothesis import strategies as st

from oddsphere.complexes import Face, NonFaceFamily, SimplicialComplex
from oddsphere.gale import GaleConfiguration
from oddsphere.oracle import NonSimplicial, NotFullDimensional, PointConfiguration
from oddsphere.recognizer import MaxOddCycle, alternating_blocks


def random_family(rng: random.Random, m: int) -> NonFaceFamily:
    """A random valid non-face family on [m] (antichain, members of size >= 2)."""
    count = rng.randint(1, m)
    pool = []
    for _ in range(count):
        size = rng.randint(2, m)
        pool.append(tuple(sorted(rng.sample(range(1, m + 1), size))))
    minimal = [a for a in pool if not any(set(b) < set(a) for b in pool)]
    return NonFaceFamily(m, tuple(set(minimal)))


@st.composite
def nonface_families(draw, max_m: int = 10, min_members: int = 0, max_members: int = 10):
    """A non-face family: the inclusion-minimal sets among random subsets of [m]."""
    m = draw(st.integers(2, max_m))
    pool = draw(st.lists(
        st.frozensets(st.integers(1, m), min_size=2), min_size=min_members, max_size=max_members
    ))
    minimal = {tuple(sorted(a)) for a in pool if not any(b < a for b in pool)}
    return NonFaceFamily(m, tuple(minimal))


@st.composite
def simplicial_complexes(draw, max_m: int = 10):
    """A complex whose facets are the maximal sets among random faces and all singletons."""
    m = draw(st.integers(1, max_m))
    pool = draw(st.lists(st.frozensets(st.integers(1, m), min_size=1), max_size=m))
    faces = set(pool) | {frozenset({v}) for v in range(1, m + 1)}
    facets = tuple(tuple(sorted(a)) for a in faces if not any(a < b for b in faces))
    return SimplicialComplex(m, facets)


def random_fraction(rng: random.Random, span: int = 8) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_points(rng: random.Random, n: int, dim: int, span: int = 8) -> PointConfiguration:
    return PointConfiguration(
        tuple(tuple(random_fraction(rng, span) for _ in range(dim)) for _ in range(n))
    )


def random_gale_configuration(rng: random.Random, n: int, e: int) -> GaleConfiguration:
    """Random zero-sum spanning configuration of n vectors in Q^e."""
    while True:
        head = [tuple(random_fraction(rng) for _ in range(e)) for _ in range(n - 1)]
        tail = tuple(-sum(v[c] for v in head) for c in range(e))
        try:
            return GaleConfiguration(tuple(head) + (tail,))
        except ValueError:
            continue  # degenerate draw: does not span


# -- test-only references for the optimized kernels --------------------------

def reference_rref(matrix):
    """Gauss-Jordan over `Fraction`, pivoting on the first nonzero entry."""
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def reference_hull_facets(pc: PointConfiguration) -> tuple[Face, ...]:
    """`oracle.hull_facets` with one `Fraction` kernel vector per D-subset.

    Raises the same exceptions with the same messages: the printed normal
    is the kernel vector whose free-column entry is 1.
    """
    n, d = pc.n, pc.dim
    rows = [[p[r] for p in pc.points] for r in range(d)] + [[Fraction(1)] * n]
    if len(reference_rref(rows)[1]) < d + 1:
        raise NotFullDimensional(f"points span less than Q^{d}")
    facets = []
    for combo in itertools.combinations(range(1, n + 1), d):
        red, pivots = reference_rref([list(pc.points[i - 1]) + [Fraction(1)] for i in combo])
        if len(pivots) != d:
            continue
        free = next(c for c in range(d + 1) if c not in pivots)
        normal = [Fraction(0)] * (d + 1)
        normal[free] = Fraction(1)
        for r, col in enumerate(pivots):
            normal[col] = -red[r][free]
        pos = neg = False
        coplanar = []
        for i in range(1, n + 1):
            if i in combo:
                continue
            s = sum((a * x for a, x in zip(normal, pc.points[i - 1])), Fraction(0)) + normal[d]
            if s > 0:
                pos = True
            elif s < 0:
                neg = True
            else:
                coplanar.append(i)
        if pos and neg:
            continue
        if coplanar:
            raise NonSimplicial(
                f"supporting hyperplane {tuple(normal)} contains points "
                f"{tuple(sorted(set(combo) | set(coplanar)))}"
            )
        facets.append(tuple(combo))
    return tuple(sorted(facets))


def brute_force_canonical_certificate(ordering) -> MaxOddCycle:
    """The least (blocks, ordering) over all 2n dihedral variants, blocks recomputed per variant."""
    n = len(ordering)
    variants = [
        tuple(seq[r:] + seq[:r]) for seq in (list(ordering), list(reversed(ordering))) for r in range(n)
    ]
    blocks, best = min((alternating_blocks(seq), seq) for seq in variants)
    return MaxOddCycle(ordering=best, blocks=blocks)


def reference_betti_mod2(c: SimplicialComplex) -> tuple[int, ...]:
    """`oracle.betti_mod2` by dense GF(2) elimination on list-of-lists boundary matrices."""
    faces = {sub for f in c.facets for k in range(len(f) + 1) for sub in itertools.combinations(f, k)}
    groups = [sorted(f for f in faces if len(f) == s) for s in range(c.dimension + 2)]
    ranks = [0] * (len(groups) + 1)
    for s in range(1, len(groups)):
        index = {f: i for i, f in enumerate(groups[s - 1])}
        mat = [[0] * len(groups[s]) for _ in groups[s - 1]]
        for j, face in enumerate(groups[s]):
            for drop in range(s):
                mat[index[face[:drop] + face[drop + 1 :]]][j] = 1
        r = 0
        for col in range(len(groups[s])):
            pr = next((i for i in range(r, len(mat)) if mat[i][col]), None)
            if pr is None:
                continue
            mat[r], mat[pr] = mat[pr], mat[r]
            for i in range(r + 1, len(mat)):
                if mat[i][col]:
                    mat[i] = [x ^ y for x, y in zip(mat[i], mat[r])]
            r += 1
        ranks[s] = r
    return tuple(len(groups[s]) - ranks[s] - ranks[s + 1] for s in range(len(groups)))


def burnside_bracelet_count(m: int) -> int:
    """Odd-length bracelets of positive parts summing to m (parts >= 2 at length 3).

    Burnside's lemma over the dihedral group of each odd length n: a
    rotation by r fixes the sequences of period gcd(n, r), and each of the
    n reflections (n odd, so each axis passes through one part) fixes the
    palindromes around its axis.
    """

    def compositions(total: int, parts: int, least: int) -> int:
        free = total - parts * least
        return math.comb(free + parts - 1, parts - 1) if free >= 0 else 0

    count = 0
    for n in range(3, m + 1, 2):
        least = 2 if n == 3 else 1
        fixed = 0
        for r in range(n):
            period = math.gcd(n, r)
            if m % (n // period) == 0:
                fixed += compositions(m // (n // period), period, least)
        half = (n - 1) // 2
        for axis_part in range(least, m + 1):
            if (m - axis_part) % 2 == 0:
                fixed += n * compositions((m - axis_part) // 2, half, least)
        assert fixed % (2 * n) == 0
        count += fixed // (2 * n)
    return count
