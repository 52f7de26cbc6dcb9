"""Helpers shared across the test modules."""

import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, Sequence

from hypothesis import strategies as st

from oddsphere.complexes import (
    Face,
    InvariantError,
    NonFaceFamily,
    SimplicialComplex,
    _mask,
    as_face,
    euler_characteristic,
    f_vector,
)
from oddsphere.gale import GaleConfiguration
from oddsphere.linalg import Matrix
from oddsphere.oracle import (
    NonSimplicial,
    NotFullDimensional,
    PointConfiguration,
    betti_mod2,
    boundary_complex,
    is_pseudomanifold,
    sphere_betti_profile,
)
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

def _antichain_minima(masks: Iterable[int]) -> set[int]:
    by_size = sorted(set(masks), key=lambda x: (x.bit_count(), x))
    keep: list[int] = []
    for cand in by_size:
        if not any(cand & k == k for k in keep):
            keep.append(cand)
    return set(keep)


def reference_minimal_transversals(masks: Iterable[int]) -> set[int]:
    """`complexes._minimal_transversals` by Berge's sequential dualization.

    Masks are absorbed one at a time; after each step the partial
    transversals are pruned back to an antichain.
    """
    transversals: set[int] = {0}
    for am in masks:
        nxt: set[int] = set()
        for t in transversals:
            if t & am:
                nxt.add(t)
            else:
                rest = am
                while rest:
                    bit = rest & -rest
                    nxt.add(t | bit)
                    rest ^= bit
        transversals = _antichain_minima(nxt)
    return transversals


def reference_check_antichain(faces: Sequence[Face], what: str) -> None:
    """`complexes._check_antichain` testing every ordered pair of faces."""
    masks = [_mask(f) for f in faces]
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            if i != j and a & b == a:
                raise InvariantError(
                    f"{what} must form an antichain: {faces[i]} is contained in {faces[j]}"
                )


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


# -- `complexes`: face membership and relabelling ----------------------------

def is_face(c: SimplicialComplex, a: Iterable[int]) -> bool:
    """True iff `a` is contained in some facet of `c`."""
    am = _mask(as_face(a, c.m))
    return any(am & _mask(f) == am for f in c.facets)


def permuted(c: SimplicialComplex, perm: dict[int, int]) -> SimplicialComplex:
    """Relabel vertices of a complex by a bijection of [1, m]."""
    return SimplicialComplex(c.m, tuple(as_face(perm[v] for v in f) for f in c.facets))


def permuted_family(f: NonFaceFamily, perm: dict[int, int]) -> NonFaceFamily:
    return NonFaceFamily(f.m, tuple(as_face(perm[v] for v in a) for a in f.members))


# -- `catalog`: the isomorphism search behind the Perles correspondence ------

def _vertex_signature(c: SimplicialComplex, v: int) -> tuple[tuple[int, int], ...]:
    counts: dict[int, int] = {}
    for f in c.facets:
        if v in f:
            counts[len(f)] = counts.get(len(f), 0) + 1
    return tuple(sorted(counts.items()))


def are_isomorphic(c1: SimplicialComplex, c2: SimplicialComplex) -> bool:
    """Backtracking search for a vertex bijection mapping facets onto facets."""
    if c1.m != c2.m or len(c1.facets) != len(c2.facets):
        return False
    if sorted(len(f) for f in c1.facets) != sorted(len(f) for f in c2.facets):
        return False
    if f_vector(c1) != f_vector(c2):
        return False
    sig1 = {v: _vertex_signature(c1, v) for v in range(1, c1.m + 1)}
    sig2 = {v: _vertex_signature(c2, v) for v in range(1, c2.m + 1)}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return False
    facet_set2 = set(c2.facets)
    # rarest signatures first shrinks the branching factor
    order = sorted(range(1, c1.m + 1), key=lambda v: (sum(1 for u in sig1 if sig1[u] == sig1[v]), v))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def feasible(v: int) -> bool:
        for f in c1.facets:
            if v not in f:
                continue
            img = tuple(sorted(mapping[u] for u in f if u in mapping))
            if not any(set(img) <= set(g) for g in facet_set2):
                return False
        return True

    def extend(idx: int) -> bool:
        if idx == len(order):
            images = {tuple(sorted(mapping[u] for u in f)) for f in c1.facets}
            return images == facet_set2
        v = order[idx]
        for w in range(1, c2.m + 1):
            if w in used or sig2[w] != sig1[v]:
                continue
            mapping[v] = w
            used.add(w)
            if feasible(v) and extend(idx + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return extend(0)


# -- `linalg` and `oracle`: the vertex test by a `Fraction` phase-1 simplex --

def _copy(matrix: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in matrix]


def linear_feasible_nonneg(matrix: Sequence[Sequence], rhs: Sequence) -> bool:
    """Decide whether A x = b has a solution with x >= 0 (componentwise).

    Exact phase-1 simplex with Bland's rule, so it terminates and never
    sees rounding error.  Sizes here are tiny (tens of rows/columns).
    """
    a = _copy(matrix)
    b = [Fraction(x) for x in rhs]
    m = len(a)
    n = len(a[0]) if m else 0
    if m == 0:
        return True
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    # tableau columns: n originals, m artificials, rhs
    tab = [a[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    # cost row for minimizing the artificial sum, with basic columns zeroed out
    cost = [Fraction(0)] * (n + m + 1)
    for j in range(n + m):
        cost[j] = Fraction(int(j >= n))
    for i in range(m):
        for j in range(n + m + 1):
            cost[j] -= tab[i][j]
    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        best: tuple[Fraction, int, int] | None = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                key = (ratio, basis[i], i)
                if best is None or key < best:
                    best = key
        if best is None:
            # unbounded cannot happen in phase 1 (objective bounded below by 0)
            raise RuntimeError("phase-1 simplex reported an unbounded objective")
        _, _, leave = best
        pv = tab[leave][enter]
        tab[leave] = [x / pv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        f = cost[enter]
        if f != 0:
            cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter
    return -cost[-1] == 0


def is_vertex(pc: PointConfiguration, label: int) -> bool:
    """True iff x_label is not a convex combination of the other points."""
    if not 1 <= label <= pc.n:
        raise ValueError(f"label {label} out of range 1..{pc.n}")
    others = [pc.points[i] for i in range(pc.n) if i != label - 1]
    if not others:
        return True
    cols = [list(p) + [Fraction(1)] for p in others]
    matrix = [[cols[j][r] for j in range(len(others))] for r in range(pc.dim + 1)]
    rhs = list(pc.points[label - 1]) + [Fraction(1)]
    return not linear_feasible_nonneg(matrix, rhs)


# -- `oracle`: sphere ground truth in dimension <= 2, witnesses above --------

def _is_single_cycle(edges: list[Face], vertices: set[int]) -> bool:
    if any(len(e) != 2 for e in edges):
        return False
    if len(edges) != len(vertices) or len(vertices) < 3:
        return False
    degree: dict[int, int] = {v: 0 for v in vertices}
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
        adj[a].append(b)
        adj[b].append(a)
    if any(deg != 2 for deg in degree.values()):
        return False
    start = next(iter(vertices))
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for nb in adj[cur]:
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return seen == vertices


def vertex_link_edges(c: SimplicialComplex, v: int) -> list[Face]:
    """Edges of the link of v in a 2-dimensional pure complex."""
    return [tuple(u for u in f if u != v) for f in c.facets if v in f]


def ground_truth_sphere(
    c: SimplicialComplex, witnesses: tuple[PointConfiguration, ...] = ()
) -> bool | None:
    """Definitive sphere answer where one is available; None if undetermined.

    Dimensions 0..2 are decided combinatorially.  In higher dimension a
    witness point configuration whose boundary complex equals `c` decides
    positively; failing the pseudomanifold or homology necessary
    conditions decides negatively; anything else stays undetermined.
    """
    d = c.dimension
    if d == 0:
        return c.m == 2 and len(c.facets) == 2
    if d == 1:
        return _is_single_cycle(list(c.facets), set(range(1, c.m + 1)))
    if d == 2:
        if not is_pseudomanifold(c) or euler_characteristic(c) != 2:
            return False
        for v in range(1, c.m + 1):
            edges = vertex_link_edges(c, v)
            if not _is_single_cycle(edges, {u for e in edges for u in e}):
                return False
        return True
    for w in witnesses:
        if boundary_complex(w) == c:
            return True
    if not is_pseudomanifold(c):
        return False
    if betti_mod2(c) != sphere_betti_profile(d):
        return False
    return None


# -- `gale`: the face test read off a certificate's polygon slots ------------

def coface_test(cert: MaxOddCycle, a: Iterable[int]) -> bool:
    """True iff the slots missed by `a` never fit inside k+1 consecutive slots.

    Equivalent to: the vertices of `a` span a proper face of the realized
    polytope, i.e. `a` is a face of the complex the certificate encodes.
    """
    inside = set(a)
    comp_slots = {j for j, block in enumerate(cert.slots) if any(v not in inside for v in block)}
    n = cert.n
    for start in range(n):
        arc = {(start + t) % n for t in range(cert.k + 1)}
        if comp_slots <= arc:
            return False
    return True
