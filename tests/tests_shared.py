"""Helpers shared across the test modules."""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Iterable, Sequence

from hypothesis import strategies as st

from oddsphere.catalog import canonical_bracelet
from oddsphere.complexes import (
    Face,
    InvariantError,
    NonFaceFamily,
    SimplicialComplex,
    _check_m,
    _clip,
    _face,
    euler_characteristic,
    f_vector,
)
from oddsphere.gale import GaleConfiguration, ZeroInput
from oddsphere.linalg import Matrix, rref
from oddsphere.oracle import (
    NonSimplicial,
    NotFullDimensional,
    PointConfiguration,
    betti_mod2,
    boundary_complex,
    is_pseudomanifold,
    sphere_betti_profile,
)
from oddsphere.recognizer import Certificate


def face_mask(face: Face) -> int:
    """The bitmask of a face (vertex v is bit v - 1), its labels unchecked."""
    bits = 0
    for v in face:
        bits |= 1 << (v - 1)
    return bits


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


@st.composite
def planted_twins(draw):
    """A non-face family and a complex, each with up to 4 twins planted, and the planted pairs.

    Each planting takes a vertex u and a fresh vertex v.  In the family, v
    joins every member that holds u, so u and v lie in the same members.
    Among the complex's facet complements, the swap image x - u + v of each
    complement x through u is added, so u and v have equal links.
    """
    fam = draw(nonface_families(max_m=8))
    members, fam_pairs = list(fam._masks), []
    for _ in range(draw(st.integers(0, 4))):
        m = fam.m + len(fam_pairs)
        u, v = 1 << draw(st.integers(0, m - 1)), 1 << m
        members = [x | v if x & u else x for x in members]
        fam_pairs.append(u | v)
    comp = draw(simplicial_complexes(max_m=8))
    complements, comp_pairs = [((1 << comp.m) - 1) ^ a for a in comp._masks], []
    for _ in range(draw(st.integers(0, 4))):
        m = comp.m + len(comp_pairs)
        u, v = 1 << draw(st.integers(0, m - 1)), 1 << m
        complements += [x ^ u | v for x in complements if x & u]
        comp_pairs.append(u | v)
    m = comp.m + len(comp_pairs)
    return (
        NonFaceFamily(fam.m + len(fam_pairs), tuple(map(_face, members))),
        SimplicialComplex(m, tuple(_face(((1 << m) - 1) ^ x) for x in complements)),
        fam_pairs,
        comp_pairs,
    )


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


def reference_dualization_limits(masks: Iterable[int], cap: int, per_set: int) -> bool:
    """Whether `complexes._minimal_transversals(masks, cap, per_set)` must refuse.

    Berge's antichain after each mask is the set of minimal transversals of
    the masks so far.  A mask that some of them miss is charged, vertex bit
    by vertex bit, one unit per kept transversal and one per missing one per
    kept transversal through the bit; the budget is `cap` * `per_set`.  The
    call refuses once the units pass the budget or the antichain passes `cap`.
    """
    masks = list(masks)
    antichain: set[int] = {0}
    work_left = cap * per_set
    for i, am in enumerate(masks):
        kept = [h for h in antichain if h & am]
        missing = len(antichain) - len(kept)
        if not missing:
            continue
        for v in range(am.bit_length()):
            if am >> v & 1:
                work_left -= len(kept) + missing * sum(1 for h in kept if h >> v & 1)
        antichain = reference_minimal_transversals(masks[: i + 1])
        if work_left < 0 or len(antichain) > cap:
            return True
    return False


def as_face(vertices: Iterable[int], m: int | None = None) -> Face:
    """Normalize an iterable of vertex labels into a sorted, duplicate-free face.

    A sort and an `isinstance` test per vertex: the reference for the
    one-pass check on masks that the constructors make (`complexes._row_mask`).
    """
    vs = tuple(sorted(vertices))
    for v in vs:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise InvariantError(f"vertex labels must be integers >= 1, got {v!r}")
    if len(set(vs)) != len(vs):
        raise InvariantError(f"duplicate vertex in face {vs}")
    if m is not None and vs and vs[-1] > m:
        raise InvariantError(f"face {vs} exceeds vertex count m={m}")
    return vs


def reference_complex_fields(m: int, rows) -> tuple[int, tuple[Face, ...]]:
    """(m, facets) as `SimplicialComplex` validated them through `as_face`; raises where it raised."""
    _check_m(m)
    facets = tuple(sorted({as_face(f, m) for f in rows}))
    if not facets:
        raise InvariantError("a complex needs at least one facet")
    reference_check_antichain(facets, "facets")
    if {v for f in facets for v in f} != set(range(1, m + 1)):
        raise InvariantError(f"facets must cover every vertex of [1, {m}] (every singleton is a face)")
    return m, facets


def reference_family_fields(m: int, rows) -> tuple[int, tuple[Face, ...]]:
    """(m, members) as `NonFaceFamily` validated them through `as_face`; raises where it raised."""
    _check_m(m)
    members = tuple(sorted({as_face(f, m) for f in rows}))
    for f in members:
        if len(f) < 2:
            raise InvariantError(f"non-face {f} has size < 2; singletons are always faces")
    reference_check_antichain(members, "non-face family members")
    return m, members


def reference_check_antichain(faces: Sequence[Face], what: str) -> None:
    """`complexes._check_antichain` testing every ordered pair of faces."""
    masks = [face_mask(f) for f in faces]
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            if i != j and a & b == a:
                raise InvariantError(
                    f"{what} must form an antichain: {faces[i]} is contained in {faces[j]}"
                )


# The exact-arithmetic helpers as they were before exact values passed
# through: each entry is wrapped in `Fraction` on every call.

def reference_vec(entries: Iterable) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in entries)


def reference_cross2(a: Sequence, b: Sequence) -> Fraction:
    """z-component of the cross product of two planar vectors."""
    return Fraction(a[0]) * Fraction(b[1]) - Fraction(a[1]) * Fraction(b[0])


def reference_integer_row(entries: Iterable) -> list[int]:
    """The row scaled by the lcm of its denominators: integer, same direction."""
    row = [Fraction(x) for x in entries]
    scale = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def reference_matrix_rank(matrix: Sequence[Sequence]) -> int:
    return len(rref(matrix)[1])


def reference_primitive_direction(v: Sequence) -> tuple[int, int]:
    """The primitive integer vector on the positive ray through v (v nonzero)."""
    x, y = Fraction(v[0]), Fraction(v[1])
    if x == 0 and y == 0:
        raise ZeroInput("the zero vector has no direction")
    scale = math.lcm(x.denominator, y.denominator)
    a, b = int(x * scale), int(y * scale)
    g = math.gcd(abs(a), abs(b))
    return a // g, b // g


def reference_fraction_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


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


def reference_fraction_free_rref(
    matrix: Sequence[list[int]],
) -> tuple[list[list[int]], list[int], int, int]:
    """`linalg._fraction_free_rref` rewriting every other row at every step."""
    rows = list(matrix)
    pivots: list[int] = []
    prev = 1
    swaps = 0
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            swaps ^= 1
        pivot_row = rows[r]
        p = pivot_row[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        pivots.append(c)
        prev = p
    return rows, pivots, prev, swaps


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
            shown = "(" + ", ".join(map(str, normal)) + ")"
            on = str(tuple(sorted(set(combo) | set(coplanar))))
            raise NonSimplicial(f"supporting hyperplane {_clip(shown)} contains points {_clip(on)}")
        facets.append(tuple(combo))
    return tuple(sorted(facets))


def reference_reconstruct_points(g: GaleConfiguration) -> tuple[tuple[Fraction, ...], ...]:
    """`gale.reconstruct_points` as it was built on `Fraction`s.

    Point i is column i of the kernel basis of the configuration's
    coordinate rows, without its last vector; each basis vector is 1 at its
    own free column and 0 at the other free ones.
    """
    n, e = g.n, g.dim
    red, pivots = reference_rref([[v[c] for v in g.vectors] for c in range(e)] or [[0] * n])
    basis = []
    for fc in (j for j in range(n) if j not in pivots):
        x = [Fraction(0)] * n
        x[fc] = Fraction(1)
        for row, col in zip(red, pivots):
            x[col] = -row[fc]
        basis.append(x)
    return tuple(tuple(b[i] for b in basis[:-1]) for i in range(n))


def reference_homogeneous_rows(points) -> tuple[tuple[int, ...], ...]:
    """Each point x of `Fraction`s as the integer row (L*x, L), L > 0 the lcm of its denominators."""
    rows = []
    for p in points:
        scale = math.lcm(*(x.denominator for x in p))
        rows.append(tuple(x.numerator * (scale // x.denominator) for x in p) + (scale,))
    return tuple(rows)


def reference_alternating_blocks(ordering) -> tuple[Face, ...]:
    """B_i = A_i & A_{i+2} & ... & A_{i+n-3} (indices mod n) of an odd cyclic ordering, as sets of labels."""
    n = len(ordering)
    return tuple(
        tuple(sorted(set.intersection(*(set(ordering[(i + 2 * j) % n]) for j in range((n - 1) // 2)))))
        for i in range(n)
    )


def reference_alternating_masks(members: Sequence[int]) -> list[int]:
    """`recognizer._alternating_masks` indexed mod n: B_i = A_i & A_{i+2} & ... & A_{i+n-3} of odd n >= 3 masks."""
    n = len(members)
    return [functools.reduce(operator.and_, (members[(i + 2 * j) % n] for j in range((n - 1) // 2))) for i in range(n)]


def reference_members(blocks: Sequence[int]) -> list[int]:
    """`recognizer._members` indexed mod n: A_i = B_i | B_{i-2} | ... | B_{i-2k+2}, k = max(1, (n-1)/2)."""
    n = len(blocks)
    return [functools.reduce(operator.or_, (blocks[(i - 2 * j) % n] for j in range(max(1, (n - 1) // 2))))
            for i in range(n)]


def canonical_certificate(ordering) -> tuple[tuple[Face, ...], tuple[Face, ...]]:
    """(blocks, ordering) of the dihedral variant whose block sequence is lexicographically least.

    The reference for the canonical form a `Certificate` keeps
    (`recognizer._canonical`): it takes any odd ordering as tuples and
    computes its blocks once; rotating the ordering by r rotates the blocks
    by r, and reversing it sends B_i to B_{(2-i) mod n}.
    """
    ordering = tuple(ordering)
    n = len(ordering)
    blocks = reference_alternating_blocks(ordering)
    rev_blocks = tuple(blocks[(2 - i) % n] for i in range(n))
    return min(
        (b[r:] + b[:r], seq[r:] + seq[:r])
        for b, seq in ((blocks, ordering), (rev_blocks, ordering[::-1]))
        for r in range(n)
    )


def assert_valid_and_canonical(cert: Certificate, m: int) -> None:
    """`cert` is valid on [m], checked again from its decoded views, and canonical.

    Its blocks partition [m] into 1, 2 or an odd number of blocks, each of
    size >= 2 when there are at most 3.  At n <= 2 the members are the
    blocks, in sorted order; at odd n >= 3 successive members are disjoint,
    their alternating intersections are the blocks, and (blocks, ordering)
    is `canonical_certificate` of the ordering.  Rebuilding it from its
    slots gives it back.
    """
    blocks, ordering, n = cert.blocks, cert.ordering, cert.n
    assert cert.m == m and sorted(v for b in blocks for v in b) == list(range(1, m + 1))
    assert n in (1, 2) or n % 2 == 1
    assert n > 3 or all(len(b) >= 2 for b in blocks)
    if n <= 2:
        assert ordering == blocks == tuple(sorted(blocks))
    else:
        assert not any(set(a) & set(b) for a, b in zip(ordering, ordering[1:] + ordering[:1]))
        assert reference_alternating_blocks(ordering) == blocks
        assert (blocks, ordering) == canonical_certificate(ordering)
    assert Certificate(m, cert.slots) == cert


def brute_force_canonical_certificate(ordering) -> tuple[tuple[Face, ...], tuple[Face, ...]]:
    """The least (blocks, ordering) over all 2n dihedral variants, blocks recomputed per variant."""
    n = len(ordering)
    variants = [
        tuple(seq[r:] + seq[:r]) for seq in (list(ordering), list(reversed(ordering))) for r in range(n)
    ]
    return min((reference_alternating_blocks(seq), seq) for seq in variants)


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


def reference_bracelets(m: int) -> list[tuple[int, ...]]:
    """`catalog.enumerate_bracelets` by brute force: the canonical form of every odd-length composition of m."""

    def compositions(total: int, parts: int, least: int):
        if parts == 1:
            if total >= least:
                yield (total,)
            return
        for first in range(least, total - least * (parts - 1) + 1):
            for rest in compositions(total - first, parts - 1, least):
                yield (first,) + rest

    out = set()
    for n in range(3, m + 1, 2):
        out.update(canonical_bracelet(c) for c in compositions(m, n, 2 if n == 3 else 1))
    return sorted(out, key=lambda b: (len(b), b))


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


def one_and_two_blocks(max_m: int) -> list[tuple[int, list[list[int]]]]:
    """(m, blocks) of the spheres with one or two blocks, 2 <= m <= max_m, up to relabelling.

    For each m: the simplex boundary's block [m], then the two-set
    partitions of [m] into blocks of consecutive labels, of sizes a <= m - a
    with a >= 2.
    """
    spheres = []
    for m in range(2, max_m + 1):
        spheres.append((m, [list(range(1, m + 1))]))
        spheres.extend((m, [list(range(1, a + 1)), list(range(a + 1, m + 1))]) for a in range(2, m // 2 + 1))
    return spheres


# -- `complexes`: face membership and relabelling ----------------------------

def is_face(c: SimplicialComplex, a: Iterable[int]) -> bool:
    """True iff `a` is contained in some facet of `c`."""
    am = face_mask(as_face(a, c.m))
    return any(am & face_mask(f) == am for f in c.facets)


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

def coface_test(cert: Certificate, a: Iterable[int]) -> bool:
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
