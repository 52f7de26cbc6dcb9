"""Gale transforms, diagrams, the integer realization, and the readback."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests_shared import (
    assert_valid_and_canonical,
    coface_test,
    face_mask,
    is_face,
    is_vertex,
    linear_feasible_nonneg,
    one_and_two_blocks,
    permuted_family,
    random_gale_configuration,
    random_points,
    reference_alternating_blocks,
)

from oddsphere.catalog import enumerate_bracelets, instantiate
from oddsphere.complexes import (
    MAX_VERTICES,
    InvariantError,
    NonFaceFamily,
    complex_from_nonfaces,
)
from oddsphere.gale import (
    GaleConfiguration,
    InvalidConfiguration,
    NotAffinelySpanning,
    ZeroInput,
    _standard_classes,
    _verified_classes,
    dependence_from_direction,
    direction_from_dependence,
    gale_transform,
    primitive_direction,
    realize_gale_vectors,
    reconstruct_points,
    recover_nonfaces,
    relint_origin_test,
)
from oddsphere.linalg import matrix_rank
from oddsphere.oracle import PointConfiguration, boundary_complex, hull_facets
from oddsphere.recognizer import (
    Certificate,
    Sphere,
    _blocks,
    _certificate,
    cycle_complex,
    find_max_odd_cycle,
    recognize,
)

PENTAGON = NonFaceFamily(5, ((1, 4), (2, 5), (1, 3), (2, 4), (3, 5)))
OCTAHEDRON = NonFaceFamily(6, ((1, 2), (3, 4), (5, 6)))


def pentagon_certificate():
    cert = find_max_odd_cycle(PENTAGON)
    assert cert is not None
    return cert


def octahedron_certificate():
    cert = find_max_odd_cycle(OCTAHEDRON)
    assert cert is not None
    return cert


def relint_oracle(vectors) -> bool:
    """Independent exact oracle: a strictly positive dependence exists.

    0 in relint(conv V) iff some lambda >= 1 has sum(lambda_i v_i) = 0,
    via the substitution mu = lambda - 1 >= 0.
    """
    vs = [tuple(Fraction(x) for x in v) for v in vectors]
    if not vs:
        return False
    matrix = [[v[c] for v in vs] for c in range(2)]
    rhs = [-sum(v[c] for v in vs) for c in range(2)]
    return linear_feasible_nonneg(matrix, rhs)


# -- polygon slots and the combinatorial face test -----------------------------

def test_diagram_from_pentagon_certificate():
    # slots 0..4 carry vertices 1, 4, 2, 5, 3
    assert pentagon_certificate().slots == ((1,), (4,), (2,), (5,), (3,))


def test_diagram_from_octahedron_certificate():
    assert octahedron_certificate().slots == ((1, 2), (3, 4), (5, 6))


def test_slots_round_trip_on_every_bracelet():
    for m in range(4, 13):
        for b in enumerate_bracelets(m):
            _, cert = instantiate(b)
            assert Certificate(m, cert.slots) == cert
            assert tuple(len(s) for s in cert.slots) == b


def test_coface_test_pentagon():
    cert = pentagon_certificate()
    assert coface_test(cert, (1, 2))       # an edge of the 5-cycle
    assert not coface_test(cert, (1, 3))   # a minimal non-face
    assert not coface_test(cert, (1, 2, 3, 4, 5))  # [m] is never a proper face


def test_coface_test_matches_complex_exhaustively():
    for fam in (PENTAGON, OCTAHEDRON):
        cert = find_max_odd_cycle(fam)
        comp = complex_from_nonfaces(fam)
        for size in range(fam.m + 1):
            for a in itertools.combinations(range(1, fam.m + 1), size):
                assert coface_test(cert, a) == is_face(comp, a)


# -- realization ---------------------------------------------------------------

def test_realize_pentagon_vectors():
    g = realize_gale_vectors(pentagon_certificate())
    assert g.n == 5 and g.dim == 2
    assert len({primitive_direction(v) for v in g.vectors}) == 5


def test_realize_octahedron_vectors_pair_up():
    g = realize_gale_vectors(octahedron_certificate())
    assert g.n == 6
    classes = {}
    for i, v in enumerate(g.vectors, start=1):
        classes.setdefault(primitive_direction(v), []).append(i)
    assert sorted(tuple(v) for v in classes.values()) == [(1, 2), (3, 4), (5, 6)]


def test_realized_configuration_sums_to_zero():
    for fam in (PENTAGON, OCTAHEDRON):
        g = realize_gale_vectors(find_max_odd_cycle(fam))
        assert all(sum(v[c] for v in g.vectors) == 0 for c in range(2))


def fraction_gale_vectors(cert):
    """The realization in its `Fraction` form: (w_s / |block s|) u_s for each vertex of slot s."""
    k = cert.k
    directions = [(1, 2 * i - k) for i in range(k + 1)] + [(-1, k - 1 - 2 * j) for j in range(k)]
    weights = [k] * (k + 1) + [k + 1] * k
    vectors = [None] * sum(map(len, cert.blocks))
    for block, w, u in zip(cert.slots, weights, directions):
        for v in block:
            vectors[v - 1] = tuple(Fraction(w, len(block)) * x for x in u)
    return GaleConfiguration(vectors)


def test_realized_vectors_are_ints_with_the_points_of_the_fraction_form():
    for m in range(4, 13):
        for b in enumerate_bracelets(m):
            _, cert = instantiate(b)
            g = realize_gale_vectors(cert)
            assert all(type(x) is int for v in g.vectors for x in v)
            assert all(sum(v[c] for v in g.vectors) == 0 for c in range(2))
            assert reconstruct_points(g) == reconstruct_points(fraction_gale_vectors(cert))


def test_realize_one_vertex_per_slot_for_every_k():
    for k in range(1, 41):
        n = 2 * k + 1
        # a 3-cycle needs blocks of size >= 2, so k = 1 doubles every slot
        slots = [(j + 1,) for j in range(n)] if k > 1 else [(1, 2), (3, 4), (5, 6)]
        m = sum(len(s) for s in slots)
        # past MAX_VERTICES the constructor refuses m, so the unchecked builder makes the certificate
        g = realize_gale_vectors(_certificate(_blocks([face_mask(s) for s in slots])))
        assert all(sum(v[c] for v in g.vectors) == 0 for c in range(2))
        if m > MAX_VERTICES:
            continue  # no NonFaceFamily to read back
        # member A_i is the union of k cyclically consecutive slots
        expected = NonFaceFamily(m, tuple(
            tuple(sorted(v for i in range(k) for v in slots[(j + i) % n])) for j in range(n)
        ))
        recovered = recover_nonfaces(g)
        assert recovered is not None and recovered[0] == expected


def test_readback_refuses_a_configuration_of_more_than_max_vertices_vectors():
    # 65 one-vertex slots realize, but their certificate would have m = 65 > MAX_VERTICES
    g = realize_gale_vectors(_certificate([1 << v for v in range(MAX_VERTICES + 1)]))
    with pytest.raises(InvariantError, match=f"m={MAX_VERTICES + 1} exceeds {MAX_VERTICES}"):
        recover_nonfaces(g)


def test_realize_every_rotation_and_reflection_of_the_ordering():
    # the slots of any rotation or reflection, label 1 in any slot, build one certificate
    for fam in (PENTAGON, OCTAHEDRON, instantiate((2, 1, 1, 1, 1))[0]):
        ordering = find_max_odd_cycle(fam).ordering
        n = len(ordering)
        for r in range(n):
            for turned in (ordering[r:] + ordering[:r], tuple(reversed(ordering[r:] + ordering[:r]))):
                blocks = reference_alternating_blocks(turned)
                g = realize_gale_vectors(Certificate(fam.m, [blocks[-2 * j % n] for j in range(n)]))
                recovered = recover_nonfaces(g)
                assert recovered is not None and recovered[0] == fam


def test_realized_coordinates_stay_small():
    for m in range(5, 11):
        for b in enumerate_bracelets(m):
            _, cert = instantiate(b)
            pts = reconstruct_points(realize_gale_vectors(cert))
            for x in (x for p in pts.points for x in p):
                assert x.numerator.bit_length() < 16 and x.denominator.bit_length() < 16, (b, x)


@pytest.mark.parametrize("m, slots, reason", [
    pytest.param(8, ((1, 2), (3, 4), (5, 6), (7, 8)), "odd number", id="even-length-ordering"),
    # an empty block: the members ((1, 4), (2,), (1, 3), (2, 4), (3,)) are successively disjoint
    pytest.param(5, ((1,), (4,), (2,), (), (3,)), "do not partition", id="blocks-not-a-partition"),
    # a singleton non-face would be a missing vertex, so no sphere has this family
    pytest.param(5, ((1,), (2, 3), (4, 5)), "size >= 2", id="three-cycle-with-singleton-block"),
    pytest.param(5, ((1,), (2, 3, 4, 5)), "size >= 2", id="two-partition-with-singleton-block"),
])
def test_realize_rejects_malformed_certificates(m, slots, reason):
    with pytest.raises(ValueError, match=reason):
        realize_gale_vectors(Certificate(m, slots))


@pytest.mark.parametrize("slots, vectors, points", [
    # the simplex boundary: m zero vectors in Q^0, the vertices of a simplex
    pytest.param(((1, 2, 3),), ((),) * 3, ((1, 0), (0, 1), (0, 0)), id="simplex-boundary"),
    # a two-set partition: its blocks on the two rays of a line, the free sum of two simplices
    pytest.param(((1, 2), (3, 4, 5)), ((3,), (3,), (-2,), (-2,), (-2,)),
                 ((-1, Fraction(2, 3), Fraction(2, 3)), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)),
                 id="two-partition"),
])
def test_realize_gale_vectors_of_one_and_two_blocks(slots, vectors, points):
    cert = Certificate(sum(map(len, slots)), slots)
    g = realize_gale_vectors(cert)
    assert g.vectors == vectors and g.dim == len(slots) - 1
    pc = reconstruct_points(g)
    assert pc.points == points
    assert boundary_complex(pc) == complex_from_nonfaces(NonFaceFamily(cert.m, slots))
    assert recover_nonfaces(g) == (NonFaceFamily(cert.m, slots), cert)


def test_readback_certificates_are_valid_and_canonical():
    for m in range(4, 13):
        for b in enumerate_bracelets(m):
            _, cert = instantiate(b)
            recovered = recover_nonfaces(realize_gale_vectors(cert))
            assert recovered is not None
            assert_valid_and_canonical(recovered[1], m)
            assert recovered[1] == cert


# -- transform and reconstruction ----------------------------------------------

def test_gale_transform_collinear_points():
    pts = PointConfiguration(((0,), (1,), (2,)))
    g = gale_transform(pts)
    assert g.dim == 1
    y = [v[0] for v in g.vectors]
    # unique kernel direction up to scale: (1, -2, 1)
    assert y[0] != 0 and (y[1] / y[0], y[2] / y[0]) == (-2, 1)


def test_gale_transform_simplex_is_empty():
    pts = PointConfiguration(((0, 0), (1, 0), (0, 1)))
    g = gale_transform(pts)
    assert g.dim == 0 and g.n == 3


def test_gale_transform_equals_the_checked_configuration():
    # gale_transform skips the constructor's checks; on every polytope of
    # catalog(9), and on random points, its output passes them and is equal.
    polytopes = [reconstruct_points(realize_gale_vectors(instantiate(b)[1])) for b in enumerate_bracelets(9)]
    assert len(polytopes) == 18
    rng = random.Random(31339)
    polytopes += [random_points(rng, rng.randint(4, 8), rng.choice((2, 3))) for _ in range(40)]
    for pts in polytopes:
        try:
            g = gale_transform(pts)
        except NotAffinelySpanning:
            continue
        assert g == GaleConfiguration(g.vectors)


def test_reconstruct_points_equals_the_checked_configuration():
    # reconstruct_points skips the constructor's checks; on every polytope
    # of catalog(9), and on random configurations, its output passes them.
    configs = [realize_gale_vectors(instantiate(b)[1]) for b in enumerate_bracelets(9)]
    rng = random.Random(31340)
    for _ in range(60):
        e = rng.randint(0, 3)
        configs.append(random_gale_configuration(rng, rng.randint(e + 2, 9), e))
    for g in configs:
        pts = reconstruct_points(g)
        assert pts == PointConfiguration(pts.points) and pts.dim == g.n - g.dim - 1
        assert all(type(x) is Fraction for p in pts.points for x in p)


def test_gale_transform_rejects_flat_points():
    with pytest.raises(NotAffinelySpanning):
        gale_transform(PointConfiguration(((0, 0), (1, 1), (2, 2))))


def test_reconstruct_collinear_configuration():
    g = GaleConfiguration(((Fraction(1),), (Fraction(-2),), (Fraction(1),)))
    pts = reconstruct_points(g)
    assert pts.dim == 1 and pts.n == 3
    back = gale_transform(pts)
    stacked = [[v[0], w[0]] for v, w in zip(g.vectors, back.vectors)]
    assert matrix_rank(stacked) == 1  # same column space


def test_reconstruct_pentagon_is_convex_pentagon():
    g = realize_gale_vectors(pentagon_certificate())
    pts = reconstruct_points(g)
    assert pts.dim == 2 and pts.n == 5
    assert all(is_vertex(pts, label) for label in range(1, 6))
    facets = hull_facets(pts)
    assert len(facets) == 5
    assert boundary_complex(pts) == complex_from_nonfaces(PENTAGON)


def test_reconstruct_octahedron_configuration():
    g = realize_gale_vectors(octahedron_certificate())
    pts = reconstruct_points(g)
    assert pts.dim == 3 and pts.n == 6
    # the free columns 2, 4, 5 and 6 give the unit vectors, then the origin
    assert pts.points == ((-1, 0, 1), (1, 0, 0), (0, -1, 1), (0, 1, 0), (0, 0, 1), (0, 0, 0))
    assert boundary_complex(pts) == complex_from_nonfaces(OCTAHEDRON)


def test_transform_reconstruct_preserves_column_space():
    rng = random.Random(31337)
    for _ in range(120):
        e = rng.randint(1, 3)
        n = rng.randint(e + 2, 10)
        g = random_gale_configuration(rng, n, e)
        back = gale_transform(reconstruct_points(g))
        assert back.dim == e
        rows = [list(v) for v in g.vectors]
        both = [list(v) + list(w) for v, w in zip(g.vectors, back.vectors)]
        assert matrix_rank(both) == matrix_rank(rows) == e


def test_points_transform_roundtrip_extremality_agrees():
    rng = random.Random(31338)
    for _ in range(40):
        d = rng.choice((2, 3))
        pts = random_points(rng, d + 3, d)
        try:
            g = gale_transform(pts)
        except NotAffinelySpanning:
            continue
        # a point is a vertex iff a line through 0 leaves its vector alone:
        # cross-check extremality against the relint test on the others
        for label in range(1, pts.n + 1):
            others = [g.vectors[i] for i in range(pts.n) if i != label - 1]
            assert is_vertex(pts, label) == relint_origin_test(others)


# -- dependences (both directions) ----------------------------------------------

def test_dependence_from_direction_example():
    g = GaleConfiguration(((Fraction(1),), (Fraction(-2),), (Fraction(1),)))
    lam = dependence_from_direction(g, (1,))
    assert lam == (1, -2, 1)
    pts = reconstruct_points(g)
    assert sum(lam) == 0
    assert all(sum(lam[i] * pts.points[i][c] for i in range(3)) == 0 for c in range(pts.dim))


def test_dependence_linearity_and_roundtrip():
    rng = random.Random(555)
    for _ in range(120):
        e = rng.randint(1, 3)
        n = rng.randint(e + 2, 9)
        g = random_gale_configuration(rng, n, e)
        alpha = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(e))
        if all(x == 0 for x in alpha):
            alpha = (Fraction(1),) + alpha[1:]
        lam = dependence_from_direction(g, alpha)
        assert sum(lam) == 0
        pts = reconstruct_points(g)
        for c in range(pts.dim):
            assert sum(lam[i] * pts.points[i][c] for i in range(n)) == 0
        doubled = dependence_from_direction(g, tuple(2 * x for x in alpha))
        assert doubled == tuple(2 * x for x in lam)
        assert direction_from_dependence(g, lam) == alpha


def test_dependence_zero_inputs_rejected():
    g = GaleConfiguration(((Fraction(1),), (Fraction(-2),), (Fraction(1),)))
    with pytest.raises(ZeroInput):
        dependence_from_direction(g, (0,))
    with pytest.raises(ZeroInput):
        direction_from_dependence(g, (0, 0, 0))
    with pytest.raises(InvalidConfiguration):
        direction_from_dependence(g, (1, 1, 1))  # not a dependence


# -- relint test ------------------------------------------------------------------

def test_relint_examples():
    assert relint_origin_test([(1, 0), (-1, 1), (-1, -1)])
    assert not relint_origin_test([(1, 0), (0, 1)])
    assert relint_origin_test([(1, 0), (-1, 0)])
    assert not relint_origin_test([])
    assert relint_origin_test([(0, 0)])
    assert not relint_origin_test([(0, 0), (1, 0)])


def test_relint_matches_lp_oracle():
    rng = random.Random(616)
    for _ in range(300):
        count = rng.randint(1, 6)
        vs = []
        for _ in range(count):
            if rng.random() < 0.15:
                vs.append((Fraction(0), Fraction(0)))
            else:
                vs.append((Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))))
        assert relint_origin_test(vs) == relint_oracle(vs), vs


# -- readback ----------------------------------------------------------------------

def test_recover_pentagon_roundtrip():
    cert = pentagon_certificate()
    g = realize_gale_vectors(cert)
    recovered = recover_nonfaces(g)
    assert recovered is not None
    fam, cert2 = recovered
    assert fam == PENTAGON
    assert cert2 == cert


def test_recover_octahedron_roundtrip():
    cert = octahedron_certificate()
    g = realize_gale_vectors(cert)
    recovered = recover_nonfaces(g)
    assert recovered is not None
    assert recovered[0] == OCTAHEDRON
    assert recovered[1] == cert


def test_recover_rejects_antipodal_classes():
    g = GaleConfiguration((
        (Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1)),
        (Fraction(1), Fraction(1)), (Fraction(-1), Fraction(-1)),
    ))
    assert recover_nonfaces(g) is None


def test_recover_rejects_even_class_count():
    g = GaleConfiguration((
        (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
        (Fraction(-1), Fraction(1)), (Fraction(0), Fraction(-2)),
    ))
    assert recover_nonfaces(g) is None


def test_recover_rejects_singleton_class_when_k_is_one():
    # three classes but one of them carries a single vector
    g = GaleConfiguration((
        (Fraction(2), Fraction(0)),
        (Fraction(-1), Fraction(1)), (Fraction(-1), Fraction(1)),
        (Fraction(0), Fraction(-1)), (Fraction(0), Fraction(-1)),
    ))
    assert recover_nonfaces(g) is None


# k = 2: five slots, vertices 1 and 2 share slot 0; the slots' honest
# directions in counterclockwise order
SHARED_SLOT = Certificate(6, [(1, 2), (3,), (4,), (5,), (6,)])
CCW = [(1, -2), (1, 0), (1, 2), (-1, 1), (-1, -1)]


def _on_slots(directions, changed=None):
    """One vector per vertex of SHARED_SLOT: its slot's direction unless `changed` maps it."""
    changed = changed or {}
    slot_of = {v: s for s, block in enumerate(SHARED_SLOT.slots) for v in block}
    vs = [changed.get(v, directions[slot_of[v]]) for v in range(1, 7)]
    return [tuple(Fraction(x) for x in v) for v in vs]


@pytest.mark.parametrize("vectors, accepted", [
    pytest.param(list(realize_gale_vectors(SHARED_SLOT).vectors), True, id="honest-realization"),
    pytest.param(_on_slots(CCW, {2: CCW[2]}), False, id="slot-split-over-two-directions"),
    pytest.param(_on_slots(CCW, {3: CCW[0]}), False, id="two-slots-on-one-direction"),
    pytest.param(_on_slots([CCW[-j % 5] for j in range(5)]), False, id="reflected-clockwise-order"),
    pytest.param(_on_slots(CCW, {5: (-1, 2)}), False, id="antipodal-pair"),
    pytest.param(_on_slots([(1, 0), (1, 1), (0, 1), (-1, 1), (1, -2)]), False, id="window-beyond-half-plane"),
    pytest.param(_on_slots(CCW, {4: (0, 0)}), False, id="zero-vector"),
])
def test_verified_classes_accepts_only_the_diagrams_classes(vectors, accepted):
    assert _verified_classes(SHARED_SLOT, vectors) is accepted


@pytest.mark.parametrize("vectors, classes", [
    pytest.param([(), (), ()], [[1, 2, 3]], id="e=0-one-class"),
    pytest.param([(2,), (-1,), (2,)], [[1, 3], [2]], id="e=1-signs"),
    pytest.param([(2,), (2,), (0,), (-4,), (-4,)], None, id="e=1-zero-among-repeats"),
    pytest.param([(1, 1), (1, 1), (0, 0), (-1, 0), (-1, 0), (0, -1)], None, id="e=2-zero-among-repeats"),
    # (2, 4) and (1, 2) share a ray; the class keeps its labels in order
    pytest.param([(2, 4), (-3, 0), (1, 2), (0, -6), (2, 4)], [[1, 3, 5], [2], [4]], id="unequal-vectors-one-class"),
])
def test_standard_classes(vectors, classes):
    assert _standard_classes(vectors) == classes


@st.composite
def odd_cycle_spheres(draw, max_m: int):
    """(family, certificate) of the maximum odd cycle whose slots are a random composition of m <= max_m.

    Any rotation or reflection of a bracelet is one too (`instantiate`), so
    the parts are cut at random: 2k+1 of them, each at least 2 when k = 1.
    """
    k = draw(st.integers(1, (max_m - 1) // 2))
    n, least = 2 * k + 1, 2 if k == 1 else 1
    total = draw(st.integers(n * least, max_m)) - n * (least - 1)  # cut into n parts of at least 1
    cuts = sorted(draw(st.sets(st.integers(1, total - 1), min_size=n - 1, max_size=n - 1)))
    return instantiate(tuple(b - a + least - 1 for a, b in zip([0, *cuts], [*cuts, total])))


# (family, certificate) of every sphere shape on at most 32 vertices: a maximum
# odd cycle, or one or two blocks that are the members
ROUND_TRIP_SPHERES = st.one_of(
    odd_cycle_spheres(32),
    st.sampled_from([(NonFaceFamily(m, blocks), Certificate(m, blocks)) for m, blocks in one_and_two_blocks(32)]),
)


@settings(deadline=None, max_examples=80)
@given(ROUND_TRIP_SPHERES.flatmap(
    lambda sphere: st.tuples(st.just(sphere), st.permutations(range(1, sphere[0].m + 1)))
))
def test_property_relabelled_bracelet_realizes_its_complex(case):
    (fam, cert), images = case
    perm = dict(zip(range(1, len(images) + 1), images))
    relabelled = Certificate(fam.m, [[perm[v] for v in s] for s in cert.slots])
    fam = permuted_family(fam, perm)
    g = realize_gale_vectors(relabelled)
    comp = boundary_complex(reconstruct_points(g))
    assert comp == complex_from_nonfaces(fam) == cycle_complex(relabelled)
    verdict = recognize(comp)
    assert verdict == Sphere(fam.m - min(cert.n, 3) - 1, relabelled)
    assert NonFaceFamily(fam.m, verdict.certificate.ordering) == fam
    assert recover_nonfaces(g) == (fam, relabelled)
