"""Exact hull, homology, and pseudomanifold ground truth."""

import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tests_shared import (
    face_mask,
    ground_truth_sphere,
    is_vertex,
    nonface_families,
    random_fraction,
    random_points,
    reference_betti_mod2,
    reference_homogeneous_rows,
    reference_hull_facets,
    reference_reconstruct_points,
    simplicial_complexes,
)

from oddsphere import oracle
from oddsphere.catalog import enumerate_bracelets, instantiate
from oddsphere.complexes import (
    MAX_HULL_WORK,
    NERVE_FACE_COST,
    Chains,
    EnumerationLimitError,
    NonFaceFamily,
    SimplicialComplex,
    _face_masks_by_size,
    _face_subset_bound,
    _built,
    _nerve,
    complex_from_nonfaces,
    enumerate_chains,
    euler_characteristic,
    f_vector,
    minimal_nonfaces,
)
from oddsphere.gale import GaleConfiguration, InvalidConfiguration, realize_gale_vectors, reconstruct_points
from oddsphere.linalg import _fraction_free_rref
from oddsphere.oracle import (
    InteriorPoint,
    NonSimplicial,
    NotFullDimensional,
    PointConfiguration,
    betti_mod2,
    boundary_complex,
    hull_facets,
    is_pseudomanifold,
)

UNIT_SIMPLEX_3D = PointConfiguration((
    (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
))


def test_hull_facets_unit_simplex():
    assert hull_facets(UNIT_SIMPLEX_3D) == tuple(itertools.combinations(range(1, 5), 3))


def test_hull_facets_planar_triangle_with_interior_point():
    pc = PointConfiguration(((0, 0), (4, 0), (0, 4), (1, 1)))
    assert hull_facets(pc) == ((1, 2), (1, 3), (2, 3))


def test_hull_facets_rejects_flat_configurations():
    with pytest.raises(NotFullDimensional):
        hull_facets(PointConfiguration(((0, 0), (1, 1), (2, 2))))


def test_hull_facets_reports_non_simplicial_support():
    # three collinear points on the supporting line y = 0
    pc = PointConfiguration(((0, 0), (1, 0), (2, 0), (1, 1)))
    with pytest.raises(NonSimplicial):
        hull_facets(pc)


@st.composite
def rational_configurations(draw, max_dim: int = 4, many: bool = False):
    """Points in Q^1..Q^max_dim on a coarse grid, so flat and non-simplicial draws are common.

    With `many`, up to 3D+6 points on a finer grid, so that most D-subsets
    find some of their orientations already memoized by earlier subsets.
    """
    dim = draw(st.integers(1, max_dim))
    if many:
        coord = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 3))
    else:
        coord = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2))
    point = st.tuples(*[coord] * dim)
    max_size = 3 * dim + 6 if many else dim + 4
    return PointConfiguration(tuple(draw(st.lists(point, min_size=1, max_size=max_size))))


def hull_outcome(hull, pc):
    try:
        return hull(pc)
    except (NonSimplicial, NotFullDimensional) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(rational_configurations(), rational_configurations(max_dim=3, many=True))
def test_property_hull_facets_matches_fraction_reference(pc, crowded):
    assert hull_outcome(hull_facets, pc) == hull_outcome(reference_hull_facets, pc)
    assert hull_outcome(hull_facets, crowded) == hull_outcome(reference_hull_facets, crowded)


# -- a configuration is its integer rows ----------------------------------------

def assert_rows_match_fraction_points(built, points):
    """`built`, made by the library from integer rows, is what the constructor makes of the `Fraction` points.

    Equal and hash-equal, with the same rows and decoded points, and the
    same facets, or the same error, from the hull and the boundary complex
    as the `Fraction` reference hull.
    """
    assert "points" not in vars(built)  # decoded only when read
    checked = PointConfiguration(points)
    assert built == checked and hash(built) == hash(checked)
    assert built._rows == checked._rows == reference_homogeneous_rows(checked.points)
    assert built.points == checked.points == tuple(map(tuple, points))
    expected = hull_outcome(reference_hull_facets, checked)
    assert hull_outcome(hull_facets, built) == expected
    if isinstance(expected[0], tuple):  # facets, not an error
        missing = sorted(set(range(1, checked.n + 1)).difference(*expected))
        if missing:
            expected = InteriorPoint, f"point {missing[0]} is not a vertex of the hull"
    try:
        outcome = boundary_complex(built).facets
    except (NonSimplicial, NotFullDimensional, InteriorPoint) as exc:
        outcome = type(exc), str(exc)
    assert outcome == expected


@st.composite
def gale_configurations(draw):
    """n zero-sum vectors in Q^e, e <= 2, with denominators up to 3, drawn until they span; n - e - 1 >= 1."""
    e = draw(st.integers(0, 2))
    n = draw(st.integers(e + 2, e + 7))
    coord = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    head = draw(st.lists(st.tuples(*[coord] * e), min_size=n - 1, max_size=n - 1))
    try:
        return GaleConfiguration(tuple(head) + (tuple(-sum(v[c] for v in head) for c in range(e)),))
    except InvalidConfiguration:
        assume(False)


@settings(max_examples=150, deadline=None)
@given(gale_configurations(), rational_configurations())
def test_property_configurations_from_rows_match_the_fraction_points(g, pc):
    assert_rows_match_fraction_points(reconstruct_points(g), reference_reconstruct_points(g))
    from_rows = _built(PointConfiguration, _rows=reference_homogeneous_rows(pc.points))
    assert_rows_match_fraction_points(from_rows, pc.points)


@pytest.mark.parametrize("vectors", [
    ((-1,), (2,), (-1,), (0,)),  # three collinear points: not simplicial
    # a realized diagram with its coordinates swapped, a reflection: a realized polytope
    tuple((y, x) for x, y in realize_gale_vectors(instantiate((1, 2, 1, 1, 1))[1]).vectors),
], ids=["collinear", "reflected-diagram"])
def test_reconstruct_points_over_a_negative_det_matches_the_fraction_points(vectors):
    g = GaleConfiguration(vectors)
    assert _fraction_free_rref([[v[c] for v in vectors] for c in range(g.dim)])[2] < 0
    assert_rows_match_fraction_points(reconstruct_points(g), reference_reconstruct_points(g))


def test_hull_scan_admits_its_work_limit_and_refuses_past_it():
    # n equal points in Q^1: a scan of n * (1 + n - 1) units, which the rank check ends at once
    n = math.isqrt(MAX_HULL_WORK)
    assert n * n == MAX_HULL_WORK
    with pytest.raises(NotFullDimensional):
        hull_facets(PointConfiguration(((0,),) * n))
    with pytest.raises(EnumerationLimitError, match=rf"past the limit of {MAX_HULL_WORK}$"):
        boundary_complex(PointConfiguration(((0,),) * (n + 1)))


@st.composite
def low_codimension_configurations(draw):
    """n = D+1..D+4 points in Q^1..Q^8 on the coarse grid: realized spheres have n = D+3."""
    dim = draw(st.integers(1, 8))
    n = draw(st.integers(dim + 1, dim + 4))
    coord = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2))
    point = st.tuples(*[coord] * dim)
    return PointConfiguration(tuple(draw(st.lists(point, min_size=n, max_size=n))))


@settings(max_examples=30, deadline=None)
@given(low_codimension_configurations())
def test_property_both_miss_paths_match_fraction_reference(pc):
    """Each draw runs once with the codimension cut as set and once with it moved past c."""
    expected = hull_outcome(reference_hull_facets, pc)
    assert hull_outcome(hull_facets, pc) == expected
    codim = pc.n - pc.dim - 1
    other_side = codim - 1 if codim <= oracle.MINOR_MAX_CODIM else codim
    with patch.object(oracle, "MINOR_MAX_CODIM", other_side):
        assert hull_outcome(hull_facets, pc) == expected


SPARSE_BRACELETS = [b for m in range(5, 13) for b in enumerate_bracelets(m)]


def _relabelled_realization(case) -> PointConfiguration:
    b, images = case
    pts = reconstruct_points(realize_gale_vectors(instantiate(b)[1])).points
    return PointConfiguration(tuple(pts[i] for i in images))


@st.composite
def sparse_configurations(draw):
    """Configurations at codimension <= 3 with many zero coordinates.

    Either a realized bracelet polytope (n - 3 unit vectors and the origin)
    with its points in random label order, so that the sparse columns are
    not first, optionally with the centroid of its vertices added; or the
    origin and the unit vectors, one of them perhaps dropped, mixed with up
    to 4 points with zero coordinates.
    """
    if draw(st.booleans()):
        b = draw(st.sampled_from(SPARSE_BRACELETS))
        pc = _relabelled_realization((b, draw(st.permutations(range(sum(b))))))
        if draw(st.booleans()):
            centroid = tuple(sum(coords) / pc.n for coords in zip(*pc.points))
            pc = PointConfiguration(pc.points + (centroid,))
        return pc
    dim = draw(st.integers(1, 6))
    simplex = [tuple(Fraction(int(i == k)) for i in range(dim)) for k in range(-1, dim)]
    if draw(st.booleans()):
        del simplex[draw(st.integers(0, dim))]  # the rest may be flat
    coord = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)))
    size = dim + 4 - len(simplex)
    points = simplex + draw(st.lists(st.tuples(*[coord] * dim), min_size=size - 3, max_size=size))
    return PointConfiguration(tuple(draw(st.permutations(points))))


@settings(max_examples=40, deadline=None)
@given(sparse_configurations())
def test_property_sparse_configurations_match_fraction_reference(pc):
    """As the test above, on sparse points, and `boundary_complex` agrees with the facets."""
    expected = hull_outcome(reference_hull_facets, pc)
    codim = pc.n - pc.dim - 1
    for cut in (oracle.MINOR_MAX_CODIM, codim - 1):
        with patch.object(oracle, "MINOR_MAX_CODIM", cut):
            assert hull_outcome(hull_facets, pc) == expected
            try:
                got = boundary_complex(pc)
            except (NonSimplicial, NotFullDimensional) as exc:
                assert (type(exc), str(exc)) == expected
                continue
            except InteriorPoint as exc:
                on_facets = {label for f in expected for label in f}
                first = min(set(range(1, pc.n + 1)) - on_facets)
                assert str(exc) == f"point {first} is not a vertex of the hull"
                continue
            want = SimplicialComplex(pc.n, expected)
            assert got == want and got._masks == want._masks


@pytest.mark.parametrize("cut", [3, 2], ids=["kernel", "per-subset"])
def test_hull_facets_names_the_least_non_simplicial_support(cut):
    # Two edges through three points each, at codimension 3.  The kernel
    # path meets the top edge's supports first, as its first c-subset is
    # {1, 2, 3}, but the least support is {1, 2}, on the bottom edge.
    pc = PointConfiguration(((0, 0), (2, 0), (1, 0), (0, 2), (2, 2), (1, 2)))
    with patch.object(oracle, "MINOR_MAX_CODIM", cut):
        with pytest.raises(NonSimplicial, match=r"contains points \(1, 2, 3\)$"):
            hull_facets(pc)
        assert hull_outcome(hull_facets, pc) == hull_outcome(reference_hull_facets, pc)


# Planar Gale vectors no two of which are parallel, also after the last is
# changed to make a configuration's sum zero (`planar_gale_configuration`).
GENERIC_GALE = ((-1, 4), (-2, 1), (3, -3), (-4, 3), (0, 4), (-1, -1), (3, 4), (4, 3))


def planar_gale_configuration(dim, special):
    """D + 3 points in Q^D whose Gale vectors are `special` and generic ones, rotated by D."""
    rest = [list(v) for v in GENERIC_GALE[: dim + 3 - len(special)]]
    rest[-1] = [a - t for a, t in zip(rest[-1], map(sum, zip(*special, *rest)))]
    vectors = [*special, *map(tuple, rest)]
    vectors = vectors[dim:] + vectors[:dim]
    pc = reconstruct_points(GaleConfiguration(tuple(vectors)))
    assert (pc.n, pc.dim) == (dim + 3, dim)
    return vectors, pc


PLANAR_DEGENERACIES = {  # name: (planted vectors, pairs with determinant 0, points on the named support)
    "apex": (((0, 0),), lambda dim: dim + 2, lambda dim: dim + 2),
    "parallel": (((2, 1), (4, 2)), lambda dim: 1, None),
    "three-parallel": (((2, 1), (4, 2), (6, 3)), lambda dim: 3, None),
    "antiparallel": (((2, 1), (-2, -1)), lambda dim: 1 + (dim == 1), lambda dim: dim + 1),
    "two-antiparallel": (((2, 1), (-4, -2), (1, -3), (-3, 9)), lambda dim: 2, lambda dim: dim + 1),
}


@pytest.mark.parametrize("name, dim", [(name, dim) for name, case in PLANAR_DEGENERACIES.items()
                                       for dim in range(1, 7) if dim > 1 or len(case[0]) <= 2])
def test_planar_gale_degeneracies_match_fraction_reference(name, dim):
    # At codimension 2 the hull reads the signs of the 2x2 determinants of
    # the Gale vectors.  A zero vector is a pyramid's apex, whose base facet
    # holds D + 2 points; parallel vectors are twins, as in a block of a
    # bracelet sphere, and leave the hull simplicial (three of them leave
    # the D other points affinely dependent); two antiparallel ones
    # put the D + 1 other points on a support, and two such pairs give two
    # supports, of which the least is named.  (At D = 1 the two vectors
    # beside one antiparallel pair are antiparallel too: all four sum to 0.)
    special, zero_pairs, on_support = PLANAR_DEGENERACIES[name]
    vectors, pc = planar_gale_configuration(dim, special)
    zero = [(u, v) for u, v in itertools.combinations(vectors, 2) if u[0] * v[1] == u[1] * v[0]]
    assert len(zero) == zero_pairs(dim)
    expected = hull_outcome(reference_hull_facets, pc)
    for cut in (oracle.MINOR_MAX_CODIM, 1):  # the planar path, and the per-subset scan
        with patch.object(oracle, "MINOR_MAX_CODIM", cut):
            assert hull_outcome(hull_facets, pc) == expected
    if on_support is None:
        assert isinstance(expected[0], tuple)  # facets
    else:
        assert expected[0] is NonSimplicial
        assert expected[1].rsplit("contains points ", 1)[1].count(",") + 1 == on_support(dim)


def test_non_simplicial_message_prints_plain_rationals_and_is_clipped():
    on_a_line = PointConfiguration(((0, 1), (2, 2), (4, 3), (0, 5)))
    with pytest.raises(NonSimplicial, match=r"^supporting hyperplane \(1/2, -1, 1\) contains points \(1, 2, 3\)$"):
        hull_facets(on_a_line)
    # 60 points on the line y = 0 and one off it: the list of points is clipped
    crowded = PointConfiguration(tuple((i, 0) for i in range(60)) + ((0, 1),))
    with pytest.raises(NonSimplicial, match=r"^supporting hyperplane \(0, 1, 0\) contains points \(1, 2, 3, .{40,}\.\.\.$"):
        hull_facets(crowded)
    assert hull_outcome(hull_facets, crowded) == hull_outcome(reference_hull_facets, crowded)


def test_is_vertex_simplex_and_centroid():
    for label in range(1, 5):
        assert is_vertex(UNIT_SIMPLEX_3D, label)
    centroid = tuple(Fraction(1, 4) for _ in range(3))
    pc = PointConfiguration(UNIT_SIMPLEX_3D.points + (centroid,))
    assert not is_vertex(pc, 5)
    for label in range(1, 5):
        assert is_vertex(pc, label)


def test_boundary_complex_unit_simplex():
    c = boundary_complex(UNIT_SIMPLEX_3D)
    assert c == SimplicialComplex(4, tuple(itertools.combinations(range(1, 5), 3)))


def test_boundary_complex_rejects_interior_point():
    centroid = tuple(Fraction(1, 4) for _ in range(3))
    pc = PointConfiguration(UNIT_SIMPLEX_3D.points + (centroid,))
    with pytest.raises(InteriorPoint):
        boundary_complex(pc)
    # a relabelled realized polytope, and the centroid of its vertices
    pc = _relabelled_realization(((3, 3, 3), (4, 0, 7, 2, 8, 1, 5, 3, 6)))
    assert boundary_complex(pc).facets == hull_facets(pc) == reference_hull_facets(pc)
    centroid = tuple(sum(coords) / pc.n for coords in zip(*pc.points))
    with pytest.raises(InteriorPoint, match=r"^point 10 is not a vertex of the hull$"):
        boundary_complex(PointConfiguration(pc.points + (centroid,)))


def test_betti_profiles():
    octa = complex_from_nonfaces(NonFaceFamily(6, ((1, 2), (3, 4), (5, 6))))
    assert betti_mod2(octa) == (0, 0, 0, 1)
    pent = SimplicialComplex(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))
    assert betti_mod2(pent) == (0, 0, 1)
    two_edges = SimplicialComplex(4, ((1, 2), (3, 4)))
    assert betti_mod2(two_edges)[1] == 1  # reduced b_0: two components


@settings(max_examples=200, deadline=None)
@given(simplicial_complexes())
def test_property_betti_mod2_matches_dense_reference(c):
    assert betti_mod2(c) == reference_betti_mod2(c)


def test_betti_mod2_matches_dense_reference_on_bracelet_spheres():
    for m in range(5, 10):
        for b in enumerate_bracelets(m):
            c = complex_from_nonfaces(instantiate(b)[0])
            assert betti_mod2(c) == reference_betti_mod2(c) == (0,) * (m - 3) + (1,)


def by_route(c, nerve):
    """(betti_mod2(c), f_vector(c)) read from the nerve or from the faces, whichever is asked."""
    if nerve:
        chains = Chains(*_nerve([face_mask(a) for a in minimal_nonfaces(c).members], c.m))
    else:
        chains = Chains(_face_masks_by_size(c), None)
    return betti_mod2(c, chains), f_vector(c, chains)


@settings(max_examples=300, deadline=None)
@given(st.one_of(simplicial_complexes(max_m=8), nonface_families(max_m=9).map(complex_from_nonfaces)))
def test_property_nerve_and_face_routes_agree(c):
    # Alexander duality with the nerve theorem, and inclusion-exclusion over
    # the non-faces, are the claims under test: each route is the other's reference.
    members = [face_mask(a) for a in minimal_nonfaces(c).members]
    assume(_nerve(members, c.m, 1 << 12) is not None)
    assert by_route(c, True) == by_route(c, False)


def test_nerve_route_on_the_full_simplex_and_its_boundary():
    for m in range(1, 8):
        simplex = SimplicialComplex(m, (tuple(range(1, m + 1)),))
        assert minimal_nonfaces(simplex).members == ()  # empty family: every Betti number is 0
        expected = ((0,) * (m + 1), tuple(math.comb(m, k) for k in range(m + 1)))
        assert by_route(simplex, True) == by_route(simplex, False) == expected
    for m in range(2, 8):
        boundary = complex_from_nonfaces(NonFaceFamily(m, (tuple(range(1, m + 1)),)))
        assert _nerve([(1 << m) - 1], m) == ([[0]], [1] + [0] * m)  # N = {empty set}, so b_{m-2} = 1
        expected = ((0,) * (m - 1) + (1,), tuple(math.comb(m, k) for k in range(m)))
        assert by_route(boundary, True) == by_route(boundary, False) == expected


def test_bracelet_spheres_take_the_nerve_route():
    # Below m = 8 a bracelet sphere's nerve has more than 1/NERVE_FACE_COST
    # as many faces as its facets have subsets, so the faces are cheaper.
    pentagon = complex_from_nonfaces(instantiate((1,) * 5)[0])
    assert enumerate_chains(pentagon).nerve_tally is None  # 5 edges bound 20 faces, 21 nerve faces
    for m in range(8, 13):
        for b in enumerate_bracelets(m):
            assert enumerate_chains(complex_from_nonfaces(instantiate(b)[0])).nerve_tally is not None, b


def test_route_follows_the_nerve_size_not_its_bound():
    # Cone, with apex 18, over the join of the 6-pair cross-polytope and 5
    # points: 6 + 10 minimal non-faces, so the nerve is the full simplex on
    # 16 vertices, 65,536 faces; the 320 facets of size 8 bound 81,920
    # subsets, more than 2^16 but less than NERVE_FACE_COST times the nerve.
    pairs = [(2 * i + 1, 2 * i + 2) for i in range(6)]
    c = complex_from_nonfaces(NonFaceFamily(18, (*pairs, *itertools.combinations(range(13, 18), 2))))
    assert 1 << 16 < _face_subset_bound(c) == 320 << 8 < NERVE_FACE_COST << 16
    chains = enumerate_chains(c)
    assert chains.nerve_tally is None
    assert betti_mod2(c, chains) == (0,) * 9  # a cone is acyclic
    assert f_vector(c, chains) == by_route(c, True)[1]


def test_import_leaves_numpy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, oddsphere; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "False"


def test_pseudomanifold():
    octa = complex_from_nonfaces(NonFaceFamily(6, ((1, 2), (3, 4), (5, 6))))
    assert is_pseudomanifold(octa)
    pent = SimplicialComplex(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))
    assert is_pseudomanifold(pent)
    impure = SimplicialComplex(5, ((1, 2), (2, 3), (1, 3), (4,), (5,)))
    assert not is_pseudomanifold(impure)


def test_ground_truth_small_dimensions():
    pent = SimplicialComplex(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))
    assert ground_truth_sphere(pent) is True
    hexa = SimplicialComplex(6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)))
    assert ground_truth_sphere(hexa) is True  # d=1 oracle works beyond d+4
    octa = complex_from_nonfaces(NonFaceFamily(6, ((1, 2), (3, 4), (5, 6))))
    assert ground_truth_sphere(octa) is True
    path = SimplicialComplex(3, ((1, 2), (2, 3)))
    assert ground_truth_sphere(path) is False
    two_points = SimplicialComplex(2, ((1,), (2,)))
    assert ground_truth_sphere(two_points) is True


def test_ground_truth_by_witness():
    big_simplex = tuple(itertools.combinations(range(1, 7), 5))
    c = SimplicialComplex(6, big_simplex)  # boundary of the 5-simplex, d=4
    pts = PointConfiguration((
        (0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1),
    ))
    assert ground_truth_sphere(c, witnesses=(pts,)) is True


def test_ground_truth_undetermined_without_witness():
    big_simplex = tuple(itertools.combinations(range(1, 7), 5))
    c = SimplicialComplex(6, big_simplex)
    assert ground_truth_sphere(c) is None  # necessary checks pass, no witness


def test_euler_relation_for_simplicial_hulls():
    rng = random.Random(90125)
    tried = 0
    for _ in range(60):
        dim = rng.choice((2, 3))
        pc = random_points(rng, dim + 3, dim)
        try:
            c = boundary_complex(pc)
        except (NonSimplicial, NotFullDimensional):
            continue
        except InteriorPoint:
            c = None
        # the LP vertex test is the independent reference for the facet rule
        assert (c is not None) == all(is_vertex(pc, label) for label in range(1, pc.n + 1))
        if c is None:
            continue
        tried += 1
        assert euler_characteristic(c) == 1 + (-1) ** (dim - 1)
    assert tried >= 20


def test_hull_affine_invariance():
    rng = random.Random(90126)
    checked = 0
    for _ in range(40):
        dim = rng.choice((2, 3))
        pc = random_points(rng, dim + 2, dim)
        # random invertible rational affine map
        while True:
            mat = [[random_fraction(rng, 4) for _ in range(dim)] for _ in range(dim)]
            from oddsphere.linalg import matrix_rank

            if matrix_rank(mat) == dim:
                break
        shift = [random_fraction(rng, 4) for _ in range(dim)]
        mapped = PointConfiguration(tuple(
            tuple(sum(mat[r][c] * p[c] for c in range(dim)) + shift[r] for r in range(dim))
            for p in pc.points
        ))
        try:
            facets = hull_facets(pc)
        except (NonSimplicial, NotFullDimensional):
            continue
        checked += 1
        assert hull_facets(mapped) == facets
        for label in range(1, pc.n + 1):
            assert is_vertex(mapped, label) == is_vertex(pc, label)
    assert checked >= 15


def test_oracle_recognizer_agreement_on_random_complexes():
    """Where the oracle decides, it must agree with the recognizer (m - d <= 4)."""
    import random as _random

    from tests_shared import random_family

    from oddsphere.recognizer import Sphere, recognize

    rng = _random.Random(271828)
    decided = 0
    for _ in range(400):
        m = rng.randint(3, 8)
        c = complex_from_nonfaces(random_family(rng, m))
        if c.m - c.dimension > 4:
            continue
        truth = ground_truth_sphere(c)
        if truth is None:
            continue
        decided += 1
        assert truth == isinstance(recognize(c), Sphere), c
    assert decided >= 100


def test_oracle_recognizer_agreement_on_graph_zoo():
    import itertools as _it

    from oddsphere.recognizer import Sphere, recognize

    edges = list(_it.combinations(range(1, 6), 2))
    for picks in _it.product((0, 1), repeat=10):
        chosen = [e for e, p in zip(edges, picks) if p]
        if not chosen:
            continue  # dimension 0: m - d = 5, outside the recognizer's scope
        covered = {v for e in chosen for v in e}
        facets = tuple(chosen) + tuple((v,) for v in range(1, 6) if v not in covered)
        c = SimplicialComplex(5, facets)
        truth = ground_truth_sphere(c)
        assert truth is not None  # dimension <= 2 is always decided
        assert truth == isinstance(recognize(c), Sphere)


def test_oracle_agreement_on_witnessed_catalog_spheres():
    from oddsphere.catalog import catalog
    from oddsphere.gale import realize_gale_vectors, reconstruct_points
    from oddsphere.recognizer import Sphere, recognize

    for m in (7, 8):
        for cls in catalog(m).classes:
            pts = reconstruct_points(realize_gale_vectors(cls.certificate))
            truth = ground_truth_sphere(cls.complex, witnesses=(pts,))
            assert truth is True
            assert isinstance(recognize(cls.complex), Sphere)
