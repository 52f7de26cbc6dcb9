"""Recognizer: the three characterizations and their certificates."""

import dataclasses
import itertools
import random
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oddsphere import complexes as complexes_module
from oddsphere import recognizer as recognizer_module
from oddsphere.catalog import enumerate_bracelets, instantiate
from oddsphere.complexes import (
    MAX_VERTICES,
    InvariantError,
    NonFaceFamily,
    SimplicialComplex,
    _face,
    _quotient_transversals,
    _row_mask,
    complex_from_nonfaces,
    minimal_nonfaces,
)
from oddsphere.recognizer import (
    Certificate,
    NotSphere,
    NotSphereReason,
    OutOfScope,
    Sphere,
    _certificate,
    _complements,
    _read_family,
    _recognize_nonfaces,
    _sphere_from_facets,
    cycle_complex,
    find_max_odd_cycle,
    recognize,
)
from tests_shared import (
    assert_valid_and_canonical,
    brute_force_canonical_certificate,
    canonical_certificate,
    nonface_families,
    permuted,
    permuted_family,
    planted_twins,
    reference_alternating_blocks,
)

PENTAGON_F = ((1, 4), (2, 5), (1, 3), (2, 4), (3, 5))


def brute_force_max_odd_cycle_exists(f: NonFaceFamily) -> bool:
    """Oracle: try every cyclic ordering of the members directly."""
    members = list(f.members)
    n = len(members)
    if n < 3 or n % 2 == 0:
        return False
    for perm in itertools.permutations(members):
        if any(set(perm[i]) & set(perm[(i + 1) % n]) for i in range(n)):
            continue
        blocks = reference_alternating_blocks(perm)
        union = set().union(*[set(b) for b in blocks])
        if (
            all(blocks)
            and sum(len(b) for b in blocks) == f.m
            and union == set(range(1, f.m + 1))
            and (n > 3 or all(len(b) >= 2 for b in blocks))
        ):
            return True
    return False


def test_alternating_blocks_pentagon():
    assert _read_family(NonFaceFamily(5, PENTAGON_F)).blocks == ((1,), (2,), (3,), (4,), (5,))


def test_alternating_blocks_three_cycle_is_identity():
    o = ((1, 2), (3, 4), (5, 6))
    assert _read_family(NonFaceFamily(6, o)).blocks == o


def test_find_max_odd_cycle_pentagon():
    cert = find_max_odd_cycle(NonFaceFamily(5, PENTAGON_F))
    assert cert is not None
    assert cert.blocks == ((1,), (2,), (3,), (4,), (5,))
    assert cert.ordering == PENTAGON_F


def test_find_max_odd_cycle_octahedron():
    cert = find_max_odd_cycle(NonFaceFamily(6, ((1, 2), (3, 4), (5, 6))))
    assert cert is not None
    assert cert.blocks == ((1, 2), (3, 4), (5, 6))
    assert cert.ordering == cert.blocks


def test_find_max_odd_cycle_even_family_absent():
    f = NonFaceFamily(6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)))
    assert find_max_odd_cycle(f) is None


def test_find_max_odd_cycle_absent_despite_odd_size():
    f = NonFaceFamily(6, ((1, 2), (3, 4), (5, 6), (1, 3, 5), (2, 4, 6)))
    assert not brute_force_max_odd_cycle_exists(f)
    assert find_max_odd_cycle(f) is None


def test_search_agrees_with_brute_force_on_random_families():
    from tests_shared import random_family  # local helper below

    rng = random.Random(77)
    for _ in range(150):
        m = rng.randint(4, 7)
        f = random_family(rng, m)
        if len(f.members) > 7:
            continue
        assert (find_max_odd_cycle(f) is not None) == brute_force_max_odd_cycle_exists(f)


def test_recognize_five_cycle_graph():
    c = SimplicialComplex(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))
    v = recognize(c)
    assert isinstance(v, Sphere) and v.d == 1
    assert v.certificate.n == 5
    assert v.certificate.blocks == ((1,), (2,), (3,), (4,), (5,))


def test_recognize_octahedron():
    c = complex_from_nonfaces(NonFaceFamily(6, ((1, 2), (3, 4), (5, 6))))
    v = recognize(c)
    assert isinstance(v, Sphere) and v.d == 2
    assert v.certificate.n == 3


def test_recognize_simplex_boundary():
    c = SimplicialComplex(4, tuple(itertools.combinations(range(1, 5), 3)))
    v = recognize(c)
    assert v == Sphere(2, Certificate(4, [(1, 2, 3, 4)]))
    assert v.certificate.n == 1


def test_recognize_four_cycle_two_partition():
    c = SimplicialComplex(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
    assert minimal_nonfaces(c).members == ((1, 3), (2, 4))
    v = recognize(c)
    assert v == Sphere(1, Certificate(4, [(1, 3), (2, 4)]))
    assert v.certificate.n == 2


def test_recognize_triangle_with_isolated_vertices():
    c = SimplicialComplex(5, ((1, 2), (2, 3), (1, 3), (4,), (5,)))
    v = recognize(c)
    assert isinstance(v, NotSphere)
    assert v.reason is NotSphereReason.NON_ODD_FAMILY_SIZE  # brute force: |F| = 8


def test_recognize_six_cycle_out_of_scope():
    c = SimplicialComplex(6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)))
    v = recognize(c)
    assert v == OutOfScope(m=6, d=1)


def test_recognize_full_simplex():
    c = SimplicialComplex(3, ((1, 2, 3),))
    assert recognize(c) == NotSphere(NotSphereReason.FULL_SIMPLEX)


def test_recognize_wrong_shape_single_member():
    c = complex_from_nonfaces(NonFaceFamily(3, ((1, 2),)))
    assert recognize(c) == NotSphere(NotSphereReason.WRONG_FAMILY_SHAPE)


def test_recognize_two_members_not_partition():
    c = complex_from_nonfaces(NonFaceFamily(4, ((1, 2), (2, 3))))
    assert recognize(c) == NotSphere(NotSphereReason.WRONG_FAMILY_SHAPE)


SMALL_BRACELETS = [b for m in range(5, 10) for b in enumerate_bracelets(m) if len(b) <= 7]


@st.composite
def odd_families(draw):
    """Odd families of 3..7 members: random, or a relabelled bracelet with one vertex toggled."""
    if draw(st.booleans()):
        f = draw(nonface_families(max_m=7, min_members=3, max_members=7))
        assume(len(f.members) % 2 == 1 and len(f.members) >= 3)
        return f
    f, _ = instantiate(draw(st.sampled_from(SMALL_BRACELETS)))
    image = draw(st.permutations(range(1, f.m + 1)))
    members = [{image[v - 1] for v in a} for a in f.members]
    if draw(st.booleans()):
        members[draw(st.integers(0, len(members) - 1))] ^= {draw(st.integers(1, f.m))}
    try:
        f = NonFaceFamily(f.m, tuple(tuple(sorted(a)) for a in members))
    except InvariantError:
        assume(False)
    assume(len(f.members) % 2 == 1)
    return f


@settings(deadline=None)
@given(odd_families())
def test_property_find_max_odd_cycle_matches_brute_force(f):
    cert = find_max_odd_cycle(f)
    assert (cert is not None) == brute_force_max_odd_cycle_exists(f)
    if cert is not None:
        assert_valid_and_canonical(cert, f.m)
        assert tuple(sorted(cert.ordering)) == f.members


def test_recognize_no_cyclic_ordering():
    # three pairwise-intersecting members: the disjointness graph has no edges
    f = NonFaceFamily(5, ((1, 2), (2, 3), (1, 3)))
    c = complex_from_nonfaces(f)
    v = recognize(c)
    assert v == NotSphere(NotSphereReason.NO_CYCLIC_ORDERING)


def test_recognize_blocks_not_partition():
    # three pairwise disjoint members whose union misses vertex 7
    f = NonFaceFamily(7, ((1, 2), (3, 4), (5, 6)))
    c = complex_from_nonfaces(f)
    assert minimal_nonfaces(c) == f
    assert recognize(c) == NotSphere(NotSphereReason.BLOCKS_NOT_PARTITION)


def test_recognize_odd_family_without_cycle():
    # the disjointness graph has a degree-1 member, so no cyclic ordering exists
    f = NonFaceFamily(6, ((1, 2), (3, 4), (5, 6), (1, 3, 5), (2, 4, 6)))
    c = complex_from_nonfaces(f)
    assert minimal_nonfaces(c) == f
    assert recognize(c) == NotSphere(NotSphereReason.NO_CYCLIC_ORDERING)


@pytest.mark.parametrize("f", [
    # (1,6)-(2,3)-(5,6,7)-(3,4)-(2,7) is a Hamiltonian cycle of the disjointness
    # graph, but (1,6) has three disjoint partners
    NonFaceFamily(7, ((1, 6), (2, 3), (2, 7), (3, 4), (5, 6, 7))),
    # every member has two disjoint partners, but the graph is a triangle plus a 4-cycle
    NonFaceFamily(9, ((1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 4, 7), (2, 5, 8), (1, 6, 9), (3, 5, 8))),
])
def test_recognize_disjointness_graph_not_one_cycle(f):
    c = complex_from_nonfaces(f)
    assert minimal_nonfaces(c) == f
    rng = random.Random(7)
    for _ in range(20):  # the reason must not depend on where the walk starts
        image = list(range(1, f.m + 1))
        rng.shuffle(image)
        g = permuted_family(f, {v: image[v - 1] for v in range(1, f.m + 1)})
        assert recognize(complex_from_nonfaces(g)) == NotSphere(NotSphereReason.NO_CYCLIC_ORDERING)


# -- certificate properties ---------------------------------------------------

def test_certificate_revalidates():
    for f in (
        NonFaceFamily(5, PENTAGON_F),
        NonFaceFamily(6, ((1, 2), (3, 4), (5, 6))),
        NonFaceFamily(7, ((1, 2), (3, 4), (5, 6, 7))),
    ):
        cert = find_max_odd_cycle(f)
        assert cert is not None
        assert_valid_and_canonical(cert, f.m)


def slots_of(blocks):
    """The slots of blocks B_0, ..., B_{n-1} at odd n >= 3: slot j holds B_{-2j}."""
    n = len(blocks)
    return [blocks[-2 * j % n] for j in range(n)]


def test_dihedral_invariance_and_canonical_uniqueness():
    cert = find_max_odd_cycle(NonFaceFamily(5, PENTAGON_F))
    n = cert.n
    seqs = []
    fwd, rev = list(cert.ordering), list(reversed(cert.ordering))
    for seq in (fwd, rev):
        for r in range(n):
            seqs.append(tuple(seq[r:] + seq[:r]))
    for seq in seqs:
        assert Certificate(5, slots_of(reference_alternating_blocks(seq))) == cert  # one value per orbit
        assert canonical_certificate(seq) == (cert.blocks, cert.ordering)  # one representative per orbit


def test_eq1_readback_and_telescoping():
    for f in (
        NonFaceFamily(5, PENTAGON_F),
        NonFaceFamily(7, ((1, 2), (3, 4), (5, 6, 7))),
        NonFaceFamily(9, tuple(
            tuple(sorted(((i + 2 * j) % 9) + 1 for j in range(4))) for i in range(9)
        )),
    ):
        cert = find_max_odd_cycle(f)
        assert cert is not None
        n, k = cert.n, cert.k
        a, b = cert.ordering, cert.blocks
        for i in range(n):
            union = set()
            for j in range(k):
                union |= set(b[(i - 2 * j) % n])
            assert tuple(sorted(union)) == a[i]
        for i in range(n):
            for j in range(1, k + 1):
                inter = set(a[i])
                for t in range(1, j):
                    inter &= set(a[(i + 2 * t) % n])
                expected = set()
                for r in range(k - j + 1):
                    expected |= set(b[(i - 2 * r) % n])
                assert inter == expected


def test_recognize_relabeling_invariance():
    rng = random.Random(4242)
    base = [
        SimplicialComplex(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5))),
        complex_from_nonfaces(NonFaceFamily(6, ((1, 2), (3, 4), (5, 6)))),
        SimplicialComplex(5, ((1, 2), (2, 3), (1, 3), (4,), (5,))),
        SimplicialComplex(4, tuple(itertools.combinations(range(1, 5), 3))),
    ]
    for c in base:
        v0 = recognize(c)
        for _ in range(10):
            image = list(range(1, c.m + 1))
            rng.shuffle(image)
            perm = {v: image[v - 1] for v in range(1, c.m + 1)}
            v1 = recognize(permuted(c, perm))
            assert type(v1) is type(v0)
            if isinstance(v0, Sphere):
                assert v1.d == v0.d
                assert v1.certificate.n == v0.certificate.n


@st.composite
def odd_orderings(draw):
    """Odd sequences of members: arbitrary subsets, or a relabelled bracelet's cycle."""
    if draw(st.booleans()):
        n = draw(st.sampled_from([3, 5, 7, 9]))
        members = draw(st.lists(st.frozensets(st.integers(1, 9)), min_size=n, max_size=n))
        return tuple(tuple(sorted(a)) for a in members)
    _, cert = instantiate(draw(st.sampled_from(enumerate_bracelets(draw(st.integers(5, 12))))))
    m = sum(len(b) for b in cert.blocks)
    image = draw(st.permutations(range(1, m + 1)))
    ordering = [tuple(sorted(image[v - 1] for v in a)) for a in cert.ordering]
    r = draw(st.integers(0, len(ordering) - 1))
    ordering = ordering[r:] + ordering[:r]
    return tuple(reversed(ordering)) if draw(st.booleans()) else tuple(ordering)


@settings(max_examples=200, deadline=None)
@given(odd_orderings())
def test_property_canonical_certificate_matches_per_variant_blocks(ordering):
    assert canonical_certificate(ordering) == brute_force_canonical_certificate(ordering)


# -- certificates the library builds, and relabelling ---------------------------

@st.composite
def relabelled_families(draw, max_m=9):
    """A random non-face family, or a bracelet's family relabelled by a random permutation."""
    if draw(st.booleans()):
        return draw(nonface_families(max_m=max_m))
    f, _ = instantiate(draw(st.sampled_from(SMALL_BRACELETS)))
    image = draw(st.permutations(range(1, f.m + 1)))
    return permuted_family(f, {v: image[v - 1] for v in range(1, f.m + 1)})


@settings(deadline=None)
@given(relabelled_families())
def test_property_recognized_certificates_are_valid_and_canonical(f):
    verdict = recognize(complex_from_nonfaces(f))
    if isinstance(verdict, Sphere):
        assert_valid_and_canonical(verdict.certificate, f.m)
        assert find_max_odd_cycle(f) == (verdict.certificate if verdict.certificate.n >= 3 else None)


@settings(deadline=None, max_examples=200)
@given(relabelled_families())
@example(NonFaceFamily(3, ()))  # the full simplex
@example(NonFaceFamily(8, ((1, 2), (3, 4), (5, 6), (7, 8))))  # out of scope: m - d = 5
@example(NonFaceFamily(6, ((1, 2), (3, 4), (5, 6), (1, 3, 5))))  # even, so dualized for d
def test_property_a_family_is_recognized_as_its_complex(f):
    # read as given, and through the complex that Berge's dualization builds from it
    assert recognize(f) == recognize(complex_from_nonfaces(f))


@settings(deadline=None, max_examples=300)
@given(st.one_of(nonface_families(), planted_twins().map(lambda planted: planted[0])))
def test_property_a_rejected_family_has_the_dimension_of_its_complex(f):
    # a family of no sphere is not dualized into facets: its d is read off
    # the sizes of the transversals of its quotient by twins
    verdict = recognize(f)
    if isinstance(verdict, Sphere):
        return
    comp = complex_from_nonfaces(f)
    assert verdict == recognize(comp)
    assert f.m - min(map(int.bit_count, _quotient_transversals(f)[0])) - 1 == comp.dimension
    if isinstance(verdict, OutOfScope):
        assert (verdict.m, verdict.d) == (f.m, comp.dimension)


def test_recognize_builds_no_complex_for_twelve_disjoint_pairs(monkeypatch):
    # Their complex has 2^12 facets; the verdict needs only their size.
    built = []
    real_built = complexes_module._built

    def spy(cls, **fields):
        built.append(cls)
        return real_built(cls, **fields)

    monkeypatch.setattr(complexes_module, "_built", spy)
    monkeypatch.setattr(SimplicialComplex, "__post_init__", lambda self: built.append(SimplicialComplex))
    pairs = NonFaceFamily(24, tuple((2 * i - 1, 2 * i) for i in range(1, 13)))
    assert recognize(pairs) == OutOfScope(24, 11)
    assert SimplicialComplex not in built
    complex_from_nonfaces(NonFaceFamily(4, ((1, 2), (3, 4))))  # the spy sees a complex being built
    assert SimplicialComplex in built


def test_canonical_rotation_is_the_least_of_all_dihedral_variants():
    # `_certificate` compares two candidates, both starting at the least block
    rng = random.Random(1931)
    for m in range(4, 13):
        for b in enumerate_bracelets(m):
            ordering = instantiate(b)[1].ordering
            image = list(range(1, m + 1))
            rng.shuffle(image)
            relabelled = tuple(tuple(sorted(image[v - 1] for v in a)) for a in ordering)
            n = len(ordering)
            for seq in (ordering, relabelled):
                for r in range(n):
                    for turned in (seq[r:] + seq[:r], (seq[r:] + seq[:r])[::-1]):
                        masks = [_row_mask(a, MAX_VERTICES) for a in reference_alternating_blocks(turned)]
                        cert = _certificate(masks)
                        assert (cert.blocks, cert.ordering) == brute_force_canonical_certificate(turned)


def test_instantiated_certificates_are_valid_and_canonical():
    for m in range(4, 13):
        for b in enumerate_bracelets(m):
            assert_valid_and_canonical(instantiate(b)[1], m)


def relabelled_certificate(cert, perm):
    """`cert` with every label v moved to perm[v]."""
    return Certificate(cert.m, [tuple(perm[v] for v in s) for s in cert.slots])


@settings(deadline=None)
@given(relabelled_families(max_m=8).flatmap(
    lambda f: st.tuples(st.just(f), st.permutations(range(1, f.m + 1)))
))
def test_property_recognize_is_unchanged_under_relabelling(case):
    f, image = case
    perm = {v: image[v - 1] for v in range(1, f.m + 1)}
    c = complex_from_nonfaces(f)
    before, after = recognize(c), recognize(permuted(c, perm))
    assert type(after) is type(before)
    if isinstance(before, NotSphere):
        assert after.reason is before.reason
    if isinstance(before, OutOfScope):
        assert after == before
    if isinstance(before, Sphere):
        assert after.d == before.d
        assert after.certificate == relabelled_certificate(before.certificate, perm)


# -- the facet route against the dualization ------------------------------------

RP2_FACETS = ((1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
              (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6))


def by_both_routes(c):
    """(recognize's verdict, the non-face route's verdict, whether the facet route answered).

    Each call gets a fresh copy of `c`, so none reads what another kept.
    """
    def copy():
        return SimplicialComplex(c.m, c.facets)

    s = c.m - c.dimension - 1
    answered = 1 <= s <= 3 and _sphere_from_facets(copy(), s) is not None
    return recognize(copy()), _recognize_nonfaces(copy()), answered


@st.composite
def relabelled_spheres(draw, max_m=16):
    """A sphere with m <= d+4: a relabelled bracelet sphere, a two-partition sphere or a simplex boundary."""
    kind = draw(st.sampled_from(["bracelet", "partition", "simplex"]))
    if kind == "bracelet":
        f, _ = instantiate(draw(st.integers(5, max_m).flatmap(lambda m: st.sampled_from(enumerate_bracelets(m)))))
        m, members = f.m, f.members
    elif kind == "partition":
        m = draw(st.integers(4, 12))
        first = tuple(range(1, draw(st.integers(2, m - 2)) + 1))
        members = (first, tuple(range(len(first) + 1, m + 1)))
    else:
        m = draw(st.integers(2, 12))
        members = (tuple(range(1, m + 1)),)
    image = draw(st.permutations(range(1, m + 1)))
    return complex_from_nonfaces(permuted_family(NonFaceFamily(m, members), {v: image[v - 1] for v in range(1, m + 1)}))


@settings(deadline=None, max_examples=150)
@given(relabelled_spheres())
def test_property_facet_route_answers_every_sphere(c):
    facet_verdict, dual_verdict, answered = by_both_routes(c)
    assert answered
    assert isinstance(facet_verdict, Sphere)
    assert facet_verdict == dual_verdict
    assert_valid_and_canonical(facet_verdict.certificate, c.m)


@settings(deadline=None, max_examples=150)
@given(relabelled_spheres(max_m=12).flatmap(lambda c: st.tuples(st.just(c), st.booleans(), st.randoms())))
def test_property_facet_route_agrees_on_a_sphere_with_a_facet_dropped_or_added(case):
    c, drop, rng = case
    facets = set(c.facets)
    if drop:
        facets.discard(rng.choice(c.facets))
        assume(set().union(*facets) == set(range(1, c.m + 1)))
    else:
        facets.add(tuple(sorted(rng.sample(range(1, c.m + 1), c.dimension + 1))))
        assume(len(facets) > len(c.facets))
    facet_verdict, dual_verdict, answered = by_both_routes(SimplicialComplex(c.m, tuple(facets)))
    assert facet_verdict == dual_verdict
    assert not answered and not isinstance(facet_verdict, Sphere)


@st.composite
def small_complement_complexes(draw):
    """A complex on [m] whose facets are the complements of some s-subsets, s = 1, 2 or 3."""
    s = draw(st.integers(1, 3))
    m = draw(st.integers(s + 1, 9))
    complements = draw(st.sets(st.sampled_from(list(itertools.combinations(range(1, m + 1), s))), min_size=1))
    facets = tuple(tuple(v for v in range(1, m + 1) if v not in t) for t in complements)
    assume(set().union(*map(set, facets)) == set(range(1, m + 1)))
    return SimplicialComplex(m, facets)


@settings(deadline=None, max_examples=450)
@given(small_complement_complexes())
def test_property_facet_route_agrees_on_random_pure_complexes(c):
    facet_verdict, dual_verdict, answered = by_both_routes(c)
    assert facet_verdict == dual_verdict
    assert answered == isinstance(facet_verdict, Sphere)


@pytest.mark.parametrize("c", [
    # the 21-vertex bracelet sphere (3,)*7 and the n = 3 sphere (2, 2, 2), relabelled
    complex_from_nonfaces(permuted_family(instantiate((3,) * 7)[0], {v: (5 * v) % 21 + 1 for v in range(1, 22)})),
    complex_from_nonfaces(permuted_family(instantiate((2, 2, 2))[0], {1: 4, 2: 1, 3: 6, 4: 2, 5: 3, 6: 5})),
    # the octahedron boundary, the 4-cycle (a two-set partition at m = d+3) and the tetrahedron boundary
    complex_from_nonfaces(NonFaceFamily(6, ((1, 2), (3, 4), (5, 6)))),
    SimplicialComplex(4, ((1, 2), (2, 3), (3, 4), (1, 4))),
    SimplicialComplex(4, tuple(itertools.combinations(range(1, 5), 3))),
], ids=["21-vertex", "n3", "octahedron", "4-cycle", "tetrahedron"])
def test_facet_route_examples(c):
    facet_verdict, dual_verdict, answered = by_both_routes(c)
    assert answered and isinstance(facet_verdict, Sphere)
    assert facet_verdict == dual_verdict


def test_recognize_reads_a_sphere_off_its_facets_even_once_it_keeps_its_nonfaces(monkeypatch):
    spheres = [cycle_complex(instantiate(b)[1]) for b in ((1,) * 5, (2, 2, 2), (1, 1, 1, 2, 3))]
    spheres += [complex_from_nonfaces(NonFaceFamily(4, ((1, 2), (3, 4)))),
                complex_from_nonfaces(NonFaceFamily(4, ((1, 2, 3, 4),)))]
    expected = [recognize(SimplicialComplex(c.m, c.facets)) for c in spheres]
    for c in spheres:
        minimal_nonfaces(c)

    def refuse(f):
        raise AssertionError("recognize read the minimal non-faces")

    monkeypatch.setattr(recognizer_module, "_read_family", refuse)
    assert [recognize(c) for c in spheres] == expected
    assert all(isinstance(v, Sphere) for v in expected)


def test_facet_route_leaves_the_six_vertex_rp2_to_the_dualization():
    # Pure with m = d+4 and a pseudomanifold, yet its 10 minimal non-faces are an even family.
    facet_verdict, dual_verdict, answered = by_both_routes(SimplicialComplex(6, RP2_FACETS))
    assert not answered
    assert facet_verdict == dual_verdict == NotSphere(NotSphereReason.NON_ODD_FAMILY_SIZE)


def test_facet_route_refuses_a_seven_cycle_of_slots_with_non_central_triples():
    # 14 complements on 7 singleton blocks whose slot graph is the 7-cycle
    # 0-1-6-3-5-4-2, as many as the 7-gon has central triangles, but 4 of
    # them are not central, so the sphere rebuilt in that order differs.
    triples = ((1, 3, 5), (0, 1, 6), (0, 1, 5), (0, 4, 5), (0, 3, 5), (1, 5, 6), (3, 4, 6),
               (3, 5, 6), (0, 2, 4), (1, 2, 5), (1, 4, 6), (2, 3, 4), (0, 1, 2), (2, 3, 6))
    c = SimplicialComplex(7, tuple(tuple(v + 1 for v in range(7) if v not in t) for t in triples))
    facet_verdict, dual_verdict, answered = by_both_routes(c)
    assert not answered and facet_verdict == dual_verdict


def test_facet_route_refuses_the_nine_gon_sphere_less_one_facet():
    # In the 9-gon the triangle with gaps (3, 3, 3) holds no pair at distance
    # 1 or 2, so dropping its facet leaves the slot graph a 9-cycle; the
    # sphere rebuilt from it has the dropped facet.
    sphere = complex_from_nonfaces(instantiate((1,) * 9)[0])
    assert len(sphere.facets) == 30  # the central triangles of the 9-gon
    for facet in sphere.facets:
        c = SimplicialComplex(9, tuple(f for f in sphere.facets if f != facet))
        facet_verdict, dual_verdict, answered = by_both_routes(c)
        assert not answered and facet_verdict == dual_verdict


# -- the sphere of a certificate ------------------------------------------------

def two_block_splits(m):
    """Every split of [m] into two blocks of size >= 2, the block of 1 first."""
    rest = range(2, m + 1)
    for r in range(1, m - 2):
        for first in itertools.combinations(rest, r):
            yield (1, *first), tuple(v for v in rest if v not in first)


def one_or_two_block_spheres(max_m):
    """(family, certificate) of the simplex boundary and of every two-set partition of [m], 2 <= m <= max_m."""
    for m in range(2, max_m + 1):
        for members in [(tuple(range(1, m + 1)),), *two_block_splits(m)]:
            yield NonFaceFamily(m, members), Certificate(m, members)


def test_cycle_complex_equals_the_dualization_on_every_bracelet():
    # and on every sphere of one or two blocks with m <= 9
    bracelets = (instantiate(b) for m in range(4, 15) for b in enumerate_bracelets(m))
    for fam, cert in itertools.chain(bracelets, one_or_two_block_spheres(9)):
        comp = cycle_complex(cert)
        assert comp == complex_from_nonfaces(fam), cert
        assert recognize(comp) == Sphere(cert.m - min(cert.n, 3) - 1, cert)


@pytest.mark.parametrize("m", range(2, 10))
def test_complements_at_one_and_two_blocks_equal_the_dualization(m):
    # the simplex boundary, then every two-partition sphere, with its slots in either order
    for members in [(tuple(range(1, m + 1)),), *two_block_splits(m)]:
        expected = complex_from_nonfaces(NonFaceFamily(m, members))
        for slots in {members, members[::-1]}:
            complements = _complements([_row_mask(s, m) for s in slots])
            facets = tuple(tuple(v for v in range(1, m + 1) if v not in _face(x)) for x in complements)
            assert SimplicialComplex(m, facets) == expected, slots


BRACELETS_TO_12 = [b for m in range(4, 13) for b in enumerate_bracelets(m)]


@settings(deadline=None)
@given(st.sampled_from(BRACELETS_TO_12).flatmap(
    lambda b: st.tuples(st.just(b), st.permutations(range(1, sum(b) + 1)))
))
def test_property_cycle_complex_of_a_relabelled_family(case):
    b, image = case
    f = permuted_family(instantiate(b)[0], {v: image[v - 1] for v in range(1, len(image) + 1)})
    cert = find_max_odd_cycle(f)
    expected = complex_from_nonfaces(f)
    assert cycle_complex(cert) == expected
    # a copy goes through the constructor, which checks it again
    assert cycle_complex(dataclasses.replace(cert)) == expected


@pytest.mark.parametrize("m, slots, reason", [
    pytest.param(8, ((1, 2), (3, 4), (5, 6), (7, 8)), "odd number", id="even-length"),
    pytest.param(5, ((1,), (2,), (3,), (4,), (4,)), "partition", id="blocks-not-a-partition"),
])
def test_cycle_complex_refuses_an_invalid_certificate(m, slots, reason):
    with pytest.raises(ValueError, match=reason):
        cycle_complex(Certificate(m, slots))


# -- the one certificate constructor ---------------------------------------------

def relabelled_spheres_of_every_shape():
    """(family, seed) for every sphere of one or two blocks with m <= 7 and every bracelet sphere with m <= 9."""
    bracelets = (instantiate(b)[0] for m in range(4, 10) for b in enumerate_bracelets(m))
    for seed, fam in enumerate(itertools.chain((f for f, _ in one_or_two_block_spheres(7)), bracelets)):
        image = list(range(1, fam.m + 1))
        random.Random(seed).shuffle(image)
        yield permuted_family(fam, {v: image[v - 1] for v in range(1, fam.m + 1)}), seed


def test_constructor_gives_recognize_s_certificate_from_any_dihedral_variant():
    for fam, seed in relabelled_spheres_of_every_shape():
        cert = recognize(complex_from_nonfaces(fam)).certificate
        rng = random.Random(seed)
        n = cert.n
        for seq in (list(cert.slots), list(reversed(cert.slots))):
            for r in range(n):
                slots = [rng.sample(s, len(s)) for s in seq[r:] + seq[:r]]  # labels in any order
                built = Certificate(fam.m, slots)
                assert built == cert and hash(built) == hash(cert), slots
                assert (built.blocks, built.ordering, built.slots) == (cert.blocks, cert.ordering, cert.slots)


@pytest.mark.parametrize("m", [3.0, True])
def test_certificate_refuses_a_vertex_count_as_complexes_do(m):
    with pytest.raises(InvariantError) as expected:
        SimplicialComplex(m, ((1, 2, 3),))
    with pytest.raises(InvariantError) as refused:
        Certificate(m, ((1, 2, 3),))
    assert str(refused.value) == str(expected.value)


@pytest.mark.parametrize("m, slots, reason", [
    (3, (), "1, 2 or an odd number of blocks, got 0"),
    (8, ((1, 2), (3, 4), (5, 6), (7, 8)), "1, 2 or an odd number of blocks, got 4"),
    (6, ((1, 2), (3, 4), (5,)), "do not partition"),
    (5, ((1, 2), (2, 3), (4, 5)), "do not partition"),
    (1, ((1,),), "size >= 2"),
    (3, ((1,), (2, 3)), "size >= 2"),
    (5, ((1,), (2, 3), (4, 5)), "size >= 2"),
    (3, ((1, 2, 4),), "exceeds vertex count m=3"),
    (3, ((1, True, 3),), "vertex labels must be integers >= 1, got True"),
    (3, ((1, 2, 2, 3),), "duplicate vertex"),
], ids=["no-block", "four-blocks", "gap", "overlap", "one-vertex-simplex", "singleton-of-two",
        "singleton-of-three", "label-past-m", "bool-label", "repeated-label"])
def test_certificate_refuses_blocks_of_no_sphere(m, slots, reason):
    with pytest.raises(InvariantError, match=re.escape(reason)):
        Certificate(m, slots)
