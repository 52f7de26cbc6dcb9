"""Core complex/non-face machinery, checked against definition-level brute force."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddsphere.complexes import (
    InvariantError,
    NonFaceFamily,
    SimplicialComplex,
    _check_antichain,
    _minimal_transversals,
    complex_from_nonfaces,
    euler_characteristic,
    f_vector,
    minimal_nonfaces,
)
from tests_shared import (
    is_face,
    nonface_families,
    permuted,
    permuted_family,
    reference_check_antichain,
    reference_minimal_transversals,
    simplicial_complexes,
)

PENTAGON_EDGES = ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5))
PENTAGON_NONFACES = ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5))
OCTAHEDRON_FACETS = (
    (1, 3, 5), (1, 3, 6), (1, 4, 5), (1, 4, 6),
    (2, 3, 5), (2, 3, 6), (2, 4, 5), (2, 4, 6),
)


# -- independent oracles: work straight from the definitions --------------

def subsets(universe):
    for size in range(len(universe) + 1):
        yield from itertools.combinations(universe, size)


def naive_is_face(facets, a):
    return any(set(a) <= set(f) for f in facets)


def naive_minimal_nonfaces(m, facets):
    universe = range(1, m + 1)
    out = []
    for a in subsets(universe):
        if naive_is_face(facets, a):
            continue
        if all(naive_is_face(facets, a[:i] + a[i + 1 :]) for i in range(len(a))):
            out.append(a)
    return tuple(sorted(out))


def naive_complex_from_nonfaces(m, members):
    universe = range(1, m + 1)
    admissible = [
        a for a in subsets(universe)
        if not any(set(b) <= set(a) for b in members)
    ]
    maximal = [
        a for a in admissible
        if not any(set(a) < set(b) for b in admissible)
    ]
    return tuple(sorted(maximal))


def random_family(rng, m):
    """A random valid non-face family on [m] (antichain, members of size >= 2)."""
    count = rng.randint(1, m)
    pool = []
    for _ in range(count):
        size = rng.randint(2, m)
        pool.append(tuple(sorted(rng.sample(range(1, m + 1), size))))
    minimal = [a for a in pool if not any(set(b) < set(a) for b in pool)]
    return NonFaceFamily(m, tuple(set(minimal)))


# -- examples with frozen expectations -------------------------------------

def test_minimal_nonfaces_five_cycle():
    c = SimplicialComplex(5, PENTAGON_EDGES)
    assert minimal_nonfaces(c).members == PENTAGON_NONFACES
    assert naive_minimal_nonfaces(5, PENTAGON_EDGES) == PENTAGON_NONFACES


def test_minimal_nonfaces_simplex_boundary():
    facets = tuple(itertools.combinations(range(1, 5), 3))
    c = SimplicialComplex(4, facets)
    assert minimal_nonfaces(c).members == ((1, 2, 3, 4),)


def test_minimal_nonfaces_octahedron():
    c = SimplicialComplex(6, OCTAHEDRON_FACETS)
    expected = naive_minimal_nonfaces(6, OCTAHEDRON_FACETS)
    assert expected == ((1, 2), (3, 4), (5, 6))
    assert minimal_nonfaces(c).members == expected


def test_complex_from_nonfaces_octahedron():
    f = NonFaceFamily(6, ((1, 2), (3, 4), (5, 6)))
    assert complex_from_nonfaces(f).facets == OCTAHEDRON_FACETS
    assert naive_complex_from_nonfaces(6, f.members) == OCTAHEDRON_FACETS


def test_complex_from_nonfaces_tetrahedron():
    f = NonFaceFamily(4, ((1, 2, 3, 4),))
    assert complex_from_nonfaces(f).facets == tuple(itertools.combinations(range(1, 5), 3))


def test_complex_from_nonfaces_pentagon():
    f = NonFaceFamily(5, PENTAGON_NONFACES)
    assert complex_from_nonfaces(f).facets == tuple(sorted(PENTAGON_EDGES))


def test_is_face():
    c = SimplicialComplex(6, OCTAHEDRON_FACETS)
    assert is_face(c, (1, 3))
    assert not is_face(c, (1, 2))
    assert is_face(c, ())


def test_f_vector_and_euler():
    octa = SimplicialComplex(6, OCTAHEDRON_FACETS)
    assert f_vector(octa) == (1, 6, 12, 8)
    assert euler_characteristic(octa) == 2
    pent = SimplicialComplex(5, PENTAGON_EDGES)
    assert f_vector(pent) == (1, 5, 5)
    assert euler_characteristic(pent) == 0
    tetra = SimplicialComplex(4, tuple(itertools.combinations(range(1, 5), 3)))
    assert euler_characteristic(tetra) == 2


# -- invariants -------------------------------------------------------------

def test_round_trip_from_families():
    rng = random.Random(20240901)
    for _ in range(300):
        m = rng.randint(2, 9)
        f = random_family(rng, m)
        assert minimal_nonfaces(complex_from_nonfaces(f)) == f


def test_round_trip_from_complexes():
    rng = random.Random(20240902)
    for _ in range(200):
        m = rng.randint(2, 8)
        f = random_family(rng, m)
        c = complex_from_nonfaces(f)
        assert complex_from_nonfaces(minimal_nonfaces(c)) == c


def test_monotone_consistency():
    rng = random.Random(20240903)
    for _ in range(50):
        m = rng.randint(3, 7)
        c = complex_from_nonfaces(random_family(rng, m))
        for a in subsets(range(1, m + 1)):
            if is_face(c, a):
                for i in range(len(a)):
                    assert is_face(c, a[:i] + a[i + 1 :])


def test_relabeling_equivariance():
    rng = random.Random(20240904)
    for _ in range(60):
        m = rng.randint(3, 8)
        f = random_family(rng, m)
        c = complex_from_nonfaces(f)
        image = list(range(1, m + 1))
        rng.shuffle(image)
        perm = {v: image[v - 1] for v in range(1, m + 1)}
        assert minimal_nonfaces(permuted(c, perm)) == permuted_family(minimal_nonfaces(c), perm)


def test_join_law_three_partitions():
    rng = random.Random(20240905)
    for _ in range(40):
        m = rng.randint(6, 9)
        labels = list(range(1, m + 1))
        rng.shuffle(labels)
        c1 = rng.randint(2, m - 4)
        c2 = rng.randint(2, m - c1 - 2)
        blocks = [tuple(sorted(labels[:c1])), tuple(sorted(labels[c1 : c1 + c2])),
                  tuple(sorted(labels[c1 + c2 :]))]
        c = complex_from_nonfaces(NonFaceFamily(m, tuple(blocks)))
        for a in subsets(range(1, m + 1)):
            omits_each = all(set(b) - set(a) for b in blocks)
            assert is_face(c, a) == omits_each


@settings(deadline=None)
@given(nonface_families(max_m=10))
def test_property_nonfaces_complex_nonfaces(f):
    assert minimal_nonfaces(complex_from_nonfaces(f)) == f


@settings(deadline=None)
@given(simplicial_complexes(max_m=10))
def test_property_complex_nonfaces_complex(c):
    assert complex_from_nonfaces(minimal_nonfaces(c)) == c


@settings(deadline=None)
@given(simplicial_complexes(max_m=7))
def test_property_minimal_nonfaces_matches_naive(c):
    assert minimal_nonfaces(c).members == naive_minimal_nonfaces(c.m, c.facets)


# -- the dualization and the antichain check against their references ------

@st.composite
def mask_lists(draw, budget: int = 256):
    """Vertex masks on up to 64 vertices, with repeated, nested and empty masks.

    The product of the sizes of the fresh and subset masks, which bounds the
    number of minimal transversals, stays within `budget`.
    """
    m = draw(st.integers(1, 64))
    masks: list[int] = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(("fresh", "repeat", "superset", "subset", "empty")))
        old = draw(st.sampled_from(masks)) if masks else 0
        if kind == "empty":
            masks.append(0)
        elif kind == "repeat":
            masks.append(old)
        elif kind == "superset":
            extra = draw(st.sets(st.integers(0, m - 1), max_size=4))
            masks.append(old | sum(1 << b for b in extra))
        else:
            pool = [b for b in range(m) if old >> b & 1] if kind == "subset" and old else range(m)
            bits = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=budget))
            budget //= len(bits)
            masks.append(sum(1 << b for b in bits))
    return masks


@settings(deadline=None)
@given(mask_lists())
def test_property_minimal_transversals_match_reference(masks):
    transversals = _minimal_transversals(masks)
    assert len(set(transversals)) == len(transversals)
    assert set(transversals) == reference_minimal_transversals(masks)


@st.composite
def face_lists(draw):
    """Distinct faces on [m] in any order; `nested` when one was put inside or around another."""
    m = draw(st.integers(1, 12))
    faces = draw(st.lists(st.frozensets(st.integers(1, m)), unique=True, max_size=12))
    nested = False
    if faces and draw(st.booleans()):
        base = draw(st.sampled_from(faces))
        other = draw(st.frozensets(st.integers(1, m)))
        extra = base & other if draw(st.booleans()) else base | other
        if extra not in faces:
            faces.insert(draw(st.integers(0, len(faces))), extra)
            nested = True
    return [tuple(sorted(f)) for f in faces], nested


def _antichain_error(check, faces):
    try:
        check(faces, "faces")
    except InvariantError as exc:
        return str(exc)
    return None


@settings(deadline=None)
@given(face_lists())
def test_property_check_antichain_matches_reference(drawn):
    faces, nested = drawn
    error = _antichain_error(_check_antichain, faces)
    assert error == _antichain_error(reference_check_antichain, faces)
    if nested:
        assert error is not None


# -- invariant violations ---------------------------------------------------

def test_rejects_singleton_nonface():
    with pytest.raises(InvariantError):
        NonFaceFamily(4, ((1,), (2, 3)))


def test_rejects_non_antichain_family():
    with pytest.raises(InvariantError):
        NonFaceFamily(4, ((1, 2), (1, 2, 3)))


def test_rejects_nested_facets():
    with pytest.raises(InvariantError):
        SimplicialComplex(3, ((1, 2), (1, 2, 3)))


def test_rejects_uncovered_vertex():
    with pytest.raises(InvariantError):
        SimplicialComplex(4, ((1, 2), (2, 3)))


def test_rejects_out_of_range_vertex():
    with pytest.raises(InvariantError):
        SimplicialComplex(3, ((1, 2), (3, 4)))


def test_rejects_m_beyond_bitmask_limit():
    with pytest.raises(InvariantError):
        NonFaceFamily(65, ((1, 2),))


def test_empty_family_is_full_simplex():
    f = NonFaceFamily(4, ())
    c = complex_from_nonfaces(f)
    assert c.facets == ((1, 2, 3, 4),)
    assert minimal_nonfaces(c) == f
