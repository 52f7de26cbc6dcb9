"""Core complex/non-face machinery, checked against definition-level brute force."""

import itertools
import random

import pytest
from hypothesis import given, settings

from oddsphere.complexes import (
    InvariantError,
    NonFaceFamily,
    SimplicialComplex,
    complex_from_nonfaces,
    euler_characteristic,
    f_vector,
    minimal_nonfaces,
)
from tests_shared import is_face, nonface_families, permuted, permuted_family, simplicial_complexes

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
