"""Core complex/non-face machinery, checked against definition-level brute force."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddsphere import complexes, serialize
from oddsphere.catalog import enumerate_bracelets, instantiate
from oddsphere.complexes import (
    EnumerationLimitError,
    InvariantError,
    NonFaceFamily,
    SimplicialComplex,
    _check_antichain,
    _check_view_antichain,
    _face,
    _minimal_transversals,
    _row_mask,
    complex_from_nonfaces,
    euler_characteristic,
    f_vector,
    minimal_nonfaces,
)
from oddsphere.gale import realize_gale_vectors, reconstruct_points, recover_nonfaces
from oddsphere.oracle import betti_mod2, boundary_complex
from oddsphere.recognizer import recognize
from tests_shared import (
    face_mask,
    is_face,
    nonface_families,
    permuted,
    permuted_family,
    planted_twins,
    reference_check_antichain,
    reference_complex_fields,
    reference_family_fields,
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


def test_one_dualization_per_complex(monkeypatch):
    calls = []

    def counted(masks, cap=None, per_set=0):
        calls.append(1)
        return _minimal_transversals(masks, cap, per_set)

    monkeypatch.setattr(complexes, "_minimal_transversals", counted)
    octa = SimplicialComplex(6, OCTAHEDRON_FACETS)
    recognize(octa)
    betti_mod2(octa)
    f_vector(octa)
    assert minimal_nonfaces(octa).members == ((1, 2), (3, 4), (5, 6))
    assert len(calls) == 1
    fresh = SimplicialComplex(6, OCTAHEDRON_FACETS)  # the cache is not a dataclass field
    assert octa == fresh and hash(octa) == hash(fresh) and repr(octa) == repr(fresh)
    assert len(calls) == 1
    betti_mod2(fresh)  # a dualization bounded by the nerve budget is kept as well
    f_vector(fresh)
    recognize(fresh)
    assert len(calls) == 2


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


def test_minimal_transversals_stop_past_the_cap():
    pairs = [3 << 2 * i for i in range(10)]  # 2^10 minimal transversals, one bit per pair
    with pytest.raises(EnumerationLimitError):
        _minimal_transversals(pairs, (1 << 10) - 1)
    assert len(_minimal_transversals(pairs, 1 << 10)) == 1 << 10


def test_minimal_transversals_stop_past_the_work_budget_within_the_cap():
    # The pairs {1,2}..{19,20}, {1,21} and {2,22}: 3 * 2^9 = 1,536 minimal
    # transversals, and no two vertices with equal links.  The {1,21} step
    # tests each of the 2^9 transversals through 2 against the 2^9 through 1,
    # about 262k units, past the budget of 1,536 * 32.
    masks = sorted([3 << 2 * i for i in range(10)] + [1 | 1 << 20, 2 | 1 << 21])
    assert not complexes._twin_classes(masks, by_link=True)
    assert len(_minimal_transversals(masks, complexes.MAX_NERVE_FACES)) == 1536
    with pytest.raises(EnumerationLimitError):
        _minimal_transversals(masks, 1536, 32)


def pair_complement_complex(pairs):
    """The facets [m] - {2i-1, 2i}: the minimal non-faces pick one vertex per pair, 2^pairs of them."""
    m = 2 * pairs
    return SimplicialComplex(m, tuple(tuple(v for v in range(1, m + 1) if (v + 1) // 2 != i)
                                      for i in range(1, pairs + 1)))


@pytest.mark.parametrize(
    "call, value",
    [
        (complex_from_nonfaces, NonFaceFamily(40, tuple((2 * i - 1, 2 * i) for i in range(1, 21)))),
        (minimal_nonfaces, pair_complement_complex(32)),
        (recognize, pair_complement_complex(32)),
        (betti_mod2, pair_complement_complex(32)),
    ],
    ids=["20-pairs-complex_from_nonfaces", "32-pairs-minimal_nonfaces", "32-pairs-recognize", "32-pairs-betti_mod2"],
)
def test_library_refuses_like_the_cli(call, value):
    # The limits live in `complexes`, so a library call refuses what the CLI does.
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitError):
        call(value)
    assert time.perf_counter() - start < 2.0


@settings(deadline=None, max_examples=300)
@given(st.lists(st.integers(0, 199), max_size=12), st.integers(0, 200))
def test_property_face_decodes_sparse_and_dense_masks(bits, width):
    # a few set bits, then their complement in `width` bits: a few holes
    sparse = sum(1 << b for b in set(bits))
    for mask in (sparse, sparse ^ ((1 << max(width, sparse.bit_length())) - 1)):
        assert _face(mask) == tuple(v + 1 for v in range(mask.bit_length()) if mask >> v & 1)


@settings(deadline=None)
@given(mask_lists())
def test_property_minimal_transversals_match_reference(masks):
    transversals = _minimal_transversals(masks, complexes.MAX_NERVE_FACES)
    assert len(set(transversals)) == len(transversals)
    assert set(transversals) == reference_minimal_transversals(masks)


@settings(deadline=None, max_examples=300)
@given(planted_twins())
def test_property_twin_quotients_match_reference(planted):
    # Both dualizations, on their quotients by twins, give what Berge's
    # algorithm gives on the sets as they are.
    fam, comp, fam_pairs, comp_pairs = planted
    fam_sets = list(fam._masks)
    comp_sets = [((1 << comp.m) - 1) ^ a for a in comp._masks]
    for sets, by_link, pairs in ((fam_sets, False, fam_pairs), (comp_sets, True, comp_pairs)):
        classes = complexes._twin_classes(sets, by_link)
        support = 0
        for x in sets:
            support |= x
        assert all(any(pair & cls == pair for cls in classes) for pair in pairs if pair & support)
    facets = complex_from_nonfaces(fam)._masks
    assert {((1 << fam.m) - 1) ^ a for a in facets} == reference_minimal_transversals(fam_sets)
    assert set(minimal_nonfaces(comp)._masks) == reference_minimal_transversals(comp_sets)


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
    error = _antichain_error(lambda fs, what: _check_antichain([face_mask(f) for f in fs], what), faces)
    assert error == _antichain_error(reference_check_antichain, faces)
    if nested:
        assert error is not None
    # Values keep their masks sorted by int; a refusal still names the pair the sorted view meets first.
    in_view_order = _antichain_error(lambda fs, what: _check_view_antichain(sorted(map(face_mask, fs)), what), faces)
    assert in_view_order == _antichain_error(reference_check_antichain, sorted(faces))


@st.composite
def label_rows(draw):
    """(m, rows): facets or non-faces on [m], or raw sets, perhaps with one defect.

    A defect is a bool, 0, a negative label, a label above m, a repeated
    label, or a row nested in another; the rows may also be none at all.
    """
    m = draw(st.integers(1, 7))
    sets = draw(st.lists(st.frozensets(st.integers(1, m), min_size=1), max_size=6))
    shape = draw(st.sampled_from(["facets", "nonfaces", "raw"]))
    if shape == "facets":
        sets = [a for a in sets if not any(a < b for b in sets)]
        sets += [frozenset({v}) for v in range(1, m + 1) if not any(v in a for a in sets)]
    elif shape == "nonfaces":
        sets = [a for a in sets if len(a) >= 2 and not any(b < a for b in sets if len(b) >= 2)]
    rows = [draw(st.permutations(sorted(a))) for a in sets]
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        defect = draw(st.sampled_from([True, False, 0, -3, m + 1, 10**30, "repeat", "nested"]))
        if defect == "nested":
            rows.append(row[: draw(st.integers(0, len(row) - 1))])
        else:
            row.insert(draw(st.integers(0, len(row))), row[0] if defect == "repeat" else defect)
    return m, rows


def assert_rebuilds_equal(value):
    """A library-built value equals its validated rebuild: the same masks, sorted by int, and a lex-sorted view."""
    view = value.facets if isinstance(value, SimplicialComplex) else value.members
    assert view == tuple(sorted(view))
    rebuilt = type(value)(value.m, view)
    assert rebuilt == value
    assert rebuilt._masks == value._masks == tuple(sorted(face_mask(a) for a in view))


@settings(deadline=None, max_examples=300)
@given(label_rows())
def test_property_one_pass_label_check_matches_reference(drawn):
    m, rows = drawn
    for cls, reference in ((SimplicialComplex, reference_complex_fields), (NonFaceFamily, reference_family_fields)):
        try:
            expected = reference(m, rows)
        except InvariantError:
            with pytest.raises(InvariantError):
                cls(m, rows)
            continue
        value = cls(m, rows)
        assert (value.m, value.facets if cls is SimplicialComplex else value.members) == expected
        assert_rebuilds_equal(value)


@pytest.mark.parametrize("kind", ["complex", "non-face"])
@pytest.mark.parametrize("label", [True, 0, 7, 4, 1.5, "1"], ids=["bool", "zero", "above-m", "repeat", "float", "string"])
def test_one_pass_label_check_refuses_like_row_mask(kind, label):
    # The bad label sits in the second row, after a valid one; label 4 repeats
    # the 4 already in that row.  The messages must be those of `_row_mask`.
    rows = [[1, 2, 3], [3, 4, label, 5], [2, 5, 6]]
    with pytest.raises(InvariantError) as expected:
        for row in rows:
            _row_mask(tuple(row), 6)
    if kind == "complex":
        doc, read, what = {"m": 6, "facets": rows}, serialize.complex_from_doc, "complex"
    else:
        doc, read, what = {"m": 6, "nonfaces": rows}, serialize.family_from_doc, "non-face family"
    with pytest.raises(serialize.DocumentError) as refused:
        read(doc)
    assert str(refused.value) == f"invalid {what}: {expected.value}"


@settings(deadline=None)
@given(nonface_families(), simplicial_complexes())
def test_property_trusted_builds_equal_validated_rebuilds(f, c):
    assert_rebuilds_equal(complex_from_nonfaces(f))
    assert_rebuilds_equal(minimal_nonfaces(c))


@settings(deadline=None)
@given(nonface_families(), simplicial_complexes(), st.randoms(use_true_random=False))
def test_property_public_and_library_builds_are_one_value(f, c, rng):
    # The library builds from masks; the public constructors read rows in any order.
    for value in (complex_from_nonfaces(f), minimal_nonfaces(c)):
        rows = [rng.sample(face, len(face)) for face in map(_face, value._masks)]
        rng.shuffle(rows)
        public = type(value)(value.m, rows)
        assert public == value and hash(public) == hash(value)
        assert repr(public) == repr(value)


@settings(deadline=None, max_examples=40)
@given(st.integers(5, 10).flatmap(lambda m: st.sampled_from(enumerate_bracelets(m))))
def test_property_trusted_builds_of_bracelets_equal_validated_rebuilds(bracelet):
    fam, cert = instantiate(bracelet)
    assert_rebuilds_equal(fam)
    g = realize_gale_vectors(cert)
    assert_rebuilds_equal(boundary_complex(reconstruct_points(g)))
    recovered, _ = recover_nonfaces(g)
    assert_rebuilds_equal(recovered)


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
    with pytest.raises(InvariantError, match="m=65 exceeds 64, the largest m the tests cover"):
        NonFaceFamily(65, ((1, 2),))


def test_empty_family_is_full_simplex():
    f = NonFaceFamily(4, ())
    c = complex_from_nonfaces(f)
    assert c.facets == ((1, 2, 3, 4),)
    assert minimal_nonfaces(c) == f
