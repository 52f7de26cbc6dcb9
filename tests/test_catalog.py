"""Bracelet enumeration, instantiation, isomorphism, and the catalog."""

import importlib
import itertools
import random

import pytest

from tests_shared import (
    are_isomorphic,
    assert_valid_and_canonical,
    burnside_bracelet_count,
    one_and_two_blocks,
    permuted,
)

from oddsphere.catalog import (
    CatalogVerificationError,
    canonical_bracelet,
    catalog,
    cross_check,
    enumerate_bracelets,
    instantiate,
)
from oddsphere.complexes import (
    NonFaceFamily,
    SimplicialComplex,
    complex_from_nonfaces,
    enumerate_chains,
)
from oddsphere.recognizer import Certificate, Sphere, find_max_odd_cycle

# `oddsphere.catalog` is also the name of the function the package exports
catalog_module = importlib.import_module("oddsphere.catalog")
recognizer_module = importlib.import_module("oddsphere.recognizer")


def set_partitions(universe, blocks):
    """All partitions of `universe` into exactly `blocks` nonempty parts."""
    universe = list(universe)
    if blocks == 1:
        yield [tuple(universe)]
        return
    if len(universe) < blocks:
        return
    first, rest = universe[0], universe[1:]
    # either `first` is alone in a part, or it joins a part of a smaller partition
    for part in set_partitions(rest, blocks - 1):
        yield [(first,)] + part
    for part in set_partitions(rest, blocks):
        for i in range(len(part)):
            yield part[:i] + [tuple(sorted((first,) + part[i]))] + part[i + 1 :]


def all_max_odd_cycle_families(m):
    """Every maximum odd cycle on [m], over all labelings and orderings."""
    families = set()
    for n in range(3, m + 1, 2):
        for partition in set_partitions(range(1, m + 1), n):
            if n == 3 and any(len(b) < 2 for b in partition):
                continue
            k = (n - 1) // 2
            for order in itertools.permutations(partition):
                blocks = [()] * n
                for j, block in enumerate(order):
                    blocks[(-2 * j) % n] = block
                members = tuple(
                    tuple(sorted(v for j in range(k) for v in blocks[(i - 2 * j) % n]))
                    for i in range(n)
                )
                families.add(tuple(sorted(members)))
    return families


def classify(complexes):
    reps = []
    for c in complexes:
        if not any(are_isomorphic(c, r) for r in reps):
            reps.append(c)
    return reps


def test_canonical_bracelet_is_dihedral_minimum():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.choice((3, 5, 7))
        sizes = tuple(rng.randint(1, 3) for _ in range(n))
        canon = canonical_bracelet(sizes)
        orbit = set()
        for seq in (sizes, tuple(reversed(sizes))):
            for r in range(n):
                orbit.add(seq[r:] + seq[:r])
        assert canon == min(orbit)
        assert all(canonical_bracelet(o) == canon for o in orbit)


def test_enumerate_bracelets_small_counts():
    assert enumerate_bracelets(5) == [(1, 1, 1, 1, 1)]
    assert enumerate_bracelets(6) == [(2, 2, 2), (1, 1, 1, 1, 2)]
    seven = enumerate_bracelets(7)
    assert len(seven) == 5
    expected = {
        canonical_bracelet(b)
        for b in [(2, 2, 3), (3, 1, 1, 1, 1), (2, 2, 1, 1, 1), (2, 1, 2, 1, 1),
                  (1, 1, 1, 1, 1, 1, 1)]
    }
    assert set(seven) == expected


def test_instantiate_pentagon_bracelet():
    fam, cert = instantiate((1, 1, 1, 1, 1))
    assert_valid_and_canonical(cert, 5)
    assert all(len(b) == 1 for b in cert.blocks)
    # the pentagon family up to relabeling: the complex is a 5-cycle graph
    comp = complex_from_nonfaces(fam)
    assert sorted(len(f) for f in comp.facets) == [2] * 5


def test_instantiate_octahedron_bracelet():
    fam, cert = instantiate((2, 2, 2))
    assert fam.members == ((1, 2), (3, 4), (5, 6))
    assert cert.blocks == ((1, 2), (3, 4), (5, 6))


def test_instantiate_output_passes_search():
    for m in range(5, 9):
        for b in enumerate_bracelets(m):
            fam, cert = instantiate(b)
            found = find_max_odd_cycle(fam)
            assert found == cert
            assert_valid_and_canonical(found, m)


@pytest.mark.parametrize("bracelet", [(True, 2, 2, 1, 1), (2.0, 2, 2)])
def test_instantiate_refuses_parts_that_are_not_ints(bracelet):
    with pytest.raises(ValueError, match="is not a valid bracelet"):
        instantiate(bracelet)


def test_are_isomorphic_relabeled_octahedron():
    rng = random.Random(9)
    octa = complex_from_nonfaces(NonFaceFamily(6, ((1, 2), (3, 4), (5, 6))))
    for _ in range(10):
        image = list(range(1, 7))
        rng.shuffle(image)
        perm = {v: image[v - 1] for v in range(1, 7)}
        assert are_isomorphic(octa, permuted(octa, perm))


def test_are_isomorphic_distinguishes_six_vertex_spheres():
    octa = complex_from_nonfaces(instantiate((2, 2, 2))[0])
    other = complex_from_nonfaces(instantiate((1, 1, 1, 1, 2))[0])
    assert not are_isomorphic(octa, other)


def test_are_isomorphic_fvector_prune():
    pent = SimplicialComplex(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))
    path = SimplicialComplex(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3)))
    assert not are_isomorphic(pent, path)


def test_catalog_counts():
    assert len(catalog(5).classes) == 1
    assert len(catalog(6).classes) == 2
    assert len(catalog(7).classes) == 5


def test_catalog_dimension_law():
    for m in (5, 6, 7, 8):
        for cls in catalog(m).classes:
            assert cls.complex.dimension == m - 4
            assert cls.f_vector[1] == m


def test_catalog_completeness_against_brute_force():
    for m in (5, 6, 7):
        complexes = [
            complex_from_nonfaces(NonFaceFamily(m, members))
            for members in all_max_odd_cycle_families(m)
        ]
        assert len(classify(complexes)) == len(catalog(m).classes)


def test_distinct_bracelets_give_distinct_spheres():
    for m in (5, 6, 7, 8, 9):
        classes = catalog(m).classes
        assert [cls.bracelet for cls in classes] == enumerate_bracelets(m)
        for a, b in itertools.combinations(classes, 2):
            assert not are_isomorphic(a.complex, b.complex), (a.bracelet, b.bracelet)


def test_bracelet_count_matches_burnside():
    assert [len(enumerate_bracelets(m)) for m in range(4, 17)] == [
        burnside_bracelet_count(m) for m in range(4, 17)
    ]


def test_catalog_eleven_vertices():
    assert len(catalog(11).classes) == 57


def test_catalog_thirteen_vertices_has_one_class_per_bracelet():
    report = catalog(13)
    assert [cls.bracelet for cls in report.classes] == enumerate_bracelets(13)
    assert len(report.classes) == 183


def test_catalog_decodes_no_facets_or_members():
    # Every cross-check compares masks, so decoding a view here would be wasted work.
    for cls in catalog(9).classes:
        assert "facets" not in vars(cls.complex)
        assert "members" not in vars(cls.family)
        assert cls.facet_count == len(cls.complex.facets)


def test_catalog_names_a_certificate_other_than_the_instantiated_one(monkeypatch):
    octahedron = instantiate((2, 2, 2))[1]
    monkeypatch.setattr(catalog_module, "_recognize_nonfaces", lambda c: Sphere(c.m - 4, octahedron))
    # (2, 2, 2) is the first class of catalog(6) and passes; (1, 1, 1, 1, 2) does not
    with pytest.raises(CatalogVerificationError, match=r"failed .*\bcertificate\b"):
        catalog(6)


def test_cross_check_never_reads_a_sphere_off_its_facets(monkeypatch):
    # The cross-check recognizes from the minimal non-faces even where the
    # facet route would answer, so it does not re-prove a sphere with the
    # construction that built it.
    def refuse(c, s):
        raise AssertionError("the cross-check took the facet route")

    monkeypatch.setattr(recognizer_module, "_sphere_from_facets", refuse)
    for m in range(5, 10):
        assert len(catalog(m).classes) == len(enumerate_bracelets(m))
    # Every sphere shape runs every stage: the pentagon, the simplex boundary
    # on [m] and every two-set partition of [m], m <= 12.
    pentagon = Certificate(5, [[1], [2], [3], [4], [5]])
    stages_run = ("recognizer", "realization", "hull_matches_complex", "gale_readback", "homology_profile")
    for cert in [pentagon, *(Certificate(m, blocks) for m, blocks in one_and_two_blocks(12))]:
        comp = complex_from_nonfaces(NonFaceFamily(cert.m, cert.ordering))
        verdict, stages = cross_check(comp, enumerate_chains(comp))
        assert verdict == Sphere(cert.m - min(cert.n, 3) - 1, cert)
        assert stages == dict.fromkeys(stages_run, True), cert


def test_catalog_rejects_out_of_range():
    with pytest.raises(ValueError):
        catalog(3)
    with pytest.raises(ValueError):
        catalog(15)
