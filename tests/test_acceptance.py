"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print; without -s they still appear in pytest's captured-output report.
"""

import functools
import itertools
import random
import time
from fractions import Fraction

from tests_shared import are_isomorphic, coface_test, is_face, random_family, random_gale_configuration

from oddsphere.catalog import catalog, enumerate_bracelets, instantiate
from oddsphere.complexes import (
    InvariantError,
    NonFaceFamily,
    SimplicialComplex,
    complex_from_nonfaces,
    f_vector,
    minimal_nonfaces,
)
from oddsphere.gale import (
    dependence_from_direction,
    direction_from_dependence,
    gale_transform,
    realize_gale_vectors,
    reconstruct_points,
    recover_nonfaces,
    relint_origin_test,
)
from oddsphere.linalg import matrix_rank
from oddsphere.oracle import (
    InteriorPoint,
    NonSimplicial,
    NotFullDimensional,
    PointConfiguration,
    boundary_complex,
    hull_facets,
)
from oddsphere.recognizer import (
    Certificate,
    NotSphere,
    NotSphereReason,
    OutOfScope,
    Sphere,
    find_max_odd_cycle,
    recognize,
)

PENTAGON_F = ((1, 4), (2, 5), (1, 3), (2, 4), (3, 5))


def criterion(num, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num}: FAIL - {description}")
                raise
            dt = time.monotonic() - start
            print(f"[acceptance] criterion {num}: PASS - {description} ({dt:.2f}s)")
        return wrapper
    return deco


@criterion(1, "pentagon reproduction")
def test_criterion_1_pentagon():
    start = time.monotonic()
    fam = NonFaceFamily(5, PENTAGON_F)
    comp = complex_from_nonfaces(fam)
    verdict = recognize(comp)
    assert isinstance(verdict, Sphere) and verdict.d == 1
    assert isinstance(verdict.certificate, Certificate) and verdict.certificate.n == 5
    assert verdict.certificate.blocks == ((1,), (2,), (3,), (4,), (5,))
    assert comp.facets == ((1, 2), (1, 5), (2, 3), (3, 4), (4, 5))
    assert time.monotonic() - start < 1.0


@criterion(2, "octahedron reproduction")
def test_criterion_2_octahedron():
    start = time.monotonic()
    fam = NonFaceFamily(6, ((1, 2), (3, 4), (5, 6)))
    comp = complex_from_nonfaces(fam)
    verdict = recognize(comp)
    assert isinstance(verdict, Sphere) and verdict.d == 2
    assert isinstance(verdict.certificate, Certificate) and verdict.certificate.n == 3
    assert f_vector(comp)[1:] == (6, 12, 8)
    points = reconstruct_points(realize_gale_vectors(verdict.certificate))
    assert points.dim == 3
    assert hull_facets(points) == comp.facets
    assert time.monotonic() - start < 1.0


@criterion(3, "round-trip suite on 1000 random families")
def test_criterion_3_round_trips():
    rng = random.Random(1234321)
    failures = 0
    for _ in range(1000):
        m = rng.randint(2, 9)
        fam = random_family(rng, m)
        if minimal_nonfaces(complex_from_nonfaces(fam)) != fam:
            failures += 1
    assert failures == 0


@criterion(4, "face-test triple agreement, exhaustive for m <= 8")
def test_criterion_4_triple_agreement():
    disagreements = 0
    for m in (5, 6, 7, 8):
        for cls in catalog(m).classes:
            cert = cls.certificate
            comp = cls.complex
            g = realize_gale_vectors(cert)
            for size in range(m + 1):
                for a in itertools.combinations(range(1, m + 1), size):
                    inside = set(a)
                    combinatorial = coface_test(cert, a)
                    geometric = relint_origin_test(
                        [g.vectors[i - 1] for i in range(1, m + 1) if i not in inside]
                    )
                    membership = is_face(comp, a)
                    if not (combinatorial == geometric == membership):
                        disagreements += 1
    assert disagreements == 0


@criterion(5, "catalog counts 1/2/5 with full verification and brute-force confirmation")
def test_criterion_5_catalog():
    start = time.monotonic()
    expected = {5: 1, 6: 2, 7: 5}
    for m, count in expected.items():
        report = catalog(m)  # verify=True: realization, pseudomanifold, homology, Euler
        assert len(report.classes) == count
    # completeness: classify every maximum odd cycle over all labelings
    for m, count in expected.items():
        families = _all_max_odd_cycle_families(m)
        complexes = [complex_from_nonfaces(NonFaceFamily(m, members)) for members in families]
        reps = []
        for c in complexes:
            if not any(are_isomorphic(c, r) for r in reps):
                reps.append(c)
        assert len(reps) == count
    assert time.monotonic() - start < 300.0


def _set_partitions(universe, blocks):
    universe = list(universe)
    if blocks == 1:
        yield [tuple(universe)]
        return
    if len(universe) < blocks:
        return
    first, rest = universe[0], universe[1:]
    for part in _set_partitions(rest, blocks - 1):
        yield [(first,)] + part
    for part in _set_partitions(rest, blocks):
        for i in range(len(part)):
            yield part[:i] + [tuple(sorted((first,) + part[i]))] + part[i + 1 :]


def _all_max_odd_cycle_families(m):
    families = set()
    for n in range(3, m + 1, 2):
        k = (n - 1) // 2
        for partition in _set_partitions(range(1, m + 1), n):
            if n == 3 and any(len(b) < 2 for b in partition):
                continue
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


@criterion(6, "exhaustive check of all 1024 graphs on 5 labeled vertices")
def test_criterion_6_all_graphs_on_five_vertices():
    edges = list(itertools.combinations(range(1, 6), 2))
    spheres = []
    for picks in itertools.product((0, 1), repeat=10):
        chosen = [e for e, p in zip(edges, picks) if p]
        covered = {v for e in chosen for v in e}
        facets = tuple(chosen) + tuple((v,) for v in range(1, 6) if v not in covered)
        comp = SimplicialComplex(5, facets)
        verdict = recognize(comp)
        if isinstance(verdict, Sphere):
            spheres.append(frozenset(chosen))
    assert len(spheres) == 12
    # the 12 labeled 5-cycles, computed independently from vertex permutations
    cycles = set()
    for perm in itertools.permutations(range(1, 6)):
        cyc = frozenset(
            tuple(sorted((perm[i], perm[(i + 1) % 5]))) for i in range(5)
        )
        cycles.add(cyc)
    assert len(cycles) == 12
    assert set(spheres) == cycles


@criterion(7, "necessity on random rational polytopes, D in {3,4,5}")
def test_criterion_7_random_polytopes():
    rng = random.Random(987654)
    for d in (3, 4, 5):
        generated = 0
        checked = 0
        while generated < 100:
            generated += 1
            pts = PointConfiguration(tuple(
                tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(d))
                for _ in range(d + 3)
            ))
            try:
                comp = boundary_complex(pts)
            except (NonSimplicial, NotFullDimensional, InteriorPoint):
                continue  # criterion conditions on simplicial hulls with all points extremal
            checked += 1
            verdict = recognize(comp)
            assert isinstance(verdict, Sphere) and verdict.d == d - 1, (pts, verdict)
        assert checked >= 25, f"too few simplicial configurations for D={d}: {checked}"


@criterion(8, "Gale round trips and dependence properties")
def test_criterion_8_gale_round_trips():
    # readback is the identity on every cataloged certificate with m <= 9
    for m in range(5, 10):
        for b in enumerate_bracelets(m):
            fam, cert = instantiate(b)
            g = realize_gale_vectors(cert)
            recovered = recover_nonfaces(g)
            assert recovered is not None
            assert recovered[0] == fam
            assert recovered[1] == cert
    rng = random.Random(24680)
    # gale_transform . reconstruct_points preserves the column space
    for _ in range(100):
        e = rng.randint(1, 3)
        n = rng.randint(e + 2, 10)
        g = random_gale_configuration(rng, n, e)
        back = gale_transform(reconstruct_points(g))
        rows = [list(v) for v in g.vectors]
        both = [list(v) + list(w) for v, w in zip(g.vectors, back.vectors)]
        assert matrix_rank(both) == matrix_rank(rows) == e
    # dependence <-> direction, both ways
    for _ in range(100):
        e = rng.randint(1, 3)
        n = rng.randint(e + 2, 10)
        g = random_gale_configuration(rng, n, e)
        alpha = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(e))
        if all(x == 0 for x in alpha):
            alpha = (Fraction(1),) + alpha[1:]
        lam = dependence_from_direction(g, alpha)
        pts = reconstruct_points(g)
        assert sum(lam) == 0
        for c in range(pts.dim):
            assert sum(lam[i] * pts.points[i][c] for i in range(n)) == 0
        assert direction_from_dependence(g, lam) == alpha


@criterion(9, "degenerate inputs are rejected deterministically")
def test_criterion_9_degenerate_rejections():
    for _ in range(2):  # run twice: outcomes must be identical
        # even family size: no certificate, and the verdict names the reason
        even = NonFaceFamily(6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)))
        assert find_max_odd_cycle(even) is None
        four = complex_from_nonfaces(NonFaceFamily(6, ((1, 2), (2, 3), (4, 5), (5, 6))))
        assert recognize(four) == NotSphere(NotSphereReason.NON_ODD_FAMILY_SIZE)
        # singleton member
        try:
            NonFaceFamily(4, ((1,), (2, 3)))
            raise AssertionError("singleton member accepted")
        except InvariantError:
            pass
        # non-antichain family
        try:
            NonFaceFamily(4, ((1, 2), (1, 2, 3)))
            raise AssertionError("non-antichain accepted")
        except InvariantError:
            pass
        # m - d >= 5
        hexagon = SimplicialComplex(6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)))
        assert recognize(hexagon) == OutOfScope(m=6, d=1)
