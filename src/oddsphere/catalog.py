"""Enumeration of all maximum odd cycles on [m] up to symmetry.

A sphere on m vertices of dimension m-4 is determined by the cyclic
sequence of its block sizes, a bracelet: an odd-length cyclic sequence of
positive integers summing to m (with every part >= 2 when the length is 3,
since then the blocks themselves are the non-faces).  The catalog
instantiates each bracelet and cross-checks every instance through the
recognizer, the realization pipeline, and the oracle.  Distinct bracelets
give non-isomorphic spheres (Perles, via Grunbaum, Convex Polytopes, 6.3),
so each bracelet is one catalog entry; `are_isomorphic` is the independent
test of that correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .complexes import (
    NonFaceFamily,
    SimplicialComplex,
    complex_from_nonfaces,
    euler_characteristic,
    f_vector,
)
from .gale import diagram_from_certificate, realize_gale_vectors, reconstruct_points, recover_nonfaces
from .oracle import betti_mod2, boundary_complex, is_pseudomanifold, sphere_betti_profile
from .recognizer import MaxOddCycle, Sphere, certificate_from_slots, recognize

Bracelet = tuple[int, ...]


class CatalogVerificationError(RuntimeError):
    """A cataloged sphere failed one of its cross-checks (a bug, not bad input)."""


def canonical_bracelet(sizes: tuple[int, ...]) -> Bracelet:
    """Lexicographic minimum of a cyclic size sequence over rotation and reflection."""
    seqs = [tuple(sizes), tuple(reversed(sizes))]
    best = None
    for seq in seqs:
        for r in range(len(seq)):
            cand = seq[r:] + seq[:r]
            if best is None or cand < best:
                best = cand
    assert best is not None
    return best


def _compositions(total: int, parts: int, minimum: int):
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


def enumerate_bracelets(m: int) -> list[Bracelet]:
    """All canonical bracelets of odd length 3..m with parts summing to m."""
    if m < 4:
        raise ValueError("bracelet enumeration starts at m = 4")
    out: set[Bracelet] = set()
    for n in range(3, m + 1, 2):
        minimum = 2 if n == 3 else 1
        if n * minimum > m:
            continue
        for comp in _compositions(m, n, minimum):
            out.add(canonical_bracelet(comp))
    return sorted(out, key=lambda b: (len(b), b))


def instantiate(b: Bracelet) -> tuple[NonFaceFamily, MaxOddCycle]:
    """Labelled maximum odd cycle for a bracelet.

    Vertex labels 1..m are assigned consecutively along the slot order
    B_0, B_{-2}, B_{-4}, ..., slot j taking the next b_j labels, and the
    members are the unions of k consecutive blocks.
    """
    n = len(b)
    if n < 3 or n % 2 == 0 or any(p < 1 for p in b) or (n == 3 and any(p < 2 for p in b)):
        raise ValueError(f"{b} is not a valid bracelet")
    m = sum(b)
    slots = [tuple(range(start, start + part)) for start, part in zip(accumulate(b, initial=1), b)]
    cert = certificate_from_slots(slots, m)
    return NonFaceFamily(m, cert.ordering), cert


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


@dataclass(frozen=True)
class SphereClass:
    """One isomorphism class of cataloged spheres, given by its bracelet."""

    bracelet: Bracelet
    family: NonFaceFamily
    certificate: MaxOddCycle
    complex: SimplicialComplex
    f_vector: tuple[int, ...]

    @property
    def facet_count(self) -> int:
        return len(self.complex.facets)


@dataclass(frozen=True)
class CatalogReport:
    m: int
    classes: tuple[SphereClass, ...]


def _cross_check(m: int, fam: NonFaceFamily, cert: MaxOddCycle, comp: SimplicialComplex) -> None:
    d = m - 4
    if comp.dimension != d:
        raise CatalogVerificationError(f"{fam.members}: dimension {comp.dimension} != {d}")
    verdict = recognize(comp)
    if not (isinstance(verdict, Sphere) and verdict.d == d and isinstance(verdict.certificate, MaxOddCycle)):
        raise CatalogVerificationError(f"{fam.members}: recognizer returned {verdict}")
    g = realize_gale_vectors(diagram_from_certificate(cert))
    realized = boundary_complex(reconstruct_points(g))
    if realized != comp:
        raise CatalogVerificationError(f"{fam.members}: realized hull differs from the complex")
    recovered = recover_nonfaces(g)
    if recovered is None or recovered[0] != fam:
        raise CatalogVerificationError(f"{fam.members}: Gale readback failed to return the family")
    if not is_pseudomanifold(comp):
        raise CatalogVerificationError(f"{fam.members}: not a pseudomanifold")
    if betti_mod2(comp) != sphere_betti_profile(d):
        raise CatalogVerificationError(f"{fam.members}: wrong homology profile")
    if euler_characteristic(comp) != 1 + (-1) ** d:
        raise CatalogVerificationError(f"{fam.members}: wrong Euler characteristic")


def catalog(m: int, max_m: int = 12, verify: bool = True) -> CatalogReport:
    """All spheres on m vertices of dimension m-4, one entry per bracelet.

    Every instance is verified end to end (recognizer, realization, hull
    equality, Gale readback, pseudomanifold, homology, Euler characteristic);
    any failure raises, since it would mean an implementation bug.
    """
    if not 4 <= m <= max_m:
        raise ValueError(f"catalog supports 4 <= m <= {max_m}")
    classes = []
    for b in enumerate_bracelets(m):
        fam, cert = instantiate(b)
        comp = complex_from_nonfaces(fam)
        if verify:
            _cross_check(m, fam, cert, comp)
        classes.append(
            SphereClass(bracelet=b, family=fam, certificate=cert, complex=comp, f_vector=f_vector(comp))
        )
    return CatalogReport(m=m, classes=tuple(classes))
