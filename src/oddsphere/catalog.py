"""Enumeration of all maximum odd cycles on [m] up to symmetry.

A sphere on m vertices of dimension m-4 is determined by the cyclic
sequence of its block sizes, a bracelet: an odd-length cyclic sequence of
positive integers summing to m (with every part >= 2 when the length is 3,
since then the blocks themselves are the non-faces).  The catalog
instantiates each bracelet and cross-checks every instance through the
recognizer, the realization pipeline, and the oracle.  Distinct bracelets
give non-isomorphic spheres (Perles, via Grunbaum, Convex Polytopes, 6.3),
so each bracelet is one catalog entry; the tests check that correspondence
with an independent isomorphism search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .complexes import (
    Chains,
    NonFaceFamily,
    SimplicialComplex,
    _euler_from_f_vector,
    _from_masks,
    complex_from_nonfaces,
    enumerate_chains,
    f_vector,
)
from .gale import realize_gale_vectors, reconstruct_points, recover_nonfaces
from .oracle import betti_mod2, boundary_complex, is_pseudomanifold, sphere_betti_profile
from .recognizer import MaxOddCycle, Sphere, certificate_from_slots, recognize

Bracelet = tuple[int, ...]

MAX_M = 14  # the largest m whose fully cross-checked catalog takes seconds


class CatalogVerificationError(RuntimeError):
    """A cataloged sphere failed one of its cross-checks (a bug, not bad input)."""


def canonical_bracelet(sizes: tuple[int, ...]) -> Bracelet:
    """Lexicographic minimum of a cyclic size sequence over rotation and reflection."""
    return min(seq[r:] + seq[:r] for seq in (tuple(sizes), tuple(reversed(sizes))) for r in range(len(seq)))


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
    (`MaxOddCycle.slots`, inverted by `certificate_from_slots`), slot j
    taking the next b_j labels, and the members are the unions of k
    consecutive blocks.
    """
    n = len(b)
    if n < 3 or n % 2 == 0 or any(p < 1 for p in b) or (n == 3 and any(p < 2 for p in b)):
        raise ValueError(f"{b} is not a valid bracelet")
    m = sum(b)
    slots = [range(start, start + part) for start, part in zip(accumulate(b, initial=1), b)]
    members, faces, cert = certificate_from_slots(slots, m)
    return _from_masks(NonFaceFamily, m, members, faces), cert


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


def _cross_check(
    fam: NonFaceFamily, cert: MaxOddCycle, comp: SimplicialComplex, chains: Chains, fv: tuple[int, ...]
) -> None:
    d = fam.m - 4
    if comp.dimension != d:
        raise CatalogVerificationError(f"{fam.members}: dimension {comp.dimension} != {d}")
    verdict = recognize(comp)
    if not (isinstance(verdict, Sphere) and verdict.d == d and isinstance(verdict.certificate, MaxOddCycle)):
        raise CatalogVerificationError(f"{fam.members}: recognizer returned {verdict}")
    g = realize_gale_vectors(cert)
    realized = boundary_complex(reconstruct_points(g))
    if realized != comp:
        raise CatalogVerificationError(f"{fam.members}: realized hull differs from the complex")
    recovered = recover_nonfaces(g)
    if recovered is None or recovered[0] != fam:
        raise CatalogVerificationError(f"{fam.members}: Gale readback failed to return the family")
    if not is_pseudomanifold(comp):
        raise CatalogVerificationError(f"{fam.members}: not a pseudomanifold")
    if betti_mod2(comp, chains) != sphere_betti_profile(d):
        raise CatalogVerificationError(f"{fam.members}: wrong homology profile")
    if _euler_from_f_vector(fv) != 1 + (-1) ** d:
        raise CatalogVerificationError(f"{fam.members}: wrong Euler characteristic")


def catalog(m: int) -> CatalogReport:
    """All spheres on m vertices of dimension m-4, one entry per bracelet.

    Every instance is verified end to end (recognizer, realization, hull
    equality, Gale readback, pseudomanifold, homology, Euler characteristic);
    any failure raises, since it would mean an implementation bug.
    """
    if not 4 <= m <= MAX_M:
        raise ValueError(f"catalog supports 4 <= m <= {MAX_M}")
    classes = []
    for b in enumerate_bracelets(m):
        fam, cert = instantiate(b)
        comp = complex_from_nonfaces(fam)
        chains = enumerate_chains(comp)  # one enumeration serves the f-vector and the homology
        fv = f_vector(comp, chains)
        _cross_check(fam, cert, comp, chains, fv)
        classes.append(SphereClass(bracelet=b, family=fam, certificate=cert, complex=comp, f_vector=fv))
    return CatalogReport(m=m, classes=tuple(classes))
