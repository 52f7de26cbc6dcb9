"""Enumeration of all maximum odd cycles on [m] up to symmetry.

A sphere on m vertices of dimension m-4 is determined by the cyclic
sequence of its block sizes, a bracelet: an odd-length cyclic sequence of
positive integers summing to m (with every part >= 2 when the length is 3,
since then the blocks themselves are the non-faces).  They are generated
directly, by length, then lexicographically (`enumerate_bracelets`: the
Fredricksen-Kessler-Maiorana necklace recursion, pruned by the parts left
and closed by its period rule, then a reflection test).  The catalog
instantiates each bracelet, builds its complex straight from the
certificate (`recognizer.cycle_complex`: one facet per choice of a vertex
from each block of a central triangle of slots), and cross-checks every
instance through the recognizer, the realization pipeline, and the oracle
(`cross_check`, which `verify` runs too).  The construction is checked by
two independent routes: Berge's dualization of the facets must give back
the instantiated family, and the hull of the realized points must give
back the complex.  Distinct bracelets give non-isomorphic spheres
(Perles, via Grunbaum, Convex Polytopes, 6.3), so each bracelet is one
catalog entry; the tests check that correspondence with an independent
isomorphism search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .complexes import (
    Chains,
    NonFaceFamily,
    SimplicialComplex,
    _euler_from_f_vector,
    enumerate_chains,
    f_vector,
    minimal_nonfaces,
)
from .gale import realize_gale_vectors, reconstruct_points, recover_nonfaces
from .oracle import betti_mod2, boundary_complex, is_pseudomanifold, sphere_betti_profile
from .recognizer import Certificate, Sphere, Verdict, _family, _recognize_nonfaces, cycle_complex

Bracelet = tuple[int, ...]

MAX_M = 14  # the largest m whose fully cross-checked catalog takes seconds


class CatalogVerificationError(RuntimeError):
    """A cataloged sphere failed one of its cross-checks (a bug, not bad input)."""


def canonical_bracelet(sizes: tuple[int, ...]) -> Bracelet:
    """Lexicographic minimum of a cyclic size sequence over rotation and reflection."""
    return min(seq[r:] + seq[:r] for seq in (tuple(sizes), tuple(reversed(sizes))) for r in range(len(seq)))


def enumerate_bracelets(m: int) -> list[Bracelet]:
    """All canonical bracelets of odd length 3..m with parts summing to m, by length, then lexicographically.

    For each odd n the Fredricksen-Kessler-Maiorana recursion extends
    prenecklaces a_1..a_t (lexicographically least among the rotations of
    every extension) part by part, in lexicographic order: a_{t+1} is
    a_{t+1-p}, keeping the period p, or larger, making the period t+1.  A
    prenecklace's first part is its least, so a prefix is pruned once its
    sum plus a_1 for each part left exceeds m, and the last part is forced
    to be m minus the sum so far, at least a_{n-p}.  A full sequence is a
    necklace, least among its rotations, exactly when p divides n, and a
    necklace is a canonical bracelet when `canonical_bracelet`, which also
    takes the reflections, returns it.  At n = 3 every part is at least 2.
    """
    if m < 4:
        raise ValueError("bracelet enumeration starts at m = 4")
    out: list[Bracelet] = []

    def extend(t: int, p: int, total: int) -> None:
        # a[:t] is a prenecklace of period p whose parts sum to total
        n, rest = len(a), m - total
        if t == n - 1:
            if rest > a[t - p] or (rest == a[t - p] and n % p == 0):
                a[t] = rest
                seq = tuple(a)
                if canonical_bracelet(seq) == seq:
                    out.append(seq)
            return
        for part in range(a[t - p], rest - a[0] * (n - 1 - t) + 1):
            a[t] = part
            extend(t + 1, p if part == a[t - p] else t + 1, total + part)

    for n in range(3, m + 1, 2):
        a = [0] * n
        for first in range(2 if n == 3 else 1, m // n + 1):
            a[0] = first
            extend(1, 1, first)
    return out


def instantiate(b: Bracelet) -> tuple[NonFaceFamily, Certificate]:
    """Labelled maximum odd cycle for a bracelet.

    Vertex labels 1..m are assigned consecutively along the slot order
    (`Certificate.slots`), slot j taking the next b_j labels, and the
    members are the unions of k consecutive slots.
    """
    n = len(b)
    least = 2 if n == 3 else 1
    if n < 3 or n % 2 == 0 or any(type(p) is not int or p < least for p in b):
        raise ValueError(f"{b} is not a valid bracelet")
    m = sum(b)
    slots = [range(start, start + part) for start, part in zip(accumulate(b, initial=1), b)]
    cert = Certificate(m, slots)
    return _family(cert), cert


@dataclass(frozen=True)
class SphereClass:
    """One isomorphism class of cataloged spheres, given by its bracelet."""

    bracelet: Bracelet
    family: NonFaceFamily
    certificate: Certificate
    complex: SimplicialComplex
    f_vector: tuple[int, ...]

    @property
    def facet_count(self) -> int:
        return len(self.complex._masks)


@dataclass(frozen=True)
class CatalogReport:
    m: int
    classes: tuple[SphereClass, ...]


def cross_check(comp: SimplicialComplex, chains: Chains) -> tuple[Verdict, dict[str, bool]]:
    """Recognize `comp` and prove a positive verdict by every independent route.

    `chains` is `enumerate_chains(comp)`.  The verdict (`_recognize_nonfaces`)
    and the Gale readback read the minimal non-faces derived again from the
    facets, never a construction `comp` came from.  Returns the verdict and
    the stages `verify` reports: `recognizer`, then for a sphere of any of
    the three shapes `realization`, `hull_matches_complex`, `gale_readback`
    and `homology_profile`.  A stage is True when it passed.
    """
    verdict = _recognize_nonfaces(comp)
    stages = {"recognizer": isinstance(verdict, Sphere)}
    if not isinstance(verdict, Sphere):
        return verdict, stages
    g = realize_gale_vectors(verdict.certificate)
    recovered = recover_nonfaces(g)
    stages.update(realization=True, hull_matches_complex=boundary_complex(reconstruct_points(g)) == comp,
                  gale_readback=recovered is not None and recovered[0] == minimal_nonfaces(comp),
                  homology_profile=betti_mod2(comp, chains) == sphere_betti_profile(verdict.d))
    return verdict, stages


def catalog(m: int) -> CatalogReport:
    """All spheres on m vertices of dimension m-4, one entry per bracelet.

    Every instance goes through `cross_check`, and then through the checks
    only a constructed entry allows: the verdict carries the instantiated
    certificate, the minimal non-faces are the family, the complex is a
    pseudomanifold and its Euler characteristic is a sphere's.  Any failure
    raises CatalogVerificationError naming every failed stage, since it
    would mean an implementation bug.
    """
    if not 4 <= m <= MAX_M:
        raise ValueError(f"catalog supports 4 <= m <= {MAX_M}")
    classes = []
    for b in enumerate_bracelets(m):
        fam, cert = instantiate(b)
        comp = cycle_complex(cert)
        chains = enumerate_chains(comp)  # one enumeration serves the f-vector and the homology
        fv = f_vector(comp, chains)
        verdict, stages = cross_check(comp, chains)
        stages.update(
            certificate=verdict == Sphere(m - 4, cert),
            nonfaces=minimal_nonfaces(comp) == fam,
            pseudomanifold=is_pseudomanifold(comp),
            euler_characteristic=_euler_from_f_vector(fv) == 1 + (-1) ** (m - 4),
        )
        failed = [name for name, passed in stages.items() if not passed]
        if failed:
            raise CatalogVerificationError(f"{fam.members}: failed {', '.join(failed)}")
        classes.append(SphereClass(bracelet=b, family=fam, certificate=cert, complex=comp, f_vector=fv))
    return CatalogReport(m=m, classes=tuple(classes))
