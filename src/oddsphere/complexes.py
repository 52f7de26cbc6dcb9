"""Simplicial complexes on a vertex set [1, m] and their minimal non-faces.

A complex is stored by its facets (inclusion-maximal faces); a non-face
family is the antichain of inclusion-minimal subsets that are not faces.
The two determine each other, and both conversions live here.

All values are immutable and all operations are pure functions, so
everything in this module is safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

Face = tuple[int, ...]

MAX_VERTICES = 64  # vertex sets are machine-word bitmasks internally


class InvariantError(ValueError):
    """A value violates one of the structural invariants of its type."""


def as_face(vertices: Iterable[int], m: int | None = None) -> Face:
    """Normalize an iterable of vertex labels into a sorted, duplicate-free face."""
    vs = tuple(sorted(vertices))
    for v in vs:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise InvariantError(f"vertex labels must be integers >= 1, got {v!r}")
    if len(set(vs)) != len(vs):
        raise InvariantError(f"duplicate vertex in face {vs}")
    if m is not None and vs and vs[-1] > m:
        raise InvariantError(f"face {vs} exceeds vertex count m={m}")
    return vs


def _mask(face: Face) -> int:
    bits = 0
    for v in face:
        bits |= 1 << (v - 1)
    return bits


def _face(mask: int) -> Face:
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def _check_m(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise InvariantError(f"vertex count m must be a positive integer, got {m!r}")
    if m > MAX_VERTICES:
        raise InvariantError(f"vertex count m={m} exceeds the bitmask limit {MAX_VERTICES}")


def _check_antichain(faces: Sequence[Face], what: str) -> None:
    masks = [_mask(f) for f in faces]
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            if i != j and a & b == a:
                raise InvariantError(
                    f"{what} must form an antichain: {faces[i]} is contained in {faces[j]}"
                )


@dataclass(frozen=True)
class SimplicialComplex:
    """A complex given by its facet antichain; every singleton of [m] is a face."""

    m: int
    facets: tuple[Face, ...]

    def __post_init__(self):
        _check_m(self.m)
        facets = tuple(sorted({as_face(f, self.m) for f in self.facets}))
        object.__setattr__(self, "facets", facets)
        if not facets:
            raise InvariantError("a complex needs at least one facet")
        _check_antichain(facets, "facets")
        covered = 0
        for f in facets:
            covered |= _mask(f)
        if covered != (1 << self.m) - 1:
            raise InvariantError(
                f"facets must cover every vertex of [1, {self.m}] (every singleton is a face)"
            )

    @property
    def dimension(self) -> int:
        return max(len(f) for f in self.facets) - 1


@dataclass(frozen=True)
class NonFaceFamily:
    """An antichain of subsets of [m], each of size >= 2 (the minimal non-faces)."""

    m: int
    members: tuple[Face, ...]

    def __post_init__(self):
        _check_m(self.m)
        members = tuple(sorted({as_face(f, self.m) for f in self.members}))
        object.__setattr__(self, "members", members)
        for f in members:
            if len(f) < 2:
                raise InvariantError(f"non-face {f} has size < 2; singletons are always faces")
        _check_antichain(members, "non-face family members")


def _antichain_minima(masks: Iterable[int]) -> set[int]:
    by_size = sorted(set(masks), key=lambda x: (x.bit_count(), x))
    keep: list[int] = []
    for cand in by_size:
        if not any(cand & k == k for k in keep):
            keep.append(cand)
    return set(keep)


def _minimal_transversals(masks: Iterable[int]) -> set[int]:
    """The inclusion-minimal sets meeting every mask (Berge's sequential dualization).

    Masks are absorbed one at a time; after each step the partial
    transversals are pruned back to an antichain.
    """
    transversals: set[int] = {0}
    for am in masks:
        nxt: set[int] = set()
        for t in transversals:
            if t & am:
                nxt.add(t)
            else:
                rest = am
                while rest:
                    bit = rest & -rest
                    nxt.add(t | bit)
                    rest ^= bit
        transversals = _antichain_minima(nxt)
    return transversals


def minimal_nonfaces(c: SimplicialComplex) -> NonFaceFamily:
    """The inclusion-minimal subsets of [m] that are not faces of `c`.

    A set is a non-face exactly when it meets the complement of every
    facet, so the minimal non-faces are the minimal transversals of the
    facet complements; no bound on their size is needed.
    """
    full = (1 << c.m) - 1
    transversals = _minimal_transversals(full ^ _mask(f) for f in c.facets)
    return NonFaceFamily(c.m, tuple(_face(t) for t in transversals))


def complex_from_nonfaces(f: NonFaceFamily) -> SimplicialComplex:
    """The complex whose faces are exactly the sets containing no member of `f`.

    Facets are complements of the minimal transversals of the family.
    """
    full = (1 << f.m) - 1
    transversals = _minimal_transversals(_mask(a) for a in f.members)
    facets = tuple(sorted(_face(full ^ t) for t in transversals))
    return SimplicialComplex(f.m, facets)


def _face_masks_by_size(c: SimplicialComplex) -> list[list[int]]:
    """Every face of `c` as a bitmask, grouped by size (index 0 holds the empty face)."""
    seen: set[int] = set()
    for f in c.facets:
        fm = _mask(f)
        sub = fm
        while True:
            seen.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & fm
    groups: list[list[int]] = [[] for _ in range(c.dimension + 2)]
    for s in seen:
        groups[s.bit_count()].append(s)
    return groups


def f_vector(c: SimplicialComplex) -> tuple[int, ...]:
    """(f_-1, f_0, ..., f_d): face counts per dimension, with f_-1 = 1."""
    return tuple(len(g) for g in _face_masks_by_size(c))


def euler_characteristic(c: SimplicialComplex) -> int:
    return _euler_from_f_vector(f_vector(c))


def _euler_from_f_vector(fv: tuple[int, ...]) -> int:
    return sum((-1) ** i * fi for i, fi in enumerate(fv[1:]))
