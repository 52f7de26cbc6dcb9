"""Simplicial complexes on a vertex set [1, m] and their minimal non-faces.

A complex is stored by its facets (inclusion-maximal faces); a non-face
family is the antichain of inclusion-minimal subsets that are not faces.
The two determine each other, and both conversions live here, with the two
enumerations that homology and f-vectors read: the faces of a complex and
the nerve of its minimal non-faces, of which `enumerate_chains` takes the
cheaper.

All values are immutable and all operations are pure functions, so
everything in this module is safe to share between threads.  A complex
keeps its minimal non-faces once computed; two threads that race to
compute them store equal values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterable, NamedTuple, Sequence

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
    # Distinct faces of one size never nest (callers deduplicate), so test only larger ones.
    sizes = [len(f) for f in faces]
    larger = {s: [j for j, t in enumerate(sizes) if t > s] for s in set(sizes)}
    if len(larger) < 2:
        return
    masks = [_mask(f) for f in faces]
    for i, a in enumerate(masks):
        for j in larger[sizes[i]]:
            if a & masks[j] == a:
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

    def _nonface_masks(self, cap: int | None = None) -> tuple[int, ...] | None:
        """The minimal non-faces as bitmasks, dualized at most once per complex object.

        Returns None, and keeps nothing, when the dualization outgrows
        `cap` (see `_minimal_transversals`).  The result is kept in the instance
        __dict__, outside the dataclass fields, so equality, hashing and
        repr do not see it.
        """
        masks = self.__dict__.get("_nonface_mask_cache")
        if masks is None:
            full = (1 << self.m) - 1
            found = _minimal_transversals((full ^ _mask(f) for f in self.facets), cap)
            if found is None:
                return None
            masks = tuple(found)
            object.__setattr__(self, "_nonface_mask_cache", masks)
        return masks

    @cached_property
    def _minimal_nonfaces(self) -> NonFaceFamily:
        return NonFaceFamily(self.m, tuple(_face(t) for t in self._nonface_masks()))


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


# The work a dualization capped at `cap` members may spend, per member of
# the cap.  Per member of the budget `enumerate_chains` gives it, the
# dualization of a bracelet sphere with 8 <= m <= 14 takes at most 4.4
# units (25 below m = 8); at the nerve limit 2^17, the 63-vertex (7,)*9
# sphere takes 2.8 and the cone over 13 disjoint pairs (8,192 facets)
# 15.3.  A unit took about 80 ns (2-vCPU x86-64 VM, Python 3.11), so a
# dualization capped at 2^17 stops within about 0.4 s.
TRANSVERSAL_WORK_PER_MEMBER = 32


def _minimal_transversals(masks: Iterable[int], cap: int | None = None) -> list[int] | None:
    """The inclusion-minimal sets meeting every mask (Berge's sequential dualization).

    Masks are absorbed one at a time into an antichain of partial
    transversals, which stays an antichain without re-minimizing. When
    mask `am` is absorbed, a transversal that meets it stays minimal. A
    transversal `t` that misses it grows into the candidates `t | b`, one
    per vertex bit `b` of `am`. A candidate is minimal exactly when no kept
    transversal `h` with `b` in `h` satisfies `h <= t | b`, that is, has
    `h - b <= t`; a kept `h` without `b` cannot, as it would lie inside `t`.
    Two candidates never contain or repeat each other: `t2 <= t | b` with
    `b` not in `t2` forces `t2 <= t`, so `t2 == t`. An empty mask leaves no
    transversal.

    Returns None as soon as the antichain has more than `cap` members, or
    the work passes TRANSVERSAL_WORK_PER_MEMBER * cap units: one per
    antichain member scanned and one per minimality test that a candidate
    could need (`inside` in full).
    """
    transversals = [0]
    work_left = None if cap is None else cap * TRANSVERSAL_WORK_PER_MEMBER
    for am in masks:
        missing = [t for t in transversals if not t & am]
        if not missing:
            continue
        kept = [t for t in transversals if t & am]
        grown = []
        rest = am
        while rest:
            bit = rest & -rest
            rest ^= bit
            inside = [h ^ bit for h in kept if h & bit]
            if work_left is not None:
                work_left -= len(kept) + len(missing) * len(inside)
                if work_left < 0:
                    return None
            for t in missing:
                for r in inside:
                    if r & t == r:
                        break
                else:
                    grown.append(t | bit)
        transversals = kept + grown
        if cap is not None and len(transversals) > cap:
            return None
    return transversals


def minimal_nonfaces(c: SimplicialComplex) -> NonFaceFamily:
    """The inclusion-minimal subsets of [m] that are not faces of `c`.

    A set is a non-face exactly when it meets the complement of every
    facet, so the minimal non-faces are the minimal transversals of the
    facet complements; no bound on their size is needed.  The dualization
    runs at most once per complex object, so the recognizer, the homology
    and the f-vector of one complex share it.
    """
    return c._minimal_nonfaces


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


def _face_subset_bound(c: SimplicialComplex) -> int:
    """Sum over facets F of 2^|F|: the subsets `_face_masks_by_size` visits."""
    return sum(1 << len(f) for f in c.facets)


def _nerve(members: Sequence[int], m: int, limit: int | None = None):
    """The nerve N = {S <= F : union of S != [m]} of the non-faces F, given as bitmasks.

    Returns (groups, tally): groups[s] holds the faces of N with s members
    as bitmasks over the indices of F, and tally[u] is the sum of (-1)^|S|
    over the faces S whose union has u vertices.  A depth-first search
    extends S by later members only while the union stays short of [m].
    Returns None as soon as N has more than `limit` faces.

    The facets of the Alexander dual {s : [m] - s is not a face} are the
    complements of the members of F, so N is the nerve of that cover, and
    by the nerve theorem and Alexander duality (Bjorner and Tancer 2009)
    the reduced Betti numbers satisfy b_i(c) = b_{m-i-3}(N) unless F is
    empty (c is then the full simplex).
    """
    full = (1 << m) - 1
    n = len(members)
    groups: list[list[int]] = [[0]]
    tally = [0] * (m + 1)
    tally[0] = 1
    count = 1
    stack = [(0, 0, 0, 1)]  # (face, its union, first member to add, size after adding)
    while stack:
        face, union, start, size = stack.pop()
        if size == len(groups):
            groups.append([])
        group = groups[size]
        sign = -1 if size & 1 else 1
        for j in range(start, n):
            u = union | members[j]
            if u != full:
                count += 1
                if limit is not None and count > limit:
                    return None
                child = face | 1 << j
                group.append(child)
                tally[u.bit_count()] += sign
                stack.append((child, u, j + 1, size + 1))
    while not groups[-1]:
        groups.pop()
    return groups, tally


class Chains(NamedTuple):
    """The faces, grouped by size as bitmasks, that homology and f-vectors read.

    groups[s] holds the faces with s elements.  With `nerve_tally` None they
    are the faces of the complex; otherwise they are the faces of the nerve
    of its minimal non-faces (see `_nerve`), and nerve_tally[u] is the sum
    of (-1)^|S| over the nerve faces S whose union has u vertices.
    """

    groups: list[list[int]]
    nerve_tally: list[int] | None


class EnumerationLimitError(ValueError):
    """Neither enumeration of a complex's faces fits within its limit."""


# A nerve face costs about as much as this many facet subsets: from m = 9
# bracelet spheres to cones with a 2^15-face nerve, face enumeration plus
# reduction took 0.28-0.45 us per facet subset and the nerve walk plus
# reduction 1.3-5.0 us per nerve face (2-vCPU x86-64 VM, Python 3.11).
NERVE_FACE_COST = 8


def enumerate_chains(
    c: SimplicialComplex, max_subsets: int | None = None, max_nerve_faces: int | None = None
) -> Chains:
    """The faces of `c`, or of the nerve of its minimal non-faces, whichever is cheaper.

    Face enumeration visits `_face_subset_bound(c)` subsets; the nerve is
    taken when it has at most 1/NERVE_FACE_COST as many faces, which the
    walk counts, stopping past that budget.  An enumeration over its
    limit is not taken either: the facet subsets over `max_subsets`, or the
    nerve faces over `max_nerve_faces`.  The dualization that finds the
    minimal non-faces is capped by the same budget, since each non-face is
    a nerve face: it stops once its antichain, or its work, outgrows the
    cap (see `_minimal_transversals`).  Berge's partial antichains can
    outgrow the final one, so such a nerve is then passed over.  Raises
    EnumerationLimitError when neither enumeration is taken.
    """
    subsets = _face_subset_bound(c)
    faces_fit = max_subsets is None or subsets <= max_subsets
    budget = subsets // NERVE_FACE_COST if faces_fit else None
    if max_nerve_faces is not None:
        budget = max_nerve_faces if budget is None else min(budget, max_nerve_faces)
    members = c._nonface_masks(budget)
    if members is not None:
        nerve = _nerve(members, c.m, budget)
        if nerve is not None:
            return Chains(*nerve)
    if faces_fit:
        return Chains(_face_masks_by_size(c), None)
    raise EnumerationLimitError(
        f"too many faces to enumerate: the sum over facets of 2^|F| is {subsets} "
        f"(limit {max_subsets}), and the nerve of the minimal non-faces, or the "
        f"dualization that finds them, outgrows the limit of {max_nerve_faces} nerve faces"
    )


def f_vector(c: SimplicialComplex, chains: Chains | None = None) -> tuple[int, ...]:
    """(f_-1, f_0, ..., f_d): face counts per dimension, with f_-1 = 1.

    `chains` is `enumerate_chains(c)`, computed here when not given.  On
    the nerve, inclusion-exclusion over the minimal non-faces F (Miller and
    Sturmfels 2005, ch. 1) gives
    f_{k-1} = sum over S <= F of (-1)^|S| C(m - |U|, k - |U|), U the union
    of S.  A set S with U = [m] counts only toward f_{m-1}, which is 0
    whenever F is nonempty, and k <= d + 1 <= m - 1 then; so the sum runs
    over the nerve, and its tally by |U| suffices.
    """
    if chains is None:
        chains = enumerate_chains(c)
    tally = chains.nerve_tally
    if tally is None:
        return tuple(len(g) for g in chains.groups)
    m = c.m
    return tuple(
        sum(t * comb(m - u, k - u) for u, t in enumerate(tally[: k + 1]) if t)
        for k in range(c.dimension + 2)
    )


def euler_characteristic(c: SimplicialComplex) -> int:
    return _euler_from_f_vector(f_vector(c))


def _euler_from_f_vector(fv: tuple[int, ...]) -> int:
    return sum((-1) ** i * fi for i, fi in enumerate(fv[1:]))
