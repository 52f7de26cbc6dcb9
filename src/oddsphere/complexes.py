"""Simplicial complexes on a vertex set [1, m] and their minimal non-faces.

A complex is stored by its facets (inclusion-maximal faces); a non-face
family is the antichain of inclusion-minimal subsets that are not faces.
The two determine each other, and both conversions live here, with the two
enumerations that homology and f-vectors read: the faces of a complex and
the nerve of its minimal non-faces, of which `enumerate_chains` takes the
cheaper.

A value is its sets as bitmasks (vertex v is bit v - 1): `_masks`, one
tuple sorted by int, which every kernel reads and equality and hashing
compare.  The sorted tuple view `facets` or `members`, which repr and the
documents read, is decoded from the masks the first time something reads
it and kept in the instance __dict__.  Labels are checked once, where a
value enters from outside: the public constructors check each row in one
pass and keep only its mask.  Values the library derives, here and
elsewhere, are built by `_built`, which skips the constructor's checks;
derived complexes and families go through `_from_masks`, which checks m,
the one thing their construction does not prove.

Both dualizations run Berge's algorithm on a quotient: vertices that are
interchangeable there (twins, such as the vertices of one block of a
sphere) are merged first and put back in the result.  The dualizations and
face enumerations can grow exponentially; each stops at the limits defined
here (MAX_NERVE_FACES, WORK_PER_SET, NERVE_WORK_PER_SET, MAX_FACE_SUBSETS)
and raises EnumerationLimitError, so the library and the command line
refuse the same inputs; MAX_HULL_WORK bounds the hull's scan of point
subsets in `oracle` the same way.

All values are immutable and all operations are pure functions, so
everything in this module is safe to share between threads.  A complex
keeps its minimal non-faces once computed, and every value its view once
decoded; two threads that race to compute either store equal values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import comb
from typing import Iterable, NamedTuple, Sequence

Face = tuple[int, ...]

# Not a word size (Python ints have none): the largest m the tests and timings
# cover, the 63-vertex (7,)*9 bracelet sphere.
MAX_VERTICES = 64


class InvariantError(ValueError):
    """A value violates one of the structural invariants of its type."""


class EnumerationLimitError(ValueError):
    """A capped dualization or face enumeration outgrew its limit."""


def _clip(text: str) -> str:
    """`text` cut to about 60 characters, so that a value echoed in an error stays short."""
    return text if len(text) <= 63 else text[:60] + "..."


def _row_mask(row: Iterable[int], m: int) -> int:
    """The bitmask of a row of labels, checked in one pass: distinct ints (not bools) in [1, m]."""
    mask = 0
    for v in row:
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise InvariantError(f"vertex labels must be integers >= 1, got {_clip(repr(v))}")
        if v > m:
            raise InvariantError(f"face {_clip(repr(tuple(row)))} exceeds vertex count m={m}")
        if mask >> (v - 1) & 1:
            raise InvariantError(f"duplicate vertex in face {_clip(repr(tuple(row)))}")
        mask |= 1 << (v - 1)
    return mask


def _face(mask: int) -> Face:
    """The labels of the bits of `mask`, ascending: a loop visits the set bits or, when they outnumber
    the unset bits below the top one by more than 4, deletes those from the run of all labels."""
    n = mask.bit_length()
    if 2 * mask.bit_count() <= n + 4:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length())
            mask ^= low
        return tuple(out)
    out = list(range(1, n + 1))
    holes = mask ^ ((1 << n) - 1)
    while holes:
        top = holes.bit_length() - 1
        del out[top]
        holes ^= 1 << top
    return tuple(out)


def _check_m(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise InvariantError(f"vertex count m must be a positive integer, got {m!r}")
    if m > MAX_VERTICES:
        raise InvariantError(f"vertex count m={m} exceeds {MAX_VERTICES}, the largest m the tests cover")


def _check_antichain(masks: Sequence[int], what: str) -> None:
    # Distinct sets of one size never nest (callers deduplicate), so test only larger ones.
    sizes = [a.bit_count() for a in masks]
    larger = {s: [j for j, t in enumerate(sizes) if t > s] for s in set(sizes)}
    if len(larger) < 2:
        return
    for i, a in enumerate(masks):
        for j in larger[sizes[i]]:
            if a & masks[j] == a:
                raise InvariantError(
                    f"{what} must form an antichain: {_face(a)} is contained in {_face(masks[j])}"
                )


def _check_view_antichain(masks: Sequence[int], what: str) -> None:
    """`_check_antichain` naming the nested pair that the sorted view meets first."""
    try:
        _check_antichain(masks, what)
    except InvariantError:
        _check_antichain(sorted(masks, key=_face), what)  # raises again, in the view's order


def _checked_view(obj) -> tuple[int, ...]:
    """Check m and the labels of the rows passed in once, and keep only their distinct masks.

    One pass over all labels checks that their type is exactly int (so no
    bool passes), and a row's mask is the sum of the bits of its labels,
    looked up in a table that holds only [1, m].  A sum has fewer bits than
    the row has labels exactly when a label repeats (a carry), so equal
    totals over all rows rule out repeats.  If any of that fails,
    `_row_mask` checks the rows one by one, so a refusal names the first
    bad label as it does.
    """
    m = obj.m
    _check_m(m)
    rows = list(map(tuple, obj.__dict__.pop(obj._VIEW)))
    labels = list(chain.from_iterable(rows))
    masks = None
    if set(map(type, labels)) <= {int}:
        bit = {v: 1 << (v - 1) for v in range(1, m + 1)}.__getitem__
        try:
            masks = [sum(map(bit, row)) for row in rows]
        except KeyError:  # a label outside [1, m]
            pass
    if masks is None or sum(map(int.bit_count, masks)) != len(labels):
        masks = [_row_mask(row, m) for row in rows]
    object.__setattr__(obj, "_masks", tuple(sorted(set(masks))))
    return obj._masks


def _built(cls, **fields):
    """A `cls` holding `fields`, its constructor's checks skipped: for values whose construction proves them."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _from_masks(cls, m: int, masks: Iterable[int]):
    """`_built` for a `cls` on [m] from distinct masks, checking only m: the library derives them."""
    _check_m(m)
    return _built(cls, m=m, _masks=tuple(sorted(masks)))


class _SetSystem:
    """A value that is m and its masks; a view (`_decode`) is decoded when first read."""

    def __eq__(self, other):
        return other.__class__ is self.__class__ and (self.m, self._masks) == (other.m, other._masks)

    def __hash__(self):
        return hash((self.m, self._masks))

    def _decode(self, name: str):
        """The view `name` decoded from the masks: here the sorted sets of the view `_VIEW`."""
        if name != self._VIEW:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return tuple(sorted(map(_face, self._masks)))

    def __getattr__(self, name):  # called only for names missing from the instance __dict__
        object.__setattr__(self, name, self._decode(name))
        return self.__dict__[name]


@dataclass(frozen=True, eq=False)
class SimplicialComplex(_SetSystem):
    """A complex given by its facet antichain; every singleton of [m] is a face."""

    m: int
    facets: tuple[Face, ...]

    _VIEW = "facets"

    def __post_init__(self):
        masks = _checked_view(self)
        if not masks:
            raise InvariantError("a complex needs at least one facet")
        _check_view_antichain(masks, "facets")
        covered = 0
        for a in masks:
            covered |= a
        if covered != (1 << self.m) - 1:
            raise InvariantError(
                f"facets must cover every vertex of [1, {self.m}] (every singleton is a face)"
            )

    @property
    def dimension(self) -> int:
        return max(map(int.bit_count, self._masks)) - 1


@dataclass(frozen=True, eq=False)
class NonFaceFamily(_SetSystem):
    """An antichain of subsets of [m], each of size >= 2 (the minimal non-faces)."""

    m: int
    members: tuple[Face, ...]

    _VIEW = "members"

    def __post_init__(self):
        masks = _checked_view(self)
        for a in masks:  # sets of size < 2 come in the view's order when sorted by int
            if a.bit_count() < 2:
                raise InvariantError(f"non-face {_face(a)} has size < 2; singletons are always faces")
        _check_view_antichain(masks, "non-face family members")


# Limits on the enumerations behind homology and f-vectors, measured on a
# 2-vCPU x86-64 VM with Python 3.11.  Face enumeration visits the sum over
# facets of 2^|F| subsets: on the (2,)*8+(1,) bracelet sphere (3,276,800) it
# took about 1.3 s and 48 MB, and on (4,)*5 (41.9 million) 28 s and 1.2 GB.
# The worst nerve per face is a full simplex, the nerve of a cone: on the
# cone over the (1,)*17 bracelet sphere (2^17 nerve faces) the nerve walk
# and its reduction took 1.4 s, and over (1,)*19 (2^19) 10 s.  Every
# dualization stops at MAX_NERVE_FACES sets too.
MAX_FACE_SUBSETS = 1 << 22
MAX_NERVE_FACES = 1 << 17

# The work (see `_minimal_transversals`) a dualization capped at `cap` sets
# may spend, in units per set of the cap.  `enumerate_chains` only weighs
# the nerve against the faces, so its dualizations get NERVE_WORK_PER_SET:
# per set of its budget, a bracelet sphere with 8 <= m <= 14 takes at most
# 4.4 units (25 below m = 8) and the cone over 13 disjoint pairs (8,192
# facets) 15.3.  Every other dualization must answer the spheres in scope
# and gets WORK_PER_SET: at the cap MAX_NERVE_FACES, on 640 randomly
# relabeled bracelet spheres with 60 <= m <= 64 (odd length and composition
# drawn uniformly), dualized on their quotients by twins, the minimal
# non-faces took at most 65 units per set and the facets 83, both on
# near-singleton bracelets, which have few twins (71 and 89 without the
# quotients).  A unit took up to 80 ns (2-vCPU x86-64 VM, Python 3.11), so
# the two stop within about 0.34 s and 2.7 s.
NERVE_WORK_PER_SET = 32
WORK_PER_SET = 256

# The work `oracle.hull_facets` may spend scanning the D-subsets of n points
# in Q^D one by one, which it does only at codimension n - D - 1 > 3
# (`MINOR_MAX_CODIM`): C(n, D) subsets, each D^2 units for its elimination
# and one per side test of the other n - D points.  A unit took 1.1-1.5 us
# on random points with 5 <= D <= 15, and 2.2 us on 512 points on a line,
# whose subset masks are long (2-vCPU x86-64 VM, Python 3.11), so a scan
# stops within about 0.6 s.  A bound on C(n, D) alone would admit thousands
# of points on a line, whose scan is cubic in n and whose memoized
# orientations grow as n^2 / 2 keys of n bits: 2,048 of them took 224 s.
MAX_HULL_WORK = 1 << 18


def _minimal_transversals(
    masks: Iterable[int], cap: int, per_set: int = WORK_PER_SET, what: str = "minimal non-faces"
) -> list[int]:
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

    Raises EnumerationLimitError, naming the sets sought as `what`, as
    soon as the antichain has more than `cap` members, or the work passes
    `per_set` * `cap` units: one per antichain member scanned and one per
    minimality test that a candidate could need (`inside` in full).
    """
    transversals = [0]
    work_left = cap * per_set
    for am in masks:
        # One loop, not two comprehensions: faster on antichains of about ten
        # sets and no slower on large ones.
        kept = []
        missing = []
        for t in transversals:
            if t & am:
                kept.append(t)
            else:
                missing.append(t)
        if not missing:
            continue
        grown = []
        rest = am
        while rest:
            bit = rest & -rest
            rest ^= bit
            inside = [h ^ bit for h in kept if h & bit]
            work_left -= len(kept) + len(missing) * len(inside)
            if work_left < 0:
                break
            for t in missing:
                for r in inside:
                    if r & t == r:
                        break
                else:
                    grown.append(t | bit)
        transversals = kept + grown
        if work_left < 0 or len(transversals) > cap:
            raise _too_many(what, cap)
    return transversals


def _too_many(what: str, cap: int) -> EnumerationLimitError:
    return EnumerationLimitError(f"too many {what}: the dualization that finds them outgrows the limit of {cap} sets")


def _twin_classes(masks: Sequence[int], by_link: bool) -> list[int]:
    """The classes of two or more twin vertices among `masks`, as bitmasks, in one pass over the incidences.

    Twins lie in the same masks, or with `by_link` have equal links
    {x - v : v in x}.  A vertex's masks, or its link, are listed in the
    order of `masks`, so equal lists mean twins; when `masks` is sorted
    (either way), twins u, v have equal lists, as x -> x - u + v keeps the
    order of the masks through u.  Vertices in no mask are left out.
    """
    seen: dict[int, list[int]] = {}
    for x in masks:
        rest = x
        while rest:
            bit = rest & -rest
            rest ^= bit
            key = x ^ bit if by_link else x
            if bit in seen:
                seen[bit].append(key)
            else:
                seen[bit] = [key]
    classes: dict[tuple[int, ...], int] = {}
    for bit, keys in seen.items():
        key = tuple(keys)
        classes[key] = classes.get(key, 0) | bit
    return [cls for cls in classes.values() if cls & (cls - 1)]


def _others(classes: Iterable[int]) -> int:
    """Every vertex of `classes` but the least of each, which stands for its class in a quotient."""
    out = 0
    for cls in classes:
        out |= cls & (cls - 1)
    return out


def _nonfaces(c: SimplicialComplex, cap: int, per_set: int) -> NonFaceFamily:
    """`minimal_nonfaces(c)` with the dualization capped at `cap` sets and `per_set` * `cap` units.

    Vertices with equal links among the facet complements (the vertices of
    one block of a sphere) are twins, and a minimal transversal T holds all
    of a class of twins or none: if u is in T and its twin v is not, the
    complement x with x & T = {u}, which T's minimality gives, has the swap
    image x - u + v, a complement that misses T.  The sets of u's link miss
    u and those of v's miss v, so twins share no complement, the swap maps
    the complements onto themselves, and a union of classes meets a
    complement iff it meets its image.  So the dualization runs on the
    complements inside the least vertex of each class, and each class is
    added back where its least vertex is: one set per set of the quotient,
    which the cap and the work are counted on.
    """
    fam = c.__dict__.get("_nonface_cache")
    if fam is None:
        full = (1 << c.m) - 1
        complements = [full ^ a for a in c._masks]
        classes = _twin_classes(complements, by_link=True)
        if classes:
            others = _others(classes)
            complements = [x for x in complements if not x & others]
        found = _minimal_transversals(complements, cap, per_set)
        for cls in classes:
            least = cls & -cls
            found = [t | cls if t & least else t for t in found]
        fam = _from_masks(NonFaceFamily, c.m, found)
        object.__setattr__(c, "_nonface_cache", fam)
    return fam


def minimal_nonfaces(c: SimplicialComplex) -> NonFaceFamily:
    """The inclusion-minimal subsets of [m] that are not faces of `c`.

    A set is a non-face exactly when it meets the complement of every
    facet, so the minimal non-faces are the minimal transversals of the
    facet complements: an antichain whose members have size >= 2, since the
    facets cover [m].  The dualization runs on the quotient by vertices
    with equal links (see `_nonfaces`).  Raises EnumerationLimitError, and
    keeps nothing, when it outgrows MAX_NERVE_FACES sets or WORK_PER_SET
    units of work per set (see `_minimal_transversals`).  Otherwise the
    family is kept in the complex's __dict__, outside the dataclass fields,
    so the recognizer, the homology and the f-vector of one complex object
    share one dualization.
    """
    return _nonfaces(c, MAX_NERVE_FACES, WORK_PER_SET)


def _quotient_transversals(f: NonFaceFamily) -> tuple[list[int], list[int]]:
    """(found, classes): the minimal transversals of `f` on its quotient by twins, and the twin classes.

    Vertices that lie in the same members (the vertices of one block of a
    sphere) are twins, and a minimal transversal T holds at most one of a
    class: if it held twins u and v, the member x with x & T = {u}, which
    T's minimality gives, would hold v as well.  Each member holds all of
    a class or none, so the dualization runs on the members cut down to the
    least vertex of each class, whose cap and work are counted there, and
    each set t it finds stands for one minimal transversal per choice of a
    vertex from each class it meets, all of |t| vertices.  Their number is
    checked against MAX_NERVE_FACES, so that a caller that builds them or
    reads only their sizes refuses the same families.  Raises
    EnumerationLimitError as `complex_from_nonfaces` does.
    """
    masks = f._masks
    classes = _twin_classes(masks, by_link=False)
    if classes:
        others = _others(classes)
        masks = [x & ~others for x in masks]
    found = _minimal_transversals(masks, MAX_NERVE_FACES, WORK_PER_SET, "facets")
    if classes:
        count = 0
        for t in found:
            product = 1
            for cls in classes:
                if t & cls:
                    product *= cls.bit_count()
            count += product
        if count > MAX_NERVE_FACES:
            raise _too_many("facets", MAX_NERVE_FACES)
    return found, classes


def complex_from_nonfaces(f: NonFaceFamily) -> SimplicialComplex:
    """The complex whose faces are exactly the sets containing no member of `f`.

    Facets are complements of the minimal transversals of the family, an
    antichain that covers [m], since members of size >= 2 leave every
    singleton a face.  The dualization runs on the quotient by twin
    vertices (see `_quotient_transversals`).  Raises EnumerationLimitError
    when it outgrows MAX_NERVE_FACES sets or WORK_PER_SET units of work per
    set (see `_minimal_transversals`), or the facets it stands for number
    more than MAX_NERVE_FACES, before any of them is built.
    """
    full = (1 << f.m) - 1
    found, classes = _quotient_transversals(f)
    if not classes:
        return _from_masks(SimplicialComplex, f.m, [full ^ t for t in found])
    # The facet that misses a class's least vertex `least` and holds the rest
    # of it becomes, flipped by least ^ v, the facet that misses v instead.
    flips = [(cls & -cls, [cls & -cls ^ 1 << (v - 1) for v in _face(cls)]) for cls in classes]
    facets = []
    for t in found:
        group = [full ^ t]
        for least, xs in flips:
            if t & least:
                group = [g ^ x for g in group for x in xs]
        facets += group
    return _from_masks(SimplicialComplex, f.m, facets)


def _face_masks_by_size(c: SimplicialComplex) -> list[list[int]]:
    """Every face of `c` as a bitmask, grouped by size (index 0 holds the empty face)."""
    seen: set[int] = set()
    for fm in c._masks:
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
    return sum(1 << a.bit_count() for a in c._masks)


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


# A nerve face costs about as much as this many facet subsets: from m = 9
# bracelet spheres to cones with a 2^15-face nerve, face enumeration plus
# reduction took 0.28-0.45 us per facet subset and the nerve walk plus
# reduction 1.3-5.0 us per nerve face (2-vCPU x86-64 VM, Python 3.11).
NERVE_FACE_COST = 8


def enumerate_chains(c: SimplicialComplex) -> Chains:
    """The faces of `c`, or of the nerve of its minimal non-faces, whichever is cheaper.

    Face enumeration visits `_face_subset_bound(c)` subsets; the nerve is
    taken when it has at most 1/NERVE_FACE_COST as many faces, which the
    walk counts, stopping past that budget.  An enumeration over its
    limit is not taken either: the facet subsets over MAX_FACE_SUBSETS, or
    the nerve faces over MAX_NERVE_FACES.  The dualization that finds the
    minimal non-faces is capped by the same budget, since each non-face is
    a nerve face: it stops once its antichain outgrows the cap, or its
    work NERVE_WORK_PER_SET units per set of the cap.  Berge's partial
    antichains can outgrow the final one, so such a nerve is then passed
    over.  Raises EnumerationLimitError when neither enumeration is taken.
    """
    subsets = _face_subset_bound(c)
    faces_fit = subsets <= MAX_FACE_SUBSETS
    budget = min(subsets // NERVE_FACE_COST, MAX_NERVE_FACES) if faces_fit else MAX_NERVE_FACES
    try:
        nerve = _nerve(_nonfaces(c, budget, NERVE_WORK_PER_SET)._masks, c.m, budget)
    except EnumerationLimitError:
        nerve = None
    if nerve is not None:
        return Chains(*nerve)
    if faces_fit:
        return Chains(_face_masks_by_size(c), None)
    raise EnumerationLimitError(
        f"too many faces to enumerate: the sum over facets of 2^|F| is {subsets} "
        f"(limit {MAX_FACE_SUBSETS}), and the nerve of the minimal non-faces, or the "
        f"dualization that finds them, outgrows the limit of {MAX_NERVE_FACES} nerve faces"
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
