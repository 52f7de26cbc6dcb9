"""Sphere recognition from facets or minimal non-faces, with checkable certificates.

A complex on m vertices of dimension d is a sphere exactly when its
minimal non-face family has one of three shapes:

* m = d+2: the family is the single set [m] (simplex boundary);
* m = d+3: the family is a partition of [m] into two sets of size >= 2;
* m = d+4: the family is a maximum odd cycle -- an odd number n >= 3 of
  members admitting a cyclic ordering with successive members disjoint
  whose alternating (n-1)/2-fold intersections partition [m].

Vertex counts beyond d+4 are out of scope (no characterization exists).

`recognize` takes a complex or a non-face family, as given.  A family is
read directly (`_read_family`, which proves its reading by a rebuild); a
sphere's certificate fixes d.  A family of no sphere needs d only for its
verdict (out of scope when m - d >= 5).  A set is a face iff its
complement meets every member, so the facets are the complements of the
minimal transversals T and d = m - min|T| - 1.  Each transversal t of the
family's quotient by twin vertices (`complexes._quotient_transversals`,
which `complex_from_nonfaces` expands into facets) stands for such T of
|t| vertices, so d is read off the sizes of the t and no facet is built.
A complex whose facet complements all have m - d - 1 <= 3 vertices is
first read off its facets (`_sphere_from_facets`): the blocks and their
cyclic order are read off the complements, and the sphere those blocks fix
is rebuilt (`_complements`, which takes one vertex from each block of a
central set of slots).  The complex is that sphere exactly when the
rebuilt complements equal its own.  That costs time linear in the facets
and dualizes nothing.  Any other complex, and any complex that route does
not prove a sphere, goes through its minimal non-faces
(`_recognize_nonfaces`, on Berge's dualization in
`complexes.minimal_nonfaces`), which every negative verdict on a complex
and its reason come from.  `catalog.cross_check` calls that route by name,
so that it recognizes from non-faces derived again from the facets.

Every sphere verdict carries a `Certificate`: the blocks in slot order,
n = 1 of them for the simplex boundary, 2 for a two-set partition and an
odd n >= 3 for a maximum odd cycle.  It is valid by construction, and
`cycle_complex` builds its sphere with the same `_complements`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import and_, or_
from typing import Sequence

from .complexes import (
    Face,
    InvariantError,
    NonFaceFamily,
    SimplicialComplex,
    _built,
    _check_m,
    _face,
    _from_masks,
    _quotient_transversals,
    _row_mask,
    _SetSystem,
    minimal_nonfaces,
)


class InternalInconsistency(RuntimeError):
    """A certificate contradicts the complex or family it was computed from (a bug)."""


class NotSphereReason(enum.Enum):
    NON_ODD_FAMILY_SIZE = "non_odd_family_size"
    NO_CYCLIC_ORDERING = "no_cyclic_ordering"
    BLOCKS_NOT_PARTITION = "blocks_not_partition"
    FULL_SIMPLEX = "full_simplex"
    WRONG_FAMILY_SHAPE = "wrong_family_shape"


@dataclass(frozen=True, eq=False)
class Certificate(_SetSystem):
    """The blocks of a sphere on [m], given in slot order.

    A sphere with m <= d+4 has n = 1 block (the simplex boundary,
    d = m-2), n = 2 (a two-set partition, d = m-3) or an odd n >= 3 (a
    maximum odd cycle, d = m-4): d = m - min(n, 3) - 1.  Slot j holds the
    block B_{-2j mod n} at odd n >= 3 and B_j at n <= 2, so at every n
    B_i = slots[i * floor(n/2) mod n], and the members A_i (the minimal
    non-faces, `_members`) are unions of k = max(1, (n-1)/2) blocks.

    As in `complexes`, the value is m and the canonical block masks
    B_0, ..., B_{n-1} in `_masks` (see `_canonical`), which equality and
    hashing compare; `blocks`, `ordering` (the members, in block order) and
    `slots` are decoded when first read.  The constructor checks m and the
    labels as `SimplicialComplex` does, and that the blocks partition [m]
    into n = 1, 2 or an odd number of blocks, each of at least 2 vertices
    when n <= 3, so every certificate is valid.  Any rotation or reflection
    of the slots gives the same value.  `_certificate` builds one from
    blocks the library has proved valid.
    """

    m: int
    slots: tuple[Face, ...]

    def __post_init__(self):
        _check_m(self.m)
        slots = [_row_mask(s, self.m) for s in self.__dict__.pop("slots")]
        n = len(slots)
        if n % 2 == 0 and n != 2:
            raise InvariantError(f"a certificate has 1, 2 or an odd number of blocks, got {n}")
        if not _is_partition(slots, self.m):
            raise InvariantError(f"certificate blocks do not partition [1, {self.m}]")
        if n <= 3 and min(map(int.bit_count, slots)) < 2:
            raise InvariantError(f"each of {n} certificate blocks needs size >= 2")
        object.__setattr__(self, "_masks", _canonical(_blocks(slots)))

    @property
    def n(self) -> int:
        return len(self._masks)

    @property
    def k(self) -> int:
        return max(1, (len(self._masks) - 1) // 2)

    def _decode(self, name: str) -> tuple[Face, ...]:
        views = {"blocks": tuple, "ordering": _members, "slots": _slots}
        if name not in views:
            raise AttributeError(f"'Certificate' object has no attribute {name!r}")
        return tuple(map(_face, views[name](self._masks)))


@dataclass(frozen=True)
class Sphere:
    d: int
    certificate: Certificate


@dataclass(frozen=True)
class NotSphere:
    reason: NotSphereReason


@dataclass(frozen=True)
class OutOfScope:
    m: int
    d: int


Verdict = Sphere | NotSphere | OutOfScope


def _alternating_masks(members: Sequence[int]) -> list[int]:
    """The blocks B_i = A_i & A_{i+2} & ... & A_{i+n-3} (mod n) of odd n >= 3 member masks in cyclic order."""
    n = len(members)
    return [reduce(and_, (members[(i + 2 * j) % n] for j in range((n - 1) // 2))) for i in range(n)]


def _certificate(blocks: Sequence[int]) -> Certificate:
    """The certificate with block masks B_0, ..., B_{n-1}, built unchecked: for blocks proved valid."""
    return _built(Certificate, m=reduce(or_, blocks).bit_length(), _masks=_canonical(blocks))


def _canonical(blocks: Sequence[int]) -> tuple[int, ...]:
    """The rotation or reflection of the block masks B_0, ..., B_{n-1} with the least blocks.

    The blocks are disjoint and nonempty, so they compare as their least
    vertices do: the least variant starts at the block B_i with the least
    vertex, then B_{i+1} or B_{i-1}, whichever has the lesser (B_i = {i+1}
    on the worked pentagon).
    """
    n = len(blocks)
    least = [b & -b for b in blocks]  # the bit of each block's least vertex
    i = min(range(n), key=least.__getitem__)
    step = 1 if least[(i + 1) % n] < least[i - 1] else -1
    return tuple(blocks[(i + step * t) % n] for t in range(n))


def _blocks(slots: Sequence[int]) -> list[int]:
    """The block masks B_i = slots[i * floor(n/2) mod n] of the slot masks `slots`."""
    n = len(slots)
    return [slots[i * (n // 2) % n] for i in range(n)]


def _slots(blocks: Sequence[int]) -> Sequence[int]:
    """The slot masks of the block masks `blocks`, inverting `_blocks`: slot j holds B_{-2j} at n >= 3."""
    n = len(blocks)
    return blocks if n < 3 else [blocks[-2 * j % n] for j in range(n)]


def _is_partition(blocks: Sequence[int], m: int) -> bool:
    """True iff the bitmasks `blocks` are nonempty and partition [m]."""
    union = total = 0
    for b in blocks:
        if not b:
            return False
        union |= b
        total += b.bit_count()
    return total == m and union == (1 << m) - 1


def _read_family(f: NonFaceFamily) -> Certificate | NotSphereReason:
    """The certificate of the sphere whose minimal non-faces are `f`, or why no sphere has them.

    The empty family is the full simplex's.  At n = 1 or 2 the members are
    the blocks, so they must partition [m].  At odd n >= 3 they are walked:
    in a valid cycle A_i and A_j are disjoint exactly when j = i +- 1, so
    the disjointness graph must be the n-cycle itself: every member has
    exactly two disjoint partners, and the walk from one member to the next
    visits all n of them.  That fixes the ordering up to rotation and
    reflection with no search.  The walk makes successive members disjoint,
    so once the blocks partition [m] the certificate is valid.  It is `f`'s,
    as a vertex of A_i lies in one block and so in k members, an independent
    set of the n-cycle, which has none of k + 1: they include A_i.  The
    proof is a rebuild: `_members` of the blocks must be `f`'s members, else
    InternalInconsistency.
    """
    masks = f._masks
    n = len(masks)
    if not n:
        return NotSphereReason.FULL_SIMPLEX
    if n % 2 == 0 and n != 2:
        return NotSphereReason.NON_ODD_FAMILY_SIZE
    blocks = masks  # at n <= 2 the members are the blocks
    if n >= 3:
        # no member is empty, so none counts as disjoint from itself
        path = _cycle_order([[j for j, b in enumerate(masks) if not a & b] for a in masks])
        if path is None:
            return NotSphereReason.NO_CYCLIC_ORDERING
        blocks = _alternating_masks([masks[i] for i in path])
    if not _is_partition(blocks, f.m):
        return NotSphereReason.WRONG_FAMILY_SHAPE if n <= 2 else NotSphereReason.BLOCKS_NOT_PARTITION
    cert = _certificate(blocks)
    if tuple(sorted(_members(cert._masks))) != masks:
        raise InternalInconsistency(f"the blocks read off {n} non-faces on {f.m} vertices rebuild other members")
    return cert


def _cycle_order(adj: Sequence[Sequence[int]]) -> list[int] | None:
    """The nodes 0, 1, ... of the graph with adjacency lists `adj` in the order of a
    cycle through all of them, or None unless the graph is that one cycle."""
    n = len(adj)
    if any(len(nb) != 2 for nb in adj):
        return None
    path = [0, adj[0][0]]
    while len(path) < n:
        prev, cur = path[-2], path[-1]
        nxt = adj[cur][1] if adj[cur][0] == prev else adj[cur][0]
        if nxt == 0:
            return None  # closed a shorter cycle
        path.append(nxt)
    return path


def find_max_odd_cycle(f: NonFaceFamily) -> Certificate | None:
    """The canonical certificate of `f` if it is a maximum odd cycle (n >= 3 members)."""
    cert = _read_family(f)
    return cert if isinstance(cert, Certificate) and cert.n >= 3 else None


def _members(blocks: Sequence[int]) -> list[int]:
    """The member masks A_i = B_i | B_{i-2} | ... | B_{i-2k+2} of the sphere with block masks B_0, ..., B_{n-1}."""
    n = len(blocks)
    return [reduce(or_, (blocks[(i - 2 * j) % n] for j in range(max(1, (n - 1) // 2)))) for i in range(n)]


def _complements(slots: Sequence[int]) -> set[int]:
    """The facet complement masks of the sphere whose block masks, in slot order, are `slots`.

    Each takes one vertex from each block of a central set of slots (Gale
    duality; Grunbaum, *Convex Polytopes*, 5.4 and 6.3): the single block
    at n = 1, both blocks at n = 2, and at odd n >= 3 the slots p < q < r
    of a triangle of the n-gon that contains its centre, that is with
    q - p, r - q and n - r + p all at most k.
    """
    bits = [[1 << v for v in range(b.bit_length()) if b >> v & 1] for b in slots]
    n = len(slots)
    if n < 3:
        return {reduce(or_, pick) for pick in product(*bits)}
    k = (n - 1) // 2
    return {x | y | z for p in range(n) for q in range(p + 1, min(p + k, n - 2) + 1)
            for r in range(max(q + 1, n - k + p), min(q + k, n - 1) + 1)
            for x in bits[p] for y in bits[q] for z in bits[r]}


def cycle_complex(cert: Certificate) -> SimplicialComplex:
    """The sphere of a certificate, built straight from it.

    Its facets are the complements of `_complements(slots)`, which takes
    time linear in the facets and dualizes nothing.
    """
    full = (1 << cert.m) - 1
    return _from_masks(SimplicialComplex, cert.m, [full ^ x for x in _complements(_slots(cert._masks))])


def _family(cert: Certificate) -> NonFaceFamily:
    """The minimal non-faces of the sphere of a certificate, its members, built unchecked.

    They form a non-face family: distinct unions of k of the disjoint
    nonempty blocks, so none lies in another, of at least 2 vertices each
    (at n <= 3 a member is one block).
    """
    return _from_masks(NonFaceFamily, cert.m, _members(cert._masks))


def _sphere_from_facets(c: SimplicialComplex, s: int) -> Sphere | None:
    """The sphere `c` is, read off its facet complements, or None if it is not a sphere.

    In a sphere with m <= d+4 every facet complement has s = m - d - 1 <= 3
    vertices, one from each block of a central set of slots
    (`_complements`).  The block of v is then [m] minus the other vertices
    of the complements through v, and slots at cyclic distance j <= k
    share exactly j central triangles, so the adjacent slots are the pairs
    that share one; the complements made of each block's least vertex
    give one triangle each.  That reading is right on spheres; the proof
    is that the complements equal those `_complements` builds from the
    blocks read.  The blocks are distinct and cover [m], and with
    min(n, 3) = s every two slots lie in a central set of s slots, so that
    equality makes them disjoint; a block of one vertex cannot occur at
    n <= 3, as that vertex would lie in no facet.  A failed check returns
    None, leaving the verdict to the dualization.
    """
    m = c.m
    full = (1 << m) - 1
    complements = {full ^ a for a in c._masks}
    if any(x.bit_count() != s for x in complements):
        return None
    near = [0] * m  # near[v]: the union of the complements through vertex v + 1
    for x in complements:
        rest = x
        while rest:
            low = rest & -rest
            near[low.bit_length() - 1] |= x
            rest ^= low
    slots = list(dict.fromkeys(full ^ x | 1 << v for v, x in enumerate(near)))
    n = len(slots)
    if min(n, 3) != s or n > 2 and n % 2 == 0:
        return None
    if n > 2:
        slot = {b & -b: i for i, b in enumerate(slots)}  # by the bit of each block's least vertex
        least = reduce(or_, slot)
        shared = [[0] * n for _ in range(n)]  # shared[i][j]: the triangles holding slots i and j
        for x in complements:
            if x | least == least:  # the vertices low, mid and rest ^ mid
                low = x & -x
                rest = x ^ low
                mid = rest & -rest
                i, j, l = slot[low], slot[mid], slot[rest ^ mid]
                for a, b in ((i, j), (j, l), (l, i)):
                    shared[a][b] += 1
                    shared[b][a] += 1
        path = _cycle_order([[j for j, t in enumerate(row) if t == 1] for row in shared])
        if path is None:
            return None
        slots = [slots[i] for i in path]
    if _complements(slots) != complements:
        return None
    return Sphere(m - s - 1, _certificate(_blocks(slots)))


def recognize(c: SimplicialComplex | NonFaceFamily) -> Verdict:
    """Decide sphereness of a complex on at most d+4 vertices, given by its facets or its minimal non-faces.

    A sphere verdict carries a certificate whose n blocks fix the
    dimension d = m - min(n, 3) - 1: simplex boundary (n = 1), two-set
    partition (n = 2) or maximum odd cycle.  Complexes with m - d >= 5 are
    out of scope.

    For an odd family of at least three members, NO_CYCLIC_ORDERING means
    the disjointness graph of the members is not a single n-cycle (even
    when it has some other Hamiltonian cycle), and BLOCKS_NOT_PARTITION
    means it is one but the alternating blocks fail to partition [m].
    A sphere read off its family or its facets needs no dualization (see
    the module docstring).  A family of no sphere is dualized on its
    quotient by twins, and d = m - min|t| - 1 read off the sizes of the
    quotient transversals t, building no facet; any other complex gets
    `_recognize_nonfaces(c)`.  Each raises EnumerationLimitError when that
    dualization, or the number of facets it stands for, outgrows its limit,
    as `complex_from_nonfaces` does.
    """
    if isinstance(c, NonFaceFamily):
        read = _read_family(c)
        if isinstance(read, NotSphereReason):
            d = c.m - min(map(int.bit_count, _quotient_transversals(c)[0])) - 1
        else:
            d = c.m - min(read.n, 3) - 1
        return _verdict(c.m, d, read)
    s = c.m - c.dimension - 1
    if 1 <= s <= 3:
        sphere = _sphere_from_facets(c, s)
        if sphere is not None:
            return sphere
    return _recognize_nonfaces(c)


def _recognize_nonfaces(c: SimplicialComplex) -> Verdict:
    """`recognize` read off the minimal non-faces of `c` alone, never off its facets."""
    m, d = c.m, c.dimension
    if m - d >= 5:  # out of scope, before any dualization
        return OutOfScope(m, d)
    return _verdict(m, d, _read_family(minimal_nonfaces(c)))


def _verdict(m: int, d: int, read: Certificate | NotSphereReason) -> Verdict:
    """The verdict on the complex of dimension d on [m] whose minimal non-faces `_read_family` read as `read`."""
    if m - d >= 5:
        return OutOfScope(m, d)
    if isinstance(read, NotSphereReason):
        return NotSphere(read)
    if d != m - min(read.n, 3) - 1:
        raise InternalInconsistency(f"a certificate of {read.n} blocks on {m} vertices, but dim {d}")
    return Sphere(d, read)
