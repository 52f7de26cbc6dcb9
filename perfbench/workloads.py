"""Seeded inputs for the benchmark workloads, and the check of every output.

Each operation is one `oddsphere` CLI call: an argument list and the JSON
text it reads on stdin.  The answer an operation must give comes from how
its input was built (a bracelet, a dropped member, a pairing), never from
calling the code under test.  The only library call made here is
`complex_from_nonfaces`, which turns a constructed non-face family into the
complex document that `check` reads; it runs during set-up, untimed.

A workload's pool is a list of rounds.  Every round holds the same mix of
input sizes in the same order, so any stretch of the closed loop covers the
mix evenly, and each latency percentile the benchmark reports falls inside
one size group rather than on the edge between two.  Which inputs fill a
size group is stratified too: in `check` the bracelet lengths take turns
across rounds, and in `realize` every bracelet of each size does, so the
seed changes labels (and, in `check`, compositions) but not the mix.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Op:
    """One CLI call and the facts its output is checked against."""

    kind: str
    argv: tuple[str, ...]
    stdin: str
    m: int = 0
    bracelet: tuple[int, ...] = ()
    labels: tuple[int, ...] = ()  # vertex v of the bracelet family is labels[v - 1]
    members: tuple[tuple[int, ...], ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    build_round: Callable[[random.Random, object, int], list[Op]]
    pool_rounds: int  # rounds generated in set-up; the closed loop cycles them
    warmup_index: int  # the set-up operation, a mid-size input of the round


# --- constructions -------------------------------------------------------


def canonical_bracelet(sizes) -> tuple[int, ...]:
    """Least rotation or reflection of a cyclic sequence."""
    seq = tuple(sizes)
    return min(s[r:] + s[:r] for s in (seq, seq[::-1]) for r in range(len(s)))


def odd_length(m: int, turn: int, min_length: int = 3) -> int:
    """The odd lengths from min_length to m in turn, so every length comes up
    equally often whatever the seed."""
    lengths = range(min_length, m + 1, 2)
    return lengths[turn % len(lengths)]


def _compositions(m: int, n: int):
    """(positions to choose bars from, composition for a sorted choice of n - 1 bars).

    Length 3 needs parts >= 2, because its blocks are the non-faces
    themselves and a singleton is never a non-face.
    """
    low = 2 if n == 3 else 1
    slots = m - n * low + n - 1

    def parts(bars) -> tuple[int, ...]:
        edges = [-1, *bars, slots]
        return tuple(low + edges[i + 1] - edges[i] - 1 for i in range(n))

    return range(slots), parts


def random_bracelet(rng: random.Random, m: int, n: int) -> tuple[int, ...]:
    """A uniform composition of m into n parts."""
    slots, parts = _compositions(m, n)
    return parts(sorted(rng.sample(slots, n - 1)))


@functools.cache
def all_bracelets(m: int) -> tuple[tuple[int, ...], ...]:
    """Every bracelet of m in canonical form, sorted."""
    found = set()
    for n in range(3, m + 1, 2):
        slots, parts = _compositions(m, n)
        found.update(canonical_bracelet(parts(bars)) for bars in itertools.combinations(slots, n - 1))
    return tuple(sorted(found))


def bracelet_members(bracelet: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The maximum odd cycle of a bracelet on labels 1..m.

    Slot j holds the next bracelet[j] labels and is block B_{-2j}; member
    A_i is the union of the k = (n-1)/2 blocks B_i, B_{i-2}, ..., so the
    alternating k-fold intersections of the members give back the blocks.
    """
    n = len(bracelet)
    k = (n - 1) // 2
    blocks: list[tuple[int, ...]] = [()] * n
    start = 1
    for j, part in enumerate(bracelet):
        blocks[(-2 * j) % n] = tuple(range(start, start + part))
        start += part
    return [tuple(sorted(v for j in range(k) for v in blocks[(i - 2 * j) % n])) for i in range(n)]


def apply_labels(labels, members) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(labels[v - 1] for v in a)) for a in members))


def relabelled(rng: random.Random, bracelet: tuple[int, ...]):
    """A uniform relabelling of 1..m and the bracelet's family under it."""
    labels = list(range(1, sum(bracelet) + 1))
    rng.shuffle(labels)
    return tuple(labels), apply_labels(labels, bracelet_members(bracelet))


def drop_member(rng: random.Random, members) -> tuple[tuple[int, ...], ...]:
    out = list(members)
    del out[rng.randrange(len(out))]
    return tuple(out)


def disjoint_pairs(rng: random.Random, pairs: int) -> tuple[tuple[int, ...], ...]:
    """A uniform perfect matching of 1..2*pairs."""
    labels = list(range(1, 2 * pairs + 1))
    rng.shuffle(labels)
    return tuple(sorted(tuple(sorted(labels[2 * i : 2 * i + 2])) for i in range(pairs)))


def _nonface_text(m: int, members) -> str:
    return json.dumps({"m": m, "nonfaces": [list(a) for a in members]})


def _complex_text(complexes, m: int, members) -> str:
    comp = complexes.complex_from_nonfaces(complexes.NonFaceFamily(m, members))
    return json.dumps({"m": m, "facets": [list(f) for f in comp.facets]})


# --- workloads -----------------------------------------------------------

CHECK_SIZES = range(12, 17)
REALIZE_SIZES = (7, 8, 8, 9, 9, 10, 10)
PAIRS = 9


def _check_round(rng: random.Random, complexes, turn: int) -> list[Op]:
    ops = []
    for m in CHECK_SIZES:
        b = random_bracelet(rng, m, odd_length(m, turn))
        labels, members = relabelled(rng, b)
        ops.append(Op("sphere", ("check",), _complex_text(complexes, m, members), m, b, labels, members))
        b = random_bracelet(rng, m, odd_length(m, turn, min_length=5))
        labels, members = relabelled(rng, b)
        members = drop_member(rng, members)
        ops.append(Op("non_sphere", ("check",), _complex_text(complexes, m, members), m, b, labels, members))
    return ops


def _realize_round(rng: random.Random, complexes, turn: int) -> list[Op]:
    argv = ("realize", "--verify")
    ops = []
    for i, m in enumerate(REALIZE_SIZES):
        bracelets = all_bracelets(m)
        b = bracelets[(turn * REALIZE_SIZES.count(m) + REALIZE_SIZES[:i].count(m)) % len(bracelets)]
        labels, members = relabelled(rng, b)
        ops.append(Op("accepted", argv, _nonface_text(m, members), m, b, labels, members))
    for _ in range(2):
        members = disjoint_pairs(rng, PAIRS)
        ops.append(Op("pairs", argv, _nonface_text(2 * PAIRS, members), 2 * PAIRS, members=members))
    m = REALIZE_SIZES[turn % len(REALIZE_SIZES)]
    b = random_bracelet(rng, m, odd_length(m, turn, min_length=5))
    labels, members = relabelled(rng, b)
    members = drop_member(rng, members)
    ops.append(Op("even", argv, _nonface_text(m, members), m, b, labels, members))
    return ops


def _catalog_round(rng: random.Random, complexes, turn: int) -> list[Op]:
    return [Op("catalog", ("catalog", "--m", "9"), "", 9)]


WORKLOADS = {
    # check: `oddsphere check` on complexes with m = 12..16, a sphere and a
    # non-sphere of each size per round.  The spheres are relabelled bracelet
    # spheres of every length; the non-spheres drop one member of a length
    # >= 5 bracelet family, leaving an even count that fits no sphere shape.
    # The subset scan in complexes.minimal_nonfaces does nearly all the work
    # and no geometry runs, so a faster scan moves this workload and changes
    # to the hull or linalg leave it alone.  Non-spheres take the same scan
    # and are rejected early by the recognizer.
    "check": Workload("check", _check_round, pool_rounds=40, warmup_index=4),
    # realize: `oddsphere realize --verify` on non-face documents.  Seven of
    # ten per round are accepted bracelet families with m = 7..10, every
    # bracelet of each size in turn, relabelled: the cycle search, Gale vectors, reconstruction, the exact hull and the vertex LPs,
    # where oracle and linalg dominate.  Two are 9 pairwise-disjoint pairs on
    # 18 vertices, rejected after an exhaustive cycle search
    # (recognizer.find_max_odd_cycle), which make the p90 tail.  One is an
    # even-size family, rejected at once.  minimal_nonfaces never runs here;
    # complex_from_nonfaces does, so this is the control for `check`.
    "realize": Workload("realize", _realize_round, pool_rounds=32, warmup_index=3),
    # catalog: repeated `oddsphere catalog --m 9`, 18 classes each cross-checked
    # through recognize, realization, hull equality, Gale readback, the
    # pseudomanifold test, homology and the isomorphism grouping.  The only
    # workload that runs betti_mod2, recover_nonfaces and are_isomorphic; the
    # batch path.  It takes no input, so the seed does not change it.
    "catalog": Workload("catalog", _catalog_round, pool_rounds=1, warmup_index=0),
}


def build_pool(workload: Workload, seed: int, complexes) -> list[Op]:
    rng = random.Random(f"{workload.name}:{seed}")
    return [op for turn in range(workload.pool_rounds) for op in workload.build_round(rng, complexes, turn)]


# --- output checks -------------------------------------------------------


def _alternating_blocks(ordering) -> list[tuple[int, ...]]:
    n = len(ordering)
    k = (n - 1) // 2
    return [
        tuple(sorted(set.intersection(*(set(ordering[(i + 2 * j) % n]) for j in range(k)))))
        for i in range(n)
    ]


def _check_sphere(op: Op, rc, out: str, err: str) -> str | None:
    if rc != 0:
        return f"exit {rc}, expected 0"
    doc = json.loads(out)
    if doc.get("verdict") != "sphere" or doc.get("d") != op.m - 4:
        return f"verdict {doc.get('verdict')} d={doc.get('d')}, expected sphere d={op.m - 4}"
    cert = doc["certificate"]
    if cert.get("kind") != "max_odd_cycle":
        return f"certificate kind {cert.get('kind')}"
    ordering = [tuple(a) for a in cert["ordering"]]
    blocks = [tuple(b) for b in cert["blocks"]]
    n = len(ordering)
    if sorted(ordering) != sorted(op.members):
        return "certificate members differ from the constructed non-faces"
    if any(set(ordering[i]) & set(ordering[(i + 1) % n]) for i in range(n)):
        return "successive certificate members intersect"
    if blocks != _alternating_blocks(ordering):
        return "certificate blocks are not the alternating intersections"
    if sorted(v for b in blocks for v in b) != list(range(1, op.m + 1)):
        return "certificate blocks do not partition the vertices"
    slot_sizes = [len(blocks[(-2 * j) % n]) for j in range(n)]
    if canonical_bracelet(slot_sizes) != canonical_bracelet(op.bracelet):
        return f"block sizes {slot_sizes} do not form the bracelet {op.bracelet}"
    return None


def _check_non_sphere(op: Op, rc, out: str, err: str) -> str | None:
    # The family is an even antichain, so no sphere shape fits, and the
    # dimension is at least m-4, so the complex is in scope.
    if rc != 1 or json.loads(out).get("verdict") != "not_sphere":
        return f"exit {rc}, expected 1 with verdict not_sphere"
    return None


def _check_accepted(op: Op, rc, out: str, err: str) -> str | None:
    if rc != 0:
        return f"exit {rc}, expected 0"
    if "hull boundary matches" not in err:
        return "no 'hull boundary matches' report"
    doc = json.loads(out)
    points = doc.get("points")
    if doc.get("dim") != op.m - 3 or not isinstance(points, list) or len(points) != op.m:
        return f"expected {op.m} points in dimension {op.m - 3}"
    if any(len(p) != op.m - 3 for p in points):
        return "a point has the wrong dimension"
    for p in points:
        for x in p:
            Fraction(x)  # raises on anything but a rational string
    return None


def _check_rejected(op: Op, rc, out: str, err: str) -> str | None:
    if rc != 1 or out:
        return f"exit {rc} with {len(out)} bytes of output, expected exit 1 and none"
    return None


def _check_catalog(op: Op, rc, out: str, err: str) -> str | None:
    if rc != 0:
        return f"exit {rc}, expected 0"
    bracelets = [tuple(c["bracelet"]) for c in json.loads(out)["classes"]]
    if len(bracelets) != 18 or tuple(sorted(bracelets)) != all_bracelets(op.m):
        return f"{len(bracelets)} classes, expected one for each of the 18 bracelets of {op.m}"
    return None


CHECKS = {
    "sphere": _check_sphere,
    "non_sphere": _check_non_sphere,
    "accepted": _check_accepted,
    "pairs": _check_rejected,
    "even": _check_rejected,
    "catalog": _check_catalog,
}


def check_output(op: Op, rc, out: str, err: str) -> str | None:
    """None when the output is the one the construction implies, else why not."""
    try:
        return CHECKS[op.kind](op, rc, out, err)
    except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc!r}"
