"""Helpers shared across the test modules."""

import random
from fractions import Fraction

from hypothesis import strategies as st

from oddsphere.complexes import NonFaceFamily, SimplicialComplex
from oddsphere.gale import GaleConfiguration
from oddsphere.oracle import PointConfiguration


def random_family(rng: random.Random, m: int) -> NonFaceFamily:
    """A random valid non-face family on [m] (antichain, members of size >= 2)."""
    count = rng.randint(1, m)
    pool = []
    for _ in range(count):
        size = rng.randint(2, m)
        pool.append(tuple(sorted(rng.sample(range(1, m + 1), size))))
    minimal = [a for a in pool if not any(set(b) < set(a) for b in pool)]
    return NonFaceFamily(m, tuple(set(minimal)))


@st.composite
def nonface_families(draw, max_m: int = 10, min_members: int = 0, max_members: int = 10):
    """A non-face family: the inclusion-minimal sets among random subsets of [m]."""
    m = draw(st.integers(2, max_m))
    pool = draw(st.lists(
        st.frozensets(st.integers(1, m), min_size=2), min_size=min_members, max_size=max_members
    ))
    minimal = {tuple(sorted(a)) for a in pool if not any(b < a for b in pool)}
    return NonFaceFamily(m, tuple(minimal))


@st.composite
def simplicial_complexes(draw, max_m: int = 10):
    """A complex whose facets are the maximal sets among random faces and all singletons."""
    m = draw(st.integers(1, max_m))
    pool = draw(st.lists(st.frozensets(st.integers(1, m), min_size=1), max_size=m))
    faces = set(pool) | {frozenset({v}) for v in range(1, m + 1)}
    facets = tuple(tuple(sorted(a)) for a in faces if not any(a < b for b in faces))
    return SimplicialComplex(m, facets)


def random_fraction(rng: random.Random, span: int = 8) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_points(rng: random.Random, n: int, dim: int, span: int = 8) -> PointConfiguration:
    return PointConfiguration(
        tuple(tuple(random_fraction(rng, span) for _ in range(dim)) for _ in range(n))
    )


def random_gale_configuration(rng: random.Random, n: int, e: int) -> GaleConfiguration:
    """Random zero-sum spanning configuration of n vectors in Q^e."""
    while True:
        head = [tuple(random_fraction(rng) for _ in range(e)) for _ in range(n - 1)]
        tail = tuple(-sum(v[c] for v in head) for c in range(e))
        try:
            return GaleConfiguration(tuple(head) + (tail,))
        except ValueError:
            continue  # degenerate draw: does not span
