"""Exact linear algebra helpers."""

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests_shared import (
    linear_feasible_nonneg,
    random_fraction,
    reference_cross2,
    reference_fraction_free_rref,
    reference_fraction_to_str,
    reference_integer_row,
    reference_matrix_rank,
    reference_primitive_direction,
    reference_rref,
    reference_vec,
)

from oddsphere import linalg
from oddsphere.gale import primitive_direction
from oddsphere.linalg import (
    cross2,
    dot,
    _fraction_free_rref,
    _integer_row,
    kernel_basis,
    matrix_rank,
    rref,
    solve,
    vec,
)
from oddsphere.serialize import fraction_to_str


def test_rref_pivots_and_rank():
    m = [[0, 1, 2], [1, 1, 1]]
    red, pivots = rref(m)
    assert pivots == [0, 1]
    assert red == [[1, 0, -1], [0, 1, 2]]
    assert matrix_rank(m) == 2


SMALL_FRACTIONS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def rational_matrices(draw):
    """Possibly empty matrices, with zero rows and dependent rows mixed in."""
    cols = draw(st.integers(0, 6))
    row = st.lists(SMALL_FRACTIONS, min_size=cols, max_size=cols)
    rows = draw(st.lists(row, max_size=5))
    if rows and draw(st.booleans()):
        coeffs = draw(st.lists(SMALL_FRACTIONS, min_size=len(rows), max_size=len(rows)))
        rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0)) for j in range(cols)])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * cols)
    return rows


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_property_rref_matches_fraction_reference(matrix):
    assert rref(matrix) == reference_rref(matrix)
    ints = [_integer_row(row) for row in matrix]
    red, pivots, det, swaps = _fraction_free_rref(ints)
    assert all(red[r][c] == det for r, c in enumerate(pivots))
    if len(pivots) == len(ints):  # full row rank: det is a signed minor of the input
        square = [[row[c] for c in pivots] for row in ints]
        assert (-1) ** swaps * det == leibniz_det(square)


@st.composite
def sparse_integer_matrices(draw):
    """Integer matrices whose columns are zero, unit or dense, mixed.

    Unit columns make runs of pivots equal to the previous one, where the
    elimination leaves rows with a zero in the pivot column as they are;
    dense columns make the other pivots.
    """
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 7))
    columns = []
    for _ in range(cols):
        kind = draw(st.sampled_from(["zero", "unit", "unit", "dense"]))
        if kind == "dense" or not rows:
            col = draw(st.lists(st.integers(-3, 3), min_size=rows, max_size=rows))
        else:
            col = [0] * rows
            if kind == "unit":
                col[draw(st.integers(0, rows - 1))] = draw(st.sampled_from([1, 1, -1, 2]))
        columns.append(col)
    return [[col[r] for col in columns] for r in range(rows)]


@settings(max_examples=400, deadline=None)
@given(sparse_integer_matrices())
def test_property_fraction_free_rref_matches_the_full_rewrite(matrix):
    # rows, pivots, det and swaps all agree with the loop that rewrites every row
    before = [list(row) for row in matrix]
    assert _fraction_free_rref(matrix) == reference_fraction_free_rref(matrix)
    assert matrix == before


# Exact entries pass through the helpers; everything else goes through
# `Fraction(x)`, so the wrapping versions in tests_shared are the reference.
EXACT_ENTRIES = st.one_of(st.integers(-6, 6), st.booleans(), SMALL_FRACTIONS)
MIXED_ENTRIES = st.one_of(
    EXACT_ENTRIES,
    st.decimals(min_value=-50, max_value=50, places=2, allow_nan=False, allow_infinity=False).map(str),
)


@st.composite
def mixed_rows(draw, size=None):
    """Rows of mixed entries; about one in ten carries a string `Fraction` rejects."""
    row = draw(st.lists(MIXED_ENTRIES, min_size=size or 0, max_size=5 if size is None else size))
    if row and draw(st.integers(0, 9)) == 0:
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(["x", "1/0", ""]))
    return row


def assert_same_outcome(helper, reference, *args):
    """Equal values of equal types (compared by repr), or the same exception class."""
    try:
        expected = reference(*args)
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            helper(*args)
        assert type(raised.value) is type(exc)
        return
    assert repr(helper(*args)) == repr(expected)


@settings(max_examples=300, deadline=None)
@given(mixed_rows(), mixed_rows(1), mixed_rows(2))
def test_property_helpers_match_wrapping_versions(row, scalar, pair):
    assert_same_outcome(vec, reference_vec, row)
    assert_same_outcome(_integer_row, reference_integer_row, row)
    assert_same_outcome(primitive_direction, reference_primitive_direction, pair)
    assert_same_outcome(fraction_to_str, reference_fraction_to_str, *scalar)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4).flatmap(lambda cols: st.lists(mixed_rows(cols), max_size=4)))
def test_property_matrix_rank_matches_wrapping_version(matrix):
    assert_same_outcome(matrix_rank, reference_matrix_rank, matrix)


@settings(max_examples=200, deadline=None)
@given(*[st.lists(EXACT_ENTRIES, min_size=2, max_size=2)] * 2)
def test_property_cross2_matches_wrapping_version(a, b):
    # cross2 computes in its entries' own type; its callers pass ints or Fractions
    assert cross2(a, b) == reference_cross2(a, b)


def test_vec_keeps_the_fraction_objects_it_is_given():
    entries = [Fraction(1, 3), Fraction(-7, 2), Fraction(5)]
    assert all(x is y for x, y in zip(vec(entries), entries, strict=True))
    assert vec([1, True, "1/2"]) == (Fraction(1), Fraction(1), Fraction(1, 2))


def leibniz_det(square):
    total = 0
    for perm in itertools.permutations(range(len(square))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
        term = (-1) ** inversions
        for row, col in enumerate(perm):
            term *= square[row][col]
        total += term
    return total


def test_kernel_basis_annihilates():
    rng = random.Random(11)
    for _ in range(50):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = [[random_fraction(rng, 5) for _ in range(cols)] for _ in range(rows)]
        kern = kernel_basis(m)
        assert len(kern) == cols - matrix_rank(m)
        for v in kern:
            for row in m:
                assert dot(tuple(row), v) == 0


def reference_kernel_basis(matrix):
    """The kernel basis read off `reference_rref`: 1 at the free column, -rref entries at the pivots."""
    if not matrix:
        return []
    red, pivots = reference_rref(matrix)
    basis = []
    for fc in (c for c in range(len(matrix[0])) if c not in pivots):
        v = [Fraction(0)] * len(matrix[0])
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_property_kernel_basis_matches_fraction_reference_without_rref(matrix):
    # the basis is read off the fraction-free reduction, not a `Fraction` rref
    with mock.patch.object(linalg, "rref", side_effect=AssertionError("kernel_basis called rref")):
        basis = kernel_basis(matrix)
    assert basis == reference_kernel_basis(matrix)
    assert all(type(x) is Fraction for v in basis for x in v)


def test_solve_consistent_and_inconsistent():
    assert solve([[1, 0], [0, 1]], [3, 4]) == (Fraction(3), Fraction(4))
    assert solve([[1, 1], [1, 1]], [0, 1]) is None


def test_feasibility_small_cases():
    # x1 + x2 = 1 with x >= 0: feasible
    assert linear_feasible_nonneg([[1, 1]], [1])
    # x1 + x2 = -1 with x >= 0: infeasible
    assert not linear_feasible_nonneg([[1, 1]], [-1])
    # x1 - x2 = 0, x1 + x2 = 2: x = (1, 1)
    assert linear_feasible_nonneg([[1, -1], [1, 1]], [0, 2])
    # x1 = 1, x1 = 2: inconsistent
    assert not linear_feasible_nonneg([[1], [1]], [1, 2])


def test_feasibility_matches_enumeration():
    """Cross-check the simplex against brute-force vertex enumeration."""
    rng = random.Random(12)
    for _ in range(80):
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        b = [Fraction(rng.randint(-3, 3)) for _ in range(rows)]
        got = linear_feasible_nonneg(a, b)
        # a feasible system has a basic solution supported on few columns;
        # enumerate all supports and check the particular solutions
        import itertools

        expected = all(v == 0 for v in b)
        for support_size in range(1, min(rows, cols) + 1):
            if expected:
                break
            for support in itertools.combinations(range(cols), support_size):
                sub = [[a[r][c] for c in support] for r in range(rows)]
                x = solve(sub, b)
                if x is not None and all(v >= 0 for v in x):
                    expected = True
                    break
        assert got == expected, (a, b)
