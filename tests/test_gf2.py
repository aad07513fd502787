from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from bewc import gf2
from bewc.gf2 import BitMatrix, BitVec


def bitmatrix(max_rows=5, max_cols=8):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.integers(0, (1 << c) - 1), min_size=r, max_size=r
            ).map(lambda rows: BitMatrix(c, tuple(rows)))
        )
    )


def row_space(m: BitMatrix) -> set[int]:
    span = {0}
    for r in m.rows:
        span |= {x ^ r for x in span}
    return span


# ---------------------------------------------------------------- rank

def test_rank_example_generator():
    assert gf2.rank(BitMatrix.from_strings(["1001", "0110"])) == 2


def test_rank_identity():
    for k in (1, 3, 7):
        assert gf2.rank(BitMatrix.identity(k)) == k


def test_rank_zero_matrix():
    assert gf2.rank(BitMatrix.zeros(3, 5)) == 0


@given(bitmatrix())
def test_rank_bounds_and_rref_agreement(m):
    r = gf2.rank(m)
    assert 0 <= r <= min(m.nrows, m.cols)
    red, piv = gf2.rref(m)
    assert r == len(piv)
    assert gf2.rank(red) == r


# ---------------------------------------------------------------- select_columns

def test_select_columns_example():
    m = BitMatrix.from_strings(["1001", "0110"])
    assert gf2.select_columns(m, [0, 3]).row_strings() == ["11", "00"]


def test_select_all_columns_identity():
    m = BitMatrix.from_strings(["1001", "0110"])
    assert gf2.select_columns(m, [0, 1, 2, 3]) == m


def test_select_no_columns():
    m = BitMatrix.from_strings(["1001", "0110"])
    sel = gf2.select_columns(m, [])
    assert sel.cols == 0 and sel.nrows == 2
    assert gf2.rank(sel) == 0


def test_select_columns_rejects_bad_indices():
    m = BitMatrix.from_strings(["1001"])
    with pytest.raises(IndexError):
        gf2.select_columns(m, [4])
    with pytest.raises(ValueError):
        gf2.select_columns(m, [2, 1])


@given(bitmatrix(max_cols=6), st.data())
def test_rank_monotone_under_column_sets(m, data):
    cols = sorted(data.draw(st.sets(st.integers(0, m.cols - 1))))
    extra = sorted(set(range(m.cols)) - set(cols))
    bigger = sorted(cols + data.draw(st.lists(st.sampled_from(extra), unique=True))
                    ) if extra else cols
    r_small = gf2.rank(gf2.select_columns(m, cols))
    r_big = gf2.rank(gf2.select_columns(m, bigger))
    assert r_small <= min(gf2.rank(m), len(cols))
    assert r_small <= r_big


# ---------------------------------------------------------------- rref

def test_rref_swaps_rows():
    red, piv = gf2.rref(BitMatrix.from_strings(["0110", "1001"]))
    assert red.row_strings() == ["1001", "0110"]
    assert piv == [0, 1]


def test_rref_identity_fixed_point():
    m = BitMatrix.identity(4)
    red, piv = gf2.rref(m)
    assert red == m and piv == [0, 1, 2, 3]


def test_rref_duplicate_rows():
    red, piv = gf2.rref(BitMatrix.from_strings(["1111", "1111"]))
    assert red.row_strings() == ["1111", "0000"]
    assert piv == [0]


@given(bitmatrix())
def test_rref_idempotent_and_preserves_row_space(m):
    red, _ = gf2.rref(m)
    red2, _ = gf2.rref(red)
    assert red2 == red
    assert row_space(red) == row_space(m)


# ---------------------------------------------------------------- null_space

def test_null_space_example_dimension_and_membership():
    m = BitMatrix.from_strings(["1001", "0110"])
    ns = gf2.null_space(m)
    assert ns.nrows == 2
    members = {x for x in range(16)
               if all(((r & x).bit_count() & 1) == 0 for r in m.rows)}
    assert row_space(ns) == members


def test_null_space_of_identity_is_empty():
    assert gf2.null_space(BitMatrix.identity(5)).nrows == 0


def test_null_space_parity_row():
    ns = gf2.null_space(BitMatrix.from_strings(["11"]))
    assert ns.row_strings() == ["11"]


@given(bitmatrix())
def test_null_space_identities(m):
    ns = gf2.null_space(m)
    assert ns.nrows == m.cols - gf2.rank(m)
    assert gf2.is_zero(gf2.mul_transpose(m, ns))
    assert gf2.rank(ns) == ns.nrows


# ---------------------------------------------------------------- products

def test_vec_mat_mul_selects_first_row():
    m = BitMatrix.from_strings(["1001", "0110"])
    assert gf2.vec_mat_mul(BitVec.from_bits([1, 0]), m).to01() == "1001"


def test_vec_mat_mul_xors_rows():
    m = BitMatrix.from_strings(["1001", "0110"])
    assert gf2.vec_mat_mul(BitVec.from_bits([1, 1]), m).to01() == "1111"
