import numpy as np
import pytest
from hypothesis import given, strategies as st

from bewc import gf2
from bewc.gf2 import BitMatrix, from01, pack, to01, unpack

from conftest import from_strings, identity, zeros


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
    assert gf2.rank(from_strings(["1001", "0110"])) == 2


def test_rank_identity():
    for k in (1, 3, 7):
        assert gf2.rank(identity(k)) == k


def test_rank_zero_matrix():
    assert gf2.rank(zeros(3, 5)) == 0
    assert gf2.rank(zeros(2, 0)) == 0  # zero columns


@given(bitmatrix())
def test_rank_bounds_and_rref_agreement(m):
    r = gf2.rank(m)
    assert 0 <= r <= min(m.nrows, m.cols)
    red, piv = gf2.rref(m)
    assert r == len(piv)
    assert gf2.rank(red) == r


@given(bitmatrix(max_cols=6), st.data())
def test_rank_monotone_under_column_sets(m, data):
    # Rows with the columns outside a mask zeroed: rank grows with the mask,
    # is at most its popcount, and the full mask gives rank(m).
    full = (1 << m.cols) - 1
    small = data.draw(st.integers(0, full))
    big = small | data.draw(st.integers(0, full))

    def rank_on(mask):
        return gf2.rank(BitMatrix(m.cols, tuple(r & mask for r in m.rows)))

    r_small = rank_on(small)
    assert r_small <= min(gf2.rank(m), small.bit_count())
    assert r_small <= rank_on(big)
    assert rank_on(full) == gf2.rank(m)


# ---------------------------------------------------------------- rref

def test_rref_swaps_rows():
    red, piv = gf2.rref(from_strings(["0110", "1001"]))
    assert red.row_strings() == ["1001", "0110"]
    assert piv == [0, 1]


def test_rref_identity_fixed_point():
    m = identity(4)
    red, piv = gf2.rref(m)
    assert red == m and piv == [0, 1, 2, 3]


def test_rref_duplicate_rows():
    red, piv = gf2.rref(from_strings(["1111", "1111"]))
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
    m = from_strings(["1001", "0110"])
    ns = gf2.null_space(m)
    assert ns.nrows == 2
    members = {x for x in range(16)
               if all(((r & x).bit_count() & 1) == 0 for r in m.rows)}
    assert row_space(ns) == members


def test_null_space_of_identity_is_empty():
    assert gf2.null_space(identity(5)).nrows == 0


def test_null_space_parity_row():
    ns = gf2.null_space(from_strings(["11"]))
    assert ns.row_strings() == ["11"]


@given(bitmatrix())
def test_null_space_identities(m):
    ns = gf2.null_space(m)
    assert ns.nrows == m.cols - gf2.rank(m)
    assert gf2.is_zero(gf2.mul_transpose(m, ns))
    assert gf2.rank(ns) == ns.nrows


# ---------------------------------------------------------------- products

def test_vec_mat_mul_selects_first_row():
    m = from_strings(["1001", "0110"])
    assert unpack(gf2.vec_mat_mul(pack([0b01], 2), m)) == [0b1001]  # "1001"


def test_vec_mat_mul_xors_rows():
    m = from_strings(["1001", "0110"])
    assert unpack(gf2.vec_mat_mul(pack([0b11], 2), m)) == [0b1111]  # "1111"


@pytest.mark.parametrize("v", [
    np.zeros((1, 2), dtype=np.uint8),  # two bytes for three rows
    np.zeros((1, 0), dtype=np.uint8),
    np.zeros(1, dtype=np.uint8),  # one vector, not a batch of one
    np.zeros((1, 1), dtype=np.int64),
], ids=["wide", "narrow", "1-d", "int64"])
def test_vec_mat_mul_refuses_a_wrong_width(v):
    with pytest.raises(gf2.DimensionError):
        gf2.vec_mat_mul(v, from_strings(["1001", "0110", "1111"]))


@pytest.mark.parametrize("nrows", [1, 3, 7, 9, 15])
def test_vec_mat_mul_refuses_a_set_padding_bit(nrows):
    m = BitMatrix(5, (0b10101,) * nrows)
    v = pack([0, 1 << nrows - 1], nrows)
    assert unpack(gf2.vec_mat_mul(v, m)) == [0, 0b10101]
    for bit in range(nrows, 8 * v.shape[1]):
        with pytest.raises(gf2.DimensionError, match="beyond"):
            gf2.vec_mat_mul(pack([0, 1 << bit], 8 * v.shape[1]), m)


# ---------------------------------------------------------------- bit formats

@pytest.mark.parametrize("s", ["1_0", " 10", "+10", "10\n", "١٠"])
def test_from01_refuses_what_int_accepts(s):
    assert int(s, 2) >= 0  # int() alone takes it
    with pytest.raises(ValueError, match="not a bit string"):
        from01(s)


def test_to01_from01_round_trip():
    rng = np.random.default_rng(5)
    s = "".join(rng.choice(list("01"), size=5000))  # base 2 has no digit limit
    assert to01(from01(s), len(s)) == s
    assert from01("") == 0 and to01(0, 0) == ""
    assert from01("0010") == 0b0100 and to01(0b0100, 4) == "0010"  # position 0 leftmost


@pytest.mark.parametrize("word", [1 << 3, -1])
def test_to01_refuses_a_word_beyond_its_length(word):
    with pytest.raises(gf2.DimensionError):
        to01(word, 3)


@pytest.mark.parametrize("nbits", [1, 7, 8, 9, 63, 64, 65, 70])
def test_pack_unpack_round_trip(nbits):
    rng = np.random.default_rng(nbits)
    words = [0, (1 << nbits) - 1] + [int.from_bytes(rng.bytes(9), "little") % (1 << nbits)
                                     for _ in range(5)]
    packed = pack(words, nbits)
    assert packed.dtype == np.uint8 and packed.shape == (len(words), (nbits + 7) // 8)
    assert unpack(packed) == words
    bits = np.unpackbits(packed, axis=1, bitorder="little")  # bit j of byte b: position 8b + j
    assert [sum(int(b) << i for i, b in enumerate(row)) for row in bits] == words
    assert unpack(pack([], nbits)) == [] and pack([], nbits).shape == (0, (nbits + 7) // 8)
