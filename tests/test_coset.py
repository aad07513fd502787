import numpy as np
import pytest

import bewc
from bewc import codes, coset, gf2
from bewc.gf2 import BitMatrix, BitVec

from conftest import random_code


def stacked_rank(enc):
    stacked = BitMatrix(enc.code.n, enc.gprime.rows + enc.code.G.rows)
    return gf2.rank(stacked)


# ---------------------------------------------------------------- encoder build

def test_build_encoder_defining_identity(ex1):
    enc = bewc.build_encoder(ex1)
    assert gf2.mul_transpose(enc.gprime, ex1.H) == BitMatrix.identity(ex1.k)


def test_build_encoder_hamming3():
    c = bewc.hamming_base(3)
    enc = bewc.build_encoder(c)
    assert enc.gprime.nrows == 3 and enc.gprime.cols == 7
    assert gf2.mul_transpose(enc.gprime, c.H) == BitMatrix.identity(3)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stacked_matrix_bijective(seed):
    c = random_code(9, 4, seed=seed)
    enc = bewc.build_encoder(c)
    assert stacked_rank(enc) == c.n


def _gprime_cases():
    yield from (bewc.hamming_base(r) for r in range(2, 9))
    yield from (bewc.simplex_base(r) for r in range(2, 8))
    rng = np.random.default_rng(10)
    for seed in range(50):
        n = int(rng.integers(2, 40))
        yield random_code(n, int(rng.integers(1, n)), seed=seed, alpha=float(rng.uniform(0.2, 0.8)))


def test_gprime_is_the_pivot_supported_right_inverse():
    # G'·Hᵀ = I and supp(q_i) ⊆ pivots of RREF(H) fix G' uniquely: on the pivot
    # columns RREF(H) is the identity, so q_i's pivot bits are forced.  This
    # is the solution of H·q_iᵀ = e_i with every free variable zeroed.
    for code in _gprime_cases():
        gprime = bewc.build_encoder(code).gprime
        assert gf2.mul_transpose(gprime, code.H) == BitMatrix.identity(code.k), code.name
        pivots = sum(1 << p for p in gf2.rref(code.H)[1])
        assert all(q & ~pivots == 0 for q in gprime.rows), code.name


def test_build_encoder_deterministic(ex1):
    assert bewc.build_encoder(ex1) == bewc.build_encoder(ex1)


# ---------------------------------------------------------------- encode / decode

def test_encode_zero_is_zero(ex1):
    enc = bewc.build_encoder(ex1)
    assert bewc.encode(enc, BitVec(2), BitVec(2)).word == 0


def test_encode_message_zero_lands_in_base_code(ex1):
    enc = bewc.build_encoder(ex1)
    base = {0b0000, 0b0110, 0b1001, 0b1111}
    for v in range(4):
        assert bewc.encode(enc, BitVec(2), BitVec(2, v)).word in base


def test_encode_fixed_message_spans_one_coset(ex1):
    enc = bewc.build_encoder(ex1)
    book = bewc.codebook(ex1)
    for m in range(4):
        words = {bewc.encode(enc, BitVec(2, m), BitVec(2, v)).word for v in range(4)}
        assert words == set(book.cosets[m])


def test_decode_round_trip_exhaustive(ex1):
    enc = bewc.build_encoder(ex1)
    for m in range(4):
        for v in range(4):
            x = bewc.encode(enc, BitVec(2, m), BitVec(2, v))
            assert bewc.decode(enc, x).word == m


def test_decode_all_zero(ex1):
    enc = bewc.build_encoder(ex1)
    assert bewc.decode(enc, BitVec(4)).word == 0


def test_decode_matches_codebook_labeling(ex1):
    enc = bewc.build_encoder(ex1)
    book = bewc.codebook(ex1)
    y = BitVec.from_string("1011")
    m = bewc.decode(enc, y).word
    assert y.word in book.cosets[m]


def test_encode_length_mismatch(ex1):
    enc = bewc.build_encoder(ex1)
    with pytest.raises(gf2.DimensionError):
        bewc.encode(enc, BitVec(3), BitVec(2))
    with pytest.raises(gf2.DimensionError):
        bewc.decode(enc, BitVec(5))


def test_coset_translate_property(ex1):
    enc = bewc.build_encoder(ex1)
    base = {0b0000, 0b0110, 0b1001, 0b1111}
    for m in range(4):
        for v1 in range(4):
            for v2 in range(4):
                a = bewc.encode(enc, BitVec(2, m), BitVec(2, v1))
                b = bewc.encode(enc, BitVec(2, m), BitVec(2, v2))
                assert (a ^ b).word in base


@pytest.mark.parametrize("n,dim,seed", [(6, 3, 4), (8, 5, 5), (10, 4, 6)])
def test_round_trip_random_codes_exhaustive(n, dim, seed):
    c = random_code(n, dim, seed=seed)
    enc = bewc.build_encoder(c)
    seen = set()
    for m in range(1 << c.k):
        for v in range(1 << c.dim):
            x = bewc.encode(enc, BitVec(c.k, m), BitVec(c.dim, v))
            assert bewc.decode(enc, x).word == m
            seen.add(x.word)
    assert len(seen) == 1 << n  # encoding is a bijection


# ---------------------------------------------------------------- codebook

def test_codebook_table1_structure(ex1):
    book = bewc.codebook(ex1)
    assert len(book.cosets) == 4
    assert set(book.cosets[0]) == {0b0000, 0b0110, 0b1001, 0b1111}
    all_words = [w for cs in book.cosets for w in cs]
    assert len(all_words) == 16 and len(set(all_words)) == 16
    for cs in book.cosets:
        assert len(cs) == 4


def test_codebook_guard():
    c = random_code(31, 26, seed=1)
    with pytest.raises(codes.GuardError):
        bewc.codebook(c)


def test_codebook_format_table(ex1):
    table = bewc.codebook(ex1).format_table()
    assert "0000 0110 1001 1111" in table
    assert table.count("\n") == 4
