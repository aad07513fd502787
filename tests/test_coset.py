import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bewc
from bewc import codes, coset, gf2
from bewc.gf2 import BitMatrix, pack, unpack

from conftest import identity, mul_transpose, random_code


def stacked_rank(enc):
    stacked = BitMatrix(enc.code.n, enc.gprime.rows + enc.code.G.rows)
    return gf2.rank(stacked)


# ---------------------------------------------------------------- encoder build

def test_build_encoder_defining_identity(ex1):
    enc = bewc.build_encoder(ex1)
    assert mul_transpose(enc.gprime, ex1.H) == identity(ex1.k)


def test_build_encoder_hamming3():
    c = bewc.hamming_base(3)
    enc = bewc.build_encoder(c)
    assert enc.gprime.nrows == 3 and enc.gprime.cols == 7
    assert mul_transpose(enc.gprime, c.H) == identity(3)


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
        assert mul_transpose(gprime, code.H) == identity(code.k), code.name
        pivots = sum(1 << p for p in gf2.rref(code.H)[1])
        assert all(q & ~pivots == 0 for q in gprime.rows), code.name


def test_build_encoder_deterministic(ex1):
    assert bewc.build_encoder(ex1) == bewc.build_encoder(ex1)


# ---------------------------------------------------------------- encode / decode

def test_encode_zero_is_zero(ex1):
    enc = bewc.build_encoder(ex1)
    assert unpack(bewc.encode(enc, pack([0], 2), pack([0], 2))) == [0]


def test_encode_message_zero_lands_in_base_code(ex1):
    enc = bewc.build_encoder(ex1)
    base = {0b0000, 0b0110, 0b1001, 0b1111}
    for v in range(4):
        assert unpack(bewc.encode(enc, pack([0], 2), pack([v], 2)))[0] in base


def test_encode_fixed_message_spans_one_coset(ex1):
    enc = bewc.build_encoder(ex1)
    book = bewc.codebook(ex1)
    for m in range(4):
        words = {unpack(bewc.encode(enc, pack([m], 2), pack([v], 2)))[0] for v in range(4)}
        assert words == set(book.cosets[m])


def test_decode_round_trip_exhaustive(ex1):
    enc = bewc.build_encoder(ex1)
    for m in range(4):
        for v in range(4):
            x = bewc.encode(enc, pack([m], 2), pack([v], 2))
            assert unpack(bewc.decode(enc, x)) == [m]


def test_decode_all_zero(ex1):
    enc = bewc.build_encoder(ex1)
    assert unpack(bewc.decode(enc, pack([0], 4))) == [0]


def test_decode_matches_codebook_labeling(ex1):
    enc = bewc.build_encoder(ex1)
    book = bewc.codebook(ex1)
    y = 0b1101  # "1011", leftmost character coordinate 0
    m = unpack(bewc.decode(enc, pack([y], 4)))[0]
    assert y in book.cosets[m]


def test_encode_length_mismatch(ex1):
    # A 3-bit message or a 5-bit word packs into one byte, as k = 2 and n = 4
    # do: it is refused by its set bit beyond k or n, or by a second byte.
    enc = bewc.build_encoder(ex1)
    for m in (pack([0b100], 3), pack([0], 9)):
        with pytest.raises(gf2.DimensionError):
            bewc.encode(enc, m, pack([0], 2))
    for y in (pack([0b10000], 5), pack([0], 9)):
        with pytest.raises(gf2.DimensionError):
            bewc.decode(enc, y)


def test_coset_translate_property(ex1):
    enc = bewc.build_encoder(ex1)
    base = {0b0000, 0b0110, 0b1001, 0b1111}
    for m in range(4):
        for v1 in range(4):
            for v2 in range(4):
                a = bewc.encode(enc, pack([m], 2), pack([v1], 2))
                b = bewc.encode(enc, pack([m], 2), pack([v2], 2))
                assert unpack(a ^ b)[0] in base


@pytest.mark.parametrize("n,dim,seed", [(6, 3, 4), (8, 5, 5), (10, 4, 6)])
def test_round_trip_random_codes_exhaustive(n, dim, seed):
    c = random_code(n, dim, seed=seed)
    enc = bewc.build_encoder(c)
    seen = set()
    for m in range(1 << c.k):
        for v in range(1 << c.dim):
            x = bewc.encode(enc, pack([m], c.k), pack([v], c.dim))
            assert unpack(bewc.decode(enc, x)) == [m]
            seen.add(unpack(x)[0])
    assert len(seen) == 1 << n  # encoding is a bijection


# ---------------------------------------------------------------- batches

@st.composite
def code_and_batch(draw):
    """A random code with n up to 70, so packed widths cross byte boundaries
    and k or dim can exceed 64, and a batch of (m, v) pairs for it."""
    n = draw(st.integers(2, 70))
    code = random_code(n, draw(st.integers(1, n - 1)), seed=draw(st.integers(0, 2**32)))
    size = draw(st.integers(0, 12))
    ms = draw(st.lists(st.integers(0, (1 << code.k) - 1), min_size=size, max_size=size))
    vs = draw(st.lists(st.integers(0, (1 << code.dim) - 1), min_size=size, max_size=size))
    return code, ms, vs


def xor_rows(word: int, rows) -> int:
    acc = 0
    for i, r in enumerate(rows):
        if (word >> i) & 1:
            acc ^= r
    return acc


@settings(max_examples=150, deadline=None)
@given(code_and_batch())
def test_batch_encode_is_the_row_xor_and_decodes(case):
    code, ms, vs = case
    enc = bewc.build_encoder(code)
    x = bewc.encode(enc, pack(ms, code.k), pack(vs, code.dim))
    assert x.shape == (len(ms), (code.n + 7) // 8)
    assert unpack(x) == [xor_rows(m, enc.gprime.rows) ^ xor_rows(v, code.G.rows)
                         for m, v in zip(ms, vs)]
    assert unpack(bewc.decode(enc, x)) == ms


@pytest.mark.parametrize("code", [bewc.hamming_base(3), bewc.hamming_base(4),
                                  bewc.simplex_base(4), random_code(16, 7, seed=8),
                                  random_code(12, 9, seed=9)], ids=lambda c: c.name)
def test_batch_encode_of_a_message_lists_its_coset(code):
    enc = bewc.build_encoder(code)
    book = bewc.codebook(code)
    vs = list(range(1 << code.dim))
    for m in (0, 1, (1 << code.k) - 1):
        x = unpack(bewc.encode(enc, pack([m] * len(vs), code.k), pack(vs, code.dim)))
        assert sorted(x) == list(book.cosets[m])


def test_encode_refuses_unequal_batches(ex1):
    enc = bewc.build_encoder(ex1)
    with pytest.raises(gf2.DimensionError):
        bewc.encode(enc, pack([1], 2), pack([0, 1], 2))


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
