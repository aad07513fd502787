import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bewc
from bewc import codes, gf2
from bewc.codes import CodeError, RandomCodeParams
from bewc.gf2 import BitMatrix, pack, unpack

from conftest import from_strings, identity, random_code


def assert_valid(code):
    assert gf2.rank(code.G) == code.dim
    assert gf2.rank(code.H) == code.k
    assert gf2.is_zero(gf2.mul_transpose(code.G, code.H))
    assert code.k == code.n - code.dim


# ---------------------------------------------------------------- families

@pytest.mark.parametrize("r,n,k", [(3, 7, 3), (4, 15, 4), (6, 63, 6)])
def test_hamming_base_parameters(r, n, k):
    c = bewc.hamming_base(r)
    assert (c.n, c.k, c.dim) == (n, k, n - k)
    assert c.rate == pytest.approx(k / n)
    assert_valid(c)


def test_hamming_rates_match_table():
    assert bewc.hamming_base(3).rate == pytest.approx(0.4286, abs=5e-5)
    assert bewc.hamming_base(4).rate == pytest.approx(0.2667, abs=5e-5)
    assert bewc.hamming_base(6).rate == pytest.approx(0.0952, abs=5e-5)


@pytest.mark.parametrize("r,n,k", [(3, 7, 4), (5, 31, 26)])
def test_simplex_base_parameters(r, n, k):
    c = bewc.simplex_base(r)
    assert (c.n, c.k, c.dim) == (n, k, r)
    assert_valid(c)


def test_simplex_rates_match_table():
    assert bewc.simplex_base(3).rate == pytest.approx(0.5714, abs=5e-5)
    assert bewc.simplex_base(5).rate == pytest.approx(0.8387, abs=5e-5)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_hamming_simplex_duality(r):
    h = bewc.hamming_base(r)
    s = bewc.simplex_base(r)
    # Each generator annihilates the other's rows.
    assert gf2.is_zero(gf2.mul_transpose(h.G, s.G))
    assert s.G == h.H


@pytest.mark.parametrize("r", [1, 9])
def test_family_r_out_of_range(r):
    with pytest.raises(CodeError):
        bewc.hamming_base(r)
    with pytest.raises(CodeError):
        bewc.simplex_base(r)


# ---------------------------------------------------------------- random codes

def test_random_base_full_rank_and_valid():
    c = random_code(31, 26, seed=1)
    assert (c.n, c.dim) == (31, 26)
    assert_valid(c)


def test_random_base_deterministic():
    a = random_code(4, 2, seed=99)
    b = random_code(4, 2, seed=99)
    assert a == b
    c = random_code(4, 2, seed=100)
    assert a != c


def _rank_checked_draw(n, dim, alpha, seed):
    """The draws `random_base` must reproduce: resample the whole generator
    until gf2.rank says it is full rank; returns G and its attempt index."""
    rng = codes.make_rng(seed)
    for attempt in itertools.count():
        bits = rng.random((dim, n)) < alpha
        G = BitMatrix(n, tuple(unpack(np.packbits(bits, axis=1, bitorder="little"))))
        if gf2.rank(G) == dim:
            return G, attempt


@pytest.mark.parametrize("n, dim, alpha, seed, attempt", [
    (4, 3, 0.5, 1, 2), (31, 26, 0.5, 12, 1),  # the first draws are dependent
    (31, 26, 0.5, 1, 0), (16, 8, 0.5, 1, 0), (40, 20, 0.5, 5, 0), (38, 5, 0.5, 3, 0),
    (9, 4, 0.3, 7, 0),
])
def test_random_base_keeps_the_rank_checked_draws(n, dim, alpha, seed, attempt):
    G, want_attempt = _rank_checked_draw(n, dim, alpha, seed)
    assert want_attempt == attempt
    assert bewc.random_base(RandomCodeParams(n=n, dim=dim, alpha=alpha, seed=seed)).G == G


def test_random_base_attempts_fit_the_draw_budget(monkeypatch):
    draws = []
    real = gf2.rank
    monkeypatch.setattr(gf2, "rank", lambda G: draws.append(G) or real(G))
    with pytest.raises(CodeError, match=r"^no full-rank Bernoulli\(1e-09\) generator of shape "
                                        r"\(2, 4\) in 1000 attempts$"):
        bewc.random_base(RandomCodeParams(n=4, dim=2, alpha=1e-9, seed=5))
    assert len(draws) == codes.RANDOM_RANK_ATTEMPTS
    draws.clear()
    monkeypatch.setattr(codes, "RANDOM_DRAW_BUDGET", 30 * 4 * 2 + 7)  # 30 draws of 2×4
    with pytest.raises(CodeError, match=r"in 30 attempts$"):
        bewc.random_base(RandomCodeParams(n=4, dim=2, alpha=1e-9, seed=5))
    assert len(draws) == 30


def test_random_base_alpha_too_extreme():
    with pytest.raises(CodeError):
        bewc.random_base(RandomCodeParams(n=4, dim=2, alpha=1e-9, seed=5))


def test_random_params_alpha_range():
    with pytest.raises(CodeError):
        RandomCodeParams(n=4, dim=2, alpha=0.0, seed=1)


@pytest.mark.parametrize("n, dim", [(3, 5), (-2, 1), (4, 4), (4, 0)])
def test_random_params_shape(n, dim):
    with pytest.raises(CodeError, match=f"^need 1 <= dim < n, got dim={dim}, n={n}$"):
        RandomCodeParams(n=n, dim=dim, alpha=0.5, seed=1)


# ---------------------------------------------------------------- CodeSpec

def test_codespec_shape_comes_from_g(ex1):
    c = codes.CodeSpec("ex1", ex1.G, ex1.H)
    assert (c.n, c.dim, c.k) == (4, 2, 2) and c == ex1
    with pytest.raises(TypeError):
        codes.CodeSpec("ex1", ex1.G, ex1.H, n=4)


@pytest.mark.parametrize("g, h, message", [
    ([], ["1000", "0100", "0010", "0001"], "need 1 <= dim < n, got dim=0, n=4"),
    (["1000", "0100", "0010", "0001"], [], "need 1 <= dim < n, got dim=4, n=4"),
    (["1001", "0110"], ["10010", "01100"], "H has wrong shape"),
    (["1001", "0110"], ["1001"], "H has wrong shape"),
    (["1001", "0110"], ["1001", "0110", "1111"], "H has wrong shape"),
    (["1010", "1010"], ["1001", "0110"], "G is rank-deficient"),
    (["1001", "0110"], ["1001", "1001"], "H is rank-deficient"),
    (["1001", "0110"], ["1000", "0100"], "G·Hᵀ != 0"),
])
def test_codespec_refuses_bad_matrices(g, h, message):
    def matrix(rows):
        return BitMatrix(4, ()) if not rows else from_strings(rows)
    with pytest.raises(CodeError, match=f"^{message}$"):
        codes.CodeSpec("bad", matrix(g), matrix(h))


# ---------------------------------------------------------------- explicit

def test_from_generator_example_code(ex1):
    cb_words = set()
    for v in range(4):
        cb_words.update(unpack(gf2.vec_mat_mul(pack([v], 2), ex1.G)))
    assert cb_words == {0b0000, 0b0110, 0b1001, 0b1111}


def test_from_generator_rejects_rank_deficient():
    with pytest.raises(CodeError):
        bewc.from_generator(from_strings(["1010", "1010"]))


@pytest.mark.parametrize("rows", [["1010", "1010"], ["1100", "0110", "1010"], ["0000", "1001"]])
def test_from_generator_dependent_rows_message(rows):
    with pytest.raises(CodeError, match="^generator rows are linearly dependent$"):
        bewc.from_generator(from_strings(rows))


def test_from_generator_rejects_full_dimension():
    with pytest.raises(CodeError):
        bewc.from_generator(identity(4))


def test_from_generator_single_row():
    c = bewc.from_generator(from_strings(["1111"]))
    assert (c.n, c.dim, c.k) == (4, 1, 3)
    assert_valid(c)


# ---------------------------------------------------------------- enumeration

def test_gaussian_binomial_7_choose_4():
    assert codes.gaussian_binomial(7, 4) == 11811
    assert codes.gaussian_binomial(7, 3) == 11811


def test_enumerate_2_1():
    subs = [m.row_strings() for m in codes.enumerate_subspaces(2, 1)]
    assert sorted(tuple(s) for s in subs) == [("01",), ("10",), ("11",)]


@pytest.mark.parametrize("n,dim", [(4, 1), (4, 2), (4, 3), (5, 2), (6, 3)])
def test_enumerate_counts_and_distinct_row_spaces(n, dim):
    spaces = set()
    count = 0
    for m in codes.enumerate_subspaces(n, dim):
        count += 1
        span = frozenset(_row_space(m))
        assert span not in spaces
        spaces.add(span)
        assert gf2.rank(m) == dim
        assert codes.canonical_generator(m) == m
    assert count == codes.gaussian_binomial(n, dim)


def _row_space(m):
    span = {0}
    for r in m.rows:
        span |= {x ^ r for x in span}
    return span


def test_enumerate_guard():
    with pytest.raises(codes.GuardError):
        next(codes.enumerate_subspaces(40, 20))


@pytest.mark.parametrize("n, dim", [(2000, 1000), (8000, 4000)])
def test_enumerate_guard_refuses_huge_shapes_without_the_count(n, dim, monkeypatch):
    # 2^(dim·(n−dim)) bounds the count from below; the count itself has
    # thousands of digits and takes over 30 s at (8000, 4000).
    def no_count(n, d):
        raise AssertionError("subspace count computed before the lower bound")
    if n == 8000:
        monkeypatch.setattr(codes, "gaussian_binomial", no_count)
    with pytest.raises(codes.GuardError, match=r"enumeration guard \(10000000\)$"):
        next(codes.enumerate_subspaces(n, dim))


def test_enumerate_guard_message_omits_count_above_guard():
    # (24, 1): the lower bound 2^23 passes, the count 2^24 − 1 does not.
    with pytest.raises(codes.GuardError) as err:
        next(codes.enumerate_subspaces(24, 1))
    assert str((1 << 24) - 1) not in str(err.value)


# ---------------------------------------------------------------- serialization

def test_serialize_round_trip(ex1):
    doc = codes.serialize(ex1)
    back = codes.parse(doc)
    assert back.G == ex1.G and back.name == ex1.name
    assert codes.serialize(back) == doc


def test_serialize_example_rows(ex1):
    assert '"generator_rows"' in codes.serialize(ex1)
    assert codes.parse(codes.serialize(ex1)).G.row_strings() == ["1001", "0110"]


def test_parse_rejects_rank_deficient_document():
    bad = '{"name": "x", "n": 4, "dim": 2, "generator_rows": ["1010", "1010"]}'
    with pytest.raises(CodeError):
        codes.parse(bad)


def test_parse_rejects_malformed():
    with pytest.raises(CodeError):
        codes.parse("not json")
    with pytest.raises(CodeError):
        codes.parse('{"name": "x"}')
    with pytest.raises(CodeError):
        codes.parse('{"name": "x", "n": 4, "dim": 1, "generator_rows": ["111"]}')


def test_parse_rejects_integer_rows():
    with pytest.raises(CodeError, match="list of '01' strings"):
        codes.parse('{"name": "x", "n": 3, "dim": 1, "generator_rows": [111]}')
    with pytest.raises(CodeError, match="must be integers"):
        codes.parse('{"name": "x", "n": 4.0, "dim": 1, "generator_rows": ["1011"]}')


def test_build_budget_admits_the_paper_codes_and_refuses_longer_ones():
    for n, dim in [(255, 247), (255, 8), (127, 60), (64, 32), (2324, 1), (2324, 2323)]:
        codes.check_shape(n, dim)
    for n in (2325, 10**7):
        with pytest.raises(codes.GuardError, match=f"length n={n}"):
            codes.check_shape(n, 1)
    with pytest.raises(codes.GuardError):  # before any draw
        RandomCodeParams(n=20000, dim=1, alpha=0.5, seed=0)


def test_from_generator_checks_shape_before_null_space(monkeypatch):
    # A 60-byte document once built a 60,000-column null space (265 MB)
    # before the dim = 0 shape was rejected.
    def no_null_space(m):
        raise AssertionError("null space computed before the shape check")
    monkeypatch.setattr(gf2, "null_space", no_null_space)
    with pytest.raises(CodeError, match="dim=0, n=60000"):
        codes.parse('{"name":"x","n":60000,"dim":0,"generator_rows":[]}')


_FIELD = st.one_of(st.none(), st.booleans(), st.integers(-3, 14), st.floats(-2, 14),
                   st.text("01a", max_size=12), st.lists(st.integers(0, 1), max_size=3),
                   st.recursive(st.text("01", max_size=4),
                                lambda inner: st.lists(inner, max_size=2)
                                | st.dictionaries(st.sampled_from(["n", "dim"]), inner,
                                                  max_size=2), max_leaves=4))


@st.composite
def code_documents(draw):
    """Code documents with n ≤ 12: well-formed about half the time, else with
    one field or row of another type or nested value, a row of another width or
    alphabet, a row too many or too few, a field missing, or the whole document
    nested in lists or objects, up to past the JSON decoder's recursion limit."""
    n = draw(st.integers(0, 12))
    dim = draw(st.integers(0, n + 1))
    doc = {"name": draw(st.text(max_size=4)), "n": n, "dim": dim,
           "generator_rows": draw(st.lists(st.text("01", min_size=n, max_size=n),
                                           min_size=dim, max_size=dim))}
    fault = draw(st.sampled_from(["none"] * 8 + ["name", "n", "dim", "generator_rows", "row",
                                                 "width", "count", "missing", "nested"]))
    rows = doc["generator_rows"]
    if fault in doc:
        doc[fault] = draw(_FIELD)
    elif fault in ("row", "width") and rows:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = draw(_FIELD if fault == "row" else st.text("012", max_size=n + 1))
    elif fault == "count":
        doc["generator_rows"] = rows[1:] if rows and draw(st.booleans()) else rows + ["0" * n]
    elif fault == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    text = json.dumps(doc)
    if fault == "nested":
        depth = draw(st.sampled_from([1, 2, 100_000]))
        opener, closer = draw(st.sampled_from([("[", "]"), ('{"doc":', "}")]))
        text = opener * depth + text + closer * depth
    return text


@settings(max_examples=300, deadline=None)
@given(code_documents())
def test_parse_fuzz_gives_code_or_code_error(text):
    try:
        code = codes.parse(text)
    except CodeError:
        return
    assert codes.parse(codes.serialize(code)) == code


def test_parse_zero_dim_reports_document_n():
    with pytest.raises(CodeError, match="dim=0, n=4"):
        codes.parse('{"name": "x", "n": 4, "dim": 0, "generator_rows": []}')
