import copy
import decimal
import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaycast import (ERASED, EnumerationCapError, InvalidMatrixError,
                       InvalidParameterError, N, StreamFormatError,
                       baseline_rate, build_encoder, capacity,
                       characteristic_roots, count_words, enumerate_words,
                       format_stream, is_admissible, parse_stream,
                       spectral_radius)
from relaycast.constraint import (_power_adjacency, make_constraint,
                                  power_graph)
import relaycast.symbols as symbols_module
from relaycast.symbols import is_data
from helpers import (brute_force_words, count_leading_coefficient,
                     format_stream_oracle, matrix_power, outcome,
                     parse_stream_oracle, rows_adjacency, rows_graph,
                     scan_admissible)

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


# ---------------------------------------------------------------------------
# streams

def test_stream_roundtrip():
    word = (0, N, 1, N, N)
    assert parse_stream(format_stream(word)) == word
    assert format_stream(word) == "0 N 1 N N"


def test_stream_parse_errors():
    with pytest.raises(StreamFormatError):
        parse_stream("0 X 1")
    with pytest.raises(StreamFormatError):
        parse_stream("0 -1")
    with pytest.raises(StreamFormatError):
        parse_stream("3 N", q=3)
    with pytest.raises(StreamFormatError, match="'X'"):
        parse_stream("0 X 1 Y X 7", q=3)  # the first bad token is named
    with pytest.raises(StreamFormatError):
        parse_stream("0 N " + "1" * 5000)  # beyond int()'s digit limit


def test_markers_are_singletons():
    for marker, name in ((N, "N"), (ERASED, "ERASED")):
        assert repr(marker) == name
        assert copy.copy(marker) is marker
        assert copy.deepcopy(marker) is marker
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(marker, protocol)) is marker
    assert N is not ERASED
    assert [is_data(s) for s in (0, 5, N, ERASED, None)] == \
        [True, True, False, True, True]


@pytest.mark.parametrize("text", ["\u0663 N", "0 N \u00b2", "\uff11", "1\u0660"])
def test_stream_rejects_non_ascii_digits(text):
    # str.isdigit accepts Arabic-Indic, superscript and fullwidth digits
    with pytest.raises(StreamFormatError):
        parse_stream(text)


@settings(max_examples=300, deadline=None)
@given(word=st.lists(st.one_of(st.integers(), st.just(N), st.just(ERASED))))
def test_format_stream_matches_per_symbol_oracle(word):
    assert format_stream(word) == format_stream_oracle(word)


_TOKENS = st.one_of(
    st.just("N"),
    st.integers(0, 9).map(str),  # in or out of range for the drawn q
    st.integers(10, 10 ** 6).map(str),
    st.just("1" * 641),  # one digit beyond the decimal bound
    st.sampled_from(["\u0663", "\u00b2", "\uff11", "1\u0660", "-1", "+1", "n"]),
    st.text(st.characters(blacklist_categories=("Z", "Cc")), min_size=1,
            max_size=3))


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(_TOKENS),
       q=st.one_of(st.none(), st.integers(1, 7),
                   st.sampled_from([10, 11, 255, 256, 10 ** 6])),
       sep=st.sampled_from([" ", "  ", "\t", "\n", " \r\n "]))
def test_parse_stream_matches_per_token_oracle(tokens, q, sep):
    """The same word, or the same error for the first bad token."""
    text = sep.join(tokens)
    assert outcome(parse_stream, text, q) == outcome(parse_stream_oracle, text, q)


def test_one_character_tokens_one_space_apart_take_a_strided_slice(
        monkeypatch):
    """Such a text is read with a strided slice and one translate, with no
    split and no token table: ``_read`` is not called."""
    monkeypatch.setattr(symbols_module, "_read", None)
    assert parse_stream("N 0 N N 0", q=1) == bytes([0, 1, 0, 0, 1])
    assert parse_stream(" 9 N 2\n", q=12) == bytes([10, 0, 3])


@pytest.mark.parametrize("q", ["2", 2.0, 0, True])
def test_parse_stream_checks_q(q):
    # a str q used to end in a TypeError at the first data token
    with pytest.raises(InvalidParameterError):
        parse_stream("0 N", q=q)


# ---------------------------------------------------------------------------
# admissibility

def test_admissible_examples():
    assert is_admissible(parse_stream("1 N 1 N N"))
    assert not is_admissible(parse_stream("1 1"))
    assert is_admissible(parse_stream("2 N 0 N N 1"))
    assert is_admissible(())


@pytest.mark.parametrize("q,n", [(1, 6), (2, 5)])
def test_admissible_matches_scan_oracle(q, n):
    from itertools import product
    symbols = list(range(q)) + [N]
    for word in product(symbols, repeat=n):
        assert is_admissible(word) == scan_admissible(word)


@settings(max_examples=300, deadline=None)
@given(head=st.lists(st.sampled_from([N, N, N, 0, 1, ERASED, None]),
                     max_size=400),
       tail=st.lists(st.sampled_from([0, 5, ERASED, None]), max_size=2))
@example(head=[N, 0] * 50_000, tail=[])
@example(head=[N, 0] * 50_000, tail=[1])  # the only run ends the word
@example(head=[], tail=[ERASED, None])
def test_admissible_matches_scan_oracle_property(head, tail):
    """Every symbol but ``N`` is data, ``ERASED`` and ``None`` too."""
    word = tuple(head + tail)
    assert is_admissible(word) == scan_admissible(word)


# ---------------------------------------------------------------------------
# graph presentation

def test_make_constraint_adjacency():
    assert rows_adjacency(make_constraint(1)) == ((1, 1), (1, 0))
    assert rows_adjacency(make_constraint(6)) == ((1, 6), (1, 0))


def test_make_constraint_structure():
    g = make_constraint(2)
    assert g.states == ("OFF", "ON")
    labels = {(e.src, e.dst, e.word) for e in rows_graph(g).edges}
    assert labels == {(0, 0, (N,)), (0, 1, (0,)), (0, 1, (1,)), (1, 0, (N,))}


@pytest.mark.parametrize("q", [0, -3])
def test_make_constraint_rejects_degenerate(q):
    """A constraint with no data symbol is refused by every exported
    function that takes q (``make_constraint`` itself is internal and
    takes the q that ``build_encoder`` checked)."""
    for call in [capacity, characteristic_roots, baseline_rate,
                 lambda q: count_words(q, 3), lambda q: enumerate_words(q, 3),
                 lambda q: build_encoder(q, 1, 2)]:
        with pytest.raises(InvalidParameterError):
            call(q)


@pytest.mark.parametrize("q", [0, -1, "2", 1.5])
def test_alphabet_rejects_bad_q(q):
    """The data alphabet {0..q-1} needs a positive integer q: synthesis
    refuses any other before it builds the presentation."""
    with pytest.raises(InvalidParameterError) as excinfo:
        build_encoder(q, 1, 2)
    assert str(excinfo.value) == f"q must be a positive integer, got {q!r}"


def _path_words(g, length):
    """All label words of length-`length` paths, starting anywhere."""
    by_src = {}
    for e in g.edges:
        by_src.setdefault(e.src, []).append(e)
    words = set()
    frontier = [((), s) for s in range(len(g.states))]
    for _ in range(length):
        frontier = [(w + e.word, e.dst)
                    for w, s in frontier for e in by_src.get(s, [])]
    return {w for w, _ in frontier}


@pytest.mark.parametrize("q", [1, 2])
def test_presentation_lossless_at_finite_scale(q):
    g = rows_graph(make_constraint(q))
    for n in range(1, 11):
        path_words = _path_words(g, n)
        assert all(is_admissible(w) for w in path_words)
        assert path_words == set(enumerate_words(q, n, cap=10**8))


# ---------------------------------------------------------------------------
# counting

def test_fibonacci_sequence_q1():
    assert [count_words(1, n) for n in range(6)] == [1, 2, 3, 5, 8, 13]


def test_counts_match_derived_values():
    assert count_words(2, 2) == 5   # 9 strings minus the 4 data-data pairs
    assert count_words(6, 2) == 13  # 49 - 36


@pytest.mark.parametrize("q", [1, 2, 3])
def test_count_matches_bruteforce(q):
    for n in range(0, 9):
        expected = brute_force_words(q, n)
        assert count_words(q, n) == len(expected)
        assert enumerate_words(q, n, cap=10**8) == sorted(
            expected, key=lambda w: tuple((s is N, s if s is not N else 0)
                                          for s in w))


@pytest.mark.parametrize("q", range(1, 9))
def test_count_recurrence_exact(q):
    values = [count_words(q, n) for n in range(61)]
    for n in range(2, 61):
        assert values[n] == values[n - 1] + q * values[n - 2]


def test_count_is_exact_at_large_n():
    # q=6 leaves 64-bit range near n=40; exactness must survive n=200
    value = count_words(6, 200)
    assert value > 3**199
    assert value == count_words(6, 199) + 6 * count_words(6, 198)


@pytest.mark.parametrize("q", [1, 2, 3, 6])
def test_power_adjacency_is_matrix_power(q):
    # synthesis checks feasibility and the path budget on this closed form
    for n in range(1, 12):
        assert _power_adjacency(q, n) == matrix_power([[1, q], [1, 0]], n)
        if n < 8:
            powered = power_graph(make_constraint(q), n)
            assert _power_adjacency(q, n) == \
                [list(r) for r in rows_adjacency(powered)]


def test_count_refuses_past_its_size_budget_before_counting():
    # about n * capacity(q) bits against 2**17; each refusal is immediate
    for q, n in [(1, 190_000), (6, 83_000), (1, 2**18 + 1), (1, 10**640),
                 (10**600, 132)]:
        with pytest.raises(EnumerationCapError) as excinfo:
            count_words(q, n)
        assert str(excinfo.value) == (f"the count of length-{n} words for "
                                      f"q={q} would pass the budget of 131072 bits")
    # the largest counts within it are still exact
    assert count_words(10**600, 131) == count_words(10**600, 130) + \
        10**600 * count_words(10**600, 129)


def test_enumerate_examples():
    assert enumerate_words(1, 2) == [(0, N), (N, 0), (N, N)]
    assert enumerate_words(1, 0) == [()]


def test_enumerate_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_words(2, 15, cap=10**6)  # 3**15 > 10**6
    assert len(enumerate_words(2, 12, cap=3**12)) == count_words(2, 12)
    with pytest.raises(EnumerationCapError):
        enumerate_words(2, 12, cap=3**12 - 1)


@pytest.mark.parametrize("n", [21, 10**5, 10**640])
def test_enumerate_cap_names_q_n_and_cap_without_the_power(n):
    # past cap.bit_length() the refusal needs no (q+1)**n, which would
    # not fit in memory at the larger n
    with pytest.raises(EnumerationCapError) as excinfo:
        enumerate_words(1, n, cap=10**6)
    assert str(excinfo.value) == \
        f"(q+1)**n exceeds enumeration cap 1000000 for q=1, n={n}"


@pytest.mark.parametrize("cap", ["5", 5.0, -1, None])
def test_enumerate_checks_cap(cap):
    # a str cap used to end in a TypeError from the comparison
    with pytest.raises(InvalidParameterError):
        enumerate_words(1, 2, cap=cap)


# ---------------------------------------------------------------------------
# spectral quantities

def test_spectral_radius_closed_form_family():
    assert spectral_radius([[1, 1], [1, 0]]) == pytest.approx(GOLDEN_RATIO, abs=1e-9)
    assert spectral_radius([[1, 6], [1, 0]]) == pytest.approx(3.0, abs=1e-9)
    assert spectral_radius([[1, 0], [0, 1]]) == pytest.approx(1.0, abs=1e-12)
    for q in range(1, 9):
        expected = (1 + math.sqrt(1 + 4 * q)) / 2
        assert spectral_radius([[1, q], [1, 0]]) == pytest.approx(expected, abs=1e-9)


def test_spectral_radius_rejects_bad_matrices():
    with pytest.raises(InvalidMatrixError):
        spectral_radius([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(InvalidMatrixError):
        spectral_radius([[1, -1], [1, 0]])
    with pytest.raises(InvalidMatrixError):
        spectral_radius([])


@pytest.mark.parametrize("matrix", [
    [["a"]], [[1.5, 1], [1, 0]], [[True, 1], [1, 0]], [[1, 1], [1, None]],
])
def test_matrices_must_hold_nonnegative_ints(matrix):
    # a float entry used to yield a radius (2.0 here), a string a TypeError
    with pytest.raises(InvalidMatrixError):
        spectral_radius(matrix)


@pytest.mark.parametrize("matrix", [
    [[1, 0, 0], [0, 2, 0], [0, 0, 3]],  # reducible: used to divide by zero
    [[2, 1, 0], [0, 2, 0], [0, 0, 1]],  # used to return 1.500015, not 2
    [[1, 1, 1], [1, 1, 1], [0, 0, 1]],  # the last state reaches no other
    [[2, 1, 0], [3, 1, 1], [1, 0, 4]],  # irreducible: a cycle through all
    [[1, 2, 0, 3], [0, 3, 1, 0], [2, 0, 1, 1], [1, 0, 0, 2]],
])
def test_matrices_larger_than_2x2_are_rejected(matrix):
    with pytest.raises(InvalidMatrixError):
        spectral_radius(matrix)


def test_capacity_values():
    assert capacity(1) == pytest.approx(0.694242, abs=1e-6)
    assert capacity(1) == pytest.approx(math.log2(GOLDEN_RATIO), abs=1e-12)
    assert capacity(6) == pytest.approx(math.log2(3), abs=1e-12)
    assert abs(capacity(2) - 1.0) <= 1e-12


def test_capacity_keeps_its_closed_form_up_to_a_million():
    """Bit for bit the float expression capacity has always used."""
    for q in [*range(1, 3000), *range(10**6 - 100, 10**6 + 1)]:
        assert capacity(q) == math.log2((1.0 + math.sqrt(1.0 + 4.0 * q)) / 2.0)


def _decimal_capacity(q):
    with decimal.localcontext() as context:
        context.prec = 50
        root = (1 + decimal.Decimal(1 + 4 * q).sqrt()) / 2
        return float(root.ln() / decimal.Decimal(2).ln())


@pytest.mark.parametrize("q", [2**1000 - 1, 2**1000, 10**308, 2 * 10**308,
                               10**400, 10**639, 10**640 - 1])
def test_capacity_is_finite_for_every_q(q):
    # 4.0 * q used to overflow: inf from about 4.5e307, OverflowError
    # from about 1.8e308
    assert capacity(q) == pytest.approx(_decimal_capacity(q), rel=1e-14)


def test_roots_past_the_float_range_raise():
    assert characteristic_roots(10**400) == pytest.approx((1e200, -1e200),
                                                          rel=1e-14)
    assert characteristic_roots(10**616)[0] == pytest.approx(1e308, rel=1e-14)
    with pytest.raises(InvalidParameterError, match="1.8e308"):
        characteristic_roots(10**617)
    assert spectral_radius([[10**200, 0], [0, 1]]) == 1e200
    assert spectral_radius([[10**300, 10**300], [10**300, 10**300]]) == \
        pytest.approx(2e300, rel=1e-14)
    for matrix in ([[10**309]], [[10**308, 10**308], [10**308, 10**308]],
                   [[0, 10**400], [10**400, 0]]):
        with pytest.raises(InvalidMatrixError, match="1.8e308"):
            spectral_radius(matrix)


def test_capacity_rejects_q0():
    with pytest.raises(InvalidParameterError):
        capacity(0)


@pytest.mark.parametrize("q", range(1, 9))
def test_capacity_agrees_with_spectral_radius(q):
    adjacency = rows_adjacency(make_constraint(q))
    assert abs(capacity(q) - math.log2(spectral_radius(adjacency))) <= 1e-9


def test_characteristic_roots():
    plus, minus = characteristic_roots(1)
    assert plus == pytest.approx(GOLDEN_RATIO, abs=1e-9)
    assert minus == pytest.approx(1 - GOLDEN_RATIO, abs=1e-9)
    assert characteristic_roots(6) == pytest.approx((3.0, -2.0), abs=1e-9)
    assert characteristic_roots(2) == pytest.approx((2.0, -1.0), abs=1e-9)
    for q in range(1, 9):
        plus, minus = characteristic_roots(q)
        assert plus + minus == pytest.approx(1.0, abs=1e-9)
        assert plus * minus == pytest.approx(-q, abs=1e-9)


@pytest.mark.parametrize("q", [1, 2, 6])
def test_count_growth_approaches_capacity(q):
    # gap(n) = log2(a_q)/n up to a term below 3.4e-6/n for n >= 30, q <= 6
    law = math.log2(count_leading_coefficient(q))
    lengths = (30, 40, 50, 60)
    gaps = [math.log2(count_words(q, n)) / n - capacity(q) for n in lengths]
    for n, gap in zip(lengths, gaps):
        assert gap >= 0
        assert n * gap == pytest.approx(law, abs=1e-5)
    assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))


# ---------------------------------------------------------------------------
# power graphs

def test_power_graph_examples():
    assert rows_adjacency(power_graph(make_constraint(1), 3)) == ((3, 2), (2, 1))
    assert rows_adjacency(power_graph(make_constraint(6), 2)) == ((7, 6), (1, 6))


def test_power_graph_identity():
    g = make_constraint(2)
    assert power_graph(g, 1) is g


@pytest.mark.parametrize("q", [1, 2, 3])
def test_power_graph_adjacency_is_matrix_power(q):
    g = make_constraint(q)
    base = [list(row) for row in rows_adjacency(g)]
    for n in range(2, 6):
        powered = power_graph(g, n)
        assert [list(row) for row in rows_adjacency(powered)] == \
            matrix_power(base, n)
        edges = rows_graph(powered).edges
        assert all(len(e.word) == n for e in edges)
        assert all(is_admissible(e.word) for e in edges)
        # deterministic base presentation: a path is fixed by (src, label)
        keys = [(e.src, e.word) for e in edges]
        assert len(keys) == len(set(keys))

