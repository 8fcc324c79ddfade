import dataclasses
import itertools
import math
import random
import sys
import threading
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from relaycast import (AmbiguousEncoderError, EncoderFormatError,
                       EnumerationCapError, FrameHeader, FramingError,
                       InfeasibleRateError, InvalidMatrixError,
                       InvalidParameterError, N, RelaycastError,
                       StateSplitError, StreamFormatError, TopologyError,
                       UnknownCodewordError, build_encoder, capacity,
                       count_words, decode, encode, encoder_report,
                       end_to_end, format_stream, is_admissible,
                       parse_encoder, parse_stream, parse_tree, run,
                       serialize_encoder, simulate, spectral_radius,
                       verify_delivery)
import relaycast.encoder as encoder_module
import relaycast.symbols as symbols_module
from relaycast.constraint import (_past_capacity, _power_adjacency,
                                  make_constraint, power_graph)
from relaycast.encoder import (ApproxEigenvector, Encoder, _anticipation,
                               _codeword_index, _synthesize,
                               find_approximate_eigenvector, split_states)
from relaycast.encoder_file import _parse
from relaycast.symbols import _chunk_values, _split
from helpers import (ROUND_TRIP_RATES, anticipation_oracle,
                     approximate_eigenvector_oracle, code_of, decode_oracle,
                     deep_encoder_text, encode_oracle, matrix_vector,
                     outcome, random_bits, rows_adjacency, rows_graph,
                     symbols_of, wide_fork_text)


def _satisfies_inequality(adjacency, vector, p):
    """The one-matrix-multiply oracle: A x >= 2**p x componentwise."""
    product = matrix_vector(adjacency, vector)
    return all(got >= (1 << p) * want for got, want in zip(product, vector))


# ---------------------------------------------------------------------------
# approximate eigenvectors

def test_eigenvector_q1_example():
    adjacency = rows_adjacency(power_graph(make_constraint(1), 3))
    assert [list(r) for r in adjacency] == [[3, 2], [2, 1]]
    found = find_approximate_eigenvector(adjacency, 2)
    assert _satisfies_inequality(adjacency, found.vector, 2)
    assert matrix_vector(adjacency, found.vector) == [8, 5]
    assert found.vector == (2, 1)
    assert found.p == 2


def test_eigenvector_q6_example():
    adjacency = rows_adjacency(power_graph(make_constraint(6), 2))
    found = find_approximate_eigenvector(adjacency, 3)
    assert _satisfies_inequality(adjacency, found.vector, 3)
    assert matrix_vector(adjacency, found.vector) == [20, 8]
    assert found.vector == (2, 1)


def test_eigenvector_infeasible():
    adjacency = rows_adjacency(make_constraint(1))  # spectral radius 1.618 < 2
    with pytest.raises(InfeasibleRateError):
        find_approximate_eigenvector(adjacency, 1)


def test_eigenvector_feasibility_sweep():
    # never rejected when p/n is safely below capacity; output always valid
    for q in range(1, 9):
        base = make_constraint(q)
        for n in range(1, 9):
            adjacency = rows_adjacency(power_graph(base, n))
            max_p = math.floor((capacity(q) - 0.01) * n)
            for p in range(1, max_p + 1):
                found = find_approximate_eigenvector(adjacency, p)
                assert _satisfies_inequality(adjacency, found.vector, p)
                assert math.gcd(*found.vector) == 1


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(st.integers(0, 12), min_size=4, max_size=4),
       p=st.integers(1, 5), expected=st.none())
@example(entries=[2, 1, 0, 2], p=1, expected=None)  # reducible
@example(entries=[1, 2, 6, 0], p=2, expected=None)  # direction (1, 1.5)
@example(entries=[4, 0, 0, 4], p=2, expected=None)  # (1, 0) ties (0, 1)
@example(entries=[0, 1, 2**60, 0], p=30,
         expected=(1, 2**30))  # past the brute-force oracle's reach
def test_eigenvector_of_any_small_matrix(entries, p, expected):
    # the least-sum vector of the brute-force oracle, or its error, for
    # any 2x2 matrix: the only size synthesis passes
    adjacency = [entries[:2], entries[2:]]
    if expected is None:
        expected = outcome(approximate_eigenvector_oracle, adjacency, p)
    found = outcome(find_approximate_eigenvector, adjacency, p)
    if isinstance(found, ApproxEigenvector):
        assert found.p == p
        assert _satisfies_inequality(adjacency, found.vector, p)
        found = found.vector
    assert found == expected


@settings(max_examples=200, deadline=None)
@given(size=st.integers(1, 2), entries=st.lists(st.integers(0, 8), min_size=4,
                                                max_size=4),
       p=st.integers(1, 4))
@example(size=2, entries=[0, 1, 16, 0], p=2)   # only (t - d, c) holds
@example(size=2, entries=[3, 1, 1, 3], p=2)    # spectral radius exactly 4
@example(size=2, entries=[3, 2, 0, 3], p=2)    # reducible, infeasible
def test_eigenvector_oracle_lemma_agrees_with_brute_force(size, entries, p):
    """The oracle's verdict, from its lemma's vectors alone, is that of a
    search that uses no lemma: every nonzero vector with entries up to
    2 (t + the largest matrix entry), past twice the lemma's bound t + c."""
    adjacency = [entries[i * size:(i + 1) * size] for i in range(size)]
    bound = 2 * ((1 << p) + max(entries))
    found = any(_satisfies_inequality(adjacency, x, p)
                for x in itertools.product(range(bound + 1), repeat=size)
                if any(x))
    verdict = outcome(approximate_eigenvector_oracle, adjacency, p)
    feasible = verdict[0] is not InfeasibleRateError
    assert feasible == found
    if feasible:
        assert _satisfies_inequality(adjacency, verdict, p)


def test_eigenvector_of_reducible_matrices():
    # no Perron direction: one state alone carries 2**p choices
    assert find_approximate_eigenvector([[2, 1], [0, 2]], 1).vector == (1, 0)
    assert find_approximate_eigenvector([[4, 0], [1, 1]], 1).vector == (1, 0)


# ---------------------------------------------------------------------------
# state splitting

def test_split_q6_walkthrough():
    g = power_graph(make_constraint(6), 2)
    split = split_states(g, ApproxEigenvector((3, 1), p=3))
    assert len(split.states) == 4  # sum of the weights
    edges = rows_graph(split).edges
    degrees = [sum(e.src == s for e in edges) for s in range(4)]
    assert all(d >= 8 for d in degrees)
    # two rounds: each round adds exactly one state
    assert len(split.states) - len(g.states) == 2
    assert all(is_admissible(e.word) for e in edges)


def test_split_q1():
    g = power_graph(make_constraint(1), 3)
    split = split_states(g, ApproxEigenvector((2, 1), p=2))
    assert len(split.states) == 3
    edges = rows_graph(split).edges
    assert all(sum(e.src == s for e in edges) >= 4 for s in range(3))


def test_split_all_ones_is_identity():
    g = power_graph(make_constraint(2), 2)  # A = [[3,2],[1,2]], A@(1,1) = (5,3)
    split = split_states(g, ApproxEigenvector((1, 1), p=1))
    assert split is g


# ---------------------------------------------------------------------------
# built encoders

def test_build_q1(enc_q1):
    report = encoder_report(enc_q1)
    assert (report.q, report.p, report.n) == (1, 2, 3)
    assert report.rate == pytest.approx(2 / 3)
    assert report.efficiency > 0.96
    assert report.efficiency == pytest.approx(0.9603, abs=5e-5)
    assert enc_q1.num_states <= 3
    assert all(len(outs) == 4 for outs in enc_q1.transitions)


def test_build_q6(enc_q6):
    report = encoder_report(enc_q6)
    assert report.rate == pytest.approx(1.5)
    assert report.efficiency > 0.94
    assert report.efficiency == pytest.approx(0.9464, abs=5e-5)
    assert enc_q6.num_states == 3
    assert all(len(outs) == 8 for outs in enc_q6.transitions)


def test_build_rate_within_capacity(enc_q1, enc_q6):
    for machine in (enc_q1, enc_q6):
        assert machine.rate <= capacity(machine.q) + 1e-12


def test_build_infeasible_rates():
    with pytest.raises(InfeasibleRateError):
        build_encoder(1, 1, 1)  # rate 1 > 0.6942
    with pytest.raises(InfeasibleRateError):
        build_encoder(1, 3, 4)  # rate 0.75 > 0.6942


def test_build_at_exact_capacity():
    machine = build_encoder(2, 1, 1)  # rate 1 = capacity(2) exactly
    report = encoder_report(machine)
    assert report.efficiency == 1.0
    bits = "1011001"
    stream, header = encode(machine, bits)
    assert decode(machine, stream, header) == bits


def test_build_is_deterministic():
    assert serialize_encoder(build_encoder(1, 2, 3)) == \
        serialize_encoder(build_encoder(1, 2, 3))
    assert serialize_encoder(build_encoder(6, 3, 2)) == \
        serialize_encoder(build_encoder(6, 3, 2))


def test_build_returns_one_machine_per_rate():
    for rate in [(1, 2, 3), (6, 3, 2), (1, 11, 16)]:
        assert build_encoder(*rate) is build_encoder(*rate)


@pytest.mark.parametrize("args, message", [
    ((True, 2, 3), "q must be a positive integer, got True"),
    ((1, 2.0, 3), "p must be a positive integer, got 2.0"),
    ((1, 2, True), "power must be a positive integer, got True"),
    ((1, [2], 3), "p must be a positive integer, got [2]"),
    ((1, 0, 0), "power must be a positive integer, got 0"),
    ((0, 0, 0), "q must be a positive integer, got 0"),
])
def test_build_checks_arguments_before_the_memo(args, message):
    """Arguments equal to a cached rate, or unhashable, still fail, in
    ``build_encoder``'s one check of the rate: q first, then n (as
    "power"), then p, the order and names the stages once checked in."""
    build_encoder(1, 2, 3)
    with pytest.raises(InvalidParameterError) as info:
        build_encoder(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("rate, error", [((1, 5, 3), InfeasibleRateError),
                                         ((3, 6, 5), StateSplitError)])
def test_build_raises_on_every_call(rate, error):
    for _ in range(2):
        with pytest.raises(error):
            build_encoder(*rate)


def test_greedy_cut_still_rejects_3_6_5():
    # the least-sum vector is (7, 3), the vector of the earlier search
    adjacency = rows_adjacency(power_graph(make_constraint(3), 5))
    assert find_approximate_eigenvector(adjacency, 6).vector == (7, 3)
    with pytest.raises(StateSplitError) as info:
        build_encoder(3, 6, 5)
    assert str(info.value) == \
        "state 'OFF.1' admits no weight-consistent partition"


def test_no_path_before_the_verdict(monkeypatch):
    """Infeasible and over-budget rates are rejected from the closed-form
    adjacency: no power-graph path is built, at any block length."""
    def refuse(*args):
        raise AssertionError("synthesis built the power-graph paths")

    monkeypatch.setattr(encoder_module, "power_graph", refuse)
    with pytest.raises(InfeasibleRateError):
        build_encoder(1, 30, 30)
    with pytest.raises(EnumerationCapError) as info:
        build_encoder(1, 20, 40)
    assert str(info.value) == (
        "rate 20:40 for q=1 needs 433494437 power-graph paths, "
        "over the synthesis budget of 262144")
    for n in (100, 1000):
        start = time.perf_counter()
        with pytest.raises(InfeasibleRateError):
            build_encoder(1, n, n)
        with pytest.raises(EnumerationCapError):
            build_encoder(1, n // 2, n)
        assert time.perf_counter() - start < 0.5


BIG = 10**639  # 640 digits, the longest integer flag the CLI takes


@pytest.mark.parametrize("q, p, n, error", [
    (1, 1, 100_000, EnumerationCapError),  # the count had 20,899 digits
    (1, 150_000, 300_000, EnumerationCapError),  # 300,000 steps: 6 s
    (1, 10**399, 10**399, InfeasibleRateError),  # 400-digit n
    (1, 1, 10**399, EnumerationCapError),
    (1, 10**30, 16, InfeasibleRateError),  # 1 << p overflowed
    (1, BIG, 1, InfeasibleRateError),
    (1, BIG, BIG, InfeasibleRateError),
    (1, BIG // 2, BIG, EnumerationCapError),
    (1, 694242 * 10**633, BIG, InfeasibleRateError),  # 0.694242 > capacity
    (1, 694241 * 10**633, BIG, EnumerationCapError),
    (BIG, 1, 1, EnumerationCapError),
    (BIG, BIG, 1, InfeasibleRateError),
    (BIG, BIG, BIG, EnumerationCapError),
])
def test_every_rate_gets_a_verdict_in_bounded_time(q, p, n, error):
    start = time.perf_counter()
    with pytest.raises(error):
        build_encoder(q, p, n)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("q", [1, 2, 3, 6, 12])
def test_past_capacity_agrees_with_the_weight_vector(q):
    """The test of rates too large to count, against the exact one on
    rates that can be counted. q=2 and q=12 have the integer roots 2 and
    4, where p/n can equal capacity."""
    for n in range(1, 25):
        adjacency = _power_adjacency(q, n)
        for p in range(1, math.floor(capacity(q) * n + 1e-9) + 3):
            verdict = outcome(find_approximate_eigenvector, adjacency, p)
            assert _past_capacity(q, p, n) == isinstance(verdict, tuple)
    with pytest.raises(InfeasibleRateError):
        find_approximate_eigenvector([[3, 2], [2, 1]], 10**30)


def test_path_budget_boundary():
    # 196,418 paths fit the budget of 2**18; 317,811 do not
    assert encoder_module._PATH_BUDGET == 1 << 18
    powered = power_graph(make_constraint(1), 24)
    assert sum(map(sum, rows_adjacency(powered))) == 196418
    with pytest.raises(EnumerationCapError) as info:
        build_encoder(1, 1, 25)
    assert "needs 317811 power-graph paths" in str(info.value)


def test_memoised_machines_match_a_fresh_synthesis():
    for rate in ROUND_TRIP_RATES:
        machine = build_encoder(*rate)
        bits = "1" * (3 * machine.p)
        stream, header = encode(machine, bits)
        assert decode(machine, stream, header) == bits  # warm the table
        assert build_encoder(*rate) is machine
        assert serialize_encoder(machine) == \
            serialize_encoder(_synthesize.__wrapped__(*rate))


def test_threads_share_one_machine_and_its_table():
    """Encoders and decoders racing to fill a fresh machine's empty
    tables each get their own stream and bits back: a shared machine's
    tables only ever gain equal rows. (1,9,13) encodes one block per
    lookup and (6,3,2) two, so both kinds of encode table race."""
    machines = [_synthesize.__wrapped__(*rate) for rate in ((1, 9, 13), (6, 3, 2))]
    rng = random.Random(13)
    messages = [random_bits(rng, 300) for _ in range(6)]
    jobs = [(machines[i % 2], bits) for i, bits in enumerate(messages)]
    streams = [encode_oracle(machine, bits) for machine, bits in jobs]
    wrong = []

    def work(i):
        machine, bits = jobs[i]
        try:
            for _ in range(20):
                if encode(machine, bits) != streams[i]:
                    wrong.append(i)
                if decode(machine, *streams[i]) != bits:
                    wrong.append(i)
        except Exception as exc:  # a thread's error would be lost
            wrong.append(exc)

    _race(work, len(messages))
    assert wrong == []


def test_threads_parsing_one_text_share_working_machines():
    """Threads racing to parse one text, from an empty memo, and to fill
    its machine's tables each get their own bits back; one machine stays
    in the memo."""
    text = serialize_encoder(build_encoder(1, 2, 3))
    rng = random.Random(17)
    messages = [random_bits(rng, 300) for _ in range(6)]
    wrong = []

    def work(i):
        bits = messages[i]
        try:
            for _ in range(20):
                machine = parse_encoder(text)
                if decode(machine, *encode(machine, bits)) != bits:
                    wrong.append(i)
        except Exception as exc:  # a thread's error would be lost
            wrong.append(exc)

    _parse.cache_clear()
    _race(work, len(messages))
    assert wrong == []
    assert parse_encoder(text) is parse_encoder(text)


def _race(work, count):
    """``work(i)`` for i below ``count``, each in its own thread, with
    the interpreter switching threads as often as it can."""
    threads = [threading.Thread(target=work, args=(i,)) for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def _encode_rates():
    """Per q, the first sweep rate of each p: p = 1 to 11 for q=1, so
    every chunk width from 8 blocks of 1 bit to 1 block of 11 bits."""
    first = {}
    for rate in ROUND_TRIP_RATES:
        first.setdefault(rate[:2], rate)
    return sorted(first.values())


@pytest.mark.parametrize("rate", _encode_rates())
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_encode_matches_per_block_oracle(rate, data):
    machine = build_encoder(*rate)
    width = machine._chunk_blocks * machine.p
    chunks = data.draw(st.integers(0, 3))
    for remainder in range(width):  # every remainder modulo the chunk width
        length = chunks * width + remainder
        bits = data.draw(st.text("01", min_size=length, max_size=length))
        assert encode(machine, bits) == encode_oracle(machine, bits)


def test_anticipation_is_small_and_fixed(enc_q1, enc_q6):
    # shared codewords are resolved after one block (q=1 and q=6)
    assert enc_q1.anticipation == 1
    assert enc_q6.anticipation == 1


def test_cross_block_admissibility(enc_q1, enc_q6):
    for machine in (enc_q1, enc_q6):
        for outs in machine.transitions:
            for word, nxt in outs:
                assert is_admissible(word)
                for word2, _ in machine.transitions[nxt]:
                    assert is_admissible(word + word2)


def test_block_streams_within_counting_bound(enc_q1, enc_q6):
    # distinct k-block outputs cannot outnumber admissible words
    for machine in (enc_q1, enc_q6):
        streams = {b"": machine.start_state}
        for k in range(1, 4):
            streams = {prefix + word: nxt
                       for prefix, state in streams.items()
                       for word, nxt in machine.transitions[state]}
            assert len(streams) <= count_words(machine.q, k * machine.n)


# ---------------------------------------------------------------------------
# encode / decode

def test_encode_empty(enc_q1):
    stream, header = encode(enc_q1, "")
    assert stream == b""
    assert header == FrameHeader(0)
    assert decode(enc_q1, stream, header) == ""


def test_encode_first_block_is_tagged_codeword(enc_q6):
    bits = "101"
    stream, _ = encode(enc_q6, bits)
    word, _ = enc_q6.transitions[enc_q6.start_state][int(bits, 2)]
    assert stream[:2] == word


def test_encode_length_formula(differential_machines):
    """Blocks for the padded message plus the fixed flush tail, none for no
    bits: encode's stream, the machine's frame rule and decode's framing
    error all count the same blocks."""
    for machine in differential_machines.values():
        for length in (0, 1, 2, 3, 5, 8, 64, 101):
            stream, header = encode(machine, "1" * length)
            blocks = -(-length // machine.p)
            expected = blocks + machine.anticipation if blocks else 0
            assert len(stream) == machine.n * expected
            assert len(stream) == machine.n * machine._stream_blocks(length)
            assert header == FrameHeader(length)
            if length:
                with pytest.raises(FramingError,
                                   match=f"frame implies {expected}$"):
                    decode(machine, stream[:-machine.n], header)


def test_roundtrip_randomized(enc_q1, enc_q6):
    rng = random.Random(11)
    for machine in (enc_q1, enc_q6):
        lengths = [0, 1, machine.p - 1, machine.p, machine.p + 1, 17, 257,
                   10_000]
        lengths += [rng.randrange(2000) for _ in range(40)]
        for length in lengths:
            bits = random_bits(rng, length)
            stream, header = encode(machine, bits)
            assert is_admissible(stream)
            assert decode(machine, stream, header) == bits


@settings(max_examples=300, deadline=None)
@given(width=st.integers(1, 20), bits=st.text("01", min_size=1, max_size=180))
def test_chunk_values_match_a_per_chunk_parse(width, bits):
    """The chunk values encode reads in C, in fields of 8, 16 or 32 bits,
    against ``int`` of each chunk, with zeros padding the tail to whole
    chunks as encode pads it."""
    bits += "0" * (-len(bits) % width)
    assert list(_chunk_values(bits, width)) == [
        int(bits[i:i + width], 2) for i in range(0, len(bits), width)]


# around the 256 slices that one compiled format cuts at a time
_SPLIT_COUNTS = st.one_of(st.sampled_from([0, 255, 256, 257, 511, 512, 513]),
                          st.integers(0, 600))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), count=_SPLIT_COUNTS, block=st.integers(1, 40),
       blocks=st.integers(0, 20), seed=st.integers(0, 2 ** 32))
def test_split_matches_plain_slicing(n, count, block, blocks, seed):
    """``_split`` of a byte code and of a tuple against slicing one slice
    at a time, as a tuple; decode joins a cut of whole chunks to a cut of
    blocks, and that is a tuple too."""
    rng = random.Random(seed)
    chunks, tail = rng.randbytes(count * n), rng.randbytes(blocks * block)

    def slices(stream, size):
        return tuple(stream[i:i + size] for i in range(0, len(stream), size))

    for head, rest in ((chunks, tail), (tuple(chunks), tuple(tail))):
        cut = _split(head, n)
        assert type(cut) is tuple and cut == slices(head, n)
        keys = cut + _split(rest, block)
        assert type(keys) is tuple and keys == cut + slices(rest, block)


def test_encode_accepts_int_sequences(enc_q1):
    stream_a, header_a = encode(enc_q1, [1, 0, 1, 1])
    stream_b, header_b = encode(enc_q1, "1011")
    assert stream_a == stream_b and header_a == header_b


def test_decode_unknown_codeword(enc_q1):
    stream, header = encode(enc_q1, "110010")
    corrupted = (0, 0, 0) + symbols_of(stream)[3:]  # adjacent data symbols
    with pytest.raises(UnknownCodewordError):
        decode(enc_q1, corrupted, header)
    # 14 bits are 7 message blocks and 1 flush block: with 4 blocks per
    # chunk, the flush block is the last of the second chunk
    stream, header = encode(enc_q1, "11010011101001")
    assert (len(stream) // enc_q1.n, enc_q1._chunk_blocks) == (8, 4)
    assert decode(enc_q1, stream, header) == "11010011101001"
    corrupted = symbols_of(stream)[:21] + (0, 0, N)
    with pytest.raises(UnknownCodewordError,
                       match=r"^block 7 \(0 0 N\) matches no transition$"):
        decode(enc_q1, corrupted, header)


def test_decode_rejects_a_str_word(enc_q1):
    # one character per symbol: "0NN..." would decode character by character
    stream, header = encode(enc_q1, "110100")
    text = "".join(format_stream(stream).split())
    assert len(text) == len(stream)
    with pytest.raises(RelaycastError):
        decode(enc_q1, text, header)


def test_token_blocks_are_converted_once_per_row(enc_q1):
    """A second decode of the same tokens takes no step: each chunk and
    block of their byte code is one lookup in the warm table."""
    machine = parse_encoder(serialize_encoder(enc_q1))
    bits = random_bits(random.Random(3), 1000)
    stream, header = encode(machine, bits)
    text = format_stream(stream)
    counting = mock.Mock(wraps=machine._subset_table.advance)
    with mock.patch.object(machine._subset_table, "advance", counting):
        assert decode(machine, text.split(), header) == bits
        first = counting.call_count
        assert decode(machine, text.split(), header) == bits
    assert 0 < first < len(text.split()) // machine.n
    assert counting.call_count == first


def test_decode_framing_errors(enc_q1):
    stream, header = encode(enc_q1, "1101")
    with pytest.raises(FramingError):
        decode(enc_q1, stream[:-1], header)  # not a block multiple
    with pytest.raises(FramingError):
        decode(enc_q1, stream[:-enc_q1.n], header)  # missing flush block


def test_framing_errors_spell_a_bit_length_past_the_str_limit(enc_q1):
    """A bit length of 5,001 digits, past the interpreter's int-to-str
    limit, ends in a ``FramingError`` naming the block count it implies."""
    stream, _ = encode(enc_q1, "1101")
    with pytest.raises(FramingError, match="frame implies an integer of about"):
        decode(enc_q1, stream, FrameHeader(10**5000))


def test_encoder_repr_leaves_out_the_transitions():
    """A machine's repr names its rate, start state and anticipation,
    not its thousands of transitions."""
    machine = build_encoder(1, 13, 19)
    text = repr(machine)
    assert len(text) < 200
    for name, value in [("q", 1), ("p", 13), ("n", 19), ("start_state", 0),
                        ("anticipation", machine.anticipation)]:
        assert f"{name}={value}" in text


def _converging_machine():
    """State 0 forks on N into states 1 and 2, which both reach 0 on N."""
    return Encoder(q=1, p=1, n=1, start_state=0,
                   transitions=((((N,), 1), ((N,), 2)),
                                (((N,), 0), ((0,), 0)),
                                (((N,), 0), ((0,), 1))))


def test_converging_machine_is_refused_on_construction():
    """A machine built by hand is certified as a parsed one is: the same
    table written as text fails with the same error and message."""
    text = ("ENC 1 1 1 3 0\n0 0 N 1\n0 1 N 2\n1 0 N 0\n1 1 0 0\n"
            "2 0 N 0\n2 1 0 1\n")
    expected = outcome(parse_encoder, text)
    assert expected == (AmbiguousEncoderError, "states 1 and 2 merge on 'N'")
    assert outcome(_converging_machine) == expected


def test_anticipation_is_computed_not_given():
    """``anticipation`` is no constructor field: ``replace`` refuses it,
    and a machine given other transitions certifies them afresh."""
    shallow, deep = (parse_encoder(deep_encoder_text(steps)) for steps in (3, 5))
    with pytest.raises(ValueError):
        dataclasses.replace(shallow, anticipation=0)
    with pytest.raises(TypeError):
        Encoder(q=3, p=1, n=1, start_state=0, transitions=shallow.transitions,
                anticipation=4)
    assert (shallow.anticipation, deep.anticipation) == (4, 6)
    assert dataclasses.replace(shallow, transitions=deep.transitions) == deep


DIFFERENTIAL_RATES = [(1, 2, 3), (6, 3, 2), (1, 9, 13), (6, 11, 7)]


@pytest.fixture(scope="module")
def differential_machines():
    """The four built machines."""
    return {rate: build_encoder(*rate) for rate in DIFFERENTIAL_RATES}


def _corrupt(data, machine, stream, header):
    """The stream and header after one drawn corruption, or unchanged."""
    kind = data.draw(st.sampled_from(
        ["none", "flip", "swap", "random block", "truncate", "header"]))
    alphabet = list(range(machine.q)) + [N]
    blocks = [stream[i:i + machine.n]
              for i in range(0, len(stream), machine.n)]
    if kind == "flip" and stream:
        i = data.draw(st.integers(0, len(stream) - 1))
        symbol = data.draw(st.sampled_from(
            [s for s in alphabet if s is not stream[i]]))
        stream = stream[:i] + (symbol,) + stream[i + 1:]
    elif kind == "swap" and blocks:
        i = data.draw(st.integers(0, len(blocks) - 1))
        j = data.draw(st.integers(0, len(blocks) - 1))
        blocks[i], blocks[j] = blocks[j], blocks[i]
        stream = sum(blocks, ())
    elif kind == "random block" and blocks:
        i = data.draw(st.integers(0, len(blocks) - 1))
        blocks[i] = tuple(data.draw(st.lists(st.sampled_from(alphabet),
                                             min_size=machine.n,
                                             max_size=machine.n)))
        stream = sum(blocks, ())
    elif kind == "truncate" and stream:
        stream = stream[:data.draw(st.integers(0, len(stream) - 1))]
    elif kind == "header":
        header = FrameHeader(data.draw(st.integers(0, header.bit_length + 30)))
    return kind, stream, header


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_decode_matches_oracle(differential_machines, data):
    name = data.draw(st.sampled_from(sorted(differential_machines, key=str)))
    machine = differential_machines[name]
    bits = data.draw(st.text("01", max_size=12 * machine.p))
    stream, header = encode(machine, bits)
    kind, stream, header = _corrupt(data, machine, symbols_of(stream), header)
    expected = outcome(decode_oracle, machine, stream, header)
    assert outcome(decode, machine, stream, header) == expected
    assert outcome(decode, machine, code_of(stream), header) == expected
    if kind == "none" and name in DIFFERENTIAL_RATES:
        assert expected == bits


def _token_outcome(machine, symbols, header, at, token):
    """What decoding the tokens of ``symbols`` with ``token`` at symbol
    ``at`` must give: the oracle's outcome on the symbols with a symbol
    no codeword holds there, and the token's own error where that
    outcome is the error of ``at``'s block."""
    expected = outcome(decode_oracle, machine,
                       symbols[:at] + (object(),) + symbols[at + 1:], header)
    if expected[:1] == (UnknownCodewordError,) and expected[1].startswith(
            f"block {at // machine.n} "):
        return outcome(parse_stream, token, machine.q)
    return expected


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_chunked_decode_matches_oracle(differential_machines, data):
    """Messages of 2 to 4 whole chunks and 0 to k-1 blocks more, intact
    or with one symbol, one token or one item that is no symbol changed
    at a drawn block of a chunk: symbols, their code and tokens decode
    as the oracle decodes the symbols."""
    name = data.draw(st.sampled_from(sorted(differential_machines, key=str)))
    machine = differential_machines[name]
    k, n, p = machine._chunk_blocks, machine.n, machine.p
    chunks = data.draw(st.integers(2, 4))
    blocks = k * chunks + data.draw(st.integers(0, k - 1))
    length = p * blocks - data.draw(st.integers(0, p - 1))
    bits = data.draw(st.text("01", min_size=length, max_size=length))
    stream, header = encode(machine, bits)
    stream = symbols_of(stream)
    tokens = format_stream(stream).split()
    kind = data.draw(st.sampled_from(["none", "symbol", "token", "no symbol"]))
    # a symbol of block j of chunk c, or of a block after the whole chunks
    block = k * data.draw(st.integers(0, chunks)) + data.draw(
        st.integers(0, k - 1))
    at = n * min(block, blocks - 1) + data.draw(st.integers(0, n - 1))
    if kind == "symbol":
        symbol = data.draw(st.sampled_from(
            [s for s in list(range(machine.q)) + [N] if s is not stream[at]]))
        stream = stream[:at] + (symbol,) + stream[at + 1:]
        tokens = format_stream(stream).split()
    if kind == "no symbol":
        junk = data.draw(st.sampled_from([None, 2.5, 300]))
        stream = stream[:at] + (junk,) + stream[at + 1:]
        tokens[at] = junk
    expected = outcome(decode_oracle, machine, stream, header)
    assert outcome(decode, machine, stream, header) == expected
    if kind != "no symbol":
        assert outcome(decode, machine, code_of(stream), header) == expected
    if kind == "token":
        token = data.draw(st.sampled_from(["x", "0x", str(machine.q), "-1"]))
        tokens[at] = token
        expected = _token_outcome(machine, stream, header, at, token)
    assert outcome(decode, machine, tokens, header) == expected
    if kind == "none" and name in DIFFERENTIAL_RATES:
        assert expected == bits


def test_cold_token_decode_converts_each_token_once(enc_q6):
    """A fresh machine's first token decode reads one-character tokens
    into the byte code with one join and one translate, calling no code
    per token, and other spellings (``00`` for ``0``) through one token
    table, each distinct token once, however many rows and chunks meet
    it."""
    machine = _parse.__wrapped__(serialize_encoder(enc_q6))  # not memoised
    bits = random_bits(random.Random(8), 3000)
    stream, header = encode(machine, bits)
    tokens = format_stream(stream).split()
    converting = mock.patch.object(symbols_module._Symbols, "__missing__",
                                   autospec=True,
                                   side_effect=symbols_module._Symbols.__missing__)
    with converting as counting:
        assert decode(machine, tokens, header) == bits
    assert counting.call_count == 0
    respelled = [t if t == "N" else "0" + t for t in tokens]
    with converting as counting:
        assert decode(machine, respelled, header) == bits
    assert 0 < counting.call_count <= len(set(respelled))


_TOPOLOGY = parse_tree("0 -\n1 0\n")


@pytest.mark.parametrize("call, error, argument", [
    (lambda m, s, h: decode(m, 5, h), StreamFormatError, "word"),
    (lambda m, s, h: decode(m, None, h), StreamFormatError, "word"),
    (lambda m, s, h: decode(m, "N 0 N", h), StreamFormatError, "word"),
    (lambda m, s, h: decode(m, [[0, 1, 2]] * len(s), h), StreamFormatError,
     "word"),
    (lambda m, s, h: decode(m, s, (4, 0)), InvalidParameterError, "header"),
    (lambda m, s, h: encode(m, 5), StreamFormatError, "bits"),
    (lambda m, s, h: encode(m, None), StreamFormatError, "bits"),
    (lambda m, s, h: end_to_end(1, 2, 3, _TOPOLOGY, 5), StreamFormatError,
     "message"),
    (lambda m, s, h: simulate(_TOPOLOGY, 5), StreamFormatError,
     "source_stream"),
    (lambda m, s, h: verify_delivery(simulate(_TOPOLOGY, s), _TOPOLOGY, 5),
     StreamFormatError, "source_stream"),
    # each argument's type is checked at entry, with the error type the
    # function raises for a malformed value of that argument
    (lambda m, s, h: encode("x", "1101"), InvalidParameterError, "encoder"),
    (lambda m, s, h: decode(None, s, h), InvalidParameterError, "encoder"),
    (lambda m, s, h: serialize_encoder(5), InvalidParameterError, "encoder"),
    (lambda m, s, h: encoder_report(5), InvalidParameterError, "encoder"),
    (lambda m, s, h: simulate("0 -", s), InvalidParameterError, "topo"),
    (lambda m, s, h: verify_delivery(5, _TOPOLOGY, s), InvalidParameterError,
     "trace"),
    (lambda m, s, h: verify_delivery(simulate(_TOPOLOGY, s), 5, s),
     InvalidParameterError, "topo"),
    (lambda m, s, h: end_to_end(1, 2, 3, 5, "1101"), InvalidParameterError,
     "topo"),
    (lambda m, s, h: parse_stream(5), StreamFormatError, "text"),
    (lambda m, s, h: parse_encoder(b"ENC"), EncoderFormatError, "text"),
    (lambda m, s, h: parse_tree(5), TopologyError, "text"),
    (lambda m, s, h: format_stream(5), StreamFormatError, "word"),
    (lambda m, s, h: format_stream([[0]]), StreamFormatError, "word"),
    (lambda m, s, h: format_stream("0 N"), StreamFormatError, "word"),
    (lambda m, s, h: is_admissible(5), StreamFormatError, "word"),
    (lambda m, s, h: is_admissible("N"), StreamFormatError, "word"),
    (lambda m, s, h: spectral_radius(5), InvalidMatrixError, "matrix"),
    (lambda m, s, h: run(None), InvalidParameterError, "argv"),
    (lambda m, s, h: run("capacity"), InvalidParameterError, "argv"),
], ids=["decode int", "decode None", "decode str", "decode unhashable",
        "decode tuple header",
        "encode int", "encode None", "end_to_end int", "simulate int",
        "verify_delivery int", "encode str machine", "decode None machine",
        "serialize_encoder int", "encoder_report int", "simulate str topo",
        "verify_delivery int trace", "verify_delivery int topo",
        "end_to_end int topo", "parse_stream int", "parse_encoder bytes",
        "parse_tree int", "format_stream int", "format_stream unhashable",
        "format_stream str", "is_admissible int", "is_admissible str",
        "spectral_radius int", "run None", "run str"])
def test_wrong_types_end_in_a_relaycast_error(enc_q1, call, error, argument):
    stream, header = encode(enc_q1, "1101001110100101")
    with pytest.raises(error) as excinfo:
        call(enc_q1, stream, header)
    assert argument in str(excinfo.value)
    if error is TopologyError:
        assert excinfo.value.reason == "format"


@pytest.mark.parametrize("fields", [(True,), (False,), (4.0,), ("4",),
                                    (None,), (-1,)])
def test_frame_header_rejects_bad_fields(fields):
    with pytest.raises(InvalidParameterError):
        FrameHeader(*fields)


# ---------------------------------------------------------------------------
# serialization

def test_serialize_roundtrip(enc_q1, enc_q6):
    for machine in (enc_q1, enc_q6):
        assert parse_encoder(serialize_encoder(machine)) == machine


def test_serialize_format(enc_q1):
    lines = serialize_encoder(enc_q1).splitlines()
    assert lines[0] == f"ENC 1 2 3 {enc_q1.num_states} {enc_q1.start_state}"
    assert len(lines) == 1 + enc_q1.num_states * 4
    state, tag, *word, nxt = lines[1].split()
    assert (state, tag) == ("0", "0")
    assert len(word) == 3


def _fullwidth(token):
    return "".join(chr(0xFF10 + int(c)) for c in token)


def _arabic_indic(token):
    return "".join(chr(0x0660 + int(c)) for c in token)


def test_parse_encoder_errors(enc_q1):
    with pytest.raises(EncoderFormatError):
        parse_encoder("")
    with pytest.raises(EncoderFormatError):
        parse_encoder("ENC 1 2 3\n")
    with pytest.raises(EncoderFormatError):
        parse_encoder("ENC 1 1 1 1 0\n0 0 N 0\n")  # missing tag-1 line
    with pytest.raises(EncoderFormatError):
        parse_encoder("ENC 1 20000 1 1 0\n0 0 N 0\n")  # 2**p has 6,021 digits
    with pytest.raises(EncoderFormatError):
        parse_encoder("ENC 1 1 1 " + "1" * 5000 + " 0\n")  # beyond int()'s limit
    # every integer field is ASCII digits only: int() would also read
    # other scripts' digits and a leading sign as the same number
    header, first, *rest = serialize_encoder(enc_q1).splitlines()
    head = header.split()
    line = first.split()
    bad_headers = [head[:5] + [_fullwidth(head[5])],
                   head[:1] + ["+" + head[1]] + head[2:],
                   head[:3] + [_arabic_indic(head[3])] + head[4:]]
    bad_lines = [[_arabic_indic(line[0])] + line[1:],
                 line[:1] + ["+" + line[1]] + line[2:],
                 line[:-1] + [_fullwidth(line[-1])]]
    texts = ["\n".join([" ".join(h), first] + rest) for h in bad_headers]
    texts += ["\n".join([header, " ".join(t)] + rest) for t in bad_lines]
    for text in texts:
        with pytest.raises(EncoderFormatError):
            parse_encoder(text)


def test_parse_encoder_returns_one_machine_per_text(enc_q1):
    text = serialize_encoder(enc_q1)
    machine = parse_encoder(text)
    assert machine == enc_q1
    assert parse_encoder(text) is machine
    # an equal text in a new object, as a file read again gives
    assert parse_encoder("".join(list(text))) is machine


@pytest.mark.parametrize("text, error", [
    ("", EncoderFormatError),
    ("ENC 1 2 3\n", EncoderFormatError),
    ("ENC 1 1 1 1 0\n0 0 N 0\n", EncoderFormatError),
    ("ENC 1 1 1 1 0\n0 0 N 0\n0 1 N 0\n", AmbiguousEncoderError),
])
def test_parse_encoder_raises_on_every_call(text, error):
    first, second = (outcome(parse_encoder, text) for _ in range(2))
    assert first == second and first[0] is error


def test_parse_encoder_checks_the_type_before_the_memo():
    before = _parse.cache_info()
    for _ in range(2):
        with pytest.raises(EncoderFormatError,
                           match="^text must be a str, not bytes$"):
            parse_encoder(b"ENC")
    assert _parse.cache_info() == before


def test_a_str_subclass_gets_its_own_texts_machine(enc_q1, enc_q6):
    """The memo's key is the text as an exact str, so a subclass that
    claims to equal, hash and print as another text gets the machine of
    the text it holds."""
    other = serialize_encoder(enc_q1)
    parse_encoder(other)

    class Liar(str):
        def __eq__(self, _):
            return True

        def __hash__(self):
            return hash(other)

        def __str__(self):
            return other

    text = serialize_encoder(enc_q6)
    machine = parse_encoder(Liar(text))
    assert machine == enc_q6
    assert machine is parse_encoder(text)


def test_parse_encoder_rejects_undecodable_machine():
    # state 0 sends the same codeword to the same place under both tags
    text = "ENC 1 1 1 1 0\n0 0 N 0\n0 1 N 0\n"
    with pytest.raises(AmbiguousEncoderError):
        parse_encoder(text)


@pytest.mark.parametrize("text,pair", [
    # the fork pair (1, 2) emits N in step forever
    ("ENC 2 1 1 3 0\n0 0 N 1\n0 1 N 2\n1 0 N 1\n1 1 0 0\n"
     "2 0 N 2\n2 1 1 0\n", (1, 2)),
    # the fork (1, 2) dies at once; the fork (3, 4) loops
    ("ENC 2 1 1 5 0\n0 0 N 1\n0 1 N 2\n1 0 N 3\n1 1 N 4\n2 0 0 0\n"
     "2 1 1 0\n3 0 N 3\n3 1 0 0\n4 0 N 4\n4 1 1 0\n", (3, 4)),
])
def test_parse_encoder_rejects_endless_ambiguity(text, pair):
    with pytest.raises(AmbiguousEncoderError) as excinfo:
        parse_encoder(text)
    assert str(excinfo.value) == \
        f"state pair {pair} can stay indistinguishable forever"


@pytest.mark.parametrize("text,message", [
    ("ENC 1 1 1 2 0\n0 0 N 1\n0 1 0 5\n1 0 N 0\n1 1 0 0\n",
     "transition target 5 out of range"),
    ("ENC 1 1 1 2 7\n0 0 N 1\n0 1 0 1\n1 0 N 0\n1 1 0 0\n",
     "start state 7 out of range"),
    ("ENC 0 1 1 1 0\n0 0 N 0\n0 1 N 0\n", "header values must be positive"),
    ("ENC 1 1 1 2 0\n0 0 N 1\n0 1 0 1\n1 0 N 0\n",
     "expected 4 transition lines, got 3"),
    ("ENC 1 1 1 1 0\n0 0 x 0\n0 1 N 0\n", "bad transition line '0 0 x 0'"),
    # q=1 has only the data symbol 0
    ("ENC 1 1 1 1 0\n0 0 1 0\n0 1 N 0\n", "bad transition line '0 0 1 0'"),
    ("ENC 1 1 1 1 0\n0 2 0 0\n0 1 N 0\n",
     "state or tag out of range in '0 2 0 0'"),
    ("ENC 1 1 1 1 0\n1 0 0 0\n0 1 N 0\n",
     "state or tag out of range in '1 0 0 0'"),
    ("ENC 1 1 1 1 0\n0 0 0 0\n0 0 N 0\n",
     "duplicate transition for state 0 tag 0"),
])
def test_parse_encoder_rejects_out_of_range_states(text, message):
    with pytest.raises(EncoderFormatError) as excinfo:
        parse_encoder(text)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("lines, message", [
    # a bad token on line 2 and a duplicate on line 4, and the reverse
    (["0 0 N 1", "0 1 x 0", "1 0 N 0", "0 0 0 0"],
     "bad transition line '0 1 x 0'"),
    (["0 0 N 1", "0 0 0 0", "1 0 N 0", "1 1 x 0"],
     "duplicate transition for state 0 tag 0"),
    # a line's bad token wins over its own duplicate or range error
    (["0 0 N 1", "0 0 x 0", "1 0 N 0", "1 1 0 0"],
     "bad transition line '0 0 x 0'"),
    (["0 0 N 1", "5 1 x 0", "1 0 N 0", "1 1 0 0"],
     "bad transition line '5 1 x 0'"),
    # a line of the wrong shape, after and before a bad token
    (["0 0 x 1", "0 1 N", "1 0 N 0", "1 1 0 0"],
     "bad transition line '0 0 x 1'"),
    (["0 0 N 1", "0 1 N", "1 0 x 0", "1 1 0 0"],
     "bad transition line '0 1 N'"),
])
def test_parse_encoder_names_the_first_bad_line(lines, message):
    """The codeword tokens are read after the line loop, yet the first
    bad line in file order is the one named, and a bad token is reported
    as its own StreamFormatError's consequence."""
    with pytest.raises(EncoderFormatError) as excinfo:
        parse_encoder("ENC 1 1 1 2 0\n" + "\n".join(lines) + "\n")
    assert str(excinfo.value) == message
    token = " x " in message
    assert isinstance(excinfo.value.__cause__, StreamFormatError) == token


def test_parse_encoder_peak_memory():
    """The (1,13,19) text has 24,577 lines: ``_parse`` drops them and
    its other tables before the machine certifies itself, so its
    tracemalloc peak, reached while its tokens are read, stays at 9.3 MB
    or less (11.6 MB when the lines and pairs lived on through it)."""
    text = serialize_encoder(build_encoder(1, 13, 19))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        machine = _parse.__wrapped__(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert machine.num_states == 3
    assert peak <= 9.3e6


# q=1, p=1, n=1: one state that emits N or 0 and stays
_ONE_STATE = ((((N,), 0), ((0,), 0)),)
_TABLE = ("transitions must be one or more rows of 2**1 (codeword, next) "
          "pairs, a codeword being n=1 symbols for q={}")


@pytest.mark.parametrize("fields, message", [
    ({"transitions": ((((N,), 3), ((0,), 0)),)},
     "transition target 3 out of range"),
    ({"transitions": 5}, _TABLE.format(1)),
    ({"transitions": ((((N,), -1), ((0,), 0)),)},
     "transition target -1 out of range"),
    ({"transitions": ((((5,), 0), ((0,), 0)),)}, _TABLE.format(1)),
    ({"start_state": 1}, "start state 1 out of range"),
    ({"start_state": True}, "start state True out of range"),
    ({"transitions": ((((N,), 0), ((0,), "0")),)},
     "transition target '0' out of range"),
    ({"transitions": ((((N,), 0), ((0,), [0])),)},
     "transition target [0] out of range"),
    ({"transitions": ()}, _TABLE.format(1)),
    ({"transitions": ((((N,), 0),),)}, _TABLE.format(1)),
    ({"transitions": ((((N,), 0, 0), ((0,), 0)),)}, _TABLE.format(1)),
    ({"transitions": ((((N,), 0), 7),)}, _TABLE.format(1)),
    ({"transitions": (((b"\x05", 0), ((0,), 0)),)}, _TABLE.format(1)),
    ({"transitions": ((((N, N), 0), ((0,), 0)),)}, _TABLE.format(1)),
    ({"transitions": ((("N", 0), ((0,), 0)),)}, _TABLE.format(1)),
    ({"q": 300, "transitions": ((((300,), 0), ((0,), 0)),)},
     _TABLE.format(300)),
    ({"q": 300, "transitions": ((([[0]], 0), ((0,), 0)),)},
     _TABLE.format(300)),
    ({"q": 300, "transitions": ((((0,), 0), ((0.0,), 0)),)},
     _TABLE.format(300)),
    ({"transitions": ((((N,), 0), ((0,), 0.0)),)},
     "transition target 0.0 out of range"),
    ({"p": True}, "p must be a positive integer, got True"),
    ({"q": 0}, "q must be a positive integer, got 0"),
    ({"n": 2.0}, "n must be a positive integer, got 2.0"),
    ({"p": 10**100}, _TABLE.replace("2**1", f"2**{10**100}").format(1)),
], ids=["target 3", "int table", "target -1", "symbol 5", "start 1",
        "start True", "target str", "target list", "no rows", "short row",
        "triple", "int pair", "byte 5", "long codeword", "str codeword",
        "symbol 300", "unhashable symbol", "float symbol", "float target",
        "p True", "q 0", "n float", "huge p"])
def test_malformed_machines_fail_on_construction(fields, message):
    """A machine built by hand from a malformed table fails when it is
    made, with an EncoderFormatError, not later in encode or decode."""
    given = {"q": 1, "p": 1, "n": 1, "start_state": 0,
             "transitions": _ONE_STATE, **fields}
    with pytest.raises(EncoderFormatError) as excinfo:
        Encoder(**given)
    assert str(excinfo.value) == message


def test_hand_built_tables_are_converted_once():
    """Rows and codewords given as lists read as the tuple table, and
    q > 255 keeps symbol tuples."""
    listed = Encoder(q=1, p=1, n=1, start_state=0,
                     transitions=[[([N], 0), ([0], 0)]])
    assert listed == Encoder(q=1, p=1, n=1, start_state=0,
                             transitions=_ONE_STATE)
    assert listed.transitions == (((b"\x00", 0), (b"\x01", 0)),)
    wide = Encoder(q=300, p=1, n=1, start_state=0,
                   transitions=[[([N], 0), ([299], 0)]])
    assert wide.transitions == ((((N,), 0), ((299,), 0)),)


@pytest.mark.parametrize("token", ["x", "1", "N0"])
def test_parse_encoder_reports_a_bad_token_on_the_last_line(token):
    """The whole file shares one token table: the 6,144 lines before the
    last fill it with every good token, and the bad one is still
    reported with its line."""
    *lines, last = serialize_encoder(build_encoder(1, 11, 16)).splitlines()
    parts = last.split()
    bad = " ".join(parts[:2] + [token] + parts[3:])
    with pytest.raises(EncoderFormatError) as excinfo:
        parse_encoder("\n".join(lines + [bad]) + "\n")
    assert str(excinfo.value) == f"bad transition line {bad!r}"
    assert isinstance(excinfo.value.__cause__, StreamFormatError)


def test_deep_certificate_parses_without_recursion():
    # a 2,000-step pair chain, deeper than Python's recursion limit
    machine = parse_encoder(deep_encoder_text(2000))
    assert machine.anticipation == 2001
    stream, header = encode(machine, "0110")
    assert decode(machine, stream, header) == "0110"


def test_respelled_tokens_leave_the_subset_table_as_it_was(enc_q1):
    """Tokens of any spelling (``00`` for ``0``), and lists mixing tokens
    and symbols, are read into the byte code on entry, so the table keys
    only byte slices, and a caller sent new spellings does not grow the
    machine's table."""
    machine = parse_encoder(serialize_encoder(enc_q1))
    bits = random_bits(random.Random(5), 300)
    stream, header = encode(machine, bits)
    tokens = format_stream(stream).split()
    assert decode(machine, tokens, header) == bits
    assert decode(machine, stream, header) == bits
    rows = machine._subset_table._rows

    def keys():
        return {(after, block) for after, row in rows.items() for block in row}

    stored = keys()
    assert stored and all(type(b) is bytes for _, b in stored)
    # blocks and chunks of blocks
    assert {len(b) for _, b in stored} == {machine.n,
                                           machine._chunk_blocks * machine.n}
    for zeros in ("0", "00", "0" * 639):
        respelled = [t if t == "N" else zeros + t for t in tokens]
        assert decode(machine, respelled, header) == bits
    # every other block as symbols
    n, symbols = machine.n, symbols_of(stream)
    mixed = [symbols[i] if i // n % 2 else t for i, t in enumerate(tokens)]
    assert decode(machine, mixed, header) == bits
    assert keys() == stored


@pytest.mark.parametrize("build, anticipation, pairs, edges", [
    # the fork (1, 2) reaches every (head of 1, head of 2) pair, and the
    # 2 * C(64, 2) pairs of heads that 1 and 2 fork into reach nothing
    (lambda: _parse.__wrapped__(wide_fork_text(6)), 2, 8129, 4096),
    # 13 forks, 11 of them reached again from other pairs
    (lambda: _synthesize.__wrapped__(1, 9, 13), 5, 13, 34)],
    ids=["wide fork", "(1,9,13)"])
def test_certificate_expands_and_reads_each_pair_once(build, anticipation,
                                                      pairs, edges):
    """The certificate walk computes each pair's successors once and reads
    each once: as many expansions as pairs, as many reads as pair-graph
    edges, whether or not a pair is reached on several paths."""
    calls, reads = [], []
    real = encoder_module._pair_successors

    class Successors:
        """A pair's successors, each read counted, on every pass."""

        def __init__(self, following):
            self.following = following

        def __iter__(self):
            for nxt in self.following:
                reads.append(nxt)
                yield nxt

    def counted(index, pair):
        calls.append(pair)
        return Successors(real(index, pair))

    with mock.patch.object(encoder_module, "_pair_successors", counted):
        machine = build()
    assert machine.anticipation == anticipation
    assert len(calls) == len(set(calls)) == pairs
    assert len(reads) == edges
    assert anticipation_oracle(_codeword_index(machine.transitions)) == \
        anticipation


@pytest.fixture(scope="module")
def deep_machine():
    return parse_encoder(deep_encoder_text(2000))


@settings(max_examples=40, deadline=None)
@given(bits=st.text("01", max_size=40))
@example(bits="")
@example(bits="1")
@example(bits="0110101")
def test_token_decode_on_a_deep_certificate(deep_machine, bits):
    """8 one-bit blocks per chunk and 2,001 flush blocks."""
    stream, header = encode(deep_machine, bits)
    text = format_stream(stream)
    assert decode(deep_machine, text.split(), header) == bits
    assert decode(deep_machine, parse_stream(text, q=3), header) == bits


@st.composite
def transition_tables(draw):
    """Machines with 1-7 states, p and q in {1, 2}, and n in {1, 2}.

    Codewords come from a pool of at most four, so states often share
    them and the pair graph has forks, paths, merges and cycles. A
    state's (codeword, next state) pairs are distinct unless the pool
    and the states offer fewer than ``2**p`` of them.
    """
    q, p, n = (draw(st.integers(1, 2)) for _ in range(3))
    size = draw(st.integers(1, 7))
    symbols = st.sampled_from(list(range(q)) + [N])
    pool = draw(st.lists(st.tuples(*[symbols] * n), min_size=1, max_size=4,
                         unique=True))
    moves = [(word, nxt) for word in pool for nxt in range(size)]
    return tuple(tuple((draw(st.permutations(moves)) * (1 << p))[:1 << p])
                 for _ in range(size))


@settings(max_examples=500, deadline=None)
@given(transitions=transition_tables())
# the fork (1, 2) reaches (3, 5), which dies at once, and (4, 6), which
# lasts one block more: the anticipation is the longer path's, 3
@example(transitions=(
    (((N,), 1), ((N,), 2)), (((N,), 3), ((0,), 4)), (((N,), 5), ((0,), 6)),
    (((0,), 0), ((1,), 0)), (((N,), 7), ((0,), 0)), (((2,), 0), ((N,), 0)),
    (((N,), 8), ((1,), 0)), (((0,), 0), ((1,), 0)), (((2,), 0), ((N,), 0))))
def test_anticipation_matches_recursive_oracle(transitions):
    """The same anticipation, or both reject; the named pair may differ."""
    index = _codeword_index(transitions)
    got, expected = (outcome(fn, index)
                     for fn in (_anticipation, anticipation_oracle))
    if isinstance(expected, tuple):
        assert isinstance(got, tuple) and got[0] is expected[0]
    else:
        assert got == expected


@settings(max_examples=300, deadline=None)
@given(transitions=transition_tables())
# two offending head groups, (1, 1) from state 0 and (0, 0) from state
# 1: state 0's is named, on N
@example(transitions=((((N,), 1), ((N,), 1)), (((N,), 0), ((N,), 0))))
# state 0 offends on its first codeword, 0, and state 1 on N, in a
# group (0, 0, 1) of three heads
@example(transitions=((((0,), 1), ((N,), 0), ((0,), 1), ((N,), 1)),
                      (((N,), 0), ((N,), 0), ((0,), 0), ((N,), 1))))
def test_fork_errors_name_the_first_codeword(transitions):
    """Forks are read once per group of heads, and a codeword emitted to
    one state under two tags is still named as the oracle names the
    first, in state and codeword order."""
    index = _codeword_index(transitions)
    expected = outcome(anticipation_oracle, index)
    if isinstance(expected, tuple) and expected[1].endswith("different tags"):
        assert outcome(_anticipation, index) == expected


@pytest.mark.parametrize("source, indexes", [("parsed", 2), ("built", 2)])
def test_codeword_indexes_per_machine(source, indexes):
    """A parsed machine and a synthesized one, which the memos keep
    whether or not they are ever decoded, each drop the index their
    certificate was built from and build one more on their first decode.
    Encoding and later decodes build none. Both are fresh machines, not
    the memos' copies."""
    text = serialize_encoder(build_encoder(1, 9, 13))
    counting = mock.Mock(wraps=encoder_module._codeword_index)
    with mock.patch.object(encoder_module, "_codeword_index", counting):
        machine = (_synthesize.__wrapped__(1, 9, 13) if source == "built"
                   else _parse.__wrapped__(text))
        for seed in (14, 15):
            bits = random_bits(random.Random(seed), 200)
            stream, header = encode(machine, bits)
            assert decode(machine, stream, header) == bits
    assert counting.call_count == indexes


# ten rates, more than the 8 machines each memo keeps, so both evict
STATEFUL_RATES = [(1, 1, 2), (1, 2, 3), (1, 3, 5), (2, 1, 1), (2, 3, 3),
                  (3, 2, 2), (6, 1, 1), (6, 3, 2), (1, 5, 8), (2, 4, 4)]


class SharedMachines(RuleBasedStateMachine):
    """Build, parse, encode and decode interleaved over ten rates: every
    shared machine, memoised on its rate or its text with the tables its
    earlier calls filled, gives the results and errors of a fresh twin
    with empty tables, on intact, corrupted, respelled (``00``) and
    mixed streams of tokens and symbols."""

    @rule(rate=st.sampled_from(STATEFUL_RATES), parsed=st.booleans())
    def make(self, rate, parsed):
        shared, twin = self._pair(rate, parsed)
        assert serialize_encoder(shared) == serialize_encoder(twin)

    @rule(rate=st.sampled_from(STATEFUL_RATES), parsed=st.booleans(),
          bits=st.text("01", max_size=40),
          change=st.sampled_from(["none", "symbol", "respell", "mix",
                                  "bad token", "length"]),
          at=st.integers(0))
    def round_trip(self, rate, parsed, bits, change, at):
        shared, twin = self._pair(rate, parsed)
        stream, header = encode(shared, bits)
        assert (stream, header) == encode(twin, bits)
        tokens = format_stream(stream).split()
        word, symbols = tokens, symbols_of(stream)
        at %= max(len(tokens), 1)
        if change == "symbol" and tokens:
            word = symbols[:at] + (0 if symbols[at] is N else N,) + symbols[at + 1:]
        elif change == "respell":
            word = ["00" + t if t != "N" else t for t in tokens]
        elif change == "mix":
            word = [s if i % 2 else t for i, (s, t) in
                    enumerate(zip(symbols, tokens))]
        elif change == "bad token" and tokens:
            word = tokens[:at] + ["x"] + tokens[at + 1:]
        elif change == "length":
            header = FrameHeader(header.bit_length + shared.p)
        got = outcome(decode, shared, word, header)
        assert got == outcome(decode, twin, word, header)
        if change in ("none", "respell", "mix"):
            assert got == bits

    @staticmethod
    def _pair(rate, parsed):
        """The shared machine of ``rate``, built or parsed, and a twin
        that no memo holds."""
        if parsed:
            text = serialize_encoder(_synthesize.__wrapped__(*rate))
            return parse_encoder(text), _parse.__wrapped__(text)
        return build_encoder(*rate), _synthesize.__wrapped__(*rate)


SharedMachines.TestCase.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None)
test_shared_machines_act_as_fresh_twins = SharedMachines.TestCase
