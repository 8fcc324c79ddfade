import dataclasses
import math
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaycast import (AmbiguousEncoderError, ApproxEigenvector,
                       ConstraintGraph, Edge, EncoderFormatError, FrameHeader,
                       FramingError, InfeasibleRateError,
                       InsufficientDegreeError, InvalidParameterError, N,
                       NonUniformLabelError, StateSplitError,
                       UnknownCodewordError, build_encoder, capacity,
                       count_words, decode, encode, encoder_report,
                       find_approximate_eigenvector, is_admissible,
                       make_constraint, parse_encoder, power_graph,
                       prune_to_encoder, serialize_encoder, split_states)
from relaycast.constraint import matrix_vector
from relaycast.encoder import (Encoder, _anticipation, _codeword_index,
                               _synthesize)
from helpers import (ROUND_TRIP_RATES, anticipation_oracle,
                     approximate_eigenvector_oracle, decode_oracle,
                     deep_encoder_text, encode_oracle, outcome, random_bits)


def _satisfies_inequality(adjacency, vector, p):
    """The one-matrix-multiply oracle: A x >= 2**p x componentwise."""
    product = matrix_vector(adjacency, vector)
    return all(got >= (1 << p) * want for got, want in zip(product, vector))


# ---------------------------------------------------------------------------
# approximate eigenvectors

def test_eigenvector_q1_example():
    adjacency = power_graph(make_constraint(1), 3).adjacency
    assert [list(r) for r in adjacency] == [[3, 2], [2, 1]]
    found = find_approximate_eigenvector(adjacency, 2)
    assert _satisfies_inequality(adjacency, found.vector, 2)
    assert matrix_vector(adjacency, found.vector) == [8, 5]
    assert found.vector == (2, 1)
    assert found.p == 2


def test_eigenvector_q6_example():
    adjacency = power_graph(make_constraint(6), 2).adjacency
    found = find_approximate_eigenvector(adjacency, 3)
    assert _satisfies_inequality(adjacency, found.vector, 3)
    assert matrix_vector(adjacency, found.vector) == [27, 9]
    assert found.vector == (3, 1)


def test_eigenvector_infeasible():
    adjacency = make_constraint(1).adjacency  # spectral radius 1.618 < 2
    with pytest.raises(InfeasibleRateError):
        find_approximate_eigenvector(adjacency, 1)


def test_eigenvector_feasibility_sweep():
    # never rejected when p/n is safely below capacity; output always valid
    for q in range(1, 9):
        base = make_constraint(q)
        for n in range(1, 9):
            adjacency = power_graph(base, n).adjacency
            max_p = math.floor((capacity(q) - 0.01) * n)
            for p in range(1, max_p + 1):
                found = find_approximate_eigenvector(adjacency, p)
                assert _satisfies_inequality(adjacency, found.vector, p)
                assert math.gcd(*found.vector) == 1


@settings(max_examples=200, deadline=None)
@given(size=st.integers(1, 2), entries=st.lists(st.integers(0, 6), min_size=4,
                                                max_size=4),
       p=st.integers(1, 4))
@example(size=2, entries=[2, 1, 0, 2], p=1)  # defective: no Perron direction
@example(size=2, entries=[1, 2, 6, 0], p=2)  # exact direction (1, 1.5)
def test_eigenvector_of_any_small_matrix(size, entries, p):
    # valid, or infeasible exactly when the power-iteration oracle says so;
    # the vectors may differ off the sweep, where the oracle's inexact
    # direction can round a half-integer seed the other way
    adjacency = [entries[i * size:(i + 1) * size] for i in range(size)]
    if outcome(approximate_eigenvector_oracle, adjacency, p)[0] is InfeasibleRateError:
        with pytest.raises(InfeasibleRateError):
            find_approximate_eigenvector(adjacency, p)
        return
    found = find_approximate_eigenvector(adjacency, p)
    assert any(found.vector) and math.gcd(*found.vector) == 1
    assert _satisfies_inequality(adjacency, found.vector, p)


def test_eigenvector_of_reducible_matrices():
    # no Perron direction: the gcd-reduced fixpoint below a uniform ceiling
    assert find_approximate_eigenvector([[2, 1], [0, 2]], 1).vector == (1, 1)
    assert find_approximate_eigenvector([[4, 0], [1, 1]], 1).vector == (1, 1)


# ---------------------------------------------------------------------------
# state splitting

def test_split_q6_walkthrough():
    g = power_graph(make_constraint(6), 2)
    split = split_states(g, ApproxEigenvector((3, 1), p=3))
    assert len(split.states) == 4  # sum of the weights
    degrees = [sum(e.src == s for e in split.edges) for s in range(4)]
    assert all(d >= 8 for d in degrees)
    # two rounds: each round adds exactly one state
    assert len(split.states) - len(g.states) == 2
    assert all(is_admissible(e.word) for e in split.edges)


def test_split_q1():
    g = power_graph(make_constraint(1), 3)
    split = split_states(g, ApproxEigenvector((2, 1), p=2))
    assert len(split.states) == 3
    assert all(sum(e.src == s for e in split.edges) >= 4 for s in range(3))


def test_split_all_ones_is_identity():
    g = power_graph(make_constraint(2), 2)  # A = [[3,2],[1,2]], A@(1,1) = (5,3)
    split = split_states(g, ApproxEigenvector((1, 1), p=1))
    assert split is g


def test_split_rejects_invalid_vector():
    g = power_graph(make_constraint(1), 3)
    with pytest.raises(StateSplitError):
        split_states(g, ApproxEigenvector((1, 1), p=3))
    with pytest.raises(InvalidParameterError):
        split_states(g, ApproxEigenvector((1, 1, 1), p=1))


# ---------------------------------------------------------------------------
# pruning

def test_prune_insufficient_degree():
    g = power_graph(make_constraint(1), 2)  # ON state has only 2 length-2 paths
    with pytest.raises(InsufficientDegreeError):
        prune_to_encoder(g, 1, 2, 2)


def test_prune_nonuniform_labels():
    g = ConstraintGraph(q=1, states=("A",),
                        edges=(Edge(0, 0, (N,)), Edge(0, 0, (N, N))))
    with pytest.raises(NonUniformLabelError):
        prune_to_encoder(g, 1, 1, 1)


def test_prune_checks_alphabet():
    g = power_graph(make_constraint(2), 2)
    with pytest.raises(InvalidParameterError):
        prune_to_encoder(g, 3, 1, 2)


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
    assert enc_q6.num_states == 4
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
    """Arguments equal to a cached rate, or unhashable, still fail as
    the stages would fail them: q first, then n (as "power"), then p."""
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

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(len(messages))]
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
    assert wrong == []


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
    # shared codewords are resolved after one (q=1) / two (q=6) blocks
    assert enc_q1.anticipation == 1
    assert enc_q6.anticipation == 2


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
        streams = {(): machine.start_state}
        for k in range(1, 4):
            streams = {prefix + word: nxt
                       for prefix, state in streams.items()
                       for word, nxt in machine.transitions[state]}
            assert len(streams) <= count_words(machine.q, k * machine.n)


# ---------------------------------------------------------------------------
# encode / decode

def test_encode_empty(enc_q1):
    stream, header = encode(enc_q1, "")
    assert stream == ()
    assert header == FrameHeader(0, 0)
    assert decode(enc_q1, stream, header) == ""


def test_encode_first_block_is_tagged_codeword(enc_q6):
    bits = "101"
    stream, _ = encode(enc_q6, bits)
    word, _ = enc_q6.transitions[enc_q6.start_state][int(bits, 2)]
    assert stream[:2] == word


def test_encode_length_formula(enc_q1, enc_q6):
    # blocks for the padded message plus the fixed flush tail
    for machine in (enc_q1, enc_q6):
        for length in (1, 2, 3, 5, 8, 64, 101):
            stream, header = encode(machine, "1" * length)
            blocks = -(-length // machine.p)
            assert len(stream) == machine.n * (blocks + machine.anticipation)
            assert header.pad == (-length) % machine.p


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


def test_encode_accepts_int_sequences(enc_q1):
    stream_a, header_a = encode(enc_q1, [1, 0, 1, 1])
    stream_b, header_b = encode(enc_q1, "1011")
    assert stream_a == stream_b and header_a == header_b


def test_decode_unknown_codeword(enc_q1):
    stream, header = encode(enc_q1, "110010")
    corrupted = (0, 0, 0) + stream[3:]  # adjacent data symbols
    with pytest.raises(UnknownCodewordError):
        decode(enc_q1, corrupted, header)


def test_decode_framing_errors(enc_q1):
    stream, header = encode(enc_q1, "1101")
    with pytest.raises(FramingError):
        decode(enc_q1, stream[:-1], header)  # not a block multiple
    with pytest.raises(FramingError):
        decode(enc_q1, stream[:-enc_q1.n], header)  # missing flush block
    with pytest.raises(FramingError):
        decode(enc_q1, stream, FrameHeader(4, 1))  # inconsistent pad


def _converging_machine():
    """State 0 forks on N into states 1 and 2, which both reach 0 on N."""
    return Encoder(q=1, p=1, n=1, start_state=0, anticipation=1,
                   transitions=((((N,), 1), ((N,), 2)),
                                (((N,), 0), ((0,), 0)),
                                (((N,), 0), ((0,), 1))))


DIFFERENTIAL_RATES = [(1, 2, 3), (6, 3, 2), (1, 9, 13), (6, 11, 7)]


@pytest.fixture(scope="module")
def differential_machines():
    """The four built machines, plus two whose certificate is broken:
    one whose forks converge and (1,2,3) with too short a flush."""
    machines = {rate: build_encoder(*rate) for rate in DIFFERENTIAL_RATES}
    machines["converging"] = _converging_machine()
    machines["short flush"] = dataclasses.replace(machines[(1, 2, 3)],
                                                  anticipation=0)
    return machines


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
        header = FrameHeader(data.draw(st.integers(0, header.bit_length + 30)),
                             data.draw(st.integers(0, machine.p)))
    return kind, stream, header


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_decode_matches_oracle(differential_machines, data):
    name = data.draw(st.sampled_from(sorted(differential_machines, key=str)))
    machine = differential_machines[name]
    bits = data.draw(st.text("01", max_size=12 * machine.p))
    stream, header = encode(machine, bits)
    kind, stream, header = _corrupt(data, machine, stream, header)
    expected = outcome(decode_oracle, machine, stream, header)
    assert outcome(decode, machine, stream, header) == expected
    if kind == "none" and name in DIFFERENTIAL_RATES:
        assert expected == bits


@pytest.mark.parametrize("name,message", [
    ("converging", "two decode paths converged; machine certificate broken"),
    ("short flush", "flush failed to single out the message"),
])
def test_broken_certificates_reach_both_ambiguity_errors(
        differential_machines, name, message):
    machine = differential_machines[name]
    stream, header = encode(machine, "0110")
    for fn in (decode, decode_oracle):
        with pytest.raises(AmbiguousEncoderError) as excinfo:
            fn(machine, stream, header)
        assert str(excinfo.value) == message


@pytest.mark.parametrize("fields", [(True, 0), (4, False), (4.0, 0),
                                    ("4", 0), (None, 0), (-1, 0)])
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
])
def test_parse_encoder_rejects_out_of_range_states(text, message):
    with pytest.raises(EncoderFormatError) as excinfo:
        parse_encoder(text)
    assert str(excinfo.value) == message


def test_deep_certificate_parses_without_recursion():
    # a 2,000-step pair chain, deeper than Python's recursion limit
    machine = parse_encoder(deep_encoder_text(2000))
    assert machine.anticipation == 2001
    stream, header = encode(machine, "0110")
    assert decode(machine, stream, header) == "0110"


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
