"""Encoder synthesis against the edge-list oracles in ``helpers``.

``power_graph``, ``split_states`` and ``prune_to_encoder`` work on rows
of codeword ranks per head, and ``build_encoder`` chains them. They are
not exported; they keep these names in ``relaycast.encoder`` for the
benchmark's tracer, and take their arguments as the chain passes them,
unchecked, so they are compared here on such arguments only. Their
output must stay that of the straightforward edge-list versions kept in
``helpers``: the same state names and, through ``helpers.rows_graph``,
the same edges in the same order, the same serialized machine, or the
same exception. The weight vectors between the stages must equal those
of the least-sum search kept there. The machines of the sweep also
round-trip through the text formats and through encode and decode, and
``decode`` of stream tokens, as the CLI calls it, matches ``decode`` of
the parsed stream on every one.
"""

import dataclasses
import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relaycast.encoder as encoder_module
from relaycast import (FrameHeader, N, RelaycastError, StreamFormatError,
                       build_encoder, capacity, decode, encode,
                       enumerate_words, format_stream, parse_encoder,
                       parse_stream, serialize_encoder)
from relaycast.constraint import ConstraintGraph, make_constraint, power_graph
from relaycast.encoder import (ApproxEigenvector, _synthesize,
                               find_approximate_eigenvector, prune_to_encoder,
                               split_states)
from helpers import (ROUND_TRIP_RATES, SWEEP, Edge, EdgeListGraph,
                     approximate_eigenvector_oracle, canonical_edges, code_of,
                     constraint_oracle, graph_rows, label_symbols, outcome,
                     power_graph_oracle, prune_to_encoder_oracle, rows_graph,
                     rows_adjacency, split_states_oracle)


def _same_graph(fast, slow):
    """A library graph and an oracle edge list, or the same error."""
    if isinstance(slow, tuple):
        assert fast == slow
        return False
    assert fast.states == slow.states
    assert rows_graph(fast).edges == canonical_edges(slow.edges)
    return True


def _same_machine(fast, slow):
    if isinstance(slow, tuple):
        assert fast == slow
    else:
        assert serialize_encoder(fast) == serialize_encoder(slow)


@pytest.mark.parametrize("q", sorted(SWEEP))
def test_synthesis_matches_oracle_sweep(q):
    base, oracle_base = make_constraint(q), constraint_oracle(q)
    assert _same_graph(base, oracle_base)
    for n in range(1, SWEEP[q] + 1):
        powered = power_graph(base, n)
        oracle_powered = power_graph_oracle(oracle_base, n)
        assert _same_graph(powered, oracle_powered)
        for p in range(1, math.floor(capacity(q) * n + 1e-9) + 1):
            x = find_approximate_eigenvector(rows_adjacency(powered), p)
            assert x.vector == approximate_eigenvector_oracle(
                oracle_powered.adjacency, p)
            split = outcome(split_states, powered, x)
            oracle_split = outcome(split_states_oracle, oracle_powered, x)
            if not _same_graph(split, oracle_split):
                continue
            _same_machine(outcome(prune_to_encoder, split, p, n),
                          outcome(prune_to_encoder_oracle, oracle_split, p, n))


def _oracle_chain(q, p, n):
    """The oracle stages, edge list to edge list, in ``build_encoder``'s
    order."""
    powered = power_graph_oracle(constraint_oracle(q), n)
    x = approximate_eigenvector_oracle(powered.adjacency, p)
    split = split_states_oracle(powered, ApproxEigenvector(x, p))
    return prune_to_encoder_oracle(split, p, n)


def _text_or_error(fn, *args):
    result = outcome(fn, *args)
    return result if isinstance(result, tuple) else serialize_encoder(result)


@pytest.mark.parametrize("q", sorted(SWEEP))
def test_row_chain_equals_public_stage_chain(q):
    """The synthesis chain against the oracle chain. Every sweep rate,
    and the first infeasible p of each n: the same machine text or the
    same error, (3,6,5)'s ``StateSplitError`` too."""
    for n in range(1, SWEEP[q] + 1):
        for p in range(1, math.floor(capacity(q) * n + 1e-9) + 2):
            assert _text_or_error(_synthesize.__wrapped__, q, p, n) == \
                _text_or_error(_oracle_chain, q, p, n), (q, p, n)


def test_synthesis_runs_the_public_stage_chain(monkeypatch):
    """``build_encoder`` calls the five stages by the names
    ``relaycast.encoder`` holds, so a wrapper installed there, as the
    benchmark's tracer installs one, sees every stage of a synthesis."""
    calls = []

    def recording(name):
        stage = getattr(encoder_module, name)

        def wrapper(*args):
            calls.append(name)
            return stage(*args)
        monkeypatch.setattr(encoder_module, name, wrapper)

    stages = ["find_approximate_eigenvector", "make_constraint",
              "power_graph", "split_states", "prune_to_encoder"]
    for name in stages:
        recording(name)
    # a rate no other test builds, so the memo cannot answer it
    machine = build_encoder(4, 5, 4)
    assert machine.p == 5 and machine.n == 4
    assert calls == stages


@pytest.mark.parametrize("q", [1, 2, 3])
def test_power_rows_rank_words_in_enumeration_order(q):
    for n in range(1, 7):
        words = power_graph(make_constraint(q), n).words
        assert [label_symbols(q, w) for w in words] == enumerate_words(q, n)
        # one byte per symbol, and byte order is the order of the words
        assert all(len(w) == n for w in words) and words == sorted(words)


def test_two_byte_symbols_rank_in_enumeration_order():
    """q >= 256 is the one case with two bytes per symbol."""
    words = power_graph(make_constraint(300), 2).words
    assert all(len(w) == 4 for w in words)
    assert [label_symbols(300, w) for w in words] == enumerate_words(300, 2)


# serialize_encoder SHA-256 of machines with two-byte symbols, as built
# before labels were bytes: (256,4,1) has 17 states and anticipation 1
TWO_BYTE_MACHINES = {
    (256, 4, 1):
        "e8c5c086ab967e3baf6d2135fd76d2e498fe627ba8daa7a6814859868e9800b1",
    (300, 8, 2):
        "555a210c214f1a375c47137dc5a4b5ee8ad526c8b62277fe3af6c9c3229ad67b",
}


@pytest.mark.parametrize("rate", sorted(TWO_BYTE_MACHINES))
def test_two_byte_symbol_machines_are_pinned(rate):
    """Past q = 255 a symbol has no byte code, so codewords stay symbol
    tuples, as streams do."""
    machine = _synthesize.__wrapped__(*rate)
    text = serialize_encoder(machine)
    assert hashlib.sha256(text.encode()).hexdigest() == TWO_BYTE_MACHINES[rate]
    assert text == _text_or_error(_oracle_chain, *rate)
    assert machine.transitions == _spelled_transitions(text)
    assert parse_encoder(text).transitions == machine.transitions


@st.composite
def split_cases(draw):
    """A hand-built graph, a weight vector and the p it is meant for.

    Labels come from a small pool, so one state often carries the same
    label twice, to one head or to several (a non-deterministic
    presentation). The vector is made to satisfy the weight inequality,
    as every vector synthesis passes does, by adding edges until each
    state's head weights reach ``2**p`` times its own; heavy weights
    then force chained splits.
    """
    q = draw(st.integers(1, 2))
    length = draw(st.integers(1, 3))
    symbols = list(range(q)) + [N]
    pool = draw(st.lists(st.tuples(*[st.sampled_from(symbols)] * length),
                         min_size=1, max_size=6, unique=True))
    size = draw(st.integers(1, 4))
    p = draw(st.integers(1, 2))
    weights = draw(st.lists(st.integers(0, 5), min_size=size, max_size=size))
    triples = draw(st.lists(st.tuples(st.integers(0, size - 1),
                                      st.integers(0, size - 1),
                                      st.sampled_from(pool)), max_size=12))
    if not any(weights):
        weights[0] = 1
    for src in range(size):
        heavy = [d for d in range(size) if weights[d]]
        reach = sum(weights[d] for s, d, _ in triples if s == src)
        while reach < (weights[src] << p):
            dst = draw(st.sampled_from(heavy))
            triples.append((src, dst, draw(st.sampled_from(pool))))
            reach += weights[dst]
    edges = tuple(Edge(*t) for t in draw(st.permutations(triples)))
    graph = EdgeListGraph(q=q, states=tuple(f"S{i}" for i in range(size)),
                          edges=edges)
    return graph, ApproxEigenvector(tuple(weights), p), length


@settings(max_examples=200, deadline=None)
@given(case=split_cases(), power=st.integers(1, 3))
def test_synthesis_matches_oracle_on_hand_built_graphs(case, power):
    graph, x, length = case
    rows = graph_rows(graph)
    assert _same_graph(power_graph(rows, power), power_graph_oracle(graph, power))
    split = outcome(split_states, rows, x)
    # a graph, not outcome's (type, message) tuple: ConstraintGraph is a
    # NamedTuple, so it is told apart by its own type
    if isinstance(split, ConstraintGraph):
        # every state of a returned split has at least 2**p out-edges
        assert all(sum(row) >= 1 << x.p for row in rows_adjacency(split))
    oracle_split = outcome(split_states_oracle, graph, x)
    if _same_graph(split, oracle_split):
        _same_machine(outcome(prune_to_encoder, split, x.p, length),
                      outcome(prune_to_encoder_oracle, oracle_split,
                              x.p, length))


@pytest.fixture(scope="module")
def sweep_machines():
    return {rate: build_encoder(*rate) for rate in ROUND_TRIP_RATES}


def _digest(machines):
    """SHA-256 of the serialized machines, joined in order."""
    text = "".join(map(serialize_encoder, machines))
    return hashlib.sha256(text.encode()).hexdigest()


SWEEP_DIGEST = \
    "f2393d9d89f6ba27fd8698afa7f18edd1c52f199161cc2edbca5a7bfb8104b78"


def test_sweep_machines_are_pinned(sweep_machines):
    assert _digest(sweep_machines[rate] for rate in ROUND_TRIP_RATES) == \
        SWEEP_DIGEST


def test_sweep_machines_have_the_fewest_states(sweep_machines):
    """Least-sum weight vectors: 270 states and 31 flush blocks over the
    sweep, and 184 one-state machines that need no flush."""
    machines = [sweep_machines[rate] for rate in ROUND_TRIP_RATES]
    assert sum(m.num_states for m in machines) == 270
    assert sum(m.anticipation for m in machines) == 31
    assert sum(m.num_states == 1 and m.anticipation == 0
               for m in machines) == 184


def test_benchmark_and_ladder_machines_keep_their_text():
    """The benchmark and ladder rates: their least-sum vectors are the
    vectors of the earlier Perron-seeded search, so their machines stay
    byte for byte what they were."""
    rates = [(1, 2, 3), (1, 9, 13), (1, 11, 16), (1, 13, 19), (2, 14, 14),
             (6, 11, 7)]
    assert _digest(build_encoder(*rate) for rate in rates) == \
        "4292f8f6e483e7f78aab0219d2bc32b69786c6fa7b2af0fa3fc84d870dd1f54c"


@pytest.mark.parametrize("rate", ROUND_TRIP_RATES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_streams_roundtrip_through_text_and_decode(sweep_machines, rate,
                                                   data):
    machine = sweep_machines[rate]
    symbols = list(range(machine.q)) + [N]
    word = tuple(data.draw(st.lists(st.sampled_from(symbols), max_size=40)))
    assert parse_stream(format_stream(word), q=machine.q) == code_of(word)
    bits = data.draw(st.text("01", max_size=10 * machine.p))
    stream, header = encode(machine, bits)
    parsed = parse_stream(format_stream(stream), q=machine.q)
    assert parsed == stream
    assert decode(machine, parsed, header) == bits


def _spelled_transitions(text):
    """The transitions of a serialized machine, each codeword read one
    token at a time as a tuple of symbols."""
    lines = text.splitlines()
    num_states = int(lines[0].split()[4])
    rows = [[] for _ in range(num_states)]
    for line in lines[1:]:
        state, _, *tokens, nxt = line.split()
        word = tuple(N if t == "N" else int(t) for t in tokens)
        rows[int(state)].append((word, int(nxt)))
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("rate", ROUND_TRIP_RATES)
def test_row_codes_equal_a_per_symbol_spelling(sweep_machines, rate):
    """The codewords of a synthesized machine, one translate of its
    labels, of a parsed one, one translate of each line's tokens, and of
    a machine built by hand from symbol tuples, converted on
    construction, are the byte codes of the codewords spelled one symbol
    at a time; the machine built by hand equals the synthesized one."""
    machine = sweep_machines[rate]
    text = serialize_encoder(machine)
    symbols = _spelled_transitions(text)
    spelled = tuple(tuple((code_of(word), nxt) for word, nxt in row)
                    for row in symbols)
    parsed = parse_encoder(text)
    by_hand = dataclasses.replace(machine, transitions=symbols)
    for built in (machine, parsed, by_hand):
        assert built.transitions == spelled
        assert all(type(word) is bytes
                   for row in built.transitions for word, _ in row)
    assert by_hand == machine


@pytest.mark.parametrize("rate", ROUND_TRIP_RATES)
@settings(max_examples=5, deadline=None)
@given(sep=st.sampled_from([" ", "  ", "\t", " \t "]),
       newline=st.sampled_from(["\n", "\r\n", "\n\n", "\n \n"]))
def test_encoders_roundtrip_through_text(sweep_machines, rate, sep, newline):
    machine = sweep_machines[rate]
    text = serialize_encoder(machine)
    assert parse_encoder(text) == machine
    # the parser splits on any whitespace and skips blank lines
    spaced = newline.join(sep.join(line.split()) for line in text.splitlines())
    assert serialize_encoder(parse_encoder(spaced)) == text


BAD_TOKENS = ["x", "-1", "n", "0.0", "\u0663", "\uff10", "1" * 641]


def _spoil(data, machine, tokens, header):
    """The tokens and header after one drawn change, or unchanged.

    "respell" writes some data symbols with leading zeros (``00``);
    every other change but "none" makes the stream invalid.
    """
    kind = data.draw(st.sampled_from(
        ["none", "respell", "bad token", "out of range", "wrong length",
         "bad token and wrong length"]))
    tokens = list(tokens)
    at = data.draw(st.integers(0, max(len(tokens) - 1, 0)))
    if kind == "respell":
        zeros = data.draw(st.sampled_from(["0", "00"]))
        tokens = [t if t == "N" or i % 2 else zeros + t
                  for i, t in enumerate(tokens)]
    elif kind == "out of range" and tokens:
        tokens[at] = str(machine.q)
    elif "bad token" in kind and tokens:
        tokens[at] = data.draw(st.sampled_from(BAD_TOKENS))
    if "wrong length" in kind:
        header = FrameHeader(header.bit_length + machine.p)
    return kind, tokens, header


@pytest.mark.parametrize("rate", ROUND_TRIP_RATES)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_token_decode_matches_the_symbol_decode(sweep_machines, rate, data):
    """Lengths 0, 1, p - 1, a chunk and one bit either side, and whole
    chunks, whose tail is flush blocks only."""
    machine = sweep_machines[rate]
    width = machine._chunk_blocks * machine.p
    length = data.draw(st.sampled_from(
        [0, 1, machine.p - 1, width - 1, width, width + 1, 2 * width]))
    bits = data.draw(st.text("01", min_size=length, max_size=length))
    stream, header = encode(machine, bits)
    kind, tokens, header = _spoil(data, machine,
                                  format_stream(stream).split(), header)
    got = outcome(decode, machine, tokens, header)
    try:
        parsed = parse_stream(" ".join(tokens), q=machine.q)
    except StreamFormatError:
        assert isinstance(got, tuple) and issubclass(got[0], RelaycastError)
    else:
        assert got == outcome(decode, machine, parsed, header)
    if kind in ("none", "respell"):
        assert got == bits
