import copy
import dataclasses
import gc
import pickle
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relaycast.simulator
from relaycast import (ERASED, DeliveryReport, EndToEndReport,
                       InvalidParameterError, N, NodeDelivery, NodeRecovery,
                       RelaycastError, StreamFormatError, TopologyError,
                       baseline_rate,
                       build_encoder, capacity, decode, encode, end_to_end,
                       format_stream, is_admissible, parse_stream, parse_tree,
                       simulate, verify_delivery)
from relaycast.symbols import _data_mask, is_data
from helpers import (ROUND_TRIP_RATES, chain_text, code_of, decode_oracle,
                     fig1_text, outcome, random_admissible_stream,
                     random_bits, random_stream, relay_oracle,
                     simulate_per_depth, simulate_per_node, symbols_of,
                     transmitted)


# ---------------------------------------------------------------------------
# topology parsing

def test_parse_two_node_chain():
    topo = parse_tree("0 -\n1 0\n")
    assert topo.nodes == (0, 1)
    assert topo.depth == {0: 0, 1: 1}
    assert topo.max_depth == 1


def test_parse_fig1_shape():
    topo = parse_tree(fig1_text())
    assert len(topo.nodes) == 13
    assert topo.max_depth == 3
    assert sorted(v for v, u in topo.parent.items() if u == 0) == [1, 2, 3]


def test_parse_accepts_comments_and_forward_references():
    topo = parse_tree("# tree\n2 1\n1 0\n0 -\n")
    assert topo.depth[2] == 2


@pytest.mark.parametrize("text,reason", [
    ("", "empty"),
    ("# nothing\n\n", "empty"),
    ("0 - junk\n", "format"),
    ("zero -\n", "format"),
    ("0 -\n1 0\n1 0\n", "multiple-parents"),
    ("0 -\n1 -\n", "multiple-roots"),
    ("5 -\n0 5\n", "bad-root-id"),
    ("1 0\n", "unknown-parent"),
    ("1 2\n2 1\n", "cycle"),
    ("0 -\n1 1\n", "cycle"),
    ("\u00b9 0\n", "format"),
    ("0 -\n\u0663 0\n", "format"),
    ("0 -\n1 \u0660\n", "format"),
    pytest.param("0 -\n" + "1" * 5000 + " 0\n", "format",
                 id="node-id-beyond-int-digit-limit"),
])
def test_parse_tree_errors(text, reason):
    with pytest.raises(TopologyError) as excinfo:
        parse_tree(text)
    assert excinfo.value.reason == reason


# ---------------------------------------------------------------------------
# simulation semantics

def test_hand_traced_chain():
    topo = parse_tree(chain_text(2))
    stream = parse_stream("0 N 0 N N")
    trace = simulate(topo, stream)  # default drain: depth = 2 extra slots
    assert trace.num_slots == 7
    assert trace.transmit_stream(2) == code_of(parse_stream("N N 0 N 0 N N"))
    assert trace.violations == ()


def test_all_silence_stays_silent():
    topo = parse_tree(fig1_text())
    trace = simulate(topo, (N,) * 6)
    assert all(not is_data(s) for row in transmitted(trace) for s in row)
    assert trace.violations == ()


def test_violation_is_recorded():
    topo = parse_tree(chain_text(2))
    trace = simulate(topo, parse_stream("0 0 N"))
    # node 1 forwards slot-0 data during slot 1, while the source is ON again
    assert (1, 1) in trace.violations


def test_erased_reception_marked():
    topo = parse_tree(chain_text(1))
    trace = simulate(topo, parse_stream("0 0 N"))
    node1 = trace.nodes.index(1)
    assert trace.received[1][node1] is ERASED


def test_negative_extra_slots_rejected():
    with pytest.raises(InvalidParameterError):
        simulate(parse_tree(chain_text(1)), (N,), extra_slots=-1)


@pytest.mark.parametrize("extra_slots", [
    10**12, 10**30, relaycast.simulator._SLOT_BUDGET - 1])
def test_a_horizon_past_the_slot_budget_is_refused(extra_slots):
    """Refused from its size, before a row is built: 10**12 slots used to
    end in MemoryError and 10**30 in OverflowError."""
    with pytest.raises(InvalidParameterError) as excinfo:
        simulate(parse_tree(chain_text(1)), parse_stream("0 N"), extra_slots)
    assert str(excinfo.value) == (
        f"2 stream slots and extra_slots={extra_slots} pass the simulation "
        f"budget of {relaycast.simulator._SLOT_BUDGET} slots")


@pytest.mark.parametrize("extra_slots", [1.5, "2", True, -1])
def test_extra_slots_must_be_a_nonnegative_int(extra_slots):
    # 1.5 and "2" used to end in TypeError, and True counted as one slot
    topo = parse_tree(chain_text(1))
    with pytest.raises(InvalidParameterError):
        simulate(topo, (0, N), extra_slots)


# ---------------------------------------------------------------------------
# the zero-violations iff admissible equivalence

def _all_streams(q, max_len):
    symbols = list(range(q)) + [N]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (s,) for w in frontier for s in symbols]
        yield from frontier


def test_violations_iff_inadmissible_exhaustive():
    topo = parse_tree(chain_text(3))
    for stream in _all_streams(1, 8):
        trace = simulate(topo, stream)
        assert (len(trace.violations) == 0) == is_admissible(stream)


@pytest.mark.parametrize("q", [2, 6])
def test_violations_iff_inadmissible_random(q):
    topo = parse_tree(chain_text(3))
    rng = random.Random(100 + q)
    for _ in range(200):
        stream = random_stream(rng, q, rng.randrange(1, 40))
        trace = simulate(topo, stream)
        assert (len(trace.violations) == 0) == is_admissible(stream)
        # a non-root reception is erased exactly when that node is ON
        for sent, heard in zip(transmitted(trace), trace.received):
            for i in range(1, len(trace.nodes)):
                assert (heard[i] is ERASED) == is_data(sent[i])


# ---------------------------------------------------------------------------
# delivery

def test_delay_law_on_deep_chain():
    topo = parse_tree(chain_text(11))
    rng = random.Random(3)
    stream = random_admissible_stream(rng, 1, 1000)
    trace = simulate(topo, stream)
    report = verify_delivery(trace, topo, stream)
    assert report.all_passed
    assert report.violations == 0
    # independent restatement: transmit stream == depth-shifted source
    for node in topo.nodes:
        d = topo.depth[node]
        actual = trace.transmit_stream(node)
        expected = ((N,) * d + stream + (N,) * trace.num_slots)[:trace.num_slots]
        assert symbols_of(actual) == expected


def test_erasures_only_hide_silence_under_admissible_source():
    topo = parse_tree(chain_text(4))
    rng = random.Random(4)
    stream = random_admissible_stream(rng, 2, 300)
    trace = simulate(topo, stream)
    sent_rows = transmitted(trace)
    for t, row in enumerate(trace.received):
        for i, value in enumerate(row):
            if value is ERASED:
                parent = topo.parent[trace.nodes[i]]
                sent = sent_rows[t][trace.nodes.index(parent)]
                assert not is_data(sent)


def test_delivery_fails_on_inadmissible_stream():
    topo = parse_tree(chain_text(2))
    stream = parse_stream("1 0 N N")
    trace = simulate(topo, stream)
    report = verify_delivery(trace, topo, stream)
    assert report.violations >= 1
    assert not report.all_passed


def test_simulate_and_verify_reject_stream_text():
    # a str used to be read as one symbol per character
    topo = parse_tree(chain_text(2))
    with pytest.raises(StreamFormatError):
        simulate(topo, "0 N")
    trace = simulate(topo, parse_stream("0 N"))
    with pytest.raises(StreamFormatError):
        verify_delivery(trace, topo, "0 N")


def test_empty_stream_delivery():
    topo = parse_tree(chain_text(3))
    trace = simulate(topo, ())
    report = verify_delivery(trace, topo, ())
    assert report.all_passed and report.violations == 0


def test_equal_depth_nodes_transmit_identically():
    stream = random_admissible_stream(random.Random(9), 1, 120)
    chain = parse_tree(chain_text(3))
    tree = parse_tree(fig1_text())
    trace_chain = simulate(chain, stream, extra_slots=3)
    trace_tree = simulate(tree, stream, extra_slots=3)
    for node in tree.nodes:
        d = tree.depth[node]
        assert trace_tree.transmit_stream(node) == \
            trace_chain.transmit_stream(d)


def test_trace_export_format():
    topo = parse_tree(chain_text(1))
    trace = simulate(topo, parse_stream("0 0"), extra_slots=0)
    lines = trace.export().splitlines()
    assert lines[0] == "0 | 0:0 1:N"
    assert lines[1] == "1 | 0:0 1:0*"  # node 1 is ON and loses the reception


# ---------------------------------------------------------------------------
# rates and the full pipeline

def test_baseline_rates():
    assert baseline_rate(1) == 0.5
    assert baseline_rate(3) == 1.0
    assert baseline_rate(6) == pytest.approx(1.4036775, abs=1e-6)
    with pytest.raises(InvalidParameterError):
        baseline_rate(0)


def test_end_to_end_fig1():
    topo = parse_tree(fig1_text())
    report = end_to_end(1, 2, 3, topo, random_bits(random.Random(5), 300))
    assert report.all_recovered
    assert len(report.nodes) == 13
    assert report.rate > report.baseline == 0.5


def test_end_to_end_q6_chain():
    topo = parse_tree(chain_text(5))
    report = end_to_end(6, 3, 2, topo, random_bits(random.Random(6), 120))
    assert report.all_recovered
    assert report.rate == 1.5 > report.baseline


def test_end_to_end_empty_message():
    topo = parse_tree(chain_text(2))
    report = end_to_end(1, 2, 3, topo, "")
    assert report.all_recovered
    assert report.message_bits == 0


def test_end_to_end_checks_the_slot_budget_before_encoding():
    """With a 3,000-slot budget, (1,2,3) on the depth-3 figure-1 tree runs
    3 (ceil(bits / 2) + 1) stream slots and 3 drain slots: 1,996 bits
    fit exactly, and 1,997 or 2,900 are refused, with simulate's message,
    before ``encode`` is called."""
    topo = parse_tree(fig1_text())
    assert build_encoder(1, 2, 3).anticipation == 1 and topo.max_depth == 3
    counting = mock.Mock(wraps=relaycast.simulator.encode)
    with mock.patch.object(relaycast.simulator, "_SLOT_BUDGET", 3000), \
            mock.patch.object(relaycast.simulator, "encode", counting):
        for length, slots in ((2900, 4353), (1997, 3000)):
            with pytest.raises(InvalidParameterError) as excinfo:
                end_to_end(1, 2, 3, topo, "1" * length)
            assert str(excinfo.value) == (
                f"{slots} stream slots and extra_slots=3 pass the "
                f"simulation budget of 3000 slots")
        assert not counting.called
        bits = random_bits(random.Random(3), 1996)
        assert end_to_end(1, 2, 3, topo, bits).all_recovered
        assert counting.call_count == 1
    assert len(encode(build_encoder(1, 2, 3), bits)[0]) == 2997


# ---------------------------------------------------------------------------
# the two-row simulator against the node-by-node and per-depth oracles

@st.composite
def trees(draw):
    """Chains, stars, layered and random recursive trees, ids shuffled."""
    shape = draw(st.sampled_from(["chain", "star", "layered", "random"]))
    if shape == "layered":
        parents, previous = [None], [0]
        for width in draw(st.lists(st.integers(1, 4), min_size=1, max_size=5)):
            start = len(parents)
            parents += [draw(st.sampled_from(previous)) for _ in range(width)]
            previous = list(range(start, len(parents)))
    else:
        size = draw(st.integers(1, 16))
        parents = [None] + [
            i - 1 if shape == "chain" else
            0 if shape == "star" else draw(st.integers(0, i - 1))
            for i in range(1, size)]
    ids = [0] + draw(st.permutations(range(1, len(parents))))
    lines = ["0 -"] + [f"{ids[i]} {ids[parent]}"
                       for i, parent in enumerate(parents) if i]
    return parse_tree("\n".join(lines) + "\n")


# text on one line: no control characters and no line or paragraph
# separators, all of which str.splitlines breaks at
_one_line = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                    max_size=8)


@settings(max_examples=200, deadline=None)
@given(topo=trees(), data=st.data())
def test_parse_tree_round_trips_shuffled_commented_text(topo, data):
    """Tree text re-parses to the same tree in any line order, with
    comments, blank lines and other blanks between the fields."""
    pairs = [(0, "-")] + sorted(topo.parent.items())
    lines = []
    for node, parent in data.draw(st.permutations(pairs)):
        gap = data.draw(st.sampled_from([" ", "  ", "\t", " \t "]))
        line = f"{node}{gap}{parent}"
        if data.draw(st.booleans()):
            line += " #" + data.draw(_one_line)
        lines.append(line)
        if data.draw(st.booleans()):
            lines.append(data.draw(st.sampled_from(["", "  ", "#", "# x"])))
    parsed = parse_tree("\n".join(lines))
    assert parsed.nodes == topo.nodes
    assert parsed.parent == topo.parent
    for node in topo.nodes:
        hops, current = 0, node
        while current != 0:
            current = topo.parent[current]
            hops += 1
        assert parsed.depth[node] == hops


@st.composite
def streams(draw):
    """Arbitrary streams over q in {1, 2, 6}, half of them made admissible."""
    q = draw(st.sampled_from([1, 2, 6]))
    word = draw(st.lists(st.sampled_from(list(range(q)) + [N]), max_size=30))
    if draw(st.booleans()):
        for i in range(1, len(word)):
            if is_data(word[i - 1]):
                word[i] = N
    return tuple(word)


def _assert_matches(oracle, topo, stream, extra_slots):
    trace = simulate(topo, stream, extra_slots)
    assert trace.nodes == oracle.nodes
    assert trace.num_slots == len(oracle.transmitted)
    assert transmitted(trace) == oracle.transmitted
    assert trace.received == oracle.received
    assert trace.violations == oracle.violations
    assert trace.export() == oracle.export()
    for node in topo.nodes:
        assert symbols_of(trace.transmit_stream(node)) == \
            oracle.transmit_stream(node)
    horizon = trace.num_slots
    # checked against the simulated stream and against another one
    for claimed in (stream, stream[1:] + (0,)):
        report = verify_delivery(trace, topo, claimed)
        assert report.violations == len(oracle.violations)
        for entry in report.nodes:
            d = topo.depth[entry.node]
            expected = ((N,) * d + claimed + (N,) * horizon)[:horizon]
            assert entry.passed == \
                (oracle.transmit_stream(entry.node) == expected)


# Depth 1 and depth 2 fail, yet depth 3 passes: the horizon cuts its row
# before the slot where depth 1's row first differs from the source's.
DEEP_PASS = dict(topo=parse_tree(chain_text(3)),
                 stream=parse_stream("1 0 N N"), extra_slots=0)


@settings(max_examples=300, deadline=None)
@given(topo=trees(), stream=streams(),
       extra_slots=st.one_of(st.none(), st.integers(0, 3)))
@example(**DEEP_PASS)
def test_simulate_matches_per_node_oracle(topo, stream, extra_slots):
    _assert_matches(simulate_per_node(topo, stream, extra_slots),
                    topo, stream, extra_slots)


@settings(max_examples=300, deadline=None)
@given(topo=trees(), stream=streams(),
       extra_slots=st.one_of(st.none(), st.integers(0, 3)))
@example(**DEEP_PASS)
def test_simulate_matches_per_depth_oracle(topo, stream, extra_slots):
    _assert_matches(simulate_per_depth(topo, stream, extra_slots),
                    topo, stream, extra_slots)


@settings(max_examples=300, deadline=None)
@given(stream=streams())
@example(stream=())
@example(stream=(0,))
@example(stream=(N, 1, 0, 1, N, N))         # a run of three data symbols
@example(stream=(N, 0, N, 0, 1))            # a run ending on the last slot
def test_relay_matches_per_slot_oracle(stream):
    mask = _data_mask(stream)
    assert relaycast.simulator._relay(stream, mask) == relay_oracle(stream)
    sent, lost = relaycast.simulator._relay(code_of(stream), mask)
    assert (symbols_of(sent), lost) == relay_oracle(stream)


def test_verify_delivery_fails_the_shallowest_depths_on_deep_chain():
    """Claims that differ ever earlier in the drain fail at ever more
    depths, always the shallowest: 50 verdict patterns on one tree, each
    report holding one verdict per depth, which its records repeat."""
    topo = parse_tree(chain_text(2000))
    stream = random_admissible_stream(random.Random(10), 1, 100)
    trace = simulate(topo, stream)
    horizon = trace.num_slots
    for j in range(50):
        # depth 1's row first differs from the claim's at slot
        # horizon - 40j; depth d sends it d - 1 slots later, within the
        # horizon for the 40j shallowest relays, which fail
        claimed = stream + (N,) * (horizon - 1 - len(stream) - 40 * j) + (0,)
        report = verify_delivery(trace, topo, claimed)
        assert report.passed == ((False,) * (1 + 40 * j)
                                 + (True,) * (2000 - 40 * j))
        assert sum(entry.passed for entry in report.nodes) == 2000 - 40 * j
        assert report.nodes[0].passed is False
        assert report.nodes[-1].passed is True
        assert [entry.passed for entry in report.nodes] == \
            [report.passed[entry.depth] for entry in report.nodes]
        assert not report.all_passed
    again = verify_delivery(trace, topo, stream)
    assert again.all_passed and again.passed == (True,) * 2001
    assert again.nodes == verify_delivery(trace, topo, stream).nodes
    assert again.nodes == tuple(again.nodes)


def test_verify_delivery_rejects_another_tree():
    stream = parse_stream("0 N")
    trace = simulate(parse_tree(chain_text(2)), stream)
    with pytest.raises(InvalidParameterError):
        verify_delivery(trace, parse_tree(fig1_text()), stream)
    # an equal tree parsed again is the same tree
    assert verify_delivery(trace, parse_tree(chain_text(2)), stream).all_passed


def test_transmit_stream_rejects_unknown_node():
    trace = simulate(parse_tree(chain_text(2)), parse_stream("0 N"))
    with pytest.raises(InvalidParameterError) as excinfo:
        trace.transmit_stream(7)
    assert str(excinfo.value) == "node 7 is not in the trace"


@pytest.mark.parametrize("node", [[1], {1: 0}, True, False, 1.0, "1", None,
                                  -1])
def test_transmit_stream_takes_only_int_node_ids(node):
    """Node ids are nonnegative ints: an unhashable node, a bool or a
    float equal to an id is refused, not looked up."""
    trace = simulate(parse_tree(chain_text(2)), parse_stream("0 N"))
    with pytest.raises(InvalidParameterError) as excinfo:
        trace.transmit_stream(node)
    assert str(excinfo.value).startswith("node must be a nonnegative integer")


def _simulate_peak(depth):
    topo = parse_tree(chain_text(depth))
    stream = random_stream(random.Random(depth), 2, 1000)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        simulate(topo, stream, extra_slots=0)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_simulate_memory_does_not_grow_with_depth():
    assert _simulate_peak(2000) <= 2 * _simulate_peak(10)


@settings(max_examples=60, deadline=None)
@given(topo=trees(), bits=st.text(alphabet="01", max_size=40),
       code=st.sampled_from([(1, 2, 3), (6, 3, 2)]),
       flip=st.one_of(st.none(), st.integers(0)))
def test_end_to_end_matches_per_node_decoding(topo, bits, code, flip):
    """Per-node recovery equals decoding each node's own oracle stream.

    ``flip`` corrupts one symbol of the encoded stream, so that some
    depths fail to recover and the per-depth verdicts are exercised.
    Each example runs twice on the shared machine, the second time with
    the decode table the first run filled.
    """
    machine = build_encoder(*code)
    stream, header = encode(machine, bits)
    stream = symbols_of(stream)
    if flip is not None and stream:
        i = flip % len(stream)
        stream = stream[:i] + ((0 if stream[i] is N else N),) + stream[i + 1:]
    with mock.patch.object(relaycast.simulator, "encode",
                           lambda *_: (stream, header)):
        reports = [end_to_end(*code, topo, bits) for _ in range(2)]
    for oracle in (simulate_per_node(topo, stream, topo.max_depth),
                   simulate_per_depth(topo, stream, topo.max_depth)):
        expected = []
        for node in topo.nodes:
            d = topo.depth[node]
            delivered = oracle.transmit_stream(node)[d:d + len(stream)]
            try:
                recovered = decode_oracle(machine, delivered, header) == bits
            except RelaycastError:
                recovered = False
            expected.append((node, d, recovered))
        for report in reports:
            assert [(e.node, e.depth, e.recovered)
                    for e in report.nodes] == expected


def test_end_to_end_gives_equal_records_for_equal_verdicts():
    topo = parse_tree(fig1_text())
    rng = random.Random(7)
    first, second = (end_to_end(1, 2, 3, topo, random_bits(rng, 60))
                     for _ in range(2))
    assert first.all_recovered and second.all_recovered
    assert first.recovered == second.recovered == (True,) * 4
    assert first.nodes == second.nodes == tuple(first.nodes)
    # records are frozen and have no __dict__ to add attributes to
    assert not hasattr(first.nodes[0], "__dict__")
    other = end_to_end(1, 2, 3, parse_tree(fig1_text()), random_bits(rng, 60))
    assert other.topology is not first.topology and other.nodes == first.nodes


def test_end_to_end_decodes_each_distinct_window_once():
    topo = parse_tree(fig1_text())
    bits = random_bits(random.Random(11), 90)
    stream, header = encode(build_encoder(1, 2, 3), bits)
    stream = symbols_of(stream)
    counting = mock.Mock(wraps=relaycast.simulator.decode)
    with mock.patch.object(relaycast.simulator, "decode", counting):
        assert end_to_end(1, 2, 3, topo, bits).all_recovered
        assert counting.call_count == 1
        # data right after data: depth 1 loses the second symbol, so its
        # window differs from the source stream and is decoded as well
        i = next(t for t in range(len(stream) - 1)
                 if stream[t] is not N and stream[t + 1] is N)
        flipped = stream[:i + 1] + (0,) + stream[i + 2:]
        with mock.patch.object(relaycast.simulator, "encode",
                               lambda *_: (flipped, header)):
            report = end_to_end(1, 2, 3, topo, bits)
        assert counting.call_count == 3
    # the relay silences the inserted symbol and so forwards the original
    assert [symbols_of(call.args[1])
            for call in counting.call_args_list[1:]] == [flipped, stream]
    assert [entry.recovered for entry in report.nodes] == \
        [entry.depth > 0 for entry in report.nodes]


def _changed(stream, change):
    """``stream`` with a data symbol inserted after data (the relays
    silence it again), with its first data symbol silenced (every node
    decodes wrong bits or fails), or as it is."""
    if change == "insert":
        i = next(t for t in range(len(stream) - 1)
                 if stream[t] is not N and stream[t + 1] is N)
        return stream[:i + 1] + (0,) + stream[i + 2:]
    if change == "silence":
        i = next(t for t, symbol in enumerate(stream) if symbol is not N)
        return stream[:i] + (N,) + stream[i + 1:]
    return stream


@pytest.mark.parametrize("text", ["0 -\n", chain_text(1), fig1_text()])
@pytest.mark.parametrize("change", [None, "insert", "silence"])
def test_report_verdicts_follow_each_pattern(text, change):
    """``end_to_end`` and ``verify_delivery`` keep one verdict per depth;
    it is the verdict of every record at that depth, and the all-nodes
    verdict equals the walk over the records."""
    topo = parse_tree(text)
    bits = random_bits(random.Random(12), 90)
    stream, header = encode(build_encoder(1, 2, 3), bits)
    stream = _changed(symbols_of(stream), change)
    with mock.patch.object(relaycast.simulator, "encode",
                           lambda *_: (stream, header)):
        report = end_to_end(1, 2, 3, topo, bits)
    recovered = [entry.recovered for entry in report.nodes]
    assert recovered == [change is None or (change == "insert" and d > 0)
                         for d in (entry.depth for entry in report.nodes)]
    assert len(report.recovered) == topo.max_depth + 1
    assert recovered == [report.recovered[e.depth] for e in report.nodes]
    assert report.all_recovered is all(recovered)
    assert report.nodes == tuple(report.nodes)

    trace = simulate(topo, stream)
    for claim in (stream, _changed(stream, "silence")):
        delivery = verify_delivery(trace, topo, claim)
        passed = [entry.passed for entry in delivery.nodes]
        assert len(delivery.passed) == topo.max_depth + 1
        assert passed == [delivery.passed[e.depth] for e in delivery.nodes]
        assert delivery.all_passed is all(passed)
        assert delivery.nodes == tuple(delivery.nodes)


def test_alternating_patterns_rebuild_the_kept_records():
    """Reports of two alternating verdict patterns on one topology each
    read their own verdicts: records and the all-nodes verdict follow
    the pattern of the call that made the report."""
    topo = parse_tree(fig1_text())
    bits = random_bits(random.Random(13), 90)
    stream, header = encode(build_encoder(1, 2, 3), bits)
    stream = symbols_of(stream)
    reports = []
    for change in (None, "insert", None, "insert"):
        changed = _changed(stream, change)
        with mock.patch.object(relaycast.simulator, "encode",
                               lambda *_: (changed, header)):
            report = end_to_end(1, 2, 3, topo, bits)
        recovered = [entry.recovered for entry in report.nodes]
        assert [(e.node, e.depth) for e in report.nodes] == \
            [(v, topo.depth[v]) for v in topo.nodes]
        assert recovered == [change is None or d > 0
                             for d in (e.depth for e in report.nodes)]
        assert report.all_recovered is all(recovered)
        reports.append(report)
    assert reports[0].all_recovered and not reports[1].all_recovered
    assert reports[0].nodes == reports[2].nodes != reports[1].nodes
    assert reports[1].nodes == reports[3].nodes


def test_hand_built_reports_read_their_depth_verdicts():
    """A report built from per-depth verdicts and a topology gives the
    records and the all-nodes verdict those verdicts make; a copy with
    other verdicts answers for its own."""
    chain = parse_tree(chain_text(2))
    report = EndToEndReport(q=1, p=2, n=3, rate=2 / 3, capacity=capacity(1),
                            baseline=0.5, message_bits=4,
                            recovered=(True, False, True), topology=chain)
    assert not report.all_recovered
    assert report.nodes == (NodeRecovery(0, 0, True), NodeRecovery(1, 1, False),
                            NodeRecovery(2, 2, True))
    assert dataclasses.replace(report, recovered=(True,) * 3).all_recovered
    # a copy of a report end_to_end filled answers for its own verdicts
    filled = end_to_end(1, 2, 3, chain, "0110")
    assert filled.all_recovered
    assert not dataclasses.replace(filled,
                                   recovered=report.recovered).all_recovered
    # records are read from the verdicts, not set: nodes is no field
    with pytest.raises(TypeError):
        dataclasses.replace(filled, nodes=report.nodes)
    delivered = DeliveryReport(passed=(True, True, False), violations=0,
                               topology=chain)
    assert not delivered.all_passed
    assert delivered.nodes == [NodeDelivery(0, 0, True),
                               NodeDelivery(1, 1, True),
                               NodeDelivery(2, 2, False)]
    assert DeliveryReport(passed=(True, True), violations=0,
                          topology=parse_tree(chain_text(1))).all_passed
    # the topology stays out of the repr
    assert repr(delivered) == ("DeliveryReport(passed=(True, True, False), "
                               "violations=0)")


def test_report_nodes_are_a_read_only_view():
    """``nodes`` reads like the tuple of its records: indexes from either
    end, slices to tuples, iteration, ``IndexError`` past the end, and
    equality with any sequence of the same records."""
    topo = parse_tree(fig1_text())
    report = DeliveryReport(passed=(True, False, True, False), violations=0,
                            topology=topo)
    records = tuple(NodeDelivery(v, topo.depth[v], topo.depth[v] % 2 == 0)
                    for v in topo.nodes)
    view = report.nodes
    assert len(view) == len(records) == 13
    for i in range(-13, 13):
        assert view[i] == records[i]
    for cut in (slice(None), slice(2, 9, 3), slice(None, None, -1),
                slice(-4, None), slice(20, 30)):
        assert type(view[cut]) is tuple and view[cut] == records[cut]
    assert list(view) == list(records) and tuple(reversed(view)) == records[::-1]
    for i in (13, -14, 10**30):
        with pytest.raises(IndexError):
            view[i]
    assert view == records and records == view and view == list(records)
    assert view != records[:-1] and view != records[::-1]
    assert view != set(records) and view != None
    assert view.index(records[4]) == 4 and records[4] in view
    with pytest.raises(TypeError):
        view[0] = records[0]


def test_end_to_end_keeps_no_memory_per_node():
    """A report keeps one verdict per depth: on a 20,000-node star the
    memory that ``end_to_end`` and its report keep alive stays under
    64 KB, where 20,000 records would take over a megabyte."""
    star = parse_tree("\n".join(["0 -"] + [f"{v} 0" for v in range(1, 20000)]))
    bits = random_bits(random.Random(14), 256)
    # the machine and its tables are memoised: warm them on another tree
    end_to_end(6, 3, 2, parse_tree(chain_text(1)), bits)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        report = end_to_end(6, 3, 2, star, bits)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert report.all_recovered and len(report.nodes) == 20000
    assert kept < 64 * 1024


@pytest.mark.parametrize("record, names", [
    (NodeDelivery, ("node", "depth", "passed")),
    (NodeRecovery, ("node", "depth", "recovered")),
])
def test_node_records_are_frozen(record, names):
    assert tuple(f.name for f in dataclasses.fields(record)) == names
    entry = record(3, 1, True)
    assert entry == record(node=3, depth=1, **{names[2]: True})
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(entry, name, 0)


@settings(max_examples=150, deadline=None)
@given(topo=trees(), stream=streams(),
       extra_slots=st.one_of(st.none(), st.integers(0, 3)))
def test_violations_occur_only_at_depth_one(topo, stream, extra_slots):
    """A relay never sends two data symbols in a row, so below depth 1
    no parent can send data while its child is ON.

    Checked on the simulator, which relies on it, and on the node-by-node
    oracle, which does not."""
    for trace in (simulate(topo, stream, extra_slots),
                  simulate_per_node(topo, stream, extra_slots)):
        assert all(topo.depth[v] == 1 for _, v in trace.violations)
        for node in topo.nodes[1:]:
            assert is_admissible(trace.transmit_stream(node))


@settings(max_examples=200, deadline=None)
@given(stream=streams(), extra_slots=st.integers(1, 3))
def test_relayed_window_equals_the_stream_iff_nothing_is_lost(stream,
                                                              extra_slots):
    """What ``end_to_end`` decides on: depth 1's window equals the source
    stream exactly when no slot was lost, since every lost slot is a
    data slot inside the stream and depth 1 silences it."""
    trace = simulate(parse_tree(chain_text(1)), stream, extra_slots)
    window = trace.relayed[1:1 + len(stream)]
    assert (window == code_of(stream)) is (not trace.lost)
    assert all(stream[t] is not N for t in trace.lost)


# ---------------------------------------------------------------------------
# one stream form: a byte code and the tuple of its symbols read alike

def _views(topo, stream, header, machine):
    """Everything a stream function makes of ``stream``, or its error."""
    trace = simulate(topo, stream)
    report = verify_delivery(trace, topo, stream)
    return (format_stream(stream), is_admissible(stream), trace.source,
            trace.relayed, trace.lost, trace.export(), trace.received,
            trace.violations, [trace.transmit_stream(v) for v in topo.nodes],
            report.nodes, report.violations,
            outcome(decode, machine, stream, header))


@settings(max_examples=200, deadline=None)
@given(topo=trees(), rate=st.sampled_from(ROUND_TRIP_RATES),
       bits=st.text(alphabet="01", max_size=80),
       change=st.one_of(st.none(), st.tuples(st.integers(0), st.integers(0))))
def test_coded_streams_read_as_their_tuples(topo, rate, bits, change):
    """``encode``'s stream is the byte code of its symbols, spelled here
    one symbol at a time, and every stream function gives equal results
    and equal errors on the code and on the tuple of its symbols, intact
    or with one symbol changed (a decode error, and often violations)."""
    machine = build_encoder(*rate)
    stream, header = encode(machine, bits)
    assert type(stream) is bytes
    plain = symbols_of(stream)
    if change is not None and stream:
        at, symbol = change[0] % len(plain), change[1] % (machine.q + 1)
        plain = plain[:at] + ((N if symbol == machine.q else symbol),) + \
            plain[at + 1:]
    code = code_of(plain)
    assert code == stream or change is not None
    assert _views(topo, code, header, machine) == \
        _views(topo, plain, header, machine)
    assert _views(topo, bytearray(code), header, machine) == \
        _views(topo, list(plain), header, machine)


@pytest.mark.parametrize("rate, bits", [
    ((12, 4, 2), "0110" * 25),
    # past q = 255 encode gives a tuple, but a message of zero bits takes
    # tag 0 at every block, whose codewords hold only symbols below 255
    ((300, 8, 2), "0" * 64)])
def test_streams_read_as_byte_codes_and_generators(rate, bits):
    """A stream given as its symbols, as their byte code or as a generator
    of the symbols gives every stream function the same results; decode
    reads a byte code for a machine past q = 255 as its symbols."""
    machine = build_encoder(*rate)
    stream, header = encode(machine, bits)
    symbols = symbols_of(stream)
    topo = parse_tree(fig1_text())
    views = _views(topo, symbols, header, machine)
    assert views[-1] == bits
    assert _views(topo, code_of(symbols), header, machine) == views
    assert decode(machine, code_of(symbols), header) == bits
    assert format_stream(s for s in symbols) == views[0]
    assert is_admissible(s for s in symbols) == views[1]
    trace = simulate(topo, (s for s in symbols))
    assert (trace.source, trace.relayed, trace.lost) == views[2:5]


@pytest.mark.parametrize("rate, coded", [((12, 4, 2), True),
                                         ((255, 4, 1), True),
                                         ((256, 4, 1), False),
                                         ((300, 8, 2), False)])
def test_streams_are_coded_up_to_q_255(rate, coded):
    """One byte per symbol holds ``N`` and data symbols 0..254; past q =
    255 ``encode`` gives a tuple, and a stream holding a symbol past 254
    has no code: every stream function reads it symbol by symbol, with
    the results it gives a list of the same symbols."""
    machine = build_encoder(*rate)
    bits = random_bits(random.Random(25), 300)
    stream, header = encode(machine, bits)
    symbols = symbols_of(stream)
    assert type(stream) is (bytes if coded else tuple)
    assert max(s for s in symbols if s is not N) >= 10
    assert decode(machine, stream, header) == bits
    assert format_stream(stream) == " ".join(
        "N" if s is N else str(s) for s in symbols)
    topo = parse_tree(fig1_text())
    if coded:
        assert stream == code_of(symbols)
        assert _views(topo, stream, header, machine) == \
            _views(topo, symbols, header, machine)
    else:
        at = next(i for i, s in enumerate(symbols) if s is not N)
        symbols = symbols[:at] + (machine.q - 1,) + symbols[at + 1:]
        views = _views(topo, symbols, header, machine)
        assert type(views[2]) is type(views[3]) is tuple
        assert views == _views(topo, list(symbols), header, machine)
    copies = [pickle.loads(pickle.dumps(stream, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for kept in copies + [copy.copy(stream), copy.deepcopy(stream)]:
        assert kept == stream and type(kept) is type(stream)
