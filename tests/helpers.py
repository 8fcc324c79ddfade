"""Shared oracles and builders for the test suite.

The oracles here are deliberately independent of the library internals:
admissibility is re-derived by a direct adjacent-pair scan, word counts
by filtering the full cartesian product and by their closed (Binet)
form, expected relay behavior by shifting sequences, the simulator by
the node-by-node slot loop and by the scan per depth that it replaced
in turn (neither derives deeper rows from depth 1's), the three
synthesis stages by the edge-list rebuilds they replaced, the weight
vector by the eigenvector search with a power iteration for the Perron
direction in place of the closed form, and ``decode`` by the path-tracking
decoder that carries every candidate's bit string forward, the
anticipation certificate by the memoised depth-first search that the
pair-graph walk replaced, ``encode`` by the loop that looks up one block
at a time, and the stream text formats by the loops that convert one
token or symbol at a time.
"""

import math
import random
from dataclasses import dataclass
from itertools import combinations, product

from relaycast import (ERASED, N, AmbiguousEncoderError, ConstraintGraph,
                       Edge, FrameHeader, FramingError, InfeasibleRateError,
                       InsufficientDegreeError, InvalidParameterError,
                       NonUniformLabelError, RelaycastError,
                       StateSplitError, StreamFormatError,
                       UnknownCodewordError, capacity, format_stream)
from relaycast.constraint import matrix_vector, validate_matrix
from relaycast.encoder import _assemble
from relaycast.symbols import is_data, is_decimal


# q -> largest block length n in the sweep. It includes chained splits,
# such as (1,9,13) with weights (5,3), where a descendant is split again.
SWEEP = {1: 16, 2: 10, 3: 8, 6: 6}


def _sweep_rates(q, lengths):
    return [(q, p, n) for n in lengths
            for p in range(1, math.floor(capacity(q) * n + 1e-9) + 1)]


# every rate of the sweep with q <= 2 and n <= 8 (57 machines), then
# q=1 beyond n=8, every q=3 and q=6 rate, and q=2 with n = 9 and 10
# (154 more): all 211 rates of the sweep but (3,6,5), which the greedy
# cut of ``split_states`` rejects
ROUND_TRIP_RATES = (
    _sweep_rates(1, range(1, 9)) + _sweep_rates(2, range(1, 9))
    + _sweep_rates(1, range(9, SWEEP[1] + 1))
    + [rate for rate in _sweep_rates(3, range(1, SWEEP[3] + 1))
       if rate != (3, 6, 5)]
    + _sweep_rates(6, range(1, SWEEP[6] + 1))
    + _sweep_rates(2, range(9, SWEEP[2] + 1)))


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except RelaycastError as exc:
        return (type(exc), str(exc))


def parse_stream_oracle(text, q=None):
    """The word ``parse_stream`` must return, or the error it must raise.

    Checks each distinct token once, in order of first occurrence, in a
    pass before the conversion.
    """
    tokens = text.split()
    symbols = {}
    for token in dict.fromkeys(tokens):
        if token == "N":
            symbols[token] = N
        elif is_decimal(token):
            value = int(token)
            if q is not None and value >= q:
                raise StreamFormatError(
                    f"data symbol {value} out of range for q={q}")
            symbols[token] = value
        else:
            raise StreamFormatError(f"bad stream token {token!r}")
    return tuple(symbols[token] for token in tokens)


def format_stream_oracle(word):
    """The text ``format_stream`` must return, one symbol at a time."""
    return " ".join(["N" if s is N else str(s) for s in word])


def encode_oracle(encoder, bits):
    """The ``(stream, header)`` that ``encode`` must return.

    Looks up one p-bit block at a time in ``encoder.transitions``, then
    appends ``encoder.anticipation`` flush blocks under tag 0.
    """
    text = bits if isinstance(bits, str) else "".join(str(b) for b in bits)
    if text.strip("01"):
        raise StreamFormatError("bit strings may contain only 0 and 1")
    length = len(text)
    if length == 0:
        return (), FrameHeader(0, 0)
    pad = (-length) % encoder.p
    text += "0" * pad
    out = []
    state = encoder.start_state
    for i in range(0, len(text), encoder.p):
        word, state = encoder.transitions[state][int(text[i:i + encoder.p], 2)]
        out.extend(word)
    for _ in range(encoder.anticipation):
        word, state = encoder.transitions[state][0]
        out.extend(word)
    return tuple(out), FrameHeader(length, pad)


def scan_admissible(word):
    """Direct scan: no two adjacent data symbols."""
    for a, b in zip(word, word[1:]):
        if a is not N and b is not N:
            return False
    return True


def brute_force_words(q, n):
    """Every admissible length-n word, by filtering all (q+1)**n strings."""
    symbols = list(range(q)) + [N]
    return [w for w in product(symbols, repeat=n) if scan_admissible(w)]


def _count_roots(q):
    """Roots ``(1 +- s) / 2``, ``s = sqrt(4q+1)``, of ``x**2 = x + q``."""
    s = math.sqrt(4 * q + 1)
    return (1 + s) / 2, (1 - s) / 2


def count_leading_coefficient(q):
    """Coefficient ``a_q`` of the dominant term of the word count.

    The count obeys ``N(n) = N(n-1) + q*N(n-2)`` with ``N(0) = 1`` and
    ``N(1) = q+1``. Its characteristic polynomial ``x**2 - x - q`` has
    roots ``lam_plus, lam_minus = (1 +- s) / 2`` with ``s = sqrt(4q+1)``,
    so ``N(n) = a_q*lam_plus**n + (1 - a_q)*lam_minus**n`` (Binet form).
    The seed ``N(1) = q+1`` gives
    ``a_q = (q+1 - lam_minus) / (lam_plus - lam_minus) = (2q+1+s) / (2s)``,
    which is 9/5 for q=6. Since ``a_q > 1`` and ``|lam_minus| < lam_plus``,
    ``N(n) >= lam_plus**n``, and the capacity gap
    ``log2(N(n))/n - log2(lam_plus)`` is ``log2(a_q)/n`` up to a term
    that vanishes like ``|lam_minus/lam_plus|**n / n``.
    """
    plus, minus = _count_roots(q)
    return (q + 1 - minus) / (plus - minus)


def binet_count(q, n):
    """The word count from its closed form, as a float (see above)."""
    a = count_leading_coefficient(q)
    plus, minus = _count_roots(q)
    return a * plus ** n + (1 - a) * minus ** n


def matrix_power(m, n):
    """The n-th power of a square integer matrix, n >= 1, by repeated products."""
    size = range(len(m))
    result = [list(row) for row in m]
    for _ in range(n - 1):
        result = [[sum(result[i][k] * m[k][j] for k in size) for j in size]
                  for i in size]
    return result


def chain_text(depth):
    """Topology text for a chain 0 -> 1 -> ... -> depth."""
    lines = ["0 -"] + [f"{i} {i - 1}" for i in range(1, depth + 1)]
    return "\n".join(lines) + "\n"


def fig1_text():
    """A 13-node depth-3 broadcast tree with mixed fan-out."""
    return (
        "# root\n"
        "0 -\n"
        "1 0\n2 0\n3 0\n"
        "4 1\n5 1\n6 2\n7 3\n8 3\n"
        "9 4\n10 4\n11 6\n12 7\n"
    )


def random_bits(rng, length):
    return "".join(rng.choice("01") for _ in range(length))


def random_stream(rng, q, length):
    """Arbitrary stream, admissible or not."""
    symbols = list(range(q)) + [N]
    return tuple(rng.choice(symbols) for _ in range(length))


def random_admissible_stream(rng, q, length):
    """Admissible stream: after a data symbol, force silence."""
    out = []
    previous_data = False
    for _ in range(length):
        if previous_data:
            symbol = N
        else:
            symbol = rng.choice(list(range(q)) + [N])
        out.append(symbol)
        previous_data = symbol is not N
    return tuple(out)


@dataclass(frozen=True)
class NodeTrace:
    """Per-node transcript in the layout of ``SimTrace``'s views."""

    nodes: tuple
    transmitted: tuple
    received: tuple
    violations: tuple

    def export(self):
        lines = []
        for t, row in enumerate(self.transmitted):
            cells = []
            for i, node in enumerate(self.nodes):
                token = "N" if not is_data(row[i]) else str(row[i])
                if self.received[t][i] is ERASED:
                    token += "*"
                cells.append(f"{node}:{token}")
            lines.append(f"{t} | " + " ".join(cells))
        return "\n".join(lines)

    def transmit_stream(self, node):
        i = self.nodes.index(node)
        return tuple(row[i] for row in self.transmitted)


def simulate_per_node(topo, source_stream, extra_slots=None):
    """Oracle for ``simulate``: every node, every slot, in node-id order.

    Each relay sends what it stored last slot; OFF it stores its
    parent's symbol, ON it records an erasure, stores silence and logs a
    violation if the parent sent data.
    """
    stream = tuple(source_stream)
    if extra_slots is None:
        extra_slots = topo.max_depth
    nodes = topo.nodes
    relays = nodes[1:]
    pending = {v: N for v in relays}
    transmitted, received, violations = [], [], []
    for t in range(len(stream) + extra_slots):
        sending = {0: stream[t] if t < len(stream) else N}
        for v in relays:
            sending[v] = pending[v]
        heard = {0: None}
        for v in relays:
            from_parent = sending[topo.parent[v]]
            if is_data(sending[v]):
                heard[v] = ERASED
                pending[v] = N
                if is_data(from_parent):
                    violations.append((t, v))
            else:
                heard[v] = from_parent
                pending[v] = from_parent
        transmitted.append(tuple(sending[v] for v in nodes))
        received.append(tuple(heard[v] for v in nodes))
    return NodeTrace(nodes=nodes, transmitted=tuple(transmitted),
                     received=tuple(received), violations=tuple(violations))


def _relay_per_depth(parent_stream):
    """One depth's transmissions, receptions and violation slots.

    The relay transmits what it stored in the previous slot, initially
    silence. While OFF it stores what its parent sends; while ON it
    records an erasure and stores silence, and a data symbol from the
    parent in that slot is a violation.
    """
    sent, heard, lost = [], [], []
    pending = N
    for t, incoming in enumerate(parent_stream):
        sent.append(pending)
        if is_data(pending):
            heard.append(ERASED)
            if is_data(incoming):
                lost.append(t)
            pending = N
        else:
            heard.append(incoming)
            pending = incoming
    return tuple(sent), tuple(heard), tuple(lost)


def simulate_per_depth(topo, source_stream, extra_slots=None):
    """Oracle for ``simulate``: one relay scan per depth.

    Each depth's scan reads the stream of the depth above, so no row is
    derived from depth 1's; nodes then copy the rows of their depth.
    """
    stream = tuple(source_stream)
    if extra_slots is None:
        extra_slots = topo.max_depth
    sent = stream + (N,) * extra_slots
    transmitted, received, lost = [sent], [(None,) * len(sent)], [()]
    for _ in range(topo.max_depth):
        sent, heard, slots = _relay_per_depth(sent)
        transmitted.append(sent)
        received.append(heard)
        lost.append(slots)
    nodes = topo.nodes
    return NodeTrace(
        nodes=nodes,
        transmitted=tuple(zip(*(transmitted[topo.depth[v]] for v in nodes))),
        received=tuple(zip(*(received[topo.depth[v]] for v in nodes))),
        violations=tuple(sorted((t, v) for v in nodes
                                for t in lost[topo.depth[v]])))


# ---------------------------------------------------------------------------
# encoder synthesis oracles: each stage as it was before it sorted on
# precomputed codeword ranks, re-deriving a tuple key per comparison and
# rebuilding the whole edge list on every split round.

def _oracle_symbol_key(symbol):
    """Sort key placing data symbols (in numeric order) before silence."""
    return (1, 0) if not is_data(symbol) else (0, symbol)


def oracle_word_key(word):
    """Lexicographic sort key for words; N orders after all data symbols."""
    return tuple(_oracle_symbol_key(s) for s in word)


def _oracle_check_positive(value, name):
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise InvalidParameterError(f"{name} must be a positive integer, got {value!r}")


def _oracle_canonical(edges):
    return tuple(sorted(edges, key=lambda e: (e.src, oracle_word_key(e.word), e.dst)))


def power_graph_oracle(g, n):
    """Presentation whose edges are the length-n paths of ``g``.

    Labels concatenate along the path; the adjacency matrix is the n-th
    power of ``g``'s. ``n=1`` returns ``g`` itself.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidParameterError(f"power must be a positive integer, got {n!r}")
    if n == 1:
        return g
    by_src = [[] for _ in g.states]
    for e in g.edges:
        by_src[e.src].append(e)
    paths = list(g.edges)
    for _ in range(n - 1):
        paths = [Edge(e.src, f.dst, e.word + f.word)
                 for e in paths for f in by_src[e.dst]]
    return ConstraintGraph(q=g.q, states=g.states, edges=_oracle_canonical(paths))


def _oracle_restrict_to_support(g, weights):
    """Drop zero-weight states; the inequality survives on the rest."""
    keep = [i for i, w in enumerate(weights) if w > 0]
    if len(keep) == len(weights):
        return g, list(weights)
    remap = {old: new for new, old in enumerate(keep)}
    edges = tuple(Edge(remap[e.src], remap[e.dst], e.word)
                  for e in g.edges if e.src in remap and e.dst in remap)
    graph = ConstraintGraph(q=g.q,
                            states=tuple(g.states[i] for i in keep),
                            edges=edges)
    return graph, [weights[i] for i in keep]


def split_states_oracle(g, x):
    """Out-split states until every weight is 1 (see ``split_states``)."""
    if len(x.vector) != len(g.states):
        raise InvalidParameterError(
            f"weight vector has {len(x.vector)} entries for "
            f"{len(g.states)} states")
    if any(w < 0 for w in x.vector) or not any(x.vector):
        raise StateSplitError("weights must be nonnegative and not all zero")
    target = 1 << x.p
    checked = matrix_vector(g.adjacency, x.vector)
    if any(got < target * want for got, want in zip(checked, x.vector)):
        raise StateSplitError(
            "vector fails the weight inequality; not an approximate eigenvector")

    if all(w == 1 for w in x.vector):
        return g

    g, weights = _oracle_restrict_to_support(g, list(x.vector))
    names = list(g.states)
    edges = list(g.edges)

    while True:
        heaviest = max(weights)
        if heaviest <= 1:
            break
        u = weights.index(heaviest)
        outgoing = sorted((e for e in edges if e.src == u),
                          key=lambda e: (-weights[e.dst], oracle_word_key(e.word), e.dst))
        out_weight = sum(weights[e.dst] for e in outgoing)
        partition = None
        for first_weight in range(1, heaviest):
            acc = 0
            cut = None
            for i, e in enumerate(outgoing):
                acc += weights[e.dst]
                if acc >= target * first_weight:
                    cut = i + 1
                    break
            if cut is None:
                break  # even the full set cannot cover first_weight
            if out_weight - acc >= target * (heaviest - first_weight):
                partition = (first_weight, cut)
                break
        if partition is None:
            raise StateSplitError(
                f"state {names[u]!r} admits no weight-consistent partition")
        first_weight, cut = partition
        in_first = {id(e) for e in outgoing[:cut]}

        # u becomes u.0 at index u and u.1 at index u+1; higher indices
        # shift up by one.
        def new_index(old):
            return old if old < u else old + 1

        rebuilt = []
        for e in edges:
            if e.src == u:
                src = u if id(e) in in_first else u + 1
            else:
                src = new_index(e.src)
            heads = [u, u + 1] if e.dst == u else [new_index(e.dst)]
            rebuilt.extend(Edge(src, dst, e.word) for dst in heads)
        names[u:u + 1] = [names[u] + ".0", names[u] + ".1"]
        weights[u:u + 1] = [first_weight, heaviest - first_weight]
        edges = rebuilt

    result = ConstraintGraph(q=g.q, states=tuple(names),
                             edges=tuple(sorted(edges, key=lambda e: (e.src, oracle_word_key(e.word), e.dst))))
    degrees = [0] * len(result.states)
    for e in result.edges:
        degrees[e.src] += 1
    if any(d < target for d in degrees):
        raise StateSplitError("splitting left a state short of out-degree 2**p")
    return result


def prune_to_encoder_oracle(g, q, p, n):
    """Delete surplus edges down to 2**p per state (see ``prune_to_encoder``)."""
    _oracle_check_positive(q, "q")
    _oracle_check_positive(p, "p")
    _oracle_check_positive(n, "n")
    if g.q != q:
        raise InvalidParameterError(f"graph was built for q={g.q}, not q={q}")
    fanout = 1 << p
    for e in g.edges:
        if len(e.word) != n:
            raise NonUniformLabelError(
                f"edge label {format_stream(e.word)!r} is not {n} symbols")

    kept = []
    for state in range(len(g.states)):
        outgoing = sorted((e for e in g.edges if e.src == state),
                          key=lambda e: (oracle_word_key(e.word), e.dst))
        if len(outgoing) < fanout:
            raise InsufficientDegreeError(
                f"state {g.states[state]!r} has out-degree {len(outgoing)}, "
                f"needs {fanout}")
        primaries, duplicates = [], []
        seen = set()
        for e in outgoing:
            key = oracle_word_key(e.word)
            (duplicates if key in seen else primaries).append(e)
            seen.add(key)
        chosen = (primaries + duplicates)[:fanout]
        chosen.sort(key=lambda e: (oracle_word_key(e.word), e.dst))
        kept.append(chosen)

    start = 0
    reachable = {start}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        for e in kept[state]:
            if e.dst not in reachable:
                reachable.add(e.dst)
                frontier.append(e.dst)
    order = sorted(reachable)
    renumber = {old: new for new, old in enumerate(order)}
    transitions = tuple(
        tuple((e.word, renumber[e.dst]) for e in kept[old])
        for old in order)
    return _assemble(q, p, n, renumber[start], transitions)


# ---------------------------------------------------------------------------
# weight-vector oracle: the eigenvector search with the Perron direction
# taken from a power iteration, independent of the library's 2x2 closed
# form.

def _oracle_franaszek_fixpoint(matrix, seed, target):
    x = list(seed)
    while True:
        ax = matrix_vector(matrix, x)
        y = [min(xi, axi // target) for xi, axi in zip(x, ax)]
        if y == x:
            return x
        x = y


def perron_direction_oracle(matrix):
    """Dominant eigenvector direction, normalized to minimum entry 1."""
    size = len(matrix)
    x = [1.0] * size
    for _ in range(100_000):
        y = [sum(row[j] * x[j] for j in range(size)) + x[i]
             for i, row in enumerate(matrix)]
        top = max(y)
        y = [v / top for v in y]
        if max(abs(a - b) for a, b in zip(x, y)) < 1e-14:
            x = y
            break
        x = y
    bottom = min(x)
    return [v / bottom for v in x]


def _oracle_reduced(vector):
    g = math.gcd(*vector) if len(vector) > 1 else vector[0]
    return tuple(v // g for v in vector)


def approximate_eigenvector_oracle(adjacency, p):
    """The weight vector ``find_approximate_eigenvector`` must return."""
    matrix = validate_matrix(adjacency)
    _oracle_check_positive(p, "p")
    target = 1 << p
    size = len(matrix)
    ceiling = _oracle_franaszek_fixpoint(matrix, [1 << 20] * size, target)
    if not any(ceiling):
        raise InfeasibleRateError(
            f"no nonzero weight vector supports {p} bits per block "
            f"for this adjacency")
    direction = perron_direction_oracle(matrix)
    for scale in range(1, 4096 + 1):
        seed = [max(1, round(scale * v)) for v in direction]
        x = _oracle_franaszek_fixpoint(matrix, seed, target)
        if any(x):
            return _oracle_reduced(x)
    return _oracle_reduced(ceiling)


def decode_oracle(encoder, word, header):
    """The bits ``decode`` must return, or the error it must raise.

    Carries every candidate state forward with the whole bit string of
    its path, rebuilt by concatenation in every block, so its cost grows
    with the square of the message length. The flush appended by encode
    guarantees that all paths surviving to the end agree on the message
    bits; stray streams that match no transition raise
    :class:`UnknownCodewordError` at the offending block.
    """
    stream = tuple(word)
    if len(stream) % encoder.n:
        raise FramingError(
            f"stream length {len(stream)} is not a multiple of n={encoder.n}")
    length = header.bit_length
    if header.pad != (-length) % encoder.p:
        raise FramingError(
            f"pad {header.pad} inconsistent with bit length {length}")
    message_blocks = (length + encoder.p - 1) // encoder.p
    expected = message_blocks + (encoder.anticipation if message_blocks else 0)
    total = len(stream) // encoder.n
    if total != expected:
        raise FramingError(f"stream has {total} blocks, frame implies {expected}")
    if message_blocks == 0:
        return ""

    lookup = encoder._by_codeword
    candidates = {encoder.start_state: ""}
    for i in range(total):
        block = stream[i * encoder.n:(i + 1) * encoder.n]
        advanced = {}
        in_message = i < message_blocks
        for state, bits_so_far in candidates.items():
            for tag, nxt in lookup[state].get(block, ()):
                if nxt in advanced:
                    raise AmbiguousEncoderError(
                        "two decode paths converged; machine certificate broken")
                advanced[nxt] = (bits_so_far + format(tag, f"0{encoder.p}b")
                                 if in_message else bits_so_far)
        if not advanced:
            raise UnknownCodewordError(
                f"block {i} ({format_stream(block)}) matches no transition")
        candidates = advanced
    survivors = set(candidates.values())
    if len(survivors) != 1:
        raise AmbiguousEncoderError("flush failed to single out the message")
    return survivors.pop()[:length]


def anticipation_oracle(index):
    """The anticipation ``_anticipation`` must return, or raise.

    Longest path in the graph over unordered state pairs that emit a
    common codeword, by a memoised depth-first search that recurses once
    per step, so it is for small machines only. ``index`` is the
    per-state ``codeword -> ((tag, next), ...)`` map of ``_codeword_index``.
    """
    forks = set()
    for state, by_word in enumerate(index):
        for word, moves in by_word.items():
            for (_, a), (_, b) in combinations(moves, 2):
                if a == b:
                    raise AmbiguousEncoderError(
                        f"state {state} emits {format_stream(word)!r} to "
                        f"state {a} under two different tags")
                forks.add((min(a, b), max(a, b)))
    if not forks:
        return 0

    def successors(pair):
        a, b = pair
        nxt = set()
        for word, a_moves in index[a].items():
            b_moves = index[b].get(word)
            if not b_moves:
                continue
            for _, ta in a_moves:
                for _, tb in b_moves:
                    if ta == tb:
                        raise AmbiguousEncoderError(
                            f"states {a} and {b} merge on {format_stream(word)!r}")
                    nxt.add((min(ta, tb), max(ta, tb)))
        return nxt

    # longest path in the pair graph; a cycle means unbounded ambiguity
    depth = {}
    in_progress = object()

    def longest(pair):
        seen = depth.get(pair)
        if seen is in_progress:
            raise AmbiguousEncoderError(
                f"state pair {pair} can stay indistinguishable forever")
        if seen is not None:
            return seen
        depth[pair] = in_progress
        best = 0
        for nxt in successors(pair):
            best = max(best, 1 + longest(nxt))
        depth[pair] = best
        return best

    return 1 + max(longest(pair) for pair in sorted(forks))


def deep_encoder_text(steps):
    """Encoder text (q=3, p=1, n=1) with anticipation ``steps + 1``.

    State 0 forks on ``N`` into two chains of ``steps + 1`` states that
    emit ``N`` in step, so the pair graph is one path of ``steps`` steps.
    Chain states leave on distinct data symbols (0 and 1) to a sink, and
    the chains end on disjoint codewords ({0, 1} and {2, N}). State
    ``1 + i`` is the first chain's i-th state, ``2 + steps + i`` the
    second's, and the last state is the sink.
    """
    length = steps + 1
    sink = 1 + 2 * length
    lines = [f"ENC 3 1 1 {sink + 1} 0", "0 0 N 1", f"0 1 N {1 + length}"]
    for i in range(length):
        a, b = 1 + i, 1 + length + i
        if i < steps:
            lines += [f"{a} 0 N {a + 1}", f"{a} 1 0 {sink}",
                      f"{b} 0 N {b + 1}", f"{b} 1 1 {sink}"]
        else:
            lines += [f"{a} 0 0 {sink}", f"{a} 1 1 {sink}",
                      f"{b} 0 2 {sink}", f"{b} 1 N {sink}"]
    lines += [f"{sink} 0 N {sink}", f"{sink} 1 0 {sink}"]
    return "\n".join(lines) + "\n"
