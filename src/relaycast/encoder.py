"""Finite-state encoder synthesis by state splitting, with exact inversion.

A rate p:n encoder maps p input bits per step to an n-symbol block while
keeping the concatenated output admissible. Construction:

1. take the n-th power of the two-state presentation,
2. find a small integer weight vector x with ``A x >= 2**p x`` per
   component (a certificate that 2**p choices per state are sustainable),
3. out-split heavy states until every weight is 1, at which point every
   surviving state has at least 2**p outgoing edges,
4. delete surplus edges down to exactly 2**p per state and assign input
   tags in codeword order.

Out-splitting duplicates every edge that enters a split state, so two
transitions of the finished machine can share a codeword. Instead of
demanding distinct codewords per state (impossible at these rates: from
a state entered on a data-final block only silence-initial blocks exist,
and there are fewer than 2**p of them), the builder certifies bounded
lookahead decodability: it follows every pair of states reachable by
emitting identical blocks and verifies the pair dies out within a fixed
number of blocks, the machine's *anticipation*. ``encode`` appends that
many fixed flush blocks so the lookahead always has material. ``decode``
follows the set of label-consistent states with one table lookup per
block and keeps a back-pointer per state; by the certificate, every path
surviving the flush merges within it, and one walk back recovers the
message bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from .constraint import (ConstraintGraph, Edge, Matrix, _perron, capacity,
                         make_constraint, matrix_vector, power_graph,
                         validate_matrix)
from .errors import (AmbiguousEncoderError, EncoderFormatError,
                     FramingError, InfeasibleRateError,
                     InsufficientDegreeError, InvalidParameterError,
                     NonUniformLabelError, StateSplitError, StreamFormatError,
                     UnknownCodewordError)
from .symbols import (Word, _check_int, format_stream, is_decimal,
                      parse_stream, word_ranks)

_PERRON_SCALE_LIMIT = 4096
_FEASIBILITY_CEILING = 1 << 20

Transition = Tuple[Word, int]


# ---------------------------------------------------------------------------
# approximate eigenvector

@dataclass(frozen=True)
class ApproxEigenvector:
    """Integer certificate: ``vector != 0`` and ``A vector >= 2**p vector``."""

    vector: Tuple[int, ...]
    p: int


def _franaszek_fixpoint(matrix, seed, target):
    """Largest fixpoint of ``x -> min(x, floor(A x / target))`` below seed.

    The map is monotone and decreasing, so iteration from any seed
    terminates; nonzero fixpoints are exactly the valid weight vectors.
    """
    x = list(seed)
    while True:
        ax = matrix_vector(matrix, x)
        y = [min(xi, axi // target) for xi, axi in zip(x, ax)]
        if y == x:
            return x
        x = y


def _reduced(vector):
    g = math.gcd(*vector)
    return tuple(v // g for v in vector)


def find_approximate_eigenvector(adjacency: Matrix, p: int) -> ApproxEigenvector:
    """Small nonzero integer vector with ``adjacency @ x >= 2**p * x``.

    Seeds the Franaszek fixpoint iteration with integer roundings of the
    Perron direction at increasing scales and returns the first nonzero
    fixpoint, gcd-reduced. A reducible matrix has no Perron direction;
    it gets the gcd-reduced fixpoint below a uniform ceiling, as does a
    matrix on which no scale succeeds. Raises :class:`InfeasibleRateError`
    when only the zero fixpoint exists, i.e. p bits per block are not
    sustainable. ``adjacency`` is 1x1 or 2x2.
    """
    matrix = validate_matrix(adjacency)
    _check_int(p, "p")
    target = 1 << p
    size = len(matrix)
    ceiling = _franaszek_fixpoint(matrix, [_FEASIBILITY_CEILING] * size, target)
    if not any(ceiling):
        raise InfeasibleRateError(
            f"no nonzero weight vector supports {p} bits per block "
            f"for this adjacency")
    _, direction = _perron(matrix)
    if direction is not None:
        for scale in range(1, _PERRON_SCALE_LIMIT + 1):
            seed = [max(1, round(scale * v)) for v in direction]
            x = _franaszek_fixpoint(matrix, seed, target)
            if any(x):
                return ApproxEigenvector(_reduced(x), p)
    return ApproxEigenvector(_reduced(ceiling), p)


# ---------------------------------------------------------------------------
# state splitting

def _restrict_to_support(g, weights):
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


def split_states(g: ConstraintGraph, x: ApproxEigenvector) -> ConstraintGraph:
    """Out-split states until every weight is 1.

    Each round splits the heaviest state (ties: lowest index) in two,
    giving the first descendant the smallest workable weight (1 when
    possible). The state's outgoing edges, ordered by descending head
    weight then label, are cut greedily into two groups whose edge-weight
    sums stay at least ``2**p`` times the descendant weights; edges
    entering the split state are duplicated to both descendants. The
    result has ``sum(x.vector)`` states, every one with at least ``2**p``
    outgoing edges; the number of rounds performed is
    ``sum(x.vector) - len(g.states)``.
    """
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

    g, weights = _restrict_to_support(g, list(x.vector))
    rank = word_ranks(e.word for e in g.edges)
    words = list(rank)  # rank order
    names = list(g.states)
    # States keep a fixed id; ids[i] is the state at position i. out[s]
    # maps a head id to the label ranks of the edges s -> head, so a
    # round rewrites only the split state's edges and the lists that
    # point at it.
    ids = list(range(len(names)))
    out: List[Dict[int, List[int]]] = [{} for _ in names]
    for e in g.edges:
        out[e.src].setdefault(e.dst, []).append(rank[e.word])

    while True:
        heaviest = max(weights)
        if heaviest <= 1:
            break
        u = weights.index(heaviest)
        uid = ids[u]
        pos = {sid: i for i, sid in enumerate(ids)}
        # (head weight, label rank, head position, head id), ordered by
        # descending head weight, then label, then current head position
        outgoing = sorted((-weights[pos[d]], r, pos[d], d)
                          for d, ranks in out[uid].items() for r in ranks)
        out_weight = -sum(e[0] for e in outgoing)
        partition = None
        for first_weight in range(1, heaviest):
            acc = 0
            cut = None
            for i, e in enumerate(outgoing):
                acc -= e[0]
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

        # u becomes u.0 (keeping id uid) at position u and u.1 (new id
        # vid) at position u+1; every edge into u gains a copy into u.1.
        vid = len(out)
        first: Dict[int, List[int]] = {}
        second: Dict[int, List[int]] = {}
        for i, (_, r, _, d) in enumerate(outgoing):
            (first if i < cut else second).setdefault(d, []).append(r)
        out[uid] = first
        out.append(second)
        for heads in out:
            if uid in heads:
                heads[vid] = list(heads[uid])
        ids.insert(u + 1, vid)
        names[u:u + 1] = [names[u] + ".0", names[u] + ".1"]
        weights[u:u + 1] = [first_weight, heaviest - first_weight]

    pos = {sid: i for i, sid in enumerate(ids)}
    edges = []
    for src, sid in enumerate(ids):
        row = sorted((r, pos[d]) for d, ranks in out[sid].items() for r in ranks)
        if len(row) < target:
            raise StateSplitError("splitting left a state short of out-degree 2**p")
        edges.extend(Edge(src, dst, words[r]) for r, dst in row)
    return ConstraintGraph(q=g.q, states=tuple(names), edges=tuple(edges))


# ---------------------------------------------------------------------------
# the encoder machine

@dataclass(frozen=True)
class Encoder:
    """Immutable rate p:n machine. ``transitions[state][tag] = (codeword, next)``."""

    q: int
    p: int
    n: int
    start_state: int
    transitions: Tuple[Tuple[Transition, ...], ...]
    anticipation: int

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    @property
    def rate(self) -> float:
        return self.p / self.n

    @cached_property
    def _by_codeword(self):
        return _codeword_index(self.transitions)

    @cached_property
    def _subset_table(self) -> _SubsetTable:
        return _SubsetTable(self)

    @property
    def _chunk_blocks(self) -> int:
        """Blocks per encode-table lookup: as many as fit in one byte."""
        return max(1, 8 // self.p)

    @cached_property
    def _chunk_table(self):
        """``[state][v] = (codeword symbols, state after)`` for a chunk.

        A chunk is ``_chunk_blocks`` blocks, ``v`` their bits read as one
        big-endian number. With one block per chunk (p >= 5) this is
        ``transitions`` itself.
        """
        if self._chunk_blocks == 1:
            return self.transitions
        return _ChunkTable(self.transitions, self._chunk_blocks)


class _ChunkTable(dict):
    """Rows of the k-fold composed transitions, built per state on first use.

    A row holds ``2**(k*p)`` entries, at most 256, so the table holds at
    most ``num_states * 256``; rows of states an encoding never reaches
    at a chunk boundary are never built. Concurrent encoders at worst
    build one row twice and store equal values.
    """

    def __init__(self, transitions, blocks):
        super().__init__()
        self._transitions = transitions
        self._blocks = blocks

    def __missing__(self, state):
        row = [((), state)]
        for _ in range(self._blocks):
            row = [(word + step, nxt) for word, at in row
                   for step, nxt in self._transitions[at]]
        row = self[state] = tuple(row)
        return row


def _codeword_index(transitions) -> Tuple[Dict[Word, tuple], ...]:
    """Per state: codeword -> ((tag, next), ...), in tag order."""
    index = []
    for outs in transitions:
        lookup: Dict[Word, list] = {}
        for tag, (word, nxt) in enumerate(outs):
            lookup.setdefault(word, []).append((tag, nxt))
        index.append({w: tuple(v) for w, v in lookup.items()})
    return tuple(index)


class _SubsetTable:
    """Decode steps over candidate-state tuples, built on first sight.

    A row belongs to one sorted tuple of machine states and maps a block
    to ``(next tuple, next row, back-pointers)``, where the back-pointer
    of each next state is ``(index in the tuple, p-bit tag string)``.
    Only blocks that match a transition are stored, so every error is
    raised afresh with the index of its own block. Rows are filled by
    ``dict`` stores of equal values, so concurrent decoders at worst
    repeat a step.
    """

    def __init__(self, encoder: Encoder):
        self._by_codeword = encoder._by_codeword
        self._tag_format = f"0{encoder.p}b"
        self._rows: Dict[Tuple[int, ...], dict] = {}
        first = (encoder.start_state,)
        self.start = (first, self._rows.setdefault(first, {}))

    def advance(self, states, row, block, index):
        """The step from ``states`` on ``block``, stored in ``row``."""
        moves: Dict[int, tuple] = {}
        for j, state in enumerate(states):
            for tag, nxt in self._by_codeword[state].get(block, ()):
                if nxt in moves:
                    raise AmbiguousEncoderError(
                        "two decode paths converged; machine certificate broken")
                moves[nxt] = (j, format(tag, self._tag_format))
        if not moves:
            raise UnknownCodewordError(
                f"block {index} ({format_stream(block)}) matches no transition")
        after = tuple(sorted(moves))
        step = (after, self._rows.setdefault(after, {}),
                tuple(moves[s] for s in after))
        row[block] = step
        return step


def _pair_successors(index, pair) -> set:
    """Pairs ``pair`` reaches by emitting a common codeword from both members.

    A pair that collapses onto a single state raises
    :class:`AmbiguousEncoderError`.
    """
    a, b = pair
    b_index = index[b]
    following = set()
    for word, a_moves in index[a].items():
        b_moves = b_index.get(word)
        if not b_moves:
            continue
        for _, ta in a_moves:
            for _, tb in b_moves:
                if ta == tb:
                    raise AmbiguousEncoderError(
                        f"states {a} and {b} merge on {format_stream(word)!r}")
                following.add((min(ta, tb), max(ta, tb)))
    return following


def _anticipation(index) -> int:
    """Lookahead blocks needed to resolve shared codewords, or raise.

    Walks the graph over unordered state pairs reachable by emitting a
    common codeword from both members, from the pairs a state forks
    into, expanding each pair once. A pair that collapses onto a single
    state, or that can be prolonged forever, can never be told apart,
    so the machine is rejected. Returns 0 for a machine whose codewords
    are distinct at every state, else 1 + the longest pair path.
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
    successors: Dict[Tuple[int, int], set] = {}
    stack = sorted(forks)
    while stack:
        pair = stack.pop()
        if pair not in successors:
            successors[pair] = _pair_successors(index, pair)
            stack.extend(successors[pair])
    # Peel pairs whose successors are all peeled, sinks first: a pair's
    # height is the number of pairs on its longest path. Pairs that can
    # reach a cycle are never peeled.
    predecessors: Dict[Tuple[int, int], list] = {pair: [] for pair in successors}
    unpeeled = {}
    for pair, following in successors.items():
        unpeeled[pair] = len(following)
        for nxt in following:
            predecessors[nxt].append(pair)
    ready = [pair for pair, count in unpeeled.items() if not count]
    height: Dict[Tuple[int, int], int] = {}
    while ready:
        pair = ready.pop()
        height[pair] = 1 + max(map(height.__getitem__, successors[pair]),
                               default=0)
        for before in predecessors[pair]:
            unpeeled[before] -= 1
            if not unpeeled[before]:
                ready.append(before)
    if len(height) < len(successors):
        pair = min(f for f in forks if f not in height)
        raise AmbiguousEncoderError(
            f"state pair {pair} can stay indistinguishable forever")
    return max((height[f] for f in forks), default=0)


def _assemble(q, p, n, start_state, transitions) -> Encoder:
    return Encoder(q=q, p=p, n=n, start_state=start_state,
                   transitions=transitions,
                   anticipation=_anticipation(_codeword_index(transitions)))


def prune_to_encoder(g: ConstraintGraph, q: int, p: int, n: int) -> Encoder:
    """Delete surplus edges down to 2**p per state and assign tags.

    Keeps the lexicographically smallest codewords at each state,
    preferring distinct codewords and filling with duplicates only when
    the state does not offer 2**p distinct ones. Tags follow codeword
    order. States that become unreachable from the start state (the
    first descendant of OFF, index 0) are dropped.
    """
    _check_int(q, "q")
    _check_int(p, "p")
    _check_int(n, "n")
    if g.q != q:
        raise InvalidParameterError(f"graph was built for q={g.q}, not q={q}")
    fanout = 1 << p
    by_src: List[List[Edge]] = [[] for _ in g.states]
    for e in g.edges:
        if len(e.word) != n:
            raise NonUniformLabelError(
                f"edge label {format_stream(e.word)!r} is not {n} symbols")
        by_src[e.src].append(e)
    rank = word_ranks(e.word for e in g.edges)

    def order(e):
        return (rank[e.word], e.dst)

    kept: List[List[Edge]] = []
    for state, outgoing in enumerate(by_src):
        if len(outgoing) < fanout:
            raise InsufficientDegreeError(
                f"state {g.states[state]!r} has out-degree {len(outgoing)}, "
                f"needs {fanout}")
        outgoing.sort(key=order)
        primaries, duplicates = [], []
        seen = set()
        for e in outgoing:
            (duplicates if e.word in seen else primaries).append(e)
            seen.add(e.word)
        chosen = (primaries + duplicates)[:fanout]
        chosen.sort(key=order)
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


def build_encoder(q: int, p: int, n: int) -> Encoder:
    """Synthesize the rate p:n machine for q data symbols plus silence.

    Deterministic in (q, p, n), so the machine is memoised: every call
    with the same rate in one process returns the same frozen
    :class:`Encoder`, shared by all callers, and its decode table stays
    warm between calls. The machines of the 8 most recently used rates
    are kept. Raises :class:`InfeasibleRateError` when p/n exceeds the
    capacity; a rate that fails raises again on every call.
    """
    # checked in the order the stages check them, before the lookup, so
    # that True, 2.0 or [2] never reach the cache
    _check_int(q, "q")
    _check_int(n, "power")
    _check_int(p, "p")
    return _synthesize(q, p, n)


# A machine with a warm decode table holds a few MB ((1,11,16): about
# 3 MB), so the memo keeps only a handful of rates.
@lru_cache(maxsize=8)
def _synthesize(q: int, p: int, n: int) -> Encoder:
    """The stage chain of :func:`build_encoder`, on checked arguments."""
    base = make_constraint(q)
    powered = power_graph(base, n)
    x = find_approximate_eigenvector(powered.adjacency, p)
    split = split_states(powered, x)
    return prune_to_encoder(split, q, p, n)


# ---------------------------------------------------------------------------
# encode / decode

@dataclass(frozen=True)
class FrameHeader:
    """Framing metadata returned by encode and required by decode."""

    bit_length: int
    pad: int

    def __post_init__(self):
        _check_int(self.bit_length, "bit_length", 0)
        _check_int(self.pad, "pad", 0)


def _normalize_bits(bits) -> str:
    if isinstance(bits, str):
        text = bits
    else:
        text = "".join(str(b) for b in bits)
    if text.strip("01"):
        raise StreamFormatError("bit strings may contain only 0 and 1")
    return text


def encode(encoder: Encoder, bits) -> Tuple[Word, FrameHeader]:
    """Map a bit string to an admissible symbol stream.

    Consumes p bits per block from the start state, zero-padding the tail
    to a multiple of p, then appends ``encoder.anticipation`` flush
    blocks (always tag 0, so p zero bits each, appended to the padded
    bits) so that decoding can resolve shared codewords even at the end
    of the stream. Empty input maps to the empty stream.

    Whole chunks of up to 8 bits (``8 // p`` blocks) cost one lookup
    each in the encoder's chunk table; the blocks after the last whole
    chunk are looked up one at a time.
    """
    text = _normalize_bits(bits)
    length = len(text)
    if length == 0:
        return (), FrameHeader(0, 0)
    p = encoder.p
    pad = (-length) % p
    text += "0" * (pad + p * encoder.anticipation)
    width = encoder._chunk_blocks * p
    whole = len(text) - len(text) % width
    table = encoder._chunk_table
    transitions = encoder.transitions
    out: List = []
    state = encoder.start_state
    for i in range(0, whole, width):
        word, state = table[state][int(text[i:i + width], 2)]
        out.extend(word)
    for i in range(whole, len(text), p):
        word, state = transitions[state][int(text[i:i + p], 2)]
        out.extend(word)
    return tuple(out), FrameHeader(length, pad)


def decode(encoder: Encoder, word: Sequence, header: FrameHeader) -> str:
    """Recover the original bits; exact inverse of :func:`encode`.

    The decoder's state is the tuple of machine states the blocks so far
    allow (shared codewords keep several alive). Each block costs one
    lookup in the encoder's subset table, which gives the next tuple and
    a back-pointer per next state: its index in the previous tuple and
    its tag. The table is filled on first sight of a (tuple, block) pair
    and kept on the encoder, so it grows only with the candidate sets
    and codewords actually seen. After the last block every survivor is
    walked back through the flush; the certificate merges them there
    into one path, which is walked back to block 0. Time and memory are
    O(blocks).

    Stray streams that match no transition raise
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

    table = encoder._subset_table
    states, row = table.start
    history = []  # per block, the shared back-pointer tuple
    for block in zip(*[iter(stream)] * encoder.n):
        step = row.get(block)
        if step is None:
            step = table.advance(states, row, block, len(history))
        states, row, back = step
        history.append(back)

    # survivors not merged within the flush differ in some message tag
    live = range(len(states))
    for back in reversed(history[message_blocks:]):
        live = {back[j][0] for j in live}
    if len(live) != 1:
        raise AmbiguousEncoderError("flush failed to single out the message")
    (j,) = live
    tags = [""] * message_blocks
    for i in range(message_blocks - 1, -1, -1):
        j, tags[i] = history[i][j]
    return "".join(tags)[:length]


# ---------------------------------------------------------------------------
# reporting and serialization

@dataclass(frozen=True)
class EncoderReport:
    q: int
    p: int
    n: int
    rate: float
    capacity: float
    efficiency: float
    num_states: int


def encoder_report(encoder: Encoder) -> EncoderReport:
    """Rate, capacity, and their ratio for a built machine."""
    cap = capacity(encoder.q)
    rate = encoder.p / encoder.n
    return EncoderReport(q=encoder.q, p=encoder.p, n=encoder.n, rate=rate,
                         capacity=cap, efficiency=rate / cap,
                         num_states=encoder.num_states)


def serialize_encoder(encoder: Encoder) -> str:
    """Line-oriented text form.

    Header ``ENC q p n num_states start_state``, then one line per
    transition: ``<state> <tag> <codeword tokens> <next_state>``.
    """
    lines = [f"ENC {encoder.q} {encoder.p} {encoder.n} "
             f"{encoder.num_states} {encoder.start_state}"]
    for state, outs in enumerate(encoder.transitions):
        for tag, (word, nxt) in enumerate(outs):
            lines.append(f"{state} {tag} {format_stream(word)} {nxt}")
    return "\n".join(lines) + "\n"


def parse_encoder(text: str) -> Encoder:
    """Inverse of :func:`serialize_encoder`; re-verifies decodability."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise EncoderFormatError("empty encoder text")
    header = lines[0].split()
    if (len(header) != 6 or header[0] != "ENC"
            or not all(map(is_decimal, header[1:]))):
        raise EncoderFormatError(f"bad header line {lines[0]!r}")
    q, p, n, num_states, start = map(int, header[1:])
    if q < 1 or p < 1 or n < 1 or num_states < 1:
        raise EncoderFormatError("header values must be positive")
    given = len(lines) - 1
    if p >= given.bit_length():  # fewer lines than one state's 2**p
        raise EncoderFormatError(
            f"p={p} needs 2**p transition lines per state, got {given}")
    fanout = 1 << p
    if given != num_states * fanout:
        raise EncoderFormatError(
            f"expected {num_states * fanout} transition lines, got {given}")
    table: Dict[Tuple[int, int], Transition] = {}
    for line in lines[1:]:
        parts = line.split()
        if (len(parts) != 3 + n
                or not all(map(is_decimal, (parts[0], parts[1], parts[-1])))):
            raise EncoderFormatError(f"bad transition line {line!r}")
        state, tag, nxt = int(parts[0]), int(parts[1]), int(parts[-1])
        try:
            word = parse_stream(" ".join(parts[2:-1]), q=q)
        except StreamFormatError as exc:
            raise EncoderFormatError(f"bad transition line {line!r}") from exc
        if not 0 <= state < num_states or not 0 <= tag < fanout:
            raise EncoderFormatError(f"state or tag out of range in {line!r}")
        if (state, tag) in table:
            raise EncoderFormatError(f"duplicate transition for state "
                                     f"{state} tag {tag}")
        table[(state, tag)] = (word, nxt)
    if len(table) != num_states * fanout:
        raise EncoderFormatError("missing transitions")
    transitions = tuple(
        tuple(table[(state, tag)] for tag in range(fanout))
        for state in range(num_states))
    for outs in transitions:
        for _, nxt in outs:
            if nxt >= num_states:
                raise EncoderFormatError(f"transition target {nxt} out of range")
    if start >= num_states:
        raise EncoderFormatError(f"start state {start} out of range")
    return _assemble(q, p, n, start, transitions)
