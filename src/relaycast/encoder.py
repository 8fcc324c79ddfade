"""Finite-state encoder synthesis by state splitting, with exact inversion.

A rate p:n encoder maps p input bits per step to an n-symbol block while
keeping the concatenated output admissible. Construction:

1. take the n-th power of the two-state presentation,
2. find the integer weight vector x of least sum with ``A x >= 2**p x``
   (2**p choices per state are sustainable), on the closed-form 2x2
   adjacency ``A`` and before step 1 builds any path,
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
chunk of up to 8 message bits (one block when p >= 5), as ``encode``
does, and keeps a back-pointer per state; by the certificate, every path
surviving the flush merges within it, and one walk back recovers the
message bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import chain, combinations, islice, repeat
from operator import getitem
from typing import Dict, List, Sequence, Tuple

from .constraint import (ConstraintGraph, Matrix, _label_order,
                         _label_symbols, _past_capacity, _power_adjacency,
                         capacity, make_constraint, power_graph)
from .errors import (AmbiguousEncoderError, EncoderFormatError,
                     EnumerationCapError, FramingError, InfeasibleRateError,
                     StateSplitError, StreamFormatError, UnknownCodewordError)
from .symbols import (Word, _CanonicalSymbols, _check_int, _check_iterable,
                      _check_type, _coded, _normalize_bits, _row_code, _spell,
                      _Symbols, _Table, format_stream, is_decimal)

_PATH_BUDGET = 1 << 18  # power-graph paths; synthesis holds ~480 B per path
# Machines kept by each of the two memos, built by rate and parsed by
# text. One with a warm decode table holds a few MB ((1,11,16): about
# 3 MB), so each keeps only a handful.
_MEMO_SIZE = 8

Transition = Tuple[Word, int]


# ---------------------------------------------------------------------------
# approximate eigenvector

@dataclass(frozen=True)
class ApproxEigenvector:
    """Integer certificate: ``vector != 0`` and ``A vector >= 2**p vector``."""

    vector: Tuple[int, ...]
    p: int


def _simplest_fraction(low_num, low_den, high_num, high_den):
    """Least ``(num, den)`` with ``num/den`` in ``[low, high]``, ``low > 0``.

    A Stern-Brocot descent: every other fraction in the interval has a
    larger numerator and a larger denominator.
    """
    # the answer is (p0*y + p1) / (q0*y + q1) for the y still sought
    p0, q0, p1, q1 = 1, 0, 0, 1
    while True:
        k, r = divmod(low_num, low_den)
        if r == 0 or (k + 1) * high_den <= high_num:
            k += r != 0  # the least integer in the interval
            return p0 * k + p1, q0 * k + q1
        # both ends lie in (k, k+1): y = 1 / (answer - k)
        p0, q0, p1, q1 = p0 * k + p1, q0 * k + q1, p0, q0
        low_num, low_den, high_num, high_den = (
            high_den, high_num - k * high_den, low_den, r)


def find_approximate_eigenvector(adjacency: Matrix, p: int) -> ApproxEigenvector:
    """The nonzero integer x of least sum with ``adjacency @ x >= 2**p x``.

    The sum is the state count splitting gives. With ``t = 2**p`` and
    ``[[a, b], [c, d]]``: (1, 0) if ``a >= t``, else (0, 1) if ``d >= t``,
    else ``x1/x2`` is the simplest fraction in ``[(t-d)/c, b/(t-a)]``,
    nonempty exactly when ``b*c >= (t-a)*(t-d)``; all in integers.
    Raises :class:`InfeasibleRateError` when no x exists, i.e. p bits
    per block are not sustainable. ``adjacency`` is 2x2, as
    ``_power_adjacency`` gives; it and ``p`` are not checked.
    """
    (a, b), (c, d) = adjacency
    # No x exists once 2**p passes every row sum: x's largest entry
    # would need more than its row gives. This also keeps 1 << p small.
    if p < max(a + b, c + d).bit_length():
        t = 1 << p
        if a >= t:
            return ApproxEigenvector((1, 0), p)
        if d >= t:
            return ApproxEigenvector((0, 1), p)
        if b * c >= (t - a) * (t - d):
            return ApproxEigenvector(_simplest_fraction(t - d, c, b, t - a), p)
    raise _infeasible(p)


def _infeasible(p: int) -> InfeasibleRateError:
    return InfeasibleRateError(
        f"no nonzero weight vector supports {_spell(p)} bits per block "
        f"for this adjacency")


# ---------------------------------------------------------------------------
# state splitting

def split_states(g: ConstraintGraph, x: ApproxEigenvector) -> ConstraintGraph:
    """Out-split states until every weight is 1.

    Zero-weight states are dropped first. Each round splits the heaviest
    state (ties: lowest index) in two, giving the first descendant the
    smallest workable weight (1 when possible). The state's outgoing
    edges, ordered by descending head weight then label, are cut
    greedily into two groups whose edge-weight sums stay at least
    ``2**p`` times the descendant weights; edges entering the split
    state are duplicated to both descendants. The result has
    ``sum(x.vector)`` states, every one with at least ``2**p`` outgoing
    edges; the number of rounds performed is ``sum(x.vector)`` minus the
    number of nonzero weights. A vector of all ones returns ``g`` itself.
    ``x`` satisfies the weight inequality, as synthesis's vectors do; it
    is not checked. :class:`StateSplitError` is raised when the greedy
    cut misses a partition, which may exist (``build_encoder(3, 6, 5)``).
    """
    if all(w == 1 for w in x.vector):
        return g
    target = 1 << x.p

    keep = [i for i, w in enumerate(x.vector) if w]
    at = {old: new for new, old in enumerate(keep)}
    names = [g.states[i] for i in keep]
    weights = [x.vector[i] for i in keep]
    # A state is its position. out[s] maps a head position to the label
    # ranks of the edges s -> head.
    out = [{at[d]: ranks for d, ranks in g.out[i].items() if d in at}
           for i in keep]

    while True:
        heaviest = max(weights)
        if heaviest <= 1:
            break
        u = weights.index(heaviest)
        # (minus head weight, label rank, head)
        outgoing = sorted((-weights[d], r, d)
                          for d, ranks in out[u].items() for r in ranks)
        # The weight inequality holds for every state after every round,
        # so the out-weight is at least target * heaviest and some prefix
        # covers each first_weight below heaviest.
        out_weight = -sum(e[0] for e in outgoing)
        for first_weight in range(1, heaviest):
            acc = 0
            for cut, e in enumerate(outgoing, 1):
                acc -= e[0]
                if acc >= target * first_weight:
                    break
            if out_weight - acc >= target * (heaviest - first_weight):
                break
        else:
            raise StateSplitError(
                f"state {names[u]!r} admits no weight-consistent partition")

        # u becomes u.0 at position u and u.1 at position u+1; every head
        # past u moves up one, and every edge into u gains a copy into u+1.
        first: Dict[int, List[int]] = {}
        second: Dict[int, List[int]] = {}
        for i, (_, r, d) in enumerate(outgoing):
            (first if i < cut else second).setdefault(d, []).append(r)
        out[u:u + 1] = [first, second]
        for s, heads in enumerate(out):
            out[s] = {d + (d > u): ranks for d, ranks in heads.items()}
            if u in heads:
                out[s][u + 1] = heads[u]
        names[u:u + 1] = [names[u] + ".0", names[u] + ".1"]
        weights[u:u + 1] = [first_weight, heaviest - first_weight]

    # Every state has 2**p out-edges or more, as prune_to_encoder needs: x
    # satisfies the weight inequality, each cut and the copies of edges into
    # u keep it, and unit weights make every out-weight the out-degree.
    return ConstraintGraph(g.q, tuple(names), g.words, out)


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
        big-endian number, so a row holds at most 256 entries. With one
        block per chunk (p >= 5) this is ``transitions`` itself.
        """
        if self._chunk_blocks == 1:
            return self.transitions
        return _Table(partial(_chunk_row, self.transitions,
                              self._chunk_blocks))

    @cached_property
    def _chunk_codes(self):
        """``[state]``, for q <= 255: the byte code of each codeword of
        ``_chunk_table[state]``, or with one block per chunk (p >= 5) one
        bytes object, tag t's codeword at byte ``t * n``."""
        return _Table(partial(_row_code, self._chunk_table,
                              self._chunk_blocks == 1))


def _chunk_row(transitions, blocks, state):
    """The ``blocks``-fold composed transitions out of ``state``; rows
    are built on first use, so a state never reached at a chunk boundary
    costs nothing."""
    row = [((), state)]
    for _ in range(blocks):
        row = [(word + step, nxt) for word, at in row
               for step, nxt in transitions[at]]
    return tuple(row)


def _codeword_index(transitions) -> Tuple[Dict[Word, tuple], ...]:
    """Per state: codeword -> ((tag, next), ...), in tag order.

    Each state's row is iterated once, as ``(codeword, next)`` pairs in
    tag order; any hashable key may stand for a codeword.
    """
    index = []
    for outs in transitions:
        lookup: Dict[Word, tuple] = {}
        for tag, (word, nxt) in enumerate(outs):
            lookup[word] = lookup.get(word, ()) + ((tag, nxt),)
        index.append(lookup)
    return tuple(index)


class _SubsetTable:
    """Decode steps over candidate-state tuples, built on first sight.

    A row belongs to one sorted tuple of machine states and maps a key
    to ``(next tuple, next row, back-pointers)``, where the back-pointer
    of each next state is ``(index in the tuple, tag bits)``. A key is
    one block (n symbols or stream tokens, p tag bits) or one chunk of
    ``k = encoder._chunk_blocks`` blocks (k·n of them, k·p tag bits),
    whose step is composed from its blocks' steps; a row holds at most
    ``len(tuple) * 2**(k*p)`` chunk keys of symbols and as many of
    tokens. A block of tokens is stored only in its canonical spelling
    (``0``, not ``00``), and a chunk only when all its blocks were, so a
    row grows with the codewords seen, not with the spellings sent, and
    a valid stream's tokens are converted once per row, not per sight.
    Only blocks that match a transition are stored, so every error is
    raised afresh with the index of its own block. One token table
    serves the table's whole life and keeps only canonical tokens, so
    each is converted once per machine. Rows are filled by ``dict``
    stores of equal values, so concurrent decoders at worst repeat a
    step.
    """

    def __init__(self, encoder: Encoder):
        self._by_codeword = encoder._by_codeword
        self._tag_format = f"0{encoder.p}b"
        self._n = encoder.n
        self._symbols = _CanonicalSymbols(encoder.q)
        self._rows: Dict[Tuple[int, ...], dict] = {}
        first = (encoder.start_state,)
        self.start = (first, self._rows.setdefault(first, {}))

    def advance(self, states, row, key, index):
        """The step from ``states`` on ``key``, stored in ``row``.

        ``index`` is the number of the key's first block. A chunk is
        stepped block by block, through the steps ``row`` and the rows
        after it already hold, so its errors are its blocks' errors.
        Tokens of a block are checked and converted as
        :func:`parse_stream` does.
        """
        n = self._n
        if len(key) > n:
            at, stored, path = row, True, []
            for i in range(0, len(key), n):
                block = key[i:i + n]
                step = at.get(block)
                if step is None:
                    step = self.advance(states, at, block, index + i // n)
                    stored = stored and block in at
                states, at, links = step
                path.append(links)
            path.reverse()
            back = []
            for j in range(len(states)):
                tags = []
                for links in path:
                    j, tag = links[j]
                    tags.append(tag)
                tags.reverse()
                back.append((j, "".join(tags)))
            step = (states, at, tuple(back))
            # a stored block is all symbols or all tokens; so must the chunk be
            if stored and len({isinstance(s, str) for s in key[::n]}) == 1:
                row[key] = step
            return step
        tokens = list(map(isinstance, key, repeat(str)))
        if not any(tokens):
            symbols, canonical = key, True
        elif all(tokens):
            symbols = tuple(map(self._symbols.__getitem__, key))
            canonical = key == tuple(map(str, symbols))
        else:  # a block mixing symbols and tokens is never stored
            token = self._symbols.__getitem__
            symbols = tuple(token(s) if t else s for s, t in zip(key, tokens))
            canonical = False
        moves: Dict[int, tuple] = {}
        for j, state in enumerate(states):
            for tag, nxt in self._by_codeword[state].get(symbols, ()):
                if nxt in moves:
                    raise AmbiguousEncoderError(
                        "two decode paths converged; machine certificate broken")
                moves[nxt] = (j, format(tag, self._tag_format))
        if not moves:
            raise UnknownCodewordError(
                f"block {index} ({format_stream(symbols)}) matches no transition")
        after = tuple(sorted(moves))
        step = (after, self._rows.setdefault(after, {}),
                tuple(moves[s] for s in after))
        if canonical:
            row[key] = step
        return step


def _pair_successors(index, pair, spell) -> set:
    """Pairs ``pair`` reaches by emitting a common codeword from both members.

    Walks only the codewords both members emit. A pair that collapses
    onto a single state raises :class:`AmbiguousEncoderError`, naming the
    first such codeword in the first member's tag order.
    """
    a, b = pair
    a_index, b_index = index[a], index[b]
    following = set()
    for word in a_index.keys() & b_index.keys():
        for _, ta in a_index[word]:
            for _, tb in b_index[word]:
                following.add((min(ta, tb), max(ta, tb)))
    if any(ta == tb for ta, tb in following):
        word = next(w for w in a_index if w in b_index
                    and {t for _, t in a_index[w]} & {t for _, t in b_index[w]})
        raise AmbiguousEncoderError(
            f"states {a} and {b} merge on {format_stream(spell(word))!r}")
    return following


def _anticipation(index, spell=lambda word: word) -> int:
    """Lookahead blocks needed to resolve shared codewords, or raise.

    ``index`` is per state: codeword -> ((tag, next), ...), in tag order,
    where a codeword may be stood for by any key, such as its label
    rank, that ``spell`` turns back into its symbols for a message.
    Walks the graph over unordered state pairs reachable by emitting a
    common codeword from both members, from the pairs a state forks
    into, expanding each pair once. A pair that collapses onto a single
    state, or that can be prolonged forever, can never be told apart,
    so the machine is rejected. Returns 0 for a machine whose codewords
    are distinct at every state, else 1 + the longest pair path.
    """
    # a shared codeword forks into the pairs of its heads; many codewords
    # share one group of heads, so each group is read once (built from a
    # list: tuple() of an iterator leaves ~0.1 MB of resized tuples free)
    groups = {tuple([nxt for _, nxt in moves]) for by_word in index
              for moves in by_word.values() if len(moves) > 1}
    forks = set()
    for heads in groups:
        for a, b in combinations(heads, 2):
            if a == b:
                state, word, a = next(
                    (state, word, a) for state, by_word in enumerate(index)
                    for word, moves in by_word.items()
                    for (_, a), (_, b) in combinations(moves, 2) if a == b)
                raise AmbiguousEncoderError(
                    f"state {state} emits {format_stream(spell(word))!r} "
                    f"to state {a} under two different tags")
            forks.add((min(a, b), max(a, b)))
    successors: Dict[Tuple[int, int], set] = {}
    stack = sorted(forks)
    while stack:
        pair = stack.pop()
        if pair not in successors:
            successors[pair] = _pair_successors(index, pair, spell)
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


def prune_to_encoder(g: ConstraintGraph, p: int, n: int) -> Encoder:
    """Delete surplus edges down to 2**p per state and assign tags.

    Keeps the lexicographically smallest codewords at each state,
    preferring distinct codewords and filling with duplicates only when
    the state does not offer 2**p distinct ones. Tags follow codeword
    order. States that become unreachable from the start state (the
    first descendant of OFF, index 0) are dropped.

    The anticipation certificate works on label ranks, and each kept
    codeword is spelled as symbols once. The machine builds its codeword
    index on its first decode: the memo keeps machines whether or not
    they are decoded, and the index is about half of a fresh machine's
    memory (0.85 of 1.65 MB for (1,11,16)). ``g`` is a split graph of
    n-symbol labels, with ``2**p`` out-edges or more per state, unchecked.
    """
    q = g.q
    words = g.words
    fanout = 1 << p
    # per state, the kept label ranks and, tag by tag, their heads
    ranks: List[List[int]] = []
    heads: List[List[int]] = []
    for row in g.out:
        # equal ranks are equal words, so a duplicate codeword follows
        # its first copy directly
        outgoing = _label_order(row)
        primaries, duplicates = [], []
        last = None
        for edge in outgoing:
            (duplicates if edge[0] == last else primaries).append(edge)
            last = edge[0]
        kept = sorted((primaries + duplicates)[:fanout])
        ranks.append([r for r, _ in kept])
        heads.append([d for _, d in kept])

    start = 0
    reachable = {start}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        for d in heads[state]:
            if d not in reachable:
                reachable.add(d)
                frontier.append(d)
    order = sorted(reachable)
    renumber = {old: new for new, old in enumerate(order)}
    ranks = [ranks[old] for old in order]
    heads = [[renumber[d] for d in heads[old]] for old in order]
    distinct = list(set(chain.from_iterable(ranks)))
    symbols = _label_symbols(q, map(words.__getitem__, distinct))
    codewords = dict(zip(distinct, zip(*[symbols] * n)))
    transitions = tuple(tuple(zip(map(codewords.__getitem__, r), h))
                        for r, h in zip(ranks, heads))
    index = _codeword_index([zip(r, h) for r, h in zip(ranks, heads)])
    return Encoder(q=q, p=p, n=n, start_state=renumber[start],
                   transitions=transitions,
                   anticipation=_anticipation(index, codewords.__getitem__))


def build_encoder(q: int, p: int, n: int) -> Encoder:
    """Synthesize the rate p:n machine for q data symbols plus silence.

    Deterministic in (q, p, n), so the machine is memoised: every call
    with the same rate in one process returns the same frozen
    :class:`Encoder`, shared by all callers, and its decode table stays
    warm between calls. The machines of the 8 most recently used rates
    are kept. Raises :class:`InfeasibleRateError` when p/n exceeds the
    capacity, :class:`EnumerationCapError` when the power graph has more
    than ``2**18`` paths; a rate that fails raises again on every call.
    """
    # the rate's one check, which the stages rely on: before the lookup, so
    # that True, 2.0 or [2] never reach the cache; q, then n (as "power"),
    # then p, the order and names that the error messages pin
    _check_int(q, "q")
    _check_int(n, "power")
    _check_int(p, "p")
    return _synthesize(q, p, n)


@lru_cache(maxsize=_MEMO_SIZE)
def _synthesize(q: int, p: int, n: int) -> Encoder:
    """The stage chain of :func:`build_encoder`, on checked arguments."""
    x = _weights(q, p, n)
    return prune_to_encoder(split_states(power_graph(make_constraint(q), n), x),
                            p, n)


def _weights(q: int, p: int, n: int) -> ApproxEigenvector:
    """The weight vector of rate p:n, from the 2x2 counts alone.

    An infeasible or over-budget rate fails here, before any path is
    built, and within milliseconds for every q, p and n: counting stops
    past ``2**64`` paths per state, and such a rate is over budget
    unless p/n is past capacity.
    """
    adjacency = _power_adjacency(q, n)
    if adjacency is None:
        if _past_capacity(q, p, n):
            raise _infeasible(p)
        paths = "over 2**64"
    else:
        x = find_approximate_eigenvector(adjacency, p)
        paths = sum(map(sum, adjacency))
        if paths <= _PATH_BUDGET:
            return x
    raise EnumerationCapError(
        f"rate {_spell(p)}:{_spell(n)} for q={_spell(q)} needs {paths} "
        f"power-graph paths, over the synthesis budget of {_PATH_BUDGET}")


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


def encode(encoder: Encoder, bits) -> Tuple[Word, FrameHeader]:
    """Map a bit string to an admissible symbol stream.

    Consumes p bits per block from the start state, zero-padding the tail
    to a multiple of p, then appends ``encoder.anticipation`` flush
    blocks (always tag 0, so p zero bits each, appended to the padded
    bits) so that decoding can resolve shared codewords even at the end
    of the stream. Empty input maps to the empty stream.

    Chunks of up to 8 bits (``8 // p`` blocks) cost one lookup each in
    the encoder's chunk table. A last chunk of fewer blocks is looked up
    padded with zero tags, and the symbols of the padding blocks are cut
    off: a block's codeword depends only on the blocks before it. When p
    divides 8 a chunk is a byte, and the chunk values are the bytes of
    the bits read as one number. Any ``encoder`` but an :class:`Encoder`
    raises :class:`InvalidParameterError`.

    For q <= 255 the stream is a private ``tuple`` subclass that also
    holds its byte code (see :mod:`relaycast.symbols`), joined from codes
    kept per chunk-table row; for q > 255 it is a plain tuple.
    """
    _check_type(encoder, Encoder, "encoder")
    text = _normalize_bits(bits)
    length = len(text)
    if length == 0:
        return (), FrameHeader(0, 0)
    p, n = encoder.p, encoder.n
    pad = (-length) % p
    text += "0" * (pad + p * encoder.anticipation)
    symbols = len(text) // p * n
    width = encoder._chunk_blocks * p
    text += "0" * (-len(text) % width)
    if width == 8:
        values = int(text, 2).to_bytes(len(text) // 8, "big")
    else:
        values = [int(text[i:i + width], 2) for i in range(0, len(text), width)]
    table = encoder._chunk_table
    out: List = []
    states = []  # the state each chunk leaves from
    state = encoder.start_state
    for value in values:
        states.append(state)
        word, state = table[state][value]
        out.extend(word)
    del out[symbols:]
    header = FrameHeader(length, pad)
    if encoder.q > 255:
        return tuple(out), header
    codes = encoder._chunk_codes
    parts = ((codes[s][v * n:v * n + n] for s, v in zip(states, values))
             if encoder._chunk_blocks == 1 else
             map(getitem, map(codes.__getitem__, states), values))
    return _coded(out, parts), header


def decode(encoder: Encoder, word: Sequence, header: FrameHeader) -> str:
    """Recover the original bits; exact inverse of :func:`encode`.

    The decoder's state is the tuple of machine states the blocks so far
    allow (shared codewords keep several alive). As in :func:`encode`,
    the message's whole chunks of ``k = max(1, 8 // p)`` blocks cost one
    lookup each in the encoder's subset table; the blocks after them,
    flush included, cost one lookup each. A lookup gives the next tuple
    and a back-pointer per next state: its index in the previous tuple
    and its tag bits. The table is filled on first sight of a (tuple,
    chunk or block) pair, a chunk's step composed from its blocks'
    steps, and kept on the encoder, so it grows only with the candidate
    sets and codewords actually seen. After the last block every
    survivor is walked back through the flush; the certificate merges
    them there into one path, which is walked back to block 0. Time and
    memory are O(blocks).

    ``word`` holds symbols or stream tokens (``"0"``, ``"N"``, ...), such
    as ``text.split()``; a token block is checked and converted as
    :func:`parse_stream` does when the table first sees it, each
    distinct token once per machine, and then costs one lookup like any
    block (a block spelled otherwise, as ``00`` for ``0``, is converted
    at every sight). Stray streams that match no transition raise
    :class:`UnknownCodewordError` at the offending block, and a bad
    token :class:`StreamFormatError` at its block, inside a chunk too.
    Framing is checked first, so unlike ``parse_stream`` then
    ``decode``, a bad token in a stream of the wrong length reports
    the length. A ``word`` that is not iterable, is a ``str`` or holds
    an unhashable symbol raises :class:`StreamFormatError`, and an
    ``encoder`` that is not an :class:`Encoder` or a ``header`` that is
    not a :class:`FrameHeader` :class:`InvalidParameterError`.
    """
    _check_type(encoder, Encoder, "encoder")
    _check_iterable(word, "word", "a sequence of symbols or tokens")
    _check_type(header, FrameHeader, "header")
    # a list, such as text.split(), and any tuple are read in place
    stream = (word if type(word) is list or isinstance(word, tuple)
              else tuple(word))
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

    n = encoder.n
    k = encoder._chunk_blocks
    # blocks in whole chunks; a chunk of one block is read as a block
    whole = message_blocks - message_blocks % k if k > 1 else 0
    table = encoder._subset_table
    states, row = table.start
    history = []  # per chunk, then per block: the shared back-pointer tuple
    symbols = iter(stream)
    try:
        # the whole chunks, then the rest block by block; a key's first
        # block is number len(history) * blocks + offset
        for keys, blocks, offset in (
                (islice(zip(*[symbols] * (k * n)), whole // k), k, 0),
                (zip(*[symbols] * n), 1, whole - whole // k)):
            for key in keys:
                step = row.get(key)
                if step is None:
                    step = table.advance(states, row, key,
                                         len(history) * blocks + offset)
                states, row, back = step
                history.append(back)
    except TypeError as exc:  # hashing a key hashes its symbols
        raise StreamFormatError(
            f"word holds an unhashable symbol: {exc}") from None

    # survivors not merged within the flush differ in some message tag
    message = len(history) - encoder.anticipation
    live = range(len(states))
    for back in reversed(history[message:]):
        live = {back[j][0] for j in live}
    if len(live) != 1:
        raise AmbiguousEncoderError("flush failed to single out the message")
    (j,) = live
    tags = [""] * message
    for i in range(message - 1, -1, -1):
        j, tags[i] = history[i][j]
    return "".join(tags)[:length]


# ---------------------------------------------------------------------------
# reporting and serialization

@dataclass(frozen=True)
class EncoderReport:
    """A machine's rate p/n, the capacity of its q, their ratio and its
    number of states."""

    q: int
    p: int
    n: int
    rate: float
    capacity: float
    efficiency: float
    num_states: int


def encoder_report(encoder: Encoder) -> EncoderReport:
    """Rate, capacity, and their ratio for a built machine (an
    :class:`Encoder`, else :class:`InvalidParameterError`)."""
    _check_type(encoder, Encoder, "encoder")
    cap = capacity(encoder.q)
    rate = encoder.p / encoder.n
    return EncoderReport(q=encoder.q, p=encoder.p, n=encoder.n, rate=rate,
                         capacity=cap, efficiency=rate / cap,
                         num_states=encoder.num_states)


def serialize_encoder(encoder: Encoder) -> str:
    """Line-oriented text form.

    Header ``ENC q p n num_states start_state``, then one line per
    transition: ``<state> <tag> <codeword tokens> <next_state>``. Any
    ``encoder`` but an :class:`Encoder` raises :class:`InvalidParameterError`.
    """
    _check_type(encoder, Encoder, "encoder")
    lines = [f"ENC {encoder.q} {encoder.p} {encoder.n} "
             f"{encoder.num_states} {encoder.start_state}"]
    for state, outs in enumerate(encoder.transitions):
        for tag, (word, nxt) in enumerate(outs):
            lines.append(f"{state} {tag} {format_stream(word)} {nxt}")
    return "\n".join(lines) + "\n"


def parse_encoder(text: str) -> Encoder:
    """Inverse of :func:`serialize_encoder`; re-verifies decodability.

    Malformed text, or any ``text`` but a str, raises
    :class:`EncoderFormatError`, again on every call. The machine is
    memoised on the text, as :func:`build_encoder`'s is on the rate:
    every call with the same text in one process returns the same frozen
    :class:`Encoder`, shared by all callers, and its encode and decode
    tables stay warm between calls. The machines of the 8 most recently
    parsed texts are kept.
    """
    _check_type(text, str, "text", EncoderFormatError)
    # the memo's key is an exact str: a subclass's own __eq__ and __hash__
    # could otherwise fetch the machine of another text
    return _parse(str.__str__(text))


@lru_cache(maxsize=_MEMO_SIZE)
def _parse(text: str) -> Encoder:
    """The body of :func:`parse_encoder`, on a checked exact str."""
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
    token = _Symbols(q).__getitem__  # one token table for the whole file
    for line in lines[1:]:
        parts = line.split()
        if (len(parts) != 3 + n
                or not all(map(is_decimal, (parts[0], parts[1], parts[-1])))):
            raise EncoderFormatError(f"bad transition line {line!r}")
        state, tag, nxt = int(parts[0]), int(parts[1]), int(parts[-1])
        try:
            word = tuple(map(token, parts[2:-1]))
        except StreamFormatError as exc:
            raise EncoderFormatError(f"bad transition line {line!r}") from exc
        if not 0 <= state < num_states or not 0 <= tag < fanout:
            raise EncoderFormatError(f"state or tag out of range in {line!r}")
        if (state, tag) in table:
            raise EncoderFormatError(f"duplicate transition for state "
                                     f"{state} tag {tag}")
        table[(state, tag)] = (word, nxt)
    transitions = tuple(
        tuple(table[(state, tag)] for tag in range(fanout))
        for state in range(num_states))
    for outs in transitions:
        for _, nxt in outs:
            if nxt >= num_states:
                raise EncoderFormatError(f"transition target {nxt} out of range")
    if start >= num_states:
        raise EncoderFormatError(f"start state {start} out of range")
    index = _codeword_index(transitions)
    encoder = Encoder(q=q, p=p, n=n, start_state=start,
                      transitions=transitions,
                      anticipation=_anticipation(index))
    # a parsed machine is decoded at once, so it keeps the index its
    # certificate was built from; this fills the cached property
    vars(encoder)["_by_codeword"] = index
    return encoder
