"""Finite-state encoder synthesis by state splitting, with exact inversion.

A rate p:n encoder maps p input bits per step to an n-symbol block while
keeping the concatenated output admissible. Construction:

1. take the n-th power of the two-state presentation,
2. find the integer weight vector x of least sum with ``A x >= 2**p x``
   on the closed-form 2x2 adjacency ``A``, before step 1 builds a path,
3. out-split heavy states until every weight is 1, when every surviving
   state has at least 2**p outgoing edges,
4. delete surplus edges down to 2**p per state, tags in codeword order.

Out-splitting duplicates every edge into a split state, so two
transitions can share a codeword (at these rates unavoidable). The
builder certifies bounded lookahead instead: every pair of states
reachable on identical blocks dies out within a fixed number of blocks,
the *anticipation*, and ``encode`` appends that many flush blocks.
``decode`` follows the set of label-consistent states, one table lookup
per chunk of up to 8 message bits, and walks back-pointers from the one
path the flush leaves. A codeword is a piece of the stream, held in the
stream's form: for q <= 255 its byte code (see :mod:`relaycast.symbols`),
so that encode joins codewords and decode looks up byte slices."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, chain, combinations
from operator import invert
from typing import Dict, List, Tuple

from .constraint import (ConstraintGraph, Matrix, _label_order,
                         _label_symbols, _past_capacity, _power_adjacency,
                         capacity, make_constraint, power_graph)
from .errors import (AmbiguousEncoderError, EncoderFormatError,
                     EnumerationCapError, FramingError, InfeasibleRateError,
                     StateSplitError, StreamFormatError, UnknownCodewordError)
from .symbols import (Stream, _chars_code, _check_int, _check_iterable,
                      _check_type, _chunk_values, _code_of, _Codes,
                      _normalize_bits, _read, _spell, _split, _Symbols, _Table,
                      format_stream, is_decimal)

_PATH_BUDGET = 1 << 18  # power-graph paths; synthesis holds ~480 B per path
# Machines kept by each of the two memos, built by rate and parsed by
# text. One with a warm decode table holds a few MB ((1,11,16): about
# 1.5 MB), so each keeps only a handful.
_MEMO_SIZE = 8


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
    state (ties: lowest index) in two, the first descendant with the
    smallest workable weight (1 when possible). Its outgoing edges, by
    descending head weight then label, are cut greedily into two groups
    whose edge-weight sums stay at least ``2**p`` times the descendant
    weights; edges into the split state are duplicated to both. The result
    has ``sum(x.vector)`` states, each with ``2**p`` or more outgoing
    edges, after ``sum(x.vector)`` minus the nonzero weights rounds; all
    ones return ``g`` itself. ``x`` satisfies the weight inequality,
    unchecked. :class:`StateSplitError` is raised when the greedy cut
    misses a partition, which may exist (``build_encoder(3, 6, 5)``)."""
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
    """Immutable rate p:n machine. ``transitions[state][tag] = (codeword,
    next)``; for q <= 255 a codeword is its byte code, as a stream is,
    converted once from any sequence of symbols given."""

    q: int
    p: int
    n: int
    start_state: int
    transitions: Tuple[Tuple[Tuple[Stream, int], ...], ...] = field(repr=False)
    anticipation: int

    def __post_init__(self):
        object.__setattr__(self, "transitions", _coded(self.q, self.transitions))

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
    def _encode_rows(self) -> _Table:
        """``[state]``: the state's encode row (see :func:`encode`)."""
        return _Table(_Row)


def _coded(q, transitions):
    """``transitions`` with each codeword as its byte code where it has one
    (q <= 255); the builders' tables, coded already, and junk stay as given."""
    try:
        kinds = {type(word) for word, _ in chain.from_iterable(transitions)}
        if q > 255 or kinds <= {bytes}:
            return transitions
        return tuple(tuple((_code_of(word) or word, nxt) for word, nxt in row)
                     for row in transitions)
    except (TypeError, ValueError):
        return transitions


class _Row(list):
    """A state's encode row, empty until :func:`_fill` fills it: at chunk
    value v the row after the chunk, at ``~v`` the chunk's codewords."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        super().__init__()
        self.state = state


def _fill(encoder: Encoder, row: _Row) -> None:
    """Fill ``row`` with the chunks out of its state, its transitions then
    composed block by block; the rows it points to stay empty until reached."""
    chunks = encoder.transitions[row.state]
    for _ in range(encoder._chunk_blocks - 1):
        chunks = [(part + block, nxt) for part, at in chunks
                  for block, nxt in encoder.transitions[at]]
    parts, nexts = zip(*chunks)
    row[:] = [*map(encoder._encode_rows.__getitem__, nexts), *reversed(parts)]


def _codeword_index(transitions) -> Tuple[Dict[Stream, tuple], ...]:
    """Per state: codeword -> ((tag, next), ...), in tag order, from each
    state's ``(codeword, next)`` pairs. A machine builds it for its
    certificate and again, as ``_by_codeword``, on its first decode."""
    index = []
    for outs in transitions:
        lookup: Dict[Stream, tuple] = {}
        for tag, (word, nxt) in enumerate(outs):
            lookup[word] = lookup.get(word, ()) + ((tag, nxt),)
        index.append(lookup)
    return tuple(index)


class _SubsetTable:
    """Decode steps over candidate-state tuples, built on first sight.

    A row belongs to one sorted tuple of machine states and maps a key to
    ``(next tuple, next row, back-pointers)``, the back-pointer of each
    next state being ``(index in the tuple, tag bits)``. A key is one block
    or one chunk of ``k = encoder._chunk_blocks`` blocks, whose step is
    composed from its blocks' steps. Only blocks that match a transition
    are stored, so every error is raised afresh with its own block's index.
    Rows are filled by ``dict`` stores of equal values, so concurrent
    decoders at worst repeat a step."""

    def __init__(self, encoder: Encoder):
        self._by_codeword = encoder._by_codeword
        self._tag_format = f"0{encoder.p}b"
        self._n = encoder.n
        self._rows: Dict[Tuple[int, ...], dict] = {}
        first = (encoder.start_state,)
        self.start = (first, self._rows.setdefault(first, {}))

    def advance(self, states, row, key, index):
        """The step from ``states`` on ``key``, stored in ``row``; ``index``
        is the number of the key's first block. A chunk is stepped block
        by block, so its errors are its blocks' errors."""
        n = self._n
        if len(key) > n:
            at, path = row, []
            for i in range(0, len(key), n):
                block = key[i:i + n]
                states, at, links = (at.get(block) or
                                     self.advance(states, at, block, index + i // n))
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
            step = row[key] = (states, at, tuple(back))
            return step
        moves: Dict[int, tuple] = {}
        for j, state in enumerate(states):
            for tag, nxt in self._by_codeword[state].get(key, ()):
                if nxt in moves:
                    raise AmbiguousEncoderError(
                        "two decode paths converged; machine certificate broken")
                moves[nxt] = (j, format(tag, self._tag_format))
        if not moves:
            raise UnknownCodewordError(
                f"block {index} ({format_stream(key)}) matches no transition")
        after = tuple(sorted(moves))
        step = row[key] = (after, self._rows.setdefault(after, {}),
                           tuple(moves[s] for s in after))
        return step


def _pair_successors(index, pair) -> set:
    """Pairs ``pair`` reaches by emitting a common codeword from both members.

    Walks the codewords both emit in the first member's tag order, so the
    result does not hang on how codewords hash. A pair that collapses onto
    a single state raises :class:`AmbiguousEncoderError`, naming the first
    such codeword in that order."""
    a, b = pair
    a_index, b_index = index[a], index[b]
    following = set()
    for word in filter(b_index.__contains__, a_index):
        for _, ta in a_index[word]:
            for _, tb in b_index[word]:
                following.add((min(ta, tb), max(ta, tb)))
    if any(ta == tb for ta, tb in following):
        word = next(w for w in a_index if w in b_index
                    and {t for _, t in a_index[w]} & {t for _, t in b_index[w]})
        raise AmbiguousEncoderError(
            f"states {a} and {b} merge on {format_stream(word)!r}")
    return following


def _anticipation(index) -> int:
    """Lookahead blocks needed to resolve shared codewords, or raise.

    ``index`` is per state: codeword -> ((tag, next), ...), in tag order,
    as :func:`_codeword_index` builds it from a machine's transitions.
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
                    f"state {state} emits {format_stream(word)!r} "
                    f"to state {a} under two different tags")
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


def prune_to_encoder(g: ConstraintGraph, p: int, n: int) -> Encoder:
    """Delete surplus edges down to 2**p per state and assign tags.

    Keeps the lexicographically smallest codewords at each state, distinct
    ones first, with tags in codeword order, and drops states unreachable
    from the start (the first descendant of OFF, index 0). Each distinct
    kept label is spelled once, in rank order: for q <= 255 all of them by
    one ``translate`` of the joined labels, cut into byte codes. The
    certificate's codeword index, about half of a fresh machine's memory,
    is dropped and built again on the first decode. ``g`` is a split graph
    of n-symbol labels, 2**p out-edges or more per state, unchecked."""
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
    distinct = sorted(set(chain.from_iterable(ranks)))
    labels = map(words.__getitem__, distinct)
    if q <= 255:  # a label writes data symbol k as the byte k and N as q
        code = (bytes(range(1, q + 1)) + bytes(1)).ljust(256, b"\0")
        spelled = _split(b"".join(labels).translate(code), n)
    else:
        spelled = zip(*[_label_symbols(q, labels)] * n)
    codewords = dict(zip(distinct, spelled))
    # equal (rank, head) pairs share one transition: split states copy rows
    pair = _Table(lambda key: (codewords[key[0]], key[1]))
    transitions = tuple(tuple(map(pair.__getitem__, zip(r, h)))
                        for r, h in zip(ranks, heads))
    return Encoder(q=q, p=p, n=n, start_state=renumber[start],
                   transitions=transitions,
                   anticipation=_anticipation(_codeword_index(transitions)))


def build_encoder(q: int, p: int, n: int) -> Encoder:
    """Synthesize the rate p:n machine for q data symbols plus silence.

    Deterministic in (q, p, n), so the machine is memoised: every call with
    the same rate in one process returns the same frozen :class:`Encoder`,
    its decode table warm; the 8 most recently used rates are kept. Raises
    :class:`InfeasibleRateError` when p/n exceeds the capacity and
    :class:`EnumerationCapError` when the power graph has more than
    ``2**18`` paths, again on every call."""
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


def encode(encoder: Encoder, bits) -> Tuple[Stream, FrameHeader]:
    """Map a bit string to an admissible stream: its byte code (``bytes``,
    see :mod:`relaycast.symbols`) for q <= 255, else a tuple of symbols.

    Consumes p bits per block from the start state, zero-padding the tail
    to a multiple of p, then appends ``encoder.anticipation`` flush blocks
    (tag 0) so that decoding can resolve shared codewords at the end too;
    empty input maps to the empty stream. Chunks of up to 8 bits (``8 //
    p`` blocks, or one) are read as numbers in C, and a state's row gives,
    per chunk value, the row after it and the chunk's code: ``accumulate``
    walks the rows and one join makes the stream. A last chunk of fewer
    blocks is looked up padded with zero tags and cut: a block's codeword
    depends only on the blocks before it. Any ``encoder`` but an
    :class:`Encoder` raises :class:`InvalidParameterError`."""
    _check_type(encoder, Encoder, "encoder")
    text = _normalize_bits(bits)
    length = len(text)
    if length == 0:
        return b"" if encoder.q <= 255 else (), FrameHeader(0, 0)
    p, n = encoder.p, encoder.n
    pad = (-length) % p
    text += "0" * (pad + p * encoder.anticipation)
    symbols = len(text) // p * n
    width = encoder._chunk_blocks * p
    text += "0" * (-len(text) % width)
    values = _chunk_values(text, width)
    walk = [encoder._encode_rows[encoder.start_state]]
    chunks = iter(values)
    while True:
        try:
            walk.extend(accumulate(chunks, list.__getitem__, initial=walk.pop()))
            break
        except IndexError:  # the walk reached an empty row: fill it, go on
            _fill(encoder, walk[-1])
            walk.append(walk[-1][values[len(walk) - 1]])
    parts = map(list.__getitem__, walk, map(invert, values))
    stream = (b"".join(parts) if encoder.q <= 255
              else tuple(chain.from_iterable(parts)))
    return stream[:symbols], FrameHeader(length, pad)


def decode(encoder: Encoder, word, header: FrameHeader) -> str:
    """Recover the original bits; exact inverse of :func:`encode`.

    The decoder's state is the tuple of machine states the blocks so far
    allow. Each whole chunk of the message (``k = max(1, 8 // p)`` blocks)
    and then each block costs one lookup in the encoder's subset table,
    filled on first sight of a (tuple, key) pair: the next tuple and per
    next state a back-pointer, its index in the tuple before and its tag
    bits. The survivors are walked back through the flush, where the
    certificate merges them, and the one path left to block 0: O(blocks).

    ``word`` is a byte code, symbols or stream tokens such as
    ``text.split()``, checked as :func:`parse_stream` checks them; for q <=
    255 it is read as its byte code once, and the keys are byte slices cut
    in C. Framing is checked first; then a block that matches no transition
    raises :class:`UnknownCodewordError`, and a bad token
    :class:`StreamFormatError`, each after the blocks before it. A ``word``
    that is not iterable, is a ``str`` or holds an unhashable symbol raises
    :class:`StreamFormatError`, and an ``encoder`` or ``header`` of another
    type :class:`InvalidParameterError`."""
    _check_type(encoder, Encoder, "encoder")
    _check_iterable(word, "word", "a sequence of symbols or tokens")
    _check_type(header, FrameHeader, "header")
    stream = (word if isinstance(word, (bytes, bytearray, list, tuple))
              else tuple(word))
    n = encoder.n
    if len(stream) % n:
        raise FramingError(
            f"stream length {len(stream)} is not a multiple of n={n}")
    length = header.bit_length
    if header.pad != (-length) % encoder.p:
        raise FramingError(
            f"pad {_spell(header.pad)} inconsistent with bit length "
            f"{_spell(length)}")
    message_blocks = (length + encoder.p - 1) // encoder.p
    expected = message_blocks + (encoder.anticipation if message_blocks else 0)
    total = len(stream) // n
    if total != expected:
        raise FramingError(
            f"stream has {total} blocks, frame implies {_spell(expected)}")
    if message_blocks == 0:
        return ""

    read, fault = _read(stream, encoder.q)
    k = encoder._chunk_blocks
    # the message's whole chunks, then block by block; a fault cuts the
    # stream before its block
    end = len(read) - len(read) % n
    chunks = min(message_blocks // k, end // (k * n))
    whole = chunks * k * n
    keys = _split(read[:whole], k * n) + _split(read[whole:end], n)
    table = encoder._subset_table
    states, row = table.start
    history = []  # per key: the back-pointers of its step
    append = history.append
    for key in keys:
        try:
            states, row, back = row[key]
        except KeyError:  # the key's first block: chunks come first
            at = len(history)
            states, row, back = table.advance(
                states, row, key, at * k if at < chunks else at + chunks * (k - 1))
        append(back)
    if fault:
        at, error = fault
        if isinstance(error, TypeError):  # looking an item up hashes it
            raise StreamFormatError(f"word holds an unhashable symbol: {error}")
        if isinstance(error, KeyError):  # no symbol
            block = stream[at - at % n:at - at % n + n]
            raise UnknownCodewordError(
                f"block {at // n} ({format_stream(block)}) matches no transition")
        raise error

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
    rate, cap = encoder.rate, capacity(encoder.q)
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

    Each line's codeword is read once into the machine's form, for q <=
    255 its byte code. Malformed text, or any ``text`` but a str, raises
    :class:`EncoderFormatError`, again on every call. The machine is
    memoised on the text, as :func:`build_encoder`'s is on the rate, and
    shared by all callers with its tables warm; the machines of the 8 most
    recently parsed texts are kept."""
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
    # per state, its transitions by tag
    rows = [[None] * fanout for _ in range(num_states)]
    # one token table for the whole file, to code bytes for q <= 255
    table, join = (_Codes(q), bytes) if q <= 255 else (_Symbols(q), tuple)
    for line in lines[1:]:
        parts = line.split()
        if (len(parts) != 3 + n
                or not all(map(is_decimal, (parts[0], parts[1], parts[-1])))):
            raise EncoderFormatError(f"bad transition line {line!r}")
        state, tag, nxt = int(parts[0]), int(parts[1]), int(parts[-1])
        # the codeword in its final form, one-character tokens by one translate
        chars = "".join(parts[2:-1])
        word = _chars_code(chars, q) if q <= 255 and len(chars) == n else None
        try:
            word = word or join(map(table.__getitem__, parts[2:-1]))
        except StreamFormatError as exc:
            raise EncoderFormatError(f"bad transition line {line!r}") from exc
        if not 0 <= state < num_states or not 0 <= tag < fanout:
            raise EncoderFormatError(f"state or tag out of range in {line!r}")
        if rows[state][tag]:
            raise EncoderFormatError(f"duplicate transition for state "
                                     f"{state} tag {tag}")
        rows[state][tag] = (word, nxt)
    transitions = tuple(map(tuple, rows))
    for outs in transitions:
        for _, nxt in outs:
            if nxt >= num_states:
                raise EncoderFormatError(f"transition target {nxt} out of range")
    if start >= num_states:
        raise EncoderFormatError(f"start state {start} out of range")
    return Encoder(q=q, p=p, n=n, start_state=start, transitions=transitions,
                   anticipation=_anticipation(_codeword_index(transitions)))
