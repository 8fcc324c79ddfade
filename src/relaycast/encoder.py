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
transitions can share a codeword (at these rates unavoidable). Every
machine certifies bounded lookahead instead: every pair of states
reachable on identical blocks dies out within a fixed number of blocks,
the *anticipation*, and ``encode`` appends that many flush blocks.
``decode`` follows the set of label-consistent states, one table lookup
per chunk of up to 8 message bits, and walks back-pointers from any path
the flush leaves. A codeword is a piece of the stream, held in the
stream's form: for q <= 255 its byte code (see :mod:`relaycast.symbols`),
so that encode joins codewords and decode looks up byte slices. A
machine's text form and report are :mod:`relaycast.encoder_file`'s."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, chain, combinations, tee
from operator import invert, itemgetter
from typing import Dict, List, Tuple

from .constraint import (ConstraintGraph, Matrix, _label_order,
                         _label_symbols, _past_capacity, _power_adjacency,
                         make_constraint, power_graph)
from .errors import (AmbiguousEncoderError, EncoderFormatError,
                     EnumerationCapError, FramingError, InfeasibleRateError,
                     StateSplitError, StreamFormatError, UnknownCodewordError)
from .symbols import (N, Stream, _check_int, _check_iterable, _check_type,
                      _chunk_values, _code_of, _normalize_bits, _read, _spell,
                      _split, _Table, _word, format_stream)

_PATH_BUDGET = 1 << 18  # power-graph paths; synthesis holds ~480 B per path
# Machines kept by each of the two memos, built by rate and parsed by
# text (:mod:`relaycast.encoder_file`'s). One with a warm decode table holds a few MB ((1,11,16): about
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
    weights, the first the shortest prefix that covers its weight (one
    bisection of the prefix sums); edges into the split state are
    duplicated to both. The result has ``sum(x.vector)`` states, each
    with ``2**p`` or more outgoing edges, after ``sum(x.vector)`` minus
    the nonzero weights rounds; all ones return ``g`` itself. ``x``
    satisfies the weight inequality, unchecked. :class:`StateSplitError`
    is raised when the greedy cut misses a partition, which may exist
    (``build_encoder(3, 6, 5)``)."""
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
        acc = list(accumulate(-w for w, _, _ in outgoing))
        for first_weight in range(1, heaviest):
            cut = bisect_left(acc, target * first_weight) + 1
            if acc[-1] - acc[cut - 1] >= target * (heaviest - first_weight):
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
    """Immutable rate p:n machine, checked and certified on construction,
    built by hand too. ``transitions[state][tag] = (codeword, next)``; for
    q <= 255 a codeword is its byte code, as a stream is, converted once
    from any sequence of symbols given. ``anticipation`` is computed by
    :func:`_anticipation`, never given, so every machine decodes exactly."""

    q: int
    p: int
    n: int
    start_state: int
    transitions: Tuple[Tuple[Tuple[Stream, int], ...], ...] = field(repr=False)
    anticipation: int = field(init=False)

    def __post_init__(self):
        for name in ("q", "p", "n"):
            _check_int(getattr(self, name), name, error=EncoderFormatError)
        rows, index = _table(self.q, self.p, self.n, self.transitions)
        if not _is_state(self.start_state, len(rows)):
            raise EncoderFormatError(
                f"start state {_spell(self.start_state)} out of range")
        object.__setattr__(self, "transitions", rows)
        object.__setattr__(self, "anticipation", _anticipation(index))

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    @property
    def rate(self) -> float:
        return self.p / self.n

    @cached_property
    def _subset_table(self) -> _SubsetTable:
        return _SubsetTable(self)

    @property
    def _chunk_blocks(self) -> int:
        """Blocks per encode-table lookup: as many as fit in one byte."""
        return max(1, 8 // self.p)

    def _stream_blocks(self, bits: int) -> int:
        """The frame: blocks in the stream of a ``bits``-bit message, one
        per p bits, the last padded, then ``anticipation`` flush blocks;
        none for no bits."""
        blocks = -(-bits // self.p)
        return blocks + self.anticipation if blocks else 0

    @cached_property
    def _encode_rows(self) -> _Table:
        """``[state]``: the state's encode row (see :func:`encode`)."""
        return _Table(_Row)


def _is_state(value, states: int) -> bool:
    return type(value) is int and 0 <= value < states


def _table(q: int, p: int, n: int, transitions) -> tuple:
    """The rows of ``transitions``, codewords in the machine's form, and
    their codeword index, or :class:`EncoderFormatError`. Each check is a
    pass in C over all pairs or each state's distinct codewords; only
    codewords given in another form are converted one by one."""
    def column(i):
        return map(itemgetter(i), chain.from_iterable(rows))

    coded = q <= 255
    words = targets = False
    try:
        rows = tuple(map(tuple, transitions))
        sizes = set(map(len, rows))
        if rows and p < max(sizes).bit_length() and sizes == {1 << p}:
            if set(map(type, column(0))) != {bytes if coded else tuple}:
                convert = _code_of if coded else lambda word: tuple(_word(word))
                rows = tuple(tuple((convert(word), nxt) for word, nxt in row)
                             for row in rows)
            index = _codeword_index(rows)  # unpacks every pair
            if coded:  # a code byte is 0 for N and 1..q for a data symbol
                symbols = bytes(range(q + 1))
                words = not any(b"".join(by_word).translate(None, symbols)
                                for by_word in index)
            else:  # every pair's types: (1,) and (1.0,) are one key
                kinds = set(map(type, chain.from_iterable(column(0))))
                words = kinds <= {int, type(N)} and all(
                    s is N or 0 <= s < q for s in
                    set(chain.from_iterable(chain.from_iterable(index))))
            words = words and set(map(len, chain.from_iterable(index))) == {n}
            heads = set(column(1))
            targets = (set(map(type, column(1))) == {int}
                       and 0 <= min(heads) and max(heads) < len(rows))
    except (TypeError, ValueError, IndexError):  # no pair, or unhashable items
        pass
    if not words:
        raise EncoderFormatError(
            f"transitions must be one or more rows of 2**{_spell(p)} (codeword, "
            f"next) pairs, a codeword being n={_spell(n)} symbols for "
            f"q={_spell(q)}")
    if not targets:
        bad = next(t for t in column(1) if not _is_state(t, len(rows)))
        raise EncoderFormatError(f"transition target {_spell(bad)} out of range")
    return rows, index


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
    certificate and again, for its subset table, on its first decode."""
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
        self._index = _codeword_index(encoder.transitions)
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
            for tag, nxt in self._index[state].get(key, ()):
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
    a single state raises :class:`AmbiguousEncoderError` at the first
    codeword in that order that it collapses on, naming it."""
    a, b = pair
    a_index, b_index = index[a], index[b]
    following = set()
    for word in filter(b_index.__contains__, a_index):
        for _, ta in a_index[word]:
            for _, tb in b_index[word]:
                if ta == tb:
                    raise AmbiguousEncoderError(
                        f"states {a} and {b} merge on {format_stream(word)!r}")
                following.add((min(ta, tb), max(ta, tb)))
    return following


def _anticipation(index) -> int:
    """Lookahead blocks needed to resolve shared codewords, or raise.

    ``index`` is per state: codeword -> ((tag, next), ...), in tag order,
    as :func:`_codeword_index` builds it from a machine's transitions.
    Walks the graph over unordered state pairs reachable by emitting a
    common codeword from both members depth first, with no recursion,
    from each pair a state forks into, in sorted order: a pair's
    successors are computed once, when it is reached, and read once, and
    its height (the pairs on its longest path) is set when it is left. A
    pair that collapses onto a single state, or that reaches a pair on
    the walk's path (so it can be prolonged forever), can never be told
    apart, so the machine is rejected; a cycle is named by the fork being
    walked, the least fork that reaches one. Returns 0 for a machine whose
    codewords are distinct at every state, else 1 + the longest pair path.
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
    height: Dict[Tuple[int, int], int] = {}  # 0 while on the path
    # the path, each pair with its unread successors and their greatest
    # height, from a root whose successors are the forks
    path = [[None, iter(sorted(forks)), 0]]
    while True:
        top = path[-1]
        for pair in top[1]:
            seen = height.get(pair)
            if seen is None:
                height[pair] = 0
                path.append([pair, iter(_pair_successors(index, pair)), 0])
                break
            if not seen:
                raise AmbiguousEncoderError(
                    f"state pair {path[1][0]} can stay indistinguishable forever")
            top[2] = max(top[2], seen)
        else:
            path.pop()
            if not path:
                return top[2]
            height[top[0]] = top[2] + 1
            path[-1][2] = max(path[-1][2], top[2] + 1)


def prune_to_encoder(g: ConstraintGraph, p: int, n: int) -> Encoder:
    """Delete surplus edges down to 2**p per state and assign tags.

    Keeps the lexicographically smallest codewords at each state, distinct
    ones first, with tags in codeword order, and drops states unreachable
    from the start (the first descendant of OFF, index 0). Each distinct
    kept label is spelled once, in rank order: for q <= 255 all of them by
    one ``translate`` of the joined labels, cut into byte codes. The
    :class:`Encoder` drops its certificate's codeword index, about half of
    a fresh machine's memory, and builds it again on the first decode.
    ``g`` is a split graph of n-symbol labels, 2**p out-edges or more per
    state, unchecked."""
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
    # equal pairs share one tuple, as split states copy rows: each pair is
    # made, looked up and kept or dropped in turn, all in C
    shared: Dict[Tuple[Stream, int], Tuple[Stream, int]] = {}
    transitions = tuple(
        tuple(map(shared.setdefault,
                  *tee(zip(map(codewords.__getitem__, r), h))))
        for r, h in zip(ranks, heads))
    return Encoder(q=q, p=p, n=n, start_state=renumber[start],
                   transitions=transitions)


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
    """Framing metadata returned by encode and required by decode: the bit
    length, all that a stream leaves open (its pad is ``-bit_length % p``)."""

    bit_length: int

    def __post_init__(self):
        _check_int(self.bit_length, "bit_length", 0)


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
    blocks = encoder._stream_blocks(len(text))
    if not blocks:
        return b"" if encoder.q <= 255 else (), FrameHeader(0)
    k, p = encoder._chunk_blocks, encoder.p
    # zero tags pad the last block, flush and fill the last chunk
    values = _chunk_values(text.ljust(-(-blocks // k) * k * p, "0"), k * p)
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
    return stream[:blocks * encoder.n], FrameHeader(len(text))


def decode(encoder: Encoder, word, header: FrameHeader) -> str:
    """Recover the original bits; exact inverse of :func:`encode`.

    The decoder's state is the tuple of machine states the blocks so far
    allow. Every whole chunk of the stream (``k = max(1, 8 // p)``
    blocks), then each block after them, costs one lookup in the encoder's
    subset table, filled on first sight of a (tuple, key) pair: the next
    tuple and per next state a back-pointer, its index in the tuple before
    and its tag bits. Any survivor is walked back to block 0: O(blocks).
    Two paths that part at a fork emit alike for at most ``anticipation``
    blocks (the certificate), so any two survivors part in the flush.

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
    expected = encoder._stream_blocks(header.bit_length)
    total = len(stream) // n
    if total != expected:
        raise FramingError(
            f"stream has {total} blocks, frame implies {_spell(expected)}")
    if not total:
        return ""

    read, fault = _read(stream, encoder.q)
    k = encoder._chunk_blocks
    # every whole chunk, then block by block, as encode cuts the stream; a
    # fault cuts it before its block
    end = len(read) - len(read) % n
    chunks = end // (k * n)
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

    j = 0  # any survivor: see the docstring
    tags = [""] * len(history)
    for i in range(len(history) - 1, -1, -1):
        j, tags[i] = history[i][j]
    return "".join(tags)[:header.bit_length]
