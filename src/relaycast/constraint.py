"""The no-adjacent-data constraint as a shift of finite type.

A relay that forwards what it heard one slot ago loses data exactly when
its parent transmits in two consecutive slots, so the source must emit
streams in which no two consecutive symbols are data symbols. This
module represents that constraint by its two-state graph presentation

    state 0 (OFF, "may send anything")   state 1 (ON, "just sent data")

with edges ``0 -N-> 0``, ``0 -k-> 1`` for each data symbol ``k``, and
``1 -N-> 0``; counts admissible words; and computes the growth rate of
the count (the capacity, in bits per symbol) from the spectral radius of
the adjacency matrix.

Counting uses exact integer arithmetic throughout: for q=6 the word
count grows like 3**n and leaves 64-bit range near n=40.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .errors import (EnumerationCapError, InvalidMatrixError,
                     InvalidParameterError)
from .symbols import N, Word, _check_int, is_data, word_ranks

DEFAULT_ENUMERATION_CAP = 10**7

Matrix = Sequence[Sequence[int]]


@dataclass(frozen=True, slots=True)
class Edge:
    """A labeled edge; ``word`` is the label (one symbol per slot)."""

    src: int
    dst: int
    word: Word


@dataclass(frozen=True)
class ConstraintGraph:
    """Labeled directed graph presenting the constraint or a power of it.

    Immutable; every bi-infinite edge-label sequence is admissible and
    every admissible stream is the label sequence of some path.
    """

    q: int
    states: Tuple[str, ...]
    edges: Tuple[Edge, ...]

    @cached_property
    def adjacency(self) -> Tuple[Tuple[int, ...], ...]:
        """Entry [i][j] counts the edges from state i to state j."""
        size = len(self.states)
        counts = [[0] * size for _ in range(size)]
        for e in self.edges:
            counts[e.src][e.dst] += 1
        return tuple(tuple(row) for row in counts)


class _Rows(NamedTuple):
    """A graph as one out-edge row per state, the form synthesis works on.

    ``out[s]`` maps a head to the label ranks of the edges s -> head,
    and ``words[r]`` is the label of rank r, in :func:`word_key` order.
    Rows are never mutated once built; stages build new ones.
    """

    q: int
    states: Tuple[str, ...]
    words: List[Word]
    out: List[Dict[int, List[int]]]

    @property
    def adjacency(self) -> List[List[int]]:
        """Entry [i][j] counts the edges from state i to state j."""
        size = len(self.out)
        return [[len(heads.get(d, ())) for d in range(size)] for heads in self.out]


def _label_order(heads: Dict[int, List[int]]) -> List[Tuple[int, int]]:
    """One row's edges as (label rank, head) pairs, sorted."""
    return sorted((r, d) for d, ranks in heads.items() for r in ranks)


def _graph_rows(g: ConstraintGraph) -> _Rows:
    """The rows of ``g``, its distinct labels ranked once."""
    rank = word_ranks(e.word for e in g.edges)
    out: List[Dict[int, List[int]]] = [{} for _ in g.states]
    for e in g.edges:
        out[e.src].setdefault(e.dst, []).append(rank[e.word])
    return _Rows(g.q, g.states, list(rank), out)


def _rows_graph(rows: _Rows) -> ConstraintGraph:
    """The graph of ``rows``, edges sorted by source, label, head."""
    words = rows.words
    edges = [Edge(src, dst, words[r]) for src, heads in enumerate(rows.out)
             for r, dst in _label_order(heads)]
    return ConstraintGraph(q=rows.q, states=rows.states, edges=tuple(edges))


def _constraint_rows(q: int) -> _Rows:
    """Rows of the two-state presentation: data symbols rank 0..q-1, N rank q."""
    return _Rows(q, ("OFF", "ON"), [(k,) for k in range(q)] + [(N,)],
                 [{1: list(range(q)), 0: [q]}, {0: [q]}])


def make_constraint(q: int) -> ConstraintGraph:
    """Two-state presentation with adjacency ``[[1, q], [1, 0]]``."""
    _check_int(q, "q")
    return _rows_graph(_constraint_rows(q))


def _power_rows(rows: _Rows, n: int) -> _Rows:
    """Rows of the n-th power: every length-n path, its labels concatenated.

    ``paths[s][h]`` holds the labels of the paths s -> h. A path one
    edge longer is an edge s -> d in front of a path d -> h, and edges
    are taken in label order, so the paths of a deterministic
    presentation with labels of one length, such as the constraint's,
    stay in label order per head and ranking them is a linear merge.
    """
    if n == 1:
        return rows
    words = rows.words
    steps = [_label_order(heads) for heads in rows.out]
    paths = [{d: [words[r] for r in sorted(ranks)] for d, ranks in heads.items()}
             for heads in rows.out]
    for _ in range(n - 1):
        longer = []
        for step in steps:
            heads: Dict[int, List[Word]] = {}
            for r, d in step:
                prepend = words[r].__add__
                for h, tails in paths[d].items():
                    heads.setdefault(h, []).extend(map(prepend, tails))
            longer.append(heads)
        paths = longer
    rank = word_ranks(chain.from_iterable(
        tails for heads in paths for tails in heads.values()))
    out = [{h: list(map(rank.__getitem__, tails)) for h, tails in heads.items()}
           for heads in paths]
    return _Rows(rows.q, rows.states, list(rank), out)


def _power_adjacency(q: int, n: int) -> List[List[int]]:
    """``[[1, q], [1, 0]]`` to the n-th power: per row, n steps of
    ``(x, y) -> (x + y, q x)``, a row times the matrix."""
    rows = []
    for x, y in ((1, 0), (0, 1)):
        for _ in range(n):
            x, y = x + y, q * x
        rows.append([x, y])
    return rows


def power_graph(g: ConstraintGraph, n: int) -> ConstraintGraph:
    """Presentation whose edges are the length-n paths of ``g``.

    Labels concatenate along the path; the adjacency matrix is the n-th
    power of ``g``'s. ``n=1`` returns ``g`` itself.
    """
    _check_int(n, "power")
    if n == 1:
        return g
    return _rows_graph(_power_rows(_graph_rows(g), n))


def count_words(q: int, n: int) -> int:
    """Number of admissible length-n words, as an exact integer.

    Satisfies the recurrence ``N(n) = N(n-1) + q*N(n-2)`` with seeds
    ``N(0) = 1`` (the empty word) and ``N(1) = q+1``: a word ending in
    silence extends any admissible word, while a word ending in one of
    the q data symbols extends only words ending in silence.
    """
    _check_int(q, "q")
    _check_int(n, "length", 0)
    a, b = 1, q + 1
    if n == 0:
        return a
    for _ in range(n - 1):
        a, b = b, b + q * a
    return b


def enumerate_words(q: int, n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> List[Word]:
    """All admissible length-n words, lexicographic (N after data).

    A desk-scale brute-force oracle for :func:`count_words` and the
    encoder tests. Refuses to start when the search space ``(q+1)**n``
    exceeds ``cap``.
    """
    _check_int(q, "q")
    _check_int(n, "length", 0)
    if (q + 1) ** n > cap:
        raise EnumerationCapError(
            f"(q+1)**n = {(q + 1) ** n} exceeds enumeration cap {cap}")
    words: List[Word] = [()]
    for _ in range(n):
        extended: List[Word] = []
        for w in words:
            if not (w and is_data(w[-1])):
                extended.extend(w + (k,) for k in range(q))
            extended.append(w + (N,))
        words = extended
    return words


# ---------------------------------------------------------------------------
# exact integer matrices and their Perron root

def matrix_vector(m: Matrix, x: Sequence[int]) -> List[int]:
    return [sum(v * xi for v, xi in zip(row, x)) for row in m]


def validate_matrix(matrix: Matrix) -> List[List[int]]:
    """List-of-lists copy of a 1x1 or 2x2 matrix of nonnegative ints.

    Every matrix the package builds is the two-state adjacency or a power
    of it, so nothing larger is accepted. Raises
    :class:`InvalidMatrixError` for anything else.
    """
    rows = [list(row) for row in matrix]
    if not 1 <= len(rows) <= 2 or any(len(row) != len(rows) for row in rows):
        raise InvalidMatrixError("matrix must be square, 1x1 or 2x2")
    try:
        for row in rows:
            for value in row:
                _check_int(value, "matrix entry", 0)
    except InvalidParameterError as exc:
        raise InvalidMatrixError(str(exc)) from None
    return rows


def spectral_radius(matrix: Matrix) -> float:
    """Largest absolute eigenvalue of a 1x1 or 2x2 nonnegative integer matrix.

    Closed form, ``((a+d) + sqrt((a-d)**2 + 4bc)) / 2`` for
    ``[[a, b], [c, d]]``; any other input raises :class:`InvalidMatrixError`.
    """
    m = validate_matrix(matrix)
    if len(m) == 1:
        return float(m[0][0])
    (a, b), (c, d) = m
    return ((a + d) + math.sqrt((a - d) ** 2 + 4 * b * c)) / 2.0


def characteristic_roots(q: int) -> Tuple[float, float]:
    """Both eigenvalues of ``[[1, q], [1, 0]]``: ``(1 +- sqrt(1+4q)) / 2``.

    Their sum is 1 and their product is -q.
    """
    _check_int(q, "q")
    root = math.sqrt(1.0 + 4.0 * q)
    return ((1.0 + root) / 2.0, (1.0 - root) / 2.0)


def capacity(q: int) -> float:
    """Asymptotic growth rate of the admissible word count, in bits/symbol.

    Equals ``log2((1 + sqrt(4q+1)) / 2)``, the base-2 log of the dominant
    eigenvalue. For q=1 this is log2 of the golden ratio, 0.694242...;
    for q=6 it is log2(3).
    """
    return math.log2(characteristic_roots(q)[0])
