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
from typing import List, Sequence, Tuple

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


def _canonical(triples) -> Tuple[Edge, ...]:
    """Edges from ``(src, dst, word)`` triples, sorted by source, label, head."""
    triples = list(triples)
    rank = word_ranks(word for _, _, word in triples)
    triples.sort(key=lambda t: (t[0], rank[t[2]], t[1]))
    return tuple(Edge(src, dst, word) for src, dst, word in triples)


def make_constraint(q: int) -> ConstraintGraph:
    """Two-state presentation with adjacency ``[[1, q], [1, 0]]``."""
    _check_int(q, "q")
    triples = [(0, 1, (k,)) for k in range(q)]
    triples.append((0, 0, (N,)))
    triples.append((1, 0, (N,)))
    return ConstraintGraph(q=q, states=("OFF", "ON"), edges=_canonical(triples))


def power_graph(g: ConstraintGraph, n: int) -> ConstraintGraph:
    """Presentation whose edges are the length-n paths of ``g``.

    Labels concatenate along the path; the adjacency matrix is the n-th
    power of ``g``'s. ``n=1`` returns ``g`` itself. Paths grow as plain
    ``(src, dst, word)`` triples; only the length-n ones become edges.
    """
    _check_int(n, "power")
    if n == 1:
        return g
    by_src: List[List[Tuple[int, Word]]] = [[] for _ in g.states]
    for e in g.edges:
        by_src[e.src].append((e.dst, e.word))
    paths = [(e.src, e.dst, e.word) for e in g.edges]
    for _ in range(n - 1):
        paths = [(src, head, word + label)
                 for src, dst, word in paths for head, label in by_src[dst]]
    return ConstraintGraph(q=g.q, states=g.states, edges=_canonical(paths))


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
    """List-of-lists copy of a square, nonempty matrix of nonnegative ints.

    Raises :class:`InvalidMatrixError` for anything else.
    """
    rows = [list(row) for row in matrix]
    if not rows or any(len(row) != len(rows) for row in rows):
        raise InvalidMatrixError("matrix must be square and nonempty")
    try:
        for row in rows:
            for value in row:
                _check_int(value, "matrix entry", 0)
    except InvalidParameterError as exc:
        raise InvalidMatrixError(str(exc)) from None
    return rows


def _is_irreducible(m: Matrix) -> bool:
    """True iff every index reaches every other one along nonzero entries."""
    reach = [{i} | {j for j, v in enumerate(row) if v} for i, row in enumerate(m)]
    for _ in range(len(m).bit_length()):  # each round doubles the path length
        reach = [set().union(*(reach[j] for j in r)) for r in reach]
    return all(len(r) == len(m) for r in reach)


def _perron(m: Matrix) -> Tuple[float, List[float]]:
    """Perron root and eigenvector, the vector scaled to minimum entry 1.

    Power iteration on ``A + I``, normalized to maximum entry 1, keeps
    every entry positive and converges for any irreducible nonnegative A;
    it stops once no entry moves by 1e-14.
    """
    size = len(m)
    x = [1.0] * size
    for _ in range(100_000):
        y = [sum(row[j] * x[j] for j in range(size)) + x[i]
             for i, row in enumerate(m)]
        top = max(y)
        y = [v / top for v in y]
        settled = max(abs(a - b) for a, b in zip(x, y)) < 1e-14
        x = y
        if settled:
            break
    bottom = min(x)
    return top - 1.0, [v / bottom for v in x]


def spectral_radius(matrix: Matrix) -> float:
    """Largest absolute eigenvalue of a nonnegative integer matrix.

    1x1 and 2x2 matrices (the ``[[1, q], [1, 0]]`` family and its
    relatives) use the exact closed form. Larger matrices must be
    irreducible, else :class:`InvalidMatrixError`; their Perron root
    comes from power iteration.
    """
    m = validate_matrix(matrix)
    size = len(m)
    if size == 1:
        return float(m[0][0])
    if size == 2:
        (a, b), (c, d) = m
        return ((a + d) + math.sqrt((a - d) ** 2 + 4 * b * c)) / 2.0
    if not _is_irreducible(m):
        raise InvalidMatrixError("a matrix larger than 2x2 must be irreducible")
    return _perron(m)[0]


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
