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
from itertools import chain
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .errors import (EnumerationCapError, InvalidMatrixError,
                     InvalidParameterError)
from .symbols import N, Symbol, Word, _check_int, _spell, is_data

DEFAULT_ENUMERATION_CAP = 10**7

Matrix = Sequence[Sequence[int]]


def _symbol_width(q: int) -> int:
    """Bytes per symbol in a graph's words, big-endian: data symbol k is
    k and silence ``N`` is q, so byte order is word order."""
    return (q.bit_length() + 7) // 8


def _label_symbols(q: int, labels: Iterable[bytes]) -> Iterator[Symbol]:
    """The symbols of labels of q's graphs, one label after another, for
    q > 255, two or more bytes per symbol: one pass over the labels joined,
    with no Python code per label. (For q <= 255 a label is one byte per
    symbol, and one ``translate`` makes its byte code.)"""
    width = _symbol_width(q)
    joined = b"".join(labels)
    return map([*range(q), N].__getitem__,
               [int.from_bytes(joined[i:i + width], "big")
                for i in range(0, len(joined), width)])


class ConstraintGraph(NamedTuple):
    """Labeled directed graph presenting the constraint or a power of it.

    One out-edge row per state: ``out[s]`` maps a head to the label
    ranks of the edges s -> head, and ``words[r]`` is the label of rank
    r. A label is a byte string of ``(q.bit_length() + 7) // 8`` bytes
    per symbol, big-endian, with data symbol k written as k and silence
    ``N`` as q. Byte order is then word order (N after every data
    symbol), and no label is tracked by the cyclic garbage collector.
    Every bi-infinite edge-label sequence is admissible and every
    admissible stream is the label sequence of some path. Rows are
    never mutated once built; stages build new graphs. Internal, so a
    ``NamedTuple``: a class of it is made in a tenth of a frozen
    dataclass's time, which every fresh import pays.
    """

    q: int
    states: Tuple[str, ...]
    words: List[bytes]
    out: List[Dict[int, List[int]]]


def _label_order(heads: Dict[int, List[int]]) -> List[Tuple[int, int]]:
    """One row's edges as (label rank, head) pairs, sorted."""
    return sorted((r, d) for d, ranks in heads.items() for r in ranks)


def make_constraint(q: int) -> ConstraintGraph:
    """Two-state presentation with adjacency ``[[1, q], [1, 0]]``.

    Data symbols rank 0..q-1 and silence ``N`` ranks q.
    """
    width = _symbol_width(q)
    return ConstraintGraph(q, ("OFF", "ON"),
                           [k.to_bytes(width, "big") for k in range(q + 1)],
                           [{1: list(range(q)), 0: [q]}, {0: [q]}])


def power_graph(g: ConstraintGraph, n: int) -> ConstraintGraph:
    """Presentation whose edges are the length-n paths of ``g``.

    Labels concatenate along the path; the adjacency matrix is the n-th
    power of ``g``'s. ``n=1`` returns ``g`` itself.

    ``paths[s][h]`` holds the labels of the paths s -> h. A path one
    edge longer is an edge s -> d in front of a path d -> h, and edges
    are taken in label order, so the paths of a deterministic
    presentation with labels of one length, such as the constraint's,
    stay in label order per head and ranking them is a linear merge.
    """
    if n == 1:
        return g
    words = g.words
    steps = [_label_order(heads) for heads in g.out]
    paths = [{d: [words[r] for r in sorted(ranks)] for d, ranks in heads.items()}
             for heads in g.out]
    for _ in range(n - 1):
        longer = []
        for step in steps:
            heads: Dict[int, List[bytes]] = {}
            for r, d in step:
                prepend = words[r].__add__
                for h, tails in paths[d].items():
                    heads.setdefault(h, []).extend(map(prepend, tails))
            longer.append(heads)
        paths = longer
    labels = sorted(dict.fromkeys(chain.from_iterable(
        tails for heads in paths for tails in heads.values())))
    rank = {w: i for i, w in enumerate(labels)}
    out = [{h: list(map(rank.__getitem__, tails)) for h, tails in heads.items()}
           for heads in paths]
    return ConstraintGraph(g.q, g.states, labels, out)


# Past this many paths from one state synthesis stops counting them:
# the rate is far over any path budget, and the exact count would only
# lengthen its error message.
_COUNTED_PATHS = 1 << 64


def _power_adjacency(q: int, n: int) -> Optional[List[List[int]]]:
    """``[[1, q], [1, 0]]`` to the n-th power: per row, n steps of
    ``(x, y) -> (x + y, q x)``, a row times the matrix.

    None once a row sum passes ``_COUNTED_PATHS``. Row sums grow at
    least as fast as the Fibonacci numbers, so that takes at most 93
    steps per row whatever n is.
    """
    rows = []
    for x, y in ((1, 0), (0, 1)):
        for _ in range(n):
            x, y = x + y, q * x
            if x + y > _COUNTED_PATHS:
                return None
        rows.append([x, y])
    return rows


# count_words refuses a count past about this many bits. The recurrence
# costs time quadratic in it: about a second for q=1 at the budget.
_COUNT_BITS = 1 << 17


def count_words(q: int, n: int) -> int:
    """Number of admissible length-n words, as an exact integer.

    Satisfies the recurrence ``N(n) = N(n-1) + q*N(n-2)`` with seeds
    ``N(0) = 1`` (the empty word) and ``N(1) = q+1``: a word ending in
    silence extends any admissible word, while a word ending in one of
    the q data symbols extends only words ending in silence. Raises
    :class:`EnumerationCapError`, before the first step, when the count
    has about ``n * capacity(q)`` bits and that passes ``2**17``.
    """
    _check_int(q, "q")
    _check_int(n, "length", 0)
    # capacity(q) > 1/2, so past 2 * _COUNT_BITS no float is needed
    if n > 2 * _COUNT_BITS or n * capacity(q) > _COUNT_BITS:
        raise EnumerationCapError(
            f"the count of length-{_spell(n)} words for q={_spell(q)} "
            f"would pass the budget of {_COUNT_BITS} bits")
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
    _check_int(cap, "cap", 0)
    # past n = cap.bit_length(), (q+1)**n >= 2**n > cap already: refuse
    # without building the power
    if n >= cap.bit_length() + 1 or (q + 1) ** n > cap:
        raise EnumerationCapError(
            f"(q+1)**n exceeds enumeration cap {_spell(cap)} "
            f"for q={_spell(q)}, n={_spell(n)}")
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

# Integers below this convert to floats, and their square roots add to
# floats, without overflow; the closed forms below take larger ones
# through one integer square root and one rounded division.
_FLOAT_SAFE = 1 << 1000


def spectral_radius(matrix: Matrix) -> float:
    """Largest absolute eigenvalue of a 1x1 or 2x2 nonnegative integer matrix.

    Closed form, ``((a+d) + sqrt((a-d)**2 + 4bc)) / 2`` for
    ``[[a, b], [c, d]]``; any other input, or a radius past the largest
    float (about 1.8e308), raises :class:`InvalidMatrixError`. Every
    matrix the package builds is 2x2, so nothing larger is accepted.
    """
    try:
        m = [list(row) for row in matrix]
    except TypeError:
        raise InvalidMatrixError("matrix must be a sequence of rows") from None
    if not 1 <= len(m) <= 2 or any(len(row) != len(m) for row in m):
        raise InvalidMatrixError("matrix must be square, 1x1 or 2x2")
    try:
        for row in m:
            for value in row:
                _check_int(value, "matrix entry", 0)
        if len(m) == 1:
            return float(m[0][0])
        (a, b), (c, d) = m
        disc = (a - d) ** 2 + 4 * b * c
        if max(a + d, disc) < _FLOAT_SAFE:
            return ((a + d) + math.sqrt(disc)) / 2.0
        return (a + d + math.isqrt(disc)) / 2
    except InvalidParameterError as exc:
        raise InvalidMatrixError(str(exc)) from None
    except OverflowError:
        raise InvalidMatrixError(
            "spectral radius exceeds the largest float, about 1.8e308") from None


def characteristic_roots(q: int) -> Tuple[float, float]:
    """Both eigenvalues of ``[[1, q], [1, 0]]``: ``(1 +- sqrt(1+4q)) / 2``.

    Their sum is 1 and their product is -q. Past q of about 3.2e616 the
    roots exceed the largest float, about 1.8e308, and
    :class:`InvalidParameterError` is raised.
    """
    _check_int(q, "q")
    if q < _FLOAT_SAFE:
        root = math.sqrt(1.0 + 4.0 * q)
        return ((1.0 + root) / 2.0, (1.0 - root) / 2.0)
    root = math.isqrt(1 + 4 * q)
    try:
        return ((1 + root) / 2, (1 - root) / 2)
    except OverflowError:
        raise InvalidParameterError(
            "the roots exceed the largest float, about 1.8e308, "
            "for q past about 3.2e616") from None


def capacity(q: int) -> float:
    """Asymptotic growth rate of the admissible word count, in bits/symbol.

    Equals ``log2((1 + sqrt(4q+1)) / 2)``, the base-2 log of the dominant
    eigenvalue. For q=1 this is log2 of the golden ratio, 0.694242...;
    for q=6 it is log2(3). Finite for every positive integer q.
    """
    _check_int(q, "q")
    if q < _FLOAT_SAFE:
        return math.log2(characteristic_roots(q)[0])
    # the root is sqrt(q + 1/4) + 1/2, and log2 of it is log2(q) / 2 to
    # well within float precision
    return math.log2(q) / 2


def _past_capacity(q: int, p: int, n: int) -> bool:
    """True when ``p/n`` surely exceeds ``capacity(q)``.

    That is ``lam**n < 2**p`` for the Perron root ``lam`` of
    ``[[1, q], [1, 0]]``, and exactly then no nonzero weight vector
    supports ``2**p`` on the n-th power (Perron-Frobenius). Taken from
    the sign of ``n ln(lam) - p ln(2)`` at 60 significant digits, in
    microseconds for q, p and n of any size. A rate within a relative
    1e-50 of capacity, which that precision cannot resolve, counts as
    not past it.
    """
    import decimal  # only rates past 2**64 power-graph paths come here

    with decimal.localcontext() as context:
        context.prec = 60
        gain = n * ((1 + decimal.Decimal(1 + 4 * q).sqrt()) / 2).ln()
        cost = p * decimal.Decimal(2).ln()
        return cost - gain > (cost + gain).scaleb(-50)
