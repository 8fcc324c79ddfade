"""Channel symbols and symbol streams.

A symbol is either a data symbol (an ``int`` in ``0..q-1``, the node is
ON) or the distinguished silence symbol ``N`` (the node is OFF, i.e.
listening). Silence is a sentinel object rather than the integer ``q``
so that arithmetic on it fails loudly instead of corrupting a stream.

Streams serialize as whitespace-separated tokens: decimal digits for
data symbols and the literal token ``N`` for silence, e.g. ``0 N 1 N N``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Sequence, Tuple, Union

from .errors import InvalidParameterError, StreamFormatError


class _Silence:
    """Singleton marker for a slot with no transmission."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "N"


N = _Silence()

Symbol = Union[int, _Silence]
Word = Tuple[Symbol, ...]


def _check_positive(value, name: str) -> None:
    """Raise :class:`InvalidParameterError` unless ``value`` is an int >= 1.

    ``bool`` is an ``int`` subclass but never a valid count, so it is
    rejected too.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise InvalidParameterError(f"{name} must be a positive integer, got {value!r}")


def is_data(symbol: Symbol) -> bool:
    """True for a data symbol (node ON), False for silence."""
    return not isinstance(symbol, _Silence)


@dataclass(frozen=True)
class Alphabet:
    """The q+1 channel symbols: data symbols ``0..q-1`` plus silence."""

    q: int

    def __post_init__(self):
        _check_positive(self.q, "q")

    @property
    def size(self) -> int:
        return self.q + 1

    def symbols(self) -> Iterator[Symbol]:
        """All symbols, data symbols first, silence last."""
        yield from range(self.q)
        yield N


def is_admissible(word: Sequence[Symbol]) -> bool:
    """True iff no two consecutive symbols are both data symbols."""
    return all(not (is_data(a) and is_data(b)) for a, b in zip(word, word[1:]))


def is_decimal(token: str) -> bool:
    """True iff ``token`` is one or more ASCII digits ``0-9``.

    ``str.isdigit`` alone also accepts digits of other scripts and
    superscripts, which ``int`` then mis-reads or rejects.
    """
    return token.isascii() and token.isdigit()


def parse_stream(text: str, q: int | None = None) -> Word:
    """Parse a token stream like ``0 N 1 N N`` into a word.

    When ``q`` is given, data symbols must lie in ``0..q-1``.
    """
    out = []
    for token in text.split():
        if token == "N":
            out.append(N)
        elif is_decimal(token):
            value = int(token)
            if q is not None and value >= q:
                raise StreamFormatError(
                    f"data symbol {value} out of range for q={q}")
            out.append(value)
        else:
            raise StreamFormatError(f"bad stream token {token!r}")
    return tuple(out)


def format_stream(word: Sequence[Symbol]) -> str:
    """Inverse of :func:`parse_stream`."""
    return " ".join("N" if not is_data(s) else str(s) for s in word)


# Silence sorts after every data symbol; data symbols map to themselves.
_ORDER = {N: math.inf}


def word_key(word: Sequence[Symbol]) -> tuple:
    """Lexicographic sort key for words; N orders after all data symbols."""
    return tuple(map(_ORDER.get, word, word))


def word_ranks(words: Iterable[Word]) -> Dict[Word, int]:
    """Position of each distinct word in :func:`word_key` order.

    Sorting edges on ``rank[word]`` gives the order of ``word_key(word)``
    while deriving each key only once per distinct word.
    """
    return {w: i for i, w in enumerate(sorted(set(words), key=word_key))}
