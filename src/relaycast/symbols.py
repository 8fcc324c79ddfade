"""Channel symbols and symbol streams.

A symbol is either a data symbol (an ``int`` in ``0..q-1``, the node is
ON) or the distinguished silence symbol ``N`` (the node is OFF, i.e.
listening). Silence is a sentinel object rather than the integer ``q``
so that arithmetic on it fails loudly instead of corrupting a stream.
The simulator's ``ERASED`` reception is a sentinel of the same kind.

Streams serialize as whitespace-separated tokens: decimal digits for
data symbols and the literal token ``N`` for silence, e.g. ``0 N 1 N N``.
"""

from __future__ import annotations

import math
import operator
import re
from itertools import repeat
from typing import Iterable, Sequence, Tuple, Union

from .errors import InvalidParameterError, StreamFormatError


class _Marker:
    """A named singleton symbol: silence ``N`` or an erased reception.

    Copying or unpickling a marker returns the marker itself.
    """

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name

    def __reduce__(self):
        # pickled as the module global of the same name
        return self._name


N = _Marker("N")
# What the simulator records where the half-duplex rule lost a symbol.
ERASED = _Marker("ERASED")

Symbol = Union[int, _Marker]
Word = Tuple[Symbol, ...]


def _check_int(value, name: str, minimum: int = 1) -> None:
    """Raise :class:`InvalidParameterError` unless ``value >= minimum``.

    ``value`` must be an ``int``; ``minimum`` is 1 for counts and 0 for
    lengths and offsets. ``bool`` is an ``int`` subclass but never a
    valid count, so it is rejected too.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        kind = "positive" if minimum == 1 else "nonnegative"
        raise InvalidParameterError(
            f"{name} must be a {kind} integer, got {_spell(value)}")


def _spell(value) -> str:
    """``repr(value)`` for a message, but an int past the interpreter's
    int-to-str limit (4,300 digits by default) as its sign and its
    approximate number of digits, where ``repr`` would raise."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):
            raise
    digits = int(abs(value).bit_length() * math.log10(2)) + 1
    sign = "a negative" if value < 0 else "an"
    return f"{sign} integer of about {digits} digits"


def _check_iterable(value, name: str, kind: str) -> None:
    """Raise :class:`StreamFormatError` naming the argument ``name``
    unless ``value`` is iterable; ``kind`` says what it should be."""
    try:
        iter(value)
    except TypeError:
        raise StreamFormatError(
            f"{name} must be {kind}, not {type(value).__name__}") from None


def _check_type(value, kind: type, name: str,
                error=InvalidParameterError) -> None:
    """Raise ``error(message)`` naming the argument ``name`` unless
    ``value`` is a ``kind``."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise error(f"{name} must be {article} {kind.__name__}, "
                    f"not {type(value).__name__}")


def is_data(symbol: Symbol) -> bool:
    """True for every symbol but silence ``N``."""
    return symbol is not N


def _data_mask(word: Iterable[Symbol]) -> bytes:
    """One byte per symbol: 1 for a data symbol, 0 for silence ``N``."""
    return bytes(map(operator.is_not, word, repeat(N)))


# two or more data symbols in a row, in a :func:`_data_mask`
_DATA_RUN = re.compile(rb"\x01\x01+")


def is_admissible(word: Sequence[Symbol]) -> bool:
    """True iff no two consecutive symbols are both data symbols.

    The mask is built and searched in C, so Python does no work per
    symbol. A ``word`` that is not iterable raises
    :class:`StreamFormatError`.
    """
    _check_iterable(word, "word", "a sequence of symbols")
    return _DATA_RUN.search(_data_mask(word)) is None


# Python refuses to convert longer digit strings when its int string
# limit is set (``sys.set_int_max_str_digits``); 640 is the lowest limit
# it can be set to, so ``int`` accepts every token that passes.
_MAX_DECIMAL_DIGITS = 640


def is_decimal(token: str) -> bool:
    """True iff ``token`` is 1 to 640 ASCII digits ``0-9``.

    ``str.isdigit`` alone also accepts digits of other scripts and
    superscripts, which ``int`` then mis-reads or rejects.
    """
    return len(token) <= _MAX_DECIMAL_DIGITS and token.isascii() and token.isdigit()


def is_bits(text: str) -> bool:
    """True iff every character of ``text`` is an ASCII ``0`` or ``1``.

    The same strings as ``not text.strip("01")``, 10 to 15 times faster
    from a thousand characters up: the scan and the deletion run in C.
    """
    return text.isascii() and not text.encode().translate(None, b"01")


class _Symbols(dict):
    """Token -> symbol, each token checked and converted on first sight."""

    def __init__(self, q):
        super().__init__()
        self._q = q

    def __missing__(self, token):
        if token == "N":
            symbol = N
        elif is_decimal(token):
            symbol = int(token)
            if self._q is not None and symbol >= self._q:
                raise StreamFormatError(
                    f"data symbol {symbol} out of range for q={self._q}")
        else:
            raise StreamFormatError(f"bad stream token {token!r}")
        self[token] = symbol
        return symbol


def parse_stream(text: str, q: int | None = None) -> Word:
    """Parse a token stream like ``0 N 1 N N`` into a word.

    When ``q`` is given, data symbols must lie in ``0..q-1``. Each
    distinct token is checked once, on its first occurrence, so the
    first bad token of the stream is the one reported. A ``text`` that
    is not a ``str`` raises :class:`StreamFormatError`.
    """
    _check_type(text, str, "text", StreamFormatError)
    if q is not None:
        _check_int(q, "q")
    return tuple(map(_Symbols(q).__getitem__, text.split()))


class _Tokens(dict):
    """Symbol -> token, each symbol converted on first sight."""

    def __missing__(self, symbol):
        token = self[symbol] = "N" if symbol is N else str(symbol)
        return token


def format_stream(word: Sequence[Symbol]) -> str:
    """Inverse of :func:`parse_stream`.

    Each distinct symbol is converted once; values that compare equal,
    such as ``True`` and ``1``, share the token of the first one. A
    ``word`` that is not iterable or holds an unhashable symbol raises
    :class:`StreamFormatError`.
    """
    _check_iterable(word, "word", "a sequence of symbols")
    try:
        return " ".join(map(_Tokens().__getitem__, word))
    except TypeError as exc:  # looking a symbol up hashes it
        raise StreamFormatError(
            f"word holds an unhashable symbol: {exc}") from None
