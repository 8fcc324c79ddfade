"""Channel symbols and symbol streams.

A symbol is either a data symbol (an ``int`` in ``0..q-1``, the node is
ON) or the distinguished silence symbol ``N`` (the node is OFF, i.e.
listening). Silence is a sentinel object rather than the integer ``q``
so that arithmetic on it fails loudly instead of corrupting a stream.
The simulator's ``ERASED`` reception is a sentinel of the same kind.

Streams serialize as whitespace-separated tokens: decimal digits for
data symbols and the literal token ``N`` for silence, e.g. ``0 N 1 N N``.

For q <= 255, ``encode`` returns a stream that also holds its byte
code: one byte per symbol, 0 for ``N`` and k + 1 for data symbol k.
The code does not depend on q, and the readers here and in the
simulator use it in C instead of looking at each symbol.
"""

from __future__ import annotations

import math
import operator
import re
from itertools import chain, repeat
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
    unless ``value`` is iterable and not a ``str``, which is text, not
    symbols or bits; ``kind`` says what it should be."""
    try:
        iter(value)
        if not isinstance(value, str):
            return
    except TypeError:
        pass
    raise StreamFormatError(
        f"{name} must be {kind}, not {type(value).__name__}")


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


class _Table(dict):
    """``build(key)`` for each key, built on first use; concurrent callers
    at worst build one twice and store equal values."""

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, key):
        value = self[key] = self._build(key)
        return value


class _Coded(tuple):
    """A stream as ``encode`` returns it for q <= 255: a tuple of symbols
    whose ``code`` attribute holds its byte code, 0 for ``N`` and k + 1
    for data symbol k. It equals and hashes as the tuple of its symbols;
    pickling and copying keep the code."""


def _code(symbols: Iterable[Symbol]) -> bytes:
    """The byte code of ``symbols``, data symbols below 255 or ``N``."""
    return bytes(0 if s is N else s + 1 for s in symbols)


def _row_code(rows, joined: bool, state):
    """The byte codes of the codewords of ``rows[state]``, a row of
    ``(codeword, next)`` pairs: one per codeword, or ``joined`` in one."""
    words = [word for word, _ in rows[state]]
    if joined:
        return _code(chain.from_iterable(words))
    return tuple(map(_code, words))


def _coded(symbols: list, parts: Iterable[bytes]) -> Word:
    """The list ``symbols``, which it empties, as a stream coded by the
    join of ``parts``, cut to its length; the copy reuses the list's
    memory, and the join the tuple's."""
    stream = tuple(symbols)
    symbols.clear()
    stream = _Coded(stream)
    # the last part may hold a padded chunk's surplus
    stream.code = b"".join(parts)[:len(stream)]
    return stream


# code byte -> mask byte, and -> token byte, a space for a data symbol
# of two or more digits
_MASK = bytes(1) + b"\x01" * 255
_TOKEN_BYTES = b"N0123456789".ljust(256, b" ")


def _data_mask(word: Iterable[Symbol]) -> bytes:
    """One byte per symbol: 1 for a data symbol, 0 for silence ``N``.

    A coded stream's mask is one ``translate`` of its code."""
    if type(word) is _Coded:
        return word.code.translate(_MASK)
    return bytes(map(operator.is_not, word, repeat(N)))


# two or more data symbols in a row, in a :func:`_data_mask`
_DATA_RUN = re.compile(rb"\x01\x01+")


def is_admissible(word: Sequence[Symbol]) -> bool:
    """True iff no two consecutive symbols are both data symbols.

    The mask is built and searched in C, so Python does no work per
    symbol; a stream from ``encode`` gives its mask with one
    ``translate`` of its byte code. A ``word`` that is not iterable, or
    is a ``str``, raises :class:`StreamFormatError`.
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


class _CanonicalSymbols(_Symbols):
    """A token table that outlives its calls: a token spelled otherwise
    than ``str`` spells its symbol (``00`` for ``0``; ``str(N)`` is
    ``N``) is converted but not kept, so new spellings cannot grow it."""

    def __missing__(self, token):
        symbol = super().__missing__(token)
        if token != str(symbol):
            self.pop(token, None)
        return symbol


def _normalize_bits(bits, name: str = "bits") -> str:
    if isinstance(bits, str):
        text = bits
    else:
        _check_iterable(bits, name, "a str or a sequence of bits")
        text = "".join(str(b) for b in bits)
    if not is_bits(text):
        raise StreamFormatError("bit strings may contain only 0 and 1")
    return text


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


def format_stream(word: Sequence[Symbol]) -> str:
    """Inverse of :func:`parse_stream`.

    A stream from ``encode`` whose tokens are all one character (q <=
    10) is spelled from its byte code, with one ``translate`` and a
    strided copy. Otherwise each distinct symbol is converted once;
    values that compare equal, such as ``True`` and ``1``, share the
    token of the first one. A ``word`` that is not iterable, is a
    ``str`` or holds an unhashable symbol raises
    :class:`StreamFormatError`.
    """
    _check_iterable(word, "word", "a sequence of symbols")
    if type(word) is _Coded:
        tokens = word.code.translate(_TOKEN_BYTES)
        if b" " not in tokens:
            text = bytearray(b" ") * (2 * len(tokens) - 1)
            text[::2] = tokens
            return text.decode()
    try:
        return " ".join(map(_Table(str).__getitem__, word))
    except TypeError as exc:  # looking a symbol up hashes it
        raise StreamFormatError(
            f"word holds an unhashable symbol: {exc}") from None
