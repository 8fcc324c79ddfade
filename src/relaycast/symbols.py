"""Channel symbols and symbol streams.

A symbol is either a data symbol (an ``int`` in ``0..q-1``, the node is
ON) or the distinguished silence symbol ``N`` (the node is OFF, i.e.
listening). Silence is a sentinel object rather than the integer ``q``
so that arithmetic on it fails loudly instead of corrupting a stream.
The simulator's ``ERASED`` reception is a sentinel of the same kind.
Streams serialize as whitespace-separated tokens: decimal digits for
data symbols and the literal token ``N`` for silence, e.g. ``0 N 1 N N``.

A stream of symbols below 255 is held as its byte code, ``bytes`` with
0 for ``N`` and k + 1 for data symbol k, whatever q. ``encode`` returns
it for q <= 255, and every stream function takes it or a sequence of
symbols, converted to the code once, on entry. A stream with no code (a
symbol of 255 or more, or an item that is no symbol) is a tuple."""

from __future__ import annotations

import math
import operator
import re
import struct
from functools import lru_cache
from itertools import chain, repeat
from typing import Optional, Sequence, Tuple, Union

from .errors import InvalidParameterError, RelaycastError, StreamFormatError


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
# a byte code, or a word where a symbol has no code byte
Stream = Union[bytes, Word]


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


# code byte -> symbol, and symbol -> code byte for the 256 symbols that
# have one; a value equal to a symbol, such as True for 1, maps as it
_SYMBOL = (N, *range(255))
_CODE = dict(zip(_SYMBOL, range(256)))
# code byte -> mask byte, and -> token byte, a space for a data symbol of
# two or more digits
_MASK = bytes(1) + b"\x01" * 255
_TOKEN_BYTES = b"N0123456789".ljust(256, b" ")
# one-character token -> code byte
_CHAR_CODE = bytes.maketrans(b"N0123456789", bytes(range(11)))


def _code_of(word: Sequence) -> Optional[bytes]:
    """The byte code of ``word``, a code or a sequence of symbols below
    255, converted in C; ``None`` when an item is no such symbol."""
    if isinstance(word, (bytes, bytearray)):
        return bytes(word)
    try:
        return bytes(map(_CODE.__getitem__, word))
    except (KeyError, TypeError):
        return None


def _stream(word, name: str) -> Stream:
    """``word`` as its byte code, else a tuple of its items; not
    iterable, or a ``str``, it raises :class:`StreamFormatError`."""
    _check_iterable(word, name, "a sequence of symbols")
    if not isinstance(word, (bytes, bytearray, tuple, list)):
        word = tuple(word)
    code = _code_of(word)
    return tuple(word) if code is None else code


def _word(stream: Stream) -> Word:
    """The symbols of a stream: a byte code's, or a tuple as it is."""
    if isinstance(stream, bytes):
        return tuple(map(_SYMBOL.__getitem__, stream))
    return stream


def _data_mask(stream: Stream) -> bytes:
    """One byte per symbol: 1 for a data symbol, 0 for silence ``N``."""
    if isinstance(stream, bytes):
        return stream.translate(_MASK)
    return bytes(map(operator.is_not, stream, repeat(N)))


# two or more data symbols in a row, in a :func:`_data_mask`
_DATA_RUN = re.compile(rb"\x01\x01+")


def is_admissible(word: Union[bytes, Sequence[Symbol]]) -> bool:
    """True iff no two consecutive symbols are both data symbols.

    ``word`` is a byte code or a sequence of symbols; a code's mask of data
    slots is one ``translate``, searched in C. A ``word`` that is not
    iterable, or is a ``str``, raises :class:`StreamFormatError`."""
    return _DATA_RUN.search(_data_mask(_stream(word, "word"))) is None


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
    """Token -> symbol, each token checked and converted on first sight;
    any other item is taken as a symbol."""

    def __init__(self, q):
        super().__init__()
        self._q = q

    def __missing__(self, token):
        if not isinstance(token, str):
            symbol = token
        elif token == "N":
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


class _Codes(dict):
    """Token or symbol -> code byte, checked as :class:`_Symbols` checks
    it: ``KeyError`` for no symbol below 255, which is never stored."""

    def __init__(self, q):
        super().__init__()
        self._symbol = _Symbols(q).__getitem__

    def __missing__(self, item):
        self[item] = code = _CODE[self._symbol(item)]
        return code


def _chars_code(chars: str, q: int) -> Optional[bytes]:
    """The byte code of one-character tokens, one per character of
    ``chars``, by one ``translate``; ``None`` if one is no token for q."""
    text = chars.encode("ascii", "replace")  # "?" for any other character
    # the valid one-character tokens: N and the digits below min(q, 10)
    if text.translate(None, b"N0123456789"[:min(q, 10) + 1]):
        return None
    return text.translate(_CHAR_CODE)


def _read(word: Sequence, q: int):
    """``word`` (a byte code, symbols or tokens, checked as parse_stream
    checks them) as q's machines read it: a byte code for q <= 255, else a
    tuple, with ``None``; or the stream of the items before the first bad
    token, unhashable item or (q <= 255) non-symbol, with its index and
    error. One-character tokens take one join."""
    if q > 255:
        table, join = _Symbols(q), tuple
        if isinstance(word, (bytes, bytearray)):
            word = _word(bytes(word))
    else:
        table, join = _Codes(q), bytes
        code = _code_of(word)
        try:
            if code is None and len(chars := "".join(word)) == len(word):
                code = _chars_code(chars, q)
        except TypeError:  # an item is no str
            pass
        if code is not None:
            return code, None
    try:
        return join(map(table.__getitem__, word)), None
    except (RelaycastError, KeyError, TypeError):
        converted = []
    for item in word:  # again, up to the first bad item
        try:
            converted.append(table[item])
        except (RelaycastError, KeyError, TypeError) as exc:
            return join(converted), (len(converted), exc)


def _normalize_bits(bits, name: str = "bits") -> str:
    if isinstance(bits, str):
        text = bits
    else:
        _check_iterable(bits, name, "a str or a sequence of bits")
        text = "".join(str(b) for b in bits)
    if not is_bits(text):
        raise StreamFormatError("bit strings may contain only 0 and 1")
    return text


def _chunk_values(bits: str, width: int):
    """The values of the ``width``-bit chunks of ``bits`` (width up to 64),
    read in C: each chunk is copied into an 8, 16, 32 or 64-bit field, one
    strided copy per bit, and the fields are read as one number."""
    size = 8 << max(0, (width - 1).bit_length() - 3)
    fields = bits
    if width < size:
        fields = bytearray(b"0") * (len(bits) // width * size)
        text = bits.encode()
        for j in range(width):
            fields[size - width + j::size] = text[j::width]
    data = int(fields, 2).to_bytes(len(fields) // 8, "big")
    if size == 8:
        return data
    field = {16: "H", 32: "I", 64: "Q"}[size]  # struct's format of a field
    return struct.unpack(f">{len(data) * 8 // size}{field}", data)


@lru_cache(maxsize=256)
def _cut(n: int, count: int) -> struct.Struct:
    """``count`` n-byte fields, count <= 256, compiled once per pair."""
    return struct.Struct(f"{n}s" * count)


def _split(stream: Stream, n: int):
    """``stream`` cut into its n-item slices; a byte code is cut in C,
    256 slices per step of one compiled format, then the rest."""
    if isinstance(stream, bytes):
        whole = len(stream) - len(stream) % (256 * n)
        return (*chain.from_iterable(_cut(n, 256).iter_unpack(stream[:whole])),
                *_cut(n, (len(stream) - whole) // n).unpack(stream[whole:]))
    return tuple(map(stream.__getitem__, map(slice, range(0, len(stream), n),
                                             range(n, len(stream) + n, n))))


def parse_stream(text: str, q: int | None = None) -> Stream:
    """Parse a token stream like ``0 N 1 N N``.

    When ``q`` is given, data symbols must lie in ``0..q-1``, and for q <=
    255 the result is the byte code: one-character tokens one space apart
    take a strided slice and one ``translate``. Otherwise it is a tuple of
    symbols. Each distinct token is checked on its first occurrence, so
    the first bad token is the one reported. A ``text`` that is not a
    ``str`` raises :class:`StreamFormatError`."""
    _check_type(text, str, "text", StreamFormatError)
    if q is None:
        return tuple(map(_Symbols(q).__getitem__, text.split()))
    _check_int(q, "q")
    if q <= 255 and (chars := text.strip())[1::2] == " " * (len(chars) // 2):
        code = _chars_code(chars[::2], q)
        if code is not None:
            return code
    stream, fault = _read(text.split(), q)
    if fault:
        raise fault[1]
    return stream


def format_stream(word: Union[bytes, Sequence[Symbol]]) -> str:
    """Inverse of :func:`parse_stream`, for a byte code or a sequence of
    symbols, read as its code when it has one. A code of one-character
    tokens is spelled with one ``translate`` and a strided copy; a stream
    with no code symbol by symbol, each distinct symbol converted once. A
    ``word`` that is not iterable, is a ``str`` or holds an unhashable
    symbol raises :class:`StreamFormatError`."""
    stream = _stream(word, "word")
    if isinstance(stream, bytes):
        tokens = stream.translate(_TOKEN_BYTES)
        if b" " in tokens:
            return " ".join(map(str, map(_SYMBOL.__getitem__, stream)))
        text = bytearray(b" ") * (2 * len(tokens) - 1)
        text[::2] = tokens
        return text.decode()
    try:
        return " ".join(map(_Table(str).__getitem__, stream))
    except TypeError as exc:  # looking a symbol up hashes it
        raise StreamFormatError(
            f"word holds an unhashable symbol: {exc}") from None
