"""An encoder's text form and its report.

:func:`serialize_encoder` writes a machine as lines, :func:`parse_encoder`
reads them back into an :class:`~relaycast.encoder.Encoder`, certified
as every machine is, and :func:`encoder_report` compares its rate with
the capacity. The command line's codec commands use them; a library
process that builds its machines and broadcasts does not, so this module
loads on first use (see ``relaycast._LAZY``)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List

from .constraint import capacity
from .encoder import _MEMO_SIZE, Encoder
from .errors import EncoderFormatError
from .symbols import _check_type, _read, _split, format_stream, is_decimal


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
    memoised on the text, as :func:`~relaycast.encoder.build_encoder`'s is
    on the rate, and shared by all callers with its tables warm; the
    machines of the 8 most recently parsed texts are kept."""
    _check_type(text, str, "text", EncoderFormatError)
    # the memo's key is an exact str: a subclass's own __eq__ and __hash__
    # could otherwise fetch the machine of another text
    return _parse(str.__str__(text))


@lru_cache(maxsize=_MEMO_SIZE)
def _parse(text: str) -> Encoder:
    """The body of :func:`parse_encoder`, on a checked exact str. Every
    line's codeword tokens are read in one batch, after the line loop,
    which a line's other error ends; :class:`Encoder` checks the targets."""
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
    # per state and tag, the line number of its transition
    rows = [[None] * fanout for _ in range(num_states)]
    tokens: List[str] = []  # every line's codeword tokens, in file order
    nexts: List[int] = []
    held = None
    for number, line in enumerate(lines[1:]):
        parts = line.split()
        if (len(parts) != 3 + n
                or not all(map(is_decimal, (parts[0], parts[1], parts[-1])))):
            held = f"bad transition line {line!r}"
            break
        tokens += parts[2:-1]
        state, tag = int(parts[0]), int(parts[1])
        if not 0 <= state < num_states or not 0 <= tag < fanout:
            held = f"state or tag out of range in {line!r}"
            break
        if rows[state][tag] is not None:
            held = f"duplicate transition for state {state} tag {tag}"
            break
        rows[state][tag] = number
        nexts.append(int(parts[-1]))
    code, fault = _read(tokens, q)
    del tokens  # 8 bytes per codeword symbol, the largest object here
    if fault:
        line = lines[1 + fault[0] // n]
        raise EncoderFormatError(f"bad transition line {line!r}") from fault[1]
    if held:
        raise EncoderFormatError(held)
    pairs = list(zip(_split(code, n), nexts))
    transitions = tuple(tuple(map(pairs.__getitem__, row)) for row in rows)
    # gone before the machine certifies itself
    del lines, rows, pairs, code
    return Encoder(q=q, p=p, n=n, start_state=start, transitions=transitions)
