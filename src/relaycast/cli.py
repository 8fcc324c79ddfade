"""Command-line front end.

Every subcommand is a thin wrapper over one library call: parse flags,
call, format. Exit codes: 0 success, 1 domain error (invalid parameter,
infeasible rate, malformed data, ...), 2 unknown subcommand, 3 malformed
flags, 4 file not found.

Only ``simulate`` and ``end-to-end`` import ``relaycast.simulator``,
inside their bodies, so the codec commands and ``table`` never compile
or run it; of the two only ``simulate`` imports ``relaycast.delivery``.
"""

from __future__ import annotations

import argparse
import errno
import random
import sys
import textwrap
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import List, Tuple

from .constraint import (DEFAULT_ENUMERATION_CAP, baseline_rate, capacity,
                         count_words, enumerate_words)
from .encoder import FrameHeader, build_encoder, decode, encode
from .encoder_file import encoder_report, parse_encoder, serialize_encoder
from .errors import (InvalidParameterError, RelaycastError,
                     UnsupportedParameterError)
from .symbols import (_check_int, _spell, format_stream, is_bits,
                      is_decimal, parse_stream)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN_COMMAND = 2
EXIT_USAGE = 3
EXIT_NOT_FOUND = 4

# Benchmark capacities (b/sym) of depth-limited binary-alphabet trees,
# achieved by depth-dependent on-off schedules; used as the comparison
# column of the rate table. Not derivable from this package.
TABLE_DEPTH_LABELS = ("2", "3", "5", "11", "inf")
TABLE_REFERENCE_RATES = (0.7729, 0.7324, 0.7099, 0.6981, 0.6942)


@dataclass(frozen=True)
class TableRow:
    """One comparison row: both schemes as a percentage of the benchmark."""

    depth: str
    reference_rate: float
    constrained_pct: float
    forwarding_pct: float


def table_report(q: int) -> List[TableRow]:
    """Constrained coding and plain forwarding vs. the depth benchmarks.

    Reference rates are only tabulated for q=1; any other q raises
    :class:`UnsupportedParameterError`.
    """
    if q != 1:
        raise UnsupportedParameterError(
            f"reference rates are only tabulated for q=1, got q={_spell(q)}")
    cap = capacity(1)
    fwd = baseline_rate(1)
    return [TableRow(depth=label, reference_rate=ref,
                     constrained_pct=100.0 * cap / ref,
                     forwarding_pct=100.0 * fwd / ref)
            for label, ref in zip(TABLE_DEPTH_LABELS, TABLE_REFERENCE_RATES)]


# ---------------------------------------------------------------------------
# plumbing

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(value: float, fmt: str) -> str:
    return repr(value) if fmt == "raw" else f"{value:.6f}"


def _read_value(value: str, kind: str = "file") -> str:
    """Return the UTF-8 text of the file ``value`` names, else ``value``.

    An inline value must look like the expected ``kind`` of payload,
    ``"bits"`` or ``"stream"``; anything else, and every value of kind
    ``"file"``, is treated as a missing file.
    """
    path = Path(value)
    try:
        is_file = path.is_file()
    except OSError:  # e.g. an inline value too long to be a file name
        is_file = False
    if is_file:
        try:
            return path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidParameterError(
                f"{value!r} is not UTF-8 text: {exc.reason} at byte {exc.start}"
            ) from None
    if kind == "bits" and is_bits(value):
        return value
    if kind == "stream" and all(t == "N" or is_decimal(t) for t in value.split()):
        return value
    raise FileNotFoundError(errno.ENOENT, "no such file", value)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_capacity(args) -> None:
    print(_fmt(capacity(args.q), args.format))


def _cmd_count(args) -> None:
    # str() of an int past 4,300 digits raises under the interpreter's
    # default limit; the Decimal of an int is exact and prints every
    # digit. Imported here, so that no other command pays for it.
    import decimal
    print(decimal.Decimal(count_words(args.q, args.n)))


def _cmd_enumerate(args) -> None:
    for word in enumerate_words(args.q, args.n, cap=args.cap):
        print(format_stream(word))


def _cmd_build_encoder(args) -> None:
    machine = build_encoder(args.q, args.p, args.n)
    text = serialize_encoder(machine)
    if args.out:
        Path(args.out).write_text(text)
        report = encoder_report(machine)
        print(f"states: {report.num_states}")
        print(f"rate: {_fmt(report.rate, args.format)}")
        print(f"capacity: {_fmt(report.capacity, args.format)}")
        print(f"efficiency: {_fmt(report.efficiency, args.format)}")
    else:
        sys.stdout.write(text)


def _cmd_encode(args) -> None:
    machine = parse_encoder(_read_value(args.encoder))
    bits = _read_value(args.bits, "bits").strip()
    stream, header = encode(machine, bits)
    pad = (-header.bit_length) % machine.p  # zero bits in the last block
    if args.format == "raw":
        print(f"{header.bit_length} {pad}")
        print(format_stream(stream))
    else:
        print(f"length: {header.bit_length}")
        print(f"pad: {pad}")
        print(f"stream: {format_stream(stream)}")


def _cmd_decode(args) -> None:
    # parsing first reports a bad token first, then the frame, then the
    # blocks
    machine = parse_encoder(_read_value(args.encoder))
    stream = parse_stream(_read_value(args.stream, "stream"), q=machine.q)
    print(decode(machine, stream, FrameHeader(args.length)))


def _cmd_simulate(args) -> None:
    from .delivery import verify_delivery
    from .simulator import parse_tree, simulate
    topo = parse_tree(_read_value(args.tree))
    stream = parse_stream(_read_value(args.stream, "stream"))
    trace = simulate(topo, stream, args.extra_slots)
    print(trace.export())
    report = verify_delivery(trace, topo, stream)
    print(f"violations: {report.violations}")
    for entry in report.nodes:
        status = "ok" if entry.passed else "FAIL"
        print(f"node {entry.node} depth {entry.depth}: {status}")


def _cmd_end_to_end(args) -> None:
    from .simulator import _SLOT_BUDGET, _check_slots, end_to_end, parse_tree
    topo = parse_tree(_read_value(args.tree))
    if args.bits is not None:
        bits = _read_value(args.bits, "bits").strip()
    else:
        # refused before any bit is drawn: a length past the budget, or
        # one whose stream and drain pass it (end_to_end's own check)
        _check_int(args.random, "random", 0)
        if args.random > _SLOT_BUDGET:
            raise InvalidParameterError(
                f"random={_spell(args.random)} passes the limit of "
                f"{_SLOT_BUDGET} message bits")
        machine = build_encoder(args.q, args.p, args.n)
        _check_slots(machine.n * machine._stream_blocks(args.random),
                     topo.max_depth)
        bits = random.Random(args.seed).getrandbits(args.random)
        bits = format(bits, f"0{args.random}b") if args.random else ""
    report = end_to_end(args.q, args.p, args.n, topo, bits)
    print(f"message bits: {report.message_bits}")
    print(f"rate: {_fmt(report.rate, args.format)}")
    print(f"capacity: {_fmt(report.capacity, args.format)}")
    print(f"baseline: {_fmt(report.baseline, args.format)}")
    for entry in report.nodes:
        status = "recovered" if entry.recovered else "FAIL"
        print(f"node {entry.node} depth {entry.depth}: {status}")
    print(f"all recovered: {'yes' if report.all_recovered else 'NO'}")


def _cmd_table(args) -> None:
    rows = table_report(args.q)
    if args.format == "raw":
        for row in rows:
            print(f"{row.depth} {row.reference_rate!r} "
                  f"{row.constrained_pct!r} {row.forwarding_pct!r}")
    else:
        print(f"{'depth':>6} {'benchmark':>10} {'constrained%':>13} "
              f"{'forwarding%':>12}")
        for row in rows:
            print(f"{row.depth:>6} {row.reference_rate:>10.4f} "
                  f"{row.constrained_pct:>13.2f} {row.forwarding_pct:>12.2f}")


# ---------------------------------------------------------------------------
# dispatch

def _integer(value: str) -> int:
    """An optional ``-`` then ASCII digits, as every file format spells them.

    ``int`` alone also takes other scripts' digits, ``_`` separators,
    ``+`` and surrounding spaces.
    """
    if not is_decimal(value.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}")
    return int(value)


_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": _integer, "required": True}
_RATE = [("--q", _REQUIRED_INT), ("--p", _REQUIRED_INT), ("--n", _REQUIRED_INT)]
_STREAM = ("--stream", {"required": True, "help": "path or inline tokens"})

# command -> (handler, summary, [(flag, add_argument options), ...]);
# every command also takes --format
_COMMANDS = {
    "capacity": (_cmd_capacity, "asymptotic rate of the constraint, b/sym",
                 [("--q", _REQUIRED_INT)]),
    "count": (_cmd_count, "exact number of admissible words",
              [("--q", _REQUIRED_INT), ("--n", _REQUIRED_INT)]),
    "enumerate": (_cmd_enumerate, "list admissible words",
                  [("--q", _REQUIRED_INT), ("--n", _REQUIRED_INT),
                   ("--cap", {"type": _integer,
                              "default": DEFAULT_ENUMERATION_CAP})]),
    "build-encoder": (_cmd_build_encoder, "synthesize a rate p:n machine",
                      _RATE + [("--out", {"help": "write serialized encoder "
                                          "here and print a report instead"})]),
    "encode": (_cmd_encode, "bits -> admissible stream",
               [("--encoder", _REQUIRED),
                ("--bits", {"required": True,
                            "help": "path or inline 0/1 string"})]),
    "decode": (_cmd_decode, "stream -> bits",
               [("--encoder", _REQUIRED), _STREAM,
                ("--length", {"type": _integer, "required": True,
                              "help": "message length in bits"})]),
    "simulate": (_cmd_simulate, "forward a stream through a tree",
                 [("--tree", _REQUIRED), _STREAM,
                  ("--extra-slots", {"type": _integer, "default": None})]),
    "end-to-end": (_cmd_end_to_end, "encode, broadcast, decode at every node",
                   _RATE + [("--tree", _REQUIRED),
                            ("--bits", {"help": "path or inline 0/1 string"}),
                            ("--random", {"type": _integer, "default": 1000,
                                          "help": "random message length "
                                          "when --bits is absent"}),
                            ("--seed", {"type": _integer, "default": 0})]),
    "table": (_cmd_table, "rates vs. depth-limited benchmarks",
              [("--q", _REQUIRED_INT)]),
}


@lru_cache(maxsize=len(_COMMANDS))
def _build_parser(command: str) -> Tuple[_Parser, object]:
    """Built on first use; ``parse_args`` keeps no state between calls."""
    handler, _, flags = _COMMANDS[command]
    parser = _Parser(prog=f"relaycast {command}")
    for flag, options in flags:
        parser.add_argument(flag, **options)
    parser.add_argument("--format", choices=("text", "raw"), default="text")
    return parser, handler


def _command_line(command: str) -> str:
    _, summary, flags = _COMMANDS[command]
    usage = " ".join(flag if options.get("required") else f"[{flag}]"
                     for flag, options in flags)
    return textwrap.fill(f"{summary} ({usage})", width=72,
                         initial_indent=f"  {command:<15}",
                         subsequent_indent=" " * 17,
                         break_on_hyphens=False)


_HELP = "\n".join([
    "usage: relaycast <command> [flags]", "", "commands:",
    *map(_command_line, _COMMANDS), "",
    "common flags:",
    "  --format {text,raw}   raw prints full double precision", "",
    "exit codes:",
    "  0 success, 1 domain error, 2 unknown command, 3 malformed flags,",
    "  4 file not found", ""])


def run(argv) -> int:
    """Dispatch one invocation; returns the exit status. Any ``argv``
    but a sequence of str (``sys.argv[1:]``) raises InvalidParameterError."""
    try:
        argv = None if isinstance(argv, str) else list(argv)
    except TypeError:
        argv = None
    if argv is None or not all(isinstance(arg, str) for arg in argv):
        raise InvalidParameterError(
            "argv must be a sequence of str arguments, such as sys.argv[1:]")
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(_HELP, end="")
        return EXIT_OK if argv else EXIT_UNKNOWN_COMMAND
    command, rest = argv[0], argv[1:]
    if command not in _COMMANDS:
        print(f"error: unknown command {command!r} (see --help)",
              file=sys.stderr)
        return EXIT_UNKNOWN_COMMAND
    parser, handler = _build_parser(command)
    try:
        args = parser.parse_args(rest)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse -h
        return int(exc.code or 0)
    try:
        handler(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename!r}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except RelaycastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
