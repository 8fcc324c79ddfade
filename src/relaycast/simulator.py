"""Slot-synchronous symbol forwarding over a rooted relay tree.

Every non-source node repeats, one slot later, whatever it heard from
its parent. A node transmitting a data symbol is ON for that slot and
cannot listen: whatever its parent sent is erased, and the node stores
silence in its place, which is only correct for an admissible source.
The violation log makes that testable: a violation is recorded whenever
a node is ON while its parent transmits data.

All nodes at one depth behave alike. A relay never sends two data
symbols in a row, so depth 1's stream is admissible whatever the source
sends, and each deeper relay passes it on unchanged, one slot later.
The simulator scans depth 1 once and keeps two rows, the source's and
depth 1's, deriving deeper rows on read, and a report keeps one verdict
per depth, building a node's record when it is read: every cost but a
walk over the nodes is O(slots), whatever the tree's shape. Checking a
trace against its source, which ``end_to_end`` never does, is
:mod:`relaycast.delivery`'s."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Dict, Optional, Tuple

from .constraint import capacity
from .encoder import Encoder, build_encoder, decode, encode
from .errors import InvalidParameterError, RelaycastError, TopologyError
from .symbols import (_DATA_RUN, ERASED, N, Stream, _check_int, _check_type,
                      _data_mask, _normalize_bits, _spell, _stream, _word,
                      is_decimal)

# Slots simulate runs at most, stream and extra slots together: a row of
# a byte code holds 64 MiB, and one of symbols 512 MiB.
_SLOT_BUDGET = 1 << 26


# ---------------------------------------------------------------------------
# topology

@dataclass(frozen=True, eq=False)
class TreeTopology:
    """Rooted directed tree of node ids; node 0 is the source."""

    nodes: Tuple[int, ...]
    parent: Dict[int, int]
    depth: Dict[int, int]

    @cached_property
    def max_depth(self) -> int:
        return max(self.depth.values())

    @cached_property
    def _relays(self) -> int:
        """The number of depth-1 nodes."""
        return sum(d == 1 for d in self.depth.values())


def parse_tree(text: str) -> TreeTopology:
    """Parse a topology file: one ``<node_id> <parent_id>`` pair per line.

    The root uses ``-`` as its parent and must have id 0; ``#`` starts a
    comment. Raises :class:`TopologyError` with a distinct reason code
    for empty input, bad lines, duplicate declarations, multiple roots,
    a non-zero root id, unknown parent ids, and parent cycles; a
    ``text`` that is not a ``str`` is a ``"format"`` error.
    """
    _check_type(text, str, "text", partial(TopologyError, "format"))
    declared: Dict[int, Optional[int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise TopologyError("format", f"line {lineno}: expected "
                                f"'<node> <parent>', got {raw.strip()!r}")
        if not is_decimal(parts[0]):
            raise TopologyError("format", f"line {lineno}: bad node id {parts[0]!r}")
        node = int(parts[0])
        if parts[1] == "-":
            parent: Optional[int] = None
        elif is_decimal(parts[1]):
            parent = int(parts[1])
        else:
            raise TopologyError("format", f"line {lineno}: bad parent {parts[1]!r}")
        if node in declared:
            raise TopologyError("multiple-parents",
                                f"node {node} is declared more than once")
        declared[node] = parent

    if not declared:
        raise TopologyError("empty", "topology has no nodes")
    roots = [node for node, parent in declared.items() if parent is None]
    if len(roots) > 1:
        raise TopologyError("multiple-roots", f"several roots: {sorted(roots)}")
    if roots and roots[0] != 0:
        raise TopologyError("bad-root-id", f"root must be node 0, got {roots[0]}")
    for node, parent in declared.items():
        if parent is not None and parent not in declared:
            raise TopologyError("unknown-parent",
                                f"node {node} names unknown parent {parent}")

    depth: Dict[int, int] = {}
    for start in declared:
        trail: Dict[int, None] = {}  # the walk so far, in order
        current = start
        while current not in depth:
            if current in trail:
                raise TopologyError("cycle",
                                    f"parent links loop through node {current}")
            parent = declared[current]
            if parent is None:
                depth[current] = 0
                break
            trail[current] = None
            current = parent
        for node in reversed(trail):
            depth[node] = depth[declared[node]] + 1

    parent_map = {node: parent for node, parent in declared.items()
                  if parent is not None}
    return TreeTopology(nodes=tuple(sorted(declared)),
                        parent=parent_map, depth=depth)


# ---------------------------------------------------------------------------
# simulation

@dataclass(frozen=True, eq=False)
class SimTrace:
    """Per-slot transcript of what every node transmitted and received.

    Two rows: ``source``, the padded source stream, and ``relayed``, what
    depth 1 sends, with ``lost``, the slots of depth 1's violations. The
    rows are byte codes (see :mod:`relaycast.symbols`) when the source has
    one, else tuples of symbols. Depth d >= 1 sends ``relayed`` after d-1
    silences, cut to ``num_slots``, and hears :data:`ERASED` where it sends
    data, otherwise what depth d-1 sends; no deeper node has violations.
    :meth:`transmit_stream` gives one node's row, in the rows' form; the
    per-node symbol views ``received`` (:data:`ERASED` where a symbol was
    lost, ``None`` for the source) and ``violations`` are derived on read."""

    nodes: Tuple[int, ...]
    depth: Dict[int, int]
    source: Stream
    relayed: Stream
    lost: Tuple[int, ...]

    @property
    def num_slots(self) -> int:
        return len(self.source)

    def _sent(self, d: int) -> Stream:
        """What every node at depth ``d`` transmits."""
        relayed = self.relayed
        return (_silence(relayed, d - 1) + relayed)[:self.num_slots] if d else self.source

    def _heard(self, d: int) -> Tuple[object, ...]:
        """What every node at depth ``d`` receives."""
        if d == 0:
            return (None,) * self.num_slots
        return tuple(u if s is N else ERASED for s, u in
                     zip(_word(self._sent(d)), _word(self._sent(d - 1))))

    def _by_depth(self, row) -> list:
        """``row(d)`` for every depth d of the tree."""
        return [row(d) for d in range(max(self.depth.values()) + 1)]

    @cached_property
    def received(self) -> Tuple[Tuple[object, ...], ...]:
        rows = self._by_depth(self._heard)
        return tuple(zip(*(rows[self.depth[v]] for v in self.nodes)))

    @cached_property
    def violations(self) -> Tuple[Tuple[int, int], ...]:
        """``(slot, node)`` pairs, sorted by slot, then by node id."""
        relays = [v for v in self.nodes if self.depth[v] == 1]
        return tuple((t, v) for t in self.lost for v in relays)

    def transmit_stream(self, node: int) -> Stream:
        """Everything ``node`` sent, slot by slot. A ``node`` that is not
        a nonnegative ``int`` raises :class:`InvalidParameterError`."""
        _check_int(node, "node", 0)
        if node not in self.depth:
            raise InvalidParameterError(
                f"node {_spell(node)} is not in the trace")
        return self._sent(self.depth[node])

    def export(self) -> str:
        """One line per slot: ``t | v:sym ...``, ``*`` marking erased reception."""
        rows = [_word(row) for row in self._by_depth(self._sent)]
        lines = []
        for t in range(self.num_slots):
            # a relay's reception is erased exactly when it sends data
            tokens = ["N" if row[t] is N else f"{row[t]}*" if d else str(row[t])
                      for d, row in enumerate(rows)]
            cells = " ".join(f"{v}:{tokens[self.depth[v]]}" for v in self.nodes)
            lines.append(f"{t} | {cells}")
        return "\n".join(lines)


def _silence(stream: Stream, slots: int) -> Stream:
    """``slots`` silent slots, in the form of ``stream``."""
    return bytes(slots) if isinstance(stream, bytes) else (N,) * slots


def _relay(parent_stream: Stream, mask: bytes) -> Tuple[Stream, Tuple[int, ...]]:
    """A depth-1 relay's transmissions, in the form of ``parent_stream``,
    and its violation slots; ``mask`` is the :func:`_data_mask` of
    ``parent_stream`` or of a prefix that holds all its data symbols.

    The relay sends what it stored the slot before, initially silence. It
    stores what its parent sends while OFF and silence while ON, when a
    data symbol from the parent is a violation. So it loses exactly the
    2nd, 4th, ... symbol of each run of data symbols, which one regular
    expression over the mask finds in C: Python runs once per lost symbol,
    not once per slot, and with none lost two copies make the row."""
    lost = [t for run in _DATA_RUN.finditer(mask)
            for t in range(run.start() + 1, run.end(), 2)]
    silent = _silence(parent_stream, 1)
    if not lost:
        return (silent + parent_stream)[:len(parent_stream)], ()
    # one slot longer than the stream, so a symbol lost in the last slot
    # has a slot to silence
    sent = (bytearray if isinstance(silent, bytes) else list)(silent + parent_stream)
    for t in lost:
        sent[t + 1] = silent[0]
    return type(parent_stream)(sent[:-1]), tuple(lost)


def _check_slots(stream_slots: int, extra_slots: int) -> None:
    """Refuse a run of ``stream_slots`` then ``extra_slots`` slots past
    ``_SLOT_BUDGET`` with :class:`InvalidParameterError`."""
    if extra_slots > _SLOT_BUDGET - stream_slots:
        raise InvalidParameterError(
            f"{stream_slots} stream slots and extra_slots={_spell(extra_slots)} "
            f"pass the simulation budget of {_SLOT_BUDGET} slots")


def _stream_slots(machine: Encoder, bits: int) -> int:
    """The length of ``machine``'s stream for ``bits`` message bits: n
    symbols per p-bit block, the last block padded, and per flush block;
    none for no bits."""
    blocks = -(-bits // machine.p)
    return machine.n * (blocks + machine.anticipation) if blocks else 0


def simulate(topo: TreeTopology, source_stream,
             extra_slots: Optional[int] = None) -> SimTrace:
    """Run ``len(source_stream) + extra_slots`` slots of forwarding.

    The source sends its stream, then silence; every other node repeats,
    one slot later, what it heard from its parent (see :func:`_relay`).
    ``extra_slots`` defaults to the tree depth, so the pipeline drains.
    The stream may be inadmissible; every slot where a node is ON under a
    data-transmitting parent is logged. Only depth 1 is scanned (see
    :class:`SimTrace`), so time and memory are O(slots). A byte code, or
    symbols all below 255, gets byte rows and a data mask made by one
    ``translate``: no Python work per symbol.
    A horizon past 2**26 slots (``_SLOT_BUDGET``) raises
    :class:`InvalidParameterError` before any row is built, as does any
    ``topo`` but a :class:`TreeTopology`."""
    _check_type(topo, TreeTopology, "topo")
    stream = _stream(source_stream, "source_stream")
    if extra_slots is None:
        extra_slots = topo.max_depth
    _check_int(extra_slots, "extra_slots", 0)
    _check_slots(len(stream), extra_slots)
    source = stream + _silence(stream, extra_slots)
    relayed, lost = _relay(source, _data_mask(stream))
    return SimTrace(nodes=topo.nodes, depth=topo.depth, source=source,
                    relayed=relayed, lost=lost)


# ---------------------------------------------------------------------------
# reports

class _NodeRecords(Sequence):
    """A report's records in node order, ``record(node, depth,
    verdicts[depth])`` each, built when read; a slice is a tuple."""

    __slots__ = ("_topo", "_record", "_verdicts")

    def __init__(self, topo: TreeTopology, record: type, verdicts: tuple):
        self._topo, self._record, self._verdicts = topo, record, verdicts

    def __len__(self) -> int:
        return len(self._topo.nodes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        node = self._topo.nodes[index]
        depth = self._topo.depth[node]
        return self._record(node, depth, self._verdicts[depth])

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)


def baseline_rate(q: int) -> float:
    """Rate of deterministic store-and-forward with alternating slots.

    Each node stays OFF half the time, so ``0.5 * log2(q+1)`` bits per
    symbol.
    """
    _check_int(q, "q")
    return 0.5 * math.log2(q + 1)


# ---------------------------------------------------------------------------
# the full pipeline

@dataclass(frozen=True, slots=True)
class NodeRecovery:
    """Whether one node decoded the message bits exactly."""

    node: int
    depth: int
    recovered: bool


@dataclass(frozen=True)
class EndToEndReport:
    """One :func:`end_to_end` run: the code's rate against the capacity
    and the forwarding baseline, the message length, and the recovery
    verdict per depth, the source's first; ``nodes`` views the records."""

    q: int
    p: int
    n: int
    rate: float
    capacity: float
    baseline: float
    message_bits: int
    recovered: Tuple[bool, ...]
    topology: TreeTopology = field(repr=False)

    @property
    def nodes(self) -> Sequence:
        return _NodeRecords(self.topology, NodeRecovery, self.recovered)

    @property
    def all_recovered(self) -> bool:
        return all(self.recovered)


def end_to_end(q: int, p: int, n: int, topo: TreeTopology,
               message) -> EndToEndReport:
    """Encode, broadcast through the tree, decode at every node, compare.

    Simulates the stream of :func:`build_encoder`'s rate p:n machine with
    the default extra slots; every node must decode the message bits
    exactly from what it forwards after its depth-long silence. Every
    depth >= 1 forwards ``relayed[1:1 + len(stream)]``, so the relays share
    one verdict, and a lost slot is always a data slot inside the stream,
    so that window is decoded only when ``trace.lost`` is not empty. Any
    ``topo`` but a :class:`TreeTopology`, or a stream and drain past the
    simulator's slot budget, raises :class:`InvalidParameterError` before
    anything is encoded."""
    machine = build_encoder(q, p, n)
    bits = _normalize_bits(message, "message")
    _check_type(topo, TreeTopology, "topo")
    _check_slots(_stream_slots(machine, len(bits)), topo.max_depth)
    stream, header = encode(machine, bits)
    trace = simulate(topo, stream)

    def recovers(window: Stream) -> bool:
        try:
            return decode(machine, window, header) == bits
        except RelaycastError:
            return False

    source_ok = recovers(stream)
    relay_ok = (source_ok if not trace.lost or not topo.max_depth
                else recovers(trace.relayed[1:1 + len(stream)]))
    return EndToEndReport(q=q, p=p, n=n, rate=p / n, capacity=capacity(q),
                          baseline=baseline_rate(q), message_bits=len(bits),
                          recovered=(source_ok,) + (relay_ok,) * topo.max_depth,
                          topology=topo)
