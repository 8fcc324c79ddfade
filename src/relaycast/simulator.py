"""Slot-synchronous symbol forwarding over a rooted relay tree.

Every non-source node repeats, one slot later, whatever it heard from
its parent in the previous slot. A node transmitting a data symbol is ON
for that slot and cannot listen: whatever its parent sent is erased. The
simulator never peeks at an erased symbol; the node stores silence in
its place, which is only correct when the source stream is admissible.
That is exactly the property the violation log makes testable: a
violation is recorded whenever a node is ON while its parent transmits a
data symbol, and an inadmissible source provably produces one.

All nodes at one depth behave alike. A relay never sends two data
symbols in a row, so depth 1's stream is admissible whatever the source
sends, and each deeper relay passes it on unchanged, one slot later.
The simulator scans depth 1 once and keeps two rows, the source's and
depth 1's, deriving deeper rows on read: simulation, delivery checks
and decoding in the pipeline cost O(slots), whatever the tree's shape.
A node's delivery or recovery record is fixed by its depth's verdict,
so the per-node records are built once and shared while the verdicts
repeat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Dict, List, Optional, Sequence, Tuple

from .constraint import capacity
from .encoder import build_encoder, decode, encode
from .errors import InvalidParameterError, RelaycastError, TopologyError
from .symbols import (_DATA_RUN, ERASED, N, Symbol, Word, _check_int,
                      _check_iterable, _check_type, _data_mask,
                      _normalize_bits, _spell, is_decimal)


# ---------------------------------------------------------------------------
# topology

@dataclass(frozen=True, eq=False)
class TreeTopology:
    """Rooted directed tree of node ids; node 0 is the source."""

    nodes: Tuple[int, ...]
    parent: Dict[int, int]
    depth: Dict[int, int]
    # record type -> ((source verdict, first passing relay depth), records)
    _shared: Dict[type, Tuple[Tuple[bool, int], tuple]] = field(
        default_factory=dict, init=False, repr=False)

    @cached_property
    def max_depth(self) -> int:
        return max(self.depth.values())

    @cached_property
    def _relays(self) -> int:
        """The number of depth-1 nodes."""
        return sum(d == 1 for d in self.depth.values())

    def _records(self, record: type, source_ok: bool,
                 first_ok: int) -> Tuple[tuple, bool]:
        """``record(node, depth, verdict)`` for every node, in node order,
        and whether every verdict passes.

        The source's verdict is ``source_ok`` and depth d >= 1's is
        ``d >= first_ok``: a relay's verdict can only turn from failing
        to passing with depth, since depth d sends depth 1's row d-1
        slots late and the horizon cuts off more of it. Records are
        frozen, so each record type keeps the tuple of its last pattern
        and shares it with every report that has that pattern; another
        pattern rebuilds it.
        """
        pattern = (source_ok, min(first_ok, self.max_depth + 1))
        kept = self._shared.get(record)
        if kept is None or kept[0] != pattern:
            verdicts = [source_ok] + [d >= pattern[1]
                                      for d in range(1, self.max_depth + 1)]
            depth = self.depth
            kept = self._shared[record] = (pattern, tuple(
                record(v, depth[v], verdicts[depth[v]]) for v in self.nodes))
        return kept[1], source_ok and pattern[1] <= 1


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
        trail: List[int] = []
        on_trail = set()
        current = start
        while current not in depth:
            if current in on_trail:
                raise TopologyError("cycle",
                                    f"parent links loop through node {current}")
            parent = declared[current]
            if parent is None:
                depth[current] = 0
                break
            trail.append(current)
            on_trail.add(current)
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

    Two rows: ``source``, the padded source stream, and ``relayed``,
    what depth 1 sends, with ``lost``, the slots of depth 1's violations.
    Depth d >= 1 sends ``((N,)*(d-1) + relayed)[:num_slots]`` and hears
    :data:`ERASED` where it sends data, otherwise what depth d-1 sends;
    no deeper node has violations. :meth:`transmit_stream` gives one
    node's row; the per-node views ``received`` and ``violations`` are
    derived when first read.

    ``received`` holds :data:`ERASED` where the half-duplex rule lost a
    symbol and ``None`` for the source, which has no parent to hear.
    """

    nodes: Tuple[int, ...]
    depth: Dict[int, int]
    source: Word
    relayed: Word
    lost: Tuple[int, ...]

    @property
    def num_slots(self) -> int:
        return len(self.source)

    def _sent(self, d: int) -> Word:
        """What every node at depth ``d`` transmits."""
        return ((N,) * (d - 1) + self.relayed)[:self.num_slots] if d else self.source

    def _heard(self, d: int) -> Tuple[object, ...]:
        """What every node at depth ``d`` receives."""
        if d == 0:
            return (None,) * self.num_slots
        return tuple(u if s is N else ERASED
                     for s, u in zip(self._sent(d), self._sent(d - 1)))

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

    def transmit_stream(self, node: int) -> Word:
        """Everything ``node`` sent, slot by slot. A ``node`` that is not
        a nonnegative ``int`` raises :class:`InvalidParameterError`."""
        _check_int(node, "node", 0)
        if node not in self.depth:
            raise InvalidParameterError(
                f"node {_spell(node)} is not in the trace")
        return self._sent(self.depth[node])

    def export(self) -> str:
        """One line per slot: ``t | v:sym ...``, ``*`` marking erased reception."""
        rows = self._by_depth(self._sent)
        lines = []
        for t in range(self.num_slots):
            # a relay's reception is erased exactly when it sends data
            tokens = ["N" if row[t] is N else f"{row[t]}*" if d else str(row[t])
                      for d, row in enumerate(rows)]
            cells = " ".join(f"{v}:{tokens[self.depth[v]]}" for v in self.nodes)
            lines.append(f"{t} | {cells}")
        return "\n".join(lines)


def _relay(parent_stream: Word, mask: bytes) -> Tuple[Word, Tuple[int, ...]]:
    """A depth-1 relay's transmissions and violation slots.

    ``mask`` is the :func:`_data_mask` of ``parent_stream``, or of a
    prefix of it that holds all its data symbols.

    The relay transmits what it stored in the previous slot, initially
    silence. While OFF it stores what its parent sends; while ON it
    stores silence, since it cannot know what it missed, and a data
    symbol from the parent in that slot is a violation.

    So the relay is ON one slot after each symbol it stores and loses
    exactly the 2nd, 4th, ... symbol of each maximal run of data
    symbols: it sends ``(N,) + parent_stream[:-1]`` with silence in the
    slot after each lost one. The runs are found in C, by one regular
    expression over a byte mask of the data slots, so Python runs once
    per lost symbol, not once per slot; with none lost, two tuple copies
    make the row.
    """
    lost = [t for run in _DATA_RUN.finditer(mask)
            for t in range(run.start() + 1, run.end(), 2)]
    if not lost:
        return (N,) + parent_stream[:-1] if parent_stream else (), ()
    # one slot longer than the stream, so a symbol lost in the last slot
    # has a slot to silence
    sent = [N, *parent_stream]
    for t in lost:
        sent[t + 1] = N
    return tuple(sent[:-1]), tuple(lost)


def _source(source_stream: Sequence[Symbol]) -> Word:
    """The source stream as a tuple, any tuple as it is; a ``str`` is
    text, not symbols."""
    _check_iterable(source_stream, "source_stream", "a sequence of symbols")
    if isinstance(source_stream, tuple):
        return source_stream
    return tuple(source_stream)


def simulate(topo: TreeTopology, source_stream: Sequence[Symbol],
             extra_slots: Optional[int] = None) -> SimTrace:
    """Run ``len(source_stream) + extra_slots`` slots of forwarding.

    The source transmits its stream (silence once exhausted); every other
    node repeats, one slot later, what it heard from its parent (see
    :func:`_relay`). ``extra_slots`` defaults to the tree depth so the
    pipeline drains. The stream may be inadmissible; every slot where a
    node is ON under a data-transmitting parent is logged.

    Only depth 1 is scanned (see :class:`SimTrace`): time and memory
    are O(slots), whatever the depth and the number of nodes. A tuple
    is read as it is; a stream from ``encode`` gives its data mask with
    one ``translate`` of its byte code, and with no slot lost depth 1
    sends ``(N,) + source[:-1]``, so such a stream costs no Python work
    per symbol. Any ``topo`` but a :class:`TreeTopology` raises
    InvalidParameterError.
    """
    _check_type(topo, TreeTopology, "topo")
    stream = _source(source_stream)
    if extra_slots is None:
        extra_slots = topo.max_depth
    _check_int(extra_slots, "extra_slots", 0)
    source = stream + (N,) * extra_slots
    relayed, lost = _relay(source, _data_mask(stream))
    return SimTrace(nodes=topo.nodes, depth=topo.depth, source=source,
                    relayed=relayed, lost=lost)


# ---------------------------------------------------------------------------
# delivery verification

@dataclass(frozen=True, slots=True)
class NodeDelivery:
    """Whether one node forwarded the source stream, delayed by its depth."""

    node: int
    depth: int
    passed: bool


@dataclass(frozen=True)
class DeliveryReport:
    """:func:`verify_delivery`'s verdict per node, in node order, and the
    number of (slot, node) violations in the trace."""

    nodes: Tuple[NodeDelivery, ...]
    violations: int

    @cached_property
    def all_passed(self) -> bool:
        """Every node passed; :func:`verify_delivery` fills it in O(1)."""
        return all(entry.passed for entry in self.nodes)


def verify_delivery(trace: SimTrace, topo: TreeTopology,
                    source_stream: Sequence[Symbol]) -> DeliveryReport:
    """Check that every node relays the source stream delayed by its depth.

    A node's forwarded stream (its transmissions, in which erased
    receptions already appear as silence) must equal depth-many leading
    silences followed by the source stream, truncated to the simulated
    horizon. For an admissible source this holds at every node with zero
    violations; an inadmissible source breaks it somewhere.

    Depth d >= 1 sends ``relayed`` d-1 slots late, so it passes iff
    ``relayed`` matches depth 1's expected row before slot
    ``horizon - d + 1``. ``topo`` must be the tree the trace ran on;
    its per-node records are shared (see ``TreeTopology._records``).
    A ``trace`` or ``topo`` of another type raises
    :class:`InvalidParameterError`.
    """
    _check_type(trace, SimTrace, "trace")
    _check_type(topo, TreeTopology, "topo")
    if topo.depth is not trace.depth and topo.depth != trace.depth:
        raise InvalidParameterError("topology is not the one the trace ran on")
    stream = _source(source_stream)
    horizon = trace.num_slots
    expected = ((N,) + stream + (N,) * horizon)[:horizon]
    first_miss = horizon
    if trace.relayed != expected:  # compared in C; scanned only on a miss
        first_miss = next((t for t, (got, want) in
                           enumerate(zip(trace.relayed, expected))
                           if got != want), horizon)
    source_ok = trace.source == (stream + (N,) * horizon)[:horizon]
    nodes, all_passed = topo._records(NodeDelivery, source_ok,
                                      horizon - first_miss + 1)
    report = DeliveryReport(nodes=nodes,
                            violations=len(trace.lost) * topo._relays)
    # the verdict pattern decides the cached property without a walk
    vars(report)["all_passed"] = all_passed
    return report


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
    and the forwarding baseline, the message length, and each node's
    recovery, in node order."""

    q: int
    p: int
    n: int
    rate: float
    capacity: float
    baseline: float
    message_bits: int
    nodes: Tuple[NodeRecovery, ...]

    @cached_property
    def all_recovered(self) -> bool:
        """Every node recovered; :func:`end_to_end` fills it in O(1)."""
        return all(entry.recovered for entry in self.nodes)


def end_to_end(q: int, p: int, n: int, topo: TreeTopology,
               message) -> EndToEndReport:
    """Encode, broadcast through the tree, decode at every node, compare.

    Takes the rate p:n machine from :func:`build_encoder`, which
    synthesizes each rate once per process, feeds the encoded stream to
    the source, simulates with the default ``max_depth`` extra slots,
    then strips each depth's depth-long silence prefix from its
    forwarded stream and decodes it. Every node must recover the
    message bits exactly.

    Every depth >= 1 forwards ``relayed[1:1 + len(stream)]``. A lost
    slot is always a data slot inside the stream, so that window equals
    the stream exactly when ``trace.lost`` is empty; depth 1's window is
    decoded only when a slot was lost, since decoding is deterministic.
    Per-node records are shared per tree while the verdict pattern
    repeats (see ``TreeTopology._records``), and the
    pattern decides ``all_recovered``, so neither the call nor reading
    the verdict does Python work per node. ``topo`` is checked by
    :func:`simulate`.
    """
    machine = build_encoder(q, p, n)
    bits = _normalize_bits(message, "message")
    stream, header = encode(machine, bits)
    trace = simulate(topo, stream)

    def recovers(window: Word) -> bool:
        try:
            return decode(machine, window, header) == bits
        except RelaycastError:
            return False

    source_ok = recovers(stream)
    relay_ok = (source_ok if not trace.lost or not topo.max_depth
                else recovers(trace.relayed[1:1 + len(stream)]))
    nodes, all_recovered = topo._records(
        NodeRecovery, source_ok, 1 if relay_ok else topo.max_depth + 1)
    report = EndToEndReport(q=q, p=p, n=n, rate=p / n, capacity=capacity(q),
                            baseline=baseline_rate(q), message_bits=len(bits),
                            nodes=nodes)
    # the verdict pattern decides the cached property without a walk
    vars(report)["all_recovered"] = all_recovered
    return report
