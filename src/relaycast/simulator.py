"""Slot-synchronous symbol forwarding over a rooted relay tree.

Every non-source node repeats, one slot later, whatever it heard from
its parent in the previous slot. A node transmitting a data symbol is ON
for that slot and cannot listen: whatever its parent sent is erased. The
simulator never peeks at an erased symbol; the node stores silence in
its place, which is only correct when the source stream is admissible.
That is exactly the property the violation log makes testable: a
violation is recorded whenever a node is ON while its parent transmits a
data symbol, and an inadmissible source provably produces one.

A relay's stream depends only on its parent's, so by induction every
node at one depth transmits and hears the same sequence, admissible
source or not. The simulator therefore scans once per depth, not once
per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .constraint import capacity
from .encoder import build_encoder, decode, encode
from .errors import RelaycastError, TopologyError
from .symbols import (ERASED, N, Symbol, Word, _check_int, is_data,
                      is_decimal)


# ---------------------------------------------------------------------------
# topology

@dataclass(frozen=True, eq=False)
class TreeTopology:
    """Rooted directed tree of node ids; node 0 is the source."""

    nodes: Tuple[int, ...]
    parent: Dict[int, int]
    depth: Dict[int, int]

    @property
    def max_depth(self) -> int:
        return max(self.depth.values())


def parse_tree(text: str) -> TreeTopology:
    """Parse a topology file: one ``<node_id> <parent_id>`` pair per line.

    The root uses ``-`` as its parent and must have id 0; ``#`` starts a
    comment. Raises :class:`TopologyError` with a distinct reason code
    for empty input, bad lines, duplicate declarations, multiple roots,
    a non-zero root id, unknown parent ids, and parent cycles.
    """
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

    Every node at one depth transmits and hears the same sequence, so
    the trace stores one row per depth (``depth_transmitted``,
    ``depth_received`` and the slots of ``depth_violations``) plus the
    node-to-depth map; the per-node views ``transmitted``, ``received``
    and ``violations`` are expanded from those rows when first read.

    ``received`` holds :data:`ERASED` where the half-duplex rule lost a
    symbol and ``None`` for the source, which has no parent to hear.
    """

    nodes: Tuple[int, ...]
    depth: Dict[int, int]
    depth_transmitted: Tuple[Word, ...]
    depth_received: Tuple[Tuple[object, ...], ...]
    depth_violations: Tuple[Tuple[int, ...], ...]

    @property
    def num_slots(self) -> int:
        return len(self.depth_transmitted[0])

    def _per_node(self, rows) -> tuple:
        """Slot-major rows over all nodes from one row per depth."""
        return tuple(zip(*(rows[self.depth[v]] for v in self.nodes)))

    @cached_property
    def transmitted(self) -> Tuple[Tuple[Symbol, ...], ...]:
        return self._per_node(self.depth_transmitted)

    @cached_property
    def received(self) -> Tuple[Tuple[object, ...], ...]:
        return self._per_node(self.depth_received)

    @cached_property
    def violations(self) -> Tuple[Tuple[int, int], ...]:
        """``(slot, node)`` pairs, sorted by slot, then by node id."""
        by_slot: Dict[int, set] = {}
        for d, slots in enumerate(self.depth_violations):
            for t in slots:
                by_slot.setdefault(t, set()).add(d)
        return tuple((t, v) for t in sorted(by_slot)
                     for v in self.nodes if self.depth[v] in by_slot[t])

    def transmit_stream(self, node: int) -> Word:
        """Everything ``node`` sent, slot by slot."""
        if node not in self.depth:
            raise ValueError(f"node {node} is not in the trace")
        return self.depth_transmitted[self.depth[node]]

    def export(self) -> str:
        """One line per slot: ``t | v:sym ...``, ``*`` marking erased reception."""
        lines = []
        for t in range(self.num_slots):
            tokens = []
            for sent, heard in zip(self.depth_transmitted, self.depth_received):
                token = str(sent[t]) if is_data(sent[t]) else "N"
                tokens.append(token + "*" if heard[t] is ERASED else token)
            cells = " ".join(f"{v}:{tokens[self.depth[v]]}" for v in self.nodes)
            lines.append(f"{t} | {cells}")
        return "\n".join(lines)


def _relay(parent_stream: Word) -> Tuple[Word, Tuple[object, ...], Tuple[int, ...]]:
    """One depth's transmissions, receptions and violation slots.

    The relay transmits what it stored in the previous slot, initially
    silence. While OFF it stores what its parent sends; while ON it
    records an erasure and stores silence, since it cannot know what it
    missed, and a data symbol from the parent in that slot is a
    violation.
    """
    sent: List[Symbol] = []
    heard: List[object] = []
    lost: List[int] = []
    pending: Symbol = N
    for t, incoming in enumerate(parent_stream):
        sent.append(pending)
        if is_data(pending):
            heard.append(ERASED)
            if is_data(incoming):
                lost.append(t)
            pending = N
        else:
            heard.append(incoming)
            pending = incoming
    return tuple(sent), tuple(heard), tuple(lost)


def simulate(topo: TreeTopology, source_stream: Sequence[Symbol],
             extra_slots: Optional[int] = None) -> SimTrace:
    """Run ``len(source_stream) + extra_slots`` slots of forwarding.

    The source transmits its stream (silence once exhausted); every other
    node repeats, one slot later, what it heard from its parent (see
    :func:`_relay`). ``extra_slots`` defaults to the tree depth so the
    pipeline drains. The stream may be inadmissible; every slot where a
    node is ON under a data-transmitting parent is logged.

    All nodes at one depth behave alike, so this runs one scan per
    depth, each reading only the stream of the depth above: the cost is
    O(depth x slots), whatever the number of nodes.
    """
    stream = tuple(source_stream)
    if extra_slots is None:
        extra_slots = topo.max_depth
    _check_int(extra_slots, "extra_slots", 0)
    sent = stream + (N,) * extra_slots
    transmitted = [sent]
    received = [(None,) * len(sent)]
    violations = [()]
    for _ in range(topo.max_depth):
        sent, heard, lost = _relay(sent)
        transmitted.append(sent)
        received.append(heard)
        violations.append(lost)
    return SimTrace(nodes=topo.nodes, depth=topo.depth,
                    depth_transmitted=tuple(transmitted),
                    depth_received=tuple(received),
                    depth_violations=tuple(violations))


# ---------------------------------------------------------------------------
# delivery verification

@dataclass(frozen=True)
class NodeDelivery:
    node: int
    depth: int
    passed: bool


@dataclass(frozen=True)
class DeliveryReport:
    nodes: Tuple[NodeDelivery, ...]
    violations: int

    @property
    def all_passed(self) -> bool:
        return all(entry.passed for entry in self.nodes)


def verify_delivery(trace: SimTrace, topo: TreeTopology,
                    source_stream: Sequence[Symbol]) -> DeliveryReport:
    """Check that every node relays the source stream delayed by its depth.

    A node's forwarded stream (its transmissions, in which erased
    receptions already appear as silence) must equal depth-many leading
    silences followed by the source stream, truncated to the simulated
    horizon. For an admissible source this holds at every node with zero
    violations; an inadmissible source breaks it somewhere.
    """
    stream = tuple(source_stream)
    horizon = trace.num_slots
    # One comparison per depth; keyed by both depths in case ``topo`` is
    # not the tree the trace ran on.
    verdicts: Dict[Tuple[int, int], bool] = {}
    entries = []
    for node in trace.nodes:
        d, simulated = topo.depth[node], trace.depth[node]
        if (d, simulated) not in verdicts:
            expected = ((N,) * d + stream + (N,) * horizon)[:horizon]
            verdicts[d, simulated] = trace.depth_transmitted[simulated] == expected
        entries.append(NodeDelivery(node=node, depth=d,
                                    passed=verdicts[d, simulated]))
    return DeliveryReport(nodes=tuple(entries),
                          violations=len(trace.violations))


def baseline_rate(q: int) -> float:
    """Rate of deterministic store-and-forward with alternating slots.

    Each node stays OFF half the time, so ``0.5 * log2(q+1)`` bits per
    symbol.
    """
    _check_int(q, "q")
    return 0.5 * math.log2(q + 1)


# ---------------------------------------------------------------------------
# the full pipeline

@dataclass(frozen=True)
class NodeRecovery:
    node: int
    depth: int
    recovered: bool


@dataclass(frozen=True)
class EndToEndReport:
    q: int
    p: int
    n: int
    rate: float
    capacity: float
    baseline: float
    message_bits: int
    nodes: Tuple[NodeRecovery, ...]

    @property
    def all_recovered(self) -> bool:
        return all(entry.recovered for entry in self.nodes)


def end_to_end(q: int, p: int, n: int, topo: TreeTopology, message,
               extra_slots: Optional[int] = None) -> EndToEndReport:
    """Encode, broadcast through the tree, decode at every node, compare.

    Builds the rate p:n encoder, feeds the encoded stream to the source,
    simulates with at least ``max_depth`` extra slots, then strips each
    depth's depth-long silence prefix from its forwarded stream and
    decodes it once for all nodes at that depth. Every node must recover
    the message bits exactly.
    """
    if extra_slots is not None:
        _check_int(extra_slots, "extra_slots", 0)
    machine = build_encoder(q, p, n)
    if isinstance(message, str):
        bits = message
    else:
        bits = "".join(str(b) for b in message)
    stream, header = encode(machine, bits)
    drain = topo.max_depth if extra_slots is None else max(extra_slots,
                                                           topo.max_depth)
    trace = simulate(topo, stream, drain)
    recovered = []
    for d, forwarded in enumerate(trace.depth_transmitted):
        try:
            recovered.append(
                decode(machine, forwarded[d:d + len(stream)], header) == bits)
        except RelaycastError:
            recovered.append(False)
    entries = tuple(NodeRecovery(node=node, depth=topo.depth[node],
                                 recovered=recovered[topo.depth[node]])
                    for node in trace.nodes)
    return EndToEndReport(q=q, p=p, n=n, rate=p / n, capacity=capacity(q),
                          baseline=baseline_rate(q), message_bits=len(bits),
                          nodes=entries)
