"""Delivery checks: does every node of a simulated tree forward the
source stream, delayed by its depth?

:func:`verify_delivery` compares a :class:`~relaycast.simulator.SimTrace`
with the stream it ran on. ``end_to_end`` decodes instead and never
calls it, so this module loads on first use (see ``relaycast._LAZY``),
and a process that only simulates and broadcasts never compiles it."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Tuple

from .errors import InvalidParameterError
from .simulator import SimTrace, TreeTopology, _NodeRecords, _silence
from .symbols import _check_type, _stream


@dataclass(frozen=True, slots=True)
class NodeDelivery:
    """Whether one node forwarded the source stream, delayed by its depth."""

    node: int
    depth: int
    passed: bool


@dataclass(frozen=True)
class DeliveryReport:
    """:func:`verify_delivery`'s verdict per depth, the source's first,
    and the number of (slot, node) violations in the trace; ``nodes``
    views the records."""

    passed: Tuple[bool, ...]
    violations: int
    topology: TreeTopology = field(repr=False)

    @property
    def nodes(self) -> Sequence:
        return _NodeRecords(self.topology, NodeDelivery, self.passed)

    @property
    def all_passed(self) -> bool:
        return all(self.passed)


def verify_delivery(trace: SimTrace, topo: TreeTopology,
                    source_stream) -> DeliveryReport:
    """Check that every node relays the source stream delayed by its depth.

    A node's transmissions, in which erased receptions appear as silence,
    must equal depth-many silences, then the source stream, cut to the
    horizon: at every node for an admissible source, with no violations.
    Depth d >= 1 sends ``relayed`` d-1 slots late, so it passes iff
    ``relayed`` matches depth 1's expected row before slot ``horizon - d +
    1``. ``topo`` must be the tree the trace ran on, and ``source_stream``
    is read as :func:`~relaycast.simulator.simulate` reads it; another type of ``trace`` or
    ``topo`` raises :class:`InvalidParameterError`."""
    _check_type(trace, SimTrace, "trace")
    _check_type(topo, TreeTopology, "topo")
    if topo.depth is not trace.depth and topo.depth != trace.depth:
        raise InvalidParameterError("topology is not the one the trace ran on")
    stream = _stream(source_stream, "source_stream")
    horizon = trace.num_slots
    expected = (_silence(stream, 1) + stream + _silence(stream, horizon))[:horizon]
    first_miss = horizon
    if trace.relayed != expected:  # compared in C; scanned only on a miss
        first_miss = next((t for t, (got, want) in
                           enumerate(zip(trace.relayed, expected))
                           if got != want), horizon)
    source_ok = trace.source == (stream + _silence(stream, horizon))[:horizon]
    failing = min(horizon - first_miss, topo.max_depth)
    relays = (False,) * failing + (True,) * (topo.max_depth - failing)
    return DeliveryReport(passed=(source_ok,) + relays, topology=topo,
                          violations=len(trace.lost) * topo._relays)
