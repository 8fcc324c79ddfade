"""Shared oracles and builders for the test suite.

The oracles here are deliberately independent of the library internals:
admissibility is re-derived by a direct adjacent-pair scan, word counts
by filtering the full cartesian product, expected relay behavior by
shifting sequences, and the per-depth simulator by the node-by-node
slot loop it replaced.
"""

import random
from dataclasses import dataclass
from itertools import product

from relaycast import ERASED, N, is_data


def scan_admissible(word):
    """Direct scan: no two adjacent data symbols."""
    for a, b in zip(word, word[1:]):
        if a is not N and b is not N:
            return False
    return True


def brute_force_words(q, n):
    """Every admissible length-n word, by filtering all (q+1)**n strings."""
    symbols = list(range(q)) + [N]
    return [w for w in product(symbols, repeat=n) if scan_admissible(w)]


def chain_text(depth):
    """Topology text for a chain 0 -> 1 -> ... -> depth."""
    lines = ["0 -"] + [f"{i} {i - 1}" for i in range(1, depth + 1)]
    return "\n".join(lines) + "\n"


def fig1_text():
    """A 13-node depth-3 broadcast tree with mixed fan-out."""
    return (
        "# root\n"
        "0 -\n"
        "1 0\n2 0\n3 0\n"
        "4 1\n5 1\n6 2\n7 3\n8 3\n"
        "9 4\n10 4\n11 6\n12 7\n"
    )


def random_bits(rng, length):
    return "".join(rng.choice("01") for _ in range(length))


def random_stream(rng, q, length):
    """Arbitrary stream, admissible or not."""
    symbols = list(range(q)) + [N]
    return tuple(rng.choice(symbols) for _ in range(length))


def random_admissible_stream(rng, q, length):
    """Admissible stream: after a data symbol, force silence."""
    out = []
    previous_data = False
    for _ in range(length):
        if previous_data:
            symbol = N
        else:
            symbol = rng.choice(list(range(q)) + [N])
        out.append(symbol)
        previous_data = symbol is not N
    return tuple(out)


@dataclass(frozen=True)
class NodeTrace:
    """Per-node transcript in the layout of ``SimTrace``'s views."""

    nodes: tuple
    transmitted: tuple
    received: tuple
    violations: tuple

    def export(self):
        lines = []
        for t, row in enumerate(self.transmitted):
            cells = []
            for i, node in enumerate(self.nodes):
                token = "N" if not is_data(row[i]) else str(row[i])
                if self.received[t][i] is ERASED:
                    token += "*"
                cells.append(f"{node}:{token}")
            lines.append(f"{t} | " + " ".join(cells))
        return "\n".join(lines)

    def transmit_stream(self, node):
        i = self.nodes.index(node)
        return tuple(row[i] for row in self.transmitted)


def simulate_per_node(topo, source_stream, extra_slots=None):
    """Oracle for ``simulate``: every node, every slot, in node-id order.

    Each relay sends what it stored last slot; OFF it stores its
    parent's symbol, ON it records an erasure, stores silence and logs a
    violation if the parent sent data.
    """
    stream = tuple(source_stream)
    if extra_slots is None:
        extra_slots = topo.max_depth
    nodes = topo.nodes
    relays = nodes[1:]
    pending = {v: N for v in relays}
    transmitted, received, violations = [], [], []
    for t in range(len(stream) + extra_slots):
        sending = {0: stream[t] if t < len(stream) else N}
        for v in relays:
            sending[v] = pending[v]
        heard = {0: None}
        for v in relays:
            from_parent = sending[topo.parent[v]]
            if is_data(sending[v]):
                heard[v] = ERASED
                pending[v] = N
                if is_data(from_parent):
                    violations.append((t, v))
            else:
                heard[v] = from_parent
                pending[v] = from_parent
        transmitted.append(tuple(sending[v] for v in nodes))
        received.append(tuple(heard[v] for v in nodes))
    return NodeTrace(nodes=nodes, transmitted=tuple(transmitted),
                     received=tuple(received), violations=tuple(violations))
