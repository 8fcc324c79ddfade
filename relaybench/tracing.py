"""Spans and counts around relaycast's layers, recorded from outside.

The tracer replaces each layer function at the module name where its
caller looks it up (``end_to_end``'s callees in ``relaycast.simulator``,
``build_encoder``'s in ``relaycast.encoder``, the CLI's in
``relaycast.cli``), so a traced job runs the same call path as an
untraced one. Wrappers are installed for one job and removed after it;
untraced jobs run the unmodified functions.

A span is ``[name, start, end, parent index, job id]``. Spans stay in
memory until the run ends. A layer's self time is its span minus its
direct child spans. Counts are taken from each call's arguments and
result after the job, so counting adds no time to any span.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name)
WRAP_POINTS = (
    ("relaycast", "end_to_end", "simulator.end_to_end"),
    ("relaycast", "run", "cli.run"),
    ("relaycast", "parse_tree", "simulator.parse_tree"),
    ("relaycast", "build_encoder", "encoder.build_encoder"),
    ("relaycast.simulator", "build_encoder", "encoder.build_encoder"),
    ("relaycast.simulator", "encode", "encoder.encode"),
    ("relaycast.simulator", "simulate", "simulator.simulate"),
    ("relaycast.simulator", "decode", "encoder.decode"),
    ("relaycast.encoder", "power_graph", "constraint.power_graph"),
    ("relaycast.encoder", "find_approximate_eigenvector",
     "encoder.find_approximate_eigenvector"),
    ("relaycast.encoder", "split_states", "encoder.split_states"),
    ("relaycast.encoder", "prune_to_encoder", "encoder.prune_to_encoder"),
    ("relaycast.cli", "build_encoder", "encoder.build_encoder"),
    ("relaycast.cli", "parse_encoder", "encoder.parse_encoder"),
    ("relaycast.cli", "encode", "encoder.encode"),
    ("relaycast.cli", "decode", "encoder.decode"),
    ("relaycast.cli", "parse_stream", "symbols.parse_stream"),
    ("relaycast.cli", "format_stream", "symbols.format_stream"),
)


def _machine(_, result):
    return {"encoder.states": result.num_states,
            "encoder.anticipation": result.anticipation}


def _split(args, result):
    weights = args[1].vector
    return {"encoder.split_rounds": sum(weights) - sum(1 for w in weights if w),
            "encoder.split_edges": len(result.edges)}


def _simulate(_, result):
    erased = sys.modules["relaycast.simulator"].ERASED
    return {"simulator.node_slots": len(result.nodes) * result.num_slots,
            "simulator.erasures": sum(row.count(erased) for row in result.received),
            "simulator.violations": len(result.violations)}


# span name -> counts taken from (args, result) of one call
COUNTERS = {
    "constraint.power_graph":
        lambda args, result: {"constraint.power_graph_edges": len(result.edges)},
    "encoder.split_states": _split,
    "encoder.prune_to_encoder":
        lambda args, result: {"encoder.prune_offered": len(args[0].edges),
                              "encoder.prune_kept": result.num_states << result.p},
    "encoder.build_encoder": _machine,
    "encoder.parse_encoder": _machine,
    "encoder.decode":
        lambda args, result: {"encoder.decode_calls": 1,
                              "encoder.decode_bits": args[2].bit_length},
    "simulator.simulate": _simulate,
}

# Properties of a machine rather than work done: a job that reads the
# same encoder twice still has that many states.
GAUGES = frozenset({"encoder.states", "encoder.anticipation"})


class Tracer:
    """Records spans for traced jobs and the counts of their calls."""

    def __init__(self):
        self.spans = []
        self.calls = []          # (span name, args, result) of the last job
        self.counts = {}         # job id -> {count name: value}
        self._stack = []
        self._job = None

    def _wrap(self, name, fn):
        spans, stack, calls = self.spans, self._stack, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self._job])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            calls.append((name, args, result))
            return result
        return wrapper

    def run(self, job_id, fn, *args):
        """Call ``fn(*args)`` as job ``job_id``, every layer wrapped."""
        self.calls.clear()
        self._job = job_id
        saved = []
        try:
            for module_name, attr, span in WRAP_POINTS:
                module = sys.modules[module_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span, original))
            return self._wrap("job", fn)(*args)
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._job = None
            self._count(job_id)

    def _count(self, job_id):
        counts = defaultdict(int)
        for name, args, result in self.calls:
            counter = COUNTERS.get(name)
            for key, value in (counter(args, result) if counter else {}).items():
                counts[key] = max(counts[key], value) if key in GAUGES else counts[key] + value
        self.counts[job_id] = dict(counts)

    def last_result(self, name):
        """(args, result) of the job's last call recorded under ``name``."""
        for span, args, result in reversed(self.calls):
            if span == name:
                return args, result
        return None

    def times(self):
        """Per job: {span name: (total seconds, self seconds)}."""
        total = defaultdict(lambda: defaultdict(float))
        own = defaultdict(lambda: defaultdict(float))
        for name, start, end, parent, job in self.spans:
            total[job][name] += end - start
            own[job][name] += end - start
            if parent is not None:
                own[job][self.spans[parent][0]] -= end - start
        return {job: {name: (total[job][name], own[job][name]) for name in total[job]}
                for job in total}

    def span_records(self):
        return [{"name": name, "start": start, "end": end, "parent": parent, "job": job}
                for name, start, end, parent, job in self.spans]


# per-layer metric -> (span name, 0 for total time or 1 for self time)
LAYER_TIMES = {
    "constraint.power_graph_s": ("constraint.power_graph", 0),
    "encoder.build_s": ("encoder.build_encoder", 0),
    "encoder.eigenvector_s": ("encoder.find_approximate_eigenvector", 0),
    "encoder.split_states_s": ("encoder.split_states", 0),
    "encoder.prune_s": ("encoder.prune_to_encoder", 0),
    "encoder.encode_s": ("encoder.encode", 0),
    "encoder.decode_s": ("encoder.decode", 0),
    "encoder.parse_encoder_s": ("encoder.parse_encoder", 0),
    "simulator.simulate_s": ("simulator.simulate", 0),
    "simulator.end_to_end_self_s": ("simulator.end_to_end", 1),
    "symbols.parse_stream_s": ("symbols.parse_stream", 0),
    "symbols.format_stream_s": ("symbols.format_stream", 0),
    "cli.run_self_s": ("cli.run", 1),
}

LAYER_COUNTS = ("constraint.power_graph_edges", "encoder.split_rounds",
                "encoder.split_edges", "encoder.states", "encoder.anticipation",
                "encoder.decode_calls", "simulator.node_slots",
                "simulator.erasures", "simulator.violations")

def layer_metrics(tracer: Tracer, jobs, setup_job):
    """Per-layer metrics over the traced ``jobs``.

    Times and counts are medians of per-job sums; rates divide sums over
    all traced jobs. A layer a workload never calls reads 0.
    ``simulator.parse_tree_s`` comes from the traced set-up, the only
    place the tree is parsed.
    """
    times = tracer.times()
    metrics = {}
    for metric, (span, kind) in LAYER_TIMES.items():
        metrics[metric] = statistics.median(
            times.get(job, {}).get(span, (0.0, 0.0))[kind] for job in jobs)
    for metric in LAYER_COUNTS:
        metrics[metric] = statistics.median(
            tracer.counts[job].get(metric, 0) for job in jobs)

    def count(key):
        return sum(tracer.counts[job].get(key, 0) for job in jobs)

    def busy(span):
        return sum(times.get(job, {}).get(span, (0.0, 0.0))[0] for job in jobs)

    for metric, numerator, denominator in (
            ("encoder.prune_keep_ratio", count("encoder.prune_kept"),
             count("encoder.prune_offered")),
            ("encoder.decode_bits_per_s", count("encoder.decode_bits"),
             busy("encoder.decode")),
            ("simulator.node_slots_per_s", count("simulator.node_slots"),
             busy("simulator.simulate"))):
        metrics[metric] = numerator / denominator if denominator else 0.0
    metrics["simulator.parse_tree_s"] = times.get(setup_job, {}).get(
        "simulator.parse_tree", (0.0, 0.0))[0]
    return metrics


def layer_self_times(tracer: Tracer, jobs):
    """Median per-job self time of every span name, for comparing runs."""
    times = tracer.times()
    names = sorted({name for job in jobs for name in times.get(job, {})})
    return {name: statistics.median(times.get(job, {}).get(name, (0.0, 0.0))[1]
                                    for job in jobs)
            for name in names}
