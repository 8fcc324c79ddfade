"""relaycast benchmark: one workload, one seed, one closed-loop client.

    python3 relaybench/run.py --workload wide_tree --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` it measures the end-to-end metrics with no wrappers
installed. Job and set-up times are reported at reference machine
speed (see ``calibration_seconds``); raw wall times are printed as
diagnostics. With ``--trace 1`` it alternates untraced and traced jobs,
reports the per-layer metrics of the traced ones, and runs the decode
and simulate scaling sweeps. Metric names, units and directions are
those declared in ``BENCHMARK.json``.

Every job's output is checked. A failed check or a ``RelaycastError``
counts as a failed job and never stops the run. The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The full result (environment, diagnostics,
layer self times) is written to ``.relaybench/results/`` and, for a
traced run, every span to ``.relaybench/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import Tracer, layer_metrics, layer_self_times
from workloads import (JOBS, WORKLOADS, Session, fresh_import, layered_tree,
                       prepare, random_bits, tree_text)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".relaybench"

SETUP_REPS = 9        # setup_s is the median of this many cold set-ups
MIN_JOBS = 4          # so a traced run has two traced and two untraced jobs
SWEEP = (1, 2, 4)     # scaling sweep sizes, as multiples of the workload's
SWEEP_REPS = 3
# What the loop in ``calibration_seconds`` takes on a 2-vCPU x86-64 VM
# under CPython 3.11: the speed job and set-up times are scaled to.
CALIBRATION_REFERENCE_S = 0.0112


def declared_metrics():
    """Unit of every metric BENCHMARK.json declares, per section."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


@dataclass(frozen=True)
class JobRecord:
    index: int
    traced: bool
    seconds: float
    ok: bool
    work: int       # message bits x decoding nodes, 0 when the job failed
    calibration: float

    @property
    def ref_seconds(self) -> float:
        return at_reference_speed(self.seconds, self.calibration)


def calibration_seconds() -> float:
    """Wall time of fixed pure-Python work, taken right after every job
    and every set-up.

    The effective CPU speed of a shared machine drifts by 10-20 % over
    minutes, and a job and this loop slow down together. Scaling each
    time by the loop's time that follows it cancels the drift; no
    relaycast code runs here, so a change to the package moves only the
    measured time.
    """
    start = perf_counter()
    counts = {}
    for i in range(30000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    sorted(str(v) for v in counts.values())
    return perf_counter() - start


def at_reference_speed(seconds: float, calibration: float) -> float:
    return seconds * CALIBRATION_REFERENCE_S / calibration


def traced_checks(session: Session, tracer: Tracer) -> bool:
    """Extra checks a traced job affords: admissible stream, clean delivery."""
    rc = session.rc
    encoded = tracer.last_result("encoder.encode")
    if encoded is None or not rc.is_admissible(encoded[1][0]):
        return False
    if session.spec.kind == "codec_cli":
        return True
    simulated = tracer.last_result("simulator.simulate")
    if simulated is None:
        return False
    (topo, stream, *_), trace = simulated
    report = rc.verify_delivery(trace, topo, stream)
    return report.all_passed and report.violations == 0


def run_jobs(session: Session, rng, seconds: float, tracer: Tracer = None):
    """Jobs back to back for ``seconds``, at least ``MIN_JOBS`` of them.

    With a tracer every second job is traced; the untraced ones give
    the base of ``trace_overhead_ratio``.
    """
    job = JOBS[session.spec.kind]
    records = []
    started = perf_counter()
    while len(records) < MIN_JOBS or perf_counter() - started < seconds:
        index = len(records)
        traced = tracer is not None and index % 2 == 1
        bits = random_bits(rng, session.spec.message_bits)
        start = perf_counter()
        try:
            ok, work = (tracer.run(index, job, session, bits) if traced
                        else job(session, bits))
        except session.rc.RelaycastError:
            ok, work = False, 0
        elapsed = perf_counter() - start
        calibration = calibration_seconds()
        if traced and ok:
            ok = traced_checks(session, tracer)
        records.append(JobRecord(index, traced, elapsed, ok, work if ok else 0,
                                 calibration))
    return records


def _median_time(fn, *args):
    times = []
    for _ in range(SWEEP_REPS):
        start = perf_counter()
        result = fn(*args)
        times.append(perf_counter() - start)
    return statistics.median(times), result


def decode_scaling(rc, spec, rng):
    """Per-bit decode time at the largest sweep size over that at 1x."""
    machine = rc.build_encoder(spec.q, spec.p, spec.n)
    per_bit, ok = [], True
    for scale in SWEEP:
        bits = random_bits(rng, spec.message_bits * scale)
        stream, header = rc.encode(machine, bits)
        seconds, decoded = _median_time(rc.decode, machine, stream, header)
        ok = ok and decoded == bits
        per_bit.append(seconds / len(bits))
    return per_bit[-1] / per_bit[0], ok


def simulate_scaling(rc, spec, rng):
    """Per-node-slot simulate time with level widths at the largest sweep
    size over that at 1x."""
    machine = rc.build_encoder(spec.q, spec.p, spec.n)
    stream, _ = rc.encode(machine, random_bits(rng, spec.message_bits))
    per_slot, ok = [], True
    for scale in SWEEP:
        topo = rc.parse_tree(layered_tree([w * scale for w in spec.widths], rng))
        seconds, trace = _median_time(rc.simulate, topo, stream)
        report = rc.verify_delivery(trace, topo, stream)
        ok = ok and report.all_passed and report.violations == 0
        per_slot.append(seconds / (len(trace.nodes) * trace.num_slots))
    return per_slot[-1] / per_slot[0], ok


def tail_percentile(samples):
    """(pct, value) of the highest usual percentile with at least ten
    samples beyond it, or None when there are fewer than twenty."""
    for pct in (99.9, 99, 95, 90, 75, 50):
        if len(samples) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(samples, n=1000)[round(pct * 10) - 1]
    return None


def git_commit(root: Path):
    """HEAD's commit read from ``.git`` without running git, or None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed, jobs):
    digest = hashlib.sha256()
    for path in sorted((SRC / "relaycast").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "git_commit": git_commit(ROOT), "source_sha256": digest.hexdigest(),
            "seed": seed, "jobs": jobs}


def measure(name, seed, seconds, trace, workdir, workloads=WORKLOADS):
    """Set up and run one workload; returns (result dict, span records).

    ``workloads`` maps names to specs; the decode sweep scales
    ``codec_cli``'s message length and the simulate sweep
    ``wide_tree``'s level widths.
    """
    spec = workloads[name]
    text = tree_text(spec, random.Random(f"tree:{seed}"))
    setup_runs = []     # (wall seconds, calibration seconds)
    for _ in range(SETUP_REPS):
        start = perf_counter()
        session = Session(fresh_import(), spec, None, Path(workdir))
        prepare(session, text)
        setup_runs.append((perf_counter() - start, calibration_seconds()))

    tracer = Tracer() if trace else None
    if tracer:
        tracer.run("setup", prepare, session, text)
    records = run_jobs(session, random.Random(f"messages:{seed}"), seconds, tracer)

    failed = sum(not r.ok for r in records)
    untraced = [r for r in records if not r.traced]
    untraced_ref = [r.ref_seconds for r in untraced]
    correct = failed == 0
    diagnostics = {"failed_job_ratio": failed / len(records),
                   "untraced_jobs": len(untraced),
                   "untraced_wall_job_p50_s": statistics.median(r.seconds for r in untraced),
                   "calibration_p50_s": statistics.median(r.calibration for r in untraced),
                   "setup_runs_wall_and_calibration_s": setup_runs}
    tail = tail_percentile(untraced_ref)
    if tail:
        diagnostics[f"untraced_job_p{tail[0]:g}_ref_s"] = tail[1]
    result = {"workload": name, "seed": seed, "trace": int(trace),
              "seconds": seconds}
    if trace:
        traced = [r for r in records if r.traced]
        metrics = layer_metrics(tracer, [r.index for r in traced], "setup")
        metrics["trace_overhead_ratio"] = (
            statistics.median(r.ref_seconds for r in traced)
            / statistics.median(untraced_ref))
        sweep_rng = random.Random(f"sweep:{seed}")
        metrics["encoder.decode_scaling"], decode_ok = decode_scaling(
            session.rc, workloads["codec_cli"], sweep_rng)
        metrics["simulator.simulate_scaling"], simulate_ok = simulate_scaling(
            session.rc, workloads["wide_tree"], sweep_rng)
        correct = correct and decode_ok and simulate_ok
        result["layer_self_s"] = layer_self_times(tracer, [r.index for r in traced])
        section = "per_layer"
    else:
        diagnostics["wall_node_bits_per_s"] = (
            sum(r.work for r in records) / sum(r.seconds for r in records))
        metrics = {
            "node_bits_per_ref_s": sum(r.work for r in records)
                                   / sum(r.ref_seconds for r in records),
            "job_p50_ref_s": statistics.median(untraced_ref),
            "setup_s": statistics.median(at_reference_speed(*run)
                                         for run in setup_runs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        section = "end_to_end"
    units = declared_metrics()[section]
    if set(metrics) != set(units):
        raise RuntimeError(f"measured {sorted(metrics)}, declared {sorted(units)}")
    result.update({
        "environment": environment(seed, len(records)),
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items()},
        "diagnostics": diagnostics,
        "jobs": [[r.seconds, r.calibration, r.ok, r.traced] for r in records],
    })
    return result, tracer.span_records() if tracer else []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one relaycast benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "relaycast" / "__init__.py").is_file():
        print(f"error: no relaycast package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    for sub in ("results", "spans", "work"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT / "work") as workdir:
        result, spans = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace), workdir)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if spans:
        with open(OUT / "spans" / f"{stem}.jsonl", "w") as out:
            out.writelines(json.dumps(span) + "\n" for span in spans)

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={result['attempted']} failed={result['failed']} "
          f"failed_job_ratio={result['diagnostics']['failed_job_ratio']}")
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']!r} {metric['unit']}")
    for key, value in result["diagnostics"].items():
        print(f"  (diagnostic) {key} = {value!r}")
    print(f"  environment: {json.dumps(result['environment'])}")
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
