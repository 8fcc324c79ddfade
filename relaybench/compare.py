"""Compare two sets of relaybench results.

    python3 relaybench/compare.py BASE CHANGE

BASE and CHANGE are result files or directories of them; every run of
``relaybench/run.py`` writes one to ``.relaybench/results/``. For each
workload and end-to-end metric it prints both sides' medians and
quartiles and a verdict against the bound declared in BENCHMARK.json:

* ``worse``: the change's median is worse than the base median by more
  than the bound;
* ``unresolved``: either side's quartile spread exceeds the bound, unless
  every change run beats every base run;
* ``improved``: the change wins at least nine tenths of the run pairs
  (matched by seed where both sides ran it) and the medians differ by
  more than the base's quartile spread;
* ``no worse`` otherwise.

From traced runs it then lists, per workload, the layer self times and
per-layer metrics that moved: a count that changed at all, or a time or
rate whose median moved by more than 5 % and more than the base's own
relative quartile spread.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MOVED = 0.05
WIN_SHARE = 0.9


def load(target: str):
    path = Path(target)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative_spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def pairs(base, change):
    """(base, change) value pairs matched by seed, or every cross pair
    when the two sides share no seed."""
    common = sorted(set(base) & set(change))
    if common:
        return [(statistics.median(base[s]), statistics.median(change[s]))
                for s in common]
    return [(b, c) for bs in base.values() for b in bs
            for cs in change.values() for c in cs]


def verdict(base, change, bound, better):
    """``base`` and ``change`` map seed -> list of values."""
    sign = 1 if better == "higher" else -1
    b = [v for vs in base.values() for v in vs]
    c = [v for vs in change.values() for v in vs]
    b_q1, b_med, b_q3 = quartiles(b)
    c_med = quartiles(c)[1]
    gain = sign * (c_med - b_med)
    every_better = min(sign * v for v in c) > max(sign * v for v in b)
    every_worse = max(sign * v for v in c) < min(sign * v for v in b)
    worse = gain < -bound * abs(b_med)
    if worse and every_worse:
        return "worse"
    if max(relative_spread(b), relative_spread(c)) > bound and not every_better:
        return "unresolved"
    if worse:
        return "worse"
    matched = pairs(base, change)
    wins = sum(sign * (cv - bv) > 0 for bv, cv in matched)
    if wins >= WIN_SHARE * len(matched) and gain > b_q3 - b_q1:
        return "improved"
    return "no worse"


def by_workload(results, trace):
    """workload -> metric -> seed -> [values]; plus failures per workload."""
    values = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    selfs = defaultdict(lambda: defaultdict(list))
    failures = defaultdict(lambda: [0, 0])
    for r in results:
        if r["trace"] != trace:
            continue
        w = r["workload"]
        failures[w][0] += r["failed"]
        failures[w][1] += r["attempted"]
        for name, metric in r["metrics"].items():
            values[w][name][r["seed"]].append(metric["value"])
        for name, seconds in r.get("layer_self_s", {}).items():
            selfs[w][name].append(seconds)
    return values, selfs, failures


def fmt(values):
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def flat(seeds):
    return [v for vs in seeds.values() for v in vs]


def moved(base, change, exact):
    b_med, c_med = statistics.median(base), statistics.median(change)
    if exact:
        return b_med != c_med
    if not b_med:
        return c_med != 0
    return abs(c_med / b_med - 1) > max(MOVED, relative_spread(base))


def report(base_results, change_results, spec):
    lines = []
    base, _, base_fail = by_workload(base_results, 0)
    change, _, change_fail = by_workload(change_results, 0)
    lines.append(f"{'workload':<15} {'metric':<20} {'base median [q1, q3]':<36} "
                 f"{'change median [q1, q3]':<36} {'change':>8}  verdict")
    for w in sorted(set(base) & set(change)):
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in base[w] or name not in change[w]:
                continue
            b, c = flat(base[w][name]), flat(change[w][name])
            delta = statistics.median(c) / statistics.median(b) - 1
            lines.append(f"{w:<15} {name:<20} {fmt(b):<36} {fmt(c):<36} "
                         f"{delta:>+8.1%}  "
                         f"{verdict(base[w][name], change[w][name], m['bound'], m['better'])}")
        b_ratio = base_fail[w][0] / base_fail[w][1]
        c_ratio = change_fail[w][0] / change_fail[w][1]
        lines.append(f"{w:<15} {'failed_job_ratio':<20} {b_ratio:<36.6g} "
                     f"{c_ratio:<36.6g} {'':>8}  "
                     f"{'worse' if c_ratio > b_ratio else 'no worse'}")

    base, base_self, _ = by_workload(base_results, 1)
    change, change_self, _ = by_workload(change_results, 1)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in sorted((set(base) | set(base_self)) & (set(change) | set(change_self))):
        rows = []
        for name in sorted(set(base_self[w]) & set(change_self[w])):
            b, c = base_self[w][name], change_self[w][name]
            if moved(b, c, exact=False):
                rows.append(f"  self {name:<40} {statistics.median(b):.6g} s -> "
                            f"{statistics.median(c):.6g} s")
        for name in sorted(set(base[w]) & set(change[w])):
            b, c = flat(base[w][name]), flat(change[w][name])
            if moved(b, c, exact=units.get(name) in ("count", "blocks")):
                rows.append(f"  {name:<45} {statistics.median(b):.6g} -> "
                            f"{statistics.median(c):.6g} {units.get(name, '')}")
        lines.append(f"{w}: layers that moved (traced runs)")
        lines.extend(rows or ["  none"])
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    print(report(load(argv[0]), load(argv[1]), spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
