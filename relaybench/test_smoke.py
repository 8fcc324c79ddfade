"""Smoke tests of the benchmark itself, at tiny sizes.

    python -m pytest relaybench -q
"""

import json
import random
from dataclasses import replace

import pytest

import compare
import run
from tracing import LAYER_COUNTS
from workloads import WORKLOADS, Session, fresh_import, prepare

TINY = {
    "wide_tree": replace(WORKLOADS["wide_tree"], message_bits=24, widths=(2, 4, 8)),
    "codec_cli": replace(WORKLOADS["codec_cli"], message_bits=64),
    "high_rate_code": replace(WORKLOADS["high_rate_code"], message_bits=22),
}


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    cache = {}

    def get(name, seed, trace):
        if (name, seed, trace) not in cache:
            workdir = tmp_path_factory.mktemp("work")
            cache[name, seed, trace] = run.measure(name, seed, 0.0, trace,
                                                   workdir, TINY)[0]
        return cache[name, seed, trace]
    return get


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_declared_metric_with_its_unit(measured, name, trace):
    result = measured(name, 1, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_JOBS
    declared = run.declared_metrics()["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert not isinstance(metric["value"], bool)
        if not trace:
            assert metric["value"] > 0
    json.dumps(result)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat_across_seeds(measured, name):
    first, second = measured(name, 1, True), measured(name, 2, True)
    for key in LAYER_COUNTS:
        if key != "simulator.erasures":   # depends on the message bits
            assert first["metrics"][key] == second["metrics"][key], key


def test_layer_counts_follow_the_path(measured):
    wide = measured("wide_tree", 1, True)["metrics"]
    assert wide["encoder.decode_calls"]["value"] == 1 + 2 + 4 + 8
    assert wide["simulator.violations"]["value"] == 0
    codec = measured("codec_cli", 1, True)["metrics"]
    assert codec["encoder.decode_calls"]["value"] == 1
    assert codec["simulator.node_slots"]["value"] == 0
    high = measured("high_rate_code", 1, True)["metrics"]
    assert high["constraint.power_graph_edges"]["value"] == 4181
    assert high["encoder.split_edges"]["value"] == 6765


@pytest.mark.parametrize("traced", [False, True])
def test_corrupted_stream_counts_as_failed_job(tmp_path, monkeypatch, traced):
    session = Session(fresh_import(), TINY["codec_cli"], None, tmp_path)
    prepare(session, None)
    format_stream = session.rc.cli.format_stream

    def corrupted(word):
        tokens = format_stream(word).split()
        tokens[0] = "0" if tokens[0] == "N" else "N"
        return " ".join(tokens)

    monkeypatch.setattr(session.rc.cli, "format_stream", corrupted)
    tracer = run.Tracer() if traced else None
    records = run.run_jobs(session, random.Random(0), 0.0, tracer)
    assert len(records) == run.MIN_JOBS
    assert not any(r.ok for r in records)


def _result(seed, job_p50_s, decode_self_s):
    metrics = {"job_p50_s": {"value": job_p50_s, "unit": "s"}}
    return [
        {"workload": "codec_cli", "seed": seed, "trace": 0, "failed": 0,
         "attempted": 10, "metrics": metrics},
        {"workload": "codec_cli", "seed": seed, "trace": 1, "failed": 0,
         "attempted": 10, "metrics": {},
         "layer_self_s": {"encoder.decode": decode_self_s, "cli.run": 0.002}},
    ]


def test_compare_names_the_layer_that_slowed():
    spec = {"end_to_end": [{"name": "job_p50_s", "unit": "s",
                            "better": "lower", "bound": 0.1}],
            "per_layer": []}
    base = [r for seed in range(1, 6) for r in _result(seed, 0.20 + seed / 1000, 0.15)]
    change = [r for seed in range(1, 6) for r in _result(seed, 0.30 + seed / 1000, 0.25)]
    text = compare.report(base, change, spec)
    assert "worse" in text.splitlines()[1]
    assert "self encoder.decode" in text
    assert "self cli.run" not in text
    assert "no worse" in compare.report(base, base, spec).splitlines()[1]
