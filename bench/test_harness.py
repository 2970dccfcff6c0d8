"""Self-tests of the benchmark harness, on small workloads.

    python3 -m pytest bench -q

Each test injects a fault through the same module attributes the tracer
wraps and checks that the harness reports it.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from functools import partial

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import antidual.cli as cli  # noqa: E402
import antidual.symmetry as symmetry  # noqa: E402
from antidual.decomposition import Decomposition  # noqa: E402
from antidual.symmetry import ClassificationResult  # noqa: E402
from run import WORKLOAD_NAMES, unit  # noqa: E402
from spans import END, PARENT, START, Tracer, layer_metrics, self_times  # noqa: E402
from speed import REFERENCE_S, SpeedProbe, at_reference  # noqa: E402
import worker  # noqa: E402
from worker import measure, run_pass  # noqa: E402
from workloads import WORKLOADS, Workload, census_ops, classify_ops, survey_ops  # noqa: E402

CENSUS = Workload("census", 1, partial(census_ops, geometry_max=8, decompose_max=6),
                  call_latency=True)
CLASSIFY = Workload("classify", 1, partial(classify_ops, n_max=7))
SURVEY = Workload("survey", 1, partial(survey_ops, jobs=1, n_max=6))
SURVEY_PAR = Workload("survey-par", 2, partial(survey_ops, jobs=2, n_max=6))


def traced_run(workload, spool_dir=None) -> dict:
    return measure(workload, seed=3, seconds=0, trace=True, spool_dir=spool_dir)


def test_clean_runs_are_correct():
    for workload in (CENSUS, CLASSIFY, SURVEY):
        out = traced_run(workload)
        assert out["problems"] == [], workload.name
        assert out["metrics"]["failed_share"] == 0


def test_injected_exception_raises_failed_share(monkeypatch):
    real = cli.boundary_surface

    def failing(dec):
        if (dec.n, dec.k) == (5, 2):
            raise RuntimeError("injected")
        return real(dec)

    monkeypatch.setattr(cli, "boundary_surface", failing)
    out = traced_run(CENSUS)
    units = out["attempted"] // 2
    assert out["metrics"]["failed_share"] == 1 / units
    assert out["failed"] == 2
    assert any("injected" in p for p in out["problems"])


def test_injected_false_verdict_raises_verdict_false_share(monkeypatch):
    real = cli.classify

    def wrong(n):
        result = real(n)
        return ClassificationResult(n, ((0,),) + result.classes[1:]) if n == 6 else result

    monkeypatch.setattr(cli, "classify", wrong)
    out = traced_run(CLASSIFY)
    assert out["metrics"]["verdict_false_share"] == 1 / 4
    assert out["failed"] == 0
    assert out["problems"] == ["classify 6: classes are not {k, n-k-1}"]


def test_perturbed_output_changes_digest(monkeypatch):
    before = run_pass(CENSUS.make_ops(0))["digest"]
    assert run_pass(CENSUS.make_ops(1))["digest"] == before  # order-independent
    real = cli.cmd_realize

    def perturbed(n, cfg):
        payload, ok = real(n, cfg)
        if n == 7:
            payload["h"] = payload["h"] * (1 + 1e-15)
        return payload, ok

    monkeypatch.setattr(cli, "cmd_realize", perturbed)
    assert run_pass(CENSUS.make_ops(0))["digest"] != before


def test_self_times_of_overlapping_children():
    spans = [
        ["a.root", "cli", 0.0, 10.0, -1, None],
        ["a.x", "cli", 1.0, 4.0, 0, None],
        ["a.y", "cli", 3.0, 6.0, 0, None],   # overlaps x, as pool workers do
        ["a.z", "cli", 8.0, 12.0, 0, None],  # runs past its parent's end
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 4.0]


def test_self_times_sum_to_no_more_than_parent():
    tracer = Tracer()
    tracer.install()
    try:
        run_pass(SURVEY.make_ops(0))
    finally:
        tracer.uninstall()
    spans = tracer.take()
    subtree = self_times(spans)
    assert min(subtree) >= 0
    for i in reversed(range(len(spans))):  # children follow their parent
        assert subtree[i] <= spans[i][END] - spans[i][START] + 1e-9
        if spans[i][PARENT] >= 0:
            subtree[spans[i][PARENT]] += subtree[i]
    assert {"cli", "realization", "tilt", "decomposition", "symmetry", "groups"} <= {
        s[1] for s in spans}


def test_counters_repeat_and_match_across_pool_workers(tmp_path):
    single = traced_run(SURVEY)
    pooled = traced_run(SURVEY_PAR, spool_dir=str(tmp_path))
    assert pooled["digest"] == single["digest"]
    assert pooled["per_cell"] == single["per_cell"]
    counts = {k: v for k, v in single["metrics"].items()
              if not k.endswith("_s") and not k.startswith("cli.pool")}
    assert {k: pooled["metrics"][k] for k in counts} == counts
    assert pooled["metrics"]["cli.pool.workers_cpu_s"] > 0
    assert os.listdir(tmp_path) == []


def test_call_latency_only_where_calls_are_alike():
    census = measure(CENSUS, seed=0, seconds=0, trace=False, spool_dir=None)["metrics"]
    assert 0 < census["op_p50_ms"] <= census["op_p90_ms"] < census["wall_s"] * 1e3
    survey = measure(SURVEY, seed=0, seconds=0, trace=False, spool_dir=None)["metrics"]
    assert survey["op_p50_ms"] == survey["op_p90_ms"] == survey["wall_s"] * 1e3


class SlowHostProbe:
    """Stands in for a SpeedProbe on a host twice as slow as the reference."""

    def __init__(self):
        self.last = 2 * REFERENCE_S
        self.samples = 0

    def sample(self) -> float:
        self.samples += 1
        return self.last


def test_times_are_rescaled_to_the_reference_speed(monkeypatch):
    assert at_reference(3.0, 2 * REFERENCE_S) == pytest.approx(1.5)
    monkeypatch.setattr(worker, "SEGMENT_S", 0.0)  # one segment per call
    ops = CENSUS.make_ops(0)
    probe = SlowHostProbe()
    r = run_pass(ops, probe)
    assert probe.samples == len(ops)
    for key in ("wall_s", "cpu_s", "op_p50_ms", "op_p90_ms"):
        assert r["ref_" + key] == pytest.approx(r[key] / 2), key
    out = measure(CLASSIFY, seed=0, seconds=0, trace=False, spool_dir=None)
    assert len(out["pass_probe_s"]) == out["passes"]
    assert min(out["pass_probe_s"]) > 0


def test_speed_probe_stops_its_helpers():
    with SpeedProbe() as probe:
        helpers = list(probe._helpers)
        assert probe.sample() > 0
    assert len(helpers) == 2
    assert all(helper.poll() is not None for helper in helpers)


def test_enumeration_seed_count_from_return_value():
    a, b = Decomposition(5, 1), Decomposition(5, 3)
    tracer = Tracer()
    tracer.install()
    try:
        symmetry.enumerate_isomorphisms(a, b, find_all=False)
        symmetry.enumerate_isomorphisms(a, a)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.take())
    # seeds run piece by piece, vertex maps in lexicographic order
    first = min(symmetry.enumerate_isomorphisms(a, b),
                key=lambda f: (f.pieces[0], f.vertex_maps[0]))
    index = list(itertools.permutations(range(4))).index(first.vertex_maps[0])
    assert metrics["symmetry.seeds_tried"] == first.pieces[0] * 24 + index + 1 + 24 * 10
    assert metrics["symmetry.seed_yield"] == (1 + len(symmetry.enumerate_isomorphisms(a, a))) / (
        metrics["symmetry.seeds_tried"])


def test_benchmark_json_lists_what_runs_emit():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert list(WORKLOADS) == list(WORKLOAD_NAMES)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    plain = measure(CLASSIFY, seed=0, seconds=0, trace=False, spool_dir=None)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", *plain["metrics"]}
    assert {m["name"] for m in spec["per_layer"]} == set(traced_run(CLASSIFY)["metrics"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert unit(m["name"]) == m["unit"], m["name"]


def test_run_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "census",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
