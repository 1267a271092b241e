"""Tests of the benchmark itself: span arithmetic, hooks, output checks and a
tiny-graph run of every workload.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bench_inputs  # noqa: E402
import bench_worker  # noqa: E402
import run  # noqa: E402
from bench_trace import LAYER_HOOKS, STAGE_HOOKS, Span, Tracer, layer_metrics, self_times  # noqa: E402


def test_self_times_subtract_direct_children_only():
    #   root [0, 10]
    #   +- a [1, 4]
    #   |  +- a1 [2, 3]
    #   +- b [5, 9]
    #      +- b1 [6, 7]
    #      +- b2 [7.5, 8.5]
    spans = [
        Span("experiment.run", 0.0, 10.0),
        Span("attack.run", 1.0, 4.0, parent=0),
        Span("gradients.gradient", 2.0, 3.0, parent=1),
        Span("evaluation.evaluate", 5.0, 9.0, parent=0),
        Span("models.victim", 6.0, 7.0, parent=3),
        Span("models.victim", 7.5, 8.5, parent=3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.0])

    m = layer_metrics(Tracer(spans=spans), flips_landed=0)
    assert m["trace.run_s"] == pytest.approx(10.0)
    assert m["experiment.write_s"] == pytest.approx(3.0)
    assert m["evaluation.self_s"] == pytest.approx(2.0)
    assert m["models.victim_s_per_fit"] == pytest.approx(1.0)
    assert m["models.victim_fits"] == 2
    assert m["share.models"] == pytest.approx(0.2)
    assert sum(v for k, v in m.items() if k.startswith("share.")) == pytest.approx(1.0)


def test_hooks_wrap_record_and_restore():
    import graphpoison.gradients as gr

    original = gr.normalize_dense
    hooks = [
        ("graph.normalize", "graphpoison.gradients", "normalize_dense"),
        ("graph.csr", "graphpoison.graph", "NoSuchClass.sparse"),
        ("graph.rebuild", "graphpoison.no_such_module", "f"),
    ]
    tracer = Tracer()
    with tracer.installed(hooks):
        assert gr.normalize_dense is not original
        gr.normalize_dense(np.zeros((3, 3)))
    assert gr.normalize_dense is original
    assert [s.name for s in tracer.spans] == ["graph.normalize"]
    assert tracer.missing == [
        "graphpoison.graph.NoSuchClass.sparse",
        "graphpoison.no_such_module.f",
    ]


def test_every_hook_resolves_at_this_commit():
    tracer = Tracer()
    with tracer.installed(STAGE_HOOKS + LAYER_HOOKS):
        pass
    assert tracer.missing == []


def _tiny_config(name: str, tmp_path):
    """Workload ``name`` on a graph of a few dozen nodes."""
    w = dataclasses.replace(
        bench_inputs.WORKLOADS[name], block_size=12, p_in=0.35, p_out=0.02,
        flips=min(bench_inputs.WORKLOADS[name].flips, 3),
    )
    data = str(tmp_path / "data")
    stats = bench_inputs.generate(w, seed=3, out_dir=data)
    assert stats == bench_inputs.generate(w, seed=3, out_dir=str(tmp_path / "again"))
    return w, bench_inputs.experiment_config(w, data, stats["edges"], str(tmp_path / "report.json"))


@pytest.mark.parametrize("name", sorted(bench_inputs.WORKLOADS))
def test_tiny_run_of_every_workload_passes_the_checks(name, tmp_path):
    w, cfg = _tiny_config(name, tmp_path)

    plain = bench_worker.summarize(cfg, bench_worker.measure(cfg, w.flips, 0.0, trace=False), False)
    assert plain["correct"], plain["violations"]
    assert plain["errors"] == []
    assert set(plain["metrics"]) | {"setup_s"} == set(run.END_TO_END_UNITS)
    assert plain["metrics"]["flips_landed_ratio"] > 0.0

    traced = bench_worker.summarize(cfg, bench_worker.measure(cfg, w.flips, 0.0, trace=True), True)
    assert traced["correct"], traced["violations"]
    assert traced["repeats"] == {"untraced": 1, "traced": 1}
    assert traced["fingerprint"] == plain["fingerprint"]
    m = traced["metrics"]
    assert m["trace.hooks_missing"] == 0
    assert m["data.load_s"] > 0.0 and m["models.victim_fits"] == len(cfg.seeds)
    if cfg.attack == "dice":
        assert m["gradients.calls"] == 0
    else:
        assert m["gradients.calls"] >= 1 and m["gradients.peak_alloc_mb"] > 0.0


def test_checks_catch_wrong_outputs(tmp_path):
    w, cfg = _tiny_config("meta-cora", tmp_path)
    tracer = Tracer()
    with tracer.installed(STAGE_HOOKS):
        report = bench_worker.experiment.run_experiment(cfg)
    clean, result = tracer.results["data.load"], tracer.results["attack.run"]
    assert result.flips, "the tiny attack should land at least one flip"
    assert bench_worker.check_outputs(cfg, w.flips, clean, result, report) == []

    repeated = dataclasses.replace(result, flips=result.flips + [result.flips[0]])
    bad = bench_worker.check_outputs(cfg, len(result.flips), clean, repeated, report)
    assert any("budget" in v for v in bad)
    assert any("twice" in v for v in bad)
    assert any("replaying" in v for v in bad)

    wrong_acc = dataclasses.replace(report, per_seed_accuracy=[1.5])
    assert any("finite value" in v for v in bench_worker.check_outputs(cfg, w.flips, clean, result, wrong_acc))

    with open(cfg.output) as fh:
        saved = json.load(fh)
    saved["flips"] = saved["flips"][1:]
    with open(cfg.output, "w") as fh:
        json.dump(saved, fh)
    assert any("report lists other flips" in v for v in bench_worker.check_outputs(cfg, w.flips, clean, result, report))


def test_run_refuses_a_tree_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "meta-cora", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench_inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    w, cfg = _tiny_config("dice-eval", tmp_path)
    traced = bench_worker.summarize(cfg, bench_worker.measure(cfg, w.flips, 0.0, trace=True), True)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: run.layer_unit(k) for k in traced["metrics"]
    }
