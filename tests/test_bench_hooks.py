"""Guard for the benchmark's trace hooks.

``perfbench/bench_trace.py`` times the library by wrapping functions under
the names their callers look up. A refactor that renames or re-imports one
of those names leaves its per-layer metric at 0 without failing anything,
so this test loads the hook table (read-only, by path) and checks that it
still resolves against the library.
"""

import importlib
import importlib.util
import inspect
import os
import sys

import pytest

import graphpoison.gradients as gradients_module
from graphpoison import (
    AttackConfig,
    CAWeightParams,
    LossSpec,
    SurrogateHyper,
    VictimHyper,
    dice_attack,
    evaluate,
    meta_attack,
    sbm_graph,
)

from .conftest import REPO_ROOT

TRACE_PATH = os.path.join(REPO_ROOT, "perfbench", "bench_trace.py")

# Hooks on names the library no longer has; the next change to the
# benchmark re-targets them (ROADMAP, "Mend the benchmark").
KNOWN_STALE = {
    "graphpoison.graph.normalize_dense",
    "graphpoison.gradients.normalize_dense",
    "graphpoison.graph.NormalizedAdjacency.sparse",
    "graphpoison.graph.Graph.with_adjacency",
    "graphpoison.attack.attack_gradient",
}


@pytest.fixture(scope="module")
def bench_trace():
    if not os.path.exists(TRACE_PATH):
        pytest.skip("perfbench/bench_trace.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("bench_trace_under_test", TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_only_the_known_stale_hooks_fail_to_resolve(bench_trace):
    tracer = bench_trace.Tracer()
    with tracer.installed(bench_trace.STAGE_HOOKS + bench_trace.LAYER_HOOKS):
        pass
    assert set(tracer.missing) <= KNOWN_STALE


def test_resolved_hooks_fire_in_an_attack_and_are_restored(bench_trace):
    g = sbm_graph((20, 20), 0.2, 0.02, seed=1)
    cfg = AttackConfig(budget=2, surrogate_hyper=SurrogateHyper(epochs=20))
    original = gradients_module.loss_value
    tracer = bench_trace.Tracer()
    with tracer.installed(bench_trace.LAYER_HOOKS):
        meta_attack(g, cfg)
    assert gradients_module.loss_value is original
    fired = {span.name for span in tracer.spans}
    expected = {
        "graph.normalize",
        "models.surrogate",
        "models.pseudo_label",
        "losses.loss",
        "gradients.objective",
    }
    assert expected <= fired
    # meta applies the constraint rules inside its score scan; DICE still
    # checks each draw through constraint_check
    tracer = bench_trace.Tracer()
    with tracer.installed(bench_trace.LAYER_HOOKS):
        dice_attack(g, cfg)
    assert "attack.constraint" in {span.name for span in tracer.spans}


def test_the_normalize_hook_times_one_derivation_per_graph(bench_trace):
    # graph.normalize_s reads only the names the hook table wraps: a
    # normalization under any other name would leave it short
    g = sbm_graph((20, 20), 0.2, 0.02, seed=1)
    tracer = bench_trace.Tracer()
    with tracer.installed(bench_trace.LAYER_HOOKS):
        result = meta_attack(g, AttackConfig(budget=3, surrogate_hyper=SurrogateHyper(epochs=5)))
    assert len(result.flips) == 3
    assert [span.name for span in tracer.spans].count("graph.normalize") == len(result.flips) + 1


def test_the_victim_hook_times_every_fit(bench_trace):
    # models.victim_s_per_fit reads 0 if a victim refactor bypasses the hook
    g = sbm_graph((20, 20), 0.2, 0.02, seed=1)
    tracer = bench_trace.Tracer()
    with tracer.installed(bench_trace.LAYER_HOOKS):
        evaluate(g, g, VictimHyper(epochs=5), seeds=(0, 1, 2))
    assert [span.name for span in tracer.spans].count("models.victim") == 3


@pytest.mark.parametrize("retrain_every", [1, 2, 5])
def test_the_surrogate_hook_times_every_fit(bench_trace, retrain_every):
    # models.surrogate_s is the refit share of s_per_flip: one fit per DICE
    # run, and one plus one per retrain_every-th greedy step after the first
    g = sbm_graph((20, 20), 0.2, 0.02, seed=1)
    budget = 5
    cfg = AttackConfig(budget=budget, retrain_every=retrain_every, surrogate_hyper=SurrogateHyper(epochs=5))
    for attack, fits in ((dice_attack, 1), (meta_attack, 1 + (budget - 1) // retrain_every)):
        tracer = bench_trace.Tracer()
        with tracer.installed(bench_trace.LAYER_HOOKS):
            result = attack(g, cfg)
        assert len(result.flips) == budget
        assert [span.name for span in tracer.spans].count("models.surrogate") == fits


@pytest.mark.parametrize("retrain_every", [1, 2])
@pytest.mark.parametrize(
    "spec", [LossSpec("nll"), LossSpec("cw", CAWeightParams(4.5, 1.0, 1.0, 1.0))], ids=["nll", "cw-ca"]
)
def test_the_loss_hook_sees_every_loss_evaluation(bench_trace, spec, retrain_every):
    # losses.s reads only the names the hook table wraps in gradients. Per
    # flip, the scan's forward resolves the weights and evaluates the loss,
    # and the flip's objective_after evaluates it once more
    g = sbm_graph((20, 20), 0.2, 0.02, seed=1)
    cfg = AttackConfig(
        budget=3, retrain_every=retrain_every, loss_spec=spec, surrogate_hyper=SurrogateHyper(epochs=5)
    )
    tracer = bench_trace.Tracer()
    with tracer.installed(bench_trace.LAYER_HOOKS):
        result = meta_attack(g, cfg)
    assert len(result.flips) == 3
    assert [span.name for span in tracer.spans].count("losses.loss") == 3 * len(result.flips)


@pytest.mark.parametrize("path", ["graphpoison.gradients.pair_scores", "graphpoison.attack._top_pairs"])
def test_the_score_scan_hook_targets_are_plain_functions(path):
    # the gradient layer's timing is to wrap these two names (ROADMAP item 1);
    # a wrapper around a generator function would time only the generator's creation
    module, name = path.rsplit(".", 1)
    target = getattr(importlib.import_module(module), name)
    assert inspect.isfunction(target)
    assert not inspect.isgeneratorfunction(target)
