"""The measured process: repeated ``run_experiment`` calls on one dataset.

One process runs one workload, so its peak RSS (``getrusage`` on itself)
belongs to that workload alone. It runs ``run_experiment`` back to back (a
closed loop with one client) until the next repeat would end after
``--seconds``, checks every repeat's outputs, and writes its measurements
as JSON for ``run.py``. With ``--trace 1`` the first repeat runs untraced,
to measure the tracing overhead, and the rest run with every layer hook.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy

import graphpoison
from graphpoison import experiment
from graphpoison.graph import flip_edge

from bench_inputs import WORKLOADS, Workload, experiment_config
from bench_trace import LAYER_HOOKS, STAGE_HOOKS, Tracer, layer_metrics, median_metrics


@dataclass
class Repeat:
    """What one ``run_experiment`` call did and how long its stages took."""

    traced: bool
    requested: int
    landed: int = 0
    run_s: float = 0.0
    attack_s: float = 0.0
    eval_s: float = 0.0
    wall_s: float = 0.0
    mean_acc: float = math.nan
    fingerprint: str = ""
    flips_sha256: str = ""
    error: str = ""
    violations: list[str] = field(default_factory=list)
    layers: dict | None = None
    missing: list[str] = field(default_factory=list)
    inputs: dict | None = None


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def check_outputs(cfg, requested: int, clean, result, report) -> list[str]:
    """Every way one run's outputs can be wrong; empty when all checks pass."""
    bad = []
    flips = [(int(i), int(j), op) for i, j, op in result.flips]
    if len(flips) > requested:
        bad.append(f"{len(flips)} flips landed but the budget is {requested}")
    pairs = {(min(i, j), max(i, j)) for i, j, _ in flips}
    if len(pairs) != len(flips):
        bad.append("a pair was flipped twice")
    replay = clean
    for i, j, _ in flips:
        replay = flip_edge(replay, i, j)
    if not np.array_equal(replay.adjacency, result.poisoned.adjacency):
        bad.append("replaying the flips onto the clean graph does not give the poisoned graph")
    out_path = experiment.resolve_output(cfg.output)
    with open(out_path) as fh:
        saved = json.load(fh)
    with open(experiment.flips_path(out_path)) as fh:
        saved_flips = json.load(fh)
    for source, listed in (("report", saved["flips"]), ("flips file", saved_flips)):
        if [(f["i"], f["j"], f["op"]) for f in listed] != flips:
            bad.append(f"the {source} lists other flips than the attack returned")
    if saved["budget"] != requested:
        bad.append(f"the report's budget is {saved['budget']}, not the {requested} flips requested")
    if saved["per_seed_accuracy"] != report.per_seed_accuracy:
        bad.append("the report's accuracies differ from the returned ones")
    if cfg.attack == experiment.META and not all(t["score"] > 0.0 for t in result.trace):
        bad.append("a meta-attack trace score is not positive")
    accs = list(report.per_seed_accuracy) + [report.mean]
    if not all(math.isfinite(a) and 0.0 <= a <= 1.0 for a in accs):
        bad.append(f"an accuracy is not a finite value in [0, 1]: {accs}")
    return bad


def run_repeat(cfg, requested: int, traced: bool) -> Repeat:
    """One ``run_experiment`` call, timed by stage, with its outputs checked."""
    rep = Repeat(traced=traced, requested=requested)
    tracer = Tracer()
    start = time.perf_counter()
    try:
        with tracer.installed(STAGE_HOOKS + (LAYER_HOOKS if traced else [])):
            t0 = time.perf_counter()
            report = experiment.run_experiment(cfg)
            rep.run_s = time.perf_counter() - t0
    except Exception:  # a raising run counts as failed flips; the loop goes on
        rep.error = traceback.format_exc(limit=3)
        rep.wall_s = time.perf_counter() - start
        return rep
    if "data.load" not in tracer.results or "attack.run" not in tracer.results:
        raise SystemExit(f"the stage hooks did not fire; hooks missing: {tracer.missing}")
    clean, result = tracer.results["data.load"], tracer.results["attack.run"]
    rep.landed = len(result.flips)
    rep.attack_s = sum(tracer.durations("attack.run"))
    rep.eval_s = sum(tracer.durations("evaluation.evaluate"))
    rep.mean_acc = report.mean
    rep.violations = check_outputs(cfg, requested, clean, result, report)
    flips = [list(f) for f in result.flips]
    rep.flips_sha256 = sha256_json(flips)
    rep.fingerprint = sha256_json({"flips": flips, "per_seed_accuracy": report.per_seed_accuracy})
    rep.inputs = {
        "nodes": clean.n_nodes,
        "edges": clean.n_edges,
        "feature_dim": clean.features.shape[1],
        "feature_density": float(np.count_nonzero(clean.features) / clean.features.size),
        "labeled": int(clean.labeled_mask.sum()),
    }
    rep.missing = tracer.missing
    if traced:
        rep.layers = layer_metrics(tracer, rep.landed)
        rep.layers["trace.hooks_missing"] = len(tracer.missing)
    rep.wall_s = time.perf_counter() - start
    return rep


def measure(cfg, requested: int, seconds: float, trace: bool) -> list[Repeat]:
    """Repeat until the next repeat would end after ``seconds``; at least one of each kind."""
    repeats: list[Repeat] = []
    start = time.perf_counter()
    while True:
        traced = trace and bool(repeats)
        repeats.append(run_repeat(cfg, requested, traced))
        if trace and len(repeats) == 1:
            continue
        walls = [r.wall_s for r in repeats if r.traced == trace]
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return repeats


def summarize(cfg, repeats: list[Repeat], trace: bool) -> dict:
    """Metrics, failure counts and fingerprints of all repeats."""
    ok = [r for r in repeats if not r.error]
    plain = [r for r in ok if not r.traced]
    traced = [r for r in ok if r.traced]
    attempted = sum(r.requested for r in repeats)
    failed = attempted - sum(r.landed for r in repeats)
    violations = sorted({v for r in repeats for v in r.violations})
    if len({r.fingerprint for r in ok}) > 1:
        violations.append("repeats of the same run disagree on the flip/accuracy fingerprint")
    if not plain or (trace and not traced):
        violations.append("no repeat completed")
    out = {
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "violations": violations,
        "errors": [r.error for r in repeats if r.error],
        "repeats": {"untraced": len(plain), "traced": len(traced)},
        "fingerprint": ok[0].fingerprint if ok else "",
        "flips_sha256": ok[0].flips_sha256 if ok else "",
        "inputs": ok[0].inputs if ok else {},
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "metrics": {},
    }
    if out["correct"] and not trace:
        out["metrics"] = {
            "run_s": statistics.median(r.run_s for r in plain),
            "s_per_flip": statistics.median(r.attack_s / max(r.landed, 1) for r in plain),
            "eval_s_per_fit": statistics.median(r.eval_s / len(cfg.seeds) for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "victim_acc": statistics.median(r.mean_acc for r in plain),
            "flips_landed_ratio": (attempted - failed) / attempted,
        }
    elif out["correct"]:
        out["hooks_missing_names"] = traced[0].missing
        metrics = median_metrics([r.layers for r in traced])
        metrics["trace.overhead_ratio"] = metrics["trace.run_s"] / statistics.median(
            r.run_s for r in plain
        )
        metrics["attack.flip_fail_ratio"] = failed / attempted
        out["metrics"] = metrics
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--dataset", required=True)
    ap.add_argument("--edges", type=int, required=True, help="edge count of the generated graph")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True, help="where to write the measurements (JSON)")
    args = ap.parse_args()

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(graphpoison.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported graphpoison from {graphpoison.__file__}, not from {src}")
    w: Workload = WORKLOADS[args.workload]
    report_path = os.path.join(os.path.dirname(args.out), "report.json")
    cfg = experiment_config(w, args.dataset, args.edges, report_path)
    repeats = measure(cfg, w.flips, args.seconds, bool(args.trace))
    with open(args.out, "w") as fh:
        json.dump(summarize(cfg, repeats, bool(args.trace)), fh)


if __name__ == "__main__":
    main()
