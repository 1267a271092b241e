"""Spans recorded from outside graphpoison, and the per-layer metrics built on them.

The benchmark never edits the library. It wraps public functions where the
calling module looks them up (``graphpoison.attack.attack_gradient`` is the
name ``meta_attack`` calls), records one span per call with its parent span,
and restores every original on exit. A layer's self time is its spans'
durations minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

# (span name, module, attribute path). A span name is "<layer>.<what>"; the
# layers are graphpoison's modules. One name may hook several call sites: a
# function imported into several modules is wrapped in each of them.
STAGE_HOOKS = [
    ("data.load", "graphpoison.experiment", "load_dataset"),
    ("attack.run", "graphpoison.experiment", "meta_attack"),
    ("attack.run", "graphpoison.experiment", "dice_attack"),
    ("evaluation.evaluate", "graphpoison.experiment", "evaluate"),
]

LAYER_HOOKS = [
    ("experiment.run", "graphpoison.experiment", "run_experiment"),
    ("graph.normalize", "graphpoison.graph", "normalize_dense"),
    ("graph.normalize", "graphpoison.gradients", "normalize_dense"),
    ("graph.normalize", "graphpoison.gradients", "normalize_adjacency"),
    ("graph.normalize", "graphpoison.models", "normalize_adjacency"),
    ("graph.normalize", "graphpoison.evaluation", "normalize_adjacency"),
    ("graph.csr", "graphpoison.graph", "NormalizedAdjacency.sparse"),
    ("graph.rebuild", "graphpoison.graph", "Graph.with_adjacency"),
    ("models.surrogate", "graphpoison.attack", "train_surrogate"),
    ("models.pseudo_label", "graphpoison.attack", "pseudo_labels"),
    ("models.victim", "graphpoison.evaluation", "train_victim"),
    ("losses.loss", "graphpoison.gradients", "loss_value"),
    ("losses.loss", "graphpoison.gradients", "resolve_weights"),
    ("gradients.gradient", "graphpoison.attack", "attack_gradient"),
    ("gradients.objective", "graphpoison.attack", "attack_objective"),
    ("attack.constraint", "graphpoison.attack", "constraint_check"),
]

# Spans whose return value the output checks need.
CAPTURED = ("data.load", "attack.run")
LAYERS = ("graph", "models", "losses", "gradients", "attack", "evaluation", "data", "experiment")
MIB = 1024.0 * 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


@dataclass
class Tracer:
    """Spans of one run, in call order, plus what the hooks observed."""

    spans: list[Span] = field(default_factory=list)
    results: dict = field(default_factory=dict)
    rejects: dict = field(default_factory=dict)
    peak_alloc: float = 0.0
    missing: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, 0.0, parent=parent))
            idx = len(self.spans) - 1
            self._stack.append(idx)
            measure_alloc = name == "gradients.gradient"
            if measure_alloc:
                tracemalloc.start()
            self.spans[idx].start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.spans[idx].end = time.perf_counter()
                self._stack.pop()
                if measure_alloc:
                    self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if name in CAPTURED:
                self.results[name] = out
            elif name == "attack.constraint" and out is not None:
                self.rejects[out] = self.rejects.get(out, 0) + 1
            return out

        return wrapper

    @contextmanager
    def installed(self, hooks):
        """Wrap every hook that resolves; record the ones that do not."""
        restore = []
        try:
            for name, module, path in hooks:
                owner_path, _, attr = path.rpartition(".")
                try:
                    owner = importlib.import_module(module)
                    for part in filter(None, owner_path.split(".")):
                        owner = getattr(owner, part)
                    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(f"{module}.{path}")
                    continue
                restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of one parent never overlap and
    the covered time is the sum of their durations.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(tracer: Tracer, flips_landed: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (times in seconds)."""
    own = self_times(tracer.spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, t in zip(tracer.spans, own):
        by_name[span.name] = by_name.get(span.name, 0.0) + t
        calls[span.name] = calls.get(span.name, 0) + 1

    def s(name):
        return by_name.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    checked = n("attack.constraint")
    run_s = sum(tracer.durations("experiment.run"))
    m = {
        "graph.normalize_s": s("graph.normalize"),
        "graph.normalize_calls": n("graph.normalize"),
        "graph.csr_s": s("graph.csr"),
        "graph.rebuild_s": s("graph.rebuild"),
        "graph.rebuild_calls": n("graph.rebuild"),
        "models.surrogate_s": s("models.surrogate"),
        "models.surrogate_fits": n("models.surrogate"),
        "models.pseudo_label_s": s("models.pseudo_label"),
        "models.victim_s_per_fit": s("models.victim") / max(n("models.victim"), 1),
        "models.victim_fits": n("models.victim"),
        "losses.s": s("losses.loss"),
        "losses.calls": n("losses.loss"),
        "gradients.self_s": s("gradients.gradient"),
        "gradients.calls": n("gradients.gradient"),
        "gradients.objective_self_s": s("gradients.objective"),
        "gradients.peak_alloc_mb": tracer.peak_alloc / MIB,
        "attack.self_s": s("attack.run"),
        "attack.constraint_s": s("attack.constraint"),
        "attack.candidates_checked": checked,
        "attack.rejects.singleton": tracer.rejects.get("singleton", 0),
        "attack.rejects.degree_test": tracer.rejects.get("degree_test", 0),
        "attack.accept_ratio": flips_landed / checked if checked else 0.0,
        "data.load_s": s("data.load"),
        "evaluation.self_s": s("evaluation.evaluate"),
        "experiment.write_s": s("experiment.run"),
        "trace.run_s": run_s,
    }
    for layer in LAYERS:
        layer_s = sum(t for span, t in zip(tracer.spans, own) if span.name.split(".")[0] == layer)
        m[f"share.{layer}"] = layer_s / run_s if run_s else 0.0
    return m


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over repeated runs."""
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
