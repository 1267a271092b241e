"""Experiment orchestration: config schema, end-to-end runs, report files."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import numbers
import os
import time
from dataclasses import dataclass

import numpy as np

from .attack import ADD, DELETE, AttackConfig, AttackConstraints, AttackResult, dice_attack, meta_attack
from .data import DatasetError, check_split, load_dataset
from .evaluation import EvalReport, evaluate
from .graph import Graph, flip_edge
from .losses import CAWeightParams, LossSpec
from .models import SurrogateHyper, VictimHyper

OUTPUT_DIR_ENV = "GRAPHPOISON_OUTPUT_DIR"

META = "meta"
DICE = "dice"


class ConfigError(ValueError):
    """An experiment configuration is invalid."""


def _check_type(name: str, value, annotation: str) -> None:
    """Raise ValueError unless ``value`` has the field's annotated type.

    A bool is no number (JSON ``true`` is no count), an int is a float,
    floats must be finite, and ``seeds`` (annotated ``tuple``) is a list or
    tuple of ints.
    """
    if annotation == "tuple":
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a list of integers, got {value!r}")
        for item in value:
            _check_type(name, item, "int")
        return
    kind = {"bool": bool, "int": numbers.Integral, "float": numbers.Real, "str": str}[annotation]
    if not isinstance(value, kind) or (annotation != "bool" and isinstance(value, bool)):
        raise ValueError(f"{name} must be of type {annotation}, got {value!r}")
    if annotation == "float" and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one end-to-end run needs; JSON-serializable, flat.

    Construction validates every field: first its type against the
    annotation, then the rules in the sub-configs that own the fields
    (``LossSpec``, ``AttackConfig``, ``VictimHyper``, ...), which are built
    once here; any violation raises ``ConfigError``.
    """

    dataset: str = ""
    split_fraction: float = 0.10
    split_seed: int = 0
    attack: str = META
    base: str = "nll"
    ca_enabled: bool = False
    alpha1: float = 1.0
    beta1: float = 1.0
    alpha2: float = 1.0
    beta2: float = 1.0
    cw_kappa: float = 0.0
    budget_fraction: float = 0.05
    retrain_every: int = 1
    forbid_singletons: bool = True
    degree_test: bool = False
    degree_test_threshold: float = 0.004
    refresh_pseudo_labels: bool = False
    dice_add_prob: float = 0.5
    surrogate_lr: float = 0.1
    surrogate_epochs: int = 200
    surrogate_weight_decay: float = 5e-4
    surrogate_seed: int = 0
    attack_seed: int = 0
    hidden: int = 16
    victim_lr: float = 0.01
    victim_epochs: int = 200
    victim_weight_decay: float = 5e-4
    dropout: float = 0.5
    seeds: tuple = tuple(range(10))
    output: str = "report.json"

    def __post_init__(self) -> None:
        try:
            for f in dataclasses.fields(self):
                _check_type(f.name, getattr(self, f.name), f.type)
            if not self.seeds:
                raise ValueError("seeds must be nonempty")
            object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
            if min(self.seeds) < 0:
                raise ValueError("seeds must be nonnegative")
            if not 0.0 <= self.budget_fraction <= 1.0:
                raise ValueError("budget_fraction must be in [0, 1]")
            if self.attack not in (META, DICE):
                raise ValueError(f"attack must be '{META}' or '{DICE}'")
            check_split(self.split_fraction, self.split_seed)
            ca_params = CAWeightParams(self.alpha1, self.beta1, self.alpha2, self.beta2)
            attack = AttackConfig(
                loss_spec=LossSpec(
                    self.base, self.ca_enabled, ca_params if self.ca_enabled else None, self.cw_kappa
                ),
                retrain_every=self.retrain_every,
                surrogate_hyper=SurrogateHyper(
                    self.surrogate_lr,
                    self.surrogate_epochs,
                    self.surrogate_weight_decay,
                    self.surrogate_seed,
                ),
                constraints=AttackConstraints(
                    self.forbid_singletons, self.degree_test, self.degree_test_threshold
                ),
                seed=self.attack_seed,
                refresh_pseudo_labels=self.refresh_pseudo_labels,
                dice_add_prob=self.dice_add_prob,
            )
            victim = VictimHyper(
                self.hidden,
                self.victim_lr,
                self.victim_epochs,
                self.victim_weight_decay,
                self.dropout,
            )
        except ValueError as e:
            raise ConfigError(str(e)) from None
        object.__setattr__(self, "_attack", attack)
        object.__setattr__(self, "_victim", victim)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as e:
            raise ConfigError(str(e))

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["seeds"] = list(self.seeds)
        return out

    def loss_spec(self) -> LossSpec:
        return self._attack.loss_spec

    def surrogate_hyper(self) -> SurrogateHyper:
        return self._attack.surrogate_hyper

    def attack_config(self, budget: int) -> AttackConfig:
        return dataclasses.replace(self._attack, budget=budget)

    def victim_hyper(self) -> VictimHyper:
        return self._victim

    def loss_dict(self) -> dict:
        names = ("base", "ca_enabled", "alpha1", "beta1", "alpha2", "beta2", "cw_kappa")
        return {name: getattr(self, name) for name in names}


def stage(name: str, fn, *args, **kwargs):
    """Call ``fn``; an exception it raises records ``name`` as its ``stage``.

    The innermost stage wins. The stage is an attribute, not part of the
    message, because ``str`` of an ``OSError`` ignores a rewritten message;
    the CLI prints it as a ``[name]`` prefix.
    """
    try:
        return fn(*args, **kwargs)
    except Exception as e:
        if not hasattr(e, "stage"):
            e.stage = name  # type: ignore[attr-defined]
        raise


def resolve_output(path: str) -> str:
    """Apply the output-directory environment override, if set."""
    override = os.environ.get(OUTPUT_DIR_ENV)
    if override:
        return os.path.join(override, os.path.basename(path))
    return path


def flips_path(report_path: str) -> str:
    root, ext = os.path.splitext(report_path)
    return f"{root}.flips{ext or '.json'}"


def load_graph(cfg: ExperimentConfig) -> Graph:
    """The dataset of ``cfg``, LCC-reduced and split."""
    return load_dataset(cfg.dataset, split_fraction=cfg.split_fraction, split_seed=cfg.split_seed)


def attack_budget(cfg: ExperimentConfig, g: Graph) -> int:
    """floor(budget_fraction * |E|) on the LCC-reduced graph."""
    return int(np.floor(cfg.budget_fraction * g.n_edges))


def run_attack(cfg: ExperimentConfig, g: Graph) -> AttackResult:
    budget = attack_budget(cfg, g)
    attack_cfg = cfg.attack_config(budget)
    runner = meta_attack if cfg.attack == META else dice_attack
    return runner(g, attack_cfg)


def apply_flips(g: Graph, flips) -> Graph:
    """Replay a recorded flip list onto a graph.

    Raises
    ------
    DatasetError
        When an id is not an integer (a bool is no id; numpy integers are
        fine) or ``op`` is not a string, when a flip names a node outside
        the graph or a self-loop, when its ``op`` disagrees with the current
        state of the pair ("add" on an edge, "delete" on a non-edge), or
        when a pair repeats.
    """
    out = g
    seen = set()
    for k, (i, j, op) in enumerate(flips):
        try:
            for name, value, kind in (("i", i, "int"), ("j", j, "int"), ("op", op, "str")):
                _check_type(name, value, kind)
        except ValueError as e:
            raise DatasetError(f"flip {k}: {e}") from None
        i, j = int(i), int(j)
        pair = (min(i, j), max(i, j))
        if pair in seen:
            raise DatasetError(f"flip {k}: pair {pair} is flipped twice")
        seen.add(pair)
        try:
            out = flip_edge(out, i, j)
        except ValueError as e:
            raise DatasetError(f"flip {k}: {e}") from None
        state = ADD if out.csr[i, j] == 1.0 else DELETE
        if op != state:
            raise DatasetError(f"flip {k}: op {op!r} on pair {pair}, whose flip is {state!r}")
    return out


def flip_records(flips) -> list[dict]:
    """The JSON form of a flip list."""
    return [{"i": i, "j": j, "op": op} for i, j, op in flips]


def report_payload(
    cfg: ExperimentConfig,
    flips,
    budget: int,
    report: EvalReport | None = None,
    seconds: float | None = None,
    exhausted: bool | None = None,
) -> dict:
    """The JSON report of a run; accuracy keys with ``report``, the others when given.

    ``seconds`` becomes ``wall_clock_seconds``: the calling command's own
    load -> evaluate span, the same span in ``run`` and ``evaluate``.
    """
    payload = {
        "dataset": os.path.basename(os.path.normpath(cfg.dataset)) or cfg.dataset,
        "attack": cfg.attack,
        "loss": cfg.loss_dict(),
        "budget": budget,
        "flips": flip_records(flips),
        "config": cfg.to_dict(),
    }
    if report is not None:
        payload["per_seed_accuracy"] = report.per_seed_accuracy
        payload["mean"] = report.mean
        payload["ci95"] = report.ci95_halfwidth
    if seconds is not None:
        payload["wall_clock_seconds"] = seconds
    if exhausted is not None:
        payload["exhausted"] = exhausted
    return payload


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically.

    The text goes to a temp file in the target directory, which then
    replaces ``path``; a failed write leaves any previous file intact and
    no temp file behind.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_json(path: str, obj) -> None:
    write_text(path, json.dumps(obj, indent=2, sort_keys=True))


def run_experiment(cfg: ExperimentConfig) -> EvalReport:
    """Load -> LCC -> split -> attack -> evaluate -> write report and flips.

    Failures carry the stage they happened in (``load``, ``attack``,
    ``evaluate``, ``write``) as a ``stage`` attribute; the CLI maps
    exception types to exit codes.
    """
    start = time.perf_counter()
    clean = stage("load", load_graph, cfg)
    result = stage("attack", run_attack, cfg, clean)
    budget = attack_budget(cfg, clean)
    report = stage("evaluate", evaluate, clean, result.poisoned, cfg.victim_hyper(), cfg.seeds)
    seconds = time.perf_counter() - start

    out_path = resolve_output(cfg.output)

    def _write() -> None:
        write_json(out_path, report_payload(cfg, result.flips, budget, report, seconds, result.exhausted))
        write_json(flips_path(out_path), flip_records(result.flips))

    stage("write", _write)
    return report
