"""Command-line interface.

Subcommands: ``run`` (end-to-end), ``attack``, ``evaluate``, ``scatter``.
Every ExperimentConfig field is available as a kebab-case flag; a JSON
config file may supply any subset, with flags taking precedence.

Exit codes: 0 ok, 2 config error, 3 data error, 4 runtime failure. A
failure after the config check names the stage it happened in:
``[load]``, ``[attack]``, ``[evaluate]`` or ``[write]``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .data import DatasetError
from .evaluation import evaluate, margin_gradient_scatter
from .experiment import (
    ConfigError,
    ExperimentConfig,
    apply_flips,
    attack_budget,
    load_graph,
    report_payload,
    resolve_output,
    run_attack,
    run_experiment,
    stage,
    write_json,
    write_text,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="JSON config file; flags override its fields")
    for f in dataclasses.fields(ExperimentConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type in ("bool", bool):
            p.add_argument(flag, action=argparse.BooleanOptionalAction, default=None)
        elif f.name == "seeds":
            p.add_argument(flag, default=None, help="comma-separated victim seeds, e.g. 0,1,2")
        elif f.type in ("int", int):
            p.add_argument(flag, type=int, default=None)
        elif f.type in ("float", float):
            p.add_argument(flag, type=float, default=None)
        else:
            p.add_argument(flag, default=None)


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config file {args.config}: {e}")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    for f in dataclasses.fields(ExperimentConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            data[f.name] = val
    if isinstance(data.get("seeds"), str):
        try:
            data["seeds"] = [int(s) for s in data["seeds"].split(",") if s.strip()]
        except ValueError:
            raise ConfigError(f"bad --seeds value {data['seeds']!r}")
    if not data.get("dataset"):
        raise ConfigError("a dataset directory is required (--dataset or config file)")
    return ExperimentConfig.from_dict(data)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    report = run_experiment(cfg)
    print(
        f"{cfg.attack} on {cfg.dataset}: mean accuracy {report.mean:.4f} "
        f"+- {report.ci95_halfwidth:.4f} over {len(report.per_seed_accuracy)} seeds "
        f"({report.flip_count} flips) -> {resolve_output(cfg.output)}"
    )
    return EXIT_OK


def cmd_attack(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    clean = stage("load", load_graph, cfg)
    result = stage("attack", run_attack, cfg, clean)
    out = resolve_output(cfg.output)
    budget = attack_budget(cfg, clean)
    payload = report_payload(cfg, result.flips, budget, exhausted=result.exhausted)
    stage("write", write_json, out, payload)
    if args.poisoned_edges:
        iu, ju = result.poisoned.csr.nonzero()  # row-major; keep the upper triangle
        lines = [f"{i} {j}" for i, j in zip(iu.tolist(), ju.tolist()) if i < j]
        stage("write", write_text, args.poisoned_edges, "\n".join(lines) + "\n")
    print(f"{len(result.flips)} flips written to {out}" + (" (budget exhausted early)" if result.exhausted else ""))
    return EXIT_OK


def _read_flips(path: str) -> list[tuple[int, int, str]]:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise DatasetError(f"cannot read flips file {path}: {e}")
    try:
        records = data["flips"] if isinstance(data, dict) else data
        return [(int(r["i"]), int(r["j"]), str(r.get("op", ""))) for r in records]
    except (KeyError, TypeError, ValueError) as e:
        raise DatasetError(f"bad flip record in {path}: {e!r}")


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    clean = stage("load", load_graph, cfg)
    flips = stage("load", _read_flips, args.flips_file) if args.flips_file else []
    poisoned = stage("load", apply_flips, clean, flips)
    report = stage(
        "evaluate",
        evaluate,
        clean,
        poisoned,
        cfg.victim_hyper(),
        cfg.seeds,
        dataset=cfg.dataset,
        attack=cfg.attack if flips else "none",
        budget_fraction=cfg.budget_fraction,
        config=cfg.to_dict(),
    )

    out = resolve_output(cfg.output)
    stage("write", write_json, out, report_payload(cfg, flips, len(flips), report=report))
    print(f"mean accuracy {report.mean:.4f} +- {report.ci95_halfwidth:.4f} -> {out}")
    return EXIT_OK


def cmd_scatter(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    g = stage("load", load_graph, cfg)
    rows = stage("evaluate", margin_gradient_scatter, g, cfg.loss_spec(), cfg.surrogate_hyper())
    out = resolve_output(cfg.output)
    lines = ["node_id,margin,grad_l2"]
    lines += [f"{v},{margin:.10g},{norm:.10g}" for v, margin, norm in rows]
    stage("write", write_text, out, "\n".join(lines) + "\n")
    print(f"{len(rows)} nodes -> {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphpoison",
        description="Graph structure poisoning attacks on GNN node classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="attack + evaluate, end to end")
    _add_config_flags(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_attack = sub.add_parser("attack", help="run an attack and write the flip list")
    _add_config_flags(p_attack)
    p_attack.add_argument("--poisoned-edges", metavar="FILE", help="also write poisoned edge list")
    p_attack.set_defaults(fn=cmd_attack)

    p_eval = sub.add_parser("evaluate", help="train victims on a (poisoned) graph")
    _add_config_flags(p_eval)
    p_eval.add_argument("--flips-file", metavar="FILE", help="flip list to replay (omit for clean)")
    p_eval.set_defaults(fn=cmd_evaluate)

    p_scatter = sub.add_parser("scatter", help="emit margin/gradient-norm CSV")
    _add_config_flags(p_scatter)
    p_scatter.set_defaults(fn=cmd_scatter)

    return parser


def _message(e: Exception) -> str:
    """``e``'s message, prefixed with ``[stage]`` when it failed in a stage."""
    where = getattr(e, "stage", None)
    return f"[{where}] {e}" if where else str(e)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {_message(e)}", file=sys.stderr)
        return EXIT_CONFIG
    except DatasetError as e:
        print(f"data error: {_message(e)}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {_message(e)}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
