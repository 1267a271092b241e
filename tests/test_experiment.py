import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpoison import (
    ConfigError,
    DatasetError,
    ExperimentConfig,
    apply_flips,
    build_graph,
    run_experiment,
    sbm_graph,
)
from graphpoison.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from graphpoison.experiment import flips_path, write_text

from .conftest import write_plain_dataset

FAST = dict(surrogate_epochs=60, victim_epochs=60, seeds=(0, 1))


@pytest.fixture
def dataset_dir(tmp_path):
    g = sbm_graph((25, 25), 0.25, 0.02, seed=2)
    return write_plain_dataset(g, tmp_path / "sbm")


def _cfg(dataset_dir, tmp_path, **kw):
    merged = dict(FAST, dataset=dataset_dir, output=str(tmp_path / "report.json"))
    merged.update(kw)
    return ExperimentConfig(**merged)


def test_run_experiment_writes_schema(dataset_dir, tmp_path):
    cfg = _cfg(dataset_dir, tmp_path, budget_fraction=0.05)
    report = run_experiment(cfg)
    blob = json.loads((tmp_path / "report.json").read_text())
    assert set(blob) == {
        "dataset", "attack", "loss", "budget", "flips",
        "per_seed_accuracy", "mean", "ci95", "wall_clock_seconds", "exhausted", "config",
    }
    assert blob["mean"] == pytest.approx(report.mean)
    assert len(blob["flips"]) <= blob["budget"]
    assert blob["exhausted"] is False
    assert blob["config"]["dataset"] == dataset_dir
    flips_blob = json.loads((tmp_path / "report.flips.json").read_text())
    assert flips_blob == blob["flips"]


def test_run_reports_an_exhausted_attack(dataset_dir, tmp_path):
    # a negative degree-test threshold rejects every candidate flip
    cfg = _cfg(dataset_dir, tmp_path, degree_test=True, degree_test_threshold=-1.0)
    run_experiment(cfg)
    blob = json.loads((tmp_path / "report.json").read_text())
    assert blob["exhausted"] is True
    assert len(blob["flips"]) < blob["budget"]


def test_budget_zero_equals_clean_eval(dataset_dir, tmp_path):
    r0 = run_experiment(_cfg(dataset_dir, tmp_path, budget_fraction=0.0))
    from graphpoison import VictimHyper, evaluate, load_dataset

    clean = load_dataset(dataset_dir)
    direct = evaluate(clean, clean, VictimHyper(epochs=60), seeds=(0, 1))
    assert r0.per_seed_accuracy == direct.per_seed_accuracy
    assert r0.flip_count == 0


def test_identical_config_reproduces_outputs(dataset_dir, tmp_path):
    cfg = _cfg(dataset_dir, tmp_path, budget_fraction=0.05)
    run_experiment(cfg)
    report1 = (tmp_path / "report.json").read_text()
    flips1 = (tmp_path / "report.flips.json").read_text()
    run_experiment(cfg)
    report2 = (tmp_path / "report.json").read_text()
    flips2 = (tmp_path / "report.flips.json").read_text()

    assert flips1 == flips2
    d1, d2 = json.loads(report1), json.loads(report2)
    d1.pop("wall_clock_seconds"); d2.pop("wall_clock_seconds")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_budget_is_floor_of_fraction(dataset_dir, tmp_path):
    from graphpoison import load_dataset
    from graphpoison.experiment import attack_budget

    clean = load_dataset(dataset_dir)
    cfg = _cfg(dataset_dir, tmp_path, budget_fraction=0.07)
    assert attack_budget(cfg, clean) == int(np.floor(0.07 * clean.n_edges))


def test_dice_experiment_runs(dataset_dir, tmp_path):
    report = run_experiment(_cfg(dataset_dir, tmp_path, attack="dice", budget_fraction=0.05))
    assert report.flip_count > 0


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(budget_fraction=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(split_fraction=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(attack="gradient-descent")
    with pytest.raises(ConfigError):
        ExperimentConfig(seeds=())
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"no_such_field": 1})


def test_config_dict_roundtrip():
    cfg = ExperimentConfig(dataset="x", ca_enabled=True, alpha1=4.5, seeds=(3, 1))
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_defaults_equal_library_defaults():
    """ExperimentConfig restates the sub-configs' defaults as flat fields;
    a default changed in one place only would make the CLI and the
    library run different experiments."""
    import inspect

    from graphpoison import AttackConfig, CAWeightParams, VictimHyper, evaluate, load_dataset

    cfg = ExperimentConfig(dataset="x")
    assert cfg.attack_config(0) == AttackConfig()
    assert cfg.victim_hyper() == VictimHyper()
    assert ExperimentConfig(dataset="x", ca_enabled=True).loss_spec().ca_params == CAWeightParams()
    load = inspect.signature(load_dataset).parameters
    for name in ("split_fraction", "split_seed"):
        assert getattr(cfg, name) == load[name].default
    assert cfg.seeds == tuple(inspect.signature(evaluate).parameters["seeds"].default)


def test_output_dir_env_override(dataset_dir, tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("GRAPHPOISON_OUTPUT_DIR", str(override))
    run_experiment(_cfg(dataset_dir, tmp_path, budget_fraction=0.0))
    assert (override / "report.json").exists()


def test_flips_path_naming():
    assert flips_path("out/rep.json") == "out/rep.flips.json"
    assert flips_path("rep") == "rep.flips.json"


def test_apply_flips_reproduces_poisoned_graph(dataset_dir):
    """The recorded flip list is a faithful encoding of the poisoned graph."""
    from graphpoison import (
        AttackConfig, CAWeightParams, LossSpec, SurrogateHyper, dice_attack, load_dataset, meta_attack,
    )

    clean = load_dataset(dataset_dir)
    hyper = SurrogateHyper(epochs=60)
    schedule = CAWeightParams(4.5, 1.0, 1.0, 1.0)
    runs = [
        meta_attack(clean, AttackConfig(
            budget=8, loss_spec=LossSpec(base, ca, schedule if ca else None), surrogate_hyper=hyper,
        ))
        for base in ("nll", "cw")
        for ca in (False, True)
    ]
    runs.append(dice_attack(clean, AttackConfig(budget=8, seed=3, surrogate_hyper=hyper)))
    for res in runs:
        assert len(res.flips) == 8
        replayed = apply_flips(clean, res.flips)
        assert np.array_equal(replayed.adjacency, res.poisoned.adjacency)


def _path4():
    # 4-node path 0-1-2-3
    return build_graph([(0, 1), (1, 2), (2, 3)], np.eye(4), [0, 1, 0, 1], [True, False, False, False])


def test_apply_flips_rejects_negative_node_id():
    with pytest.raises(DatasetError, match="out of range"):
        apply_flips(_path4(), [(-1, 0, "add")])


def test_apply_flips_rejects_op_that_disagrees_with_the_edge():
    with pytest.raises(DatasetError, match="op 'add'"):
        apply_flips(_path4(), [(0, 1, "add")])


def test_apply_flips_rejects_repeated_pair():
    with pytest.raises(DatasetError, match="twice"):
        apply_flips(_path4(), [(0, 2, "add"), (2, 0, "delete")])


@pytest.mark.parametrize("flip", [
    (0.9, 2, "add"),
    (0, 2.0, "add"),
    (True, 3, "add"),
    (np.bool_(True), 3, "add"),
    ("0", 2, "add"),
    (0, 2, 1),
], ids=["float-id", "float-j", "bool-id", "numpy-bool-id", "string-id", "int-op"])
def test_apply_flips_rejects_mistyped_flips(flip):
    """A non-integer id is rejected, never truncated onto another pair."""
    with pytest.raises(DatasetError, match=r"flip 0: (i|j|op) must be of type"):
        apply_flips(_path4(), [flip])


def test_apply_flips_accepts_numpy_integer_ids():
    replayed = apply_flips(_path4(), [(np.int64(0), np.int32(2), "add")])
    assert replayed.csr[0, 2] == 1.0


def test_write_text_failure_keeps_previous_file(tmp_path):
    target = tmp_path / "report.json"
    write_text(str(target), "previous")
    with pytest.raises(UnicodeEncodeError):
        write_text(str(target), "partial" * 1000 + "\udc80")  # a lone surrogate fails mid-write
    assert target.read_text() == "previous"
    assert os.listdir(tmp_path) == ["report.json"]


# --- CLI ---------------------------------------------------------------


def test_cli_run_roundtrip(dataset_dir, tmp_path, capsys):
    out = tmp_path / "cli_report.json"
    rc = main([
        "run", "--dataset", dataset_dir, "--output", str(out),
        "--budget-fraction", "0.05", "--seeds", "0,1",
        "--surrogate-epochs", "60", "--victim-epochs", "60",
    ])
    assert rc == EXIT_OK
    assert out.exists()
    assert "mean accuracy" in capsys.readouterr().out


def test_cli_config_file_with_flag_override(dataset_dir, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "dataset": dataset_dir, "budget_fraction": 0.05, "seeds": [0, 1],
        "surrogate_epochs": 60, "victim_epochs": 60,
        "output": str(tmp_path / "a.json"),
    }))
    rc = main(["run", "--config", str(cfg_file), "--output", str(tmp_path / "b.json")])
    assert rc == EXIT_OK
    assert (tmp_path / "b.json").exists()
    assert not (tmp_path / "a.json").exists()


def test_cli_seeds_flag_overrides_config_file(dataset_dir, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"dataset": dataset_dir, "seeds": "5", "victim_epochs": 5}))
    out = tmp_path / "report.json"
    rc = main(["evaluate", "--config", str(cfg_file), "--seeds", "0,1", "--output", str(out)])
    assert rc == EXIT_OK
    assert json.loads(out.read_text())["config"]["seeds"] == [0, 1]


def test_cli_attack_then_evaluate(dataset_dir, tmp_path):
    flips_out = tmp_path / "flips.json"
    rc = main([
        "attack", "--dataset", dataset_dir, "--output", str(flips_out),
        "--budget-fraction", "0.05", "--surrogate-epochs", "60",
    ])
    assert rc == EXIT_OK
    blob = json.loads(flips_out.read_text())
    assert blob["flips"], "attack should record flips"

    report_out = tmp_path / "eval.json"
    rc = main([
        "evaluate", "--dataset", dataset_dir, "--flips-file", str(flips_out),
        "--output", str(report_out), "--seeds", "0,1", "--victim-epochs", "60",
    ])
    assert rc == EXIT_OK
    rep = json.loads(report_out.read_text())
    assert set(rep) == {
        "dataset", "attack", "loss", "budget", "flips",
        "per_seed_accuracy", "mean", "ci95", "wall_clock_seconds", "config",
    }
    assert rep["budget"] == len(blob["flips"])
    assert rep["attack"] == "meta"  # a replayed flip list keeps the configured attack


def test_cli_evaluate_labels_a_clean_graph_none(dataset_dir, tmp_path):
    out = tmp_path / "eval.json"
    rc = main([
        "evaluate", "--dataset", dataset_dir, "--attack", "dice",
        "--output", str(out), "--seeds", "0", "--victim-epochs", "5",
    ])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["attack"] == "none"
    assert rep["budget"] == 0 and rep["flips"] == []
    assert rep["config"]["attack"] == "dice"


def test_cli_scatter_csv(dataset_dir, tmp_path):
    out = tmp_path / "scatter.csv"
    rc = main([
        "scatter", "--dataset", dataset_dir, "--output", str(out),
        "--surrogate-epochs", "60",
    ])
    assert rc == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "node_id,margin,grad_l2"
    assert len(lines) > 1
    node_id, margin, grad = lines[1].split(",")
    int(node_id); float(margin); float(grad)


def test_cli_exit_codes(dataset_dir, tmp_path, capsys):
    from graphpoison.cli import EXIT_RUNTIME

    assert main(["run", "--dataset", str(tmp_path / "nope")]) == EXIT_DATA
    assert main(["run", "--dataset", str(tmp_path), "--budget-fraction", "2.0"]) == EXIT_CONFIG
    assert main(["run"]) == EXIT_CONFIG  # dataset required
    capsys.readouterr()

    # every subcommand names the stage that failed
    stuck = tmp_path / "stuck"  # one edge, two nodes: DICE finds no feasible flip
    os.makedirs(stuck)
    (stuck / "edges.txt").write_text("0 1\n")
    (stuck / "labels.txt").write_text("0\n1\n")
    taken = tmp_path / "taken"  # a non-empty directory where the report should go
    os.makedirs(taken / "inside")
    out = str(tmp_path / "out.json")
    fast = ["--seeds", "0", "--surrogate-epochs", "5", "--victim-epochs", "5"]
    cases = [
        (["run", "--dataset", str(tmp_path / "nope"), "--output", out], EXIT_DATA, "data error: [load] "),
        (["attack", "--dataset", str(stuck), "--attack", "dice", "--budget-fraction", "1.0",
          "--split-fraction", "0.34", "--output", out], EXIT_RUNTIME, "error: [attack] DICE"),
        (["evaluate", "--dataset", dataset_dir, "--output", str(taken)], EXIT_RUNTIME, "error: [write] "),
        (["scatter", "--dataset", str(tmp_path / "nope"), "--output", out], EXIT_DATA, "data error: [load] "),
    ]
    for argv, code, message in cases:
        assert main(argv + fast) == code, argv
        assert capsys.readouterr().err.startswith(message), argv
    assert not os.path.exists(out)


def test_cli_runtime_failure_exit_code(tmp_path, capsys):
    from graphpoison.cli import EXIT_RUNTIME

    # a single edge leaves DICE no feasible flip: there is no non-edge to
    # add, and deleting the edge isolates both endpoints
    d = tmp_path / "stuck"
    os.makedirs(d)
    (d / "edges.txt").write_text("0 1\n")
    (d / "labels.txt").write_text("0\n1\n")
    rc = main([
        "run", "--dataset", str(d), "--attack", "dice", "--budget-fraction", "1.0",
        "--split-fraction", "0.34", "--seeds", "0", "--victim-epochs", "20",
        "--surrogate-epochs", "20", "--output", str(tmp_path / "r.json"),
    ])
    assert rc == EXIT_RUNTIME
    assert "[attack]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--retrain-every", "0"],
        ["--ca-enabled", "--alpha1", "-1"],
        ["--hidden", "0"],
        ["--victim-epochs", "-5"],
        ["--dropout", "1.0"],
        ["--split-seed", "-1"],
        ["--surrogate-lr", "0"],
        ["--victim-weight-decay", "-1"],
        ["--seeds", "0,-1"],
        # wrong types, through a JSON config file
        {"ca_enabled": "no"},
        {"degree_test": "false"},
        {"budget_fraction": True},
        {"seeds": [0.7]},
        {"seeds": "0,1"},
        {"retrain_every": 1.5},
        {"attack_seed": 2.5},
        {"surrogate_epochs": 2.5},
        {"hidden": 2.5},
        {"split_seed": 1.5},
        {"surrogate_lr": float("inf")},
    ],
    ids=[
        "retrain-every", "alpha1", "hidden", "victim-epochs", "dropout", "split-seed",
        "surrogate-lr", "victim-weight-decay", "seeds",
        "config-ca-enabled-str", "config-degree-test-str", "config-budget-fraction-bool",
        "config-seeds-float", "config-seeds-str", "config-retrain-every-float", "config-attack-seed-float",
        "config-surrogate-epochs-float", "config-hidden-float", "config-split-seed-float",
        "config-surrogate-lr-inf",
    ],
)
def test_cli_invalid_values_exit_2_before_loading(dataset_dir, tmp_path, capsys, flags):
    out = tmp_path / "report.json"
    argv = ["run", "--dataset", dataset_dir, "--output", str(out)]
    if isinstance(flags, dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seeds": [0], **flags}))
        argv += ["--config", str(config)]
    else:
        argv += ["--seeds", "0", *flags]
    rc = main(argv)
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "evaluate"])
def test_cli_rejects_non_finite_features(dataset_dir, tmp_path, capsys, command):
    features = os.path.join(dataset_dir, "features.csv")
    with open(features) as fh:
        rows = fh.read().splitlines()
    rows[0] = ",".join(["nan"] * len(rows[0].split(",")))
    with open(features, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    out = tmp_path / "report.json"
    rc = main([command, "--dataset", dataset_dir, "--output", str(out), "--seeds", "0", "--victim-epochs", "5"])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: [load] ") and "features.csv:1: non-finite" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["run", "--attack", "dice"], ["evaluate"]])
def test_cli_rejects_a_single_class_dataset(tmp_path, capsys, command):
    g = sbm_graph((30, 30), 0.25, 0.02, seed=2)
    d = write_plain_dataset(g, tmp_path / "one_class")
    with open(os.path.join(d, "labels.txt"), "w") as fh:
        fh.write("0\n" * g.n_nodes)
    out = tmp_path / "report.json"
    rc = main([*command, "--dataset", d, "--output", str(out), "--seeds", "0", "--victim-epochs", "5"])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: [load] ") and "fewer than two classes" in err and "labels.txt" in err
    assert not out.exists()


def _evaluate_flips_file(dataset_dir, tmp_path, records):
    """Run ``evaluate`` on a flips file holding ``records``; (exit code, report path)."""
    flips = tmp_path / "flips.json"
    flips.write_text(json.dumps(records))
    out = tmp_path / "eval.json"
    rc = main([
        "evaluate", "--dataset", dataset_dir, "--flips-file", str(flips),
        "--output", str(out), "--seeds", "0", "--victim-epochs", "5",
    ])
    return rc, out


def test_cli_evaluate_rejects_bad_flips_file(dataset_dir, tmp_path, capsys):
    rc, out = _evaluate_flips_file(dataset_dir, tmp_path, [{"i": -1, "j": 0, "op": "add"}])
    assert rc == EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


# (26, 46) and (1, 26) are non-edges, so int() of each id would replay an "add"
@pytest.mark.parametrize("record", [
    {"i": 26.9, "j": 46, "op": "add"},
    {"i": "26", "j": 46, "op": "add"},
    {"i": 26, "j": True, "op": "add"},
    {"i": 26, "j": 46, "op": 1},
], ids=["float-id", "string-id", "bool-id", "int-op"])
def test_cli_evaluate_rejects_mistyped_flip_records(dataset_dir, tmp_path, capsys, record):
    rc, out = _evaluate_flips_file(dataset_dir, tmp_path, [record])
    assert rc == EXIT_DATA
    assert "data error: [load] flip 0: " in capsys.readouterr().err
    assert not out.exists()


def test_cli_attack_file_schema(dataset_dir, tmp_path):
    out = tmp_path / "attack.json"
    edges = tmp_path / "poisoned.txt"
    rc = main([
        "attack", "--dataset", dataset_dir, "--output", str(out), "--poisoned-edges", str(edges),
        "--budget-fraction", "0.02", "--surrogate-epochs", "20",
    ])
    assert rc == EXIT_OK
    blob = json.loads(out.read_text())
    assert set(blob) == {"dataset", "attack", "loss", "budget", "flips", "exhausted", "config"}
    assert blob["dataset"] == "sbm"
    assert blob["config"]["dataset"] == dataset_dir
    assert len(edges.read_text().splitlines()) > 0


# --- property: every config is rejected up front or runs to a finite report ---

NAN, INF = float("nan"), float("inf")
NOT_A_NUMBER = [True, False, "1", None, [1]]


def _field(valid, *invalid):
    """Draw ``(value, is_valid)``: from ``valid`` or from the ``invalid`` list."""
    return st.one_of(valid.map(lambda v: (v, True)), st.sampled_from(invalid).map(lambda v: (v, False)))


def _ints(lo, hi, *out_of_range):
    return _field(st.integers(lo, hi), *out_of_range, 1.5, *NOT_A_NUMBER)


def _floats(lo, hi, *out_of_range):
    return _field(st.floats(lo, hi), *out_of_range, NAN, INF, -INF, *NOT_A_NUMBER)


def _bools():
    return _field(st.booleans(), "no", "false", 0, 1, None)


def _choice(*valid):
    return _field(st.sampled_from(valid), "bogus", 0, None)


CONFIG_FIELDS = {
    "split_fraction": _floats(0.2, 0.5, 0.0, 1.0, -0.1),
    "split_seed": _ints(0, 5, -1),
    "attack": _choice("meta", "dice"),
    "base": _choice("nll", "cw"),
    "ca_enabled": _bools(),
    "alpha1": _floats(0.1, 5.0, 0.0, -1.0),
    "beta1": _floats(0.0, 5.0, -1.0),
    "alpha2": _floats(0.1, 5.0, 0.0, -1.0),
    "beta2": _floats(0.0, 5.0, -1.0),
    "cw_kappa": _floats(0.0, 2.0, -0.5),
    "budget_fraction": _floats(0.0, 0.2, -0.1, 1.5),
    "retrain_every": _ints(1, 3, 0, -1),
    "forbid_singletons": _bools(),
    "degree_test": _bools(),
    "degree_test_threshold": _floats(0.05, 1.0),
    "refresh_pseudo_labels": _bools(),
    "dice_add_prob": _floats(0.0, 1.0, -0.1, 1.1),
    "surrogate_lr": _floats(0.01, 1.0, 0.0, -0.1),
    "surrogate_epochs": _ints(0, 5, -1),
    "surrogate_weight_decay": _floats(0.0, 0.01, -1e-3),
    "surrogate_seed": _ints(0, 5, -1),
    "attack_seed": _ints(0, 5, -1),
    "hidden": _ints(1, 8, 0, -2),
    "victim_lr": _floats(0.001, 0.1, 0.0, -0.01),
    "victim_epochs": _ints(0, 5, -5),
    "victim_weight_decay": _floats(0.0, 0.01, -1.0),
    "dropout": _floats(0.0, 0.9, 1.0, -0.1),
    "seeds": _field(st.lists(st.integers(0, 3), min_size=1, max_size=2), [], [-1], [0.7], [True], "0", 3),
}


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("property")
    g = sbm_graph((10, 10), 0.4, 0.1, seed=3)  # connected: 20 nodes, 41 edges, 2 classes
    return write_plain_dataset(g, root / "sbm"), str(root / "report.json")


@settings(max_examples=200, deadline=None)
@given(drawn=st.lists(st.sampled_from(sorted(CONFIG_FIELDS)), max_size=4, unique=True).flatmap(
    lambda names: st.fixed_dictionaries({name: CONFIG_FIELDS[name] for name in names})
))
def test_every_config_is_rejected_or_runs_to_a_finite_report(tiny_dataset, drawn):
    dataset, output = tiny_dataset
    # The default degree-test threshold (0.004) rejects every flip of this
    # 20-node graph, and DICE then fails by design (exit 4, not a config
    # error), so the threshold here starts at 0.05, which rejects none.
    data = dict(
        dataset=dataset, output=output, surrogate_epochs=5, victim_epochs=5, seeds=[0],
        budget_fraction=0.1, degree_test_threshold=0.05,
    )
    data.update({name: value for name, (value, _) in drawn.items()})
    if not all(valid for _, valid in drawn.values()):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)
        return
    report = run_experiment(ExperimentConfig.from_dict(data))
    acc = np.asarray(report.per_seed_accuracy)
    assert acc.size == len(data["seeds"])
    assert np.all(np.isfinite(acc)) and np.all((acc >= 0.0) & (acc <= 1.0))
