import json
import re
import warnings

import numpy as np
import pytest

from toolselect.anp_selector import MAX_WIDTH, init_params
from toolselect.checkpoint import save_checkpoint
from toolselect.cli import RunConfig, parse_config, run
from toolselect.datasets import export_dataset, export_tools, import_dataset
from toolselect.errors import ConfigError
from toolselect.simworld import MAX_PAIR_VOCAB, generate_world
from toolselect.trainer import (
    MAX_BATCH_SIZE,
    MAX_PANEL_SIZE,
    TrainConfig,
    default_selector_config,
)

FAST_CONFIG = """\
# small world for command-line round trips
n_train=60
n_val=20
n_test=30
n_ref_pool=80
tools_per_task=4
ref_size=4

max_epochs=2
batch_size=8
panel_size=4
"""


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(FAST_CONFIG)
    return str(p)


# ------------------------------------------------------------ parse_config

def test_parse_config_defaults():
    cfg = parse_config(None)
    assert isinstance(cfg, RunConfig)
    assert cfg.world.n_train == 5000
    assert cfg.train.max_epochs == 50
    assert cfg.selector_overrides == {}


def test_parse_config_file(cfg_path):
    cfg = parse_config(cfg_path)
    assert cfg.world.n_train == 60
    assert cfg.world.ref_size == 4
    assert cfg.train.max_epochs == 2
    assert cfg.train.panel_size == 4


def test_parse_config_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("no_such_knob=3\n")
    with pytest.raises(ConfigError, match="no_such_knob"):
        parse_config(str(p))


def test_parse_config_bad_value(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("n_train=abc\n")
    with pytest.raises(ConfigError, match="n_train"):
        parse_config(str(p))


def test_parse_config_missing_equals(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("n_train\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config(str(p))


# ----------------------------------------------------------- dataset files

def test_dataset_round_trip(small_world, tmp_path):
    path = tmp_path / "test.jsonl"
    export_dataset(small_world, "test", str(path))
    back = import_dataset(str(path))
    orig = small_world.splits["test"]
    assert len(back) == len(orig)
    for a, b in zip(orig, back):
        assert a.query.uid == b.query.uid and a.query.task == b.query.task
        np.testing.assert_array_equal(a.query.x, b.query.x)
        np.testing.assert_array_equal(a.query.q, b.query.q)
        assert a.gt == b.gt


def test_dataset_export_byte_stable(small_world, tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    export_dataset(small_world, "val", str(p1))
    export_dataset(small_world, "val", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_malformed_line_names_position(small_world, tmp_path):
    path = tmp_path / "test.jsonl"
    export_dataset(small_world, "val", str(path))
    lines = path.read_text().splitlines()
    lines[2] = '{"uid": 1}'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=":3"):
        import_dataset(str(path))


def test_tools_round_trip(small_world, tmp_path):
    """``export_tools`` writes one JSON line per tool, keys sorted, whose
    fields read back as the tool's metadata and reference sets."""
    path = tmp_path / "tools.jsonl"
    export_tools(small_world, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == len(small_world.all_tools)
    for tool, line in zip(small_world.all_tools, lines):
        rec = json.loads(line)
        assert line == json.dumps(rec, sort_keys=True)
        assert rec["id"] == tool.tool_id and rec["index"] == tool.index
        assert rec["supported_tasks"] == sorted(tool.supported_tasks)
        assert rec["alignment"] == {str(t): {str(k): list(v) for k, v in rho.items()}
                                    for t, rho in tool.alignment.items()}
        assert rec["eta"] == tool.eta.tolist()
        assert sorted(rec["reference_sets"]) == sorted(str(t) for t in tool.reference_sets)
        for task, elements in tool.reference_sets.items():
            written = rec["reference_sets"][str(task)]
            assert [e["x"] for e in written] == [x.tolist() for x, _, _ in elements]


# ------------------------------------------------------------- subcommands

def test_simulate_byte_identical(cfg_path, tmp_path, capsys):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["simulate", "--config", cfg_path, "--out", str(out1)]) == 0
    digest1 = capsys.readouterr().out.splitlines()[0]
    assert run(["simulate", "--config", cfg_path, "--out", str(out2)]) == 0
    digest2 = capsys.readouterr().out.splitlines()[0]
    assert digest1.startswith("world_digest=") and digest1 == digest2
    for name in ("train.jsonl", "val.jsonl", "test.jsonl", "tools.jsonl"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_train_then_eval_and_route(cfg_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["train", "--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    log = (out / "epochs.log").read_text().splitlines()
    assert len(log) == 2
    pat = re.compile(r"^epoch=\d+ train_loss=-?\d+\.\d{6} "
                     r"val_cost=\d+\.\d{6} best=[01]$")
    assert all(pat.match(line) for line in log)
    assert (out / "checkpoint.bin").exists()

    assert run(["eval", "--config", cfg_path, "--out", str(out)]) == 0
    table = capsys.readouterr().out
    assert (out / "report.txt").read_text() == table
    for name in ("Random", "Oracle", "GlobalBest", "KNN", "MLPIndex", "ToolSelect"):
        assert name in table
    records = (out / "records.txt").read_text().splitlines()
    assert records and all("router=" in line for line in records)

    assert run(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    first = (out / "test.jsonl").read_text().splitlines()[0]
    query_path = tmp_path / "one.json"
    query_path.write_text(first + "\n")
    assert run(["route", "--config", cfg_path, "--out", str(out),
                "--input", str(query_path), "--panel-size", "4"]) == 0
    line = capsys.readouterr().out.strip()
    m = re.match(r"^tool=(\S+) slot=(\d) probs=\[([\d. ]+)\]$", line)
    assert m, line
    probs = [float(v) for v in m.group(3).split()]
    assert len(probs) == 4
    assert sum(probs) == pytest.approx(1.0, abs=1e-5)


def test_unknown_subcommand_exits_1(capsys):
    assert run(["bogus"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_config_exits_2(capsys):
    assert run(["simulate", "--config", "/nonexistent.cfg"]) == 2
    assert "error" in capsys.readouterr().err


def test_a_world_too_large_to_allocate_is_an_error_line(tmp_path, capsys, monkeypatch):
    """A world whose arrays numpy cannot allocate makes ``simulate`` exit 2
    with an ``error:`` line, not a traceback. Every config size is bounded,
    so the failed allocation is simulated: numpy's ``MemoryError`` for
    petabytes, raised by the first call of world generation."""
    import toolselect.cli as cli

    def fail(cfg, seed):
        raise MemoryError("Unable to allocate 116. PiB for an array with shape "
                          "(1000000000000000, 16) and data type float64")
    monkeypatch.setattr(cli, "generate_world", fail)
    code = run(["simulate", "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: out of memory: ") and "Traceback" not in err, err


def test_route_malformed_input_exits_2(tmp_path, cfg_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json\n")
    assert run(["route", "--config", cfg_path, "--out", str(tmp_path),
                "--input", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


# ------------------------------------------------ route input validation

def _route_probe(tmp_path, cfg_path, capsys, edit):
    """Route one exported record after ``edit`` changes it; returns the exit
    code and standard error."""
    out = tmp_path / "probe"
    assert run(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    record = json.loads((out / "test.jsonl").read_text().splitlines()[0])
    edit(record)
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(record) + "\n")
    capsys.readouterr()
    code = run(["route", "--config", cfg_path, "--out", str(out), "--input", str(path),
                "--panel-size", "4"])
    captured = capsys.readouterr()
    return code, captured.err, str(path), captured.out


def _set_box(record, box):
    record.update(family="grounding", gt={"box": box})


@pytest.mark.parametrize("edit, message", [
    (lambda r: r.pop("family"), "missing key 'family'"),
    (lambda r: r.update(x=r["x"][:3]), "'x' has 3 features"),
    (lambda r: r.update(q=r["q"] + [0.5]), "'q' has 9 features"),
    (lambda r: r["x"].__setitem__(0, float("nan")), "finite"),
    (lambda r: r.update(q=[float("inf")] * len(r["q"])), "finite"),
    (lambda r: r.update(task=9), "task 9 is not a task of the world"),
    (lambda r: r.update(task=1), "has family"),
    (lambda r: r.update(uid=-3), "'uid' must be non-negative, got -3"),
    (lambda r: r.update(uid=0), "uid 0 is a query of the world with another task or features"),
    (lambda r: r.update(uid=110), "uid 110 is a query of the world"),
    (lambda r: r["x"].__setitem__(0, r["x"][0] + 1e-9), "is a query of the world"),
    (lambda r: r.update(uid=1000000000.5), "'uid' must be an integer, got 1000000000.5"),
    (lambda r: r.update(uid=float(r["uid"])), "'uid' must be an integer, got "),
    (lambda r: r.update(uid=True), "'uid' must be an integer, got true"),
    (lambda r: r.update(task=0.7), "'task' must be an integer, got 0.7"),
    (lambda r: r.update(task=False), "'task' must be an integer, got false"),
    (lambda r: r.update(x=[True] * len(r["x"])), "'x' must be a list of numbers, got [true, "),
    (lambda r: r["q"].__setitem__(2, False), "'q' must be a list of numbers"),
    (lambda r: r.update(x="0.5"), "'x' must be a list of numbers, got \"0.5\""),
    (lambda r: r.update(gt={"label": 99}), "'gt.label' 99 is not a label of task 0 (0..4)"),
    (lambda r: r.update(gt={"label": -1}), "'gt.label' -1 is not a label of task 0 (0..4)"),
    (lambda r: r.update(gt={"label": 1.0}), "'gt.label' must be an integer, got 1.0"),
    (lambda r: r.update(gt={"label": True}), "'gt.label' must be an integer, got true"),
    (lambda r: r.update(gt=[1]), "'gt' must be an object, got [1]"),
    (lambda r: r.update(family="grounding"),
     "task 0 has family 'classification', the record 'grounding'"),
    (lambda r: r.update(family="no-such-family"), "'family' must be one of classification, "),
    (lambda r: (r.update(task=1), _set_box(r, [0.1, 0.2, 0.3])),
     "'gt.box' must be 4 coordinates in [0, 1]"),
    (lambda r: (r.update(task=1), _set_box(r, [0.1, 0.2, 0.3, 1.5])),
     "'gt.box' must be 4 coordinates in [0, 1]"),
    (lambda r: (r.update(task=1), _set_box(r, [0.1, 0.2, True, 0.5])),
     "'gt.box' must be a list of numbers"),
    (lambda r: r.update(task=2, family="report_generation", gt={"pairs": [[0, 1], [6, 0]]}),
     "'gt.pairs' [(6, 0)] are not pairs of task 2"),
    (lambda r: r.update(task=2, family="report_generation", gt={"pairs": [[0, 1.0]]}),
     "'gt.pairs' must be an integer, got 1.0"),
    (lambda r: r.update(task=2, family="report_generation", gt={"pairs": [[0, 1, 2]]}),
     "'gt.pairs' must be a list of [finding, location] pairs"),
], ids=["missing_key", "short_x", "long_q", "nan_x", "inf_q", "task_outside_world",
        "family_mismatch", "negative_uid", "uid_of_a_training_query",
        "uid_of_a_reference_pool_query", "own_uid_other_features", "fractional_uid",
        "integral_float_uid", "boolean_uid", "fractional_task", "boolean_task", "boolean_x",
        "boolean_in_q", "string_x", "label_past_the_space", "negative_label", "float_label",
        "boolean_label", "gt_not_an_object", "grounding_record_of_a_classification_task",
        "unknown_family", "three_box_coordinates", "box_outside_unit_square", "boolean_box",
        "pair_past_the_vocabulary", "float_in_a_pair", "three_entry_pair"])
def test_route_rejects_bad_records_with_an_error_line(tmp_path, cfg_path, capsys, edit,
                                                      message):
    code, err, path, out = _route_probe(tmp_path, cfg_path, capsys, edit)
    assert code == 2
    assert err.startswith(f"error: {path}:1: ") and message in err, err
    assert "Traceback" not in err
    assert out == ""


# -------------------------------------------------- train config values

@pytest.mark.parametrize("line, message", [
    ("task_weights=0.5,0.5", "task_weights must be a probability vector over the world's 4 tasks"),
    ("task_weights=0.2,0.2,0.2,0.2,0.2", "over the world's 4 tasks"),
    ("task_weights=0.5,0.6,0,0", "task_weights must be a probability vector"),
    ("task_weights=1.5,-0.5,0,0", "task_weights must be a probability vector"),
    ("task_weights=1,x", "config key 'task_weights': could not convert string to float: 'x'"),
    ("task_weights=", "config key 'task_weights': could not convert string to float: ''"),
    ("batch_size=0", "train config: batch_size must be at least 1, got 0"),
    ("patience=0", "train config: patience must be at least 1, got 0"),
    ("max_epochs=0", "train config: max_epochs must be at least 1, got 0"),
    ("lr=nan", "train config: lr must be finite"),
    ("beta2=1", "train config: beta2 must lie in [0, 1)"),
    ("panel_size=1", "train config: panel_size must be at least 2"),
    ("panel_size=100000000000",
     f"train config: panel_size must be at most {MAX_PANEL_SIZE}, got 100000000000"),
    ("task_label_counts=5,0,0", "unknown config key 'task_label_counts'"),
    ("eta_dim=3", "unknown config key 'eta_dim'"),
    ("n_tasks=4", "unknown config key 'n_tasks'"),
    ("seed=5", "unknown config key 'seed'"),
    ("lambda_h=nan", "objective config: lambda_h must be finite and non-negative, got nan"),
    ("lambda_r=inf", "objective config: lambda_r must be finite and non-negative, got inf"),
    ("lambda_cov=-1", "objective config: lambda_cov must be finite and non-negative, got -1"),
    ("eps=0", "objective config: eps must be finite and positive, got 0"),
    ("eps=-1e-9", "objective config: eps must be finite and positive"),
    ("hidden=0", "selector config: hidden must be positive, got 0"),
    ("dropout=1", "selector config: dropout must lie in [0, 1), got 1"),
], ids=["weights_too_short", "weights_too_long", "weights_off_simplex", "negative_weight",
        "weights_not_numbers", "weights_empty",
        "batch_size_0", "patience_0", "max_epochs_0", "lr_nan", "beta2_1", "panel_size_1",
        "panel_size_huge",
        "task_label_counts", "eta_dim", "n_tasks", "seed", "lambda_h_nan", "lambda_r_inf",
        "lambda_cov_negative", "eps_0", "eps_negative", "hidden_0", "dropout_1"])
def test_train_rejects_unusable_config_before_training(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(FAST_CONFIG + line + "\n")
    out = tmp_path / "run"
    code = run(["train", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and message in captured.err, captured.err
    assert "Traceback" not in captured.err
    assert "epoch=" not in captured.out and not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("line, message", [
    ("n_ref_pool=3", "world config: n_ref_pool (3) must be at least the task count (4)"),
    ("n_train=2", "task 2 has weight 0.25 but no training queries (n_train=2 over 4 tasks)"),
], ids=["n_ref_pool_below_task_count", "task_without_training_queries"])
def test_train_rejects_a_world_it_cannot_train_on(tmp_path, capsys, line, message):
    """A task with an empty reference pool, or with weight but no training
    queries, is a config error named before the first step."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(FAST_CONFIG + line + "\n")
    out = tmp_path / "run"
    code = run(["train", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {message}"), captured.err
    assert "Traceback" not in captured.err
    assert "epoch=" not in captured.out and not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("command", ["simulate", "train", "eval", "route"])
def test_negative_seed_is_a_usage_error_naming_the_option(tmp_path, capsys, command):
    code = run([command, "--seed", "-1", "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: argument --seed: must be a non-negative integer, got -1" in err, err
    assert "Traceback" not in err and not (tmp_path / "run").exists()


def test_config_keys_set_their_own_section(tmp_path):
    """ref_size and d_x belong to the world and lambda_h to the objective;
    derived selector fields (d_x among them) and fields that changed nothing
    are no selector keys."""
    p = tmp_path / "run.cfg"
    p.write_text("ref_size=4\nlambda_h=0.2\nhidden=64\nd_x=12\n")
    cfg = parse_config(str(p))
    assert cfg.world.ref_size == 4 and cfg.objective.lambda_h == 0.2 and cfg.world.d_x == 12
    assert cfg.selector_overrides == {"hidden": 64}
    assert not hasattr(cfg.train, "ref_size") and not hasattr(cfg.train, "lambda_h")


# -------------------------------------------------- world config values

@pytest.mark.parametrize("line, message", [
    ("d_x=0", "d_x must be at least 1"),
    ("mcq_options=0", "mcq_options must be at least 1"),
    ("n_findings=1", "n_findings * n_locations must be at least 5"),
    ("n_locations=0", "n_locations must be at least 1"),
    ("feature_noise=nan", "feature_noise must be finite"),
    ("labels_per_task=100000000000000000000",
     "labels_per_task must be at most 256, got 100000000000000000000"),
    ("p_max=1e308", "p_max must lie in (0, 1], got 1e+308"),
    ("p_floor=2", "p_floor must be at most 1, got 2.0"),
    ("sharpness=-4", "sharpness must be non-negative, got -4.0"),
], ids=["d_x_0", "mcq_options_0", "n_findings_1", "n_locations_0", "feature_noise_nan",
        "labels_per_task_huge", "p_max_huge", "p_floor_above_1", "sharpness_negative"])
def test_route_rejects_unusable_world_config_with_an_error_line(tmp_path, capsys, line,
                                                                message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(FAST_CONFIG + line + "\n")
    record = tmp_path / "record.json"
    record.write_text("{}\n")
    code = run(["route", "--config", str(cfg), "--out", str(tmp_path), "--input", str(record)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: world config: {message}"), err
    assert "Traceback" not in err


@pytest.mark.parametrize("line", ["n_findings=1000000000", "n_locations=1025",
                                  "n_findings=33\nn_locations=32"],
                         ids=["findings_huge", "locations_past_the_bound", "product_past_the_bound"])
def test_config_pair_vocabulary_above_the_bound_is_a_config_error(tmp_path, line):
    """A (finding, location) vocabulary past ``MAX_PAIR_VOCAB`` is rejected
    when the config is parsed, before any world is generated."""
    p = tmp_path / "bad.cfg"
    p.write_text(line + "\n")
    with pytest.raises(ConfigError, match=r"world config: n_findings \* n_locations must be at "
                                          rf"most {MAX_PAIR_VOCAB}, got \d+"):
        parse_config(str(p))
    p.write_text("n_findings=256\nn_locations=4\n")
    assert parse_config(str(p)).world.n_findings == 256


# --------------------------------------------- checkpoint against config

def _checkpoint_probe(tmp_path, cfg_path, capsys, command, edit, config_extra=""):
    """Write a checkpoint of the default selector config, changed by ``edit``,
    and run ``command`` with the run config plus ``config_extra``; returns the
    exit code and standard error."""
    out = tmp_path / "run"
    assert run(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    world = generate_world(parse_config(cfg_path).world, 0)
    tensors = {name: t.data for name, t in init_params(default_selector_config(world), 0).items()}
    edit(tensors)
    save_checkpoint(tensors, str(out / "checkpoint.bin"))
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(open(cfg_path).read() + config_extra)
    record = tmp_path / "record.json"
    record.write_text((out / "test.jsonl").read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "route":
        argv += ["--input", str(record), "--panel-size", "4"]
    return run(argv), capsys.readouterr().err


def test_route_rejects_a_checkpoint_missing_a_tensor(tmp_path, cfg_path, capsys):
    code, err = _checkpoint_probe(tmp_path, cfg_path, capsys, "route",
                                  lambda t: t.pop("head2_b"))
    assert code == 2
    assert err.startswith("error: ") and "tensor 'head2_b' is missing" in err, err
    assert "Traceback" not in err


def test_route_rejects_a_checkpoint_with_an_extra_tensor(tmp_path, cfg_path, capsys):
    code, err = _checkpoint_probe(tmp_path, cfg_path, capsys, "route",
                                  lambda t: t.update(stray_W=np.zeros((2, 2))))
    assert code == 2
    assert "tensor 'stray_W' is not a parameter of the selector config" in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["route", "eval"])
def test_checkpoint_shapes_must_match_the_selector_config(tmp_path, cfg_path, capsys, command):
    """A hidden=512 checkpoint under a hidden=64 config names the first
    mismatching tensor, in sorted order."""
    code, err = _checkpoint_probe(tmp_path, cfg_path, capsys, command, lambda t: None,
                                  config_extra="hidden=64\n")
    assert code == 2
    assert err.startswith("error: ") and "tensor 'cov1_W' has shape (" in err, err
    assert re.search(r"512\), the selector config \(\d+, 64\)", err), err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,name,value", [
    ("route", "cov1_W", np.nan), ("route", "cov1_W", np.inf), ("route", "head1_W", np.nan),
    ("route", "head1_W", np.inf), ("eval", "head1_W", np.nan)])
def test_a_checkpoint_holding_nan_or_inf_is_an_error_line(tmp_path, cfg_path, capsys,
                                                          write_unchecked_checkpoint,
                                                          command, name, value):
    """A CRC-valid checkpoint with one NaN or inf weight exits 2 naming the
    tensor, before any route, with no traceback and no numpy warning."""
    out = tmp_path / "run"
    assert run(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    world = generate_world(parse_config(cfg_path).world, 0)
    tensors = {n: t.data.copy()
               for n, t in init_params(default_selector_config(world), 0).items()}
    tensors[name][0, 0] = value
    write_unchecked_checkpoint(tensors, out / "checkpoint.bin")
    record = tmp_path / "record.json"
    record.write_text((out / "test.jsonl").read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    argv = [command, "--config", cfg_path, "--out", str(out)]
    if command == "route":
        argv += ["--input", str(record), "--panel-size", "4"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: checkpoint tensor '{name}' is not finite in float32\n", \
        captured.err
    assert captured.out == "" and "Traceback" not in captured.err
    assert "RuntimeWarning" not in captured.err and not caught, [str(w.message) for w in caught]


def test_route_rejects_a_crc_valid_corrupt_tensor_table_with_an_error_line(
        tmp_path, cfg_path, capsys, write_corrupt_table):
    out = tmp_path / "run"
    assert run(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    write_corrupt_table(out / "checkpoint.bin")
    record = tmp_path / "record.json"
    record.write_text((out / "test.jsonl").read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    code = run(["route", "--config", cfg_path, "--out", str(out), "--input", str(record),
                "--panel-size", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert "tensor table" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_route_accepts_a_checkpoint_of_the_selector_config(tmp_path, cfg_path, capsys):
    code, err = _checkpoint_probe(tmp_path, cfg_path, capsys, "route", lambda t: None)
    assert code == 0, err


# ------------------------------------------------ route over many records

def _trained_run(tmp_path, cfg_path):
    """A simulated world and a checkpoint of its default selector config."""
    out = tmp_path / "run"
    assert run(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    world = generate_world(parse_config(cfg_path).world, 0)
    tensors = {name: t.data for name, t in init_params(default_selector_config(world), 0).items()}
    save_checkpoint(tensors, str(out / "checkpoint.bin"))
    return out


def test_route_of_many_records_equals_one_route_per_record(tmp_path, cfg_path, capsys):
    """A file of 70 records (two chunks of routing) prints one line per
    record, in input order, each the line of routing that record alone."""
    out = _trained_run(tmp_path, cfg_path)
    lines = (out / "test.jsonl").read_text().splitlines()
    lines = (lines * 3)[:70]
    many = tmp_path / "many.jsonl"
    many.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    argv = ["route", "--config", cfg_path, "--out", str(out), "--panel-size", "4"]
    assert run(argv + ["--input", str(many)]) == 0
    routed = capsys.readouterr().out.splitlines()
    assert len(routed) == 70 and routed[:30] == routed[30:60]
    for n in (0, 1, 2, 31, 63, 64, 69):
        one = tmp_path / f"one_{n}.jsonl"
        one.write_text(lines[n] + "\n")
        assert run(argv + ["--input", str(one)]) == 0
        assert capsys.readouterr().out.splitlines() == [routed[n]], n


def test_route_encodes_the_reference_bank_once(tmp_path, cfg_path, capsys, monkeypatch):
    """One ``route`` call encodes the world's reference bank in one
    ``encode_reference_set`` call: the frozen model built from the
    checkpoint routes as it is, with the encodings it made when built."""
    from toolselect import anp_selector
    out = _trained_run(tmp_path, cfg_path)
    record = tmp_path / "record.json"
    record.write_text((out / "test.jsonl").read_text().splitlines()[0] + "\n")
    encoded = []
    original = anp_selector.encode_reference_set
    monkeypatch.setattr(anp_selector, "encode_reference_set",
                        lambda p, c, sets: encoded.append(len(sets.x)) or original(p, c, sets))
    capsys.readouterr()
    assert run(["route", "--config", cfg_path, "--out", str(out), "--input", str(record),
                "--panel-size", "4"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
    assert len(encoded) == 1 and encoded[0] > 0


def test_route_with_a_bad_line_prints_nothing(tmp_path, cfg_path, capsys):
    out = _trained_run(tmp_path, cfg_path)
    lines = (out / "test.jsonl").read_text().splitlines()[:4]
    lines[2] = "{not json"
    path = tmp_path / "bad_third.jsonl"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run(["route", "--config", cfg_path, "--out", str(out), "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {path}:3: "), captured.err
    assert captured.out == "" and "Traceback" not in captured.err


# ------------------------------------------------------- panel size bound

@pytest.mark.parametrize("value", ["1", "0", "-3"])
def test_route_panel_size_below_2_is_a_usage_error(tmp_path, capsys, value):
    code = run(["route", "--panel-size", value, "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: argument --panel-size: must be an integer of at least 2, got {value}" \
        in err, err
    assert "Traceback" not in err


# The values below are rejected before any panel is drawn, so they allocate
# nothing: a panel of 10**11 tools would not fit in memory.
@pytest.mark.parametrize("value", [str(MAX_PANEL_SIZE + 1), "100000000000"])
def test_route_panel_size_above_the_bound_is_a_usage_error(tmp_path, capsys, value):
    code = run(["route", "--panel-size", value, "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: argument --panel-size: must be at most {MAX_PANEL_SIZE}, got {value}" \
        in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_config_panel_size_above_the_bound_fails_before_any_draw(tmp_path, capsys, command):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(FAST_CONFIG + f"panel_size={MAX_PANEL_SIZE + 1}\n")
    out = tmp_path / "run"
    code = run([command, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and \
        f"panel_size must be at most {MAX_PANEL_SIZE}, got {MAX_PANEL_SIZE + 1}" in err, err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command", ["simulate", "train", "eval", "route"])
@pytest.mark.parametrize("line, message", [
    ("dropout=nan", "selector config: dropout must lie in [0, 1), got nan"),
    ("dropout=1.5", "selector config: dropout must lie in [0, 1), got 1.5"),
    ("hidden=0", "selector config: hidden must be positive, got 0"),
    ("hidden=100000000000", f"selector config: hidden must be at most {MAX_WIDTH}, "
                            "got 100000000000"),
], ids=["dropout_nan", "dropout_above_1", "hidden_0", "hidden_huge"])
def test_every_command_rejects_an_unusable_selector_value(tmp_path, capsys, command, line,
                                                          message):
    """Selector keys are checked when the config is parsed, so a command that
    builds no selector rejects them too, before it writes anything."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(FAST_CONFIG + line + "\n")
    record = tmp_path / "record.json"
    record.write_text("{}\n")
    out = tmp_path / "run"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    code = run(argv + (["--input", str(record)] if command == "route" else []))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {message}"), captured.err
    assert "Traceback" not in captured.err and captured.out == "" and not out.exists()


@pytest.mark.parametrize("line, message", [
    ("d_x=100000000000", "world config: d_x must be at most 2048, got 100000000000"),
    ("d_q=2049", "world config: d_q must be at most 2048, got 2049"),
    ("batch_size=100000000000",
     f"train config: batch_size must be at most {MAX_BATCH_SIZE}, got 100000000000"),
    ("d=100000000000", f"selector config: d must be at most {MAX_WIDTH}, got 100000000000"),
    ("slot_width=2049", f"selector config: slot_width must be at most {MAX_WIDTH}, got 2049"),
], ids=["d_x_huge", "d_q_past_the_bound", "batch_size_huge", "d_huge", "slot_width"])
def test_config_sizes_above_their_bounds_are_config_errors(tmp_path, line, message):
    """A size no array could hold is rejected when the config is parsed,
    naming its key, before anything is allocated."""
    p = tmp_path / "bad.cfg"
    p.write_text(line + "\n")
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(str(p))


def test_train_config_accepts_the_panel_size_bound():
    assert TrainConfig(panel_size=MAX_PANEL_SIZE).panel_size == MAX_PANEL_SIZE
    with pytest.raises(ConfigError, match=f"at most {MAX_PANEL_SIZE}"):
        TrainConfig(panel_size=MAX_PANEL_SIZE + 1)


def test_train_config_accepts_the_batch_size_bound():
    assert TrainConfig(batch_size=MAX_BATCH_SIZE).batch_size == MAX_BATCH_SIZE
    for value in (MAX_BATCH_SIZE + 1, 100_000_000_000):
        with pytest.raises(ConfigError, match=f"batch_size must be at most {MAX_BATCH_SIZE}, "
                                              f"got {value}"):
            TrainConfig(batch_size=value)
