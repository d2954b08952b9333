import json
import os

import numpy as np
import pytest

from maw import cli
from maw import model as M


def small_config(tmp_path, **overrides):
    cfg = {
        "data": {"features": 6, "rank": 1, "noise": 0.1},
        "model": {
            "d": 2, "dprime": 4, "samples": 2, "epochs": 2, "batch_size": 16,
            "lr_vae": 1e-3, "lr_critic": 1e-3,
            "encoder_widths": [8, 8], "decoder_widths": [8, 8], "critic_widths": [8, 8],
        },
        "split": {"n_train": 24, "c": 0.25, "n_test": 12, "c_tests": [0.5], "seed": 0},
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args):
    return cli.main(args)


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"nonsense": 1}}))
    code = run(["--config", str(path), "train"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["code"] == 2
    assert "model.nonsense" in err["error"]["detail"]


def test_invalid_json_config_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    assert run(["--config", str(path), "train"]) == 2


def test_eval_missing_csv_exits_3_without_partial_output(tmp_path, capsys):
    cfg = small_config(
        tmp_path, data={"source": "csv", "path": str(tmp_path / "missing.csv")}
    )
    code = run(["--config", cfg, "eval"])
    assert code == 3
    out_dir = json.loads(open(cfg).read())["output_dir"]
    assert not os.path.exists(os.path.join(out_dir, "report.json"))
    assert not os.path.exists(os.path.join(out_dir, "report.csv"))


def test_train_writes_checkpoint_and_trace(tmp_path):
    cfg = small_config(tmp_path)
    assert run(["--config", cfg, "train"]) == 0
    out_dir = json.loads(open(cfg).read())["output_dir"]
    ckpt = json.load(open(os.path.join(out_dir, "checkpoint.json")))
    assert ckpt["format"] == "maw-checkpoint"
    assert ckpt["seed"] == 0
    assert "config" in ckpt
    trace = open(os.path.join(out_dir, "loss_trace.csv")).read().splitlines()
    assert trace[0].startswith("# ")
    assert trace[1] == "epoch,loss_vae,loss_critic,loss_gen"
    assert len(trace) == 2 + 2  # comment + header + 2 epochs


def test_train_zero_epochs_checkpoint_equals_init(tmp_path):
    cfg = small_config(tmp_path)
    assert run(["--config", cfg, "--set", "model.epochs=0", "train"]) == 0
    out_dir = json.loads(open(cfg).read())["output_dir"]
    ckpt = json.load(open(os.path.join(out_dir, "checkpoint.json")))
    hp = M.Hyperparams.from_dict(ckpt["hyperparams"])
    fresh = M.init_model(hp, ckpt["feature_dim"], np.random.default_rng(0))
    for name, value in ckpt["params"].items():
        assert np.array_equal(np.asarray(value), fresh.store.params[name])
    trace = open(os.path.join(out_dir, "loss_trace.csv")).read().splitlines()
    assert len(trace) == 2  # comment + header only


def test_train_and_score_are_byte_deterministic(tmp_path):
    cfg = small_config(tmp_path)
    out = json.loads(open(cfg).read())["output_dir"]
    blobs = {}
    for tag in ("first", "second"):
        assert run(["--config", cfg, "train"]) == 0
        assert run([
            "--config", cfg, "score",
            "--checkpoint", os.path.join(out, "checkpoint.json"),
        ]) == 0
        blobs[tag] = {
            name: open(os.path.join(out, name), "rb").read()
            for name in ("checkpoint.json", "loss_trace.csv", "scores.csv")
        }
    assert blobs["first"] == blobs["second"]


def test_gen_data_roundtrips_through_score(tmp_path):
    cfg = small_config(tmp_path)
    assert run(["--config", cfg, "gen-data"]) == 0
    out_dir = json.loads(open(cfg).read())["output_dir"]
    data_csv = os.path.join(out_dir, "dataset.csv")
    assert run(["--config", cfg, "train"]) == 0
    assert run([
        "--config", cfg, "score",
        "--checkpoint", os.path.join(out_dir, "checkpoint.json"),
        "--data", data_csv,
    ]) == 0
    lines = open(os.path.join(out_dir, "scores.csv")).read().splitlines()
    assert lines[1] == "index,score,label"
    assert len(lines) == 2 + 24 + 6  # comment + header + rows


def test_eval_writes_reports(tmp_path):
    cfg = small_config(tmp_path)
    assert run(["--config", cfg, "eval"]) == 0
    out_dir = json.loads(open(cfg).read())["output_dir"]
    report = json.load(open(os.path.join(out_dir, "report.json")))
    assert len(report["reports"]) == 1
    row = report["reports"][0]
    assert 0.0 <= row["auc_mean"] <= 1.0
    csv_lines = open(os.path.join(out_dir, "report.csv")).read().splitlines()
    assert csv_lines[1].startswith("variant,c,")


def test_sweep_over_variants(tmp_path):
    cfg = small_config(tmp_path, sweep={"axis": "variant", "values": ["maw", "vae"]})
    assert run(["--config", cfg, "sweep"]) == 0
    out_dir = json.loads(open(cfg).read())["output_dir"]
    report = json.load(open(os.path.join(out_dir, "sweep_report.json")))
    assert [r["value"] for r in report["reports"]] == ["maw", "vae"]


def test_sweep_over_d_emits_one_row_per_value(tmp_path):
    cfg = small_config(tmp_path, sweep={"axis": "d", "values": [2, 4]})
    assert run(["--config", cfg, "sweep"]) == 0
    out_dir = json.loads(open(cfg).read())["output_dir"]
    report = json.load(open(os.path.join(out_dir, "sweep_report.json")))
    assert [r["value"] for r in report["reports"]] == [2, 4]


def test_sweep_over_c_sets_each_row_c(tmp_path):
    cfg = small_config(tmp_path, sweep={"axis": "c", "values": [0.25, 0.5]})
    assert run(["--config", cfg, "sweep"]) == 0
    out_dir = json.loads(open(cfg).read())["output_dir"]
    report = json.load(open(os.path.join(out_dir, "sweep_report.json")))
    assert [(r["value"], r["c"]) for r in report["reports"]] == [(0.25, 0.25), (0.5, 0.5)]


def test_eval_is_the_one_cell_sweep(tmp_path, capsys):
    cfg = small_config(tmp_path, sweep={"axis": "variant", "values": ["maw"]})
    out_dir = json.loads(open(cfg).read())["output_dir"]
    assert run(["--config", cfg, "eval"]) == 0
    eval_line = capsys.readouterr().out.strip()
    assert run(["--config", cfg, "sweep"]) == 0
    assert capsys.readouterr().out.strip() == "variant=maw " + eval_line
    assert eval_line.startswith("variant=maw c=0.25 auc=") and " ap=" in eval_line
    (eval_row,) = json.load(open(os.path.join(out_dir, "report.json")))["reports"]
    (sweep_row,) = json.load(open(os.path.join(out_dir, "sweep_report.json")))["reports"]
    assert (sweep_row.pop("axis"), sweep_row.pop("value")) == ("variant", "maw")
    assert sweep_row == eval_row


def _one_config_error(capsys) -> str:
    """The detail of the single JSON config error line on stderr."""
    out, err = capsys.readouterr()
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    error = json.loads(lines[0])["error"]
    assert error["code"] == 2 and error["kind"] == "config"
    return error["detail"]


@pytest.mark.parametrize("values", [5, "ab", [], {"maw": 1}, None])
def test_sweep_values_must_be_a_nonempty_list(tmp_path, capsys, values):
    cfg = small_config(tmp_path, sweep={"axis": "variant", "values": values})
    assert run(["--config", cfg, "sweep"]) == 2
    assert "sweep.values" in _one_config_error(capsys)


@pytest.mark.parametrize("axis, values", [
    ("variant", ["maw", "nope"]), ("d", [2, 3]), ("eta", [0.8, 1.5]), ("c", [0.2, 2.0]),
    ("d", [2, "4"]), ("zz", ["maw"]), ([1], ["maw"]), ({"a": 1}, ["maw"]), (None, ["maw"]),
    ("d", [2, 536870912]),  # the second cell's d x 8 decoder weight has 2^32 entries
])
def test_sweep_checks_every_cell_before_any_trains(tmp_path, capsys, monkeypatch, axis, values):
    trained = []
    monkeypatch.setattr(cli.evalx, "run_experiment", lambda *args: trained.append(args))
    cfg = small_config(tmp_path, sweep={"axis": axis, "values": values})
    assert run(["--config", cfg, "sweep"]) == 2
    _one_config_error(capsys)
    assert trained == []
    assert not os.path.exists(json.loads(open(cfg).read())["output_dir"])


def test_eval_bounds_the_model_at_the_csv_pool_width(tmp_path, capsys, monkeypatch):
    # the first encoder weight is the pool's 2 feature columns x 2^30
    trained = []
    monkeypatch.setattr(cli.evalx, "run_experiment", lambda *args: trained.append(args))
    data = tmp_path / "pool.csv"
    data.write_text("f1,f2,label\n1,0,0\n0,1,0\n1,1,1\n")
    cfg = small_config(tmp_path, data={"source": "csv", "path": str(data)},
                       model={"encoder_widths": [2**30]})
    assert run(["--config", cfg, "eval"]) == 2
    assert _one_config_error(capsys).startswith("a 2 x 1073741824 weight has more than")
    assert trained == []


@pytest.mark.parametrize("assignment, name", [
    ('data.features="abc"', "dim"), ("data.rank=1.5", "rank"), ('data.noise="x"', "noise"),
])
def test_synthetic_family_values_of_the_wrong_type_exit_2(tmp_path, capsys, assignment, name):
    cfg = small_config(tmp_path)
    assert run(["--config", cfg, "--set", assignment, "eval"]) == 2
    assert _one_config_error(capsys).startswith(name)


@pytest.mark.parametrize("assignments, name", [
    (['data.source="csv"', "data.path=[1]"], "data.path"),
    (['data.source="csv"', 'data.path={"a":1}'], "data.path"),
    (['data.source="csv"', "data.path=true"], "data.path"),
    (['data.source="csv"', "data.path=5"], "data.path"),
    (['data.source="csv"', "data.path=null"], "data.path"),
    (['data.source="csv"', 'data.path=""'], "data.path"),
    (["data.path=[1]"], "data.path"),
    (["output_dir=[1]"], "output_dir"),
    (["output_dir=null"], "output_dir"),
    (['output_dir=""'], "output_dir"),
])
def test_bad_path_or_output_dir_exits_2(tmp_path, capsys, assignments, name):
    cfg = small_config(tmp_path)
    sets = [arg for a in assignments for arg in ("--set", a)]
    assert run(["--config", cfg, *sets, "eval"]) == 2
    assert _one_config_error(capsys).startswith(name)
    assert not os.path.exists(json.loads(open(cfg).read())["output_dir"])


def _one_error(capsys, code, kind, path) -> str:
    """The detail of the single JSON error line on stderr, which names path."""
    out, err = capsys.readouterr()
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    error = json.loads(lines[0])["error"]
    assert (error["code"], error["kind"]) == (code, kind) and str(path) in error["detail"]
    return error["detail"]


def test_output_dir_naming_a_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg = small_config(tmp_path, model={"epochs": 0})
    assert run(["--config", cfg, "--output-dir", str(blocker), "train"]) == 2
    _one_error(capsys, 2, "config", blocker)


@pytest.mark.parametrize("command, blocked", [
    ("train", "checkpoint.json"), ("score", "scores.csv"), ("eval", "report.json"),
])
def test_output_file_naming_a_directory_exits_2(tmp_path, capsys, command, blocked):
    cfg = small_config(tmp_path, model={"epochs": 0})
    args = ["--config", cfg, command]
    if command == "score":
        args += ["--checkpoint", _trained_checkpoint(cfg)]
    path = tmp_path / "out" / blocked
    path.mkdir(parents=True)
    capsys.readouterr()
    assert run(args) == 2
    _one_error(capsys, 2, "config", path)


def test_score_checkpoint_naming_a_directory_exits_3(tmp_path, capsys):
    cfg = small_config(tmp_path)
    assert run(["--config", cfg, "score", "--checkpoint", str(tmp_path)]) == 3
    _one_error(capsys, 3, "data", tmp_path)


def test_config_file_naming_a_directory_exits_2(tmp_path, capsys):
    assert run(["--config", str(tmp_path), "train"]) == 2
    _one_error(capsys, 2, "config", tmp_path)


def test_data_path_naming_a_directory_exits_3(tmp_path, capsys):
    cfg = small_config(tmp_path, data={"source": "csv", "path": str(tmp_path)})
    assert run(["--config", cfg, "eval"]) == 3
    _one_error(capsys, 3, "data", tmp_path)
    assert not os.path.exists(json.loads(open(cfg).read())["output_dir"])


@pytest.mark.parametrize("which, code", [("config", 2), ("checkpoint", 3), ("csv", 3)])
def test_input_that_is_not_text_exits_with_one_json_line(tmp_path, capsys, which, code):
    # json.load and the CSV reader raised UnicodeDecodeError, a traceback
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00\x81")
    cfg = small_config(tmp_path, data={"source": "csv", "path": str(binary)})
    argv = {"config": ["--config", str(binary), "train"],
            "checkpoint": ["--config", cfg, "score", "--checkpoint", str(binary)],
            "csv": ["--config", cfg, "eval"]}[which]
    assert run(argv) == code
    out, err = capsys.readouterr()
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    assert json.loads(lines[0])["error"]["code"] == code


def test_maw_seed_env_override(tmp_path, monkeypatch):
    cfg = small_config(tmp_path)
    monkeypatch.setenv("MAW_SEED", "7")
    assert run(["--config", cfg, "train"]) == 0
    out_dir = json.loads(open(cfg).read())["output_dir"]
    ckpt = json.load(open(os.path.join(out_dir, "checkpoint.json")))
    assert ckpt["seed"] == 7
    # an explicit flag beats the environment
    assert run(["--config", cfg, "--seed", "9", "train"]) == 0
    ckpt = json.load(open(os.path.join(out_dir, "checkpoint.json")))
    assert ckpt["seed"] == 9


def test_bad_env_seed_exits_2(tmp_path, monkeypatch, capsys):
    cfg = small_config(tmp_path)
    monkeypatch.setenv("MAW_SEED", "not-a-number")
    assert run(["--config", cfg, "train"]) == 2


SEED_CASES = {
    "flag": (["--seed", "-1"], {}, {}),
    "env": ([], {"MAW_SEED": "-2"}, {}),
    "file-seeds": ([], {}, {"seeds": [0, -3]}),
    "file-family-seed": ([], {}, {"data": {"family_seed": -1}}),
    "file-split-seed": ([], {}, {"split": {"seed": 1.5}}),
    "set-seeds-fraction": (["--set", "seeds=[1.5]"], {}, {}),
    "set-seeds-bool": (["--set", "seeds=[true]"], {}, {}),
    "set-seeds-scalar": (["--set", "seeds=3"], {}, {}),
    "set-family-seed": (["--set", "data.family_seed=-1"], {}, {}),
    "set-split-seed": (["--set", "split.seed=-1"], {}, {}),
}


@pytest.mark.parametrize("command", ["gen-data", "train", "theory"])
@pytest.mark.parametrize("case", SEED_CASES)
def test_negative_or_non_integer_seed_exits_2(tmp_path, capsys, monkeypatch, case, command):
    flags, env, overrides = SEED_CASES[case]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    cfg = small_config(tmp_path, **overrides)
    assert run(["--config", cfg, *flags, command]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["kind"] == "config" and "seed" in err["detail"]


@pytest.mark.parametrize("argv", [
    ["nosuch"], ["--bogus", "theory"], [], ["--seed", "abc", "theory"], ["theory", "--what"],
    ["score"], ["train", "--variant", "nope"], ["train", "--epochs", "1.5"],
], ids=lambda argv: " ".join(argv) or "no-command")
def test_argument_errors_exit_2_with_one_json_line(capsys, argv):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    lines = err.strip().splitlines()
    assert out == "" and len(lines) == 1 and "usage" not in err
    assert json.loads(lines[0])["error"]["code"] == 2
    assert json.loads(lines[0])["error"]["kind"] == "config"


@pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]])
def test_help_still_prints_help_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: maw") and err == ""


def test_set_cannot_replace_a_section(tmp_path):
    cfg = small_config(tmp_path)
    assert run(["--config", cfg, "--set", 'split={"seed": 1}', "train"]) == 2


def test_score_missing_checkpoint_exits_3(tmp_path):
    cfg = small_config(tmp_path)
    code = run(["--config", cfg, "score", "--checkpoint", str(tmp_path / "no.json")])
    assert code == 3


def _trained_checkpoint(cfg):
    assert run(["--config", cfg, "train"]) == 0
    return os.path.join(json.loads(open(cfg).read())["output_dir"], "checkpoint.json")


def test_score_truncated_checkpoint_exits_3(tmp_path, capsys):
    cfg = small_config(tmp_path)
    ckpt = _trained_checkpoint(cfg)
    text = open(ckpt).read()
    with open(ckpt, "w") as fh:
        fh.write(text[: len(text) // 2])
    assert run(["--config", cfg, "score", "--checkpoint", ckpt]) == 3
    assert json.loads(capsys.readouterr().err.strip())["error"]["kind"] == "data"


def test_score_non_finite_csv_cell_exits_3(tmp_path, capsys):
    cfg = small_config(tmp_path)
    ckpt = _trained_checkpoint(cfg)
    data = tmp_path / "rows.csv"
    for cell in ("nan", "inf", "-inf"):
        data.write_text(f"f1,f2,f3,f4,f5,f6\n1,0,0,0,0,0\n0,1,{cell},0,0,0\n")
        assert run(["--config", cfg, "score", "--checkpoint", ckpt, "--data", str(data)]) == 3
        detail = json.loads(capsys.readouterr().err.strip())["error"]["detail"]
        assert "row 2" in detail and "'f3'" in detail


def test_score_scaled_rows_score_like_the_row(tmp_path):
    # rows are unit-normalized; at 1e+-200 the plain sum of squares overflows or underflows
    cfg = small_config(tmp_path)
    ckpt = _trained_checkpoint(cfg)
    out = os.path.join(json.loads(open(cfg).read())["output_dir"], "scores.csv")
    row = np.array([0.3, -1.2, 0.5, 2.0, -0.7, 0.1])
    data = tmp_path / "row.csv"
    scores = []
    for scale in (1.0, 1e200, 1e-200):
        cells = ",".join(repr(float(v)) for v in row * scale)
        data.write_text(f"f1,f2,f3,f4,f5,f6\n{cells}\n")
        assert run(["--config", cfg, "score", "--checkpoint", ckpt, "--data", str(data)]) == 0
        scores.append(float(open(out).read().splitlines()[2].split(",")[1]))
    assert scores[0] != 0.0
    np.testing.assert_allclose(scores, scores[0], rtol=0.0, atol=1e-12)


def test_score_csv_of_wrong_width_exits_3(tmp_path, capsys):
    cfg = small_config(tmp_path)
    ckpt = _trained_checkpoint(cfg)
    data = tmp_path / "narrow.csv"
    data.write_text("f1,f2,f3\n1,0,0\n0,1,0\n")
    assert run(["--config", cfg, "score", "--checkpoint", ckpt, "--data", str(data)]) == 3
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "data" and "3 feature columns" in err["detail"]


def _one_error_line(capsys):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


def test_score_checkpoint_value_beyond_float32_exits_3(tmp_path, capsys):
    # a checkpoint loads in the training dtype, float32: 1e39 is finite only in float64
    cfg = small_config(tmp_path, model={"epochs": 0})
    ckpt = _trained_checkpoint(cfg)
    payload = json.loads(open(ckpt).read())
    payload["state"]["dec.l0.running_var"][0] = 1e39
    with open(ckpt, "w") as fh:
        json.dump(payload, fh)
    capsys.readouterr()
    assert run(["--config", cfg, "score", "--checkpoint", ckpt]) == 3
    err = _one_error_line(capsys)
    assert err["kind"] == "data" and "dec.l0.running_var" in err["detail"]
    assert "not finite in float32" in err["detail"]


@pytest.mark.parametrize("version", [1, 2])
def test_score_version_1_checkpoint_exits_3(tmp_path, capsys, version):
    # a file in version 2's layout: version 3's sections plus each optimizer's
    # step and moment slots
    cfg = small_config(tmp_path, model={"epochs": 0})
    ckpt = _trained_checkpoint(cfg)
    payload = json.loads(open(ckpt).read())
    optimizers = M.MawModel.from_payload(payload).optimizers
    payload["version"] = version
    payload["optimizers"] = {
        name: {k: v if k == "step" else {n: a.tolist() for n, a in v.items()}
               for k, v in opt.slots.items()}
        for name, opt in optimizers.items()
    }
    with open(ckpt, "w") as fh:
        json.dump(payload, fh)
    capsys.readouterr()
    assert run(["--config", cfg, "score", "--checkpoint", ckpt]) == 3
    err = _one_error_line(capsys)
    assert err["kind"] == "data" and f"version {version}" in err["detail"]
    assert "expected 3" in err["detail"]


@pytest.mark.parametrize("text", ["[]", "{}", '"maw-checkpoint"'])
def test_score_non_checkpoint_json_exits_3(tmp_path, capsys, text):
    cfg = small_config(tmp_path)
    ckpt = tmp_path / "f.json"
    ckpt.write_text(text)
    assert run(["--config", cfg, "score", "--checkpoint", str(ckpt)]) == 3
    err = _one_error_line(capsys)
    assert err["kind"] == "data" and "not a model checkpoint" in err["detail"]


@pytest.mark.parametrize("dim", ["abc", 0, 2**31])
def test_score_bad_feature_dim_exits_3(tmp_path, capsys, dim):
    cfg = small_config(tmp_path, model={"epochs": 0})
    ckpt = _trained_checkpoint(cfg)
    payload = json.loads(open(ckpt).read())
    payload["feature_dim"] = dim
    with open(ckpt, "w") as fh:
        json.dump(payload, fh)
    assert run(["--config", cfg, "score", "--checkpoint", ckpt]) == 3
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "data" and "feature_dim" in err["detail"]


# the encoder's last weight, 131072 x 4 dprime, would be 8 PiB while every
# hyperparameter is within linalg.SIZE_MAX; the weight's own bound refuses it
# before anything is allocated
TOO_LARGE = {"encoder_widths": [131072], "dprime": 2147483647}
TOO_LARGE_DETAIL = "a 131072 x 8589934588 weight has more than 2147483647 entries"


def test_train_too_large_to_allocate_exits_2(tmp_path, capsys):
    cfg = small_config(tmp_path, model=TOO_LARGE)
    assert run(["--config", cfg, "train"]) == 2
    assert TOO_LARGE_DETAIL in _one_config_error(capsys)


def test_train_allocation_failure_exits_2(tmp_path, capsys, monkeypatch):
    # a model within every bound can still be too large for the host's memory
    def no_memory(rows, cols, rng):
        raise MemoryError(f"Unable to allocate 8.00 PiB for an array with shape ({rows}, {cols})")

    monkeypatch.setattr(M.nets, "glorot_init", no_memory)
    assert run(["--config", small_config(tmp_path), "train"]) == 2
    assert "PiB" in _one_config_error(capsys)


def test_score_checkpoint_too_large_to_allocate_exits_2(tmp_path, capsys):
    cfg = small_config(tmp_path, model={"epochs": 0})
    ckpt = _trained_checkpoint(cfg)
    payload = json.loads(open(ckpt).read())
    payload["hyperparams"].update(TOO_LARGE)
    with open(ckpt, "w") as fh:
        json.dump(payload, fh)
    capsys.readouterr()
    assert run(["--config", cfg, "score", "--checkpoint", ckpt]) == 2
    assert TOO_LARGE_DETAIL in _one_config_error(capsys)


def test_score_checkpoint_weight_across_sections_beyond_bound_exits_2(tmp_path, capsys):
    # feature_dim x the first encoder width: each is within linalg.SIZE_MAX, and
    # no one list of widths holds both; numpy's "array is too big" ValueError
    # once escaped as a traceback
    hp = M.Hyperparams(d=2, dprime=4, encoder_widths=(8,), decoder_widths=(8,),
                       critic_widths=(8,))
    payload = M.init_model(hp, 4, np.random.default_rng(0)).to_payload()
    payload["feature_dim"] = 2147483647
    payload["hyperparams"]["encoder_widths"] = [2147483647]
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(payload))
    assert run(["--config", small_config(tmp_path), "score", "--checkpoint", str(ckpt)]) == 2
    assert "a 2147483647 x 2147483647 weight" in _one_config_error(capsys)


# sizes within linalg.SIZE_MAX whose product is not: a weight or the data
# family's frame; each used to end in numpy's "array is too big" traceback or
# a MemoryError
@pytest.mark.parametrize("assignments, detail", [
    (["model.decoder_widths=[524288,2147483647]"], "a 524288 x 2147483647 weight"),
    (["model.critic_widths=[8,65536,65536]"], "a 65536 x 65536 weight"),
    (["data.features=2147483647", "data.rank=2147483646"], "dim x rank"),
    (["data.features=2147483647", "data.rank=4194304"], "dim x rank"),
], ids=["widths", "widths-inner", "data", "data-pib"])
def test_train_size_product_beyond_bound_exits_2(tmp_path, capsys, assignments, detail):
    cfg = small_config(tmp_path)
    sets = [arg for a in assignments for arg in ("--set", a)]
    assert run(["--config", cfg, *sets, "train"]) == 2
    error = _one_config_error(capsys)
    assert detail in error and "2147483647" in error


def test_score_checkpoint_widths_product_beyond_bound_exits_2(tmp_path, capsys):
    cfg = small_config(tmp_path, model={"epochs": 0})
    ckpt = _trained_checkpoint(cfg)
    payload = json.loads(open(ckpt).read())
    payload["hyperparams"]["decoder_widths"] = [524288, 2147483647]
    with open(ckpt, "w") as fh:
        json.dump(payload, fh)
    capsys.readouterr()
    assert run(["--config", cfg, "score", "--checkpoint", ckpt]) == 2
    assert "a 524288 x 2147483647 weight" in _one_config_error(capsys)


# one past linalg.SIZE_MAX for each integer key, and sizes beyond numpy's index
# range, which used to end in numpy's ValueError traceback
@pytest.mark.parametrize("assignment", [
    "model.d=2147483648", "model.dprime=2147483648", "model.samples=2147483648",
    "model.epochs=2147483648", "model.batch_size=2147483648",
    "model.encoder_widths=[8,2147483648]", "model.decoder_widths=[8,2147483648]",
    "model.critic_widths=[8,2147483648]", "split.n_train=2147483648",
    "split.n_test=2147483648", "data.features=2147483648", "data.rank=2147483648",
    "model.dprime=1000000000000000000", "model.dprime=100000000000000000000000000000",
    "split.n_train=100000000000000000000000000",
])
def test_train_oversized_integer_exits_2(tmp_path, capsys, assignment):
    cfg = small_config(tmp_path)
    assert run(["--config", cfg, "--set", assignment, "train"]) == 2
    assert "2147483647" in _one_config_error(capsys)  # the bound, not the value


def test_score_checkpoint_oversized_hyperparameter_exits_2(tmp_path, capsys):
    cfg = small_config(tmp_path, model={"epochs": 0})
    ckpt = _trained_checkpoint(cfg)
    payload = json.loads(open(ckpt).read())
    payload["hyperparams"]["dprime"] = 10**18
    with open(ckpt, "w") as fh:
        json.dump(payload, fh)
    capsys.readouterr()
    assert run(["--config", cfg, "score", "--checkpoint", ckpt]) == 2
    assert "dprime must be at most" in _one_config_error(capsys)


def test_train_unhashable_variant_exits_2(tmp_path, capsys):
    cfg = small_config(tmp_path)
    assert run(["--config", cfg, "--set", 'variant=["maw"]', "train"]) == 2
    assert "variant" in _one_config_error(capsys)


def test_train_string_widths_exit_2(tmp_path, capsys):
    cfg = small_config(tmp_path)
    assert run(["--config", cfg, "--set", 'model.encoder_widths="ab"', "train"]) == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "config" and "encoder_widths" in err["detail"]


@pytest.mark.parametrize("key", M.INT_KEYS)
@pytest.mark.parametrize("value", ["2.5", "true"])
def test_train_non_integer_hyperparameter_exits_2(tmp_path, capsys, key, value):
    cfg = small_config(tmp_path)
    assert run(["--config", cfg, "--set", f"model.{key}={value}", "train"]) == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "config" and key in err["detail"]


@pytest.mark.parametrize("key", M.FLOAT_KEYS)
@pytest.mark.parametrize("value", ["true", "NaN", "Infinity", '"x"', "null"])
def test_train_non_finite_float_hyperparameter_exits_2(tmp_path, capsys, key, value):
    cfg = small_config(tmp_path)
    assert run(["--config", cfg, "--set", f"model.{key}={value}", "train"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["kind"] == "config" and key in err["detail"]


@pytest.mark.parametrize("value", [
    "split.c_tests=[]", 'split.c_tests=["a"]', "split.c_tests=0.5", 'split.c="x"',
    "split.n_train=24.5", 'split.n_test="30"', "split.n_test=true", "split.c=true",
])
def test_eval_bad_split_value_exits_2(tmp_path, capsys, value):
    cfg = small_config(tmp_path)
    assert run(["--config", cfg, "--set", value, "eval", "--epochs", "1"]) == 2
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    error = json.loads(lines[0])["error"]
    assert error["kind"] == "config" and value.split("=")[0].split(".")[1] in error["detail"]
    out_dir = json.loads(open(cfg).read())["output_dir"]
    assert not os.path.exists(os.path.join(out_dir, "report.json"))


def test_train_on_one_row_csv_exits_3(tmp_path, capsys):
    data = tmp_path / "one.csv"
    data.write_text("f1,f2,f3\n1,0,0\n")
    cfg = small_config(tmp_path, data={"source": "csv", "path": str(data)})
    assert run(["--config", cfg, "train"]) == 3
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "data" and "1 row" in err["detail"]
    out_dir = json.loads(open(cfg).read())["output_dir"]
    assert not os.path.exists(os.path.join(out_dir, "checkpoint.json"))


def test_bad_set_path_exits_2(tmp_path):
    cfg = small_config(tmp_path)
    assert run(["--config", cfg, "--set", "model.bogus=3", "train"]) == 2


def test_theory_command_reports_all_pass(tmp_path):
    cfg = small_config(tmp_path)
    assert run(["--config", cfg, "theory"]) == 0
    out_dir = json.loads(open(cfg).read())["output_dir"]
    report = json.load(open(os.path.join(out_dir, "theory_report.json")))
    assert report["all_pass"] is True
    assert set(report["sections"]) == {
        "shared_cov_w1_recovers_prior", "shared_cov_kl_barycenter",
        "low_rank_w2_minimizer", "kl_rank_deficiency_infinite",
        "w1_mean_shift_monte_carlo",
    }
    for section in report["sections"].values():
        assert section["instances"]
        assert all("pass" in inst for inst in section["instances"])


def test_theory_report_is_byte_identical_across_runs(tmp_path):
    out_dir = tmp_path / "run"  # the report embeds the resolved config
    blobs = []
    for _ in range(2):
        assert run(["--output-dir", str(out_dir), "--seed", "0", "theory"]) == 0
        blobs.append((out_dir / "theory_report.json").read_bytes())
    assert blobs[0] == blobs[1]
