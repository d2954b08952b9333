"""Command-line entry point for reproducible runs.

Subcommands: gen-data, train, score, eval, sweep, theory.  Runs are driven by
a JSON config (unknown keys are rejected with their path); flags override the
file, the MAW_SEED environment variable overrides the file's seeds, and a
--seed flag overrides both.  eval and sweep share one run-and-write path: a
cell is a (Hyperparams, SplitSpec) pair trained and scored over the seeds;
eval runs the config's one cell and sweep one cell per value of sweep.axis.
Every output file embeds the resolved config and seed.  Exit codes: 0 ok,
2 bad config (also a model or split too large to allocate), 3 data error,
4 numerical abort.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import os
import sys

from . import evaluation as evalx
from . import linalg
from . import model as model_mod
from . import theory
from .errors import ConfigError, DataError, MawError, MetricError, NumericalError

_MODEL_DEFAULTS = model_mod.Hyperparams().to_dict()

DEFAULT_CONFIG = {
    "data": {
        "source": "synthetic",  # synthetic | csv
        "path": None,
        "features": 20,
        "rank": 1,
        "noise": 0.1,
        "family_seed": 0,
    },
    "model": {k: v for k, v in _MODEL_DEFAULTS.items() if k != "variant"},
    "variant": _MODEL_DEFAULTS["variant"],
    "split": {
        "n_train": 500,
        "c": 0.2,
        "n_test": 200,
        "c_tests": [0.1, 0.3, 0.5, 0.7, 0.9],
        "seed": 0,
    },
    "seeds": [0, 1, 2],
    "sweep": {"axis": "variant", "values": ["maw", "vae"]},
    "output_dir": "maw-runs",
}


# --------------------------------------------------------------- config plumbing


def _check_keys(user, defaults, path=""):
    if not isinstance(user, dict):
        raise ConfigError(f"expected an object at {path or 'top level'}")
    for key, value in user.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(defaults[key], dict) and defaults[key]:
            _check_keys(value, defaults[key], here)


def _deep_merge(base, override):
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _apply_set(config, assignment: str):
    if "=" not in assignment:
        raise ConfigError(f"--set needs key.path=value, got {assignment!r}")
    path, raw = assignment.split("=", 1)
    keys = path.strip().split(".")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    walked = []
    for key in keys[:-1]:
        walked.append(key)
        if key not in node or not isinstance(node[key], dict):
            raise ConfigError(f"unknown config key: {'.'.join(walked)}")
        node = node[key]
    leaf = keys[-1]
    if leaf not in node:
        raise ConfigError(f"unknown config key: {path.strip()}")
    if isinstance(node[leaf], dict):
        raise ConfigError(f"--set sets one value; {path.strip()} is a whole section")
    node[leaf] = value


def _read_json(path, what: str, error: type):
    """The JSON document in the file at path; a missing, unreadable (a
    directory, say) or malformed file raises error naming what it is."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:  # its text names the path
        raise error(f"{what} cannot be read: {exc}") from exc
    except ValueError as exc:  # malformed JSON, or bytes that are not text
        raise error(f"{what} is not valid JSON: {exc}") from exc


def load_config(args) -> dict:
    user = {}
    if args.config is not None:
        user = _read_json(args.config, "config file", ConfigError)
    _check_keys(user, DEFAULT_CONFIG)
    config = _deep_merge(DEFAULT_CONFIG, user)
    for assignment in args.set or []:
        _apply_set(config, assignment)
    env_seed = os.environ.get("MAW_SEED")
    if env_seed is not None:
        try:
            config["seeds"] = [int(env_seed)]
        except ValueError as exc:
            raise ConfigError(f"MAW_SEED must be an integer, got {env_seed!r}") from exc
    if args.seed is not None:
        config["seeds"] = [int(args.seed)]
    if args.output_dir is not None:
        config["output_dir"] = args.output_dir
    if getattr(args, "variant", None) is not None:
        config["variant"] = args.variant
    if getattr(args, "epochs", None) is not None:
        config["model"]["epochs"] = args.epochs
    if not isinstance(config["seeds"], list) or not config["seeds"]:
        raise ConfigError("seeds must be a nonempty list")
    config["seeds"] = [linalg.as_seed(s, "seeds entry", ConfigError) for s in config["seeds"]]
    for section, key in (("data", "family_seed"), ("split", "seed")):
        config[section][key] = linalg.as_seed(config[section][key], f"{section}.{key}", ConfigError)
    if not isinstance(config["output_dir"], str) or not config["output_dir"]:
        raise ConfigError(f"output_dir must be a nonempty string, got {config['output_dir']!r}")
    path = config["data"]["path"]
    if not (path is None or isinstance(path, str)) or (config["data"]["source"] == "csv" and not path):
        raise ConfigError(
            f"data.path must be a string or null, nonempty for data.source = csv; got {path!r}"
        )
    return config


def _hyperparams(config) -> model_mod.Hyperparams:
    return model_mod.Hyperparams.from_dict({**config["model"], "variant": config["variant"]})


def _family(config):
    data = config["data"]
    if data["source"] == "synthetic":
        return evalx.SyntheticFamily(
            dim=data["features"], rank=data["rank"],
            noise=data["noise"], seed=data["family_seed"],
        )
    if data["source"] == "csv":
        return evalx.PoolFamily(evalx.load_csv(data["path"]), seed=data["family_seed"])
    raise ConfigError(f"data.source must be synthetic or csv, got {data['source']!r}")


def _split(config) -> evalx.SplitSpec:
    s = config["split"]
    return evalx.SplitSpec(
        n_train=s["n_train"], c=s["c"], n_test=s["n_test"],
        c_tests=s["c_tests"], seed=s["seed"],
    )


def _resolve_train_set(config, seed: int) -> evalx.Dataset:
    if config["data"]["source"] == "csv":
        return _family(config).dataset
    split = _split(config)
    return evalx.draw_train(_family(config), split, seed)


# --------------------------------------------------------------- output writers


def _ensure_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:  # a file in the way, say; its text names the path
        raise ConfigError(f"output_dir cannot be created: {exc}") from exc


def _config_comment(config, seed) -> str:
    body = json.dumps({"config": config, "seed": seed}, sort_keys=True)
    return f"# {body}\n"


def _write(path, lines):
    """Write the text lines to path; an OSError (say, a directory there) raises ConfigError."""
    try:
        with open(path, "w") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_json(path, payload):
    _write(path, [json.dumps(payload, sort_keys=True, indent=2), "\n"])


def _write_csv(path, config, seed, header, rows):
    """The config comment, the header cells, then each row's cells, comma-separated."""
    lines = (",".join(cells) + "\n" for cells in itertools.chain([header], rows))
    _write(path, itertools.chain([_config_comment(config, seed)], lines))


def _write_dataset_csv(path, dataset, config, seed):
    header = [f"f{i + 1}" for i in range(dataset.features.shape[1])] + ["label"]
    rows = zip(dataset.features, dataset.labels)
    _write_csv(path, config, seed, header,
               ([repr(float(v)) for v in row] + [str(int(label))] for row, label in rows))


def _write_trace_csv(path, trace, config, seed):
    cols = ("epoch", "loss_vae", "loss_critic", "loss_gen")
    _write_csv(path, config, seed, cols, ([str(row["epoch"])] + [repr(row[c]) for c in cols[1:]]
                                          for row in trace))


def _write_scores_csv(path, scores, labels, config, seed):
    _write_csv(path, config, seed, ("index", "score", "label"),
               ((str(i), repr(float(s)), str(int(labels[i]))) for i, s in enumerate(scores)))


def _write_report_csv(path, rows, config, seed, extra_cols=()):
    cols = list(extra_cols) + ["variant", "c", "auc_mean", "auc_std", "ap_mean", "ap_std"]
    _write_csv(path, config, seed, cols, ([_csv_cell(row[c]) for c in cols] for row in rows))


def _csv_cell(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


# --------------------------------------------------------------- subcommands


def cmd_gen_data(config) -> int:
    seed = config["seeds"][0]
    split = _split(config)
    dataset = evalx.draw_train(_family(config), split, seed)
    _ensure_dir(config["output_dir"])
    out = os.path.join(config["output_dir"], "dataset.csv")
    _write_dataset_csv(out, dataset, config, seed)
    print(f"wrote {out} ({dataset.features.shape[0]} rows, {dataset.n_outliers} outliers)")
    return 0


def cmd_train(config) -> int:
    seed = config["seeds"][0]
    hp = _hyperparams(config)
    train_set = _resolve_train_set(config, seed)
    rows = train_set.features.shape[0]
    if config["data"]["source"] == "csv" and rows < 2:
        raise DataError(f"{config['data']['path']} has {rows} row(s); training needs >= 2")
    model, trace = model_mod.train(train_set.features, hp, seed=seed)
    _ensure_dir(config["output_dir"])
    ckpt = os.path.join(config["output_dir"], "checkpoint.json")
    payload = model.to_payload()
    payload["config"] = config
    payload["seed"] = seed
    _write_json(ckpt, payload)
    trace_path = os.path.join(config["output_dir"], "loss_trace.csv")
    _write_trace_csv(trace_path, trace, config, seed)
    print(f"wrote {ckpt} and {trace_path} ({len(trace)} epochs)")
    return 0


def cmd_score(config, args) -> int:
    seed = config["seeds"][0]
    payload = _read_json(args.checkpoint, "checkpoint", DataError)
    model = model_mod.MawModel.from_payload(payload)
    if args.data is not None:
        dataset = evalx.load_csv(args.data)
        width = dataset.features.shape[1]
        if width != model.feature_dim:
            raise DataError(f"{args.data} has {width} feature columns, not {model.feature_dim}")
    else:
        split = _split(config)
        dataset = evalx.draw_test(_family(config), split, seed, 0)
    scores = model_mod.score_batch(model, dataset.features, seed=seed)
    _ensure_dir(config["output_dir"])
    out = os.path.join(config["output_dir"], "scores.csv")
    _write_scores_csv(out, scores, dataset.labels, config, seed)
    print(f"wrote {out} ({len(scores)} rows)")
    return 0


def cmd_eval(config) -> int:
    return _run_cells(config, [((), config)], "report")


# each sweep axis and the config section that holds it (None: the top level)
SWEEP_AXES = {"variant": None, "c": "split", "d": "model", "eta": "model"}


def cmd_sweep(config) -> int:
    axis = config["sweep"]["axis"]
    values = config["sweep"]["values"]
    if not isinstance(axis, str) or axis not in SWEEP_AXES:
        raise ConfigError(f"sweep.axis must be one of {tuple(SWEEP_AXES)}, got {axis!r}")
    if not isinstance(values, list) or not values:
        raise ConfigError(f"sweep.values must be a nonempty list, got {values!r}")
    section = SWEEP_AXES[axis]
    cells = []
    for value in values:
        cell = copy.deepcopy(config)
        (cell[section] if section else cell)[axis] = value
        cells.append(((axis, value), cell))
    return _run_cells(config, cells, "sweep_report", ("axis", "value"))


def _run_cells(config, cells, stem, extra_cols=()) -> int:
    """Train and score each cell over config's seeds; write <stem>.json and <stem>.csv.

    cells are (extra, cell_config) pairs, where extra holds the row's values of
    extra_cols.  Every cell's Hyperparams and SplitSpec, then the family, then
    every cell's model size at the family's width (model.network_specs) are
    built and checked before the first cell trains.
    """
    built = [(extra, _hyperparams(cell), _split(cell)) for extra, cell in cells]
    family = _family(config)
    for _, hp, _ in built:
        model_mod.network_specs(hp, family.dim)
    rows = []
    for extra, hp, split in built:
        report = evalx.run_experiment(family, split, config["seeds"], hp)
        rows.append({**dict(zip(extra_cols, extra)), **report.to_dict()})
    _ensure_dir(config["output_dir"])
    seed = config["seeds"][0]
    payload = {"config": config, "seed": seed, "reports": rows}
    _write_json(os.path.join(config["output_dir"], f"{stem}.json"), payload)
    _write_report_csv(
        os.path.join(config["output_dir"], f"{stem}.csv"), rows, config, seed, extra_cols
    )
    for row in rows:
        prefix = f"{row['axis']}={row['value']} " if "axis" in row else ""
        print(
            f"{prefix}variant={row['variant']} c={row['c']} "
            f"auc={row['auc_mean']:.4f}+-{row['auc_std']:.4f} "
            f"ap={row['ap_mean']:.4f}+-{row['ap_std']:.4f}"
        )
    return 0


def cmd_theory(config) -> int:
    seed = config["seeds"][0]
    report = theory.verification_report(seed=seed)
    report["config"] = config
    _ensure_dir(config["output_dir"])
    out = os.path.join(config["output_dir"], "theory_report.json")
    _write_json(out, report)
    for name, section in report["sections"].items():
        status = "pass" if section["pass"] else "FAIL"
        print(f"{name}: {status} ({len(section['instances'])} instances)")
    print(f"wrote {out}; all_pass={report['all_pass']}")
    if not report["all_pass"]:
        print(
            json.dumps({"error": {"code": 1, "kind": "verification", "detail": "a section failed"}}),
            file=sys.stderr,
        )
        return 1
    return 0


# --------------------------------------------------------------- entry point


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError instead of
    printing usage text and exiting; its subcommand parsers are of this class too."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="maw",
        description="Robust novelty detection with a mixture-latent autoencoder.",
    )
    parser.add_argument("--config", help="JSON run config (defaults are built in)")
    parser.add_argument("--output-dir", help="directory for output files")
    parser.add_argument("--seed", type=int, help="override the config seeds with one seed")
    parser.add_argument(
        "--set", action="append", metavar="KEY.PATH=VALUE",
        help="override any config value (JSON-parsed); repeatable",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("gen-data", help="write a synthetic contaminated dataset CSV")
    p = sub.add_parser("train", help="train a detector; writes checkpoint + loss trace")
    p.add_argument("--variant", choices=model_mod.VARIANTS)
    p.add_argument("--epochs", type=int)
    p = sub.add_parser("score", help="score a dataset with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="CSV to score (defaults to a config-driven test split)")
    p = sub.add_parser("eval", help="train/score over seeds; writes a metric report")
    p.add_argument("--variant", choices=model_mod.VARIANTS)
    p.add_argument("--epochs", type=int)
    p = sub.add_parser("sweep", help="repeat eval along a config axis (variant/d/eta/c)")
    p.add_argument("--epochs", type=int)
    sub.add_parser("theory", help="verify the closed-form results numerically")
    return parser


def _fail(code: int, kind: str, exc: Exception) -> int:
    line = json.dumps({"error": {"code": code, "kind": kind, "detail": str(exc)}})
    print(line, file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = load_config(args)
        if args.command == "gen-data":
            return cmd_gen_data(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "score":
            return cmd_score(config, args)
        if args.command == "eval":
            return cmd_eval(config)
        if args.command == "sweep":
            return cmd_sweep(config)
        if args.command == "theory":
            return cmd_theory(config)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        return _fail(2, "config", exc)
    except (DataError, MetricError) as exc:
        return _fail(3, "data", exc)
    except NumericalError as exc:
        return _fail(4, "numerical", exc)
    except MawError as exc:
        return _fail(2, "config", exc)
    except MemoryError as exc:  # an array of a model or split sized beyond memory
        return _fail(2, "config", exc)


if __name__ == "__main__":
    sys.exit(main())
