"""Command-line entry point: simulate / train / eval / route.

Configuration is a flat key=value text file covering the world, selector,
trainer, and objective knobs; unknown keys are rejected. Every run is
reproducible from (config, seed).
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from .anp_selector import SelectorConfig, param_shapes
from .baselines import (
    GlobalBestRouter,
    KNNRouter,
    MLPIndexRouter,
    OracleRouter,
    RandomRouter,
    ToolSelectRouter,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .datasets import export_dataset, export_tools, parse_record
from .errors import CheckpointError, ConfigError, ToolSelectError
from .evalharness import CHUNK, PANEL_KEY, compare, machine_records, render_report
from .objective import ObjectiveConfig
from .simworld import WorldConfig, generate_world, keyed_rng, sample_panel, world_digest
from .trainer import MAX_PANEL_SIZE, TrainConfig, build_model, default_selector_config, fit

from . import diffcore as dc

_WORLD_FIELDS = {f.name: f for f in dataclasses.fields(WorldConfig)}
# default_selector_config derives these from the world
_SELECTOR_FIELDS = {f.name: f for f in dataclasses.fields(SelectorConfig)
                    if f.name not in ("task_label_counts", "eta_dim", "d_x", "d_q")}
# the training seed is --seed
_TRAIN_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig) if f.name != "seed"}
_OBJECTIVE_FIELDS = {f.name: f for f in dataclasses.fields(ObjectiveConfig)}


def _coerce(key, value, typ):
    value = value.strip()
    if typ is bool or typ == "bool":
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"config key {key!r}: expected a boolean, got {value!r}")
    try:
        if typ is int or typ == "int":
            return int(value)
        if typ is float or typ == "float":
            return float(value)
        if key == "task_weights":
            if value.lower() == "none":
                return None
            return np.asarray([float(v) for v in value.split(",")], dtype=np.float64)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc
    raise ConfigError(f"config key {key!r}: unsupported value type")


@dataclasses.dataclass
class RunConfig:
    """Parsed flat config; selector overrides are applied on top of the
    world-derived selector defaults."""
    world: WorldConfig
    train: TrainConfig
    objective: ObjectiveConfig
    selector_overrides: dict

    def selector_config(self, world):
        return dataclasses.replace(default_selector_config(world), **self.selector_overrides)


def parse_config(path=None):
    """Order-insensitive key=value parser; unknown keys rejected."""
    raw = {}
    if path is not None:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                raw[key.strip()] = value.strip()
    world_kw, train_kw, obj_kw, sel_kw = {}, {}, {}, {}
    for key, value in raw.items():
        known = False
        for fields, sink in ((_WORLD_FIELDS, world_kw), (_TRAIN_FIELDS, train_kw),
                             (_OBJECTIVE_FIELDS, obj_kw), (_SELECTOR_FIELDS, sel_kw)):
            f = fields.get(key)
            if f is not None:
                sink[key] = _coerce(key, value, f.type)
                known = True
        if not known:
            raise ConfigError(f"unknown config key {key!r}")
    SelectorConfig(**sel_kw)     # the selector keys' value checks, for every command
    return RunConfig(world=WorldConfig(**world_kw), train=TrainConfig(**train_kw),
                     objective=ObjectiveConfig(**obj_kw), selector_overrides=sel_kw)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _seed(text):
    """A ``--seed`` value: a non-negative integer, as the RNG keys need."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _panel_size(text):
    """A ``--panel-size`` value: an integer of at least 2, as a panel needs,
    and at most ``MAX_PANEL_SIZE``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 2, got {value}")
    if value > MAX_PANEL_SIZE:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_PANEL_SIZE}, got {value}")
    return value


def _build_parser():
    parser = _Parser(prog="toolselect", description="Query-conditioned tool router")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("simulate", "generate a world and export its splits"),
                      ("train", "fit the selector; write checkpoint and epoch log"),
                      ("eval", "evaluate routers on the test split; write a report"),
                      ("route", "route query records with a trained checkpoint")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--out", default=".", help="output directory")
        if name == "route":
            p.add_argument("--input", default="-",
                           help="query record file (JSON lines); '-' reads stdin")
            p.add_argument("--panel-size", type=_panel_size, default=6)
    return parser


def cmd_simulate(args, cfg):
    world = generate_world(cfg.world, args.seed)
    os.makedirs(args.out, exist_ok=True)
    for split in ("train", "val", "test"):
        export_dataset(world, split, os.path.join(args.out, f"{split}.jsonl"))
    export_tools(world, os.path.join(args.out, "tools.jsonl"))
    print(f"world_digest={world_digest(world)}")
    print(f"wrote train/val/test/tools under {args.out}")
    return 0


def cmd_train(args, cfg):
    world = generate_world(cfg.world, args.seed)
    os.makedirs(args.out, exist_ok=True)
    train_cfg = dataclasses.replace(cfg.train, seed=args.seed)
    log_path = os.path.join(args.out, "epochs.log")
    lines = []
    result = fit(train_cfg, world, objective_cfg=cfg.objective,
                 selector_cfg=cfg.selector_config(world),
                 log_fn=lambda s: (lines.append(s), print(s)))
    with open(log_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    ckpt_path = os.path.join(args.out, "checkpoint.bin")
    save_checkpoint(result.params, ckpt_path)
    print(f"checkpoint={ckpt_path}")
    return 0


def _toolselect_router(world, cfg, ckpt_path):
    """The selector of a checkpoint, whose tensors must have the names and
    shapes of ``init_params`` for the run's selector config."""
    tensors = load_checkpoint(ckpt_path)
    selector_cfg = cfg.selector_config(world)
    expected = param_shapes(selector_cfg)
    for name in sorted(expected.keys() | tensors.keys()):
        if name not in tensors:
            raise CheckpointError(f"{ckpt_path}: tensor {name!r} is missing; the selector "
                                  f"config needs it with shape {expected[name]}")
        if name not in expected:
            raise CheckpointError(f"{ckpt_path}: tensor {name!r} is not a parameter of the "
                                  f"selector config")
        if tensors[name].shape != expected[name]:
            raise CheckpointError(f"{ckpt_path}: tensor {name!r} has shape "
                                  f"{tensors[name].shape}, the selector config {expected[name]}")
    params = {k: dc.Tensor(v, requires_grad=False) for k, v in tensors.items()}
    return ToolSelectRouter(build_model(world, params, selector_cfg))


def cmd_eval(args, cfg):
    world = generate_world(cfg.world, args.seed)
    routers = [RandomRouter(), OracleRouter(world),
               GlobalBestRouter.fit(world), KNNRouter.fit(world),
               MLPIndexRouter.fit(world, seed=args.seed)]
    ckpt_path = os.path.join(args.out, "checkpoint.bin")
    if os.path.exists(ckpt_path):
        routers.append(_toolselect_router(world, cfg, ckpt_path))
    reports = compare(routers, world, "test", cfg.train.panel_size, args.seed)
    os.makedirs(args.out, exist_ok=True)
    table = render_report(reports)
    with open(os.path.join(args.out, "report.txt"), "w") as fh:
        fh.write(table)
    with open(os.path.join(args.out, "records.txt"), "w") as fh:
        fh.write("\n".join(machine_records(reports)) + "\n")
    sys.stdout.write(table)
    return 0


def cmd_route(args, cfg):
    """Route every record of the input, one output line per record in input
    order. Every line is parsed before any is routed, so a bad line fails
    the call with no output."""
    if args.input == "-":
        name, lines = "<stdin>", sys.stdin.read().splitlines()
    else:
        name = args.input
        with open(args.input) as fh:
            lines = fh.read().splitlines()
    world = generate_world(cfg.world, args.seed)
    lqs = [parse_record(line, f"{name}:{n}", world)
           for n, line in enumerate(lines or [""], start=1)]
    router = _toolselect_router(world, cfg, os.path.join(args.out, "checkpoint.bin"))
    items = [(lq, sample_panel(world.populations[lq.query.task], lq.query, args.panel_size,
                               keyed_rng(args.seed, PANEL_KEY, lq.query.uid)))
             for lq in lqs]
    for lo in range(0, len(items), CHUNK):
        chunk = items[lo:lo + CHUNK]
        for (_, panel), dist in zip(chunk, router.model.batch_forward(chunk).dists):
            probs = " ".join(f"{p:.6f}" for p in dist.probs)
            print(f"tool={panel.tools[dist.selected].tool_id} slot={dist.selected} "
                  f"probs=[{probs}]")
    return 0


_COMMANDS = {"simulate": cmd_simulate, "train": cmd_train,
             "eval": cmd_eval, "route": cmd_route}


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(args.config)
        return _COMMANDS[args.command](args, cfg)
    except (ToolSelectError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
