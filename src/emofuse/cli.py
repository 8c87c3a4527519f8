"""Command-line interface.

Subcommands: synth, extract, train, eval, cv, gradcheck. Logs go to
stderr; data and tables go to stdout or --out paths, so outputs pipe
cleanly. Exit codes: 0 success, 1 validation/input error, 2 runtime
failure. Set EMOFUSE_LOG=debug for verbose logging.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import typing
from pathlib import Path

from . import data, gradcheck, model, training
from .errors import DivergenceError, EmofuseError

logger = logging.getLogger("emofuse")


class _Parser(argparse.ArgumentParser):
    # argument problems are validation errors: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per TrainConfig field; unset flags fall back to --config/defaults."""
    hints = typing.get_type_hints(training.TrainConfig)
    for f in dataclasses.fields(training.TrainConfig):
        parser.add_argument(_flag(f.name), dest=f.name, type=hints[f.name], default=None,
                            help=f"{f.name} (default {f.default})")


def _resolve_config(args: argparse.Namespace) -> training.TrainConfig:
    """Defaults <- JSON config file <- explicit flags, then validate."""
    values = dataclasses.asdict(training.TrainConfig())
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise EmofuseError(f"malformed config file {config_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise EmofuseError(f"config file {config_path} must hold a JSON object")
        unknown = set(loaded) - set(values)
        if unknown:
            raise EmofuseError(f"unknown config keys in {config_path}: {sorted(unknown)}")
        values.update(loaded)
    for name in list(values):
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    config = training.TrainConfig(**values).validate()
    logger.info("resolved config: %s", json.dumps(dataclasses.asdict(config), sort_keys=True))
    return config


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
        logger.info("wrote %s", out)
    else:
        print(text)


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_synth(args) -> int:
    dataset = data.synth_dataset(args.out_dir, args.n_per_class, seed=args.seed)
    print(_json({
        "records": len(dataset.records),
        "manifest": dataset.manifest_path,
        "embeddings": dataset.embeddings_path,
    }), end="")
    return 0


def cmd_extract(args) -> int:
    records = data.load_manifest(args.manifest)
    if not records:
        raise EmofuseError(f"manifest {args.manifest} has no records")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    converted = []
    for record in records:
        features = data.load_record_features(record)
        path = out_dir / f"{record.id}.emt"
        data.save_array(path, features)
        converted.append(dataclasses.replace(
            record, audio_path=None, features_path=path.name))
    manifest_path = out_dir / "manifest.jsonl"
    data.save_manifest(converted, manifest_path)
    print(_json({"records": len(converted), "manifest": str(manifest_path)}), end="")
    return 0


def cmd_train(args) -> int:
    config = _resolve_config(args)
    records = data.load_manifest(args.manifest)
    table = data.load_embeddings(args.embeddings)
    checkpoint, curve = training.train_fold(records, config, table)
    model.save_checkpoint(checkpoint, args.out)
    logger.info("wrote checkpoint %s", args.out)
    print(_json({"final_loss": curve[-1], "loss_curve": curve}), end="")
    return 0


def cmd_eval(args) -> int:
    checkpoint = model.load_checkpoint(args.checkpoint)
    records = data.load_manifest(args.manifest)
    table = data.load_embeddings(args.embeddings)
    report = training.evaluate(checkpoint, records, table)
    _write_or_print(_json(report.to_dict()), args.out)
    return 0


def cmd_cv(args) -> int:
    config = _resolve_config(args)
    records = data.load_manifest(args.manifest)
    table = data.load_embeddings(args.embeddings)
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes:
        raise EmofuseError("--modes must name at least one fusion mode")
    reports = training.run_ablation(records, config, table, modes, k=args.k)
    table_text = training.format_ablation_table(reports)
    print(table_text)
    if args.out:
        payload = {mode: rep.to_dict() for mode, rep in reports.items()}
        Path(args.out).write_text(_json(payload), encoding="utf-8")
        logger.info("wrote %s", args.out)
    return 0


def cmd_gradcheck(args) -> int:
    op_results = gradcheck.check_all_ops(seeds=range(args.seeds))
    failed = False
    for name in sorted(op_results):
        err = op_results[name]
        status = "ok" if err <= gradcheck.OP_TOLERANCE else "FAIL"
        if status == "FAIL":
            failed = True
        print(f"{name:<24} max_rel_err={err:.3e}  {status}")
    model_err = max(gradcheck.check_model(seed=s) for s in range(args.seeds))
    status = "ok" if model_err <= gradcheck.MODEL_TOLERANCE else "FAIL"
    if status == "FAIL":
        failed = True
    print(f"{'model/loss':<24} max_rel_err={model_err:.3e}  {status}")
    return 1 if failed else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="emofuse",
                     description="Fine-grained multimodal speech emotion recognition.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate the synthetic dataset",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--out-dir", required=True, help="directory for wavs, manifest, embeddings")
    p.add_argument("--n-per-class", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="extract feature files from an audio manifest",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True, help="directory for .emt files and the new manifest")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train one model on a whole manifest",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--manifest", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--config", help="JSON file with TrainConfig fields; flags override")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint against a manifest",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cv", help="cross-validate fusion modes and print a WA/UA table",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--manifest", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--modes", default="uttconcat,tempalign,tempalign-cme",
                   help="comma-separated fusion modes")
    p.add_argument("--k", type=int, default=5, help="number of folds")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--config", help="JSON file with TrainConfig fields; flags override")
    _add_config_flags(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("gradcheck", help="finite-difference check of every op and the model",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--seeds", type=int, default=5)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=os.environ.get("EMOFUSE_LOG", "info").upper(),
        format="%(asctime)s %(name)s %(levelname)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    resolved = {k: v for k, v in sorted(vars(args).items())
                if k != "func" and v is not None}
    logger.info("running %s with %s", args.command, resolved)
    try:
        return args.func(args)
    except (EmofuseError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        logger.error("%s", exc)
        return 1
    except DivergenceError as exc:
        logger.error("training failed: %s", exc)
        return 2
    except Exception as exc:  # unexpected: runtime failure
        logger.exception("unexpected failure: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
