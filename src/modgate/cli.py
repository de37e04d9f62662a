"""Command-line front end: gen-data, train, eval, compare, verify.

Exit codes are part of the contract:

    0  success
    1  a verify suite failed
    2  configuration or usage problem (bad flags, bad config text, bad inputs)
    3  I/O trouble or a malformed data/checkpoint file
    4  checkpoint, config, and dataset disagree on shapes
    5  unexpected internal failure
"""

from __future__ import annotations

import argparse
import sys

from . import verify as verify_mod
from .config import build_settings
from .datagen import Dataset, generate, load_dataset, save_dataset
from .errors import ConfigError, DataFormatError, InputError, MismatchError
from .evaluation import compare, comparison_csv, evaluate_with_audit
from .model import Model, check_compatible, model_from_checkpoint
from .policy import EVAL_DETERMINISTIC, EVAL_STOCHASTIC
from .training import TrainConfig, train


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="key = value run configuration file")
    common.add_argument("--seed", type=int, metavar="N",
                        help="seed override (wins over the config file)")

    parser = argparse.ArgumentParser(
        prog="modgate",
        description="adaptive per-segment modality selection on synthetic video",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", parents=[common],
                       help="generate a synthetic multi-modal dataset")
    p.add_argument("--out", required=True, metavar="PATH", help="dataset file to write")

    p = sub.add_parser("train", parents=[common],
                       help="run the three-phase schedule on a dataset")
    p.add_argument("--data", required=True, metavar="PATH", help="training dataset")
    p.add_argument("--out", required=True, metavar="PREFIX",
                   help="writes PREFIX.csv plus .warmup/.alternate/.final checkpoints")

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True, metavar="PATH")
    p.add_argument("--data", required=True, metavar="PATH")
    p.add_argument("--out", metavar="PATH", help="also write the metrics as CSV")

    p = sub.add_parser("compare", parents=[common],
                       help="train the adaptive model and every baseline side by side")
    p.add_argument("--data", required=True, metavar="PATH", help="training dataset")
    p.add_argument("--eval-data", metavar="PATH",
                   help="held-out dataset (default: last third of --data)")
    p.add_argument("--out", metavar="PATH", help="also write the comparison as CSV")

    sub.add_parser("verify", parents=[common],
                   help="run the built-in gradient and sampling self-checks")
    return parser


def _load_settings(args):
    text = ""
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    return build_settings(text, seed_override=args.seed)


def _cmd_gen_data(args):
    settings = _load_settings(args)
    data = generate(settings.gen)
    save_dataset(data, args.out)
    print(
        f"wrote {args.out}: {len(data.videos)} videos, {data.segments} segments, "
        f"{data.n_modalities} modalities, {data.n_classes} classes"
    )
    return 0


def _cmd_train(args):
    settings = _load_settings(args)
    data = load_dataset(args.data)
    check_compatible(settings.modalities, data)
    model = Model(settings.modalities, data.n_classes, settings.model,
                  seed=settings.seed)
    model, report = train(model, data, settings.train, cost=settings.cost,
                          checkpoint_prefix=args.out)
    csv_path = args.out + ".csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    last = report.rows[-1]
    sel = " ".join(
        f"{m.name}={r:.3f}" for m, r in zip(settings.modalities, last.sel_rates)
    )
    print(f"epoch {last.epoch} ({last.phase}): loss {last.loss:.4f} "
          f"acc {last.acc:.4f} selection {sel} compute {last.compute:.3f}")
    print(f"wrote {csv_path} and {args.out}.warmup/.alternate/.final")
    return 0


def _cmd_eval(args):
    # without a config the modalities are inferred from the checkpoint and
    # carry default per-view costs; pass --config to account real ones
    modalities = None
    mode = EVAL_DETERMINISTIC
    if args.config is not None:
        settings = _load_settings(args)
        modalities = settings.modalities
        if settings.eval_stochastic:
            mode = EVAL_STOCHASTIC
        seed = settings.seed
        eval_segments = settings.train.eval_segments
    else:
        seed = args.seed if args.seed is not None else 0
        eval_segments = TrainConfig.eval_segments
    model = model_from_checkpoint(args.checkpoint, modalities=modalities)
    data = load_dataset(args.data)
    report = evaluate_with_audit(model, data, eval_segments=eval_segments,
                                 mode=mode, seed=seed)
    for metric, modality, value in report.rows():
        label = f"{metric}[{modality}]" if modality else metric
        print(f"{label} {value:.6f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
        print(f"wrote {args.out}")
    return 0


def _cmd_compare(args):
    settings = _load_settings(args)
    data = load_dataset(args.data)
    if args.eval_data is not None:
        train_data, eval_data = data, load_dataset(args.eval_data)
    else:
        cut = (2 * len(data.videos)) // 3
        if cut == 0 or cut == len(data.videos):
            raise InputError("dataset too small to split for comparison")
        train_data = Dataset(data.videos[:cut], data.n_classes, data.recog_dims,
                             data.policy_dims, data.segments)
        eval_data = Dataset(data.videos[cut:], data.n_classes, data.recog_dims,
                            data.policy_dims, data.segments)
    check_compatible(settings.modalities, train_data)
    check_compatible(settings.modalities, eval_data, train_data.n_classes)
    named = compare(train_data, eval_data, settings.modalities, settings.train,
                    model_config=settings.model, cost=settings.cost)
    for name, report in named:
        sel = " ".join(
            f"{mod}={r:.3f}" for mod, r in zip(report.modality_names,
                                               report.selection_rates)
        )
        print(f"{name}: top1 {report.top1:.4f} selection {sel} "
              f"compute {report.mean_compute:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(comparison_csv(named))
        print(f"wrote {args.out}")
    return 0


def _cmd_verify(args):
    seed = args.seed if args.seed is not None else 0
    results = verify_mod.run_all(seed=seed)
    ok = True
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        ok = ok and passed
    return 0 if ok else 1


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
    "verify": _cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
