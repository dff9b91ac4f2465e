"""Command-line entry point: ``gen-data``, ``train``, ``synth`` and ``eval``
subcommands tying the corpus generator, trainer, synthesizer and metric
battery together.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import OracleConfig, generate_corpus, load_corpus_items, \
    load_manifest
from .features import concatenate_features, load_features, save_features
from .metrics import format_eval_report, format_gv_table, \
    format_per_utterance_table, gv, metric_values
from .model import synthesize
from .score import PhonemeLexicon, demo_lexicon, load_lexicon, parse_score, \
    score_to_tokens
from .training import TrainConfig, train, params_from_checkpoint, \
    trained_model_config


class CliError(RuntimeError):
    pass


def _scalar_fields(section) -> dict[str, type]:
    """The int and float fields of one config dataclass: its config.txt keys."""
    hints = get_type_hints(type(section))
    return {f.name: hints[f.name] for f in fields(section)
            if hints[f.name] in (int, float)}


# The flat config.txt key space: the scalar fields of the desk configs. One
# ``seed`` key feeds both the trainer and the oracle singer.
_DESK = TrainConfig.desk()
_SECTIONS = (_DESK, _DESK.model, _DESK.loss_weights, OracleConfig())
CONFIG_TYPES = {name: kind for section in _SECTIONS
                for name, kind in _scalar_fields(section).items()}
CONFIG_DEFAULTS = {name: getattr(section, name) for section in _SECTIONS
                   for name in _scalar_fields(section)}


def _parse_value(key: str, text: str, where: str) -> int | float:
    if key not in CONFIG_TYPES:
        raise ValueError(f"{where}unknown config key {key!r}")
    try:
        return CONFIG_TYPES[key](text)
    except ValueError:
        raise ValueError(f"{where}bad value {text!r} for {key}") from None


def read_config(path) -> dict[str, int | float]:
    """The ``key value`` lines of a config file; ``#`` starts a comment."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ValueError(f"{path}:{line_no}: expected 'key value'")
            values[parts[0]] = _parse_value(*parts, f"{path}:{line_no}: ")
    return values


def format_config(values: dict) -> str:
    return "".join(f"{key} {values[key]!r}\n" for key in sorted(values))


def _load_run_config(args, flags: dict):
    """Desk defaults < --config file < --set pairs < dedicated flags; returns
    the flat values and the TrainConfig and OracleConfig built from them."""
    values = dict(CONFIG_DEFAULTS)
    if args.config:
        values.update(read_config(args.config))
    for key, text in args.overrides or []:
        values[key] = _parse_value(key, text, "--set: ")
    values.update((key, value) for key, value in flags.items() if value is not None)

    def apply(section, **nested):
        return replace(section, **nested,
                       **{name: values[name] for name in _scalar_fields(section)})

    config = apply(_DESK, loss_weights=apply(_DESK.loss_weights),
                   model=apply(_DESK.model))
    return values, config, apply(OracleConfig())


def _load_lexicon(args) -> PhonemeLexicon:
    return load_lexicon(args.lexicon) if args.lexicon else demo_lexicon()


def _checkpoint_for(path, lexicon: PhonemeLexicon):
    """The checkpoint at ``path``, which must have been trained with
    ``lexicon``'s phoneme vocabulary if it echoes one."""
    ckpt = load_checkpoint(path)
    stored = ckpt.config.get("phoneme_vocab")
    if stored is not None and tuple(stored) != lexicon.phoneme_vocab:
        raise CliError("checkpoint was trained with a different phoneme "
                       "vocabulary than the supplied lexicon")
    return ckpt


def _trained_model(path, lexicon: PhonemeLexicon):
    """The parameters and model config of the checkpoint at ``path``."""
    ckpt = _checkpoint_for(path, lexicon)
    model = trained_model_config(ckpt)
    return params_from_checkpoint(ckpt, model), model


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(args) -> int:
    values, _, oracle = _load_run_config(args, {"seed": args.seed})
    lexicon = _load_lexicon(args)
    out_dir = Path(args.out)
    manifest = generate_corpus(args.songs, oracle.seed, oracle, out_dir, lexicon)
    (out_dir / "config.txt").write_text(format_config(values), encoding="utf-8")
    print(out_dir / "manifest.tsv")
    print(f"{len(manifest.entries)} songs "
          f"({len(manifest.subset('train'))} train, "
          f"{len(manifest.subset('holdout'))} holdout)")
    return 0


def cmd_train(args) -> int:
    values, config, _ = _load_run_config(args, {
        "seed": args.seed, "total_steps": args.steps,
        "batch_size": args.batch_size,
    })
    lexicon = _load_lexicon(args)
    if len(lexicon.phoneme_vocab) > config.model.phoneme_vocab_size:
        raise CliError(
            f"lexicon has {len(lexicon.phoneme_vocab)} phonemes but "
            f"phoneme_vocab_size is {config.model.phoneme_vocab_size}"
        )
    manifest = load_manifest(args.manifest)
    corpus = load_corpus_items(manifest, split="train")
    if not corpus:
        raise CliError("manifest has no utterances tagged 'train'")

    resume = _checkpoint_for(args.resume, lexicon) if args.resume else None
    run_dir = Path(args.out)
    run_dir.mkdir(parents=True, exist_ok=True)

    def write_config():
        # only once train has accepted the resume, so a rejected resume into
        # the run's own directory keeps that run's config.txt
        (run_dir / "config.txt").write_text(format_config(values),
                                            encoding="utf-8")

    # a resumed run continues the log of the run it resumes
    log_mode = "a" if resume is not None else "w"
    with open(run_dir / "loss_log.tsv", log_mode, encoding="utf-8") as log_fh:
        result = train(config, corpus, resume_from=resume, log_stream=log_fh,
                       on_start=write_config)
    result.checkpoint.config["phoneme_vocab"] = list(lexicon.phoneme_vocab)
    ckpt_path = run_dir / "checkpoint.bin"
    save_checkpoint(ckpt_path, result.checkpoint)
    print(ckpt_path)
    print(f"trained {len(result.records)} steps on {len(corpus)} utterances; "
          f"final loss {result.records[-1].total:.6f}"
          if result.records else "no steps to run")
    return 0


def cmd_synth(args) -> int:
    lexicon = _load_lexicon(args)
    params, model = _trained_model(args.checkpoint, lexicon)
    score = parse_score(Path(args.score).read_text(encoding="utf-8"))
    tokens = score_to_tokens(score, lexicon)
    feats, durations = synthesize(tokens, params, model)
    save_features(args.out, feats)
    print(args.out)
    print(f"{feats.num_frames} frames from {len(tokens)} phonemes")
    return 0


def cmd_eval(args) -> int:
    rows: list[tuple] = []   # (utt_id, pred, gt, dur_pred, dur_gt)
    notes: list[str] = []

    if args.manifest:
        if not args.checkpoint:
            raise CliError("eval over a manifest needs --checkpoint")
        params, model = _trained_model(args.checkpoint, _load_lexicon(args))
        manifest = load_manifest(args.manifest)
        items = load_corpus_items(manifest, split=args.split)
        if not items:
            raise CliError(f"no utterances in split {args.split!r}")
        notes.append("spectral, F0 and V/UV metrics use ground-truth durations "
                     "(frame-aligned synthesis)")
        notes.append("duration metrics use free-running duration predictions")
        for utt in items:
            pred, dur_pred = synthesize(utt.tokens, params, model,
                                        utt.tokens.gt_phoneme_durations)
            rows.append((utt.utt_id, pred, utt.features, dur_pred,
                         np.asarray(utt.tokens.gt_phoneme_durations)))
    elif args.pair:
        notes.append("feature-pair mode: duration metrics unavailable")
        for pred_path, gt_path in args.pair:
            try:
                pred = load_features(pred_path)
                gt = load_features(gt_path)
                if pred.num_frames != gt.num_frames:
                    raise ValueError(
                        f"frame counts differ: {pred.num_frames} vs {gt.num_frames}"
                    )
            except (OSError, ValueError) as exc:
                print(f"error: {pred_path} vs {gt_path}: {exc}", file=sys.stderr)
                continue
            rows.append((Path(pred_path).stem, pred, gt, None, None))
        if not rows:
            raise CliError("every feature pair failed to evaluate")
    else:
        raise CliError("eval needs --manifest or at least one --pair")

    table_rows = [(utt_id, gt.num_frames, metric_values(pred, gt, dur_pred, dur_gt))
                  for utt_id, pred, gt, dur_pred, dur_gt in rows]
    _, preds, gts, dur_preds, dur_gts = zip(*rows)
    durations = ((np.concatenate(dur_preds), np.concatenate(dur_gts))
                 if args.manifest else ())
    pooled = metric_values(concatenate_features(preds),
                           concatenate_features(gts), *durations)
    out_dir = Path(args.out)   # made once every input has loaded
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "eval_report.txt").write_text(format_eval_report(pooled, notes),
                                             encoding="utf-8")
    (out_dir / "per_utterance.tsv").write_text(
        format_per_utterance_table(table_rows), encoding="utf-8")
    gv_values = gv([pred.mgc for pred in preds])
    (out_dir / "gv.tsv").write_text(format_gv_table(gv_values), encoding="utf-8")
    print(out_dir / "eval_report.txt")
    print(format_eval_report(pooled, []), end="")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singsynth",
        description="Singing voice synthesis: scores in, vocoder features out.",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="print a failure's traceback before its error line")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic oracle corpus")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument("--songs", type=int, required=True, help="number of songs")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="key-value config file")
    p.add_argument("--set", nargs=2, action="append", dest="overrides",
                   metavar=("KEY", "VALUE"), help="override one config field")
    p.add_argument("--lexicon", default=None, help="lexicon file (default built-in)")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the acoustic model on a corpus")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--config", default=None)
    p.add_argument("--set", nargs=2, action="append", dest="overrides",
                   metavar=("KEY", "VALUE"), help="override one config field")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--lexicon", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("synth", help="synthesize features for a score")
    p.add_argument("--score", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output feature file")
    p.add_argument("--lexicon", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="objective metrics against ground truth")
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--manifest", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--split", default="holdout",
                   choices=["train", "holdout", "all"])
    p.add_argument("--pair", nargs=2, action="append", default=None,
                   metavar=("PRED", "GT"))
    p.add_argument("--lexicon", default=None)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        if args.verbose:
            traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
