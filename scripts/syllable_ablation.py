#!/usr/bin/env python3
"""Ablation of the syllable duration loss: train twin models (identical
seeds) with the syllable term on and off, then compare held-out rhythm.

    python3 scripts/syllable_ablation.py --workdir /tmp/ablation --steps 300
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# singsynth first: importing it sets the BLAS thread count numpy loads with
from singsynth.corpus import OracleConfig, generate_corpus, load_corpus_items
from singsynth.losses import LossWeights
from singsynth.metrics import rmse_corr
from singsynth.model import predicted_durations
from singsynth.score import demo_lexicon
from singsynth.training import TrainConfig, params_from_checkpoint, train

import numpy as np


def syllable_errors(items, params, model_config):
    errors = []
    for utt in items:
        pred = predicted_durations(utt.tokens, params, model_config)
        gt = np.asarray(utt.tokens.gt_phoneme_durations)
        for start, end in utt.tokens.syllable_spans:
            errors.append(float(pred[start:end].sum() - gt[start:end].sum()))
    return np.asarray(errors)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--songs", type=int, default=20)
    parser.add_argument("--steps", type=int, default=300)
    parser.add_argument("--corpus-seed", type=int, default=11)
    parser.add_argument("--train-seed", type=int, default=1)
    args = parser.parse_args()

    lexicon = demo_lexicon()
    corpus_dir = Path(args.workdir) / "corpus"
    manifest = generate_corpus(args.songs, args.corpus_seed,
                               OracleConfig(seed=args.corpus_seed),
                               corpus_dir, lexicon)
    train_items = load_corpus_items(manifest, "train")
    held_items = load_corpus_items(manifest, "holdout")
    print(f"{len(train_items)} train / {len(held_items)} holdout songs")

    for w_sd in (1.0, 0.0):
        config = TrainConfig.desk(total_steps=args.steps, seed=args.train_seed,
                                  loss_weights=LossWeights(w_sd=w_sd))
        result = train(config, train_items)
        params = params_from_checkpoint(result.checkpoint, config.model)
        errors = syllable_errors(held_items, params, config.model)
        rmse = float(np.sqrt(np.mean(errors ** 2)))
        dur_pred, dur_gt = [], []
        for utt in held_items:
            dur_pred.append(predicted_durations(utt.tokens, params, config.model))
            dur_gt.append(np.asarray(utt.tokens.gt_phoneme_durations))
        phoneme_rmse, phoneme_corr = rmse_corr(
            np.concatenate(dur_pred).astype(float),
            np.concatenate(dur_gt).astype(float))
        print(f"w_sd={w_sd}: held-out syllable RMSE {rmse:.3f} frames | "
              f"phoneme Dur RMSE {phoneme_rmse:.3f} CORR "
              f"{'NA' if phoneme_corr is None else f'{phoneme_corr:.3f}'}")


if __name__ == "__main__":
    main()
