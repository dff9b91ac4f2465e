"""Training objectives: phoneme and syllable duration L1, spectral L1,
masked log-F0 L1 and voicing cross entropy, each a per-utterance sum made by
one op (``autodiff.l1_sum`` or ``bce_logits_sum``). A batch's objective is
the sum of per-utterance shares (``autodiff.weighted_sum``), each dividing its
sums by the batch's element counts, which ground truth alone fixes, so every
utterance can be differentiated on its own."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .corpus import Utterance
from .features import BAP_DIM, MGC_DIM
from .model import TrainForward
from .score import frame_pitch_arrays

# loss components, in log and pooling order; "L_xy" is weighted by w_xy
LOSS_NAMES = ("L_pd", "L_sd", "L_m", "L_b", "L_f", "L_u")


@dataclass(frozen=True)
class LossWeights:
    w_pd: float = 1.0   # phoneme duration
    w_sd: float = 1.0   # syllable duration
    w_m: float = 1.0    # mgc
    w_b: float = 1.0    # bap
    w_f: float = 1.0    # log-F0
    w_u: float = 1.0    # voicing

    def __post_init__(self):
        for name, w in vars(self).items():
            if not 0.0 <= w < float("inf"):
                raise ValueError(f"{name} {w!r} must be finite and nonnegative")
        if not any(vars(self).values()):
            raise ValueError("at least one loss weight must be positive")


def syllable_indicator(syllable_spans, n: int) -> np.ndarray:
    """0/1 matrix with one row per syllable selecting its phoneme indices."""
    matrix = np.zeros((len(syllable_spans), n))
    for row, (start, end) in enumerate(syllable_spans):
        matrix[row, start:end] = 1.0
    return matrix


def _f0_mask(utt: Utterance) -> np.ndarray:
    """L_f's frames: voiced in the ground truth and not rests."""
    _, nonrest = frame_pitch_arrays(utt.tokens, utt.tokens.gt_phoneme_durations)
    return utt.features.vuv * nonrest


def loss_counts(utt: Utterance) -> dict[str, int]:
    """How many elements each component of one utterance averages over.
    Ground truth alone fixes them, so they are known before any forward
    pass."""
    t = utt.features.num_frames
    return {
        "L_pd": len(utt.tokens),
        "L_sd": len(utt.tokens.syllable_spans),
        "L_m": t * MGC_DIM,
        "L_b": t * BAP_DIM,
        "L_f": int(_f0_mask(utt).sum()),
        "L_u": t,
    }


def loss_terms(fwd: TrainForward, utt: Utterance) -> dict[str, Node]:
    """One utterance's sum for every loss component, over the elements
    :func:`loss_counts` counts; the ops refuse predictions of another shape.

    - L_pd: phoneme-duration L1 in the log(frames + 1) domain;
    - L_sd: syllable-duration L1 between ground-truth syllable frames and
      the summed linear-domain predictions;
    - L_m, L_b: spectral L1 over every frame and coefficient;
    - L_f: log-F0 L1 over frames voiced in the ground truth and not rests
      (an all-unvoiced utterance sums to a constant 0, not NaN);
    - L_u: voicing cross entropy over every frame.
    """
    gt, dec, n = utt.features, fwd.decoder, len(utt.tokens)
    gt_durs = np.asarray(utt.tokens.gt_phoneme_durations, dtype=np.float64)
    indicator = syllable_indicator(utt.tokens.syllable_spans, n)
    # exp(d) + -1 has the bits of exp(d) - 1
    linear = ad.add(ad.exp(fwd.log_durations), ad.constant(-np.ones(n)))
    return {
        "L_pd": ad.l1_sum(fwd.log_durations, np.log(gt_durs + 1.0)),
        "L_sd": ad.l1_sum(ad.matmul(ad.constant(indicator), linear),
                          indicator @ gt_durs),
        "L_m": ad.l1_sum(dec.mgc, gt.mgc),
        "L_b": ad.l1_sum(dec.bap, gt.bap),
        "L_f": ad.l1_sum(dec.logf0, gt.logf0, _f0_mask(utt)),
        "L_u": ad.bce_logits_sum(dec.vuv_logit, gt.vuv),
    }


def utterance_share(sums: dict[str, Node], batch_counts: dict[str, int],
                    weights: LossWeights) -> tuple[Node, dict[str, np.ndarray]]:
    """One utterance's share of its batch's objective, one
    :func:`autodiff.weighted_sum` node, and its component shares as 0-d arrays.

    Component c's share is sum_c / N_c, where N_c is the batch's count for c
    (the sum of every utterance's :func:`loss_counts`), or 0 when N_c is 0;
    the total's is their sum weighted by w_c. Summed over the batch, these
    are each component's mean over every valid element and their weighted sum.
    """
    names = [name for name in LOSS_NAMES if batch_counts[name]]
    total, means = ad.weighted_sum(
        [sums[name] for name in names], [1.0 / batch_counts[name] for name in names],
        [getattr(weights, "w_" + name[2:]) for name in names])
    comps = dict(zip(names, means))
    return total, {name: comps.get(name, np.asarray(0.0)) for name in LOSS_NAMES}
