"""Training objectives: phoneme and syllable duration losses, L1 spectral
losses, masked log-F0 loss, and binary cross-entropy voicing loss, each
written once as a per-utterance sum. A batch's objective is the sum of
per-utterance shares, each dividing its sums by the batch's element counts,
which ground truth alone fixes, so every utterance can be differentiated on
its own."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .features import AcousticFeatureSequence, BAP_DIM, MGC_DIM
from .model import TrainForward

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
        values = (self.w_pd, self.w_sd, self.w_m, self.w_b, self.w_f, self.w_u)
        if any(w < 0 for w in values):
            raise ValueError("loss weights must be nonnegative")
        if all(w == 0 for w in values):
            raise ValueError("at least one loss weight must be positive")


def _zero() -> Node:
    return ad.constant(np.asarray(0.0))


def _abs_error_sum(pred: Node, target: np.ndarray) -> Node:
    return ad.reduce_sum(ad.absolute(ad.sub(pred, ad.constant(target))))


def masked_abs_error(pred: Node, target: np.ndarray, mask: np.ndarray) -> Node:
    """Sum of |pred - target| over mask==1; an empty mask gives a 0 sum."""
    mask = np.asarray(mask, dtype=np.float64)
    if not mask.any():
        return _zero()
    return ad.reduce_sum(
        ad.mul(ad.absolute(ad.sub(pred, ad.constant(target))), ad.constant(mask))
    )


def bce_with_logits(logits: Node, targets: np.ndarray) -> Node:
    """Per-element binary cross entropy, numerically stable in the logit
    domain: max(z, 0) - z*y + log(1 + exp(-|z|))."""
    targets = np.asarray(targets, dtype=np.float64)
    hinge = ad.sub(ad.relu(logits), ad.mul(logits, ad.constant(targets)))
    softplus = ad.log(
        ad.add(ad.exp(ad.scale(ad.absolute(logits), -1.0)),
               ad.constant(np.ones(targets.shape)))
    )
    return ad.add(hinge, softplus)


def syllable_indicator(syllable_spans, n: int) -> np.ndarray:
    """0/1 matrix with one row per syllable selecting its phoneme indices."""
    matrix = np.zeros((len(syllable_spans), n))
    for row, (start, end) in enumerate(syllable_spans):
        if not 0 <= start < end <= n:
            raise ValueError(f"syllable span ({start}, {end}) out of range [0, {n})")
        matrix[row, start:end] = 1.0
    return matrix


def loss_counts(gt_durations, syllable_spans, gt: AcousticFeatureSequence,
                frame_nonrest_mask: np.ndarray) -> dict[str, int]:
    """How many elements each component of one utterance averages over.
    Ground truth alone fixes them, so they are known before any forward
    pass."""
    t = gt.num_frames
    return {
        "L_pd": len(gt_durations),
        "L_sd": len(syllable_spans),
        "L_m": t * MGC_DIM,
        "L_b": t * BAP_DIM,
        "L_f": int((gt.vuv * np.asarray(frame_nonrest_mask, dtype=np.float64)).sum()),
        "L_u": t,
    }


def loss_terms(fwd: TrainForward, gt_durations, syllable_spans,
               gt: AcousticFeatureSequence, frame_nonrest_mask: np.ndarray
               ) -> dict[str, Node]:
    """One utterance's sum for every loss component, over the elements
    :func:`loss_counts` counts.

    - L_pd: phoneme-duration L1 in the log(frames + 1) domain;
    - L_sd: syllable-duration L1 between ground-truth syllable frames and
      the summed linear-domain predictions;
    - L_m, L_b: spectral L1 over every frame and coefficient;
    - L_f: log-F0 L1 over frames voiced in the ground truth and not rests
      (an all-unvoiced utterance sums to a constant 0, not NaN);
    - L_u: voicing cross entropy over every frame.
    """
    gt_durs = np.asarray(gt_durations, dtype=np.float64)
    n, t = gt_durs.shape[0], gt.num_frames
    dec = fwd.decoder
    if (fwd.log_durations.shape != (n,) or dec.mgc.shape != gt.mgc.shape
            or dec.bap.shape != gt.bap.shape or dec.logf0.shape != (t,)
            or dec.vuv_logit.shape != (t,)):
        raise ValueError(
            f"prediction shapes (durations {fwd.log_durations.shape}, mgc "
            f"{dec.mgc.shape}, bap {dec.bap.shape}, logf0 {dec.logf0.shape}) "
            f"do not match {n} ground-truth durations and {t} reference frames"
        )
    indicator = syllable_indicator(syllable_spans, n)
    pd = _abs_error_sum(fwd.log_durations, np.log(gt_durs + 1.0))
    linear = ad.sub(ad.exp(fwd.log_durations), ad.constant(np.ones(n)))
    syl_pred = ad.reshape(
        ad.matmul(ad.constant(indicator), ad.reshape(linear, (n, 1))),
        (indicator.shape[0],),
    )
    return {
        "L_pd": pd,
        "L_sd": _abs_error_sum(syl_pred, indicator @ gt_durs),
        "L_m": _abs_error_sum(dec.mgc, gt.mgc),
        "L_b": _abs_error_sum(dec.bap, gt.bap),
        "L_f": masked_abs_error(dec.logf0, gt.logf0, gt.vuv * frame_nonrest_mask),
        "L_u": ad.reduce_sum(bce_with_logits(dec.vuv_logit, gt.vuv)),
    }


def utterance_share(sums: dict[str, Node], batch_counts: dict[str, int],
                    weights: LossWeights) -> tuple[Node, dict[str, Node]]:
    """One utterance's share of its batch's objective.

    Component c's share is sum_c / N_c, where N_c is the batch's count for c
    (the sum of every utterance's :func:`loss_counts`); the share of the
    total is the weighted sum of those, L_xy weighted by w_xy. A component
    the batch has no elements for contributes 0. Summing the shares of
    every utterance gives each component's mean over every valid element of
    the batch, and their weighted sum.
    """
    comps: dict[str, Node] = {}
    total = None
    for name in LOSS_NAMES:
        if batch_counts[name] == 0:
            comps[name] = _zero()
            continue
        comps[name] = ad.scale(sums[name], 1.0 / batch_counts[name])
        term = ad.scale(comps[name], getattr(weights, "w_" + name[2:]))
        total = term if total is None else ad.add(total, term)
    return (_zero() if total is None else total), comps
