"""Objective evaluation battery: duration RMSE/correlation, F0 RMSE in Hz,
mel-cepstral distortion, band aperiodicity distortion, voiced/unvoiced error
rate, and per-coefficient global variance.

Correlations over constant sequences are reported as None ("NA" on disk)
rather than silently coerced to a number.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .features import VUV_THRESHOLD, AcousticFeatureSequence

MCD_SCALE = 10.0 * math.sqrt(2.0) / math.log(10.0)

# report keys, in presentation order
REPORT_KEYS = (
    "Dur RMSE",
    "Dur CORR",
    "F0 RMSE (Hz)",
    "F0 CORR",
    "MCD (dB)",
    "BAPD (dB)",
    "V/UV Error (%)",
)

NA = "NA"


def rmse_corr(pred, gt) -> tuple[float, float | None]:
    """Root mean square error and Pearson correlation of two sequences.

    Correlation is None when either input is constant (it is undefined).
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape or pred.ndim != 1 or pred.size == 0:
        raise ValueError(f"rmse_corr: bad shapes {pred.shape} vs {gt.shape}")
    rmse = math.sqrt(float(np.mean((pred - gt) ** 2)))
    dp = pred - pred.mean()
    dg = gt - gt.mean()
    denom = math.sqrt(float((dp * dp).sum()) * float((dg * dg).sum()))
    if denom == 0.0:
        return rmse, None
    return rmse, float((dp * dg).sum()) / denom


def f0_metrics(pred: AcousticFeatureSequence, gt: AcousticFeatureSequence
               ) -> tuple[float | None, float | None]:
    """F0 RMSE in Hz and correlation over commonly-voiced frames.

    Prediction voicing is thresholded at 0.5; with no commonly-voiced frames
    both values are None.
    """
    if pred.num_frames != gt.num_frames:
        raise ValueError(
            f"f0_metrics: frame counts differ: {pred.num_frames} vs {gt.num_frames}"
        )
    both = pred.voiced_mask() & gt.voiced_mask()
    if not both.any():
        return None, None
    return rmse_corr(np.exp(pred.logf0[both]), np.exp(gt.logf0[both]))


def mcd(pred_mgc: np.ndarray, gt_mgc: np.ndarray) -> float:
    """Mel-cepstral distortion in dB, excluding the 0th (energy) coefficient:
    mean over frames of (10 sqrt(2) / ln 10) * ||delta c_{1..59}||."""
    pred_mgc = np.asarray(pred_mgc, dtype=np.float64)
    gt_mgc = np.asarray(gt_mgc, dtype=np.float64)
    if pred_mgc.shape != gt_mgc.shape or pred_mgc.ndim != 2:
        raise ValueError(f"mcd: bad shapes {pred_mgc.shape} vs {gt_mgc.shape}")
    diff = pred_mgc[:, 1:] - gt_mgc[:, 1:]
    return float(MCD_SCALE * np.mean(np.sqrt((diff * diff).sum(axis=1))))


def bapd(pred_bap: np.ndarray, gt_bap: np.ndarray) -> float:
    """Band aperiodicity distortion: RMS difference over all frames and bands."""
    pred_bap = np.asarray(pred_bap, dtype=np.float64)
    gt_bap = np.asarray(gt_bap, dtype=np.float64)
    if pred_bap.shape != gt_bap.shape or pred_bap.ndim != 2:
        raise ValueError(f"bapd: bad shapes {pred_bap.shape} vs {gt_bap.shape}")
    return float(np.sqrt(np.mean((pred_bap - gt_bap) ** 2)))


def vuv_error(pred_vuv, gt_vuv) -> float:
    """Percentage of frames whose thresholded voicing decision differs."""
    pred_vuv = np.asarray(pred_vuv, dtype=np.float64)
    gt_vuv = np.asarray(gt_vuv, dtype=np.float64)
    if pred_vuv.shape != gt_vuv.shape or pred_vuv.ndim != 1:
        raise ValueError(f"vuv_error: bad shapes {pred_vuv.shape} vs {gt_vuv.shape}")
    pred_flags = pred_vuv >= VUV_THRESHOLD
    gt_flags = gt_vuv >= VUV_THRESHOLD
    return 100.0 * float(np.mean(pred_flags != gt_flags))


def gv(mgc_per_utterance: list[np.ndarray]) -> np.ndarray:
    """Per-coefficient population variance across frames, averaged over
    utterances; single-frame utterances are skipped with a warning."""
    variances = []
    for i, mgc_matrix in enumerate(mgc_per_utterance):
        mgc_matrix = np.asarray(mgc_matrix, dtype=np.float64)
        if mgc_matrix.shape[0] < 2:
            warnings.warn(f"gv: skipping utterance {i} with fewer than 2 frames")
            continue
        variances.append(mgc_matrix.var(axis=0))  # population variance
    if not variances:
        raise ValueError("gv: no utterance has at least 2 frames")
    return np.mean(variances, axis=0)


def check_ranges(values: dict[str, float | None]) -> dict[str, float | None]:
    """``values``, once each correlation is in [-1, 1], the V/UV error in
    [0, 100] and every other metric nonnegative."""
    for key, value in values.items():
        if value is None:
            continue
        # rounding can push an exact correlation one ulp past +-1
        if key in ("Dur CORR", "F0 CORR") and not abs(value) <= 1.0 + 1e-12:
            raise ValueError(f"{key} out of [-1, 1]: {value}")
        if key == "V/UV Error (%)" and not 0.0 <= value <= 100.0:
            raise ValueError(f"{key} out of [0, 100]: {value}")
        if key in ("Dur RMSE", "F0 RMSE (Hz)", "MCD (dB)", "BAPD (dB)") and value < 0:
            raise ValueError(f"{key} negative: {value}")
    return values


def metric_values(pred: AcousticFeatureSequence, gt: AcousticFeatureSequence,
                  dur_pred=None, dur_gt=None) -> dict[str, float | None]:
    """Every report metric for one prediction/reference pair, range-checked:
    one utterance, or a corpus with its utterances concatenated (frames and
    phonemes pooled). Without durations the duration metrics are None."""
    values: dict[str, float | None] = {key: None for key in REPORT_KEYS}
    values["MCD (dB)"] = mcd(pred.mgc, gt.mgc)
    values["BAPD (dB)"] = bapd(pred.bap, gt.bap)
    values["V/UV Error (%)"] = vuv_error(pred.vuv, gt.vuv)
    values["F0 RMSE (Hz)"], values["F0 CORR"] = f0_metrics(pred, gt)
    if dur_pred is not None:
        values["Dur RMSE"], values["Dur CORR"] = rmse_corr(
            np.asarray(dur_pred, float), np.asarray(dur_gt, float))
    return check_ranges(values)


# ---------------------------------------------------------------------------
# report files

def _cell(value: float | None) -> str:
    return NA if value is None else repr(value)


def format_eval_report(values: dict[str, float | None], notes: list[str]) -> str:
    """The pooled report: one ``# note`` line per note, then each metric."""
    lines = [f"# {note}" for note in notes]
    lines += [f"{key}\t{_cell(values.get(key))}" for key in REPORT_KEYS]
    return "\n".join(lines) + "\n"


def format_per_utterance_table(rows) -> str:
    """One line per ``(utt_id, frames, values)`` row, under a header."""
    lines = ["\t".join(["utt_id", "frames", *REPORT_KEYS])]
    lines += ["\t".join([utt_id, str(frames)]
                        + [_cell(values.get(key)) for key in REPORT_KEYS])
              for utt_id, frames, values in rows]
    return "\n".join(lines) + "\n"


def format_gv_table(gv_values: np.ndarray) -> str:
    lines = [f"{i}\t{value!r}" for i, value in enumerate(gv_values.tolist())]
    return "\n".join(lines) + "\n"
