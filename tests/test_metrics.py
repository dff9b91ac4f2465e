import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singsynth.features import AcousticFeatureSequence
from singsynth import metrics
from singsynth.metrics import (
    REPORT_KEYS,
    bapd,
    check_ranges,
    f0_metrics,
    format_eval_report,
    format_gv_table,
    gv,
    mcd,
    rmse_corr,
    vuv_error,
)


def test_rmse_corr_identical_sequences():
    rmse, corr = rmse_corr([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert rmse == 0.0
    assert corr == pytest.approx(1.0, abs=1e-15)


def test_rmse_corr_anti_correlation():
    rmse, corr = rmse_corr([-1.0, 0.0, 1.0], [1.0, 0.0, -1.0])
    assert corr == pytest.approx(-1.0, abs=1e-15)


def test_rmse_corr_hand_computed():
    rmse, _ = rmse_corr([1.0, 2.0, 3.0], [1.0, 2.0, 5.0])
    assert rmse == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-12)


def test_rmse_corr_constant_input_is_undefined():
    rmse, corr = rmse_corr([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    assert corr is None
    assert rmse > 0


def test_rmse_corr_rejects_length_mismatch():
    with pytest.raises(ValueError):
        rmse_corr([1.0], [1.0, 2.0])


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.01, max_value=100.0),
       st.integers(min_value=0, max_value=2 ** 31))
def test_corr_invariant_under_positive_scaling(factor, seed):
    rng = np.random.default_rng(seed)
    pred = rng.normal(size=10)
    gt = rng.normal(size=10)
    _, base = rmse_corr(pred, gt)
    _, scaled = rmse_corr(pred * factor, gt * factor)
    assert scaled == pytest.approx(base, abs=1e-12)


def _feats(rng, t, logf0=None, vuv=None):
    return AcousticFeatureSequence(
        mgc=rng.normal(size=(t, 60)),
        bap=rng.normal(size=(t, 5)),
        logf0=logf0 if logf0 is not None else rng.normal(loc=5.5, size=t),
        vuv=vuv if vuv is not None else np.ones(t),
    )


def test_f0_metrics_identical():
    rng = np.random.default_rng(0)
    feats = _feats(rng, 12)
    rmse, corr = f0_metrics(feats, feats)
    assert rmse == 0.0
    assert corr == pytest.approx(1.0, abs=1e-12)


def test_f0_metrics_octave_shift_closed_form():
    rng = np.random.default_rng(1)
    gt = _feats(rng, 15)
    pred = _feats(rng, 15, logf0=gt.logf0 + math.log(2.0), vuv=gt.vuv.copy())
    rmse, _ = f0_metrics(pred, gt)
    hz = np.exp(gt.logf0)
    expected = math.sqrt(float(np.mean((2 * hz - hz) ** 2)))
    assert rmse == pytest.approx(expected, rel=1e-12)


def test_f0_metrics_disjoint_voicing_is_undefined():
    rng = np.random.default_rng(2)
    gt = _feats(rng, 8, vuv=np.array([1.0] * 4 + [0.0] * 4))
    pred = _feats(rng, 8, vuv=np.array([0.0] * 4 + [1.0] * 4))
    assert f0_metrics(pred, gt) == (None, None)


def test_mcd_identical_is_zero(rng):
    m = rng.normal(size=(6, 60))
    assert mcd(m, m) == 0.0


def test_mcd_unit_distortion_inverts_scale(rng):
    gt = rng.normal(size=(7, 60))
    pred = gt.copy()
    pred[:, 1] += math.log(10.0) / (10.0 * math.sqrt(2.0))
    assert mcd(pred, gt) == pytest.approx(1.0, rel=1e-12)


def test_mcd_ignores_energy_coefficient(rng):
    gt = rng.normal(size=(5, 60))
    pred = gt.copy()
    pred[:, 0] += 99.0
    assert mcd(pred, gt) == 0.0


def test_mcd_bapd_match_double_loop_oracle(rng):
    pred_mgc = rng.normal(size=(11, 60))
    gt_mgc = rng.normal(size=(11, 60))
    scale = 10.0 * math.sqrt(2.0) / math.log(10.0)
    acc = 0.0
    for t in range(11):
        s = 0.0
        for d in range(1, 60):
            s += (pred_mgc[t, d] - gt_mgc[t, d]) ** 2
        acc += scale * math.sqrt(s)
    assert mcd(pred_mgc, gt_mgc) == pytest.approx(acc / 11, rel=1e-12)

    pred_bap = rng.normal(size=(11, 5))
    gt_bap = rng.normal(size=(11, 5))
    acc = 0.0
    for t in range(11):
        for d in range(5):
            acc += (pred_bap[t, d] - gt_bap[t, d]) ** 2
    assert bapd(pred_bap, gt_bap) == pytest.approx(
        math.sqrt(acc / (11 * 5)), rel=1e-12)


def test_bapd_constant_offset(rng):
    gt = rng.normal(size=(9, 5))
    assert bapd(gt + 3.0, gt) == pytest.approx(3.0, rel=1e-12)


def test_metric_symmetry(rng):
    a_mgc, b_mgc = rng.normal(size=(8, 60)), rng.normal(size=(8, 60))
    assert mcd(a_mgc, b_mgc) == pytest.approx(mcd(b_mgc, a_mgc), rel=1e-15)
    a_bap, b_bap = rng.normal(size=(8, 5)), rng.normal(size=(8, 5))
    assert bapd(a_bap, b_bap) == pytest.approx(bapd(b_bap, a_bap), rel=1e-15)
    a, b = rng.normal(size=10), rng.normal(size=10)
    assert rmse_corr(a, b)[0] == pytest.approx(rmse_corr(b, a)[0], rel=1e-15)
    va, vb = (rng.random(10) > 0.5).astype(float), (rng.random(10) > 0.5).astype(float)
    assert vuv_error(va, vb) == vuv_error(vb, va)


def test_vuv_error_hand_counts():
    assert vuv_error([1, 0, 0, 1], [1, 1, 0, 0]) == 50.0
    assert vuv_error([1, 1, 0, 0], [1, 1, 0, 0]) == 0.0
    assert vuv_error([1, 1, 1, 1], [1, 1, 0, 0]) == 50.0


def test_vuv_error_thresholds_probabilities():
    assert vuv_error([0.51, 0.49], [1.0, 1.0]) == 50.0


def test_gv_constant_features_are_zero():
    assert np.all(gv([np.full((5, 60), 3.0)]) == 0.0)


def test_gv_pins_population_variance():
    mgc = np.zeros((6, 60))
    mgc[::2, 7] = 0.0
    mgc[1::2, 7] = 2.0
    values = gv([mgc])
    assert values[7] == pytest.approx(1.0, abs=1e-15)  # population, not sample


def test_gv_averages_over_utterances(rng):
    a = rng.normal(size=(10, 60))
    b = rng.normal(size=(14, 60))
    expected = (a.var(axis=0) + b.var(axis=0)) / 2
    np.testing.assert_allclose(gv([a, b]), expected, rtol=1e-12)


def test_gv_skips_single_frame_utterances(rng):
    a = rng.normal(size=(10, 60))
    with pytest.warns(UserWarning):
        values = gv([a, rng.normal(size=(1, 60))])
    np.testing.assert_allclose(values, a.var(axis=0), rtol=1e-12)


def test_gv_table_has_sixty_rows(rng):
    table = format_gv_table(gv([rng.normal(size=(9, 60))]))
    assert len(table.strip().split("\n")) == 60


def test_eval_report_validates_ranges():
    with pytest.raises(ValueError):
        check_ranges({"Dur CORR": 1.5})
    with pytest.raises(ValueError):
        check_ranges({"MCD (dB)": -0.1})


@pytest.mark.parametrize("key", ["Dur CORR", "F0 CORR"])
def test_eval_report_accepts_correlation_rounded_one_ulp_past_bound(key):
    # rmse_corr of exactly (anti-)correlated data can land one ulp outside
    for value in (-1.0000000000000002, 1.0000000000000002):
        assert check_ranges({key: value})[key] == value
    for value in (-1.5, 1.5):
        with pytest.raises(ValueError, match="out of"):
            check_ranges({key: value})


def test_eval_report_format_lists_all_keys():
    text = format_eval_report({k: None for k in REPORT_KEYS}, [])
    for key in REPORT_KEYS:
        assert f"{key}\tNA" in text


def test_metric_values_checks_the_range_of_every_dict_it_returns(monkeypatch):
    # any metric_values dict, an utterance row or a pooled report, is checked
    feats = AcousticFeatureSequence(mgc=np.zeros((3, 60)), bap=np.zeros((3, 5)),
                                    logf0=np.zeros(3), vuv=np.zeros(3))
    monkeypatch.setattr(metrics, "mcd", lambda pred, gt: -0.1)
    with pytest.raises(ValueError, match=r"MCD \(dB\) negative: -0.1"):
        metrics.metric_values(feats, feats)
