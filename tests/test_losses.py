import dataclasses
import math

import numpy as np
import pytest

from gradcheck import absolute, log, scale, sub
from singsynth import autodiff as ad
from singsynth.corpus import Utterance
from singsynth.features import AcousticFeatureSequence
from singsynth.losses import (
    LOSS_NAMES,
    LossWeights,
    loss_counts,
    loss_terms,
    utterance_share,
)
from singsynth.model import DecoderOutput, TrainForward, forward_train, init_params
from singsynth.score import PhonemeTokenSequence, demo_lexicon, parse_score, \
    score_to_tokens
from singsynth.training import assemble_batch, batch_loss

ONLY_DURATIONS = dict(w_m=0.0, w_b=0.0, w_f=0.0, w_u=0.0)
ONLY_SPECTRA = dict(w_pd=0.0, w_sd=0.0, w_f=0.0, w_u=0.0)


def log_domain(linear):
    return np.log(np.asarray(linear, dtype=np.float64) + 1.0)


def _fake_decoder_output(rng, t, logit_value=None):
    logits = (np.full(t, logit_value) if logit_value is not None
              else rng.normal(size=t))
    logit_node = ad.constant(logits)
    return DecoderOutput(
        mgc=ad.constant(rng.normal(size=(t, 60))),
        bap=ad.constant(rng.normal(size=(t, 5))),
        logf0=ad.constant(rng.normal(size=t)),
        vuv_logit=logit_node,
        vuv_prob=ad.sigmoid(logit_node),
    )


def _fake_gt(rng, t, vuv=None):
    return AcousticFeatureSequence(
        mgc=rng.normal(size=(t, 60)),
        bap=rng.normal(size=(t, 5)),
        logf0=rng.normal(size=t),
        vuv=vuv if vuv is not None else (rng.random(t) > 0.4).astype(float),
    )


def _fake_forward(rng, t, log_durations=(1.0, 2.0), logit_value=None):
    return TrainForward(log_durations=ad.constant(np.asarray(log_durations, float)),
                        decoder=_fake_decoder_output(rng, t, logit_value))


def _utterance(rng, durations, spans, vuv=None, pitches=None):
    """An utterance with these ground-truth durations and syllable spans and
    random reference features. ``pitches`` (all sung by default) gives the
    frame non-rest mask: a phoneme of pitch 0 is a rest."""
    n = len(durations)
    tokens = PhonemeTokenSequence(
        phoneme_ids=[2] * n, pitch_ids=list(pitches or [60] * n),
        note_frame_counts=list(durations), syllable_spans=spans,
        gt_phoneme_durations=list(durations))
    return Utterance("utt", tokens, _fake_gt(rng, sum(durations), vuv))


def pooled(cases, weights):
    """Every utterance's share of the batch objective, summed in batch order
    as training.batch_loss sums them; a case holds the arguments of
    loss_terms, (forward, utterance)."""
    counts = dict.fromkeys(LOSS_NAMES, 0)
    for _, utt in cases:
        for name, count in loss_counts(utt).items():
            counts[name] += count
    shares = [utterance_share(loss_terms(*case), counts, weights)
              for case in cases]
    total, comps = shares[0]
    for share, parts in shares[1:]:
        total = ad.add(total, share)
        comps = {k: ad.add(comps[k], parts[k]) for k in LOSS_NAMES}
    return total, comps


def utterance_loss(fwd, utt, weights):
    """One utterance's component means and weighted total."""
    return pooled([(fwd, utt)], weights)


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(w_pd=-1.0)
    with pytest.raises(ValueError):
        LossWeights(w_pd=0, w_sd=0, w_m=0, w_b=0, w_f=0, w_u=0)


def test_duration_loss_syllable_term(rng):
    # linear predictions [3, 4] against gt phonemes [3, 5] in one syllable:
    # syllable sums 7 vs 8 give L_sd = 1
    t = 8
    fwd = _fake_forward(rng, t, log_domain([3.0, 4.0]))
    utt = _utterance(rng, [3, 5], [(0, 2)])
    counts = loss_counts(utt)
    assert counts["L_sd"] == 1 and counts["L_pd"] == 2
    terms = loss_terms(fwd, utt)
    assert terms["L_sd"].item() == pytest.approx(1.0, rel=1e-12)
    total, comps = utterance_loss(fwd, utt, LossWeights(**ONLY_DURATIONS))
    assert comps["L_sd"].item() == pytest.approx(1.0, rel=1e-12)
    expected_pd = abs(math.log(5.0) - math.log(6.0)) / 2
    assert comps["L_pd"].item() == pytest.approx(expected_pd, rel=1e-12)
    assert total.item() == pytest.approx(
        comps["L_pd"].item() + comps["L_sd"].item(), rel=1e-12)


def test_duration_loss_exact_prediction_is_zero(rng):
    t = 15
    fwd = _fake_forward(rng, t, log_domain([3.0, 5.0, 7.0]))
    total, comps = utterance_loss(fwd, _utterance(rng, [3, 5, 7], [(0, 2), (2, 3)]),
                                  LossWeights(**ONLY_DURATIONS))
    assert comps["L_pd"].item() == pytest.approx(0.0, abs=1e-12)
    assert comps["L_sd"].item() == pytest.approx(0.0, abs=1e-12)
    assert total.item() == pytest.approx(0.0, abs=1e-12)


def test_duration_loss_weight_algebra(rng):
    t = 8
    fwd = _fake_forward(rng, t, log_domain([3.0, 4.0]))
    weights = LossWeights(w_pd=1.0, w_sd=0.0, w_m=0.0, w_b=0.0, w_f=0.0, w_u=0.0)
    total, comps = utterance_loss(fwd, _utterance(rng, [3, 5], [(0, 2)]), weights)
    assert comps["L_sd"].item() > 0.0
    assert total.item() == pytest.approx(comps["L_pd"].item(), rel=1e-12)


def test_token_sequence_refuses_spans_that_do_not_tile():
    # the syllable-duration loss reads its spans from tokens that hold this
    for spans, message in (([(0, 3)], "do not cover"), ([(1, 1)], "do not tile"),
                           ([(0, 1), (1, 1)], "do not tile"),
                           ([(0, 1)], "do not cover")):
        with pytest.raises(ValueError, match=f"syllable spans {message} "):
            PhonemeTokenSequence([2, 3], [60, 62], [4, 4], spans, [3, 5])


def test_spectral_loss_values(rng):
    t = 7
    fwd = _fake_forward(rng, t)
    utt = _utterance(rng, [3, 4], [(0, 2)])
    gt = utt.features
    fwd.decoder.mgc = ad.constant(gt.mgc)
    fwd.decoder.bap = ad.constant(gt.bap)
    total, comps = utterance_loss(fwd, utt, LossWeights(**ONLY_SPECTRA))
    assert total.item() == 0.0
    assert comps["L_m"].item() == 0.0 and comps["L_b"].item() == 0.0
    fwd.decoder.mgc = ad.constant(gt.mgc + 0.5)
    offset, comps = utterance_loss(fwd, utt, LossWeights(**ONLY_SPECTRA))
    assert offset.item() == pytest.approx(0.5, rel=1e-12)
    assert comps["L_m"].item() == pytest.approx(0.5, rel=1e-12)
    double, _ = utterance_loss(fwd, utt,
                               LossWeights(**dict(ONLY_SPECTRA, w_m=2.0, w_b=0.0)))
    assert double.item() == pytest.approx(1.0, rel=1e-12)


def test_spectral_loss_rejects_shape_mismatch(rng):
    # the ops refuse each mismatch with a ShapeError, which is a ValueError
    t = 7
    utt = _utterance(rng, [3, 4], [(0, 2)])
    short = _fake_forward(rng, t)
    short.decoder.mgc = ad.constant(utt.features.mgc[:-1])
    three = _fake_forward(rng, t, log_durations=(1.0, 2.0, 3.0))
    long = _fake_forward(rng, t + 1)
    for fwd in (short, three, long):
        with pytest.raises(ValueError) as refused:
            loss_terms(fwd, utt)
        assert isinstance(refused.value, ad.ShapeError)


def test_vuv_loss_at_maximum_entropy(rng):
    t = 11
    fwd = _fake_forward(rng, t, logit_value=0.0)  # probability 0.5
    _, comps = utterance_loss(fwd, _utterance(rng, [5, 6], [(0, 2)]), LossWeights())
    assert comps["L_u"].item() == pytest.approx(math.log(2.0), rel=1e-12)


def test_f0_loss_ignores_unvoiced_frames(rng):
    t = 10
    vuv = np.array([1.0] * 5 + [0.0] * 5)
    utt = _utterance(rng, [5, 5], [(0, 2)], vuv=vuv)
    fwd = _fake_forward(rng, t)
    # match gt on voiced frames, garbage elsewhere
    logf0 = utt.features.logf0.copy()
    logf0[5:] = 1e6
    fwd.decoder.logf0 = ad.constant(logf0)
    assert loss_counts(utt)["L_f"] == 5
    _, comps = utterance_loss(fwd, utt, LossWeights())
    assert comps["L_f"].item() == 0.0


def test_f0_loss_defined_for_all_unvoiced(rng):
    t = 6
    utt = _utterance(rng, [3, 3], [(0, 2)], vuv=np.zeros(t))
    assert loss_counts(utt)["L_f"] == 0
    total, comps = utterance_loss(_fake_forward(rng, t), utt, LossWeights())
    assert comps["L_f"].item() == 0.0
    assert math.isfinite(total.item())


def test_decoder_loss_component_sum_oracle(rng):
    # two utterances, the second all unvoiced: every component is a mean over
    # the pooled valid elements, computed here with plain numpy
    weights = LossWeights(w_pd=0.9, w_sd=1.7, w_m=0.7, w_b=1.3, w_f=2.0, w_u=0.5)
    # the first utterance's second phoneme is a rest
    cases = []
    for durations, spans, vuv, pitches in (
            ([2, 3, 4], [(0, 2), (2, 3)], None, [60, 0, 64]),
            ([1, 4], [(0, 2)], np.zeros(5), None)):
        fwd = _fake_forward(rng, sum(durations), rng.normal(size=len(durations)))
        cases.append((fwd, _utterance(rng, durations, spans, vuv, pitches)))
    total, comps = pooled(cases, weights)

    sums = dict.fromkeys(LOSS_NAMES, 0.0)
    counts = dict.fromkeys(LOSS_NAMES, 0)
    for fwd, utt in cases:
        durations, spans, gt = (utt.tokens.gt_phoneme_durations,
                                utt.tokens.syllable_spans, utt.features)
        nonrest = np.repeat(np.asarray(utt.tokens.pitch_ids) > 0, durations)
        dec, gt_dur = fwd.decoder, np.asarray(durations, float)
        log_pred = fwd.log_durations.value
        sums["L_pd"] += np.abs(log_pred - np.log(gt_dur + 1.0)).sum()
        counts["L_pd"] += len(durations)
        for s, e in spans:
            sums["L_sd"] += abs((np.exp(log_pred[s:e]) - 1.0).sum() - gt_dur[s:e].sum())
            counts["L_sd"] += 1
        sums["L_m"] += np.abs(dec.mgc.value - gt.mgc).sum()
        counts["L_m"] += gt.mgc.size
        sums["L_b"] += np.abs(dec.bap.value - gt.bap).sum()
        counts["L_b"] += gt.bap.size
        mask = gt.vuv * nonrest
        sums["L_f"] += (np.abs(dec.logf0.value - gt.logf0) * mask).sum()
        counts["L_f"] += int(mask.sum())
        z = dec.vuv_logit.value
        sums["L_u"] += (np.maximum(z, 0) - z * gt.vuv
                        + np.log1p(np.exp(-np.abs(z)))).sum()
        counts["L_u"] += gt.num_frames
    expected = 0.0
    for name in LOSS_NAMES:
        oracle = sums[name] / counts[name]
        assert comps[name].item() == pytest.approx(oracle, rel=1e-12)
        expected += getattr(weights, "w_" + name[2:]) * oracle
    assert total.item() == pytest.approx(expected, rel=1e-12)


def test_loss_counts_come_from_ground_truth_alone(rng):
    t = 9
    # the first phoneme, frames 0 and 1, is a rest
    utt = _utterance(rng, [2, 3, 4], [(0, 2), (2, 3)],
                     vuv=np.array([1, 1, 0, 1, 0, 0, 1, 1, 1.0]), pitches=[0, 60, 62])
    counts = loss_counts(utt)
    assert counts == {"L_pd": 3, "L_sd": 2, "L_m": 540, "L_b": 45, "L_f": 4,
                      "L_u": 9}
    terms = loss_terms(_fake_forward(rng, t, rng.normal(size=3)), utt)
    assert tuple(terms) == LOSS_NAMES


def test_all_unvoiced_share_in_a_voiced_batch_keeps_its_total_bits(rng):
    # the unvoiced utterance's L_f sum is a constant 0 that its share adds as
    # w_f * 0.0, so its total has the bits of its other five terms
    weights = LossWeights(w_pd=0.9, w_sd=1.7, w_m=0.7, w_b=1.3, w_f=2.0, w_u=0.5)
    voiced = _utterance(rng, [2, 3, 4], [(0, 2), (2, 3)], vuv=np.ones(9))
    unvoiced = _utterance(rng, [1, 4], [(0, 2)], vuv=np.zeros(5))
    counts = {name: loss_counts(voiced)[name] + loss_counts(unvoiced)[name]
              for name in LOSS_NAMES}
    assert counts["L_f"] > 0 and loss_counts(unvoiced)["L_f"] == 0
    total, comps = utterance_share(loss_terms(_fake_forward(rng, 5), unvoiced),
                                   counts, weights)
    assert comps["L_f"].item() == 0.0
    expected = 0.0
    for name in LOSS_NAMES:
        if name != "L_f":
            expected += getattr(weights, "w_" + name[2:]) * comps[name].item()
    assert total.item() == expected


def test_bce_with_logits_stable_at_extremes():
    z = ad.constant(np.array([-500.0, 500.0]))
    out = ad.bce_logits_sum(z, np.array([1.0, 0.0])).value
    assert np.isfinite(out)
    np.testing.assert_allclose(out, 1000.0, rtol=1e-12)


# --- the fused loss ops against the ops they replace, bit for bit ---------

def _value_and_grads(build, *points):
    """The value of build(*parameters) and each parameter's gradient, with
    an upstream gradient other than 1."""
    params = [ad.parameter(np.array(x, dtype=np.float64)) for x in points]
    out = build(*params)
    ad.backward(scale(out, 0.37))
    return [out.value] + [p.grad for p in params]


def _assert_same_bits(fused, composed):
    for a, b in zip(fused, composed, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("masked", [False, True])
def test_l1_sum_has_the_bits_of_sub_absolute_mul_and_sum(rng, masked):
    pred, target = rng.normal(size=(9, 5)), rng.normal(size=(9, 5))
    target[::2, 1] = pred[::2, 1]   # ties
    mask = (rng.random((9, 5)) > 0.4).astype(float) if masked else None

    def composed(p):
        error = absolute(sub(p, ad.constant(target)))
        return ad.reduce_sum(error if mask is None
                             else ad.mul(error, ad.constant(mask)))

    fused = _value_and_grads(lambda p: ad.l1_sum(p, target, mask), pred)
    _assert_same_bits(fused, _value_and_grads(composed, pred))
    assert np.all(fused[1][::2, 1] == 0.0)   # a tie's subgradient is 0
    if masked:
        assert ad.l1_sum(ad.parameter(pred), target, 0 * mask).parents == ()


def test_bce_logits_sum_has_the_bits_of_its_composed_form(rng):
    z = np.concatenate([rng.normal(scale=20.0, size=60),
                        [-500.0, 500.0, 0.0, -0.0, 1e-300, -37.5, 37.5]])
    y = (rng.random(z.shape) > 0.5).astype(float)

    def composed(p):
        hinge = sub(ad.relu(p), ad.mul(p, ad.constant(y)))
        softplus = log(ad.add(ad.exp(scale(absolute(p), -1.0)),
                              ad.constant(np.ones(y.shape))))
        return ad.reduce_sum(ad.add(hinge, softplus))

    fused = _value_and_grads(lambda p: ad.bce_logits_sum(p, y), z)
    _assert_same_bits(fused, _value_and_grads(composed, z))
    assert np.all(np.isfinite(fused[1]))


def test_weighted_sum_has_the_bits_of_scales_and_adds(rng):
    sums = rng.normal(scale=300.0, size=5) ** 2
    scales = [1.0 / n for n in (7, 3, 1100, 13, 9)]
    weights = [0.9, 0.0, 1.3, 2.0, 0.5]
    means = []

    def composed(*terms):
        total = None
        for term, s, w in zip(terms, scales, weights):
            means.append(scale(term, s))
            part = scale(means[-1], w)
            total = part if total is None else ad.add(total, part)
        return total

    fused = _value_and_grads(
        lambda *terms: ad.weighted_sum(terms, scales, weights)[0], *sums)
    _assert_same_bits(fused, _value_and_grads(composed, *sums))
    _, fused_means = ad.weighted_sum([ad.constant(s) for s in sums], scales,
                                     weights)
    assert all(m.shape == () for m in fused_means)
    _assert_same_bits([m.reshape(1) for m in fused_means],
                      [m.value for m in means])
    assert ad.weighted_sum([], [], [])[0].item() == 0.0


def _training_setup(tiny_config, seed=3):
    rng = np.random.default_rng(seed)
    tokens = score_to_tokens(
        parse_score("tempo 120\nla 69 0.5\n- 0 0.25\nmi 64 0.5\n"), demo_lexicon())
    tokens = dataclasses.replace(tokens, gt_phoneme_durations=[
        int(d) for d in rng.integers(2, 6, size=len(tokens))])
    t = tokens.total_frames
    gt = AcousticFeatureSequence(
        mgc=rng.normal(size=(t, 60)), bap=rng.normal(size=(t, 5)),
        logf0=rng.normal(size=t), vuv=(rng.random(t) > 0.4).astype(float),
    )
    params = init_params(tiny_config, rng)
    batch = assemble_batch([Utterance("utt", tokens, gt)])
    return params, batch


def test_total_loss_additivity(tiny_config):
    params, batch = _training_setup(tiny_config)
    weights = LossWeights(w_pd=0.9, w_sd=1.7, w_m=0.3, w_b=2.0, w_f=1.1, w_u=0.6)
    total, comps = batch_loss(params, batch, tiny_config, weights, train=False)
    expected = sum(getattr(weights, "w_" + name[2:]) * comps[name].item()
                   for name in LOSS_NAMES)
    assert total.item() == pytest.approx(expected, abs=1e-12, rel=1e-12)


def test_total_loss_zero_when_all_components_zero(tiny_config):
    params, [utt] = _training_setup(tiny_config)
    fwd = forward_train(utt, params, tiny_config)
    perfect = TrainForward(
        log_durations=ad.constant(log_domain(utt.tokens.gt_phoneme_durations)),
        decoder=fwd.decoder,
    )
    # build a ground truth equal to the prediction so every term vanishes
    matched = AcousticFeatureSequence(
        mgc=fwd.decoder.mgc.value.copy(), bap=fwd.decoder.bap.value.copy(),
        logf0=fwd.decoder.logf0.value.copy(),
        vuv=np.zeros(utt.features.num_frames),
    )
    total, _ = utterance_loss(perfect, Utterance("utt", utt.tokens, matched),
                              LossWeights(w_u=0.0))
    assert total.item() == pytest.approx(0.0, abs=1e-9)


def test_encoder_gradient_flows_from_duration_loss_alone(tiny_config):
    params, batch = _training_setup(tiny_config)
    weights = LossWeights(w_pd=1.0, w_sd=1.0, w_m=0.0, w_b=0.0, w_f=0.0, w_u=0.0)
    total, _ = batch_loss(params, batch, tiny_config, weights, train=False)
    for node in params.values():
        node.grad = None
    ad.backward(total)
    grad = params["emb.phoneme"].grad
    assert grad is not None and np.any(grad != 0.0)


def test_loss_assembly_builds_twelve_nodes(tiny_config):
    params, [utt] = _training_setup(tiny_config)
    fwd = forward_train(utt, params, tiny_config)
    counts = loss_counts(utt)
    assert all(counts.values())
    first = next(ad._CREATED)
    total, comps = utterance_share(loss_terms(fwd, utt), counts, LossWeights())
    assert next(ad._CREATED) - first - 1 == 12
    assert total.requires_grad and all(v.shape == () for v in comps.values())
