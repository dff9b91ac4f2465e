"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
PASS line when it holds (run with -s to watch them stream by).
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from gradcheck import absolute, check_grad, concat_last, log, scale, sub, \
    transpose
from singsynth import autodiff as ad
from singsynth.checkpoint import load_checkpoint, save_checkpoint
from singsynth.cli import main
from singsynth.corpus import OracleConfig, generate_corpus, load_corpus_items
from singsynth.features import AcousticFeatureSequence
from singsynth.losses import LossWeights
from singsynth.metrics import bapd, mcd, rmse_corr, vuv_error
from singsynth.model import ModelConfig, forward_train, frame_pitch_arrays, \
    init_params, length_regulate, predicted_durations, synthesize, \
    synthesize_with_durations
from singsynth.score import demo_lexicon, parse_score, score_to_tokens, \
    serialize_score
from singsynth.training import GradientExchange, TrainConfig, Utterance, \
    assemble_batch, batch_counts, batch_loss, params_from_checkpoint, train, \
    utterance_gradient, utterance_loss

GRAD_CHECK_MODEL = ModelConfig(hidden_dim=8, encoder_blocks=1, decoder_blocks=1,
                               attention_heads=2, conv_filter_dim=16,
                               max_note_frames=64)


def report(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS", flush=True)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def make_utterance(lexicon, seed=0,
                   text="tempo 130\nla 69 0.5\n- 0 0.25\nson 64 0.5\n"):
    rng = np.random.default_rng(seed)
    tokens = score_to_tokens(parse_score(text), lexicon)
    tokens = dataclasses.replace(tokens, gt_phoneme_durations=[
        int(d) for d in rng.integers(2, 6, size=len(tokens))])
    t = tokens.total_frames
    feats = AcousticFeatureSequence(
        mgc=rng.normal(scale=0.4, size=(t, 60)),
        bap=rng.normal(scale=0.4, size=(t, 5)),
        logf0=rng.normal(loc=6.0, scale=0.2, size=t),
        vuv=(rng.random(t) > 0.35).astype(float),
    )
    return Utterance(utt_id=f"acc{seed}", tokens=tokens, features=feats)


# -- criterion 1 -------------------------------------------------------------

def _op_gradient_battery():
    """Finite-difference check over the complete op set, tolerance 1e-4."""
    rng = np.random.default_rng(2024)
    x = rng.uniform(-2, 2, size=(5, 4))
    y = rng.uniform(-2, 2, size=(5, 4))
    m = rng.uniform(-2, 2, size=(4, 6))
    kinked = x + np.where(np.abs(x) < 0.05, 0.2, 0.0)
    apart = y + np.where(np.abs(x - y) < 0.05, 0.2, 0.0)  # |x - apart| >= 0.05
    vuv = (x > y).astype(float)
    pos = rng.uniform(0.5, 3.0, size=(5, 4))
    table = rng.uniform(-2, 2, size=(7, 4))
    ids = rng.integers(0, 7, size=6)
    conv_w = rng.uniform(-1, 1, size=(3, 4, 5))
    conv_b = rng.uniform(-1, 1, size=5)
    mask = ad.dropout_mask((5, 4), 0.3, np.random.default_rng(1))
    counts = rng.integers(1, 4, size=5)
    probe = ad.constant(rng.uniform(-1, 1, size=(5, 4)))
    probe6 = ad.constant(rng.uniform(-1, 1, size=(5, 6)))
    probe_rep = ad.constant(rng.uniform(-1, 1, size=(int(counts.sum()), 4)))

    def dot(a, b):
        return ad.reduce_sum(ad.mul(a, b))

    cases = {
        "add": (lambda p: dot(ad.add(p, ad.constant(y)), probe), x),
        "sub": (lambda p: dot(sub(ad.constant(y), p), probe), x),
        "mul": (lambda p: dot(ad.mul(p, ad.constant(y)), probe), x),
        "scale": (lambda p: dot(scale(p, 1.37), probe), x),
        "matmul": (lambda p: dot(ad.matmul(p, ad.constant(m)), probe6), x),
        "matmul_vector": (lambda p: ad.reduce_sum(ad.exp(
            ad.matmul(p, ad.constant(m[:, 0])))), x),
        "matmul_vector_b": (lambda p: ad.reduce_sum(ad.exp(
            ad.matmul(ad.constant(m.T), p))), m[:, 0]),
        "transpose": (lambda p: ad.reduce_sum(ad.matmul(transpose(p), p)), x),
        "embedding": (lambda p: ad.reduce_sum(
            ad.exp(scale(ad.embedding(p, ids), 0.3))), table),
        "conv1d": (lambda p: ad.reduce_sum(ad.conv1d(
            p, ad.constant(conv_w), ad.constant(conv_b))), x),
        "conv1d_w": (lambda p: ad.reduce_sum(ad.conv1d(
            ad.constant(x), p, ad.constant(conv_b))), conv_w),
        "relu": (lambda p: dot(ad.relu(p), probe), kinked),
        "sigmoid": (lambda p: dot(ad.sigmoid(p), probe), x),
        "softmax": (lambda p: dot(ad.softmax(p), probe), x),
        "layer_norm": (lambda p: dot(ad.layer_norm(
            p, ad.constant(np.ones(4)), ad.constant(np.zeros(4))), probe), x),
        "dropout": (lambda p: dot(ad.dropout(p, mask), probe), x),
        "attention": (lambda p: dot(ad.scaled_dot_attention(
            p, ad.constant(y), ad.constant(x)), probe), x),
        # two heads, 5 queries against 6 keys; the second case feeds k and v
        "attention_mh": (lambda p: dot(ad.scaled_dot_attention(
            p, ad.constant(m.T), ad.constant(m.T), heads=2), probe), x),
        "attention_mh_kv": (lambda p: dot(ad.scaled_dot_attention(
            ad.constant(x), p, p, heads=2), probe), m.T),
        "concat_split": (lambda p: dot(concat_last(
            list(reversed(ad.split_last(p, [1, 3])))), probe), x),
        "reduce_sum": (lambda p: ad.reduce_sum(ad.mul(p, p)), x),
        "absolute": (lambda p: dot(absolute(p), probe), kinked),
        "log": (lambda p: dot(log(p), ad.constant(pos)), pos),
        "exp": (lambda p: dot(ad.exp(p), probe), x),
        "l1_sum": (lambda p: ad.l1_sum(p, apart, vuv), x),
        "bce_logits_sum": (lambda p: ad.bce_logits_sum(p, vuv), 3.0 * x),
        "weighted_sum": (lambda p: ad.weighted_sum(
            [dot(p, probe), ad.reduce_sum(ad.mul(p, p))], [0.25, 0.5],
            [1.3, 0.7])[0], x),
        "reshape": (lambda p: dot(ad.reshape(ad.reshape(p, (2, 10)), (5, 4)),
                                  probe), x),
        "repeat_rows": (lambda p: dot(ad.repeat_rows(p, counts), probe_rep), x),
    }
    worst = 0.0
    for name, (build, point) in cases.items():
        err = check_grad(build, np.array(point, dtype=np.float64), tol=1e-4)
        worst = max(worst, err)
    return worst


def _full_model_gradient_check():
    """FD over a sample of entries from every parameter tensor, tol 1e-3, of
    the objective as trained: batch_loss on a two-utterance batch (one with
    a rest) with non-default weights; one block, hidden width 8. The
    gradient checked is the one train applies: each utterance's share
    differentiated on its own into a gradient row, the rows added up."""
    lexicon = demo_lexicon()
    corpus = [make_utterance(lexicon, seed=3),
              make_utterance(lexicon, seed=4, text="tempo 120\nlan 69 0.25\n")]
    params = init_params(GRAD_CHECK_MODEL, np.random.default_rng(5))
    weights = LossWeights(w_pd=0.7, w_sd=1.9, w_m=1.1, w_b=0.4, w_f=2.2, w_u=0.8)
    batch = assemble_batch(corpus)

    def loss_value() -> float:
        total, _ = batch_loss(params, batch, GRAD_CHECK_MODEL, weights, train=False)
        return total.item()

    counts = batch_counts(batch)
    for node in params.values():
        node.grad = None
    for i in range(len(corpus)):
        share, _ = utterance_loss(params, batch[i], counts, GRAD_CHECK_MODEL,
                                  weights)
        ad.backward(share)
    accumulated = {name: node.grad for name, node in params.items()}
    exchange = GradientExchange(params, 1)
    summed = None
    for i in range(len(corpus)):
        utterance_gradient(params, batch[i], counts, GRAD_CHECK_MODEL, weights,
                           exchange, 0)
        summed = exchange.grads[0].copy() if summed is None \
            else summed + exchange.grads[0]
    for name, grad in exchange.views(summed).items():
        params[name].grad = grad
    for name, node in params.items():
        assert accumulated[name] is not None, f"no gradient on {name}"
        # the bits ad.backward accumulates over the shares in batch order
        assert np.array_equal(node.grad, accumulated[name]), name

    h = 1e-5
    worst = 0.0
    pick = np.random.default_rng(99)
    for name, node in params.items():
        flat = node.value.reshape(-1)
        gflat = node.grad.reshape(-1)
        for idx in pick.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            hi = loss_value()
            flat[idx] = orig - h
            lo = loss_value()
            flat[idx] = orig
            fd = (hi - lo) / (2 * h)
            err = abs(gflat[idx] - fd) / max(abs(gflat[idx]), abs(fd), 1.0)
            worst = max(worst, err)
            assert err < 1e-3, f"{name}[{idx}]: analytic {gflat[idx]} vs fd {fd}"
    return worst


def test_criterion_1_gradient_integrity():
    start = time.monotonic()
    worst_op = _op_gradient_battery()
    worst_model = _full_model_gradient_check()
    elapsed = time.monotonic() - start
    assert worst_op < 1e-4
    assert worst_model < 1e-3
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    report(1, "gradient integrity")


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_residual_pitch_identity():
    lexicon = demo_lexicon()
    config = ModelConfig.desk()
    params = init_params(config, np.random.default_rng(8))
    params["out.w"].value[:, 65] = 0.0
    params["out.b"].value[65] = 0.0
    text = "tempo 120\nla 69 0.5\n- 0 0.25\nmi 72 0.5\nmi 74 0.25 ~\nsan 60 1.0\n"
    tokens = score_to_tokens(parse_score(text), lexicon)
    feats, durations = synthesize(tokens, params, config)
    note_logf0, nonrest = frame_pitch_arrays(tokens, durations)
    sung = nonrest == 1.0
    assert np.array_equal(feats.logf0[sung], note_logf0[sung])  # bit-exact
    assert np.array_equal(feats.logf0[~sung], np.zeros(int((~sung).sum())))
    report(2, "residual log-F0 identity")


# -- criterion 3 -------------------------------------------------------------

def test_criterion_3_length_regulator_exactness():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n = int(rng.integers(1, 24))
        rows = rng.normal(size=(n, int(rng.integers(1, 8))))
        durations = rng.integers(1, 9, size=n)
        out = length_regulate(ad.constant(rows), durations).value
        assert out.shape[0] == int(durations.sum())
        cursor = 0
        for i in range(n):
            for _ in range(int(durations[i])):
                assert out[cursor].tobytes() == rows[i].tobytes()  # bit-identical
                cursor += 1
    report(3, "length regulator exactness")


# -- criterion 4 -------------------------------------------------------------

def test_criterion_4_loss_composition_and_masking():
    lexicon = demo_lexicon()
    config = GRAD_CHECK_MODEL
    weights = LossWeights(w_pd=0.7, w_sd=1.9, w_m=1.1, w_b=0.4, w_f=2.2, w_u=0.8)
    corpus = [make_utterance(lexicon, seed=0),
              make_utterance(lexicon, seed=1, text="tempo 130\nmo 67 1.0\n")]
    params = init_params(config, np.random.default_rng(0))
    batch = assemble_batch(corpus)
    total, comps = batch_loss(params, batch, config, weights, train=False)

    # independent recomputation of every pooled component with plain numpy
    sums = {k: 0.0 for k in comps}
    counts = {k: 0 for k in comps}
    for utt in corpus:
        fwd = forward_train(utt, params, config)
        gt_dur = np.asarray(utt.tokens.gt_phoneme_durations, float)
        sums["L_pd"] += np.abs(fwd.log_durations.value - np.log(gt_dur + 1)).sum()
        counts["L_pd"] += len(gt_dur)
        linear = np.exp(fwd.log_durations.value) - 1.0
        for s, e in utt.tokens.syllable_spans:
            sums["L_sd"] += abs(linear[s:e].sum() - gt_dur[s:e].sum())
            counts["L_sd"] += 1
        sums["L_m"] += np.abs(fwd.decoder.mgc.value - utt.features.mgc).sum()
        counts["L_m"] += utt.features.mgc.size
        sums["L_b"] += np.abs(fwd.decoder.bap.value - utt.features.bap).sum()
        counts["L_b"] += utt.features.bap.size
        _, nonrest = frame_pitch_arrays(utt.tokens, utt.tokens.gt_phoneme_durations)
        f0_mask = utt.features.vuv * nonrest
        sums["L_f"] += (np.abs(fwd.decoder.logf0.value - utt.features.logf0)
                        * f0_mask).sum()
        counts["L_f"] += int(f0_mask.sum())
        z = fwd.decoder.vuv_logit.value
        sums["L_u"] += (np.maximum(z, 0) - z * utt.features.vuv
                        + np.log1p(np.exp(-np.abs(z)))).sum()
        counts["L_u"] += utt.features.num_frames
    weight_of = dict(L_pd=weights.w_pd, L_sd=weights.w_sd, L_m=weights.w_m,
                     L_b=weights.w_b, L_f=weights.w_f, L_u=weights.w_u)
    expected_total = 0.0
    for key, comp in comps.items():
        independent = sums[key] / counts[key]
        assert comp.item() == pytest.approx(independent, rel=1e-12, abs=1e-12)
        expected_total += weight_of[key] * comp.item()
    assert total.item() == pytest.approx(expected_total, rel=1e-12, abs=1e-12)

    # masking: unvoiced ground-truth logF0 is invisible
    scribbled = []
    for utt in corpus:
        feats = utt.features
        logf0 = np.where(feats.vuv == 0.0, -8.75, feats.logf0)
        scribbled.append(dataclasses.replace(
            utt, features=dataclasses.replace(feats, logf0=logf0)))
    perturbed, _ = batch_loss(params, scribbled, config, weights, train=False)
    assert perturbed.item() == total.item()  # bit-unchanged
    report(4, "loss composition and masking")


# -- criterion 5 -------------------------------------------------------------

def _syllable_rmse(items, params, model_config) -> float:
    errors = []
    for utt in items:
        pred = predicted_durations(utt.tokens, params, model_config)
        gt = np.asarray(utt.tokens.gt_phoneme_durations)
        for start, end in utt.tokens.syllable_spans:
            errors.append(float(pred[start:end].sum() - gt[start:end].sum()))
    return float(np.sqrt(np.mean(np.square(errors))))


@pytest.mark.slow
def test_criterion_5_syllable_loss_improves_rhythm(tmp_path):
    start = time.monotonic()
    lexicon = demo_lexicon()
    manifest = generate_corpus(20, seed=11, config=OracleConfig(seed=11),
                               out_dir=tmp_path, lexicon=lexicon)
    train_items = load_corpus_items(manifest, "train")
    held_items = load_corpus_items(manifest, "holdout")
    rmse_by_weight = {}
    for w_sd in (1.0, 0.0):
        config = TrainConfig.desk(total_steps=300, seed=1,
                                  loss_weights=LossWeights(w_sd=w_sd))
        result = train(config, train_items)
        params = params_from_checkpoint(result.checkpoint, config.model)
        rmse_by_weight[w_sd] = _syllable_rmse(held_items, params, config.model)
    elapsed = time.monotonic() - start
    assert rmse_by_weight[1.0] < rmse_by_weight[0.0], (
        f"syllable loss did not help: {rmse_by_weight}"
    )
    assert elapsed < 900.0, f"ablation took {elapsed:.0f}s"
    report(5, "syllable duration loss improves held-out rhythm "
              f"({rmse_by_weight[1.0]:.2f} vs {rmse_by_weight[0.0]:.2f} frames)")


# -- criterion 6 -------------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_overfit_convergence(tmp_path):
    start = time.monotonic()
    lexicon = demo_lexicon()
    manifest = generate_corpus(10, seed=7, config=OracleConfig(seed=7),
                               out_dir=tmp_path, lexicon=lexicon)
    items = load_corpus_items(manifest, "train")
    # dropout off: this criterion wants the model to overfit its tiny corpus
    model = dataclasses.replace(ModelConfig.desk(), dropout=0.0)
    config = TrainConfig.desk(total_steps=2000, seed=1, model=model)
    result = train(config, items)
    first, last = result.records[0].total, result.records[-1].total
    assert last < 0.2 * first, f"loss only fell from {first:.3f} to {last:.3f}"

    params = params_from_checkpoint(result.checkpoint, config.model)
    dur_pred, dur_gt, hz_pred, hz_gt = [], [], [], []
    for utt in items:
        dur_pred.append(predicted_durations(utt.tokens, params, config.model))
        dur_gt.append(np.asarray(utt.tokens.gt_phoneme_durations))
        aligned = synthesize_with_durations(utt.tokens, params, config.model,
                                            utt.tokens.gt_phoneme_durations)
        both = aligned.voiced_mask() & utt.features.voiced_mask()
        hz_pred.append(np.exp(aligned.logf0[both]))
        hz_gt.append(np.exp(utt.features.logf0[both]))
    _, dur_corr = rmse_corr(np.concatenate(dur_pred).astype(float),
                            np.concatenate(dur_gt).astype(float))
    _, f0_corr = rmse_corr(np.concatenate(hz_pred), np.concatenate(hz_gt))
    elapsed = time.monotonic() - start
    assert dur_corr is not None and dur_corr > 0.9, f"Dur CORR {dur_corr}"
    assert f0_corr is not None and f0_corr > 0.9, f"F0 CORR {f0_corr}"
    assert elapsed < 1200.0, f"overfit run took {elapsed:.0f}s"
    report(6, f"overfit convergence (loss x{last / first:.3f}, "
              f"Dur CORR {dur_corr:.3f}, F0 CORR {f0_corr:.3f})")


# -- criterion 7 -------------------------------------------------------------

def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(23)
    pred_mgc, gt_mgc = rng.normal(size=(13, 60)), rng.normal(size=(13, 60))
    scale = 10.0 * math.sqrt(2.0) / math.log(10.0)
    naive = 0.0
    for t in range(13):
        s = 0.0
        for d in range(1, 60):
            s += (pred_mgc[t, d] - gt_mgc[t, d]) ** 2
        naive += scale * math.sqrt(s)
    assert mcd(pred_mgc, gt_mgc) == pytest.approx(naive / 13, rel=1e-12)

    pred_bap, gt_bap = rng.normal(size=(13, 5)), rng.normal(size=(13, 5))
    naive = 0.0
    for t in range(13):
        for d in range(5):
            naive += (pred_bap[t, d] - gt_bap[t, d]) ** 2
    assert bapd(pred_bap, gt_bap) == pytest.approx(
        math.sqrt(naive / 65), rel=1e-12)

    # self comparison is exactly perfect
    assert mcd(gt_mgc, gt_mgc) == 0.0
    assert bapd(gt_bap, gt_bap) == 0.0
    seq = rng.normal(size=40)
    rmse, corr = rmse_corr(seq, seq)
    assert rmse == 0.0 and corr == pytest.approx(1.0, abs=1e-15)
    assert vuv_error(np.ones(8), np.ones(8)) == 0.0

    # hand-counted voicing fixtures
    assert vuv_error([1, 0, 0, 1], [1, 1, 0, 0]) == 50.0
    assert vuv_error([1, 1, 1, 1], [1, 1, 0, 0]) == 50.0
    assert vuv_error([0.6, 0.4, 0.3, 0.9], [1, 0, 1, 1]) == 25.0
    report(7, "metric oracles")


# -- criterion 8 -------------------------------------------------------------

def test_criterion_8_determinism_and_round_trips(tmp_path):
    lexicon = demo_lexicon()

    # corpus generation twice -> byte-identical trees
    gen_a, gen_b = tmp_path / "gen_a", tmp_path / "gen_b"
    for target in (gen_a, gen_b):
        assert main(["gen-data", "--songs", "8", "--seed", "21",
                     "--out", str(target)]) == 0
    assert tree_bytes(gen_a) == tree_bytes(gen_b)

    # training twice with one seed -> byte-identical loss logs and checkpoints
    run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
    for target in (run_a, run_b):
        assert main(["train", "--manifest", str(gen_a / "manifest.tsv"),
                     "--out", str(target), "--steps", "30", "--seed", "4"]) == 0
    assert (run_a / "loss_log.tsv").read_bytes() == \
        (run_b / "loss_log.tsv").read_bytes()
    assert (run_a / "checkpoint.bin").read_bytes() == \
        (run_b / "checkpoint.bin").read_bytes()

    # synthesis twice -> byte-identical feature files
    score = gen_a / "scores" / "song_0002.score"
    synth_a, synth_b = tmp_path / "a.feat", tmp_path / "b.feat"
    for target in (synth_a, synth_b):
        assert main(["synth", "--score", str(score),
                     "--checkpoint", str(run_a / "checkpoint.bin"),
                     "--out", str(target)]) == 0
    assert synth_a.read_bytes() == synth_b.read_bytes()

    # checkpoint save -> load -> save is byte-identical
    ckpt = load_checkpoint(run_a / "checkpoint.bin")
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(resaved, ckpt)
    assert resaved.read_bytes() == (run_a / "checkpoint.bin").read_bytes()

    # score files round-trip exactly
    for i in range(8):
        text = (gen_a / "scores" / f"song_{i:04d}.score").read_text()
        score_value = parse_score(text)
        assert parse_score(serialize_score(score_value)) == score_value
    report(8, "determinism and round trips")
