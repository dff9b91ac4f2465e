import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradcheck import scale
from singsynth import autodiff as ad
from singsynth.corpus import Utterance
from singsynth.features import AcousticFeatureSequence
from singsynth import model
from singsynth.model import (
    MAX_FRAMES,
    ModelConfig,
    decode,
    decode_durations,
    encode,
    fft_block,
    forward_train,
    frame_pitch_arrays,
    init_params,
    length_regulate,
    param_shapes,
    positional_encoding,
    predict_durations,
    predicted_durations,
    synthesize,
    synthesize_with_durations,
)
from singsynth.score import parse_score, score_to_tokens


def make_tokens(lexicon, text="tempo 120\nla 69 0.5\nmi 64 0.25\n- 0 0.25\nson 67 0.5\n"):
    return score_to_tokens(parse_score(text), lexicon)


def zeroed_params(config):
    """All-zero parameters (layer-norm gains included), under which the
    network collapses to its residual paths."""
    params = init_params(config, np.random.default_rng(0))
    for node in params.values():
        node.value[...] = 0.0
    return params


def zero_projections(params, prefix):
    for name in ("attn.wq", "attn.wk", "attn.wv", "attn.wo",
                 "attn.bq", "attn.bk", "attn.bv", "attn.bo",
                 "conv1.w", "conv1.b", "conv2.w", "conv2.b"):
        params[f"{prefix}.{name}"].value[...] = 0.0


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(hidden_dim=7, attention_heads=2)
    with pytest.raises(ValueError):
        ModelConfig(conv_kernel_size=4)
    with pytest.raises(TypeError):   # the output width is fixed, not a setting
        ModelConfig(output_dim=67)
    # not a ZeroDivisionError from the head split, nor an odd negative kernel
    # that init_params cannot shape
    for dims in (dict(attention_heads=0), dict(conv_kernel_size=-1)):
        with pytest.raises(ValueError, match="all model dimensions must be positive"):
            ModelConfig(**dims)


@pytest.mark.parametrize("label", ["desk", "tiny", "kernel5"])
def test_param_shapes_list_init_params_in_order(label, tiny_config):
    config = {"desk": ModelConfig.desk(), "tiny": tiny_config,
              "kernel5": ModelConfig(hidden_dim=16, encoder_blocks=2,
                                     decoder_blocks=3, conv_kernel_size=5,
                                     conv_filter_dim=24)}[label]
    params = init_params(config, np.random.default_rng(0))
    assert list(param_shapes(config).items()) == [
        (name, node.shape) for name, node in params.items()]


def test_param_shapes_count_the_paper_model_without_allocating():
    tracemalloc.start()
    try:
        shapes = param_shapes(ModelConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(math.prod(shape) for shape in shapes.values()) == 50_792_132
    assert peak < 1_000_000


def test_init_params_bytes_are_pinned():
    """Names, order and values of the desk model's fresh parameters, pinned
    so that any change to the table or to the initialisation rule shows."""
    params = init_params(ModelConfig.desk(), np.random.default_rng([0, 1]))
    digest = hashlib.sha256()
    for name, node in params.items():
        digest.update(name.encode())
        digest.update(node.value.tobytes())
    assert digest.hexdigest() == (
        "c09f603158c976468c158d5491590ba8ba23da8dfddb8fa93026e41122176c2a")


def test_encode_shape_and_finite_default_config(lexicon):
    config = ModelConfig()
    params = init_params(config, np.random.default_rng(0))
    tokens = make_tokens(lexicon)
    out = encode(tokens, params, config)
    assert out.shape == (len(tokens), 384)
    assert np.all(np.isfinite(out.value))


def test_encode_zero_params_reduces_to_positional_encoding(lexicon, tiny_config):
    params = zeroed_params(tiny_config)
    tokens = make_tokens(lexicon, "tempo 120\nla 69 1.0\n")
    out = encode(tokens, params, tiny_config)
    expected = positional_encoding(len(tokens), tiny_config.hidden_dim)
    np.testing.assert_array_equal(out.value, expected)


def _fresh_positional_encoding(length, dim):
    positions = np.arange(length)[:, None]
    div = np.exp(np.arange(0, dim, 2) * (-math.log(10000.0) / dim))
    pe = np.zeros((length, dim))
    pe[:, 0::2] = np.sin(positions * div)
    pe[:, 1::2] = np.cos(positions * div[: dim // 2])
    return pe


def test_positional_encoding_table_equals_a_fresh_one_at_any_length():
    dim = 10  # a width no other test uses, so the first call fills the cache
    cached = positional_encoding(300, dim)
    for length in (0, 1, 137, 300, 301, 2950):
        got = positional_encoding(length, dim)
        assert got.shape == (length, dim)
        assert got.tobytes() == _fresh_positional_encoding(length, dim).tobytes()
    # shorter lengths are slices of the one cached table
    assert np.shares_memory(positional_encoding(5, dim), positional_encoding(7, dim))
    assert cached.tobytes() == _fresh_positional_encoding(300, dim).tobytes()


def test_positional_encoding_is_read_only():
    pe = positional_encoding(12, 16)
    with pytest.raises(ValueError, match="read-only"):
        pe[0, 0] = 1.0
    assert pe[0, 0] == 0.0


def test_encode_rejects_out_of_range_ids(lexicon, tiny_config):
    # the song's pitches reach 69, beyond a 60-entry pitch table
    config = dataclasses.replace(tiny_config, pitch_vocab_size=60)
    params = init_params(config, np.random.default_rng(0))
    tokens = make_tokens(lexicon)
    with pytest.raises(IndexError, match=r"pitch id 69 out of range \[0, 60\)"):
        encode(tokens, params, config)


def test_fft_block_permutation_equivariant(rng):
    # pointwise convs (kernel 1) keep a single block permutation-equivariant;
    # the encoder's positional encoding is what breaks this symmetry
    config = ModelConfig(hidden_dim=8, encoder_blocks=1, decoder_blocks=1,
                         attention_heads=2, conv_kernel_size=1,
                         conv_filter_dim=16, max_note_frames=64)
    params = init_params(config, np.random.default_rng(3))
    x = rng.normal(size=(5, config.hidden_dim))
    perm = np.array([2, 1, 0, 4, 3])
    out = fft_block(ad.constant(x), params, "enc.0", config).value
    out_permuted = fft_block(ad.constant(x[perm]), params, "enc.0", config).value
    np.testing.assert_allclose(out_permuted, out[perm], rtol=0, atol=1e-12)


@pytest.mark.parametrize("length", [1, 7, 33])
def test_fft_block_preserves_shape(tiny_config, length, rng):
    params = init_params(tiny_config, np.random.default_rng(0))
    x = ad.constant(rng.normal(size=(length, tiny_config.hidden_dim)))
    out = fft_block(x, params, "enc.0", tiny_config)
    assert out.shape == x.shape


def test_fft_block_zeroed_projections_is_identity(tiny_config, rng):
    params = init_params(tiny_config, np.random.default_rng(0))
    zero_projections(params, "enc.0")
    x = rng.normal(size=(9, tiny_config.hidden_dim))
    out = fft_block(ad.constant(x), params, "enc.0", tiny_config)
    np.testing.assert_array_equal(out.value, x)


def test_attention_weight_rows_sum_to_one(rng):
    q = rng.normal(size=(6, 4))
    k = rng.normal(size=(6, 4))
    weights = ad.softmax(scale(ad.matmul(ad.constant(q), ad.constant(k.T)),
                                  1.0 / math.sqrt(4))).value
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


def test_decode_durations_examples():
    assert decode_durations(np.array([0.0])).tolist() == [1]
    assert decode_durations(np.array([math.log(34.0)])).tolist() == [33]


@given(st.lists(st.floats(min_value=-50, max_value=10), min_size=1, max_size=20))
def test_decoded_durations_at_least_one(values):
    assert np.all(decode_durations(np.array(values)) >= 1)


def test_decode_durations_rejects_non_finite_prediction():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="phoneme 2 is not finite"):
            decode_durations(np.array([0.0, 1.0, bad, 2.0]))


def test_decode_durations_rejects_int64_overflow():
    # exp(800) overflows float64; exp(50) ~ 5e21 frames overflows int64; both
    # are far above the frame cap
    with pytest.raises(ValueError, match="phoneme 1 gives inf frames, above "
                                         "the cap of 65536"):
        decode_durations(np.array([0.0, 800.0, math.nan]))
    with pytest.raises(ValueError, match="phoneme 0 gives 5184705528587072045056 "
                                         "frames, above the cap of 65536"):
        decode_durations(np.array([50.0, 1.0]))


def test_decode_durations_caps_each_phoneme():
    at_cap = math.log(MAX_FRAMES + 1.0)
    assert decode_durations(np.array([at_cap])).tolist() == [MAX_FRAMES]
    with pytest.raises(ValueError, match="phoneme 1 gives 65537 frames, above "
                                         "the cap of 65536"):
        decode_durations(np.array([0.0, math.log(MAX_FRAMES + 2.0)]))


def test_predict_durations_shape(lexicon, tiny_config):
    params = init_params(tiny_config, np.random.default_rng(0))
    tokens = make_tokens(lexicon)
    hidden = encode(tokens, params, tiny_config)
    out = predict_durations(hidden, params, tiny_config)
    assert out.shape == (len(tokens),)


def test_length_regulate_expansion():
    rows = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = length_regulate(ad.constant(rows), [2, 3])
    np.testing.assert_array_equal(
        out.value, [[1, 2], [1, 2], [3, 4], [3, 4], [3, 4]]
    )


def test_length_regulate_all_ones_is_identity(rng):
    rows = rng.normal(size=(5, 3))
    out = length_regulate(ad.constant(rows), [1] * 5)
    np.testing.assert_array_equal(out.value, rows)


def test_length_regulate_rejects_zero_duration(rng):
    with pytest.raises(ValueError):
        length_regulate(ad.constant(rng.normal(size=(2, 3))), [1, 0])


def test_length_regulate_matches_index_map_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(1, 12))
        rows = rng.normal(size=(n, 4))
        durations = rng.integers(1, 6, size=n)
        out = length_regulate(ad.constant(rows), durations).value
        # brute-force index map
        expected = []
        for i in range(n):
            expected.extend([rows[i]] * int(durations[i]))
        expected = np.array(expected)
        assert out.shape[0] == durations.sum()
        np.testing.assert_array_equal(out, expected)


def _decoder_inputs(lexicon, tiny_config, seed=0):
    rng = np.random.default_rng(seed)
    tokens = make_tokens(lexicon)
    durations = rng.integers(2, 6, size=len(tokens))
    params = init_params(tiny_config, rng)
    hidden = encode(tokens, params, tiny_config)
    expanded = length_regulate(hidden, durations)
    note_logf0, nonrest = frame_pitch_arrays(tokens, durations)
    return tokens, params, expanded, note_logf0, nonrest


def test_decode_zeroed_residual_projection_passes_note_pitch(lexicon, tiny_config):
    tokens, params, expanded, note_logf0, nonrest = _decoder_inputs(lexicon, tiny_config)
    params["out.w"].value[:, 65] = 0.0
    params["out.b"].value[65] = 0.0
    dec = decode(expanded, note_logf0, nonrest, params, tiny_config)
    voiced = nonrest == 1.0
    np.testing.assert_array_equal(dec.logf0.value[voiced], note_logf0[voiced])
    np.testing.assert_array_equal(dec.logf0.value[~voiced],
                                  np.zeros((~voiced).sum()))


def test_decode_output_widths_and_vuv_range(lexicon, tiny_config):
    _, params, expanded, note_logf0, nonrest = _decoder_inputs(lexicon, tiny_config)
    dec = decode(expanded, note_logf0, nonrest, params, tiny_config)
    t = expanded.shape[0]
    assert dec.mgc.shape == (t, 60)
    assert dec.bap.shape == (t, 5)
    assert dec.logf0.shape == (t,)
    assert dec.vuv_prob.shape == (t,)
    assert np.all(dec.vuv_prob.value > 0) and np.all(dec.vuv_prob.value < 1)


def test_decode_rejects_length_mismatch(lexicon, tiny_config):
    _, params, expanded, note_logf0, nonrest = _decoder_inputs(lexicon, tiny_config)
    with pytest.raises(ValueError):
        decode(expanded, note_logf0[:-1], nonrest[:-1], params, tiny_config)


def _utterance_for(tokens, rng):
    """The tokens with random reference frames of their duration total."""
    t = sum(tokens.gt_phoneme_durations)
    return Utterance("utt", tokens, AcousticFeatureSequence(
        mgc=rng.normal(size=(t, 60)),
        bap=rng.normal(size=(t, 5)),
        logf0=rng.normal(size=t),
        vuv=(rng.random(t) > 0.3).astype(float),
    ))


def test_forward_train_matches_inference_when_durations_agree(lexicon, tiny_config):
    rng = np.random.default_rng(7)
    params = init_params(tiny_config, rng)
    tokens = make_tokens(lexicon)
    feats, durations = synthesize(tokens, params, tiny_config)
    tokens = dataclasses.replace(tokens, gt_phoneme_durations=durations.tolist())
    fwd = forward_train(_utterance_for(tokens, rng), params, tiny_config)
    np.testing.assert_array_equal(fwd.decoder.mgc.value, feats.mgc)
    np.testing.assert_array_equal(fwd.decoder.logf0.value, feats.logf0)
    np.testing.assert_array_equal(fwd.decoder.vuv_prob.value, feats.vuv)


def desk_song(lexicon, notes):
    return make_tokens(lexicon, "tempo 120\n" + "la 69 1\n" * notes)


def test_synthesize_matches_recorded_forward_on_a_long_song(lexicon):
    # long enough that graph-free decoder attention runs in several blocks
    config = ModelConfig.desk()
    rng = np.random.default_rng(3)
    params = init_params(config, rng)
    params["dur.proj.b"].value[:] = math.log(6.0)
    tokens = desk_song(lexicon, 10)
    feats, durations = synthesize(tokens, params, config)
    t = feats.num_frames
    assert t > 2 * ad._ATTENTION_BLOCK_ELEMENTS // (config.attention_heads * t)
    tokens = dataclasses.replace(tokens, gt_phoneme_durations=durations.tolist())
    fwd = forward_train(_utterance_for(tokens, rng), params, config)
    assert fwd.decoder.mgc.requires_grad
    np.testing.assert_array_equal(decode_durations(fwd.log_durations.value),
                                  durations)
    for name, node in (("mgc", fwd.decoder.mgc), ("bap", fwd.decoder.bap),
                       ("logf0", fwd.decoder.logf0), ("vuv", fwd.decoder.vuv_prob)):
        np.testing.assert_allclose(getattr(feats, name), node.value,
                                   rtol=0, atol=1e-12)


def test_inference_never_holds_a_frames_squared_buffer(monkeypatch, lexicon):
    # at 1,900 frames one H x T x T float64 score buffer alone is 58 MB. Each
    # attention thread holds a 2 MB block of it; the bound holds on this
    # machine's CPUs and on 8, where the thread cap limits the sum.
    config = ModelConfig.desk()
    params = init_params(config, np.random.default_rng(0))
    tokens = desk_song(lexicon, 19)
    durations = np.full(len(tokens), 50)
    assert durations.sum() == 1900

    def peak_bytes():
        tracemalloc.start()
        try:
            synthesize_with_durations(tokens, params, config, durations)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes() < 16e6
    monkeypatch.setattr(ad, "available_cpus", lambda: 8)
    assert peak_bytes() < 16e6


def test_synthesis_bytes_do_not_depend_on_cpu_count(monkeypatch, lexicon):
    # 1,900 frames: 28 decoder attention blocks, enough for four threads
    config = ModelConfig.desk()
    params = init_params(config, np.random.default_rng(2))
    tokens = desk_song(lexicon, 19)
    durations = np.full(len(tokens), 50)
    outputs = {}
    for cpus in (1, 2, 3, 8):
        monkeypatch.setattr(ad, "available_cpus", lambda: cpus)
        feats = synthesize_with_durations(tokens, params, config, durations)
        outputs[cpus] = [getattr(feats, name).tobytes()
                         for name in ("mgc", "bap", "logf0", "vuv")]
    assert all(outputs[cpus] == outputs[1] for cpus in (2, 3, 8))


def test_gradient_reaches_every_parameter_tensor(lexicon, tiny_config):
    rng = np.random.default_rng(11)
    params = init_params(tiny_config, rng)
    tokens = make_tokens(lexicon)
    tokens = dataclasses.replace(tokens, gt_phoneme_durations=[
        int(d) for d in rng.integers(2, 6, size=len(tokens))])
    fwd = forward_train(_utterance_for(tokens, rng), params, tiny_config)
    probe = ad.reduce_sum(fwd.decoder.mgc)
    for part in (fwd.decoder.bap, fwd.decoder.logf0, fwd.decoder.vuv_prob,
                 fwd.log_durations):
        probe = ad.add(probe, ad.reduce_sum(part))
    ad.backward(probe)
    for name, node in params.items():
        assert node.grad is not None, f"no gradient for {name}"
        assert np.any(node.grad != 0.0), f"all-zero gradient for {name}"


def test_synthesis_deterministic_and_shape_contract(lexicon, tiny_config):
    params = init_params(tiny_config, np.random.default_rng(5))
    tokens = make_tokens(lexicon)
    feats_a, dur_a = synthesize(tokens, params, tiny_config)
    feats_b, dur_b = synthesize(tokens, params, tiny_config)
    assert feats_a.num_frames == dur_a.sum()
    np.testing.assert_array_equal(dur_a, dur_b)
    np.testing.assert_array_equal(feats_a.mgc, feats_b.mgc)
    np.testing.assert_array_equal(feats_a.logf0, feats_b.logf0)


def test_synthesize_equals_predicted_then_aligned_synthesis(lexicon, tiny_config):
    params = init_params(tiny_config, np.random.default_rng(5))
    params["dur.proj.b"].value[:] = math.log(5.0)  # several frames per phoneme
    tokens = make_tokens(lexicon)
    feats, durations = synthesize(tokens, params, tiny_config)
    expected_durations = predicted_durations(tokens, params, tiny_config)
    expected = synthesize_with_durations(tokens, params, tiny_config,
                                         expected_durations)
    assert durations.tobytes() == expected_durations.tobytes()
    assert durations.sum() > len(tokens)
    for name in ("mgc", "bap", "logf0", "vuv"):
        assert getattr(feats, name).tobytes() == getattr(expected, name).tobytes()


def test_synthesize_with_given_durations_aligns_to_them(lexicon, tiny_config):
    params = init_params(tiny_config, np.random.default_rng(5))
    params["dur.proj.b"].value[:] = math.log(5.0)
    tokens = make_tokens(lexicon)
    given = np.arange(1, len(tokens) + 1)
    feats, durations = synthesize(tokens, params, tiny_config, durations=given)
    expected = synthesize_with_durations(tokens, params, tiny_config, given)
    expected_durations = predicted_durations(tokens, params, tiny_config)
    assert feats.num_frames == int(given.sum())
    assert durations.tobytes() == expected_durations.tobytes()
    for name in ("mgc", "bap", "logf0", "vuv"):
        assert getattr(feats, name).tobytes() == getattr(expected, name).tobytes()


def test_synthesis_refuses_more_frames_than_the_cap(monkeypatch, lexicon,
                                                   tiny_config):
    # eight phonemes of 40,000 predicted frames each, within the cap one by
    # one; refused before the length regulator allocates 320,000 rows
    params = init_params(tiny_config, np.random.default_rng(5))
    params["dur.proj.w"].value[...] = 0.0
    params["dur.proj.b"].value[:] = math.log(40_001.0)
    tokens = make_tokens(lexicon)
    assert len(tokens) == 8

    def unreached(hidden, durations):
        raise AssertionError("length regulation ran")

    monkeypatch.setattr(model, "length_regulate", unreached)
    with pytest.raises(ValueError, match="320000 frames to synthesize, above "
                                         "the cap of 65536"):
        synthesize(tokens, params, tiny_config)
    given = [MAX_FRAMES - 6] + [1] * 7
    with pytest.raises(ValueError, match="65537 frames to synthesize"):
        synthesize_with_durations(tokens, params, tiny_config, given)


def test_dropout_runs_exactly_when_an_rng_is_given(lexicon, tiny_config):
    params = init_params(tiny_config, np.random.default_rng(0))
    tokens = make_tokens(lexicon)
    assert tiny_config.dropout > 0.0
    plain = encode(tokens, params, tiny_config).value
    with ad.no_grad():
        inference = encode(tokens, params, tiny_config).value
    assert plain.tobytes() == inference.tobytes()
    dropped = encode(tokens, params, tiny_config, np.random.default_rng(1)).value
    assert dropped.shape == plain.shape
    assert not np.array_equal(dropped, plain)
