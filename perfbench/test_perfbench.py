"""Tests of the benchmark itself: seeded inputs, output checks and the span
arithmetic. Run from the repository root with ``python3 -m pytest perfbench``."""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from singsynth import corpus, features, model, score
from singsynth.score import demo_lexicon

import spans
import workloads


@pytest.fixture(scope="module")
def lexicon():
    return demo_lexicon()


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# seeded inputs

@pytest.mark.parametrize("make", [workloads.phrase_scores, workloads.verse_scores])
def test_song_inputs_follow_the_seed(make, lexicon):
    texts = lambda seed: [score.serialize_score(s) for s in make(seed, lexicon)]
    assert texts(5) == texts(5)
    assert texts(5) != texts(6)


def test_train_corpus_follows_the_seed(lexicon, tmp_path):
    first = _tree_bytes(workloads.train_corpus(5, tmp_path / "a", lexicon).base_dir)
    again = _tree_bytes(workloads.train_corpus(5, tmp_path / "b", lexicon).base_dir)
    other = _tree_bytes(workloads.train_corpus(6, tmp_path / "c", lexicon).base_dir)
    assert first == again
    assert first != other


def _frames(songs) -> list[int]:
    return [sum(score.beats_to_frames(e.beat_length, s.tempo_bpm,
                                      features.FRAME_SHIFT_S) for e in s.events)
            for s in songs]


def test_input_sizes_match_the_workload_descriptions(lexicon):
    phrases = workloads.phrase_scores(3, lexicon)
    assert all(len(s.events) <= 6 for s in phrases)
    assert 100 < sum(_frames(phrases)) / len(phrases) < 180
    low, high = workloads.VERSE_FRAMES
    frames = _frames(workloads.verse_scores(3, lexicon))
    assert low <= min(frames) and max(frames) < high + 100


@pytest.mark.parametrize("make", [workloads.phrase_scores, workloads.verse_scores])
def test_song_sizes_do_not_depend_on_the_seed(make, lexicon):
    assert _frames(make(3, lexicon)) == _frames(make(4, lexicon))


# ---------------------------------------------------------------------------
# output checks

@pytest.fixture(scope="module")
def good_output(lexicon):
    """A real synthesis of a phrase that contains a rest."""
    song = score.MusicalScore(tempo_bpm=120.0, events=(
        score.NoteEvent("la", 60, 1.0), score.NoteEvent("-", 0, 0.5),
        score.NoteEvent("ma", 64, 1.0)))
    tokens, _ = corpus.oracle_sing(song, lexicon, corpus.OracleConfig())
    durations = tokens.gt_phoneme_durations
    config = model.ModelConfig.desk()
    params = model.init_params(config, np.random.default_rng(0))
    feats = model.synthesize_with_durations(tokens, params, config, durations)
    predicted = model.predicted_durations(tokens, params, config)
    return feats, durations, tokens.pitch_ids, predicted


def _copy(feats, **changes):
    arrays = {name: getattr(feats, name).copy()
              for name in ("mgc", "bap", "logf0", "vuv")}
    arrays.update(changes)
    return SimpleNamespace(**arrays)


def test_check_synth_accepts_real_output(good_output):
    feats, durations, pitch_ids, predicted = good_output
    assert 0 in pitch_ids
    assert workloads.check_synth(feats, durations, pitch_ids, predicted) == []


def test_check_synth_rejects_nan_in_mgc(good_output):
    feats, durations, pitch_ids, predicted = good_output
    bad = _copy(feats)
    bad.mgc[1, 3] = np.nan
    assert workloads.check_synth(bad, durations, pitch_ids, predicted)


def test_check_synth_rejects_pitch_on_a_rest_frame(good_output):
    feats, durations, pitch_ids, predicted = good_output
    rest = np.repeat(np.asarray(pitch_ids) == 0, durations)
    bad = _copy(feats)
    bad.logf0[np.flatnonzero(rest)[0]] = 1e-9
    assert workloads.check_synth(bad, durations, pitch_ids, predicted)


def test_check_synth_rejects_wrong_frame_count(good_output):
    feats, durations, pitch_ids, predicted = good_output
    bad = SimpleNamespace(mgc=feats.mgc[:-1], bap=feats.bap[:-1],
                          logf0=feats.logf0[:-1], vuv=feats.vuv[:-1])
    assert workloads.check_synth(bad, durations, pitch_ids, predicted)


def test_check_synth_rejects_vuv_and_duration_faults(good_output):
    feats, durations, pitch_ids, predicted = good_output
    assert workloads.check_synth(_copy(feats, vuv=feats.vuv + 1.5), durations,
                                 pitch_ids, predicted)
    bad_pred = np.asarray(predicted).copy()
    bad_pred[0] = 0
    assert workloads.check_synth(feats, durations, pitch_ids, bad_pred)


def test_check_saved_compares_what_loads_back(good_output, tmp_path):
    feats = good_output[0]
    path = tmp_path / "x.feat"
    features.save_features(path, feats)
    assert workloads.check_saved(path, feats) == []
    other = features.AcousticFeatureSequence(
        mgc=feats.mgc + 1.0, bap=feats.bap, logf0=feats.logf0, vuv=feats.vuv)
    assert workloads.check_saved(path, other)


def test_check_log_counts_only_good_steps():
    line = lambda step, total: "\t".join(
        [str(step), "0.001", total] + ["1.0"] * 6) + "\n"
    assert workloads.check_log([line(1, "2.5"), line(2, "2.4")], 2) == 2
    assert workloads.check_log([line(1, "2.5"), line(2, "nan")], 2) == 1
    assert workloads.check_log([line(1, "2.5")], 2) == 1
    assert workloads.check_log([line(2, "2.5")], 1) == 0


# ---------------------------------------------------------------------------
# span arithmetic

def test_covered_merges_overlaps():
    assert spans.covered([]) == 0.0
    assert spans.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert spans.covered([(0.0, 10.0), (2.0, 3.0)]) == 10.0


def test_self_time_on_hand_built_spans():
    # name, start, end, parent, op
    built = [
        ("training.batch_loss", 0.0, 10.0, -1, 0),
        ("model.forward_train", 1.0, 6.0, 0, 0),
        ("model.encode", 1.5, 2.5, 1, 0),        # grandchild: not subtracted
        ("autodiff.softmax", 7.0, 8.0, 0, 0),
        ("model.decode", 5.0, 7.5, 0, 0),        # overlaps its siblings
        ("training.batch_loss", 20.0, 24.0, -1, 1),
    ]
    children = spans.children_of(built)
    assert spans.self_time(built, 0, children) == pytest.approx(10.0 - 7.0)
    only_model = lambda name: name.startswith("model.")
    assert spans.self_time(built, 0, children, only_model) == pytest.approx(
        10.0 - 6.5)
    assert spans.self_time(built, 1, children) == pytest.approx(5.0 - 1.0)
    assert spans.self_time(built, 5, children) == pytest.approx(4.0)


def test_layer_metrics_from_hand_built_spans():
    tracer = spans.Tracer()
    tracer.spans = [
        ("corpus.generate_corpus", 0.0, 2.0, -1, "setup-0"),
        ("corpus.oracle_sing", 0.5, 1.0, 0, "setup-0"),
        ("training.batch_loss", 10.0, 10.010, -1, 0),
        ("model.forward_train", 10.002, 10.008, 2, 0),
        ("autodiff.backward", 10.010, 10.030, -1, 0),
        ("training.batch_loss", 20.0, 20.020, -1, 1),
        ("model.forward_train", 20.001, 20.011, 5, 1),
    ]
    metrics, _ = spans.layer_metrics(tracer, [0, 1], ["setup-0"])
    assert metrics["corpus.generate_s"] == pytest.approx(2.0)
    assert metrics["training.batch_loss_ms"] == pytest.approx(15.0)
    assert metrics["losses.assembly_ms"] == pytest.approx(7.0)   # median of 4, 10
    assert metrics["autodiff.backward_ms"] == pytest.approx(10.0)  # median of 20, 0


def test_graph_size_counts_shared_buffers_once():
    from singsynth import autodiff as ad
    x = ad.parameter(np.ones((4, 3)))
    y = ad.reshape(x, (3, 4))               # a view of x's buffer
    z = ad.reduce_sum(ad.add(y, y))
    nodes, nbytes = spans.graph_size([z])
    assert nodes == 4
    assert nbytes == 12 * 8 + 12 * 8 + 8


def test_tracer_restores_the_package():
    from singsynth import autodiff, training
    before = (autodiff.softmax, training.AdamState.update, score.parse_score)
    with spans.Tracer() as tracer:
        tracer.op = 0
        assert autodiff.softmax is not before[0]
        score.parse_score("tempo 120\nla 60 1.0\n")
    assert (autodiff.softmax, training.AdamState.update,
            score.parse_score) == before
    assert [s[0] for s in tracer.spans] == ["score.parse"]


def test_beyond_p90_counts_tied_song_samples():
    latencies = {i: [float(i)] for i in range(12)}
    nine_passes = [i for _ in range(9) for i in range(12)]
    assert workloads.beyond_p90(latencies, nine_passes) == 9
    assert workloads.beyond_p90(latencies, nine_passes + list(range(12))) == 10
    assert workloads.beyond_p90({}, []) == 0
