import math
import re
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from singsynth.corpus import (
    ManifestEntry,
    OracleConfig,
    Utterance,
    generate_corpus,
    load_corpus_items,
    load_manifest,
    load_token_sidecar,
    mgc_templates,
    oracle_sing,
    random_score,
    save_token_sidecar,
    sidecar_path,
    split_note_frames,
)
from singsynth.features import load_features
from singsynth.score import demo_lexicon, midi_to_hz, parse_score, \
    score_to_tokens


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(consonant_fraction=0.0)
    with pytest.raises(ValueError):
        OracleConfig(transition_frames=-1)


def test_split_note_frames_consonant_fraction():
    # round(0.25 * 33) = 8 frames for the consonant, remainder for the vowel
    assert split_note_frames(("l", "a"), 33, OracleConfig()) == [8, 25]


def test_split_note_frames_sums_and_minimum():
    config = OracleConfig()
    for phonemes in (("l", "a"), ("s", "a", "n"), ("a",), ("m", "a", "n")):
        for frames in range(len(phonemes), 60):
            parts = split_note_frames(phonemes, frames, config)
            assert sum(parts) == frames
            assert min(parts) >= 1


def test_split_note_frames_rejects_too_short_note():
    with pytest.raises(ValueError):
        split_note_frames(("s", "a", "n"), 2, OracleConfig())


def test_oracle_duration_example(lexicon):
    score = parse_score("tempo 121.2\nla 69 1.0\n")  # 0.495 s -> 33 frames
    tokens, feats = oracle_sing(score, lexicon, OracleConfig())
    assert tokens.note_frame_counts == (33, 33)
    assert tokens.gt_phoneme_durations == (8, 25)
    assert feats.num_frames == 33


def test_oracle_rest_is_silent(lexicon):
    score = parse_score("tempo 100\n- 0 0.5\n")  # 0.3 s -> 20 frames
    tokens, feats = oracle_sing(score, lexicon, OracleConfig())
    assert feats.num_frames == 20
    np.testing.assert_array_equal(feats.vuv, np.zeros(20))
    np.testing.assert_array_equal(feats.logf0, np.zeros(20))


def test_oracle_vibrato_bounded_and_centered(lexicon):
    config = OracleConfig()
    score = parse_score("tempo 90\nla 69 2.0\n")
    tokens, feats = oracle_sing(score, lexicon, config)
    voiced = feats.vuv == 1.0
    note = math.log(midi_to_hz(69))
    deviation = feats.logf0[voiced] - note
    assert np.abs(deviation).max() <= config.vibrato_depth_log + 1e-12
    assert np.abs(deviation).max() > 0.5 * config.vibrato_depth_log


def test_oracle_durations_match_feature_length(lexicon):
    config = OracleConfig(seed=11)
    for i in range(10):
        score = random_score(demo_lexicon(), np.random.default_rng([11, 4, i]))
        tokens, feats = oracle_sing(score, lexicon, config)
        assert tokens.total_frames == feats.num_frames


def test_utterance_refuses_missing_or_mismatched_durations(lexicon):
    tokens, feats = oracle_sing(parse_score("tempo 120\nla 69 0.5\n- 0 0.5\n"),
                                lexicon, OracleConfig())
    assert Utterance("u", tokens, feats).features is feats
    durations = tokens.gt_phoneme_durations
    with pytest.raises(ValueError, match="^missing ground-truth durations$"):
        Utterance("u", replace(tokens, gt_phoneme_durations=None), feats)
    longer = replace(tokens, gt_phoneme_durations=(durations[0] + 1,) + durations[1:])
    with pytest.raises(ValueError, match=f"^duration total {feats.num_frames + 1} "
                                         f"!= feature frames {feats.num_frames}$"):
        Utterance("u", longer, feats)


def test_utterance_is_frozen(lexicon):
    tokens, feats = oracle_sing(parse_score("tempo 120\nla 69 0.5\n"), lexicon,
                                OracleConfig())
    utt = Utterance("u", tokens, feats)
    for name, value in (("utt_id", "v"), ("tokens", replace(tokens)),
                        ("features", feats)):
        with pytest.raises(FrozenInstanceError):
            setattr(utt, name, value)


def test_equal_utterances_compare_by_identity(lexicon):
    tokens, feats = oracle_sing(parse_score("tempo 120\nla 69 0.5\n"), lexicon,
                                OracleConfig())
    a, b = Utterance("u", tokens, feats), Utterance("u", tokens, replace(feats))
    assert a == a and a != b and not (a == b)
    assert {a, b, a} == {a, b} and hash(a) == hash(a)


def test_load_corpus_items_names_the_feature_file_of_a_broken_utterance(
        tmp_path, lexicon):
    generate_corpus(3, seed=1, config=OracleConfig(seed=1), out_dir=tmp_path,
                    lexicon=lexicon)
    feat_path = tmp_path / "features" / "song_0001.feat"
    frames = load_features(feat_path).num_frames
    sidecar = Path(sidecar_path(feat_path))
    rows = [line.split("\t") for line in sidecar.read_text().splitlines()]
    rows[0][3] = str(int(rows[0][3]) + 1)   # one more frame than the features
    sidecar.write_text("".join("\t".join(row) + "\n" for row in rows))
    with pytest.raises(ValueError, match=re.escape(
            f"{feat_path}: duration total {frames + 1} != feature frames {frames}")):
        load_corpus_items(load_manifest(tmp_path / "manifest.tsv"), split="all")


def test_oracle_voiced_logf0_within_pitch_range(lexicon):
    config = OracleConfig(seed=3)
    low = math.log(midi_to_hz(55)) - config.vibrato_depth_log
    high = math.log(midi_to_hz(79)) + config.vibrato_depth_log
    for i in range(5):
        score = random_score(lexicon, np.random.default_rng([3, 4, i]))
        _, feats = oracle_sing(score, lexicon, config)
        voiced = feats.vuv == 1.0
        if voiced.any():
            assert feats.logf0[voiced].min() >= low - 1e-12
            assert feats.logf0[voiced].max() <= high + 1e-12
            assert np.all(np.isfinite(feats.logf0[voiced]))


def test_oracle_is_deterministic(lexicon):
    config = OracleConfig(seed=5)
    score = random_score(lexicon, np.random.default_rng(42))
    tokens_a, feats_a = oracle_sing(score, lexicon, config)
    tokens_b, feats_b = oracle_sing(score, lexicon, config)
    assert tokens_a.gt_phoneme_durations == tokens_b.gt_phoneme_durations
    np.testing.assert_array_equal(feats_a.mgc, feats_b.mgc)
    np.testing.assert_array_equal(feats_a.logf0, feats_b.logf0)


def test_oracle_unvoiced_consonants_have_unvoiced_frames(lexicon):
    score = parse_score("tempo 120\nsa 69 1.0\n")  # "s" is unvoiced
    tokens, feats = oracle_sing(score, lexicon, OracleConfig())
    s_frames = tokens.gt_phoneme_durations[0]
    np.testing.assert_array_equal(feats.vuv[:s_frames], np.zeros(s_frames))
    np.testing.assert_array_equal(feats.vuv[s_frames:],
                                  np.ones(feats.num_frames - s_frames))
    assert np.all(feats.bap[feats.vuv == 1.0] == -60.0)
    assert np.all(feats.bap[feats.vuv == 0.0] == 0.0)


def test_mgc_templates_depend_on_seed_only(lexicon):
    a = mgc_templates(lexicon, OracleConfig(seed=1))
    b = mgc_templates(lexicon, OracleConfig(seed=1))
    c = mgc_templates(lexicon, OracleConfig(seed=2))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= -0.5 and a.max() <= 0.5


def test_token_sidecar_round_trip(tmp_path, lexicon):
    score = random_score(lexicon, np.random.default_rng(8))
    tokens, _ = oracle_sing(score, lexicon, OracleConfig())
    path = tmp_path / "x.tokens.tsv"
    save_token_sidecar(path, tokens)
    loaded = load_token_sidecar(path)
    assert loaded.phoneme_ids == tokens.phoneme_ids
    assert loaded.pitch_ids == tokens.pitch_ids
    assert loaded.note_frame_counts == tokens.note_frame_counts
    assert loaded.syllable_ids == tokens.syllable_ids
    assert loaded.gt_phoneme_durations == tokens.gt_phoneme_durations


@pytest.mark.parametrize("syllables", [(0, 0, 2), (1, 1, 2)])
def test_token_sidecar_refuses_syllables_that_do_not_count_up(tmp_path,
                                                             syllables):
    path = tmp_path / "x.tokens.tsv"
    path.write_text("".join(f"5\t69\t10\t4\t{s}\n" for s in syllables))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: syllable ids must count up from 0 in steps of 1")):
        load_token_sidecar(path)


def test_generate_corpus_is_idempotent(tmp_path, lexicon):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    generate_corpus(10, seed=7, config=OracleConfig(seed=7), out_dir=out_a,
                    lexicon=lexicon)
    generate_corpus(10, seed=7, config=OracleConfig(seed=7), out_dir=out_b,
                    lexicon=lexicon)
    assert tree_bytes(out_a) == tree_bytes(out_b)


def test_generate_corpus_split_and_validity(tmp_path, lexicon):
    manifest = generate_corpus(10, seed=3, config=OracleConfig(seed=3),
                               out_dir=tmp_path, lexicon=lexicon)
    assert len(manifest.entries) == 10
    splits = [e.split for e in manifest.entries]
    assert splits.count("train") == 9
    assert splits.count("holdout") == 1
    for entry in manifest.entries:
        feats = load_features(tmp_path / entry.feature_path)
        tokens = load_token_sidecar(sidecar_path(tmp_path / entry.feature_path))
        assert tokens.total_frames == feats.num_frames


def test_manifest_round_trip(tmp_path, lexicon):
    generate_corpus(4, seed=1, config=OracleConfig(seed=1), out_dir=tmp_path,
                    lexicon=lexicon)
    manifest = load_manifest(tmp_path / "manifest.tsv")
    assert len(manifest.entries) == 4
    items = load_corpus_items(manifest, split="all")
    assert len(items) == 4
    train_items = load_corpus_items(manifest, split="train")
    assert len(train_items) == 3


def test_manifest_rejects_missing_files(tmp_path, lexicon):
    # the error names the file that is missing, feature file or score
    generate_corpus(3, seed=1, config=OracleConfig(seed=1), out_dir=tmp_path,
                    lexicon=lexicon)
    for rel in ("features/song_0001.feat", "scores/song_0000.score"):
        (tmp_path / rel).unlink()
        with pytest.raises(FileNotFoundError, match=f"first: {rel}$"):
            load_manifest(tmp_path / "manifest.tsv")


@pytest.mark.parametrize("fields, name", [
    (("a\tb", "f", "train"), "score_path"), (("f", "f", ""), "split"),
    ((" f", "f", "train"), "score_path"), (("f", "f\r", "train"), "feature_path"),
    (("f", "a\nb", "train"), "feature_path"), (("f", "f", "train "), "split"),
    (("a\ud800", "f", "train"), "score_path")])
def test_manifest_entry_refuses_a_field_that_would_not_read_back(tmp_path,
                                                                 fields, name):
    with pytest.raises(ValueError, match=f"manifest {name} "):
        ManifestEntry(*fields)


def test_manifest_reader_names_the_line_of_a_refused_entry(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_text("a\tb\ttrain\n\na\t\tholdout\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:3: manifest feature_path '' is empty")):
        load_manifest(path)


def test_token_sidecar_needs_durations_before_it_opens_the_file(tmp_path,
                                                                lexicon):
    tokens = score_to_tokens(parse_score("tempo 120\nla 69 0.5\n"), lexicon)
    with pytest.raises(ValueError, match="ground-truth durations"):
        save_token_sidecar(tmp_path / "x.feat.tokens.tsv", tokens)
    assert list(tmp_path.iterdir()) == []


def _sidecar_with(tmp_path, lexicon, column, value):
    """A valid sidecar with one field of its first row replaced."""
    tokens, _ = oracle_sing(parse_score("tempo 120\nla 69 0.5\n- 0 0.5\n"),
                            lexicon, OracleConfig())
    path = tmp_path / "x.feat.tokens.tsv"
    save_token_sidecar(path, tokens)
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    rows[0][column] = value
    path.write_text("".join("\t".join(row) + "\n" for row in rows))
    return path


@pytest.mark.parametrize("column, value, message", [
    (1, "200", "pitch id 200 out of range"),
    (1, "-1", "pitch id -1 out of range"),
    (0, "-4", "phoneme id -4 is negative"),
    (2, "x", ":1: invalid literal"),
])
def test_token_sidecar_rejects_bad_ids_naming_the_file(tmp_path, lexicon, column,
                                                      value, message):
    path = _sidecar_with(tmp_path, lexicon, column, value)
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + message):
        load_token_sidecar(path)


def test_token_sidecar_accepts_the_whole_pitch_range(tmp_path, lexicon):
    for pitch in (0, 127):
        path = _sidecar_with(tmp_path, lexicon, 1, str(pitch))
        assert load_token_sidecar(path).pitch_ids[0] == pitch


def test_random_scores_parse_and_have_advertised_shape(lexicon):
    for i in range(20):
        score = random_score(lexicon, np.random.default_rng([0, 4, i]))
        assert 5 <= len(score.events) <= 30
        for ev in score.events:
            if not ev.is_rest:
                assert 55 <= ev.midi_pitch <= 79
            assert ev.beat_length in (0.25, 0.5, 1.0, 2.0)
