import math
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from singsynth import cli, model
from singsynth.binio import write_magic, write_named_tensor, write_u32
from singsynth.checkpoint import load_checkpoint, save_checkpoint
from singsynth.cli import CONFIG_DEFAULTS, format_config, main, read_config
from singsynth.features import FEATURE_MAGIC, AcousticFeatureSequence, load_features, \
    save_features
from singsynth.metrics import REPORT_KEYS


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["gen-data", "--songs", "6", "--seed", "3",
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--manifest", str(corpus_dir / "manifest.tsv"),
                 "--out", str(out), "--steps", "8", "--seed", "5"])
    assert code == 0
    return out


def test_gen_data_writes_manifest_and_counts(corpus_dir):
    manifest = (corpus_dir / "manifest.tsv").read_text().strip().split("\n")
    assert len(manifest) == 6
    for line in manifest:
        score_rel, feat_rel, split = line.split("\t")
        assert (corpus_dir / score_rel).exists()
        assert (corpus_dir / feat_rel).exists()
        assert split in ("train", "holdout")


def test_gen_data_missing_out_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--songs", "3"])
    assert exc.value.code == 2


def test_gen_data_rerun_is_idempotent(tmp_path, corpus_dir):
    again = tmp_path / "again"
    assert main(["gen-data", "--songs", "6", "--seed", "3",
                 "--out", str(again)]) == 0
    assert tree_bytes(again) == tree_bytes(corpus_dir)


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_train_writes_all_artifacts(run_dir):
    assert (run_dir / "checkpoint.bin").exists()
    assert (run_dir / "config.txt").exists()
    log = (run_dir / "loss_log.tsv").read_text().strip().split("\n")
    assert len(log) == 8
    assert all(len(line.split("\t")) == 9 for line in log)


def test_train_flag_overrides_config_file(tmp_path, corpus_dir):
    cfg_file = tmp_path / "base.cfg"
    cfg_file.write_text("seed 5\ntotal_steps 3\n")
    out = tmp_path / "run"
    assert main(["train", "--manifest", str(corpus_dir / "manifest.tsv"),
                 "--out", str(out), "--config", str(cfg_file),
                 "--seed", "9"]) == 0
    echoed = read_config(out / "config.txt")
    assert echoed["seed"] == 9           # flag wins
    assert echoed["total_steps"] == 3    # config file survives where not overridden


def test_config_echo_round_trips(run_dir):
    loaded = read_config(run_dir / "config.txt")
    assert loaded == {**CONFIG_DEFAULTS, "seed": 5, "total_steps": 8}


def test_config_keys_are_the_desk_config_fields():
    # the scalar fields of TrainConfig.desk(), its ModelConfig and LossWeights
    # and OracleConfig(); one seed key for trainer and oracle
    assert CONFIG_DEFAULTS == {
        "hidden_dim": 32, "encoder_blocks": 1, "decoder_blocks": 1,
        "attention_heads": 2, "conv_kernel_size": 3, "conv_filter_dim": 64,
        "phoneme_vocab_size": 72, "pitch_vocab_size": 128,
        "max_note_frames": 256, "dropout": 0.1, "batch_size": 8,
        "total_steps": 2000, "warmup_steps": 200, "seed": 0,
        "adam_beta1": 0.9, "adam_beta2": 0.98, "adam_epsilon": 1e-9,
        "w_pd": 1.0, "w_sd": 1.0, "w_m": 1.0, "w_b": 1.0, "w_f": 1.0,
        "w_u": 1.0, "vibrato_rate_hz": 5.5, "vibrato_depth_log": 0.03,
        "transition_frames": 3, "consonant_fraction": 0.25,
    }
    assert all(type(CONFIG_DEFAULTS[k]) is float for k in ("dropout", "w_sd"))


def test_config_txt_reloads_and_resaves_byte_for_byte(run_dir, corpus_dir):
    for path in (run_dir / "config.txt", corpus_dir / "config.txt"):
        text = path.read_text(encoding="utf-8")
        assert format_config(read_config(path)) == text
        assert len(text.splitlines()) == 27


def test_config_rejects_unknown_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("# a comment\nseed 1\nwarp_factor 9\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}:3: unknown config key 'warp_factor'$"):
        read_config(bad)


@pytest.mark.parametrize("text, message", [
    ("hidden_dim 3.5\n", "bad value '3.5' for hidden_dim"),
    ("dropout\n", "expected 'key value'"),
])
def test_config_file_errors_name_path_and_line(tmp_path, text, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text("\n" + text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}:2: {re.escape(message)}$"):
        read_config(bad)


def test_set_flag_overrides_any_field(tmp_path, corpus_dir):
    out = tmp_path / "run"
    assert main(["train", "--manifest", str(corpus_dir / "manifest.tsv"),
                 "--out", str(out), "--steps", "2",
                 "--set", "w_sd", "0.5", "--set", "warmup_steps", "10"]) == 0
    echoed = read_config(out / "config.txt")
    assert echoed["w_sd"] == 0.5
    assert echoed["warmup_steps"] == 10


def test_set_flag_rejects_unknown_key(tmp_path, corpus_dir, capsys):
    code = main(["train", "--manifest", str(corpus_dir / "manifest.tsv"),
                 "--out", str(tmp_path / "r"), "--set", "nonsense", "1"])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_set_flag_rejects_bad_value(tmp_path, corpus_dir, capsys):
    code = main(["train", "--manifest", str(corpus_dir / "manifest.tsv"),
                 "--out", str(tmp_path / "r"), "--set", "batch_size", "two"])
    assert code == 1
    assert capsys.readouterr().err == "error: --set: bad value 'two' for batch_size\n"


def test_gen_data_rejects_invalid_model_config(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen-data", "--songs", "2", "--out", str(out),
                 "--set", "hidden_dim", "7"]) == 1
    assert "hidden_dim 7 not divisible by attention_heads 2" in capsys.readouterr().err
    assert not (out / "config.txt").exists()


@pytest.mark.parametrize("command", ["train", "gen-data"])
@pytest.mark.parametrize("key, value", [
    ("w_pd", "nan"), ("w_u", "inf"), ("adam_beta1", "nan"), ("adam_beta1", "1.0"),
    ("adam_beta2", "-0.5"), ("adam_beta2", "inf"), ("adam_epsilon", "0.0"),
    ("adam_epsilon", "inf"), ("vibrato_rate_hz", "nan"),
    ("vibrato_depth_log", "inf"), ("seed", "-1")])
def test_config_value_that_can_only_diverge_is_refused_before_writing(
        tmp_path, corpus_dir, capsys, command, key, value):
    out = tmp_path / "out"
    args = (["train", "--manifest", str(corpus_dir / "manifest.tsv"), "--steps", "2"]
            if command == "train" else ["gen-data", "--songs", "2"])
    assert main(args + ["--out", str(out), "--set", key, value]) == 1
    assert f"error: {key} " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "train --resume"])
def test_synth_rejects_mismatched_lexicon(tmp_path, corpus_dir, run_dir, capsys,
                                          command):
    other = tmp_path / "other_lexicon.tsv"
    other.write_text("la\tl a\nda\td a\n")
    score = tmp_path / "tune.score"
    score.write_text("tempo 120\nla 69 1.0\n")
    out = tmp_path / "out"
    ckpt = str(run_dir / "checkpoint.bin")
    args = (["synth", "--score", str(score), "--checkpoint", ckpt]
            if command == "synth" else
            ["train", "--manifest", str(corpus_dir / "manifest.tsv"),
             "--steps", "10", "--resume", ckpt])
    code = main(args + ["--lexicon", str(other), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: checkpoint was trained with a different phoneme vocabulary "
        "than the supplied lexicon\n")
    assert not out.exists()   # no feature file, or no run directory


def test_train_rejects_out_of_range_sidecar_before_writing(tmp_path, corpus_dir,
                                                           capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    sidecar = corpus / "features" / "song_0002.feat.tokens.tsv"
    rows = [line.split("\t") for line in sidecar.read_text().splitlines()]
    rows[0][1] = "200"
    sidecar.write_text("".join("\t".join(row) + "\n" for row in rows))
    run = tmp_path / "run"
    code = main(["train", "--manifest", str(corpus / "manifest.tsv"),
                 "--out", str(run), "--steps", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert str(sidecar) in err and "pitch id 200" in err
    assert not run.exists()


def test_train_and_eval_refuse_a_sidecar_that_disagrees_with_its_frames(
        tmp_path, corpus_dir, run_dir, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    entries = [line.split("\t") for line in
               (corpus / "manifest.tsv").read_text().splitlines()]
    feat_path = corpus / next(feat for _, feat, split in entries if split == "train")
    frames = load_features(feat_path).num_frames
    sidecar = Path(f"{feat_path}.tokens.tsv")
    rows = [line.split("\t") for line in sidecar.read_text().splitlines()]
    rows[0][3] = str(int(rows[0][3]) + 1)
    sidecar.write_text("".join("\t".join(row) + "\n" for row in rows))
    message = (f"error: {feat_path}: duration total {frames + 1} != "
               f"feature frames {frames}")
    run = tmp_path / "run"
    assert main(["train", "--manifest", str(corpus / "manifest.tsv"),
                 "--out", str(run), "--steps", "2"]) == 1
    assert message in capsys.readouterr().err
    assert not run.exists()
    assert main(["eval", "--manifest", str(corpus / "manifest.tsv"), "--split", "all",
                 "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--out", str(tmp_path / "report")]) == 1
    assert message in capsys.readouterr().err


def test_train_resume_continues_step_counter(tmp_path, corpus_dir):
    first = tmp_path / "first"
    assert main(["train", "--manifest", str(corpus_dir / "manifest.tsv"),
                 "--out", str(first), "--steps", "4", "--seed", "5"]) == 0
    second = tmp_path / "second"
    assert main(["train", "--manifest", str(corpus_dir / "manifest.tsv"),
                 "--out", str(second), "--steps", "8", "--seed", "5",
                 "--resume", str(first / "checkpoint.bin")]) == 0
    log = (second / "loss_log.tsv").read_text().strip().split("\n")
    assert [line.split("\t")[0] for line in log] == ["5", "6", "7", "8"]


def test_train_resume_into_own_run_keeps_earlier_log_lines(tmp_path, corpus_dir):
    run = tmp_path / "run"
    base = ["train", "--manifest", str(corpus_dir / "manifest.tsv"),
            "--out", str(run), "--seed", "5"]
    assert main(base + ["--steps", "3"]) == 0
    assert main(base + ["--steps", "5", "--resume", str(run / "checkpoint.bin"),
                        "--set", "hidden_dim", "16"]) == 1
    log = (run / "loss_log.tsv").read_text().strip().split("\n")
    assert [line.split("\t")[0] for line in log] == ["1", "2", "3"]
    assert main(base + ["--steps", "5", "--resume", str(run / "checkpoint.bin")]) == 0
    log = (run / "loss_log.tsv").read_text().strip().split("\n")
    assert [line.split("\t")[0] for line in log] == ["1", "2", "3", "4", "5"]


def test_train_resume_rejected_keeps_run_config(tmp_path, corpus_dir):
    run = tmp_path / "r"
    base = ["train", "--manifest", str(corpus_dir / "manifest.tsv"),
            "--out", str(run), "--seed", "5"]
    assert main(base + ["--steps", "3"]) == 0
    before = (run / "config.txt").read_bytes()
    assert main(base + ["--steps", "5", "--resume", str(run / "checkpoint.bin"),
                        "--set", "hidden_dim", "16"]) == 1
    assert (run / "config.txt").read_bytes() == before
    # an accepted resume writes its own configuration
    assert main(base + ["--steps", "5", "--resume", str(run / "checkpoint.bin"),
                        "--set", "w_sd", "0.5"]) == 0
    assert read_config(run / "config.txt")["w_sd"] == 0.5


def test_train_resume_rejects_checkpoint_of_another_width(tmp_path, corpus_dir,
                                                         capsys):
    narrow = tmp_path / "narrow"
    assert main(["train", "--manifest", str(corpus_dir / "manifest.tsv"),
                 "--out", str(narrow), "--steps", "1",
                 "--set", "hidden_dim", "16"]) == 0
    wide = tmp_path / "wide"
    assert main(["train", "--manifest", str(corpus_dir / "manifest.tsv"),
                 "--out", str(wide), "--steps", "3",
                 "--resume", str(narrow / "checkpoint.bin")]) == 1
    assert "trained with hidden_dim 16, run has hidden_dim 32" \
        in capsys.readouterr().err
    assert (wide / "loss_log.tsv").read_text() == ""


def test_train_resume_rejects_checkpoint_of_another_head_count(tmp_path, run_dir,
                                                              corpus_dir, capsys):
    out = tmp_path / "more_heads"
    assert main(["train", "--manifest", str(corpus_dir / "manifest.tsv"),
                 "--out", str(out), "--steps", "10", "--seed", "5",
                 "--set", "attention_heads", "4",
                 "--resume", str(run_dir / "checkpoint.bin")]) == 1
    assert "trained with attention_heads 2, run has attention_heads 4" \
        in capsys.readouterr().err
    assert (out / "loss_log.tsv").read_text() == ""


def test_synth_frame_count_equals_predicted_duration_sum(tmp_path, corpus_dir,
                                                         run_dir):
    from singsynth.checkpoint import load_checkpoint
    from singsynth.model import predicted_durations
    from singsynth.score import demo_lexicon, parse_score, score_to_tokens
    from singsynth.training import params_from_checkpoint, trained_model_config

    score_path = corpus_dir / "scores" / "song_0000.score"
    out = tmp_path / "synth.feat"
    assert main(["synth", "--score", str(score_path),
                 "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--out", str(out)]) == 0
    feats = load_features(out)

    ckpt = load_checkpoint(run_dir / "checkpoint.bin")
    config = trained_model_config(ckpt)
    params = params_from_checkpoint(ckpt, config)
    tokens = score_to_tokens(parse_score(score_path.read_text()), demo_lexicon())
    durations = predicted_durations(tokens, params, config)
    assert feats.num_frames == int(durations.sum())


def test_synth_is_deterministic(tmp_path, corpus_dir, run_dir):
    score = corpus_dir / "scores" / "song_0001.score"
    out_a, out_b = tmp_path / "a.feat", tmp_path / "b.feat"
    for out in (out_a, out_b):
        assert main(["synth", "--score", str(score),
                     "--checkpoint", str(run_dir / "checkpoint.bin"),
                     "--out", str(out)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_synth_unknown_syllable_names_it(tmp_path, run_dir, capsys):
    score = tmp_path / "bad.score"
    score.write_text("tempo 120\nzzqq 69 1.0\n")
    code = main(["synth", "--score", str(score),
                 "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--out", str(tmp_path / "x.feat")])
    assert code == 1
    assert "zzqq" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("tempo 120\nla 69 inf\n", "line 2: beat_length must be positive and finite"),
    ("tempo 120\nla 69 1e308\n", "beat length 1e+308 at tempo 120.0 is not a finite"),
])
def test_synth_names_a_note_too_long_to_count(tmp_path, run_dir, capsys, text,
                                              message):
    score = tmp_path / "long.score"
    score.write_text(text)
    code = main(["synth", "--score", str(score),
                 "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--out", str(tmp_path / "x.feat")])
    assert code == 1
    assert message in capsys.readouterr().err


def test_eval_self_comparison_is_perfect(tmp_path, corpus_dir, capsys):
    gt = corpus_dir / "features" / "song_0000.feat"
    out = tmp_path / "eval"
    assert main(["eval", "--out", str(out),
                 "--pair", str(gt), str(gt)]) == 0
    report = (out / "eval_report.txt").read_text()
    lines = dict(
        line.split("\t") for line in report.strip().split("\n")
        if not line.startswith("#")
    )
    assert set(lines) == set(REPORT_KEYS)
    assert float(lines["MCD (dB)"]) == 0.0
    assert float(lines["BAPD (dB)"]) == 0.0
    assert float(lines["V/UV Error (%)"]) == 0.0
    assert float(lines["F0 RMSE (Hz)"]) == 0.0
    assert float(lines["F0 CORR"]) == pytest.approx(1.0, abs=1e-12)
    assert lines["Dur RMSE"] == "NA"  # pairs mode has no duration predictions
    gv_rows = (out / "gv.tsv").read_text().strip().split("\n")
    assert len(gv_rows) == 60


def test_eval_accepts_anti_correlation_rounded_past_minus_one(tmp_path):
    # two voiced frames whose F0 correlation rmse_corr rounds to
    # -1.0000000000000002
    def feats(hz):
        return AcousticFeatureSequence(mgc=np.zeros((2, 60)), bap=np.zeros((2, 5)),
                                       logf0=np.log(hz), vuv=np.ones(2))
    save_features(tmp_path / "pred.feat",
                  feats([71.53544134559496, 231.12915813352083]))
    save_features(tmp_path / "gt.feat",
                  feats([156.1330682029204, 101.54314185853504]))
    out = tmp_path / "eval"
    assert main(["eval", "--out", str(out), "--pair", str(tmp_path / "pred.feat"),
                 str(tmp_path / "gt.feat")]) == 0
    report = dict(line.split("\t") for line in
                  (out / "eval_report.txt").read_text().strip().split("\n")
                  if not line.startswith("#"))
    assert float(report["F0 CORR"]) == pytest.approx(-1.0, abs=1e-12)


def test_eval_pooled_f0_over_one_commonly_voiced_frame(tmp_path):
    t = 4
    gt = AcousticFeatureSequence(mgc=np.zeros((t, 60)), bap=np.zeros((t, 5)),
                                 logf0=np.full(t, math.log(220.0)), vuv=np.ones(t))
    pred = AcousticFeatureSequence(mgc=np.zeros((t, 60)), bap=np.zeros((t, 5)),
                                   logf0=np.full(t, math.log(230.0)),
                                   vuv=np.array([1.0, 0.0, 0.0, 0.0]))
    save_features(tmp_path / "pred.feat", pred)
    save_features(tmp_path / "gt.feat", gt)
    out = tmp_path / "eval"
    assert main(["eval", "--out", str(out), "--pair", str(tmp_path / "pred.feat"),
                 str(tmp_path / "gt.feat")]) == 0
    report = dict(line.split("\t") for line in
                  (out / "eval_report.txt").read_text().strip().split("\n")
                  if not line.startswith("#"))
    header, row = [line.split("\t") for line in
                   (out / "per_utterance.tsv").read_text().strip().split("\n")]
    per_utt = dict(zip(header, row))
    assert float(report["F0 RMSE (Hz)"]) == pytest.approx(10.0, rel=1e-9)
    assert report["F0 RMSE (Hz)"] == per_utt["F0 RMSE (Hz)"]
    assert report["F0 CORR"] == per_utt["F0 CORR"] == "NA"


def test_eval_manifest_mode_reports_all_keys(tmp_path, corpus_dir, run_dir):
    out = tmp_path / "eval"
    assert main(["eval", "--out", str(out),
                 "--manifest", str(corpus_dir / "manifest.tsv"),
                 "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--split", "all"]) == 0
    report = (out / "eval_report.txt").read_text()
    lines = dict(
        line.split("\t") for line in report.strip().split("\n")
        if not line.startswith("#")
    )
    assert set(lines) == set(REPORT_KEYS)
    for key in REPORT_KEYS:
        assert lines[key] != "NA"
    per_utt = (out / "per_utterance.tsv").read_text().strip().split("\n")
    assert len(per_utt) == 1 + 6  # header plus one row per utterance


def test_eval_manifest_mode_encodes_once_per_utterance(tmp_path, corpus_dir,
                                                       run_dir, monkeypatch):
    # one encoder pass per utterance, and the same report, table and GV
    # bytes as running the aligned synthesis and the duration prediction
    # as two passes
    args = ["--manifest", str(corpus_dir / "manifest.tsv"),
            "--checkpoint", str(run_dir / "checkpoint.bin"), "--split", "all"]
    encodes = []
    encode = model.encode
    monkeypatch.setattr(model, "encode",
                        lambda *a, **k: encodes.append(1) or encode(*a, **k))
    assert main(["eval", "--out", str(tmp_path / "one"), *args]) == 0
    assert len(encodes) == 6

    def two_passes(tokens, params, config, durations):
        return (model.synthesize_with_durations(tokens, params, config,
                                                durations),
                model.predicted_durations(tokens, params, config))

    monkeypatch.setattr(cli, "synthesize", two_passes)
    assert main(["eval", "--out", str(tmp_path / "two"), *args]) == 0
    one, two = tree_bytes(tmp_path / "one"), tree_bytes(tmp_path / "two")
    assert sorted(one) == ["eval_report.txt", "gv.tsv", "per_utterance.tsv"]
    assert one == two


def test_eval_mixed_pairs_continue_after_failure(tmp_path, corpus_dir, capsys):
    gt0 = corpus_dir / "features" / "song_0000.feat"
    gt1 = corpus_dir / "features" / "song_0001.feat"
    out = tmp_path / "eval"
    code = main(["eval", "--out", str(out),
                 "--pair", str(gt0), str(gt1),   # length mismatch
                 "--pair", str(gt0), str(gt0)])
    assert code == 0
    assert "frame counts differ" in capsys.readouterr().err
    assert (out / "eval_report.txt").exists()


def test_eval_pair_with_a_nan_feature_file_fails_that_pair_only(
        tmp_path, corpus_dir, capsys):
    gt0 = corpus_dir / "features" / "song_0000.feat"
    feats = load_features(gt0)
    streams = {name: getattr(feats, name) for name in ("mgc", "bap", "logf0", "vuv")}
    streams["logf0"] = streams["logf0"].copy()
    streams["logf0"][7] = np.nan
    bad = tmp_path / "nan_song.feat"
    with open(bad, "wb") as fh:  # save_features would refuse the NaN
        write_magic(fh, FEATURE_MAGIC)
        write_u32(fh, feats.num_frames)
        for name, stream in streams.items():
            write_named_tensor(fh, name, stream)
    out = tmp_path / "eval"
    assert main(["eval", "--out", str(out), "--pair", str(bad), str(gt0),
                 "--pair", str(gt0), str(gt0)]) == 0
    assert "logf0 is not finite at frame 7" in capsys.readouterr().err
    table = (out / "per_utterance.tsv").read_text()
    assert "song_0000" in table and "nan_song" not in table


def test_synth_refuses_a_checkpoint_with_a_nan_parameter(tmp_path, corpus_dir,
                                                         run_dir, capsys):
    # save_checkpoint would refuse the NaN: write a marker, then overwrite it
    ckpt = load_checkpoint(run_dir / "checkpoint.bin")
    ckpt.params["out.w"] = ckpt.params["out.w"].copy()  # loaded read-only
    ckpt.params["out.w"][0, 1] = 12345.678
    bad = tmp_path / "nan.bin"
    save_checkpoint(bad, ckpt)
    data = bad.read_bytes()
    assert data.count(struct.pack("<d", 12345.678)) == 1
    bad.write_bytes(data.replace(struct.pack("<d", 12345.678),
                                 struct.pack("<d", np.nan)))
    out = tmp_path / "x.feat"
    assert main(["synth", "--score", str(corpus_dir / "scores" / "song_0000.score"),
                 "--checkpoint", str(bad), "--out", str(out)]) == 1
    assert "param.out.w is not finite at flat index 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("echo", [5, "pad", ["pad", 1], {"pad": 0}])
def test_synth_refuses_a_phoneme_vocab_echo_that_is_not_a_list_of_names(
        tmp_path, corpus_dir, run_dir, capsys, echo):
    ckpt = load_checkpoint(run_dir / "checkpoint.bin")
    ckpt.config["phoneme_vocab"] = echo
    bad = tmp_path / "echo.bin"
    save_checkpoint(bad, ckpt)
    out = tmp_path / "x.feat"
    assert main(["synth", "--score", str(corpus_dir / "scores" / "song_0000.score"),
                 "--checkpoint", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: checkpoint's phoneme_vocab echo is not a list of phoneme names\n")
    assert not out.exists()


def test_eval_without_inputs_is_runtime_error(tmp_path, capsys):
    assert main(["eval", "--out", str(tmp_path / "e")]) == 1
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_eval_of_a_manifest_that_fails_to_load_makes_no_report_dir(
        tmp_path, run_dir, capsys):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("scores/a.score\tfeatures/a.feat\n")
    assert main(["eval", "--out", str(tmp_path / "e"), "--manifest", str(manifest),
                 "--checkpoint", str(run_dir / "checkpoint.bin")]) == 1
    assert f"{manifest}:1: expected 3 tab-separated fields" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_eval_manifest_without_checkpoint_fails(tmp_path, corpus_dir, capsys):
    assert main(["eval", "--out", str(tmp_path / "e"),
                 "--manifest", str(corpus_dir / "manifest.tsv")]) == 1


def test_synth_with_truncated_checkpoint_is_runtime_error(tmp_path, corpus_dir,
                                                          run_dir, capsys):
    broken = tmp_path / "broken.bin"
    broken.write_bytes((run_dir / "checkpoint.bin").read_bytes()[:5000])
    assert main(["synth", "--score", str(corpus_dir / "scores" / "song_0000.score"),
                 "--checkpoint", str(broken), "--out", str(tmp_path / "x.feat")]) == 1
    assert "truncated" in capsys.readouterr().err


def _edited_checkpoint(run_dir, path, edit):
    ckpt = load_checkpoint(run_dir / "checkpoint.bin")
    edit(ckpt.config)
    save_checkpoint(path, ckpt)
    return path


def test_checkpoint_echo_with_output_width_still_synthesizes_and_resumes(
        tmp_path, corpus_dir, run_dir):
    # checkpoints written while the output width was a config field hold
    # "output_dim": 67 in their echo
    old = _edited_checkpoint(
        run_dir, tmp_path / "old.bin",
        lambda config: config["train"]["model"].update(output_dim=67))
    score = corpus_dir / "scores" / "song_0000.score"
    for name, ckpt in (("old.feat", old), ("new.feat", run_dir / "checkpoint.bin")):
        assert main(["synth", "--score", str(score), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "old.feat").read_bytes() == \
        (tmp_path / "new.feat").read_bytes()
    assert main(["train", "--manifest", str(corpus_dir / "manifest.tsv"),
                 "--out", str(tmp_path / "resumed"), "--steps", "9",
                 "--seed", "5", "--resume", str(old)]) == 0


def test_synth_and_eval_name_a_missing_train_echo(tmp_path, corpus_dir, run_dir,
                                                  capsys):
    bare = _edited_checkpoint(run_dir, tmp_path / "bare.bin",
                              lambda config: config.pop("train"))
    assert main(["synth", "--score", str(corpus_dir / "scores" / "song_0000.score"),
                 "--checkpoint", str(bare), "--out", str(tmp_path / "x.feat")]) == 1
    assert "no model config echo in 'train'" in capsys.readouterr().err
    assert main(["eval", "--out", str(tmp_path / "e"), "--checkpoint", str(bare),
                 "--manifest", str(corpus_dir / "manifest.tsv")]) == 1
    assert "no model config echo in 'train'" in capsys.readouterr().err


def test_synth_into_missing_directory_names_it(tmp_path, corpus_dir, run_dir,
                                               capsys):
    missing = tmp_path / "missing"
    assert main(["synth", "--score", str(corpus_dir / "scores" / "song_0000.score"),
                 "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--out", str(missing / "x.feat")]) == 1
    err = capsys.readouterr().err
    assert f"no such directory: {missing}\n" in err and ".tmp" not in err


def test_lexicon_above_default_vocab_size_needs_a_larger_model(tmp_path, capsys):
    lexicon = tmp_path / "big.tsv"
    lexicon.write_text("".join(f"s{k}\tc{k} a\n" for k in range(77)))
    corpus = tmp_path / "corpus"
    assert main(["gen-data", "--songs", "3", "--seed", "2", "--out", str(corpus),
                 "--lexicon", str(lexicon)]) == 0
    base = ["train", "--manifest", str(corpus / "manifest.tsv"), "--steps", "2",
            "--lexicon", str(lexicon)]
    assert main(base + ["--out", str(tmp_path / "small")]) == 1
    assert "lexicon has 80 phonemes but phoneme_vocab_size is 72" \
        in capsys.readouterr().err
    assert not (tmp_path / "small").exists()
    assert main(base + ["--out", str(tmp_path / "large"),
                        "--set", "phoneme_vocab_size", "100"]) == 0


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="needs at least two CPUs")
def test_cli_train_bytes_do_not_depend_on_cpu_count_without_blas_settings(
        tmp_path, corpus_dir):
    # the package itself pins BLAS to one thread, so a shell that sets no
    # BLAS variable gets the same bits on one CPU as on all of them, and so
    # does a program that imports numpy before singsynth, on two processes
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    one_cpu = min(os.sched_getaffinity(0))
    numpy_first = ("import numpy, runpy, singsynth; assert singsynth.BLAS_ONE_THREAD; "
                   "runpy.run_module('singsynth', run_name='__main__')")
    runs = {}
    for name, entry, cpus in (("one", ["-m", "singsynth"], {one_cpu}),
                              ("all", ["-m", "singsynth"], None),
                              ("numpy first", ["-c", numpy_first], None)):
        out = tmp_path / name
        subprocess.run(
            [sys.executable, *entry, "train", "--manifest",
             str(corpus_dir / "manifest.tsv"), "--steps", "6", "--seed", "5",
             "--out", str(out)],
            env=env, check=True, stdout=subprocess.DEVNULL,
            preexec_fn=cpus and (lambda: os.sched_setaffinity(0, cpus)))
        runs[name] = [(out / f).read_bytes()
                      for f in ("loss_log.tsv", "checkpoint.bin")]
    assert runs["one"] == runs["all"] == runs["numpy first"]


def test_verbose_prints_the_traceback_of_a_failure(tmp_path, capsys):
    argv = ["eval", "--out", str(tmp_path / "e")]
    assert main(argv) == 1
    quiet = capsys.readouterr().err
    assert "Traceback" not in quiet
    assert main(["--verbose", *argv]) == 1
    loud = capsys.readouterr().err
    assert "Traceback (most recent call last)" in loud
    assert "CliError" in loud
    # the usual error line still comes last
    assert loud.endswith(quiet) and quiet.startswith("error: ")
