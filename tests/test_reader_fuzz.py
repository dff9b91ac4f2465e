"""Fuzzing of the on-disk readers: whatever the bytes, a reader raises only
its documented errors (ValueError and its subclasses, such as
ContainerError, or FileNotFoundError), never IndexError, OverflowError or
MemoryError, and never allocates what the file cannot hold."""

import argparse
import io
import itertools
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from singsynth.binio import MAX_RANK, ContainerError, read_named_tensor
from singsynth.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from singsynth.cli import CONFIG_DEFAULTS, CONFIG_TYPES, _load_run_config, \
    format_config, main, read_config
from singsynth.corpus import CorpusManifest, ManifestEntry, load_manifest, \
    load_token_sidecar, save_manifest, save_token_sidecar
from singsynth.features import AcousticFeatureSequence, load_features, \
    save_features
from singsynth.score import PhonemeTokenSequence, demo_lexicon, load_lexicon, \
    parse_score, score_to_tokens, syllable_spans

DOCUMENTED = (ValueError, FileNotFoundError)


def u32(value):
    return struct.pack("<I", value)


def tensor_bytes(name, shape, payload=b""):
    encoded = name.encode("utf-8")
    return (u32(len(encoded)) + encoded + u32(len(shape))
            + b"".join(u32(d) for d in shape) + payload)


def small_checkpoint_bytes(tmp_path, step=3.0):
    path = tmp_path / "base.ckpt"
    save_checkpoint(path, Checkpoint(
        step=1, params={"w": np.arange(6.0).reshape(2, 3)},
        adam_m={"w": np.zeros((2, 3))}, adam_v={"w": np.ones((2, 3))},
        config={"train": {"seed": 0}},
    ))
    data = path.read_bytes()
    return data.replace(struct.pack("<d", 1.0), struct.pack("<d", step), 1)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def only_documented_errors(read, *args):
    try:
        read(*args)
    except DOCUMENTED:
        pass


# --- token sidecar ---------------------------------------------------------

def test_token_sidecar_rejects_wrong_column_count_naming_line(tmp_path):
    path = tmp_path / "x.tokens"
    path.write_text("5\t69\t10\t4\t0\n5\t69\t10\t4\n")
    with pytest.raises(ValueError, match=":2: expected 5 tab-separated"):
        load_token_sidecar(path)


sidecar_lines = st.lists(
    st.lists(st.one_of(st.integers(-3, 300).map(str),
                       st.text(alphabet="0123456789-x \t", max_size=4)),
             max_size=7).map("\t".join),
    max_size=6,
).map("\n".join)


@settings(max_examples=150, deadline=None)
@given(text=sidecar_lines)
@example(text="1\t2\t3\t4")
@example(text="1\t2\t3\t4\t0\n1\t2\t3\t4")
def test_token_sidecar_raises_only_documented_errors(fuzz_dir, text):
    path = fuzz_dir / "fuzz.tokens"
    path.write_text(text, encoding="utf-8")
    only_documented_errors(load_token_sidecar, path)


# --- named tensors and checkpoints ----------------------------------------

def test_named_tensor_larger_than_file_names_tensor():
    fh = io.BytesIO(tensor_bytes("huge", (2 ** 31, 2 ** 31), b"\0" * 16))
    with pytest.raises(ContainerError, match="tensor data for 'huge'"):
        read_named_tensor(fh)


@settings(max_examples=200, deadline=None)
@given(name_len=st.one_of(st.integers(0, 8), st.integers(0, 2 ** 32 - 1)),
       shape=st.lists(st.one_of(st.integers(0, 4), st.integers(0, 2 ** 32 - 1)),
                      max_size=9),
       tail=st.binary(max_size=64))
def test_named_tensor_raises_only_documented_errors(name_len, shape, tail):
    fh = io.BytesIO(u32(name_len) + b"name"[:name_len] + u32(len(shape))
                    + b"".join(u32(d) for d in shape) + tail)
    only_documented_errors(read_named_tensor, fh)


@pytest.mark.parametrize("step", [math.inf, -math.inf, math.nan, -1.0, 2.5])
def test_checkpoint_rejects_step_that_is_not_a_count(tmp_path, step):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(small_checkpoint_bytes(tmp_path, step))
    with pytest.raises(ContainerError, match="checkpoint step"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("group", ["param", "adam_v"])
def test_checkpoint_rejects_non_finite_tensor_naming_it(tmp_path, group, value):
    # save_checkpoint refuses such a tensor, so the file is written with a
    # 7.0 in its place and that one value is overwritten
    tensors = {name: {"w": np.ones((2, 3))} for name in ("param", "adam_m", "adam_v")}
    tensors[group]["w"][1, 1] = 7.0
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, Checkpoint(step=1, params=tensors["param"],
                                     adam_m=tensors["adam_m"],
                                     adam_v=tensors["adam_v"]))
    data = path.read_bytes()
    assert data.count(struct.pack("<d", 7.0)) == 1
    path.write_bytes(data.replace(struct.pack("<d", 7.0), struct.pack("<d", value)))
    with pytest.raises(ContainerError,
                       match=rf"tensor {group}\.w is not finite at flat index 4$"):
        load_checkpoint(path)


@pytest.mark.parametrize("blob", [b"[" * 100_000, b"[1]", b"\xff", b"{"])
def test_checkpoint_rejects_config_echo_that_is_not_a_json_object(tmp_path, blob):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"SVSCKPT1" + u32(1) + u32(len(blob)) + blob + u32(0))
    with pytest.raises(ContainerError, match="config echo is not"):
        load_checkpoint(path)


tensor_names = st.text(st.characters(codec="utf-8"), min_size=1, max_size=6)
finite_tensors = st.dictionaries(tensor_names, hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=3),
    elements=st.floats(allow_nan=False, allow_infinity=False)), max_size=3)


@settings(max_examples=60, deadline=None)
@given(step=st.integers(0, 2 ** 53), params=finite_tensors, adam_m=finite_tensors,
       adam_v=finite_tensors, config=st.dictionaries(st.text(), st.integers()))
def test_checkpoint_of_finite_tensors_saves_and_loads_back_equal(
        fuzz_dir, step, params, adam_m, adam_v, config):
    path = fuzz_dir / "round.ckpt"
    save_checkpoint(path, Checkpoint(step, params, adam_m, adam_v, config))
    loaded = load_checkpoint(path)
    assert (loaded.step, loaded.config) == (step, config)
    for saved, read in ((params, loaded.params), (adam_m, loaded.adam_m),
                        (adam_v, loaded.adam_v)):
        assert saved.keys() == read.keys()
        for name, array in saved.items():
            assert read[name].shape == array.shape
            assert read[name].tobytes() == array.tobytes()


@settings(max_examples=60, deadline=None)
@given(params=finite_tensors.filter(lambda d: any(a.size for a in d.values())),
       group=st.sampled_from(["params", "adam_m", "adam_v"]), data=st.data())
def test_checkpoint_with_a_non_finite_tensor_is_not_written(
        tmp_path_factory, params, group, data):
    folder = tmp_path_factory.mktemp("refused")
    tensors = {"params": {}, "adam_m": {}, "adam_v": {}}
    tensors[group] = {name: array.copy() for name, array in params.items()}
    name = data.draw(st.sampled_from(sorted(n for n, a in params.items() if a.size)))
    index = data.draw(st.integers(0, params[name].size - 1))
    tensors[group][name].reshape(-1)[index] = data.draw(
        st.sampled_from([math.nan, math.inf, -math.inf]))
    prefix = {"params": "param", "adam_m": "adam_m", "adam_v": "adam_v"}[group]
    with pytest.raises(ContainerError, match=re.escape(
            f"tensor {prefix}.{name} is not finite at flat index {index}")):
        save_checkpoint(folder / "bad.ckpt", Checkpoint(1, **tensors))
    assert list(folder.iterdir()) == []


# per phoneme: phoneme id, pitch id, note frames, duration, starts a syllable
token_rows = st.lists(st.tuples(
    st.integers(0, 2 ** 40), st.integers(0, 127), st.integers(1, 2 ** 40),
    st.integers(1, 2 ** 40), st.booleans()), min_size=1, max_size=8)


def tokens_of(rows, durations=True):
    phonemes, pitches, frames, lengths, starts = map(list, zip(*rows))
    return PhonemeTokenSequence(
        phonemes, pitches, frames, syllable_spans(list(itertools.accumulate(starts))),
        lengths if durations else None)


@settings(max_examples=60, deadline=None)
@given(rows=token_rows)
def test_token_sidecar_of_tokens_with_durations_saves_and_loads_back_equal(
        fuzz_dir, rows):
    path = fuzz_dir / "round.tokens.tsv"
    save_token_sidecar(path, tokens_of(rows))
    assert load_token_sidecar(path) == tokens_of(rows)


@settings(max_examples=30, deadline=None)
@given(rows=token_rows)
def test_token_sidecar_without_durations_is_not_written(tmp_path_factory, rows):
    folder = tmp_path_factory.mktemp("refused")
    with pytest.raises(ValueError, match="needs ground-truth durations"):
        save_token_sidecar(folder / "x.tokens.tsv", tokens_of(rows, durations=False))
    assert list(folder.iterdir()) == []


TOKEN_LISTS = ("phoneme_ids", "pitch_ids", "note_frame_counts",
               "gt_phoneme_durations")


@settings(max_examples=60, deadline=None)
@given(rows=token_rows, data=st.data())
def test_token_sidecar_of_bool_or_float_ids_is_not_written(tmp_path_factory,
                                                          rows, data):
    # True would be written as "True" and 2.0 as "2.0", which the reader
    # refuses; an encoder cast would train 2.5 as id 2
    columns = [list(column) for column in zip(*rows)]
    column = data.draw(st.integers(0, len(TOKEN_LISTS) - 1))
    position = data.draw(st.integers(0, len(rows) - 1))
    columns[column][position] = data.draw(st.one_of(
        st.booleans(), st.floats(-1e3, 1e3), st.sampled_from([np.True_, np.float64(2)])))
    folder = tmp_path_factory.mktemp("refused")
    with pytest.raises(ValueError, match=f"{TOKEN_LISTS[column]} holds a"):
        save_token_sidecar(folder / "x.tokens.tsv", tokens_of(list(zip(*columns))))
    assert list(folder.iterdir()) == []


# manifest fields that hold, between two other characters, whitespace and
# separators that str.splitlines would break a line at; a path is a file
# name under the manifest's directory or under sub/
field_char = st.characters(blacklist_characters="/\x00")
field_edge = field_char.filter(lambda c: not c.isspace())
field_text = st.one_of(field_edge, st.tuples(field_edge, st.text(st.one_of(
    st.sampled_from(" \x0b\x0c\x1c\x85\u2028"), field_char), max_size=8),
    field_edge).map("".join))
manifest_paths = st.tuples(st.sampled_from(["", "sub/"]), field_text.filter(
    lambda name: name not in (".", "..", "sub"))).map("".join)


@settings(max_examples=100, deadline=None)
@given(fields=st.lists(st.tuples(manifest_paths, manifest_paths, field_text),
                       min_size=1, max_size=4))
def test_manifest_of_accepted_entries_saves_and_loads_back_equal(
        tmp_path_factory, fields):
    try:
        entries = [ManifestEntry(*row) for row in fields]
    except ValueError:
        return   # refused before any manifest can hold it
    folder = tmp_path_factory.mktemp("manifest")
    for entry in entries:
        for rel in (entry.score_path, entry.feature_path):
            (folder / rel).parent.mkdir(exist_ok=True)
            (folder / rel).touch()
    manifest = CorpusManifest(folder, entries)
    save_manifest(folder / "manifest.tsv", manifest)
    assert load_manifest(folder / "manifest.tsv") == manifest


@pytest.mark.parametrize("group, prefix", [("params", "param"), ("adam_m", "adam_m"),
                                           ("adam_v", "adam_v")])
def test_checkpoint_with_a_tensor_above_the_rank_bound_is_not_written(
        tmp_path, group, prefix):
    # the reader's bound: rank MAX_RANK round-trips, one more is refused
    tensors = {"params": {"deep": np.ones((1,) * MAX_RANK)}, "adam_m": {},
               "adam_v": {}}
    path = tmp_path / "deep.ckpt"
    save_checkpoint(path, Checkpoint(1, **tensors))
    assert load_checkpoint(path).params["deep"].shape == (1,) * MAX_RANK
    path.unlink()
    tensors[group]["w"] = np.ones((1,) * (MAX_RANK + 1))
    with pytest.raises(ContainerError, match=re.escape(
            f"implausible tensor rank {MAX_RANK + 1} for '{prefix}.w'")):
        save_checkpoint(path, Checkpoint(1, **tensors))
    assert list(tmp_path.iterdir()) == []   # neither the file nor its .tmp


def test_checkpoint_fixture_round_trips(tmp_path):
    path = tmp_path / "ok.ckpt"
    path.write_bytes(small_checkpoint_bytes(tmp_path))
    assert load_checkpoint(path).step == 3


def mutated(data, base):
    """``base`` cut at a drawn length, extended by drawn bytes, with up to six
    bytes overwritten."""
    cut = data.draw(st.integers(0, len(base)))
    edits = data.draw(st.lists(st.tuples(st.integers(0, len(base) - 1),
                                         st.integers(0, 255)), max_size=6))
    blob = bytearray(base[:cut] + data.draw(st.binary(max_size=32)))
    for pos, value in edits:
        if pos < len(blob):
            blob[pos] = value
    return bytes(blob)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_checkpoint_raises_only_documented_errors(fuzz_dir, data):
    path = fuzz_dir / "fuzz.ckpt"
    path.write_bytes(mutated(data, small_checkpoint_bytes(fuzz_dir)))
    only_documented_errors(load_checkpoint, path)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_feature_file_raises_only_documented_errors(fuzz_dir, data):
    base = fuzz_dir / "base.feat"
    save_features(base, AcousticFeatureSequence(
        mgc=np.zeros((2, 60)), bap=np.zeros((2, 5)), logf0=np.zeros(2),
        vuv=np.ones(2)))
    path = fuzz_dir / "fuzz.feat"
    path.write_bytes(mutated(data, base.read_bytes()))
    only_documented_errors(load_features, path)


# --- config file -----------------------------------------------------------

config_lines = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(sorted(CONFIG_DEFAULTS) + ["bogus"]),
                  st.one_of(st.integers(-5, 5).map(str),
                            st.floats(allow_nan=True).map(repr),
                            st.text(max_size=6))).map(" ".join),
        st.text(max_size=12),
    ),
    max_size=6,
).map("\n".join)


@settings(max_examples=150, deadline=None)
@given(text=config_lines)
def test_config_reader_raises_only_documented_errors(fuzz_dir, text):
    path = fuzz_dir / "fuzz.cfg"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    only_documented_errors(read_config, path)


config_value = {int: st.integers(-2, 2 ** 70), float: st.floats()}
config_overrides = st.lists(st.sampled_from(sorted(CONFIG_TYPES)).flatmap(
    lambda key: st.tuples(st.just(key), config_value[CONFIG_TYPES[key]])),
    max_size=4).map(dict)


@settings(max_examples=100, deadline=None)
@given(overrides=config_overrides)
@example(overrides={"attention_heads": 0})
@example(overrides={"seed": -1})
def test_config_of_accepted_values_writes_and_reads_back_equal(tmp_path_factory,
                                                               overrides):
    folder = tmp_path_factory.mktemp("config")
    path = folder / "config.txt"
    values = dict(CONFIG_DEFAULTS, **overrides)
    path.write_text(format_config(values), encoding="utf-8")
    try:
        accepted, _, _ = _load_run_config(
            argparse.Namespace(config=path, overrides=None), {})
    except ValueError:
        # refused by a constructor: neither command writes anything
        for command in (["gen-data", "--songs", "1"],
                        ["train", "--manifest", str(folder / "manifest.tsv")]):
            assert main(command + ["--config", str(path),
                                   "--out", str(folder / "out")]) == 1
        assert [p.name for p in folder.iterdir()] == ["config.txt"]
        return
    assert read_config(path) == accepted == values


# --- text readers ----------------------------------------------------------

score_lines = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["tempo", "la", "mi", "-", "zz", "#"]),
                  st.sampled_from(["", "0", "69", "1e309", "nan", "-2", "x",
                                   "1e-300", "1e-310"]),
                  st.sampled_from(["", "0.5", "0", "-1", "inf", "nan", "1e-300",
                                   "1e308"]),
                  st.sampled_from(["", "~", "~ ~"])).map(" ".join),
        st.text(max_size=12),
    ),
    max_size=6,
).map("\n".join)


@settings(max_examples=200, deadline=None)
@given(text=score_lines)
@example(text="tempo 120\nla 69 1e-300")
@example(text="tempo 120\nla 69 inf")
@example(text="tempo 120\nla 69 1e308")
@example(text="tempo 1e-310\nla 69 0.5")
@example(text="tempo 1e-300\nla 69 1")
def test_score_parser_raises_only_documented_errors(text):
    # what parses is also tokenised, which turns beats into frame counts,
    # and those become the int64 array the model reads
    def read():
        tokens = score_to_tokens(parse_score(text), demo_lexicon())
        np.asarray(tokens.note_frame_counts, dtype=np.int64)

    only_documented_errors(read)


@settings(max_examples=150, deadline=None)
@given(text=st.lists(st.one_of(
    st.tuples(st.sampled_from(["la", "", "da da"]),
              st.sampled_from(["l a", "", "a", "l\ta"])).map("\t".join),
    st.text(max_size=10)), max_size=5).map("\n".join))
def test_lexicon_reader_raises_only_documented_errors(fuzz_dir, text):
    path = fuzz_dir / "fuzz.lexicon"
    path.write_text(text, encoding="utf-8")
    only_documented_errors(load_lexicon, path)


@settings(max_examples=150, deadline=None)
@given(text=st.lists(st.one_of(
    st.tuples(st.sampled_from(["base.ckpt", "missing", "", "."]),
              st.sampled_from(["base.ckpt", "missing", ""]),
              st.sampled_from(["train", "holdout", "x"])).map("\t".join),
    st.text(max_size=10)), max_size=4).map("\n".join))
def test_manifest_reader_raises_only_documented_errors(fuzz_dir, text):
    (fuzz_dir / "base.ckpt").write_bytes(b"")
    path = fuzz_dir / "fuzz.manifest"
    path.write_text(text, encoding="utf-8")
    only_documented_errors(load_manifest, path)
