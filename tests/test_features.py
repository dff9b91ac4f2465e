from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from singsynth.binio import ContainerError, atomic_open, write_magic, \
    write_named_tensor, write_u32
from singsynth.features import FEATURE_MAGIC, AcousticFeatureSequence, \
    load_features, save_features


def random_features(rng, t=25):
    return AcousticFeatureSequence(
        mgc=rng.normal(size=(t, 60)),
        bap=rng.normal(size=(t, 5)),
        logf0=rng.normal(loc=5.5, size=t),
        vuv=(rng.random(t) > 0.4).astype(float),
    )


def test_feature_validation_catches_bad_shapes(rng):
    with pytest.raises(ValueError):
        AcousticFeatureSequence(mgc=rng.normal(size=(5, 59)),
                                bap=rng.normal(size=(5, 5)),
                                logf0=rng.normal(size=5), vuv=np.ones(5))
    with pytest.raises(ValueError):
        AcousticFeatureSequence(mgc=rng.normal(size=(5, 60)),
                                bap=rng.normal(size=(5, 5)),
                                logf0=rng.normal(size=4), vuv=np.ones(5))
    with pytest.raises(ValueError):
        AcousticFeatureSequence(mgc=rng.normal(size=(0, 60)),
                                bap=rng.normal(size=(0, 5)),
                                logf0=rng.normal(size=0), vuv=np.ones(0))


def test_feature_vuv_must_be_probability(rng):
    with pytest.raises(ValueError):
        AcousticFeatureSequence(mgc=rng.normal(size=(3, 60)),
                                bap=rng.normal(size=(3, 5)),
                                logf0=rng.normal(size=3),
                                vuv=np.array([0.5, 1.2, 0.0]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("stream", ["mgc", "bap", "logf0", "vuv"])
def test_feature_validation_names_a_non_finite_stream_and_frame(rng, stream,
                                                                value):
    feats = random_features(rng, t=5)
    streams = {name: getattr(feats, name).copy()
               for name in ("mgc", "bap", "logf0", "vuv")}
    streams[stream][3] = value
    with pytest.raises(ValueError, match=rf"^{stream} is not finite at frame 3$"):
        AcousticFeatureSequence(**streams)


@pytest.mark.parametrize("stream", ["mgc", "bap", "logf0", "vuv"])
def test_load_features_refuses_a_nan_in_any_stream(tmp_path, stream):
    blocks = {"mgc": np.zeros((4, 60)), "bap": np.zeros((4, 5)),
              "logf0": np.zeros(4), "vuv": np.ones(4)}
    blocks[stream][2] = np.nan
    path = tmp_path / "nan.feat"
    with open(path, "wb") as fh:
        write_magic(fh, FEATURE_MAGIC)
        write_u32(fh, 4)
        for name, array in blocks.items():
            write_named_tensor(fh, name, array)
    with pytest.raises(ValueError, match=f"{stream} is not finite at frame 2"):
        load_features(path)


def test_feature_streams_are_read_only_copies_of_their_input(rng):
    given = {"mgc": np.asfortranarray(rng.normal(size=(6, 60))),
             "bap": rng.normal(size=(6, 5)), "logf0": rng.normal(size=6),
             "vuv": [0.0, 1.0, 1.0, 0.0, 1.0, 0.5]}
    before = {name: np.array(value) for name, value in given.items()}
    feats = AcousticFeatureSequence(**given)
    with pytest.raises(FrozenInstanceError):
        feats.vuv = np.zeros(6)
    for name, value in given.items():
        stream = getattr(feats, name)
        assert stream.dtype == np.float64 and stream.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            stream[2] = np.nan
        value[2] = np.nan   # the caller's array, edited after construction
        np.testing.assert_array_equal(stream, before[name])


def test_equal_feature_sequences_compare_by_identity(rng):
    streams = {"mgc": rng.normal(size=(4, 60)), "bap": rng.normal(size=(4, 5)),
               "logf0": rng.normal(size=4), "vuv": [0.0, 1.0, 1.0, 0.0]}
    a = AcousticFeatureSequence(**streams)
    b = AcousticFeatureSequence(**streams)
    assert a == a and a != b and not (a == b)
    assert {a, b, a} == {a, b} and hash(a) == hash(a)


def test_feature_file_round_trip(tmp_path, rng):
    feats = random_features(rng)
    path = tmp_path / "x.feat"
    save_features(path, feats)
    loaded = load_features(path)
    np.testing.assert_array_equal(loaded.mgc, feats.mgc)
    np.testing.assert_array_equal(loaded.bap, feats.bap)
    np.testing.assert_array_equal(loaded.logf0, feats.logf0)
    np.testing.assert_array_equal(loaded.vuv, feats.vuv)


def test_feature_file_save_is_deterministic(tmp_path, rng):
    feats = random_features(rng)
    a, b = tmp_path / "a.feat", tmp_path / "b.feat"
    save_features(a, feats)
    save_features(b, feats)
    assert a.read_bytes() == b.read_bytes()


def test_feature_file_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.feat"
    path.write_bytes(b"NOTAFEAT" + b"\x00" * 32)
    with pytest.raises(ContainerError):
        load_features(path)


def test_feature_file_rejects_truncation(tmp_path, rng):
    path = tmp_path / "x.feat"
    save_features(path, random_features(rng))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ContainerError):
        load_features(path)


def test_voiced_mask_threshold(rng):
    feats = AcousticFeatureSequence(mgc=rng.normal(size=(4, 60)),
                                    bap=rng.normal(size=(4, 5)),
                                    logf0=rng.normal(size=4),
                                    vuv=[0.0, 0.49, 0.5, 1.0])
    np.testing.assert_array_equal(feats.voiced_mask(),
                                  [False, False, True, True])


@pytest.mark.parametrize("old", [None, b"old bytes"])
def test_atomic_open_leaves_the_path_as_it_was_when_its_block_raises(tmp_path,
                                                                     old):
    path = tmp_path / "x.bin"
    if old is not None:
        path.write_bytes(old)
    with pytest.raises(RuntimeError, match="midway"):
        with atomic_open(path) as fh:
            fh.write(b"new")
            raise RuntimeError("midway")
    assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["x.bin"])
    assert old is None or path.read_bytes() == old
