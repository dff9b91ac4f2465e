"""Per-frame acoustic features at a fixed 15 ms frame shift: 60-d
mel-generalized cepstrum, 5-d band aperiodicity, scalar log-F0 and a
voiced/unvoiced value, plus their binary file format."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binio import ContainerError, atomic_open, read_magic, read_named_tensor, \
    read_u32, write_magic, write_named_tensor, write_u32

FRAME_SHIFT_S = 0.015
MGC_DIM = 60
BAP_DIM = 5
# a frame is voiced where its vuv value is at least this
VUV_THRESHOLD = 0.5

FEATURE_MAGIC = b"SVSFEAT1"


@dataclass(frozen=True, eq=False)
class AcousticFeatureSequence:
    """T frames of vocoder features.

    ``logf0`` is natural-log Hz and only meaningful where ``vuv`` marks a
    voiced frame. Ground truth carries hard 0/1 voicing; model output carries
    a probability in [0, 1]. Every value must be finite, so a file that is
    loaded or saved and a model output all pass the same check. Each stream
    is a read-only float64 copy, so no edit of it or of the caller's array
    can undo that check. Sequences compare and hash by identity.
    """

    mgc: np.ndarray          # T x 60
    bap: np.ndarray          # T x 5
    logf0: np.ndarray        # T
    vuv: np.ndarray          # T, in [0, 1]

    def __post_init__(self):
        for name in ("mgc", "bap", "logf0", "vuv"):
            stream = np.array(getattr(self, name), dtype=np.float64, order="C")
            stream.flags.writeable = False
            object.__setattr__(self, name, stream)
        t = self.mgc.shape[0]
        if t < 1:
            raise ValueError("feature sequence must contain at least one frame")
        if self.mgc.shape != (t, MGC_DIM):
            raise ValueError(f"mgc must be T x {MGC_DIM}, got {self.mgc.shape}")
        if self.bap.shape != (t, BAP_DIM):
            raise ValueError(f"bap must be T x {BAP_DIM}, got {self.bap.shape}")
        if self.logf0.shape != (t,) or self.vuv.shape != (t,):
            raise ValueError("logf0/vuv must be length-T vectors")
        for name in ("mgc", "bap", "logf0", "vuv"):
            finite = np.isfinite(getattr(self, name))
            if not finite.all():
                frame = finite.reshape(t, -1).all(axis=1).argmin()
                raise ValueError(f"{name} is not finite at frame {frame}")
        if np.any(self.vuv < 0) or np.any(self.vuv > 1):
            raise ValueError("vuv values must lie in [0, 1]")

    @property
    def num_frames(self) -> int:
        return self.mgc.shape[0]

    def voiced_mask(self) -> np.ndarray:
        return self.vuv >= VUV_THRESHOLD


def concatenate_features(seqs) -> AcousticFeatureSequence:
    """The frames of several sequences, end to end."""
    return AcousticFeatureSequence(
        mgc=np.concatenate([s.mgc for s in seqs]),
        bap=np.concatenate([s.bap for s in seqs]),
        logf0=np.concatenate([s.logf0 for s in seqs]),
        vuv=np.concatenate([s.vuv for s in seqs]),
    )


def save_features(path, feats: AcousticFeatureSequence) -> None:
    """Write a feature file atomically (temp file + rename); its streams
    are the read-only arrays that the constructor checked."""
    with atomic_open(path) as fh:
        write_magic(fh, FEATURE_MAGIC)
        write_u32(fh, feats.num_frames)
        write_named_tensor(fh, "mgc", feats.mgc)
        write_named_tensor(fh, "bap", feats.bap)
        write_named_tensor(fh, "logf0", feats.logf0)
        write_named_tensor(fh, "vuv", feats.vuv)


def load_features(path) -> AcousticFeatureSequence:
    with open(path, "rb") as fh:
        version = read_magic(fh, FEATURE_MAGIC)
        if version != 1:
            raise ContainerError(f"unsupported feature file version {version}")
        t = read_u32(fh)
        blocks = dict(read_named_tensor(fh) for _ in range(4))
    missing = {"mgc", "bap", "logf0", "vuv"} - blocks.keys()
    if missing:
        raise ContainerError(f"feature file missing blocks: {sorted(missing)}")
    feats = AcousticFeatureSequence(
        mgc=blocks["mgc"], bap=blocks["bap"],
        logf0=blocks["logf0"], vuv=blocks["vuv"],
    )
    if feats.num_frames != t:
        raise ContainerError(
            f"frame count header {t} disagrees with data {feats.num_frames}"
        )
    return feats
