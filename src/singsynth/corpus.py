"""Deterministic "oracle singer": maps any score to ground-truth acoustic
features, standing in for a recorded corpus so that training and evaluation
are fully self-contained.

The oracle gives consonants a fixed fraction of each note's frames, sings
voiced frames at the note pitch plus a vibrato sinusoid, renders spectra from
per-phoneme templates with linear cross-fades at boundaries, and keeps band
aperiodicity at -60 dB while voiced. Everything is a pure function of
(score, lexicon, config), so regenerated corpora are byte-identical.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .binio import atomic_open
from .features import AcousticFeatureSequence, BAP_DIM, FRAME_SHIFT_S, MGC_DIM, \
    load_features, save_features
from .score import VOWELS, MusicalScore, NoteEvent, PhonemeLexicon, \
    PhonemeTokenSequence, beats_to_frames, event_phonemes, frame_pitch_arrays, \
    round_half_up, score_to_tokens, serialize_score, syllable_spans

VOICED_BAP_DB = -60.0
UNVOICED_BAP_DB = 0.0

# consonants the oracle sings voiced; every other consonant is unvoiced
VOICED_CONSONANTS = frozenset("bdglmnrwyz")


@dataclass(frozen=True)
class OracleConfig:
    seed: int = 0
    vibrato_rate_hz: float = 5.5
    vibrato_depth_log: float = 0.03
    transition_frames: int = 3
    consonant_fraction: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.consonant_fraction < 1.0:
            raise ValueError("consonant_fraction must be in (0, 1)")
        if self.transition_frames < 0:
            raise ValueError("transition_frames must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be >= 0")
        for name in ("vibrato_rate_hz", "vibrato_depth_log"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} {getattr(self, name)!r} must be finite")


def mgc_templates(lexicon: PhonemeLexicon, config: OracleConfig) -> np.ndarray:
    """One fixed random 60-d template per phoneme, in vocabulary order."""
    rng = np.random.default_rng([config.seed, 5])
    return rng.uniform(-0.5, 0.5, size=(len(lexicon.phoneme_vocab), MGC_DIM))


def split_note_frames(phonemes: tuple[str, ...], frames: int,
                      config: OracleConfig) -> list[int]:
    """Partition one note's frames over its phonemes.

    Non-vowel phonemes collectively receive consonant_fraction of the note,
    vowels the remainder; every phoneme gets at least one frame and the
    partition sums exactly to the note's frame count.
    """
    n = len(phonemes)
    if frames < n:
        raise ValueError(
            f"note of {frames} frames cannot carry {n} phonemes"
        )
    if n == 1:
        return [frames]
    consonant_pos = [i for i, ph in enumerate(phonemes) if ph not in VOWELS]
    vowel_pos = [i for i in range(n) if i not in consonant_pos]
    if not consonant_pos or not vowel_pos:
        # uniform split when the note has only one phoneme class
        base, rem = divmod(frames, n)
        return [base + (1 if i < rem else 0) for i in range(n)]
    consonant_total = round_half_up(config.consonant_fraction * frames)
    consonant_total = min(max(consonant_total, len(consonant_pos)),
                          frames - len(vowel_pos))
    out = [0] * n
    for positions, total in ((consonant_pos, consonant_total),
                             (vowel_pos, frames - consonant_total)):
        base, rem = divmod(total, len(positions))
        for j, pos in enumerate(positions):
            out[pos] = base + (1 if j < rem else 0)
    return out


def oracle_sing(score: MusicalScore, lexicon: PhonemeLexicon,
                config: OracleConfig
                ) -> tuple[PhonemeTokenSequence, AcousticFeatureSequence]:
    """Ground truth for a score: tokens with phoneme durations plus features."""
    tokens = score_to_tokens(score, lexicon, FRAME_SHIFT_S)
    voiced_set = VOWELS | VOICED_CONSONANTS

    durations: list[int] = []
    phoneme_names: list[str] = []
    for ev in score.events:
        frames = beats_to_frames(ev.beat_length, score.tempo_bpm, FRAME_SHIFT_S)
        phonemes = event_phonemes(ev, lexicon)
        durations.extend(split_note_frames(phonemes, frames, config))
        phoneme_names.extend(phonemes)
    tokens = replace(tokens, gt_phoneme_durations=durations)

    dur_arr = np.asarray(durations, dtype=np.int64)
    total = int(dur_arr.sum())
    frame_token = np.repeat(np.arange(len(tokens)), dur_arr)
    voiced_per_token = np.array(
        [ph in voiced_set and pitch > 0
         for ph, pitch in zip(phoneme_names, tokens.pitch_ids)]
    )
    frame_voiced = voiced_per_token[frame_token]

    # pitch: note log-F0 plus vibrato, phase continuous across the utterance
    t_axis = np.arange(total)
    vibrato = config.vibrato_depth_log * np.sin(
        2.0 * math.pi * config.vibrato_rate_hz * t_axis * FRAME_SHIFT_S)
    note_logf0, _ = frame_pitch_arrays(tokens, dur_arr)
    logf0 = np.where(frame_voiced, note_logf0 + vibrato, 0.0)

    # spectra: per-phoneme templates, cross-faded at token boundaries
    templates = mgc_templates(lexicon, config)
    token_ids = np.asarray(tokens.phoneme_ids, dtype=np.int64)
    mgc = templates[token_ids[frame_token]].copy()
    if config.transition_frames > 0:
        starts = np.concatenate([[0], np.cumsum(dur_arr)[:-1]])
        for k in range(1, len(tokens)):
            prev = templates[token_ids[k - 1]]
            cur = templates[token_ids[k]]
            # frame j takes (j + 1) / transition_frames of cur, which is all
            # of it from j = transition_frames - 1 on
            for j in range(min(config.transition_frames - 1, int(dur_arr[k]))):
                alpha = (j + 1) / config.transition_frames
                mgc[starts[k] + j] = (1.0 - alpha) * prev + alpha * cur

    bap = np.where(np.broadcast_to(frame_voiced[:, None], (total, BAP_DIM)),
                   VOICED_BAP_DB, UNVOICED_BAP_DB)
    vuv = frame_voiced.astype(np.float64)
    feats = AcousticFeatureSequence(mgc=mgc, bap=bap, logf0=logf0, vuv=vuv)
    return tokens, feats


# ---------------------------------------------------------------------------
# random score generation and the on-disk corpus

BEAT_CHOICES = (0.25, 0.5, 1.0, 2.0)
BEAT_WEIGHTS = (0.35, 0.35, 0.2, 0.1)
TEMPO_CHOICES = (90.0, 100.0, 120.0, 132.0, 144.0)
PITCH_LOW, PITCH_HIGH = 55, 79
REST_PROBABILITY = 0.1
MELISMA_PROBABILITY = 0.08


def random_score(lexicon: PhonemeLexicon, rng: np.random.Generator) -> MusicalScore:
    syllables = sorted(lexicon.syllables)
    tempo = float(rng.choice(TEMPO_CHOICES))
    n_notes = int(rng.integers(5, 31))
    events: list[NoteEvent] = []
    for _ in range(n_notes):
        beats = float(rng.choice(BEAT_CHOICES, p=BEAT_WEIGHTS))
        roll = rng.random()
        if events and not events[-1].is_rest and roll < MELISMA_PROBABILITY:
            events.append(NoteEvent(events[-1].syllable,
                                    int(rng.integers(PITCH_LOW, PITCH_HIGH + 1)),
                                    beats, continues=True))
        elif roll < MELISMA_PROBABILITY + REST_PROBABILITY:
            events.append(NoteEvent("-", 0, beats))
        else:
            events.append(NoteEvent(str(rng.choice(syllables)),
                                    int(rng.integers(PITCH_LOW, PITCH_HIGH + 1)),
                                    beats))
    return MusicalScore(tempo_bpm=tempo, events=tuple(events))


@dataclass(frozen=True, eq=False)
class Utterance:
    """Score tokens with ground-truth durations that add up to the frame
    count of their reference features, as length regulation needs. Compares
    and hashes by identity."""

    utt_id: str
    tokens: PhonemeTokenSequence
    features: AcousticFeatureSequence

    def __post_init__(self):
        if self.tokens.gt_phoneme_durations is None:
            raise ValueError("missing ground-truth durations")
        if self.tokens.total_frames != self.features.num_frames:
            raise ValueError(f"duration total {self.tokens.total_frames} != "
                             f"feature frames {self.features.num_frames}")


@dataclass(frozen=True)
class ManifestEntry:
    """One manifest line, each of whose fields reads back as written."""
    score_path: str    # relative to the manifest's directory
    feature_path: str
    split: str

    def __post_init__(self):
        for name, value in vars(self).items():
            if not value or value != value.strip() or set("\t\n\r") & set(value):
                raise ValueError(f"manifest {name} {value!r} is empty, padded "
                                 "or holds a tab or line break")
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"manifest {name} {value!r} is not UTF-8") from None


@dataclass
class CorpusManifest:
    base_dir: Path
    entries: list[ManifestEntry]

    def subset(self, split: str) -> list[ManifestEntry]:
        if split == "all":
            return list(self.entries)
        return [e for e in self.entries if e.split == split]


def sidecar_path(feature_path) -> str:
    """Token/duration sidecar lives next to its feature file."""
    return os.fspath(feature_path) + ".tokens.tsv"


def save_token_sidecar(path, tokens: PhonemeTokenSequence) -> None:
    """One line per phoneme: its ids, note frames, duration and syllable."""
    if tokens.gt_phoneme_durations is None:
        raise ValueError("a token sidecar needs ground-truth durations")
    syllables = [row for row, (start, end) in enumerate(tokens.syllable_spans)
                 for _ in range(start, end)]
    rows = zip(tokens.phoneme_ids, tokens.pitch_ids, tokens.note_frame_counts,
               tokens.gt_phoneme_durations, syllables)
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("".join("\t".join(map(str, row)) + "\n" for row in rows))


def load_token_sidecar(path) -> PhonemeTokenSequence:
    """A sidecar's token sequence; every ValueError names the file."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [int(x) for x in line.split("\t")]
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            if len(row) != 5:
                raise ValueError(f"{path}:{line_no}: expected 5 tab-separated "
                                 f"integers, got {len(row)}")
            rows.append(row)
    if not rows:
        raise ValueError(f"empty token sidecar {path}")
    columns = list(zip(*rows))
    try:
        return PhonemeTokenSequence(
            phoneme_ids=columns[0], pitch_ids=columns[1],
            note_frame_counts=columns[2],
            syllable_spans=syllable_spans(columns[4]),
            gt_phoneme_durations=columns[3],
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_manifest(path, manifest: CorpusManifest) -> None:
    lines = [f"{e.score_path}\t{e.feature_path}\t{e.split}"
             for e in manifest.entries]
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_manifest(path) -> CorpusManifest:
    path = Path(path)
    entries = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            try:
                if len(parts) != 3:
                    raise ValueError("expected 3 tab-separated fields")
                entries.append(ManifestEntry(*parts))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
    manifest = CorpusManifest(base_dir=path.parent, entries=entries)
    missing = [
        rel for e in entries for rel in (e.score_path, e.feature_path)
        if not (manifest.base_dir / rel).exists()
    ]
    if missing:
        raise FileNotFoundError(
            f"manifest references missing files, first: {missing[0]}"
        )
    return manifest


def generate_corpus(n_songs: int, seed: int, config: OracleConfig, out_dir,
                    lexicon: PhonemeLexicon) -> CorpusManifest:
    """Write n_songs random scores with oracle features and a train/holdout
    manifest (90/10); rerunning with the same arguments reproduces every byte."""
    if n_songs < 1:
        raise ValueError("n_songs must be >= 1")
    out_dir = Path(out_dir)
    (out_dir / "scores").mkdir(parents=True, exist_ok=True)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)

    n_train = int(math.floor(0.9 * n_songs))
    order = np.random.default_rng([seed, 9]).permutation(n_songs)
    split_by_song = {int(song): ("train" if rank < n_train else "holdout")
                     for rank, song in enumerate(order)}

    entries = []
    for i in range(n_songs):
        score = random_score(lexicon, np.random.default_rng([seed, 4, i]))
        tokens, feats = oracle_sing(score, lexicon, config)
        score_rel = f"scores/song_{i:04d}.score"
        feat_rel = f"features/song_{i:04d}.feat"
        with atomic_open(out_dir / score_rel, "w", encoding="utf-8") as fh:
            fh.write(serialize_score(score))
        save_features(out_dir / feat_rel, feats)
        save_token_sidecar(sidecar_path(out_dir / feat_rel), tokens)
        entries.append(ManifestEntry(score_rel, feat_rel, split_by_song[i]))

    manifest = CorpusManifest(base_dir=out_dir, entries=entries)
    save_manifest(out_dir / "manifest.tsv", manifest)
    return manifest


def load_corpus_items(manifest: CorpusManifest,
                      split: str = "all") -> list[Utterance]:
    """The utterances of a manifest split; an utterance that breaks a rule
    of :class:`Utterance` raises ValueError naming its feature file."""
    items = []
    for entry in manifest.subset(split):
        feat_path = manifest.base_dir / entry.feature_path
        tokens = load_token_sidecar(sidecar_path(feat_path))
        feats = load_features(feat_path)
        try:
            items.append(Utterance(Path(entry.feature_path).stem, tokens, feats))
        except ValueError as exc:
            raise ValueError(f"{feat_path}: {exc}") from None
    return items
