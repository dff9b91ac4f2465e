"""Musical scores, syllable-to-phoneme lexicons, and the token sequence fed
to the acoustic model.

Score file grammar (UTF-8 text, ``#`` starts a comment)::

    tempo <bpm>
    <syllable|-> <midi_pitch> <beat_length> [~]

``-`` marks a rest and must carry pitch 0; a trailing ``~`` marks a note that
continues the previous line's syllable (a melisma). One syllable's phonemes
attach to its first note; every later note of the melisma contributes one
repeat of the syllable's final vowel so pitch changes stay representable.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

from .features import FRAME_SHIFT_S

REST_SYLLABLE = "-"
PAD_PHONEME = "pad"
SILENCE_PHONEME = "sil"

# phonemes that carry a melisma and take a note's non-consonant frames
VOWELS = frozenset("aeiou")


class ScoreParseError(ValueError):
    """Malformed score file; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ScoreError(ValueError):
    """A score breaks a rule of :class:`MusicalScore`: its tempo when
    ``event`` is None, else the continuation rules at that event index."""

    def __init__(self, message: str, event: int | None = None):
        super().__init__(message)
        self.event = event


class LexiconError(ValueError):
    pass


@dataclass(frozen=True)
class NoteEvent:
    syllable: str
    midi_pitch: int
    beat_length: float
    continues: bool = False  # same-syllable continuation (melisma)

    def __post_init__(self):
        if self.syllable.split() != [self.syllable] or "#" in self.syllable:
            raise ValueError(f"syllable {self.syllable!r} must be one word without '#'")
        pitch = self.midi_pitch   # an int the file can hold, not a bool
        if type(pitch) is bool or not isinstance(pitch, (int, np.integer)) \
                or not 0 <= pitch <= 127:
            raise ValueError(f"midi_pitch must be an integer in [0, 127], got {pitch}")
        if (self.midi_pitch == 0) != (self.syllable == REST_SYLLABLE):
            raise ValueError(
                "pitch 0 is reserved for rests: "
                f"got syllable {self.syllable!r} with pitch {self.midi_pitch}"
            )
        if not 0 < self.beat_length < math.inf:
            raise ValueError(
                f"beat_length must be positive and finite, got {self.beat_length}")

    @property
    def is_rest(self) -> bool:
        return self.midi_pitch == 0


@dataclass(frozen=True)
class MusicalScore:
    tempo_bpm: float
    events: tuple[NoteEvent, ...]

    def __post_init__(self):
        if not 0 < self.tempo_bpm < math.inf:
            raise ScoreError(
                f"tempo must be positive and finite, got {self.tempo_bpm}")
        if not self.events:
            raise ValueError("score has no events")
        for k, (prev, ev) in enumerate(zip((None, *self.events), self.events)):
            broken = ev.continues and (
                "rests cannot continue a syllable" if ev.is_rest
                else "no syllable to continue" if prev is None
                else "cannot continue a rest" if prev.is_rest
                else f"continuation syllable {ev.syllable!r} differs from "
                f"previous {prev.syllable!r}" if ev.syllable != prev.syllable
                else None)
            if broken:
                raise ScoreError(broken, k)


@dataclass(frozen=True)
class PhonemeLexicon:
    """Syllable -> phoneme-name mapping plus the integer phoneme vocabulary.

    ID 0 is reserved for padding and ID 1 for the rest/silence phoneme.
    """

    syllables: dict[str, tuple[str, ...]]
    phoneme_vocab: tuple[str, ...]

    def __post_init__(self):
        if self.phoneme_vocab[:2] != (PAD_PHONEME, SILENCE_PHONEME):
            raise LexiconError(
                f"vocabulary must start with ({PAD_PHONEME!r}, {SILENCE_PHONEME!r})"
            )
        ids = self.ids()
        for syllable, phonemes in self.syllables.items():
            if not phonemes:
                raise LexiconError(f"syllable {syllable!r} maps to no phonemes")
            for ph in phonemes:
                if ph not in ids:
                    raise LexiconError(
                        f"syllable {syllable!r} uses phoneme {ph!r} missing from "
                        "the vocabulary"
                    )

    def ids(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.phoneme_vocab)}

    def phonemes_for(self, syllable: str) -> tuple[str, ...]:
        try:
            return self.syllables[syllable]
        except KeyError:
            raise LexiconError(f"syllable {syllable!r} not in lexicon") from None

    def extension_phoneme(self, syllable: str) -> str:
        """Phoneme repeated on melisma continuation notes: the final vowel,
        or the last phoneme when the syllable has no vowel."""
        phonemes = self.phonemes_for(syllable)
        for ph in reversed(phonemes):
            if ph in VOWELS:
                return ph
        return phonemes[-1]

    @classmethod
    def from_entries(cls, entries: dict[str, tuple[str, ...]]) -> "PhonemeLexicon":
        names = sorted({ph for phs in entries.values() for ph in phs}
                       - {PAD_PHONEME, SILENCE_PHONEME})
        vocab = (PAD_PHONEME, SILENCE_PHONEME) + tuple(names)
        return cls(syllables=dict(entries), phoneme_vocab=vocab)


def load_lexicon(path) -> PhonemeLexicon:
    """Load a ``<syllable>\\t<ph1> <ph2> ...`` lexicon file."""
    entries: dict[str, tuple[str, ...]] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "\t" not in line:
                raise LexiconError(f"line {line_no}: expected TAB separator")
            syllable, phones = line.split("\t", 1)
            entries[syllable.strip()] = tuple(phones.split())
    if not entries:
        raise LexiconError("lexicon file contains no entries")
    return PhonemeLexicon.from_entries(entries)


def demo_lexicon() -> PhonemeLexicon:
    """The small built-in lexicon used by tests and the demo pipeline."""
    ref = importlib.resources.files("singsynth.data").joinpath("demo_lexicon.tsv")
    with importlib.resources.as_file(ref) as path:
        return load_lexicon(path)


# ---------------------------------------------------------------------------
# score parsing / serialization

def parse_score(text: str) -> MusicalScore:
    """The score a text holds. A rule of the score types that it breaks
    raises ScoreParseError at the tempo's or event's line (line 1 if none)."""
    tempo: float | None = None
    events: list[NoteEvent] = []
    lines: list[int] = []   # the tempo's line, then each event's
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if tempo is None:
            if fields[0] != "tempo" or len(fields) != 2:
                raise ScoreParseError(line_no, "expected 'tempo <bpm>' first")
            try:
                tempo = float(fields[1])
            except ValueError:
                raise ScoreParseError(line_no, f"bad tempo value {fields[1]!r}") from None
            lines.append(line_no)
            continue
        continues = fields[-1] == "~"
        fields = fields[:-1] if continues else fields
        if len(fields) != 3:
            raise ScoreParseError(line_no, "expected '<syllable> <midi_pitch> "
                                           "<beat_length> [~]'")
        syllable, pitch_s, beats_s = fields
        try:
            pitch = int(pitch_s)
        except ValueError:
            raise ScoreParseError(line_no, f"bad midi pitch {pitch_s!r}") from None
        try:
            beats = float(beats_s)
        except ValueError:
            raise ScoreParseError(line_no, f"bad beat length {beats_s!r}") from None
        try:
            events.append(NoteEvent(syllable, pitch, beats, continues))
        except ValueError as exc:
            raise ScoreParseError(line_no, str(exc)) from None
        lines.append(line_no)
    if tempo is None:
        raise ScoreParseError(1, "missing tempo line")
    try:
        return MusicalScore(tempo_bpm=tempo, events=tuple(events))
    except ScoreError as exc:
        raise ScoreParseError(lines[0 if exc.event is None else exc.event + 1],
                              str(exc)) from None
    except ValueError as exc:
        raise ScoreParseError(1, str(exc)) from None


def serialize_score(score: MusicalScore) -> str:
    lines = [f"tempo {score.tempo_bpm!r}"]
    for ev in score.events:
        suffix = " ~" if ev.continues else ""
        lines.append(f"{ev.syllable} {ev.midi_pitch} {ev.beat_length!r}{suffix}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# conversions

def midi_to_hz(midi_pitch: int) -> float:
    """Equal-tempered frequency of a MIDI note number (A4 = 69 = 440 Hz)."""
    if midi_pitch < 1:
        raise ValueError(
            f"midi pitch {midi_pitch} has no frequency (0 is the rest marker)"
        )
    if midi_pitch > 127:
        raise ValueError(f"midi pitch {midi_pitch} out of range [1, 127]")
    return 440.0 * 2.0 ** ((midi_pitch - 69) / 12.0)


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def beats_to_frames(beat_length: float, tempo_bpm: float, frame_shift_s: float) -> int:
    """Frame count of a note, at least 1; raises ValueError when it is not
    finite or does not fit in int64."""
    if beat_length <= 0 or tempo_bpm <= 0 or frame_shift_s <= 0:
        raise ValueError("beats_to_frames requires positive arguments")
    frames = beat_length * 60.0 / tempo_bpm / frame_shift_s
    if not frames < 2.0 ** 63:
        cause = ("gives a frame count beyond int64" if math.isfinite(frames)
                 else "is not a finite number of frames")
        raise ValueError(f"beat length {beat_length!r} at tempo {tempo_bpm!r} "
                         f"{cause}")
    return max(1, round_half_up(frames))


# ---------------------------------------------------------------------------
# score -> phoneme tokens

@dataclass(frozen=True)
class PhonemeTokenSequence:
    """Per-phoneme model input: phoneme ID, pitch ID and note frame count,
    plus the syllable grouping needed for the syllable duration loss, each
    kept as a tuple so that it stays as its checks found it."""

    phoneme_ids: tuple[int, ...]
    pitch_ids: tuple[int, ...]
    note_frame_counts: tuple[int, ...]
    syllable_spans: tuple[tuple[int, int], ...]
    gt_phoneme_durations: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "syllable_spans", tuple(map(tuple, self.syllable_spans)))
        n = len(self.phoneme_ids)
        if n < 1:
            raise ValueError("token sequence is empty")
        if len(self.pitch_ids) != n or len(self.note_frame_counts) != n:
            raise ValueError("parallel token lists have different lengths")
        for name in ("phoneme_ids", "pitch_ids", "note_frame_counts",
                     "gt_phoneme_durations"):
            values = getattr(self, name)
            if values is not None:
                object.__setattr__(self, name, tuple(values))
            # integers a sidecar can hold, so not bools or floats
            for kind in set(map(type, [] if values is None else values)):
                if kind is bool or not issubclass(kind, (int, np.integer)):
                    raise ValueError(f"{name} holds a {kind.__name__}, not an integer")
        if min(self.phoneme_ids) < 0:
            raise ValueError(f"phoneme id {min(self.phoneme_ids)} is negative")
        for pitch in self.pitch_ids:
            if not 0 <= pitch <= 127:
                raise ValueError(f"pitch id {pitch} out of range [0, 127]")
        if any(c < 1 for c in self.note_frame_counts):
            raise ValueError("note frame counts must all be >= 1")
        cursor = 0
        for start, end in self.syllable_spans:
            if start != cursor or end <= start:
                raise ValueError(f"syllable spans do not tile [0, {n})")
            cursor = end
        if cursor != n:
            raise ValueError(f"syllable spans do not cover [0, {n})")
        if self.gt_phoneme_durations is not None:
            if len(self.gt_phoneme_durations) != n:
                raise ValueError("ground-truth durations length mismatch")
            if any(d < 1 for d in self.gt_phoneme_durations):
                raise ValueError("ground-truth durations must all be >= 1")

    def __len__(self) -> int:
        return len(self.phoneme_ids)

    @property
    def total_frames(self) -> int:
        """Frame total implied by the ground-truth durations."""
        if self.gt_phoneme_durations is None:
            raise ValueError("token sequence has no ground-truth durations")
        return sum(self.gt_phoneme_durations)


def event_phonemes(event: NoteEvent, lexicon: PhonemeLexicon) -> tuple[str, ...]:
    """Phonemes a single note contributes: the silence phoneme for rests, the
    lexicon entry for a syllable's first note, one vowel repeat afterwards."""
    if event.is_rest:
        return (SILENCE_PHONEME,)
    if event.continues:
        return (lexicon.extension_phoneme(event.syllable),)
    return lexicon.phonemes_for(event.syllable)


def syllable_spans(numbers) -> list[tuple[int, int]]:
    """The syllable spans of phonemes numbered by syllable: each run of
    equal numbers, as a half-open range of phoneme positions."""
    spans, start = [], 0
    for i in range(1, len(numbers) + 1):
        if i == len(numbers) or numbers[i] != numbers[i - 1]:
            spans.append((start, i))
            start = i
    return spans


def score_to_tokens(score: MusicalScore, lexicon: PhonemeLexicon,
                    frame_shift_s: float = FRAME_SHIFT_S) -> PhonemeTokenSequence:
    """Expand a score to phoneme level.

    Each note's pitch ID and frame count are duplicated onto every phoneme it
    carries; rests become one silence phoneme with pitch ID 0; a melisma's
    notes all land in one syllable span.
    """
    ids = lexicon.ids()
    phoneme_ids: list[int] = []
    pitch_ids: list[int] = []
    frame_counts: list[int] = []
    numbers: list[int] = []   # each phoneme's syllable: its first note's index
    for k, ev in enumerate(score.events):
        frames = beats_to_frames(ev.beat_length, score.tempo_bpm, frame_shift_s)
        if not ev.continues:
            number = k
        for ph in event_phonemes(ev, lexicon):
            phoneme_ids.append(ids[ph])
            pitch_ids.append(ev.midi_pitch)
            frame_counts.append(frames)
            numbers.append(number)
    return PhonemeTokenSequence(
        phoneme_ids=phoneme_ids,
        pitch_ids=pitch_ids,
        note_frame_counts=frame_counts,
        syllable_spans=syllable_spans(numbers),
    )


# natural-log Hz of each pitch ID; 0.0 for the rest marker, pitch 0
NOTE_LOGF0 = np.array([0.0] + [math.log(midi_to_hz(p)) for p in range(1, 128)])


def frame_pitch_arrays(tokens: PhonemeTokenSequence,
                       durations) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-phoneme pitch to frame rate: (note log-F0, non-rest mask)."""
    durations = np.asarray(durations, dtype=np.int64)
    pitches = np.asarray(tokens.pitch_ids, dtype=np.int64)
    note_logf0 = NOTE_LOGF0[pitches]
    mask = (pitches > 0).astype(np.float64)
    return np.repeat(note_logf0, durations), np.repeat(mask, durations)
