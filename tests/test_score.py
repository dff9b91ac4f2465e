import math
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from singsynth.score import (
    NOTE_LOGF0,
    SILENCE_PHONEME,
    LexiconError,
    MusicalScore,
    NoteEvent,
    PhonemeLexicon,
    PhonemeTokenSequence,
    ScoreParseError,
    beats_to_frames,
    demo_lexicon,
    frame_pitch_arrays,
    load_lexicon,
    midi_to_hz,
    parse_score,
    score_to_tokens,
    serialize_score,
)


def test_parse_minimal_score():
    score = parse_score("tempo 120\nla 69 1.0\n")
    assert score.tempo_bpm == 120
    assert score.events == (NoteEvent("la", 69, 1.0),)


def test_parse_rejects_zero_tempo():
    with pytest.raises(ScoreParseError, match="tempo must be positive"):
        parse_score("tempo 0\nla 69 1.0\n")


@pytest.mark.parametrize("text, line, message", [
    ("tempo inf\nla 69 1.0\n", 1, "tempo must be positive and finite"),
    ("tempo 120\nla 69 1.0\nla 69 inf\n", 3, "beat_length must be positive and finite"),
    ("tempo 120\nla 69 nan\n", 2, "beat_length must be positive and finite"),
])
def test_parse_rejects_non_finite_tempo_and_beats(text, line, message):
    with pytest.raises(ScoreParseError, match=f"line {line}: {message}"):
        parse_score(text)


def test_score_types_reject_non_finite_values():
    with pytest.raises(ValueError, match="positive and finite"):
        NoteEvent("la", 69, math.inf)
    with pytest.raises(ValueError, match="positive and finite"):
        MusicalScore(math.inf, (NoteEvent("la", 69, 1.0),))


def test_parse_rejects_leading_continuation():
    with pytest.raises(ScoreParseError, match="no syllable to continue"):
        parse_score("tempo 120\nla 69 1.0 ~\n")


def test_parse_rejects_continuation_after_rest():
    with pytest.raises(ScoreParseError, match="cannot continue a rest"):
        parse_score("tempo 120\n- 0 1.0\nla 69 1.0 ~\n")


def test_parse_rejects_rest_with_pitch():
    with pytest.raises(ScoreParseError):
        parse_score("tempo 120\n- 60 1.0\n")


def test_parse_rejects_sung_note_with_pitch_zero():
    with pytest.raises(ScoreParseError):
        parse_score("tempo 120\nla 0 1.0\n")


def test_parse_error_reports_line_number():
    with pytest.raises(ScoreParseError, match="line 3"):
        parse_score("tempo 120\nla 69 1.0\nla 69 zero\n")


def test_parse_skips_comments_and_blanks():
    text = "# a song\n\ntempo 100  # fast\nla 69 1.0\n"
    score = parse_score(text)
    assert score.tempo_bpm == 100
    assert len(score.events) == 1


def test_midi_to_hz_reference_points():
    assert midi_to_hz(69) == pytest.approx(440.0, abs=0)
    assert midi_to_hz(81) == pytest.approx(880.0, abs=1e-9)
    # closed form evaluated independently: 440 * 2 ** (-9/12)
    assert midi_to_hz(60) == pytest.approx(261.6256, abs=1e-3)


def test_midi_to_hz_rejects_rest_pitch():
    with pytest.raises(ValueError):
        midi_to_hz(0)


def test_midi_to_hz_monotonic_and_octave_doubling():
    values = [midi_to_hz(m) for m in range(1, 128)]
    assert all(a < b for a, b in zip(values, values[1:]))
    for m in range(1, 116):
        assert abs(midi_to_hz(m + 12) / (2 * midi_to_hz(m)) - 1.0) < 1e-9


def test_beats_to_frames_examples():
    # 0.5 s at 15 ms -> 33.33, rounds down
    assert beats_to_frames(1.0, 120, 0.015) == 33
    # 0.3 s at 15 ms -> exactly 20
    assert beats_to_frames(0.5, 100, 0.015) == 20
    # tiny note clamps to one frame
    assert beats_to_frames(0.001, 120, 0.015) == 1


def test_beats_to_frames_requires_positive_args():
    with pytest.raises(ValueError):
        beats_to_frames(0.0, 120, 0.015)


@pytest.mark.parametrize("beats, tempo", [(1e308, 120.0), (1.0, 1e-310)])
def test_beats_to_frames_names_a_frame_count_that_is_not_finite(beats, tempo):
    message = f"beat length {beats!r} at tempo {tempo!r} is not a finite"
    with pytest.raises(ValueError, match=re.escape(message)):
        beats_to_frames(beats, tempo, 0.015)


@pytest.mark.parametrize("beats, tempo", [(1.0, 1e-300), (1e300, 120.0)])
def test_beats_to_frames_names_a_frame_count_beyond_int64(beats, tempo):
    message = (f"beat length {beats!r} at tempo {tempo!r} gives a frame count "
               "beyond int64")
    with pytest.raises(ValueError, match=re.escape(message)):
        beats_to_frames(beats, tempo, 0.015)
    # the largest float count below 2**63 still converts
    assert beats_to_frames(2.0 ** 63 - 1024, 60.0, 1.0) == 2 ** 63 - 1024


def test_score_to_tokens_duplicates_note_attributes(lexicon):
    score = parse_score("tempo 120\nla 69 1.0\n")
    tokens = score_to_tokens(score, lexicon)
    ids = lexicon.ids()
    assert tokens.phoneme_ids == (ids["l"], ids["a"])
    assert tokens.pitch_ids == (69, 69)
    assert tokens.note_frame_counts == (33, 33)
    assert tokens.syllable_spans == ((0, 2),)


def test_score_to_tokens_rest(lexicon):
    score = parse_score("tempo 100\n- 0 0.5\n")
    tokens = score_to_tokens(score, lexicon)
    assert tokens.phoneme_ids == (lexicon.ids()[SILENCE_PHONEME],)
    assert tokens.pitch_ids == (0,)
    assert tokens.note_frame_counts == (20,)


def test_score_to_tokens_melisma_merges_span(lexicon):
    score = parse_score("tempo 120\nla 69 1.0\nla 71 0.5 ~\n")
    tokens = score_to_tokens(score, lexicon)
    ids = lexicon.ids()
    # first note carries the syllable's phonemes, the continuation repeats
    # the final vowel at the new pitch
    assert tokens.phoneme_ids == (ids["l"], ids["a"], ids["a"])
    assert tokens.pitch_ids == (69, 69, 71)
    assert tokens.note_frame_counts == (33, 33, 17)
    assert tokens.syllable_spans == ((0, 3),)


def test_score_to_tokens_melisma_extension_uses_final_vowel(lexicon):
    score = parse_score("tempo 120\nlan 60 1.0\nlan 62 1.0 ~\n")
    tokens = score_to_tokens(score, lexicon)
    ids = lexicon.ids()
    assert tokens.phoneme_ids == (ids["l"], ids["a"], ids["n"], ids["a"])
    assert tokens.syllable_spans == ((0, 4),)


def test_token_sequence_keeps_tuples_of_its_own():
    given = dict(phoneme_ids=[2, 3, 1], pitch_ids=np.array([60, 62, 0]),
                 note_frame_counts=[4, 4, 2], syllable_spans=[[0, 2], (2, 3)],
                 gt_phoneme_durations=[1, 3, 2])
    tokens = PhonemeTokenSequence(**given)
    with pytest.raises(FrozenInstanceError):
        tokens.gt_phoneme_durations = None
    given["phoneme_ids"][0] = -1   # the caller's lists, edited afterwards
    given["pitch_ids"][0] = 500
    given["syllable_spans"][0][1] = 1
    given["gt_phoneme_durations"].append(9)
    assert tokens.phoneme_ids == (2, 3, 1)
    assert tokens.pitch_ids == (60, 62, 0)
    assert tokens.syllable_spans == ((0, 2), (2, 3))
    assert tokens.gt_phoneme_durations == (1, 3, 2)


@pytest.mark.parametrize("events", [
    (NoteEvent("la", 69, 1.0, continues=True),),
    (NoteEvent("-", 0, 1.0), NoteEvent("la", 69, 1.0, continues=True)),
])
def test_score_to_tokens_rejects_continuation_without_sung_note(lexicon, events):
    # MusicalScore refuses such a score, so it never reaches score_to_tokens
    message = ("no syllable to continue" if len(events) == 1
               else "cannot continue a rest")
    with pytest.raises(ValueError, match=message):
        score_to_tokens(MusicalScore(120.0, events), lexicon)


def test_score_to_tokens_unknown_syllable_names_it(lexicon):
    score = parse_score("tempo 120\nxyzzy 69 1.0\n")
    with pytest.raises(LexiconError, match="xyzzy"):
        score_to_tokens(score, lexicon)


def test_demo_lexicon_shape(lexicon):
    assert lexicon.phoneme_vocab[0] == "pad"
    assert lexicon.phoneme_vocab[1] == "sil"
    assert len(lexicon.phoneme_vocab) <= 72
    assert len(lexicon.syllables) >= 40


def test_note_logf0_table_equals_log_of_midi_to_hz():
    assert NOTE_LOGF0.shape == (128,) and NOTE_LOGF0[0] == 0.0
    for p in range(1, 128):
        assert NOTE_LOGF0[p] == math.log(midi_to_hz(p))


def test_frame_pitch_arrays_expand_note_pitch(lexicon):
    score = parse_score("tempo 120\nla 69 1.0\n- 0 0.5\nla 81 1.0\n")
    tokens = score_to_tokens(score, lexicon)
    durations = [2] * len(tokens)
    note_logf0, nonrest = frame_pitch_arrays(tokens, durations)
    expected = [math.log(midi_to_hz(p)) if p else 0.0 for p in tokens.pitch_ids]
    assert note_logf0.tolist() == [v for v in expected for _ in range(2)]
    assert nonrest.tolist() == [float(p > 0) for p in tokens.pitch_ids
                                for _ in range(2)]


def test_lexicon_size_is_not_capped(tmp_path):
    # the model's phoneme_vocab_size, checked by train, is the only bound
    path = tmp_path / "big.tsv"
    path.write_text("".join(f"s{k}\tc{k} a\n" for k in range(77)))
    assert len(load_lexicon(path).phoneme_vocab) == 80


def test_lexicon_rejects_unknown_phoneme():
    with pytest.raises(LexiconError):
        PhonemeLexicon(
            syllables={"la": ("l", "q")},
            phoneme_vocab=("pad", "sil", "a", "l"),
        )


# --- property tests --------------------------------------------------------

SYLLABLES = sorted(demo_lexicon().syllables)


@st.composite
def valid_scores(draw):
    tempo = draw(st.sampled_from([60.0, 90.0, 120.0, 150.0]))
    n = draw(st.integers(min_value=1, max_value=12))
    events = []
    for _ in range(n):
        beats = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
        if draw(st.booleans()) and events and not events[-1].is_rest and \
                draw(st.integers(0, 3)) == 0:
            events.append(NoteEvent(events[-1].syllable,
                                    draw(st.integers(55, 79)), beats,
                                    continues=True))
        elif draw(st.integers(0, 9)) == 0:
            events.append(NoteEvent("-", 0, beats))
        else:
            events.append(NoteEvent(draw(st.sampled_from(SYLLABLES)),
                                    draw(st.integers(55, 79)), beats))
    return MusicalScore(tempo_bpm=tempo, events=tuple(events))


@settings(max_examples=60, deadline=None)
@given(valid_scores())
def test_score_round_trip(score):
    assert parse_score(serialize_score(score)) == score


@settings(max_examples=60, deadline=None)
@given(valid_scores())
def test_tokens_satisfy_invariants(score):
    lexicon = demo_lexicon()
    tokens = score_to_tokens(score, lexicon)
    n = len(tokens)
    assert sum(end - start for start, end in tokens.syllable_spans) == n
    for pid, pitch in zip(tokens.phoneme_ids, tokens.pitch_ids):
        assert (pitch == 0) == (pid == lexicon.ids()[SILENCE_PHONEME])
    assert all(c >= 1 for c in tokens.note_frame_counts)


@st.composite
def accepted_scores(draw):
    """Scores of any text, pitch, beat length, tempo and continuation flags,
    kept when the constructors accept them: the writer's whole domain."""
    fields = draw(st.lists(st.tuples(
        st.one_of(st.just("-"), st.sampled_from(["la", "a~"]),
                  st.text(st.one_of(st.sampled_from("a#~- \t"), st.characters()),
                          max_size=4)),
        st.one_of(st.integers(0, 127), st.integers(0, 127).map(np.int64)),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        st.sampled_from([False, False, True])), min_size=1, max_size=6))
    tempo = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    try:
        return MusicalScore(tempo, tuple(
            NoteEvent(syllable, 0 if syllable == "-" else max(pitch, 1), beats,
                      continues)
            for syllable, pitch, beats, continues in fields))
    except ValueError:
        reject()


@settings(max_examples=200, deadline=None)
@given(accepted_scores())
def test_every_accepted_score_writes_and_reads_back_equal(score):
    assert parse_score(serialize_score(score)) == score


@pytest.mark.parametrize("pitch", [69.5, 69.0, np.float64(69.0), True, False,
                                   np.True_])
def test_note_event_refuses_a_pitch_its_file_cannot_hold(pitch):
    # serialize_score would write '69.5' or 'True', which parse_score refuses
    with pytest.raises(ValueError, match="midi_pitch must be an integer"):
        NoteEvent("la" if pitch else "-", pitch, 1.0)


@pytest.mark.parametrize("syllable", ["", "a b", "x#y", " la", "la\n", "a\u2028b",
                                      "a\u00a0b"])
def test_note_event_refuses_a_syllable_its_file_cannot_hold(syllable):
    with pytest.raises(ValueError, match="must be one word without '#'"):
        NoteEvent(syllable, 69, 1.0)


@pytest.mark.parametrize("events, line, message", [
    ((NoteEvent("la", 69, 1), NoteEvent("mi", 71, 1, continues=True)), 3,
     "continuation syllable 'mi' differs from previous 'la'"),
    ((NoteEvent("la", 69, 1), NoteEvent("-", 0, 1, continues=True)), 3,
     "rests cannot continue a syllable"),
    ((NoteEvent("-", 0, 1), NoteEvent("la", 69, 1, continues=True)), 3,
     "cannot continue a rest"),
    ((NoteEvent("la", 69, 1, continues=True),), 2, "no syllable to continue"),
])
def test_score_refuses_what_its_file_cannot_hold_at_the_event_line(events, line,
                                                                   message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        MusicalScore(120.0, events)
    text = "tempo 120\n" + "".join(
        f"{ev.syllable} {ev.midi_pitch} 1{' ~' if ev.continues else ''}\n"
        for ev in events)
    with pytest.raises(ScoreParseError, match=f"^line {line}: {message}$"):
        parse_score(text)


@pytest.mark.parametrize("text, line, message", [
    ("# head\n\ntempo -3\nla 69 1\n", 3, "tempo must be positive and finite"),
    ("# head\ntempo 120\n", 1, "score has no events"),
    ("# nothing\n", 1, "missing tempo line"),
])
def test_parse_maps_score_errors_to_the_tempo_line_or_line_one(text, line,
                                                               message):
    with pytest.raises(ScoreParseError, match=f"^line {line}: {message}"):
        parse_score(text)
