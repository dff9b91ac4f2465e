"""The benchmark's workloads: seeded input generation, set-up, the timed
closed loops (one client, one operation in flight) and the output checks.

Every workload drives the package only through its public functions, looked
up as module attributes at call time so that :class:`spans.Tracer` sees them.
"""

from __future__ import annotations

import math
import shutil
import statistics
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from singsynth import checkpoint, corpus, features, model, score, training
from singsynth.losses import LossWeights

from spans import Tracer, layer_metrics

SETUPS = 5            # set-ups per run; setup_s is their median
MIN_OPS = 100         # train-desk steps at least, for ten samples beyond p90
MAX_SECONDS = 150.0   # start no op after this, whatever else says
TRAIN_STEPS_PER_SECOND = 5   # train-desk runs this many steps per requested second
TRAIN_CORPUS_SONGS = 256
PHRASE_COUNT = 256
PHRASE_NOTES = 6
VERSE_COUNT = 12
VERSE_FRAMES = (1500, 3000)  # 22.5 s to 45 s of singing at 15 ms frames
LOSS_FRAMES = 8000    # synth workloads: train_loss_mean covers the first songs
                      # that together hold this many frames
MODEL_SEED = 0        # synth weights; compute does not depend on their values


# ---------------------------------------------------------------------------
# seeded inputs

def _song(rng, rhythm, syllables, tempo, done) -> score.MusicalScore:
    """Notes drawn like ``corpus.random_score`` draws them, appended until
    ``done(n_events, frames)`` holds. Note lengths come from ``rhythm``,
    everything else (syllables, pitches, rests, melismas) from ``rng``."""
    events: list[score.NoteEvent] = []
    frames = 0
    while not done(len(events), frames):
        beats = float(rhythm.choice(corpus.BEAT_CHOICES, p=corpus.BEAT_WEIGHTS))
        pitch = int(rng.integers(corpus.PITCH_LOW, corpus.PITCH_HIGH + 1))
        roll = rng.random()
        if events and not events[-1].is_rest and roll < corpus.MELISMA_PROBABILITY:
            events.append(score.NoteEvent(events[-1].syllable, pitch, beats,
                                          continues=True))
        elif roll < corpus.MELISMA_PROBABILITY + corpus.REST_PROBABILITY:
            events.append(score.NoteEvent(score.REST_SYLLABLE, 0, beats))
        else:
            events.append(score.NoteEvent(str(rng.choice(syllables)), pitch, beats))
        frames += score.beats_to_frames(beats, tempo, features.FRAME_SHIFT_S)
    return score.MusicalScore(tempo_bpm=tempo, events=tuple(events))


def train_corpus(seed: int, out_dir: Path, lexicon) -> corpus.CorpusManifest:
    """An oracle corpus with the default score distribution, on disk."""
    return corpus.generate_corpus(TRAIN_CORPUS_SONGS, seed, corpus.OracleConfig(),
                                  out_dir, lexicon)


# The song sizes (tempo and note lengths) are the same for every seed, so
# runs on different seeds do the same amount of work; the seed picks the
# content. Synthesis time grows faster than linearly with frames, so seeded
# sizes would move latency_ms_p90 by more than its bound from seed to seed.

def phrase_scores(seed: int, lexicon) -> list[score.MusicalScore]:
    """Short phrases of PHRASE_NOTES notes; tempos cycle through
    ``corpus.TEMPO_CHOICES``."""
    syllables = sorted(lexicon.syllables)
    tempos = corpus.TEMPO_CHOICES
    return [_song(np.random.default_rng([seed, 21, i]),
                  np.random.default_rng([21, i]), syllables,
                  tempos[i % len(tempos)], lambda n, _: n >= PHRASE_NOTES)
            for i in range(PHRASE_COUNT)]


def verse_scores(seed: int, lexicon) -> list[score.MusicalScore]:
    """Verse-length songs whose frame targets are spread evenly over
    VERSE_FRAMES; a song overshoots its target by less than one note."""
    syllables = sorted(lexicon.syllables)
    tempos = corpus.TEMPO_CHOICES
    low, high = VERSE_FRAMES
    songs = []
    for i in range(VERSE_COUNT):
        target = low + (high - low) * (i + 0.5) / VERSE_COUNT
        songs.append(_song(np.random.default_rng([seed, 22, i]),
                           np.random.default_rng([22, i]), syllables,
                           tempos[i % len(tempos)],
                           lambda _, frames, t=target: frames >= t))
    return songs


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when the output is good

def check_synth(feats, durations, pitch_ids, predicted) -> list[str]:
    """Synthesized features against the durations that drove them."""
    durations = np.asarray(durations, dtype=np.int64)
    t = int(durations.sum())
    problems = []
    for name, shape in (("mgc", (t, features.MGC_DIM)),
                        ("bap", (t, features.BAP_DIM)),
                        ("logf0", (t,)), ("vuv", (t,))):
        value = getattr(feats, name)
        if value.shape != shape:
            problems.append(f"{name} has shape {value.shape}, expected {shape}")
        elif not np.all(np.isfinite(value)):
            problems.append(f"{name} has non-finite values")
    if problems:
        return problems
    rest = np.repeat(np.asarray(pitch_ids) == 0, durations)
    if np.any(feats.logf0[rest] != 0.0):
        problems.append("logf0 is non-zero on a rest frame")
    if np.any(feats.vuv < 0.0) or np.any(feats.vuv > 1.0):
        problems.append("vuv outside [0, 1]")
    predicted = np.asarray(predicted)
    if predicted.shape != (len(pitch_ids),):
        problems.append(f"predicted durations have shape {predicted.shape}")
    elif not (np.all(np.isfinite(predicted)) and np.all(predicted >= 1)):
        problems.append("predicted durations not finite and >= 1")
    return problems


def check_saved(path, feats) -> list[str]:
    back = features.load_features(path)
    if all(np.array_equal(getattr(back, name), getattr(feats, name))
           for name in ("mgc", "bap", "logf0", "vuv")):
        return []
    return ["saved feature file does not load back equal"]


def check_log(lines, steps: int) -> int:
    """Number of logged steps that are good: numbered in order with every
    logged value finite. Missing steps are not good."""
    good = 0
    for expected, line in enumerate(lines[:steps], start=1):
        fields = line.rstrip("\n").split("\t")
        if (len(fields) == len(training.LOG_COLUMNS) and fields[0] == str(expected)
                and all(math.isfinite(float(x)) for x in fields[1:])):
            good += 1
    return good


# ---------------------------------------------------------------------------
# runs

@dataclass
class Run:
    """What a workload measured; run.py turns it into the result line.

    ``samples_s`` are the latencies the percentiles are taken over, one per
    timed op. On the synth workloads an op's sample is the median latency of
    its song over the run, so one preempted repeat does not move the tail.
    """
    setup_s: list[float]
    samples_s: list[float] = field(default_factory=list)
    busy_s: float = 0.0           # sum of every timed op's latency
    frames: int = 0               # acoustic frames those ops processed
    attempted: int = 0
    failed: int = 0
    train_loss_mean: float = float("nan")
    longest_frames: int = 0
    traced_samples_s: list[float] = field(default_factory=list)
    traced_ops: list[int] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


class StepClock:
    """``log_stream`` for ``training.train``: one write per step, so the write
    times give per-step latency. Closes the tracer's op on each write."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.lines: list[str] = []
        self.times: list[float] = []

    def write(self, text: str) -> None:
        if self.tracer is not None:
            self.tracer.end_op()
        self.times.append(time.perf_counter())
        self.lines.append(text)

    def flush(self) -> None:
        pass


def _timed_setups(make, work: Path, tracer: Tracer | None):
    """Run ``make(directory)`` SETUPS times, each in a new directory that is
    deleted, untimed, once the set-up returns (what a set-up keeps is in
    memory). Returns the last result and every time."""
    times = []
    for k in range(SETUPS):
        directory = work / f"setup-{k}"
        directory.mkdir()
        if tracer is not None:
            tracer.op = f"setup-{k}"
        start = time.perf_counter()
        with tracer or nullcontext():
            prepared = make(directory)
        times.append(time.perf_counter() - start)
        shutil.rmtree(directory)
    return prepared, times


# -- train-desk -------------------------------------------------------------

def train_steps(seconds: int, traced: bool) -> int:
    """Steps per training session. A traced run trains twice (untraced and
    traced) and needs no p90, so each of its sessions is half as long."""
    steps = max(MIN_OPS, TRAIN_STEPS_PER_SECOND * seconds)
    return steps // 2 if traced else steps


def run_train(seed: int, seconds: int, work: Path, lexicon,
              tracer: Tracer | None) -> Run:
    def make(directory):
        manifest = train_corpus(seed, directory, lexicon)
        return corpus.load_corpus_items(manifest, "train")

    items, setup_s = _timed_setups(make, work, tracer)
    steps = train_steps(seconds, tracer is not None)
    config = training.TrainConfig.desk(total_steps=steps)
    step_frames = [
        sum(items[i].features.num_frames for i in training.batch_item_indices(
            step, len(items), config.batch_size, config.seed))
        for step in range(1, steps + 1)]
    training.train(training.TrainConfig.desk(total_steps=1), items)

    def session(trace: Tracer | None):
        clock = StepClock(trace)
        if trace is not None:
            trace.op = 0
        start = time.perf_counter()
        try:
            with trace or nullcontext():
                result = training.train(config, items, log_stream=clock)
        except training.TrainingDiverged:
            result = None
        latencies = [float(x) for x in np.diff([start] + clock.times)]
        return result, clock.lines, latencies

    result, lines, latencies = session(None)
    run = Run(setup_s=setup_s, samples_s=latencies, busy_s=sum(latencies),
              frames=sum(step_frames[:len(latencies)]), attempted=steps,
              failed=steps - check_log(lines, steps),
              longest_frames=max(u.features.num_frames for u in items))
    if result is not None and len(result.records) == steps:
        run.train_loss_mean = statistics.fmean(r.total for r in result.records)
        run.notes["train_loss_last"] = result.records[-1].total
    else:
        run.failed = max(run.failed, 1)
    run.notes.update(train_steps=steps, corpus_songs=TRAIN_CORPUS_SONGS,
                     train_items=len(items))
    if tracer is not None:
        _, traced_lines, run.traced_samples_s = session(tracer)
        run.traced_ops = list(range(len(run.traced_samples_s)))
        same = traced_lines == lines
        run.notes["traced_loss_log_bit_equal"] = same
        if not same:
            run.failed += 1
    return run


# -- synth-phrases and synth-verse --------------------------------------------

def run_synth(songs_for, seed: int, seconds: int, work: Path, lexicon,
              tracer: Tracer | None) -> Run:
    """Songs in list order, cycling, one at a time, until ``seconds`` have
    passed and, for p90, at least ten latency samples lie beyond their 90th
    percentile (a song's repeats share one sample value, so they tie).

    With a tracer each song runs twice in a row, untraced and traced, so both
    sides see the same songs, until ``seconds`` have passed."""
    config = model.ModelConfig.desk()

    def make(directory):
        scores = songs_for(seed, lexicon)
        texts = [score.serialize_score(s) for s in scores]
        truth = [corpus.oracle_sing(s, lexicon, corpus.OracleConfig())
                 for s in scores]
        params = model.init_params(config, np.random.default_rng(MODEL_SEED))
        path = directory / "synth.ckpt"
        checkpoint.save_checkpoint(path, checkpoint.Checkpoint(
            step=0, params={name: node.value for name, node in params.items()},
            adam_m={}, adam_v={}, config={"model": asdict(config)}))
        loaded = training.params_from_checkpoint(
            checkpoint.load_checkpoint(path), config)
        # oracle features are kept only for the songs train_loss_mean uses
        cumulative = np.cumsum([t.total_frames for t, _ in truth])
        n_loss = int(np.searchsorted(cumulative, LOSS_FRAMES)) + 1
        return texts, [t for t, _ in truth], truth[:n_loss], loaded

    (texts, refs, loss_songs, params), setup_s = _timed_setups(make, work,
                                                               tracer)
    # Every song goes to a file that does not exist yet, as when songs are
    # synthesized to files of their own; it is checked and deleted untimed.
    # Replacing one file over and over made ext4 flush it on every rename,
    # which put disk waits, and most of the run-to-run spread, into the ops.
    out_path = work / "song.feat"
    run = Run(setup_s=setup_s)

    def op(i: int, trace: Tracer | None) -> float:
        """One song, score text to saved features; returns its latency."""
        ref = refs[i]
        start = time.perf_counter()
        tokens = score.score_to_tokens(score.parse_score(texts[i]), lexicon,
                                       features.FRAME_SHIFT_S)
        predicted = model.predicted_durations(tokens, params, config)
        feats = model.synthesize_with_durations(tokens, params, config,
                                                ref.gt_phoneme_durations)
        features.save_features(out_path, feats)
        if trace is not None:
            trace.end_op()
        latency = time.perf_counter() - start
        problems = check_synth(feats, ref.gt_phoneme_durations, ref.pitch_ids,
                               predicted)
        if (tokens.phoneme_ids, tokens.pitch_ids, tokens.note_frame_counts) != (
                ref.phoneme_ids, ref.pitch_ids, ref.note_frame_counts):
            problems.append("parsed score tokenises differently from its source")
        problems += check_saved(out_path, feats)
        out_path.unlink()
        run.attempted += 1
        if problems:
            run.failed += 1
            run.notes.setdefault("problems", []).extend(problems[:3])
        return latency

    op(0, None)    # warm-up, not counted
    run.attempted = run.failed = 0
    order: list[int] = []
    untraced: dict[int, list[float]] = defaultdict(list)
    traced: dict[int, list[float]] = defaultdict(list)
    started = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - started
        if elapsed >= MAX_SECONDS or (elapsed >= seconds and (
                tracer is not None or beyond_p90(untraced, order) >= 10)):
            break
        i = k % len(texts)
        order.append(i)
        # Traced runs alternate which side goes first, from op to op and from
        # pass to pass, as the second run of a song can find memory the first
        # one just freed.
        traced_first = (k + k // len(texts)) % 2 == 1
        sides = [False] if tracer is None else [traced_first, not traced_first]
        for traced_side in sides:
            if traced_side:
                tracer.op = len(run.traced_ops)
                run.traced_ops.append(tracer.op)
                with tracer:
                    traced[i].append(op(i, tracer))
            else:
                latency = op(i, None)
                untraced[i].append(latency)
                run.busy_s += latency
                run.frames += refs[i].total_frames
        k += 1
    run.samples_s = _song_medians(untraced, order)
    if tracer is not None:
        run.traced_samples_s = _song_medians(traced, order)
    run.longest_frames = max(refs[i].total_frames for i in untraced)
    run.notes.update(songs=len(texts), songs_timed=len(untraced),
                     untraced_ops=k)

    if tracer is None:
        losses = []
        for tokens, feats in loss_songs:
            batch = training.assemble_batch(
                [training.Utterance("song", tokens, feats)])
            total, _ = training.batch_loss(params, batch, config, LossWeights(),
                                           train=False)
            losses.append(total.item())
        run.train_loss_mean = statistics.fmean(losses)
        run.notes["loss_songs"] = len(losses)
    return run


def _song_medians(latencies: dict, order: list[int]) -> list[float]:
    medians = {i: statistics.median(v) for i, v in latencies.items()}
    return [medians[i] for i in order]


def beyond_p90(latencies: dict, order: list[int]) -> int:
    """How many per-op samples lie strictly above their 90th percentile."""
    if not order:
        return 0
    samples = _song_medians(latencies, order)
    p90 = float(np.percentile(samples, 90))
    return sum(1 for x in samples if x > p90)


WORKLOADS = {
    "train-desk": run_train,
    "synth-phrases": lambda *a: run_synth(phrase_scores, *a),
    "synth-verse": lambda *a: run_synth(verse_scores, *a),
}


def traced_metrics(run: Run, tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics plus the tracing overhead on latency_ms_p50."""
    metrics, bases = layer_metrics(
        tracer, run.traced_ops, [f"setup-{k}" for k in range(SETUPS)])
    untraced = statistics.median(run.samples_s)
    traced = statistics.median(run.traced_samples_s)
    metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    bases["trace.overhead_pct"] = {"untraced_p50_ms": 1e3 * untraced,
                                   "traced_p50_ms": 1e3 * traced,
                                   "samples": len(run.samples_s)}
    return metrics, bases
