import dataclasses
import io
import math
import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager

import numpy as np
import pytest

from singsynth.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from singsynth.features import AcousticFeatureSequence
from singsynth.losses import LossWeights
from singsynth.model import ModelConfig
from singsynth.score import demo_lexicon, parse_score, score_to_tokens
from singsynth import autodiff as ad, model, training
from singsynth.training import (
    AdamState,
    TrainConfig,
    TrainingDiverged,
    Utterance,
    assemble_batch,
    batch_item_indices,
    batch_loss,
    init_params,
    longest_first,
    lr_schedule,
    params_from_checkpoint,
    train,
    trained_model_config,
)

TINY_MODEL = ModelConfig(hidden_dim=8, encoder_blocks=1, decoder_blocks=1,
                         attention_heads=2, conv_filter_dim=16,
                         max_note_frames=64, dropout=0.1)


def make_utterance(seed, text="tempo 140\nla 69 0.5\nmi 64 0.25\n- 0 0.25\n"):
    rng = np.random.default_rng(seed)
    tokens = score_to_tokens(parse_score(text), demo_lexicon())
    tokens = dataclasses.replace(tokens, gt_phoneme_durations=[
        int(d) for d in rng.integers(2, 7, size=len(tokens))])
    t = tokens.total_frames
    feats = AcousticFeatureSequence(
        mgc=rng.normal(scale=0.3, size=(t, 60)),
        bap=rng.normal(scale=0.3, size=(t, 5)),
        logf0=rng.normal(loc=6.0, scale=0.1, size=t),
        vuv=(rng.random(t) > 0.3).astype(float),
    )
    return Utterance(utt_id=f"utt{seed}", tokens=tokens, features=feats)


def make_corpus(n):
    return [make_utterance(seed) for seed in range(n)]


def desk_config(**overrides):
    values = dict(batch_size=2, total_steps=12, warmup_steps=4, seed=7,
                  model=TINY_MODEL)
    values.update(overrides)
    return TrainConfig(**values)


# --- configuration and schedule --------------------------------------------

def test_train_config_full_size_defaults():
    config = TrainConfig()
    assert config.batch_size == 32
    assert config.total_steps == 40000
    assert config.warmup_steps == 4000
    assert (config.adam_beta1, config.adam_beta2) == (0.9, 0.98)
    assert config.adam_epsilon == 1e-9


def test_train_config_desk_scale():
    config = TrainConfig.desk()
    assert (config.batch_size, config.total_steps, config.warmup_steps) == \
        (8, 2000, 200)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


def test_lr_schedule_peak_at_warmup():
    warmup = 400
    lr = lr_schedule(warmup, 384, warmup)
    assert warmup ** -0.5 == pytest.approx(warmup * warmup ** -1.5, rel=1e-15)
    assert lr == pytest.approx(384 ** -0.5 * warmup ** -0.5, rel=1e-15)


def test_lr_schedule_sqrt_decay_ratio():
    warmup = 128
    ratio = lr_schedule(2 * warmup, 64, warmup) / lr_schedule(warmup, 64, warmup)
    assert abs(ratio - 1 / math.sqrt(2)) < 1e-12


def test_lr_schedule_monotonicity():
    warmup = 50
    values = [lr_schedule(s, 32, warmup) for s in range(1, 200)]
    for s in range(1, warmup - 1):
        assert values[s] > values[s - 1]
    for s in range(warmup, len(values)):
        assert values[s] < values[s - 1]


def test_lr_schedule_rejects_step_zero():
    with pytest.raises(ValueError):
        lr_schedule(0, 32, 10)


# --- batching ----------------------------------------------------------------

def test_batch_indices_wrap_when_batch_exceeds_corpus():
    picks = batch_item_indices(step=1, n_items=3, batch_size=8, seed=0)
    assert len(picks) == 8
    assert set(picks) == {0, 1, 2}


def test_batch_indices_cover_each_epoch_exactly_once():
    n = 6
    seen = []
    for step in (1, 2, 3):
        seen += batch_item_indices(step, n, 2, seed=5)
    assert sorted(seen) == list(range(n))


def test_batch_schedule_is_pure_function_of_step():
    a = batch_item_indices(4, 5, 3, seed=9)
    b = batch_item_indices(4, 5, 3, seed=9)
    assert a == b


# --- masking invariants -------------------------------------------------------

def test_loss_ignores_padding_and_unvoiced_logf0():
    corpus = [make_utterance(0), make_utterance(1, "tempo 140\nso 67 1.0\n")]
    params = init_params(TINY_MODEL, np.random.default_rng(0))
    total_a, _ = batch_loss(params, corpus, TINY_MODEL, LossWeights(), train=False)

    # scribble over ground-truth logf0 wherever the ground truth is unvoiced
    scribbled = []
    for utt in corpus:
        feats = utt.features
        logf0 = np.where(feats.vuv == 0.0, -4.56, feats.logf0)
        scribbled.append(dataclasses.replace(
            utt, features=dataclasses.replace(feats, logf0=logf0)))

    total_b, _ = batch_loss(params, scribbled, TINY_MODEL, LossWeights(),
                            train=False)
    assert total_a.item() == total_b.item()  # bit-identical


def test_training_mode_batch_loss_needs_rngs_when_the_model_drops_out():
    batch = assemble_batch([make_utterance(0)])
    params = init_params(TINY_MODEL, np.random.default_rng(0))
    assert TINY_MODEL.dropout > 0.0
    with pytest.raises(ValueError, match="needs rngs"):
        batch_loss(params, batch, TINY_MODEL, LossWeights(), train=True)
    # without dropout there is nothing to draw: training mode equals eval mode
    plain = dataclasses.replace(TINY_MODEL, dropout=0.0)
    total, _ = batch_loss(params, batch, plain, LossWeights(), train=True)
    evaluated, _ = batch_loss(params, batch, TINY_MODEL, LossWeights(), train=False)
    assert total.item() == evaluated.item()


# --- the loop -----------------------------------------------------------------

def test_train_refuses_an_empty_corpus_before_it_starts():
    started = []
    with pytest.raises(ValueError, match="^corpus is empty$"):
        train(desk_config(), [], on_start=lambda: started.append(True))
    assert started == []


def test_training_loss_decreases_on_single_utterance():
    corpus = [make_utterance(0)]
    config = desk_config(batch_size=1, total_steps=200, warmup_steps=20)
    result = train(config, corpus)
    assert result.records[-1].total < result.records[0].total


def test_training_is_deterministic():
    corpus = make_corpus(3)
    log_a, log_b = io.StringIO(), io.StringIO()
    train(desk_config(), corpus, log_stream=log_a)
    train(desk_config(), corpus, log_stream=log_b)
    assert log_a.getvalue() == log_b.getvalue()
    assert log_a.getvalue().count("\n") == 12


def test_log_record_has_nine_tab_separated_fields():
    corpus = make_corpus(2)
    result = train(desk_config(total_steps=2), corpus)
    line = result.records[0].format()
    assert len(line.split("\t")) == 9
    assert line.split("\t")[0] == "1"


def test_batch_size_larger_than_corpus_wraps():
    corpus = make_corpus(2)
    result = train(desk_config(batch_size=5, total_steps=3), corpus)
    assert len(result.records) == 3


def test_nan_loss_aborts_with_step_number():
    corpus = make_corpus(2)
    config = desk_config(total_steps=4)
    result = train(desk_config(total_steps=2), corpus)
    ckpt = result.checkpoint
    # out.w column 0 makes mgc column 0, so only L_m is not finite
    ckpt.params["out.w"][0, 0] = np.nan
    with pytest.raises(TrainingDiverged, match="step 3") as raised:
        train(config, corpus, resume_from=ckpt)
    assert "utt0 L_m=nan" in str(raised.value)
    assert "L_b" not in str(raised.value)


def test_checkpoint_round_trip_is_byte_identical(tmp_path):
    corpus = make_corpus(2)
    result = train(desk_config(total_steps=3), corpus)
    path_a = tmp_path / "a.ckpt"
    path_b = tmp_path / "b.ckpt"
    save_checkpoint(path_a, result.checkpoint)
    loaded = load_checkpoint(path_a)
    save_checkpoint(path_b, loaded)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert loaded.step == 3
    assert loaded.config == result.checkpoint.config
    for name, value in result.checkpoint.params.items():
        np.testing.assert_array_equal(value, loaded.params[name])


def test_resume_reproduces_uninterrupted_run():
    corpus = make_corpus(3)
    full = train(desk_config(total_steps=20), corpus)
    half = train(desk_config(total_steps=10), corpus)
    resumed = train(desk_config(total_steps=20), corpus,
                    resume_from=half.checkpoint)
    tail_full = [r.format() for r in full.records[10:]]
    tail_resumed = [r.format() for r in resumed.records]
    assert tail_resumed == tail_full
    for name, value in full.checkpoint.params.items():
        np.testing.assert_array_equal(value, resumed.checkpoint.params[name])


def test_resume_rejects_checkpoint_of_another_width_before_step_one():
    corpus = make_corpus(2)
    narrow = train(desk_config(total_steps=1), corpus).checkpoint
    wide = dataclasses.replace(TINY_MODEL, hidden_dim=16)
    log = io.StringIO()
    with pytest.raises(ValueError,
                       match="trained with hidden_dim 8, run has hidden_dim 16"):
        train(desk_config(total_steps=3, model=wide), corpus, resume_from=narrow,
              log_stream=log)
    assert log.getvalue() == ""


@pytest.mark.parametrize("moments", ["adam_m", "adam_v"])
def test_resume_rejects_adam_moments_that_do_not_match_parameters(moments):
    corpus = make_corpus(2)
    ckpt = train(desk_config(total_steps=1), corpus).checkpoint
    log = io.StringIO()
    del getattr(ckpt, moments)["dur.proj.b"]
    with pytest.raises(ValueError, match=f"{moments} lacks tensor dur.proj.b"):
        train(desk_config(total_steps=3), corpus, resume_from=ckpt, log_stream=log)
    getattr(ckpt, moments)["dur.proj.b"] = np.zeros(2)
    with pytest.raises(ValueError, match=f"{moments} tensor dur.proj.b has shape"):
        train(desk_config(total_steps=3), corpus, resume_from=ckpt, log_stream=log)
    getattr(ckpt, moments)["dur.proj.b"] = ckpt.params["dur.proj.b"].copy()
    getattr(ckpt, moments)["extra"] = np.zeros(1)
    with pytest.raises(ValueError, match="unknown tensors: \\['extra'\\]"):
        train(desk_config(total_steps=3), corpus, resume_from=ckpt, log_stream=log)
    assert log.getvalue() == ""


@pytest.mark.parametrize("field, value", [("attention_heads", 4),
                                          ("dropout", 0.5),
                                          ("conv_filter_dim", 32)])
def test_resume_rejects_checkpoint_of_another_model_config(field, value):
    corpus = make_corpus(2)
    ckpt = train(desk_config(total_steps=1), corpus).checkpoint
    other = dataclasses.replace(TINY_MODEL, **{field: value})
    log = io.StringIO()
    trained = getattr(TINY_MODEL, field)
    with pytest.raises(ValueError, match=f"trained with {field} {trained}, "
                                         f"run has {field} {value}"):
        train(desk_config(total_steps=3, model=other), corpus, resume_from=ckpt,
              log_stream=log)
    assert log.getvalue() == ""


def test_resume_may_change_loss_weights_and_optimizer():
    corpus = make_corpus(2)
    ckpt = train(desk_config(total_steps=1), corpus).checkpoint
    changed = desk_config(total_steps=2, warmup_steps=9, adam_beta1=0.8,
                          loss_weights=LossWeights(w_sd=0.5))
    assert len(train(changed, corpus, resume_from=ckpt).records) == 1


def test_params_from_checkpoint_initialises_no_model(monkeypatch):
    params = init_params(TINY_MODEL, np.random.default_rng(3))
    tensors = {name: node.value.copy() for name, node in reversed(params.items())}
    ckpt = Checkpoint(step=1, params=tensors, adam_m={}, adam_v={})

    def refuse(*args, **kwargs):
        raise AssertionError("params_from_checkpoint initialised a model")

    monkeypatch.setattr(model, "init_params", refuse)
    monkeypatch.setattr(training, "init_params", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    loaded = params_from_checkpoint(ckpt, TINY_MODEL)
    assert list(loaded) == list(params)
    for name, node in params.items():
        assert loaded[name].requires_grad
        np.testing.assert_array_equal(loaded[name].value, node.value)
        assert not np.shares_memory(loaded[name].value, tensors[name])


def test_params_from_checkpoint_rejects_an_unknown_param_tensor():
    params = init_params(TINY_MODEL, np.random.default_rng(3))
    tensors = {name: node.value.copy() for name, node in params.items()}
    ckpt = Checkpoint(step=1, params=tensors, adam_m={}, adam_v={})
    loaded = params_from_checkpoint(ckpt, TINY_MODEL)
    for name, node in params.items():
        np.testing.assert_array_equal(loaded[name].value, node.value)
    tensors["extra"] = np.zeros(1)
    with pytest.raises(ValueError,
                       match="checkpoint param has unknown tensors: \\['extra'\\]"):
        params_from_checkpoint(ckpt, TINY_MODEL)


@pytest.mark.parametrize("echo", [{}, {"train": {}}, {"train": []}])
def test_resume_rejects_checkpoint_without_model_config_echo(echo):
    corpus = make_corpus(2)
    ckpt = train(desk_config(total_steps=1), corpus).checkpoint
    ckpt.config = echo
    with pytest.raises(ValueError, match="no model config echo"):
        train(desk_config(total_steps=3), corpus, resume_from=ckpt)


def test_trained_model_config_reads_the_echo_and_ignores_other_keys():
    corpus = make_corpus(2)
    ckpt = train(desk_config(total_steps=1), corpus).checkpoint
    assert trained_model_config(ckpt) == TINY_MODEL
    # echoes written while the output width was a field still hold it
    ckpt.config["train"]["model"]["output_dim"] = 67
    assert trained_model_config(ckpt) == TINY_MODEL
    assert len(train(desk_config(total_steps=2), corpus,
                     resume_from=ckpt).records) == 1


@pytest.mark.parametrize("value, message", [
    (None, "lacks hidden_dim"), ("8", "has hidden_dim '8'"),
    (8.0, "has hidden_dim 8.0"), (True, "has hidden_dim True"),
])
def test_trained_model_config_names_a_missing_or_malformed_field(value, message):
    corpus = make_corpus(2)
    ckpt = train(desk_config(total_steps=1), corpus).checkpoint
    if value is None:
        del ckpt.config["train"]["model"]["hidden_dim"]
    else:
        ckpt.config["train"]["model"]["hidden_dim"] = value
    with pytest.raises(ValueError, match=f"model config echo {message}"):
        trained_model_config(ckpt)
    with pytest.raises(ValueError, match=f"model config echo {message}"):
        train(desk_config(total_steps=3), corpus, resume_from=ckpt)


def test_adam_state_updates_parameters():
    params = init_params(TINY_MODEL, np.random.default_rng(0))
    adam = AdamState(params)
    before = params["out.w"].value.copy()
    params["out.w"].grad = np.ones_like(before)
    adam.update(params, lr=0.1, config=desk_config())
    assert not np.array_equal(before, params["out.w"].value)


# --- data-parallel steps --------------------------------------------------------

@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the test if the block runs longer than this."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_with_workers(monkeypatch, workers, *args, **kwargs):
    monkeypatch.setattr(training, "worker_count", lambda batch_size: workers)
    log = io.StringIO()
    with time_limit(120):
        result = train(*args, log_stream=log, **kwargs)
    return log.getvalue(), result


def checkpoint_bytes(result, path):
    save_checkpoint(path, result.checkpoint)
    return path.read_bytes()


def test_worker_count_follows_affinity_and_batch_size():
    cpus = len(os.sched_getaffinity(0))
    assert training.worker_count(1) == 1
    assert training.worker_count(10 ** 6) == cpus


def test_one_process_without_affinity_or_fork(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(multiprocessing, "get_all_start_methods",
                      lambda: ["spawn"])
        assert training.worker_count(10 ** 6) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert training.worker_count(10 ** 6) == 1

    def no_pool(*args, **kwargs):
        raise AssertionError("one process starts no process pool")

    monkeypatch.setattr(training, "ProcessPoolExecutor", no_pool)
    log = io.StringIO()
    train(desk_config(total_steps=2), make_corpus(2), log_stream=log)
    assert log.getvalue().count("\n") == 2


def test_training_bits_do_not_depend_on_worker_count(monkeypatch, tmp_path):
    # three processes on a batch of four split it unevenly, and may outnumber
    # the cores; a misplaced gradient row or dropout stream changes the bits
    corpus = make_corpus(5)
    config = desk_config(batch_size=4, total_steps=6)
    runs = {}
    for workers in (1, 2, 3):
        log, result = run_with_workers(monkeypatch, workers, config, corpus)
        runs[workers] = (log, checkpoint_bytes(result, tmp_path / f"{workers}.ckpt"))
    assert runs[1][0].count("\n") == 6
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]


def test_resume_under_two_workers_reproduces_uninterrupted_run(monkeypatch,
                                                               tmp_path):
    corpus = make_corpus(3)
    full_log, full = run_with_workers(monkeypatch, 2,
                                      desk_config(total_steps=8), corpus)
    half_log, half = run_with_workers(monkeypatch, 2,
                                      desk_config(total_steps=4), corpus)
    rest_log, rest = run_with_workers(monkeypatch, 2, desk_config(total_steps=8),
                                      corpus, resume_from=half.checkpoint)
    assert half_log + rest_log == full_log
    assert (checkpoint_bytes(rest, tmp_path / "rest.ckpt")
            == checkpoint_bytes(full, tmp_path / "full.ckpt"))


def test_logged_loss_is_batch_loss():
    # the logged objective is batch_loss itself, with each position's
    # dropout stream, on the batch and parameters of the step
    corpus = make_corpus(3)
    config = desk_config(total_steps=1)
    record = train(config, corpus).records[0]
    params = init_params(config.model, np.random.default_rng([config.seed, 1]))
    picks = batch_item_indices(1, len(corpus), config.batch_size, config.seed)
    total, comps = batch_loss(
        params, assemble_batch([corpus[i] for i in picks]), config.model,
        config.loss_weights,
        rngs=[training.dropout_rng(config.seed, 1, i) for i in range(len(picks))])
    assert record.total == total.item()
    assert record.components == {k: comps[k].item() for k in comps}


def test_applied_gradient_is_backward_accumulated_longest_first(monkeypatch):
    # the gradient train applies has the bits of one process running
    # ad.backward on each utterance's share in turn, longest first, without
    # zeroing
    corpus = make_corpus(5)
    weights = LossWeights(w_pd=0.6, w_sd=1.3, w_m=0.9, w_b=1.7, w_f=1.1, w_u=0.4)
    config = desk_config(batch_size=5, total_steps=1, loss_weights=weights)
    applied = []
    update = AdamState.update

    def record(self, params, *args):
        applied.append({name: node.grad.copy() for name, node in params.items()})
        return update(self, params, *args)

    monkeypatch.setattr(AdamState, "update", record)
    run_with_workers(monkeypatch, 2, config, corpus)
    params = init_params(TINY_MODEL, np.random.default_rng([config.seed, 1]))
    picks = batch_item_indices(1, len(corpus), config.batch_size, config.seed)
    batch = assemble_batch([corpus[i] for i in picks])
    counts = training.batch_counts(batch)
    rngs = [training.dropout_rng(config.seed, 1, i) for i in range(len(picks))]
    order = longest_first([utt.features.num_frames for utt in batch])
    assert order != sorted(order)
    for i in order:
        share, _ = training.utterance_loss(params, batch[i], counts, TINY_MODEL,
                                           weights, rng=rngs[i])
        ad.backward(share)
    for name, node in params.items():
        assert applied[0][name].tobytes() == node.grad.tobytes(), name


@pytest.mark.parametrize("workers", [1, 2])
def test_training_step_assembles_no_batch(monkeypatch, workers):
    # the step dispatches corpus indices, so neither the parent nor a
    # worker builds a batch
    def refuse(items):
        raise AssertionError("assemble_batch called by a training step")

    monkeypatch.setattr(training, "assemble_batch", refuse)
    _, result = run_with_workers(monkeypatch, workers,
                                 desk_config(total_steps=2), make_corpus(3))
    assert [record.step for record in result.records] == [1, 2]


def test_worker_exception_fails_train_with_its_message(monkeypatch):
    parent = os.getpid()
    forward = training.forward_train

    def fail_in_worker(*args, **kwargs):
        if os.getpid() != parent:
            raise RuntimeError("forward failed inside a worker")
        return forward(*args, **kwargs)

    monkeypatch.setattr(training, "forward_train", fail_in_worker)
    with pytest.raises(RuntimeError, match="forward failed inside a worker"):
        run_with_workers(monkeypatch, 2, desk_config(total_steps=3), make_corpus(2))


def test_killed_worker_fails_train_without_hanging(monkeypatch):
    parent = os.getpid()
    forward = training.forward_train

    def die_in_worker(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return forward(*args, **kwargs)

    monkeypatch.setattr(training, "forward_train", die_in_worker)
    with pytest.raises(BrokenProcessPool):
        run_with_workers(monkeypatch, 2, desk_config(total_steps=3), make_corpus(2))


def test_non_finite_loss_aborts_before_any_update_with_workers(monkeypatch):
    corpus = make_corpus(2)
    ckpt = train(desk_config(total_steps=2), corpus).checkpoint
    ckpt.params["out.w"][0, 0] = np.nan
    updates = []
    update = AdamState.update
    monkeypatch.setattr(AdamState, "update",
                        lambda self, *a, **k: updates.append(1) or update(self, *a, **k))
    with pytest.raises(TrainingDiverged, match="step 3"):
        run_with_workers(monkeypatch, 2, desk_config(total_steps=4), corpus,
                         resume_from=ckpt)
    assert updates == []


def test_longest_first_orders_by_frames_then_position():
    assert longest_first([10, 50, 20, 50, 30]) == [1, 3, 4, 2, 0]


def test_gradient_rows_are_reused_with_the_same_bits(monkeypatch, tmp_path):
    # two processes keep 8 rows for a batch of 12, so rows 0-3 take a second
    # position each step; the bits equal the one-process run's
    corpus = make_corpus(5)
    config = desk_config(batch_size=12, total_steps=3)
    runs = {}
    for workers in (1, 2):
        log, result = run_with_workers(monkeypatch, workers, config, corpus)
        runs[workers] = (log, checkpoint_bytes(result, tmp_path / f"{workers}.ckpt"))
    assert runs[1][0].count("\n") == 3
    assert runs[2] == runs[1]


def test_exchange_holds_four_gradient_rows_per_process(monkeypatch):
    made = []

    class Recorded(training.GradientExchange):
        def __init__(self, params, rows):
            super().__init__(params, rows)
            made.append(self)

    monkeypatch.setattr(training, "GradientExchange", Recorded)
    run_with_workers(monkeypatch, 2, desk_config(batch_size=32, total_steps=1),
                     make_corpus(3))
    assert [len(exchange.grads) for exchange in made] == [min(32, 4 * 2)]


def test_train_shares_params_once_per_run_and_only_with_workers(monkeypatch):
    # one process keeps its parameters where they are; workers read them
    # from one shared row, mapped once per run, not once per step
    shared = []

    class Recorded(training.GradientExchange):
        def share_params(self, params):
            shared.append(1)
            super().share_params(params)

    monkeypatch.setattr(training, "GradientExchange", Recorded)
    run_with_workers(monkeypatch, 1, desk_config(total_steps=2), make_corpus(2))
    assert shared == []
    run_with_workers(monkeypatch, 2, desk_config(total_steps=2), make_corpus(2))
    assert shared == [1]


def test_train_leaves_no_run_behind(monkeypatch):
    # the run is set for one train call only, so the parent keeps no
    # reference to its corpus or parameters once train returns or raises
    corpus = make_corpus(2)
    ckpt = run_with_workers(monkeypatch, 2, desk_config(total_steps=2),
                            corpus)[1].checkpoint
    assert training._RUN is None
    ckpt.params["out.w"][0, 0] = np.nan
    with pytest.raises(TrainingDiverged):
        run_with_workers(monkeypatch, 2, desk_config(total_steps=3), corpus,
                         resume_from=ckpt)
    assert training._RUN is None
    parent = os.getpid()
    forward = training.forward_train

    def fail_in_worker(*args, **kwargs):
        if os.getpid() != parent:
            raise RuntimeError("forward failed inside a worker")
        return forward(*args, **kwargs)

    monkeypatch.setattr(training, "forward_train", fail_in_worker)
    with pytest.raises(RuntimeError, match="inside a worker"):
        run_with_workers(monkeypatch, 2, desk_config(total_steps=3), corpus)
    assert training._RUN is None
