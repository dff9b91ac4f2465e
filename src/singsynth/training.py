"""Training loop: Adam with the inverse-square-root warmup schedule, shuffled
mini-batches, per-step loss logging, and resumable checkpoints.

The batch schedule and every dropout draw are pure functions of (seed, step,
batch position), so resuming from a checkpoint reproduces an uninterrupted
run bit for bit. Each step is data-parallel: a pool of one process per CPU
differentiates each utterance's share of the objective on its own, while the
parent dispatches the positions longest first and adds their gradients in
that order, so the bits do not depend on the process count. The workers read
the parameters from a shared mapping that the parent's optimizer updates in
place, so no step copies them. At most four gradient rows per process are in
flight: on 2 CPUs the shared mappings, parameters included, are 4.1 MB at desk
size and 3.7 GB at the full-size configuration (batch 32).
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
from collections import deque
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from typing import IO, Callable, Iterator, Sequence, get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .checkpoint import Checkpoint
from .corpus import Utterance
from .losses import LOSS_NAMES, LossWeights, loss_counts, loss_terms, \
    utterance_share
from .model import ModelConfig, ModelParameters, forward_train, init_params, \
    param_shapes

LOG_COLUMNS = ("step", "lr", "total") + LOSS_NAMES


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    total_steps: int = 40000
    warmup_steps: int = 4000
    adam_beta1: float = 0.9
    adam_beta2: float = 0.98
    adam_epsilon: float = 1e-9
    seed: int = 0
    loss_weights: LossWeights = field(default_factory=LossWeights)
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if min(self.batch_size, self.total_steps, self.warmup_steps) < 1:
            raise ValueError("batch_size, total_steps, warmup_steps must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be >= 0")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} {getattr(self, name)!r} must be in [0, 1)")
        if not 0.0 < self.adam_epsilon < math.inf:
            raise ValueError("adam_epsilon must be positive and finite")

    @classmethod
    def desk(cls, **overrides) -> "TrainConfig":
        """Laptop-scale defaults; the plain constructor keeps full-size ones."""
        values = dict(batch_size=8, total_steps=2000, warmup_steps=200,
                      model=ModelConfig.desk())
        values.update(overrides)
        return cls(**values)


def lr_schedule(step: int, hidden_dim: int, warmup_steps: int) -> float:
    """Inverse-square-root decay with linear warmup, scaled by model width."""
    if step < 1:
        raise ValueError("lr_schedule is defined for steps >= 1")
    return hidden_dim ** -0.5 * min(step ** -0.5, step * warmup_steps ** -1.5)


# ---------------------------------------------------------------------------
# batch schedule and assembly

@lru_cache(maxsize=None)
def _epoch_permutation(seed: int, epoch: int, n_items: int) -> tuple[int, ...]:
    rng = np.random.default_rng([seed, 3, epoch])
    return tuple(int(i) for i in rng.permutation(n_items))


def batch_item_indices(step: int, n_items: int, batch_size: int,
                       seed: int) -> list[int]:
    """Deterministic shuffled schedule; batches wrap across epochs."""
    start = (step - 1) * batch_size
    picks = []
    for pos in range(start, start + batch_size):
        epoch, offset = divmod(pos, n_items)
        picks.append(_epoch_permutation(seed, epoch, n_items)[offset])
    return picks


def assemble_batch(items: Sequence[Utterance]) -> list[Utterance]:
    """A training batch: its utterances, in batch order."""
    return list(items)


def batch_counts(batch: Sequence[Utterance]) -> dict[str, int]:
    """Each loss component's element count N_c over the whole batch."""
    counts = dict.fromkeys(LOSS_NAMES, 0)
    for utt in batch:
        for name, count in loss_counts(utt).items():
            counts[name] += count
    return counts


def utterance_loss(params: ModelParameters, utt: Utterance,
                   counts: dict[str, int], config: ModelConfig,
                   weights: LossWeights, rng: np.random.Generator | None = None
                   ) -> tuple[Node, dict[str, Node]]:
    """The utterance's share L_i = sum_c w_c * sum_{c,i} / N_c of the batch
    objective (``counts`` from :func:`batch_counts`), in a graph of its own;
    ``rng`` drives its dropout, and without one there is none."""
    fwd = forward_train(utt, params, config, rng)
    return utterance_share(loss_terms(fwd, utt), counts, weights)


def dropout_rng(seed: int, step: int, i: int) -> np.random.Generator:
    """The dropout generator of batch position i at a training step."""
    return np.random.default_rng([seed, 2, step, i])


def batch_loss(params: ModelParameters, batch: Sequence[Utterance],
               config: ModelConfig, weights: LossWeights, train: bool = True,
               rngs: Sequence[np.random.Generator] | None = None
               ) -> tuple[Node, dict[str, Node]]:
    """The training objective: the sum over utterances, in batch order, of
    :func:`utterance_loss`, which makes each component the mean over every
    valid element in the batch. ``rngs[i]`` drives utterance i's dropout,
    which ``train=False`` turns off and training mode cannot run without."""
    if train and rngs is None and config.dropout > 0.0:
        raise ValueError("training-mode batch_loss needs rngs for dropout")
    counts = batch_counts(batch)
    total, comps = None, None
    for i, utt in enumerate(batch):
        loss, parts = utterance_loss(params, utt, counts, config, weights,
                                     rngs[i] if train and rngs is not None else None)
        if total is None:
            total, comps = loss, parts
        else:
            total = ad.add(total, loss)
            comps = {k: ad.add(comps[k], parts[k]) for k in LOSS_NAMES}
    return total, comps


# ---------------------------------------------------------------------------
# per-utterance gradients and the processes that compute them

class GradientExchange:
    """``rows`` flat gradient rows, as float64 views of an anonymous shared
    mapping. Made before the workers fork, so they write their gradients
    without pickling them. With workers, :meth:`share_params` moves the
    parameters into a shared row of their own; one process keeps its
    parameters where they are."""

    def __init__(self, params: ModelParameters, rows: int):
        self.layout, offset = [], 0
        for name, node in params.items():
            size = node.value.size
            self.layout.append((name, slice(offset, offset + size), node.value.shape))
            offset += size
        self.grads = np.frombuffer(mmap.mmap(-1, 8 * offset * rows)).reshape(
            rows, offset)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's part of a flat row, in its own shape."""
        return {name: flat[where].reshape(shape)
                for name, where, shape in self.layout}

    def share_params(self, params: ModelParameters) -> None:
        """Copy each parameter's value into its part of a newly mapped row
        and make that view its ``value``. Run before the workers fork: the
        optimizer updates values in place, so each worker reads the
        parent's latest parameters with no copy per step."""
        row = np.frombuffer(mmap.mmap(-1, self.grads[0].nbytes))
        for name, view in self.views(row).items():
            view[...] = params[name].value
            params[name].value = view

    def store(self, row: int, params: ModelParameters) -> None:
        """Gradient row ``row`` := the parameters' gradients, 0 for none."""
        for name, where, _ in self.layout:
            grad = params[name].grad
            self.grads[row, where] = 0.0 if grad is None else grad.reshape(-1)


def utterance_gradient(params: ModelParameters, utt: Utterance,
                       counts: dict[str, int], config: ModelConfig,
                       weights: LossWeights, exchange: GradientExchange,
                       row: int, rng: np.random.Generator | None = None
                       ) -> tuple[float, dict[str, float]]:
    """Differentiate the utterance's :func:`utterance_loss` from zero and
    store its gradient in ``exchange`` row ``row``; ``rng`` drives its
    dropout. Returns L_i and its component values; a non-finite L_i is not
    differentiated (its row is zero), as that step is abandoned."""
    for node in params.values():
        node.grad = None
    loss, comps = utterance_loss(params, utt, counts, config, weights, rng)
    value = loss.item()
    if math.isfinite(value):
        ad.backward(loss)
    exchange.store(row, params)
    return value, {k: comps[k].item() for k in LOSS_NAMES}


def worker_count(batch_size: int) -> int:
    """Processes that share each training step: one per CPU in
    :func:`autodiff.available_cpus`, at most one per batch item, and one
    where the platform cannot fork. Training results do not depend on it."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(ad.available_cpus(), batch_size)


def longest_first(frames: Sequence[int]) -> list[int]:
    """Batch positions by decreasing frame count, ties in batch order: the
    order in which a step dispatches them, so that the short utterances
    left at the end even out the processes' finishing times."""
    return sorted(range(len(frames)), key=lambda i: (-int(frames[i]), i))


# The run being trained, (params, exchange, corpus, config): set by ``train``
# before it makes its pool, restored when it returns or raises. That fork pool
# starts every worker on its first ``submit`` (Python 3.11), while the run is
# set, so each worker inherits the run of the ``train`` call that made it.
_RUN: tuple | None = None


def _gradient(step: int, counts: dict[str, int], i: int, j: int, row: int):
    """A step's task: corpus item j's gradient at batch position i, whose
    dropout stream it draws, in this process's run."""
    params, exchange, corpus, config = _RUN
    return utterance_gradient(params, corpus[j], counts, config.model,
                              config.loss_weights, exchange, row,
                              dropout_rng(config.seed, step, i))


class _Inline(Executor):
    """The pool of one process: runs each task here as it is submitted."""

    def submit(self, fn, /, *args) -> Future:
        future = Future()
        future.set_result(fn(*args))
        return future


def _in_claim_order(submit: Callable[..., Future], tasks: list[tuple],
                    window: int) -> Iterator[Future]:
    """Submit the tasks in order and yield their futures in that order, task
    k only once the caller has taken the future of task k - ``window``."""
    pending: deque[Future] = deque()
    for task in tasks:
        if len(pending) == window:
            yield pending.popleft()
        pending.append(submit(*task))
    yield from pending


# ---------------------------------------------------------------------------
# optimizer

class AdamState:
    def __init__(self, params: ModelParameters,
                 m: dict[str, np.ndarray] | None = None,
                 v: dict[str, np.ndarray] | None = None, t: int = 0):
        self.m = m if m is not None else {
            k: np.zeros_like(node.value) for k, node in params.items()}
        self.v = v if v is not None else {
            k: np.zeros_like(node.value) for k, node in params.items()}
        self.t = t

    def update(self, params: ModelParameters, lr: float,
               config: TrainConfig) -> None:
        b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_epsilon
        self.t += 1
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, node in params.items():
            g = node.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            node.value -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


# ---------------------------------------------------------------------------
# the loop

@dataclass
class LogRecord:
    step: int
    lr: float
    total: float
    components: dict[str, float]

    def format(self) -> str:
        fields = [str(self.step), repr(self.lr), repr(self.total)]
        fields += [repr(self.components[k]) for k in LOSS_NAMES]
        return "\t".join(fields)


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    records: list[LogRecord]


def train(config: TrainConfig, corpus: Sequence[Utterance],
          resume_from: Checkpoint | None = None,
          log_stream: IO[str] | None = None,
          on_start: Callable[[], None] | None = None) -> TrainResult:
    """Run Adam updates until config.total_steps, logging one record per step.

    Aborts with :class:`TrainingDiverged` on a non-finite loss. An empty
    corpus raises ``ValueError`` before step one, as does a ``resume_from``
    checkpoint that does not match ``config.model``; an Utterance is checked
    when made and cannot change. ``on_start()`` runs once both are accepted.

    Each step's positions run in a pool of :func:`worker_count` processes,
    forked once both checks pass and shut down on return, while this one
    dispatches and adds; with one process it runs them itself. A worker's
    exception fails the step with its message; a killed worker raises
    ``BrokenProcessPool``. Logs and checkpoints do not depend on the number
    of processes.
    """
    global _RUN
    if not corpus:
        raise ValueError("corpus is empty")

    if resume_from is not None:
        _check_trained_model(resume_from, config.model)
        params = params_from_checkpoint(resume_from, config.model)
        shapes = param_shapes(config.model)
        adam = AdamState(params,
                         m=_checked_tensors(resume_from.adam_m, shapes, "adam_m"),
                         v=_checked_tensors(resume_from.adam_v, shapes, "adam_v"),
                         t=resume_from.step)
        start_step = resume_from.step + 1
    else:
        params = init_params(config.model, np.random.default_rng([config.seed, 1]))
        adam = AdamState(params)
        start_step = 1

    if on_start is not None:
        on_start()

    workers = worker_count(config.batch_size)
    # four gradient rows per process keep each one busy while the parent adds
    exchange = GradientExchange(
        params, 1 if workers == 1 else min(config.batch_size, 4 * workers))
    previous, _RUN = _RUN, (params, exchange, corpus, config)
    pool, records = _Inline(), []
    try:
        if workers > 1:
            exchange.share_params(params)
            # forked once the exchange exists, so workers share its mappings,
            # parameters included, and inherit the corpus copy-on-write
            pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"))
        for step in range(start_step, config.total_steps + 1):
            record = _train_step(step, partial(pool.submit, _gradient))
            adam.update(params, record.lr, config)
            records.append(record)
            if log_stream is not None:
                log_stream.write(record.format() + "\n")
                log_stream.flush()
    finally:
        pool.shutdown(cancel_futures=True)
        _RUN = previous

    # the run's own arrays, uncopied: nothing updates them any more
    final = Checkpoint(
        step=max(config.total_steps, start_step - 1),
        params={k: node.value for k, node in params.items()},
        adam_m=adam.m, adam_v=adam.v, config={"train": asdict(config)})
    return TrainResult(checkpoint=final, records=records)


def _train_step(step: int, submit: Callable[..., Future]) -> LogRecord:
    """One step's objective and gradient. The parent dispatches the batch
    positions longest first; the k-th writes its gradient into row
    k mod R of the exchange, and the parent adds the rows in that same order
    as they finish, so at most R positions are in flight and the bits do
    not depend on who computes them.
    ``submit(step, counts, i, j, row)`` runs batch position i, corpus item
    j, in a worker or in this process. Returns only once every task has
    finished, so the update that follows changes no parameter a worker is
    reading. Leaves the summed gradient in the parameters' ``.grad``; raises
    TrainingDiverged before any update on a non-finite loss, with its cause."""
    params, exchange, corpus, config = _RUN
    picks = batch_item_indices(step, len(corpus), config.batch_size, config.seed)
    counts = batch_counts([corpus[j] for j in picks])
    rows = len(exchange.grads)
    order = longest_first([corpus[j].features.num_frames for j in picks])
    tasks = [(step, counts, i, picks[i], k % rows) for k, i in enumerate(order)]
    results, gradient = [None] * len(tasks), None
    claimed = _in_claim_order(submit, tasks, rows)
    for (_, _, i, _, row), future in zip(tasks, claimed):
        results[i] = future.result()
        if gradient is None:
            gradient = exchange.grads[row].copy()
        else:
            gradient += exchange.grads[row]
    total, comps = results[0][0], dict(results[0][1])
    for value, parts in results[1:]:
        total += value
        for k in LOSS_NAMES:
            comps[k] += parts[k]
    if not math.isfinite(total):
        bad = "; ".join(" ".join([corpus[picks[i]].utt_id] + [
            f"{k}={v!r}" for k, v in parts.items() if not math.isfinite(v)])
            for i, (value, parts) in enumerate(results) if not math.isfinite(value))
        raise TrainingDiverged(f"non-finite loss at step {step}: {bad}")
    for name, grad in exchange.views(gradient).items():
        params[name].grad = grad
    return LogRecord(step=step, lr=lr_schedule(step, config.model.hidden_dim,
                                               config.warmup_steps),
                     total=total, components=comps)


def _checked_tensors(tensors: dict[str, np.ndarray],
                     shapes: dict[str, tuple[int, ...]],
                     label: str) -> dict[str, np.ndarray]:
    """Copies of one checkpoint group's tensors (``param``, ``adam_m`` or
    ``adam_v``) in the order of ``shapes``, a :func:`model.param_shapes`
    table. The group must hold exactly the tensors the table names, each of
    its shape; raises ValueError naming the first that does not."""
    unknown = sorted(set(tensors) - set(shapes))
    if unknown:
        raise ValueError(f"checkpoint {label} has unknown tensors: {unknown}")
    for name, shape in shapes.items():
        if name not in tensors:
            raise ValueError(f"checkpoint {label} lacks tensor {name}")
        if tensors[name].shape != shape:
            raise ValueError(
                f"checkpoint {label} tensor {name} has shape "
                f"{tensors[name].shape}, model expects {shape}"
            )
    return {name: tensors[name].copy() for name in shapes}


def trained_model_config(ckpt: Checkpoint) -> ModelConfig:
    """The model config a checkpoint was trained with, from its config echo.
    Other keys are ignored, as older echoes also hold the output width; a
    missing echo or field, or one that is not a number, raises ValueError."""
    echo = ckpt.config.get("train")
    trained = echo.get("model") if isinstance(echo, dict) else None
    if not isinstance(trained, dict):
        raise ValueError("checkpoint has no model config echo in 'train'")
    values = {}
    for name, kind in get_type_hints(ModelConfig).items():
        if name not in trained:
            raise ValueError(f"checkpoint model config echo lacks {name}")
        value = values[name] = trained[name]
        if isinstance(value, bool) or not isinstance(value, (int, kind)):
            raise ValueError(f"checkpoint model config echo has {name} {value!r}")
    return ModelConfig(**values)


def _check_trained_model(ckpt: Checkpoint, model: ModelConfig) -> None:
    """A resumed run must use the model config the checkpoint was trained
    with; loss weights and optimizer settings may change."""
    trained = asdict(trained_model_config(ckpt))
    for name, ours in asdict(model).items():
        if ours != trained[name]:
            raise ValueError(f"checkpoint was trained with {name} "
                             f"{trained[name]!r}, run has {name} {ours!r}")


def params_from_checkpoint(ckpt: Checkpoint, config: ModelConfig) -> ModelParameters:
    """Model parameters (for inference or resuming) made from copies of the
    checkpoint's tensors, checked against :func:`model.param_shapes`; no
    model is initialised first. A missing, misshapen or unknown tensor raises
    ValueError naming it."""
    tensors = _checked_tensors(ckpt.params, param_shapes(config), "param")
    return {name: ad.parameter(value) for name, value in tensors.items()}
