"""Training loop: Adam with the inverse-square-root warmup schedule, shuffled
mini-batches padded per batch with loss masking, per-step loss logging, and
resumable checkpoints.

The batch schedule and every dropout draw are pure functions of (seed, step),
so resuming from a checkpoint reproduces an uninterrupted run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from typing import IO, Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .checkpoint import Checkpoint
from .corpus import Utterance
from .features import AcousticFeatureSequence, BAP_DIM, MGC_DIM
from .losses import LOSS_NAMES, LossWeights, loss_terms, pooled_loss
from .model import ModelConfig, ModelParameters, forward_train, init_params
from .score import frame_pitch_arrays

LOG_COLUMNS = ("step", "lr", "total") + LOSS_NAMES


class TrainingDiverged(RuntimeError):
    pass


class CorpusValidationError(ValueError):
    def __init__(self, problems: list[str]):
        super().__init__(
            "corpus validation failed:\n" + "\n".join(problems)
        )
        self.problems = problems


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

    @classmethod
    def desk(cls, **overrides) -> "TrainConfig":
        """Laptop-scale defaults; the plain constructor keeps full-size ones."""
        values = dict(batch_size=8, total_steps=2000, warmup_steps=200,
                      model=ModelConfig.desk())
        values.update(overrides)
        return cls(**values)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        data = dict(data)
        data["loss_weights"] = LossWeights(**data.get("loss_weights", {}))
        data["model"] = ModelConfig(**data.get("model", {}))
        return cls(**data)


def lr_schedule(step: int, hidden_dim: int, warmup_steps: int) -> float:
    """Inverse-square-root decay with linear warmup, scaled by model width."""
    if step < 1:
        raise ValueError("lr_schedule is defined for steps >= 1")
    return hidden_dim ** -0.5 * min(step ** -0.5, step * warmup_steps ** -1.5)


def validate_corpus(corpus: Sequence[Utterance]) -> list[str]:
    problems = []
    if not corpus:
        problems.append("corpus is empty")
    for utt in corpus:
        try:
            utt.tokens.validate()
            if utt.tokens.gt_phoneme_durations is None:
                problems.append(f"{utt.utt_id}: missing ground-truth durations")
            elif utt.tokens.total_frames != utt.features.num_frames:
                problems.append(
                    f"{utt.utt_id}: duration total {utt.tokens.total_frames} != "
                    f"feature frames {utt.features.num_frames}"
                )
        except ValueError as exc:
            problems.append(f"{utt.utt_id}: {exc}")
    return problems


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


@dataclass
class Batch:
    """One training batch, with ground truth padded to the batch maxima.

    Losses read only the leading valid region of each padded row, so
    perturbing padding never changes the loss.
    """

    items: list[Utterance]
    gt_durations: np.ndarray   # B x Nmax, 0 on padding
    mgc: np.ndarray            # B x Tmax x 60
    bap: np.ndarray            # B x Tmax x 5
    logf0: np.ndarray          # B x Tmax
    vuv: np.ndarray            # B x Tmax
    n_phonemes: np.ndarray     # B
    n_frames: np.ndarray       # B


def assemble_batch(items: list[Utterance]) -> Batch:
    b = len(items)
    n_max = max(len(u.tokens) for u in items)
    t_max = max(u.features.num_frames for u in items)
    gt_durations = np.zeros((b, n_max), dtype=np.int64)
    mgc = np.zeros((b, t_max, MGC_DIM))
    bap = np.zeros((b, t_max, BAP_DIM))
    logf0 = np.zeros((b, t_max))
    vuv = np.zeros((b, t_max))
    n_phonemes = np.zeros(b, dtype=np.int64)
    n_frames = np.zeros(b, dtype=np.int64)
    for i, utt in enumerate(items):
        n, t = len(utt.tokens), utt.features.num_frames
        gt_durations[i, :n] = utt.tokens.gt_phoneme_durations
        mgc[i, :t] = utt.features.mgc
        bap[i, :t] = utt.features.bap
        logf0[i, :t] = utt.features.logf0
        vuv[i, :t] = utt.features.vuv
        n_phonemes[i] = n
        n_frames[i] = t
    return Batch(items=list(items), gt_durations=gt_durations, mgc=mgc, bap=bap,
                 logf0=logf0, vuv=vuv, n_phonemes=n_phonemes, n_frames=n_frames)


def batch_loss(params: ModelParameters, batch: Batch, config: ModelConfig,
               weights: LossWeights, train: bool = True,
               rng: np.random.Generator | None = None
               ) -> tuple[Node, dict[str, Node]]:
    """Loss components pooled over every valid element in the batch."""
    terms = []
    for i, utt in enumerate(batch.items):
        n, t = int(batch.n_phonemes[i]), int(batch.n_frames[i])
        gt = AcousticFeatureSequence(
            mgc=batch.mgc[i, :t], bap=batch.bap[i, :t],
            logf0=batch.logf0[i, :t], vuv=batch.vuv[i, :t],
        )
        fwd = forward_train(utt.tokens, gt, params, config, train=train, rng=rng)
        _, nonrest = frame_pitch_arrays(utt.tokens, utt.tokens.gt_phoneme_durations)
        terms.append(loss_terms(fwd, batch.gt_durations[i, :n],
                                utt.tokens.syllable_spans, gt, nonrest))
    return pooled_loss(terms, weights)


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
          extra_config: dict | None = None,
          on_start: Callable[[], None] | None = None) -> TrainResult:
    """Run Adam updates until config.total_steps, logging one record per step.

    Aborts with :class:`TrainingDiverged` on a non-finite loss and with
    :class:`CorpusValidationError` before step one if the corpus is broken;
    a ``resume_from`` checkpoint that does not match ``config.model`` raises
    ``ValueError``, also before step one. ``on_start()`` runs once both are
    accepted.
    """
    problems = validate_corpus(corpus)
    if problems:
        raise CorpusValidationError(problems)

    if resume_from is not None:
        params = params_from_checkpoint(resume_from, config.model)
        adam = AdamState(params,
                         m=_checked_moments(resume_from.adam_m, params, "adam_m"),
                         v=_checked_moments(resume_from.adam_v, params, "adam_v"),
                         t=resume_from.step)
        _check_trained_model(resume_from, config.model)
        start_step = resume_from.step + 1
    else:
        params = init_params(config.model, np.random.default_rng([config.seed, 1]))
        adam = AdamState(params)
        start_step = 1

    if on_start is not None:
        on_start()
    config_echo = {"train": config.to_dict()}
    if extra_config:
        config_echo.update(extra_config)

    records: list[LogRecord] = []
    for step in range(start_step, config.total_steps + 1):
        picks = batch_item_indices(step, len(corpus), config.batch_size, config.seed)
        batch = assemble_batch([corpus[i] for i in picks])
        rng = np.random.default_rng([config.seed, 2, step])
        params.zero_grad()
        total, comps = batch_loss(params, batch, config.model,
                                  config.loss_weights, train=True, rng=rng)
        total_value = total.item()
        if not math.isfinite(total_value):
            raise TrainingDiverged(f"non-finite loss at step {step}")
        ad.backward(total)
        lr = lr_schedule(step, config.model.hidden_dim, config.warmup_steps)
        adam.update(params, lr, config)
        record = LogRecord(
            step=step, lr=lr, total=total_value,
            components={k: comps[k].item() for k in LOSS_NAMES},
        )
        records.append(record)
        if log_stream is not None:
            log_stream.write(record.format() + "\n")
            log_stream.flush()

    final = Checkpoint(
        step=max(config.total_steps, start_step - 1),
        params={k: node.value.copy() for k, node in params.items()},
        adam_m={k: v.copy() for k, v in adam.m.items()},
        adam_v={k: v.copy() for k, v in adam.v.items()},
        config=config_echo,
    )
    return TrainResult(checkpoint=final, records=records)


def _checked_moments(moments: dict[str, np.ndarray], params: ModelParameters,
                     label: str) -> dict[str, np.ndarray]:
    """Copies of a checkpoint's Adam moments, which must hold exactly one
    tensor of the right shape per parameter."""
    unknown = sorted(set(moments) - set(params.names()))
    if unknown:
        raise ValueError(f"checkpoint {label} has unknown tensors: {unknown}")
    for name, node in params.items():
        if name not in moments:
            raise ValueError(f"checkpoint {label} lacks tensor {name}")
        if moments[name].shape != node.value.shape:
            raise ValueError(
                f"checkpoint {label} tensor {name} has shape "
                f"{moments[name].shape}, model expects {node.value.shape}"
            )
    return {k: v.copy() for k, v in moments.items()}


def _check_trained_model(ckpt: Checkpoint, model: ModelConfig) -> None:
    """A resumed run must use the model config the checkpoint was trained
    with; loss weights and optimizer settings may change."""
    echo = ckpt.config.get("train")
    trained = echo.get("model") if isinstance(echo, dict) else None
    if not isinstance(trained, dict):
        raise ValueError("checkpoint has no model config echo to resume from")
    for f in fields(model):
        ours, theirs = getattr(model, f.name), trained.get(f.name)
        if ours != theirs:
            raise ValueError(
                f"checkpoint was trained with {f.name} {theirs!r}, "
                f"run has {f.name} {ours!r}"
            )


def params_from_checkpoint(ckpt: Checkpoint, config: ModelConfig) -> ModelParameters:
    """Rebuild model parameters (for inference or resuming) from checkpoint
    tensors; a missing or misshapen tensor raises ValueError naming it."""
    params = init_params(config, np.random.default_rng(0))
    missing = set(params.names()) - set(ckpt.params)
    if missing:
        raise ValueError(f"checkpoint lacks tensors: {sorted(missing)}")
    for name, node in params.items():
        if node.value.shape != ckpt.params[name].shape:
            raise ValueError(
                f"checkpoint tensor {name} has shape {ckpt.params[name].shape}, "
                f"model expects {node.value.shape}"
            )
        node.value[...] = ckpt.params[name]
    return params
