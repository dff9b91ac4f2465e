"""Feed-forward transformer acoustic model: score-token encoder, duration
predictor, length regulator, and a decoder whose log-F0 output rides on a
residual connection from the note pitch."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .corpus import Utterance
from .features import AcousticFeatureSequence, BAP_DIM, MGC_DIM
from .score import PhonemeTokenSequence, frame_pitch_arrays

OUTPUT_DIM = MGC_DIM + BAP_DIM + 1 + 1  # mgc | bap | logf0 residual | vuv logit


@dataclass(frozen=True)
class ModelConfig:
    hidden_dim: int = 384
    encoder_blocks: int = 6
    decoder_blocks: int = 6
    attention_heads: int = 2
    conv_kernel_size: int = 3
    conv_filter_dim: int = 1536
    phoneme_vocab_size: int = 72
    pitch_vocab_size: int = 128
    max_note_frames: int = 512
    dropout: float = 0.1

    def __post_init__(self):
        if min(self.hidden_dim, self.encoder_blocks, self.decoder_blocks,
               self.attention_heads, self.conv_kernel_size, self.conv_filter_dim,
               self.phoneme_vocab_size, self.pitch_vocab_size,
               self.max_note_frames) < 1:
            raise ValueError("all model dimensions must be positive")
        if self.hidden_dim % self.attention_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by "
                f"attention_heads {self.attention_heads}"
            )
        if self.conv_kernel_size % 2 != 1:
            raise ValueError("conv_kernel_size must be odd")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @classmethod
    def desk(cls) -> "ModelConfig":
        """Small configuration for laptop-scale runs and tests."""
        return cls(hidden_dim=32, encoder_blocks=1, decoder_blocks=1,
                   attention_heads=2, conv_filter_dim=64, max_note_frames=256)


# named trainable tensors, in the order of param_shapes
ModelParameters = dict[str, Node]


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every trainable tensor's name and shape, in initialisation order: the
    one list of the model's tensors, for building and for checking them."""
    d, f, k = config.hidden_dim, config.conv_filter_dim, config.conv_kernel_size
    block = {**{f"attn.{w}": (d, d) for w in ("wq", "wk", "wv", "wo")},
             **{f"attn.{b}": (d,) for b in ("bq", "bk", "bv", "bo")},
             "ln_attn.gain": (d,), "ln_attn.bias": (d,),
             "conv1.w": (k, d, f), "conv1.b": (f,), "conv2.w": (k, f, d),
             "conv2.b": (d,), "ln_conv.gain": (d,), "ln_conv.bias": (d,)}
    shapes = {"emb.phoneme": (config.phoneme_vocab_size, d),
              "emb.pitch": (config.pitch_vocab_size, d),
              "emb.note_frames": (config.max_note_frames + 1, d)}
    for i in range(config.encoder_blocks):
        shapes.update({f"enc.{i}.{name}": shape for name, shape in block.items()})
    for i in (1, 2):
        shapes.update({f"dur.conv{i}.w": (k, d, d), f"dur.conv{i}.b": (d,),
                       f"dur.ln{i}.gain": (d,), f"dur.ln{i}.bias": (d,)})
    shapes.update({"dur.proj.w": (d, 1), "dur.proj.b": (1,)})
    for i in range(config.decoder_blocks):
        shapes.update({f"dec.{i}.{name}": shape for name, shape in block.items()})
    shapes.update({"out.w": (d, OUTPUT_DIM), "out.b": (OUTPUT_DIM,)})
    return shapes


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParameters:
    """Fresh parameters, drawn from ``rng`` in :func:`param_shapes` order:
    ``emb.*`` tensors are N(0, 1/sqrt(hidden_dim)); every other tensor of
    rank >= 2 is Xavier-uniform, with fan-in the product of all axes but the
    last and fan-out the last axis; ``*.gain`` tensors are 1 and the rest 0."""
    params: ModelParameters = {}
    for name, shape in param_shapes(config).items():
        if name.startswith("emb."):
            value = rng.normal(0.0, 1.0 / math.sqrt(config.hidden_dim), size=shape)
        elif len(shape) >= 2:
            limit = math.sqrt(6.0 / (math.prod(shape[:-1]) + shape[-1]))
            value = rng.uniform(-limit, limit, size=shape)
        else:
            value = np.ones(shape) if name.endswith(".gain") else np.zeros(shape)
        params[name] = ad.parameter(value)
    return params


_POSITION_TABLES: dict[int, np.ndarray] = {}  # width -> read-only table


def positional_encoding(length: int, dim: int) -> np.ndarray:
    """Fixed sinusoidal position encoding, length x dim: a read-only slice of
    one table per width, recomputed only when a longer length is asked for."""
    pe = _POSITION_TABLES.get(dim)
    if pe is None or len(pe) < length:
        positions = np.arange(length)[:, None]
        div = np.exp(np.arange(0, dim, 2) * (-math.log(10000.0) / dim))
        pe = np.zeros((length, dim))
        pe[:, 0::2] = np.sin(positions * div)
        pe[:, 1::2] = np.cos(positions * div[: dim // 2])
        pe.flags.writeable = False
        _POSITION_TABLES[dim] = pe
    return pe[:length]


def _maybe_dropout(x: Node, config: ModelConfig,
                   rng: np.random.Generator | None) -> Node:
    if rng is None or config.dropout == 0.0:
        return x
    return ad.dropout(x, ad.dropout_mask(x.shape, config.dropout, rng))


def self_attention(x: Node, params: ModelParameters, prefix: str,
                   config: ModelConfig) -> Node:
    p = lambda name: params[f"{prefix}.attn.{name}"]
    q = ad.matmul(x, p("wq"), p("bq"))
    k = ad.matmul(x, p("wk"), p("bk"))
    v = ad.matmul(x, p("wv"), p("bv"))
    merged = ad.scaled_dot_attention(q, k, v, heads=config.attention_heads)
    return ad.matmul(merged, p("wo"), p("bo"))


def fft_block(x: Node, params: ModelParameters, prefix: str, config: ModelConfig,
              rng: np.random.Generator | None = None) -> Node:
    """Self-attention then a two-layer ReLU convolution stack, each sub-layer
    normalized on its input and added back through a residual connection, so
    zeroed projections leave the input untouched."""
    attn_in = ad.layer_norm(x, params[f"{prefix}.ln_attn.gain"],
                            params[f"{prefix}.ln_attn.bias"])
    attn = self_attention(attn_in, params, prefix, config)
    h = ad.add(x, _maybe_dropout(attn, config, rng))
    conv_in = ad.layer_norm(h, params[f"{prefix}.ln_conv.gain"],
                            params[f"{prefix}.ln_conv.bias"])
    c = ad.conv1d(conv_in, params[f"{prefix}.conv1.w"], params[f"{prefix}.conv1.b"])
    c = ad.relu(c)
    c = ad.conv1d(c, params[f"{prefix}.conv2.w"], params[f"{prefix}.conv2.b"])
    return ad.add(h, _maybe_dropout(c, config, rng))


def encode(tokens: PhonemeTokenSequence, params: ModelParameters,
           config: ModelConfig, rng: np.random.Generator | None = None) -> Node:
    """Embed phoneme/pitch/frame-count token triples and run the encoder
    stack; returns an N x hidden_dim sequence."""
    phoneme_ids = np.asarray(tokens.phoneme_ids, dtype=np.int64)
    pitch_ids = np.asarray(tokens.pitch_ids, dtype=np.int64)
    for kind, ids, size in (("phoneme", phoneme_ids, config.phoneme_vocab_size),
                            ("pitch", pitch_ids, config.pitch_vocab_size)):
        if ids.max() >= size:
            raise IndexError(f"{kind} id {ids.max()} out of range [0, {size})")
    frame_buckets = np.minimum(
        np.asarray(tokens.note_frame_counts, dtype=np.int64), config.max_note_frames
    )
    x = ad.add(
        ad.add(ad.embedding(params["emb.phoneme"], phoneme_ids),
               ad.embedding(params["emb.pitch"], pitch_ids)),
        ad.embedding(params["emb.note_frames"], frame_buckets),
    )
    x = ad.add(x, ad.constant(positional_encoding(len(tokens), config.hidden_dim)))
    for i in range(config.encoder_blocks):
        x = fft_block(x, params, f"enc.{i}", config, rng)
    return x


def predict_durations(hidden: Node, params: ModelParameters, config: ModelConfig,
                      rng: np.random.Generator | None = None) -> Node:
    """Per-phoneme duration regression in the log(frames + 1) domain."""
    h = ad.relu(ad.conv1d(hidden, params["dur.conv1.w"], params["dur.conv1.b"]))
    h = ad.layer_norm(h, params["dur.ln1.gain"], params["dur.ln1.bias"])
    h = _maybe_dropout(h, config, rng)
    h = ad.relu(ad.conv1d(h, params["dur.conv2.w"], params["dur.conv2.b"]))
    h = ad.layer_norm(h, params["dur.ln2.gain"], params["dur.ln2.bias"])
    h = _maybe_dropout(h, config, rng)
    v = ad.matmul(h, params["dur.proj.w"], params["dur.proj.b"])
    return ad.reshape(v, (hidden.shape[0],))


def decode_durations(log_durations: np.ndarray) -> np.ndarray:
    """Integer frame counts from log(frames + 1) values, clamped to >= 1.

    Raises ValueError naming the first phoneme whose prediction is not
    finite or whose frame count does not fit in int64.
    """
    log_durations = np.asarray(log_durations, dtype=np.float64)
    with np.errstate(over="ignore"):
        rounded = np.floor(np.exp(log_durations) - 1.0 + 0.5)
    ok = np.isfinite(log_durations) & (rounded < 2.0 ** 63)
    if not ok.all():
        i = int(np.argmin(ok))
        cause = ("is not finite" if not np.isfinite(log_durations[i])
                 else "gives a frame count beyond int64")
        raise ValueError(
            f"duration prediction for phoneme {i} {cause}: "
            f"log(frames + 1) = {float(log_durations[i])!r}"
        )
    return np.maximum(1, rounded.astype(np.int64))


def length_regulate(hidden: Node, durations) -> Node:
    """Repeat phoneme row i durations[i] times to reach frame rate."""
    return ad.repeat_rows(hidden, durations)


@dataclass
class DecoderOutput:
    mgc: Node        # T x 60
    bap: Node        # T x 5
    logf0: Node      # T, note pitch plus predicted residual; 0 on rest frames
    vuv_logit: Node  # T
    vuv_prob: Node   # T


def decode(expanded: Node, frame_note_logf0: np.ndarray,
           frame_nonrest_mask: np.ndarray, params: ModelParameters,
           config: ModelConfig,
           rng: np.random.Generator | None = None) -> DecoderOutput:
    """Run the decoder stack over frame-rate vectors and split the projection
    into mgc / bap / log-F0 residual / voicing logit. Frame arrays whose
    length is not the decoder's frame count raise the op's ShapeError."""
    t = expanded.shape[0]
    x = ad.add(expanded, ad.constant(positional_encoding(t, config.hidden_dim)))
    for i in range(config.decoder_blocks):
        x = fft_block(x, params, f"dec.{i}", config, rng)
    y = ad.matmul(x, params["out.w"], params["out.b"])
    mgc, bap, residual, logit = ad.split_last(y, [MGC_DIM, BAP_DIM, 1, 1])
    residual = ad.reshape(residual, (t,))
    logit = ad.reshape(logit, (t,))
    logf0 = ad.mul(ad.add(residual, ad.constant(frame_note_logf0)),
                   ad.constant(frame_nonrest_mask))
    return DecoderOutput(mgc=mgc, bap=bap, logf0=logf0,
                         vuv_logit=logit, vuv_prob=ad.sigmoid(logit))


@dataclass
class TrainForward:
    log_durations: Node      # N, log(frames + 1) domain
    decoder: DecoderOutput


def forward_train(utt: Utterance, params: ModelParameters, config: ModelConfig,
                  rng: np.random.Generator | None = None) -> TrainForward:
    """Training-path forward pass, with dropout drawn from ``rng`` if one is
    given: the length regulator runs on the utterance's ground-truth
    durations, so decoder frames line up with its reference features."""
    tokens = utt.tokens
    hidden = encode(tokens, params, config, rng)
    log_durs = predict_durations(hidden, params, config, rng)
    expanded = length_regulate(hidden, tokens.gt_phoneme_durations)
    note_logf0, nonrest = frame_pitch_arrays(tokens, tokens.gt_phoneme_durations)
    dec = decode(expanded, note_logf0, nonrest, params, config, rng)
    return TrainForward(log_durations=log_durs, decoder=dec)


def _synthesize_from_hidden(tokens: PhonemeTokenSequence, hidden: Node,
                            params: ModelParameters, config: ModelConfig,
                            durations) -> AcousticFeatureSequence:
    expanded = length_regulate(hidden, durations)
    note_logf0, nonrest = frame_pitch_arrays(tokens, durations)
    dec = decode(expanded, note_logf0, nonrest, params, config)
    return AcousticFeatureSequence(
        mgc=dec.mgc.value, bap=dec.bap.value,
        logf0=dec.logf0.value, vuv=dec.vuv_prob.value,
    )


def synthesize_with_durations(tokens: PhonemeTokenSequence,
                              params: ModelParameters, config: ModelConfig,
                              durations) -> AcousticFeatureSequence:
    """Inference with externally supplied frame counts (e.g. ground truth,
    for frame-aligned evaluation). Runs graph-free, like every inference
    entry point here."""
    with ad.no_grad():
        hidden = encode(tokens, params, config)
        return _synthesize_from_hidden(tokens, hidden, params, config, durations)


def predicted_durations(tokens: PhonemeTokenSequence, params: ModelParameters,
                        config: ModelConfig) -> np.ndarray:
    """Free-running integer duration predictions."""
    with ad.no_grad():
        hidden = encode(tokens, params, config)
        return decode_durations(predict_durations(hidden, params, config).value)


def synthesize(tokens: PhonemeTokenSequence, params: ModelParameters,
               config: ModelConfig, durations=None
               ) -> tuple[AcousticFeatureSequence, np.ndarray]:
    """Inference path: the features and the predicted integer durations,
    from one encoder pass that feeds both the duration head and the
    decoder. The predicted durations drive the length regulator unless
    ``durations`` is given (e.g. ground truth, for frame-aligned
    evaluation); then the features are aligned to those."""
    with ad.no_grad():
        hidden = encode(tokens, params, config)
        predicted = decode_durations(predict_durations(hidden, params, config).value)
        feats = _synthesize_from_hidden(
            tokens, hidden, params, config,
            predicted if durations is None else durations)
    return feats, predicted
