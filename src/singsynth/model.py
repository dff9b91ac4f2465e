"""Feed-forward transformer acoustic model: score-token encoder, duration
predictor, length regulator, and a decoder whose log-F0 output rides on a
residual connection from the note pitch."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node
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
    output_dim: int = OUTPUT_DIM
    dropout: float = 0.1

    def __post_init__(self):
        if self.hidden_dim % self.attention_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by "
                f"attention_heads {self.attention_heads}"
            )
        if self.output_dim != OUTPUT_DIM:
            raise ValueError(f"output_dim must be {OUTPUT_DIM}")
        if self.conv_kernel_size % 2 != 1:
            raise ValueError("conv_kernel_size must be odd")
        if min(self.hidden_dim, self.encoder_blocks, self.decoder_blocks,
               self.attention_heads, self.conv_filter_dim,
               self.phoneme_vocab_size, self.pitch_vocab_size,
               self.max_note_frames) < 1:
            raise ValueError("all model dimensions must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @classmethod
    def desk(cls) -> "ModelConfig":
        """Small configuration for laptop-scale runs and tests."""
        return cls(hidden_dim=32, encoder_blocks=1, decoder_blocks=1,
                   attention_heads=2, conv_filter_dim=64, max_note_frames=256)


class ModelParameters:
    """Named trainable tensors; iteration order is fixed by construction."""

    def __init__(self, tensors: dict[str, Node]):
        self.tensors = tensors

    def __getitem__(self, name: str) -> Node:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors.keys())

    def items(self):
        return self.tensors.items()

    def zero_grad(self) -> None:
        for node in self.tensors.values():
            node.zero_grad()


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _block_params(rng, prefix: str, cfg: ModelConfig, out: dict[str, Node]) -> None:
    d, f, k = cfg.hidden_dim, cfg.conv_filter_dim, cfg.conv_kernel_size
    for name in ("wq", "wk", "wv", "wo"):
        out[f"{prefix}.attn.{name}"] = ad.parameter(_xavier(rng, d, d, (d, d)))
    for name in ("bq", "bk", "bv", "bo"):
        out[f"{prefix}.attn.{name}"] = ad.parameter(np.zeros(d))
    out[f"{prefix}.ln_attn.gain"] = ad.parameter(np.ones(d))
    out[f"{prefix}.ln_attn.bias"] = ad.parameter(np.zeros(d))
    out[f"{prefix}.conv1.w"] = ad.parameter(_xavier(rng, k * d, f, (k, d, f)))
    out[f"{prefix}.conv1.b"] = ad.parameter(np.zeros(f))
    out[f"{prefix}.conv2.w"] = ad.parameter(_xavier(rng, k * f, d, (k, f, d)))
    out[f"{prefix}.conv2.b"] = ad.parameter(np.zeros(d))
    out[f"{prefix}.ln_conv.gain"] = ad.parameter(np.ones(d))
    out[f"{prefix}.ln_conv.bias"] = ad.parameter(np.zeros(d))


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParameters:
    d, k = config.hidden_dim, config.conv_kernel_size
    emb_scale = 1.0 / math.sqrt(d)
    tensors: dict[str, Node] = {}
    tensors["emb.phoneme"] = ad.parameter(
        rng.normal(0.0, emb_scale, size=(config.phoneme_vocab_size, d)))
    tensors["emb.pitch"] = ad.parameter(
        rng.normal(0.0, emb_scale, size=(config.pitch_vocab_size, d)))
    tensors["emb.note_frames"] = ad.parameter(
        rng.normal(0.0, emb_scale, size=(config.max_note_frames + 1, d)))
    for i in range(config.encoder_blocks):
        _block_params(rng, f"enc.{i}", config, tensors)
    tensors["dur.conv1.w"] = ad.parameter(_xavier(rng, k * d, d, (k, d, d)))
    tensors["dur.conv1.b"] = ad.parameter(np.zeros(d))
    tensors["dur.ln1.gain"] = ad.parameter(np.ones(d))
    tensors["dur.ln1.bias"] = ad.parameter(np.zeros(d))
    tensors["dur.conv2.w"] = ad.parameter(_xavier(rng, k * d, d, (k, d, d)))
    tensors["dur.conv2.b"] = ad.parameter(np.zeros(d))
    tensors["dur.ln2.gain"] = ad.parameter(np.ones(d))
    tensors["dur.ln2.bias"] = ad.parameter(np.zeros(d))
    tensors["dur.proj.w"] = ad.parameter(_xavier(rng, d, 1, (d, 1)))
    tensors["dur.proj.b"] = ad.parameter(np.zeros(1))
    for i in range(config.decoder_blocks):
        _block_params(rng, f"dec.{i}", config, tensors)
    tensors["out.w"] = ad.parameter(_xavier(rng, d, config.output_dim,
                                            (d, config.output_dim)))
    tensors["out.b"] = ad.parameter(np.zeros(config.output_dim))
    return ModelParameters(tensors)


def zeroed_params(config: ModelConfig) -> ModelParameters:
    """All-zero parameters (layer-norm gains included); for degenerate-case
    tests where the network must collapse to its residual paths."""
    params = init_params(config, np.random.default_rng(0))
    for node in params.tensors.values():
        node.value[...] = 0.0
    return params


def positional_encoding(length: int, dim: int) -> np.ndarray:
    """Fixed sinusoidal position encoding, length x dim."""
    positions = np.arange(length)[:, None]
    div = np.exp(np.arange(0, dim, 2) * (-math.log(10000.0) / dim))
    pe = np.zeros((length, dim))
    pe[:, 0::2] = np.sin(positions * div)
    pe[:, 1::2] = np.cos(positions * div[: dim // 2])
    return pe


def _maybe_dropout(x: Node, config: ModelConfig, train: bool,
                   rng: np.random.Generator | None) -> Node:
    if not train or config.dropout == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode forward pass needs an rng for dropout")
    return ad.dropout(x, ad.dropout_mask(x.shape, config.dropout, rng))


def self_attention(x: Node, params: ModelParameters, prefix: str,
                   config: ModelConfig) -> Node:
    p = lambda name: params[f"{prefix}.attn.{name}"]
    q = ad.add(ad.matmul(x, p("wq")), p("bq"))
    k = ad.add(ad.matmul(x, p("wk")), p("bk"))
    v = ad.add(ad.matmul(x, p("wv")), p("bv"))
    merged = ad.scaled_dot_attention(q, k, v, heads=config.attention_heads)
    return ad.add(ad.matmul(merged, p("wo")), p("bo"))


def fft_block(x: Node, params: ModelParameters, prefix: str, config: ModelConfig,
              train: bool = False, rng: np.random.Generator | None = None) -> Node:
    """Self-attention then a two-layer ReLU convolution stack, each sub-layer
    normalized on its input and added back through a residual connection, so
    zeroed projections leave the input untouched."""
    attn_in = ad.layer_norm(x, params[f"{prefix}.ln_attn.gain"],
                            params[f"{prefix}.ln_attn.bias"])
    attn = self_attention(attn_in, params, prefix, config)
    h = ad.add(x, _maybe_dropout(attn, config, train, rng))
    conv_in = ad.layer_norm(h, params[f"{prefix}.ln_conv.gain"],
                            params[f"{prefix}.ln_conv.bias"])
    c = ad.conv1d(conv_in, params[f"{prefix}.conv1.w"], params[f"{prefix}.conv1.b"])
    c = ad.relu(c)
    c = ad.conv1d(c, params[f"{prefix}.conv2.w"], params[f"{prefix}.conv2.b"])
    return ad.add(h, _maybe_dropout(c, config, train, rng))


def encode(tokens: PhonemeTokenSequence, params: ModelParameters,
           config: ModelConfig, train: bool = False,
           rng: np.random.Generator | None = None) -> Node:
    """Embed phoneme/pitch/frame-count token triples and run the encoder
    stack; returns an N x hidden_dim sequence."""
    phoneme_ids = np.asarray(tokens.phoneme_ids, dtype=np.int64)
    pitch_ids = np.asarray(tokens.pitch_ids, dtype=np.int64)
    if phoneme_ids.max() >= config.phoneme_vocab_size:
        raise IndexError(
            f"phoneme id {phoneme_ids.max()} out of range "
            f"[0, {config.phoneme_vocab_size})"
        )
    if pitch_ids.max() >= config.pitch_vocab_size:
        raise IndexError(
            f"pitch id {pitch_ids.max()} out of range [0, {config.pitch_vocab_size})"
        )
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
        x = fft_block(x, params, f"enc.{i}", config, train=train, rng=rng)
    return x


def predict_durations(hidden: Node, params: ModelParameters, config: ModelConfig,
                      train: bool = False,
                      rng: np.random.Generator | None = None) -> Node:
    """Per-phoneme duration regression in the log(frames + 1) domain."""
    h = ad.relu(ad.conv1d(hidden, params["dur.conv1.w"], params["dur.conv1.b"]))
    h = ad.layer_norm(h, params["dur.ln1.gain"], params["dur.ln1.bias"])
    h = _maybe_dropout(h, config, train, rng)
    h = ad.relu(ad.conv1d(h, params["dur.conv2.w"], params["dur.conv2.b"]))
    h = ad.layer_norm(h, params["dur.ln2.gain"], params["dur.ln2.bias"])
    h = _maybe_dropout(h, config, train, rng)
    v = ad.add(ad.matmul(h, params["dur.proj.w"]), params["dur.proj.b"])
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
           config: ModelConfig, train: bool = False,
           rng: np.random.Generator | None = None) -> DecoderOutput:
    """Run the decoder stack over frame-rate vectors and split the projection
    into mgc / bap / log-F0 residual / voicing logit."""
    t = expanded.shape[0]
    frame_note_logf0 = np.asarray(frame_note_logf0, dtype=np.float64)
    frame_nonrest_mask = np.asarray(frame_nonrest_mask, dtype=np.float64)
    if frame_note_logf0.shape != (t,) or frame_nonrest_mask.shape != (t,):
        raise ValueError(
            f"frame array lengths {frame_note_logf0.shape} / "
            f"{frame_nonrest_mask.shape} do not match {t} decoder frames"
        )
    x = ad.add(expanded, ad.constant(positional_encoding(t, config.hidden_dim)))
    for i in range(config.decoder_blocks):
        x = fft_block(x, params, f"dec.{i}", config, train=train, rng=rng)
    y = ad.add(ad.matmul(x, params["out.w"]), params["out.b"])
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


def forward_train(tokens: PhonemeTokenSequence, gt_features: AcousticFeatureSequence,
                  params: ModelParameters, config: ModelConfig,
                  train: bool = True,
                  rng: np.random.Generator | None = None) -> TrainForward:
    """Training-path forward pass: the length regulator runs on ground-truth
    durations so decoder frames line up with the reference features."""
    if tokens.gt_phoneme_durations is None:
        raise ValueError("forward_train needs ground-truth phoneme durations")
    total = tokens.total_frames
    if total != gt_features.num_frames:
        raise ValueError(
            f"duration total {total} does not match feature frames "
            f"{gt_features.num_frames}"
        )
    hidden = encode(tokens, params, config, train=train, rng=rng)
    log_durs = predict_durations(hidden, params, config, train=train, rng=rng)
    expanded = length_regulate(hidden, tokens.gt_phoneme_durations)
    note_logf0, nonrest = frame_pitch_arrays(tokens, tokens.gt_phoneme_durations)
    dec = decode(expanded, note_logf0, nonrest, params, config, train=train, rng=rng)
    return TrainForward(log_durations=log_durs, decoder=dec)


def _synthesize_from_hidden(tokens: PhonemeTokenSequence, hidden: Node,
                            params: ModelParameters, config: ModelConfig,
                            durations) -> AcousticFeatureSequence:
    expanded = length_regulate(hidden, durations)
    note_logf0, nonrest = frame_pitch_arrays(tokens, durations)
    dec = decode(expanded, note_logf0, nonrest, params, config, train=False)
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
        hidden = encode(tokens, params, config, train=False)
        return _synthesize_from_hidden(tokens, hidden, params, config, durations)


def predicted_durations(tokens: PhonemeTokenSequence, params: ModelParameters,
                        config: ModelConfig) -> np.ndarray:
    """Free-running integer duration predictions."""
    with ad.no_grad():
        hidden = encode(tokens, params, config, train=False)
        return decode_durations(predict_durations(hidden, params, config,
                                                  train=False).value)


def synthesize(tokens: PhonemeTokenSequence, params: ModelParameters,
               config: ModelConfig) -> tuple[AcousticFeatureSequence, np.ndarray]:
    """Inference path: predicted durations drive the length regulator. The
    encoder runs once; its output feeds both the duration head and the
    decoder."""
    with ad.no_grad():
        hidden = encode(tokens, params, config, train=False)
        durations = decode_durations(predict_durations(hidden, params, config,
                                                       train=False).value)
        feats = _synthesize_from_hidden(tokens, hidden, params, config,
                                        durations)
    return feats, durations
