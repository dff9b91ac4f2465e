"""Dense float64 tensors with reverse-mode automatic differentiation.

Tensor values live in contiguous row-major numpy float64 buffers. Every
operation returns a :class:`Node` that records its parents together with a
pullback closure; :func:`backward` walks a scalar loss's graph once, freeing
each node's parents as it goes, and adds the gradients into the ``.grad`` of
the parameters it reaches. Inside :func:`no_grad` no op records a graph.

Each node takes a creation number from one module counter, larger than its
parents' numbers, so :func:`backward` walks the graph in decreasing number
instead of sorting it first.

:func:`scaled_dot_attention` runs over tiles of about 2^16 scores, small
enough for a core's L2 cache, in three passes over the H x T x S scores
forward, four when it subtracts a precomputed row max, and seven backward;
a recorded call keeps one tile and T- or S-row arrays, never an H x T x S one.

Broadcasting is deliberately restricted to :func:`matmul`'s bias and
:func:`layer_norm`'s gain and bias, each over the last axis; everything else
demands exact shape agreement so that shape bugs surface as errors instead of
silent broadcasts.
"""

from __future__ import annotations

import contextlib
import contextvars
import heapq
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator, Sequence

import numpy as np

from . import BLAS_ONE_THREAD

_GRAD_ENABLED = True
# scores per attention tile (512 KB), so that the backward's two tiles,
# exponentials and score gradients, fit in a core's 2 MB L2 with operands
_ATTENTION_BLOCK_ELEMENTS = 1 << 16
# keys per attention tile; its rows fill _ATTENTION_BLOCK_ELEMENTS
_ATTENTION_TILE_COLS = 256
# graph-free attention spreads its blocks over threads only when each thread
# gets at least this many; fewer lose more to thread handoffs than they gain
_ATTENTION_BLOCKS_PER_THREAD = 4
# at most this many threads share one graph-free attention call, so its
# scratch buffers hold at most this many tiles (2 MB) whatever the CPU count
_ATTENTION_MAX_THREADS = 4
# attention exponentiates its scores without subtracting each row's max when
# every head's Cauchy-Schwarz bound on |score| is below this: exp then stays
# within e^+-300, so no row sum can overflow or underflow (float64 reaches
# e^+-709)
_ATTENTION_UNSHIFTED_REACH = 300.0
# added to each row's variance in layer_norm
_LAYER_NORM_EPS = 1e-12
# hands every new Node its creation number
_CREATED = itertools.count(1)
# the parents of a node that backward has walked: empty, yet not ``()``
_WALKED = type("_Walked", (tuple,), {})()


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Build every op output inside as a node that does not require grad.

    Such a node keeps no parents, so its pullback closures and the buffers
    they hold are freed as soon as the op returns. Parameters stay
    parameters; only the graph between them and the outputs is not kept.
    """
    global _GRAD_ENABLED
    saved = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = saved


def available_cpus() -> int:
    """CPUs this process may run on (``taskset`` limits them), or 1 where
    the platform cannot report its affinity."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


def _tensor(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64)


class Node:
    """A tensor plus its position in the differentiation graph.

    ``parents`` is a tuple of ``(parent_node, pullback)`` pairs where
    ``pullback(out_grad)`` returns that parent's gradient contribution. A
    node that does not require grad keeps no parents, nor does one that
    :func:`backward` has walked; only parameters get a ``grad``. ``number``
    is the node's creation number, larger than each of its parents'.
    """

    __slots__ = ("value", "grad", "parents", "requires_grad", "number")

    def __init__(self, value, parents=(), requires_grad: bool = False):
        self.value = _tensor(value)
        parents = tuple(parents)
        self.requires_grad = bool(requires_grad) or (_GRAD_ENABLED and any(
            p.requires_grad for p, _ in parents
        ))
        self.parents = parents if self.requires_grad else ()
        self.grad: np.ndarray | None = None
        self.number = next(_CREATED)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def ndim(self) -> int:
        return self.value.ndim

    def item(self) -> float:
        return self.value.item()

    def __repr__(self) -> str:
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Node(shape={self.value.shape}{flag})"


def parameter(value) -> Node:
    """A trainable leaf node."""
    return Node(value, requires_grad=True)


def constant(value) -> Node:
    """A leaf node that never receives gradients."""
    return Node(value)


def as_node(x) -> Node:
    return x if isinstance(x, Node) else Node(x)


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return Node(a.value + b.value, parents=[(a, lambda g: g), (b, lambda g: g)])


def mul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    return Node(
        a.value * b.value,
        parents=[(a, lambda g: g * b.value), (b, lambda g: g * a.value)],
    )


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a, b, bias=None) -> Node:
    """``a @ b`` for a matrix or vector ``b``, plus ``bias`` on every row if
    one is given: the bits of numpy's ``a @ b + bias`` in one node and buffer."""
    a, b = as_node(a), as_node(b)
    if a.ndim != 2 or b.ndim not in (1, 2) or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = a.value @ b.value
    parents = [(a, lambda g: np.outer(g, b.value) if b.ndim == 1
                else g @ b.value.T), (b, lambda g: a.value.T @ g)]
    if bias is not None:
        bias = as_node(bias)
        if bias.shape != b.shape[1:]:
            raise ShapeError(f"matmul: bias {bias.shape} for width "
                             f"{math.prod(b.shape[1:])}")
        out += bias.value
        parents.append((bias, lambda g: g.sum(axis=0)))
    return Node(out, parents=parents)


def embedding(table, ids) -> Node:
    """Row lookup ``table[ids]``; gradient scatter-adds into the table."""
    table = as_node(table)
    ids = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError(f"embedding: table must be 2-D, got shape {table.shape}")
    if ids.ndim != 1:
        raise ShapeError(f"embedding: ids must be 1-D, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"embedding: id out of range [0, {table.shape[0]}): "
            f"min={ids.min()} max={ids.max()}"
        )

    def pull(g):
        dt = np.zeros_like(table.value)
        np.add.at(dt, ids, g)
        return dt

    return Node(table.value[ids], parents=[(table, pull)])


def conv1d(x, w, b) -> Node:
    """1-D convolution over the first axis with same-length zero padding.

    ``x`` is L x C_in, ``w`` is K x C_in x C_out with odd K, ``b`` is C_out.
    """
    x, w, b = as_node(x), as_node(w), as_node(b)
    if x.ndim != 2 or w.ndim != 3 or b.ndim != 1:
        raise ShapeError(
            f"conv1d: expected 2-D input, 3-D kernel, 1-D bias; got "
            f"{x.shape}, {w.shape}, {b.shape}"
        )
    k, c_in, c_out = w.shape
    if k % 2 != 1:
        raise ShapeError(f"conv1d: kernel size must be odd, got {k}")
    if x.shape[1] != c_in or b.shape[0] != c_out:
        raise ShapeError(
            f"conv1d: channel mismatch between input {x.shape}, kernel {w.shape}, "
            f"bias {b.shape}"
        )
    length = x.shape[0]
    pad = (k - 1) // 2
    xp = np.zeros((length + k - 1, c_in))
    xp[pad : pad + length] = x.value
    out = np.zeros((length, c_out))
    for j in range(k):
        out += xp[j : j + length] @ w.value[j]
    out += b.value

    def pull_x(g):
        dxp = np.zeros_like(xp)
        for j in range(k):
            dxp[j : j + length] += g @ w.value[j].T
        return dxp[pad : pad + length]

    def pull_w(g):
        dw = np.zeros_like(w.value)
        for j in range(k):
            dw[j] = xp[j : j + length].T @ g
        return dw

    return Node(
        out,
        parents=[(x, pull_x), (w, pull_w), (b, lambda g: g.sum(axis=0))],
    )


# ---------------------------------------------------------------------------
# nonlinearities

def relu(a) -> Node:
    a = as_node(a)
    mask = a.value > 0.0
    return Node(np.where(mask, a.value, 0.0), parents=[(a, lambda g: g * mask)])


def sigmoid(a) -> Node:
    a = as_node(a)
    v = a.value
    e = np.exp(-np.abs(v))
    out = np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return Node(out, parents=[(a, lambda g: g * out * (1.0 - out))])


def exp(a) -> Node:
    a = as_node(a)
    out = np.exp(a.value)
    return Node(out, parents=[(a, lambda g: g * out)])


def _exp_rows_(x: np.ndarray, top: np.ndarray | None) -> None:
    """``exp`` in place in ``x``, after subtracting ``top`` (each last-axis
    row's max) unless it is None."""
    if top is not None:
        x -= top
    np.exp(x, out=x)


def softmax(a) -> Node:
    """Softmax over the last axis."""
    a = as_node(a)
    out = np.array(a.value)
    _exp_rows_(out, out.max(axis=-1, keepdims=True))
    out /= out.sum(axis=-1, keepdims=True)

    def pull(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (g - dot) * out

    return Node(out, parents=[(a, pull)])


def layer_norm(x, gain, bias) -> Node:
    """Normalize each row over the last axis, then apply affine gain/bias."""
    x, gain, bias = as_node(x), as_node(gain), as_node(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias must have shape ({d},), got "
            f"{gain.shape} and {bias.shape}"
        )
    # np.add.reduce / d: the bits of .mean() without its Python wrapper
    mu = np.add.reduce(x.value, axis=-1, keepdims=True) / d
    centered = x.value - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + _LAYER_NORM_EPS)
    xhat = centered * inv_std
    out = xhat * gain.value + bias.value

    def pull_x(g):
        gxhat = g * gain.value
        mean_g = np.add.reduce(gxhat, axis=-1, keepdims=True) / d
        mean_gx = np.add.reduce(gxhat * xhat, axis=-1, keepdims=True) / d
        return inv_std * (gxhat - mean_g - xhat * mean_gx)

    return Node(
        out,
        parents=[
            (x, pull_x),
            (gain, lambda g: (g * xhat).reshape(-1, d).sum(axis=0)),
            (bias, lambda g: g.reshape(-1, d).sum(axis=0)),
        ],
    )


def dropout(a, keep_mask: np.ndarray) -> Node:
    """Multiply by a precomputed inverted-dropout mask (train mode only)."""
    a = as_node(a)
    mask = _tensor(keep_mask)
    if mask.shape != a.shape:
        raise ShapeError(f"dropout: mask shape {mask.shape} != input shape {a.shape}")
    return Node(a.value * mask, parents=[(a, lambda g: g * mask)])


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout keep mask: zeros with probability ``rate``, else 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape)
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)


# ---------------------------------------------------------------------------
# shape plumbing

def reshape(a, shape) -> Node:
    a = as_node(a)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.value.size:
        raise ShapeError(f"reshape: cannot view shape {a.shape} as {shape}")
    return Node(
        a.value.reshape(shape),
        parents=[(a, lambda g: g.reshape(a.shape))],
    )


def split_last(a, sizes: Sequence[int]) -> list[Node]:
    """Split into pieces of the given widths along the last axis."""
    a = as_node(a)
    if sum(sizes) != a.shape[-1]:
        raise ShapeError(
            f"split_last: sizes {list(sizes)} do not sum to last axis of {a.shape}"
        )
    outs = []
    lo = 0
    for size in sizes:
        hi = lo + size
        def make_pull(lo=lo, hi=hi):
            def pull(g):
                full = np.zeros_like(a.value)
                full[..., lo:hi] = g
                return full
            return pull
        outs.append(Node(_tensor(a.value[..., lo:hi]), parents=[(a, make_pull())]))
        lo = hi
    return outs


def repeat_rows(a, counts) -> Node:
    """Repeat row i of a matrix counts[i] times, order preserved."""
    a = as_node(a)
    counts = np.asarray(counts, dtype=np.int64)
    if a.ndim != 2 or counts.ndim != 1 or counts.shape[0] != a.shape[0]:
        raise ShapeError(
            f"repeat_rows: got input {a.shape} and counts {counts.shape}"
        )
    if np.any(counts < 1):
        raise ValueError("repeat_rows: all counts must be >= 1")
    return embedding(a, np.repeat(np.arange(a.shape[0]), counts))


# ---------------------------------------------------------------------------
# reductions

def reduce_sum(a) -> Node:
    a = as_node(a)
    return Node(
        np.asarray(a.value.sum()),
        parents=[(a, lambda g: np.full(a.shape, g.item()))],
    )


def l1_sum(pred, target, mask=None) -> Node:
    """``sum(|pred - target| * mask)``, with no product when ``mask`` is None,
    for arrays ``target`` and ``mask`` of ``pred``'s shape. The pullback is
    ``(g * mask) * sign(pred - target)``, 0 at a tie. A mask with no nonzero
    gives a constant 0 with no parent."""
    pred, target = as_node(pred), _tensor(target)
    mask = None if mask is None else _tensor(mask)
    if target.shape != pred.shape or mask is not None and mask.shape != pred.shape:
        raise ShapeError(f"l1_sum: target {target.shape} or mask for {pred.shape}")
    if mask is not None and not mask.any():
        return Node(np.asarray(0.0))
    diff = pred.value - target
    terms = np.abs(diff) if mask is None else np.abs(diff) * mask
    return Node(np.asarray(terms.sum()), parents=[(pred, lambda g: (
        g if mask is None else g * mask) * np.sign(diff))])


def bce_logits_sum(z, y) -> Node:
    """Binary cross entropy of logits ``z`` against an array ``y`` of its
    shape, summed: ``(max(z, 0) - z y) + log(e + 1)`` with ``e = exp(-|z|)``,
    which never overflows. The pullback is its exact derivative
    ``(sign(z) * -(g / (e + 1) * e) + -g y) + g [z > 0]``."""
    z, y = as_node(z), _tensor(y)
    if y.shape != z.shape:
        raise ShapeError(f"bce_logits_sum: targets {y.shape} for logits {z.shape}")
    e = np.exp(-np.abs(z.value))
    out = (np.where(z.value > 0.0, z.value, 0.0) - z.value * y) + np.log(e + 1.0)
    return Node(np.asarray(out.sum()), parents=[(z, lambda g: (
        np.sign(z.value) * -(g / (e + 1.0) * e) + -g * y) + g * (z.value > 0.0))])


def weighted_sum(terms, scales, weights) -> tuple[Node, list[np.ndarray]]:
    """``sum_i (terms[i] * scales[i]) * weights[i]`` of scalar nodes, added
    in order (a constant 0 for no terms), and each ``terms[i] * scales[i]``
    as a 0-d array. Term i's pullback is ``(g * weights[i]) * scales[i]``."""
    terms = [as_node(t) for t in terms]
    means = [np.asarray(t.item() * s) for t, s in zip(terms, scales)]
    products = [m * w for m, w in zip(means, weights)]
    total = sum(products[1:], products[0]) if products else 0.0
    return Node(total, parents=[(t, lambda g, s=s, w=w: g * w * s)
                                for t, s, w in zip(terms, scales, weights)]), means


# ---------------------------------------------------------------------------
# attention

def scaled_dot_attention(q, k, v, heads: int = 1) -> Node:
    """Multi-head ``softmax(q k^T / sqrt(d_h)) v`` as one op.

    ``q`` is T x D, ``k`` is S x D and ``v`` is S x D_v. The last axis of each
    holds ``heads`` contiguous heads of width d_h = D / heads (D_v / heads for
    ``v``); the output is T x D_v with the heads side by side in that order.

    Training and inference run one loop over tiles of H x rows x cols scores,
    cols = min(S, ``_ATTENTION_TILE_COLS``) keys by as many query rows as give
    about ``_ATTENTION_BLOCK_ELEMENTS`` scores. Each block of query rows
    exponentiates its tiles' scores in place and multiplies them by [v | 1],
    adding up its output rows and their row sums s in one matmul, then
    divides by s: three H x T x S passes. Blocks and each block's key tiles
    run last first, so one thread's buffer ends holding tile (0, 0). A
    per-row shift cancels in the division, so scores are shifted only when
    some head's bound c max_i |q_i| max_j |k_j| on every |score| reaches
    ``_ATTENTION_UNSHIFTED_REACH`` or is not finite: each block then first
    takes every row's max score m over all its key tiles (a fourth pass,
    -inf over no keys), and every tile, forward and backward, subtracts m.

    A recorded call runs on one thread and keeps s, m, c q, [v | 1] and the
    tile (0, 0) its forward leaves in the buffer. The first of its q, k and
    v pullbacks walks the tiles from (0, 0), recomputing every other tile's
    exponentials (the forward's bits). The score gradient is one matmul of
    [c g / s | -c rowsum(g / s * out)] by [v | 1]^T times the exponentials;
    dQ rows add up over key tiles and dK and dV rows over query blocks, so
    the walk makes seven passes, two of them the recomputation. Graph-free
    calls with enough query blocks share them among up to
    :func:`available_cpus` threads (at most ``_ATTENTION_MAX_THREADS``, and
    one unless ``BLAS_ONE_THREAD``), each with its own buffers; tile
    boundaries and order depend on neither the thread count nor the claim
    order, so neither do the bytes.
    """
    q, k, v = as_node(q), as_node(k), as_node(v)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError(
            f"attention: expected matrices, got {q.shape}, {k.shape}, {v.shape}"
        )
    if q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0]:
        raise ShapeError(
            f"attention: incompatible shapes q={q.shape} k={k.shape} v={v.shape}"
        )
    if heads < 1 or q.shape[1] % heads or v.shape[1] % heads:
        raise ShapeError(
            f"attention: widths q={q.shape[1]} v={v.shape[1]} do not split "
            f"into {heads} heads"
        )
    t, s = q.shape[0], k.shape[0]
    c = 1.0 / math.sqrt(q.shape[1] // heads)

    def split(x):  # rows x (H * w) -> H x rows x w view
        return x.reshape(x.shape[0], heads, x.shape[1] // heads).transpose(1, 0, 2)

    qh, kh, vh = split(q.value), split(k.value), split(v.value)
    qch, kth = split(q.value * c), kh.transpose(0, 2, 1)

    def reach(x):  # each head's largest row norm, as python floats
        x = x.reshape(x.shape[0], heads, x.shape[1] // heads)
        return np.sqrt(np.add.reduce(x * x, axis=-1).max(axis=0, initial=0.0)
                       ).tolist()

    # python floats, so that inf * 0 sets no numpy error flag; NaN shifts
    shift = not all(c * a * b < _ATTENTION_UNSHIFTED_REACH
                    for a, b in zip(reach(q.value), reach(k.value)))
    records = _GRAD_ENABLED and (q.requires_grad or k.requires_grad
                                 or v.requires_grad)
    cols = max(1, min(s, _ATTENTION_TILE_COLS))
    rows = max(1, min(t, _ATTENTION_BLOCK_ELEMENTS // (heads * cols)))
    # with no keys, one empty tile: 0 / 0 rows, as a softmax over nothing
    col_starts = range(0, max(s, 1), cols)

    def scratch() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # one tile, and a block's [output | s] rows and one tile's share
        acc = np.empty((heads, rows, vh.shape[2] + 1))
        return np.empty(heads * rows * cols), acc, np.empty_like(acc)

    # the tile buffer before the other arrays: allocated after them, every
    # 140 x 140 call's score matmul ran 2x as long in a process making them
    buffers = scratch()
    vo = np.ones(vh.shape[:2] + (vh.shape[2] + 1,))  # [v | 1]
    vo[..., :-1] = vh
    sums = np.empty((heads, t, 1))
    maxes = np.empty((heads, t, 1)) if shift else None
    out = np.empty((t, v.shape[1]))
    outh = split(out)

    def tile_of(buffer: np.ndarray, lo: int, hi: int, c0: int) -> np.ndarray:
        # tile (lo:hi, c0:c0 + cols) as the contiguous front of a flat buffer
        width = min(c0 + cols, s) - c0
        return buffer[: heads * (hi - lo) * width].reshape(heads, hi - lo, width)

    def scores(tile: np.ndarray, lo: int, c0: int) -> np.ndarray:
        return np.matmul(qch[:, lo : lo + tile.shape[1]],
                         kth[:, :, c0 : c0 + cols], out=tile)

    def exp_scores(tile: np.ndarray, lo: int, c0: int) -> None:
        # the tile's exponentials, less each row's max score when shifted
        _exp_rows_(scores(tile, lo, c0),
                   maxes[:, lo : lo + tile.shape[1]] if shift else None)

    starts, lock = iter(range(0, t, rows)[::-1]), threading.Lock()

    def attend(flat: np.ndarray, acc: np.ndarray, part: np.ndarray) -> None:
        # claims query blocks one at a time until none is left
        while True:
            with lock:
                lo = next(starts, None)
            if lo is None:
                return
            hi = min(lo + rows, t)
            a, p = acc[:, : hi - lo], part[:, : hi - lo]
            if shift:  # each row's max score over all key tiles (-inf for none)
                maxes[:, lo:hi] = np.maximum.reduce([
                    scores(tile_of(flat, lo, hi, c0), lo, c0).max(
                        axis=-1, keepdims=True, initial=-np.inf)
                    for c0 in col_starts])
            for c0 in col_starts[::-1]:
                tile = tile_of(flat, lo, hi, c0)
                exp_scores(tile, lo, c0)
                if c0 == col_starts[-1]:
                    np.matmul(tile, vo[:, c0 : c0 + cols], out=a)
                else:
                    a += np.matmul(tile, vo[:, c0 : c0 + cols], out=p)
            sums[:, lo:hi] = a[..., -1:]
            np.divide(a[..., :-1], sums[:, lo:hi], out=outh[:, lo:hi])

    threads = 1 if records or not BLAS_ONE_THREAD else min(
        available_cpus(), -(-t // rows) // _ATTENTION_BLOCKS_PER_THREAD,
        _ATTENTION_MAX_THREADS)
    flat = buffers[0]
    if threads <= 1:
        attend(*buffers)  # flat ends holding tile (0, 0)
    else:
        with ThreadPoolExecutor(threads - 1) as pool:
            # a copied context carries the caller's np.errstate to a helper
            helpers = [pool.submit(contextvars.copy_context().run, attend,
                                   *scratch())
                       for _ in range(threads - 1)]
            attend(*buffers)
            for helper in helpers:
                helper.result()

    def walk(g: np.ndarray) -> list[np.ndarray]:
        # the q, k and v gradients, one tile at a time in row-major order
        grads = [np.empty_like(x.value) for x in (q, k, v)]
        dqh, dkh, dvh = (split(x) for x in grads)
        # rowsum(P dP) == rowsum(g * out) for P = exps / s
        gs = split(g) / sums
        gc = np.empty(gs.shape[:2] + (gs.shape[2] + 1,))
        np.multiply(gs, c, out=gc[..., :-1])
        np.negative((gc[..., :-1] * outh).sum(axis=-1), out=gc[..., -1])
        ds = np.empty_like(flat)
        parts = [np.empty((heads, n, x.shape[2]))
                 for n, x in ((rows, qh), (cols, kh), (cols, vh))]

        def into(target, first, a, b, part):
            # target = a @ b when first, else target += a @ b
            if first:
                np.matmul(a, b, out=target)
            else:
                target += np.matmul(a, b, out=part[:, : target.shape[1]])

        for lo in range(0, t, rows):
            hi = min(lo + rows, t)
            for c0 in col_starts:
                tile, dst = tile_of(flat, lo, hi, c0), tile_of(ds, lo, hi, c0)
                if lo or c0:  # the forward left tile (0, 0) in flat
                    exp_scores(tile, lo, c0)
                np.matmul(gc[:, lo:hi], vo[:, c0 : c0 + cols].transpose(0, 2, 1),
                          out=dst)
                dst *= tile
                # dQ rows add up over key tiles, dK and dV rows over blocks
                into(dqh[:, lo:hi], c0 == 0, dst, kh[:, c0 : c0 + cols],
                     parts[0])
                into(dkh[:, c0 : c0 + cols], lo == 0, dst.transpose(0, 2, 1),
                     qh[:, lo:hi], parts[1])
                into(dvh[:, c0 : c0 + cols], lo == 0, tile.transpose(0, 2, 1),
                     gs[:, lo:hi], parts[2])
        return grads

    # the q, k and v gradients, from the walk their first pullback runs
    walked: list[np.ndarray] = []

    def gradient(i: int, g: np.ndarray) -> np.ndarray:
        if not walked:
            walked.extend(walk(g))
        return walked[i]

    return Node(
        out,
        parents=[(x, lambda g, i=i: gradient(i, g))
                 for i, x in enumerate((q, k, v))],
    )


# ---------------------------------------------------------------------------
# backward pass

def backward(loss: Node) -> None:
    """Add d(loss)/d(p) into ``p.grad`` for every parameter p in the graph,
    which the walk consumes: each node's parents become empty once their
    pullbacks have run, and reaching a walked node, as a second call on the
    same loss does, raises RuntimeError before any ``grad`` changes. A node
    used several times receives the sum of all path gradients, added in
    decreasing number of its consumers.
    """
    if loss.value.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    # a node pops only after every consumer, since each has a larger number
    flowing: dict[int, np.ndarray] = {loss.number: np.ones_like(loss.value)}
    heap, leaves = [(-loss.number, loss)], []
    while heap:
        _, node = heapq.heappop(heap)
        if node.parents is _WALKED:
            raise RuntimeError("backward: no graph left below a walked node")
        g = flowing.pop(node.number)
        if not node.parents:
            leaves.append((node, g))
            continue
        for parent, pull in node.parents:
            if not parent.requires_grad:
                continue
            contrib, held = pull(g), flowing.get(parent.number)
            if held is None:
                heapq.heappush(heap, (-parent.number, parent))
            flowing[parent.number] = contrib if held is None else held + contrib
        node.parents = _WALKED
    for node, g in leaves:
        node.grad = g if node.grad is None else node.grad + g
