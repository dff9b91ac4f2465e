"""Dense float64 tensors with reverse-mode automatic differentiation.

Tensor values live in contiguous row-major numpy float64 buffers. Every
operation returns a :class:`Node` that records its parents together with a
pullback closure; calling :func:`backward` on a scalar loss accumulates
gradients on every reachable node that requires them. Inside
:func:`no_grad` no op records a graph.

Each node takes a creation number from one module counter, larger than its
parents' numbers, so :func:`backward` walks the graph in decreasing number
instead of sorting it first.

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

_CHECK_FINITE = False
_GRAD_ENABLED = True
# query rows per block of graph-free attention: H x rows x S scores of about
# this many float64 elements (2 MB, sized to a core's L2 cache) per block
_ATTENTION_BLOCK_ELEMENTS = 1 << 18
# graph-free attention spreads its blocks over threads only when each thread
# gets at least this many; fewer lose more to thread handoffs than they gain
_ATTENTION_BLOCKS_PER_THREAD = 4
# at most this many threads share one graph-free attention call, so its
# scratch buffers hold at most this many blocks (8 MB) whatever the CPU count
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


def set_debug_checks(enabled: bool) -> None:
    """Toggle NaN/Inf checking on every op output (slow; for debugging)."""
    global _CHECK_FINITE
    _CHECK_FINITE = bool(enabled)


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
    node that does not require grad keeps no parents. ``number`` is the
    node's creation number, larger than each of its parents'.
    """

    __slots__ = ("value", "grad", "parents", "requires_grad", "number")

    def __init__(self, value, parents=(), requires_grad: bool = False):
        self.value = _tensor(value)
        if _CHECK_FINITE and not np.all(np.isfinite(self.value)):
            raise FloatingPointError("non-finite value produced in forward pass")
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


def sub(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    if a.shape != b.shape:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}")
    return Node(a.value - b.value, parents=[(a, lambda g: g), (b, lambda g: -g)])


def mul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    return Node(
        a.value * b.value,
        parents=[(a, lambda g: g * b.value), (b, lambda g: g * a.value)],
    )


def scale(a, c: float) -> Node:
    """Multiply by a python scalar constant."""
    a = as_node(a)
    c = float(c)
    return Node(a.value * c, parents=[(a, lambda g: g * c)])


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a, b, bias=None) -> Node:
    """``a @ b``, plus ``bias`` on every row if one is given: the bits of
    numpy's ``a @ b + bias`` in one node and one buffer."""
    a, b = as_node(a), as_node(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = a.value @ b.value
    parents = [(a, lambda g: g @ b.value.T), (b, lambda g: a.value.T @ g)]
    if bias is not None:
        bias = as_node(bias)
        if bias.shape != b.shape[1:]:
            raise ShapeError(f"matmul: bias {bias.shape} for width {b.shape[1]}")
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


def absolute(a) -> Node:
    # subgradient at 0 is defined as 0
    a = as_node(a)
    sign = np.sign(a.value)
    return Node(np.abs(a.value), parents=[(a, lambda g: g * sign)])


def log(a) -> Node:
    a = as_node(a)
    if np.any(a.value <= 0.0):
        raise ValueError("log: input must be strictly positive")
    return Node(np.log(a.value), parents=[(a, lambda g: g / a.value)])


def exp(a) -> Node:
    a = as_node(a)
    out = np.exp(a.value)
    return Node(out, parents=[(a, lambda g: g * out)])


def _exp_rows_(x: np.ndarray, shift: bool) -> np.ndarray:
    """``exp`` in place in ``x``, after subtracting each last-axis row's max
    when ``shift``; returns the row sums."""
    if shift:
        x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    return x.sum(axis=-1, keepdims=True)


def softmax(a) -> Node:
    """Softmax over the last axis."""
    a = as_node(a)
    out = np.array(a.value)
    out /= _exp_rows_(out, shift=True)

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


# ---------------------------------------------------------------------------
# attention

def scaled_dot_attention(q, k, v, heads: int = 1) -> Node:
    """Multi-head ``softmax(q k^T / sqrt(d_h)) v`` as one op.

    ``q`` is T x D, ``k`` is S x D and ``v`` is S x D_v. The last axis of each
    holds ``heads`` contiguous heads of width d_h = D / heads (D_v / heads for
    ``v``); the output is T x D_v with the heads side by side in that order.
    Training and inference run one loop over blocks of query rows, each an
    H x rows x S buffer of about ``_ATTENTION_BLOCK_ELEMENTS``: its scores are
    exponentiated in place and multiplied into the block's output rows, which
    are then divided by the exponentials' row sums s. A per-row shift cancels
    in that division, so the scores are shifted by their row max only when
    some head's bound c max_i |q_i| max_j |k_j| on every |score| reaches
    ``_ATTENTION_UNSHIFTED_REACH`` or is not finite. Blocks run last first,
    so one thread's buffer ends holding block 0.

    A recorded call runs on one thread and keeps only s, the shift flag, its
    buffer and c q. The first of its q, k and v pullbacks in a backward pass
    walks the blocks from block 0, recomputes each block's exponentials (the
    forward's bits) unless the buffer holds them, writes the block's dQ rows
    and adds its dK and dV partials in block order. Appending c rowsum(g / s
    * out) to c g / s and a column of -1 to v makes the score gradient
    c (g v^T - rowsum(g * out)) / s one matmul. Graph-free calls with enough
    blocks share them among up to :func:`available_cpus` threads (at most
    ``_ATTENTION_MAX_THREADS``, and one unless ``BLAS_ONE_THREAD``), each with
    its own buffer; block boundaries depend on neither the thread count nor
    the claim order, so neither do the bytes.
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
    rows = max(1, _ATTENTION_BLOCK_ELEMENTS // max(1, heads * s))
    exps = np.empty((heads, min(rows, t), s))
    sums = np.empty((heads, t, 1))
    out = np.empty((t, v.shape[1]))
    outh = split(out)

    def exp_scores(block: np.ndarray, lo: int, hi: int) -> np.ndarray:
        # rows lo:hi's exponentials into block; returns their row sums
        np.matmul(qch[:, lo:hi], kth, out=block)
        return _exp_rows_(block, shift)

    starts, lock = iter(range(0, t, rows)[::-1]), threading.Lock()

    def attend(buffer: np.ndarray) -> None:
        # claims blocks one at a time until none is left
        while True:
            with lock:
                lo = next(starts, None)
            if lo is None:
                return
            hi = min(lo + rows, t)
            block = buffer[:, : hi - lo]
            sums[:, lo:hi] = exp_scores(block, lo, hi)
            np.matmul(block, vh, out=outh[:, lo:hi])
            outh[:, lo:hi] /= sums[:, lo:hi]

    threads = 1 if records or not BLAS_ONE_THREAD else min(
        available_cpus(), -(-t // rows) // _ATTENTION_BLOCKS_PER_THREAD,
        _ATTENTION_MAX_THREADS)
    if threads <= 1:
        attend(exps)
    else:
        with ThreadPoolExecutor(threads - 1) as pool:
            # a copied context carries the caller's np.errstate to a helper
            helpers = [pool.submit(contextvars.copy_context().run, attend,
                                   np.empty_like(exps))
                       for _ in range(threads - 1)]
            attend(exps)
            for helper in helpers:
                helper.result()
    held = [0]  # the first row of the block whose exponentials exps holds

    def walk(g: np.ndarray) -> list[np.ndarray]:
        # the q, k and v gradients, one block at a time in block order
        grads = [np.empty_like(x.value) for x in (q, k, v)]
        dqh, dkh, dvh = (split(x) for x in grads)
        # rowsum(P dP) == rowsum(g * out) for P = exps / s
        gs = split(g) / sums
        gc = np.empty(gs.shape[:2] + (gs.shape[2] + 1,))
        np.multiply(gs, c, out=gc[..., :-1])
        (gc[..., :-1] * outh).sum(axis=-1, out=gc[..., -1])
        vt = np.full(vh.shape[:2] + (vh.shape[2] + 1,), -1.0)
        vt[..., :-1] = vh
        vt, ds = vt.transpose(0, 2, 1), np.empty_like(exps)
        for lo in range(0, t, rows):
            hi = min(lo + rows, t)
            block, dsb = exps[:, : hi - lo], ds[:, : hi - lo]
            if held[0] != lo:
                exp_scores(block, lo, hi)
                held[0] = lo
            np.matmul(gc[:, lo:hi], vt, out=dsb)
            dsb *= block
            np.matmul(dsb, kh, out=dqh[:, lo:hi])
            if lo:  # block 0 writes the dK and dV sums, later blocks add
                dvh += np.matmul(block.transpose(0, 2, 1), gs[:, lo:hi])
                dkh += np.matmul(dsb.transpose(0, 2, 1), qh[:, lo:hi])
            else:
                np.matmul(block.transpose(0, 2, 1), gs[:, lo:hi], out=dvh)
                np.matmul(dsb.transpose(0, 2, 1), qh[:, lo:hi], out=dkh)
        return grads

    # one walk's gradients, made by the first of the q, k and v pullbacks of
    # a backward pass and dropped by the last one that needs them
    walked: dict = {}

    def gradient(i: int, g: np.ndarray) -> np.ndarray:
        if walked.get("g") is not g:
            walked.update(enumerate(walk(g)), g=g, users=q.requires_grad
                          + k.requires_grad + v.requires_grad)
        walked["users"] -= 1
        grad = walked.pop(i)
        if walked["users"] == 0:
            walked.clear()
        return grad

    return Node(
        out,
        parents=[(x, lambda g, i=i: gradient(i, g))
                 for i, x in enumerate((q, k, v))],
    )


# ---------------------------------------------------------------------------
# backward pass

def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(node) into .grad for every reachable node.

    Repeated calls without zeroing grads add their contributions, and a node
    used several times in the graph receives the sum of all path gradients,
    added in decreasing creation number of its consumers.
    """
    if loss.value.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    # a node pops only after every consumer, since each has a larger number
    flowing: dict[int, np.ndarray] = {loss.number: np.ones_like(loss.value)}
    heap = [(-loss.number, loss)]
    while heap:
        _, node = heapq.heappop(heap)
        g = flowing.pop(node.number)
        node.grad = g if node.grad is None else node.grad + g
        for parent, pull in node.parents:
            if not parent.requires_grad:
                continue
            contrib, held = pull(g), flowing.get(parent.number)
            if held is None:
                heapq.heappush(heap, (-parent.number, parent))
            flowing[parent.number] = contrib if held is None else held + contrib
