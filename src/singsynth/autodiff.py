"""Dense float64 tensors with reverse-mode automatic differentiation.

Tensor values live in contiguous row-major numpy float64 buffers. Every
operation returns a :class:`Node` that records its parents together with a
pullback closure; calling :func:`backward` on a scalar loss accumulates
gradients on every reachable node that requires them. Inside
:func:`no_grad` no op records a graph.

Broadcasting is deliberately restricted to bias addition over the last
axis; everything else demands exact shape agreement so that shape bugs
surface as errors instead of silent broadcasts.
"""

from __future__ import annotations

import contextlib
import math
from typing import Iterator, Sequence

import numpy as np

_CHECK_FINITE = False
_GRAD_ENABLED = True
# query rows per block of graph-free attention: H x rows x S scores of about
# this many float64 elements (2 MB, sized to a core's L2 cache) per block
_ATTENTION_BLOCK_ELEMENTS = 1 << 18


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


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


def _tensor(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64)


class Node:
    """A tensor plus its position in the differentiation graph.

    ``parents`` is a tuple of ``(parent_node, pullback)`` pairs where
    ``pullback(out_grad)`` returns that parent's gradient contribution. A
    node that does not require grad keeps no parents.
    """

    __slots__ = ("value", "grad", "parents", "requires_grad")

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

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def ndim(self) -> int:
        return self.value.ndim

    def item(self) -> float:
        return self.value.item()

    def zero_grad(self) -> None:
        self.grad = None

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
    if a.shape == b.shape:
        return Node(
            a.value + b.value,
            parents=[(a, lambda g: g), (b, lambda g: g)],
        )
    if b.ndim == 1 and a.ndim >= 1 and a.shape[-1:] == b.shape:
        # bias add over the last axis
        d = b.shape[0]
        return Node(
            a.value + b.value,
            parents=[(a, lambda g: g), (b, lambda g: g.reshape(-1, d).sum(axis=0))],
        )
    raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")


def sub(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    if a.shape == b.shape:
        return Node(
            a.value - b.value,
            parents=[(a, lambda g: g), (b, lambda g: -g)],
        )
    if b.ndim == 1 and a.ndim >= 1 and a.shape[-1:] == b.shape:
        d = b.shape[0]
        return Node(
            a.value - b.value,
            parents=[(a, lambda g: g), (b, lambda g: -g.reshape(-1, d).sum(axis=0))],
        )
    raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}")


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

def matmul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    return Node(
        a.value @ b.value,
        parents=[(a, lambda g: g @ b.value.T), (b, lambda g: a.value.T @ g)],
    )


def transpose(a) -> Node:
    a = as_node(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose: expected a matrix, got shape {a.shape}")
    return Node(a.value.T, parents=[(a, lambda g: _tensor(g.T))])


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
    out = np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                   np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))
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


def _softmax_(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place in ``x``; returns ``x``."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def softmax(a) -> Node:
    """Softmax over the last axis."""
    a = as_node(a)
    out = _softmax_(np.array(a.value))

    def pull(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (g - dot) * out

    return Node(out, parents=[(a, pull)])


def layer_norm(x, gain, bias, eps: float = 1e-12) -> Node:
    """Normalize each row over the last axis, then apply affine gain/bias."""
    x, gain, bias = as_node(x), as_node(gain), as_node(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias must have shape ({d},), got "
            f"{gain.shape} and {bias.shape}"
        )
    mu = x.value.mean(axis=-1, keepdims=True)
    centered = x.value - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = xhat * gain.value + bias.value

    def pull_x(g):
        gxhat = g * gain.value
        mean_g = gxhat.mean(axis=-1, keepdims=True)
        mean_gx = (gxhat * xhat).mean(axis=-1, keepdims=True)
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


def concat_last(parts: Sequence[Node]) -> Node:
    """Concatenate along the last axis."""
    parts = [as_node(p) for p in parts]
    lead = parts[0].shape[:-1]
    if any(p.shape[:-1] != lead for p in parts):
        raise ShapeError(
            "concat_last: leading dimensions differ: "
            + ", ".join(str(p.shape) for p in parts)
        )
    sizes = [p.shape[-1] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def make_pull(i):
        lo, hi = offsets[i], offsets[i + 1]
        return lambda g: _tensor(g[..., lo:hi])

    return Node(
        np.concatenate([p.value for p in parts], axis=-1),
        parents=[(p, make_pull(i)) for i, p in enumerate(parts)],
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
    idx = np.repeat(np.arange(a.shape[0]), counts)

    def pull(g):
        da = np.zeros_like(a.value)
        np.add.at(da, idx, g)
        return da

    return Node(a.value[idx], parents=[(a, pull)])


# ---------------------------------------------------------------------------
# reductions

def reduce_sum(a) -> Node:
    a = as_node(a)
    return Node(
        np.asarray(a.value.sum()),
        parents=[(a, lambda g: np.full(a.shape, g.item()))],
    )


def reduce_mean(a) -> Node:
    a = as_node(a)
    n = a.value.size
    return Node(
        np.asarray(a.value.mean()),
        parents=[(a, lambda g: np.full(a.shape, g.item() / n))],
    )


# ---------------------------------------------------------------------------
# attention

def scaled_dot_attention(q, k, v, heads: int = 1) -> Node:
    """Multi-head ``softmax(q k^T / sqrt(d_h)) v`` as one op.

    ``q`` is T x D, ``k`` is S x D and ``v`` is S x D_v. The last axis of each
    holds ``heads`` contiguous heads of width d_h = D / heads (D_v / heads for
    ``v``); the output is T x D_v with the heads side by side in that order.
    All heads run as one batched matmul into an H x rows x S score buffer
    that is normalised in place and multiplied into the output rows. When
    the output records a graph, the block is all T rows and those
    probabilities are the only thing the pullback keeps; when it does not,
    blocks of query rows reuse one scratch buffer of about
    ``_ATTENTION_BLOCK_ELEMENTS``, so H x T x S never exists.
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

    def merge(x):  # H x rows x w -> rows x (H * w)
        h, rows, w = x.shape
        return x.transpose(1, 0, 2).reshape(rows, h * w)

    qh, kh, vh = split(q.value), split(k.value), split(v.value)
    qch, kth = split(q.value * c), kh.transpose(0, 2, 1)
    records = _GRAD_ENABLED and (q.requires_grad or k.requires_grad
                                 or v.requires_grad)
    rows = max(1, t if records else _ATTENTION_BLOCK_ELEMENTS // (heads * s))
    probs = np.empty((heads, min(rows, t), s))
    out = np.empty((t, v.shape[1]))
    outh = split(out)
    for lo in range(0, t, rows):
        hi = min(lo + rows, t)
        block = probs[:, : hi - lo]
        _softmax_(np.matmul(qch[:, lo:hi], kth, out=block))
        np.matmul(block, vh, out=outh[:, lo:hi])
    # d loss / d(q k^T), computed by the first of the q and k pullbacks of a
    # backward pass and dropped by the last one that needs it
    shared: dict = {}

    def score_grad(g):
        if shared.get("g") is not g:
            gh = split(g)
            ds = np.matmul(gh, vh.transpose(0, 2, 1))
            # sum_s dP * P == rowsum(g * out), since out = P v
            ds -= (gh * split(out)).sum(axis=-1, keepdims=True)
            ds *= probs
            ds *= c
            shared.update(g=g, ds=ds, users=q.requires_grad + k.requires_grad)
        ds = shared["ds"]
        shared["users"] -= 1
        if shared["users"] == 0:
            shared.clear()
        return ds

    return Node(
        out,
        parents=[
            (q, lambda g: merge(np.matmul(score_grad(g), kh))),
            (k, lambda g: merge(np.matmul(score_grad(g).transpose(0, 2, 1), qh))),
            (v, lambda g: merge(np.matmul(probs.transpose(0, 2, 1), split(g)))),
        ],
    )


# ---------------------------------------------------------------------------
# backward pass

def _toposort(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(node) into .grad for every reachable node.

    Repeated calls without zeroing grads add their contributions, and a node
    used several times in the graph receives the sum of all path gradients.
    """
    if loss.value.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = _toposort(loss)
    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.value)}
    for node in reversed(order):
        g = flowing.pop(id(node), None)
        if g is None:
            continue
        node.grad = g if node.grad is None else node.grad + g
        for parent, pull in node.parents:
            if not parent.requires_grad:
                continue
            contrib = pull(g)
            key = id(parent)
            if key in flowing:
                flowing[key] = flowing[key] + contrib
            else:
                flowing[key] = contrib
