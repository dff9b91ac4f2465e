"""Shared finite-difference gradient checking used across the test suite."""

import numpy as np

from singsynth import autodiff as ad


def numeric_grad(f, x, h=1e-5):
    """Central finite differences of a scalar function f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1.0)
    return np.abs(a - b).max(initial=0.0) / denom


def check_grad(build_loss, x, tol=1e-4, h=1e-5):
    """Compare the analytic gradient of build_loss(param_node) against FD."""
    p = ad.parameter(x.copy())
    loss = build_loss(p)
    ad.backward(loss)
    fd = numeric_grad(lambda v: build_loss(ad.constant(v)).item(), x.copy(), h=h)
    assert p.grad is not None
    err = rel_err(p.grad, fd)
    assert err < tol, f"gradient mismatch: rel err {err:.3g}"
    return err


# Graph ops that only tests build: the per-head attention reference, the
# composed references of the fused loss ops and the gradient checks of their
# own pullbacks.

def sub(a, b) -> ad.Node:
    a, b = ad.as_node(a), ad.as_node(b)
    if a.shape != b.shape:
        raise ad.ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}")
    return ad.Node(a.value - b.value, parents=[(a, lambda g: g), (b, lambda g: -g)])


def scale(a, c: float) -> ad.Node:
    """Multiply by a python scalar constant."""
    a = ad.as_node(a)
    c = float(c)
    return ad.Node(a.value * c, parents=[(a, lambda g: g * c)])


def absolute(a) -> ad.Node:
    # subgradient at 0 is defined as 0
    a = ad.as_node(a)
    sign = np.sign(a.value)
    return ad.Node(np.abs(a.value), parents=[(a, lambda g: g * sign)])


def log(a) -> ad.Node:
    a = ad.as_node(a)
    if np.any(a.value <= 0.0):
        raise ValueError("log: input must be strictly positive")
    return ad.Node(np.log(a.value), parents=[(a, lambda g: g / a.value)])


def transpose(a) -> ad.Node:
    a = ad.as_node(a)
    if a.ndim != 2:
        raise ad.ShapeError(f"transpose: expected a matrix, got shape {a.shape}")
    return ad.Node(a.value.T, parents=[(a, lambda g: np.ascontiguousarray(g.T))])


def concat_last(parts) -> ad.Node:
    """Concatenate along the last axis."""
    parts = [ad.as_node(p) for p in parts]
    lead = parts[0].shape[:-1]
    if any(p.shape[:-1] != lead for p in parts):
        raise ad.ShapeError(
            "concat_last: leading dimensions differ: "
            + ", ".join(str(p.shape) for p in parts)
        )
    offsets = np.cumsum([0] + [p.shape[-1] for p in parts])

    def make_pull(i):
        lo, hi = offsets[i], offsets[i + 1]
        return lambda g: np.ascontiguousarray(g[..., lo:hi])

    return ad.Node(
        np.concatenate([p.value for p in parts], axis=-1),
        parents=[(p, make_pull(i)) for i, p in enumerate(parts)],
    )
