import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradcheck import check_grad
from singsynth import autodiff as ad


# --- frozen examples ------------------------------------------------------

def test_softmax_uniform():
    out = ad.softmax(ad.constant([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.value, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)


def test_relu_values():
    out = ad.relu(ad.constant([-1.0, 2.0]))
    np.testing.assert_array_equal(out.value, [0.0, 2.0])


def test_conv1d_identity_kernel(rng):
    x = rng.normal(size=(9, 4))
    w = np.eye(4).reshape(1, 4, 4)
    b = np.zeros(4)
    out = ad.conv1d(ad.constant(x), ad.constant(w), ad.constant(b))
    np.testing.assert_array_equal(out.value, x)


def test_backward_quadratic():
    x = ad.parameter([1.0, 2.0])
    loss = ad.reduce_sum(ad.mul(x, x))
    ad.backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_abs_sign():
    x = ad.parameter([-3.0])
    ad.backward(ad.reduce_sum(ad.absolute(x)))
    np.testing.assert_array_equal(x.grad, [-1.0])


def test_abs_subgradient_at_zero_is_zero():
    x = ad.parameter([0.0])
    ad.backward(ad.reduce_sum(ad.absolute(x)))
    np.testing.assert_array_equal(x.grad, [0.0])


def test_backward_requires_scalar():
    x = ad.parameter([[1.0, 2.0]])
    with pytest.raises(ad.ShapeError):
        ad.backward(ad.mul(x, x))


def test_backward_accumulates_without_reset():
    x = ad.parameter([1.0, 2.0])
    loss = ad.reduce_sum(ad.mul(x, x))
    ad.backward(loss)
    ad.backward(loss)
    np.testing.assert_array_equal(x.grad, [4.0, 8.0])


def test_shape_error_names_op_and_shapes():
    with pytest.raises(ad.ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 3))))


# --- finite-difference checks over the whole op set -----------------------

def away_from_kinks(rng, shape, margin=0.05):
    x = rng.uniform(-2.0, 2.0, size=shape)
    x[np.abs(x) < margin] += 2 * margin
    return x


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_add_sub_mul(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2, 2, size=(3, 4))
    b = rng.uniform(-2, 2, size=(3, 4))
    check_grad(lambda p: ad.reduce_sum(ad.mul(ad.add(p, ad.constant(b)), p)), a)
    check_grad(lambda p: ad.reduce_sum(ad.mul(ad.sub(ad.constant(b), p), p)), a)
    check_grad(lambda p: ad.reduce_mean(ad.mul(p, ad.constant(b))), a)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_bias_add(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(5, 3))
    bias = rng.uniform(-2, 2, size=3)
    check_grad(lambda p: ad.reduce_sum(ad.exp(ad.add(ad.constant(x), p))), bias)
    check_grad(lambda p: ad.reduce_sum(ad.exp(ad.sub(p, ad.constant(bias)))), x)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_matmul_transpose(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2, 2, size=(4, 3))
    b = rng.uniform(-2, 2, size=(3, 5))
    check_grad(lambda p: ad.reduce_sum(ad.matmul(p, ad.constant(b))), a)
    check_grad(lambda p: ad.reduce_sum(ad.matmul(ad.constant(a), p)), b)
    check_grad(lambda p: ad.reduce_sum(ad.matmul(ad.transpose(p), p)), a)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_scale_reshape(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2, 2, size=(2, 6))
    check_grad(lambda p: ad.reduce_sum(ad.mul(ad.reshape(ad.scale(p, 1.7), (3, 4)),
                                              ad.reshape(p, (3, 4)))), a)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_unary_ops(seed):
    rng = np.random.default_rng(seed)
    x = away_from_kinks(rng, (4, 3))
    check_grad(lambda p: ad.reduce_sum(ad.relu(p)), x)
    check_grad(lambda p: ad.reduce_sum(ad.absolute(p)), x)
    check_grad(lambda p: ad.reduce_sum(ad.sigmoid(p)), x)
    check_grad(lambda p: ad.reduce_sum(ad.exp(p)), x)
    pos = rng.uniform(0.5, 3.0, size=(4, 3))
    check_grad(lambda p: ad.reduce_sum(ad.log(p)), pos)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_softmax(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(3, 5))
    w = rng.uniform(-1, 1, size=(3, 5))
    check_grad(lambda p: ad.reduce_sum(ad.mul(ad.softmax(p), ad.constant(w))), x)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_layer_norm(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(4, 6))
    gain = rng.uniform(0.5, 1.5, size=6)
    bias = rng.uniform(-0.5, 0.5, size=6)
    w = rng.uniform(-1, 1, size=(4, 6))
    def with_x(p):
        return ad.reduce_sum(ad.mul(ad.layer_norm(p, ad.constant(gain), ad.constant(bias)), ad.constant(w)))
    def with_gain(p):
        return ad.reduce_sum(ad.mul(ad.layer_norm(ad.constant(x), p, ad.constant(bias)), ad.constant(w)))
    def with_bias(p):
        return ad.reduce_sum(ad.mul(ad.layer_norm(ad.constant(x), ad.constant(gain), p), ad.constant(w)))
    check_grad(with_x, x)
    check_grad(with_gain, gain)
    check_grad(with_bias, bias)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_conv1d(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(7, 3))
    w = rng.uniform(-1, 1, size=(3, 3, 4))
    b = rng.uniform(-1, 1, size=4)
    check_grad(lambda p: ad.reduce_sum(ad.conv1d(p, ad.constant(w), ad.constant(b))), x)
    check_grad(lambda p: ad.reduce_sum(ad.conv1d(ad.constant(x), p, ad.constant(b))), w)
    check_grad(lambda p: ad.reduce_sum(ad.conv1d(ad.constant(x), ad.constant(w), p)), b)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_embedding(seed):
    rng = np.random.default_rng(seed)
    table = rng.uniform(-2, 2, size=(6, 4))
    ids = rng.integers(0, 6, size=9)
    w = rng.uniform(-1, 1, size=(9, 4))
    check_grad(lambda p: ad.reduce_sum(ad.mul(ad.embedding(p, ids), ad.constant(w))), table)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_concat_split(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(3, 7))
    def f(p):
        parts = ad.split_last(p, [2, 4, 1])
        recombined = ad.concat_last([parts[2], parts[0], parts[1]])
        return ad.reduce_sum(ad.mul(recombined, recombined))
    check_grad(f, x)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_repeat_rows(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(4, 3))
    counts = rng.integers(1, 4, size=4)
    w = rng.uniform(-1, 1, size=(int(counts.sum()), 3))
    check_grad(lambda p: ad.reduce_sum(ad.mul(ad.repeat_rows(p, counts), ad.constant(w))), x)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_attention(seed):
    rng = np.random.default_rng(seed)
    q = rng.uniform(-1, 1, size=(5, 4))
    k = rng.uniform(-1, 1, size=(5, 4))
    v = rng.uniform(-1, 1, size=(5, 4))
    check_grad(lambda p: ad.reduce_sum(ad.scaled_dot_attention(p, ad.constant(k), ad.constant(v))), q)
    check_grad(lambda p: ad.reduce_sum(ad.scaled_dot_attention(ad.constant(q), p, ad.constant(v))), k)
    check_grad(lambda p: ad.reduce_sum(ad.scaled_dot_attention(ad.constant(q), ad.constant(k), p)), v)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_multi_head_attention(seed):
    # two heads, 4 queries against 6 keys, value heads narrower than q/k heads
    rng = np.random.default_rng(seed)
    q = rng.uniform(-1, 1, size=(4, 6))
    k = rng.uniform(-1, 1, size=(6, 6))
    v = rng.uniform(-1, 1, size=(6, 4))
    w = rng.uniform(-1, 1, size=(4, 4))

    def loss(q, k, v):
        out = ad.scaled_dot_attention(q, k, v, heads=2)
        return ad.reduce_sum(ad.mul(out, ad.constant(w)))

    check_grad(lambda p: loss(p, ad.constant(k), ad.constant(v)), q)
    check_grad(lambda p: loss(ad.constant(q), p, ad.constant(v)), k)
    check_grad(lambda p: loss(ad.constant(q), ad.constant(k), p), v)
    # one node as q, k and v: both score-gradient users sit on one parent
    probe = ad.constant(rng.uniform(-1, 1, size=(6, 6)))
    check_grad(lambda p: ad.reduce_sum(ad.mul(
        ad.scaled_dot_attention(p, p, p, heads=2), probe)), k)


def per_head_attention(q, k, v, heads):
    """Attention as one chain of plain ops per head: the reference the fused
    op must reproduce."""
    qk_width, v_width = q.shape[1] // heads, v.shape[1] // heads
    outs = []
    for qh, kh, vh in zip(ad.split_last(q, [qk_width] * heads),
                          ad.split_last(k, [qk_width] * heads),
                          ad.split_last(v, [v_width] * heads)):
        scores = ad.scale(ad.matmul(qh, ad.transpose(kh)), 1.0 / np.sqrt(qk_width))
        outs.append(ad.matmul(ad.softmax(scores), vh))
    return outs[0] if heads == 1 else ad.concat_last(outs)


@pytest.mark.parametrize("heads,width,v_width", [(1, 4, 4), (2, 8, 6), (3, 9, 3)])
def test_attention_matches_per_head_composition(heads, width, v_width):
    rng = np.random.default_rng(heads)
    arrays = [rng.normal(size=(5, width)), rng.normal(size=(7, width)),
              rng.normal(size=(7, v_width))]
    w = ad.constant(rng.normal(size=(5, v_width)))
    results = []
    for attention in (per_head_attention, ad.scaled_dot_attention):
        q, k, v = (ad.parameter(a) for a in arrays)
        out = attention(q, k, v, heads)
        ad.backward(ad.reduce_sum(ad.mul(out, w)))
        results.append((out.value, q.grad, k.grad, v.grad))
    for reference, fused in zip(*results):
        np.testing.assert_allclose(fused, reference, rtol=0, atol=1e-12)


def test_attention_rejects_widths_not_divisible_by_heads():
    x = ad.constant(np.zeros((3, 6)))
    with pytest.raises(ad.ShapeError, match="4 heads"):
        ad.scaled_dot_attention(x, x, x, heads=4)


def test_grad_dropout(rng):
    x = rng.uniform(-2, 2, size=(4, 5))
    mask = ad.dropout_mask((4, 5), 0.4, np.random.default_rng(7))
    check_grad(lambda p: ad.reduce_sum(ad.dropout(p, mask)), x)


def test_grad_node_reused_twice(rng):
    # a node feeding two consumers must receive both gradient contributions
    x = rng.uniform(-2, 2, size=(3, 3))
    def f(p):
        y = ad.matmul(p, p)
        return ad.reduce_sum(ad.add(y, ad.mul(p, p)))
    check_grad(f, x)


# --- structural properties ------------------------------------------------

@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=8))
def test_softmax_rows_nonneg_and_sum_to_one(row):
    out = ad.softmax(ad.constant([row, row])).value
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=0, atol=1e-9)


def test_layer_norm_statistics(rng):
    x = rng.uniform(-2, 2, size=(10, 32))
    out = ad.layer_norm(
        ad.constant(x), ad.constant(np.ones(32)), ad.constant(np.zeros(32))
    ).value
    assert np.abs(out.mean(axis=-1)).max() < 1e-7
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-6


def test_dropout_mask_properties(rng):
    mask = ad.dropout_mask((1000,), 0.25, rng)
    assert set(np.unique(mask)).issubset({0.0, 1.0 / 0.75})
    mask0 = ad.dropout_mask((10,), 0.0, rng)
    np.testing.assert_array_equal(mask0, np.ones(10))


def test_debug_finite_check():
    ad.set_debug_checks(True)
    try:
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            ad.exp(ad.constant([1000.0]))
    finally:
        ad.set_debug_checks(False)


def test_embedding_rejects_out_of_range():
    table = ad.constant(np.zeros((4, 2)))
    with pytest.raises(IndexError):
        ad.embedding(table, np.array([0, 4]))


def test_repeat_rows_rejects_zero_count():
    with pytest.raises(ValueError):
        ad.repeat_rows(ad.constant(np.zeros((2, 2))), [1, 0])


# --- graph-free mode ------------------------------------------------------

def test_no_grad_nodes_keep_no_graph(rng):
    w = ad.parameter(rng.normal(size=(3, 3)))
    x = ad.parameter(rng.normal(size=(4, 3)))
    with ad.no_grad():
        h = ad.relu(ad.matmul(x, w))
        out = ad.scaled_dot_attention(h, h, h)
        loss = ad.reduce_sum(out)
    for node in (h, out, loss):
        assert node.requires_grad is False
        assert node.parents == ()
    assert w.requires_grad and x.requires_grad
    ad.backward(loss)
    assert w.grad is None and x.grad is None
    # recording resumes after the block
    assert ad.matmul(x, w).requires_grad


def test_no_grad_restores_flag_after_nesting_and_exceptions():
    p = ad.parameter(np.ones(2))

    def records():
        return ad.scale(p, 2.0).requires_grad

    with ad.no_grad():
        with ad.no_grad():
            assert not records()
        assert not records()
    assert records()
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("boom")
    assert records()


def test_debug_finite_check_inside_no_grad():
    ad.set_debug_checks(True)
    try:
        with ad.no_grad(), np.errstate(over="ignore"), \
                pytest.raises(FloatingPointError):
            ad.exp(ad.parameter([1000.0]))
    finally:
        ad.set_debug_checks(False)


def unblocked_attention(q, k, v, heads):
    """``_softmax_(q c @ k^T) @ v`` over all heads at once, in one block."""
    c = 1.0 / np.sqrt(q.shape[1] // heads)

    def split(x):
        return x.reshape(x.shape[0], heads, -1).transpose(1, 0, 2)

    probs = ad._softmax_(np.matmul(split(q * c), split(k).transpose(0, 2, 1)))
    out = np.matmul(probs, split(v))
    return out.transpose(1, 0, 2).reshape(q.shape[0], v.shape[1])


@pytest.mark.parametrize("heads,t,s,width,v_width", [
    (1, 40, 40, 4, 4),
    (2, 37, 23, 8, 6),     # T != S
    (3, 29, 31, 9, 3),
])
@pytest.mark.parametrize("block_elements", [None, 1, 300])
def test_blocked_attention_matches_recorded(monkeypatch, heads, t, s, width,
                                            v_width, block_elements):
    # None keeps the default, one block at these sizes; 1 gives one query
    # row per block; 300 gives blocks whose row count does not divide T
    if block_elements is not None:
        monkeypatch.setattr(ad, "_ATTENTION_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(heads * 100 + t)
    q, k, v = (rng.normal(size=shape) for shape in
               ((t, width), (s, width), (s, v_width)))
    recorded = ad.scaled_dot_attention(ad.parameter(q), ad.parameter(k),
                                       ad.parameter(v), heads)
    assert recorded.requires_grad
    # the recorded path is one block: bit for bit the unblocked product
    assert recorded.value.tobytes() == unblocked_attention(q, k, v, heads).tobytes()
    with ad.no_grad():
        free = ad.scaled_dot_attention(ad.parameter(q), ad.parameter(k),
                                       ad.parameter(v), heads)
    assert not free.requires_grad
    np.testing.assert_allclose(free.value, recorded.value, rtol=0, atol=1e-12)
