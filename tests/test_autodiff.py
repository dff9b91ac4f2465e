import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradcheck import absolute, check_grad, concat_last, log, scale, sub, \
    transpose
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
    ad.backward(ad.reduce_sum(absolute(x)))
    np.testing.assert_array_equal(x.grad, [-1.0])


def test_abs_subgradient_at_zero_is_zero():
    x = ad.parameter([0.0])
    ad.backward(ad.reduce_sum(absolute(x)))
    np.testing.assert_array_equal(x.grad, [0.0])


def test_backward_requires_scalar():
    x = ad.parameter([[1.0, 2.0]])
    with pytest.raises(ad.ShapeError):
        ad.backward(ad.mul(x, x))


def test_backward_accumulates_without_reset():
    # two graphs over one parameter add up in its grad; a walked graph is gone
    x = ad.parameter([1.0, 2.0])
    loss = ad.reduce_sum(ad.mul(x, x))
    ad.backward(loss)
    ad.backward(ad.reduce_sum(ad.mul(x, x)))
    np.testing.assert_array_equal(x.grad, [4.0, 8.0])
    with pytest.raises(RuntimeError, match="no graph"):
        ad.backward(loss)
    np.testing.assert_array_equal(x.grad, [4.0, 8.0])


def test_backward_refuses_a_loss_built_on_a_walked_graph():
    x = ad.parameter([1.0, 2.0])
    h = ad.mul(x, x)
    ad.backward(ad.reduce_sum(h))
    with pytest.raises(RuntimeError, match="no graph"):
        ad.backward(ad.reduce_sum(ad.mul(h, h)))
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    assert h.grad is None
    # y is reached before h, yet a walk that raises changes no grad
    y = ad.parameter([3.0, 4.0])
    with pytest.raises(RuntimeError, match="no graph"):
        ad.backward(ad.reduce_sum(ad.mul(h, y)))
    assert y.grad is None
    # a parameter stays a leaf that later graphs reach
    ad.backward(ad.reduce_sum(ad.mul(x, x)))
    np.testing.assert_array_equal(x.grad, [4.0, 8.0])


def test_backward_frees_the_graph_and_leaves_grad_only_on_parameters(rng):
    x = ad.parameter(rng.normal(size=(9, 4)))
    params = [ad.parameter(rng.normal(size=shape))
              for shape in ((3, 4, 4), (4,), (4, 4), (4, 4))]
    w, b, wk, wv = params
    h = ad.relu(ad.conv1d(x, w, b))
    out = ad.scaled_dot_attention(h, ad.matmul(h, wk), ad.matmul(h, wv), 2)
    loss = ad.reduce_sum(ad.mul(out, ad.constant(rng.normal(size=(9, 4)))))
    reached, stack = [], [loss]
    while stack:
        node = stack.pop()
        if node not in reached:
            reached.append(node)
            stack.extend(parent for parent, _ in node.parents)
    ad.backward(loss)
    assert len(reached) == 13
    for node in reached:
        assert node.parents == ()
        assert (node.grad is not None) == (node is x or node in params)


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
    check_grad(lambda p: ad.reduce_sum(ad.mul(sub(ad.constant(b), p), p)), a)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_matmul_transpose(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2, 2, size=(4, 3))
    b = rng.uniform(-2, 2, size=(3, 5))
    check_grad(lambda p: ad.reduce_sum(ad.matmul(p, ad.constant(b))), a)
    check_grad(lambda p: ad.reduce_sum(ad.matmul(ad.constant(a), p)), b)
    check_grad(lambda p: ad.reduce_sum(ad.matmul(transpose(p), p)), a)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_matmul_with_bias(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2, 2, size=(4, 3))
    b = rng.uniform(-2, 2, size=(3, 5))
    bias = rng.uniform(-1, 1, size=5)
    probe = ad.constant(rng.uniform(-1, 1, size=(4, 5)))

    def loss(x, w, c):
        return ad.reduce_sum(ad.mul(ad.matmul(x, w, c), probe))

    check_grad(lambda p: loss(p, ad.constant(b), ad.constant(bias)), a)
    check_grad(lambda p: loss(ad.constant(a), p, ad.constant(bias)), b)
    check_grad(lambda p: loss(ad.constant(a), ad.constant(b), p), bias)


def test_matmul_bias_matches_add_of_matmul_bit_for_bit(rng):
    a, b, bias = (rng.normal(size=shape) for shape in ((7, 4), (4, 6), (6,)))
    g = rng.normal(size=(7, 6))
    fused = [ad.parameter(v) for v in (a, b, bias)]
    out = ad.matmul(*fused)
    np.testing.assert_array_equal(out.value, a @ b + bias)
    ad.backward(ad.reduce_sum(ad.mul(out, ad.constant(g))))
    for mine, theirs in zip(fused, (g @ b.T, a.T @ g, g.sum(axis=0))):
        np.testing.assert_array_equal(mine.grad, theirs)


def test_matmul_rejects_a_bias_of_another_width():
    with pytest.raises(ad.ShapeError, match=r"bias \(5,\) for width 6"):
        ad.matmul(np.zeros((2, 3)), np.zeros((3, 6)), np.zeros(5))


def test_sigmoid_matches_the_three_exp_formula_bit_for_bit(rng):
    v = np.concatenate([rng.normal(scale=20.0, size=200),
                        [800.0, -800.0, 0.0, -0.0, 1e-300, -1e-300, 36.0, -745.0]])
    with np.errstate(under="ignore"):
        expected = np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                            np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))
        out = ad.sigmoid(v).value
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_scale_reshape(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2, 2, size=(2, 6))
    check_grad(lambda p: ad.reduce_sum(ad.mul(ad.reshape(scale(p, 1.7), (3, 4)),
                                              ad.reshape(p, (3, 4)))), a)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_unary_ops(seed):
    rng = np.random.default_rng(seed)
    x = away_from_kinks(rng, (4, 3))
    check_grad(lambda p: ad.reduce_sum(ad.relu(p)), x)
    check_grad(lambda p: ad.reduce_sum(absolute(p)), x)
    check_grad(lambda p: ad.reduce_sum(ad.sigmoid(p)), x)
    check_grad(lambda p: ad.reduce_sum(ad.exp(p)), x)
    pos = rng.uniform(0.5, 3.0, size=(4, 3))
    check_grad(lambda p: ad.reduce_sum(log(p)), pos)


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
        recombined = concat_last([parts[2], parts[0], parts[1]])
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
        scores = scale(ad.matmul(qh, transpose(kh)), 1.0 / np.sqrt(qk_width))
        outs.append(ad.matmul(ad.softmax(scores), vh))
    return outs[0] if heads == 1 else concat_last(outs)


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


def fused_attention_shifts(monkeypatch, q, k, v, heads):
    """Asserts that graph-free and recorded attention, and the recorded q, k
    and v gradients, match :func:`per_head_attention` at atol 1e-12; returns
    whether each of the fused op's blocks shifted its scores."""
    w = ad.constant(np.random.default_rng(0).normal(size=(q.shape[0], v.shape[1])))
    shifts, exp_rows = [], ad._exp_rows_

    def recording(x, top):
        shifts.append(top is not None)
        exp_rows(x, top)

    def recorded(attention):
        nodes = [ad.parameter(a) for a in (q, k, v)]
        out = attention(*nodes, heads)
        ad.backward(ad.reduce_sum(ad.mul(out, w)))
        return [out.value] + [node.grad for node in nodes]

    results = [recorded(per_head_attention)]
    monkeypatch.setattr(ad, "_exp_rows_", recording)
    results.append(recorded(ad.scaled_dot_attention))
    with ad.no_grad():
        results[1].append(ad.scaled_dot_attention(q, k, v, heads).value)
    results[0].append(results[0][0])
    for reference, fused in zip(*results):
        assert np.all(np.isfinite(fused))
        np.testing.assert_allclose(fused, reference, rtol=0, atol=1e-12)
    return shifts


def head_scores(q, k, heads):
    c = 1.0 / np.sqrt(q.shape[1] // heads)
    return np.stack([c * qh @ kh.T for qh, kh in
                     zip(np.split(q, heads, axis=1), np.split(k, heads, axis=1))])


@pytest.mark.parametrize("block_elements", [None, 2 * 11 * 2])
def test_attention_shifts_scores_beyond_the_bound(monkeypatch, block_elements):
    # scores near +-1e4, where exp of an unshifted score overflows or
    # underflows, and softmax rows saturated on one key; 2 x 11 x 2 elements
    # give graph-free blocks of two query rows
    if block_elements is not None:
        monkeypatch.setattr(ad, "_ATTENTION_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(12)
    q, k = 100 * rng.normal(size=(9, 8)), 100 * rng.normal(size=(11, 8))
    v = rng.normal(size=(11, 6))
    scores = head_scores(q, k, 2)
    assert np.abs(scores).max() > 1e4
    top2 = np.sort(scores, axis=-1)[..., -2:]
    assert np.all(top2[..., 1] - top2[..., 0] > 40)
    shifts = fused_attention_shifts(monkeypatch, q, k, v, 2)
    # one block: recorded forward, then graph-free; five blocks: recorded
    # forward, the backward's recomputation of all but the held block 0,
    # then graph-free
    assert shifts == [True] * (2 if block_elements is None else 5 + 4 + 5)


def test_attention_unshifted_just_inside_the_bound(monkeypatch):
    # q = a u and k = -a u per head, so every score sits just above -bound:
    # exp of them is about 1e-130 unshifted, and a larger bound would
    # underflow it to 0 here and fail
    rng = np.random.default_rng(13)
    heads, width = 2, 8
    a = np.sqrt(0.999 * ad._ATTENTION_UNSHIFTED_REACH * np.sqrt(width // heads))
    u = rng.normal(size=(heads, width // heads))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    q = a * (1 - 0.005 * rng.random((9, heads, 1))) * u
    k = -a * (1 - 0.005 * rng.random((11, heads, 1))) * u
    q, k = q.reshape(9, width), k.reshape(11, width)
    v = rng.normal(size=(11, 6))
    scores = head_scores(q, k, heads)
    assert np.all(scores < -0.98 * ad._ATTENTION_UNSHIFTED_REACH)
    assert fused_attention_shifts(monkeypatch, q, k, v, heads) == [False, False]


def test_attention_rejects_widths_not_divisible_by_heads():
    x = ad.constant(np.zeros((3, 6)))
    with pytest.raises(ad.ShapeError, match="4 heads"):
        ad.scaled_dot_attention(x, x, x, heads=4)


def test_attention_over_no_rows():
    # inf and NaN queries take the shifted path; over no keys its rows, like
    # the unshifted path's, are a softmax over nothing: 0 / 0
    for q in (np.zeros((0, 4)), np.zeros((3, 4)), np.full((3, 4), np.inf),
              np.full((3, 4), np.nan)):
        q, x = ad.parameter(q), ad.parameter(np.zeros((0, 4)))
        with np.errstate(invalid="ignore", divide="ignore"):
            out = ad.scaled_dot_attention(q, x, x, heads=2)
            ad.backward(ad.reduce_sum(out))
            with ad.no_grad():
                free = ad.scaled_dot_attention(q, x, x, heads=2)
        assert out.shape == free.shape == q.shape == q.grad.shape
        assert x.grad.shape == (0, 4)
        assert np.isnan(out.value).all() and np.isnan(free.value).all()


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


def test_backward_sums_three_consumers_made_out_of_their_listed_order():
    # the loss lists h's consumers as b, a, c but they were made c, a, b;
    # every value is an integer, so any summation order gives exact bits
    x = ad.parameter(np.array([[1.0, -2.0], [3.0, 4.0]]))
    pulled = []

    def pull(g):
        pulled.append(g)
        return 2.0 * g

    h = ad.Node(2.0 * x.value, parents=[(x, pull)])
    w = np.array([[5.0, 6.0], [-7.0, 8.0]])
    c = ad.mul(h, ad.constant(w))
    a = scale(h, 3.0)
    b = ad.mul(h, h)
    assert x.number < h.number < c.number < a.number < b.number
    ad.backward(ad.reduce_sum(ad.add(ad.add(b, a), c)))
    # h passes its gradient on once, after all three consumers added theirs
    assert len(pulled) == 1
    np.testing.assert_array_equal(pulled[0], 2.0 * h.value + 3.0 + w)
    np.testing.assert_array_equal(x.grad, 2.0 * pulled[0])


def test_backward_walks_a_20k_node_chain():
    x = ad.parameter(np.arange(3.0))
    y = x
    for _ in range(20_000):
        y = scale(y, 1.0)
    ad.backward(ad.reduce_sum(y))
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_repeat_rows_is_embedding_of_the_repeated_index(rng):
    x, counts = rng.normal(size=(5, 3)), np.array([2, 1, 3, 1, 4])
    probe = ad.constant(rng.normal(size=(11, 3)))
    repeated, looked_up = ad.parameter(x), ad.parameter(x)
    out = ad.repeat_rows(repeated, counts)
    ref = ad.embedding(looked_up, np.repeat(np.arange(5), counts))
    np.testing.assert_array_equal(out.value, ref.value)
    ad.backward(ad.reduce_sum(ad.mul(out, probe)))
    ad.backward(ad.reduce_sum(ad.mul(ref, probe)))
    np.testing.assert_array_equal(repeated.grad, looked_up.grad)


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
        return scale(p, 2.0).requires_grad

    with ad.no_grad():
        with ad.no_grad():
            assert not records()
        assert not records()
    assert records()
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("boom")
    assert records()


def unblocked_attention(q, k, v, heads):
    """``exp(q c @ k^T) @ v`` divided by the row sums of ``exp(q c @ k^T)``,
    over all heads at once, in one block: attention's arithmetic for inputs
    whose scores it exponentiates unshifted, which these must be."""
    c = 1.0 / np.sqrt(q.shape[1] // heads)

    def split(x):
        return x.reshape(x.shape[0], heads, -1).transpose(1, 0, 2)

    reach = (c * np.linalg.norm(split(q), axis=-1).max(axis=-1)
             * np.linalg.norm(split(k), axis=-1).max(axis=-1))
    assert np.all(reach < ad._ATTENTION_UNSHIFTED_REACH)
    exps = np.exp(np.matmul(split(q * c), split(k).transpose(0, 2, 1)))
    out = np.matmul(exps, split(v)) / exps.sum(axis=-1, keepdims=True)
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
    with ad.no_grad():
        free = ad.scaled_dot_attention(ad.parameter(q), ad.parameter(k),
                                       ad.parameter(v), heads)
    assert not free.requires_grad
    # both paths run the same blocks: bit for bit the same output
    assert recorded.value.tobytes() == free.value.tobytes()
    np.testing.assert_allclose(recorded.value, unblocked_attention(q, k, v, heads),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("heads,t,s,width,v_width", [
    (1, 40, 40, 4, 4),
    (2, 37, 23, 8, 6),
    (3, 29, 31, 9, 3),
])
@pytest.mark.parametrize("block_elements", [1, 300])
def test_blocked_attention_gradients_match_per_head_composition(
        monkeypatch, heads, t, s, width, v_width, block_elements):
    # the pullback recomputes every block but the one its buffer holds; 300
    # elements give blocks of 3 to 7 rows and a shorter last block
    monkeypatch.setattr(ad, "_ATTENTION_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(heads * 100 + t)
    q, k, v = (rng.normal(size=shape) for shape in
               ((t, width), (s, width), (s, v_width)))
    assert not any(fused_attention_shifts(monkeypatch, q, k, v, heads))


def test_attention_backward_twice_gives_the_same_gradients(monkeypatch):
    # each backward walks a graph of its own, from the block 0 that its
    # forward left in the buffer
    monkeypatch.setattr(ad, "_ATTENTION_BLOCK_ELEMENTS", 300)
    rng = np.random.default_rng(5)
    nodes = [ad.parameter(rng.normal(size=shape))
             for shape in ((37, 8), (23, 8), (23, 6))]
    probe = ad.constant(rng.normal(size=(37, 6)))
    grads = []
    for _ in range(2):
        out = ad.scaled_dot_attention(*nodes, heads=2)
        ad.backward(ad.reduce_sum(ad.mul(out, probe)))
        grads.append([node.grad.tobytes() for node in nodes])
        for node in nodes:
            node.grad = None
    assert grads[0] == grads[1]


def test_recorded_attention_never_holds_a_frames_squared_buffer():
    # at 1,900 frames one H x T x S float64 buffer is 58 MB; the recorded op
    # keeps one 512 KB scratch tile, the row sums and T x D arrays
    rng = np.random.default_rng(19)
    nodes = [ad.parameter(rng.normal(scale=0.3, size=(1900, 32)))
             for _ in range(3)]
    w = ad.constant(rng.normal(size=(1900, 32)))
    tracemalloc.start()
    try:
        out = ad.scaled_dot_attention(*nodes, heads=2)
        kept = tracemalloc.get_traced_memory()[0]
        ad.backward(ad.reduce_sum(ad.mul(out, w)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept < 2.5e6
    assert peak < 16e6


# Attention in tiles of several keys. Tiles of 7 keys and 5 query rows with
# 2 heads; 23 x 17 scores give ragged last tiles on both axes.

def small_tiles(monkeypatch, cols=7, rows=5, heads=2):
    monkeypatch.setattr(ad, "_ATTENTION_TILE_COLS", cols)
    monkeypatch.setattr(ad, "_ATTENTION_BLOCK_ELEMENTS", heads * rows * cols)


@pytest.mark.parametrize("t,s", [(23, 17), (23, 5)])
def test_attention_over_several_key_tiles_matches_per_head_composition(
        monkeypatch, t, s):
    # 17 keys are tiles of 7, 7 and 3; 5 keys are less than one tile
    small_tiles(monkeypatch)
    rng = np.random.default_rng(t + s)
    q, k, v = (rng.normal(size=shape) for shape in ((t, 8), (s, 8), (s, 6)))
    recorded = ad.scaled_dot_attention(ad.parameter(q), ad.parameter(k),
                                       ad.parameter(v), 2)
    with ad.no_grad():
        free = ad.scaled_dot_attention(q, k, v, 2)
    assert recorded.value.tobytes() == free.value.tobytes()
    np.testing.assert_allclose(free.value, unblocked_attention(q, k, v, 2),
                               rtol=0, atol=1e-12)
    assert not any(fused_attention_shifts(monkeypatch, q, k, v, 2))


def test_shifted_attention_with_each_rows_max_in_any_key_tile(monkeypatch):
    # scores near +-1e4, whose rows peak in the first, a middle or the last
    # of the tiles of 7, 7 and 3 keys: every tile subtracts its rows' max
    # over all three, wherever it lies
    small_tiles(monkeypatch)
    rng = np.random.default_rng(14)
    q, k = 100 * rng.normal(size=(23, 8)), 100 * rng.normal(size=(17, 8))
    v = rng.normal(size=(17, 6))
    scores = head_scores(q, k, 2)
    assert np.abs(scores).max() > 1e4
    assert set(np.unique(scores.argmax(axis=-1) // 7)) == {0, 1, 2}
    shifts = fused_attention_shifts(monkeypatch, q, k, v, 2)
    # 15 tiles: recorded forward, the backward's recomputation of all but
    # the held tile, then graph-free
    assert shifts == [True] * (15 + 14 + 15)


@pytest.mark.parametrize("scale", [1, 100])
def test_attention_backward_twice_over_several_key_tiles(monkeypatch, scale):
    # each backward walks a graph of its own, from the tile (0, 0) that its
    # forward left in the buffer, and at scale 100 from the row maxes over
    # all key tiles that its forward took
    small_tiles(monkeypatch)
    rng = np.random.default_rng(6)
    nodes = [ad.parameter(scale * rng.normal(size=shape))
             for shape in ((23, 8), (17, 8), (17, 6))]
    probe = ad.constant(rng.normal(size=(23, 6)))
    grads = []
    for _ in range(2):
        out = ad.scaled_dot_attention(*nodes, heads=2)
        ad.backward(ad.reduce_sum(ad.mul(out, probe)))
        grads.append([node.grad.tobytes() for node in nodes])
        for node in nodes:
            node.grad = None
    assert grads[0] == grads[1]


# Graph-free attention on several threads. Blocks of 5 query rows against
# 50 keys and 2 heads; a call starts min(cpus, blocks // 4, 4) threads.
THREADED_BLOCK_ELEMENTS = 2 * 50 * 5


@pytest.fixture
def started_pools(monkeypatch):
    """Small attention blocks and one BLAS thread; returns the thread counts
    of the calls that start helpers, in call order."""
    monkeypatch.setattr(ad, "_ATTENTION_BLOCK_ELEMENTS", THREADED_BLOCK_ELEMENTS)
    monkeypatch.setattr(ad, "BLAS_ONE_THREAD", True)
    started = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, helpers):
            started.append(helpers + 1)
            super().__init__(helpers)

    monkeypatch.setattr(ad, "ThreadPoolExecutor", CountingPool)
    return started


def graph_free_attention(q, k, v, heads=2):
    with ad.no_grad():
        return ad.scaled_dot_attention(q, k, v, heads)


@pytest.mark.parametrize("t, pools", [
    (35, []),           # 7 blocks: just below two threads' 8
    (40, [2, 2, 2]),    # 8 blocks
    (55, [2, 2, 2]),    # 11 blocks: just below three threads' 12
    (60, [2, 3, 3]),    # 12 blocks
    (63, [2, 3, 3]),    # 13 blocks, the last one short
    (100, [2, 3, 4]),   # 20 blocks: enough for five threads, capped at 4
])
def test_threaded_attention_bytes_do_not_depend_on_cpu_count(
        monkeypatch, started_pools, t, pools):
    # ``pools``: the thread count of each call that started helpers, at 2,
    # 3 and 8 CPUs
    rng = np.random.default_rng(t)
    q, k, v = (rng.normal(size=shape) for shape in ((t, 8), (50, 8), (50, 6)))
    outputs = {}
    interval = sys.getswitchinterval()
    # frequent thread switches interleave the claims of 4 threads on any
    # number of cores; a block claimed twice or lost changes the bytes
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(ad, "available_cpus", lambda: cpus)
            outputs[cpus] = graph_free_attention(q, k, v).value.tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert all(outputs[cpus] == outputs[1] for cpus in (2, 3, 8))
    np.testing.assert_allclose(np.frombuffer(outputs[1]).reshape(t, 6),
                               unblocked_attention(q, k, v, 2), rtol=0,
                               atol=1e-12)
    assert started_pools == pools


@pytest.mark.parametrize("scale", [1, 100])
def test_threaded_attention_over_several_key_tiles_same_bytes_on_any_cpus(
        monkeypatch, started_pools, scale):
    # tiles of 20, 20 and 10 keys and 12 query rows: 13 query blocks, so 2
    # threads at 2 CPUs and 3 at 3 or 8; at scale 100 scores near +-1e4
    # shift, and each thread writes the row maxes of the blocks it claims
    monkeypatch.setattr(ad, "_ATTENTION_TILE_COLS", 20)
    rng = np.random.default_rng(15)
    q, k = (scale * rng.normal(size=shape) for shape in ((150, 8), (50, 8)))
    v = rng.normal(size=(50, 6))
    shifts, exp_rows = set(), ad._exp_rows_

    def recording(x, top):
        shifts.add(top is not None)
        exp_rows(x, top)

    monkeypatch.setattr(ad, "_exp_rows_", recording)
    outputs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(ad, "available_cpus", lambda: cpus)
            outputs[cpus] = graph_free_attention(q, k, v).value.tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert all(outputs[cpus] == outputs[1] for cpus in (2, 3, 8))
    reference = (unblocked_attention(q, k, v, 2) if scale == 1 else
                 per_head_attention(*map(ad.constant, (q, k, v)), 2).value)
    np.testing.assert_allclose(np.frombuffer(outputs[1]).reshape(150, 6),
                               reference, rtol=0, atol=1e-12)
    assert shifts == {scale == 100}
    assert started_pools == [2, 3, 3]


def test_attention_stays_on_one_thread_unless_blas_runs_one(monkeypatch,
                                                            started_pools):
    # helpers that each drove several BLAS threads would crowd one another
    monkeypatch.setattr(ad, "available_cpus", lambda: 3)
    monkeypatch.setattr(ad, "BLAS_ONE_THREAD", False)
    x = np.random.default_rng(0).normal(size=(60, 8))
    graph_free_attention(x, x[:50], x[:50])
    assert started_pools == []


def test_recorded_attention_stays_on_one_thread(monkeypatch, started_pools):
    monkeypatch.setattr(ad, "available_cpus", lambda: 3)
    x = ad.parameter(np.random.default_rng(0).normal(size=(60, 8)))
    assert ad.scaled_dot_attention(x, x, x, heads=2).requires_grad
    assert started_pools == []


def test_threaded_attention_raises_a_helpers_exception(monkeypatch,
                                                       started_pools):
    monkeypatch.setattr(ad, "available_cpus", lambda: 2)
    caller = threading.get_ident()
    raised = threading.Event()
    exp_rows = ad._exp_rows_

    def failing_in_helper(x, top):
        if threading.get_ident() != caller:
            raised.set()
            raise RuntimeError("helper block failed")
        # hold the caller's first block until a helper has claimed one
        assert raised.wait(timeout=30)
        exp_rows(x, top)

    monkeypatch.setattr(ad, "_exp_rows_", failing_in_helper)
    x = np.ones((60, 8))
    with pytest.raises(RuntimeError, match="helper block failed"):
        graph_free_attention(x, x[:50], x[:50])
    assert started_pools == [2]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_threaded_attention_keeps_the_callers_errstate(monkeypatch,
                                                       started_pools, cpus):
    # inf queries make every score inf, so each block's softmax subtracts
    # inf from inf once; a helper without the caller's errstate ignores it
    monkeypatch.setattr(ad, "available_cpus", lambda: cpus)
    calls = []
    q, k, v = np.full((60, 8), np.inf), np.ones((50, 8)), np.ones((50, 6))
    with np.errstate(invalid="call", call=lambda *args: calls.append(args)):
        out = graph_free_attention(q, k, v)
    assert np.isnan(out.value).all()
    assert len(calls) == 12
    assert started_pools == ([cpus] if cpus > 1 else [])
