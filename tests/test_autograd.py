"""Gradient-engine checks against hand values and central finite differences."""

import numpy as np
import pytest
from scipy.special import erf as scipy_erf

from xprompt import autograd as ag
from xprompt.errors import ShapeError, StateError

from support import attention, central_diff, max_rel_err
from support import gelu as reference_gelu


# --- hand-checked values ------------------------------------------------------


def test_matmul_scalar_product():
    a = ag.leaf([[2.0]])
    b = ag.leaf([[3.0]])
    out = ag.matmul(a, b)
    assert out.value[0, 0] == 6.0
    ag.backward(ag.LossScalar(6.0, out))
    assert a.grad[0, 0] == 3.0
    assert b.grad[0, 0] == 2.0


def test_matmul_identity():
    m = np.arange(6.0).reshape(2, 3)
    out = ag.matmul(ag.constant(np.eye(2)), ag.constant(m))
    assert np.array_equal(out.value, m)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        ag.matmul(ag.leaf(np.ones((2, 3))), ag.leaf(np.ones((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_rowwise_scale_unit_mask_is_bitwise_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 8))
    out = ag.rowwise_scale(ag.leaf(x), ag.leaf(np.ones((4, 1))))
    assert np.array_equal(out.value, x)


def test_rowwise_scale_zero_mask_annihilates_row_and_value_grad():
    rng = np.random.default_rng(1)
    x = ag.leaf(rng.normal(size=(3, 4)))
    s = ag.leaf(np.array([[1.0], [0.0], [1.0]]))
    out = ag.rowwise_scale(x, s)
    assert np.array_equal(out.value[1], np.zeros(4))
    total = ag.matmul(ag.mean_pool(out), ag.constant(np.ones((4, 1))))
    ag.backward(ag.LossScalar(float(total.value[0, 0]), total))
    # grad to the masked row of x is exactly zero...
    assert np.array_equal(x.grad[1], np.zeros(4))
    # ...while the mask itself still sees the usual inner-product gradient
    expected = (out.grad[1] * x.value[1]).sum()
    assert s.grad[1, 0] == expected


def test_blockwise_scale_hand_example():
    x = ag.leaf([[1.0, 2.0, 3.0, 4.0]])
    z = ag.leaf([[1.0, 0.0]])
    out = ag.blockwise_scale(x, z)
    assert np.array_equal(out.value, [[1.0, 2.0, 0.0, 0.0]])


def test_blockwise_scale_unit_mask_is_bitwise_identity():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 16))
    out = ag.blockwise_scale(ag.leaf(x), ag.leaf(np.ones((3, 4))))
    assert np.array_equal(out.value, x)


def test_blockwise_divisibility_error_states_e_and_k():
    with pytest.raises(ShapeError) as exc:
        ag.blockwise_scale(ag.leaf(np.ones((2, 10))), ag.leaf(np.ones((2, 3))))
    msg = str(exc.value)
    assert "10" in msg and "3" in msg


def test_unit_masks_leave_value_gradients_bitwise_identical():
    # same downstream graph with and without the all-ones mask pair
    rng = np.random.default_rng(3)
    xv = rng.normal(size=(4, 8))
    w = rng.normal(size=(8, 2))

    def run(masked: bool):
        x = ag.leaf(xv.copy())
        h = x
        if masked:
            h = ag.rowwise_scale(h, ag.leaf(np.ones((4, 1))))
            h = ag.blockwise_scale(h, ag.leaf(np.ones((4, 2))))
        logits = ag.matmul(ag.mean_pool(h), ag.constant(w))
        loss = ag.softmax_cross_entropy(logits, [1])
        ag.backward(loss)
        return loss.value, x.grad

    lv_a, g_a = run(False)
    lv_b, g_b = run(True)
    assert lv_a == lv_b
    assert np.array_equal(g_a, g_b)


def test_token_importance_identity():
    # dL/d(gamma_i) at gamma=1 equals <masked-row grad, unmasked row>
    rng = np.random.default_rng(4)
    x = ag.leaf(rng.normal(size=(5, 6)))
    s = ag.leaf(np.ones((5, 1)))
    masked = ag.rowwise_scale(x, s)
    logits = ag.matmul(ag.mean_pool(masked), ag.constant(rng.normal(size=(6, 3))))
    loss = ag.softmax_cross_entropy(logits, [2])
    ag.backward(loss)
    inner = (masked.grad * x.value).sum(axis=1, keepdims=True)
    assert max_rel_err(s.grad, inner) <= 1e-12


def test_softmax_cross_entropy_uniform_logits():
    loss = ag.softmax_cross_entropy(ag.leaf(np.zeros((1, 4))), [0])
    assert abs(loss.value - np.log(4.0)) < 1e-15


def test_softmax_cross_entropy_saturates_with_margin():
    vals = []
    for margin in (2.0, 5.0, 10.0):
        logits = np.zeros((1, 3))
        logits[0, 1] = margin
        vals.append(ag.softmax_cross_entropy(ag.leaf(logits), [1]).value)
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_softmax_cross_entropy_label_out_of_range():
    with pytest.raises(IndexError):
        ag.softmax_cross_entropy(ag.leaf(np.zeros((1, 3))), [3])


def test_concat_rows_preserves_order():
    p = np.ones((2, 4))
    x = np.arange(12.0).reshape(3, 4)
    out = ag.concat_rows(ag.leaf(p), ag.leaf(x))
    assert out.shape == (5, 4)
    assert np.array_equal(out.value[:2], p)
    assert np.array_equal(out.value[2:], x)


def test_concat_rows_supports_empty_prompt():
    x = np.arange(8.0).reshape(2, 4)
    out = ag.concat_rows(ag.leaf(np.zeros((0, 4))), ag.leaf(x))
    assert np.array_equal(out.value, x)


def test_layer_norm_constant_row_is_zero_before_affine():
    x = ag.leaf(np.full((1, 6), 3.7))
    out = ag.layer_norm(x, ag.leaf(np.ones((1, 6))), ag.leaf(np.zeros((1, 6))))
    assert np.allclose(out.value, 0.0)


def test_embedding_lookup_duplicate_ids_accumulate():
    t = ag.leaf(np.arange(8.0).reshape(4, 2))
    out = ag.embedding_lookup(t, [1, 1, 3])
    pooled = ag.matmul(ag.mean_pool(out), ag.constant(np.ones((2, 1))))
    ag.backward(ag.LossScalar(float(pooled.value[0, 0]), pooled))
    assert t.grad[1, 0] == pytest.approx(2.0 / 3.0)
    assert t.grad[3, 0] == pytest.approx(1.0 / 3.0)
    assert np.array_equal(t.grad[0], np.zeros(2))


def test_embedding_lookup_rejects_bad_id():
    t = ag.leaf(np.zeros((4, 2)))
    with pytest.raises(IndexError):
        ag.embedding_lookup(t, [4])


def test_backward_on_single_leaf():
    x = ag.leaf([[5.0]])
    ag.backward(ag.LossScalar(5.0, x))
    assert x.grad[0, 0] == 1.0


def test_backward_linear_chain():
    x = ag.leaf([[2.0]])
    y = ag.matmul(x, ag.constant([[3.0]]))
    ag.backward(ag.LossScalar(float(y.value[0, 0]), y))
    assert x.grad[0, 0] == 3.0


def test_double_backward_rejected():
    x = ag.leaf([[1.0]])
    y = ag.matmul(x, ag.constant([[2.0]]))
    loss = ag.LossScalar(2.0, y)
    ag.backward(loss)
    with pytest.raises(StateError):
        ag.backward(loss)


def test_forward_is_deterministic_bitwise():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 8))
    w = rng.normal(size=(8, 8))

    def run():
        q = ag.matmul(ag.leaf(x), ag.constant(w))
        att = attention(q, q, q, heads=2)
        out = ag.gelu(att)
        loss = ag.softmax_cross_entropy(ag.matmul(ag.mean_pool(out), ag.constant(w[:, :3])), [1])
        return loss.value, out.value.copy()

    v1, o1 = run()
    v2, o2 = run()
    assert v1 == v2
    assert np.array_equal(o1, o2)


# --- erf and gelu, byte for byte against scipy ---------------------------------


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _around(v):
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_erf_matches_scipy_bitwise_on_a_grid():
    x = np.linspace(-30.0, 30.0, 3_000_001)
    assert _same_bytes(ag.erf(x), scipy_erf(x))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [0.1, 0.3, 1.0, 3.0, 10.0])
def test_erf_matches_scipy_bitwise_on_normal_samples(scale):
    x = np.random.default_rng(7).normal(scale=scale, size=(500, 400))
    assert _same_bytes(ag.erf(x), scipy_erf(x))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_erf_matches_scipy_bitwise_at_edges():
    # the two fits meet at 1; erf is exactly 1 from about 5.92 on and the
    # port clips |x| at 6; Cephes switches erfc's fit at 8 and underflows
    # once -x * x < -MAXLOG
    cut = np.sqrt(7.09782712893383996843e2)
    tiny = np.finfo(np.float64).tiny
    pos = [0.0, *_around(1.0), *_around(6.0), *_around(8.0), *_around(cut),
           1e300, np.inf, 5e-324, np.nextafter(tiny, 0.0), tiny, 1e-300]
    x = np.array(pos + [-v for v in pos] + [np.nan])
    assert _same_bytes(ag.erf(x), scipy_erf(x))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shape,draw", [
    ((7, 13), lambda rng, n: rng.normal(size=n)),
    ((257, 128), lambda rng, n: 0.3 * rng.normal(size=n)),
    ((2 * ag._CHUNK + 5, 1), lambda rng, n: 3.0 * rng.normal(size=n)),
    ((3, ag._CHUNK // 2 + 1), lambda rng, n: rng.standard_cauchy(size=n)),
    ((100, 50), lambda rng, n: rng.standard_t(2, size=n) * 10.0),
])
def test_gelu_matches_scipy_reference_bitwise(shape, draw):
    rng = np.random.default_rng(11)
    xv = draw(rng, shape)
    a = rng.normal(size=(1, shape[0])) / np.abs(xv).sum()  # keeps the logits small
    w = rng.normal(size=(shape[1], 3))

    def run(gelu):
        x = ag.leaf(xv)
        h = gelu(x)
        logits = ag.matmul(ag.constant(a), ag.matmul(h, ag.constant(w)))
        ag.backward(ag.softmax_cross_entropy(logits, [1]))
        return h.value, x.grad

    (out, grad), (ref_out, ref_grad) = run(ag.gelu), run(reference_gelu)
    assert _same_bytes(out, ref_out)
    assert _same_bytes(grad, ref_grad)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gelu_grad_shares_its_input_bitwise():
    # x feeds gelu, a residual add and a matmul, so gelu's backward meets a
    # grad that other ops have started, or starts one they add to
    rng = np.random.default_rng(12)
    xv, v, w = rng.normal(size=(40, 30)), rng.normal(size=(30, 30)), rng.normal(size=(30, 3))

    def run(gelu):
        x = ag.leaf(xv)
        h = ag.add(ag.add(gelu(x), x), ag.matmul(x, ag.constant(v)))
        ag.backward(ag.softmax_cross_entropy(ag.mean_pool(ag.matmul(h, ag.constant(w))), [2]))
        return x.grad

    assert _same_bytes(run(ag.gelu), run(reference_gelu))


# --- finite differences over every primitive ---------------------------------


def _fd_case(build, shapes, seed, tol=1e-5, scales=None):
    """Compare analytic grads with central differences for one composite."""
    rng = np.random.default_rng(seed)
    scales = scales or [1.0] * len(shapes)
    arrays = [sc * rng.normal(size=s) for s, sc in zip(shapes, scales)]

    nodes = [ag.leaf(a) for a in arrays]
    loss = build(*nodes)
    ag.backward(loss)
    analytic = [n.grad.copy() for n in nodes]

    for arr, got in zip(arrays, analytic):
        fd = central_diff(lambda: build(*[ag.leaf(a) for a in arrays]).value, arr)
        assert max_rel_err(got, fd) <= tol


def test_fd_matmul():
    def build(a, b):
        return ag.softmax_cross_entropy(ag.mean_pool(ag.matmul(a, b)), [1])
    for seed in range(5):
        _fd_case(build, [(3, 4), (4, 3)], seed, tol=1e-6)


def test_fd_rowwise_scale():
    def build(x, s):
        return ag.softmax_cross_entropy(ag.mean_pool(ag.rowwise_scale(x, s)), [0])
    for seed in range(5):
        _fd_case(build, [(4, 6), (4, 1)], seed, tol=1e-6)


def test_fd_blockwise_scale():
    def build(x, z):
        return ag.softmax_cross_entropy(ag.mean_pool(ag.blockwise_scale(x, z)), [2])
    for seed in range(5):
        _fd_case(build, [(3, 8), (3, 4)], seed, tol=1e-6)


def test_fd_softmax_cross_entropy():
    def build(x):
        return ag.softmax_cross_entropy(x, [0, 2, 1])
    for seed in range(5):
        _fd_case(build, [(3, 3)], seed, tol=1e-6)


def test_fd_gelu_layer_norm_bias():
    def build(x, g, b, w):
        h = ag.gelu(ag.layer_norm(x, g, b))
        h = ag.bias_add(ag.matmul(h, w), ag.constant(np.zeros((1, 3))))
        return ag.softmax_cross_entropy(ag.mean_pool(h), [1])
    for seed in range(5):
        _fd_case(build, [(4, 6), (1, 6), (1, 6), (6, 3)], seed)


def test_fd_attention():
    def build(q, k, v):
        h = attention(q, k, v, heads=2)
        return ag.softmax_cross_entropy(ag.mean_pool(h), [3])
    for seed in range(5):
        _fd_case(build, [(4, 6), (5, 6), (5, 6)], seed)


def test_fd_attention_blocks():
    bounds = [(0, 3), (3, 7)]

    def build(q, k, v):
        h = ag.attention_blocks(q, k, v, heads=2, bounds=bounds)
        return ag.softmax_cross_entropy(ag.mean_pool(h), [3])
    for seed in range(5):
        _fd_case(build, [(7, 6), (7, 6), (7, 6)], seed)


def test_fd_attention_blocks_query_rows():
    # queries from rows 1-2 of the first block and rows 5-6 of the second;
    # keys and values from every row
    bounds = [(0, 3), (3, 7)]
    queries = [(1, 3), (5, 7)]

    def build(q, k, v, x):
        h = ag.attention_blocks(q, k, v, heads=2, bounds=bounds, queries=queries)
        h = ag.add(h, ag.take_rows(x, queries))
        return ag.softmax_cross_entropy(ag.mean_pool(h), [3])
    for seed in range(5):
        _fd_case(build, [(4, 6), (7, 6), (7, 6), (7, 6)], seed)


def test_attention_blocks_query_rows_match_full_rows():
    # the output rows of a query range are the same rows of full attention
    rng = np.random.default_rng(9)
    q, k, v = (rng.normal(size=(7, 8)) for _ in range(3))
    bounds = [(0, 4), (4, 7)]
    queries = [(2, 4), (4, 7)]
    full = ag.attention_blocks(ag.leaf(q), ag.leaf(k), ag.leaf(v), 2, bounds)
    rows = ag.take_rows(ag.leaf(q), queries)
    part = ag.attention_blocks(rows, ag.leaf(k), ag.leaf(v), 2, bounds, queries)
    assert np.array_equal(part.value, full.value[[2, 3, 4, 5, 6]])


def test_attention_blocks_rejects_bad_query_rows():
    kv = ag.leaf(np.zeros((6, 4)))
    bounds = [(0, 3), (3, 6)]
    for bad in ([(1, 3)], [(0, 4), (4, 6)], [(2, 2), (3, 6)], [(1, 3), (2, 6)]):
        rows = sum(b - a for a, b in bad)
        with pytest.raises(ShapeError):
            ag.attention_blocks(ag.leaf(np.zeros((max(rows, 1), 4))), kv, kv, 2, bounds, bad)
    with pytest.raises(ShapeError, match="cover 4 rows, q has 5"):
        ag.attention_blocks(ag.leaf(np.zeros((5, 4))), kv, kv, 2, bounds, [(1, 3), (4, 6)])


def test_take_rows_rejects_unordered_or_overlapping_spans():
    x = ag.leaf(np.zeros((6, 2)))
    for bad in ([(3, 5), (0, 2)], [(0, 3), (2, 4)], [(1, 1)], [(4, 7)]):
        with pytest.raises(ShapeError):
            ag.take_rows(x, bad)


def test_attention_blocks_match_separate_attention():
    # each block must behave exactly like standalone attention on its slice
    rng = np.random.default_rng(8)
    q, k, v = (rng.normal(size=(7, 8)) for _ in range(3))
    bounds = [(0, 4), (4, 7)]
    packed = ag.attention_blocks(ag.leaf(q), ag.leaf(k), ag.leaf(v), 2, bounds)
    for a, b in bounds:
        alone = attention(ag.leaf(q[a:b]), ag.leaf(k[a:b]), ag.leaf(v[a:b]), 2)
        assert np.allclose(packed.value[a:b], alone.value, atol=1e-14)


def test_attention_blocks_rejects_bad_tiling():
    q = ag.leaf(np.zeros((4, 4)))
    for bad in ([(0, 2), (3, 4)], [(0, 2)], [(0, 2), (2, 2), (2, 4)]):
        with pytest.raises(ShapeError):
            ag.attention_blocks(q, q, q, 2, bad)


def test_fd_transpose_embedding_mean_pool():
    table = np.random.default_rng(11).normal(size=(6, 4))

    def build(t, w):
        h = ag.embedding_lookup(t, [0, 2, 2, 5])
        h = ag.matmul(ag.mean_pool(h, 1, 4), ag.transpose(w))
        return ag.softmax_cross_entropy(h, [1])
    for seed in range(5):
        _fd_case(build, [(6, 4), (5, 4)], seed)


def test_fd_composite_transformer_block():
    # one full pre-LN block: LN -> qkv -> attention -> out -> residual -> LN ->
    # FFN -> final LN -> head (final LN keeps logits unsaturated for any seed)
    def build(x, wq, wk, wv, wo, g1, b1, w1, bb1, w2, bb2, g2, b2, g3, b3, head):
        ln1 = ag.layer_norm(x, g1, b1)
        att = attention(ag.matmul(ln1, wq), ag.matmul(ln1, wk), ag.matmul(ln1, wv), heads=2)
        h = ag.add(x, ag.matmul(att, wo))
        ln2 = ag.layer_norm(h, g2, b2)
        f = ag.bias_add(ag.matmul(ln2, w1), bb1)
        f = ag.bias_add(ag.matmul(ag.gelu(f), w2), bb2)
        h = ag.add(h, f)
        h = ag.layer_norm(h, g3, b3)
        return ag.softmax_cross_entropy(ag.matmul(ag.mean_pool(h, 2), head), [1])

    e, f = 6, 8
    shapes = [(5, e), (e, e), (e, e), (e, e), (e, e), (1, e), (1, e),
              (e, f), (1, f), (f, e), (1, e), (1, e), (1, e), (1, e), (1, e), (e, 3)]
    # weights at 0.3 keep attention and softmax in their soft regimes
    scales = [1.0, 0.3, 0.3, 0.3, 0.3, 1.0, 1.0,
              0.3, 1.0, 0.3, 1.0, 1.0, 1.0, 1.0, 1.0, 0.3]
    for seed in range(3):
        _fd_case(build, shapes, seed, scales=scales)


def test_primitive_gradients_20_random_instances():
    # one instance mixes every primitive; 20 seeds
    def build(x, s, z, w):
        h = ag.blockwise_scale(ag.rowwise_scale(x, s), z)
        h = ag.gelu(ag.matmul(h, w))
        return ag.softmax_cross_entropy(ag.mean_pool(h), [1])
    for seed in range(20):
        _fd_case(build, [(3, 8), (3, 1), (3, 2), (8, 4)], 100 + seed)
