"""Autodiff core: every op against central differences, plus the softmax
hand cases, backward semantics, and checkpoint round-trips."""

import math
import struct

import numpy as np
import pytest

from streamlora.autograd import (
    _CKPT_MAGIC,
    ParamStore,
    Value,
    add,
    atomic_open,
    backward,
    concat,
    cross_entropy,
    finite_diff_grad,
    load_checkpoint,
    log,
    masked_softmax,
    masked_softmax_np,
    matmul,
    mean,
    mul,
    named_rng,
    no_grad,
    powi,
    reshape,
    save_checkpoint,
    softmax,
    sub,
    tanh,
    transpose,
    vsum,
)


def check_gradients(build, tensors, rtol=1e-4, atol=1e-9):
    """Compare backward() grads on build()'s output with central differences."""
    for t in tensors:
        t.requires_grad = True
        t.grad = None
    out = build()
    assert out.data.shape == (), "objective must be scalar"
    backward(out)
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors
    ]

    def probe(i, stack):
        held, values = tensors[i].data, []
        try:
            for copy in stack:
                tensors[i].data = copy
                with no_grad():
                    values.append(float(build().data))
        finally:
            tensors[i].data = held
        return values

    numeric = finite_diff_grad(probe, tensors, epsilon=1e-5)
    for a, n in zip(analytic, numeric):
        np.testing.assert_allclose(a, n, rtol=rtol, atol=atol)


def scalarize(v):
    """Reduce any value to a scalar with nontrivial weights, so gradient
    structure is visible (a plain sum would hide sign errors that cancel)."""
    flat = vsum(mul(v, Value(np.linspace(0.5, 1.5, v.data.size).reshape(v.data.shape))))
    return flat


# ---------------------------------------------------------------------------
# finite-difference sweep over every op
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(100))
def test_every_op_matches_finite_differences(seed):
    rng = named_rng(seed, "op-sweep")
    m, n, k = (int(x) for x in rng.integers(2, 8, size=3))

    a = Value(rng.normal(size=(m, n)))
    b = Value(rng.normal(size=(m, n)))
    w = Value(rng.normal(size=(n, k)))
    vec = Value(rng.normal(size=n))
    col, row = Value(vec.data[:, None].copy()), Value(vec.data[None, :].copy())
    pos = Value(rng.uniform(0.5, 2.0, size=(m, n)))
    mask = np.zeros(n, dtype=bool)
    mask[rng.integers(0, n)] = True
    mask |= rng.uniform(size=n) < 0.5
    target = int(rng.integers(0, n))
    # batched operands: B samples of (m, n) token matrices
    bsz = int(rng.integers(2, 4))
    tokens = Value(rng.normal(size=(bsz, m, n)))
    other_tokens = Value(rng.normal(size=(bsz, m, n)))
    factors = Value(rng.normal(size=(k, n, 2)))           # (U, d, r)
    per_sample = Value(rng.normal(size=(bsz, n, k)))      # (B, D, N)
    batch_logits = Value(rng.normal(size=(bsz, n)))
    batch_targets = rng.integers(0, n, size=bsz)

    cases = [
        (lambda: scalarize(a + b), [a, b]),
        (lambda: scalarize(a - b), [a, b]),
        (lambda: scalarize(mul(a, b)), [a, b]),
        (lambda: scalarize(matmul(a, w)), [a, w]),
        (lambda: scalarize(matmul(a, col)), [a, col]),
        (lambda: scalarize(matmul(row, w)), [row, w]),
        (lambda: vsum(matmul(row, col)), [row, col]),
        (lambda: scalarize(transpose(a)), [a]),
        (lambda: scalarize(powi(pos, -0.5)), [pos]),
        (lambda: scalarize(tanh(a)), [a]),
        (lambda: scalarize(log(pos, floor=1e-12)), [pos]),
        (lambda: scalarize(mean(a, axis=0)), [a]),
        (lambda: scalarize(mean(a, axis=1, keepdims=True)), [a]),
        (lambda: mean(a), [a]),
        (lambda: scalarize(vsum(a, axis=0)), [a]),
        (lambda: vsum(a), [a]),
        (lambda: scalarize(concat([a, b], axis=0)), [a, b]),
        (lambda: scalarize(concat([a, b], axis=1)), [a, b]),
        (lambda: scalarize(softmax(a)), [a]),
        (lambda: scalarize(masked_softmax(a, mask)), [a]),
        (lambda: cross_entropy(vec, target), [vec]),
        (lambda: scalarize(matmul(tokens, w)), [tokens, w]),
        (lambda: scalarize(matmul(reshape(tokens, (bsz, 1, m, n)), factors)), [tokens, factors]),
        (lambda: scalarize(matmul(tokens, per_sample)), [tokens, per_sample]),
        (lambda: scalarize(matmul(row, per_sample)), [row, per_sample]),
        (lambda: scalarize(transpose(tokens)), [tokens]),
        (lambda: scalarize(transpose(tokens, -3, -2)), [tokens]),
        (lambda: scalarize(reshape(tokens, (bsz, m * n))), [tokens]),
        (lambda: scalarize(concat([tokens, other_tokens], axis=1)), [tokens, other_tokens]),
        # a shared operand broadcasts over the leading axis of a per-sample one
        (lambda: scalarize(concat([a, tokens], axis=-2)), [a, tokens]),
        (lambda: scalarize(concat([tokens, b], axis=-1)), [tokens, b]),
        (lambda: scalarize(mean(tokens, axis=-2)), [tokens]),
        (lambda: scalarize(masked_softmax(tokens, mask)), [tokens]),
        (lambda: scalarize(cross_entropy(batch_logits, batch_targets)), [batch_logits]),
    ]
    for build, tensors in cases:
        check_gradients(build, tensors)


def test_concat_broadcasts_operands_only_along_a_negative_axis():
    shared, stacked = Value(np.ones((2, 3))), Value(np.zeros((4, 5, 3)))
    assert concat([shared, stacked], axis=-2).data.shape == (4, 7, 3)
    for axis in (1, -3):            # no axis 1 common to both; no axis -3 in a 2-D operand
        with pytest.raises(ValueError):
            concat([shared, stacked], axis=axis)
    with pytest.raises(ValueError, match="broadcast"):
        concat([shared, Value(np.zeros((4, 5, 4)))], axis=-2)


def test_broadcast_gradients_match_finite_differences():
    rng = named_rng(7, "broadcast")
    a = Value(rng.normal(size=(4, 3)))
    row = Value(rng.normal(size=(1, 3)))
    col = Value(rng.normal(size=(4, 1)))
    scal = Value(rng.normal())
    check_gradients(lambda: scalarize(a + row), [a, row])
    check_gradients(lambda: scalarize(mul(a, col)), [a, col])
    check_gradients(lambda: scalarize(mul(a, scal)), [a, scal])
    check_gradients(lambda: scalarize(a + scal), [a, scal])


# ---------------------------------------------------------------------------
# masked softmax, exactly
# ---------------------------------------------------------------------------


def test_masked_softmax_uniform_logits():
    out = masked_softmax(Value(np.zeros(4)), np.ones(4, dtype=bool))
    np.testing.assert_array_equal(out.data, np.full(4, 0.25))


def test_masked_softmax_two_way_hand_case():
    out = masked_softmax(Value([1.0, 2.0, 3.0, 4.0]), np.array([False, True, False, True]))
    lo = 1.0 / (1.0 + math.exp(2.0))
    hi = math.exp(2.0) / (1.0 + math.exp(2.0))
    np.testing.assert_allclose(out.data, [0.0, lo, 0.0, hi], rtol=0, atol=1e-15)
    assert out.data[0] == 0.0 and out.data[2] == 0.0


def test_masked_softmax_singleton_subset_is_one():
    mask = np.array([False, True, False])
    out = masked_softmax(Value([5.0, -3.0, 9.0]), mask)
    np.testing.assert_array_equal(out.data, [0.0, 1.0, 0.0])


def test_masked_softmax_empty_subset_raises():
    with pytest.raises(ValueError, match="empty routing subset"):
        masked_softmax(Value([1.0, 2.0]), np.zeros(2, dtype=bool))
    with pytest.raises(ValueError, match="empty routing subset"):
        masked_softmax_np(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2, dtype=bool))


def test_masked_softmax_rows_sum_to_one_and_stay_nonnegative():
    rng = named_rng(3, "masked-sums")
    for _ in range(200):
        n = int(rng.integers(2, 9))
        logits = rng.normal(scale=20.0, size=(5, n))  # large scale probes stability
        mask = rng.uniform(size=n) < 0.5
        mask[rng.integers(0, n)] = True
        out = masked_softmax_np(logits, mask)
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=0, atol=1e-9)
        assert np.all(out[:, ~mask] == 0.0)


def test_masked_softmax_zero_gradient_on_masked_entries():
    logits = Value(np.array([[1.0, 2.0, 3.0, 4.0]]), requires_grad=True)
    mask = np.array([True, False, True, False])
    out = masked_softmax(logits, mask)
    backward(vsum(mul(mean(mul(out, out), axis=0), Value([1.0, 0.0, 0.0, 0.0]))))
    assert logits.grad[0, 1] == 0.0
    assert logits.grad[0, 3] == 0.0
    assert np.any(logits.grad != 0.0)


def test_masked_softmax_matches_full_softmax_when_mask_is_all_true():
    rng = named_rng(11, "full-mask")
    x = rng.normal(size=(3, 5))
    np.testing.assert_allclose(
        masked_softmax_np(x, np.ones(5, dtype=bool)),
        masked_softmax_np(x, None),
        rtol=0, atol=1e-15,
    )


# ---------------------------------------------------------------------------
# backward semantics
# ---------------------------------------------------------------------------


def test_backward_of_sum_is_ones():
    x = Value(np.arange(6.0).reshape(2, 3), requires_grad=True)
    backward(vsum(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_of_dot_is_the_other_vector():
    x = Value([[1.0, 2.0, 3.0]], requires_grad=True)
    y = Value([[4.0], [5.0], [6.0]])
    backward(vsum(matmul(x, y)))
    np.testing.assert_array_equal(x.grad, y.data.T)


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    z = Value([0.5, -1.0, 2.0], requires_grad=True)
    backward(cross_entropy(z, 2))
    p = np.exp(z.data) / np.exp(z.data).sum()
    p[2] -= 1.0
    np.testing.assert_allclose(z.grad, p, rtol=0, atol=1e-15)


def test_cross_entropy_hand_value():
    # two classes, logits [1, 0], true class 0: -log(e / (e + 1)) = log(1 + e^-1)
    loss = cross_entropy(Value([1.0, 0.0]), 0)
    assert loss.data == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-15)


def test_cross_entropy_rejects_bad_target():
    with pytest.raises(ValueError, match="out of range"):
        cross_entropy(Value([0.0, 1.0]), 2)


def test_backward_accumulates_until_reset():
    x = Value([2.0], requires_grad=True)
    backward(vsum(mul(x, x)))
    first = x.grad.copy()
    backward(vsum(mul(x, x)))
    np.testing.assert_array_equal(x.grad, 2 * first)


def test_backward_through_shared_subexpression_sums_both_paths():
    x = Value(3.0, requires_grad=True)
    y = mul(x, x)           # used twice below
    backward(y + y)
    assert float(x.grad) == pytest.approx(12.0)


def test_backward_releases_interior_gradients_and_keeps_the_leaves():
    x = Value([1.0, 2.0], requires_grad=True)
    y = mul(x, x)
    root = vsum(reshape(y, (2, 1)))
    backward(root)
    assert root.grad is None and y.grad is None
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_two_roots_through_one_interior_node_each_count_once():
    # the second sweep must not carry the first sweep's gradient of y along
    x = Value([3.0], requires_grad=True)
    y = mul(x, x)
    backward(vsum(y))
    backward(vsum(y))
    np.testing.assert_array_equal(x.grad, [12.0])


@pytest.mark.parametrize("join", [add, lambda a, b: concat([a, b], axis=0)],
                         ids=["add", "concat"])
def test_leaves_fed_by_one_node_get_gradients_of_their_own(join):
    # add hands one array to both operands and concat hands views of one
    # array: each leaf must end up with a copy of its own, not a view
    a = Value(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Value(np.ones((2, 3)), requires_grad=True)
    backward(vsum(mul(join(a, b), Value(2.0))))
    assert not np.shares_memory(a.grad, b.grad)
    assert a.grad.base is None and b.grad.base is None
    before = b.grad.copy()
    a.grad += 5.0
    np.testing.assert_array_equal(b.grad, before)


def test_views_pass_down_the_sweep_and_the_gradient_is_exact():
    # transpose and reshape return views of their gradient and add returns
    # its own to both operands; the sweep adopts each without a copy
    x = Value(np.arange(6.0).reshape(2, 3), requires_grad=True)
    y = mul(x, Value(2.0))
    t = transpose(y)
    r = reshape(t, (6,))
    u, v = mul(x, Value(3.0)), mul(x, Value(4.0))
    s = add(u, v)
    root = vsum(mul(r, Value(np.arange(6.0)))) + vsum(mul(s, s))
    received = {}       # the gradient the sweep hands each node's closure
    for node in (y, t, r, u, v, s):
        def spy(g, node=node, closure=node._backward):
            received[id(node)] = g
            return closure(g)
        node._backward = spy
    backward(root)
    assert np.shares_memory(received[id(t)], received[id(r)])
    assert np.shares_memory(received[id(y)], received[id(t)])
    assert received[id(u)] is received[id(s)] and received[id(v)] is received[id(s)]
    np.testing.assert_array_equal(x.grad, 2.0 * np.arange(6.0).reshape(3, 2).T + 2.0 * 49.0 * x.data)


@pytest.mark.parametrize("second_first", [True, False], ids=["second-first", "joined-first"])
def test_one_array_handed_to_two_interior_operands_is_never_written(second_first):
    # add hands one array to u and v, and both also feed `second`. When the
    # sweep runs add's closure before second's (the traversal does so for
    # one of the two orders), summing second's gradients into the arrays u
    # and v adopted from add would write one array twice, for both of them
    x = Value(np.array([[1.0, -2.0, 0.5]]), requires_grad=True)
    u, v = mul(x, Value(3.0)), mul(x, Value(5.0))
    joined = vsum(mul(add(u, v), Value([[1.0, 2.0, 3.0]])))
    second = vsum(mul(u, v))
    backward(second + joined if second_first else joined + second)
    # d/dx: 8 w from the joined branch, 30 x from second = 15 x^2
    np.testing.assert_array_equal(x.grad, [[8.0 + 30.0, 16.0 - 60.0, 24.0 + 15.0]])


def test_a_leaf_root_adds_one_into_its_store_view():
    store = ParamStore([("w", Value(np.array(2.0))), ("b", Value([4.0]))])
    w = store["w"]
    w.grad[...] = 0.5
    backward(w)
    assert w.grad.base is store.grad
    np.testing.assert_array_equal(store.grad, [1.5, 0.0])
    loose = Value(3.0, requires_grad=True)
    backward(loose)
    backward(loose)
    assert float(loose.grad) == 2.0


def test_a_closure_returns_one_gradient_per_parent_and_none_for_a_constant():
    rng = named_rng(3, "closures")
    x = Value(rng.uniform(0.5, 1.5, size=(2, 3)), requires_grad=True)
    c = Value(rng.normal(size=(2, 3)))
    w = Value(rng.normal(size=(3, 2)))
    nodes = [add(x, c), add(c, x), sub(x, c), sub(c, x), mul(x, c), mul(c, x),
             matmul(x, w), matmul(w, x), concat([c, x, c], axis=0), transpose(x),
             reshape(x, (6,)), powi(x, 2.0), tanh(x), log(x, floor=1e-3), mean(x, axis=0),
             vsum(x, axis=1), masked_softmax(x), cross_entropy(x, [0, 2])]
    for node in nodes:
        g = rng.normal(size=node.data.shape)
        before = g.copy()
        grads = node._backward(g)
        assert len(grads) == len(node._parents)
        for parent, pg in zip(node._parents, grads):
            if parent.requires_grad:
                assert pg.shape == parent.data.shape
            else:
                assert pg is None
        np.testing.assert_array_equal(g, before)    # a closure writes to nothing
        assert x.grad is None and node.grad is None


def test_backward_rejects_non_scalar_root():
    x = Value([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar root"):
        backward(mul(x, x))


def test_detach_blocks_gradient_flow():
    x = Value([1.5], requires_grad=True)
    out = vsum(mul(x.detach(), x))
    backward(out)
    np.testing.assert_array_equal(x.grad, [1.5])  # only the live factor


def test_no_grad_produces_constant_nodes():
    x = Value([1.0, 2.0], requires_grad=True)
    with no_grad():
        out = mul(x, x)
    assert not out.requires_grad
    assert out._parents == ()


def test_log_floor_clamps_value_and_gradient():
    x = Value([1e-20, 1.0], requires_grad=True)
    out = log(x, floor=1e-12)
    assert out.data[0] == pytest.approx(math.log(1e-12))
    backward(vsum(out))
    assert x.grad[0] == pytest.approx(1e12)
    assert x.grad[1] == pytest.approx(1.0)


def test_scalar_operator_sugar():
    x = Value([2.0, 4.0], requires_grad=True)
    out = vsum(x * 1.5 + 1.0 - (x * 0.5 - 1.0))
    np.testing.assert_array_equal(out.data, 10.0)
    backward(out)
    np.testing.assert_allclose(x.grad, [1.0, 1.0])


# ---------------------------------------------------------------------------
# finite differences as their own oracle
# ---------------------------------------------------------------------------


def test_finite_diff_on_square_is_two_theta():
    theta = Value(np.asarray(3.0))
    store = ParamStore([("theta", theta)])
    grads = finite_diff_grad(lambda i, stack: stack ** 2, store.values(), epsilon=1e-5)
    assert grads[0] == pytest.approx(6.0, abs=1e-6)


def test_finite_diff_of_constant_function_is_zero():
    x = Value(np.ones((2, 2)))
    grads = finite_diff_grad(lambda i, stack: np.full(len(stack), 42.0), [x], epsilon=1e-5)
    np.testing.assert_array_equal(grads[0], np.zeros((2, 2)))


def test_finite_diff_rejects_non_finite_objective():
    x = Value(np.asarray(1.0))
    with pytest.raises(ValueError, match="non-finite"):
        finite_diff_grad(lambda i, stack: np.full(len(stack), np.nan), [x], epsilon=1e-5)


@pytest.mark.parametrize("copies", [1, 4])
@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_finite_diff_never_writes_or_rebinds_a_tensor(copies, raises):
    # the nudged copies reach f only as its stack: every tensor keeps its
    # array object and its values, during the probes and after, also when
    # f raises mid-probe
    x, y = Value(np.array([1.0, 2.0, 3.0, 4.0, 5.0])), Value(np.array([[0.5, -1.5]]))
    held = [(t, t.data, t.data.tobytes()) for t in (x, y)]
    calls = []

    def f(i, stack):
        calls.append(stack.copy())
        assert all(t.data is data and t.data.tobytes() == raw for t, data, raw in held)
        assert not any(np.shares_memory(stack, data) for _, data, _ in held)
        if raises and len(calls) == 3:
            raise RuntimeError("objective failed")
        return (stack ** 2).reshape(len(stack), -1).sum(axis=1)

    if raises:
        with pytest.raises(RuntimeError, match="objective failed"):
            finite_diff_grad(f, [x, y], epsilon=1e-3, copies=copies)
        assert not np.array_equal(calls[-1][0], x.data)      # it failed mid-probe
    else:
        finite_diff_grad(f, [x, y], epsilon=1e-3, copies=copies)
        assert len(calls) == sum(-(-2 * t.data.size // copies) for t in (x, y))
    for t, data, raw in held:
        assert t.data is data and t.data.tobytes() == raw


def test_finite_diff_in_a_block_of_one_is_the_hand_written_central_difference():
    rng = named_rng(0, "fd-by-hand")
    x = Value(rng.normal(size=(2, 3)))
    c = rng.normal(size=(2, 3))
    eps = 1e-5

    def g(a):
        return (np.sin(a) * c).sum(axis=(-2, -1))

    handed = []

    def f(i, stack):
        handed.append(stack.shape)
        return g(stack)

    (fd,) = finite_diff_grad(f, [x], epsilon=eps, copies=1)
    want = np.empty(x.data.shape)
    for k in range(x.data.size):
        plus, minus = x.data.copy(), x.data.copy()
        plus.flat[k] += eps
        minus.flat[k] -= eps
        want.flat[k] = (g(plus) - g(minus)) / (2.0 * eps)
    assert handed == [(1, 2, 3)] * 12
    assert fd.tobytes() == want.tobytes()


def test_finite_diff_in_blocks_matches_one_probe_at_a_time():
    # f is handed x's (n, 2, 3) or y's (n, 3) copies and reads the other
    # tensor as it is, one value per copy
    rng = named_rng(0, "fd-blocks")
    x = Value(rng.normal(size=(2, 3)))
    y = Value(rng.normal(size=(3,)))
    c = rng.normal(size=(2, 3))

    def f(i, stack):
        xs, ys = (stack, y.data) if i == 0 else (x.data, stack)
        return (np.sin(xs) * c * np.cosh(ys)[..., None, :]).sum(axis=(-2, -1))

    one = finite_diff_grad(f, [x, y], epsilon=1e-5)
    blocked = finite_diff_grad(f, [x, y], epsilon=1e-5, copies=4)
    seen = []
    odd = finite_diff_grad(lambda i, stack: seen.append(stack.shape) or f(i, stack), [x], copies=5)
    assert seen == [(5, 2, 3), (5, 2, 3), (2, 2, 3)]     # 12 probes, pairs split across blocks
    np.testing.assert_allclose(odd[0], one[0], rtol=1e-12, atol=0)
    for g1, g4 in zip(one, blocked):
        np.testing.assert_allclose(g4, g1, rtol=1e-12, atol=0)


def test_finite_diff_blocks_check_every_value():
    x = Value(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="non-finite"):
        finite_diff_grad(lambda i, stack: np.where(stack[:, 2] > 3.0, np.inf, 0.0), [x], copies=4)
    for copies in (1, 4):                       # a bare scalar is no block of values
        with pytest.raises(ValueError, match="shape"):
            finite_diff_grad(lambda i, stack: 0.0, [x], copies=copies)
    with pytest.raises(ValueError, match="copies"):
        finite_diff_grad(lambda i, stack: np.zeros(len(stack)), [x], copies=0)


# ---------------------------------------------------------------------------
# parameter store and checkpoints
# ---------------------------------------------------------------------------


def test_param_store_rejects_duplicates_and_tracks_order():
    store = ParamStore([("b", Value([1.0])), ("a", Value([[2.0, 3.0]]))])
    assert store.paths() == ["b", "a"]  # construction order, not sorted
    with pytest.raises(ValueError, match="duplicate"):
        ParamStore([("b", Value([1.0])), ("b", Value([0.0]))])
    with pytest.raises(ValueError, match="empty"):
        ParamStore([("", Value([1.0]))])


def test_param_store_marks_trainable_and_zero_grad_zeroes():
    store = ParamStore([("x", Value([1.0, 2.0])), ("idle", Value([3.0]))])
    v, idle = store["x"], store["idle"]
    assert v.requires_grad and idle.requires_grad
    backward(vsum(mul(v, v)))
    np.testing.assert_array_equal(v.grad, [2.0, 4.0])
    assert idle.grad.tobytes() == np.zeros(1).tobytes()    # no path reached it: exactly zero
    store.zero_grad()
    assert store.grad.tobytes() == np.zeros(3).tobytes()
    assert v.grad.base is store.grad                        # zeroed in place, still a view


def test_param_store_leaves_view_one_flat_vector_in_path_order():
    rng = named_rng(3, "flat")
    arrays = {"w": rng.normal(size=(2, 3)), "s": np.asarray(1.5), "b": rng.normal(size=4),
              "m": rng.normal(size=(2, 1, 2))}
    store = ParamStore((name, Value(arr)) for name, arr in arrays.items())
    expected = np.concatenate([arr.ravel() for arr in arrays.values()])
    assert store.vector.tobytes() == expected.tobytes()
    assert store.grad.shape == store.vector.shape and not store.grad.any()
    for name, arr in arrays.items():
        p = store[name]
        assert p.data.shape == p.grad.shape == arr.shape
        assert p.data.base is store.vector and p.grad.base is store.grad
        assert p.data.tobytes() == arr.tobytes()
    store["b"].data[1] = 7.0                                # a write through a view lands in the vector
    assert store.vector[6 + 1 + 1] == 7.0
    assert store.flat() == (store.vector, store.grad)
    empty = ParamStore()
    assert len(empty) == 0 and empty.vector.shape == empty.grad.shape == (0,)


@pytest.mark.parametrize("field", ["data", "grad"])
def test_param_store_refuses_a_leaf_rebound_away_from_its_view(field):
    store = ParamStore([("a", Value([1.0])), ("b", Value(np.zeros((2, 2))))])
    setattr(store["b"], field, np.ones((2, 2)))
    with pytest.raises(ValueError, match="parameter b was rebound"):
        store.flat()


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = named_rng(9, "ckpt")
    records = {
        "layer.0.weight": rng.normal(size=(4, 3)),
        "scalar": np.asarray(math.pi),
        "vector": rng.uniform(size=7),
    }
    path = tmp_path / "state.bin"
    save_checkpoint(path, records)
    loaded = load_checkpoint(path)
    assert sorted(loaded) == sorted(records)
    for name, arr in records.items():
        assert loaded[name].dtype == np.float64
        assert loaded[name].shape == arr.shape
        assert np.array_equal(loaded[name], arr), name  # bitwise, no tolerance


def test_atomic_open_leaves_no_partial_file_when_the_write_fails(tmp_path):
    path = tmp_path / "artifact.txt"
    path.write_text("old contents\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("half of the new")
            fh.flush()
            raise RuntimeError("interrupted midway")
    assert path.read_text() == "old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.txt"]
    with pytest.raises(RuntimeError):
        with atomic_open(tmp_path / "fresh.bin", "wb") as fh:
            fh.write(b"x")
            raise RuntimeError("interrupted midway")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.txt"]
    with atomic_open(path) as fh:
        fh.write("new contents\n")
    assert path.read_text() == "new contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.txt"]


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_every_truncation_and_trailing_bytes(tmp_path):
    records = {"w": np.arange(6.0).reshape(2, 3), "scalar": np.asarray(1.5), "v": np.ones(2)}
    path = tmp_path / "state.bin"
    save_checkpoint(path, records)
    whole = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for size in range(len(whole)):
        cut.write_bytes(whole[:size])
        with pytest.raises(ValueError, match="cut.bin: truncated"):
            load_checkpoint(cut)
    cut.write_bytes(whole + b"\x00")
    with pytest.raises(ValueError, match="cut.bin: 1 trailing bytes"):
        load_checkpoint(cut)


def _one_record_file(path, name: bytes, shape: tuple[int, ...]):
    # a save_checkpoint layout with a single record and no payload bytes
    header = struct.pack("<II", 1, len(name)) + name + struct.pack("<I", len(shape))
    path.write_bytes(_CKPT_MAGIC + header + struct.pack(f"<{len(shape)}I", *shape))


def test_checkpoint_shape_whose_size_overflows_int64_reads_as_truncated(tmp_path):
    path = tmp_path / "huge.bin"
    _one_record_file(path, b"a", (2 ** 31, 2 ** 31, 4))     # 2**64 elements: np.prod wraps to 0
    with pytest.raises(ValueError, match="huge.bin: truncated at record 'a' payload"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_record_name_that_is_not_utf8(tmp_path):
    path = tmp_path / "name.bin"
    _one_record_file(path, b"\xff\xfe", ())
    with pytest.raises(ValueError, match="name.bin: record 0 name is not valid UTF-8"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_checkpoint_rejects_non_finite_records(tmp_path, bad):
    records = {"w": np.arange(6.0).reshape(2, 3), "v": np.ones(2)}
    records["v"][1] = bad
    path = tmp_path / "state.bin"
    save_checkpoint(path, records)
    with pytest.raises(ValueError, match="state.bin: record 'v' holds non-finite values"):
        load_checkpoint(path)
    store = ParamStore([("w", Value(np.zeros((2, 3)))), ("v", Value(np.zeros(2)))])
    with pytest.raises(ValueError, match="record 'v' holds non-finite"):
        store.load(path)
    assert not store["v"].data.any()          # nothing restored from the bad file


def test_param_store_save_load_with_extras(tmp_path):
    store = ParamStore([("w", Value(np.arange(6.0).reshape(2, 3)))])
    extra = {"ema.w": np.full((2, 3), 0.5)}
    path = tmp_path / "ckpt.bin"
    store.save(path, extra=extra)

    target = ParamStore([("w", Value(np.zeros((2, 3))))])
    fresh = target["w"]
    leftovers = target.load(path)
    np.testing.assert_array_equal(fresh.data, np.arange(6.0).reshape(2, 3))
    assert set(leftovers) == {"ema.w"}
    np.testing.assert_array_equal(leftovers["ema.w"], extra["ema.w"])
    assert fresh.data.base is target.vector and fresh.grad.base is target.grad


def test_param_store_load_rejects_missing_and_mismatched(tmp_path):
    # a checkpoint that does not fit writes nothing, not even the parameters that do fit
    store = ParamStore([("w", Value(np.ones((2, 2)))), ("v", Value(np.ones(3)))])
    path = tmp_path / "ckpt.bin"
    store.save(path)

    wrong_shape = ParamStore([("w", Value(np.zeros((2, 2)))), ("v", Value(np.zeros(4)))])
    with pytest.raises(ValueError, match="shape mismatch for v"):
        wrong_shape.load(path)
    assert not wrong_shape.vector.any()

    bigger = ParamStore([("w", Value(np.zeros((2, 2)))), ("v", Value(np.zeros(3))),
                         ("extra", Value(np.zeros(1)))])
    with pytest.raises(ValueError, match=r"missing parameters: \['extra'\]"):
        bigger.load(path)
    assert not bigger.vector.any()


# ---------------------------------------------------------------------------
# named streams
# ---------------------------------------------------------------------------


def test_named_rng_is_stable_and_name_separated():
    a1 = named_rng(0, "alpha").normal(size=5)
    a2 = named_rng(0, "alpha").normal(size=5)
    b = named_rng(0, "beta").normal(size=5)
    other_seed = named_rng(1, "alpha").normal(size=5)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, other_seed)


def test_named_rng_streams_are_order_independent():
    # drawing from one stream must not shift another
    first = named_rng(4, "x").normal(size=3)
    named_rng(4, "y").normal(size=1000)
    again = named_rng(4, "x").normal(size=3)
    np.testing.assert_array_equal(first, again)
