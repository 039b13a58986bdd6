"""Two-stage routing: hard selection, token weighting, straight-through gate."""

import math

import numpy as np
import pytest

from types import SimpleNamespace

from streamlora.autograd import (
    Value,
    backward,
    finite_diff_grad,
    matmul,
    mul,
    named_rng,
    no_grad,
    transpose,
    vsum,
)
from streamlora.experts import adapted_forward, lora_delta
from streamlora.routing import (
    RoutingState,
    check_mask,
    init_routing_state,
    pool_text,
    route_with_straight_through,
    select_experts,
    subset_indices,
    token_logits,
    token_weights,
)
from streamlora.stability import reg_loss
from oracles import live_bank


def gate_only_state(logit_column, d_hidden=3, routing_dim=2, seed=0):
    """State whose stage-one logits equal `logit_column` for the batch of
    one x_text = [[1]]."""
    n = len(logit_column)
    state = init_routing_state(n, 1, d_hidden, routing_dim, named_rng(seed, "gate"))
    state.select.data = np.asarray(logit_column, dtype=np.float64).reshape(n, 1)
    return state


def members(mask):
    """One sample's (N,) subset mask as ascending expert indices."""
    return tuple(int(j) for j in np.flatnonzero(mask))


# ---------------------------------------------------------------------------
# construction and pooling
# ---------------------------------------------------------------------------


def test_init_shapes_and_unit_norm_expert_features():
    state = init_routing_state(6, 5, 7, 4, named_rng(1, "init"))
    assert state.select.data.shape == (6, 5)
    assert state.query.data.shape == (4, 7)
    assert state.key.data.shape == (4, 5)
    assert state.experts.data.shape == (6, 4)
    assert state.n_experts == 6 and state.routing_dim == 4
    np.testing.assert_allclose(np.linalg.norm(state.experts.data, axis=1), 1.0, rtol=1e-12)


def test_init_rejects_nonpositive_dimensions():
    with pytest.raises(ValueError, match="positive"):
        init_routing_state(0, 4, 4, 2, named_rng(0, "x"))
    with pytest.raises(ValueError, match="positive"):
        init_routing_state(2, 4, 4, 0, named_rng(0, "x"))


def test_pool_text_is_the_token_mean_and_permutation_invariant():
    rng = named_rng(2, "pool")
    emb = rng.normal(size=(1, 5, 4))
    pooled = pool_text(Value(emb))
    np.testing.assert_allclose(pooled.data, emb.mean(axis=1), rtol=0, atol=1e-15)
    shuffled = emb[:, rng.permutation(5)]
    np.testing.assert_allclose(pool_text(Value(shuffled)).data, pooled.data, rtol=1e-15, atol=1e-15)


def test_pool_text_rejects_empty_or_flat_input():
    with pytest.raises(ValueError, match="embedding batch"):
        pool_text(Value(np.zeros((1, 0, 4))))
    with pytest.raises(ValueError, match="embedding batch"):
        pool_text(Value(np.zeros(4)))
    with pytest.raises(ValueError, match="embedding batch"):
        pool_text(Value(np.zeros((5, 4))))          # one sample's matrix, not a batch


# ---------------------------------------------------------------------------
# stage one: selection
# ---------------------------------------------------------------------------


def test_select_experts_known_logits():
    # logits [2, -1, 3, 0]; the top two sit at indices 2 and 0
    state = gate_only_state([2.0, -1.0, 3.0, 0.0])
    probs, subset = select_experts(state, Value([[1.0]]), top_k=2)
    z = sum(math.exp(v) for v in (2.0, -1.0, 3.0, 0.0))
    expected = [math.exp(v) / z for v in (2.0, -1.0, 3.0, 0.0)]
    np.testing.assert_allclose(probs.data, [expected], rtol=1e-12, atol=0)
    assert subset_indices(subset) == ((0, 2),)


def test_select_experts_breaks_ties_toward_lower_index():
    state = gate_only_state([0.0, 0.0, 0.0, 0.0, 0.0])
    probs, subset = select_experts(state, Value([[1.0]]), top_k=2)
    np.testing.assert_allclose(probs.data, np.full((1, 5), 0.2), rtol=1e-15)
    assert subset_indices(subset) == ((0, 1),)
    # a partial tie on the second slot resolves the same way
    state = gate_only_state([1.0, 5.0, 1.0, 1.0])
    _, subset = select_experts(state, Value([[1.0]]), top_k=2)
    assert subset_indices(subset) == ((0, 1),)


def test_select_experts_with_k_equal_n_keeps_everyone():
    state = gate_only_state([3.0, 1.0, 2.0])
    _, subset = select_experts(state, Value([[1.0]]), top_k=3)
    assert subset_indices(subset) == ((0, 1, 2),)


def test_select_experts_subset_is_invariant_to_logit_shift():
    base = [0.4, -1.2, 2.2, 0.9]
    p_base, s_base = select_experts(gate_only_state(base), Value([[1.0]]), top_k=2)
    shifted = [v + 7.5 for v in base]
    p_shift, s_shift = select_experts(gate_only_state(shifted), Value([[1.0]]), top_k=2)
    assert subset_indices(s_base) == subset_indices(s_shift) == ((2, 3),)
    np.testing.assert_allclose(p_base.data, p_shift.data, rtol=1e-12)


def test_select_experts_is_permutation_equivariant():
    logits = [0.3, 1.7, -0.5, 0.9, 2.4]
    perm = [4, 2, 0, 1, 3]
    p, s = select_experts(gate_only_state(logits), Value([[1.0]]), top_k=2)
    p2, s2 = select_experts(
        gate_only_state([logits[i] for i in perm]), Value([[1.0]]), top_k=2
    )
    np.testing.assert_allclose(p2.data, p.data[:, perm], rtol=1e-12)
    assert members(s2[0]) == tuple(sorted(perm.index(j) for j in members(s[0])))


def test_select_experts_routes_each_sample_of_a_batch_on_its_own():
    state = init_routing_state(5, 3, 4, 2, named_rng(12, "batch"))
    x_text = named_rng(13, "rows").normal(size=(4, 3))
    probs, mask = select_experts(state, Value(x_text), top_k=2)
    assert probs.data.shape == mask.shape == (4, 5) and mask.dtype == bool
    for i in range(4):
        p_row, mask_row = select_experts(state, Value(x_text[i : i + 1]), top_k=2)
        np.testing.assert_allclose(probs.data[i], p_row.data[0], rtol=1e-12, atol=0)
        assert subset_indices(mask)[i] == members(mask_row[0])


def test_subset_indices_lists_each_rows_experts_and_needs_a_batch_mask():
    mask = np.array([[True, False, True], [False, True, False]])
    assert subset_indices(mask) == ((0, 2), (1,))
    with pytest.raises(ValueError, match=r"\(B, N\) subset mask"):
        subset_indices(mask[0])


def test_check_mask_accepts_only_boolean_masks_without_empty_rows():
    mask = np.array([[True, False, True], [False, True, False]])
    assert check_mask(mask, 3) is mask
    with pytest.raises(ValueError, match="boolean mask, got int64"):
        check_mask(mask.astype(np.int64), 3)
    with pytest.raises(ValueError, match="boolean"):
        check_mask(np.flatnonzero(mask[0]), 2)      # expert indices, not a mask
    with pytest.raises(ValueError, match=r"\(B, N\) subset mask, got shape \(3,\)"):
        check_mask(mask[0], 3)                      # one sample's row, not a batch
    with pytest.raises(ValueError, match="covers 3 experts, not 4"):
        check_mask(mask, 4)
    with pytest.raises(ValueError, match="empty routing subset"):
        check_mask(np.array([[True, False, False], [False, False, False]]), 3)


def test_select_experts_rejects_bad_k():
    state = gate_only_state([1.0, 2.0])
    with pytest.raises(ValueError, match="top_k must be in"):
        select_experts(state, Value([[1.0]]), top_k=0)
    with pytest.raises(ValueError, match="top_k must be in"):
        select_experts(state, Value([[1.0]]), top_k=3)


# ---------------------------------------------------------------------------
# stage two: token scores and weights
# ---------------------------------------------------------------------------


def test_token_logits_one_dimensional_hand_case():
    # query 2, key 0.5, expert feature 3, token 1: score = 2 * (0.5 * 3) / 1
    state = RoutingState(
        select=Value(np.zeros((1, 1))),
        query=Value([[2.0]]),
        key=Value([[0.5]]),
        experts=Value([[3.0]]),
    )
    scores = token_logits(state, Value([[[1.0]]]), Value([[1.0]]))
    assert scores.data.shape == (1, 1, 1)
    assert scores.data[0, 0, 0] == pytest.approx(3.0, abs=1e-15)


def test_token_logits_match_direct_loop():
    rng = named_rng(3, "scores")
    state = init_routing_state(5, 4, 6, 3, rng)
    hidden = rng.normal(size=(1, 7, 6))
    x_text = rng.normal(size=(1, 4))
    scores = token_logits(state, Value(hidden), Value(x_text)).data
    key_vec = state.key.data @ x_text[0]
    for l in range(7):
        q = state.query.data @ hidden[0, l]
        for j in range(5):
            want = q @ (key_vec * state.experts.data[j]) / math.sqrt(3)
            assert scores[0, l, j] == pytest.approx(want, rel=1e-12)


def test_token_logits_scale_linearly_with_hidden_state():
    rng = named_rng(4, "linear")
    state = init_routing_state(3, 4, 5, 2, rng)
    hidden = rng.normal(size=(1, 2, 5))
    x_text = Value(rng.normal(size=(1, 4)))
    once = token_logits(state, Value(hidden), x_text).data
    twice = token_logits(state, Value(2.0 * hidden), x_text).data
    np.testing.assert_allclose(twice, 2.0 * once, rtol=1e-12)


def test_token_logits_rejects_bad_inputs():
    state = init_routing_state(3, 4, 5, 2, named_rng(5, "bad"))
    with pytest.raises(ValueError, match="hidden must be"):
        token_logits(state, Value(np.zeros(5)), Value(np.zeros(4)))
    with pytest.raises(ValueError, match="hidden must be a \\(B, tokens, d_hidden\\) batch"):
        token_logits(state, Value(np.zeros((2, 5))), Value(np.zeros((1, 4))))


def test_token_weights_two_expert_hand_case():
    # scores [1, 3] over both experts: softmax gap of 2
    w = token_weights(Value([[[1.0, 3.0]]]), np.array([[True, True]]))
    lo = 1.0 / (1.0 + math.exp(2.0))
    np.testing.assert_allclose(w.data, [[[lo, 1.0 - lo]]], rtol=1e-12)


def test_token_weights_are_exactly_zero_off_subset():
    w = token_weights(Value([[[5.0, 1.0, 4.0]]]), np.array([[True, False, True]]))
    assert w.data[0, 0, 1] == 0.0
    assert w.data[0, 0].sum() == pytest.approx(1.0, abs=1e-12)
    singleton = token_weights(Value([[[5.0, 1.0, 4.0]]]), np.array([[False, True, False]]))
    np.testing.assert_array_equal(singleton.data, [[[0.0, 1.0, 0.0]]])


def test_token_weights_apply_each_samples_own_subset():
    logits = Value([[[5.0, 1.0, 4.0]], [[5.0, 1.0, 4.0]]])        # (B, L, N)
    w = token_weights(logits, np.array([[True, False, True], [False, True, False]]))
    np.testing.assert_array_equal(
        w.data[:1], token_weights(Value([[[5.0, 1.0, 4.0]]]), np.array([[True, False, True]])).data)
    np.testing.assert_array_equal(w.data[1], [[0.0, 1.0, 0.0]])


def test_token_weights_rejects_bad_subsets():
    with pytest.raises(ValueError, match="covers 3 experts, not 2"):
        token_weights(Value([[[1.0, 2.0]]]), np.array([[True, False, True]]))
    with pytest.raises(ValueError, match="empty routing subset"):
        token_weights(Value([[[1.0, 2.0]]]), np.array([[False, False]]))
    with pytest.raises(ValueError, match="boolean"):
        token_weights(Value([[[1.0, 2.0]]]), np.array([[0, 1]]))


# ---------------------------------------------------------------------------
# the straight-through decision
# ---------------------------------------------------------------------------


def test_gate_leaves_the_adapted_forward_bit_identical():
    rng = named_rng(6, "st")
    state = init_routing_state(6, 4, 5, 3, rng)
    hidden = Value(rng.normal(size=(8, 8, 5)))
    _, mask, weights, gate = route_with_straight_through(
        state, hidden, Value(rng.normal(size=(8, 4))), top_k=2)
    bank = live_bank(6, 5, rng)
    gated = adapted_forward(bank, hidden, weights, mask, gate)
    plain = adapted_forward(bank, hidden, weights, mask)
    assert np.array_equal(gated.data, plain.data)


@pytest.mark.parametrize("seed", range(25))
def test_routing_invariants_hold_on_random_inputs(seed):
    rng = named_rng(seed, "invariants")
    n = int(rng.integers(2, 9))
    k = int(rng.integers(1, n + 1))
    d_e = int(rng.integers(2, 7))
    d_hidden = int(rng.integers(2, 7))
    d_route = int(rng.integers(1, 6))
    tokens = int(rng.integers(1, 10))
    state = init_routing_state(n, d_e, d_hidden, d_route, rng)
    hidden = Value(rng.normal(size=(1, tokens, d_hidden)))
    probs, mask, weights, gate = route_with_straight_through(
        state, hidden, Value(rng.normal(size=(1, d_e))), top_k=k)
    assert probs.data.shape == mask.shape == (1, n)
    p = probs.data[0]
    assert p.shape == (n,) and np.all(p > 0.0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    subset = members(mask[0])
    assert len(subset) == k == len(set(subset))
    assert list(subset) == sorted(subset)
    expected = tuple(sorted(int(j) for j in np.argsort(-p, kind="stable")[:k]))
    assert subset == expected
    assert weights.data.shape == (1, tokens, n)
    w = weights.data[0]
    assert w.shape == (tokens, n)
    off = [j for j in range(n) if j not in subset]
    assert np.all(w[:, off] == 0.0)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(w >= 0.0)
    bank = live_bank(n, d_hidden, rng)
    gated = adapted_forward(bank, hidden, weights, mask, gate)
    plain = adapted_forward(bank, hidden, weights, mask)
    assert np.array_equal(gated.data, plain.data)


def test_gate_receives_gradient_only_through_the_straight_through_path():
    rng = named_rng(7, "leak")
    state = init_routing_state(4, 3, 5, 2, rng)
    for v in (state.select, state.query, state.key, state.experts):
        v.requires_grad = True
    hidden = Value(rng.normal(size=(1, 3, 5)))
    x_text = Value(rng.normal(size=(1, 3)))
    bank = live_bank(4, 5, rng)
    coeff = Value(rng.normal(size=(1, 3, 5)))

    _, mask, weights, gate = route_with_straight_through(state, hidden, x_text, top_k=2)
    out = adapted_forward(bank, hidden, weights, mask, gate)
    backward(vsum(mul(out, coeff)))
    assert state.select.grad is not None and np.any(state.select.grad != 0.0)
    assert state.query.grad is not None and np.any(state.query.grad != 0.0)

    state.select.grad = None
    _, mask, weights, _ = route_with_straight_through(state, hidden, x_text, top_k=2)
    out = adapted_forward(bank, hidden, weights, mask)   # no gate path
    backward(vsum(mul(out, coeff)))
    assert state.select.grad is None


def test_straight_through_gate_gradient_matches_closed_form():
    # loss = sum_l c_l . out_l over the adapted forward, whose expert j adds
    # s[l,j] * (1 + p_j - detach(p_j)) * delta_j(h_l). At the evaluation
    # point dL/d(select) = sum_j G_j dp_j/d(select) with
    # G_j = sum_l s[l,j] (c_l . delta_j(h_l)) and the usual softmax Jacobian
    # against x_text.
    rng = named_rng(8, "closed")
    state = init_routing_state(5, 3, 4, 2, rng)
    state.select.requires_grad = True
    hidden = Value(rng.normal(size=(1, 6, 4)))
    x_text = Value(rng.normal(size=(1, 3)))
    bank = live_bank(5, 4, rng)
    coeff = rng.normal(size=(1, 6, 4))

    probs, mask, weights, gate = route_with_straight_through(state, hidden, x_text, top_k=2)
    out = adapted_forward(bank, hidden, weights, mask, gate)
    backward(vsum(mul(out, Value(coeff))))

    p = probs.data[0]
    dense = [up.data @ down.data for down, up in zip(bank.down, bank.up)]
    deltas = np.stack([hidden.data[0] @ d.T for d in dense], axis=1)   # (L, N, d_out)
    g = (np.einsum("lo,ljo->lj", coeff[0], deltas) * weights.data[0]).sum(axis=0)
    dlogits = p * (g - float(g @ p))
    expected = np.outer(dlogits, x_text.data[0])
    np.testing.assert_allclose(state.select.grad, expected, rtol=1e-10, atol=1e-12)


def test_stage_two_gradients_match_finite_differences():
    # perturbing query/key/experts never moves stage one, so the subset is
    # stable under probing and central differences see a smooth function
    rng = named_rng(9, "fd")
    state = init_routing_state(4, 3, 5, 2, rng)
    params = [state.query, state.key, state.experts]
    for v in params:
        v.requires_grad = True
    hidden = Value(rng.normal(size=(1, 3, 5)))
    x_text = Value(rng.normal(size=(1, 3)))
    bank = live_bank(4, 5, rng)
    coeff = Value(rng.normal(size=(1, 3, 5)))

    def objective():
        _, mask, weights, gate = route_with_straight_through(state, hidden, x_text, top_k=2)
        out = adapted_forward(bank, hidden, weights, mask, gate)
        return vsum(mul(out, coeff))

    backward(objective())
    analytic = [v.grad.copy() for v in params]

    def probe(i, stack):
        held, values = params[i].data, []
        try:
            for copy in stack:
                params[i].data = copy
                with no_grad():
                    values.append(float(objective().data))
        finally:
            params[i].data = held
        return values

    numeric = finite_diff_grad(probe, params, epsilon=1e-5)
    for a, n in zip(analytic, numeric):
        np.testing.assert_allclose(a, n, rtol=1e-4, atol=1e-9)


def test_pinned_constants_replace_the_live_subset_and_detached_probs():
    rng = named_rng(11, "pinned")
    state = init_routing_state(4, 3, 5, 2, rng)
    hidden = Value(rng.normal(size=(1, 3, 5)))
    x_text = Value(rng.normal(size=(1, 3)))
    live_probs, live_mask, _, live_gate = route_with_straight_through(state, hidden, x_text, top_k=2)
    other = ~live_mask
    pinned_probs = np.full((1, 4), 0.25)
    probs, mask, weights, gate = route_with_straight_through(
        state, hidden, x_text, top_k=2, mask=other, detached_probs=pinned_probs
    )
    assert mask is other
    np.testing.assert_array_equal(probs.data, live_probs.data)
    np.testing.assert_array_equal(
        weights.data,
        token_weights(token_logits(state, hidden, x_text), other).data,
    )
    np.testing.assert_array_equal(gate.data, 1.0 + (live_probs.data - pinned_probs))
    np.testing.assert_array_equal(live_gate.data, np.ones((1, 4)))



# ---------------------------------------------------------------------------
# one shape convention: the batch
# ---------------------------------------------------------------------------


def routing_inputs(batched):
    """One sample's router, adapter and regularizer inputs, as a batch of
    one or, with `batched` false, without the leading batch axis."""
    rng = named_rng(30, "one-sample")
    lead = (1,) if batched else ()
    return SimpleNamespace(
        router=init_routing_state(3, 4, 6, 2, rng),
        bank=live_bank(3, 6, rng),
        hidden=Value(rng.normal(size=lead + (5, 6))),
        x_text=Value(rng.normal(size=lead + (4,))),
        mask=np.ones(lead + (3,), dtype=bool),
        weights=Value(np.full(lead + (5, 3), 1.0 / 3.0)),       # uniform over every token
    )


@pytest.mark.parametrize("call", [
    lambda s: matmul(s.x_text, transpose(s.router.select)),
    lambda s: select_experts(s.router, s.x_text, top_k=2),
    lambda s: token_logits(s.router, s.hidden, s.x_text),
    lambda s: lora_delta(s.bank, [0, 2], s.hidden, s.weights),
    lambda s: adapted_forward(s.bank, s.hidden, s.weights, s.mask),
    lambda s: reg_loss(s.weights.data, s.weights, s.mask),
], ids=["matmul", "select_experts", "token_logits", "lora_delta", "adapted_forward", "reg_loss"])
def test_single_sample_input_is_rejected_and_a_batch_of_one_is_not(call):
    call(routing_inputs(batched=True))
    with pytest.raises(ValueError, match=r"two dimensions|\(B, "):
        call(routing_inputs(batched=False))
