"""Adapter banks: init contract, the low-rank delta, and weighted mixing."""

import numpy as np
import pytest

from streamlora.autograd import Value, backward, finite_diff_grad, named_rng, no_grad, vsum
from streamlora.experts import (
    WEIGHT_SUM_TOL,
    adapted_forward,
    init_expert_bank,
    lora_delta,
)


def make_bank(n_experts=3, rank=2, d_in=6, d_out=5, seed=0):
    return init_expert_bank(n_experts, rank, d_in, d_out, named_rng(seed, "bank"))


def one_hot(n, j):
    w = np.zeros(n)
    w[j] = 1.0
    return Value(w)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_init_shapes_and_zero_up_projection():
    bank = make_bank(n_experts=4, rank=3, d_in=8, d_out=6)
    assert bank.d_in == 8 and bank.d_out == 6
    assert bank.base.data.shape == (6, 8)
    assert len(bank.down) == len(bank.up) == 4
    for a, b in zip(bank.down, bank.up):
        assert a.data.shape == (3, 8)
        assert b.data.shape == (6, 3)
        np.testing.assert_array_equal(b.data, 0.0)
        assert np.all(np.abs(a.data) <= 1.0 / np.sqrt(8))


def test_init_down_projections_differ_between_experts():
    bank = make_bank()
    assert not np.array_equal(bank.down[0].data, bank.down[1].data)


def test_init_accepts_supplied_base_and_checks_shape():
    base = np.eye(4)
    bank = init_expert_bank(2, 1, 4, 4, named_rng(1, "b"), base=base)
    np.testing.assert_array_equal(bank.base.data, base)
    with pytest.raises(ValueError, match="base shape"):
        init_expert_bank(2, 1, 4, 5, named_rng(1, "b"), base=base)


def test_init_rejects_bad_counts_and_rank():
    rng = named_rng(2, "bad")
    with pytest.raises(ValueError, match="at least one expert"):
        init_expert_bank(0, 1, 4, 4, rng)
    with pytest.raises(ValueError, match="rank must be in"):
        init_expert_bank(2, 0, 4, 4, rng)
    with pytest.raises(ValueError, match="rank must be in"):
        init_expert_bank(2, 4, 4, 6, rng)  # rank == min(d_in, d_out)


def test_fresh_bank_is_exactly_the_base_projection():
    bank = make_bank()
    h = Value(named_rng(3, "h").normal(size=(4, 6)))
    out = adapted_forward(bank, h, one_hot(3, 1), [1])
    np.testing.assert_array_equal(out.data, h.data @ bank.base.data.T)


# ---------------------------------------------------------------------------
# the low-rank delta itself
# ---------------------------------------------------------------------------


def test_lora_delta_rank_one_hand_case():
    # A = [1 0], B = [2 0]^T, h = [3 5]: A h = 3, B (A h) = [6 0]
    bank = make_bank(n_experts=1, rank=1, d_in=2, d_out=2)
    bank.down[0].data = np.array([[1.0, 0.0]])
    bank.up[0].data = np.array([[2.0], [0.0]])
    out = lora_delta(bank, 0, Value([[3.0, 5.0]]))
    np.testing.assert_array_equal(out.data, [[6.0, 0.0]])


def test_lora_delta_matches_dense_product():
    bank = make_bank(seed=5)
    rng = named_rng(6, "delta")
    for j in range(bank.n_experts):
        bank.up[j].data = rng.normal(size=bank.up[j].data.shape)
    h = Value(rng.normal(size=(3, 6)))
    for j in range(bank.n_experts):
        dense = bank.up[j].data @ bank.down[j].data
        np.testing.assert_allclose(
            lora_delta(bank, j, h).data, h.data @ dense.T, rtol=0, atol=1e-12
        )


def test_lora_delta_token_matrix_rows_equal_vector_calls():
    bank = make_bank(seed=7)
    rng = named_rng(8, "tok")
    for j in range(bank.n_experts):
        bank.up[j].data = rng.normal(size=bank.up[j].data.shape)
    tokens = rng.normal(size=(4, 6))
    batch = lora_delta(bank, 2, Value(tokens))
    assert batch.data.shape == (4, 5)
    for i in range(len(tokens)):
        single = lora_delta(bank, 2, Value(tokens[i : i + 1])).data
        assert single.shape == (1, 5)
        np.testing.assert_allclose(batch.data[i], single[0], rtol=0, atol=1e-12)


def test_lora_delta_is_linear_in_h():
    bank = make_bank(seed=9)
    rng = named_rng(10, "lin")
    bank.up[0].data = rng.normal(size=bank.up[0].data.shape)
    h1, h2 = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
    lhs = lora_delta(bank, 0, Value(2.0 * h1 + 3.0 * h2)).data
    rhs = 2.0 * lora_delta(bank, 0, Value(h1)).data + 3.0 * lora_delta(bank, 0, Value(h2)).data
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_lora_delta_rejects_bad_expert_index():
    bank = make_bank()
    with pytest.raises(ValueError, match="out of range"):
        lora_delta(bank, 3, Value(np.zeros((1, 6))))
    with pytest.raises(ValueError, match="out of range"):
        lora_delta(bank, -1, Value(np.zeros((1, 6))))


def test_hidden_state_must_be_a_token_matrix():
    bank = make_bank()
    with pytest.raises(ValueError, match="token"):
        lora_delta(bank, 0, Value(np.zeros(6)))
    with pytest.raises(ValueError, match="token"):
        adapted_forward(bank, Value(np.zeros(6)), one_hot(3, 0), [0])


# ---------------------------------------------------------------------------
# weighted combination
# ---------------------------------------------------------------------------


def test_even_split_hand_case():
    # W0 = 0, two rank-1 adapters with disjoint output rows, equal weights.
    bank = init_expert_bank(2, 1, 2, 2, named_rng(0, "x"), base=np.zeros((2, 2)))
    bank.down[0].data = np.array([[1.0, 0.0]])
    bank.up[0].data = np.array([[4.0], [0.0]])
    bank.down[1].data = np.array([[0.0, 1.0]])
    bank.up[1].data = np.array([[0.0], [6.0]])
    h = Value([[1.0, 2.0]])
    out = adapted_forward(bank, h, Value([0.5, 0.5]), [0, 1])
    # 0.5 * [4*1, 0] + 0.5 * [0, 6*2] = [2, 6]
    np.testing.assert_allclose(out.data, [[2.0, 6.0]], rtol=0, atol=1e-15)


def test_weighted_combination_matches_dense_recompute():
    bank = make_bank(n_experts=4, seed=11)
    rng = named_rng(12, "mix")
    for j in range(4):
        bank.up[j].data = rng.normal(size=bank.up[j].data.shape)
    h = rng.normal(size=(3, 6))
    subset = [0, 2]
    w = np.zeros(4)
    w[0], w[2] = 0.3, 0.7
    expected = h @ bank.base.data.T
    for j in subset:
        expected = expected + w[j] * (h @ (bank.up[j].data @ bank.down[j].data).T)
    out = adapted_forward(bank, Value(h), Value(w), subset)
    np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)


def test_per_token_weights_apply_row_wise():
    bank = make_bank(n_experts=2, seed=13)
    rng = named_rng(14, "rows")
    for j in range(2):
        bank.up[j].data = rng.normal(size=bank.up[j].data.shape)
    tokens = rng.normal(size=(3, 6))
    w = np.array([[1.0, 0.0], [0.0, 1.0], [0.25, 0.75]])
    out = adapted_forward(bank, Value(tokens), Value(w), [0, 1])
    for i in range(3):
        row = adapted_forward(bank, Value(tokens[i : i + 1]), Value(w[i : i + 1]), [0, 1])
        np.testing.assert_allclose(out.data[i], row.data[0], rtol=0, atol=1e-12)


def test_shared_weights_broadcast_over_tokens():
    bank = make_bank(n_experts=2, seed=15)
    bank.up[0].data = named_rng(16, "u").normal(size=bank.up[0].data.shape)
    tokens = named_rng(17, "t").normal(size=(4, 6))
    w = Value([0.6, 0.4])
    out = adapted_forward(bank, Value(tokens), w, [0, 1])
    for i in range(4):
        np.testing.assert_allclose(
            out.data[i], adapted_forward(bank, Value(tokens[i : i + 1]), w, [0, 1]).data[0],
            rtol=0, atol=1e-12,
        )


def test_rejects_empty_subset_and_out_of_range():
    bank = make_bank()
    h = Value(np.zeros((1, 6)))
    with pytest.raises(ValueError, match="empty routing subset"):
        adapted_forward(bank, h, Value(np.zeros(3)), [])
    with pytest.raises(ValueError, match="subset index out of range"):
        adapted_forward(bank, h, one_hot(3, 0), [0, 3])


def test_rejects_weight_mass_outside_subset():
    bank = make_bank()
    h = Value(np.zeros((1, 6)))
    w = np.array([0.5, 0.5, 0.0])
    with pytest.raises(ValueError, match="outside the selected subset"):
        adapted_forward(bank, h, Value(w), [0])


def test_rejects_unnormalized_weights():
    bank = make_bank()
    h = Value(np.zeros((1, 6)))
    bad = np.array([0.5, 0.4, 0.0])  # sums to 0.9
    with pytest.raises(ValueError, match="unnormalized routing weights"):
        adapted_forward(bank, h, Value(bad), [0, 1])
    # a drift below the tolerance must still be accepted
    ok = np.array([0.5, 0.5 + 0.5 * WEIGHT_SUM_TOL, 0.0])
    adapted_forward(bank, h, Value(ok), [0, 1])


def test_rejects_weight_vector_of_wrong_width():
    bank = make_bank(n_experts=3)
    with pytest.raises(ValueError, match="n_experts"):
        adapted_forward(bank, Value(np.zeros((1, 6))), Value(np.zeros(4)), [0])


def test_gate_scales_the_weights_after_the_normalization_check():
    bank = make_bank(n_experts=3, seed=22)
    rng = named_rng(23, "gate")
    for j in range(3):
        bank.up[j].data = rng.normal(size=bank.up[j].data.shape)
    h = rng.normal(size=(2, 6))
    w = np.array([[0.25, 0.0, 0.75], [0.5, 0.0, 0.5]])
    gate = np.array([1.5, 1.0, 0.5])   # the gated rows no longer sum to one
    out = adapted_forward(bank, Value(h), Value(w), [0, 2], Value(gate))
    expected = h @ bank.base.data.T
    for j in (0, 2):
        delta = h @ (bank.up[j].data @ bank.down[j].data).T
        expected = expected + (w[:, j] * gate[j])[:, None] * delta
    np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError, match="unnormalized"):
        adapted_forward(bank, Value(h), Value(w * gate), [0, 2])


def test_off_subset_experts_receive_no_gradient():
    bank = make_bank(n_experts=3, seed=18)
    rng = named_rng(19, "grad")
    for j in range(3):
        bank.up[j].data = rng.normal(size=bank.up[j].data.shape)
        bank.down[j].requires_grad = True
        bank.up[j].requires_grad = True
    h = Value(rng.normal(size=(2, 6)))
    w = np.zeros(3)
    w[0], w[1] = 0.25, 0.75
    backward(vsum(adapted_forward(bank, h, Value(w), [0, 1])))
    for j in (0, 1):
        assert bank.down[j].grad is not None and np.any(bank.down[j].grad != 0.0)
    assert bank.down[2].grad is None
    assert bank.up[2].grad is None


def test_adapter_gradients_match_finite_differences():
    bank = make_bank(n_experts=2, rank=2, d_in=4, d_out=3, seed=20)
    rng = named_rng(21, "fd")
    params = []
    for j in range(2):
        bank.up[j].data = 0.3 * rng.normal(size=bank.up[j].data.shape)
        for p in (bank.down[j], bank.up[j]):
            p.requires_grad = True
            params.append(p)
    h = Value(rng.normal(size=(2, 4)))
    w = Value([0.35, 0.65])

    def objective():
        out = adapted_forward(bank, h, w, [0, 1])
        return vsum(out * out)

    backward(objective())
    analytic = [p.grad.copy() for p in params]

    def probe():
        with no_grad():
            return float(objective().data)

    numeric = finite_diff_grad(probe, params, epsilon=1e-5)
    for a, n in zip(analytic, numeric):
        np.testing.assert_allclose(a, n, rtol=1e-4, atol=1e-9)
