"""EMA shadow router and the reference-anchored KL regularizer."""

import math

import numpy as np
import pytest

from streamlora.autograd import Value, backward, named_rng
from streamlora.routing import (
    RoutingState,
    init_routing_state,
    route_with_straight_through,
    token_weights,
)
from streamlora.stability import (
    LOG_FLOOR,
    EmaShadow,
    ema_update,
    reference_weights,
    reg_loss,
    total_loss,
)
from oracles import weight_matrix


def make_states(seed=0, n_experts=4, d_e=3, d_hidden=5, routing_dim=2):
    rng = named_rng(seed, "states")
    return {
        "layer.0.attn": init_routing_state(n_experts, d_e, d_hidden, routing_dim, rng),
        "layer.0.ffn": init_routing_state(n_experts, d_e, d_hidden, routing_dim, rng),
    }


# ---------------------------------------------------------------------------
# the shadow itself
# ---------------------------------------------------------------------------


def test_shadow_starts_as_an_exact_copy_of_the_weighting_params():
    states = make_states()
    shadow = EmaShadow.from_states(states)
    assert shadow.updates == 0
    for site, state in states.items():
        q, k, e = shadow.site_arrays(site)
        np.testing.assert_array_equal(q, state.query.data)
        np.testing.assert_array_equal(k, state.key.data)
        np.testing.assert_array_equal(e, state.experts.data)
        assert q is not state.query.data  # a copy, not a view


def test_shadow_never_tracks_the_selection_gate():
    shadow = EmaShadow.from_states(make_states())
    assert not any(key.endswith(".select") for key in shadow.arrays)


def test_shadow_site_lookup_rejects_unknown_site():
    shadow = EmaShadow.from_states(make_states())
    with pytest.raises(KeyError, match="no site"):
        shadow.site_arrays("layer.9.attn")


def test_ema_update_moves_one_percent_per_step():
    states = make_states(seed=1)
    shadow = EmaShadow.from_states(states)
    old = states["layer.0.attn"].query.data.copy()
    target = old + 1.0
    states["layer.0.attn"].query.data = target
    ema_update(shadow, states, beta=0.99)
    assert shadow.updates == 1
    q, _, _ = shadow.site_arrays("layer.0.attn")
    np.testing.assert_allclose(q, 0.99 * old + 0.01 * target, rtol=0, atol=1e-15)


def test_ema_update_with_zero_momentum_copies_the_live_params():
    states = make_states(seed=2)
    shadow = EmaShadow.from_states(states)
    states["layer.0.ffn"].key.data = np.full_like(states["layer.0.ffn"].key.data, 3.5)
    ema_update(shadow, states, beta=0.0)
    _, k, _ = shadow.site_arrays("layer.0.ffn")
    np.testing.assert_array_equal(k, states["layer.0.ffn"].key.data)


def test_ema_closed_form_after_ten_steps():
    # with the live params held fixed, u steps give
    # shadow_u = live + beta^u * (shadow_0 - live)
    states = make_states(seed=3)
    shadow = EmaShadow.from_states(states)
    start = {k: v.copy() for k, v in shadow.arrays.items()}
    rng = named_rng(4, "targets")
    for state in states.values():
        state.query.data = rng.normal(size=state.query.data.shape)
        state.key.data = rng.normal(size=state.key.data.shape)
        state.experts.data = rng.normal(size=state.experts.data.shape)
    beta = 0.99
    for _ in range(10):
        ema_update(shadow, states, beta=beta)
    assert shadow.updates == 10
    for site, state in states.items():
        for name in ("query", "key", "experts"):
            live = getattr(state, name).data
            expected = live + beta ** 10 * (start[f"{site}.{name}"] - live)
            np.testing.assert_allclose(shadow.arrays[f"{site}.{name}"], expected, rtol=0, atol=1e-12)


def test_ema_update_validates_momentum_and_shapes():
    states = make_states(seed=5)
    shadow = EmaShadow.from_states(states)
    with pytest.raises(ValueError, match="momentum"):
        ema_update(shadow, states, beta=1.0)
    with pytest.raises(ValueError, match="momentum"):
        ema_update(shadow, states, beta=-0.1)
    states["layer.0.attn"].query.data = np.zeros((9, 9))
    with pytest.raises(ValueError, match="shape mismatch"):
        ema_update(shadow, states, beta=0.9)


def test_ema_update_rejects_unknown_sites():
    states = make_states(seed=6)
    shadow = EmaShadow.from_states({"layer.0.attn": states["layer.0.attn"]})
    with pytest.raises(KeyError, match="no entry"):
        ema_update(shadow, states, beta=0.9)


# ---------------------------------------------------------------------------
# reference weights from the shadow
# ---------------------------------------------------------------------------


def test_reference_matches_live_weights_bit_exactly_when_shadow_is_fresh():
    states = make_states(seed=7)
    shadow = EmaShadow.from_states(states)
    rng = named_rng(8, "inputs")
    hidden = rng.normal(size=(1, 6, 5))
    x_text = rng.normal(size=(1, 3))
    for site, state in states.items():
        _, mask, weights, _ = route_with_straight_through(state, Value(hidden), Value(x_text), top_k=2)
        ref = reference_weights(shadow, site, hidden, x_text, mask)
        assert np.array_equal(ref, weights.data)  # no tolerance at all


def test_reference_weights_two_expert_hand_case():
    # D = 1: keys are [1, 2], a unit query and token give logits [1, 2]
    state = RoutingState(
        select=Value(np.zeros((2, 1))),
        query=Value([[1.0]]),
        key=Value([[1.0]]),
        experts=Value([[1.0], [2.0]]),
    )
    shadow = EmaShadow.from_states({"s": state})
    both = np.array([[True, True]])
    ref = reference_weights(shadow, "s", np.array([[[1.0]]]), np.array([[1.0]]), both)
    lo = 1.0 / (1.0 + math.e)
    np.testing.assert_allclose(ref, [[[lo, 1.0 - lo]]], rtol=1e-15)


def test_reference_weights_singleton_subset_is_degenerate():
    states = make_states(seed=9)
    shadow = EmaShadow.from_states(states)
    rng = named_rng(10, "single")
    ref = reference_weights(
        shadow, "layer.0.attn", rng.normal(size=(1, 4, 5)), rng.normal(size=(1, 3)),
        np.array([[False, False, True, False]]),
    )
    np.testing.assert_array_equal(ref[..., 2], 1.0)
    assert np.all(ref[..., [0, 1, 3]] == 0.0)


def test_reference_weights_rows_are_distributions_over_the_subset():
    states = make_states(seed=11)
    shadow = EmaShadow.from_states(states)
    rng = named_rng(12, "dist")
    ref = reference_weights(
        shadow, "layer.0.ffn", rng.normal(size=(1, 5, 5)), rng.normal(size=(1, 3)),
        np.array([[False, True, False, True]]),
    )
    np.testing.assert_allclose(ref.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
    assert np.all(ref[..., [0, 2]] == 0.0)


# ---------------------------------------------------------------------------
# the KL penalty
# ---------------------------------------------------------------------------


FIRST_AND_THIRD = np.array([[True, False, True, False]])


def test_kl_of_identical_weights_is_exactly_zero():
    rng = named_rng(13, "self")
    w = weight_matrix(rng, 5, FIRST_AND_THIRD)
    loss = reg_loss(w, Value(w.copy()), FIRST_AND_THIRD)
    assert loss.data == 0.0


def test_kl_two_point_hand_case():
    # KL([.5 .5] || [.9 .1]) = .5 log(.5/.9) + .5 log(.5/.1)
    ref = np.array([[[0.5, 0.5]]])
    live = np.array([[[0.9, 0.1]]])
    loss = reg_loss(ref, Value(live), np.array([[True, True]]))
    want = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
    assert loss.data == pytest.approx(want, rel=1e-12)


def test_kl_is_nonnegative_on_random_pairs():
    rng = named_rng(14, "pairs")
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, n + 1))
        mask = np.zeros((1, n), dtype=bool)
        mask[0, rng.choice(n, size=k, replace=False)] = True
        tokens = int(rng.integers(1, 5))
        ref = weight_matrix(rng, tokens, mask)
        live = weight_matrix(rng, tokens, mask)
        assert float(reg_loss(ref, Value(live), mask).data) >= 0.0


def test_kl_averages_over_tokens():
    rng = named_rng(15, "avg")
    mask = np.array([[True, True, False]])
    ref_row = weight_matrix(rng, 1, mask)
    live_row = weight_matrix(rng, 1, mask)
    single = reg_loss(ref_row, Value(live_row), mask)
    stacked = reg_loss(
        np.repeat(ref_row, 4, axis=1), Value(np.repeat(live_row, 4, axis=1)), mask
    )
    assert stacked.data == pytest.approx(float(single.data), rel=1e-12)


def test_kl_gradient_lands_on_live_weights_only():
    rng = named_rng(16, "grad")
    ref = weight_matrix(rng, 3, FIRST_AND_THIRD)
    live = Value(weight_matrix(rng, 3, FIRST_AND_THIRD), requires_grad=True)
    backward(reg_loss(ref, live, FIRST_AND_THIRD))
    expected = -ref / np.maximum(live.data, LOG_FLOOR) / 3.0
    np.testing.assert_allclose(live.grad, expected, rtol=1e-12, atol=0)
    assert np.all(live.grad[..., [1, 3]] == 0.0)


def test_kl_rejects_support_outside_the_subset():
    rng = named_rng(17, "support")
    mask = np.array([[True, True, False]])
    good = weight_matrix(rng, 2, mask)
    leaky = good.copy()
    leaky[0, 0, 2] = 0.001
    with pytest.raises(ValueError, match="support disagrees"):
        reg_loss(leaky, Value(good), mask)
    with pytest.raises(ValueError, match="support disagrees"):
        reg_loss(good, Value(leaky), mask)
    with pytest.raises(ValueError, match="boolean"):
        reg_loss(good, Value(good), np.array([[0, 1, 1]]))


def test_kl_rejects_mismatched_shapes_and_flat_inputs():
    rng = named_rng(18, "shape")
    mask = np.array([[True, True, False]])
    a = weight_matrix(rng, 2, mask)
    b = weight_matrix(rng, 3, mask)
    with pytest.raises(ValueError, match="shape mismatch"):
        reg_loss(a, Value(b), mask)
    for flat in (a[0], a[0, 0]):                    # one sample's matrix, one token's row
        with pytest.raises(ValueError, match="tokens, n_experts"):
            reg_loss(flat, Value(flat), mask)


def test_reg_loss_accepts_weights_straight_from_the_router():
    rng = named_rng(19, "router")
    mask = np.array([[False, True, False, False, True]])
    live = token_weights(Value(rng.normal(size=(1, 4, 5))), mask)
    ref = weight_matrix(rng, 4, mask)
    loss = reg_loss(ref, live, mask)
    assert float(loss.data) >= 0.0


# ---------------------------------------------------------------------------
# combining with the task loss
# ---------------------------------------------------------------------------


def test_total_loss_hand_value():
    out = total_loss(Value(2.0), Value(0.5), 0.1)
    assert float(out.data) == pytest.approx(2.05, abs=1e-15)


def test_total_loss_with_zero_weight_returns_the_task_object():
    task = Value(1.5)
    assert total_loss(task, Value(0.7), 0.0) is task
    assert total_loss(task, None, 0.3) is task


def test_total_loss_rejects_negative_weight():
    with pytest.raises(ValueError, match="non-negative"):
        total_loss(Value(1.0), Value(1.0), -0.5)
