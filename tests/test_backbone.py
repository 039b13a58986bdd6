"""The adapted backbone end to end: variants, degenerate collapses, losses."""

import math

import numpy as np
import pytest

from streamlora.autograd import Value, backward, masked_softmax_np, named_rng
from streamlora.model import (
    FROZEN,
    FULL,
    SHARED_LORA,
    SITES,
    UNIFORM_MOE,
    BackboneConfig,
    Model,
    Sample,
    Variant,
    _attention,
    forward,
    layer_norm,
    task_loss,
)
from streamlora.routing import subset_indices

CFG = BackboneConfig(n_layers=2, d_hidden=16, n_heads=2, vocab_size=32, n_classes=6)


def make_model(variant, n_experts=4, top_k=2, seed=0, config=CFG):
    return Model(
        config=config, n_experts=n_experts, top_k=top_k, rank=2,
        routing_dim=4, variant=variant, seed=seed,
    )


def make_sample(seed=0, config=CFG, n_visual=5, n_instr=4):
    rng = named_rng(seed, "sample")
    return Sample(
        visual=rng.normal(size=(n_visual, config.d_e)),
        instruction=tuple(int(i) for i in rng.integers(0, config.vocab_size, size=n_instr)),
        label=int(rng.integers(0, config.n_classes)),
        task_id=0,
        uid=f"s{seed}",
    )


def randomize_adapters(model, seed=1, scale=0.3):
    rng = named_rng(seed, "adapters")
    for layer in model.layers:
        for site in SITES:
            bank = layer.banks[site]
            for j in range(bank.n_experts):
                bank.up[j].data[...] = scale * rng.normal(size=bank.up[j].data.shape)


# ---------------------------------------------------------------------------
# configuration and sample validation
# ---------------------------------------------------------------------------


def test_config_validation_catches_bad_sizes():
    with pytest.raises(ValueError, match="not divisible"):
        BackboneConfig(d_hidden=10, n_heads=3).validate()
    with pytest.raises(ValueError, match="n_layers must be at least 1, got 0"):
        BackboneConfig(n_layers=0).validate()
    with pytest.raises(ValueError, match="n_classes must be at least 2, got 1"):
        BackboneConfig(n_classes=1).validate()


def test_variant_validation():
    with pytest.raises(ValueError, match="unknown mode"):
        Variant(mode="dense").validate()
    with pytest.raises(ValueError, match="needs token weighting"):
        Variant("routed", True, False, True).validate()
    with pytest.raises(ValueError, match="needs token weighting"):
        Variant("shared_lora", False, False, True).validate()
    for ok in (FULL, UNIFORM_MOE, SHARED_LORA, FROZEN):
        ok.validate()


def test_sample_validation():
    with pytest.raises(ValueError, match="visual tokens"):
        Sample(visual=np.zeros(4), instruction=(1,), label=0, task_id=0, uid="x")
    with pytest.raises(ValueError, match="at least one token"):
        Sample(visual=np.zeros((2, 4)), instruction=(), label=0, task_id=0, uid="x")


def test_forward_rejects_ragged_batches_naming_the_first_odd_sample():
    model = make_model(FULL)
    even = [make_sample(seed=s) for s in range(3)]
    longer = make_sample(seed=3, n_instr=5)
    with pytest.raises(ValueError, match=r"sample 2 \('s3'\).*5 instruction tokens"):
        forward(model, even[:2] + [longer] + even[2:])
    fewer_tokens = make_sample(seed=4, n_visual=3)
    with pytest.raises(ValueError, match=r"sample 1 \('s4'\)"):
        forward(model, [even[0], fewer_tokens, longer])
    with pytest.raises(ValueError, match="empty batch"):
        forward(model, [])
    with pytest.raises(TypeError, match="sequence of samples"):
        forward(model, even[0])


def test_model_rejects_bad_top_k():
    with pytest.raises(ValueError, match="top_k"):
        make_model(FULL, n_experts=2, top_k=3)


def test_forward_rejects_malformed_samples():
    model = make_model(FULL)
    bad_width = Sample(
        visual=np.zeros((3, CFG.d_e + 1)), instruction=(1, 2), label=0, task_id=0, uid="w"
    )
    with pytest.raises(ValueError, match="visual token width"):
        forward(model, [bad_width])
    bad_token = Sample(
        visual=np.zeros((3, CFG.d_e)), instruction=(1, CFG.vocab_size), label=0,
        task_id=0, uid="t",
    )
    with pytest.raises(ValueError, match="unknown token id"):
        forward(model, [bad_token])


# ---------------------------------------------------------------------------
# parameter registration
# ---------------------------------------------------------------------------


def test_full_variant_registers_adapters_routers_and_head():
    model = make_model(FULL, n_experts=4)
    # 2 layers x 2 sites x (4 experts x 2 factors + 4 router tensors) + head
    assert len(model.params) == 2 * 2 * (4 * 2 + 4) + 2
    paths = model.params.paths()
    assert "layer.0.attn_out.expert.0.A" in paths
    assert "layer.1.ffn_up.router.select" in paths
    assert paths[-2:] == ["head.weight", "head.bias"]


def test_shared_lora_registers_no_routers():
    model = make_model(SHARED_LORA, n_experts=1, top_k=1)
    assert len(model.params) == 2 * 2 * 2 + 2
    assert not any("router" in p for p in model.params.paths())


def test_frozen_variant_has_no_trainable_parameters():
    model = make_model(FROZEN)
    assert len(model.params) == 0


def test_routing_states_cover_every_site():
    model = make_model(FULL)
    states = model.routing_states()
    assert sorted(states) == [
        "layer.0.attn_out", "layer.0.ffn_up",
        "layer.1.attn_out", "layer.1.ffn_up",
    ]


# ---------------------------------------------------------------------------
# degenerate collapses
# ---------------------------------------------------------------------------


def test_all_variants_match_the_frozen_backbone_at_init():
    # up projections start at zero, so every adapter contributes nothing
    sample = make_sample()
    reference = forward(make_model(FROZEN), [sample]).logits.data
    for variant in (FULL, UNIFORM_MOE, Variant("routed", True, False, False),
                    Variant("routed", False, True, False)):
        got = forward(make_model(variant), [sample]).logits.data
        assert np.array_equal(got, reference), variant
    shared = forward(make_model(SHARED_LORA, n_experts=1, top_k=1), [sample]).logits.data
    assert np.array_equal(shared, reference)


def test_single_expert_token_mixture_equals_shared_adapter_bitwise():
    # softmax over one logit is exactly 1, so the dense mixture with one
    # expert must reproduce the always-on shared adapter bit for bit
    sample = make_sample(seed=3)
    moe = make_model(UNIFORM_MOE, n_experts=1, top_k=1, seed=5)
    shared = make_model(SHARED_LORA, n_experts=1, top_k=1, seed=5)
    randomize_adapters(moe, seed=6)
    randomize_adapters(shared, seed=6)
    out_moe = forward(moe, [sample]).logits.data
    out_shared = forward(shared, [sample]).logits.data
    assert np.array_equal(out_moe, out_shared)


def test_shared_lora_equals_base_plus_merged_adapter():
    # W0 h + B(A h) must match the merged projection (W0 + B A) h
    sample = make_sample(seed=4)
    model = make_model(SHARED_LORA, n_experts=1, top_k=1, seed=7)
    randomize_adapters(model, seed=8)
    got = forward(model, [sample]).logits.data

    merged = make_model(FROZEN, seed=7)
    donor = make_model(SHARED_LORA, n_experts=1, top_k=1, seed=7)
    randomize_adapters(donor, seed=8)
    for frozen_layer, adapted_layer in zip(merged.layers, donor.layers):
        for site in SITES:
            bank_a = adapted_layer.banks[site]
            frozen_layer.banks[site].base.data = (
                bank_a.base.data + bank_a.up[0].data @ bank_a.down[0].data
            )
    want = forward(merged, [sample]).logits.data
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# forward structure
# ---------------------------------------------------------------------------


def test_forward_is_deterministic_for_a_given_seed():
    sample = make_sample(seed=9)
    a = forward(make_model(FULL, seed=11), [sample]).logits.data
    b = forward(make_model(FULL, seed=11), [sample]).logits.data
    c = forward(make_model(FULL, seed=12), [sample]).logits.data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_site_records_track_sequence_length_and_distributions():
    model = make_model(FULL)
    sample = make_sample(n_visual=5, n_instr=4)
    result = forward(model, [sample])
    assert [r.site for r in result.sites] == [
        "layer.0.attn_out", "layer.0.ffn_up",
        "layer.1.attn_out", "layer.1.ffn_up",
    ]
    for rec in result.sites:
        assert rec.hidden_data.shape[:2] == (1, 5 + 4)
        (subset,) = rec.subset
        assert len(subset) == model.top_k
        np.testing.assert_allclose(rec.weights_data.sum(axis=-1), 1.0, atol=1e-12)
        off = [j for j in range(model.n_experts) if j not in subset]
        assert np.all(rec.weights_data[..., off] == 0.0)
        assert rec.sample_probs.shape == (1, model.n_experts)
        assert rec.sample_probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_selection_only_weights_are_renormalized_sample_probs():
    model = make_model(Variant("routed", True, False, False))
    sample = make_sample(seed=10)
    result = forward(model, [sample])
    for rec in result.sites:
        p = rec.sample_probs[0]
        member = rec.mask[0]
        want = np.where(member, p, 0.0) / p[member].sum()
        rows = rec.weights_data[0]
        assert np.all(rows == rows[0])  # one shared distribution per sample
        np.testing.assert_allclose(rows[0], want, rtol=1e-12, atol=1e-15)


def test_weighting_only_routes_every_expert_per_token():
    model = make_model(Variant("routed", False, True, False))
    result = forward(model, [make_sample(seed=11)])
    for rec in result.sites:
        assert rec.subset == (tuple(range(model.n_experts)),)
        assert np.all(rec.weights_data > 0.0)
        np.testing.assert_allclose(rec.weights_data.sum(axis=-1), 1.0, atol=1e-12)
        assert rec.sample_probs is None


def test_dense_mixture_gates_every_expert_per_token():
    model = make_model(UNIFORM_MOE)
    result = forward(model, [make_sample(seed=12)])
    for rec in result.sites:
        assert rec.subset == (tuple(range(model.n_experts)),)
        assert rec.sample_probs is None  # no instruction-level stage at all
        assert np.all(rec.weights_data > 0.0)
        np.testing.assert_allclose(rec.weights_data.sum(axis=-1), 1.0, atol=1e-12)
        # the gate reads each hidden state, so rows genuinely differ
        assert not np.allclose(rec.weights_data[0, 0], rec.weights_data[0, -1])


def test_shared_lora_site_record_is_one_expert_at_weight_one():
    model = make_model(SHARED_LORA, n_experts=1, top_k=1)
    result = forward(model, [make_sample(seed=13, n_visual=5, n_instr=4)])
    assert len(result.sites) == 2 * CFG.n_layers
    for rec in result.sites:
        assert rec.subset == ((0,),)
        assert rec.weights_data.shape == (1, 5 + 4, 1)
        assert np.all(rec.weights_data == 1.0)
        assert rec.sample_probs is None


def test_frozen_forward_produces_no_site_records():
    result = forward(make_model(FROZEN), [make_sample()])
    assert result.sites == []


def test_layer_norm_centers_and_scales_rows():
    x = Value(named_rng(13, "ln").normal(loc=3.0, scale=2.0, size=(4, 8)))
    out = layer_norm(x).data
    np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-3)  # eps shifts it slightly


@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("shape", [(3, 9, 16), (2, 3, 9, 16)], ids=["batch", "copy-axis"])
def test_attention_equals_a_per_head_numpy_reference(n_heads, shape):
    config = BackboneConfig(n_layers=1, d_hidden=16, n_heads=n_heads, vocab_size=32, n_classes=6)
    layer = make_model(FULL, config=config).layers[0]
    x = named_rng(14, "attention").normal(size=shape)
    q, k, v = (x @ w.data.T for w in (layer.attn_q, layer.attn_k, layer.attn_v))
    dh = 16 // n_heads
    heads = []
    for h in range(n_heads):
        cut = slice(h * dh, (h + 1) * dh)
        scores = (q[..., cut] @ np.swapaxes(k[..., cut], -1, -2)) * (1.0 / np.sqrt(dh))
        heads.append(masked_softmax_np(scores, None) @ v[..., cut])
    np.testing.assert_array_equal(_attention(layer, Value(x), n_heads).data,
                                  np.concatenate(heads, axis=-1))


# ---------------------------------------------------------------------------
# gradients and the loss
# ---------------------------------------------------------------------------


def test_backbone_stays_frozen_under_the_full_variant():
    model = make_model(FULL)
    randomize_adapters(model)
    sample = make_sample(seed=14)
    backward(task_loss(forward(model, [sample]).logits, [sample.label]))
    assert model.embed.grad is None
    assert model.head_weight.grad is not None
    for layer in model.layers:
        assert layer.attn_q.grad is None
        assert layer.ffn_down.grad is None
        for site in SITES:
            assert layer.banks[site].base.grad is None


def test_selected_adapters_receive_gradient_off_subset_ones_do_not():
    model = make_model(FULL, n_experts=4, top_k=2)
    randomize_adapters(model, seed=15)
    sample = make_sample(seed=15)
    result = forward(model, [sample])
    backward(task_loss(result.logits, [sample.label]))
    by_site = {rec.site: rec.subset[0] for rec in result.sites}
    for i, layer in enumerate(model.layers):
        for site in SITES:
            subset = by_site[f"layer.{i}.{site}"]
            bank = layer.banks[site]
            for j in range(4):
                grad = bank.down[j].grad
                if j in subset:
                    assert grad is not None and np.any(grad != 0.0)
                else:
                    assert grad is None or np.all(grad == 0.0)


def test_task_loss_hand_values():
    assert task_loss(Value([[1.0, 0.0]]), [0]).data == pytest.approx(
        math.log(1.0 + math.exp(-1.0)), abs=1e-15
    )
    model = make_model(FULL)
    model.head_weight.data[...] = 0.0
    model.head_bias.data[...] = 0.0
    loss = task_loss(forward(model, [make_sample()]).logits, [3])
    assert float(loss.data) == pytest.approx(math.log(CFG.n_classes), abs=1e-12)


def test_task_loss_rejects_out_of_range_label():
    with pytest.raises(ValueError, match="out of range"):
        task_loss(Value([[0.0, 1.0, 2.0]]), [3])


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", [
    FULL, UNIFORM_MOE, SHARED_LORA, FROZEN,
    Variant("routed", True, False, False),      # p: selection only
    Variant("routed", False, True, False),      # s: token weighting only
], ids=["full", "uniform_moe", "shared_lora", "frozen", "p", "s"])
def test_each_row_of_a_batch_equals_its_own_one_sample_forward(variant):
    n_experts = 1 if variant == SHARED_LORA else 4
    model = make_model(variant, n_experts=n_experts, top_k=min(2, n_experts), seed=21)
    randomize_adapters(model, seed=22)
    samples = [make_sample(seed=30 + i) for i in range(4)]
    batch = forward(model, samples)
    assert batch.logits.data.shape == (4, CFG.n_classes)
    for i, sample in enumerate(samples):
        alone = forward(model, [sample])
        np.testing.assert_allclose(batch.logits.data[i], alone.logits.data[0], rtol=0, atol=1e-12)
        for rec, rec_alone in zip(batch.sites, alone.sites):
            assert rec.subset[i] == rec_alone.subset[0]
            np.testing.assert_allclose(rec.weights_data[i], rec_alone.weights_data[0],
                                       rtol=0, atol=1e-12)


def test_experts_no_sample_of_the_batch_selected_get_no_gradient():
    model = make_model(FULL, n_experts=6, top_k=1, seed=23)
    randomize_adapters(model, seed=24)
    samples = [make_sample(seed=40), make_sample(seed=41)]
    result = forward(model, samples)
    backward(task_loss(result.logits, [s.label for s in samples]))
    unused = 0
    for i, layer in enumerate(model.layers):
        for site in SITES:
            (rec,) = [r for r in result.sites if r.site == f"layer.{i}.{site}"]
            chosen = set(rec.subset[0]) | set(rec.subset[1])
            bank = layer.banks[site]
            for j in range(bank.n_experts):
                if j in chosen:
                    assert np.any(bank.down[j].grad != 0.0)
                else:       # exactly zero in the store's gradient vector
                    unused += 1
                    assert not bank.down[j].grad.any() and not bank.up[j].grad.any()
    assert unused >= 4 * 2 * CFG.n_layers       # at most 2 of 6 experts chosen per site


@pytest.mark.parametrize("leaf", [
    "expert.A", "expert.B", "router.select", "router.query", "router.key", "router.experts",
    "head.weight", "head.bias",
])
def test_a_leaf_with_one_copy_per_row_gives_each_block_its_copys_forward(leaf):
    # the gradient audit's blocked probes: a trainable leaf holding n copies
    # of itself, one per row of a leading copy axis, (n, 1, *shape), gives
    # every index of that axis the forward its copy gives as the model's
    # own leaf
    model = make_model(FULL, seed=25)
    randomize_adapters(model, seed=26)
    samples = [make_sample(seed=50 + i) for i in range(3)]
    if leaf.startswith("expert"):
        j = forward(model, samples).sites[1].subset[0][0]       # used at layer.0.ffn_up
        path = f"layer.0.ffn_up.expert.{j}.{leaf[-1]}"
    elif leaf.startswith("router"):
        path = f"layer.1.attn_out.{leaf}"
    else:
        path = leaf
    param = model.params[path]
    copies = param.data + 0.05 * named_rng(27, path).normal(size=(2,) + param.data.shape)
    param.data = copies[:, None]
    stacked = forward(model, samples)
    assert stacked.logits.data.shape == (2, 3, CFG.n_classes)

    def copy(a, c, solo):       # copy c of a record array, if it has the copy axis
        return a[c] if a.ndim > solo.ndim else a

    for c in range(2):
        param.data = copies[c]
        alone = forward(model, samples)
        np.testing.assert_allclose(stacked.logits.data[c], alone.logits.data, rtol=0, atol=1e-12)
        for rec, rec_alone in zip(stacked.sites, alone.sites):
            assert subset_indices(copy(rec.mask, c, rec_alone.mask)) == rec_alone.subset
            for got, solo in ((rec.weights_data, rec_alone.weights_data),
                              (rec.sample_probs, rec_alone.sample_probs)):
                np.testing.assert_allclose(copy(got, c, solo), solo, rtol=0, atol=1e-12)
    assert not np.array_equal(stacked.logits.data[0], stacked.logits.data[1])   # the copies differ


@pytest.mark.parametrize("leaf", ["expert.A", "router.query"])
def test_a_copy_leaf_leaves_the_sites_upstream_of_it_without_the_copy_axis(leaf):
    # the copy axis starts where activations meet the leaf, so every layer
    # upstream of it runs once for the batch
    model = make_model(FULL, seed=28)
    samples = [make_sample(seed=60 + i) for i in range(3)]
    if leaf == "expert.A":
        leaf = f"expert.{forward(model, samples).sites[3].subset[0][0]}.A"
    param = model.params[f"layer.1.ffn_up.{leaf}"]
    param.data = np.stack([param.data] * 4)[:, None]
    result = forward(model, samples)
    L = 5 + 4
    records = {rec.site: rec for rec in result.sites}
    for site in ("layer.0.attn_out", "layer.0.ffn_up", "layer.1.attn_out"):
        rec = records[site]
        assert rec.hidden_data.shape == (3, L, CFG.d_hidden)
        assert rec.weights_data.shape == (3, L, 4) and rec.sample_probs.shape == (3, 4)
    assert records["layer.1.ffn_up"].hidden_data.shape == (3, L, CFG.d_hidden)
    assert result.logits.data.shape == (4, 3, CFG.n_classes)
