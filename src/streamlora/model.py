"""A small frozen transformer with routed low-rank adapters bolted on.

The backbone is a stand-in for a large vision-language model: a pre-norm
transformer over a sequence of visual tokens followed by instruction token
embeddings, with frozen random weights. Capacity for new tasks comes only
from the parts the optimizer may touch: the adapter banks at two sites per
layer (the attention output projection and the FFN up projection), the
routers that weight them, and the classification head.

Forward behavior is controlled by a `Variant`:

* routed with both stages on is the full method: instruction-level top-K
  selection plus token-level weighting, trained straight-through.
* routed with selection only applies the renormalized selection
  probabilities uniformly to every token.
* routed with weighting only runs the token softmax over all N experts.
* routed with both stages off degenerates to a dense per-token mixture
  gated on the hidden state, the classic MoE-adapter baseline.
* shared_lora is a single adapter with weight one, no routing at all.
* frozen applies the bare backbone and trains nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autograd import (
    ParamStore,
    Value,
    add,
    cols,
    concat,
    cross_entropy,
    matmul,
    mean,
    mul,
    named_rng,
    powi,
    softmax,
    take_rows,
    tanh,
    transpose,
    vsum,
)
from .experts import ExpertBank, adapted_forward, init_expert_bank
from .experts import lora_delta  # noqa: F401  (perfbench/spans.py looks it up here)
from .routing import (
    RoutingState,
    init_routing_state,
    pool_text,
    route_with_straight_through,
    select_experts,
    subset_mask,
    token_logits,
    token_weights,
)

SITES = ("attn_out", "ffn_up")
LN_EPS = 1e-5


@dataclass(frozen=True)
class BackboneConfig:
    """Sizes of the frozen backbone. d_e always equals d_hidden here: the
    synthetic visual tokens live directly in model space, there is no
    separate projector."""

    n_layers: int = 2
    d_hidden: int = 32
    n_heads: int = 2
    vocab_size: int = 64
    n_classes: int = 20

    @property
    def d_e(self) -> int:
        return self.d_hidden

    @property
    def d_ff(self) -> int:
        return 2 * self.d_hidden

    def validate(self) -> None:
        if self.n_layers < 1:
            raise ValueError("need at least one layer")
        if self.d_hidden % self.n_heads != 0:
            raise ValueError(f"d_hidden {self.d_hidden} not divisible by n_heads {self.n_heads}")
        if self.vocab_size < 2 or self.n_classes < 2:
            raise ValueError("vocab and class counts must be at least 2")


@dataclass(frozen=True)
class Variant:
    """What the forward pass does and what the optimizer may touch."""

    mode: str = "routed"  # routed | shared_lora | frozen
    use_selection: bool = True
    use_token_weighting: bool = True
    use_reg: bool = True

    def validate(self) -> None:
        if self.mode not in ("routed", "shared_lora", "frozen"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.use_reg and not (self.mode == "routed" and self.use_token_weighting):
            raise ValueError("the stability regularizer needs token weighting to regularize")

    @property
    def trains_routers(self) -> bool:
        return self.mode == "routed"


FULL = Variant("routed", True, True, True)
UNIFORM_MOE = Variant("routed", False, False, False)
SHARED_LORA = Variant("shared_lora", False, False, False)
FROZEN = Variant("frozen", False, False, False)


@dataclass
class Sample:
    """One stream element: visual tokens, tokenized instruction, answer."""

    visual: np.ndarray          # (L_vis, d_e)
    instruction: tuple[int, ...]
    label: int
    task_id: int
    uid: str

    def __post_init__(self) -> None:
        self.visual = np.asarray(self.visual, dtype=np.float64)
        if self.visual.ndim != 2 or self.visual.shape[0] < 1:
            raise ValueError("visual tokens must be a non-empty (L_vis, d_e) matrix")
        if len(self.instruction) == 0:
            raise ValueError("instruction must contain at least one token")


@dataclass
class Layer:
    attn_q: Value
    attn_k: Value
    attn_v: Value
    ffn_down: Value
    banks: dict[str, ExpertBank]
    routers: dict[str, RoutingState]


@dataclass
class SiteRecord:
    """Routing outcome at one adapter site for one sample, kept for the
    regularizer and for trace export."""

    site: str
    subset: tuple[int, ...]
    weights_data: np.ndarray          # (L, N) as applied, detached copy
    hidden_data: np.ndarray           # (L, d_in) site input, detached copy
    token_weights: Value | None       # live stage-two weights when present
    sample_probs: np.ndarray | None   # stage-one distribution when present


@dataclass(frozen=True)
class FrozenRouting:
    """Pinned routing constants of one site, for the gradient audit.

    The training objective treats the subset choice, the detached factor
    inside the straight-through gate, and the EMA reference weights as
    constants. Finite differences must probe that same surrogate, so the
    audit runs the training forward with these held at their baseline
    values instead of recomputing them from the perturbed parameters.
    """

    subset: tuple[int, ...]
    sample_probs: np.ndarray          # baseline stage-one distribution
    reference: np.ndarray | None      # baseline EMA reference weights


@dataclass
class ForwardResult:
    logits: Value
    x_text: Value
    sites: list[SiteRecord] = field(default_factory=list)


class Model:
    """Frozen backbone, adapter banks, routers, head, and the trainable set."""

    def __init__(
        self,
        config: BackboneConfig,
        n_experts: int,
        top_k: int,
        rank: int,
        routing_dim: int,
        variant: Variant,
        seed: int,
    ):
        config.validate()
        variant.validate()
        if not 1 <= top_k <= n_experts:
            raise ValueError(f"top_k must be in [1, {n_experts}]")
        self.config = config
        self.n_experts = n_experts
        self.top_k = top_k
        self.rank = rank
        self.routing_dim = routing_dim
        self.variant = variant
        self.seed = seed

        d, d_ff, d_e = config.d_hidden, config.d_ff, config.d_e
        self.embed = Value(named_rng(seed, "embed").normal(0.0, 1.0 / np.sqrt(d_e), size=(config.vocab_size, d_e)))

        self.layers: list[Layer] = []
        for i in range(config.n_layers):
            rng = named_rng(seed, f"base.layer.{i}")
            bound = 1.0 / np.sqrt(d)
            attn = [Value(rng.uniform(-bound, bound, size=(d, d))) for _ in range(3)]
            ffn_down = Value(named_rng(seed, f"base.layer.{i}.ffn_down").uniform(
                -1.0 / np.sqrt(d_ff), 1.0 / np.sqrt(d_ff), size=(d, d_ff)))
            banks: dict[str, ExpertBank] = {}
            routers: dict[str, RoutingState] = {}
            for site in SITES:
                d_out = d if site == "attn_out" else d_ff
                base_rng = named_rng(seed, f"base.layer.{i}.{site}")
                base = base_rng.uniform(-bound, bound, size=(d_out, d))
                banks[site] = init_expert_bank(
                    n_experts, rank, d, d_out,
                    named_rng(seed, f"experts.layer.{i}.{site}"),
                    base=base,
                )
                routers[site] = init_routing_state(
                    n_experts, d_e, d, routing_dim,
                    named_rng(seed, f"router.layer.{i}.{site}"),
                )
            self.layers.append(Layer(attn[0], attn[1], attn[2], ffn_down, banks, routers))

        head_rng = named_rng(seed, "head")
        hb = 1.0 / np.sqrt(d)
        self.head_weight = Value(head_rng.uniform(-hb, hb, size=(config.n_classes, d)))
        self.head_bias = Value(np.zeros(config.n_classes))

        self.params = ParamStore()
        if variant.mode != "frozen":
            for i, layer in enumerate(self.layers):
                for site in SITES:
                    bank = layer.banks[site]
                    for j in range(n_experts):
                        self.params.add(f"layer.{i}.{site}.expert.{j}.A", bank.down[j])
                        self.params.add(f"layer.{i}.{site}.expert.{j}.B", bank.up[j])
                    if variant.trains_routers:
                        router = layer.routers[site]
                        self.params.add(f"layer.{i}.{site}.router.select", router.select)
                        self.params.add(f"layer.{i}.{site}.router.query", router.query)
                        self.params.add(f"layer.{i}.{site}.router.key", router.key)
                        self.params.add(f"layer.{i}.{site}.router.experts", router.experts)
            self.params.add("head.weight", self.head_weight)
            self.params.add("head.bias", self.head_bias)

    def routing_states(self) -> dict[str, RoutingState]:
        """Keyed by site path, the EMA shadow's view of the model."""
        states: dict[str, RoutingState] = {}
        for i, layer in enumerate(self.layers):
            for site in SITES:
                states[f"layer.{i}.{site}"] = layer.routers[site]
        return states


def layer_norm(x: Value) -> Value:
    """Per-token layer norm without an affine part (the affine would be
    frozen anyway)."""
    centered = x - mean(x, axis=-1, keepdims=True)
    var = mean(mul(centered, centered), axis=-1, keepdims=True)
    return mul(centered, powi(var + Value(LN_EPS), -0.5))


def _attention(layer: Layer, x: Value, n_heads: int) -> Value:
    """Multi-head self attention up to (not including) the output projection.

    Returns the concatenated head outputs; the adapted output projection
    is applied by the caller so the adapter site sees this matrix.
    """
    d = x.data.shape[1]
    dh = d // n_heads
    q = matmul(x, transpose(layer.attn_q))
    k = matmul(x, transpose(layer.attn_k))
    v = matmul(x, transpose(layer.attn_v))
    scale = 1.0 / np.sqrt(dh)
    heads = []
    for h in range(n_heads):
        lo, hi = h * dh, (h + 1) * dh
        qh, kh, vh = cols(q, lo, hi), cols(k, lo, hi), cols(v, lo, hi)
        scores = mul(matmul(qh, transpose(kh)), Value(scale))
        heads.append(matmul(softmax(scores), vh))
    return concat(heads, axis=1)


def _routed_site(
    model: Model,
    site_key: str,
    bank: ExpertBank,
    router: RoutingState,
    hidden: Value,
    x_text: Value,
    variant: Variant,
    pinned: FrozenRouting | None = None,
) -> tuple[Value, SiteRecord]:
    n = model.n_experts
    everyone = tuple(range(n))
    if variant.use_selection and variant.use_token_weighting:
        decision = route_with_straight_through(
            router, hidden, x_text, model.top_k,
            subset=None if pinned is None else pinned.subset,
            detached_probs=None if pinned is None else pinned.sample_probs,
        )
        out = adapted_forward(bank, hidden, decision.token_weights, decision.subset, decision.gate)
        return out, SiteRecord(
            site=site_key,
            subset=decision.subset,
            weights_data=decision.token_weights.data.copy(),
            hidden_data=hidden.data.copy(),
            token_weights=decision.token_weights,
            sample_probs=decision.sample_probs.data.copy(),
        )
    if variant.use_selection:
        probs, subset = select_experts(router, x_text, model.top_k)
        member = Value(subset_mask(subset, n).astype(np.float64))
        kept = mul(probs, member)
        weights = mul(kept, powi(vsum(kept), -1.0))   # renormalized over the subset
        out = adapted_forward(bank, hidden, weights, subset)
        L = hidden.data.shape[0]
        return out, SiteRecord(
            site=site_key,
            subset=subset,
            weights_data=np.broadcast_to(weights.data, (L, n)).copy(),
            hidden_data=hidden.data.copy(),
            token_weights=None,
            sample_probs=probs.data.copy(),
        )
    if variant.use_token_weighting:
        logits = token_logits(router, hidden, x_text, everyone)
        weights = token_weights(logits, everyone, n)
        out = adapted_forward(bank, hidden, weights, everyone)
        return out, SiteRecord(
            site=site_key,
            subset=everyone,
            weights_data=weights.data.copy(),
            hidden_data=hidden.data.copy(),
            token_weights=weights,
            sample_probs=None,
        )
    # dense per-token mixture on the hidden state, no text conditioning
    weights = softmax(matmul(hidden, transpose(router.select)))
    out = adapted_forward(bank, hidden, weights, everyone)
    return out, SiteRecord(
        site=site_key,
        subset=everyone,
        weights_data=weights.data.copy(),
        hidden_data=hidden.data.copy(),
        token_weights=weights,
        sample_probs=None,
    )


def _site_forward(
    model: Model,
    site_key: str,
    bank: ExpertBank,
    router: RoutingState,
    hidden: Value,
    x_text: Value,
    variant: Variant,
    pinned: FrozenRouting | None = None,
) -> tuple[Value, SiteRecord | None]:
    if variant.mode == "frozen":
        return matmul(hidden, transpose(bank.base)), None
    if variant.mode == "shared_lora":
        ones = Value(np.ones(bank.n_experts))
        out = adapted_forward(bank, hidden, ones, tuple(range(bank.n_experts)))
        L = hidden.data.shape[0]
        record = SiteRecord(
            site=site_key,
            subset=tuple(range(bank.n_experts)),
            weights_data=np.ones((L, bank.n_experts)),
            hidden_data=hidden.data.copy(),
            token_weights=None,
            sample_probs=None,
        )
        return out, record
    return _routed_site(model, site_key, bank, router, hidden, x_text, variant, pinned)


def forward(
    model: Model,
    sample: Sample,
    variant: Variant | None = None,
    pinned: dict[str, FrozenRouting] | None = None,
) -> ForwardResult:
    """Run one sample through the adapted backbone.

    The pooled instruction embedding is computed once and shared by every
    router. Site records collect what the regularizer and the trace writer
    need; frozen mode produces none. `pinned` holds per-site routing
    constants for the gradient audit and is never set during training.
    """
    variant = model.variant if variant is None else variant
    cfg = model.config
    if sample.visual.shape[1] != cfg.d_e:
        raise ValueError(f"visual token width {sample.visual.shape[1]} != d_e {cfg.d_e}")
    ids = sample.instruction
    if min(ids) < 0 or max(ids) >= cfg.vocab_size:
        raise ValueError(f"unknown token id in instruction (vocab size {cfg.vocab_size})")

    instr_emb = take_rows(model.embed, ids)
    x_text = pool_text(instr_emb)
    x = concat([Value(sample.visual), instr_emb], axis=0)

    result = ForwardResult(logits=None, x_text=x_text)  # logits filled below
    for i, layer in enumerate(model.layers):
        site_key = f"layer.{i}.attn_out"
        attn_hidden = _attention(layer, layer_norm(x), cfg.n_heads)
        out, record = _site_forward(
            model, site_key, layer.banks["attn_out"],
            layer.routers["attn_out"], attn_hidden, x_text, variant,
            pinned.get(site_key) if pinned else None,
        )
        if record is not None:
            result.sites.append(record)
        x = x + out

        site_key = f"layer.{i}.ffn_up"
        ffn_in = layer_norm(x)
        up, record = _site_forward(
            model, site_key, layer.banks["ffn_up"],
            layer.routers["ffn_up"], ffn_in, x_text, variant,
            pinned.get(site_key) if pinned else None,
        )
        if record is not None:
            result.sites.append(record)
        x = x + matmul(tanh(up), transpose(layer.ffn_down))

    pooled = mean(layer_norm(x), axis=0)
    result.logits = add(matmul(model.head_weight, pooled), model.head_bias)
    return result


def task_loss(logits: Value, label: int) -> Value:
    """Cross-entropy against the gold answer class."""
    return cross_entropy(logits, label)
