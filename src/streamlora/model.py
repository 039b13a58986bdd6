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

`forward` runs a batch: samples that share their visual-token count and
instruction length go through one graph over (B, L, d) tensors, and each
sample is routed on its own (its own top-K subset, its own token weights).
A trainable leaf may hold n copies of itself, (n, 1, *shape), as the
gradient audit's probes do: activations then gain a leading copy axis
where they first meet that leaf. An unpinned forward records the state
it entered each block (a site or the head) with, and a later forward
over the same samples, pinned to it, may start at one block from that
record; the audit's probes start at the probed leaf's block, so nothing
upstream of it runs at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .autograd import (
    ParamStore,
    Value,
    add,
    concat,
    cross_entropy,
    matmul,
    mean,
    mul,
    named_rng,
    powi,
    reshape,
    softmax,
    tanh,
    transpose,
    vsum,
)
from .experts import ExpertBank, adapted_forward, init_expert_bank
from .experts import lora_delta  # noqa: F401  (perfbench/spans.py looks it up here)
from .routing import (
    RoutingState,
    init_routing_state,
    per_token,
    pool_text,
    project,
    route_with_straight_through,
    select_experts,
    subset_indices,
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
        for key, least in (("n_layers", 1), ("d_hidden", 1), ("n_heads", 1),
                           ("vocab_size", 2), ("n_classes", 2)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be at least {least}, got {getattr(self, key)}")
        if self.d_hidden % self.n_heads != 0:
            raise ValueError(f"d_hidden {self.d_hidden} not divisible by n_heads {self.n_heads}")


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


def check_uniform_batch(samples: Sequence[Sample]) -> None:
    """A batch is one stack of arrays: every sample must have the first
    sample's visual-token matrix shape and instruction length. Raises a
    `ValueError` naming the first sample that differs."""
    if isinstance(samples, Sample):
        raise TypeError("expected a sequence of samples; wrap a single sample in a list")
    if len(samples) == 0:
        raise ValueError("empty batch")
    first = samples[0]
    for i, sample in enumerate(samples):
        if (sample.visual.shape != first.visual.shape
                or len(sample.instruction) != len(first.instruction)):
            raise ValueError(
                f"ragged batch: sample {i} ({sample.uid!r}) has visual tokens {sample.visual.shape} "
                f"and {len(sample.instruction)} instruction tokens, sample 0 ({first.uid!r}) has "
                f"{first.visual.shape} and {len(first.instruction)}"
            )


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
    """Routing outcome at one adapter site for a batch of B samples, the
    one record that the regularizer, the trace writer and the gradient
    audit's pins read.

    `weights` is the very `Value` `adapted_forward` applied, before the
    gate: the live stage-two output (B, L, N) wherever the regularizer can
    run, (B, 1, N) rows where weights do not vary by token. The
    regularizer sets `reg` to the term it computed and, unless the record
    was pinned to a baseline record and copied its reference, `reference`
    to the EMA reference it compared against. The site input itself stays
    in the unpinned forward's `ForwardResult.entries`; the record keeps
    only its token count.
    """

    site: str
    mask: np.ndarray                  # (B, N) each sample's subset
    weights: Value                    # as applied, before the gate
    tokens: int                       # L, the site input's token count
    sample_probs: np.ndarray | None   # stage-one distributions (B, N) when present
    reference: np.ndarray | None = None   # (B, L, N) EMA reference weights when regularized
    reg: Value | None = None              # the stability term against `reference`

    @property
    def weights_data(self) -> np.ndarray:
        """The applied weights as a read-only (B, L, N) view, (n, B, L, N)
        when they carry a copy axis: per-sample weights repeat on every
        token."""
        shape = self.mask.shape[:-1] + (self.tokens,) + self.mask.shape[-1:]
        return np.broadcast_to(self.weights.data, np.broadcast_shapes(shape, self.weights.data.shape))

    @property
    def subset(self) -> tuple[tuple[int, ...], ...]:
        """Each sample's subset as ascending expert indices."""
        return subset_indices(self.mask)


@dataclass
class ForwardResult:
    """A forward's logits and site records, and in `entries` the state it
    entered each block with: block name -> (residual stream x, site input,
    number of site records before the block). The site input is the pooled
    stream at the head. A forward pinned to a baseline leaves `entries`
    empty."""

    logits: Value                     # (B, n_classes), (n, B, n_classes) with a copy leaf
    x_text: Value                     # (B, d_e) pooled instruction embeddings
    sites: list[SiteRecord] = field(default_factory=list)
    entries: dict[str, tuple[Value, Value, int]] = field(default_factory=dict)


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
        self.variant = variant

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

        leaves: list[tuple[str, Value]] = []
        if variant.mode != "frozen":
            for i, layer in enumerate(self.layers):
                for site in SITES:
                    bank = layer.banks[site]
                    for j in range(n_experts):
                        leaves.append((f"layer.{i}.{site}.expert.{j}.A", bank.down[j]))
                        leaves.append((f"layer.{i}.{site}.expert.{j}.B", bank.up[j]))
                    if variant.mode == "routed":
                        router = layer.routers[site]
                        for name in ("select", "query", "key", "experts"):
                            leaves.append((f"layer.{i}.{site}.router.{name}", getattr(router, name)))
            leaves += [("head.weight", self.head_weight), ("head.bias", self.head_bias)]
        self.params = ParamStore(leaves)

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
    """Multi-head self attention over (..., L, d) up to (not including) the
    output projection.

    Each of q, k and v splits its last axis into (H, dh) and swaps the head
    axis in front of the tokens, so every head runs in one batched matmul.
    Returns the head outputs joined back into (..., L, d); the adapted
    output projection is applied by the caller so the adapter site sees
    this tensor.
    """
    *lead, d = x.data.shape
    dh = d // n_heads

    def heads(w: Value) -> Value:                        # (..., H, L, dh)
        return transpose(reshape(matmul(x, transpose(w)), (*lead, n_heads, dh)), -3, -2)

    q, k, v = heads(layer.attn_q), heads(layer.attn_k), heads(layer.attn_v)
    scores = mul(matmul(q, transpose(k)), Value(1.0 / np.sqrt(dh)))
    return reshape(transpose(matmul(softmax(scores), v), -3, -2), (*lead, d))


def _site_forward(
    model: Model,
    site_key: str,
    bank: ExpertBank,
    router: RoutingState,
    hidden: Value,
    x_text: Value,
    pinned: SiteRecord | None = None,
) -> tuple[Value, SiteRecord | None]:
    """One adapter site under `model.variant`, for a batch.

    Each routed variant only decides the expert weights, the subsets they
    live on (a (B, N) mask), the straight-through gate (full method
    only), and the stage-one distributions; the bank and the record are
    the same for all of them. `pinned`, a baseline record of this site,
    holds the full method's subsets and detach(p) at their baseline
    values and gives the record its EMA reference. Frozen mode applies
    the bare base projection and records nothing.
    """
    variant = model.variant
    if variant.mode == "frozen":
        return matmul(hidden, transpose(bank.base)), None
    n = bank.n_experts
    mask = np.ones((x_text.data.shape[0], n), dtype=bool)     # every expert, every sample
    gate, probs = None, None
    if variant.mode == "shared_lora":
        weights = Value(np.ones((x_text.data.shape[0], 1, n)))
    elif variant.use_selection and variant.use_token_weighting:
        probs, mask, weights, gate = route_with_straight_through(
            router, hidden, x_text, model.top_k,
            mask=None if pinned is None else pinned.mask,
            detached_probs=None if pinned is None else pinned.sample_probs,
        )
    elif variant.use_selection:
        probs, mask = select_experts(router, x_text, model.top_k)
        kept = mul(probs, Value(mask.astype(np.float64)))
        # renormalized over each sample's subset, one row for all its tokens
        weights = per_token(mul(kept, powi(vsum(kept, axis=-1, keepdims=True), -1.0)))
    elif variant.use_token_weighting:
        weights = token_weights(token_logits(router, hidden, x_text), mask)
    else:
        # dense per-token mixture on the hidden state, no text conditioning
        weights = softmax(matmul(hidden, transpose(router.select)))
    out = adapted_forward(bank, hidden, weights, mask, gate)
    return out, SiteRecord(
        site=site_key,
        mask=mask,
        weights=weights,
        tokens=hidden.data.shape[-2],
        sample_probs=None if probs is None else probs.data,
        reference=None if pinned is None else pinned.reference,
    )


def forward(
    model: Model,
    samples: Sequence[Sample],
    baseline: ForwardResult | None = None,
    start: str | None = None,
) -> ForwardResult:
    """Run a batch of samples through the adapted backbone under
    `model.variant`: one graph over (B, L, d) tensors.

    The samples must share their visual-token count and instruction length
    (`check_uniform_batch`). The pooled instruction embeddings are computed
    once and shared by every router. Each routed site leaves one
    `SiteRecord`, which the regularizer, the trace writer and the audit's
    pins read; frozen mode produces none. Training and evaluation pass
    neither `baseline` nor `start`. `baseline`, an earlier forward's result
    over the same samples, pins every site's subsets, detach(p) and EMA
    reference at its records' values, as the gradient audit holds them
    fixed. `start`, a block name, resumes at that block from the state
    `baseline` entered it with, the parameters upstream of it unchanged:
    the embedding and the blocks before it are skipped and their records
    carried over. Only a forward without `baseline` fills `entries`.
    """
    cfg = model.config
    if start is None:
        check_uniform_batch(samples)
        visual = np.stack([sample.visual for sample in samples])
        if visual.shape[-1] != cfg.d_e:
            raise ValueError(f"visual token width {visual.shape[-1]} != d_e {cfg.d_e}")
        ids = np.array([sample.instruction for sample in samples])
        if ids.min() < 0 or ids.max() >= cfg.vocab_size:
            raise ValueError(f"unknown token id in instruction (vocab size {cfg.vocab_size})")
        instr_emb = Value(model.embed.data[ids])         # (B, T, d_e), the frozen embedding
        x_text = pool_text(instr_emb)                    # (B, d_e)
        x = concat([Value(visual), instr_emb], axis=1)   # (B, L, d)
        result = ForwardResult(logits=None, x_text=x_text)   # logits filled below
    else:
        x, resumed, before = baseline.entries[start]
        x_text = baseline.x_text
        result = ForwardResult(logits=None, x_text=x_text, sites=baseline.sites[:before])
    pins = {rec.site: rec for rec in baseline.sites} if baseline else {}

    def enter(block: str, site_input: Callable[[Value], Value]) -> Value | None:
        """The site input of `block`, or None while a resumed forward skips
        the blocks before `start`."""
        nonlocal start
        if start is None:
            hidden = site_input(x)
        elif start == block:
            hidden, start = resumed, None
        else:
            return None
        # a pinned forward (an audit probe) records none: keeping each block's
        # copy-axis activations to its end made `gradient_audit` about 5% slower
        # (median of 40 interleaved pairs, one CPU of a 2-vCPU host)
        if baseline is None:
            result.entries[block] = (x, hidden, len(result.sites))
        return hidden

    def site(i: int, layer: Layer, name: str, hidden: Value) -> Value:
        site_key = f"layer.{i}.{name}"
        out, record = _site_forward(
            model, site_key, layer.banks[name], layer.routers[name], hidden, x_text, pins.get(site_key),
        )
        if record is not None:
            result.sites.append(record)
        return out

    for i, layer in enumerate(model.layers):
        hidden = enter(f"layer.{i}.attn_out", lambda x: _attention(layer, layer_norm(x), cfg.n_heads))
        if hidden is not None:
            x = x + site(i, layer, "attn_out", hidden)
        hidden = enter(f"layer.{i}.ffn_up", layer_norm)
        if hidden is not None:
            x = x + matmul(tanh(site(i, layer, "ffn_up", hidden)), transpose(layer.ffn_down))

    pooled = enter("head", lambda x: mean(layer_norm(x), axis=-2))   # (B, d) or (n, B, d)
    result.logits = add(project(pooled, model.head_weight), model.head_bias)
    return result


def task_loss(logits: Value, labels) -> Value:
    """Mean cross-entropy against the gold answer classes: (..., B, C)
    logits with B labels, one mean per leading index."""
    return mean(cross_entropy(logits, labels), axis=-1)
