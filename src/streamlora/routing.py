"""Two-stage expert routing: instruction-level selection, token-level weighting.

Stage one reads only the pooled instruction embedding. A linear gate turns
it into a distribution p over the N experts and the top-K entries form the
active subset for the whole sample, so every token of a sample works with
the same few experts.

Stage two weights the active experts per token. Each token's hidden state
is projected to a query, the pooled instruction embedding to a key, and the
key is modulated elementwise by a learned feature vector per expert; the
scaled dot products are softmaxed over the subset only. Experts outside the
subset keep exactly zero weight and receive no gradient.

Selection itself is a hard top-K, so the gate gets its gradient through a
straight-through factor: the weights used downstream are s * (1 + p -
detach(p)), which is bit-identical to s in the forward pass but leaks the
task gradient into the gate matrix on the backward pass (Bengio et al.
2013, arXiv:1308.3432).

Every function routes a batch: hidden states (B, L, d_hidden), pooled
instruction embeddings (B, d_e), and the subsets as one (B, N) boolean
mask, one row per sample (the masked dispatch of sparse MoE layers, Fedus
et al. 2021, arXiv:2101.03961). That mask is the only subset format, from
`select_experts` through the adapters to the regularizer. A lone sample is
a batch of one.

The routing functions return plain tuples; `model.SiteRecord` is the one
record a site's routing outcome is kept in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import (
    Value,
    masked_softmax,
    matmul,
    mean,
    mul,
    reshape,
    softmax,
    transpose,
)


@dataclass
class RoutingState:
    """Per-site router parameters.

    select: (N, d_e) gate producing the sample-level distribution.
    query:  (D, d_hidden) token projection for stage two.
    key:    (D, d_e) instruction projection for stage two.
    experts: (N, D) one feature row per expert, modulating the key.

    Any of them may instead hold n copies of itself, (n, 1, *shape), that
    broadcast over the batch (the gradient audit probes several perturbed
    copies in one forward this way).
    """

    select: Value
    query: Value
    key: Value
    experts: Value

    @property
    def n_experts(self) -> int:
        return self.experts.data.shape[-2]

    @property
    def routing_dim(self) -> int:
        return self.experts.data.shape[-1]


def init_routing_state(
    n_experts: int,
    d_e: int,
    d_hidden: int,
    routing_dim: int,
    rng: np.random.Generator,
) -> RoutingState:
    """Uniform init for the projections, unit-norm rows for expert features."""
    if min(n_experts, d_e, d_hidden, routing_dim) < 1:
        raise ValueError("all routing dimensions must be positive")
    gate = rng.uniform(-1.0 / np.sqrt(d_e), 1.0 / np.sqrt(d_e), size=(n_experts, d_e))
    query = rng.uniform(-1.0 / np.sqrt(d_hidden), 1.0 / np.sqrt(d_hidden), size=(routing_dim, d_hidden))
    key = rng.uniform(-1.0 / np.sqrt(d_e), 1.0 / np.sqrt(d_e), size=(routing_dim, d_e))
    feats = rng.normal(size=(n_experts, routing_dim))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    return RoutingState(select=Value(gate), query=Value(query), key=Value(key), experts=Value(feats))


def pool_text(instruction_emb: Value) -> Value:
    """Mean over instruction token embeddings, each sample's text summary:
    (B, T, d_e) -> (B, d_e)."""
    if instruction_emb.data.ndim != 3 or instruction_emb.data.shape[-2] == 0:
        raise ValueError(f"need a non-empty (B, tokens, d_e) embedding batch, "
                         f"got shape {instruction_emb.data.shape}")
    return mean(instruction_emb, axis=-2)


def per_token(v: Value) -> Value:
    """(..., N) -> (..., 1, N): one row per sample that broadcasts over its
    tokens."""
    return reshape(v, v.data.shape[:-1] + (1, v.data.shape[-1]))


def project(x: Value, weight: Value) -> Value:
    """x W^T for pooled vectors x, (B, d). A weight holding n
    copies, (n, 1, k, d), meets every row with each copy, (n, B, k); the
    rows are lifted to (B, 1, d) only then, because one (B, d) @ (d, k)
    product and B row products differ in the last bits."""
    if weight.data.ndim == 2:
        return matmul(x, transpose(weight))
    out = matmul(per_token(x), transpose(weight))                   # (B, 1, k)
    return reshape(out, out.data.shape[:-2] + out.data.shape[-1:])


def check_mask(mask: np.ndarray, n_experts: int) -> np.ndarray:
    """Return `mask` after checking that it is a boolean subset mask over
    the N experts, (B, N) (with any leading copy axes), with no empty row."""
    if getattr(mask, "dtype", None) != bool:
        got = getattr(mask, "dtype", type(mask).__name__)
        raise ValueError(f"a routing subset must be a boolean mask, got {got}")
    if mask.ndim < 2:
        raise ValueError(f"expected a (B, N) subset mask, got shape {mask.shape}")
    if mask.shape[-1] != n_experts:
        raise ValueError(f"subset mask covers {mask.shape[-1]} experts, not {n_experts}")
    if not mask.any(axis=-1).all():
        raise ValueError("empty routing subset")
    return mask


def subset_indices(mask: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Each sample's selected experts as ascending indices, one tuple per
    row of a (B, N) mask."""
    if mask.ndim != 2:
        raise ValueError(f"expected a (B, N) subset mask, got shape {mask.shape}")
    return tuple(tuple(int(j) for j in np.flatnonzero(row)) for row in mask)


def select_experts(state: RoutingState, x_text: Value, top_k: int) -> tuple[Value, np.ndarray]:
    """Stage one: softmax gate over experts, keep the top-K.

    Ties are broken toward the lower expert index (stable sort on the
    negated probabilities, one per sample). Returns the full distribution
    and the subset as a boolean mask of the same shape.
    """
    n = state.n_experts
    if not 1 <= top_k <= n:
        raise ValueError(f"top_k must be in [1, {n}], got {top_k}")
    probs = softmax(project(x_text, state.select))
    order = np.argsort(-probs.data, axis=-1, kind="stable")
    rank = np.argsort(order, axis=-1, kind="stable")        # each expert's place in that order
    return probs, rank < top_k


def token_logits(state: RoutingState, hidden: Value, x_text: Value) -> Value:
    """Stage-two scores for every (token, expert) pair.

    score[b, l, j] = (query(h_bl) . (key(x_text_b) * e_j)) / sqrt(D) for
    hidden states (B, L, d_hidden). Scores of experts outside a sample's
    subset are computed too; `token_weights` masks them out, so they never
    materialize as infinities.
    """
    if hidden.data.ndim < 3:
        raise ValueError(f"hidden must be a (B, tokens, d_hidden) batch, got shape {hidden.data.shape}")
    text_key = project(x_text, state.key)                           # (B, D)
    keys = mul(state.experts, per_token(text_key))                  # (B, N, D)
    queries = matmul(hidden, transpose(state.query))                # (B, L, D)
    scale = 1.0 / np.sqrt(state.routing_dim)
    return mul(matmul(queries, transpose(keys)), Value(scale))


def token_weights(logits: Value, mask: np.ndarray) -> Value:
    """Stage two: per-token softmax of (B, L, N) scores restricted to each
    sample's subset, a (B, N) mask."""
    return masked_softmax(logits, check_mask(mask, logits.data.shape[-1])[..., None, :])


def route_with_straight_through(
    state: RoutingState,
    hidden: Value,
    x_text: Value,
    top_k: int,
    mask: np.ndarray | None = None,
    detached_probs: np.ndarray | None = None,
) -> tuple[Value, np.ndarray, Value, Value]:
    """Full two-stage routing for a batch at one site.

    Returns `(probs, mask, weights, gate)`: the (B, N) stage-one
    distributions p, the (B, N) subset mask, the (B, L, N) stage-two
    weights (zero off each subset), and the (B, N) straight-through gate.
    The gate multiplies each token weight by 1 + p_j - detach(p_j). The
    parenthesized difference is computed first and is exactly zero in the
    forward pass, so the gate is exactly 1; only the backward pass sees the
    extra path into the selection gate. `mask` and `detached_probs` pin
    the top-K choice and detach(p) to given values: the gradient audit
    holds them at their baseline so probing a parameter cannot move them
    (off baseline the gate is then no longer exactly 1).
    """
    probs, selected = select_experts(state, x_text, top_k)
    mask = selected if mask is None else mask
    detached = probs.detach() if detached_probs is None else Value(detached_probs)
    weights = token_weights(token_logits(state, hidden, x_text), mask)
    return probs, mask, weights, Value(1.0) + (probs - detached)
