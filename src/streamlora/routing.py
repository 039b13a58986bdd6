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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autograd import (
    Value,
    masked_softmax,
    matmul,
    mean,
    mul,
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
    """

    select: Value
    query: Value
    key: Value
    experts: Value

    @property
    def n_experts(self) -> int:
        return self.experts.data.shape[0]

    @property
    def routing_dim(self) -> int:
        return self.experts.data.shape[1]


@dataclass
class RoutingDecision:
    """Everything one sample's routing produced at one site."""

    sample_probs: Value          # (N,) stage-one distribution p
    subset: tuple[int, ...]      # selected expert indices, ascending
    token_weights: Value         # (L, N) stage-two distributions, zero off subset
    token_logits: Value          # (L, N) raw stage-two scores before masking
    gate: Value                  # (N,) straight-through factor 1 + p - detach(p)

    @property
    def gated_weights(self) -> Value:
        """(L, N) straight-through product used downstream."""
        return mul(self.token_weights, self.gate)


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
    """Mean over instruction token embeddings, the sample's text summary."""
    if instruction_emb.data.ndim != 2 or instruction_emb.data.shape[0] == 0:
        raise ValueError("need a non-empty (tokens, d_e) embedding matrix")
    return mean(instruction_emb, axis=0)


def select_experts(state: RoutingState, x_text: Value, top_k: int) -> tuple[Value, tuple[int, ...]]:
    """Stage one: softmax gate over experts, keep the top-K.

    Ties are broken toward the lower expert index (stable sort on the
    negated probabilities). Returns the full distribution and the subset
    as an ascending tuple.
    """
    n = state.n_experts
    if not 1 <= top_k <= n:
        raise ValueError(f"top_k must be in [1, {n}], got {top_k}")
    logits = matmul(state.select, x_text)
    probs = softmax(logits)
    order = np.argsort(-probs.data, kind="stable")
    subset = tuple(sorted(int(j) for j in order[:top_k]))
    return probs, subset


def token_logits(state: RoutingState, hidden: Value, x_text: Value, subset: Sequence[int]) -> Value:
    """Stage-two scores for every (token, expert) pair.

    score[l, j] = (query(h_l) . (key(x_text) * e_j)) / sqrt(D). The subset
    only gates what happens next; scores for inactive experts are computed
    but masked out by `token_weights`, never materialized as infinities.
    """
    if len(subset) == 0:
        raise ValueError("empty routing subset")
    if hidden.data.ndim != 2:
        raise ValueError("hidden must be a (tokens, d_hidden) matrix")
    keys = mul(state.experts, matmul(state.key, x_text))      # (N, D)
    queries = matmul(hidden, transpose(state.query))          # (L, D)
    scale = 1.0 / np.sqrt(state.routing_dim)
    return mul(matmul(queries, transpose(keys)), Value(scale))


def subset_mask(subset: Sequence[int], n_experts: int) -> np.ndarray:
    mask = np.zeros(n_experts, dtype=bool)
    for j in subset:
        if not 0 <= j < n_experts:
            raise ValueError(f"subset index {j} out of range")
        mask[j] = True
    if not mask.any():
        raise ValueError("empty routing subset")
    return mask


def token_weights(logits: Value, subset: Sequence[int], n_experts: int) -> Value:
    """Stage two: per-token softmax restricted to the subset."""
    return masked_softmax(logits, subset_mask(subset, n_experts))


def route_with_straight_through(
    state: RoutingState,
    hidden: Value,
    x_text: Value,
    top_k: int,
    subset: Sequence[int] | None = None,
    detached_probs: np.ndarray | None = None,
) -> RoutingDecision:
    """Full two-stage routing for one sample at one site.

    The gate multiplies each token weight by 1 + p_j - detach(p_j). The
    parenthesized difference is computed first and is exactly zero in the
    forward pass, so the gate is exactly 1; only the backward pass sees the
    extra path into the selection gate. `subset` and `detached_probs` pin
    the top-K choice and detach(p) to given values: the gradient audit
    holds them at their baseline so probing a parameter cannot move them
    (off baseline the gate is then no longer exactly 1).
    """
    probs, selected = select_experts(state, x_text, top_k)
    subset = selected if subset is None else tuple(subset)
    detached = probs.detach() if detached_probs is None else Value(detached_probs)
    logits = token_logits(state, hidden, x_text, subset)
    weights = token_weights(logits, subset, state.n_experts)
    return RoutingDecision(
        sample_probs=probs,
        subset=subset,
        token_weights=weights,
        token_logits=logits,
        gate=Value(1.0) + (probs - detached),
    )
