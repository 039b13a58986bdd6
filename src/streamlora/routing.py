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

Every function routes one sample or a batch of them. One sample has hidden
states (L, d_hidden), a pooled instruction embedding (d_e,) and a subset
given as expert indices or an (N,) mask; a batch adds a leading axis B to
each, and its subsets are one (B, N) boolean mask, one row per sample (the
masked dispatch of sparse MoE layers, Fedus et al. 2021, arXiv:2101.03961).
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


@dataclass
class RoutingDecision:
    """Everything the routing of one sample, or of a batch, produced at one
    site; a batch adds a leading axis B to every array."""

    sample_probs: Value          # (N,) stage-one distribution p
    mask: np.ndarray             # (N,) selected experts
    token_weights: Value         # (L, N) stage-two distributions, zero off subset
    token_logits: Value          # (L, N) raw stage-two scores before masking
    gate: Value                  # (N,) straight-through factor 1 + p - detach(p)

    @property
    def subset(self) -> tuple:
        """The selected experts as ascending indices (one tuple per sample
        for a batch)."""
        return subset_indices(self.mask)

    @property
    def gated_weights(self) -> Value:
        """(L, N) straight-through product used downstream."""
        return mul(self.token_weights, per_token(self.gate))


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
    """Mean over instruction token embeddings, the sample's text summary:
    (T, d_e) -> (d_e,), or (B, T, d_e) -> (B, d_e)."""
    if instruction_emb.data.ndim < 2 or instruction_emb.data.shape[-2] == 0:
        raise ValueError("need a non-empty (tokens, d_e) embedding matrix")
    return mean(instruction_emb, axis=-2)


def per_token(v: Value) -> Value:
    """(..., N) -> (..., 1, N): one row per sample that broadcasts over its
    tokens."""
    return reshape(v, v.data.shape[:-1] + (1, v.data.shape[-1]))


def project(x: Value, weight: Value) -> Value:
    """x W^T for pooled vectors x, (d,) or (B, d). A weight holding n
    copies, (n, 1, k, d), meets every row with each copy, (n, B, k); the
    rows are lifted to (B, 1, d) only then, because one (B, d) @ (d, k)
    product and B row products differ in the last bits."""
    if weight.data.ndim == 2:
        return matmul(x, transpose(weight))
    out = matmul(per_token(x), transpose(weight))                   # (B, 1, k)
    return reshape(out, out.data.shape[:-2] + out.data.shape[-1:])


def subset_mask(subset, n_experts: int) -> np.ndarray:
    """Boolean membership over the N experts. `subset` is one sample's
    expert indices, giving an (N,) mask, or a boolean mask already (one
    row per sample), which is checked and returned as is."""
    if isinstance(subset, np.ndarray) and subset.dtype == bool:
        if subset.shape[-1] != n_experts:
            raise ValueError(f"subset mask covers {subset.shape[-1]} experts, not {n_experts}")
        mask = subset
    else:
        mask = np.zeros(n_experts, dtype=bool)
        for j in subset:
            if not 0 <= j < n_experts:
                raise ValueError(f"subset index out of range: {j} not in [0, {n_experts})")
            mask[j] = True
    if not mask.any(axis=-1).all():
        raise ValueError("empty routing subset")
    return mask


def subset_indices(mask: np.ndarray) -> tuple:
    """Ascending expert indices of an (N,) mask; one tuple per row of a
    (B, N) mask."""
    if mask.ndim == 1:
        return tuple(int(j) for j in np.flatnonzero(mask))
    return tuple(subset_indices(row) for row in mask)


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


def token_logits(state: RoutingState, hidden: Value, x_text: Value, subset) -> Value:
    """Stage-two scores for every (token, expert) pair.

    score[l, j] = (query(h_l) . (key(x_text) * e_j)) / sqrt(D). The subset
    only gates what happens next; scores for inactive experts are computed
    but masked out by `token_weights`, never materialized as infinities.
    """
    subset_mask(subset, state.n_experts)
    if hidden.data.ndim < 2:
        raise ValueError("hidden must be a (tokens, d_hidden) matrix")
    text_key = project(x_text, state.key)                           # (D,) or (B, D)
    keys = mul(state.experts, per_token(text_key))                  # (N, D) or (B, N, D)
    queries = matmul(hidden, transpose(state.query))                # (L, D) or (B, L, D)
    scale = 1.0 / np.sqrt(state.routing_dim)
    return mul(matmul(queries, transpose(keys)), Value(scale))


def token_weights(logits: Value, subset, n_experts: int) -> Value:
    """Stage two: per-token softmax restricted to the subset."""
    return masked_softmax(logits, subset_mask(subset, n_experts)[..., None, :])


def route_with_straight_through(
    state: RoutingState,
    hidden: Value,
    x_text: Value,
    top_k: int,
    subset=None,
    detached_probs: np.ndarray | None = None,
) -> RoutingDecision:
    """Full two-stage routing for one sample (or a batch) at one site.

    The gate multiplies each token weight by 1 + p_j - detach(p_j). The
    parenthesized difference is computed first and is exactly zero in the
    forward pass, so the gate is exactly 1; only the backward pass sees the
    extra path into the selection gate. `subset` and `detached_probs` pin
    the top-K choice and detach(p) to given values: the gradient audit
    holds them at their baseline so probing a parameter cannot move them
    (off baseline the gate is then no longer exactly 1).
    """
    probs, mask = select_experts(state, x_text, top_k)
    if subset is not None:
        mask = subset_mask(subset, state.n_experts)
    detached = probs.detach() if detached_probs is None else Value(detached_probs)
    logits = token_logits(state, hidden, x_text, mask)
    weights = token_weights(logits, mask, state.n_experts)
    return RoutingDecision(
        sample_probs=probs,
        mask=mask,
        token_weights=weights,
        token_logits=logits,
        gate=Value(1.0) + (probs - detached),
    )
