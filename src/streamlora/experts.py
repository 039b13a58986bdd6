"""Banks of low-rank adapters sharing one frozen base projection.

Each adapted projection site owns a bank: the frozen base matrix W0 plus N
independent rank-r adapter pairs (down projection A, up projection B). An
adapter's contribution to one token's hidden state h is B @ (A @ h), and
the bank combines expert contributions with routing weights supplied by
the caller:

    out = W0 h + sum_{j in subset} w_j * B_j (A_j h)

A batch of token matrices (B, L, d_in) comes with the router's subsets as
one (B, N) boolean mask, one row per sample. It is served by one product
over the union of those subsets: the factors of the union's experts are
concatenated at forward time (so in-place parameter edits are always
seen), and every sample weights the experts outside its own subset by
exactly zero.

A is initialized uniform in [-1/sqrt(d_in), 1/sqrt(d_in)] and B starts at
zero, so a fresh bank is exactly the frozen base regardless of routing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autograd import Value, _last_sum, concat, matmul, mul, transpose
from .routing import check_mask, per_token

WEIGHT_SUM_TOL = 1e-6


@dataclass
class ExpertBank:
    """Frozen base projection plus N low-rank adapter pairs."""

    n_experts: int
    rank: int
    base: Value                  # (d_out, d_in), frozen
    down: list[Value] = field(default_factory=list)  # each (rank, d_in)
    up: list[Value] = field(default_factory=list)    # each (d_out, rank)


def init_expert_bank(
    n_experts: int,
    rank: int,
    d_in: int,
    d_out: int,
    rng: np.random.Generator,
    base: np.ndarray | Value,
) -> ExpertBank:
    """Build a bank around the backbone's frozen (d_out, d_in) `base`
    with the standard low-rank init, drawn from `rng`."""
    if n_experts < 1:
        raise ValueError("need at least one expert")
    if not 0 < rank < min(d_in, d_out):
        raise ValueError(f"rank must be in (0, {min(d_in, d_out)}), got {rank}")
    base_v = base if isinstance(base, Value) else Value(np.asarray(base, dtype=np.float64))
    if base_v.data.shape != (d_out, d_in):
        raise ValueError(f"base shape {base_v.data.shape} != ({d_out}, {d_in})")

    bound = 1.0 / np.sqrt(d_in)
    down = [Value(rng.uniform(-bound, bound, size=(rank, d_in))) for _ in range(n_experts)]
    up = [Value(np.zeros((d_out, rank))) for _ in range(n_experts)]
    return ExpertBank(n_experts=n_experts, rank=rank, base=base_v, down=down, up=up)


def lora_delta(bank: ExpertBank, experts: Sequence[int], h: Value, weights: Value) -> Value:
    """Weighted low-rank correction of a batch of token matrices h
    (B, L, d_in) by the listed experts: sum_j w_j h A_j^T B_j^T.

    `weights` (B, L, N) or (B, 1, N) holds w_j for every expert of the
    bank, per token or broadcast over tokens. The listed factors are
    concatenated along the rank axis, so any number of experts costs two
    products, and the weights scale the rank-space activations in between.
    A factor may hold n copies of itself, (n, 1, r, d_in) or
    (n, 1, d_out, r); the concatenation broadcasts the others and the
    result gains the copy axis, (n, B, L, d_out).
    """
    experts = [int(j) for j in experts]
    if not experts or min(experts) < 0 or max(experts) >= bank.n_experts:
        raise ValueError(f"expert index out of range for a bank of {bank.n_experts}")
    if h.data.ndim < 3:
        raise ValueError(f"hidden state must be a (B, tokens, d_in) batch, got shape {h.data.shape}")
    down = concat([bank.down[j] for j in experts], axis=-2)        # (U r, d_in)
    up = concat([bank.up[j] for j in experts], axis=-1)            # (d_out, U r)
    # a 0/1 (N, U r) matrix copies w_j onto expert j's r columns, exactly
    spread = np.zeros((bank.n_experts, len(experts) * bank.rank))
    for u, j in enumerate(experts):
        spread[j, u * bank.rank : (u + 1) * bank.rank] = 1.0
    z = mul(matmul(h, transpose(down)), matmul(weights, Value(spread)))   # (..., L, U r)
    return matmul(z, transpose(up))


def _check_weights(weights: Value, mask: np.ndarray, n_experts: int) -> None:
    w = weights.data
    if w.shape[-1] != n_experts:
        raise ValueError(f"weights last axis {w.shape[-1]} != n_experts {n_experts}")
    if np.any((w != 0.0) & ~mask[..., None, :]):
        raise ValueError("routing weights nonzero outside the selected subset")
    if (np.abs(_last_sum(w) - 1.0) > WEIGHT_SUM_TOL).any():
        raise ValueError("unnormalized routing weights")


def adapted_forward(
    bank: ExpertBank,
    h: Value,
    weights: Value,
    mask: np.ndarray,
    gate: Value | None = None,
) -> Value:
    """Base projection plus the routed low-rank corrections to a batch of
    token matrices h (B, L, d_in).

    `mask` is the router's (B, N) boolean subset mask. `weights` is per
    token, (B, L, N), or one distribution per sample broadcast over its
    tokens, (B, 1, N). Off-subset entries must be exactly zero and each
    distribution must sum to one. Experts outside every sample's subset
    are never touched, so their adapters get no gradient. A `gate`
    (B, N), the straight-through factor, scales the weights after that
    check.
    """
    mask = check_mask(mask, bank.n_experts)
    _check_weights(weights, mask, bank.n_experts)
    if h.data.ndim < 3:
        raise ValueError(f"hidden state must be a (B, tokens, d_in) batch, got shape {h.data.shape}")
    if gate is not None:
        weights = mul(weights, per_token(gate))
    union = np.flatnonzero(mask.reshape(-1, bank.n_experts).any(axis=0))
    return matmul(h, transpose(bank.base)) + lora_delta(bank, union, h, weights)
