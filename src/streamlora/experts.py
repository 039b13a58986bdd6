"""Banks of low-rank adapters sharing one frozen base projection.

Each adapted projection site owns a bank: the frozen base matrix W0 plus N
independent rank-r adapter pairs (down projection A, up projection B). An
adapter's contribution to one token's hidden state h is B @ (A @ h), and
the bank combines expert contributions with routing weights supplied by
the caller:

    out = W0 h + sum_{j in subset} w_j * B_j (A_j h)

A is initialized uniform in [-1/sqrt(d_in), 1/sqrt(d_in)] and B starts at
zero, so a fresh bank is exactly the frozen base regardless of routing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autograd import Value, cols, matmul, mul, pick, transpose

WEIGHT_SUM_TOL = 1e-6


@dataclass
class ExpertBank:
    """Frozen base projection plus N low-rank adapter pairs."""

    n_experts: int
    rank: int
    base: Value                  # (d_out, d_in), frozen
    down: list[Value] = field(default_factory=list)  # each (rank, d_in)
    up: list[Value] = field(default_factory=list)    # each (d_out, rank)

    @property
    def d_in(self) -> int:
        return self.base.data.shape[1]

    @property
    def d_out(self) -> int:
        return self.base.data.shape[0]


def init_expert_bank(
    n_experts: int,
    rank: int,
    d_in: int,
    d_out: int,
    rng: np.random.Generator,
    base: np.ndarray | Value | None = None,
) -> ExpertBank:
    """Build a bank with the standard low-rank init.

    The base matrix is normally handed in by the backbone; when omitted a
    frozen random one is drawn from `rng`, which is only useful for tests.
    """
    if n_experts < 1:
        raise ValueError("need at least one expert")
    if not 0 < rank < min(d_in, d_out):
        raise ValueError(f"rank must be in (0, {min(d_in, d_out)}), got {rank}")
    if base is None:
        bound = 1.0 / np.sqrt(d_in)
        base = rng.uniform(-bound, bound, size=(d_out, d_in))
    base_v = base if isinstance(base, Value) else Value(np.asarray(base, dtype=np.float64))
    if base_v.data.shape != (d_out, d_in):
        raise ValueError(f"base shape {base_v.data.shape} != ({d_out}, {d_in})")

    bound = 1.0 / np.sqrt(d_in)
    down = [Value(rng.uniform(-bound, bound, size=(rank, d_in))) for _ in range(n_experts)]
    up = [Value(np.zeros((d_out, rank))) for _ in range(n_experts)]
    return ExpertBank(n_experts=n_experts, rank=rank, base=base_v, down=down, up=up)


def lora_delta(bank: ExpertBank, expert: int, h: Value) -> Value:
    """Contribution of one adapter to a token matrix h (L, d_in): every row
    is right-multiplied by the transposed factors, h A_j^T B_j^T."""
    if not 0 <= expert < bank.n_experts:
        raise ValueError(f"expert index {expert} out of range")
    if h.data.ndim != 2:
        raise ValueError("hidden state must be a (tokens, d_in) matrix")
    return matmul(matmul(h, transpose(bank.down[expert])), transpose(bank.up[expert]))


def _check_weights(weights: Value, subset: Sequence[int], n_experts: int) -> None:
    w = weights.data
    if w.shape[-1] != n_experts:
        raise ValueError(f"weights last axis {w.shape[-1]} != n_experts {n_experts}")
    off = np.ones(n_experts, dtype=bool)
    off[subset] = False
    if w[..., off].any():
        raise ValueError("routing weights nonzero outside the selected subset")
    if (np.abs(w.sum(axis=-1) - 1.0) > WEIGHT_SUM_TOL).any():
        raise ValueError("unnormalized routing weights")


def adapted_forward(
    bank: ExpertBank,
    h: Value,
    weights: Value,
    subset: Sequence[int],
    gate: Value | None = None,
) -> Value:
    """Base projection plus the routed low-rank corrections to a token
    matrix h (L, d_in).

    `weights` is either one distribution over experts, shape (N,), applied
    to every token, or a per-token matrix (L, N). Off-subset entries must
    be exactly zero and each distribution must sum to one; the bank never
    touches experts outside `subset`, so their adapters get no gradient.
    An (N,) `gate`, the straight-through factor, scales the weights after
    that check.
    """
    subset = sorted(set(int(j) for j in subset))
    if not subset:
        raise ValueError("empty routing subset")
    if subset[0] < 0 or subset[-1] >= bank.n_experts:
        raise ValueError("subset index out of range")
    _check_weights(weights, subset, bank.n_experts)
    if h.data.ndim != 2:
        raise ValueError("hidden state must be a (tokens, d_in) matrix")
    if gate is not None:
        weights = mul(weights, gate)

    out = matmul(h, transpose(bank.base))
    for j in subset:
        if weights.data.ndim == 1:
            w_j = pick(weights, j)          # scalar, same for every token
        else:
            w_j = cols(weights, j, j + 1)   # (L, 1), broadcasts over d_out
        out = out + mul(w_j, lora_delta(bank, j, h))
    return out
