"""Routing stability via an EMA shadow of the stage-two router.

After every optimizer step the shadow takes a convex step toward the live
parameters: shadow = beta * shadow + (1 - beta) * live. The shadow covers
the token-weighting parameters only (query, key, expert features); the
selection gate is deliberately left out, since the subset is recomputed
live and the regularizer conditions on it.

The regularizer reruns stage two (the same `routing.token_logits` and
`routing.token_weights` the live router runs) with the shadow parameters
over the subsets the live router chose, (B, N) boolean masks like every
subset in the package, under `no_grad`, and penalizes
KL(reference || live) per token. Gradients therefore flow into the live
token weights only; the shadow is a pure target.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .autograd import Value, log, mul, no_grad, vsum
from .routing import RoutingState, check_mask, token_logits, token_weights

LOG_FLOOR = 1e-12

# shadow record keys, mirroring RoutingState field names
_TRACKED = ("query", "key", "experts")


class EmaShadow:
    """Exponential moving average of every site's token-weighting router."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        self.arrays = arrays
        self.updates = 0

    @classmethod
    def from_states(cls, states: Mapping[str, RoutingState]) -> "EmaShadow":
        """Start as an exact copy of the live parameters."""
        arrays = {}
        for site, state in states.items():
            for name in _TRACKED:
                arrays[f"{site}.{name}"] = getattr(state, name).data.copy()
        return cls(arrays)

    def site_arrays(self, site: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        try:
            return tuple(self.arrays[f"{site}.{name}"] for name in _TRACKED)
        except KeyError as exc:
            raise KeyError(f"shadow has no site {site!r}") from exc


def ema_update(shadow: EmaShadow, states: Mapping[str, RoutingState], beta: float) -> None:
    """One decay step toward the live parameters; call after each optimizer step."""
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {beta}")
    for site, state in states.items():
        for name in _TRACKED:
            key = f"{site}.{name}"
            if key not in shadow.arrays:
                raise KeyError(f"shadow has no entry for {key}")
            target = getattr(state, name).data
            current = shadow.arrays[key]
            if current.shape != target.shape:
                raise ValueError(
                    f"shape mismatch for {key}: shadow {current.shape} vs live {target.shape}"
                )
            current *= beta
            current += (1.0 - beta) * target
    shadow.updates += 1


def reference_weights(
    shadow: EmaShadow,
    site: str,
    hidden: np.ndarray,
    x_text: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Stage-two weights recomputed with the shadow parameters over the
    live subsets, a (B, N) mask.

    Runs the live router's own stage two on the shadow arrays, so a shadow
    that still equals the live parameters reproduces the live weights
    bit-exactly. Takes the same shapes as the router. Plain numpy in,
    plain numpy out: nothing here ever joins the autodiff graph.
    """
    query, key, experts = shadow.site_arrays(site)
    # stage two never reads the selection gate, which the shadow does not track
    state = RoutingState(select=None, query=Value(query), key=Value(key), experts=Value(experts))
    with no_grad():
        return token_weights(token_logits(state, Value(hidden), Value(x_text)), mask).data


def reg_loss(reference: np.ndarray, live: Value, mask: np.ndarray) -> Value:
    """Mean per-token KL(reference || live) over the subset.

    Both inputs are (B, tokens, N), with zeros outside each sample's
    subset, a row of the (B, N) `mask`. The mean runs over every token of
    every sample. Live weights may carry leading copy
    axes beyond the reference's shape, (n, B, tokens, N); each copy then
    gets its own mean, an (n,) value. The reference term is a constant, so
    the whole gradient lands on the live weights through the log. Live
    entries are clamped at 1e-12 inside the log; off-subset columns
    contribute exactly zero because the reference is zero there.
    """
    ref = np.asarray(reference, dtype=np.float64)
    if ref.ndim < 3:
        raise ValueError(f"expected (B, tokens, n_experts) reference weights, got shape {ref.shape}")
    if live.data.shape[max(live.data.ndim - ref.ndim, 0):] != ref.shape:
        raise ValueError(f"shape mismatch: reference {ref.shape} vs live {live.data.shape}")
    n_experts = ref.shape[-1]
    off = ~check_mask(mask, n_experts)[..., None, :]
    if np.any((ref != 0.0) & off) or np.any((live.data != 0.0) & off):
        raise ValueError("weight support disagrees with the routing subset")

    # sum_l sum_j ref * log(ref) is a constant; only the cross term needs ops
    ref_entropy = float(np.sum(np.where(ref > 0.0, ref * np.log(np.maximum(ref, LOG_FLOOR)), 0.0)))
    cross_terms = mul(Value(ref), log(live, floor=LOG_FLOOR))
    cross = vsum(cross_terms, axis=tuple(range(-ref.ndim, 0)))
    kl_total = Value(ref_entropy) - cross
    return kl_total * (n_experts / ref.size)      # 1 / tokens


def total_loss(task: Value, reg: Value | None, weight: float) -> Value:
    """task + weight * reg; with weight 0 (or no reg term) it is exactly task."""
    if weight < 0.0:
        raise ValueError(f"regularizer weight must be non-negative, got {weight}")
    if reg is None or weight == 0.0:
        return task
    return task + mul(Value(weight), reg)
