"""Reference computations that the unit suites and the acceptance criteria
both check the package against. Each is written from the definitions, not
from the package's code. pytest does not collect this file: its name does
not start with `test_`.
"""

import numpy as np

from streamlora.experts import init_expert_bank


def live_bank(n_experts, d_hidden, rng):
    """A rank-1 bank whose adapters all start nonzero, so any change in
    the routing weights shows in its output."""
    bank = init_expert_bank(n_experts, 1, d_hidden, d_hidden, rng,
                            base=rng.normal(size=(d_hidden, d_hidden)))
    for up in bank.up:
        up.data = rng.normal(size=up.data.shape)
    return bank


def weight_matrix(rng, n_tokens, mask):
    """Random (1, tokens, N) distributions supported on the (1, N) mask of
    a batch of one."""
    w = np.zeros((1, n_tokens, mask.shape[-1]))
    raw = rng.uniform(0.1, 1.0, size=(n_tokens, int(mask.sum())))
    w[0][:, mask[0]] = raw / raw.sum(axis=1, keepdims=True)
    return w


def brute_force(chunks, histories):
    """Every row of `MetricLedger.rows()`, in order, recomputed straight
    from the definitions. `chunks` are the evaluated chunk ids in order;
    dataset m is evaluated at the last len(histories[m]) of them, with
    accuracies histories[m]."""
    rows = []
    for k, t in enumerate(chunks):
        aps, afs = [], []
        for m in sorted(histories):
            first = len(chunks) - len(histories[m])
            if first > k:
                continue
            hist = histories[m][: k - first + 1]
            drops = []
            for i in range(len(hist)):
                if i == 0:
                    drops.append(0.0)
                else:
                    best = max(hist[:i])
                    drops.append(max(0.0, (best - hist[i]) / best) if best > 0 else 0.0)
            ap = sum(hist) / len(hist)
            af = sum(drops) / len(drops)
            rows.append({"t": t, "m": m, "a": hist[-1], "F": drops[-1], "AP": ap, "AF": af})
            aps.append(ap)
            afs.append(af)
        rows.append({"t": t, "m": None, "MAP": sum(aps) / len(aps), "MAF": sum(afs) / len(afs)})
    return rows


def gram_cka(x, y):
    """Linear CKA by an independent route: centered Gram matrices and a
    Frobenius inner product."""
    n = x.shape[0]
    h = np.eye(n) - np.full((n, n), 1.0 / n)
    kc = h @ (x @ x.T) @ h
    lc = h @ (y @ y.T) @ h
    return float((kc * lc).sum() / (np.linalg.norm(kc) * np.linalg.norm(lc)))


def masked_softmax_reference(logits, mask):
    """`masked_softmax_np` written with numpy's own last-axis reductions."""
    x = np.asarray(logits, dtype=np.float64)
    if mask is not None:
        x = np.where(mask, x, -np.inf)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def masked_softmax_grad_reference(probs, g):
    """The softmax backward: the gradient `g` of softmax output `probs`
    taken back to the logits."""
    return probs * (g - (g * probs).sum(axis=-1, keepdims=True))


def cross_entropy_reference(x, target, g):
    """Per-row cross-entropy of logits `x` against `target` as
    logsumexp - picked logit, and the gradient `g` of those losses taken
    back to the logits, softmax minus onehot."""
    t = np.asarray(target, dtype=np.intp)
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    total = e.sum(axis=-1, keepdims=True)
    picked = np.take_along_axis(x, np.broadcast_to(t[..., None], x.shape[:-1] + (1,)), axis=-1)
    onehot = np.arange(x.shape[-1]) == t[..., None]
    return (m + np.log(total) - picked)[..., 0], g[..., None] * (e / total - onehot)
