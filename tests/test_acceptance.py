"""The package's acceptance bar, one test per criterion.

Every test prints a single [PASS]/[FAIL] line (visible with `pytest -s`)
before asserting, so a full run yields a readable scorecard. The three
directional criteria share one set of trained runs: four variants, five
seeds each, at the default configuration, plus a control per seed, `full`
with its routers frozen at initialisation. The lines for criteria 6 and 7
print the trained router's margin over that control: their pass
conditions compare architectures, and the margin is what learning adds.
"""

import contextlib
import statistics
import time

import numpy as np
import pytest

from streamlora.autograd import Value
from streamlora.experts import adapted_forward
from streamlora.metrics import MetricLedger, ap_af, cka, forgetting, homogeneity_report
from streamlora.routing import (
    init_routing_state,
    pool_text,
    route_with_straight_through,
    select_experts,
    token_logits,
    token_weights,
)
from streamlora.stability import EmaShadow, ema_update, reference_weights, reg_loss, total_loss
from streamlora.stream import TaskSampler, build_default_stream, make_task_specs, single_pass_stream
from streamlora.trainer import Adam, RunConfig, apply_variant, gradient_audit, run_stream
from oracles import brute_force, gram_cka, live_bank, weight_matrix

SEEDS = (0, 1, 2, 3, 4)
VARIANTS = ("full", "uniform_moe", "shared_lora", "two_stage")
FROZEN_ROUTER = "full, router frozen"


def _report(number: int, name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number} ({name}): {detail}")


def _variant_config(name: str, seed: int) -> RunConfig:
    spec = "p,s" if name == "two_stage" else name
    return apply_variant(RunConfig(seed=seed), spec)


@contextlib.contextmanager
def _routers_frozen():
    """Every `Adam.step` in the block first zeroes the gradient of each
    `router.*` leaf, so the routers never leave their initialisation (their
    moments stay zero, and so does their update)."""
    step = Adam.step

    def frozen_step(self):
        for path, leaf in self.params.items():
            if ".router." in path:
                leaf.grad[...] = 0.0
        step(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Adam, "step", frozen_step)
        yield


@pytest.fixture(scope="module")
def trained_runs():
    t0 = time.perf_counter()
    runs = {
        (name, seed): run_stream(_variant_config(name, seed))
        for name in VARIANTS
        for seed in SEEDS
    }
    elapsed = time.perf_counter() - t0
    with _routers_frozen():
        for seed in SEEDS:
            runs[(FROZEN_ROUTER, seed)] = control = run_stream(_variant_config("full", seed))
            initial = control.config.model().params
            for path, leaf in control.model.params.items():
                assert np.array_equal(leaf.data, initial[path].data) == (".router." in path), path
    return runs, elapsed


def _median_summary(runs, name, index):
    return statistics.median(runs[(name, seed)].summary()[index] for seed in SEEDS)


def _post_stream_cka(result):
    post = [r for r in result.traces if r["chunk"] == result.config.n_chunks + 1]
    return homogeneity_report(post).mean_off_diagonal()


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients match central differences on the audit model
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_audit():
    t0 = time.perf_counter()
    ok, rows = gradient_audit(n_samples=3, epsilon=1e-5, rtol=1e-4)
    elapsed = time.perf_counter() - t0
    worst = max(rows, key=lambda r: r.max_rel_err)
    passed = ok and all(r.ok for r in rows) and elapsed < 60.0
    _report(
        1, "gradient audit", passed,
        f"{len(rows)} parameters, worst rel err {worst.max_rel_err:.2e} "
        f"at {worst.path}, {elapsed:.1f}s",
    )
    assert passed


# ---------------------------------------------------------------------------
# criterion 2: routing invariants over randomized cases
# ---------------------------------------------------------------------------


def test_criterion_2_routing_invariants():
    rng = np.random.default_rng(2024)
    bank_rng = np.random.default_rng(2025)      # kept apart so the routing cases stay fixed
    bad: list[str] = []
    for case in range(1000):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        d_e = int(rng.integers(2, 7))
        d_hidden = int(rng.integers(2, 9))
        d_routing = int(rng.integers(2, 7))
        n_tokens = int(rng.integers(1, 6))
        state = init_routing_state(n, d_e, d_hidden, d_routing, rng)
        hidden = Value(rng.normal(size=(1, n_tokens, d_hidden)))          # a batch of one
        x_text = pool_text(Value(rng.normal(size=(1, int(rng.integers(1, 5)), d_e))))
        probs, mask, live, gate = route_with_straight_through(state, hidden, x_text, k)

        p = probs.data[0]
        order = np.argsort(-p, kind="stable")
        weights = live.data[0]
        subset = tuple(int(j) for j in np.flatnonzero(mask[0]))
        bank = live_bank(n, d_hidden, bank_rng)
        args = (bank, hidden, live, mask)
        checks = {
            "p is a distribution": abs(p.sum() - 1.0) < 1e-12 and np.all(p > 0.0),
            "subset is stable top-k": subset == tuple(sorted(int(j) for j in order[:k])),
            "subset size and order": len(subset) == k and list(subset) == sorted(set(subset)),
            "weight rows normalized": np.allclose(weights.sum(axis=1), 1.0, atol=1e-12),
            "weights vanish off subset": np.all(weights[:, ~mask[0]] == 0.0),
            "gate leaves forward untouched": np.array_equal(
                adapted_forward(*args, gate).data, adapted_forward(*args).data),
        }
        bad.extend(f"case {case}: {label}" for label, held in checks.items() if not held)
    passed = not bad
    _report(2, "routing invariants", passed,
            "1000 randomized cases" if passed else f"{len(bad)} violations, first: {bad[0]}")
    assert passed, bad[:5]


# ---------------------------------------------------------------------------
# criterion 3: the stability regularizer is exact
# ---------------------------------------------------------------------------


def test_criterion_3_regularizer_exactness():
    rng = np.random.default_rng(3)
    bad: list[str] = []

    # fresh shadow reproduces the live weights bit for bit
    for case in range(100):
        n, k = 5, 3
        d_e, d_hidden, d_routing, n_tokens = 4, 6, 5, 3
        state = init_routing_state(n, d_e, d_hidden, d_routing, rng)
        shadow = EmaShadow.from_states({"site": state})
        hidden = rng.normal(size=(1, n_tokens, d_hidden))
        x_text = rng.normal(size=(1, d_e))
        _, mask = select_experts(state, Value(x_text), k)
        live = token_weights(token_logits(state, Value(hidden), Value(x_text)), mask)
        ref = reference_weights(shadow, "site", hidden, x_text, mask)
        if not np.array_equal(ref, live.data):
            bad.append(f"fresh shadow mismatch in case {case}")

    # self-divergence is exactly zero; divergence is never negative
    for case in range(1000):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        mask = np.zeros((1, n), dtype=bool)
        mask[0, rng.choice(n, size=k, replace=False)] = True
        w = weight_matrix(rng, int(rng.integers(1, 5)), mask)
        if float(reg_loss(w, Value(w.copy()), mask).data) != 0.0:
            bad.append(f"self divergence nonzero in case {case}")
        other = weight_matrix(rng, w.shape[1], mask)
        if float(reg_loss(w, Value(other), mask).data) < 0.0:
            bad.append(f"negative divergence in case {case}")

    # ten decay steps against a fixed live target match the closed form
    state = init_routing_state(4, 3, 5, 4, rng)
    states = {"site": state}
    shadow = EmaShadow.from_states(states)
    for arr in shadow.arrays.values():
        arr += rng.normal(scale=0.5, size=arr.shape)
    start = {key: arr.copy() for key, arr in shadow.arrays.items()}
    beta = 0.99
    for _ in range(10):
        ema_update(shadow, states, beta)
    for key, arr in shadow.arrays.items():
        live = state.query.data if key.endswith("query") else (
            state.key.data if key.endswith("key") else state.experts.data)
        expected = live + beta ** 10 * (start[key] - live)
        if not np.allclose(arr, expected, rtol=0, atol=1e-12):
            bad.append(f"EMA closed form violated at {key}")

    # a zero weight (or a missing term) leaves the task loss untouched
    task = Value(1.25)
    reg = Value(0.5)
    if total_loss(task, reg, 0.0) is not task or total_loss(task, None, 0.7) is not task:
        bad.append("zero-weight regularizer is not the identity")

    passed = not bad
    _report(3, "regularizer exactness", passed,
            "fresh-shadow bitwise, self-divergence zero, 1000 nonnegative pairs, "
            "EMA closed form at 1e-12" if passed else bad[0])
    assert passed, bad[:5]


# ---------------------------------------------------------------------------
# criterion 4: the metric ledger matches a brute-force recomputation
# ---------------------------------------------------------------------------


def test_criterion_4_metric_ledger_oracle():
    assert forgetting([0.80, 0.60]) == pytest.approx(0.25, abs=1e-15)
    assert ap_af([0.80, 0.60]) == pytest.approx((0.70, 0.125), abs=1e-15)

    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        n_chunks = int(rng.integers(3, 9))
        n_datasets = int(rng.integers(1, 5))
        first_chunk = {m: int(rng.integers(1, n_chunks + 1)) for m in range(n_datasets)}
        first_chunk[0] = 1
        chunk_ids = np.cumsum(rng.integers(1, 4, size=n_chunks)).tolist()
        histories = {
            m: rng.uniform(0.0, 1.0, size=n_chunks - start + 1).tolist()
            for m, start in first_chunk.items()
        }
        ledger = MetricLedger()
        for k in range(1, n_chunks + 1):
            ledger.add_chunk(chunk_ids[k - 1], {
                m: histories[m][k - first_chunk[m]]
                for m in range(n_datasets) if first_chunk[m] <= k
            })
        got = ledger.rows()
        want = brute_force(chunk_ids, histories)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g["t"] == w["t"] and g["m"] == w["m"]
            for field in ("a", "F", "AP", "AF", "MAP", "MAF"):
                if field in w:
                    worst = max(worst, abs(g[field] - w[field]))
                    assert abs(g[field] - w[field]) <= 1e-12, (field, g, w)
    _report(4, "metric ledger oracle", True,
            f"20 staggered accuracy matrices, max deviation {worst:.1e}")


# ---------------------------------------------------------------------------
# criterion 5: similarity score properties and an independent formulation
# ---------------------------------------------------------------------------


def test_criterion_5_similarity_score():
    rng = np.random.default_rng(5)
    bad: list[str] = []
    worst = 0.0
    for case in range(50):
        n = int(rng.integers(4, 12))
        x = rng.normal(size=(n, int(rng.integers(2, 7))))
        y = rng.normal(size=(n, int(rng.integers(2, 7))))
        s = cka(x, y)
        deviation = abs(s - gram_cka(x, y))
        worst = max(worst, deviation)
        if deviation > 1e-10:
            bad.append(f"case {case}: disagreement with the Gram formulation")
        if not -1e-12 <= s <= 1.0 + 1e-12:
            bad.append(f"case {case}: score {s} outside the unit interval")
        if abs(cka(x, y) - cka(y, x)) > 1e-12:
            bad.append(f"case {case}: asymmetric")
        if abs(cka(x, x) - 1.0) > 1e-12:
            bad.append(f"case {case}: self-similarity is not 1")
        q, _ = np.linalg.qr(rng.normal(size=(x.shape[1], x.shape[1])))
        if abs(cka(x @ q, y) - s) > 1e-10:
            bad.append(f"case {case}: not rotation invariant")
    passed = not bad
    _report(5, "similarity score", passed,
            f"50 cases, max Gram deviation {worst:.1e}" if passed else bad[0])
    assert passed, bad[:5]


# ---------------------------------------------------------------------------
# criterion 6: routing stays task-specific where a dense mixture homogenizes
# ---------------------------------------------------------------------------


def test_criterion_6_routing_homogeneity_contrast(trained_runs):
    runs, elapsed = trained_runs
    full = statistics.median(_post_stream_cka(runs[("full", s)]) for s in SEEDS)
    uniform = statistics.median(_post_stream_cka(runs[("uniform_moe", s)]) for s in SEEDS)
    frozen = statistics.median(_post_stream_cka(runs[(FROZEN_ROUTER, s)]) for s in SEEDS)
    passed = (uniform - full) >= 0.05 and elapsed < 600.0
    _report(6, "routing homogeneity contrast", passed,
            f"median cross-task CKA {full:.3f} (routed) vs {uniform:.3f} (dense), "
            f"gap {uniform - full:.3f}, runs took {elapsed:.0f}s; "
            f"router frozen at init {frozen:.3f}, trained margin {frozen - full:+.3f}")
    assert passed


# ---------------------------------------------------------------------------
# criterion 7: routing reduces forgetting without giving up accuracy
# ---------------------------------------------------------------------------


def test_criterion_7_forgetting_reduction(trained_runs):
    runs, _ = trained_runs
    maf_full = _median_summary(runs, "full", 1)
    maf_uniform = _median_summary(runs, "uniform_moe", 1)
    maf_shared = _median_summary(runs, "shared_lora", 1)
    map_full = _median_summary(runs, "full", 0)
    map_uniform = _median_summary(runs, "uniform_moe", 0)
    maf_frozen = _median_summary(runs, FROZEN_ROUTER, 1)
    map_frozen = _median_summary(runs, FROZEN_ROUTER, 0)
    passed = (
        maf_full < maf_uniform
        and maf_full < maf_shared
        and map_full >= map_uniform - 0.02
    )
    _report(7, "forgetting reduction", passed,
            f"median MAF {maf_full:.4f} (routed) vs {maf_uniform:.4f} (dense) "
            f"and {maf_shared:.4f} (single adapter); "
            f"median MAP {map_full:.4f} vs {map_uniform:.4f}; router frozen at init: "
            f"MAF {maf_frozen:.4f}, MAP {map_frozen:.4f}, trained margin "
            f"{maf_frozen - maf_full:+.4f} MAF, {map_full - map_frozen:+.4f} MAP")
    assert passed


# ---------------------------------------------------------------------------
# criterion 8: the stability term does not increase forgetting
# ---------------------------------------------------------------------------


def test_criterion_8_regularizer_no_harm(trained_runs):
    runs, _ = trained_runs
    maf_with = _median_summary(runs, "full", 1)
    maf_without = _median_summary(runs, "two_stage", 1)
    passed = maf_with <= maf_without
    _report(8, "regularizer no-harm", passed,
            f"median MAF {maf_with:.4f} with the term vs {maf_without:.4f} without")
    assert passed


# ---------------------------------------------------------------------------
# criterion 9: frozen baseline, determinism, and the single-pass contract
# ---------------------------------------------------------------------------


def test_criterion_9_baseline_and_determinism(trained_runs):
    runs, _ = trained_runs
    frozen = run_stream(_variant_config("frozen", 0))
    accuracies: dict[int, set[float]] = {}      # task -> every accuracy it was scored
    for _, scored in frozen.ledger.evaluations:
        for m, a in scored.items():
            accuracies.setdefault(m, set()).add(a)
    frozen_ok = frozen.summary()[1] == 0.0 and all(len(a) == 1 for a in accuracies.values())

    repeat = run_stream(_variant_config("full", 0))
    deterministic = repeat.ledger.to_csv() == runs[("full", 0)].ledger.to_csv()

    specs = make_task_specs(0, n_tasks=2, d_e=8, classes_per_task=2, sigma=0.25,
                            visual_tokens=2, noise_tokens=2, test_size=4, vocab_size=32)
    schedule = build_default_stream(0, n_tasks=2, n_chunks=7, chunk_size=6)
    stream = single_pass_stream(schedule, [TaskSampler(s, 0) for s in specs])
    seen = list(stream)
    try:
        seen[0].samples
        guard_ok = False
    except RuntimeError:
        guard_ok = True

    passed = frozen_ok and deterministic and guard_ok
    _report(9, "baseline and determinism", passed,
            f"frozen MAF {frozen.summary()[1]!r}, same-seed metrics byte-identical: "
            f"{deterministic}, consumed chunks refuse a second visit: {guard_ok}")
    assert passed
