"""Op-level microbenchmarks at the default run's shapes (pytest-benchmark).

    pytest tests/bench_ops.py

The name does not match pytest's `test_*.py` pattern, so the plain test
suite never collects this file; naming it runs it. Shapes follow the
default `RunConfig`: a batch of B = 32 samples of L = 4 visual + 3
template + 3 noise = 10 tokens, d_hidden = 32, N = 4 experts with top-2
selection, rank 16 and routing_dim 64. `test_backward_sweep` times the
reverse sweep alone over one default training graph, which
`test_training_step` times together with the forward, Adam and EMA. The
audit benchmarks use the gradient audit's model (`audit_config`, 3
samples) and hand its probe what `finite_diff_grad` hands it, the probed
leaf's index and an (n, *shape) stack of nudged copies: a block of one
copy with a single coordinate nudged, and a block of AUDIT_BLOCK copies
in a single forward (the copies the audit takes at 3 samples), which the
probe puts on a leading axis of the leaf; a block's time over
AUDIT_BLOCK is its cost per probe. A probe starts the
forward at the probed leaf's own block from the state the audit's
training call entered it with, so its cost falls with the leaf's depth:
a first-layer stage-two query (the worst case, nearly the whole forward,
on the copy axis in a block) and a last-layer one (one site, then the
head). The file sets the command line's allocator policy at import
(`cli._hold_freed_memory`), so each op pays what it pays under a
`streamlora` command rather than the page faults of glibc's default.
"""

import numpy as np
import pytest

from streamlora.autograd import Value, backward, masked_softmax, matmul, named_rng, transpose, vsum
from streamlora.cli import _hold_freed_memory
from streamlora.experts import adapted_forward, init_expert_bank
from streamlora.routing import init_routing_state, route_with_straight_through
from streamlora.stability import EmaShadow, ema_update
from streamlora.stream import TaskSampler
from streamlora.trainer import (
    AUDIT_ROWS,
    Adam,
    RunConfig,
    _audit_problem,
    _batch_loss,
    audit_config,
    build_stream,
)

_hold_freed_memory()

CONFIG = RunConfig()
B, D = CONFIG.batch_size, CONFIG.d_hidden
L = CONFIG.visual_tokens + 3 + CONFIG.noise_tokens
N, K = CONFIG.n_experts, CONFIG.top_k
AUDIT_BLOCK = AUDIT_ROWS // 3                  # the copies per block at the audit's 3 samples


@pytest.fixture()
def rng():
    return named_rng(0, "bench")


def test_batched_token_projection(benchmark, rng):
    # (B, L, d) @ (d, d)^T with its backward: every projection of the backbone
    tokens = Value(rng.normal(size=(B, L, D)), requires_grad=True)
    weight = Value(rng.normal(size=(D, D)), requires_grad=True)

    def step():
        tokens.grad = weight.grad = None
        backward(vsum(matmul(tokens, transpose(weight))))

    benchmark(step)


def test_batched_per_sample_product(benchmark, rng):
    # (B, L, D) @ (B, D, N) with its backward: stage-two scores
    queries = Value(rng.normal(size=(B, L, CONFIG.routing_dim)), requires_grad=True)
    keys = Value(rng.normal(size=(B, CONFIG.routing_dim, N)), requires_grad=True)

    def step():
        queries.grad = keys.grad = None
        backward(vsum(matmul(queries, keys)))

    benchmark(step)


def test_masked_softmax(benchmark, rng):
    logits = Value(rng.normal(size=(B, L, N)), requires_grad=True)
    mask = np.zeros((B, 1, N), dtype=bool)
    mask[:, :, :K] = True
    coeff = Value(rng.normal(size=(B, L, N)))

    def step():
        logits.grad = None
        backward(vsum(masked_softmax(logits, mask) * coeff))

    benchmark(step)


def test_adapted_forward(benchmark, rng):
    # one routed site: routing decision, then the batched adapter product
    bank = init_expert_bank(N, CONFIG.rank, D, D, rng, base=rng.normal(scale=D ** -0.5, size=(D, D)))
    for j in range(N):
        bank.up[j].data = 0.1 * rng.normal(size=bank.up[j].data.shape)
        bank.down[j].requires_grad = bank.up[j].requires_grad = True
    state = init_routing_state(N, D, D, CONFIG.routing_dim, rng)
    hidden = Value(rng.normal(size=(B, L, D)))
    x_text = Value(rng.normal(size=(B, D)))
    _, mask, weights, gate = route_with_straight_through(state, hidden, x_text, K)

    def step():
        for j in range(N):
            bank.down[j].grad = bank.up[j].grad = None
        out = adapted_forward(bank, hidden, weights, mask, gate)
        backward(vsum(out))

    benchmark(step)


def test_training_step(benchmark):
    # forward, loss with the stability term, backward, Adam and EMA on one
    # default batch of the default stream
    specs, _ = build_stream(CONFIG)
    batch = TaskSampler(specs[0], CONFIG.seed).test_set()[:B]
    model = CONFIG.model()
    optimizer = Adam(model.params, lr=CONFIG.learning_rate)
    shadow = EmaShadow.from_states(model.routing_states())

    def step():
        model.params.zero_grad()
        backward(_batch_loss(model, batch, shadow, CONFIG.reg_weight)[2])
        optimizer.step()
        ema_update(shadow, model.routing_states(), CONFIG.ema_momentum)

    benchmark(step)


def test_backward_sweep(benchmark):
    # the reverse sweep alone over one default training graph, the graph
    # built in the untimed setup of each round
    specs, _ = build_stream(CONFIG)
    batch = TaskSampler(specs[0], CONFIG.seed).test_set()[:B]
    model = CONFIG.model()
    shadow = EmaShadow.from_states(model.routing_states())

    def setup():
        model.params.zero_grad()
        return (_batch_loss(model, batch, shadow, CONFIG.reg_weight)[2],), {}

    benchmark.pedantic(backward, setup=setup, rounds=50)


@pytest.fixture(scope="module")
def audit():
    return _audit_problem(audit_config(), n_samples=3, seed=7)


def test_audit_single_probe(benchmark, audit):
    # a block of one copy, one coordinate nudged
    model, _, probe = audit
    i = model.params.paths().index("layer.0.attn_out.router.query")
    stack = model.params["layer.0.attn_out.router.query"].data[None].copy()
    stack.flat[0] += 1e-5
    assert benchmark(probe, i, stack).shape == (1,)


@pytest.mark.parametrize("path", ["layer.0.attn_out.router.query", "layer.1.ffn_up.router.query"],
                         ids=["first-layer", "late-leaf"])
def test_audit_probe_block(benchmark, audit, path):
    # a block of AUDIT_BLOCK copies: the probe sets them as an
    # (n, 1, *shape) leaf, so the copies ride a leading axis from the
    # leaf's site on, and resumes the forward at that site
    model, total, probe = audit
    stack = np.stack([model.params[path].data] * AUDIT_BLOCK)
    values = benchmark(probe, model.params.paths().index(path), stack)
    assert values.shape == (AUDIT_BLOCK,)
    np.testing.assert_allclose(values, total.data, rtol=1e-12, atol=0)
