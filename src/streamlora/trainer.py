"""Single-pass training over a chunked stream.

Every chunk is traversed exactly once, in the order the composer shuffled
it. Per batch: one forward over the whole batch, the mean task loss,
optionally the routing-stability term, one adaptive gradient step, then
one EMA step on the shadow router. Evaluation runs after every chunk on the frozen
test set of every task seen so far, feeding the metric ledger; the last
chunk's evaluation forwards also give the post-stream routing traces.

A run's whole state is one `RunResult`: `run_stream` builds it before the
first chunk, `train_chunk` advances it, and `run_stream` writes the
artifacts from it and returns it. `runlog.json` is built at write time:
its step counts are the optimizer's and the shadow's own.

Everything is driven by a flat `RunConfig`. Config files are plain
`key = value` lines; unknown keys are rejected rather than ignored so a
typo cannot silently run the defaults.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .autograd import (
    ParamStore,
    Value,
    atomic_open,
    backward,
    finite_diff_grad,
    named_rng,
    no_grad,
)
from .metrics import MetricLedger, trace_records, write_traces
from .model import (
    FROZEN,
    FULL,
    SHARED_LORA,
    UNIFORM_MOE,
    BackboneConfig,
    ForwardResult,
    Model,
    Sample,
    Variant,
    forward,
    task_loss,
)
from .stability import EmaShadow, ema_update, reference_weights, reg_loss, total_loss
from .stream import (
    StreamSchedule,
    TaskSampler,
    TaskSpec,
    build_default_stream,
    make_task_specs,
    single_pass_stream,
    stream_manifest,
)


class TrainingDiverged(RuntimeError):
    """Raised when a training batch overflows or its loss turns non-finite."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """Flat run description; every field is a config-file key."""

    # backbone
    n_layers: int = 2
    d_hidden: int = 32
    n_heads: int = 2
    vocab_size: int = 64
    # adapters and routing
    n_experts: int = 4
    top_k: int = 2
    rank: int = 16
    routing_dim: int = 64
    # variant: full | uniform_moe | none | shared_lora | frozen | a comma list of p, s, reg
    method: str = "full"
    # optimization
    learning_rate: float = 1e-3
    batch_size: int = 32
    ema_momentum: float = 0.99
    reg_weight: float = 0.1
    # stream
    seed: int = 0
    stream_seed: int = -1           # -1 means: use `seed`
    n_tasks: int = 5
    n_chunks: int = 12
    chunk_size: int = 200
    classes_per_task: int = 4
    visual_tokens: int = 4
    noise_tokens: int = 3
    visual_noise: float = 0.25
    test_size: int = 50
    # logging
    trace_interval: int = 5         # trace every k-th training batch
    trace_eval_samples: int = 20    # per task, in the post-stream traces

    @property
    def n_classes(self) -> int:
        return self.n_tasks * self.classes_per_task

    @property
    def effective_stream_seed(self) -> int:
        return self.seed if self.stream_seed < 0 else self.stream_seed

    def backbone(self) -> BackboneConfig:
        return BackboneConfig(
            n_layers=self.n_layers,
            d_hidden=self.d_hidden,
            n_heads=self.n_heads,
            vocab_size=self.vocab_size,
            n_classes=self.n_classes,
        )

    def variant(self) -> Variant:
        """The `Variant` that `method` names, spelled as `--variant` spells it."""
        try:
            return _parse_method(self.method)
        except ValueError as exc:
            raise ValueError(f"method {self.method!r}: {exc}") from None

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        # a mixture stream needs two tasks, and 7 chunks keep a retired task gone for 3
        for key, least in (("classes_per_task", 1), ("test_size", 1), ("routing_dim", 1),
                           ("visual_tokens", 1), ("n_experts", 1), ("n_tasks", 2), ("n_chunks", 7),
                           ("batch_size", 1), ("chunk_size", 1), ("noise_tokens", 0),
                           ("visual_noise", 0), ("trace_eval_samples", 0)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be at least {least}, got {getattr(self, key)}")
        self.backbone().validate()
        if not 0 < self.rank < self.d_hidden:
            raise ValueError(f"rank must be in (0, d_hidden = {self.d_hidden}), got {self.rank}")
        variant = self.variant()
        if not 1 <= self.top_k <= self.n_experts:
            raise ValueError(f"top_k must be in [1, {self.n_experts}], got {self.top_k}")
        if variant.mode == "shared_lora" and self.n_experts != 1:
            raise ValueError("shared_lora means a single expert; set n_experts = top_k = 1")
        if not 0.0 <= self.ema_momentum < 1.0:
            raise ValueError(f"ema_momentum must be in [0, 1), got {self.ema_momentum}")
        if self.reg_weight < 0.0:
            raise ValueError(f"reg_weight must be non-negative, got {self.reg_weight}")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.stream_seed < -1:
            raise ValueError(f"stream_seed must be >= 0, or -1 to use seed, got {self.stream_seed}")
        if self.trace_interval < 0:
            raise ValueError(f"trace_interval must be >= 0 (0 disables training-batch traces), "
                             f"got {self.trace_interval}")

    def model(self, seed: int | None = None) -> Model:
        """A fresh model of this config's sizes and variant, initialised
        from `seed` (default: the config's own)."""
        return Model(
            self.backbone(),
            n_experts=self.n_experts,
            top_k=self.top_k,
            rank=self.rank,
            routing_dim=self.routing_dim,
            variant=self.variant(),
            seed=self.seed if seed is None else seed,
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_KIND_NAMES = {int: "an int", float: "a float"}


def _coerce(where: str, kind: type, raw: str):
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"{where}: expected {_KIND_NAMES[kind]}, got {raw!r}") from None


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse `key = value` lines ('#' starts a comment) into a RunConfig."""
    config = base or RunConfig()
    types = {f.name: type(f.default) for f in fields(RunConfig)}
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in types:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        updates[key] = _coerce(f"line {lineno}: {key}", types[key], raw)
    return replace(config, **updates)


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    return parse_config_text(Path(path).read_text(), base=base)


_VARIANT_ALIASES = {
    "full": FULL,
    "uniform_moe": UNIFORM_MOE,
    "none": UNIFORM_MOE,
    "shared_lora": SHARED_LORA,
    "frozen": FROZEN,
}


def _parse_method(method: str) -> Variant:
    """The variant of an alias, or of a comma list of stage toggles out of {p, s, reg}."""
    variant = _VARIANT_ALIASES.get(method)
    if variant is None:
        parts = [part.strip() for part in method.split(",")]
        unknown = [part for part in parts if part not in ("p", "s", "reg")]
        if unknown:
            raise ValueError(f"unknown variant component {unknown[0]!r}; use p, s, reg or an alias")
        variant = Variant("routed", "p" in parts, "s" in parts, "reg" in parts)
        variant.validate()
    return variant


def apply_variant(config: RunConfig, spec: str) -> RunConfig:
    """`config` with `method = spec`, as `--variant spec` sets it, and one expert for shared_lora."""
    config = replace(config, method=spec.strip())
    if config.variant().mode == "shared_lora":
        config = replace(config, n_experts=1, top_k=1)
    return config


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adaptive step with bias-corrected first and second moments.

    m <- BETA1 m + (1-BETA1) g ; v <- BETA2 v + (1-BETA2) g^2
    theta <- theta - lr * (m / (1-BETA1^t)) / (sqrt(v / (1-BETA2^t)) + EPS)

    One elementwise update steps the store's whole flat `vector` from its
    `grad`, with `m` and `v` flat beside them. A leaf no path reached holds
    an exactly-zero gradient, so its moments decay and its update is
    exactly zero, and an unused router does not drift. A leaf whose `data`
    no longer views the store's flat state makes `step` raise, naming its
    path.
    """

    def __init__(self, params: ParamStore, lr: float):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self._m = np.zeros_like(params.vector)
        self._v = np.zeros_like(params.vector)

    def step(self) -> None:
        theta, g = self.params.flat()
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        m, v = self._m, self._v
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        theta -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


# ---------------------------------------------------------------------------
# run state
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    """One run's whole state: `run_stream` builds it before the first
    chunk, `train_chunk` advances it, and `run_stream` returns it. The
    evaluations live in the ledger, the test sets in the stream's samplers."""

    config: RunConfig
    model: Model
    optimizer: Adam
    shadow: EmaShadow | None
    out: Path | None = None                 # artifact directory; also gets divergence dumps
    ledger: MetricLedger = field(default_factory=MetricLedger)
    steps: list[dict] = field(default_factory=list)     # one loss record per batch
    traces: list[dict] = field(default_factory=list)

    def summary(self) -> tuple[float, float]:
        return self.ledger.summary()


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _batches(samples: Sequence[Sample], size: int) -> Iterable[list[Sample]]:
    for start in range(0, len(samples), size):
        yield list(samples[start : start + size])


def _mean_value(parts: list[Value]) -> Value:
    acc = parts[0]
    for part in parts[1:]:
        acc = acc + part
    return acc * (1.0 / len(parts))


def _batch_reg(shadow: EmaShadow | None, result: ForwardResult) -> Value:
    """Mean stability term over the sites. Each record keeps its term and
    the reference it was compared against: the EMA shadow's, computed from
    the site input the forward kept in `result.entries`, unless it already
    holds one (a record pinned to the gradient audit's baseline). The
    records a resumed forward carried over keep their terms."""
    for rec in result.sites:
        if rec.reg is not None:
            continue
        if rec.reference is None:
            hidden = result.entries[rec.site][1].data
            rec.reference = reference_weights(shadow, rec.site, hidden, result.x_text.data, rec.mask)
        rec.reg = reg_loss(rec.reference, rec.weights, rec.mask)
    return _mean_value([rec.reg for rec in result.sites])


def _batch_loss(
    model: Model,
    batch: Sequence[Sample],
    shadow: EmaShadow | None,
    reg_weight: float,
    baseline: ForwardResult | None = None,
    start: str | None = None,
) -> tuple[Value, Value | None, Value, ForwardResult]:
    """(task, reg, total, forward result) of the training objective on one
    batch, from one forward over the whole batch. Training leaves
    `baseline` and `start` unset. The gradient audit passes a `baseline`
    result of this call over the same batch, whose routing constants and
    EMA references its probes hold fixed, and a `start` block to resume
    the forward at (`forward`). A leaf holding n copies of itself (the
    audit's probes) gives task, reg and total one value per copy."""
    result = forward(model, batch, baseline=baseline, start=start)
    task = task_loss(result.logits, [sample.label for sample in batch])
    reg = _batch_reg(shadow, result) if model.variant.use_reg else None
    return task, reg, total_loss(task, reg, reg_weight), result


def _loss_field(loss: Value | None) -> float | str | None:
    """A loss as the divergence dump writes it: null when not computed, a
    non-finite one as the string "nan", "inf" or "-inf" (strict JSON)."""
    if loss is None:
        return None
    value = float(loss.data)
    return value if math.isfinite(value) else str(value)


def train_chunk(run: RunResult, chunk) -> None:
    """One epoch over one chunk: the single pass. A numpy overflow, invalid
    or divide error in a batch's steps, or a non-finite loss, raises `TrainingDiverged`."""
    config, model = run.config, run.model
    for batch_index, batch in enumerate(_batches(chunk.samples, config.batch_size)):
        model.params.zero_grad()
        task = reg = None
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                task, reg, total, result = _batch_loss(model, batch, run.shadow, config.reg_weight)
                tracing = config.trace_interval > 0 and batch_index % config.trace_interval == 0
                if tracing and model.variant.mode == "routed":
                    run.traces.extend(trace_records(chunk.index, batch, result.sites))
                if not np.isfinite(total.data):     # a NaN parameter spreads without raising
                    raise FloatingPointError("non-finite loss")
                if model.variant.mode != "frozen":
                    backward(total)
                    run.optimizer.step()
                    if run.shadow is not None:
                        ema_update(run.shadow, model.routing_states(), config.ema_momentum)
        except FloatingPointError as exc:
            dump = {
                "chunk": chunk.index,
                "batch_index": batch_index,
                "sample_uids": [s.uid for s in batch],
                "task_loss": _loss_field(task),
                "reg_loss": _loss_field(reg),
                "optimizer_steps": run.optimizer.step_count,
            }
            path = None if run.out is None else run.out / f"diverged_chunk{chunk.index}_batch{batch_index}.json"
            if path:
                with atomic_open(path) as fh:
                    fh.write(json.dumps(dump, indent=2, allow_nan=False))
            raise TrainingDiverged(f"{exc} in chunk {chunk.index}, batch {batch_index}; " + (
                f"batch dumped to {path}" if path else "no output directory, nothing dumped")) from None

        run.steps.append({
            "chunk": chunk.index,
            "batch": batch_index,
            "task_loss": float(task.data),
            "reg_loss": None if reg is None else float(reg.data),
            "total_loss": float(total.data),
        })
        del task, reg, total, result    # free this batch's graph before the next is built


def evaluate(model: Model, samples: Sequence[Sample]) -> tuple[float, ForwardResult]:
    """Exact fraction of argmax-correct predictions on a frozen test set,
    and the one no_grad forward over the whole set it was scored from."""
    if len(samples) == 0:
        raise ValueError("empty evaluation set")
    with no_grad():
        result = forward(model, samples)
    correct = sum(int(p) == s.label for s, p in zip(samples, np.argmax(result.logits.data, axis=-1)))
    return correct / len(samples), result


def build_stream(config: RunConfig) -> tuple[list[TaskSpec], StreamSchedule]:
    """The task specs and chunk schedule `config` describes, once it
    validates."""
    config.validate()
    seed = config.effective_stream_seed
    specs = make_task_specs(
        seed,
        n_tasks=config.n_tasks,
        d_e=config.d_hidden,
        classes_per_task=config.classes_per_task,
        sigma=config.visual_noise,
        visual_tokens=config.visual_tokens,
        noise_tokens=config.noise_tokens,
        test_size=config.test_size,
        vocab_size=config.vocab_size,
    )
    schedule = build_default_stream(
        seed, n_tasks=config.n_tasks, n_chunks=config.n_chunks, chunk_size=config.chunk_size
    )
    return specs, schedule


def run_stream(config: RunConfig, out_dir: str | Path | None = None) -> RunResult:
    """Train once over the whole stream, evaluate after every chunk."""
    started = time.monotonic()
    specs, schedule = build_stream(config)
    out = Path(out_dir) if out_dir else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    samplers = [TaskSampler(spec, config.effective_stream_seed) for spec in specs]
    model = config.model()
    shadow = EmaShadow.from_states(model.routing_states()) if model.variant.use_reg else None
    run = RunResult(
        config=config,
        model=model,
        optimizer=Adam(model.params, lr=config.learning_rate),
        shadow=shadow,
        out=out,
    )
    # row t-1: the tasks chunk t or an earlier one drew samples of
    seen_by = np.cumsum(schedule.counts, axis=0) > 0

    for chunk in single_pass_stream(schedule, samplers):
        train_chunk(run, chunk)
        # the last chunk's evaluation also gives the post-stream traces, under chunk T+1
        post_stream = chunk.index == schedule.n_chunks and model.variant.mode == "routed"
        accuracies = {}
        for m in np.flatnonzero(seen_by[chunk.index - 1]).tolist():
            test_set = samplers[m].test_set()
            accuracies[m], result = evaluate(model, test_set)
            if post_stream:
                samples = test_set[: config.trace_eval_samples]
                run.traces.extend(trace_records(chunk.index + 1, samples, result.sites))
            del result      # free this task's forward before the next task's
        run.ledger.add_chunk(chunk.index, accuracies)

    wall_seconds = time.monotonic() - started

    if out is not None:
        # every artifact appears whole or not at all (atomic_open)
        with atomic_open(out / "metrics.csv") as fh:
            fh.write(run.ledger.to_csv())
        with atomic_open(out / "traces.jsonl") as fh:
            write_traces(fh, run.traces)
        ema_records = {} if shadow is None else {f"ema.{k}": v for k, v in shadow.arrays.items()}
        model.params.save(out / "checkpoint.bin", extra=ema_records)
        manifest = {
            "config": config.to_dict(),
            "variant": vars(model.variant),
            "stream": stream_manifest(schedule, specs),
            "outputs": {
                "metrics": "metrics.csv",
                "traces": "traces.jsonl",
                "checkpoint": "checkpoint.bin",
                "runlog": "runlog.json",
            },
        }
        with atomic_open(out / "manifest.json") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True))
        runlog = {
            "config": config.to_dict(),
            "steps": run.steps,
            "evals": [{"chunk": t, "accuracy": {str(m): a for m, a in accuracies.items()}}
                      for t, accuracies in run.ledger.evaluations],
            "optimizer_steps": run.optimizer.step_count,
            "ema_updates": 0 if shadow is None else shadow.updates,
            "wall_seconds": wall_seconds,
        }
        with atomic_open(out / "runlog.json") as fh:
            fh.write(json.dumps(runlog, indent=2, sort_keys=True))

    return run


# ---------------------------------------------------------------------------
# full-model gradient audit
# ---------------------------------------------------------------------------


@dataclass
class AuditRow:
    path: str
    max_abs_err: float
    max_rel_err: float
    ok: bool


def audit_config() -> RunConfig:
    """The standard audit model: the full variant (the defaults) on sizes
    small enough that probing every scalar with central differences stays
    well under a minute."""
    return RunConfig(
        n_layers=2,
        d_hidden=16,
        n_heads=2,
        n_experts=4,
        top_k=2,
        rank=4,
        routing_dim=8,
        n_tasks=2,
        classes_per_task=2,
        reg_weight=0.1,
    )


# Sample-rows per audit forward: a probe block of n copies carries n x
# n_samples rows from the probed leaf's block on, so the audit takes
# AUDIT_ROWS // n_samples copies per block (at least 2, one +/- pair). The
# probe values do not depend on the block size; larger blocks run fewer
# forwards, each with its fixed Python and numpy overhead. At the default 3
# samples a block holds 128 copies, so each 64-scalar leaf is probed in one
# forward and each 128-scalar leaf in two: 67 forwards in all, against 128
# with 64 copies. On a 2-vCPU host, 128 copies ran `gradcheck` about 10%
# faster than 64 (median of 8 alternating pairs of fresh processes, faster
# in 6) and peaked 2.6 MB (6%) higher, 43.2 against 40.6 MB `ru_maxrss`.
AUDIT_ROWS = 384


def _audit_problem(
    config: RunConfig, n_samples: int, seed: int,
) -> tuple[Model, Value, Callable[[int, np.ndarray], np.ndarray]]:
    """The audit's model, its training objective, and the probe
    `finite_diff_grad` evaluates.

    The objective is `_batch_loss`, the training loss (task + weighted
    stability term) through the training forward on a fixed batch, called
    once exactly as training calls it: its total's graph gives the analytic
    gradient, and its result is the probes' baseline. The routing
    constants (the expert subset, the detached half of the straight-through
    gate, the EMA reference weights) are pinned at that result's values,
    so probing a parameter can never flip the selection. `probe(i, stack)`
    takes the index of a leaf in `model.params` and an (n, *shape) stack
    of its copies, sets them as an (n, 1, *shape) leaf so the copies
    broadcast over the batch, and evaluates the pinned objective under
    `no_grad` from that leaf's block on, starting from the state the
    baseline entered it with; it restores the leaf and returns one value
    per copy. A leaf the loss never meets (the adapters of an expert no
    pinned subset selects) leaves no copy axis, so every copy scores the
    same total.
    """
    model = config.model(seed)
    rng = named_rng(seed, "audit.params")
    for _, p in model.params.items():
        p.data[...] = 0.2 * rng.normal(size=p.data.shape)
    shadow = EmaShadow.from_states(model.routing_states())
    shadow_rng = named_rng(seed, "audit.shadow")
    for arr in shadow.arrays.values():
        arr += 0.15 * shadow_rng.normal(size=arr.shape)

    data_rng = named_rng(seed, "audit.data")
    cfg = config.backbone()
    samples = []
    for i in range(n_samples):
        samples.append(Sample(
            visual=data_rng.normal(size=(config.visual_tokens, cfg.d_e)),
            instruction=tuple(int(t) for t in data_rng.integers(1, cfg.vocab_size, size=6)),
            label=int(data_rng.integers(cfg.n_classes)),
            task_id=0,
            uid=f"audit-{i}",
        ))

    *_, total, baseline = _batch_loss(model, samples, shadow, config.reg_weight)   # the training call
    leaves = list(model.params.items())

    def probe(i: int, stack: np.ndarray) -> np.ndarray:
        path, leaf = leaves[i]
        held = leaf.data
        block = next(block for block in baseline.entries if path.startswith(block + "."))
        leaf.data = stack[:, None]
        try:
            with no_grad():
                values = _batch_loss(model, samples, shadow, config.reg_weight,
                                     baseline=baseline, start=block)[2].data
        finally:
            leaf.data = held
        return np.broadcast_to(values, stack.shape[:1])

    return model, total, probe


def gradient_audit(
    config: RunConfig | None = None,
    n_samples: int = 3,
    epsilon: float = 1e-5,
    rtol: float = 1e-4,
    atol: float = 1e-7,
    seed: int = 7,
) -> tuple[bool, list[AuditRow]]:
    """Check every trainable parameter's gradient against central differences.

    The objective is `_batch_loss`, the training loss through the training
    forward, on a fixed batch (`_audit_problem`); one call of it, exactly
    as training makes it, gives the analytic gradient and the baseline.
    Finite differences probe the same surrogate the analytic gradient
    differentiates: the expert subset, the detached half of the
    straight-through gate, and the EMA reference weights stay pinned at
    that call's values, read from its site records, while parameters
    move. They probe in
    blocks of `AUDIT_ROWS // n_samples` perturbed copies (at least 2) per
    forward, on a copy axis that only the layers downstream of the probed
    parameter carry, in a forward that starts at its block. Adapters are
    re-randomized first (a fresh bank has B = 0, which would hide half the
    bank behind zero gradients), and the shadow is nudged off the live
    parameters so the regularizer term is active. A probe whose loss
    overflows (too large an `epsilon`) raises `ValueError`.
    """
    if n_samples < 1:
        raise ValueError(f"the audit needs at least one sample, got n_samples={n_samples}")
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not 0.0 <= rtol < math.inf:
        raise ValueError(f"rtol must be non-negative and finite, got {rtol}")
    if not 0.0 <= atol < math.inf:
        raise ValueError(f"atol must be non-negative and finite, got {atol}")
    config = config or audit_config()
    config.validate()
    if config.variant() != FULL:
        raise ValueError(f"the audit exercises the full variant, got method {config.method!r}")

    model, total, probe = _audit_problem(config, n_samples, seed)
    backward(total)
    analytic = {path: p.grad.copy() for path, p in model.params.items()}
    copies = max(2, AUDIT_ROWS // n_samples)
    try:
        with np.errstate(over="raise", invalid="raise"):
            numeric = finite_diff_grad(probe, model.params.values(), epsilon=epsilon, copies=copies)
    except FloatingPointError as exc:
        raise ValueError(f"epsilon {epsilon} is too large: the probes overflow ({exc})") from None

    rows: list[AuditRow] = []
    for (path, _), fd in zip(model.params.items(), numeric):
        err = np.abs(analytic[path] - fd)
        magnitude = np.maximum(np.abs(analytic[path]), np.abs(fd))
        rows.append(AuditRow(path=path, max_abs_err=float(err.max()),
                             max_rel_err=float((err / np.maximum(magnitude, atol)).max()),
                             ok=bool(np.all(err <= atol + rtol * magnitude))))
    return all(row.ok for row in rows), rows


ABLATION_ROWS: list[tuple[str, str]] = [
    ("uniform_moe", "uniform_moe"),
    ("selection_only", "p"),
    ("weighting_only", "s"),
    ("weighting_reg", "s,reg"),
    ("two_stage", "p,s"),
    ("full", "full"),
]


def run_ablation_suite(config: RunConfig, out_dir: str | Path | None = None) -> list[dict]:
    """All stage-toggle combinations on identical stream contents."""
    rows = []
    out = Path(out_dir) if out_dir else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    for name, spec in ABLATION_ROWS:
        run_cfg = apply_variant(config, spec)
        result = run_stream(run_cfg, out_dir=(out / name) if out else None)
        map_t, maf_t = result.summary()
        variant = run_cfg.variant()
        rows.append({
            "variant": name,
            "use_selection": variant.use_selection,
            "use_token_weighting": variant.use_token_weighting,
            "use_reg": variant.use_reg,
            "MAP": map_t,
            "MAF": maf_t,
        })
    if out is not None:
        lines = ["variant,use_selection,use_token_weighting,use_reg,MAP,MAF"]
        for row in rows:
            lines.append(
                f"{row['variant']},{row['use_selection']},{row['use_token_weighting']},"
                f"{row['use_reg']},{row['MAP']!r},{row['MAF']!r}"
            )
        with atomic_open(out / "ablation.csv") as fh:
            fh.write("\n".join(lines) + "\n")
    return rows
