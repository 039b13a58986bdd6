"""Single-pass training over a chunked stream.

Every chunk is traversed exactly once, in the order the composer shuffled
it. Per batch: forward each sample, average the task losses, optionally
add the routing-stability term, one adaptive gradient step, then one EMA
step on the shadow router. Evaluation runs after every chunk on the frozen
test set of every task seen so far, feeding the metric ledger.

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
from typing import Iterable, Sequence

import numpy as np

from .autograd import (
    ParamStore,
    Value,
    backward,
    finite_diff_grad,
    named_rng,
    no_grad,
)
from .metrics import MetricLedger
from .model import (
    BackboneConfig,
    FrozenRouting,
    Model,
    Sample,
    Variant,
    forward,
    task_loss,
)
from .stability import EmaShadow, ema_update, reference_weights, reg_loss, total_loss
from .stream import (
    SinglePassStream,
    StreamSchedule,
    TaskSampler,
    TaskSpec,
    build_default_stream,
    make_task_specs,
    stream_manifest,
)


class TrainingDiverged(RuntimeError):
    """Raised when a batch loss turns non-finite; details are in the dump."""


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
    # variant
    mode: str = "routed"            # routed | shared_lora | frozen
    use_selection: bool = True
    use_token_weighting: bool = True
    use_reg: bool = True
    # optimization
    learning_rate: float = 1e-3
    batch_size: int = 32
    ema_momentum: float = 0.99
    reg_weight: float = 0.1
    grad_clip: float = 0.0          # 0 disables clipping
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
    trace_eval_samples: int = 20    # per task, in the post-stream trace pass
    out_dir: str = ""

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
        if self.mode in ("shared_lora", "frozen"):
            return Variant(self.mode, False, False, False)
        return Variant("routed", self.use_selection, self.use_token_weighting, self.use_reg)

    def validate(self) -> None:
        self.backbone().validate()
        self.variant().validate()
        if not 1 <= self.top_k <= self.n_experts:
            raise ValueError(f"top_k must be in [1, {self.n_experts}]")
        if self.mode == "shared_lora" and self.n_experts != 1:
            raise ValueError("shared_lora means a single expert; set n_experts = 1")
        if not 0.0 <= self.ema_momentum < 1.0:
            raise ValueError("ema_momentum must be in [0, 1)")
        if self.reg_weight < 0.0:
            raise ValueError("reg_weight must be non-negative")
        if self.batch_size < 1 or self.chunk_size < 1:
            raise ValueError("batch and chunk sizes must be positive")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(name: str, kind: type, raw: str):
    if kind is bool:
        word = raw.strip().lower()
        if word not in _BOOL_WORDS:
            raise ValueError(f"{name}: expected a boolean, got {raw!r}")
        return _BOOL_WORDS[word]
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    return raw.strip()


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse `key = value` lines ('#' starts a comment) into a RunConfig."""
    config = base or RunConfig()
    types = {f.name: type(getattr(config, f.name)) for f in fields(RunConfig)}
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
        updates[key] = _coerce(key, types[key], raw)
    return replace(config, **updates)


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    return parse_config_text(Path(path).read_text(), base=base)


_VARIANT_ALIASES = {
    "full": ("routed", True, True, True),
    "uniform_moe": ("routed", False, False, False),
    "none": ("routed", False, False, False),
    "shared_lora": ("shared_lora", False, False, False),
    "frozen": ("frozen", False, False, False),
}


def apply_variant(config: RunConfig, spec: str) -> RunConfig:
    """Apply a variant name ('full', 'uniform_moe', 'shared_lora', 'frozen',
    'none') or a comma list of stage toggles out of {p, s, reg}."""
    spec = spec.strip().lower()
    if spec in _VARIANT_ALIASES:
        mode, sel, tw, reg = _VARIANT_ALIASES[spec]
        updates = {"mode": mode, "use_selection": sel, "use_token_weighting": tw, "use_reg": reg}
        if mode == "shared_lora":
            updates.update(n_experts=1, top_k=1)
        return replace(config, **updates)
    flags = {"p": False, "s": False, "reg": False}
    for part in spec.split(","):
        part = part.strip()
        if part not in flags:
            raise ValueError(f"unknown variant component {part!r}; use p, s, reg or an alias")
        flags[part] = True
    return replace(
        config,
        mode="routed",
        use_selection=flags["p"],
        use_token_weighting=flags["s"],
        use_reg=flags["reg"],
    )


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adaptive step with bias-corrected first and second moments.

    m <- b1 m + (1-b1) g ; v <- b2 v + (1-b2) g^2
    theta <- theta - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)

    Parameters that never received a gradient decay their moments and get
    an exactly-zero update, so an unused router does not drift.
    """

    def __init__(self, params: ParamStore, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = {path: np.zeros_like(p.data) for path, p in params.items()}
        self._v = {path: np.zeros_like(p.data) for path, p in params.items()}

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for path, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self._m[path]
            v = self._v[path]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def clip_gradients(params: ParamStore, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = math.sqrt(total)
    if norm > max_norm > 0.0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


# ---------------------------------------------------------------------------
# run log
# ---------------------------------------------------------------------------


@dataclass
class RunLog:
    """Everything a run reports, JSON-ready."""

    config: dict
    steps: list[dict] = field(default_factory=list)
    evals: list[dict] = field(default_factory=list)
    optimizer_steps: int = 0
    ema_updates: int = 0
    wall_seconds: float = 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": self.config,
                "steps": self.steps,
                "evals": self.evals,
                "optimizer_steps": self.optimizer_steps,
                "ema_updates": self.ema_updates,
                "wall_seconds": self.wall_seconds,
            },
            indent=2,
            sort_keys=True,
        )


@dataclass
class RunResult:
    config: RunConfig
    ledger: MetricLedger
    runlog: RunLog
    traces: list[dict]
    model: Model
    shadow: EmaShadow | None
    metrics_csv: str

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


def _sample_reg(shadow: EmaShadow | None, result, pinned: dict[str, FrozenRouting] | None) -> Value:
    terms = []
    for rec in result.sites:
        if rec.token_weights is None:
            raise ValueError(f"site {rec.site} produced no token weights to regularize")
        if pinned is None:
            ref = reference_weights(shadow, rec.site, rec.hidden_data, result.x_text.data, rec.subset)
        else:
            ref = pinned[rec.site].reference
        terms.append(reg_loss(ref, rec.token_weights, rec.subset))
    return _mean_value(terms)


def _batch_loss(
    model: Model,
    batch: Sequence[Sample],
    variant: Variant,
    shadow: EmaShadow | None,
    reg_weight: float,
    pinned: Sequence[dict[str, FrozenRouting]] | None = None,
) -> tuple[Value, Value | None, Value, list]:
    """(task, reg, total, forward results) of the training objective on one
    batch. `pinned`, one map per sample, fixes the routing constants and the
    EMA reference for the gradient audit; training leaves it unset."""
    losses: list[Value] = []
    regs: list[Value] = []
    results = []
    for i, sample in enumerate(batch):
        sample_pins = None if pinned is None else pinned[i]
        result = forward(model, sample, variant, pinned=sample_pins)
        losses.append(task_loss(result.logits, sample.label))
        if variant.use_reg:
            regs.append(_sample_reg(shadow, result, sample_pins))
        results.append(result)
    task = _mean_value(losses)
    reg = _mean_value(regs) if regs else None
    return task, reg, total_loss(task, reg, reg_weight if variant.use_reg else 0.0), results


def _trace_records(chunk_index: int, sample: Sample, site_records) -> list[dict]:
    rows = []
    for rec in site_records:
        _, layer_index, site = rec.site.split(".")
        rows.append({
            "chunk": chunk_index,
            "sample_id": sample.uid,
            "task_id": sample.task_id,
            "layer": int(layer_index),
            "site": site,
            "p": None if rec.sample_probs is None else [float(x) for x in rec.sample_probs],
            "S": [int(j) for j in rec.subset],
            "s_mean": [float(x) for x in rec.weights_data.mean(axis=0)],
        })
    return rows


def train_chunk(
    model: Model,
    chunk,
    config: RunConfig,
    optimizer: Adam,
    shadow: EmaShadow | None,
    runlog: RunLog,
    traces: list[dict],
    out_dir: Path | None = None,
) -> None:
    """One epoch over one chunk: the single pass."""
    variant = config.variant()
    samples = chunk.samples
    for batch_index, batch in enumerate(_batches(samples, config.batch_size)):
        model.params.zero_grad()
        task, reg, total, results = _batch_loss(model, batch, variant, shadow, config.reg_weight)
        tracing = config.trace_interval > 0 and batch_index % config.trace_interval == 0
        if tracing and variant.mode == "routed":
            for sample, result in zip(batch, results):
                traces.extend(_trace_records(chunk.index, sample, result.sites))

        if not np.isfinite(total.data):
            dump = {
                "chunk": chunk.index,
                "batch_index": batch_index,
                "sample_uids": [s.uid for s in batch],
                "task_loss": float(task.data),
                "reg_loss": None if reg is None else float(reg.data),
                "optimizer_steps": optimizer.step_count,
            }
            if out_dir is not None:
                (out_dir / f"diverged_chunk{chunk.index}_batch{batch_index}.json").write_text(
                    json.dumps(dump, indent=2)
                )
            raise TrainingDiverged(f"non-finite loss in chunk {chunk.index}, batch {batch_index}: {dump}")

        if variant.mode != "frozen":
            backward(total)
            if config.grad_clip > 0.0:
                clip_gradients(model.params, config.grad_clip)
            optimizer.step()
            runlog.optimizer_steps += 1
            if shadow is not None:
                ema_update(shadow, model.routing_states(), config.ema_momentum)
                runlog.ema_updates += 1

        runlog.steps.append({
            "chunk": chunk.index,
            "batch": batch_index,
            "task_loss": float(task.data),
            "reg_loss": None if reg is None else float(reg.data),
            "total_loss": float(total.data),
        })
        del task, reg, total, results   # free this batch's graph before the next is built


def evaluate(model: Model, samples: Sequence[Sample], variant: Variant | None = None) -> float:
    """Exact fraction of argmax-correct predictions on a frozen test set."""
    if len(samples) == 0:
        raise ValueError("empty evaluation set")
    rows = prediction_dump(model, samples, variant)
    return sum(predicted == label for _, predicted, label in rows) / len(samples)


def prediction_dump(model: Model, samples: Sequence[Sample], variant: Variant | None = None) -> list[tuple[str, int, int]]:
    """(uid, predicted, label) triples, the rows `evaluate` scores."""
    rows = []
    with no_grad():
        for sample in samples:
            result = forward(model, sample, variant)
            rows.append((sample.uid, int(np.argmax(result.logits.data)), sample.label))
    return rows


def _final_trace_pass(
    model: Model,
    config: RunConfig,
    test_sets: dict[int, list[Sample]],
    seen: set[int],
) -> list[dict]:
    """Routing traces over held-out samples after the stream ends.

    Recorded with chunk index n_chunks + 1 to mark them as post-stream;
    this is what the homogeneity report is meant to consume.
    """
    records: list[dict] = []
    variant = config.variant()
    if variant.mode != "routed":
        return records
    with no_grad():
        for m in sorted(seen):
            for sample in test_sets[m][: config.trace_eval_samples]:
                result = forward(model, sample, variant)
                records.extend(_trace_records(config.n_chunks + 1, sample, result.sites))
    return records


def build_stream(config: RunConfig) -> tuple[list[TaskSpec], StreamSchedule]:
    """The task specs and chunk schedule `config` describes."""
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
    config.validate()
    started = time.monotonic()
    out: Path | None = None
    target = out_dir if out_dir is not None else (config.out_dir or None)
    if target:
        out = Path(target)
        out.mkdir(parents=True, exist_ok=True)

    specs, schedule = build_stream(config)
    samplers = [TaskSampler(spec, config.effective_stream_seed) for spec in specs]

    variant = config.variant()
    model = Model(
        config.backbone(),
        n_experts=config.n_experts,
        top_k=config.top_k,
        rank=config.rank,
        routing_dim=config.routing_dim,
        variant=variant,
        seed=config.seed,
    )
    optimizer = Adam(model.params, lr=config.learning_rate)
    shadow = EmaShadow.from_states(model.routing_states()) if variant.use_reg else None

    ledger = MetricLedger()
    runlog = RunLog(config=config.to_dict())
    traces: list[dict] = []
    test_sets = {spec.task_id: samplers[spec.task_id].test_set() for spec in specs}
    seen: set[int] = set()

    for chunk in SinglePassStream(schedule, samplers):
        seen.update(int(m) for m in np.nonzero(chunk.counts)[0])
        train_chunk(model, chunk, config, optimizer, shadow, runlog, traces, out_dir=out)
        accuracies = {m: evaluate(model, test_sets[m]) for m in sorted(seen)}
        ledger.add_chunk(chunk.index, accuracies)
        runlog.evals.append({"chunk": chunk.index, "accuracy": {str(m): a for m, a in accuracies.items()}})

    traces.extend(_final_trace_pass(model, config, test_sets, seen))
    runlog.wall_seconds = time.monotonic() - started

    metrics_csv = ledger.to_csv()
    if out is not None:
        (out / "metrics.csv").write_text(metrics_csv)
        with open(out / "traces.jsonl", "w") as fh:
            for record in traces:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        ema_records = {} if shadow is None else {f"ema.{k}": v for k, v in shadow.arrays.items()}
        model.params.save(out / "checkpoint.bin", extra=ema_records)
        manifest = {
            "config": config.to_dict(),
            "variant": vars(variant),
            "stream": stream_manifest(schedule, specs),
            "outputs": {
                "metrics": "metrics.csv",
                "traces": "traces.jsonl",
                "checkpoint": "checkpoint.bin",
                "runlog": "runlog.json",
            },
        }
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        (out / "runlog.json").write_text(runlog.to_json())

    return RunResult(
        config=config,
        ledger=ledger,
        runlog=runlog,
        traces=traces,
        model=model,
        shadow=shadow,
        metrics_csv=metrics_csv,
    )


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
    """The standard audit model: small enough that probing every scalar
    with central differences stays well under a minute."""
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
        mode="routed",
        use_selection=True,
        use_token_weighting=True,
        use_reg=True,
    )


def gradient_audit(
    config: RunConfig | None = None,
    n_samples: int = 3,
    epsilon: float = 1e-5,
    rtol: float = 1e-4,
    atol: float = 1e-7,
    seed: int = 7,
) -> tuple[bool, list[AuditRow]]:
    """Check every trainable parameter's gradient against central differences.

    The objective is `_batch_loss`, the training loss (task + weighted
    stability term) through the training forward, on a fixed batch.
    Finite differences probe the same surrogate the analytic gradient
    differentiates: the expert subset, the detached half of the
    straight-through gate, and the EMA reference weights stay pinned at
    their baseline values while parameters move. Adapters are
    re-randomized first (a fresh bank has B = 0, which would hide half the
    bank behind zero gradients), and the shadow is nudged off the live
    parameters so the regularizer term is active.
    """
    if n_samples < 1:
        raise ValueError(f"the audit needs at least one sample, got n_samples={n_samples}")
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    config = config or audit_config()
    config.validate()
    variant = config.variant()
    if not (variant.use_selection and variant.use_token_weighting and variant.use_reg):
        raise ValueError("the audit exercises the full variant; enable all three stages")

    model = Model(
        config.backbone(),
        n_experts=config.n_experts,
        top_k=config.top_k,
        rank=config.rank,
        routing_dim=config.routing_dim,
        variant=variant,
        seed=seed,
    )
    rng = named_rng(seed, "audit.params")
    for _, p in model.params.items():
        p.data = 0.2 * rng.normal(size=p.data.shape)
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

    # baseline pass: pin the routing constants (subset, detached gate term,
    # EMA reference) so probing a parameter can never flip the selection
    pins: list[dict[str, FrozenRouting]] = []
    with no_grad():
        for sample in samples:
            result = forward(model, sample, variant)
            pins.append({
                rec.site: FrozenRouting(
                    subset=rec.subset,
                    sample_probs=rec.sample_probs.copy(),
                    reference=reference_weights(
                        shadow, rec.site, rec.hidden_data, result.x_text.data, rec.subset
                    ),
                )
                for rec in result.sites
            })

    def objective() -> Value:
        return _batch_loss(model, samples, variant, shadow, config.reg_weight, pinned=pins)[2]

    model.params.zero_grad()
    backward(objective())
    analytic = {
        path: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for path, p in model.params.items()
    }

    def probe() -> float:
        with no_grad():
            return float(objective().data)

    numeric = finite_diff_grad(probe, model.params, epsilon=epsilon)

    rows: list[AuditRow] = []
    for (path, _), fd in zip(model.params.items(), numeric):
        a = analytic[path]
        err = np.abs(a - fd)
        scale = np.maximum(np.maximum(np.abs(a), np.abs(fd)), atol)
        rel = err / scale
        rows.append(AuditRow(
            path=path,
            max_abs_err=float(err.max()),
            max_rel_err=float(rel.max()),
            ok=bool(np.all(err <= atol + rtol * np.maximum(np.abs(a), np.abs(fd)))),
        ))
    return all(row.ok for row in rows), rows


ABLATION_ROWS: list[tuple[str, tuple[bool, bool, bool]]] = [
    ("uniform_moe", (False, False, False)),
    ("selection_only", (True, False, False)),
    ("weighting_only", (False, True, False)),
    ("weighting_reg", (False, True, True)),
    ("two_stage", (True, True, False)),
    ("full", (True, True, True)),
]


def run_ablation_suite(config: RunConfig, out_dir: str | Path | None = None) -> list[dict]:
    """All stage-toggle combinations on identical stream contents."""
    rows = []
    out = Path(out_dir) if out_dir else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    for name, (sel, tw, reg) in ABLATION_ROWS:
        run_cfg = replace(
            config,
            mode="routed",
            use_selection=sel,
            use_token_weighting=tw,
            use_reg=reg,
            out_dir="",
        )
        result = run_stream(run_cfg, out_dir=(out / name) if out else None)
        map_t, maf_t = result.summary()
        rows.append({
            "variant": name,
            "use_selection": sel,
            "use_token_weighting": tw,
            "use_reg": reg,
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
        (out / "ablation.csv").write_text("\n".join(lines) + "\n")
    return rows
