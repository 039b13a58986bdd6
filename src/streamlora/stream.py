"""Synthetic instruction-tuning stream with controlled task mixtures.

Each task pairs a fixed instruction template (three template token ids no
other task uses, plus a few noise tokens per sample) with Gaussian visual
prototypes: a sample of class c carries visual tokens prototype_c + noise.
Tasks own disjoint answer ranges in the global class space, so the head
never has to overwrite another task's rows; interference happens in the
shared features and adapters, which is the thing under study.

A stream is a schedule of T chunks. Chunk t draws n_t samples according
to mixture row pi_t (largest-remainder apportionment, so the counts add
up exactly), shuffles them with a chunk-derived seed, and is traversed
exactly once by the trainer. The default schedule retires task 0 after
chunk 4, which is what makes forgetting measurable.

All randomness comes from named Philox streams keyed by (seed, purpose),
so regenerating any piece is independent of generation order. The
stream is never written to disk: a run recomposes it from the seed and
the config, and its manifest records the schedule (`stream_manifest`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .autograd import named_rng
from .model import Sample

STREAM_FORMAT = "streamlora-stream-v1"


@dataclass(frozen=True)
class TaskSpec:
    """Everything needed to sample one task, test set included."""

    task_id: int
    template: tuple[int, ...]        # fixed instruction tokens, unique to the task
    n_noise_tokens: int
    noise_lo: int                    # noise token ids drawn from [noise_lo, noise_hi)
    noise_hi: int
    prototypes: np.ndarray           # (classes, d_e) unit-norm rows
    sigma: float                     # visual noise scale
    class_offset: int                # global label = class_offset + local class
    visual_tokens: int
    test_size: int

    @property
    def n_classes(self) -> int:
        return self.prototypes.shape[0]

    @property
    def d_e(self) -> int:
        return self.prototypes.shape[1]


class TaskSampler:
    """Stateless draws for one task; every (chunk, task) pair has its own
    named stream and the test set has a dedicated one."""

    def __init__(self, spec: TaskSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self._test: list[Sample] | None = None

    def _make_sample(self, rng: np.random.Generator, local_class: int, uid: str) -> Sample:
        spec = self.spec
        noise_ids = rng.integers(spec.noise_lo, spec.noise_hi, size=spec.n_noise_tokens)
        visual = spec.prototypes[local_class] + rng.normal(
            0.0, spec.sigma, size=(spec.visual_tokens, spec.d_e)
        )
        return Sample(
            visual=visual,
            instruction=spec.template + tuple(int(t) for t in noise_ids),
            label=spec.class_offset + local_class,
            task_id=spec.task_id,
            uid=uid,
        )

    def draw_train(self, chunk_index: int, count: int) -> list[Sample]:
        rng = named_rng(self.seed, f"task.{self.spec.task_id}.train.chunk.{chunk_index}")
        return [
            self._make_sample(
                rng,
                int(rng.integers(self.spec.n_classes)),
                f"t{self.spec.task_id}-c{chunk_index}-{i}",
            )
            for i in range(count)
        ]

    def test_set(self) -> list[Sample]:
        """Frozen held-out set, class-balanced, never seen in training."""
        if self._test is None:
            rng = named_rng(self.seed, f"task.{self.spec.task_id}.test")
            self._test = [
                self._make_sample(rng, i % self.spec.n_classes, f"t{self.spec.task_id}-test-{i}")
                for i in range(self.spec.test_size)
            ]
        return self._test


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamSchedule:
    """T mixture rows over M tasks plus the chunk size; rows sum to one.
    Chunks, the manifest and the trainer read the sample counts from `counts`."""

    chunk_size: int
    mixtures: np.ndarray  # (n_chunks, n_tasks)
    seed: int

    @property
    def n_chunks(self) -> int:
        return self.mixtures.shape[0]

    @property
    def n_tasks(self) -> int:
        return self.mixtures.shape[1]

    @cached_property
    def counts(self) -> np.ndarray:
        """(n_chunks, n_tasks) read-only counts, row t-1 for chunk t, apportioned once."""
        counts = np.stack([apportion(row, self.chunk_size) for row in self.mixtures])
        counts.setflags(write=False)
        return counts

    def validate(self) -> None:
        if np.any(self.mixtures < 0.0):
            raise ValueError("mixture proportions must be non-negative")
        sums = self.mixtures.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise ValueError("every mixture row must sum to 1")


def apportion(proportions: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder rounding of proportions * total to integer counts.

    Counts sum to `total` exactly; ties on the fractional part go to the
    lower index. A proportion of exactly zero never receives a sample.
    """
    p = np.asarray(proportions, dtype=np.float64)
    if total < 0:
        raise ValueError("total must be non-negative")
    if np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("proportions must be non-negative and sum to 1")
    targets = p * total
    counts = np.floor(targets).astype(np.int64)
    deficit = total - int(counts.sum())
    if deficit > 0:
        fractions = targets - counts
        order = np.argsort(-fractions, kind="stable")
        counts[order[:deficit]] += 1
    return counts


@dataclass
class Chunk:
    """One stream step. The trainer consumes it once; afterwards the
    sample list is gone for good (single-pass contract)."""

    index: int
    _samples: list[Sample] | None

    @property
    def samples(self) -> list[Sample]:
        if self._samples is None:
            raise RuntimeError(f"chunk {self.index} already consumed; the stream is single-pass")
        return self._samples

    def retire(self) -> None:
        self._samples = None


def compose_chunk(schedule: StreamSchedule, index: int, samplers: list[TaskSampler]) -> Chunk:
    """Materialize chunk `index` (1-based): draw the schedule's counts, shuffle."""
    if not 1 <= index <= schedule.n_chunks:
        raise ValueError(f"chunk index {index} outside 1..{schedule.n_chunks}")
    if len(samplers) != schedule.n_tasks:
        raise ValueError("one sampler per task, in task order")
    samples: list[Sample] = []
    for task_id, count in enumerate(schedule.counts[index - 1]):
        if count > 0:
            samples.extend(samplers[task_id].draw_train(index, int(count)))
    rng = named_rng(schedule.seed, f"chunk.{index}.shuffle")
    order = rng.permutation(len(samples))
    samples = [samples[i] for i in order]
    return Chunk(index=index, _samples=samples)


def single_pass_stream(schedule: StreamSchedule, samplers: list[TaskSampler]) -> Iterator[Chunk]:
    """Compose each chunk in turn, yield it, and retire it when the loop
    asks for the next one (or the stream ends)."""
    for t in range(1, schedule.n_chunks + 1):
        chunk = compose_chunk(schedule, t, samplers)
        yield chunk
        chunk.retire()


# ---------------------------------------------------------------------------
# default stream
# ---------------------------------------------------------------------------


def make_task_specs(
    seed: int,
    n_tasks: int = 5,
    d_e: int = 32,
    classes_per_task: int = 4,
    sigma: float = 0.25,
    visual_tokens: int = 4,
    noise_tokens: int = 3,
    test_size: int = 50,
    vocab_size: int = 64,
) -> list[TaskSpec]:
    """Task specs with pairwise-distinct templates and unit-norm prototypes.

    Template for task m uses ids {1+m, 1+M+m, 1+2M+m}; noise token ids live
    in [1+3M, vocab). Token 0 is reserved and never emitted.
    """
    noise_lo = 1 + 3 * n_tasks
    if noise_lo + 2 > vocab_size:
        raise ValueError(f"vocab size {vocab_size} too small for {n_tasks} tasks plus noise tokens")
    specs = []
    for m in range(n_tasks):
        rng = named_rng(seed, f"task.{m}.prototypes")
        protos = rng.normal(size=(classes_per_task, d_e))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        specs.append(
            TaskSpec(
                task_id=m,
                template=(1 + m, 1 + n_tasks + m, 1 + 2 * n_tasks + m),
                n_noise_tokens=noise_tokens,
                noise_lo=noise_lo,
                noise_hi=vocab_size,
                prototypes=protos,
                sigma=sigma,
                class_offset=m * classes_per_task,
                visual_tokens=visual_tokens,
                test_size=test_size,
            )
        )
    return specs


def build_default_stream(
    seed: int,
    n_tasks: int = 5,
    n_chunks: int = 12,
    chunk_size: int = 200,
) -> StreamSchedule:
    """The default mixture schedule.

    Chunks 1..4 pair task 0 with one other task in turn, so every task is
    introduced early. From chunk 5 on, task 0 is gone for good (proportion
    exactly zero) while tasks 1..M-1 recur round-robin with random extras
    and Dirichlet proportions. Fully determined by the seed.
    """
    if n_tasks < 2:
        raise ValueError("need at least two tasks for a mixture stream")
    if n_chunks < 7:
        raise ValueError("need at least 7 chunks so a retired task stays gone for 3+")
    rng = named_rng(seed, "schedule")
    others = n_tasks - 1
    mixtures = np.zeros((n_chunks, n_tasks))
    for t in range(1, n_chunks + 1):
        if t <= 4:
            active = [0, 1 + (t - 1) % others]
        else:
            base = 1 + (t - 5) % others
            pool = [m for m in range(1, n_tasks) if m != base]
            n_extra = int(rng.integers(0, min(2, len(pool)) + 1))
            extras = sorted(rng.choice(pool, size=n_extra, replace=False)) if n_extra else []
            active = [base] + [int(m) for m in extras]
        weights = rng.dirichlet(np.full(len(active), 2.0))
        for m, w in zip(active, weights):
            mixtures[t - 1, m] = w
    schedule = StreamSchedule(chunk_size=chunk_size, mixtures=mixtures, seed=seed)
    schedule.validate()
    return schedule


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


def stream_manifest(schedule: StreamSchedule, specs: list[TaskSpec]) -> dict:
    """The JSON-ready stream description a run records under `stream` in
    its `manifest.json`: schedule, per-chunk counts and task specs."""
    return {
        "format": STREAM_FORMAT,
        "seed": schedule.seed,
        "n_chunks": schedule.n_chunks,
        "chunk_size": schedule.chunk_size,
        "n_tasks": schedule.n_tasks,
        "mixtures": schedule.mixtures.tolist(),
        "counts": schedule.counts.tolist(),
        "tasks": [
            {
                "task_id": spec.task_id,
                "template": list(spec.template),
                "n_noise_tokens": spec.n_noise_tokens,
                "noise_lo": spec.noise_lo,
                "noise_hi": spec.noise_hi,
                "n_classes": spec.n_classes,
                "class_offset": spec.class_offset,
                "sigma": spec.sigma,
                "visual_tokens": spec.visual_tokens,
                "test_size": spec.test_size,
                "d_e": spec.d_e,
            }
            for spec in specs
        ],
    }
