"""Routed low-rank adapters for single-pass instruction-tuning streams.

A small float64 stack: reverse-mode autograd core, LoRA expert banks with
two-stage routing (sample-level selection, token-level weighting), an EMA
routing-stability regularizer, a frozen toy transformer backbone, a
synthetic chunked task-stream composer, and forgetting/CKA metrics.

The package namespace holds only what a caller builds a run from; every
other name is imported from its own module (`streamlora.autograd`,
`streamlora.routing`, ...).
"""

from .metrics import MetricLedger
from .model import Model
from .stability import EmaShadow
from .stream import TaskSampler, build_default_stream, make_task_specs
from .trainer import Adam, RunConfig, apply_variant
