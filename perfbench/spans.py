"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: each public function that
forms a layer boundary is replaced, for the duration of one operation, by
a wrapper that records (name, start, end, parent). The wrapper is
installed in the module where the caller looks the name up, because
`from .x import y` binds a second name: `trainer.forward` and
`model.forward` are the same function under two names, and only the
first is the one `train_chunk` calls.

Spans live in flat arrays while the operation runs and are written out
once it has finished. Self time is a span's duration minus the time its
child spans cover. The time the recorder itself adds is estimated from
its work: wrapper calls and counted values, each at a cost per call
measured in-process, plus the measured time of the backward graph walks.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from array import array
from pathlib import Path

import numpy as np

# (span name, [(module, attribute path), ...]): every place a caller in the
# package looks the function up.
SPANS = [
    ("trainer.run_stream", [("cli", "run_stream")]),
    ("trainer.gradient_audit", [("cli", "gradient_audit")]),
    ("trainer.train_chunk", [("trainer", "train_chunk")]),
    ("trainer.evaluate", [("trainer", "evaluate")]),
    ("trainer.adam_step", [("trainer", "Adam.step")]),
    ("model.forward", [("trainer", "forward")]),
    ("model.task_loss", [("trainer", "task_loss")]),
    ("routing.route_st", [("model", "route_with_straight_through")]),
    ("routing.select_experts", [("model", "select_experts"), ("routing", "select_experts")]),
    ("routing.token_logits", [("model", "token_logits"), ("routing", "token_logits")]),
    ("routing.token_weights", [("model", "token_weights"), ("routing", "token_weights")]),
    ("experts.adapted_forward", [("model", "adapted_forward")]),
    ("experts.lora_delta", [("model", "lora_delta"), ("experts", "lora_delta")]),
    ("stability.reference_weights", [("trainer", "reference_weights")]),
    ("stability.reg_loss", [("trainer", "reg_loss")]),
    ("stability.ema_update", [("trainer", "ema_update")]),
    ("stream.compose_chunk", [("stream", "compose_chunk")]),
    ("stream.test_set", [("stream", "TaskSampler.test_set")]),
    ("metrics.ledger", [("metrics", "MetricLedger.add_chunk"), ("metrics", "MetricLedger.to_csv")]),
    ("autograd.backward", [("trainer", "backward")]),
    ("autograd.finite_diff_grad", [("trainer", "finite_diff_grad")]),
    ("autograd.checkpoint_save", [("autograd", "save_checkpoint")]),
]

# A forward is attributed to the innermost of these spans that encloses it.
FORWARD_PHASES = {
    "trainer.train_chunk": "train",
    "trainer.evaluate": "eval",
    "trainer.gradient_audit": "audit",
    "trainer.run_stream": "trace",
}


class _Loss:
    requires_grad = False


_LOSS = _Loss()


def _extra_cost(plain, wrapped, args=(), calls=20_000, repeats=7) -> float:
    """Seconds one call of `wrapped` takes beyond one call of `plain`:
    the median over interleaved repeats of a tight loop of each."""
    clock = time.perf_counter
    extra = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            plain(*args)
        t1 = clock()
        for _ in range(calls):
            wrapped(*args)
        t2 = clock()
        extra.append((t2 - t1) - (t1 - t0))
    return max(statistics.median(extra) / calls, 0.0)


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"streamlora.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class SpanRecorder:
    """Records spans and counts for one operation while installed."""

    def __init__(self) -> None:
        self.names = [name for name, _ in SPANS]
        self._id = {name: i for i, name in enumerate(self.names)}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._open: list[int] = []
        self.values_created = 0
        self.values_in_forward = 0
        self.graph_nodes = 0
        self.graph_samples = 0
        self.walk_s = 0.0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _span(self, fn, name: str):
        name_id = self._id[name]
        start, end, names, parent, opened = self.start, self.end, self.name, self.parent, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(opened[-1] if opened else -1)
            names.append(name_id)
            end.append(0.0)
            opened.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                opened.pop()

        return wrapper

    def _counting_forward(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self.values_created
            try:
                return fn(*args, **kwargs)
            finally:
                self.values_in_forward += self.values_created - before

        return wrapper

    def _counting_task_loss(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            loss = fn(*args, **kwargs)
            if loss.requires_grad:          # one sample joined the graph
                self.graph_samples += 1
            return loss

        return wrapper

    def _counting_backward(self, fn):
        @functools.wraps(fn)
        def wrapper(root, *args, **kwargs):
            # the nodes backward() itself visits: requires-grad nodes
            # reachable from the root through requires-grad parents
            walk_started = time.perf_counter()
            seen: set[int] = set()
            todo = [root]
            while todo:
                node = todo.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                todo.extend(p for p in node._parents if p.requires_grad)
            self.graph_nodes += len(seen)
            self.walk_s += time.perf_counter() - walk_started
            return fn(root, *args, **kwargs)

        return wrapper

    def _counting_init(self, plain_init):
        def counting_init(value, data, requires_grad=False):
            self.values_created += 1
            plain_init(value, data, requires_grad)

        return counting_init

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for name, sites in SPANS:
            for module, path in sites:
                owner, attr = _resolve(module, path)
                fn = owner.__dict__[attr]
                if id(fn) not in wrapped:   # one wrapper per function object
                    new = self._span(fn, name)
                    if name == "model.forward":
                        new = self._counting_forward(new)
                    elif name == "model.task_loss":
                        new = self._counting_task_loss(new)
                    elif name == "autograd.backward":
                        new = self._counting_backward(new)
                    wrapped[id(fn)] = new
                self._replace(owner, attr, wrapped[id(fn)])

        value_cls = importlib.import_module("streamlora.autograd").Value
        self._replace(value_cls, "__init__", self._counting_init(value_cls.__init__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def tracer_seconds(self, calls: dict[str, int]) -> float:
        """Estimated seconds the recorder added to the operation, given the
        calls per span name. Call it after uninstall()."""
        probe = SpanRecorder()   # a throwaway, so its spans go nowhere

        def plain(*args, **kwargs):
            return _LOSS

        wrappers = {
            "model.forward": probe._counting_forward(probe._span(plain, "model.forward")),
            "model.task_loss": probe._counting_task_loss(probe._span(plain, "model.task_loss")),
        }
        span_cost = _extra_cost(plain, probe._span(plain, self.names[0]))
        cost = {name: _extra_cost(plain, wrapper) for name, wrapper in wrappers.items()}
        value_cls = importlib.import_module("streamlora.autograd").Value
        value = value_cls(0.0)
        value_cost = _extra_cost(value_cls.__init__, probe._counting_init(value_cls.__init__),
                                 args=(value, 0.0))
        wrapper_s = sum(n * cost.get(name, span_cost) for name, n in calls.items())
        return wrapper_s + self.values_created * value_cost + self.walk_s

    # -- results --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        covered = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": start.copy(),
            "end": end.copy(),
            "parent": parent.copy(),
            "self": duration - covered,
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds; plus the
        forwards' calls and seconds split by the phase that caused them."""
        spans = self.arrays()
        n = len(self.names)
        duration = spans["end"] - spans["start"]
        calls = np.bincount(spans["name"], minlength=n)
        total = np.bincount(spans["name"], weights=duration, minlength=n)
        own = np.bincount(spans["name"], weights=spans["self"], minlength=n)
        out = {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }
        phase_ids = {self._id[name]: phase for name, phase in FORWARD_PHASES.items()}
        split = {phase: {"calls": 0, "s": 0.0} for phase in FORWARD_PHASES.values()}
        forward_id = self._id["model.forward"]
        for idx in np.nonzero(spans["name"] == forward_id)[0]:
            up = spans["parent"][idx]
            while up >= 0 and spans["name"][up] not in phase_ids:
                up = spans["parent"][up]
            if up >= 0:
                phase = split[phase_ids[spans["name"][up]]]
                phase["calls"] += 1
                phase["s"] += float(duration[idx])
        out["model.forward"]["phase"] = split
        return out

    def write(self, path: Path, op_id: str) -> None:
        """All spans of the operation, one row each, as numpy arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, op=np.array(op_id), names=np.array(self.names), **self.arrays())
