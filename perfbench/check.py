"""Output checks for one benchmark operation.

Each check returns a list of problems; an empty list means the operation's
outputs are correct. Only public names of the package are used, so the
checks hold the program to its documented artifact formats.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

ARTIFACTS = ("metrics.csv", "traces.jsonl", "checkpoint.bin", "manifest.json", "runlog.json")
TRACE_FIELDS = {"chunk", "sample_id", "task_id", "layer", "site", "p", "S", "s_mean"}
# runlog.json carries wall_seconds, so it is compared without that field.
FINGERPRINTED = ("metrics.csv", "traces.jsonl", "checkpoint.bin", "manifest.json")


def _metrics_rows(text: str) -> tuple[list[tuple[int, int, float]], list[tuple[float, float]]]:
    """(t, m, a) rows and (MAP, MAF) summary rows of a metrics.csv."""
    records = list(csv.reader(text.splitlines()))
    if not records or records[0] != ["t", "m", "a", "F", "AP", "AF", "MAP", "MAF"]:
        raise ValueError("metrics.csv header is wrong")
    accuracy, summary = [], []
    for record in records[1:]:
        if len(record) != 8:
            raise ValueError(f"metrics.csv row has {len(record)} fields")
        if record[1]:
            accuracy.append((int(record[0]), int(record[1]), float(record[2])))
        else:
            summary.append((float(record[6]), float(record[7])))
    return accuracy, summary


def build_model(sl, config, seed: int):
    """A fresh model for `config`, built the way `run_stream` builds it."""
    return sl.Model(
        config.backbone(),
        n_experts=config.n_experts,
        top_k=config.top_k,
        rank=config.rank,
        routing_dim=config.routing_dim,
        variant=config.variant(),
        seed=seed,
    )


def check_train(sl, out: Path, config, result) -> list[str]:
    """Artifacts of one `streamlora train --out DIR` run.

    `sl` is the imported package, `config` the RunConfig the command line
    asked for and `result` the RunResult that `run_stream` returned.
    """
    missing = [name for name in ARTIFACTS if not (out / name).is_file()]
    if missing:
        return [f"missing artifacts: {missing}"]
    problems: list[str] = []
    if result.config != config:
        problems.append("run used a different config than the command line asked for")

    text = (out / "metrics.csv").read_text()
    try:
        accuracy, summary = _metrics_rows(text)
        if sl.MetricLedger.from_accuracy_rows(accuracy).to_csv() != text:
            problems.append("metrics.csv does not rebuild byte-identically from its accuracies")
        if len(summary) != config.n_chunks:
            problems.append(f"metrics.csv has {len(summary)} summary rows, expected {config.n_chunks}")
        elif summary[-1] != result.summary():
            problems.append("final MAP/MAF differ from the last summary row")
    except ValueError as exc:
        problems.append(f"metrics.csv unreadable: {exc}")

    variant = config.variant()
    fresh = build_model(sl, config, config.seed)
    try:
        leftovers = fresh.params.load(out / "checkpoint.bin")
    except (ValueError, KeyError, UnicodeDecodeError, struct.error) as exc:
        problems.append(f"checkpoint.bin does not load: {exc}")
    else:
        expected = set() if result.shadow is None else {f"ema.{k}" for k in result.shadow.arrays}
        if variant.use_reg != bool(expected) or set(leftovers) != expected:
            problems.append("checkpoint.bin ema.* records do not match the stability term")
        for path, p in result.model.params.items():
            if not np.array_equal(fresh.params[path].data, p.data):
                problems.append(f"checkpoint.bin does not restore {path} exactly")
                break

    n_traces = 0
    with open(out / "traces.jsonl") as fh:
        for line in fh:
            record = json.loads(line)
            if set(record) != TRACE_FIELDS:
                problems.append(f"trace record fields {sorted(record)}")
                break
            n_traces += 1
    if variant.mode == "routed" and n_traces == 0:
        problems.append("traces.jsonl is empty for a routed variant")

    runlog = json.loads((out / "runlog.json").read_text())
    steps = config.n_chunks * math.ceil(config.chunk_size / config.batch_size)
    if runlog["optimizer_steps"] != steps or len(runlog["steps"]) != steps:
        problems.append(f"runlog.json has {runlog['optimizer_steps']} optimizer steps, expected {steps}")
    if runlog["ema_updates"] != (steps if variant.use_reg else 0):
        problems.append(f"runlog.json has {runlog['ema_updates']} EMA updates")
    return problems


def train_fingerprint(out: Path) -> str:
    digest = hashlib.sha256()
    for name in FINGERPRINTED:
        digest.update((out / name).read_bytes())
    runlog = json.loads((out / "runlog.json").read_text())
    runlog.pop("wall_seconds", None)
    digest.update(json.dumps(runlog, sort_keys=True).encode())
    return digest.hexdigest()


def check_audit(sl, ok: bool, rows, exit_code: int) -> list[str]:
    """Result of one `streamlora gradcheck` run."""
    problems: list[str] = []
    if exit_code != 0 or not ok or not all(row.ok for row in rows):
        problems.append("gradient audit reports a mismatch")
    if [row.path for row in rows] != build_model(sl, sl.trainer.audit_config(), 0).params.paths():
        problems.append("audit did not check every trainable parameter once, in order")
    if not all(math.isfinite(row.max_rel_err) for row in rows):
        problems.append("audit reports a non-finite error")
    return problems


def audit_fingerprint(rows) -> str:
    return repr([(row.path, row.max_abs_err, row.max_rel_err, row.ok) for row in rows])
