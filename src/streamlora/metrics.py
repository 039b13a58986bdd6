"""Forgetting and performance accounting, plus routing-similarity diagnostics.

Accuracy bookkeeping follows the usual continual-learning definitions. For
one dataset with accuracy history a_1..a_t (indexed by the evaluations it
has received so far):

    F_t  = max(0, (max_{j<t} a_j - a_t) / max_{j<t} a_j)   (F_1 = 0)
    AP_t = mean(a_1..a_t)
    AF_t = mean(F_1..F_t)

and MAP/MAF at chunk t average AP/AF over every dataset that has appeared
in the stream so far, unweighted. F is also 0 whenever the historical best
is 0, since there is nothing to forget.

Routing similarity uses linear CKA. For cross-task comparison each task
contributes a feature matrix (samples x routing dims, the concatenated
mean-token expert weights over all sites); tasks have different sample
counts, so the pairwise score feeds CKA the transposed matrices. Rows are
then the routing dimensions, shared by construction, and columns are
samples. Homogeneous routing makes every task's expert-usage structure
look alike (scores near 1); specialized routing drives cross-task scores
down.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np


def forgetting(history: Sequence[float]) -> float:
    """Relative drop from the historical best, clamped at zero."""
    if len(history) == 0:
        raise ValueError("empty accuracy history")
    if len(history) == 1:
        return 0.0
    best = max(history[:-1])
    if best == 0.0:
        return 0.0
    return max(0.0, (best - history[-1]) / best)


def ap_af(history: Sequence[float]) -> tuple[float, float]:
    """Average performance and average forgetting over one history."""
    if len(history) == 0:
        raise ValueError("empty accuracy history")
    drops = [forgetting(history[: i + 1]) for i in range(len(history))]
    return float(np.mean(history)), float(np.mean(drops))


class MetricLedger:
    """The task x chunk accuracy matrix: one `(chunk, {dataset: accuracy})`
    pair per `add_chunk`, in chunk order, from which every export derives.

    `add_chunk` receives the evaluation results for every dataset seen so
    far; a dataset may join at any chunk but can never be dropped again.
    """

    def __init__(self) -> None:
        self.evaluations: list[tuple[int, dict[int, float]]] = []

    def add_chunk(self, chunk: int, accuracies: Mapping[int, float]) -> None:
        if self.evaluations and chunk <= self.evaluations[-1][0]:
            raise ValueError(f"chunk {chunk} is not after {self.evaluations[-1][0]}")
        if not accuracies:
            raise ValueError("no accuracies to record")
        missing = set(self.dataset_ids()) - set(accuracies)
        if missing:
            raise ValueError(f"previously seen datasets absent from evaluation: {sorted(missing)}")
        for m, acc in accuracies.items():
            if not 0.0 <= acc <= 1.0:
                raise ValueError(f"accuracy {acc} for dataset {m} outside [0, 1]")
        self.evaluations.append((chunk, {int(m): float(acc) for m, acc in accuracies.items()}))

    def dataset_ids(self) -> list[int]:
        """Every dataset evaluated so far: the last chunk's, since none is dropped."""
        return sorted(self.evaluations[-1][1]) if self.evaluations else []

    def summary(self) -> tuple[float, float]:
        """(MAP, MAF) after the last chunk: its summary row."""
        if not self.evaluations:
            raise ValueError("nothing recorded yet")
        last = self.rows()[-1]
        return last["MAP"], last["MAF"]

    def rows(self) -> list[dict]:
        """Flat export: one row per (chunk, dataset) and one summary row per
        chunk with dataset set to None, whose MAP/MAF average the AP/AF of
        that chunk's dataset rows."""
        out: list[dict] = []
        for k, (chunk, accuracies) in enumerate(self.evaluations, start=1):
            aps, afs = [], []
            for m in sorted(accuracies):
                history = [acc[m] for _, acc in self.evaluations[:k] if m in acc]
                ap, af = ap_af(history)
                aps.append(ap)
                afs.append(af)
                out.append({
                    "t": chunk, "m": m,
                    "a": history[-1],
                    "F": forgetting(history),
                    "AP": ap, "AF": af,
                })
            out.append({"t": chunk, "m": None,
                        "MAP": float(np.mean(aps)), "MAF": float(np.mean(afs))})
        return out

    def to_csv(self) -> str:
        """Deterministic text form; floats use shortest round-trip repr."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t", "m", "a", "F", "AP", "AF", "MAP", "MAF"])
        for row in self.rows():
            if row["m"] is None:
                writer.writerow([row["t"], "", "", "", "", "", repr(row["MAP"]), repr(row["MAF"])])
            else:
                writer.writerow([
                    row["t"], row["m"],
                    repr(row["a"]), repr(row["F"]), repr(row["AP"]), repr(row["AF"]), "", "",
                ])
        return buf.getvalue()

    @classmethod
    def from_accuracy_rows(cls, rows: Iterable[tuple[int, int, float]]) -> "MetricLedger":
        """Rebuild a ledger from raw (chunk, dataset, accuracy) triples. A
        (t, m) given twice raises `ValueError`."""
        by_chunk: dict[int, dict[int, float]] = {}
        for t, m, a in rows:
            chunk = by_chunk.setdefault(int(t), {})
            if int(m) in chunk:
                raise ValueError(f"accuracy of (t, m) = ({int(t)}, {int(m)}) given twice")
            chunk[int(m)] = float(a)
        ledger = cls()
        for t in sorted(by_chunk):
            ledger.add_chunk(t, by_chunk[t])
        return ledger


# ---------------------------------------------------------------------------
# CKA
# ---------------------------------------------------------------------------


def cka(x: np.ndarray, y: np.ndarray) -> float:
    """Linear centered kernel alignment between paired feature matrices.

    x is (n, p), y is (n, q) with the same n >= 2. Columns are centered;
    the score is ||y_c^T x_c||_F^2 / (||x_c^T x_c||_F ||y_c^T y_c||_F),
    which is 1 for identical features and invariant to orthogonal
    transformations and isotropic scaling of either side.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("cka expects 2-D feature matrices")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"row counts differ: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 2:
        raise ValueError("need at least two rows")
    xc = x - x.mean(axis=0, keepdims=True)
    yc = y - y.mean(axis=0, keepdims=True)
    cross = np.linalg.norm(yc.T @ xc) ** 2
    norm_x = np.linalg.norm(xc.T @ xc)
    norm_y = np.linalg.norm(yc.T @ yc)
    if norm_x == 0.0 or norm_y == 0.0:
        raise ValueError("degenerate features: a side has zero variance")
    return float(cross / (norm_x * norm_y))


# ---------------------------------------------------------------------------
# routing homogeneity
# ---------------------------------------------------------------------------


@dataclass
class HomogeneityReport:
    """Cross-task routing similarity plus per-site expert usage."""

    task_ids: list[int]
    cka_matrix: np.ndarray                    # (M, M), diagonal 1
    activation: dict[str, np.ndarray]         # site -> (M, N), rows sum to 1

    def mean_off_diagonal(self) -> float:
        m = self.cka_matrix
        if m.shape[0] < 2:
            raise ValueError("need at least two tasks for an off-diagonal mean")
        mask = ~np.eye(m.shape[0], dtype=bool)
        return float(m[mask].mean())


def _trace_site_key(record: Mapping) -> tuple[int, str]:
    return int(record["layer"]), str(record["site"])


def homogeneity_report(traces: Iterable[Mapping]) -> HomogeneityReport:
    """Build the similarity report from routing trace records.

    Each record carries {task_id, sample_id, layer, site, s_mean}. A
    sample's feature vector concatenates its mean-token weight vectors
    over all (layer, site) pairs in sorted order; every sample must cover
    every site and every task needs at least two samples.
    """
    per_sample: dict[tuple[int, str], dict[tuple[int, str], np.ndarray]] = {}
    sites: set[tuple[int, str]] = set()
    for record in traces:
        key = (int(record["task_id"]), str(record["sample_id"]))
        site = _trace_site_key(record)
        sites.add(site)
        slot = per_sample.setdefault(key, {})
        if site in slot:
            raise ValueError(f"duplicate trace for sample {key[1]} at site {site}")
        slot[site] = np.asarray(record["s_mean"], dtype=np.float64)
    if not per_sample:
        raise ValueError("no trace records")
    site_order = sorted(sites)

    by_task: dict[int, list[np.ndarray]] = {}
    for (task_id, sample_id), slots in sorted(per_sample.items()):
        if set(slots) != sites:
            raise ValueError(f"sample {sample_id} is missing sites in the trace")
        by_task.setdefault(task_id, []).append(np.concatenate([slots[s] for s in site_order]))

    task_ids = sorted(by_task)
    features = {}
    for task_id in task_ids:
        rows = by_task[task_id]
        if len(rows) < 2:
            raise ValueError(f"task {task_id} has fewer than two traced samples")
        features[task_id] = np.stack(rows)

    n = len(task_ids)
    matrix = np.zeros((n, n))
    for i, a in enumerate(task_ids):
        for j, b in enumerate(task_ids):
            if j < i:
                matrix[i, j] = matrix[j, i]
            else:
                # transpose: rows become the shared routing dimensions
                matrix[i, j] = cka(features[a].T, features[b].T)

    activation: dict[str, np.ndarray] = {}
    n_sites = len(site_order)
    for s_idx, site in enumerate(site_order):
        width = features[task_ids[0]].shape[1] // n_sites
        rows = []
        for task_id in task_ids:
            block = features[task_id][:, s_idx * width : (s_idx + 1) * width]
            rows.append(block.mean(axis=0))
        activation[f"layer.{site[0]}.{site[1]}"] = np.stack(rows)

    return HomogeneityReport(task_ids=task_ids, cka_matrix=matrix, activation=activation)
