"""Forgetting and performance accounting, the routing-trace format, and
routing-similarity diagnostics.

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

This module is the one home of both run formats. `metrics.csv`:
`MetricLedger.to_csv` writes it and `MetricLedger.read_csv` reads it
back, both against `COLUMNS`. `traces.jsonl`: `trace_records` turns a
forward's site records into rows, `write_traces` encodes them one JSON
object per line, `read_traces` reads and checks them back, and
`homogeneity_report` is built from them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, TextIO

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


# the columns of `metrics.csv`, in order: `to_csv` writes them, `read_csv` checks rows against them
COLUMNS = ("t", "m", "a", "F", "AP", "AF", "MAP", "MAF")
_SUMMARY_BLANKS = slice(COLUMNS.index("m"), COLUMNS.index("AF") + 1)    # empty in a summary row


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


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
        """`metrics.csv`: a `COLUMNS` header, then `rows()` with every column
        a row lacks left empty; floats use shortest round-trip repr."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COLUMNS)
        writer.writerows([row.get(column) for column in COLUMNS] for row in self.rows())
        return buf.getvalue()

    @classmethod
    def read_csv(cls, path) -> "MetricLedger":
        """Rebuild a ledger from a file of (t, m, a) rows: a bare dump or a
        `metrics.csv` that `to_csv` wrote.

        Blank lines are skipped. The first record is a header if none of
        its t, m and a fields is a number. A record laid out as a `to_csv`
        summary row (one field per column, m through AF empty) is skipped.
        Every other row must be an integer t, an integer m and a float a,
        its columns after a ignored, and must not repeat the (t, m) of an
        earlier row, or `ValueError` names the file and the line. Rows the
        ledger rejects as a whole (`add_chunk`) raise it naming the file.
        """
        rows: list[tuple[int, int, float]] = []
        lines: dict[tuple[int, int], int] = {}      # (t, m) -> the line that gave it
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            records = (record for record in reader if any(field.strip() for field in record))
            for index, record in enumerate(records):
                if index == 0 and not any(_is_number(field) for field in record[:3]):
                    continue  # header
                if len(record) == len(COLUMNS) and not "".join(record[_SUMMARY_BLANKS]).strip():
                    continue  # per-chunk summary row
                where = f"{path}: line {reader.line_num}"
                try:
                    t, m, a = int(record[0]), int(record[1]), float(record[2])
                except (ValueError, IndexError):
                    raise ValueError(f"{where}: expected integer t, integer m "
                                     f"and float a, got {','.join(record)!r}") from None
                if (t, m) in lines:
                    raise ValueError(f"{where}: repeats the (t, m) of line {lines[t, m]}, "
                                     f"got {','.join(record)!r}")
                lines[t, m] = reader.line_num
                rows.append((t, m, a))
        if not rows:
            raise ValueError(f"no (t, m, a) rows found in {path}")
        try:
            return cls.from_accuracy_rows(rows)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

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
# routing traces: the one home of the traces.jsonl format
# ---------------------------------------------------------------------------


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_weights(value) -> bool:
    return isinstance(value, list) and len(value) > 0 and all(
        _is_int(v) or (isinstance(v, float) and math.isfinite(v)) for v in value)


# the trace fields `homogeneity_report` reads: each one's check and what it must be
_REPORT_FIELDS = {
    "task_id": (_is_int, "an integer"),
    "sample_id": (lambda value: isinstance(value, str), "a string"),
    "layer": (_is_int, "an integer"),
    "site": (lambda value: isinstance(value, str), "a string"),
    "s_mean": (_is_weights, "a non-empty list of finite numbers"),
}


def trace_records(chunk_index: int, samples: Sequence, site_records: Sequence) -> list[dict]:
    """The trace rows of one forward over `samples`, given its `SiteRecord`s:
    one row per (sample, site), samples in batch order."""
    sites = [
        (rec.site.split("."), rec.subset,
         None if rec.sample_probs is None else rec.sample_probs.tolist(),
         rec.weights_data.mean(axis=1).tolist())
        for rec in site_records
    ]
    rows = []
    for i, sample in enumerate(samples):
        for (_, layer_index, site), subset, probs, s_mean in sites:
            rows.append({
                "chunk": chunk_index,
                "sample_id": sample.uid,
                "task_id": sample.task_id,
                "layer": int(layer_index),
                "site": site,
                "p": None if probs is None else probs[i],
                "S": list(subset[i]),
                "s_mean": s_mean[i],
            })
    return rows


def write_traces(fh: TextIO, records: Iterable[Mapping]) -> None:
    """Write trace rows as `traces.jsonl`: one JSON object per line, keys sorted."""
    encoder = json.JSONEncoder(sort_keys=True)      # json.dumps would build one per record
    for record in records:
        fh.write(encoder.encode(record) + "\n")


def read_traces(path, chunk: int | None = None) -> list[dict]:
    """The records of a `traces.jsonl` file, or only those of `chunk`.

    Blank lines are skipped. A line that is not JSON, a record that lacks
    a field `homogeneity_report` reads (or `chunk`, when given), or one
    that holds such a field with the wrong type raises `ValueError` naming
    the file and the line.
    """
    checks = _REPORT_FIELDS if chunk is None else {**_REPORT_FIELDS, "chunk": (_is_int, "an integer")}
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: not JSON: {exc.msg}") from None
            missing = checks.keys() - (record.keys() if isinstance(record, dict) else set())
            if missing:
                raise ValueError(f"{where}: trace record lacks {sorted(missing)}")
            for name, (ok, kind) in checks.items():
                if not ok(record[name]):
                    raise ValueError(f"{where}: {name} must be {kind}, got {json.dumps(record[name])}")
            if chunk is None or record["chunk"] == chunk:
                records.append(record)
    return records


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


def homogeneity_report(traces: Iterable[Mapping]) -> HomogeneityReport:
    """Build the similarity report from routing trace records.

    Each record carries {task_id, sample_id, layer, site, s_mean}. Each
    site's `s_mean` vectors, one per sample and all of one width, give its
    activation shares; a sample's feature vector concatenates them over
    all (layer, site) pairs in sorted order. Every sample must cover every
    site and every task needs at least two samples.
    """
    by_site: dict[tuple[int, str], dict[tuple[int, str], np.ndarray]] = {}
    for record in traces:
        sample = (record["task_id"], record["sample_id"])
        slot = by_site.setdefault((record["layer"], record["site"]), {})
        if sample in slot:
            raise ValueError(f"duplicate trace for sample {sample[1]} at site "
                             f"{(record['layer'], record['site'])}")
        slot[sample] = np.asarray(record["s_mean"], dtype=np.float64)
    if not by_site:
        raise ValueError("no trace records")
    site_order = sorted(by_site)
    samples = sorted(set().union(*by_site.values()))
    for task_id, sample_id in samples:
        if any((task_id, sample_id) not in by_site[site] for site in site_order):
            raise ValueError(f"sample {sample_id} is missing sites in the trace")
    for layer, site in site_order:
        widths = sorted({len(v) for v in by_site[layer, site].values()})
        if len(widths) > 1:
            raise ValueError(f"site layer.{layer}.{site} has s_mean widths {widths}")

    task_ids = sorted({task_id for task_id, _ in samples})
    blocks: dict[int, list[np.ndarray]] = {}        # task -> one (samples, width) block per site
    for task_id in task_ids:
        keys = [key for key in samples if key[0] == task_id]
        if len(keys) < 2:
            raise ValueError(f"task {task_id} has fewer than two traced samples")
        blocks[task_id] = [np.stack([by_site[site][key] for key in keys]) for site in site_order]
    features = {task_id: np.concatenate(blocks[task_id], axis=1) for task_id in task_ids}

    n = len(task_ids)
    matrix = np.zeros((n, n))
    for i, a in enumerate(task_ids):
        for j, b in enumerate(task_ids):
            if j < i:
                matrix[i, j] = matrix[j, i]
            else:
                # transpose: rows become the shared routing dimensions
                matrix[i, j] = cka(features[a].T, features[b].T)

    activation = {
        f"layer.{layer}.{site}": np.stack([blocks[task_id][k].mean(axis=0) for task_id in task_ids])
        for k, (layer, site) in enumerate(site_order)
    }
    return HomogeneityReport(task_ids=task_ids, cka_matrix=matrix, activation=activation)
