"""Forgetting metrics, the incremental ledger, CKA, and the routing report."""

import csv
import io

import numpy as np
import pytest

from streamlora.autograd import named_rng
from streamlora.metrics import (
    HomogeneityReport,
    MetricLedger,
    ap_af,
    cka,
    forgetting,
    homogeneity_report,
)


# ---------------------------------------------------------------------------
# per-history metrics
# ---------------------------------------------------------------------------


def test_forgetting_basic_drop():
    assert forgetting([0.80, 0.60]) == pytest.approx(0.25, abs=1e-15)


def test_forgetting_uses_the_running_best():
    assert forgetting([0.5, 0.7, 0.4]) == pytest.approx(3.0 / 7.0, rel=1e-15)


def test_forgetting_is_clamped_at_zero_on_improvement():
    assert forgetting([0.5, 0.9]) == 0.0
    assert forgetting([0.2, 0.2]) == 0.0


def test_forgetting_of_a_single_point_is_zero():
    assert forgetting([0.3]) == 0.0


def test_forgetting_with_zero_best_is_zero():
    assert forgetting([0.0, 0.0]) == 0.0
    assert forgetting([0.0, 0.5]) == 0.0


def test_forgetting_is_scale_invariant():
    hist = [0.6, 0.9, 0.3, 0.45]
    assert forgetting([0.5 * a for a in hist]) == pytest.approx(forgetting(hist), rel=1e-15)


def test_forgetting_rejects_empty_history():
    with pytest.raises(ValueError, match="empty"):
        forgetting([])


def test_ap_af_hand_case():
    ap, af = ap_af([0.8, 0.6])
    assert ap == pytest.approx(0.7, abs=1e-15)
    assert af == pytest.approx(0.125, abs=1e-15)  # mean of F=0 and F=0.25


def test_ap_af_constant_history_never_forgets():
    ap, af = ap_af([0.4, 0.4, 0.4])
    assert ap == pytest.approx(0.4) and af == 0.0


def test_ap_af_monotone_improvement_never_forgets():
    _, af = ap_af([0.1, 0.5, 0.9])
    assert af == 0.0


# ---------------------------------------------------------------------------
# the ledger against a from-scratch recomputation
# ---------------------------------------------------------------------------


def brute_force(chunks, first_index, acc):
    """Recompute every row straight from the definitions."""
    data_rows = {}
    summary_rows = {}
    datasets = sorted(first_index)
    for k, t in enumerate(chunks):
        aps, afs = [], []
        for m in datasets:
            if first_index[m] > k:
                continue
            hist = [acc[m][j] for j in range(first_index[m], k + 1)]
            drops = []
            for i in range(len(hist)):
                if i == 0:
                    drops.append(0.0)
                else:
                    best = max(hist[:i])
                    drops.append(max(0.0, (best - hist[i]) / best) if best > 0 else 0.0)
            ap = sum(hist) / len(hist)
            af = sum(drops) / len(drops)
            data_rows[(t, m)] = (hist[-1], drops[-1], ap, af)
            aps.append(ap)
            afs.append(af)
        summary_rows[t] = (sum(aps) / len(aps), sum(afs) / len(afs))
    return data_rows, summary_rows


@pytest.mark.parametrize("case", range(20))
def test_ledger_matches_brute_force_on_random_histories(case):
    rng = named_rng(case, "ledger")
    n_chunks = int(rng.integers(1, 26))
    n_datasets = int(rng.integers(1, 10))
    chunks = sorted(rng.choice(np.arange(1, 60), size=n_chunks, replace=False).tolist())
    first_index = {m: int(rng.integers(0, n_chunks)) for m in range(n_datasets)}
    first_index[0] = 0  # something must be present at the first evaluation
    acc = {m: [float(a) for a in rng.uniform(size=n_chunks)] for m in range(n_datasets)}

    ledger = MetricLedger()
    for k, t in enumerate(chunks):
        ledger.add_chunk(t, {m: acc[m][k] for m in range(n_datasets) if first_index[m] <= k})

    want_rows, want_summary = brute_force(chunks, first_index, acc)
    got_data = {}
    got_summary = {}
    for row in ledger.rows():
        if row["m"] is None:
            got_summary[row["t"]] = (row["MAP"], row["MAF"])
        else:
            got_data[(row["t"], row["m"])] = (row["a"], row["F"], row["AP"], row["AF"])

    assert set(got_data) == set(want_rows)
    for key, want in want_rows.items():
        np.testing.assert_allclose(got_data[key], want, rtol=0, atol=1e-12)
    assert set(got_summary) == set(want_summary)
    for t, want in want_summary.items():
        np.testing.assert_allclose(got_summary[t], want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(ledger.summary(), want_summary[chunks[-1]], rtol=0, atol=1e-12)


def test_ledger_summary_prefixes_match_full_recomputation():
    ledger = MetricLedger()
    ledger.add_chunk(1, {0: 0.5})
    ledger.add_chunk(2, {0: 0.7, 1: 0.2})
    ledger.add_chunk(3, {0: 0.4, 1: 0.6})
    summaries = {row["t"]: (row["MAP"], row["MAF"]) for row in ledger.rows() if row["m"] is None}
    # after chunk 2: dataset 0 has [0.5, 0.7], dataset 1 has [0.2]
    map2, maf2 = summaries[2]
    assert map2 == pytest.approx((0.6 + 0.2) / 2.0, abs=1e-15)
    assert maf2 == pytest.approx(0.0, abs=1e-15)
    # after chunk 3: dataset 0 drops from 0.7 to 0.4
    map3, maf3 = summaries[3]
    assert (map3, maf3) == ledger.summary()
    f0 = (0.7 - 0.4) / 0.7
    assert map3 == pytest.approx(((0.5 + 0.7 + 0.4) / 3 + (0.2 + 0.6) / 2) / 2, abs=1e-15)
    assert maf3 == pytest.approx((f0 / 3 + 0.0) / 2, abs=1e-15)


def test_ledger_rejects_bad_updates():
    ledger = MetricLedger()
    ledger.add_chunk(3, {0: 0.5})
    with pytest.raises(ValueError, match="not after"):
        ledger.add_chunk(3, {0: 0.5})
    with pytest.raises(ValueError, match="not after"):
        ledger.add_chunk(1, {0: 0.5})
    with pytest.raises(ValueError, match="no accuracies"):
        ledger.add_chunk(4, {})
    with pytest.raises(ValueError, match="absent from evaluation"):
        ledger.add_chunk(4, {1: 0.5})
    with pytest.raises(ValueError, match="outside"):
        ledger.add_chunk(4, {0: 1.5})
    with pytest.raises(ValueError, match="nothing recorded"):
        MetricLedger().summary()


def test_ledger_dataset_ids_are_sorted():
    ledger = MetricLedger()
    ledger.add_chunk(1, {4: 0.1, 0: 0.2, 2: 0.3})
    assert ledger.dataset_ids() == [0, 2, 4]


def test_csv_export_shape_and_round_trip():
    rng = named_rng(7, "csv")
    ledger = MetricLedger()
    ledger.add_chunk(1, {0: float(rng.uniform())})
    ledger.add_chunk(2, {0: float(rng.uniform()), 1: float(rng.uniform())})
    ledger.add_chunk(5, {0: float(rng.uniform()), 1: float(rng.uniform())})
    text = ledger.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,m,a,F,AP,AF,MAP,MAF"
    assert len(lines) == 1 + (1 + 1) + (2 + 1) + (2 + 1)

    triples = []
    for row in csv.reader(io.StringIO(text)):
        if row[0] == "t" or row[1] == "":
            continue  # header and summary rows
        triples.append((int(row[0]), int(row[1]), float(row[2])))
    rebuilt = MetricLedger.from_accuracy_rows(triples)
    assert rebuilt.to_csv() == text  # float repr makes this exact


def test_read_csv_gives_back_the_evaluations_to_csv_wrote(tmp_path):
    rng = named_rng(8, "csv")
    ledger = MetricLedger()
    ledger.add_chunk(1, {0: float(rng.uniform())})
    ledger.add_chunk(2, {0: float(rng.uniform()), 3: float(rng.uniform())})
    ledger.add_chunk(5, {0: 0.0, 1: 1.0, 3: float(rng.uniform())})
    path = tmp_path / "metrics.csv"
    path.write_text(ledger.to_csv())
    assert MetricLedger.read_csv(path).evaluations == ledger.evaluations


def test_from_accuracy_rows_orders_chunks_itself():
    rows = [(5, 0, 0.3), (1, 0, 0.9), (3, 0, 0.6)]
    ledger = MetricLedger.from_accuracy_rows(rows)
    assert ledger.evaluations == [(1, {0: 0.9}), (3, {0: 0.6}), (5, {0: 0.3})]
    assert [row["a"] for row in ledger.rows() if row["m"] == 0] == [0.9, 0.6, 0.3]


def test_from_accuracy_rows_rejects_a_repeated_chunk_and_dataset():
    with pytest.raises(ValueError, match=r"\(t, m\) = \(1, 0\) given twice"):
        MetricLedger.from_accuracy_rows([(1, 0, 0.5), (1, 0, 0.75), (2, 0, 0.25)])


# ---------------------------------------------------------------------------
# CKA
# ---------------------------------------------------------------------------


def gram_cka(x, y):
    """Independent route: centered Gram matrices and a Frobenius inner product."""
    n = x.shape[0]
    h = np.eye(n) - np.full((n, n), 1.0 / n)
    kc = h @ (x @ x.T) @ h
    lc = h @ (y @ y.T) @ h
    return float((kc * lc).sum() / (np.linalg.norm(kc) * np.linalg.norm(lc)))


def test_cka_of_a_matrix_with_itself_is_one():
    rng = named_rng(0, "self")
    for _ in range(10):
        x = rng.normal(size=(12, 5))
        assert cka(x, x) == pytest.approx(1.0, abs=1e-12)


def test_cka_is_invariant_to_rotation_scaling_and_translation():
    rng = named_rng(1, "invariance")
    x = rng.normal(size=(20, 6))
    y = rng.normal(size=(20, 4))
    base = cka(x, y)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    assert cka(x @ q, y) == pytest.approx(base, abs=1e-10)
    assert cka(3.7 * x, y) == pytest.approx(base, abs=1e-10)
    assert cka(x + rng.normal(size=6), y) == pytest.approx(base, abs=1e-10)
    assert cka(x, x @ q) == pytest.approx(1.0, abs=1e-10)


def test_cka_is_symmetric():
    rng = named_rng(2, "sym")
    x = rng.normal(size=(15, 3))
    y = rng.normal(size=(15, 7))
    assert cka(x, y) == pytest.approx(cka(y, x), abs=1e-12)


@pytest.mark.parametrize("case", range(50))
def test_cka_matches_the_gram_formulation(case):
    rng = named_rng(case, "gram")
    n = int(rng.integers(3, 20))
    x = rng.normal(size=(n, int(rng.integers(1, 8))))
    y = rng.normal(size=(n, int(rng.integers(1, 8))))
    assert cka(x, y) == pytest.approx(gram_cka(x, y), abs=1e-10)


def test_cka_lies_in_the_unit_interval():
    rng = named_rng(3, "range")
    for _ in range(100):
        n = int(rng.integers(2, 10))
        x = rng.normal(size=(n, int(rng.integers(1, 6))))
        y = rng.normal(size=(n, int(rng.integers(1, 6))))
        score = cka(x, y)
        assert -1e-12 <= score <= 1.0 + 1e-12


def test_cka_input_validation():
    good = np.random.default_rng(0).normal(size=(5, 3))
    with pytest.raises(ValueError, match="2-D"):
        cka(good[:, 0], good)
    with pytest.raises(ValueError, match="row counts differ"):
        cka(good, good[:4])
    with pytest.raises(ValueError, match="at least two rows"):
        cka(good[:1], good[:1])
    with pytest.raises(ValueError, match="degenerate"):
        cka(np.ones((5, 3)), good)


# ---------------------------------------------------------------------------
# homogeneity report
# ---------------------------------------------------------------------------


def trace(task_id, sample_id, layer, site, s_mean):
    return {
        "task_id": task_id, "sample_id": sample_id,
        "layer": layer, "site": site, "s_mean": list(s_mean),
    }


def two_site_traces(vectors_by_task):
    """One record per (sample, layer, site); both sites get the same vector."""
    records = []
    for task_id, vectors in vectors_by_task.items():
        for i, vec in enumerate(vectors):
            for layer, site in ((0, "attn_out"), (0, "ffn_up")):
                records.append(trace(task_id, f"t{task_id}-s{i}", layer, site, vec))
    return records


def test_report_identical_routing_scores_one_everywhere():
    shared = [[0.9, 0.1, 0.0, 0.0], [0.6, 0.4, 0.0, 0.0], [0.8, 0.2, 0.0, 0.0]]
    report = homogeneity_report(two_site_traces({0: shared, 1: shared}))
    assert report.task_ids == [0, 1]
    np.testing.assert_allclose(report.cka_matrix, np.ones((2, 2)), atol=1e-12)
    assert report.mean_off_diagonal() == pytest.approx(1.0, abs=1e-12)


def test_report_disjoint_experts_score_well_below_identical():
    a = [[0.95, 0.05, 0.0, 0.0], [0.7, 0.3, 0.0, 0.0], [0.85, 0.15, 0.0, 0.0]]
    b = [[0.0, 0.0, 0.1, 0.9], [0.0, 0.0, 0.35, 0.65], [0.0, 0.0, 0.2, 0.8]]
    report = homogeneity_report(two_site_traces({0: a, 1: b}))
    assert report.cka_matrix[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert report.cka_matrix[0, 1] == report.cka_matrix[1, 0]
    assert report.mean_off_diagonal() < 0.5


def test_report_handles_unequal_sample_counts():
    a = [[0.9, 0.1], [0.7, 0.3], [0.6, 0.4], [0.8, 0.2]]
    b = [[0.2, 0.8], [0.4, 0.6]]
    report = homogeneity_report(two_site_traces({0: a, 1: b}))
    assert report.cka_matrix.shape == (2, 2)
    assert np.all(np.isfinite(report.cka_matrix))


def test_report_activation_shares_are_task_means():
    a = [[0.9, 0.1], [0.7, 0.3]]
    b = [[0.2, 0.8], [0.4, 0.6]]
    report = homogeneity_report(two_site_traces({0: a, 1: b}))
    assert sorted(report.activation) == ["layer.0.attn_out", "layer.0.ffn_up"]
    for shares in report.activation.values():
        np.testing.assert_allclose(shares[0], [0.8, 0.2], atol=1e-12)
        np.testing.assert_allclose(shares[1], [0.3, 0.7], atol=1e-12)
        np.testing.assert_allclose(shares.sum(axis=1), 1.0, atol=1e-12)


def test_report_single_expert_activation_is_total():
    vecs = {0: [[1.0], [1.0]], 1: [[1.0], [1.0]]}
    with pytest.raises(ValueError, match="degenerate"):
        homogeneity_report(two_site_traces(vecs))  # no variance to compare


def test_report_input_validation():
    with pytest.raises(ValueError, match="no trace records"):
        homogeneity_report([])
    base = two_site_traces({0: [[0.9, 0.1], [0.6, 0.4]], 1: [[0.3, 0.7], [0.5, 0.5]]})
    with pytest.raises(ValueError, match="duplicate trace"):
        homogeneity_report(base + [base[0]])
    with pytest.raises(ValueError, match="missing sites"):
        homogeneity_report(base + [trace(1, "lonely", 0, "attn_out", [0.5, 0.5])])
    with pytest.raises(ValueError, match=r"site layer.0.ffn_up has s_mean widths \[2, 3\]"):
        homogeneity_report(base[:-1] + [trace(1, "t1-s1", 0, "ffn_up", [0.5, 0.25, 0.25])])
    short = two_site_traces({0: [[0.9, 0.1], [0.6, 0.4]], 1: [[0.3, 0.7]]})
    with pytest.raises(ValueError, match="fewer than two"):
        homogeneity_report(short)


def test_mean_off_diagonal_needs_two_tasks():
    report = HomogeneityReport(
        task_ids=[0], cka_matrix=np.ones((1, 1)), activation={}
    )
    with pytest.raises(ValueError, match="at least two tasks"):
        report.mean_off_diagonal()
