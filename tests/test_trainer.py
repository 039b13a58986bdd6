"""Config parsing, the optimizer, the training loop, artifacts, and the CLI."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from streamlora.autograd import ParamStore, Value, named_rng
from streamlora.cli import main
from streamlora.model import Model, Variant
from streamlora.stream import TaskSampler, build_default_stream, compose_chunk, make_task_specs
from streamlora.trainer import (
    ABLATION_ROWS,
    Adam,
    RunConfig,
    RunLog,
    TrainingDiverged,
    apply_variant,
    audit_config,
    clip_gradients,
    evaluate,
    gradient_audit,
    load_config,
    parse_config_text,
    prediction_dump,
    run_stream,
    train_chunk,
)

TINY = dict(
    n_layers=1, d_hidden=8, n_heads=2, vocab_size=32,
    n_experts=3, top_k=2, rank=2, routing_dim=4,
    n_tasks=2, n_chunks=7, chunk_size=12, batch_size=6,
    classes_per_task=2, visual_tokens=2, noise_tokens=2,
    test_size=8, trace_interval=2, trace_eval_samples=4,
)


def tiny_config(**overrides):
    return replace(RunConfig(**TINY), **overrides)


def tiny_config_text():
    return "\n".join(f"{key} = {value}" for key, value in TINY.items())


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_parse_config_coerces_each_field_type():
    cfg = parse_config_text(
        """
        # a comment line
        n_layers = 3
        learning_rate = 0.01   # trailing comment
        use_reg = false
        mode = shared_lora
        n_experts = 1
        top_k = 1
        """
    )
    assert cfg.n_layers == 3
    assert cfg.learning_rate == pytest.approx(0.01)
    assert cfg.use_reg is False
    assert cfg.mode == "shared_lora"
    assert cfg.d_hidden == RunConfig().d_hidden  # untouched fields keep defaults


def test_parse_config_accepts_bool_synonyms():
    assert parse_config_text("use_reg = Yes").use_reg is True
    assert parse_config_text("use_reg = 0").use_reg is False
    with pytest.raises(ValueError, match="expected a boolean"):
        parse_config_text("use_reg = maybe")


def test_parse_config_rejects_unknown_keys_and_bad_lines():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_text("learning_rte = 0.1")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_config_text("just some words")


def test_every_config_field_survives_a_text_round_trip():
    cfg = tiny_config(learning_rate=0.003, use_reg=False, stream_seed=9)
    text = "\n".join(f"{k} = {v}" for k, v in cfg.to_dict().items())
    assert parse_config_text(text) == cfg


def test_load_config_reads_a_file_on_top_of_a_base(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 42\nn_chunks = 9\n")
    cfg = load_config(path, base=tiny_config())
    assert cfg.seed == 42 and cfg.n_chunks == 9
    assert cfg.d_hidden == 8  # base survives


def test_apply_variant_aliases_and_toggle_lists():
    base = tiny_config()
    full = apply_variant(base, "full")
    assert (full.mode, full.use_selection, full.use_token_weighting, full.use_reg) == (
        "routed", True, True, True,
    )
    uniform = apply_variant(base, "uniform_moe")
    assert (uniform.use_selection, uniform.use_token_weighting, uniform.use_reg) == (
        False, False, False,
    )
    assert apply_variant(base, "none") == uniform
    shared = apply_variant(base, "shared_lora")
    assert shared.mode == "shared_lora"
    assert shared.n_experts == 1 and shared.top_k == 1
    assert apply_variant(base, "frozen").mode == "frozen"
    two_stage = apply_variant(base, "p, s")
    assert (two_stage.use_selection, two_stage.use_token_weighting, two_stage.use_reg) == (
        True, True, False,
    )
    assert apply_variant(base, "S,REG").use_reg is True
    with pytest.raises(ValueError, match="unknown variant component"):
        apply_variant(base, "p,q")


def test_config_validation_catches_inconsistencies():
    with pytest.raises(ValueError, match="top_k"):
        tiny_config(top_k=5).validate()
    with pytest.raises(ValueError, match="single expert"):
        tiny_config(mode="shared_lora").validate()  # pinned at n_experts=3
    with pytest.raises(ValueError, match="ema_momentum"):
        tiny_config(ema_momentum=1.0).validate()
    with pytest.raises(ValueError, match="reg_weight"):
        tiny_config(reg_weight=-0.1).validate()
    with pytest.raises(ValueError, match="learning_rate"):
        tiny_config(learning_rate=0.0).validate()
    with pytest.raises(ValueError, match="sizes must be positive"):
        tiny_config(batch_size=0).validate()


def test_config_derived_properties():
    cfg = tiny_config()
    assert cfg.n_classes == 4
    assert cfg.effective_stream_seed == cfg.seed
    assert tiny_config(stream_seed=5).effective_stream_seed == 5
    assert cfg.backbone().n_classes == 4
    shared = tiny_config(mode="shared_lora", n_experts=1, top_k=1, use_reg=True)
    assert shared.variant() == Variant("shared_lora", False, False, False)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_adam_first_step_matches_hand_recomputation():
    store = ParamStore()
    p = store.add("w", Value([1.0, 2.0]))
    g = np.array([0.5, -1.0])
    p.grad = g.copy()
    opt = Adam(store, lr=0.01)
    opt.step()
    # after one step the bias corrections cancel the (1 - beta) factors
    want = np.array([1.0, 2.0]) - 0.01 * g / (np.sqrt(g * g) + 1e-8)
    np.testing.assert_allclose(p.data, want, rtol=0, atol=1e-15)
    assert opt.step_count == 1


def test_adam_second_step_with_identical_gradient():
    store = ParamStore()
    p = store.add("w", Value([0.0]))
    opt = Adam(store, lr=0.1)
    for _ in range(2):
        p.grad = np.array([2.0])
        opt.step()
    # a constant gradient gives the same bias-corrected update twice
    np.testing.assert_allclose(p.data, [-0.2 * 2.0 / (2.0 + 1e-8)], rtol=1e-12)


def test_adam_leaves_gradient_free_parameters_alone():
    store = ParamStore()
    touched = store.add("a", Value([1.0]))
    idle = store.add("b", Value([5.0]))
    opt = Adam(store, lr=0.5)
    touched.grad = np.array([1.0])
    opt.step()
    assert idle.data[0] == 5.0  # exactly: zero moments give a zero update
    assert touched.data[0] != 1.0


def test_clip_gradients_scales_to_the_requested_norm():
    store = ParamStore()
    p = store.add("w", Value([0.0, 0.0]))
    p.grad = np.array([3.0, 4.0])
    norm = clip_gradients(store, max_norm=1.0)
    assert norm == pytest.approx(5.0, abs=1e-12)
    np.testing.assert_allclose(p.grad, [0.6, 0.8], rtol=1e-12)


def test_clip_gradients_is_a_no_op_below_the_threshold_or_when_disabled():
    store = ParamStore()
    p = store.add("w", Value([0.0, 0.0]))
    p.grad = np.array([3.0, 4.0])
    assert clip_gradients(store, max_norm=10.0) == pytest.approx(5.0)
    np.testing.assert_array_equal(p.grad, [3.0, 4.0])
    assert clip_gradients(store, max_norm=0.0) == pytest.approx(5.0)
    np.testing.assert_array_equal(p.grad, [3.0, 4.0])


# ---------------------------------------------------------------------------
# training runs
# ---------------------------------------------------------------------------


def test_run_stream_step_accounting_and_summary():
    result = run_stream(tiny_config())
    # 7 chunks x ceil(12 / 6) batches
    assert result.runlog.optimizer_steps == 14
    assert result.runlog.ema_updates == 14
    assert result.shadow is not None and result.shadow.updates == 14
    assert len(result.runlog.evals) == 7
    assert result.summary() == result.ledger.summary()
    map_t, maf_t = result.summary()
    assert 0.0 <= map_t <= 1.0 and 0.0 <= maf_t <= 1.0


def test_run_stream_is_deterministic():
    a = run_stream(tiny_config())
    b = run_stream(tiny_config())
    assert a.metrics_csv == b.metrics_csv
    assert [s["total_loss"] for s in a.runlog.steps] == [s["total_loss"] for s in b.runlog.steps]
    c = run_stream(tiny_config(seed=1))
    assert c.metrics_csv != a.metrics_csv


def test_frozen_run_never_steps_and_never_forgets():
    result = run_stream(tiny_config(mode="frozen", use_reg=False))
    assert result.runlog.optimizer_steps == 0
    assert result.shadow is None
    assert len(result.model.params) == 0
    for history in result.ledger.histories.values():
        assert len(set(history)) == 1  # constant accuracy per task
    assert result.summary()[1] == 0.0
    assert result.traces == []


def test_reg_free_variants_carry_no_shadow():
    result = run_stream(tiny_config(use_reg=False))
    assert result.shadow is None
    assert all(s["reg_loss"] is None for s in result.runlog.steps)


def test_run_stream_traces_cover_training_and_the_final_pass():
    cfg = tiny_config()
    result = run_stream(cfg)
    chunks = {r["chunk"] for r in result.traces}
    assert chunks == set(range(1, 9))  # 7 training chunks + post-stream pass
    final = [r for r in result.traces if r["chunk"] == 8]
    # both tasks, trace_eval_samples each, one record per site
    assert len(final) == 2 * 4 * (1 * 2)
    for record in result.traces:
        assert set(record) == {"chunk", "sample_id", "task_id", "layer", "site", "p", "S", "s_mean"}
        assert len(record["S"]) == cfg.top_k
        assert len(record["s_mean"]) == cfg.n_experts
        assert record["p"] is None or len(record["p"]) == cfg.n_experts


def test_run_stream_writes_the_artifact_set(tmp_path):
    cfg = tiny_config()
    result = run_stream(cfg, out_dir=tmp_path)
    for name in ("metrics.csv", "traces.jsonl", "checkpoint.bin", "manifest.json", "runlog.json"):
        assert (tmp_path / name).exists(), name
    assert (tmp_path / "metrics.csv").read_text() == result.metrics_csv

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["n_chunks"] == 7
    assert manifest["variant"]["mode"] == "routed"
    assert manifest["stream"]["n_tasks"] == 2
    assert manifest["outputs"]["checkpoint"] == "checkpoint.bin"

    runlog = json.loads((tmp_path / "runlog.json").read_text())
    assert runlog["optimizer_steps"] == 14

    lines = (tmp_path / "traces.jsonl").read_text().strip().split("\n")
    assert len(lines) == len(result.traces)
    assert json.loads(lines[0])["chunk"] == 1


def test_checkpoint_restores_the_exact_parameters(tmp_path):
    cfg = tiny_config()
    result = run_stream(cfg, out_dir=tmp_path)
    fresh = Model(
        cfg.backbone(), n_experts=cfg.n_experts, top_k=cfg.top_k, rank=cfg.rank,
        routing_dim=cfg.routing_dim, variant=cfg.variant(), seed=cfg.seed,
    )
    leftovers = fresh.params.load(tmp_path / "checkpoint.bin")
    for path, trained in result.model.params.items():
        assert np.array_equal(fresh.params[path].data, trained.data), path
    assert leftovers and all(key.startswith("ema.") for key in leftovers)
    for key, arr in leftovers.items():
        np.testing.assert_array_equal(arr, result.shadow.arrays[key[len("ema."):]])


def test_divergence_raises_and_dumps_the_batch(tmp_path):
    cfg = tiny_config(use_reg=False)
    model = Model(
        cfg.backbone(), n_experts=cfg.n_experts, top_k=cfg.top_k, rank=cfg.rank,
        routing_dim=cfg.routing_dim, variant=cfg.variant(), seed=0,
    )
    model.head_weight.data[:] = np.nan
    specs = make_task_specs(
        0, n_tasks=2, d_e=8, classes_per_task=2, sigma=0.25,
        visual_tokens=2, noise_tokens=2, test_size=8, vocab_size=32,
    )
    schedule = build_default_stream(0, n_tasks=2, n_chunks=7, chunk_size=12)
    chunk = compose_chunk(schedule, 1, [TaskSampler(s, 0) for s in specs])
    with pytest.raises(TrainingDiverged, match="non-finite loss in chunk 1"):
        train_chunk(
            model, chunk, cfg, Adam(model.params, lr=cfg.learning_rate),
            None, RunLog(config={}), [], out_dir=tmp_path,
        )
    dump_path = tmp_path / "diverged_chunk1_batch0.json"
    assert dump_path.exists()
    dump = json.loads(dump_path.read_text())
    assert dump["chunk"] == 1 and len(dump["sample_uids"]) == 6


def test_evaluate_agrees_with_the_prediction_dump():
    cfg = tiny_config()
    result = run_stream(cfg)
    spec = make_task_specs(
        0, n_tasks=2, d_e=8, classes_per_task=2, sigma=0.25,
        visual_tokens=2, noise_tokens=2, test_size=8, vocab_size=32,
    )[1]
    samples = TaskSampler(spec, 0).test_set()
    acc = evaluate(result.model, samples)
    dump = prediction_dump(result.model, samples)
    assert acc == pytest.approx(np.mean([p == l for _, p, l in dump]))
    assert [uid for uid, _, _ in dump] == [s.uid for s in samples]
    with pytest.raises(ValueError, match="empty evaluation"):
        evaluate(result.model, [])


# ---------------------------------------------------------------------------
# gradient audit
# ---------------------------------------------------------------------------


def small_audit_config():
    return replace(audit_config(), n_layers=1, d_hidden=8, rank=2, routing_dim=4)


def test_gradient_audit_rejects_bad_sample_counts_and_steps():
    with pytest.raises(ValueError, match="at least one sample"):
        gradient_audit(small_audit_config(), n_samples=0)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        gradient_audit(small_audit_config(), n_samples=1, epsilon=0.0)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        gradient_audit(small_audit_config(), n_samples=1, epsilon=-1e-5)


def test_gradient_audit_checks_the_graph_training_builds(monkeypatch):
    # the audit must differentiate the routed forward that train_chunk runs:
    # a graph cut planted there (stage-two weights detached before they mix
    # the adapters) has to surface as a mismatch
    import streamlora.model as model_module

    ok, _ = gradient_audit(small_audit_config(), n_samples=2)
    assert ok

    route = model_module.route_with_straight_through

    def cut_route(*args, **kwargs):
        decision = route(*args, **kwargs)
        return replace(decision, token_weights=decision.token_weights.detach())

    monkeypatch.setattr(model_module, "route_with_straight_through", cut_route)
    ok, rows = gradient_audit(small_audit_config(), n_samples=2)
    assert not ok
    assert any(not row.ok and row.path.endswith("router.query") for row in rows)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(tiny_config_text() + "\n")
    return path


def test_cli_compose_stream_writes_chunks(tmp_path, config_file, capsys):
    out = tmp_path / "stream"
    rc = main(["compose-stream", "--config", str(config_file), "--out", str(out)])
    assert rc == 0
    assert (out / "stream_manifest.json").exists()
    assert (out / "chunk_001.npz").exists()
    assert (out / "test_task_1.npz").exists()
    assert "stream_manifest.json" in capsys.readouterr().out


def test_cli_train_then_metrics_round_trip(tmp_path, config_file, capsys):
    run_dir = tmp_path / "run"
    rc = main(["train", "--config", str(config_file), "--variant", "full", "--out", str(run_dir)])
    assert rc == 0
    assert "MAP" in capsys.readouterr().out

    rebuilt = tmp_path / "rebuilt.csv"
    rc = main(["metrics", "--input", str(run_dir / "metrics.csv"), "--out", str(rebuilt)])
    assert rc == 0
    assert rebuilt.read_text() == (run_dir / "metrics.csv").read_text()


def test_cli_train_applies_seed_and_overrides(tmp_path, config_file):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["train", "--config", str(config_file), "--seed", "3",
                 "--set", "n_chunks=8", "--out", str(a)]) == 0
    assert main(["train", "--config", str(config_file), "--seed", "3",
                 "--set", "n_chunks=8", "--out", str(b)]) == 0
    assert (a / "metrics.csv").read_text() == (b / "metrics.csv").read_text()
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 3
    assert manifest["config"]["n_chunks"] == 8


def test_cli_diag_builds_the_homogeneity_tables(tmp_path, config_file, capsys):
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(config_file), "--out", str(run_dir)]) == 0
    diag_dir = tmp_path / "diag"
    rc = main(["diag", "--traces", str(run_dir / "traces.jsonl"),
               "--out", str(diag_dir), "--chunk", "8"])
    assert rc == 0
    cka_lines = (diag_dir / "cka_matrix.csv").read_text().strip().split("\n")
    assert len(cka_lines) == 1 + 2  # header plus one row per task
    activation = (diag_dir / "activation.csv").read_text().strip().split("\n")
    assert activation[0] == "site,task,expert,share"
    # 2 sites x 2 tasks x 3 experts
    assert len(activation) == 1 + 2 * 2 * 3
    assert "mean off-diagonal" in capsys.readouterr().out.lower()


def test_cli_ablate_runs_every_toggle_combination(tmp_path, config_file, capsys):
    out = tmp_path / "ablation"
    rc = main(["ablate", "--config", str(config_file), "--out", str(out)])
    assert rc == 0
    lines = (out / "ablation.csv").read_text().strip().split("\n")
    assert lines[0] == "variant,use_selection,use_token_weighting,use_reg,MAP,MAF"
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == [name for name, _ in ABLATION_ROWS]
    for name, flags in ABLATION_ROWS:
        assert (out / name / "metrics.csv").exists()
    table = capsys.readouterr().out
    assert "full" in table and "uniform_moe" in table


def test_cli_gradcheck_rejects_zero_samples():
    with pytest.raises(ValueError, match="at least one sample"):
        main(["gradcheck", "--samples", "0"])


def test_cli_gradcheck_passes_on_the_audit_model(capsys):
    rc = main(["gradcheck", "--samples", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ok" in out.lower()
    assert "head.weight" in out
