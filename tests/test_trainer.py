"""Config parsing, the optimizer, the training loop, artifacts, and the CLI."""

import csv
import ctypes
import importlib.util
import json
import os
import re
import resource
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import streamlora.cli as cli_module
import streamlora.stream as stream_module
import streamlora.trainer as trainer_module
from streamlora.autograd import ParamStore, Value, backward, finite_diff_grad, named_rng, no_grad
from streamlora.cli import build_parser, main
from streamlora.model import (
    FROZEN,
    FULL,
    SHARED_LORA,
    SITES,
    UNIFORM_MOE,
    Variant,
    forward,
)
from streamlora.stability import EmaShadow, reference_weights
from streamlora.metrics import MetricLedger, read_traces, trace_records
from streamlora.stream import TaskSampler, apportion, build_default_stream, compose_chunk, make_task_specs
from streamlora.trainer import (
    ABLATION_ROWS,
    Adam,
    RunConfig,
    RunResult,
    TrainingDiverged,
    _audit_problem,
    _batch_loss,
    apply_variant,
    audit_config,
    build_stream,
    evaluate,
    gradient_audit,
    load_config,
    parse_config_text,
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
        method = p, s
        """
    )
    assert cfg.n_layers == 3
    assert cfg.learning_rate == pytest.approx(0.01)
    assert cfg.method == "p, s"
    assert cfg.d_hidden == RunConfig().d_hidden  # untouched fields keep defaults


def test_parse_config_rejects_unknown_keys_and_bad_lines(capsys):
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_text("learning_rte = 0.1")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_config_text("just some words")
    with pytest.raises(ValueError, match=r"^line 1: n_layers: expected an int, got '2\.5'$"):
        parse_config_text("n_layers = 2.5")
    with pytest.raises(ValueError, match=r"^line 2: learning_rate: expected a float, got 'fast'$"):
        parse_config_text("seed = 1\nlearning_rate = fast")
    assert main(["train", "--set", "n_layers=2.5"]) == 2
    assert re.fullmatch(r"streamlora: line 1: n_layers: expected an int, got '2\.5'\n",
                        capsys.readouterr().err)
    # the declared type decides, not the type of the base config's value
    assert parse_config_text("learning_rate = 0.5", base=RunConfig(learning_rate=1)).learning_rate == 0.5


def test_every_config_field_survives_a_text_round_trip():
    cfg = tiny_config(learning_rate=0.003, method="p,s", stream_seed=9)
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
    assert RunConfig().method == "full" and RunConfig().variant() == FULL
    assert apply_variant(base, "none").variant() == UNIFORM_MOE
    shared = apply_variant(base, "shared_lora")
    assert shared.method == "shared_lora"
    assert shared.n_experts == 1 and shared.top_k == 1
    two_stage = apply_variant(base, " p, s ")
    assert two_stage.method == "p, s"       # --variant trims, nothing more
    assert two_stage.variant() == Variant("routed", True, True, False)
    assert apply_variant(base, "s,reg").variant() == Variant("routed", False, True, True)
    with pytest.raises(ValueError, match=r"^method 'S,REG': unknown variant component 'S'"):
        apply_variant(base, "S,REG")    # as `method = S,REG` in a config is
    with pytest.raises(ValueError, match=r"^method 'p,q': unknown variant component 'q'"):
        apply_variant(base, "p,q")
    assert apply_variant(base, "full").variant() == FULL
    assert apply_variant(base, "uniform_moe").variant() == UNIFORM_MOE
    assert apply_variant(base, "shared_lora").variant() == SHARED_LORA
    assert apply_variant(base, "frozen").variant() == FROZEN


# the eight variants tests/artifact_identity.py runs
@pytest.mark.parametrize("name", ["full", "uniform_moe", "shared_lora", "frozen", "p", "s", "s,reg", "p,s"])
def test_a_variant_reads_the_same_from_the_flag_and_from_a_config_file(tmp_path, name):
    path = tmp_path / "run.cfg"
    path.write_text(f"method = {name}\n" + ("n_experts = 1\ntop_k = 1\n" if name == "shared_lora" else ""))
    parser = build_parser()
    by_flag = cli_module._build_config(parser.parse_args(["train", "--variant", name]))
    by_file = cli_module._build_config(parser.parse_args(["train", "--config", str(path)]))
    assert by_flag.variant() == by_file.variant()
    assert by_flag == by_file


@pytest.mark.parametrize("text, message", [
    ("method = reg", "method 'reg': the stability regularizer needs token weighting"),
    ("method = p,reg", "method 'p,reg': the stability regularizer needs token weighting"),
    ("method = routed", "method 'routed': unknown variant component 'routed'"),
    ("method =", "method '': unknown variant component ''"),
    ("use_reg = false", "line 1: unknown config key 'use_reg'"),
])
def test_a_method_that_names_no_variant_exits_2_naming_the_key(tmp_path, capsys, text, message):
    path = tmp_path / "run.cfg"
    path.write_text(text + "\n")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"streamlora: {re.escape(message)}[^\n]*\n", captured.err), captured.err
    assert not (tmp_path / "run").exists()


def test_config_validation_catches_inconsistencies():
    with pytest.raises(ValueError, match="top_k"):
        tiny_config(top_k=5).validate()
    with pytest.raises(ValueError, match="single expert"):
        tiny_config(method="shared_lora").validate()  # pinned at n_experts=3
    with pytest.raises(ValueError, match="^method 'shared': unknown variant component"):
        tiny_config(method="shared", n_experts=1, top_k=1).validate()
    with pytest.raises(ValueError, match="ema_momentum"):
        tiny_config(ema_momentum=1.0).validate()
    with pytest.raises(ValueError, match="reg_weight"):
        tiny_config(reg_weight=-0.1).validate()
    with pytest.raises(ValueError, match="learning_rate"):
        tiny_config(learning_rate=0.0).validate()
    apply_variant(tiny_config(), "frozen").validate()
    apply_variant(tiny_config(), "shared_lora").validate()
    with pytest.raises(ValueError, match="trace_interval"):
        tiny_config(trace_interval=-1).validate()
    for stream_seed in (-2, -7):
        with pytest.raises(ValueError, match="stream_seed must be >= 0, or -1"):
            tiny_config(stream_seed=stream_seed).validate()
    tiny_config(stream_seed=-1).validate()
    tiny_config(stream_seed=0).validate()
    # named by key, before the backbone, top_k or stream builder see them
    for key, value, least in [("n_experts", 0, 1), ("n_tasks", 0, 2), ("n_tasks", 1, 2),
                              ("n_chunks", 6, 7), ("n_chunks", 0, 7), ("n_layers", 0, 1),
                              ("vocab_size", 1, 2), ("batch_size", 0, 1), ("chunk_size", 0, 1)]:
        with pytest.raises(ValueError, match=f"^{key} must be at least {least}, got {value}$"):
            tiny_config(**{key: value}).validate()
    tiny_config(n_experts=1, top_k=1, n_tasks=2, n_chunks=7).validate()


def test_config_rejects_an_empty_test_set():
    with pytest.raises(ValueError, match="test_size"):
        tiny_config(test_size=0).validate()


def test_config_rejects_a_negative_trace_sample_count():
    with pytest.raises(ValueError, match="trace_eval_samples"):
        tiny_config(trace_eval_samples=-1).validate()


def test_cli_train_validates_the_config_before_writing(tmp_path, capsys):
    assert main(["train", "--set", "test_size=0", "--out", str(tmp_path / "run")]) == 2
    assert re.search("test_size", capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def run_cli_process(argv):
    """`python -m streamlora.cli ARGV` in a fresh process, on this tree's sources."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(root / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "streamlora.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def test_cli_input_errors_print_one_line_and_exit_2(tmp_path):
    missing = tmp_path / "nonexistent"
    no_file = r"\[Errno 2\] No such file or directory: "
    for argv, message in [
        (["train", "--set", "n_chunks=0", "--out", str(tmp_path / "run")],
         "n_chunks must be at least 7, got 0"),
        (["train", "--set", "n_chunks=6", "--out", str(tmp_path / "run")],
         "n_chunks must be at least 7, got 6"),
        (["train", "--set", "n_experts=0", "--out", str(tmp_path / "run")],
         "n_experts must be at least 1, got 0"),
        (["train", "--set", "n_tasks=0", "--out", str(tmp_path / "run")],
         "n_tasks must be at least 2, got 0"),
        (["train", "--set", "n_tasks=1", "--out", str(tmp_path / "run")],
         "n_tasks must be at least 2, got 1"),
        (["train", "--stream-seed", "-7", "--out", str(tmp_path / "run")],
         "stream_seed must be >= 0, or -1 to use seed, got -7"),
        (["train", "--set", "n_layers=0", "--out", str(tmp_path / "run")],
         "n_layers must be at least 1, got 0"),
        (["train", "--set", "vocab_size=1", "--out", str(tmp_path / "run")],
         "vocab_size must be at least 2, got 1"),
        (["train", "--set", "batch_size=0", "--out", str(tmp_path / "run")],
         "batch_size must be at least 1, got 0"),
        (["train", "--set", "chunk_size=0", "--out", str(tmp_path / "run")],
         "chunk_size must be at least 1, got 0"),
        (["train", "--set", "top_k=9", "--out", str(tmp_path / "run")],
         r"top_k must be in \[1, 4\], got 9"),
        (["train", "--set", "ema_momentum=1.0", "--out", str(tmp_path / "run")],
         r"ema_momentum must be in \[0, 1\), got 1\.0"),
        (["train", "--set", "reg_weight=-0.5", "--out", str(tmp_path / "run")],
         "reg_weight must be non-negative, got -0.5"),
        (["train", "--set", "learning_rate=0", "--out", str(tmp_path / "run")],
         "learning_rate must be positive, got 0.0"),
        # --variant V is exactly --set method=V: neither lower-cases
        (["train", "--variant", "Full", "--out", str(tmp_path / "run")],
         "method 'Full': unknown variant component 'Full'"),
        (["train", "--set", "method=Full", "--out", str(tmp_path / "run")],
         "method 'Full': unknown variant component 'Full'"),
        (["gradcheck", "--samples", "1", "--epsilon", "1e308"], "epsilon 1e\\+308 is too large"),
        (["gradcheck", "--samples", "1", "--epsilon", "1e300"], "epsilon 1e\\+300 is too large"),
        (["train", "--config", str(missing / "x.cfg"), "--out", str(tmp_path / "run")], no_file),
        (["metrics", "--input", str(missing / "rows.csv")], no_file),
        (["diag", "--traces", str(missing / "traces.jsonl"), "--out", str(tmp_path / "run")],
         no_file),
    ]:
        done = run_cli_process(argv)
        assert done.returncode == 2, argv
        assert done.stdout == ""
        assert re.fullmatch(f"streamlora: {message}[^\n]*\n", done.stderr), done.stderr
        assert not (tmp_path / "run").exists()


def test_run_stream_rejects_an_empty_test_set_before_training(tmp_path):
    with pytest.raises(ValueError, match="test_size"):
        run_stream(tiny_config(test_size=0), out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value", [
    ("visual_noise", -0.1), ("noise_tokens", -1), ("classes_per_task", 0),
    ("n_heads", 0), ("n_heads", -2), ("d_hidden", 0), ("rank", 0), ("rank", 8),
    ("routing_dim", 0), ("visual_tokens", 0),
    *((key, value) for key in ("learning_rate", "reg_weight", "visual_noise",
                               "ema_momentum")
      for value in (float("nan"), float("inf"), float("-inf"))),
])
def test_run_stream_rejects_a_bad_stream_key_before_training(tmp_path, key, value):
    with pytest.raises(ValueError, match=key):
        run_stream(tiny_config(**{key: value}), out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_readme_defaults_block_is_the_run_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("The defaults:", 1)[1].split("```", 2)[1]
    pairs = re.findall(r"(\w+) = (\S+)", block)
    assert [key for key, _ in pairs] == [f.name for f in fields(RunConfig)]
    assert parse_config_text("\n".join(f"{k} = {v}" for k, v in pairs)) == RunConfig()


def test_every_benchmark_span_hook_resolves():
    """perfbench/spans.py wraps package functions by (module, attribute
    path); a rename in the package must fail here, not only in a traced
    benchmark run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for name, hooks in spans.SPANS:
        for module, attr_path in hooks:
            owner = importlib.import_module(f"streamlora.{module}")
            for part in attr_path.split("."):
                owner = vars(owner).get(part)
                if owner is None:
                    missing.append(f"{name}: streamlora.{module}.{attr_path}")
                    break
    assert missing == []


def test_benchmark_selftest_passes():
    """perfbench/selftest.py builds its configs through `apply_variant` and
    `RunConfig.variant()` and loads each checkpoint with `ParamStore.load`,
    so a change there must fail here, not only in a refused benchmark run."""
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]


def test_op_microbenchmarks_still_run():
    """tests/bench_ops.py is not collected by a plain pytest run, so an API
    change that breaks it must fail here. Runs each case once, untimed."""
    pytest.importorskip("pytest_benchmark")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(root / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/bench_ops.py", "--benchmark-disable", "-q",
         "-p", "no:cacheprovider"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]


def test_readme_documents_every_cli_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = set(re.findall(r"^streamlora ([\w-]+)", readme, flags=re.MULTILINE))
    (commands,) = [action for action in build_parser()._actions if action.dest == "command"]
    assert documented == set(commands.choices)


def test_config_derived_properties():
    cfg = tiny_config()
    assert cfg.n_classes == 4
    assert cfg.effective_stream_seed == cfg.seed
    assert tiny_config(stream_seed=5).effective_stream_seed == 5
    assert cfg.backbone().n_classes == 4
    shared = tiny_config(method="shared_lora", n_experts=1, top_k=1)
    assert shared.variant() == Variant("shared_lora", False, False, False)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_adam_first_step_matches_hand_recomputation():
    store = ParamStore([("w", Value([1.0, 2.0]))])
    p = store["w"]
    g = np.array([0.5, -1.0])
    p.grad[...] = g
    opt = Adam(store, lr=0.01)
    opt.step()
    # after one step the bias corrections cancel the (1 - beta) factors
    want = np.array([1.0, 2.0]) - 0.01 * g / (np.sqrt(g * g) + 1e-8)
    np.testing.assert_allclose(p.data, want, rtol=0, atol=1e-15)
    assert opt.step_count == 1


def test_adam_second_step_with_identical_gradient():
    store = ParamStore([("w", Value([0.0]))])
    p = store["w"]
    opt = Adam(store, lr=0.1)
    for _ in range(2):
        p.grad[...] = 2.0
        opt.step()
    # a constant gradient gives the same bias-corrected update twice
    np.testing.assert_allclose(p.data, [-0.2 * 2.0 / (2.0 + 1e-8)], rtol=1e-12)


def test_adam_leaves_gradient_free_parameters_alone():
    store = ParamStore([("a", Value([1.0])), ("b", Value([5.0]))])
    touched, idle = store["a"], store["b"]
    opt = Adam(store, lr=0.5)
    touched.grad[...] = 1.0
    opt.step()
    assert idle.data[0] == 5.0  # exactly: zero moments give a zero update
    assert touched.data[0] != 1.0


def _per_path_adam(arrays, steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-path Adam loop the flat update replaced, kept as its oracle:
    one update per parameter, a missing gradient read as zeros."""
    data = {path: arr.copy() for path, arr in arrays.items()}
    m = {path: np.zeros_like(arr) for path, arr in arrays.items()}
    v = {path: np.zeros_like(arr) for path, arr in arrays.items()}
    for t, grads in enumerate(steps, start=1):
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for path in data:
            g = grads[path] if grads[path] is not None else np.zeros_like(data[path])
            m[path] *= beta1
            m[path] += (1.0 - beta1) * g
            v[path] *= beta2
            v[path] += (1.0 - beta2) * g * g
            data[path] -= lr * (m[path] / bc1) / (np.sqrt(v[path] / bc2) + eps)
    return data


def test_flat_adam_is_bit_identical_to_the_per_path_loop():
    # steps large against the parameters, so a last-bit change in an update shows in them
    rng = named_rng(11, "adam-oracle")
    arrays = {"a": 1e-3 * rng.normal(size=(3, 4)), "idle": rng.normal(size=5),
              "b": 1e-3 * rng.normal(size=(2, 2, 2)), "s": np.asarray(1e-3)}
    store = ParamStore((path, Value(arr)) for path, arr in arrays.items())
    opt = Adam(store, lr=0.3)
    steps = []
    for _ in range(3):
        grads = {path: None if path == "idle" else rng.normal(size=arr.shape)
                 for path, arr in arrays.items()}
        store.zero_grad()
        for path, g in grads.items():
            if g is not None:
                store[path].grad[...] = g
        opt.step()
        steps.append(grads)
    want = _per_path_adam(arrays, steps, lr=0.3)
    for path in arrays:
        assert store[path].data.tobytes() == want[path].tobytes(), path
    assert store["idle"].data.tobytes() == arrays["idle"].tobytes()
    assert opt.step_count == 3


@pytest.mark.parametrize("field", ["data", "grad"])
def test_adam_refuses_a_leaf_rebound_away_from_the_store(field):
    store = ParamStore([("w", Value([1.0, 2.0])), ("head.bias", Value([0.0]))])
    opt = Adam(store, lr=0.1)
    setattr(store["head.bias"], field, np.array([1.0]))
    with pytest.raises(ValueError, match="parameter head.bias was rebound"):
        opt.step()
    assert opt.step_count == 0
    assert store["w"].data.tolist() == [1.0, 2.0]


def test_a_loaded_store_still_views_its_vector_and_steps(tmp_path):
    source = ParamStore([("w", Value([1.0, -2.0])), ("b", Value(np.full((2, 2), 3.0)))])
    source.save(tmp_path / "ckpt.bin")
    store = ParamStore([("w", Value(np.zeros(2))), ("b", Value(np.zeros((2, 2))))])
    assert store.load(tmp_path / "ckpt.bin") == {}
    assert store.vector.tobytes() == source.vector.tobytes()
    for _, p in store.items():
        assert p.data.base is store.vector and p.grad.base is store.grad
    opt = Adam(store, lr=0.1)
    store.grad[...] = 1.0
    opt.step()
    np.testing.assert_allclose(store["w"].data, [0.9, -2.1], rtol=0, atol=1e-8)
    np.testing.assert_allclose(store["b"].data, np.full((2, 2), 2.9), rtol=0, atol=1e-8)


# ---------------------------------------------------------------------------
# training runs
# ---------------------------------------------------------------------------


def test_run_stream_step_accounting_and_summary():
    result = run_stream(tiny_config())
    # 7 chunks x ceil(12 / 6) batches
    assert result.optimizer.step_count == 14
    assert result.shadow is not None and result.shadow.updates == 14
    assert len(result.steps) == 14
    # chunk t scores every task chunks 1..t drew samples of
    _, schedule = build_stream(tiny_config())
    evaluations = result.ledger.evaluations
    assert [t for t, _ in evaluations] == list(range(1, 8))
    for t, accuracies in evaluations:
        assert sorted(accuracies) == np.flatnonzero(schedule.counts[:t].sum(axis=0)).tolist()
    assert sorted(evaluations[-1][1]) == [0, 1]
    assert result.summary() == result.ledger.summary()
    map_t, maf_t = result.summary()
    assert 0.0 <= map_t <= 1.0 and 0.0 <= maf_t <= 1.0


def test_run_stream_is_deterministic():
    a = run_stream(tiny_config())
    b = run_stream(tiny_config())
    assert a.ledger.to_csv() == b.ledger.to_csv()
    assert [s["total_loss"] for s in a.steps] == [s["total_loss"] for s in b.steps]
    c = run_stream(tiny_config(seed=1))
    assert c.ledger.to_csv() != a.ledger.to_csv()


def test_frozen_run_never_steps_and_never_forgets():
    result = run_stream(apply_variant(tiny_config(), "frozen"))
    assert result.optimizer.step_count == 0
    assert result.shadow is None
    assert len(result.model.params) == 0
    for m in result.ledger.dataset_ids():
        history = [accuracies[m] for _, accuracies in result.ledger.evaluations if m in accuracies]
        assert len(set(history)) == 1  # constant accuracy per task
    assert result.summary()[1] == 0.0
    assert result.traces == []


def test_reg_free_variants_carry_no_shadow():
    result = run_stream(tiny_config(method="p,s"))
    assert result.shadow is None
    assert all(s["reg_loss"] is None for s in result.steps)


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


@pytest.mark.parametrize("trace_eval_samples", [0, 3, 20])
def test_post_stream_rows_are_the_trace_records_of_the_final_model(trace_eval_samples):
    cfg = tiny_config(trace_eval_samples=trace_eval_samples)     # 20 > test_size = 8
    result = run_stream(cfg)
    specs, _ = build_stream(cfg)
    seen = result.ledger.dataset_ids()
    expected = []
    with no_grad():
        for m in seen:
            samples = TaskSampler(specs[m], cfg.effective_stream_seed).test_set()[:trace_eval_samples]
            if samples:
                expected.extend(trace_records(cfg.n_chunks + 1, samples,
                                              forward(result.model, samples).sites))
    assert [r for r in result.traces if r["chunk"] == cfg.n_chunks + 1] == expected
    assert len(expected) == len(seen) * min(trace_eval_samples, cfg.test_size) * 2


def test_run_stream_forwards_once_per_batch_and_per_seen_task_per_chunk(monkeypatch):
    calls = []

    def counting_forward(model, samples, **kwargs):
        calls.append(samples)
        return forward(model, samples, **kwargs)

    test_sets = []
    test_set = TaskSampler.test_set

    def recording_test_set(sampler):
        test_sets.append(test_set(sampler))
        return test_sets[-1]

    monkeypatch.setattr(trainer_module, "forward", counting_forward)
    monkeypatch.setattr(TaskSampler, "test_set", recording_test_set)
    cfg = tiny_config()
    result = run_stream(cfg)
    evaluations = sum(len(accuracies) for _, accuracies in result.ledger.evaluations)
    assert len(calls) == len(result.steps) + evaluations == 14 + evaluations
    # the last forward is the final chunk's evaluation of the last seen task,
    # on the test set its sampler returned
    assert calls[-1] is test_sets[-1]
    assert {s.task_id for s in calls[-1]} == {max(result.ledger.dataset_ids())}


def test_run_stream_writes_the_artifact_set(tmp_path):
    cfg = tiny_config()
    result = run_stream(cfg, out_dir=tmp_path)
    for name in ("metrics.csv", "traces.jsonl", "checkpoint.bin", "manifest.json", "runlog.json"):
        assert (tmp_path / name).exists(), name
    assert (tmp_path / "metrics.csv").read_text() == result.ledger.to_csv()

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["n_chunks"] == 7
    assert manifest["variant"]["mode"] == "routed"
    assert manifest["stream"]["n_tasks"] == 2
    assert manifest["outputs"]["checkpoint"] == "checkpoint.bin"

    runlog = json.loads((tmp_path / "runlog.json").read_text())
    assert runlog["optimizer_steps"] == 14
    assert runlog["steps"] == result.steps
    assert runlog["evals"] == [{"chunk": t, "accuracy": {str(m): a for m, a in accuracies.items()}}
                               for t, accuracies in result.ledger.evaluations]
    assert runlog["config"] == cfg.to_dict()

    lines = (tmp_path / "traces.jsonl").read_text().strip().split("\n")
    assert len(lines) == len(result.traces)
    assert json.loads(lines[0])["chunk"] == 1


def test_runlog_evals_rebuild_metrics_csv_byte_for_byte(tmp_path):
    run_stream(tiny_config(), out_dir=tmp_path)
    evals = json.loads((tmp_path / "runlog.json").read_text())["evals"]
    rows = [(e["chunk"], int(m), a) for e in evals for m, a in e["accuracy"].items()]
    rebuilt = MetricLedger.from_accuracy_rows(rows).to_csv()
    assert rebuilt == (tmp_path / "metrics.csv").read_text()


def test_a_default_run_apportions_each_chunk_once(tmp_path, monkeypatch):
    calls = []

    def counting_apportion(proportions, total):
        calls.append(total)
        return apportion(proportions, total)

    monkeypatch.setattr(stream_module, "apportion", counting_apportion)
    config = RunConfig()
    run_stream(config, out_dir=tmp_path)
    # the schedule's counts feed the chunks, the manifest and the seen tasks
    assert calls == [config.chunk_size] * config.n_chunks


def test_run_stream_leaves_no_partial_artifact_when_a_write_fails(tmp_path, monkeypatch):
    cfg = tiny_config()
    run_stream(cfg, out_dir=tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    written = []

    class FailingEncoder(json.JSONEncoder):
        def encode(self, obj):
            written.append(obj)
            if len(written) == 3:      # the third trace record: traces.jsonl is half written
                raise OSError("disk full")
            return super().encode(obj)

    monkeypatch.setattr(trainer_module.json, "JSONEncoder", FailingEncoder)
    with pytest.raises(OSError, match="disk full"):
        run_stream(replace(cfg, seed=1), out_dir=tmp_path)
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert set(after) == set(before)                 # no temporary file left behind
    assert after["traces.jsonl"] == before["traces.jsonl"]
    assert after["checkpoint.bin"] == before["checkpoint.bin"]
    assert after["metrics.csv"] != before["metrics.csv"]    # written whole before the failure


@pytest.mark.parametrize("spec", ["full", "frozen"])
def test_runlog_counts_are_the_optimizers_and_the_shadows(tmp_path, spec):
    result = run_stream(apply_variant(tiny_config(), spec), out_dir=tmp_path)
    runlog = json.loads((tmp_path / "runlog.json").read_text())
    assert runlog["optimizer_steps"] == result.optimizer.step_count
    if spec == "full":
        assert runlog["ema_updates"] == result.shadow.updates == 14
    else:
        assert runlog["optimizer_steps"] == runlog["ema_updates"] == 0
        assert result.shadow is None


def test_checkpoint_restores_the_exact_parameters(tmp_path):
    cfg = tiny_config()
    result = run_stream(cfg, out_dir=tmp_path)
    fresh = cfg.model()
    leftovers = fresh.params.load(tmp_path / "checkpoint.bin")
    for path, trained in result.model.params.items():
        assert np.array_equal(fresh.params[path].data, trained.data), path
    assert leftovers and all(key.startswith("ema.") for key in leftovers)
    for key, arr in leftovers.items():
        np.testing.assert_array_equal(arr, result.shadow.arrays[key[len("ema."):]])


def test_a_step_on_one_task_moves_the_head_rows_of_another_tasks_classes():
    """Disjoint class ranges do not keep a task off the others' head rows:
    the softmax over every class gives each non-target row c the gradient
    p_c x, so one step on task 0's samples moves task 1's rows."""
    cfg = tiny_config()
    model = cfg.model()
    specs = make_task_specs(
        0, n_tasks=2, d_e=8, classes_per_task=2, sigma=0.25,
        visual_tokens=2, noise_tokens=2, test_size=8, vocab_size=32,
    )
    batch = TaskSampler(specs[0], 0).test_set()[: cfg.batch_size]
    own = range(specs[0].class_offset, specs[0].class_offset + specs[0].n_classes)
    assert all(sample.label in own for sample in batch)
    other = slice(specs[1].class_offset, specs[1].class_offset + specs[1].n_classes)
    before = model.head_weight.data[other].copy()
    shadow = EmaShadow.from_states(model.routing_states())
    run = RunResult(cfg, model, Adam(model.params, lr=cfg.learning_rate), shadow)
    train_chunk(run, SimpleNamespace(index=1, samples=batch))
    assert run.optimizer.step_count == 1
    assert np.all(model.head_weight.grad[other] != 0.0)
    assert np.all(model.head_weight.data[other] != before)


def train_a_diverging_chunk(out_dir):
    cfg = tiny_config(method="p,s")
    model = cfg.model()
    model.head_weight.data[:] = np.nan
    specs = make_task_specs(
        0, n_tasks=2, d_e=8, classes_per_task=2, sigma=0.25,
        visual_tokens=2, noise_tokens=2, test_size=8, vocab_size=32,
    )
    schedule = build_default_stream(0, n_tasks=2, n_chunks=7, chunk_size=12)
    chunk = compose_chunk(schedule, 1, [TaskSampler(s, 0) for s in specs])
    run = RunResult(cfg, model, Adam(model.params, lr=cfg.learning_rate), None, out=out_dir)
    train_chunk(run, chunk)


def test_divergence_raises_and_dumps_the_batch(tmp_path):
    with pytest.raises(TrainingDiverged, match="non-finite loss in chunk 1"):
        train_a_diverging_chunk(tmp_path)
    dump_path = tmp_path / "diverged_chunk1_batch0.json"
    assert dump_path.exists()
    dump = json.loads(dump_path.read_text())
    assert dump["chunk"] == 1 and len(dump["sample_uids"]) == 6


def test_the_divergence_dump_is_strict_json(tmp_path):
    def reject(token):
        raise ValueError(f"{token} is not strict JSON")

    with pytest.raises(TrainingDiverged):
        train_a_diverging_chunk(tmp_path)
    dump = json.loads((tmp_path / "diverged_chunk1_batch0.json").read_text(), parse_constant=reject)
    assert dump["task_loss"] == "nan"
    assert dump["reg_loss"] is None         # p,s has no stability term: not computed


def assert_diverged_run(done, out, chunk, batch):
    """A diverged `train`: exit 1 and one stderr line naming the chunk, the
    batch and the dump file, which exists; returns the dump."""
    dump = out / f"diverged_chunk{chunk}_batch{batch}.json"
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert re.fullmatch(f"streamlora: [^\n]* in chunk {chunk}, batch {batch}; "
                        f"batch dumped to {re.escape(str(dump))}\n", done.stderr), done.stderr
    return json.loads(dump.read_text())


def test_cli_a_diverged_run_prints_one_line_and_exits_1(tmp_path):
    out = tmp_path / "run"
    done = run_cli_process(["train", "--variant", "uniform_moe", "--set", "learning_rate=1e308",
                            "--out", str(out)])
    dump = assert_diverged_run(done, out, chunk=1, batch=1)
    assert len(dump["sample_uids"]) == 32 and dump["optimizer_steps"] == 1


@pytest.mark.parametrize("override, batch", [("learning_rate=1e308", 1), ("visual_noise=1e200", 0)])
def test_cli_an_overflow_in_a_training_batch_is_reported_as_divergence(tmp_path, override, batch):
    out = tmp_path / "run"
    done = run_cli_process(["train", "--set", override, "--out", str(out)])
    dump = assert_diverged_run(done, out, chunk=1, batch=batch)
    assert "overflow encountered" in done.stderr
    assert dump["task_loss"] is None and dump["reg_loss"] is None     # the forward overflowed


class HalfWriter:
    """A file that takes half of its first write, then fails: a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError("disk full")


def write_ablation_table(out):
    trainer_module.run_ablation_suite(tiny_config(), out_dir=out)


def run_command(argv):
    """Run a subcommand as `main` does, but let its errors propagate."""
    args = build_parser().parse_args(argv)
    return args.func(args)


def write_metrics(out):
    rows = out / "accuracies.csv"
    rows.write_text("0,0,0.5\n1,0,0.25\n1,1,0.75\n")
    run_command(["metrics", "--input", str(rows), "--out", str(out / "metrics.csv")])


def write_diag_tables(out):
    traces = out / "traces.jsonl"
    rng = named_rng(0, "diag-traces")
    with open(traces, "w") as fh:
        for task in range(2):
            for i in range(3):
                fh.write(json.dumps({"chunk": 0, "task_id": task, "sample_id": f"{task}-{i}",
                                     "layer": 0, "site": "ffn_up",
                                     "s_mean": rng.dirichlet(np.ones(3)).tolist()}) + "\n")
    run_command(["diag", "--traces", str(traces), "--out", str(out)])


@pytest.mark.parametrize("write, names", [
    (write_ablation_table, ["ablation.csv"]),
    (train_a_diverging_chunk, ["diverged_chunk1_batch0.json"]),
    (write_metrics, ["metrics.csv"]),
    (write_diag_tables, ["cka_matrix.csv", "activation.csv"]),
], ids=["ablation", "divergence-dump", "metrics", "diag"])
def test_reports_keep_the_old_file_when_a_write_fails(tmp_path, monkeypatch, write, names):
    import builtins

    import streamlora.autograd as autograd_module

    for name in names:
        (tmp_path / name).write_text("old contents\n")
    # the ablation's runs are stubbed out: only its table is written here
    monkeypatch.setattr(trainer_module, "run_stream",
                        lambda config, out_dir=None: SimpleNamespace(summary=lambda: (0.5, 0.25)))
    monkeypatch.setattr(autograd_module, "open",
                        lambda path, mode="r": HalfWriter(builtins.open(path, mode)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        write(tmp_path)
    for name in names:
        assert (tmp_path / name).read_text() == "old contents\n"
    assert not list(tmp_path.rglob("*.tmp"))       # no temporary file left behind


def test_batch_gradient_is_the_mean_of_the_one_sample_gradients():
    # one graph over the batch must differentiate the same objective as
    # averaging per-sample losses: task and stability term both
    cfg = tiny_config()
    model = cfg.model(seed=3)
    rng = named_rng(3, "batch-grad")
    for _, p in model.params.items():
        p.data[...] = 0.2 * rng.normal(size=p.data.shape)
    shadow = EmaShadow.from_states(model.routing_states())
    for arr in shadow.arrays.values():
        arr += 0.1 * rng.normal(size=arr.shape)
    spec = make_task_specs(
        0, n_tasks=2, d_e=8, classes_per_task=2, sigma=0.25,
        visual_tokens=2, noise_tokens=2, test_size=8, vocab_size=32,
    )[0]
    samples = TaskSampler(spec, 0).test_set()[:2]

    def gradients(batch):
        model.params.zero_grad()
        _, reg, total, _ = _batch_loss(model, batch, shadow, cfg.reg_weight)
        assert float(reg.data) > 0.0
        backward(total)
        return {path: p.grad.copy() for path, p in model.params.items()}

    both = gradients(samples)
    first, second = (gradients([sample]) for sample in samples)
    for path, grad in both.items():
        np.testing.assert_allclose(grad, 0.5 * (first[path] + second[path]), rtol=0, atol=1e-12,
                                   err_msg=path)


def test_a_training_sweep_leaves_gradients_on_the_parameters_only():
    # backward releases every interior gradient once it has been passed on;
    # the parameters hold theirs in the store, exactly zero where the batch did not reach
    cfg = RunConfig()
    specs, _ = build_stream(cfg)
    batch = TaskSampler(specs[0], cfg.seed).test_set()[:cfg.batch_size]
    model = cfg.model()
    root = _batch_loss(model, batch, EmaShadow.from_states(model.routing_states()),
                       cfg.reg_weight)[2]
    backward(root)
    interior, reached, seen, todo = [], set(), set(), [root]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._parents:
            interior.append(node)
            todo.extend(node._parents)
        elif node.requires_grad:
            reached.add(id(node))
    assert interior and reached
    assert [node for node in interior if node.grad is not None] == []
    _, grad = model.params.flat()           # every parameter still views the store
    assert grad.any()
    for path, p in model.params.items():
        assert id(p) in reached or not p.grad.any(), path


def test_evaluate_scores_the_argmax_of_each_sample():
    cfg = tiny_config()
    result = run_stream(cfg)
    spec = make_task_specs(
        0, n_tasks=2, d_e=8, classes_per_task=2, sigma=0.25,
        visual_tokens=2, noise_tokens=2, test_size=8, vocab_size=32,
    )[1]
    samples = TaskSampler(spec, 0).test_set()
    with no_grad():
        one_by_one = [int(np.argmax(forward(result.model, [s]).logits.data)) for s in samples]
    accuracy, scored = evaluate(result.model, samples)
    assert accuracy == np.mean([p == s.label for p, s in zip(one_by_one, samples)])
    assert [int(p) for p in np.argmax(scored.logits.data, axis=-1)] == one_by_one
    with pytest.raises(ValueError, match="empty evaluation"):
        evaluate(result.model, [])


# ---------------------------------------------------------------------------
# gradient audit
# ---------------------------------------------------------------------------


def small_audit_config():
    return replace(audit_config(), n_layers=1, d_hidden=8, rank=2, routing_dim=4)


def test_gradient_audit_rejects_bad_sample_counts_and_steps(capsys):
    with pytest.raises(ValueError, match="at least one sample"):
        gradient_audit(small_audit_config(), n_samples=0)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        gradient_audit(small_audit_config(), n_samples=1, epsilon=0.0)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        gradient_audit(small_audit_config(), n_samples=1, epsilon=-1e-5)
    with pytest.raises(ValueError, match="rtol must be non-negative"):
        gradient_audit(small_audit_config(), n_samples=1, rtol=-1.0)
    with pytest.raises(ValueError, match="atol must be non-negative"):
        gradient_audit(small_audit_config(), n_samples=1, atol=-1.0)
    assert main(["gradcheck", "--rtol", "-1"]) == 2
    assert re.search("rtol must be non-negative", capsys.readouterr().err)
    for name in ("epsilon", "rtol", "atol"):
        for value in (np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"{name} must be .*finite"):
                gradient_audit(small_audit_config(), n_samples=1, **{name: value})
    for flag, value, rule in (("--epsilon", "inf", "positive"), ("--epsilon", "1e400", "positive"),
                              ("--rtol", "inf", "non-negative")):
        assert main(["gradcheck", flag, value]) == 2
        assert capsys.readouterr().err == f"streamlora: {flag[2:]} must be {rule} and finite, got inf\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no numpy RuntimeWarning on the way to the ValueError
        with pytest.raises(ValueError, match="epsilon 1e\\+300 is too large: the probes overflow"):
            gradient_audit(small_audit_config(), n_samples=1, epsilon=1e300)


def test_audit_numeric_gradients_in_blocks_match_one_probe_at_a_time(monkeypatch):
    numeric = {}
    block = trainer_module.AUDIT_ROWS // 2
    for copies in (1, block):
        def capture(*args, **kwargs):
            assert kwargs["copies"] == block
            numeric[copies] = finite_diff_grad(*args, **{**kwargs, "copies": copies})
            return numeric[copies]

        monkeypatch.setattr(trainer_module, "finite_diff_grad", capture)
        ok, _ = gradient_audit(small_audit_config(), n_samples=2)
        assert ok
    assert len(numeric[1]) == len(numeric[block])
    for one, blocked in zip(numeric[1], numeric[block]):
        assert blocked.tobytes() == one.tobytes()


@pytest.mark.parametrize("n_samples", [1, 3, 7, 500])
def test_an_audit_probe_block_holds_at_most_its_row_budget(monkeypatch, n_samples):
    # a block of n copies carries n x n_samples rows downstream of its leaf
    handed = []

    def spy(*args, copies, **kwargs):
        handed.append(copies)
        raise RuntimeError("captured")

    monkeypatch.setattr(trainer_module, "finite_diff_grad", spy)
    with pytest.raises(RuntimeError, match="captured"):
        gradient_audit(small_audit_config(), n_samples=n_samples)
    (copies,) = handed
    assert copies >= 2
    assert copies * n_samples <= max(trainer_module.AUDIT_ROWS, 2 * n_samples)


@pytest.mark.parametrize("leaf", [
    "layer.0.attn_out.expert.{j}.A", "layer.0.ffn_up.router.select", "layer.0.ffn_up.router.key",
    "head.weight",
], ids=["expert.A", "router.select", "router.key", "head.weight"])
def test_each_copy_objective_is_the_loss_with_that_copy_as_the_leaf(leaf):
    cfg = small_audit_config()
    model = cfg.model(seed=5)
    rng = named_rng(5, "copy-loss")
    for _, p in model.params.items():
        p.data[...] = 0.2 * rng.normal(size=p.data.shape)
    shadow = EmaShadow.from_states(model.routing_states())
    for arr in shadow.arrays.values():
        arr += 0.1 * rng.normal(size=arr.shape)
    spec = make_task_specs(
        0, n_tasks=2, d_e=cfg.d_hidden, classes_per_task=2, sigma=0.25,
        visual_tokens=cfg.visual_tokens, noise_tokens=cfg.noise_tokens, test_size=6, vocab_size=64,
    )[0]
    samples = TaskSampler(spec, 0).test_set()
    with no_grad():
        baseline = _batch_loss(model, samples, shadow, cfg.reg_weight)[3]
    param = model.params[leaf.format(j=baseline.sites[0].subset[0][0])]
    copies = param.data + 0.05 * rng.normal(size=(3,) + param.data.shape)
    param.data = copies[:, None]
    stacked = _batch_loss(model, samples, shadow, cfg.reg_weight, baseline=baseline)
    assert stacked[0].data.shape == stacked[2].data.shape == (3,)
    # the stability term gets the copy axis only from a leaf stage two reads
    assert stacked[1].data.shape == (() if leaf.endswith(("select", "weight")) else (3,))
    for c in range(3):
        param.data = copies[c]
        alone = _batch_loss(model, samples, shadow, cfg.reg_weight, baseline=baseline)
        for per_copy, scalar in zip(stacked[:3], alone[:3]):
            assert scalar.data.shape == ()
            np.testing.assert_allclose(np.broadcast_to(per_copy.data, (3,))[c], scalar.data,
                                       rtol=1e-14, atol=0)
    assert len(set(stacked[2].data)) == 3       # the copies differ


def routed_setup(spec: str):
    """A small model of variant `spec` with a nudged shadow, and a batch."""
    cfg = apply_variant(small_audit_config(), spec)
    model = cfg.model(seed=5)
    rng = named_rng(5, "one-record")
    shadow = EmaShadow.from_states(model.routing_states())
    for arr in shadow.arrays.values():
        arr += 0.1 * rng.normal(size=arr.shape)
    task = make_task_specs(
        0, n_tasks=2, d_e=cfg.d_hidden, classes_per_task=2, sigma=0.25,
        visual_tokens=cfg.visual_tokens, noise_tokens=cfg.noise_tokens, test_size=5, vocab_size=64,
    )[0]
    return cfg, model, shadow, TaskSampler(task, 0).test_set()


@pytest.mark.parametrize("spec", ["full", "p", "s", "s,reg", "p,s", "uniform_moe", "shared_lora"])
def test_each_site_record_holds_the_weights_its_adapters_applied(monkeypatch, spec):
    import streamlora.model as model_module

    cfg, model, shadow, samples = routed_setup(spec)
    applied = []
    adapted = model_module.adapted_forward

    def spy(bank, hidden, weights, *rest):
        applied.append(weights)
        return adapted(bank, hidden, weights, *rest)

    monkeypatch.setattr(model_module, "adapted_forward", spy)
    result = _batch_loss(model, samples, shadow, cfg.reg_weight)[3]
    assert len(result.sites) == len(applied) == 2 * cfg.n_layers
    for rec, weights in zip(result.sites, applied):
        assert rec.weights is weights
        if model.variant.use_reg:
            hidden = result.entries[rec.site][1].data
            want = reference_weights(shadow, rec.site, hidden, result.x_text.data, rec.mask)
            assert rec.reference.tobytes() == want.tobytes()
        else:
            assert rec.reference is None


@pytest.mark.parametrize("spec", ["p", "shared_lora"])
def test_per_sample_weights_repeat_on_every_token_as_a_read_only_view(spec):
    cfg, model, _, samples = routed_setup(spec)
    result = forward(model, samples)
    tokens = result.entries[result.sites[0].site][1].data.shape[1]
    for rec in result.sites:
        view = rec.weights_data
        assert view.shape == (len(samples), tokens, cfg.n_experts)
        assert not view.flags.writeable and np.shares_memory(view, rec.weights.data)
        # the trace's token mean, bit for bit that of a row-major copy
        assert view.mean(axis=1).tobytes() == np.ascontiguousarray(view).mean(axis=1).tobytes()


def audit_problem(config: RunConfig, n_samples: int, seed: int = 7):
    """`_audit_problem`'s (model, total, probe), and the audit's training
    call: its (model, samples, shadow, reg_weight) arguments and its
    `ForwardResult`, the probes' baseline."""
    calls = []
    batch_loss = trainer_module._batch_loss

    def spy(*args, **kwargs):
        calls.append((args, kwargs, batch_loss(*args, **kwargs)))
        return calls[-1][2]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trainer_module, "_batch_loss", spy)
        model, total, probe = _audit_problem(config, n_samples, seed)
    ((args, kwargs, (_, _, called_total, baseline)),) = calls
    assert kwargs == {} and called_total is total       # one call, as train_chunk makes it
    return model, total, probe, args, baseline


def test_audit_pins_are_the_baseline_forwards_routing_and_reference():
    model, _, probe, (_, samples, shadow, reg_weight), baseline = audit_problem(small_audit_config(), 2)
    with no_grad():
        result = forward(model, samples)
    assert [pin.site for pin in baseline.sites] == [rec.site for rec in result.sites]
    for pin, rec in zip(baseline.sites, result.sites):
        ref = reference_weights(shadow, rec.site, result.entries[rec.site][1].data, result.x_text.data, rec.mask)
        assert np.array_equal(pin.mask, rec.mask)
        assert pin.sample_probs.tobytes() == rec.sample_probs.tobytes()
        assert pin.reference.tobytes() == ref.tobytes()
    # off baseline the pins hold: a selector whose rows trade experts flips
    # its site's subsets, and the pinned forward keeps the baseline's
    select = model.params["layer.0.attn_out.router.select"]
    held = select.data
    select.data = np.roll(held, 1, axis=0)
    try:
        with no_grad():
            moved = forward(model, samples)
            pinned = _batch_loss(model, samples, shadow, reg_weight, baseline=baseline)[3]
    finally:
        select.data = held
    assert moved.sites[0].subset != baseline.sites[0].subset
    for pin, rec in zip(baseline.sites, pinned.sites):
        assert np.array_equal(pin.mask, rec.mask)
        assert rec.reference is pin.reference


def leaf_block(path: str) -> str:
    """The block a leaf's probe resumes the forward at: its adapter site,
    or the head."""
    return "head" if path.startswith("head.") else ".".join(path.split(".")[:3])


def probe_over(model, probe, paths):
    """The leaves at `paths`, and `probe` indexed over them as
    `finite_diff_grad` indexes the tensors it is given."""
    index = model.params.paths()
    return [model.params[path] for path in paths], lambda i, stack: probe(index.index(paths[i]), stack)


def test_the_audit_runs_one_whole_forward_the_training_call(monkeypatch, two_layer_audit):
    # and one forward per probe block, resumed at its leaf's block; the
    # blocks of an expert no pinned subset selects run theirs too, and
    # their central differences come out exactly 0
    model, _, _, _, baseline = two_layer_audit
    unreached = {f"{pin.site}.expert.{j}.{ab}" for pin in baseline.sites
                 for j in range(pin.mask.shape[1]) if not pin.mask[:, j].any() for ab in "AB"}
    copies = trainer_module.AUDIT_ROWS // 3
    blocks = {path: -(-2 * p.data.size // copies) for path, p in model.params.items()}
    starts = []
    forward_fn = trainer_module.forward

    def spy(*args, start=None, **kwargs):
        starts.append(start)
        return forward_fn(*args, start=start, **kwargs)

    monkeypatch.setattr(trainer_module, "forward", spy)
    ok, rows = gradient_audit()
    assert ok
    assert sum(blocks.values()) == 66 and sum(blocks[path] for path in unreached) == 7
    assert len(starts) == 1 + 66 == 67
    assert starts == [None] + [leaf_block(path) for path, n in blocks.items() for _ in range(n)]
    zeros = [row for row in rows if row.path in unreached]
    assert {row.path for row in zeros} == unreached
    assert all(row.max_abs_err == 0.0 for row in zeros)


def test_an_expert_no_sample_selected_probes_to_an_exactly_zero_difference():
    model, total, probe = _audit_problem(small_audit_config(), n_samples=1, seed=7)
    backward(total)
    unused = [path for path, p in model.params.items() if ".expert." in path and not p.grad.any()]
    assert len(unused) == 2 * 2 * 2         # per site 2 of 4 experts, A and B each
    leaves, f = probe_over(model, probe, unused)
    for copies in (1, trainer_module.AUDIT_ROWS):
        for fd in finite_diff_grad(f, leaves, copies=copies):
            assert not fd.any()


@pytest.fixture(scope="module")
def two_layer_audit():
    return audit_problem(audit_config(), n_samples=3)


LEAF_KINDS = ["expert.{j}.A", "expert.{j}.B", "router.select", "router.query", "router.key",
              "router.experts"]


@pytest.mark.parametrize("perturbed", [False, True], ids=["baseline", "perturbed"])
@pytest.mark.parametrize("path", [
    f"layer.{i}.{site}.{kind}" for i in (0, 1) for site in SITES for kind in LEAF_KINDS
] + ["head.weight", "head.bias"])
def test_a_probe_block_resumes_at_its_leafs_block_and_matches_the_full_objective(
    monkeypatch, two_layer_audit, path, perturbed,
):
    # the probe starts the forward at the leaf's own block from the state
    # the training call entered it with, and puts the leaf back; every
    # copy's value, in a block of 5 and in a block of one, must be the
    # whole pinned objective's on the same copies, bit for bit
    model, _, probe, args, baseline = two_layer_audit
    starts = []
    forward_fn = trainer_module.forward

    def spy(*args, start=None, **kwargs):
        starts.append(start)
        return forward_fn(*args, start=start, **kwargs)

    def objective() -> np.ndarray:
        with no_grad():
            return _batch_loss(*args, baseline=baseline)[2].data

    monkeypatch.setattr(trainer_module, "forward", spy)
    for j in range(4) if "{j}" in path else [None]:
        leaf = model.params[path.format(j=j)]
        held = leaf.data
        rng = named_rng(3, path, str(j))
        copies = np.stack([held] * 5) + (0.05 * rng.normal(size=(5,) + held.shape) if perturbed else 0.0)
        try:
            leaf.data = copies[:, None]
            full = np.broadcast_to(objective(), (5,))
            leaf.data = copies[:1, None]
            first = np.broadcast_to(objective(), (1,))
            leaf.data = copies[0]
            alone = objective()                 # the copy as the leaf itself, no copy axis
        finally:
            leaf.data = held
        i = model.params.paths().index(path.format(j=j))
        starts.clear()
        resumed = probe(i, copies)
        one = probe(i, copies[:1])
        assert starts == [leaf_block(path)] * 2
        assert leaf.data is held
        assert resumed.shape == (5,) and one.shape == (1,)
        assert resumed.tobytes() == full.tobytes()
        assert one.tobytes() == first.tobytes()
        np.testing.assert_allclose(one[0], alone, rtol=1e-14, atol=0)


@pytest.mark.parametrize("n_samples, paths", [
    (3, ["layer.0.attn_out.expert.0.A", "layer.0.attn_out.router.query"]),
    (3, ["layer.1.ffn_up.expert.0.B", "layer.1.ffn_up.router.key"]),
    (3, ["head.weight"]),
    (1, ["layer.0.ffn_up.router.select", "layer.1.attn_out.expert.2.A"]),
], ids=["layer-0", "layer-1", "head", "one-sample"])
def test_the_block_size_never_changes_a_probe_value(n_samples, paths):
    # 32 copies per block against the count the audit takes at n_samples
    model, _, probe = _audit_problem(audit_config(), n_samples, seed=7)
    leaves, f = probe_over(model, probe, paths)
    small = finite_diff_grad(f, leaves, copies=32)
    large = finite_diff_grad(f, leaves, copies=trainer_module.AUDIT_ROWS // n_samples)
    for a, b in zip(small, large, strict=True):
        assert a.any()
        assert a.tobytes() == b.tobytes()


def test_gradient_audit_checks_the_graph_training_builds(monkeypatch):
    # the audit must differentiate the routed forward that train_chunk runs:
    # a graph cut planted there (stage-two weights detached before they mix
    # the adapters) has to surface as a mismatch
    import streamlora.model as model_module

    ok, _ = gradient_audit(small_audit_config(), n_samples=2)
    assert ok

    route = model_module.route_with_straight_through

    def cut_route(*args, **kwargs):
        probs, mask, weights, gate = route(*args, **kwargs)
        return probs, mask, weights.detach(), gate

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


def test_cli_train_then_metrics_round_trip(tmp_path, config_file, capsys):
    run_dir = tmp_path / "run"
    rc = main(["train", "--config", str(config_file), "--variant", "full", "--out", str(run_dir)])
    assert rc == 0
    assert "MAP" in capsys.readouterr().out

    rebuilt = tmp_path / "rebuilt.csv"
    rc = main(["metrics", "--input", str(run_dir / "metrics.csv"), "--out", str(rebuilt)])
    assert rc == 0
    assert rebuilt.read_text() == (run_dir / "metrics.csv").read_text()


@pytest.mark.parametrize("text, line, field", [
    ("0,0,0.5\n1.0,0,0.25\n1,1,0.75\n", 2, "1.0,0,0.25"),
    ("t,m,a\n0,0,0.5\nfoo,0,0.25\n1,0,0.75\n", 3, "foo,0,0.25"),
    ("1,x,0.25\n", 1, "1,x,0.25"),
    ("t,m,a\n1,0,0.5\n1,0,0.75\n2,0,0.25\n", 3, "1,0,0.75"),
    # a first row with a number in t, m or a is a row, never a header
    ("1x,0,0.5\n2,0,0.4\n", 1, "1x,0,0.5"),
    ("t,0,0.5\n1,0,0.5\n", 1, "t,0,0.5"),
    # only a row laid out as a metrics.csv summary row is skipped
    ("1,0,0.5\n2,,0.4\n", 2, "2,,0.4"),
], ids=["float-t", "second-header", "bad-m", "repeated-t-m", "bad-t-first", "numeric-header",
        "empty-m"])
def test_cli_metrics_names_the_line_of_a_row_it_cannot_parse(tmp_path, capsys, text, line, field):
    rows = tmp_path / "rows.csv"
    rows.write_text(text)
    assert main(["metrics", "--input", str(rows), "--out", str(tmp_path / "out.csv")]) == 2
    assert re.search(rf"rows.csv: line {line}: .* got '{re.escape(field)}'", capsys.readouterr().err)
    assert not (tmp_path / "out.csv").exists()


def test_cli_metrics_accepts_a_header_of_other_names(tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    rows.write_text("chunk,task,accuracy\n0,0,0.5\n1,0,0.25\n1,1,0.75\n")
    assert main(["metrics", "--input", str(rows)]) == 0
    expected = MetricLedger.from_accuracy_rows([(0, 0, 0.5), (1, 0, 0.25), (1, 1, 0.75)]).to_csv()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("text, error", [
    ("1,0,1.5\n", r"accuracy 1\.5 for dataset 0 outside \[0, 1\]"),
    ("0,0,0.5\n1,0,0.5\n1,1,0.5\n2,1,0.5\n", r"previously seen datasets absent from evaluation: \[0\]"),
], ids=["out-of-range", "vanished-dataset"])
def test_cli_metrics_names_the_file_whose_rows_the_ledger_rejects(tmp_path, capsys, text, error):
    rows = tmp_path / "rows.csv"
    rows.write_text(text)
    assert main(["metrics", "--input", str(rows), "--out", str(tmp_path / "out.csv")]) == 2
    assert re.fullmatch(rf"streamlora: {re.escape(str(rows))}: {error}\n", capsys.readouterr().err)
    assert not (tmp_path / "out.csv").exists()


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


@pytest.mark.parametrize("bad_line, error", [
    ("{not json", r"not JSON"),
    ('{"chunk": 0, "sample_id": "0-9", "layer": 0, "site": "ffn_up", "s_mean": [1.0]}',
     r"trace record lacks \['task_id'\]"),
    ('{"task_id": null, "sample_id": "0-9", "layer": 0, "site": "ffn_up", "s_mean": [1.0]}',
     r"task_id must be an integer, got null"),
    ('{"task_id": 0, "sample_id": "0-9", "layer": null, "site": "ffn_up", "s_mean": [1.0]}',
     r"layer must be an integer, got null"),
    ('{"task_id": 0, "sample_id": "0-9", "layer": [0], "site": "ffn_up", "s_mean": [1.0]}',
     r"layer must be an integer, got \[0\]"),
    ('{"task_id": 0, "sample_id": "0-9", "layer": 0, "site": "ffn_up", "s_mean": [0.5, null, 0.5]}',
     r"s_mean must be a non-empty list of finite numbers, got \[0.5, null, 0.5\]"),
], ids=["not-json", "no-task-id", "null-task-id", "null-layer", "list-layer", "null-weight"])
def test_cli_diag_names_the_line_it_cannot_read(tmp_path, capsys, bad_line, error):
    write_diag_tables(tmp_path)
    traces = tmp_path / "traces.jsonl"
    lines = traces.read_text().splitlines()
    traces.write_text("\n".join(lines[:2] + [bad_line] + lines[2:]) + "\n")
    assert main(["diag", "--traces", str(traces), "--out", str(tmp_path / "diag")]) == 2
    assert re.fullmatch(rf"streamlora: .*traces.jsonl: line 3: {error}.*\n", capsys.readouterr().err)
    assert not (tmp_path / "diag").exists()


@pytest.mark.parametrize("task_ids, chunk, error", [
    ((0, 1), ["--chunk", "99"], " --chunk 99: no trace records"),
    ((0,), [], ": need at least two tasks for an off-diagonal mean"),
], ids=["empty-chunk", "one-task"])
def test_cli_diag_names_the_file_and_chunk_whose_traces_it_rejects(tmp_path, capsys, task_ids, chunk, error):
    write_diag_tables(tmp_path)
    traces = tmp_path / "traces.jsonl"
    kept = [line for line in traces.read_text().splitlines() if json.loads(line)["task_id"] in task_ids]
    traces.write_text("\n".join(kept) + "\n")
    assert main(["diag", "--traces", str(traces), "--out", str(tmp_path / "diag"), *chunk]) == 2
    assert capsys.readouterr().err == f"streamlora: {traces}{error}\n"
    assert not (tmp_path / "diag").exists()


def test_cli_diag_reports_each_site_at_its_own_width(tmp_path, capsys):
    rng = named_rng(0, "diag-widths")
    weights = {(task, site): rng.dirichlet(np.ones(width), size=3)
               for task in range(2) for site, width in (("attn_out", 2), ("ffn_up", 3))}
    traces = tmp_path / "traces.jsonl"
    traces.write_text("".join(
        json.dumps({"task_id": task, "sample_id": f"{task}-{i}", "layer": 0, "site": site,
                    "s_mean": rows[i].tolist()}) + "\n"
        for (task, site), rows in weights.items() for i in range(3)))
    assert main(["diag", "--traces", str(traces), "--out", str(tmp_path / "diag")]) == 0
    with open(tmp_path / "diag" / "activation.csv") as fh:
        shares = {}
        for row in csv.DictReader(fh):
            shares.setdefault((int(row["task"]), row["site"].split(".")[-1]), []).append(float(row["share"]))
    assert shares.keys() == weights.keys()
    for key, rows in weights.items():
        np.testing.assert_allclose(shares[key], rows.mean(axis=0), rtol=0, atol=1e-15)
    assert "nan" not in capsys.readouterr().out


def test_read_traces_gives_back_the_records_run_stream_wrote(tmp_path):
    cfg = tiny_config()
    result = run_stream(cfg, out_dir=tmp_path)
    assert read_traces(tmp_path / "traces.jsonl") == result.traces
    post = cfg.n_chunks + 1
    assert read_traces(tmp_path / "traces.jsonl", post) == [r for r in result.traces if r["chunk"] == post]


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


def test_cli_gradcheck_rejects_zero_samples(capsys):
    assert main(["gradcheck", "--samples", "0"]) == 2
    assert re.search("at least one sample", capsys.readouterr().err)


def test_cli_gradcheck_passes_on_the_audit_model(capsys):
    rc = main(["gradcheck", "--samples", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ok" in out.lower()
    assert "head.weight" in out


@pytest.mark.parametrize("argv, given", [
    ([], {}),
    (["--rtol", "1e-3"], {"rtol": 1e-3}),
    (["--samples", "2", "--seed", "0"], {"n_samples": 2, "seed": 0}),
    (["--epsilon", "1e-6", "--samples", "1", "--rtol", "0", "--seed", "3"],
     {"epsilon": 1e-6, "n_samples": 1, "rtol": 0.0, "seed": 3}),
])
def test_cli_gradcheck_hands_the_audit_only_the_flags_given(monkeypatch, capsys, argv, given):
    # an unset flag falls through to gradient_audit's own default
    calls = []

    def spy(config, **kwargs):
        calls.append((config, kwargs))
        return True, []

    monkeypatch.setattr(cli_module, "gradient_audit", spy)
    assert main(["gradcheck", *argv]) == 0
    assert calls == [(audit_config(), given)]
    assert capsys.readouterr().out.endswith("0 parameters checked; all within tolerance\n")


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
def test_a_repeated_command_reuses_the_memory_its_first_run_freed(capsys):
    # without the CLI's allocator policy glibc unmaps or trims each freed
    # array, and the repeat faults its pages in afresh (13,286 minor faults)
    argv = ["gradcheck", "--samples", "1"]
    assert main(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv) == 0
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000
