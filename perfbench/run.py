"""Benchmark for streamlora: one workload per process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src and nowhere else. Each operation is one user command, run through
`streamlora.cli.main` with `--seed N` and its outputs checked. One caller
issues the operations back to back: the next starts when the previous one
has finished, and no operation starts that would be expected to end after
S seconds (the first always runs).

Workloads: full_default and gradcheck are the ones BENCHMARK.json gates.
dense_online runs the same way but is left out of BENCHMARK.json: with
three workloads the run budget allows one or two operations per run, too
few to hold run_s within its bound on a host whose speed shifts by up to
half between minutes.

--trace 0 reports the end-to-end metrics: `setup_s` (median over the run
of in-process set-ups: a re-import of the package, its modules' bytecode
already cached, plus the public constructors an operation calls before its
first batch or loss evaluation; timed in rounds before every operation and
after the last), `run_s` (median wall time of one operation) and
`peak_rss_mb`.

The two times are given at the reference host speed: wall seconds times
PROBE_REF_S over the median time of the host-speed probe
(perfbench/probe.py). A set-up is scaled by the round of probes run just
before its round of set-ups; an operation by the probes run inside it,
one every PROBE_EVERY_S, whose pauses are taken out of its time. On a
shared host the same code runs up to half slower from one minute to the
next, and its speed moves within seconds; the probe, which does not change
between commits, slows with it, and the ratio cancels much of that drift.
The benchmark and the probe are pinned to one CPU, so both see the same
one. The wall times themselves (pauses taken out) are printed as
run_wall_s and setup_wall_s, with the probes' median as probe_s.
Workload-specific numbers (samples trained per second of wall time, final
MAP/MAF, the audit's worst relative error, error rate) are printed above
the result line.

--trace 1 runs one operation with the span recorder of perfbench/spans.py
installed and reports its per-layer metrics, plus the recorder's estimated
share of the operation's time. Spans are written to
.perfbench/trace-WORKLOAD.npz.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {...}}.
"""

from __future__ import annotations

import os
import sys

# Small matrices only: more BLAS threads add scheduling noise, not speed.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Set-ups are timed in rounds, one before every operation and one after the
# last, so that setup_s samples the host over the whole run, not one moment.
# Each round starts with a round of host-speed probes.
SETUP_ROUND = 6
# Median probe time on the host where perfbench/baseline.json was measured
# (2-vCPU Xeon, Python 3.11.7): times are scaled to that speed.
PROBE_REF_S = 0.15

sys.path.insert(0, str(HERE))
import check  # noqa: E402
from probe import Pacer, ProbeProcess  # noqa: E402
from spans import SPANS, SpanRecorder  # noqa: E402


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]       # streamlora command line, without --seed and --out

    @property
    def trains(self) -> bool:
        return self.argv[0] == "train"

    def command(self, seed: int, out: Path) -> list[str]:
        argv = [*self.argv, "--seed", str(seed)]
        return argv + ["--out", str(out)] if self.trains else argv

    def config(self, sl, seed: int):
        """The RunConfig the command line resolves to, read from its
        --variant and --set options."""
        if not self.trains:
            return sl.trainer.audit_config()
        options = list(zip(self.argv[1::2], self.argv[2::2]))
        overrides = [value for flag, value in options if flag == "--set"]
        config = sl.RunConfig()
        if overrides:
            config = sl.trainer.parse_config_text("\n".join(overrides), base=config)
        config = replace(config, seed=seed)
        variant = dict(options).get("--variant")
        return sl.apply_variant(config, variant) if variant else config


WORKLOADS = {
    # the paper's method: every routing and stability layer works, batch 32
    "full_default": Workload(("train", "--variant", "full")),
    # the bypass: dense mixture, no routing or stability work, batch 4 so
    # per-step work (Adam, run log) weighs most
    "dense_online": Workload(("train", "--variant", "uniform_moe", "--set", "batch_size=4")),
    # the audit: same autograd and model layers used another way (tiny
    # no_grad forwards, no graph, optimizer or stream)
    "gradcheck": Workload(("gradcheck",)),
}

# Layers predicted to do no work on a workload; every other span must
# record at least one call there.
IDLE = {
    "full_default": {"autograd.finite_diff_grad", "trainer.gradient_audit"},
    "dense_online": {
        "routing.route_st", "routing.select_experts", "routing.token_logits",
        "routing.token_weights", "stability.reference_weights", "stability.reg_loss",
        "stability.ema_update", "autograd.finite_diff_grad", "trainer.gradient_audit",
    },
    "gradcheck": {
        "stream.compose_chunk", "stream.test_set", "trainer.adam_step", "trainer.evaluate",
        "trainer.train_chunk", "trainer.run_stream", "metrics.ledger",
        "stability.ema_update", "autograd.checkpoint_save",
    },
}


# ---------------------------------------------------------------------------
# set-up and one operation
# ---------------------------------------------------------------------------


def import_program():
    """A fresh import of the package, as a new process would do it."""
    for name in [m for m in sys.modules if m == "streamlora" or m.startswith("streamlora.")]:
        del sys.modules[name]
    sl = importlib.import_module("streamlora")
    importlib.import_module("streamlora.cli")
    return sl


def set_up(workload: Workload, seed: int) -> tuple[float, object]:
    """Seconds to import the package and build what an operation builds
    before its first batch (or, for the audit, its first loss evaluation)."""
    started = time.perf_counter()
    sl = import_program()
    config = workload.config(sl, seed)
    if workload.trains:
        stream_seed = config.effective_stream_seed
        specs = sl.make_task_specs(
            stream_seed,
            n_tasks=config.n_tasks,
            d_e=config.d_hidden,
            classes_per_task=config.classes_per_task,
            sigma=config.visual_noise,
            visual_tokens=config.visual_tokens,
            noise_tokens=config.noise_tokens,
            test_size=config.test_size,
            vocab_size=config.vocab_size,
        )
        sl.build_default_stream(
            stream_seed, n_tasks=config.n_tasks, n_chunks=config.n_chunks, chunk_size=config.chunk_size
        )
        for spec in specs:
            sl.TaskSampler(spec, stream_seed).test_set()
        model = check.build_model(sl, config, config.seed)
        sl.Adam(model.params, lr=config.learning_rate)
        if config.variant().use_reg:
            sl.EmaShadow.from_states(model.routing_states())
    else:
        check.build_model(sl, config, seed)
    return time.perf_counter() - started, sl


@dataclass
class Rounds:
    """Times of the rounds of probes and set-ups, one entry per round."""
    probes: list[list[float]] = field(default_factory=list)
    setups: list[list[float]] = field(default_factory=list)

    def probe_s(self, k: int) -> float:
        return statistics.median(self.probes[k])

    def setup_s(self) -> float:
        """Median set-up time, each scaled to the reference host speed by
        the probes of its round."""
        return statistics.median(
            t * PROBE_REF_S / self.probe_s(k) for k, ts in enumerate(self.setups) for t in ts
        )

    def run_s(self, ops: list["Op"]) -> float:
        """Median operation time, each scaled to the reference host speed by
        the probes run inside it (by all rounds' probes if it ended before
        its first one)."""
        rounds = [t for ts in self.probes for t in ts]
        return statistics.median(
            op.seconds * PROBE_REF_S / statistics.median(op.probes or rounds) for op in ops
        )


def set_up_round(workload: Workload, seed: int, rounds: Rounds, host: ProbeProcess):
    """A round of host-speed probes, then SETUP_ROUND set-ups, their times
    added to `rounds`; returns the package as the last set-up imported it."""
    rounds.probes.append(host.round())
    rounds.setups.append([])
    for _ in range(SETUP_ROUND):
        seconds, sl = set_up(workload, seed)
        rounds.setups[-1].append(seconds)
    return sl


@dataclass
class Op:
    seconds: float              # wall time, pauses for probes taken out
    problems: list[str]
    fingerprint: str | None = None
    values: dict[str, float] = field(default_factory=dict)
    probes: list[float] = field(default_factory=list)
    paused: float = 0.0


def run_op(sl, workload: Workload, seed: int, mutate=None, host: ProbeProcess | None = None) -> Op:
    """One user command through the CLI, timed, then its outputs checked.

    `mutate`, when given, is called on the output directory before the
    check; the self-test uses it to corrupt artifacts. With `host`, probes
    run inside the operation, paced at the model forward as the trainer
    looks it up (every workload calls it throughout).
    """
    cli = sys.modules["streamlora.cli"]
    trainer = sys.modules["streamlora.trainer"]
    name = "run_stream" if workload.trains else "gradient_audit"
    inner = getattr(cli, name)
    forward = trainer.forward
    pacer = Pacer(host) if host else None
    returned = []

    def keep_result(*args, **kwargs):
        returned.append(inner(*args, **kwargs))
        return returned[-1]

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        out = Path(tmp)
        argv = workload.command(seed, out)
        gc.collect()
        setattr(cli, name, keep_result)
        if pacer:
            trainer.forward = pacer.wrap(forward)
        raised = None
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:  # a raising operation is a failed operation
            raised = "raised:\n" + traceback.format_exc()
        finally:
            setattr(cli, name, inner)
            trainer.forward = forward
        paused = pacer.paused if pacer else 0.0
        seconds = time.perf_counter() - started - paused
        probes = pacer.samples if pacer else []
        if raised:
            return Op(seconds, [raised], probes=probes, paused=paused)

        if mutate is not None:
            mutate(out)
        if workload.trains:
            result = returned[0]
            try:
                problems = check.check_train(sl, out, workload.config(sl, seed), result)
            except (ValueError, KeyError, OSError) as exc:   # unparseable artifacts
                problems = [f"outputs unreadable: {exc!r}"]
            if code != 0:
                problems.append(f"exit code {code}")
            fingerprint = None if problems else check.train_fingerprint(out)
            map_t, maf_t = result.summary()
            config = result.config
            values = {
                "train_samples_per_s": config.n_chunks * config.chunk_size / seconds,
                "final_map": map_t,
                "final_maf": maf_t,
            }
        else:
            ok, rows = returned[0]
            problems = check.check_audit(sl, ok, rows, code)
            fingerprint = check.audit_fingerprint(rows)
            values = {"audit_worst_rel_err": max(row.max_rel_err for row in rows)}
    return Op(seconds, problems, fingerprint, values, probes, paused)


def check_repeats(ops: list[Op]) -> None:
    """Runs of one seed must produce byte-identical outputs."""
    first = ops[0].fingerprint
    for op in ops[1:]:
        if not op.problems and op.fingerprint != first:
            op.problems.append("outputs differ from the first run of this seed")


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def layer_metrics(rec: SpanRecorder, spans: dict, coverage: list[str], traced_s: float,
                  tracer_s: float) -> dict[str, float]:
    """Every span as NAME.s (inclusive), NAME.self.s and NAME.calls, plus the
    derived per-layer numbers; BENCHMARK.json picks the reported ones.
    trace.overhead_frac is the recorder's estimated own time over the
    operation's time without it."""
    metrics: dict[str, float] = {}
    for name, span in spans.items():
        metrics[f"{name}.s"] = span["s"]
        metrics[f"{name}.self.s"] = span["self_s"]
        metrics[f"{name}.calls"] = span["calls"]
    phase = spans["model.forward"]["phase"]
    for name, split in phase.items():
        metrics[f"model.forward.{name}.s"] = split["s"]
    evaluate_s = spans["trainer.evaluate"]["s"]
    metrics.update({
        "autograd.graph_nodes_per_train_sample": rec.graph_nodes / max(rec.graph_samples, 1),
        "autograd.values_per_forward": rec.values_in_forward / max(spans["model.forward"]["calls"], 1),
        "trainer.eval_samples_per_s": phase["eval"]["calls"] / evaluate_s if evaluate_s else 0.0,
        "trace.overhead_frac": tracer_s / (traced_s - tracer_s),
        "trace.coverage_mismatches": len(coverage),
    })
    return metrics


def coverage_problems(spans: dict, workload_name: str) -> list[str]:
    idle = IDLE[workload_name]
    problems = []
    for name, _ in SPANS:
        n = spans[name]["calls"]
        if name in idle and n != 0:
            problems.append(f"{name}: predicted idle on {workload_name}, recorded {n} calls")
        if name not in idle and n == 0:
            problems.append(f"{name}: predicted to work on {workload_name}, recorded no calls")
    return problems


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def declared_units() -> tuple[dict[str, str], dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics (BENCHMARK.json) and of
    the workload-specific ones printed beside them (metrics.json)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = json.loads((HERE / "metrics.json").read_text())["reported"]
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        {name: m["unit"] for name, m in reported.items()},
    )


def measure(args, workload: Workload, host: ProbeProcess, rounds: Rounds,
            end_to_end_units: dict, per_layer_units: dict):
    """The run's operations, traced or not, between rounds of probes and
    set-ups (their times added to `rounds`). Returns the operations, the
    metrics measured so far, the units to report and the trace's coverage
    problems."""
    sl = set_up_round(workload, args.seed, rounds, host)
    coverage: list[str] = []
    if args.trace:
        rec = SpanRecorder()
        rec.install()
        try:
            ops = [run_op(sl, workload, args.seed)]
        finally:
            rec.uninstall()
        spans = rec.summary()
        coverage = coverage_problems(spans, args.workload)
        tracer_s = rec.tracer_seconds({name: span["calls"] for name, span in spans.items()})
        metrics = layer_metrics(rec, spans, coverage, ops[0].seconds, tracer_s)
        units = per_layer_units
        rec.write(WORK / f"trace-{args.workload}.npz", op_id=f"{args.workload}-seed{args.seed}")
    else:
        ops = []
        started = time.perf_counter()
        while True:
            ops.append(run_op(sl, workload, args.seed, host=host))
            if time.perf_counter() - started + ops[-1].seconds + ops[-1].paused > args.seconds:
                break
            sl = set_up_round(workload, args.seed, rounds, host)
        check_repeats(ops)
        metrics = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = end_to_end_units
    set_up_round(workload, args.seed, rounds, host)
    return ops, metrics, units, coverage


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "streamlora" / "__init__.py").is_file():
        print(f"no streamlora sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    end_to_end_units, per_layer_units, extra_units = declared_units()
    workload = WORKLOADS[args.workload]

    # one CPU for the program and the probe child, which inherits it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rounds = Rounds()
    host = ProbeProcess()
    try:
        ops, metrics, units, coverage = measure(args, workload, host, rounds,
                                                end_to_end_units, per_layer_units)
    finally:
        host.close()
    setups = [t for ts in rounds.setups for t in ts]
    probes = [t for ts in rounds.probes for t in ts] + [t for op in ops for t in op.probes]
    if args.trace:
        extra = {"setup_s": rounds.setup_s()}
    else:
        metrics.update(run_s=rounds.run_s(ops), setup_s=rounds.setup_s())
        extra = {"run_wall_s": statistics.median(op.seconds for op in ops)}
    extra.update(setup_wall_s=statistics.median(setups), probe_s=statistics.median(probes))

    failed = sum(1 for op in ops if op.problems)
    for key in dict.fromkeys(key for op in ops for key in op.values):
        extra[key] = statistics.median(op.values[key] for op in ops if key in op.values)
    extra["error_rate"] = failed / len(ops)
    for i, op in enumerate(ops):
        for problem in op.problems:
            print(f"operation {i + 1} failed: {problem}", file=sys.stderr)
    for problem in coverage:
        print(f"coverage: {problem}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"argv: streamlora {' '.join(workload.command(args.seed, Path('OUT')))}")
    print(f"closed loop, 1 caller: {len(ops)} operations, {failed} failed; "
          f"times are medians over {len(ops)} operations, setup_s over {len(setups)} set-ups, "
          f"host speed over {len(probes)} probes")
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"benchmark computed no value for {sorted(missing)}")
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    for name, value in extra.items():
        print(f"  {name:<40} {value:>14.6g} {extra_units[name]}")

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "op_seconds": [op.seconds for op in ops], "setup_seconds": rounds.setups,
        "probe_seconds": rounds.probes, "op_probe_seconds": [op.probes for op in ops],
        "metrics": metrics, "extra": extra, "coverage_problems": coverage,
        "problems": [op.problems for op in ops],
    }
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True)
    )
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
