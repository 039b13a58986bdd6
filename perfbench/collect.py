"""Repeat the benchmark over seeds and summarise it, with the machine.

    python3 perfbench/collect.py [--workloads a,b] [--seeds 0-9] [--trace-seed 0]
                                 [--out summary.json] [--compare earlier.json]
                                 [--against OTHER_CHECKOUT]

For each workload: one untraced run per seed (with run_seconds from
BENCHMARK.json), reporting per end-to-end metric the median, the quartiles
and the spread (interquartile range over the median) against the metric's
bound; every spread must stay within its bound. With --trace-seed, two
traced runs on that seed follow, and the counts of the per-layer metrics
must repeat exactly between them.

Comparing two versions: --compare holds each median against a summary
written earlier. run_s and setup_s are scaled to the reference host speed
(see perfbench/probe.py), which cancels much of the host's drift between
the two sets (on a shared 2-vCPU host the same code has run up to half
slower from one minute to the next), but not all of it.
--against runs another checkout's own perfbench/run.py on the same seeds,
alternating with this one run by run, so both see the same host; each
median of this checkout may be worse than the other's by at most the
bound. Every run is a separate process, started from its checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import BLAS_THREADS, WORK, WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int, root: Path = ROOT) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((root / WORK.name / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "detail": detail, "process_s": wall, "stderr": proc.stderr}


def spread_of(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "min": min(values), "max": max(values)}


def verdict(worse: float, bound: float, spread: float, how: str) -> str:
    """A difference of medians is unresolved where the runs of either side
    spread wider than the bound; a difference within the bound between
    sets run apart in time still carries the host's drift."""
    if worse > bound:
        return f"WORSE than bound ({how})"
    if spread > bound:
        return f"unresolved: spread {spread:.3f} wider than bound ({how})"
    return f"within bound ({how})"


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma list (default: those in BENCHMARK.json)")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path, help="summary written earlier by --out")
    parser.add_argument("--against", type=Path, help="another checkout, run interleaved")
    args = parser.parse_args()
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    summary: dict = {"machine": machine(), "run_seconds": spec["run_seconds"],
                     "seeds": seeds, "workloads": {}}
    ok = True
    for workload in workloads:
        runs, others = [], []
        for i, seed in enumerate(seeds):
            order = [(ROOT, runs), (args.against, others)] if args.against else [(ROOT, runs)]
            # alternate which checkout goes first, so neither always follows the other
            for root, into in order if i % 2 == 0 else order[::-1]:
                into.append(run_once(workload, seed, spec["run_seconds"], 0, root=root))
        entry: dict = {
            "command": "streamlora " + " ".join(WORKLOADS[workload].command(seeds[0], Path("OUT"))),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "process_s": spread_of([r["process_s"] for r in runs]),
            "end_to_end": {},
            "extra": {},
        }
        ok &= entry["failed"] == 0 and all(r["result"]["correct"] for r in runs)
        print(f"{workload}: {entry['attempted']} operations, {entry['failed']} failed, "
              f"process time median {entry['process_s']['median']:.1f} s")
        for name, bound in bounds.items():
            stats = spread_of([r["result"]["metrics"][name]["value"] for r in runs])
            stats.update(bound=bound, within_bound=stats["spread"] <= bound,
                         below_third=stats["spread"] < bound / 3)
            ok &= stats["within_bound"]
            line = (f"  {name:<22} median {stats['median']:<12.6g} spread {stats['spread']:.3f} "
                    f"(bound {bound}, {'steady' if stats['below_third'] else 'NOT below a third'})")
            if workload in earlier:
                then = earlier[workload]["end_to_end"][name]
                worse = (stats["median"] / then["median"] - 1) * (1 if lower_is_better[name] else -1)
                stats["worse_than_compared"] = worse
                ok &= worse <= bound
                line += f"; {worse:+.3f} worse than compared, " + verdict(
                    worse, bound, max(stats["spread"], then["spread"]), "sets not interleaved")
            if others:
                then = spread_of([r["result"]["metrics"][name]["value"] for r in others])
                worse = (stats["median"] / then["median"] - 1) * (1 if lower_is_better[name] else -1)
                stats["worse_than_against"] = worse
                ok &= worse <= bound
                line += f"; {worse:+.3f} worse than {args.against}, " + verdict(
                    worse, bound, max(stats["spread"], then["spread"]), "interleaved")
            entry["end_to_end"][name] = stats
            print(line)
        for key in runs[0]["detail"]["extra"]:
            stats = spread_of([r["detail"]["extra"][key] for r in runs])
            entry["extra"][key] = stats
            print(f"  {key:<22} median {stats['median']:<12.6g} range {stats['min']:.6g}..{stats['max']:.6g}")
        entry["ops_per_run"] = [r["result"]["attempted"] for r in runs]

        if args.trace_seed is not None:
            traced = [run_once(workload, args.trace_seed, spec["run_seconds"], 1) for _ in range(2)]
            first, second = (t["result"]["metrics"] for t in traced)
            # counts of work must repeat exactly for one seed
            unsteady = [name for name, unit in units.items()
                        if unit == "count" and first[name]["value"] != second[name]["value"]]
            coverage = traced[0]["detail"]["coverage_problems"] + traced[1]["detail"]["coverage_problems"]
            # the traced operations against the untraced ones of this set: the
            # overhead as a difference of two runs, host drift included
            traced_s = statistics.median(t["detail"]["op_seconds"][0] for t in traced)
            measured = traced_s / entry["extra"]["run_wall_s"]["median"] - 1.0
            ok &= not unsteady and not coverage and all(t["result"]["correct"] for t in traced)
            entry["traced"] = {
                "seed": args.trace_seed,
                "per_layer": {name: first[name]["value"] for name in units},
                "counts_repeat_exactly": not unsteady,
                "coverage_problems": coverage,
                "process_s": [t["process_s"] for t in traced],
                "overhead_vs_untraced_runs": measured,
            }
            print(f"  traced seed {args.trace_seed}: counts repeat exactly: {not unsteady} "
                  f"{unsteady or ''}; coverage problems: {len(coverage)}; "
                  f"overhead {first['trace.overhead_frac']['value']:.3f} estimated, "
                  f"{measured:+.3f} against this set's untraced run_wall_s")
        summary["workloads"][workload] = entry

    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    print("all runs correct and within bounds" if ok else "NOT all runs correct and within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
