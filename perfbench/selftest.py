"""Shows that the benchmark's output check can fail.

    python3 perfbench/selftest.py

Runs a short `streamlora train --variant full` through the same operation
runner as perfbench/run.py, once clean and once per corruption of its
artifacts. The clean run must pass; a corrupted metrics.csv, a truncated
checkpoint and a wrong optimizer step count must each make the operation
count as failed. Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

SHORT = run.Workload(
    ("train", "--variant", "full", "--set", "n_chunks=7", "--set", "chunk_size=20",
     "--set", "batch_size=8"),
)


def corrupt_metrics(out: Path) -> None:
    path = out / "metrics.csv"
    lines = path.read_text().splitlines(keepends=True)
    t, m, a, *rest = lines[1].split(",")
    lines[1] = ",".join([t, m, repr(float(a) / 2.0 + 0.01), *rest])
    path.write_text("".join(lines))


def truncate_checkpoint(out: Path) -> None:
    path = out / "checkpoint.bin"
    path.write_bytes(path.read_bytes()[:-16])


def wrong_step_count(out: Path) -> None:
    path = out / "runlog.json"
    runlog = json.loads(path.read_text())
    runlog["optimizer_steps"] -= 1
    runlog["steps"].pop()
    path.write_text(json.dumps(runlog))


def main() -> int:
    if not (run.SRC / "streamlora").is_dir():
        print(f"no streamlora sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    sl = run.import_program()
    ok = True
    clean = run.run_op(sl, SHORT, seed=3)
    print(f"clean run: {'passes' if not clean.problems else 'FAILS'} the check")
    for problem in clean.problems:
        print(f"  {problem}")
    ok &= not clean.problems
    for mutate in (corrupt_metrics, truncate_checkpoint, wrong_step_count):
        op = run.run_op(sl, SHORT, seed=3, mutate=mutate)
        caught = bool(op.problems)
        ok &= caught
        print(f"{mutate.__name__}: {'counted as failed' if caught else 'NOT DETECTED'}")
        for problem in op.problems:
            print(f"  {problem}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
