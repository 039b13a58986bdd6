"""Compare the artifacts of `streamlora train` between this tree and another.

Runs `streamlora train --seed S --variant V --out DIR` for every seed and
each of the eight variants, `streamlora metrics --input DIR/metrics.csv`
on every run, `streamlora diag` on each routed run's traces, whole and
with `--chunk 13` (the post-stream records at the default 12 chunks), and
the default `streamlora gradcheck` and `gradcheck --samples 1`, once with
this tree's `src` and once with `--against TREE`'s (for example a `git
archive` export of the parent commit), then prints every artifact that
differs between the two: a file whose bytes differ, or that only one side
wrote. A `metrics`'s artifact is its stdout, the rebuilt file. A `diag`'s
artifacts are its two tables and its stdout, kept beside them. A
`gradcheck`'s artifacts are its stdout, the audit table, and its rows at
full precision: each row's `repr` of (path, max_abs_err, max_rel_err,
ok), the fingerprint `perfbench/check.py::audit_fingerprint` takes. For
a `.json` artifact it names up to five dotted key paths that differ or
exist on one side only, such as `manifest.json: config.seed differs`. `runlog.json` is compared without `wall_seconds`, the one field
that is not deterministic. Each tree runs its commands in one Python
process, in its own output directory, and the two run side by side. The
commands name their files by paths relative to that directory, so that
stdouts that name them compare byte for byte.

Run from the repository root (about two minutes for the default five seeds
on two CPUs):

    parent=$(mktemp -d) && git archive HEAD~1 | tar -x -C "$parent"
    python3 tests/artifact_identity.py --against "$parent" [--seeds 0-4]

Exits 0 when nothing differs and 1 otherwise. pytest does not collect it:
the file name does not start with `test_`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
VARIANTS = ("full", "uniform_moe", "shared_lora", "frozen", "p", "s", "s,reg", "p,s")
ROUTED = tuple(v for v in VARIANTS if v not in ("shared_lora", "frozen"))    # the variants that trace

DIAGS = {"diag": [], "diag --chunk 13": ["--chunk", "13"]}

GRADCHECKS = {"gradcheck": [], "gradcheck --samples 1": ["--samples", "1"]}

# runs each argv of a JSON list of [argv, stdout file or null] pairs through
# `streamlora.cli.main` in one process, writing the stdout a pair names (its
# directory made if need be) and, beside it in `<file>.rows`, one repr per
# row of the audits the command ran
RUNNER = """
import contextlib, io, json, os, sys
import streamlora.cli as cli
audits, gradient_audit = [], cli.gradient_audit
def recorded_audit(*args, **kwargs):
    audits.append(gradient_audit(*args, **kwargs))
    return audits[-1]
cli.gradient_audit = recorded_audit
for argv, stdout_path in json.loads(sys.argv[1]):
    audits.clear()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    if stdout_path:
        os.makedirs(os.path.dirname(stdout_path) or ".", exist_ok=True)
        with open(stdout_path, "w") as fh:
            fh.write(stdout.getvalue())
        with open(stdout_path + ".rows", "w") as fh:
            for _, rows in audits:
                for row in rows:
                    fh.write(repr((row.path, row.max_abs_err, row.max_rel_err, row.ok)) + "\\n")
    if code != 0:
        raise SystemExit(f"streamlora {' '.join(argv)} exited {code}")
"""


def parse_seeds(text: str) -> list[int]:
    """'0-4' or '0,2,5' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def start_runs(tree: Path, out: Path, runs: list[tuple[int, str]]) -> subprocess.Popen:
    """Start `tree`'s commands in `out`, which they name by relative paths."""
    out.mkdir(parents=True)
    argv = [[["train", "--seed", str(seed), "--variant", variant, "--out", run_name(seed, variant)], None]
            for seed, variant in runs]
    argv += [[["diag", "--traces", f"{run_name(seed, variant)}/traces.jsonl",
               "--out", diag_name(seed, variant, name), *flags], f"{diag_name(seed, variant, name)}/stdout.txt"]
             for seed, variant in runs if variant in ROUTED for name, flags in DIAGS.items()]
    argv += [[["metrics", "--input", f"{run_name(seed, variant)}/metrics.csv"],
              f"{metrics_name(seed, variant)}/stdout.txt"] for seed, variant in runs]
    argv += [[["gradcheck", *flags], f"{name}.txt"] for name, flags in GRADCHECKS.items()]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen([sys.executable, "-c", RUNNER, json.dumps(argv)], env=env, cwd=out)


def run_name(seed: int, variant: str) -> str:
    return f"seed{seed}-{variant.replace(',', '+')}"


def metrics_name(seed: int, variant: str) -> str:
    return f"{run_name(seed, variant)}.metrics"


def diag_name(seed: int, variant: str, diag: str) -> str:
    return f"{run_name(seed, variant)}.{diag.replace(' --', '-').replace(' ', '')}"


def comparable(path: Path) -> bytes:
    if path.name != "runlog.json":
        return path.read_bytes()
    runlog = json.loads(path.read_text())
    runlog.pop("wall_seconds", None)
    return json.dumps(runlog, sort_keys=True).encode()


JSON_PATHS_SHOWN = 5


def json_differences(ours, theirs, path: str = "") -> list[str]:
    """The dotted key paths (list items by index) at which two parsed JSON
    documents differ, each with how."""
    def at(key) -> str:
        return f"{path}.{key}" if path else str(key)

    if isinstance(ours, dict) and isinstance(theirs, dict):
        out = []
        for key in {**ours, **theirs}:
            if key not in theirs:
                out.append(f"{at(key)} only in this tree")
            elif key not in ours:
                out.append(f"{at(key)} only in the other tree")
            else:
                out.extend(json_differences(ours[key], theirs[key], at(key)))
        return out
    if isinstance(ours, list) and isinstance(theirs, list) and len(ours) == len(theirs):
        return [line for i, (a, b) in enumerate(zip(ours, theirs))
                for line in json_differences(a, b, at(i))]
    return [] if json.dumps(ours) == json.dumps(theirs) else [f"{path or 'the document'} differs"]


def differences(ours: Path, theirs: Path) -> dict[str, list[str]]:
    """Each artifact of one run that differs between the trees, with the
    lines that say how."""
    names = sorted({p.name for p in ours.iterdir()} | {p.name for p in theirs.iterdir()})
    out = {}
    for name in names:
        a, b = ours / name, theirs / name
        if not (a.is_file() and b.is_file()):
            out[name] = [f"only {'this tree' if a.is_file() else 'the other tree'} wrote it"]
        elif comparable(a) != comparable(b):
            paths = []
            if name.endswith(".json"):
                paths = json_differences(json.loads(comparable(a)), json.loads(comparable(b)))
            more = len(paths) - JSON_PATHS_SHOWN
            out[name] = paths[:JSON_PATHS_SHOWN] or ["differs"]
            if more > 0:
                out[name].append(f"and {more} more key paths")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, type=Path, metavar="TREE",
                        help="the other source tree (its src/streamlora is imported)")
    parser.add_argument("--seeds", default="0-4", help="seeds as '0-4' or '0,2,5' (default 0-4)")
    args = parser.parse_args()
    other = args.against.resolve()
    if not (other / "src" / "streamlora").is_dir():
        parser.error(f"{other} has no src/streamlora")
    runs = [(seed, variant) for seed in parse_seeds(args.seeds) for variant in VARIANTS]

    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "this", Path(tmp) / "other"
        procs = [start_runs(ROOT, ours, runs), start_runs(other, theirs, runs)]
        if [proc.wait() for proc in procs] != [0, 0]:
            print("a streamlora command failed; see its message above", file=sys.stderr)
            return 1
        found = 0
        for seed, variant in runs:
            names = {"": run_name(seed, variant), " metrics": metrics_name(seed, variant)}
            if variant in ROUTED:
                names.update({f" {diag}": diag_name(seed, variant, diag) for diag in DIAGS})
            for command, name in names.items():
                for artifact, lines in differences(ours / name, theirs / name).items():
                    for line in lines:
                        print(f"seed {seed} variant {variant}{command}: {artifact}: {line}")
                    found += 1
        for name in GRADCHECKS:
            if (ours / f"{name}.txt").read_bytes() != (theirs / f"{name}.txt").read_bytes():
                print(f"{name}: stdout differs")
                found += 1
            rows = [(ours / f"{name}.txt.rows").read_text().splitlines(),
                    (theirs / f"{name}.txt.rows").read_text().splitlines()]
            if rows[0] != rows[1]:
                differing = sum(a != b for a, b in zip(*rows)) + abs(len(rows[0]) - len(rows[1]))
                print(f"{name}: {differing} of {max(map(len, rows))} rows differ at full precision")
                found += 1
    n_diags = len(DIAGS) * sum(variant in ROUTED for _, variant in runs)
    print(f"{len(runs)} runs, {len(runs)} metrics, {n_diags} diags and {len(GRADCHECKS)} gradchecks per tree, "
          f"{found} artifacts differ (runlog.json compared without wall_seconds)")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
