"""List the statements of the package that no command-line run executes.

Runs every `streamlora` subcommand in this process under `sys.settrace`:
`train` for each of the eight variants (with a config file, seeds and an
override, so the option handling runs too), `ablate`, `gradcheck`,
`metrics` (to a file and to stdout) and `diag` (whole file, and one chunk
of a file with a blank line), all at their default sizes. Then it prints
each statement of `src/streamlora` that none of them ran, as
`file:line: source`. Error paths are skipped: `raise` statements, the
blocks that end in one, and `except` clauses. What it prints is code that
no command runs: the tests run it, the benchmark's output check runs it
(`perfbench/check.py` loads each `full_default` checkpoint through
`ParamStore.load` and `load_checkpoint`, and reads parameters by path),
or nothing runs it at all.

Run from the repository root (about 30 seconds on a 2-vCPU host):

    PYTHONPATH=src python3 tests/product_lines.py

pytest does not collect it: the file name does not start with `test_`.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "streamlora"
VARIANTS = ("full", "uniform_moe", "shared_lora", "frozen", "p", "s", "s,reg", "p,s")


def commands(tmp: Path) -> list:
    """The argument lists to run, in order, and the files to write between them."""
    config = tmp / "run.cfg"
    config.write_text("# the defaults, spelled out\nn_chunks = 12\n")
    runs = [["train", "--config", str(config), "--seed", "0", "--stream-seed", "0",
             "--set", "trace_interval=5", "--variant", variant, "--out", str(tmp / variant)]
            for variant in VARIANTS]
    full = tmp / "full"
    spaced = tmp / "spaced.jsonl"          # written once the full run has made traces.jsonl
    return runs + [
        ["ablate", "--out", str(tmp / "ablate")],
        ["gradcheck"],
        ["metrics", "--input", str(full / "metrics.csv"), "--out", str(tmp / "metrics.csv")],
        ["metrics", "--input", str(full / "metrics.csv")],
        ["diag", "--traces", str(full / "traces.jsonl"), "--out", str(tmp / "diag")],
        lambda: spaced.write_text((full / "traces.jsonl").read_text() + "\n"),
        ["diag", "--traces", str(spaced), "--chunk", "13", "--out", str(tmp / "diag")],
    ]


def run_traced(argv_list) -> set[tuple[str, int]]:
    """(file, line) of every package line the commands execute, the
    package's own import included."""
    executed: set[tuple[str, int]] = set()
    root = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        if frame.f_code.co_filename.startswith(root):
            return local
        return None

    sys.settrace(on_call)
    try:
        from streamlora.cli import main
        for argv in argv_list:
            if callable(argv):
                argv()
                continue
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                raise SystemExit(f"streamlora {' '.join(argv)} exited {code}")
    finally:
        sys.settrace(None)
    return executed


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _header_lines(stmt: ast.stmt) -> range:
    """The lines of a statement up to its first nested statement."""
    nested = [child.lineno for field in ("body", "orelse", "handlers", "finalbody")
              for child in getattr(stmt, field, []) or []]
    first = min(nested) if nested else stmt.end_lineno + 1
    start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    return range(start, max(first, stmt.lineno + 1))


def _error_paths(tree: ast.AST) -> set[int]:
    """ids of the statements only an error reaches: `raise` statements,
    every statement of a block that ends in one, and `except` clauses."""
    blocks = []
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if isinstance(block, list) and block and isinstance(block[-1], ast.stmt):
                if isinstance(node, ast.ExceptHandler) or isinstance(block[-1], ast.Raise):
                    blocks.append(block)
    return {id(node) for block in blocks for stmt in block for node in ast.walk(stmt)}


def unrun_statements(executed: set[tuple[str, int]]) -> list[str]:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        runnable = _code_lines(compile(source, str(path), "exec"))
        ran = {line for name, line in executed if name == str(path)}
        tree = ast.parse(source)
        errors = _error_paths(tree)
        for stmt in ast.walk(tree):
            if not isinstance(stmt, ast.stmt) or isinstance(stmt, ast.Raise) or id(stmt) in errors:
                continue
            header = set(_header_lines(stmt)) & runnable
            if header and not header & ran:
                out.append(f"{path.name}:{stmt.lineno}: {lines[stmt.lineno - 1].strip()}")
    return sorted(out, key=lambda entry: (entry.split(":")[0], int(entry.split(":")[1])))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        executed = run_traced(commands(Path(tmp)))
    unrun = unrun_statements(executed)
    for entry in unrun:
        print(entry)
    print(f"{len(unrun)} statements of src/streamlora no command runs (error paths not counted)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
