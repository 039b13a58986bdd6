"""Command-line entry points.

Subcommands: train (one streaming run), ablate (all stage-toggle variants
on one stream), metrics (rebuild the full ledger from dumped accuracies),
diag (routing homogeneity report from a trace file), gradcheck
(finite-difference audit of every trainable parameter).

An input error (a bad config value, an unreadable row or trace line, a
file that cannot be opened or written) prints `streamlora: <message>` to
stderr and exits with status 2; a training run that diverges prints one
such line, naming the chunk, the batch and the dump file, and exits 1.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import io
import sys
from dataclasses import replace
from pathlib import Path

from .autograd import atomic_open
from .metrics import MetricLedger, homogeneity_report, read_traces
from .trainer import (
    RunConfig,
    TrainingDiverged,
    apply_variant,
    audit_config,
    gradient_audit,
    load_config,
    parse_config_text,
    run_ablation_suite,
    run_stream,
)


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    parser.add_argument("--seed", type=int, help="model initialization seed")
    parser.add_argument("--stream-seed", type=int, dest="stream_seed",
                        help="stream content seed (defaults to --seed)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        dest="overrides", help="override a single config key; repeatable")


def _build_config(args: argparse.Namespace) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    if args.overrides:
        config = parse_config_text("\n".join(args.overrides), base=config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.stream_seed is not None:
        config = replace(config, stream_seed=args.stream_seed)
    if getattr(args, "variant", None):
        config = apply_variant(config, args.variant)
    return config


def _cmd_train(args: argparse.Namespace) -> int:
    config = _build_config(args)
    result = run_stream(config, out_dir=args.out)
    map_t, maf_t = result.summary()
    print(f"chunks: {config.n_chunks}  optimizer steps: {result.optimizer.step_count}")
    print(f"final MAP: {map_t:.4f}  final MAF: {maf_t:.4f}")
    if args.out:
        print(f"artifacts in {args.out}: metrics.csv traces.jsonl checkpoint.bin manifest.json runlog.json")
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    config = _build_config(args)
    rows = run_ablation_suite(config, out_dir=args.out)
    print(f"{'variant':<16} {'p':<6} {'s':<6} {'reg':<6} {'MAP':>8} {'MAF':>8}")
    for row in rows:
        print(
            f"{row['variant']:<16} {str(row['use_selection']):<6} "
            f"{str(row['use_token_weighting']):<6} {str(row['use_reg']):<6} "
            f"{row['MAP']:>8.4f} {row['MAF']:>8.4f}"
        )
    if args.out:
        print(f"table written to {Path(args.out) / 'ablation.csv'}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    text = MetricLedger.read_csv(args.input).to_csv()
    if args.out:
        with atomic_open(args.out) as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_diag(args: argparse.Namespace) -> int:
    traces = read_traces(args.traces, args.chunk)
    where = args.traces if args.chunk is None else f"{args.traces} --chunk {args.chunk}"
    try:
        report = homogeneity_report(traces)
        mean_cka = report.mean_off_diagonal()
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None

    matrix = io.StringIO()
    writer = csv.writer(matrix, lineterminator="\n")
    writer.writerow(["task"] + [str(m) for m in report.task_ids])
    for m, row in zip(report.task_ids, report.cka_matrix):
        writer.writerow([str(m)] + [repr(float(v)) for v in row])

    activation = io.StringIO()
    writer = csv.writer(activation, lineterminator="\n")
    writer.writerow(["site", "task", "expert", "share"])
    for site in sorted(report.activation):
        for m, shares in zip(report.task_ids, report.activation[site]):
            for j, share in enumerate(shares):
                writer.writerow([site, str(m), str(j), repr(float(share))])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, table in (("cka_matrix.csv", matrix), ("activation.csv", activation)):
        with atomic_open(out / name) as fh:
            fh.write(table.getvalue())
    print(f"tasks: {list(report.task_ids)}")
    print(f"mean off-diagonal CKA: {mean_cka:.4f}")
    print(f"wrote {out / 'cka_matrix.csv'} and {out / 'activation.csv'}")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    # an unset flag is absent from `args`, so gradient_audit's default holds
    given = {k: v for k, v in vars(args).items() if k in ("n_samples", "epsilon", "rtol", "seed")}
    ok, rows = gradient_audit(audit_config(), **given)
    print(f"{'parameter':<40} {'max abs err':>12} {'max rel err':>12}  status")
    for row in rows:
        status = "ok" if row.ok else "FAIL"
        print(f"{row.path:<40} {row.max_abs_err:>12.3e} {row.max_rel_err:>12.3e}  {status}")
    print(f"{len(rows)} parameters checked; " + ("all within tolerance" if ok else "MISMATCH"))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamlora",
        description="Routed low-rank adapters on single-pass synthetic task streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="single-pass training over the default stream")
    _add_config_options(p)
    p.add_argument("--variant", metavar="NAME",
                   help="full | uniform_moe | shared_lora | frozen | comma list of p,s,reg")
    p.add_argument("--out", metavar="DIR", help="artifact directory (metrics, traces, checkpoint)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("ablate", help="run every stage-toggle variant on one stream")
    _add_config_options(p)
    p.add_argument("--out", metavar="DIR", help="directory for per-variant artifacts + ablation.csv")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("metrics", help="rebuild forgetting metrics from dumped accuracies")
    p.add_argument("--input", required=True, metavar="CSV", help="per-chunk task accuracies, or a metrics.csv")
    p.add_argument("--out", metavar="CSV", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("diag", help="routing homogeneity report from a trace file")
    p.add_argument("--traces", required=True, metavar="JSONL")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--chunk", type=int, help="restrict to one trace chunk index (default: all)")
    p.set_defaults(func=_cmd_diag)

    p = sub.add_parser("gradcheck", help="finite-difference audit of all trainable gradients",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--samples", type=int, dest="n_samples", metavar="SAMPLES")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--rtol", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def _hold_freed_memory() -> None:
    """Keep glibc from handing freed array memory back to the kernel.

    Most arrays of a run are 160-490 KB; by default glibc maps each such
    block on its own or trims the heap top once it is freed, so the next
    array of that size faults in fresh zeroed pages (about 70,000 minor
    faults per `gradcheck`). Serving blocks up to 32 MiB (glibc's ceiling
    on 64-bit) from the heap and trimming only past 64 MiB free keeps them
    for reuse; both are set, as setting either stops glibc's own dynamic
    threshold. A no-op where libc has no `mallopt`.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)       # M_TRIM_THRESHOLD


def main(argv: list[str] | None = None) -> int:
    _hold_freed_memory()        # the command owns its process; library callers keep libc's policy
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TrainingDiverged, ValueError, OSError) as exc:
        print(f"streamlora: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, TrainingDiverged) else 2    # a failed run, not an input error


if __name__ == "__main__":
    raise SystemExit(main())
