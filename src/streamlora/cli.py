"""Command-line entry points.

Subcommands: compose-stream (materialize a stream to disk), train (one
streaming run), ablate (all stage-toggle variants on one stream), metrics
(rebuild the full ledger from dumped accuracies), diag (routing homogeneity
report from a trace file), gradcheck (finite-difference audit of every
trainable parameter).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

from .metrics import MetricLedger, homogeneity_report
from .stream import write_stream
from .trainer import (
    RunConfig,
    apply_variant,
    audit_config,
    build_stream,
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


def _cmd_compose_stream(args: argparse.Namespace) -> int:
    specs, schedule = build_stream(_build_config(args))
    manifest_path = write_stream(args.out, schedule, specs)
    print(f"wrote {schedule.n_chunks} chunks of {schedule.chunk_size} samples to {args.out}")
    print(f"manifest: {manifest_path}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = _build_config(args)
    result = run_stream(config, out_dir=args.out)
    map_t, maf_t = result.summary()
    print(f"chunks: {config.n_chunks}  optimizer steps: {result.runlog.optimizer_steps}")
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


def _read_accuracy_rows(path: str) -> list[tuple[int, int, float]]:
    """Accept either a bare t,m,a dump or a full metrics.csv.

    Summary rows (empty m) and extra columns are ignored, so the command
    can re-digest its own output.
    """
    rows: list[tuple[int, int, float]] = []
    with open(path, newline="") as fh:
        for record in csv.reader(fh):
            if not record or not record[0].strip():
                continue
            first = record[0].strip()
            if not first.lstrip("-").isdigit():
                continue  # header line
            if len(record) < 3 or not record[1].strip():
                continue  # per-chunk summary row
            rows.append((int(first), int(record[1]), float(record[2])))
    if not rows:
        raise ValueError(f"no (t, m, a) rows found in {path}")
    return rows


def _cmd_metrics(args: argparse.Namespace) -> int:
    ledger = MetricLedger.from_accuracy_rows(_read_accuracy_rows(args.input))
    text = ledger.to_csv()
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_diag(args: argparse.Namespace) -> int:
    traces = []
    with open(args.traces) as fh:
        for line in fh:
            line = line.strip()
            if line:
                traces.append(json.loads(line))
    if args.chunk is not None:
        traces = [rec for rec in traces if rec["chunk"] == args.chunk]
    report = homogeneity_report(traces)

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
    (out / "cka_matrix.csv").write_text(matrix.getvalue())
    (out / "activation.csv").write_text(activation.getvalue())
    print(f"tasks: {list(report.task_ids)}")
    print(f"mean off-diagonal CKA: {report.mean_off_diagonal():.4f}")
    print(f"wrote {out / 'cka_matrix.csv'} and {out / 'activation.csv'}")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    config = audit_config()
    ok, rows = gradient_audit(
        config,
        n_samples=args.samples,
        epsilon=args.epsilon,
        rtol=args.rtol,
        seed=args.seed,
    )
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

    p = sub.add_parser("compose-stream", help="materialize stream chunks, test sets, and manifest")
    _add_config_options(p)
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=_cmd_compose_stream)

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
    p.add_argument("--input", required=True, metavar="CSV", help="rows of t,m,a (metrics.csv also accepted)")
    p.add_argument("--out", metavar="CSV", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("diag", help="routing homogeneity report from a trace file")
    p.add_argument("--traces", required=True, metavar="JSONL")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--chunk", type=int, help="restrict to one trace chunk index (default: all)")
    p.set_defaults(func=_cmd_diag)

    p = sub.add_parser("gradcheck", help="finite-difference audit of all trainable gradients")
    p.add_argument("--samples", type=int, default=3)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--rtol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
