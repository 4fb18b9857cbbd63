"""Command-line interface: ``python -m repro.cli <command>``.

Exposes the paper's workflows as commands:

- ``characterize`` — Section 4.1 statistics for one or more variables;
- ``verify``       — run the four acceptance tests for a codec variant;
- ``hybrid``       — build the per-variable hybrid plan for a family;
- ``table``        — regenerate one of the paper's tables (1-8);
- ``variants``     — list the registered codec variants;
- ``lint``         — run the repro.check numeric-safety static analyzer;
- ``stats``        — run a small traced PVT workload (or aggregate an
  existing JSONL trace) and print the per-stage observability table;
- ``report``       — the full per-run observability report (top spans,
  counters, store hit rates, memory peaks; ``docs/observability.md``);
- ``bench``        — inspect benchmark perf records and run the
  regression gate (``ls`` / ``show`` / ``compare``,
  see ``docs/benchmarks.md``);
- ``store``        — inspect or trim the artifact cache (``ls`` /
  ``info`` / ``gc`` / ``clear``, see ``docs/caching.md``);
- ``stream``       — run the chunked out-of-core compression pipeline
  over synthetic, ensemble, or NCH-file data (``docs/streaming.md``);
- ``serve``        — run the verification job daemon
  (``docs/serving.md``);
- ``submit``       — send one job to a running daemon and (by default)
  wait for its result;
- ``jobs``         — list, inspect, or cancel jobs on a running daemon;
- ``top``          — poll a daemon's ``metrics`` op and render a live
  telemetry dashboard (jobs/s, p95 wait, cache hit rate), with
  optional ``--slo`` gating for scripts and CI.

Scale flags (``--ne``, ``--nlev``, ``--members``) mirror the ``REPRO_*``
environment knobs; ``--store PATH`` activates the artifact cache for one
invocation the way ``REPRO_STORE=PATH`` does persistently.
"""

from __future__ import annotations

import argparse
import sys

from repro.config import ReproConfig, bench_scale, env_str

__all__ = ["main", "build_parser"]


def _config_from_args(args) -> ReproConfig:
    base = bench_scale()
    return base.with_scale(ne=args.ne, nlev=args.nlev,
                           n_members=args.members)


def _add_scale_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ne", type=int, default=None,
                        help="cubed-sphere resolution (paper: 30)")
    parser.add_argument("--nlev", type=int, default=None,
                        help="vertical levels (paper: 30)")
    parser.add_argument("--members", type=int, default=None,
                        help="ensemble size (paper: 101)")
    _add_store_flag(parser)


def _add_store_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="artifact-cache directory (default: "
                             "$REPRO_STORE; unset disables caching)")


def _activate_store(args) -> None:
    """Install the ``--store`` override before any pipeline work runs."""
    path = getattr(args, "store", None)
    if path:
        from repro import store

        store.set_store(store.ArtifactStore(path))


def _add_exec_flags(parser: argparse.ArgumentParser,
                    workers_default: int | None = None) -> None:
    """Execution-policy flags shared by the run-style commands."""
    if workers_default is not None:
        parser.add_argument("--workers", type=int, default=workers_default,
                            help="parallel workers (capped by "
                                 "$REPRO_WORKERS; <=1 runs inline)")
    parser.add_argument("--backend", choices=["serial", "thread", "process"],
                        default=None,
                        help="execution backend (default: $REPRO_BACKEND "
                             "or process)")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="retry each failed task up to N times with "
                             "exponential backoff (default: $REPRO_RETRIES "
                             "or 0)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-task deadline; a timed-out worker is "
                             "killed and the task retried or recorded as "
                             "a failure (default: $REPRO_TASK_TIMEOUT)")


def _activate_exec(args) -> None:
    """Install the ``--backend/--retries/--task-timeout`` policy override."""
    backend = getattr(args, "backend", None)
    retries = getattr(args, "retries", None)
    task_timeout = getattr(args, "task_timeout", None)
    if backend is not None or retries is not None or task_timeout is not None:
        from repro import parallel

        parallel.configure(backend=backend, retries=retries,
                           task_timeout=task_timeout)


def _docs(page: str) -> str:
    """The epilog every subcommand carries: where its docs live."""
    return f"Full documentation: {page}"


def _add_serve_address_flags(parser: argparse.ArgumentParser) -> None:
    """How to reach (or bind) the daemon; defaults come from the env."""
    parser.add_argument("--host", default=None,
                        help="daemon TCP host (default: $REPRO_SERVE_HOST "
                             "or 127.0.0.1)")
    parser.add_argument("--port", type=int, default=None,
                        help="daemon TCP port (default: $REPRO_SERVE_PORT; "
                             "0 binds an ephemeral port)")
    parser.add_argument("--socket", default=None, metavar="PATH",
                        help="Unix-domain socket path (default: "
                             "$REPRO_SERVE_SOCKET; overrides host/port)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Baker et al. (HPDC 2014): verifying "
                    "lossy compression of climate simulation data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize",
                       help="Section 4.1 statistics (Table 2 rows)",
                       epilog=_docs("docs/architecture.md"))
    p.add_argument("variables", nargs="*", default=[],
                   help="variable names (default: the featured four)")
    _add_scale_flags(p)

    p = sub.add_parser("verify",
                       help="run the four acceptance tests for a variant",
                       epilog=_docs("docs/architecture.md"))
    p.add_argument("variant", help="codec label, e.g. fpzip-24 or APAX-4")
    p.add_argument("variables", nargs="*", default=[],
                   help="variable names (default: the featured four)")
    p.add_argument("--no-bias", action="store_true",
                   help="skip the whole-ensemble bias test")
    _add_scale_flags(p)
    _add_exec_flags(p, workers_default=0)

    p = sub.add_parser("hybrid",
                       help="build a per-variable hybrid plan (Section 5.4)",
                       epilog=_docs("docs/architecture.md"))
    p.add_argument("family", choices=["GRIB2", "ISABELA", "fpzip", "APAX",
                                      "SZ", "BitRound", "SZ+BR",
                                      "NetCDF-4"])
    p.add_argument("--extended-apax", action="store_true",
                   help="include APAX rates 6 and 7")
    p.add_argument("--no-bias", action="store_true")
    _add_scale_flags(p)

    p = sub.add_parser("table", help="regenerate a paper table",
                       epilog=_docs("docs/architecture.md"))
    p.add_argument("number", type=int, choices=range(1, 9))
    p.add_argument("--no-bias", action="store_true")
    p.add_argument("--modern", action="store_true",
                   help="tables 7/8: include the SZ, BitRound, and SZ+BR "
                        "hybrids")
    _add_scale_flags(p)
    _add_exec_flags(p, workers_default=0)

    p = sub.add_parser(
        "summary",
        help="run the trusted ensemble and write its PVT summary file",
        epilog=_docs("docs/architecture.md"),
    )
    p.add_argument("output", help="output .nch summary path")
    p.add_argument("variables", nargs="*", default=[],
                   help="variables to summarize (default: all)")
    _add_scale_flags(p)

    p = sub.add_parser(
        "check",
        help="verify history files against a stored PVT summary",
        epilog=_docs("docs/architecture.md"),
    )
    p.add_argument("summary", help="summary file from `repro summary`")
    p.add_argument("history", nargs="+", help="NCH history files to check")
    p.add_argument("--variables", nargs="*", default=None)
    p.add_argument("--mean-tolerance", type=float, default=1.0,
                   help="stretch factor on the global-mean range")

    p = sub.add_parser("variants", help="list registered codec variants",
                       epilog=_docs("docs/compressors.md"))
    p.add_argument("--properties", action="store_true",
                   help="add each codec's Table 1 row (lossless mode, "
                        "special values, quality/rate, 64-bit)")

    p = sub.add_parser(
        "lint",
        help="run the repro.check static analyzer (REP001..REP019)",
        epilog=_docs("docs/static-analysis.md"),
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--select", default=None,
                   help="comma-separated rule IDs to run (default: all)")
    p.add_argument("--deep", action="store_true",
                   help="also run the whole-program flow rules "
                        "(REP013..REP017, docs/static-analysis.md)")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="accepted-findings baseline (default: "
                        "discovered .repro-lint-baseline.json)")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore any baseline file")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite the baseline from current findings")

    p = sub.add_parser(
        "stats",
        help="run a small traced PVT workload and print per-stage "
             "timings (see docs/observability.md)",
        epilog=_docs("docs/observability.md"),
    )
    p.add_argument("variant", nargs="?", default="fpzip-24",
                   help="codec label to verify (default: fpzip-24)")
    p.add_argument("variables", nargs="*", default=[],
                   help="variable names (default: the featured four)")
    p.add_argument("--bias", action="store_true",
                   help="include the whole-ensemble bias test (slow)")
    p.add_argument("--workers", type=int, default=2,
                   help="process-pool width for the traced run (default 2;"
                        " 0 keeps the run serial)")
    p.add_argument("--from-jsonl", default=None, metavar="TRACE",
                   help="aggregate an existing REPRO_TRACE_JSONL file "
                        "instead of running a workload")
    p.add_argument("--sort", choices=["stage", "time", "count", "bytes"],
                   default="stage",
                   help="row order: stage name (default) or descending "
                        "time/count/bytes")
    p.add_argument("--top", type=int, default=None, metavar="N",
                   help="keep only the first N rows after sorting")
    p.add_argument("--filter", default=None, metavar="GLOB",
                   help="keep only span stages whose name matches the "
                        "glob (e.g. 'serve.*' or '*compress*')")
    p.add_argument("--trace", default=None, metavar="ID",
                   help="with --from-jsonl: render one trace's span "
                        "tree (a unique trace-id prefix is enough; "
                        "'ls' lists the traces in the file)")
    _add_scale_flags(p)
    _add_exec_flags(p)

    p = sub.add_parser(
        "report",
        help="per-run observability report: top stages, counters, "
             "store hit rates, memory peaks (docs/observability.md)",
        epilog=_docs("docs/observability.md"),
    )
    p.add_argument("variant", nargs="?", default="fpzip-24",
                   help="codec label to verify (default: fpzip-24)")
    p.add_argument("variables", nargs="*", default=[],
                   help="variable names (default: the featured four)")
    p.add_argument("--bias", action="store_true",
                   help="include the whole-ensemble bias test (slow)")
    p.add_argument("--workers", type=int, default=2,
                   help="process-pool width for the traced run (default 2;"
                        " 0 keeps the run serial)")
    p.add_argument("--from-jsonl", default=None, metavar="TRACE",
                   help="report over an existing REPRO_TRACE_JSONL file "
                        "instead of running a workload")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="rows per report section (default: 10)")
    p.add_argument("--mem", action="store_true",
                   help="profile memory during the traced run (as "
                        "REPRO_TRACE_MEM=1 would)")
    _add_scale_flags(p)
    _add_exec_flags(p)

    p = sub.add_parser(
        "bench",
        help="benchmark perf records: list, show, or gate against "
             "baselines (docs/benchmarks.md)",
        epilog=_docs("docs/benchmarks.md"),
    )
    p.add_argument("action", choices=["ls", "show", "compare"])
    p.add_argument("name", nargs="?", default=None,
                   help="benchmark name or record path (for show)")
    p.add_argument("--dir", default=None, metavar="PATH",
                   help="directory holding BENCH_*.json records "
                        "(default: $REPRO_BENCH_DIR, else the current "
                        "directory)")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="baseline record file or directory (default: "
                        "benchmarks/baselines/ under the record dir)")
    p.add_argument("--threshold", type=float, default=20.0,
                   metavar="PCT",
                   help="default regression threshold in percent for "
                        "metrics without their own (default: 20)")

    p = sub.add_parser(
        "store",
        help="inspect or trim the artifact cache (docs/caching.md)",
        epilog=_docs("docs/caching.md"),
    )
    p.add_argument("action", choices=["ls", "info", "gc", "clear"])
    p.add_argument("key", nargs="?", default=None,
                   help="artifact key or unique prefix (for info)")
    p.add_argument("--max-mb", type=float, default=None,
                   help="gc: evict LRU artifacts down to this size")
    _add_store_flag(p)

    p = sub.add_parser(
        "stream",
        help="run the chunked out-of-core compression pipeline "
             "(docs/streaming.md)",
        epilog=_docs("docs/streaming.md"),
    )
    p.add_argument("variants", nargs="*", default=[],
                   help="codec variants to round-trip "
                        "(default: fpzip-24)")
    p.add_argument("--mb", type=float, default=64.0,
                   help="synthetic stream size in MiB (default: 64; "
                        "the stream is generated chunk by chunk, so any "
                        "size fits in memory)")
    p.add_argument("--chunk-mb", type=float, default=None,
                   help="block size in MiB (default: "
                        "$REPRO_STREAM_CHUNK_MB or 8)")
    p.add_argument("--fill-fraction", type=float, default=0.0,
                   help="fraction of synthetic points set to the CESM "
                        "fill value (default: 0)")
    p.add_argument("--file", default=None, metavar="NCH",
                   help="stream a variable from an NCH file instead of "
                        "synthetic data (needs --variable)")
    p.add_argument("--variable", default=None, metavar="NAME",
                   help="with --file: the variable to stream; alone: "
                        "stream this variable's field from the "
                        "bench-scale ensemble")
    p.add_argument("--workers", type=int, default=0,
                   help="round-trip chunks in worker processes over the "
                        "shared-memory transport (<=1: serial, strictly "
                        "bounded RSS)")
    _add_scale_flags(p)

    p = sub.add_parser(
        "serve",
        help="run the verification job daemon (docs/serving.md)",
        epilog=_docs("docs/serving.md"),
    )
    _add_serve_address_flags(p)
    p.add_argument("--workers", type=int, default=None,
                   help="manager worker threads, i.e. jobs in flight "
                        "(default: $REPRO_SERVE_WORKERS or 2)")
    p.add_argument("--queue", type=int, default=None, metavar="N",
                   help="pending-job queue depth before submits are "
                        "rejected busy (default: $REPRO_SERVE_QUEUE or 64)")
    p.add_argument("--retry-after", type=float, default=None,
                   metavar="SECONDS",
                   help="retry hint sent with busy rejections (default: "
                        "$REPRO_SERVE_RETRY_AFTER or 1.0)")
    _add_store_flag(p)
    _add_exec_flags(p)

    p = sub.add_parser(
        "submit",
        help="send one job to a running daemon (docs/serving.md)",
        epilog=_docs("docs/serving.md"),
    )
    p.add_argument("kind",
                   help="job kind: compress, verify, or hybrid-plan")
    p.add_argument("params", nargs="*", metavar="key=value",
                   help="job parameters; values parse as JSON when they "
                        "can (members=5), else as strings (variant=fpzip-24)")
    p.add_argument("--priority", type=int, default=0,
                   help="queue priority; smaller runs first (default 0)")
    p.add_argument("--no-wait", action="store_true",
                   help="print the job id and return instead of waiting "
                        "for the result")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="give up waiting for the result after this long")
    _add_serve_address_flags(p)

    p = sub.add_parser(
        "jobs",
        help="list, inspect, or cancel daemon jobs (docs/serving.md)",
        epilog=_docs("docs/serving.md"),
    )
    p.add_argument("id", nargs="?", default=None,
                   help="job id: show that job's full snapshot instead "
                        "of the listing")
    p.add_argument("--cancel", default=None, metavar="ID",
                   help="request cancellation of the given job id")
    _add_serve_address_flags(p)

    p = sub.add_parser(
        "top",
        help="live telemetry dashboard for a running daemon "
             "(docs/serving.md)",
        epilog=_docs("docs/serving.md"),
    )
    _add_serve_address_flags(p)
    p.add_argument("--interval", type=float, default=2.0,
                   metavar="SECONDS",
                   help="seconds between polls (default: 2)")
    p.add_argument("--iterations", type=int, default=None, metavar="N",
                   help="stop after N polls (default: run until "
                        "interrupted)")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit (no screen "
                        "refresh; scripting-friendly)")
    p.add_argument("--raw", action="store_true",
                   help="print the raw Prometheus exposition text "
                        "once and exit")
    p.add_argument("--slo", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="exit 1 when the final snapshot breaches an "
                        "objective; NAME is one of p50_wait_ms, "
                        "p95_wait_ms, p99_wait_ms, p95_run_ms, "
                        "queue_depth (repeatable)")
    return parser


def _featured_or(names, ctx) -> list[str]:
    return list(names) if names else list(ctx.featured)


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    _activate_store(args)
    _activate_exec(args)

    if args.command == "lint":
        from repro.check.__main__ import main as check_main

        lint_args = ["lint", *args.paths, "--format", args.format]
        if args.select:
            lint_args += ["--select", args.select]
        if args.deep:
            lint_args.append("--deep")
        if args.baseline:
            lint_args += ["--baseline", args.baseline]
        if args.no_baseline:
            lint_args.append("--no-baseline")
        if args.update_baseline:
            lint_args.append("--update-baseline")
        return check_main(lint_args)

    if args.command == "variants":
        from repro.compressors import get_variant, variant_names

        for name in variant_names():
            props = get_variant(name).properties()
            line = f"{name:18s} {props.name}"
            if args.properties:
                flags = (
                    ("lossless", props.lossless_mode),
                    ("special-values", props.special_values),
                    ("fixed-quality", props.fixed_quality),
                    ("fixed-cr", props.fixed_cr),
                    ("64-bit", props.bits_32_and_64),
                )
                line += "  " + " ".join(
                    f"{label}={'y' if on else 'n'}" for label, on in flags
                )
            print(line)
        return 0

    from repro.harness.report import render_table

    if args.command == "store":
        return _store_command(args, render_table)

    if args.command == "stats":
        if args.trace is not None:
            return _trace_command(args)
        agg, title = _traced_aggregator(args)
        headers, rows = agg.table(sort=args.sort, top=args.top,
                                  name_filter=args.filter)
        print(render_table(headers, rows, title=title, precision=4))
        m_headers, m_rows = agg.metrics_table()
        if m_rows:
            print()
            print(render_table(m_headers, m_rows,
                               title="Counters and gauges", precision=4))
        for env in ("REPRO_TRACE_JSONL", "REPRO_TRACE_CHROME"):
            path = env_str(env)
            if path:
                print(f"\n{env}: trace written to {path}")
        return 0

    if args.command == "report":
        from repro.obs.report import render_report

        agg, title = _traced_aggregator(args, mem=args.mem)
        print(render_report(agg, top=args.top, title=title))
        return 0

    if args.command == "bench":
        return _bench_command(args, render_table)

    if args.command == "stream":
        return _stream_command(args, render_table)

    if args.command == "serve":
        return _serve_command(args)

    if args.command == "submit":
        return _submit_command(args)

    if args.command == "jobs":
        return _jobs_command(args, render_table)

    if args.command == "top":
        return _top_command(args, render_table)

    if args.command == "check":
        from repro.ncio.format import HistoryFile
        from repro.pvt.summary import EnsembleSummary

        summary = EnsembleSummary.read(args.summary)
        names = args.variables or list(summary.variables)
        rows = []
        all_ok = True
        for hist_path in args.history:
            with HistoryFile(hist_path) as fh:
                for name in names:
                    # Streamed chunk by chunk: a history file bigger
                    # than RAM verifies in block-sized memory.
                    verdict = summary.variables[name].verify_stream(
                        fh.iter_chunks(name),
                        mean_tolerance_factor=args.mean_tolerance,
                    )
                    all_ok &= verdict["passed"]
                    rows.append([hist_path, name, verdict["rmsz"],
                                 verdict["rmsz_ok"], verdict["mean_ok"],
                                 verdict["passed"]])
        print(render_table(
            ["history file", "variable", "RMSZ", "rmsz ok", "mean ok",
             "PASS"],
            rows, title=f"PVT check against {args.summary}",
        ))
        return 0 if all_ok else 1

    from repro.harness.experiments import ExperimentContext

    ctx = ExperimentContext.create(_config_from_args(args))

    if args.command == "characterize":
        from repro.metrics.characterize import characterize

        rows = []
        for name in _featured_or(args.variables, ctx):
            c = characterize(ctx.member_field(name))
            rows.append([name, c.x_min, c.x_max, c.mean, c.std,
                         c.lossless_cr])
        print(render_table(
            ["variable", "min", "max", "mean", "std", "lossless CR"],
            rows, title="Data characteristics (Section 4.1)",
        ))
        return 0

    if args.command == "verify":
        from repro.compressors import get_variant

        try:
            codec = get_variant(args.variant)
        except KeyError as exc:
            print(exc.args[0])
            return 2
        report = ctx.pvt.evaluate_codec(
            codec, variables=_featured_or(args.variables, ctx),
            run_bias=not args.no_bias, workers=args.workers,
        )
        rows = [
            [v.variable, v.rho.passed, v.rmsz.passed, v.enmax.passed,
             v.bias.passed if v.bias else None, v.all_passed, v.mean_cr]
            for v in report.verdicts.values()
        ]
        print(render_table(
            ["variable", "rho", "RMSZ", "E_nmax", "bias", "ALL", "CR"],
            rows, title=f"Acceptance tests for {args.variant} "
                        f"(members {ctx.test_members.tolist()})",
        ))
        if report.failures:
            print(f"\n{len(report.failures)} variable(s) failed to "
                  "evaluate (partial result):")
            for name, failure in sorted(report.failures.items()):
                print(f"  {name}: {failure}")
            return 1
        return 0 if all(v.all_passed for v in report.verdicts.values()) else 1

    if args.command == "hybrid":
        from repro.hybrid.selector import build_hybrid

        result = build_hybrid(
            ctx.ensemble, args.family, run_bias=not args.no_bias,
            extended_apax=args.extended_apax,
        )
        s = result.summary()
        print(render_table(
            ["variable", "variant", "CR", "rho", "nrmse", "e_nmax"],
            [[c.variable, c.variant, c.cr, c.rho, c.nrmse, c.e_nmax]
             for c in result.choices.values()],
            title=f"Hybrid {args.family}: avg CR {s['avg_cr']:.3f} "
                  f"(total {s['total_cr']:.3f}, best {s['best_cr']:.3f}, "
                  f"worst {s['worst_cr']:.3f})",
        ))
        return 0

    if args.command == "summary":
        from repro.pvt.summary import EnsembleSummary

        names = list(args.variables) or None
        summary = EnsembleSummary.from_ensemble(ctx.ensemble,
                                                variables=names)
        path = summary.write(args.output)
        print(f"wrote PVT summary for {len(summary.variables)} variables "
              f"({summary.n_members} members) to {path}")
        return 0

    if args.command == "table":
        from repro.harness import tables as t

        n = args.number
        if n == 1:
            headers, rows = t.table1_properties()
        elif n == 2:
            headers, rows = t.table2_characteristics(ctx)
        elif n == 3:
            headers, rows = t.table3_nrmse(ctx)
        elif n == 4:
            headers, rows = t.table4_enmax(ctx)
        elif n == 5:
            headers, rows = t.table5_timings(ctx)
        elif n == 6:
            headers, rows = t.table6_passes(ctx,
                                            run_bias=not args.no_bias,
                                            workers=args.workers)
        elif n == 7:
            headers, rows, _ = t.table7_hybrid_summary(
                ctx, run_bias=not args.no_bias,
                include_modern=args.modern,
            )
        else:
            _, _, hybrids = t.table7_hybrid_summary(
                ctx, run_bias=not args.no_bias,
                include_modern=args.modern,
            )
            headers, rows = t.table8_hybrid_composition(hybrids)
        print(render_table(headers, rows, title=f"Table {n}"))
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def _traced_aggregator(args, mem: bool = False):
    """The aggregator behind ``stats``/``report``: load a JSONL trace,
    or run the small traced PVT workload.  Returns ``(agg, title)``."""
    from repro import obs

    if args.from_jsonl:
        agg = obs.Aggregator.from_jsonl(args.from_jsonl)
        return agg, f"Per-stage stats from {args.from_jsonl}"

    from repro.compressors import get_variant
    from repro.harness.experiments import ExperimentContext

    # A deliberately small default run: stats is about timing
    # visibility, not statistical power.
    config = bench_scale().with_scale(
        ne=args.ne, nlev=args.nlev,
        n_members=args.members if args.members else 21,
    )
    try:
        codec = get_variant(args.variant)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        raise SystemExit(2) from None
    with obs.tracing(), obs.profiling_memory(mem or obs.mem_active()):
        ctx = ExperimentContext.create(config)
        ctx.pvt.evaluate_codec(
            codec,
            variables=_featured_or(args.variables, ctx),
            run_bias=args.bias,
            workers=args.workers,
        )
    obs.flush_sinks()
    title = (f"Per-stage stats: {args.variant}, "
             f"{config.n_members} members, ne={config.ne}")
    return obs.aggregator(), title


def _trace_command(args) -> int:
    """The ``repro stats --trace`` tree renderer (``--trace ls`` lists)."""
    from repro import obs

    if not args.from_jsonl:
        print("repro stats --trace needs --from-jsonl TRACE: a trace "
              "spans processes, so only a JSONL sink sees all of it",
              file=sys.stderr)
        return 2
    events = obs.load_jsonl(args.from_jsonl)
    if args.trace == "ls":
        traces = obs.list_traces(events)
        if not traces:
            print(f"no trace ids in {args.from_jsonl} (written with "
                  "tracing off, or propagation disabled?)",
                  file=sys.stderr)
            return 1
        for trace_id, n_spans, total_s in traces:
            print(f"{trace_id}  {n_spans:4d} span(s)  {total_s:10.6f} s")
        return 0
    try:
        print(obs.render_trace_tree(events, args.trace))
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    return 0


def _bench_command(args, render_table) -> int:
    """The ``repro bench ls|show|compare`` actions."""
    from pathlib import Path

    from repro.obs import bench

    root = Path(args.dir) if args.dir else bench.bench_dir()

    if args.action == "ls":
        rows = []
        for path, record in bench.iter_records(root):
            rows.append([
                record.name, record.created,
                len(record.metrics), record.fingerprint[:12],
            ])
        hist = bench.history_dir()
        n_hist = len(list(hist.glob("*.jsonl"))) if hist.is_dir() else 0
        print(render_table(
            ["benchmark", "created", "metrics", "fingerprint"],
            rows,
            title=f"{len(rows)} bench record(s) in {root} "
                  f"({n_hist} history file(s) in {hist})",
        ))
        return 0

    if args.action == "show":
        if not args.name:
            print("repro bench show needs a benchmark name; "
                  "see `repro bench ls`", file=sys.stderr)
            return 2
        path = Path(args.name)
        if not path.is_file():
            path = bench.record_path(args.name, root)
        if not path.is_file():
            print(f"no bench record at {path}", file=sys.stderr)
            return 1
        record = bench.load_record(path)
        for label, value in [
            ("name", record.name), ("created", record.created),
            ("schema", record.schema),
            ("fingerprint", record.fingerprint),
            ("config", record.config), ("host", record.host),
            ("mem", record.mem), ("path", path),
        ]:
            print(f"{label:12s} {value}")
        rows = [
            [name, m.value, m.unit, m.direction,
             m.threshold_pct]
            for name, m in sorted(record.metrics.items())
        ]
        print()
        print(render_table(
            ["metric", "value", "unit", "better", "threshold %"], rows,
            title="Metrics", precision=4,
        ))
        return 0

    # compare: the regression gate.
    if args.baseline and Path(args.baseline).is_file():
        base_path = Path(args.baseline)
        current_path = root / base_path.name
        if not current_path.is_file():
            print(f"no current record at {current_path} to compare "
                  f"against {base_path}", file=sys.stderr)
            return 2
        current = bench.load_record(current_path)
        baseline = bench.load_record(base_path)
        if baseline.fingerprint != current.fingerprint:
            print(bench.fingerprint_skip_reason(current, baseline),
                  file=sys.stderr)
            return 2
        deltas_by_name = {current.name: bench.compare_records(
            current, baseline, args.threshold)}
        skipped: list[str] = []
    else:
        baseline_dir = (Path(args.baseline) if args.baseline
                        else root / "benchmarks" / "baselines")
        deltas_by_name, skipped = bench.compare_dirs(
            root, baseline_dir, args.threshold)

    regressions = 0
    for name in sorted(deltas_by_name):
        deltas = deltas_by_name[name]
        rows = []
        for d in deltas:
            status = "REGRESSED" if d.regressed else "ok"
            regressions += d.regressed
            rows.append([d.metric, d.baseline, d.current,
                         d.change_pct, d.threshold_pct, status])
        print(render_table(
            ["metric", "baseline", "current", "worse %", "threshold %",
             "status"],
            rows, title=f"{name}: {len(deltas)} comparable metric(s)",
            precision=4,
        ))
        print()
    for reason in skipped:
        print(f"skipped {reason}", file=sys.stderr)
        name, _, base_path = reason.partition(": no baseline at ")
        if base_path:
            record_path = bench.record_path(name, root)
            print(f"  hint: to gate {name!r}, commit the current record "
                  f"as its baseline:\n"
                  f"  cp {record_path} {base_path}", file=sys.stderr)
    if not deltas_by_name and not skipped:
        print(f"no BENCH_*.json records found in {root}",
              file=sys.stderr)
        return 2
    if regressions:
        print(f"{regressions} metric(s) regressed past their threshold",
              file=sys.stderr)
        return 1
    print(f"no regressions across {len(deltas_by_name)} record(s)")
    return 0


def _stream_command(args, render_table) -> int:
    """The ``repro stream`` chunked-pipeline front end."""
    from repro.compressors import get_variant
    from repro.stream import (
        iter_file_chunks,
        stream_roundtrip,
        synthetic_chunks,
    )

    if args.file and not args.variable:
        print("repro stream --file needs --variable NAME",
              file=sys.stderr)
        return 2

    def source():
        if args.file:
            return iter_file_chunks(args.file, args.variable,
                                    chunk_mb=args.chunk_mb)
        if args.variable:
            from repro.harness.experiments import ExperimentContext

            ctx = ExperimentContext.create(_config_from_args(args))
            return ctx.member_chunks(args.variable,
                                     chunk_mb=args.chunk_mb)
        return synthetic_chunks(args.mb, chunk_mb=args.chunk_mb,
                                fill_fraction=args.fill_fraction)

    variants = args.variants or ["fpzip-24"]
    rows = []
    for name in variants:
        try:
            codec = get_variant(name)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        out = stream_roundtrip(codec, source(), workers=args.workers)
        rows.append([
            out.variant, out.n_chunks, out.bytes_in / 2**20, out.cr,
            out.errors.rmse, out.errors.e_max, out.errors.pearson,
        ])
    if args.file:
        origin = f"{args.file}:{args.variable}"
    elif args.variable:
        origin = f"ensemble member field {args.variable}"
    else:
        origin = f"synthetic {args.mb:g} MiB"
    mode = ("serial" if args.workers <= 1
            else f"{args.workers} workers, shm transport")
    print(render_table(
        ["variant", "chunks", "MiB", "CR", "rmse", "e_max", "pearson"],
        rows, title=f"Streaming round trip: {origin} ({mode})",
        precision=4,
    ))
    return 0


def _serve_command(args) -> int:
    """The ``repro serve`` daemon loop (SIGTERM/SIGINT drain and exit)."""
    import signal

    from repro.serve import JobManager, ReproServer, default_address

    env_path, env_host, env_port = default_address()
    socket_path = args.socket or env_path
    manager = JobManager(workers=args.workers, queue_size=args.queue,
                         retry_after=args.retry_after)
    server = ReproServer(
        manager,
        host=args.host or env_host,
        port=args.port if args.port is not None else env_port,
        socket_path=socket_path,
    )

    def _drain(signum, frame) -> None:
        server.request_shutdown(drain=True)

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    where = (server.address if socket_path
             else "{}:{}".format(*server.address))
    print(f"repro serve: listening on {where} ({manager.workers} "
          f"worker(s), queue depth {manager.queue.maxsize}); "
          "SIGTERM drains and exits", flush=True)
    server.serve_forever()
    print("repro serve: drained and stopped")
    return 0


def _connect_client(args):
    from repro.serve import ServeClient

    return ServeClient.connect(host=args.host, port=args.port,
                               socket_path=args.socket)


def _parse_job_params(pairs: list[str]) -> dict:
    """``key=value`` pairs; values parse as JSON when they can."""
    import json

    params: dict = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"job parameter {pair!r} is not of the form key=value")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _submit_command(args) -> int:
    """The ``repro submit`` one-shot client."""
    import json

    from repro.serve import ServeError

    params = _parse_job_params(args.params)
    try:
        with _connect_client(args) as client:
            job = client.submit(args.kind, params,
                                priority=args.priority)
            if args.no_wait:
                print(f"{job['id']} {job['state']}")
                return 0
            final = client.result(job["id"], timeout=args.timeout)
    except ServeError as exc:
        msg = f"submit refused ({exc.code}): {exc}"
        if exc.retry_after is not None:
            msg += f" (retry after {exc.retry_after:g}s)"
        print(msg, file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach the daemon: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(final, indent=2, sort_keys=True))
    return 0 if final["state"] == "done" else 1


def _jobs_command(args, render_table) -> int:
    """The ``repro jobs`` listing / inspection / cancellation client."""
    import json

    from repro.serve import ServeError

    try:
        with _connect_client(args) as client:
            if args.cancel:
                took = client.cancel(args.cancel)
                print(f"{args.cancel}: "
                      f"{'cancellation requested' if took else 'already finished'}")
                return 0
            if args.id:
                print(json.dumps(client.status(args.id), indent=2,
                                 sort_keys=True))
                return 0
            jobs = client.jobs()
    except ServeError as exc:
        print(f"daemon refused ({exc.code}): {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach the daemon: {exc}", file=sys.stderr)
        return 2
    rows = [
        [j["id"], j["kind"], j["priority"], j["state"],
         j.get("cache_hit", False), round(j.get("wait_s", 0.0), 3),
         round(j.get("run_s", 0.0), 3)]
        for j in jobs
    ]
    print(render_table(
        ["job", "kind", "prio", "state", "cached", "wait (s)", "run (s)"],
        rows, title=f"{len(rows)} job(s) on the daemon",
    ))
    return 0


#: Objectives ``repro top --slo`` understands, and how to compute them
#: from a parsed exposition snapshot (quantiles in milliseconds).
_SLO_NAMES = ("p50_wait_ms", "p95_wait_ms", "p99_wait_ms", "p95_run_ms",
              "queue_depth")


def _parse_slos(pairs: list[str]) -> dict[str, float]:
    slos: dict[str, float] = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        ok = sep and name in _SLO_NAMES
        if ok:
            try:
                slos[name] = float(raw)
            except ValueError:
                ok = False
        if not ok:
            raise SystemExit(
                f"--slo {pair!r} is not NAME=VALUE with NAME one of: "
                + ", ".join(_SLO_NAMES))
    return slos


def _top_frame(samples: dict, prev_done: float | None, interval: float,
               slos: dict[str, float], poll: int,
               render_table) -> tuple[str, list[str]]:
    """One rendered dashboard frame plus any SLO breach descriptions."""
    from repro.obs import telemetry

    def val(name: str) -> float:
        return samples.get(name, 0.0)

    def quant_ms(family: str, q: float) -> float | None:
        v = telemetry.quantile_from_buckets(samples, family, q)
        return None if v is None else v * 1e3

    done = val("repro_serve_done_total")
    hits = val("repro_serve_cache_hits_total")
    lookups = hits + val("repro_serve_cache_misses_total")
    rate = (None if prev_done is None
            else max(done - prev_done, 0.0) / interval)
    current: dict[str, float | None] = {
        "p50_wait_ms": quant_ms("repro_serve_job_wait_s", 0.50),
        "p95_wait_ms": quant_ms("repro_serve_job_wait_s", 0.95),
        "p99_wait_ms": quant_ms("repro_serve_job_wait_s", 0.99),
        "p95_run_ms": quant_ms("repro_serve_job_run_s", 0.95),
        "queue_depth": val("repro_serve_queue_depth"),
    }

    def fmt(v: float | None, unit: str = "") -> str:
        return "-" if v is None else f"{v:.1f}{unit}"

    lines = [
        f"repro top — poll {poll} (every {interval:g}s)",
        f"jobs/s {fmt(rate)}   "
        f"p50 wait {fmt(current['p50_wait_ms'], ' ms')}   "
        f"p95 wait {fmt(current['p95_wait_ms'], ' ms')}   "
        f"p95 run {fmt(current['p95_run_ms'], ' ms')}   "
        f"cache hit {fmt(100.0 * hits / lookups if lookups else None, '%')}",
        f"queue {val('repro_serve_queue_depth'):g}   "
        f"workers {val('repro_serve_workers_alive'):g}   "
        f"jobs {val('repro_serve_jobs_total'):g}   done {done:g}   "
        f"failed {val('repro_serve_failed_total'):g}   "
        f"rejected {val('repro_serve_rejected_total'):g}   "
        f"cancelled {val('repro_serve_cancelled_total'):g}",
    ]
    prefix = 'repro_serve_jobs_total{kind="'
    kinds = sorted(n[len(prefix):-2] for n in samples
                   if n.startswith(prefix) and n.endswith('"}'))
    if kinds:
        rows = []
        for kind in kinds:
            def k(fam: str) -> float:
                return samples.get(f'{fam}{{kind="{kind}"}}', 0.0)

            rows.append([kind, k("repro_serve_jobs_total"),
                         k("repro_serve_done_total"),
                         k("repro_serve_failed_total"),
                         k("repro_serve_cache_hits_total")])
        lines.append("")
        lines.append(render_table(
            ["kind", "jobs", "done", "failed", "cached"], rows,
            title="Per-kind jobs"))
    breaches = [
        f"{name} {current[name]:.1f} > {limit:g}"
        for name, limit in sorted(slos.items())
        if current.get(name) is not None and current[name] > limit
    ]
    lines.extend(f"SLO BREACH: {b}" for b in breaches)
    return "\n".join(lines), breaches


def _top_command(args, render_table) -> int:
    """The ``repro top`` live dashboard: poll ``metrics``, render, gate.

    The refresh clears the screen only on a TTY; piped output gets one
    frame per poll.  Exit code 1 when the *final* frame breaches any
    ``--slo`` objective, so scripts can poll-and-gate in one call.
    """
    import time

    from repro.serve import ServeError

    from repro.obs import telemetry

    slos = _parse_slos(args.slo)
    limit = 1 if (args.once or args.raw) else args.iterations
    prev_done: float | None = None
    breaches: list[str] = []
    poll = 0
    try:
        with _connect_client(args) as client:
            while True:
                text = client.metrics()
                poll += 1
                if args.raw:
                    sys.stdout.write(text)
                    break
                samples = telemetry.parse_exposition(text)
                frame, breaches = _top_frame(
                    samples, prev_done, args.interval, slos, poll,
                    render_table)
                if poll > 1 and sys.stdout.isatty():
                    sys.stdout.write("\x1b[H\x1b[2J")
                print(frame, flush=True)
                prev_done = samples.get("repro_serve_done_total", 0.0)
                if limit is not None and poll >= limit:
                    break
                time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    except ServeError as exc:
        print(f"daemon refused ({exc.code}): {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach the daemon: {exc}", file=sys.stderr)
        return 2
    if breaches:
        for breach in breaches:
            print(f"slo: {breach}", file=sys.stderr)
        return 1
    return 0


def _store_command(args, render_table) -> int:
    """The ``repro store ls|info|gc|clear`` actions."""
    from datetime import datetime

    from repro import store

    st = store.get_store()
    if st is None:
        print("no artifact store configured; set REPRO_STORE=PATH or "
              "pass --store PATH", file=sys.stderr)
        return 2

    def last_used(artifact) -> str:
        stamp = datetime.fromtimestamp(artifact.mtime_ns / 1e9)
        return stamp.isoformat(sep=" ", timespec="seconds")

    if args.action == "ls":
        artifacts = st.ls()
        rows = [
            [a.key[:12], a.kind, a.stage, a.nbytes / 1e6, last_used(a)]
            for a in artifacts
        ]
        total_mb = st.total_bytes() / 1e6
        print(render_table(
            ["key", "kind", "stage", "MB", "last used"], rows,
            title=f"{len(artifacts)} artifact(s) in {st.root} "
                  f"({total_mb:.2f} MB)",
        ))
        return 0

    if args.action == "info":
        if not args.key:
            print("repro store info needs a key (or unique prefix); "
                  "see `repro store ls`", file=sys.stderr)
            return 2
        matches = st.find(args.key)
        if len(matches) != 1:
            what = "no artifact matches" if not matches else \
                f"{len(matches)} artifacts match"
            print(f"{what} key prefix {args.key!r}", file=sys.stderr)
            return 1
        a = matches[0]
        for label, value in [
            ("key", a.key), ("kind", a.kind), ("stage", a.stage),
            ("payload bytes", a.nbytes), ("file bytes", a.file_bytes),
            ("last used", last_used(a)), ("meta", a.meta),
            ("path", a.path),
        ]:
            print(f"{label:14s} {value}")
        return 0

    if args.action == "gc":
        budget = int(args.max_mb * 1e6) if args.max_mb else st.max_bytes
        if budget is None:
            print("store has no size cap; pass --max-mb or set "
                  "REPRO_STORE_MAX_MB", file=sys.stderr)
            return 2
        evicted = st.gc(budget)
        freed = sum(a.nbytes for a in evicted) / 1e6
        print(f"evicted {len(evicted)} artifact(s) ({freed:.2f} MB); "
              f"{st.total_bytes() / 1e6:.2f} MB kept")
        return 0

    n = st.clear()
    print(f"removed {n} artifact(s) from {st.root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
