"""Command-line interface: ``python -m repro.cli <command>``.

Exposes the paper's workflows as commands:

- ``characterize`` — Section 4.1 statistics for one or more variables;
- ``verify``       — run the four acceptance tests for a codec variant;
- ``hybrid``       — build the per-variable hybrid plan for a family;
- ``table``        — regenerate one of the paper's tables (1-8);
- ``variants``     — list the registered codec variants;
- ``lint``         — run the repro.check numeric-safety static analyzer;
- ``stats``        — run a small traced PVT workload (or aggregate an
  existing JSONL trace) and print the per-run observability view:
  per-stage and per-codec timings, counters and gauges, store hit
  rates (``docs/observability.md``);
- ``store``        — inspect or trim the artifact cache (``ls`` /
  ``info`` / ``gc`` / ``clear``, see ``docs/caching.md``);
- ``stream``       — run the chunked out-of-core compression pipeline
  over synthetic, ensemble, or NCH-file data (``docs/streaming.md``).

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
                    scope: str = "") -> None:
    """The pool-width flag shared by the commands that fan out."""
    parser.add_argument("--workers", type=int, default=0,
                        help=f"parallel workers{scope} (capped by "
                             "$REPRO_WORKERS; <=1 runs inline)")


def _docs(page: str) -> str:
    """The epilog every subcommand carries: where its docs live."""
    return f"Full documentation: {page}"


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
    _add_exec_flags(p)

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
    _add_exec_flags(p, ", Table 6 only")

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
                        "glob (e.g. 'pvt.*' or '*compress*')")
    p.add_argument("--trace", default=None, metavar="ID",
                   help="with --from-jsonl: render one trace's span "
                        "tree (a unique trace-id prefix is enough; "
                        "'ls' lists the traces in the file)")
    _add_scale_flags(p)

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
                   help="block size in MiB (default: 8)")
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
                        "shared-memory transport (<=1: inline, one chunk "
                        "in flight, strictly bounded RSS)")
    _add_scale_flags(p)
    return parser


def _featured_or(names, ctx) -> list[str]:
    return list(names) if names else list(ctx.featured)


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    _activate_store(args)

    if args.command == "lint":
        from repro.check.__main__ import main as check_main

        lint_args = ["lint", *args.paths, "--format", args.format]
        if args.select:
            lint_args += ["--select", args.select]
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
        sections = [
            ("Per-codec stages",
             agg.codec_table(sort=args.sort, top=args.top,
                             name_filter=args.filter)),
            ("Counters and gauges", agg.metrics_table()),
            ("Artifact store", agg.store_table()),
        ]
        for section, (s_headers, s_rows) in sections:
            if s_rows:
                print()
                print(render_table(s_headers, s_rows, title=section,
                                   precision=4))
        for env in ("REPRO_TRACE_JSONL", "REPRO_TRACE_CHROME"):
            path = env_str(env)
            if path:
                print(f"\n{env}: trace written to {path}")
        return 0

    if args.command == "stream":
        return _stream_command(args, render_table)

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
        import numpy as np

        from repro.compressors import get_variant
        from repro.compressors.base import compression_ratio

        try:
            codec = get_variant(args.variant)
        except KeyError as exc:
            print(exc.args[0])
            return 2
        report = ctx.pvt.evaluate_codec(
            codec, variables=_featured_or(args.variables, ctx),
            run_bias=not args.no_bias, workers=args.workers,
        )
        rows = []
        for v in report.verdicts.values():
            # The tests score reconstructions only; the CR column
            # compresses each test member once, here.
            fields = ctx.ensemble.ensemble_field(v.variable)
            cr = np.mean([
                compression_ratio(fields[m].nbytes,
                                  len(codec.compress(fields[m])))
                for m in ctx.test_members
            ])
            rows.append([v.variable, v.rho.passed, v.rmsz.passed,
                         v.enmax.passed, v.bias.passed if v.bias else None,
                         v.all_passed, float(cr)])
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


def _traced_aggregator(args):
    """The aggregator behind ``stats``: load a JSONL trace, or run the
    small traced PVT workload.  Returns ``(agg, title)``."""
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
    with obs.tracing(), obs.profiling_memory(obs.mem_active()):
        ctx = ExperimentContext.create(config)
        names = _featured_or(args.variables, ctx)
        ctx.pvt.evaluate_codec(codec, variables=names, run_bias=args.bias,
                               workers=args.workers)
        # Acceptance makes no blob: time the codec's own stages with one
        # round trip per test member, the blobs `repro verify` sizes.
        for name in names:
            for m in ctx.test_members:
                codec.roundtrip(ctx.ensemble.member_field(name, int(m)))
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
                  "tracing off?)", file=sys.stderr)
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
