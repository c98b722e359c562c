"""``repro-query``: the command-line query application.

The off-line counterpart of Caliper's ``cali-query``: applies a CalQL
expression to one or more recorded datasets and prints or writes the
result.  ``--parallel N`` runs the query through the simulated-MPI parallel
query application (Section IV-C) instead of serially, and reports the phase
timings the paper's Figure 4 plots.

Examples::

    repro-query -q "AGGREGATE sum(time.duration) GROUP BY kernel" run*.cali
    repro-query -q "AGGREGATE count GROUP BY mpi.function FORMAT csv" \
        --output mpi.csv data/*.cali
    repro-query -q "AGGREGATE sum(aggregate.count) GROUP BY kernel" \
        --parallel 64 data/*.cali
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from ..common.errors import ReproError
from ..io.dataset import Dataset
from .mpi_query import MPIQueryRunner

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-query",
        description="Query and aggregate recorded performance data with CalQL.",
    )
    parser.add_argument(
        "files", nargs="+", help="input record files (.cali/.json/.csv/.rcf)"
    )
    parser.add_argument(
        "-q", "--query", help="CalQL query expression"
    )
    parser.add_argument(
        "--list-attributes",
        action="store_true",
        help="print the attribute labels present in the dataset and exit",
    )
    parser.add_argument(
        "--globals",
        action="store_true",
        dest="show_globals",
        help="print per-run global metadata and exit",
    )
    parser.add_argument(
        "-o", "--output", help="write the result to this file instead of stdout"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="worker processes that read + partially aggregate the input "
        "files (default: one per core when the input is large enough; 1 = "
        "serial; filter/projection queries parallelize the reads only)",
    )
    parser.add_argument(
        "--parallel",
        type=int,
        metavar="N",
        help="run through the simulated-MPI parallel query app with N processes",
    )
    parser.add_argument(
        "--fanout",
        type=int,
        default=2,
        help="reduction-tree fanout for --parallel (default 2)",
    )
    parser.add_argument(
        "--timing",
        action="store_true",
        help="print phase timings and per-level reduction-tree telemetry "
        "(--parallel) to stderr",
    )
    parser.add_argument(
        "--sample",
        type=float,
        metavar="P",
        help="aggregate over a Bernoulli sample of the input at keep "
        "probability P in (0, 1]: results carry count-scaled aggregates "
        "plus est#/est.lo#/est.hi# confidence columns",
    )
    parser.add_argument(
        "--sample-seed",
        type=int,
        metavar="N",
        help="RNG seed for --sample (reproducible sampling decisions)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="collect internal telemetry (repro.observe) during the query "
        "and print the metrics table to stderr",
    )
    parser.add_argument(
        "--json-stats",
        metavar="PATH",
        help="collect internal telemetry and write it as JSON to PATH "
        "('-' = stdout)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress auxiliary stderr output (timing summary, stats table)",
    )
    return parser


#: subcommand names dispatched before classic file-query parsing
SUBCOMMANDS = ("serve", "live", "tree", "convert")


def _suggest_subcommand(word: str) -> Optional[str]:
    """Close-match suggestion for a mistyped subcommand, or None.

    Mirrors the runtime config schema's unknown-key suggestions: only words
    that *look like* subcommand attempts qualify — existing files, flags,
    and extension-bearing names are inputs for the classic query app, not
    typos.
    """
    import difflib

    if word.startswith("-") or os.path.exists(word) or "." in word:
        return None
    matches = difflib.get_close_matches(word, SUBCOMMANDS, n=1)
    return matches[0] if matches else None


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("serve", "live", "tree"):
        # On-line service commands live in repro.net; everything else is the
        # classic file-based query application.
        from ..net.cli import main as net_main

        return net_main(argv)
    if argv and argv[0] == "convert":
        return _convert(argv[1:])
    if argv:
        suggestion = _suggest_subcommand(argv[0])
        if suggestion is not None:
            print(
                f"repro-query: unknown subcommand {argv[0]!r} "
                f"(did you mean {suggestion!r}?)",
                file=sys.stderr,
            )
            return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (args.query or args.list_attributes or args.show_globals):
        parser.error("one of --query, --list-attributes or --globals is required")
    if args.stats or args.json_stats:
        # Collect into a fresh registry for exactly this invocation, then
        # restore whatever collection state an embedding process had.
        from .. import observe

        with observe.collecting() as reg:
            code = _run(args)
            if code == 0:
                _emit_stats(args, reg)
        return code
    return _run(args)


def _convert(argv: Sequence[str]) -> int:
    """``repro-query convert``: re-encode record files as binary columnar .rcf."""
    parser = argparse.ArgumentParser(
        prog="repro-query convert",
        description="Convert record files (.cali/.json/.csv) to the binary "
        "columnar .rcf format for zero-copy loading.",
    )
    parser.add_argument("files", nargs="+", help="input record files")
    parser.add_argument(
        "-o",
        "--output",
        help="output path (single input only; default: input with .rcf suffix)",
    )
    parser.add_argument(
        "--chunk-rows",
        type=int,
        default=0,
        metavar="N",
        help="rows per chunk (0 = library default; smaller chunks bound the "
        "memory of later out-of-core scans)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the per-file summary"
    )
    args = parser.parse_args(list(argv))
    if args.output and len(args.files) > 1:
        parser.error("--output only makes sense with a single input file")
    from ..io.colfile import ColfileWriter
    from ..io.dataset import read_records

    try:
        for path in args.files:
            records, globals_ = read_records(path)
            out_path = args.output or _rcf_path(path)
            with ColfileWriter(out_path, globals_=globals_) as writer:
                count = writer.write_records(records, chunk_rows=args.chunk_rows)
            if not args.quiet:
                print(f"{path}: {count} records -> {out_path}", file=sys.stderr)
    except (ReproError, OSError) as exc:
        print(f"repro-query convert: error: {exc}", file=sys.stderr)
        return 1
    return 0


def _rcf_path(path: str) -> str:
    base, dot, _ext = path.rpartition(".")
    return (base if dot else path) + ".rcf"


def _emit_stats(args, reg) -> None:
    """Print/write the collected telemetry per the --stats/--json-stats flags."""
    from ..observe import stats_table, to_dict

    if args.stats and not args.quiet:
        print(stats_table(reg), file=sys.stderr)
    if args.json_stats:
        import json

        text = json.dumps(to_dict(reg), indent=2)
        if args.json_stats == "-":
            print(text)
        else:
            with open(args.json_stats, "w", encoding="utf-8") as stream:
                stream.write(text + "\n")


def _run(args) -> int:
    from .options import QueryOptions

    try:
        opts = QueryOptions.from_args(args)
    except ValueError as exc:
        print(f"repro-query: error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.list_attributes or args.show_globals:
            labels: set[str] = set()
            globals_lines = []
            for path in args.files:
                # an .rcf answers both from its schema and footer; globals
                # are folded into the rows but listed apart
                dataset = Dataset.from_file(path)
                if args.list_attributes:
                    labels.update(
                        label for label in dataset.labels()
                        if label not in dataset.globals
                    )
                if args.show_globals:
                    pairs = ", ".join(
                        f"{k}={v.to_string()}"
                        for k, v in sorted(dataset.globals.items())
                    )
                    globals_lines.append(f"{path}: {pairs or '(none)'}")
            if args.list_attributes:
                print("\n".join(sorted(labels)))
            if globals_lines:
                print("\n".join(globals_lines))
            return 0
        if args.parallel:
            if opts.sampling is not None and opts.sampling < 1.0:
                raise ReproError("--sample cannot combine with --parallel")
            runner = MPIQueryRunner(args.query, size=args.parallel, fanout=args.fanout)
            outcome = runner.run_files(args.files)
            result = outcome.result
            if args.timing and not args.quiet:
                print(outcome.timing_summary(), file=sys.stderr)
        else:
            from ..api import query  # deferred: api sits above query

            result = query(args.query, args.files, opts)
    except ReproError as exc:
        print(f"repro-query: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"repro-query: error: {exc}", file=sys.stderr)
        return 1

    text = str(result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as stream:
            stream.write(text)
            if not text.endswith("\n"):
                stream.write("\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
