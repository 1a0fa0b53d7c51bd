"""Command-line front end: search, cusp audit, horoball rendering, report audit.

Exit codes: 0 success, 1 runtime or audit failure, 2 search finished with
undecided boxes, 64 usage error, 65 degenerate lattice.  A usage error is
a bad flag or setting, and also any TypeError or ValueError the library
raises on the inputs, such as a search whose interval arithmetic
overflows at its settings; each prints its subcommand's usage line.

Each subcommand imports the library modules it uses when it runs, and
this module imports none, so ``--version`` loads no library module,
``cusp`` never loads the search or the horoball code, ``verify`` never
loads the cusp or horoball code, and ``horoball`` never loads the search.
"""

import argparse
import json
import math
import os
import sys

from horocusp import __version__

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2
EXIT_USAGE = 64
EXIT_DEGENERATE = 65

class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors exit with status 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def parse_complex_literal(text: str) -> complex:
    """Parse "re", "re+imi", "re-imi", or "imi" into a complex number.

    Each part takes Python's float syntax, so "1e3", ".5" and "+2" are
    parts.  A part that is not finite, such as "nan", "inf" or "1e400",
    raises ValueError, as does whitespace inside the literal.
    """
    s = text.strip()
    if text.split() != [s]:
        raise ValueError("bad complex literal %r" % text)
    real, imag = s, "0"
    if s.endswith("i"):
        body = s[:-1]
        # the imaginary part opens at the last sign that opens neither the text nor an exponent
        signs = [k for k, ch in enumerate(body) if ch in "+-" and k and body[k - 1] not in "eE"]
        split = signs[-1] if signs else 0
        real, imag = body[:split] or "0", body[split:]
    parts = float(real), float(imag)
    if not all(map(math.isfinite, parts)):
        raise ValueError("complex literal %r is not finite" % text)
    return complex(*parts)


def _complex_or_usage(parser, flag, text):
    try:
        return parse_complex_literal(text)
    except ValueError:
        parser.error("%s: expected a complex literal such as 1+1.73i, got %r" % (flag, text))


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _check_writable(path):
    """Raise the OSError that opening path for writing raises, and leave no new file behind.

    An existing file is opened for appending, so its bytes stay as they are.
    """
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def _emit_json(payload, out_path):
    # a non-finite float is a ValueError, not an Infinity that JSON readers reject
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    if out_path:
        _write_text(out_path, text)
    else:
        sys.stdout.write(text)


def cmd_search(args, parser):
    from horocusp.search import BoxStatus, SearchConfig, run_search

    settings = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                settings = json.load(fh)
        except (OSError, ValueError) as exc:
            parser.error("cannot read config file: %s" % exc)
        if not isinstance(settings, dict):
            parser.error("config file must hold a JSON object")
    # the flags given that name SearchConfig settings override the file's keys
    names = SearchConfig.__dataclass_fields__
    settings.update((k, v) for k, v in vars(args).items() if k in names and v is not None)
    cfg = SearchConfig(**settings)
    # an unwritable --out fails before the search, not after it
    _check_writable(args.out)
    report = run_search(cfg)
    _write_text(args.out, report.to_canonical_json() + "\n")
    print(
        "search: %d boxes tested, %d kernel runs, %d leaves, %.2fs"
        % (report.boxes_tested, report.kernel_runs, len(report.leaves), report.wall_time),
        file=sys.stderr,
    )
    undecided = any(leaf.status is BoxStatus.UNDECIDED for leaf in report.leaves)
    if report.incomplete or undecided:
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_cusp(args, parser):
    from horocusp.cuspgeom import CuspShape, audit_cusp

    a = _complex_or_usage(parser, "--a", args.a)
    b = _complex_or_usage(parser, "--b", args.b)
    if not (args.slope_length > 0.0 and math.isfinite(args.slope_length)):
        parser.error("--slope-length must be positive and finite")
    try:
        shape = CuspShape(a, b)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DEGENERATE
    payload = {
        "version": __version__,
        "config": {"a": args.a, "b": args.b, "slope_length": args.slope_length},
    }
    payload.update(audit_cusp(shape, cutoff=args.slope_length))
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_horoball(args, parser):
    from horocusp.bicuspid import Params
    from horocusp.cuspgeom import CuspShape
    from horocusp.horoball import export_csv, horoball_diagram, render_svg

    a = _complex_or_usage(parser, "--a", args.a)
    b = _complex_or_usage(parser, "--b", args.b)
    c = _complex_or_usage(parser, "--c", args.c)
    if not 0.0 < args.cutoff <= 1.0:
        parser.error("--cutoff must lie in (0, 1]")
    if args.depth < 1:
        parser.error("--depth must be at least 1")
    if not (args.scale > 0.0 and math.isfinite(args.scale)):
        parser.error("--scale must be positive and finite")
    if not args.svg and not args.csv:
        parser.error("at least one of --svg or --csv is required")
    try:
        CuspShape(a, b)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DEGENERATE
    diagram = horoball_diagram(Params(a, b, c), args.cutoff, args.depth)
    config = {
        "a": args.a,
        "b": args.b,
        "c": args.c,
        "cutoff": args.cutoff,
        "depth": args.depth,
    }
    if args.svg:
        _write_text(args.svg, render_svg(diagram, args.scale, metadata={"config": config}))
    if args.csv:
        _write_text(args.csv, export_csv(diagram, metadata=config))
    return EXIT_OK


def cmd_verify(args, parser):
    from horocusp.search import verify_report

    if args.samples < 1:
        parser.error("--samples must be at least 1")
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    result = verify_report(data, args.samples)
    payload = {
        "version": __version__,
        "config": {"report": args.report, "samples": args.samples},
    }
    payload.update(result)
    _emit_json(payload, args.out)
    return EXIT_OK if result["passed"] else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="horocusp", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version="horocusp " + __version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("search", help="branch-and-prune over the parameter box")
    p.add_argument("--config", help="JSON file with search settings")
    p.add_argument("--area-max", type=float, dest="area_bound", help="cusp area upper bound")
    p.add_argument("--max-d", type=int, help="largest z-count to enumerate")
    # words.MAX_EXP, written out so that the parser loads no library module; a test holds them equal
    p.add_argument("--max-exp", type=int, help="largest per-syllable exponent, at most 16")
    p.add_argument("--max-depth", type=int, help="subdivision depth limit")
    p.add_argument("--min-box-width", type=float, help="smallest box width to split")
    p.add_argument("--word-budget", type=int, dest="word_budget_per_box",
                   help="words scanned per box")
    p.add_argument("--max-boxes", type=int, help="box budget, 0 for unlimited")
    p.add_argument("--no-hint", action="store_false", dest="use_parent_word_hint", default=None,
                   help="disable the inherited near-miss word hint")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_search, parser=p)

    p = sub.add_parser("cusp", help="cusp area, volume, and slope audit")
    p.add_argument("--a", required=True, help="first lattice generator, complex literal")
    p.add_argument("--b", required=True, help="second lattice generator, complex literal")
    p.add_argument("--slope-length", type=float, default=6.0,
                   help="slope length cutoff (default 6)")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_cusp, parser=p)

    p = sub.add_parser("horoball", help="render a horoball diagram")
    p.add_argument("--a", required=True, help="first lattice generator, complex literal")
    p.add_argument("--b", required=True, help="second lattice generator, complex literal")
    p.add_argument("--c", required=True, help="inversion parameter, complex literal")
    p.add_argument("--cutoff", type=float, required=True,
                   help="smallest ball diameter to keep, in (0, 1]")
    p.add_argument("--depth", type=int, default=8, help="word length limit (default 8)")
    p.add_argument("--scale", type=float, default=80.0,
                   help="SVG pixels per lattice unit (default 80)")
    p.add_argument("--svg", help="SVG output path")
    p.add_argument("--csv", help="CSV output path")
    p.set_defaults(func=cmd_horoball, parser=p)

    p = sub.add_parser("verify", help="float audit of a search report")
    p.add_argument("--report", required=True, help="report JSON produced by search")
    p.add_argument("--samples", type=int, default=50,
                   help="sample points per eliminated box (default 50)")
    p.add_argument("--out", help="write the audit JSON here instead of stdout")
    p.set_defaults(func=cmd_verify, parser=p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # each subcommand reports usage errors through its own subparser
        return args.func(args, args.parser)
    except (TypeError, ValueError) as exc:
        # the library's verdict on the inputs, however deep it is raised
        args.parser.error(str(exc))
    except Exception as exc:  # surfaces as a runtime failure, exit 1
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
