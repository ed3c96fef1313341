"""Command-line front end.

Subcommands:
  lattice M N [--coords partition|composition] [--out FILE]
  ranks M N
  identities M N
  scd lindstrom M [--out FILE]
  scd n2 M [--out FILE]
  scd brute M N [--budget B]
  scd verify POSET_FILE SCD_FILE
  render POSET_FILE [--scd SCD_FILE] [--format dot|svg] [--labels ...]

Exit codes: 0 success or pass, 1 verification failure or not-found, 2 usage
or file errors.  Reports go to stdout, diagnostics to stderr.  There is no
environment-variable configuration; flags are the whole interface.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .partitions import Shape
from .poset import (
    ParseError,
    build_lattice,
    check_splitting_identities,
    gaussian_binomial,
    parse_poset,
    serialize_poset,
)
from .render import RenderSpec, to_dot, to_svg
from .scd import (
    brute_force_scd,
    lindstrom,
    parse_decomposition,
    scd_n2,
    serialize_decomposition,
    verify_scd,
)


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _emit(text: str, out: str | None, summary: str) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise CliError(str(exc)) from None
        except ValueError as exc:  # a NUL or an unencodable character in the name
            raise CliError(f"{out!r}: {exc}") from None
        print(summary, file=sys.stderr)
    else:
        print(text, end="")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: {exc}") from None
    except ValueError as exc:  # a NUL or an unencodable character in the name
        raise CliError(f"{path!r}: {exc}") from None


def _load_poset(path: str):
    try:
        return parse_poset(_read(path))
    except ParseError as exc:
        raise CliError(f"{path}: {exc}") from None


def _load_decomposition(path: str):
    try:
        return parse_decomposition(_read(path))
    except ParseError as exc:
        raise CliError(f"{path}: {exc}") from None


def _build(m: int, n: int, coords: str):
    try:
        return build_lattice(Shape(m, n), coords)
    except ValueError as exc:  # over the element limit
        raise CliError(str(exc)) from None


def _cmd_lattice(args) -> int:
    p = _build(args.m, args.n, args.coords)
    _emit(
        serialize_poset(p),
        args.out,
        f"wrote {p.label()}: {len(p)} elements, {len(p.covers)} covers to {args.out}",
    )
    return 0


def _cmd_ranks(args) -> int:
    try:
        coefficients = gaussian_binomial(args.m, args.n)
    except ValueError as exc:  # over the degree limit
        raise CliError(str(exc)) from None
    for coefficient in coefficients:
        print(coefficient)
    return 0


def _cmd_identities(args) -> int:
    try:
        result = check_splitting_identities(args.m, args.n)
    except ValueError as exc:  # over the element limit
        raise CliError(str(exc)) from None
    print(f"part-size split identity: {'ok' if result.first_identity else 'FAIL'}")
    print(f"part-count split identity: {'ok' if result.second_identity else 'FAIL'}")
    print(f"elements with a part of size {args.n}: {result.with_largest}")
    print(f"elements without: {result.without_largest}")
    print(f"element split bijective: {'ok' if result.split_bijective else 'FAIL'}")
    print("PASS" if result.passed else "FAIL")
    return 0 if result.passed else 1


def _cmd_scd_construct(args) -> int:
    # looked up per call, not bound into the cached parser's defaults
    construct = lindstrom if args.scd_command == "lindstrom" else scd_n2
    try:
        d = construct(args.m)
    except ValueError as exc:  # over the element limit
        raise CliError(str(exc)) from None
    _emit(
        serialize_decomposition(d),
        args.out,
        f"wrote {len(d)} chains for L'({args.m},{d.shape.n}) to {args.out}",
    )
    return 0


def _cmd_scd_brute(args) -> int:
    p = _build(args.m, args.n, "composition")
    result = brute_force_scd(p, budget=args.budget)
    if result.status == "found":
        print(serialize_decomposition(result.decomposition), end="")
        return 0
    if result.status == "budget-exhausted":
        print(f"budget-exhausted: gave up after {result.assignments} assignments")
    else:
        print(f"not-found: no symmetric chain decomposition ({result.assignments} assignments)")
    return 1


def _cmd_scd_verify(args) -> int:
    p = _load_poset(args.poset_file)
    d = _load_decomposition(args.scd_file)
    try:
        report = verify_scd(d, p)
    except ValueError as exc:  # shape mismatch
        print(exc)
        return 1
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_render(args) -> int:
    p = _load_poset(args.poset_file)
    highlight = None
    if args.scd:
        highlight = _load_decomposition(args.scd)
        if highlight.shape != p.shape:
            raise CliError(
                f"shape mismatch: poset {p.label()} vs decomposition "
                f"L'({highlight.shape.m},{highlight.shape.n})"
            )
    spec = RenderSpec(labels=args.labels, highlight=highlight)
    try:
        text = to_dot(p, spec) if args.format == "dot" else to_svg(p, spec)
    except ValueError as exc:  # too tall, or a highlight key not in the poset
        raise CliError(str(exc)) from None
    print(text, end="")
    return 0


@cache  # built on first use, not at import; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="younglat",
        description="Bounded partition lattices, rank data, symmetric chain "
        "decompositions, and Hasse diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lat = sub.add_parser("lattice", help="write a poset file")
    lat.add_argument("m", type=_nonneg)
    lat.add_argument("n", type=_nonneg)
    lat.add_argument("--coords", choices=("partition", "composition"),
                     default="partition")
    lat.add_argument("--out", metavar="FILE")
    lat.set_defaults(func=_cmd_lattice)

    ranks = sub.add_parser("ranks", help="print rank polynomial coefficients")
    ranks.add_argument("m", type=_nonneg)
    ranks.add_argument("n", type=_nonneg)
    ranks.set_defaults(func=_cmd_ranks)

    ident = sub.add_parser("identities", help="check the splitting identities")
    ident.add_argument("m", type=_positive)
    ident.add_argument("n", type=_positive)
    ident.set_defaults(func=_cmd_identities)

    scd = sub.add_parser("scd", help="symmetric chain decompositions")
    scd_sub = scd.add_subparsers(dest="scd_command", required=True)

    lind = scd_sub.add_parser("lindstrom", help="recursive construction, three sizes")
    lind.add_argument("m", type=_positive)
    lind.add_argument("--out", metavar="FILE")
    lind.set_defaults(func=_cmd_scd_construct)

    n2 = scd_sub.add_parser("n2", help="alternating construction, two sizes")
    n2.add_argument("m", type=_positive)
    n2.add_argument("--out", metavar="FILE")
    n2.set_defaults(func=_cmd_scd_construct)

    brute = scd_sub.add_parser("brute", help="backtracking search")
    brute.add_argument("m", type=_nonneg)
    brute.add_argument("n", type=_nonneg)
    brute.add_argument("--budget", type=_nonneg, default=100_000_000)
    brute.set_defaults(func=_cmd_scd_brute)

    verify = scd_sub.add_parser("verify", help="check a decomposition file")
    verify.add_argument("poset_file")
    verify.add_argument("scd_file")
    verify.set_defaults(func=_cmd_scd_verify)

    render = sub.add_parser("render", help="emit a DOT or SVG diagram")
    render.add_argument("poset_file")
    render.add_argument("--scd", metavar="FILE")
    render.add_argument("--format", choices=("dot", "svg"), default="dot")
    render.add_argument("--labels", choices=("partition", "composition", "young"),
                        default="partition")
    render.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    raise SystemExit(main())
