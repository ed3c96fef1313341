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
or file errors.  Every refusal, the library's or a file's, is a ``ValueError``
reported as ``error: <message>`` on stderr with exit 2, but the shape mismatch
of ``scd verify`` is a verification failure (exit 1, on stdout).
Reports go to stdout, diagnostics to stderr.  There is no
environment-variable configuration; flags are the whole interface.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from functools import cache, partial
from pathlib import Path

from .partitions import Shape, parse_natural
from .poset import (
    ParseError,
    _lattice_label,
    _poset_blocks,
    build_lattice,
    check_splitting_identities,
    gaussian_binomial,
    parse_poset,
)
from .render import _dot_blocks, to_svg
from .scd import (
    DEFAULT_BUDGET,
    brute_force_scd,
    lindstrom,
    parse_decomposition,
    scd_n2,
    serialize_decomposition,
    verify_scd,
)


def _natural(text: str, least: int, word: str) -> int:
    """``text`` as the files spell a number (``partitions.parse_natural``:
    ASCII digits, no leading zero), refused below ``least``.  A minus sign
    before a nonzero number so spelt makes a negative number, refused as
    out of range; any other spelling is refused as no number."""
    negative = text.startswith("-") and text != "-0"
    try:
        value = parse_natural(text[negative:])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a number in ASCII digits, no leading zero: {text!r}") from None
    if negative or value < least:
        raise argparse.ArgumentTypeError(f"must be {word}, got {text}")
    return value


def _nonneg(text: str) -> int:
    return _natural(text, 0, "nonnegative")


def _positive(text: str) -> int:
    return _natural(text, 1, "positive")


@contextmanager
def _file_errors(path: str):
    """A failed read, parse or write of ``path`` as ``main``'s ``ValueError``."""
    try:
        yield
    except OSError as exc:
        raise ValueError(str(exc)) from None
    except (UnicodeDecodeError, ParseError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    except ValueError as exc:  # a NUL or a lone surrogate in the name
        raise ValueError(f"{path!r}: {exc}") from None


def _emit(blocks, out: str | None, summary: str) -> None:
    """Write the strings ``blocks`` one after another to the file ``out``,
    opened as ``Path.write_text`` opens it, or to stdout without ``out``."""
    if not out:
        sys.stdout.writelines(blocks)
        return
    with _file_errors(out), Path(out).open("w", encoding="utf-8") as fh:
        fh.writelines(blocks)
    print(summary, file=sys.stderr)


def _load(parse, path: str):
    with _file_errors(path):
        return parse(Path(path).read_text(encoding="utf-8"))


def _cmd_lattice(args) -> int:
    p = build_lattice(Shape(args.m, args.n), args.coords)
    _emit(
        _poset_blocks(p),
        args.out,
        f"wrote {p.label()}: {len(p)} elements, {len(p.covers)} covers to {args.out}",
    )
    return 0


def _cmd_ranks(args) -> int:
    # palindromic: format the lower half once and write it, then its mirror
    c = gaussian_binomial(args.m, args.n)
    lines = list(map(str, c[: (len(c) + 1) // 2]))
    lines += lines[: len(c) // 2][::-1]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_identities(args) -> int:
    result = check_splitting_identities(args.m, args.n)
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
    d = construct(args.m)
    _emit(
        [serialize_decomposition(d)],
        args.out,
        f"wrote {len(d)} chains for {_lattice_label(d.shape, 'composition')} to {args.out}",
    )
    return 0


def _cmd_scd_brute(args) -> int:
    p = build_lattice(Shape(args.m, args.n), "composition")
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
    p = _load(parse_poset, args.poset_file)
    d = _load(partial(parse_decomposition, poset=p), args.scd_file)
    try:
        report = verify_scd(d, p)
    except ValueError as exc:  # shape mismatch
        print(exc)
        return 1
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_render(args) -> int:
    p = _load(parse_poset, args.poset_file)
    d = _load(partial(parse_decomposition, poset=p), args.scd) if args.scd else None
    # another shape, too tall for SVG, or an overlay key not in the poset:
    # the renderers' ValueError, exit 2, raised before the first block is written
    if args.format == "dot":
        sys.stdout.writelines(_dot_blocks(p, args.labels, d))
    else:
        sys.stdout.write(to_svg(p, args.labels, d))
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

    for name, help_text in (("lindstrom", "recursive construction, three sizes"),
                            ("n2", "alternating construction, two sizes")):
        construct = scd_sub.add_parser(name, help=help_text)
        construct.add_argument("m", type=_positive)
        construct.add_argument("--out", metavar="FILE")
        construct.set_defaults(func=_cmd_scd_construct)

    brute = scd_sub.add_parser("brute", help="backtracking search")
    brute.add_argument("m", type=_nonneg)
    brute.add_argument("n", type=_nonneg)
    brute.add_argument("--budget", type=_nonneg, default=DEFAULT_BUDGET)
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
