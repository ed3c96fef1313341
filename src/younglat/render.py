"""Deterministic Hasse-diagram renderers producing DOT and SVG text.

Both renderers emit one node per element and one edge per cover, lay levels
out by rank, color edges by root index, and optionally overlay a chain
decomposition (chain edges bold, the rest dimmed).  Output is a pure
function of the inputs, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import mul

from .partitions import format_composition, from_multiplicity
from .poset import GradedPoset
from .roots import root_color
from .scd import ChainDecomposition


MAX_HEIGHT = 60  # to_svg refuses taller posets


class DiagramSizeError(ValueError):
    """Poset too tall for the requested drawing."""


@dataclass(frozen=True)
class RenderSpec:
    """How to draw: node labels and an optional chain highlight."""

    labels: str = "partition"  # partition | composition | young
    highlight: ChainDecomposition | None = None


def _young_rows(partition) -> list[str]:
    return ["■" * v for v in partition]


def _repeat_join(c, tokens: list[str], sep: str) -> str:
    # token j repeated c[j] times; every token ends in sep, the last one is cut
    text = "".join(map(mul, tokens, c))
    return text[: len(text) - len(sep)]


def _node_labels(p: GradedPoset, spec: RenderSpec) -> list[str]:
    """One label per element, in element order.

    Partition and Young labels are built straight from the composition, part
    size ``n - j`` repeated ``c[j]`` times for ``j < n``; they equal
    ``format_partition`` and ``_young_rows`` of ``from_multiplicity(c)``.
    """
    comps = p.elements
    if spec.labels == "composition":
        return [format_composition(c) for c in comps]
    n = p.shape.n if comps else 0
    if spec.labels == "young":
        rows = ["■" * (n - j) + "\\n" for j in range(n)]
        return [_repeat_join(c, rows, "\\n") or "∅" for c in comps]
    if spec.labels == "partition":
        digits = [str(n - j) for j in range(n)]
        items = [d + "," for d in digits]
        wide = max(n - 9, 0)  # leading slots whose part size exceeds 9
        return [
            "[" + _repeat_join(c, items, ",") + "]" if any(c[:wide])
            else _repeat_join(c, digits, "") or "∅"
            for c in comps
        ]
    raise ValueError(f"unknown label mode {spec.labels!r}")


def _absent_message(p: GradedPoset, chain) -> str:
    for upper, lower in zip(chain, chain[1:]):
        if upper not in p or lower not in p:
            return f"highlight element {upper} or {lower} not in poset"
    return f"highlight element {chain[0]} not in poset"


def _chain_steps(p: GradedPoset, spec: RenderSpec) -> set[tuple] | None:
    """The overlay's ``(lower key, upper key)`` steps, or None without one.

    Every key of every chain must be an element of ``p``; otherwise
    ``ValueError`` names the first step (or lone key) that is not.
    """
    if spec.highlight is None:
        return None
    steps = set()
    for chain in spec.highlight.chains:
        if not all(map(p.__contains__, chain)):
            raise ValueError(_absent_message(p, chain))
        steps.update(zip(chain[1:], chain))
    return steps


def to_dot(p: GradedPoset, spec: RenderSpec | None = None) -> str:
    """Graphviz digraph: edges point upward, levels grouped rank=same."""
    spec = spec or RenderSpec()
    steps = _chain_steps(p, spec)
    # the attribute text of each (color, on a chain) kind of edge
    styles = {}
    for color in range(1, p.shape.n + 1):
        name = root_color(color)
        if steps is None:
            styles[color, False] = f'color="{name}"'
        else:
            styles[color, True] = f'color="{name}", penwidth=2.4'
            styles[color, False] = f'color="{name}", style=dotted, penwidth=0.8'
    comps = p.elements
    keys = list(map(format_composition, comps))
    on_chain = (repeat(False) if steps is None else
                [(comps[lo], comps[hi]) in steps for lo, hi, _ in p.covers])
    out = [
        f'digraph "{p.label()}" {{',
        "  rankdir=BT;",
        '  node [shape=box, fontname="monospace"];',
    ]
    out += ['  { rank=same; "%s"; }' % '"; "'.join(map(keys.__getitem__, level))
            for level in p.levels() if level]
    out += [f'  "{key}" [label="{label}"];'
            for key, label in zip(keys, _node_labels(p, spec))]
    out += [f'  "{keys[lo]}" -> "{keys[hi]}" [{styles[color, on]}];'
            for (lo, hi, color), on in zip(p.covers, on_chain)]
    out.append("}")
    return "\n".join(out) + "\n"


_DX, _DY, _MARGIN, _RADIUS = 64, 48, 40, 9


def to_svg(p: GradedPoset, spec: RenderSpec | None = None) -> str:
    """Standalone SVG 1.1, nodes on rank rows, centered within each level."""
    spec = spec or RenderSpec()
    if p.height > MAX_HEIGHT:
        raise DiagramSizeError(
            f"poset height {p.height} exceeds the drawing limit {MAX_HEIGHT}"
        )
    steps = _chain_steps(p, spec)
    young = spec.labels == "young"
    labels = None if young else _node_labels(p, spec)
    comps = p.elements
    levels = p.levels()
    widest = max((len(level) for level in levels), default=1) or 1
    width = 2 * _MARGIN + (widest - 1) * _DX
    height_px = 2 * _MARGIN + p.height * _DY
    pos: dict[int, tuple[float, float]] = {}
    for r, level in enumerate(levels):
        y = _MARGIN + (p.height - r) * _DY
        for slot, i in enumerate(level):
            x = width / 2 + (slot - (len(level) - 1) / 2) * _DX
            pos[i] = (x, y)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height_px}" viewBox="0 0 {width} {height_px}">',
        f"  <title>{p.label()}</title>",
        '  <g class="edges">',
    ]
    for lo, hi, color in p.covers:
        (x1, y1), (x2, y2) = pos[lo], pos[hi]
        stroke = root_color(color)
        extra = ""
        if steps is not None:
            if (comps[lo], comps[hi]) in steps:
                extra = ' stroke-width="2.6"'
            else:
                extra = ' stroke-width="1" stroke-opacity="0.35"'
        out.append(
            f'    <line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="{stroke}"{extra}/>'
        )
    out.append("  </g>")
    out.append('  <g class="nodes">')
    cell = 7
    for i in range(len(p)):
        x, y = pos[i]
        out.append(f'    <g class="node" data-key="{format_composition(comps[i])}">')
        if young:
            rows = _young_rows(from_multiplicity(comps[i], p.shape))
            if not rows:
                out.append(
                    f'      <text x="{x:.1f}" y="{y:.1f}" text-anchor="middle" '
                    f'font-size="10">∅</text>'
                )
            for ridx, row in enumerate(rows):
                row_len = len(row)
                x0 = x - row_len * cell / 2
                y0 = y - len(rows) * cell / 2 + ridx * cell
                for cidx in range(row_len):
                    out.append(
                        f'      <rect x="{x0 + cidx * cell:.1f}" y="{y0:.1f}" '
                        f'width="{cell}" height="{cell}" fill="white" stroke="black"/>'
                    )
        else:
            out.append(
                f'      <circle cx="{x:.1f}" cy="{y:.1f}" r="{_RADIUS}" '
                f'fill="white" stroke="black"/>'
            )
            out.append(
                f'      <text x="{x:.1f}" y="{y + 3:.1f}" text-anchor="middle" '
                f'font-size="8">{labels[i]}</text>'
            )
        out.append("    </g>")
    out.append("  </g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
