"""Deterministic Hasse-diagram renderers producing DOT and SVG text.

Both renderers emit one node per element and one edge per cover, lay levels
out by rank, color edges by root index, and optionally overlay a chain
decomposition (chain edges bold, the rest dimmed), which must be of the
poset's shape, as the verifier requires (``scd._require_same_shape``).
Output is a pure function of the inputs, byte for byte.  Both take their
edge attributes from one table, :func:`_edge_styles`, and write their lines
of a fixed template in the poset writer's blocks (``poset._blocks``):
``render`` writes the DOT blocks out as they come, so the command never
holds the whole drawing, and :func:`to_dot` joins them.  :func:`to_svg`
makes each coordinate string once and reuses it wherever it is written,
with the bytes of formatting it at each place.  Labels and Young cells take
a node's parts from ``partitions._parts``, and ``format_compositions``
spells partition labels, except for ``n <= 9``, where each part is one digit.
"""

from __future__ import annotations

from itertools import islice, repeat
from operator import itemgetter, mul

from .partitions import _parts, format_compositions
from .poset import GradedPoset, _blocks, _positions
from .roots import root_color
from .scd import ChainDecomposition, _require_same_shape


MAX_HEIGHT = 60  # to_svg refuses taller posets


class DiagramSizeError(ValueError):
    """Poset too tall for the requested drawing."""


def _node_labels(p: GradedPoset, labels: str) -> list[str]:
    """One label per element, in element order, in the mode ``labels``.

    Partition and Young labels are made straight from the composition, by
    :func:`_parts`: the partition as ``format_partition`` writes it, or as
    rows of Young cells.
    """
    comps = p.elements
    if labels == "composition":
        return list(p.key_strings)
    if labels == "young":
        return ["\\n".join(map("■".__mul__, _parts(c))) or "∅" for c in comps]
    if labels == "partition":
        n = p.shape.n if comps else 0
        if 0 < n <= 9:  # one C-level pass, a column per slot; element 0 has no parts
            columns = (map(mul, repeat(str(n - j)), map(itemgetter(j), comps)) for j in range(n))
            return ["∅", *islice(map("".join, zip(*columns)), 1, None)]
        return [text or "∅" for text in format_compositions(list(map(_parts, comps)))]
    raise ValueError(f"unknown label mode {labels!r}")


def _chain_steps(p: GradedPoset, highlight: ChainDecomposition | None) -> set[int] | None:
    """The overlay's steps as codes ``lower * len(p) + upper`` of element
    indices, or None without one; a cover ``(lo, hi, color)`` is on a chain
    when ``lo * len(p) + hi`` is in the set.

    Each key is looked up in the key index once (``poset._positions``).
    Every key of every chain must be an element of ``p``; otherwise
    ``ValueError`` names the first step (or lone key) that is not.
    """
    if highlight is None:
        return None
    size = len(p)
    steps = set()
    for chain in highlight.chains:
        at = _positions(p, chain)
        if None in at:
            k = max(at.index(None) - 1, 0)  # the first step, or lone key, with an absent key
            shown = " or ".join(map(str, chain[k:k + 2]))
            raise ValueError(f"highlight element {shown} not in poset")
        steps.update(lo * size + hi for lo, hi in zip(at[1:], at))
    return steps


def _edge_styles(p: GradedPoset, steps, plain: str, on: str, off: str):
    """``styles[color][on a chain]``, the attribute text of that kind of
    edge of ``p``: ``plain`` without an overlay (``steps`` None), else
    ``on`` or ``off``, each a template of the color's name.  Only the colors
    that covers of ``p`` carry get a style, so an empty poset gets none."""
    kinds = (plain,) if steps is None else (off, on)
    colors = range(1, p.shape.n + 1) if p.covers else ()
    return [(), *([template % root_color(color) for template in kinds] for color in colors)]


def _dot_blocks(p: GradedPoset, labels: str, highlight: ChainDecomposition | None):
    """The DOT text of ``p``: the header, then the rank, node and edge lines
    in the poset writer's blocks, and the closing brace.

    The overlay's shape, then its keys, are checked and the labels made
    before the first block, so a refused drawing yields nothing.
    """
    if highlight is not None:
        _require_same_shape(highlight, p)
    steps = _chain_steps(p, highlight)
    texts = _node_labels(p, labels)
    styles = _edge_styles(p, steps, 'color="%s"', 'color="%s", penwidth=2.4',
                          'color="%s", style=dotted, penwidth=0.8')
    keys = p.key_strings
    size = len(p)
    chained = steps or ()  # no overlay, or one with no steps: no edge is on a chain
    yield (f'digraph "{p.label()}" {{\n'
           "  rankdir=BT;\n"
           '  node [shape=box, fontname="monospace"];\n')
    yield from _blocks('  { rank=same; "%s"; }\n',
                       (('"; "'.join(map(keys.__getitem__, level)),)
                        for level in p.levels() if level))
    yield from _blocks('  "%s" [label="%s"];\n', zip(keys, texts))
    yield from _blocks('  "%s" -> "%s" [%s];\n',
                       ((keys[lo], keys[hi], styles[color][lo * size + hi in chained])
                        for lo, hi, color in p.covers))
    yield "}\n"


def to_dot(p: GradedPoset, labels="partition", highlight: ChainDecomposition | None = None) -> str:
    """Graphviz digraph: edges point upward, levels grouped rank=same.

    ``labels`` is "partition", "composition" or "young", ``highlight`` a chain
    overlay or None; ``ValueError`` for another mode, another shape or a key
    not in ``p``.  The text of :func:`_dot_blocks`, joined; ``render --format
    dot`` writes the blocks out one by one instead.
    """
    return "".join(_dot_blocks(p, labels, highlight))


_DX, _DY, _MARGIN, _RADIUS, _CELL = 64, 48, 40, 9, 7
_CELL_END = f'" width="{_CELL}" height="{_CELL}" fill="white" stroke="black"/>\n'


class _CellRows(dict):
    """``(x, row_len)`` -> the ``<rect>`` lines of a row of ``row_len`` Young
    cells centered on ``x``, cut where the row's y goes: ``y.join(pieces)``
    is the row.  Each row is made on first use, so a drawing formats the x
    of a cell once for every x and row length, not once for every node."""

    def __missing__(self, key):
        x, row_len = key
        x0 = x - row_len * _CELL / 2
        starts = ['      <rect x="%.1f" y="' % (x0 + cidx * _CELL) for cidx in range(row_len)]
        pieces = self[key] = [starts[0], *[_CELL_END + start for start in starts[1:]], _CELL_END]
        return pieces


def to_svg(p: GradedPoset, labels="partition", highlight: ChainDecomposition | None = None) -> str:
    """Standalone SVG 1.1, nodes on rank rows, centered within each level.

    Arguments and refusals as for :func:`to_dot`, with a poset over
    ``MAX_HEIGHT`` (:class:`DiagramSizeError`) refused after another shape.
    Every coordinate string is made once: a node's x and y for its lines,
    circle and text, the x strings of a row of Young cells for each x and
    row length (:class:`_CellRows`), and the y of each row for each level
    and number of rows.  The text is, byte for byte, that of formatting
    each coordinate where it is written.
    """
    if highlight is not None:
        _require_same_shape(highlight, p)
    if p.height > MAX_HEIGHT:
        raise DiagramSizeError(
            f"poset height {p.height} exceeds the drawing limit {MAX_HEIGHT}"
        )
    steps = _chain_steps(p, highlight)
    young = labels == "young"
    texts = None if young else _node_labels(p, labels)
    comps = p.elements
    keys = p.key_strings
    size = len(p)
    levels = p.levels()
    widest = max((len(level) for level in levels), default=1) or 1
    width = 2 * _MARGIN + (widest - 1) * _DX
    height_px = 2 * _MARGIN + p.height * _DY
    # elements are in rank order, so the levels list every node in order
    xs, y_text = [], []
    for r, level in enumerate(levels):
        xs += [width / 2 + (slot - (len(level) - 1) / 2) * _DX for slot in range(len(level))]
        y_text += repeat("%.1f" % (_MARGIN + (p.height - r) * _DY), len(level))
    x_text = ["%.1f" % x for x in xs]
    styles = _edge_styles(p, steps, 'stroke="%s"', 'stroke="%s" stroke-width="2.6"',
                          'stroke="%s" stroke-width="1" stroke-opacity="0.35"')
    chained = steps or ()  # no overlay, or one with no steps: no edge is on a chain
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height_px}" viewBox="0 0 {width} {height_px}">\n'
        f"  <title>{p.label()}</title>\n"
        '  <g class="edges">\n'
    ]
    out += _blocks('    <line x1="%s" y1="%s" x2="%s" y2="%s" %s/>\n',
                   ((x_text[lo], y_text[lo], x_text[hi], y_text[hi],
                     styles[color][lo * size + hi in chained])
                    for lo, hi, color in p.covers))
    out.append('  </g>\n  <g class="nodes">\n')
    cells = _CellRows()
    for r, level in enumerate(levels):
        y = _MARGIN + (p.height - r) * _DY
        if not young:
            label_y = "%.1f" % (y + 3)
            out += [f'    <g class="node" data-key="{keys[i]}">\n'
                    f'      <circle cx="{x_text[i]}" cy="{y_text[i]}" r="{_RADIUS}" '
                    'fill="white" stroke="black"/>\n'
                    f'      <text x="{x_text[i]}" y="{label_y}" text-anchor="middle" '
                    f'font-size="8">{texts[i]}</text>\n    </g>\n'
                    for i in level]
        elif r == 0:
            out += [f'    <g class="node" data-key="{keys[i]}">\n'
                    f'      <text x="{x_text[i]}" y="{y_text[i]}" text-anchor="middle" '
                    'font-size="10">∅</text>\n    </g>\n'
                    for i in level]
        else:
            # a row of cells per part (_parts); tops[k] holds the y strings
            # of the rows of a node with k rows on this level
            tops = {}
            for i in level:
                rows = _parts(comps[i])
                ys = tops.get(len(rows))
                if ys is None:
                    top = y - len(rows) * _CELL / 2
                    ys = tops[len(rows)] = ["%.1f" % (top + ridx * _CELL)
                                            for ridx in range(len(rows))]
                out.append(f'    <g class="node" data-key="{keys[i]}">\n')
                out += map(str.join, ys, map(cells.__getitem__, zip(repeat(xs[i]), rows)))
                out.append("    </g>\n")
    out.append("  </g>\n</svg>\n")
    return "".join(out)
