import os
import random
import re
import sys
from itertools import chain, repeat
from math import comb

import pytest

from conftest import CORRUPTIONS, corrupted, traced_peak
from younglat import partitions, poset, render
from younglat.cli import main
from younglat.partitions import Shape, format_composition, format_partition, from_multiplicity
from younglat.poset import build_lattice, parse_poset, serialize_poset
from younglat.render import (
    DiagramSizeError,
    _chain_steps,
    _node_labels,
    to_dot,
    to_svg,
)
from younglat.roots import root_color
from younglat.scd import (
    ChainDecomposition,
    brute_force_scd,
    lindstrom,
    scd_n2,
    serialize_decomposition,
)


def young_rows(partition):
    """The rows of Young cells of a partition, one glyph per cell."""
    return ["■" * v for v in partition]


def dot_counts(text):
    return text.count("[label="), text.count(" -> ")


def svg_counts(text):
    return text.count('class="node"'), text.count("<line ")


class TestStructuralCounts:
    def test_l12_chain(self):
        p = build_lattice(Shape(1, 2))
        assert dot_counts(to_dot(p)) == (3, 2)
        assert svg_counts(to_svg(p)) == (3, 2)

    def test_l33_nodes_and_colors(self):
        p = build_lattice(Shape(3, 3))
        dot = to_dot(p)
        nodes, edges = dot_counts(dot)
        assert nodes == 20
        assert edges == len(p.covers)
        colors = set(re.findall(r'color="(\w+)"', dot))
        assert colors == {"green", "red", "blue"}

    def test_l43_edges_match_poset(self):
        p = build_lattice(Shape(4, 3))
        assert dot_counts(to_dot(p))[1] == len(p.covers)

    def test_counts_match_all_small_shapes(self):
        for m in range(1, 5):
            for n in range(1, 5):
                for coords in ("partition", "composition"):
                    p = build_lattice(Shape(m, n), coords)
                    assert dot_counts(to_dot(p)) == (len(p), len(p.covers))
                    assert svg_counts(to_svg(p)) == (len(p), len(p.covers))


class TestDeterminism:
    def test_identical_across_runs(self):
        p = build_lattice(Shape(3, 3))
        assert to_dot(p, labels="composition") == to_dot(p, labels="composition")
        assert to_svg(p, labels="composition") == to_svg(p, labels="composition")

    def test_label_mode_does_not_change_structure(self):
        p = build_lattice(Shape(3, 2))
        counts = {
            dot_counts(to_dot(p, labels=mode))
            for mode in ("partition", "composition", "young")
        }
        assert len(counts) == 1


class TestHighlight:
    def test_two_chains_highlighted_on_l32(self):
        # rank numbers 1,1,2,2,2,1,1 force chain starts at ranks 0 and 2
        p = build_lattice(Shape(3, 2), "composition")
        d = scd_n2(3)
        assert len(d.chains) == 2
        svg = to_svg(p, highlight=d)
        bold = svg.count('stroke-width="2.6"')
        assert bold == sum(len(ch) - 1 for ch in d.chains) == 8
        dimmed = svg.count('stroke-opacity="0.35"')
        assert bold + dimmed == len(p.covers)

    def test_dot_highlight_uses_bold_and_dotted(self):
        p = build_lattice(Shape(3, 2), "composition")
        dot = to_dot(p, highlight=scd_n2(3))
        assert dot.count("penwidth=2.4") == 8
        assert dot.count("style=dotted") == len(p.covers) - 8

    def test_highlight_shape_mismatch_raises(self):
        p = build_lattice(Shape(2, 2), "composition")
        with pytest.raises(ValueError):
            to_dot(p, highlight=scd_n2(3))

    @pytest.mark.parametrize("draw", [to_dot, to_svg])
    def test_highlight_of_another_shape_is_refused_as_the_verifier_does(self, draw):
        p = build_lattice(Shape(2, 3), "composition")
        with pytest.raises(ValueError) as err:
            draw(p, highlight=lindstrom(3))
        assert str(err.value) == "shape mismatch: poset L'(2,3) vs decomposition L'(3,3)"


class TestLabels:
    def test_young_glyphs_in_dot(self):
        p = build_lattice(Shape(2, 2))
        dot = to_dot(p, labels="young")
        assert '[label="∅"]' in dot
        assert '[label="■■\\n■■"]' in dot

    def test_partition_labels(self):
        p = build_lattice(Shape(2, 2))
        dot = to_dot(p, labels="partition")
        assert '[label="21"]' in dot

    def test_unknown_mode_rejected(self):
        p = build_lattice(Shape(2, 2))
        with pytest.raises(ValueError):
            to_dot(p, labels="roman")

    def test_labels_match_partition_conversion(self):
        # n = 10 and n = 12 mix digit labels with bracketed ones
        shapes = [(m, n) for m in range(7) for n in range(7)]
        shapes += [(m, n) for m in (1, 2, 3) for n in (10, 12)]
        for shape in shapes:
            for coords in ("partition", "composition"):
                p = build_lattice(Shape(*shape), coords)
                parts = [from_multiplicity(c, p.shape) for c in p.elements]
                assert _node_labels(p, "partition") == [
                    format_partition(a) for a in parts
                ]
                assert _node_labels(p, "young") == [
                    "\\n".join(young_rows(a)) or "∅" for a in parts
                ]

    def test_svg_young_converts_no_element(self, monkeypatch):
        # the cells come from the composition key, not from a partition
        calls = []

        def counting(c, shape):
            calls.append(c)
            return from_multiplicity(c, shape)

        monkeypatch.setattr(partitions, "from_multiplicity", counting)
        assert not hasattr(render, "from_multiplicity")
        p = build_lattice(Shape(3, 3), "composition")
        to_svg(p, labels="young")
        assert calls == []


class TestSvgLimits:
    def test_height_limit_enforced(self):
        p = build_lattice(Shape(8, 8))
        with pytest.raises(DiagramSizeError) as err:
            to_svg(p)
        assert str(err.value) == "poset height 64 exceeds the drawing limit 60"

    def test_limit_is_configurable(self, monkeypatch):
        # the limit is the module constant, read at each call
        monkeypatch.setattr(render, "MAX_HEIGHT", 64)
        p = build_lattice(Shape(8, 8))
        text = to_svg(p)
        assert svg_counts(text)[0] == len(p)

    def test_l12_nodes_on_one_vertical_line(self):
        svg = to_svg(build_lattice(Shape(1, 2)))
        xs = set(re.findall(r'circle cx="([0-9.]+)"', svg))
        assert len(xs) == 1


class TestOverlayKeys:
    @pytest.mark.parametrize("draw", [to_dot, to_svg])
    def test_lone_key_not_in_poset_is_refused(self, draw):
        p = build_lattice(Shape(2, 2), "composition")
        overlay = ChainDecomposition(Shape(2, 2), [((0, 1, 1), (0, 0, 2)), ((2, 0, 2),)])
        with pytest.raises(ValueError) as err:
            draw(p, highlight=overlay)
        assert str(err.value) == "highlight element (2, 0, 2) not in poset"

    @pytest.mark.parametrize("draw", [to_dot, to_svg])
    def test_step_with_a_key_not_in_poset_is_refused(self, draw):
        p = build_lattice(Shape(2, 2), "composition")
        overlay = ChainDecomposition(Shape(2, 2), [((0, 2, 0), (0, 1, 1), (3, 0, 0))])
        with pytest.raises(ValueError) as err:
            draw(p, highlight=overlay)
        assert str(err.value) == "highlight element (0, 1, 1) or (3, 0, 0) not in poset"


# The overlay as it was drawn from key pairs: the frozen reference for the
# element-index codes of render._chain_steps.


def reference_chain_steps(p, highlight):
    """The overlay's ``(lower key, upper key)`` steps, or None without one."""
    if highlight is None:
        return None
    steps = set()
    for chain in highlight.chains:
        if not all(map(p.__contains__, chain)):
            for upper, lower in zip(chain, chain[1:]):
                if upper not in p or lower not in p:
                    raise ValueError(f"highlight element {upper} or {lower} not in poset")
            raise ValueError(f"highlight element {chain[0]} not in poset")
        steps.update(zip(chain[1:], chain))
    return steps


def reference_on_chain(p, highlight):
    """For each cover of ``p``, in order: is its key pair a step of the overlay?"""
    steps = reference_chain_steps(p, highlight)
    comps = p.elements
    return [(comps[lo], comps[hi]) in steps for lo, hi, _ in p.covers]


def reference_dot(p, labels, highlight):
    """``to_dot`` with the overlay styles put onto the plain drawing's edges."""
    on_chain = iter(reference_on_chain(p, highlight))
    lines = to_dot(p, labels).splitlines(keepends=True)
    for i, line in enumerate(lines):
        if " -> " in line:
            style = ", penwidth=2.4" if next(on_chain) else ", style=dotted, penwidth=0.8"
            lines[i] = line.replace('"];', f'"{style}];')
    assert next(on_chain, None) is None
    return "".join(lines)


def reference_svg(p, labels, highlight):
    """``to_svg`` with the overlay strokes put onto the lines of the frozen
    plain drawing, :func:`reference_to_svg`."""
    on_chain = iter(reference_on_chain(p, highlight))
    lines = reference_to_svg(p, labels).splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("    <line "):
            extra = (' stroke-width="2.6"' if next(on_chain)
                     else ' stroke-width="1" stroke-opacity="0.35"')
            lines[i] = line.replace('"/>', f'"{extra}/>')
    assert next(on_chain, None) is None
    return "".join(lines)


def _overlays_that_are_not_decompositions():
    chains = lindstrom(4).chains
    longest = max(chains, key=len)
    shape = Shape(4, 3)
    p44 = build_lattice(Shape(4, 4), "composition")
    found = brute_force_scd(p44).decomposition
    return [
        pytest.param(shape, ChainDecomposition(shape, chains[::2]), id="subset"),
        # every other key: each step joins keys two ranks apart, never a cover
        pytest.param(shape, ChainDecomposition(shape, [longest[::2]]), id="skipping"),
        pytest.param(shape, ChainDecomposition(shape, chains + (longest,)), id="repeated"),
        pytest.param(shape, ChainDecomposition(shape, [(k,) for k in longest]),
                     id="singletons"),
        pytest.param(Shape(4, 4), ChainDecomposition(Shape(4, 4), found.chains[1::3]),
                     id="brute-subset"),
        pytest.param(Shape(4, 4), found, id="brute"),
    ]


class TestOverlayMatchesKeyPairReference:
    @pytest.mark.parametrize("shape, overlay", _overlays_that_are_not_decompositions())
    @pytest.mark.parametrize("coords", ["partition", "composition"])
    def test_partial_overlays(self, shape, overlay, coords):
        p = build_lattice(shape, coords)
        for labels in ("partition", "composition", "young"):
            assert to_dot(p, labels, overlay) == reference_dot(p, labels, overlay)
            assert (to_svg(p, labels, overlay) == reference_svg(p, labels, overlay)
                    == reference_to_svg(p, labels, overlay))

    def test_skipping_chain_has_no_bold_edge(self):
        p = build_lattice(Shape(4, 3), "composition")
        longest = max(lindstrom(4).chains, key=len)
        overlay = ChainDecomposition(Shape(4, 3), [longest[::2]])
        assert "penwidth=2.4" not in to_dot(p, highlight=overlay)
        assert 'stroke-width="2.6"' not in to_svg(p, highlight=overlay)

    @pytest.mark.parametrize("n, top, construct", [(3, 6, lindstrom), (2, 8, scd_n2)])
    def test_construction_overlays(self, n, top, construct):
        for m in range(1, top + 1):
            p = build_lattice(Shape(m, n), "composition")
            overlay = construct(m)
            assert to_dot(p, "composition", overlay) == reference_dot(p, "composition", overlay)
            assert to_svg(p, "composition", overlay) == reference_svg(p, "composition", overlay)

    @pytest.mark.parametrize("chains", [
        [((0, 1, 1), (0, 0, 2)), ((2, 0, 2),)],
        [((0, 2, 0), (0, 1, 1), (3, 0, 0))],
        [((3, 0, 0), (0, 1, 1))],
        [((0, 2, 0), (0, 1, 1)), ((0, 1, 1, 0),)],
    ])
    @pytest.mark.parametrize("draw", [to_dot, to_svg])
    def test_absent_key_message(self, chains, draw):
        p = build_lattice(Shape(2, 2), "composition")
        overlay = ChainDecomposition(Shape(2, 2), chains)
        with pytest.raises(ValueError) as expected:
            reference_chain_steps(p, overlay)
        with pytest.raises(ValueError) as err:
            draw(p, highlight=overlay)
        assert str(err.value) == str(expected.value)

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    def test_corrupted_overlays(self, kind):
        # the step codes decode to the reference's key pairs, or both refuse
        # the overlay with one message
        for m in range(1, 9):
            p = build_lattice(Shape(m, 3), "composition")
            size = len(p)
            for seed in range(5):
                overlay = corrupted(lindstrom(m), [kind], random.Random(seed))
                try:
                    want = reference_chain_steps(p, overlay)
                except ValueError as expected:
                    with pytest.raises(ValueError) as err:
                        _chain_steps(p, overlay)
                    assert str(err.value) == str(expected)
                    continue
                steps = _chain_steps(p, overlay)
                assert {(p.elements[c // size], p.elements[c % size]) for c in steps} == want


def reference_to_svg(p, labels="partition", highlight=None):
    """``to_svg`` as it was before it formatted each position once: every
    coordinate of every line, circle, text and cell formatted where it is
    written, every line in one list, joined once."""
    _DX, _DY, _MARGIN, _RADIUS = 64, 48, 40, 9
    if p.height > render.MAX_HEIGHT:
        raise DiagramSizeError(
            f"poset height {p.height} exceeds the drawing limit {render.MAX_HEIGHT}"
        )
    steps = render._chain_steps(p, highlight)
    young = labels == "young"
    labels = None if young else _node_labels(p, labels)
    comps = p.elements
    n = p.shape.n
    size = len(p)
    levels = p.levels()
    widest = max((len(level) for level in levels), default=1) or 1
    width = 2 * _MARGIN + (widest - 1) * _DX
    height_px = 2 * _MARGIN + p.height * _DY
    pos = {}
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
            if lo * size + hi in steps:
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
    for i, key in enumerate(p.key_strings):
        x, y = pos[i]
        out.append(f'    <g class="node" data-key="{key}">')
        if young:
            rows = list(chain.from_iterable(map(repeat, range(n, 0, -1), comps[i])))
            if not rows:
                out.append(
                    f'      <text x="{x:.1f}" y="{y:.1f}" text-anchor="middle" '
                    f'font-size="10">∅</text>'
                )
            for ridx, row_len in enumerate(rows):
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


class TestSvgMatchesTheFrozenDrawing:
    """``to_svg`` formats each position once and writes each node's cells by
    one ``%``; the text is byte for byte that of :func:`reference_to_svg`."""

    @pytest.mark.parametrize("coords", ["partition", "composition"])
    def test_every_shape_up_to_6_6(self, monkeypatch, coords):
        # the SVG is one string; poset._blocks is for text that streams
        def refuse(*args):
            raise AssertionError("to_svg called poset._blocks")

        monkeypatch.setattr(render, "_blocks", refuse)
        for m in range(7):
            for n in range(7):
                p = build_lattice(Shape(m, n), coords)
                overlays = [None]
                if m and n == 3:
                    overlays.append(lindstrom(m))
                if m and n == 2:
                    overlays.append(scd_n2(m))
                for overlay in overlays:
                    for labels in ("partition", "composition", "young"):
                        assert (to_svg(p, labels, overlay)
                                == reference_to_svg(p, labels, overlay)), (m, n, labels)

    def test_peak_memory_of_the_largest_small_diagram(self):
        # L'(3,16) with Young cells, the largest drawing of the small-diagram
        # sweep: 2,197,394 characters.  One string per line, then the joined
        # text and its copy with the last newline, peaked at 5.7 times its
        # length; one string per row of cells and one join peak at 3.7.
        p = build_lattice(Shape(3, 16), "composition")
        size = len(to_svg(p, "young"))
        assert size == 2_197_394
        assert traced_peak(to_svg, p, "young") < 4.5 * size


def reference_young_svg(p, highlight):
    """``to_svg`` with Young labels as it was drawn: each key converted with
    ``from_multiplicity`` and its cells taken from the partition's rows, the
    overlay from key pairs."""
    steps = reference_chain_steps(p, highlight)
    comps = p.elements
    levels = [[i for i, r in enumerate(p.ranks) if r == rank] for rank in range(p.height + 1)]
    widest = max((len(level) for level in levels), default=1) or 1
    width = 80 + (widest - 1) * 64
    height_px = 80 + p.height * 48
    pos = {}
    for r, level in enumerate(levels):
        y = 40 + (p.height - r) * 48
        for slot, i in enumerate(level):
            pos[i] = (width / 2 + (slot - (len(level) - 1) / 2) * 64, y)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height_px}" viewBox="0 0 {width} {height_px}">',
        f"  <title>{p.label()}</title>",
        '  <g class="edges">',
    ]
    for lo, hi, color in p.covers:
        (x1, y1), (x2, y2) = pos[lo], pos[hi]
        extra = ""
        if steps is not None:
            extra = (' stroke-width="2.6"' if (comps[lo], comps[hi]) in steps
                     else ' stroke-width="1" stroke-opacity="0.35"')
        out.append(f'    <line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                   f'stroke="{root_color(color)}"{extra}/>')
    out += ["  </g>", '  <g class="nodes">']
    for i, c in enumerate(comps):
        x, y = pos[i]
        out.append(f'    <g class="node" data-key="{format_composition(c)}">')
        rows = young_rows(from_multiplicity(c, p.shape))
        if not rows:
            out.append(f'      <text x="{x:.1f}" y="{y:.1f}" text-anchor="middle" '
                       f'font-size="10">∅</text>')
        for ridx, row in enumerate(rows):
            x0 = x - len(row) * 7 / 2
            y0 = y - len(rows) * 7 / 2 + ridx * 7
            out += [f'      <rect x="{x0 + cidx * 7:.1f}" y="{y0:.1f}" '
                    f'width="7" height="7" fill="white" stroke="black"/>'
                    for cidx in range(len(row))]
        out.append("    </g>")
    out += ["  </g>", "</svg>"]
    return "\n".join(out) + "\n"


# the shapes of the small-diagram sweep: every drawable box of at most 1,001 elements
SMALL_SHAPES = [(m, n) for m in range(1, 61) for n in range(1, 61)
                if m * n <= 60 and comb(m + n, m) <= 1001]


class TestYoungCellsMatchThePartitionReference:
    def test_every_small_shape(self):
        assert len(SMALL_SHAPES) == 222
        for m, n in SMALL_SHAPES:
            p = build_lattice(Shape(m, n), "composition")
            overlay = scd_n2(m) if n == 2 else lindstrom(m) if n == 3 else None
            assert to_svg(p, "young", overlay) == reference_young_svg(p, overlay), (m, n)

    def test_partition_coordinates_and_no_overlay(self):
        for shape in ((3, 3), (1, 5), (5, 1), (4, 2)):
            p = build_lattice(Shape(*shape))
            assert to_svg(p, "young") == reference_young_svg(p, None), shape


def reference_to_dot(p, labels="partition", highlight=None):
    """``to_dot`` as it was before it wrote blocks: every line in one list,
    joined once."""
    steps = render._chain_steps(p, highlight)
    styles = {}
    for color in range(1, p.shape.n + 1):
        name = root_color(color)
        if steps is None:
            styles[color, False] = f'color="{name}"'
        else:
            styles[color, True] = f'color="{name}", penwidth=2.4'
            styles[color, False] = f'color="{name}", style=dotted, penwidth=0.8'
    keys = p.key_strings
    size = len(p)
    chained = steps or ()
    out = [
        f'digraph "{p.label()}" {{',
        "  rankdir=BT;",
        '  node [shape=box, fontname="monospace"];',
    ]
    out += ['  { rank=same; "%s"; }' % '"; "'.join(map(keys.__getitem__, level))
            for level in p.levels() if level]
    out += [f'  "{key}" [label="{label}"];'
            for key, label in zip(keys, _node_labels(p, labels))]
    out += [f'  "{keys[lo]}" -> "{keys[hi]}" [{styles[color, lo * size + hi in chained]}];'
            for lo, hi, color in p.covers]
    out.append("}")
    return "\n".join(out) + "\n"


class TestDotBlocks:
    """``to_dot`` and ``render --format dot`` make the DOT text in blocks of
    ``poset._BLOCK_LINES`` lines; where the blocks end changes no byte."""

    CASES = [
        pytest.param((6, 3), "partition", None, id="L(6,3)"),
        pytest.param((6, 3), "composition", None, id="L'(6,3)"),
        pytest.param((0, 3), "composition", None, id="L'(0,3)"),
        pytest.param((6, 3), "composition", lindstrom, id="L'(6,3)-lindstrom"),
        pytest.param((8, 2), "composition", scd_n2, id="L'(8,2)-n2"),
    ]

    @pytest.mark.parametrize("block_lines", [1, 2, 3, 7, 4096])
    @pytest.mark.parametrize("labels", ["partition", "composition", "young"])
    @pytest.mark.parametrize("shape, coords, construct", CASES)
    def test_any_block_size_gives_the_joined_text(self, monkeypatch, tmp_path, capsys,
                                                  block_lines, labels, shape, coords,
                                                  construct):
        monkeypatch.setattr(poset, "_BLOCK_LINES", block_lines)
        p = build_lattice(Shape(*shape), coords)
        overlay = construct(shape[0]) if construct else None
        want = reference_to_dot(p, labels, overlay)
        header, *blocks = render._dot_blocks(p, labels, overlay)
        assert header.count("\n") == 3
        assert all(0 < block.count("\n") <= block_lines for block in blocks)
        assert to_dot(p, labels, overlay) == header + "".join(blocks) == want
        poset_file, scd_file = tmp_path / "p.poset", tmp_path / "d.scd"
        poset_file.write_text(serialize_poset(p), encoding="utf-8")
        argv = ["render", str(poset_file), "--format", "dot", "--labels", labels]
        if overlay:
            scd_file.write_text(serialize_decomposition(overlay), encoding="utf-8")
            argv += ["--scd", str(scd_file)]
        assert main(argv) == 0
        assert capsys.readouterr() == (want, "")

    @pytest.mark.parametrize("block_lines", [1, 4096])
    @pytest.mark.parametrize("coords", ["partition", "composition"])
    def test_every_shape_up_to_6_6(self, monkeypatch, coords, block_lines):
        monkeypatch.setattr(poset, "_BLOCK_LINES", block_lines)
        for m in range(7):
            for n in range(7):
                p = build_lattice(Shape(m, n), coords)
                overlays = [None]
                if m and n == 3:
                    overlays.append(lindstrom(m))
                if m and n == 2:
                    overlays.append(scd_n2(m))
                for overlay in overlays:
                    for labels in ("partition", "composition", "young"):
                        assert (to_dot(p, labels, overlay)
                                == reference_to_dot(p, labels, overlay)), (m, n, labels)

    def test_render_holds_one_block_at_a_time(self, tmp_path, monkeypatch):
        # L'(30,3) with Lindström's chains: 5,456 elements, 14,880 covers and
        # 1.4 MB of DOT.  Holding every line and then the joined text took
        # 6.2 times the DOT text beyond the peak of the parse; blocks take 1.7.
        p = build_lattice(Shape(30, 3), "composition")
        text = serialize_poset(p)
        poset_file, scd_file = tmp_path / "p.poset", tmp_path / "d.scd"
        poset_file.write_text(text, encoding="utf-8")
        scd_file.write_text(serialize_decomposition(lindstrom(30)), encoding="utf-8")
        size = len(to_dot(p, highlight=lindstrom(30)))
        with open(os.devnull, "w", encoding="utf-8") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            argv = ["render", str(poset_file), "--scd", str(scd_file), "--format", "dot"]
            render_peak = traced_peak(main, argv)
        assert render_peak - traced_peak(parse_poset, text) < 3 * size


class TestEmptyLatticeRender:
    """The empty lattice ``L(0, n)`` has no covers, so it draws no edge
    style: its drawing takes the same small memory for any ``n``, where one
    style per root color took 40 MB at ``n = 200,000``."""

    DOT = ('digraph "%s" {\n  rankdir=BT;\n'
           '  node [shape=box, fontname="monospace"];\n}\n')
    SVG = ('<?xml version="1.0" encoding="UTF-8"?>\n'
           '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           'width="80" height="80" viewBox="0 0 80 80">\n'
           '  <title>%s</title>\n  <g class="edges">\n  </g>\n'
           '  <g class="nodes">\n  </g>\n</svg>\n')

    @pytest.mark.parametrize("fmt", ["dot", "svg"])
    @pytest.mark.parametrize("label", ["L(0,200000)", "L'(0,200000)"])
    def test_bounded_memory(self, tmp_path, monkeypatch, capsys, fmt, label):
        poset_file = tmp_path / "empty.poset"
        poset_file.write_text(f"poset {label} height=0 count=0\n", encoding="utf-8")
        argv = ["render", str(poset_file), "--format", fmt]
        assert main(argv) == 0
        want = (self.DOT if fmt == "dot" else self.SVG) % label
        assert capsys.readouterr() == (want, "")
        with open(os.devnull, "w", encoding="utf-8") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            assert traced_peak(main, argv) < 2**20
