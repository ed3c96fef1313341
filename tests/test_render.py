import re

import pytest

from younglat import render
from younglat.partitions import Shape, format_partition, from_multiplicity
from younglat.poset import build_lattice
from younglat.render import (
    DiagramSizeError,
    RenderSpec,
    _node_labels,
    _young_rows,
    to_dot,
    to_svg,
)
from younglat.scd import ChainDecomposition, scd_n2


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
        spec = RenderSpec(labels="composition")
        assert to_dot(p, spec) == to_dot(p, spec)
        assert to_svg(p, spec) == to_svg(p, spec)

    def test_label_mode_does_not_change_structure(self):
        p = build_lattice(Shape(3, 2))
        counts = {
            dot_counts(to_dot(p, RenderSpec(labels=mode)))
            for mode in ("partition", "composition", "young")
        }
        assert len(counts) == 1


class TestHighlight:
    def test_two_chains_highlighted_on_l32(self):
        # rank numbers 1,1,2,2,2,1,1 force chain starts at ranks 0 and 2
        p = build_lattice(Shape(3, 2), "composition")
        d = scd_n2(3)
        assert len(d.chains) == 2
        svg = to_svg(p, RenderSpec(highlight=d))
        bold = svg.count('stroke-width="2.6"')
        assert bold == sum(len(ch) - 1 for ch in d.chains) == 8
        dimmed = svg.count('stroke-opacity="0.35"')
        assert bold + dimmed == len(p.covers)

    def test_dot_highlight_uses_bold_and_dotted(self):
        p = build_lattice(Shape(3, 2), "composition")
        dot = to_dot(p, RenderSpec(highlight=scd_n2(3)))
        assert dot.count("penwidth=2.4") == 8
        assert dot.count("style=dotted") == len(p.covers) - 8

    def test_highlight_shape_mismatch_raises(self):
        p = build_lattice(Shape(2, 2), "composition")
        with pytest.raises(ValueError):
            to_dot(p, RenderSpec(highlight=scd_n2(3)))


class TestLabels:
    def test_young_glyphs_in_dot(self):
        p = build_lattice(Shape(2, 2))
        dot = to_dot(p, RenderSpec(labels="young"))
        assert '[label="∅"]' in dot
        assert '[label="■■\\n■■"]' in dot

    def test_partition_labels(self):
        p = build_lattice(Shape(2, 2))
        dot = to_dot(p, RenderSpec(labels="partition"))
        assert '[label="21"]' in dot

    def test_unknown_mode_rejected(self):
        p = build_lattice(Shape(2, 2))
        with pytest.raises(ValueError):
            to_dot(p, RenderSpec(labels="roman"))

    def test_labels_match_partition_conversion(self):
        # n = 10 and n = 12 mix digit labels with bracketed ones
        shapes = [(m, n) for m in range(7) for n in range(7)]
        shapes += [(m, n) for m in (1, 2, 3) for n in (10, 12)]
        for shape in shapes:
            for coords in ("partition", "composition"):
                p = build_lattice(Shape(*shape), coords)
                parts = [from_multiplicity(c, p.shape) for c in p.elements]
                assert _node_labels(p, RenderSpec(labels="partition")) == [
                    format_partition(a) for a in parts
                ]
                assert _node_labels(p, RenderSpec(labels="young")) == [
                    "\\n".join(_young_rows(a)) or "∅" for a in parts
                ]

    def test_svg_young_converts_each_element_once(self, monkeypatch):
        calls = []

        def counting(c, shape):
            calls.append(c)
            return from_multiplicity(c, shape)

        monkeypatch.setattr(render, "from_multiplicity", counting)
        p = build_lattice(Shape(3, 3), "composition")
        to_svg(p, RenderSpec(labels="young"))
        assert sorted(calls) == sorted(p.elements)


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
            draw(p, RenderSpec(highlight=overlay))
        assert str(err.value) == "highlight element (2, 0, 2) not in poset"

    @pytest.mark.parametrize("draw", [to_dot, to_svg])
    def test_step_with_a_key_not_in_poset_is_refused(self, draw):
        p = build_lattice(Shape(2, 2), "composition")
        overlay = ChainDecomposition(Shape(2, 2), [((0, 2, 0), (0, 1, 1), (3, 0, 0))])
        with pytest.raises(ValueError) as err:
            draw(p, RenderSpec(highlight=overlay))
        assert str(err.value) == "highlight element (0, 1, 1) or (3, 0, 0) not in poset"
