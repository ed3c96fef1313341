import pytest
from hypothesis import given
from hypothesis import strategies as st

from younglat.partitions import (
    InvalidCompositionError,
    Shape,
    from_multiplicity,
)
from younglat.poset import build_lattice
from younglat.roots import (
    NotACoverError,
    edge_color,
    root_color,
    weight_string,
)


class TestSimpleRoots:
    # root j is the step of weight_string(gamma, j, shape)
    def test_vectors(self):
        steps = []
        for j in (1, 2, 3):
            upper, lower = weight_string((1, 1, 1, 0), j, Shape(3, 3))[:2]
            steps.append(tuple(u - v for u, v in zip(upper, lower)))
        assert steps == [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)]

    def test_count_equals_n(self):
        for n in range(1, 8):
            gamma = (1,) + (0,) * n
            accepted = []
            for j in range(n + 2):
                try:
                    weight_string(gamma, j, Shape(1, n))
                except ValueError:
                    continue
                accepted.append(j)
            assert accepted == list(range(1, n + 1))

    def test_rejects_zero_rank(self):
        with pytest.raises(ValueError):
            weight_string((1,), 1, Shape(1, 0))


class TestEdgeColor:
    def test_red_step(self):
        assert edge_color((1, 2, 1, 0), (1, 3, 0, 0)) == 2

    def test_green_step(self):
        assert edge_color((0, 1, 0, 0), (1, 0, 0, 0)) == 1

    def test_blue_step(self):
        assert edge_color((1, 0, 0, 2), (1, 0, 1, 1)) == 3

    def test_not_a_cover(self):
        with pytest.raises(NotACoverError):
            edge_color((1, 0, 1, 1), (1, 3, 0, 0))
        with pytest.raises(NotACoverError):
            edge_color((1, 3, 0, 0), (1, 3, 0, 0))
        with pytest.raises(NotACoverError):
            # wrong direction
            edge_color((1, 3, 0, 0), (1, 2, 1, 0))

    def test_stored_colors_match_recomputation(self):
        for m in range(1, 5):
            for n in range(1, 5):
                p = build_lattice(Shape(m, n), "composition")
                for lo, hi, color in p.covers:
                    assert edge_color(p.elements[lo], p.elements[hi]) == color


class TestRankAndDistanceRule:
    def test_one_rank_up_at_distance_two_is_a_cover(self):
        # the saturation test of verify_scd, pair by pair: ranks one apart and
        # L1 distance 2 exactly when edge_color finds a root
        for m in range(5):
            for n in range(5):
                p = build_lattice(Shape(m, n), "composition")
                for lower, r in zip(p.elements, p.ranks):
                    for upper, s in zip(p.elements, p.ranks):
                        by_rule = (s == r + 1
                                   and sum(abs(u - v) for u, v in zip(upper, lower)) == 2)
                        try:
                            edge_color(lower, upper)
                            by_color = True
                        except NotACoverError:
                            by_color = False
                        assert by_rule == by_color, (lower, upper)

    def test_weight_string_takes_a_plain_shape(self):
        assert (weight_string((1, 0, 1, 0), 2, (2, 3))
                == weight_string((1, 0, 1, 0), 2, [2, 3])
                == weight_string((1, 0, 1, 0), 2, Shape(2, 3)))

    @pytest.mark.parametrize("shape", [(2, 3, 0), (2,), 5, None, "23"])
    def test_weight_string_refuses_a_shape_not_of_two_dimensions(self, shape):
        with pytest.raises(ValueError):
            weight_string((1, 0, 1, 0), 2, shape)

    def test_weight_string_over_the_entry_limit_is_refused_before_it_is_made(self):
        with pytest.raises(ValueError):
            weight_string((10**9, 0), 1, Shape(10**9, 1))


def _edge_color_by_delta(lower, upper):
    """The vector-difference form of edge_color, kept as its reference."""
    if len(lower) != len(upper):
        raise NotACoverError(f"slot counts differ: {upper} vs {lower}")
    delta = [u - l for u, l in zip(upper, lower)]
    moved = [i for i, d in enumerate(delta) if d]
    if (
        len(moved) != 2
        or moved[1] != moved[0] + 1
        or delta[moved[0]] != 1
        or delta[moved[1]] != -1
    ):
        raise NotACoverError(f"{upper} does not cover {lower}")
    return moved[0] + 1


def _outcome(f, lower, upper):
    try:
        return f(lower, upper)
    except NotACoverError as exc:
        return str(exc)


_keys = st.lists(st.integers(-2, 3), min_size=0, max_size=6).map(tuple)


class TestFirstDifferenceScan:
    @given(_keys, _keys)
    def test_matches_delta_reference(self, lower, upper):
        assert _outcome(edge_color, lower, upper) == _outcome(
            _edge_color_by_delta, lower, upper)

    @given(st.data())
    def test_matches_delta_reference_near_covers(self, data):
        # upper = lower + a simple root, then maybe one entry nudged
        upper = data.draw(st.lists(st.integers(0, 3), min_size=2, max_size=6))
        j = data.draw(st.integers(0, len(upper) - 2))
        lower = list(upper)
        lower[j] -= 1
        lower[j + 1] += 1
        if data.draw(st.booleans()):
            k = data.draw(st.integers(0, len(lower) - 1))
            lower[k] += data.draw(st.sampled_from([-1, 1]))
        lower, upper = tuple(lower), tuple(upper)
        assert _outcome(edge_color, lower, upper) == _outcome(
            _edge_color_by_delta, lower, upper)


class TestWeightString:
    def test_red_string_through_1300(self):
        got = weight_string((1, 3, 0, 0), 2, Shape(4, 3))
        assert got == ((1, 3, 0, 0), (1, 2, 1, 0), (1, 1, 2, 0), (1, 0, 3, 0))

    def test_partition_image_of_red_string(self):
        shape = Shape(4, 3)
        parts = [
            from_multiplicity(c, shape)
            for c in weight_string((1, 3, 0, 0), 2, shape)
        ]
        assert parts == [(3, 2, 2, 2), (3, 2, 2, 1), (3, 2, 1, 1), (3, 1, 1, 1)]

    def test_singleton_when_no_room(self):
        # nothing in either slot of the chosen root
        assert weight_string((0, 2, 0, 0), 3, Shape(2, 3)) == ((0, 2, 0, 0),)

    def test_invalid_gamma(self):
        with pytest.raises(InvalidCompositionError):
            weight_string((1, 1, 0, 0), 2, Shape(4, 3))

    def test_root_index_out_of_range(self):
        with pytest.raises(ValueError):
            weight_string((1, 3, 0, 0), 4, Shape(4, 3))
        with pytest.raises(ValueError):
            weight_string((1, 3, 0, 0), 0, Shape(4, 3))

    @pytest.mark.parametrize("j", [0, -1, -12, 4, 1.0, 2.0, True, False, None, "1"])
    def test_root_index_that_is_no_int_in_range_is_refused(self, j):
        with pytest.raises(ValueError, match=r"^root index must be an int in 1\.\.3, got "):
            weight_string((1, 3, 0, 0), j, Shape(4, 3))

    def test_strings_partition_the_lattice(self):
        for m in range(1, 6):
            for n in range(1, 6):
                shape = Shape(m, n)
                p = build_lattice(shape, "composition")
                for root in range(1, n + 1):
                    strings = {
                        weight_string(c, root, shape) for c in p.elements
                    }
                    seen = [key for s in strings for key in s]
                    assert sorted(seen) == sorted(p.elements)

    def test_strings_are_saturated_and_single_colored(self):
        shape = Shape(4, 3)
        p = build_lattice(shape, "composition")
        for root in (1, 2, 3):
            for gamma in p.elements:
                s = weight_string(gamma, root, shape)
                assert gamma in s
                for upper, lower in zip(s, s[1:]):
                    assert lower in p and upper in p
                    assert edge_color(lower, upper) == root


class TestColorUsage:
    def test_every_edge_colored_and_n_colors_used(self):
        for m in range(1, 6):
            for n in range(1, 6):
                p = build_lattice(Shape(m, n), "composition")
                used = {color for _, _, color in p.covers}
                assert used == set(range(1, n + 1))

    def test_transposed_boxes_use_different_color_counts(self):
        used_32 = {c for _, _, c in build_lattice(Shape(3, 2)).covers}
        used_23 = {c for _, _, c in build_lattice(Shape(2, 3)).covers}
        assert len(used_32) == 2
        assert len(used_23) == 3


class TestColorMap:
    def test_default_first_three(self):
        assert [root_color(j) for j in (1, 2, 3)] == ["green", "red", "blue"]

    def test_default_is_injective_past_palette(self):
        names = [root_color(j) for j in range(1, 21)]
        assert len(set(names)) == 20
        assert names[12:14] == ["#00000d", "#00000e"]

    @pytest.mark.parametrize("j", [0, -1, -11, -12, -13, 1.0, 12.0, True, False, None, "1"])
    def test_root_index_that_is_no_int_at_least_one_is_refused(self, j):
        # 0 and -1 would read the palette from its end, as roots 12 and 11
        with pytest.raises(ValueError, match=r"^root index must be an int >= 1, got "):
            root_color(j)
