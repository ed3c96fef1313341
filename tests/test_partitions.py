import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import composition_lower_covers, lower_covers, partitions_in_box
from younglat.partitions import (
    InvalidCompositionError,
    InvalidElementError,
    Shape,
    as_partition,
    complement,
    conjugate,
    covers,
    enumerate_compositions,
    format_composition,
    format_partition,
    from_multiplicity,
    leq,
    parse_composition,
    parse_natural,
    parse_partition,
    rank,
    to_multiplicity,
    weighted_sum,
)


def partitions_st(max_part=12, max_len=8):
    return st.lists(
        st.integers(min_value=1, max_value=max_part), max_size=max_len
    ).map(lambda xs: tuple(sorted(xs, reverse=True)))


class TestCanonicalForm:
    def test_strips_trailing_zeros(self):
        assert as_partition([3, 2, 1, 0, 0]) == (3, 2, 1)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            as_partition([1, 2])

    def test_rejects_interior_zero(self):
        with pytest.raises(ValueError):
            as_partition([3, 0, 2])


class TestOrder:
    def test_22_below_32(self):
        # compare 2200 and 3200 entry-wise
        assert leq((2, 2), (3, 2), Shape(4, 3))

    def test_1111_and_22_incomparable(self):
        shape = Shape(4, 3)
        assert not leq((1, 1, 1, 1), (2, 2), shape)
        assert not leq((2, 2), (1, 1, 1, 1), shape)

    def test_reflexive(self):
        for a in [(), (3, 1), (2, 2, 2)]:
            assert leq(a, a, Shape(4, 3))

    def test_shape_violation(self):
        with pytest.raises(InvalidElementError):
            leq((4,), (4,), Shape(4, 3))
        with pytest.raises(InvalidElementError):
            leq((1, 1, 1, 1, 1), (2, 2), Shape(4, 3))


class TestCovers:
    def test_3211_covers_its_three_children(self):
        shape = Shape(4, 3)
        for child in [(2, 2, 1, 1), (3, 1, 1, 1), (3, 2, 1)]:
            assert covers((3, 2, 1, 1), child, shape)

    def test_rank_gap_is_not_a_cover(self):
        assert not covers((3, 2, 1, 1), (2, 1, 1, 1), Shape(4, 3))

    def test_lower_covers_match_predicate(self):
        shape = Shape(4, 3)
        for b in partitions_in_box(*shape):
            children = {a for a, _ in lower_covers(b, shape)}
            by_predicate = {
                a for a in partitions_in_box(*shape) if covers(b, a, shape)
            }
            assert children == by_predicate


class TestConjugate:
    # partitions of 5 and their transposes
    TABLE = {
        (5,): (1, 1, 1, 1, 1),
        (4, 1): (2, 1, 1, 1),
        (3, 2): (2, 2, 1),
        (3, 1, 1): (3, 1, 1),
        (2, 2, 1): (3, 2),
    }

    def test_partitions_of_five(self):
        for a, expected in self.TABLE.items():
            assert conjugate(a) == expected

    def test_311_self_conjugate(self):
        assert conjugate((3, 1, 1)) == (3, 1, 1)

    def test_empty(self):
        assert conjugate(()) == ()

    @given(partitions_st())
    def test_involution(self, a):
        assert conjugate(conjugate(a)) == a

    def test_order_isomorphism_exhaustive(self):
        # transposing swaps the box dimensions and preserves the order
        for m in range(1, 6):
            for n in range(1, 6):
                elements = list(partitions_in_box(m, n))
                for a in elements:
                    assert conjugate(a) in set(partitions_in_box(n, m))
                for a, b in combinations(elements, 2):
                    assert leq(a, b, Shape(m, n)) == leq(
                        conjugate(a), conjugate(b), Shape(n, m)
                    )


class TestComplement:
    def test_322_in_three_by_four(self):
        # remove the diagram from a 3 x 4 rectangle and rotate: parts 1, 2, 2
        assert complement((3, 2, 2), Shape(3, 4)) == (2, 2, 1)

    def test_322_in_four_by_three(self):
        assert complement((3, 2, 2), Shape(4, 3)) == (3, 1, 1)

    def test_full_rectangle_to_empty(self):
        for m, n in [(2, 2), (3, 4), (5, 1)]:
            assert complement((n,) * m, Shape(m, n)) == ()

    def test_rank_identity_random_sample(self):
        shape = Shape(5, 4)
        elements = list(partitions_in_box(*shape))
        rng = random.Random(54)
        for a in rng.sample(elements, 100):
            assert rank(a) + rank(complement(a, shape)) == 20

    def test_order_reversing_involution_exhaustive(self):
        for m in range(1, 6):
            for n in range(1, 6):
                shape = Shape(m, n)
                elements = list(partitions_in_box(m, n))
                for a in elements:
                    assert complement(complement(a, shape), shape) == a
                for a, b in combinations(elements, 2):
                    assert leq(a, b, shape) == leq(
                        complement(b, shape), complement(a, shape), shape
                    )


class TestRank:
    @pytest.mark.parametrize(
        "a,expected", [((3, 2, 1, 1), 7), ((), 0), ((3, 3, 3), 9)]
    )
    def test_values(self, a, expected):
        assert rank(a) == expected


class TestMultiplicityBijection:
    def test_3211_maps_to_1120(self):
        assert to_multiplicity((3, 2, 1, 1), Shape(4, 3)) == (1, 1, 2, 0)

    def test_321_pads_to_1111(self):
        assert to_multiplicity((3, 2, 1), Shape(4, 3)) == (1, 1, 1, 1)

    def test_empty_partition(self):
        assert to_multiplicity((), Shape(4, 3)) == (0, 0, 0, 4)

    def test_inverse_examples(self):
        assert from_multiplicity((1, 1, 2, 0), Shape(4, 3)) == (3, 2, 1, 1)
        assert from_multiplicity((1, 3, 0, 0), Shape(4, 3)) == (3, 2, 2, 2)
        assert from_multiplicity((0, 0, 0, 4), Shape(4, 3)) == ()

    def test_length_and_sum_validated(self):
        with pytest.raises(InvalidCompositionError):
            from_multiplicity((1, 1, 2), Shape(4, 3))
        with pytest.raises(InvalidCompositionError):
            from_multiplicity((1, 1, 2, 1), Shape(4, 3))

    def test_round_trip_exhaustive(self):
        for m in range(6):
            for n in range(6):
                shape = Shape(m, n)
                for a in partitions_in_box(m, n):
                    c = to_multiplicity(a, shape)
                    assert len(c) == n + 1 and sum(c) == m
                    assert from_multiplicity(c, shape) == a

    def test_covers_preserved_both_ways(self):
        for m in range(1, 6):
            for n in range(1, 6):
                shape = Shape(m, n)
                for b in partitions_in_box(m, n):
                    image = to_multiplicity(b, shape)
                    down_parts = {
                        to_multiplicity(a, shape): color
                        for a, color in lower_covers(b, shape)
                    }
                    down_comps = dict(
                        (c, color)
                        for c, color in composition_lower_covers(image, shape)
                    )
                    assert down_parts == down_comps


class TestCompositionRank:
    # the rank of a composition key is its weighted_sum
    def test_worked_values(self):
        assert weighted_sum((1, 1, 2, 0)) == 7
        assert weighted_sum((1, 3, 0, 0)) == 9
        assert weighted_sum((0, 0, 0, 4)) == 0

    def test_agrees_with_partition_rank_on_l64(self):
        shape = Shape(6, 4)
        for a in partitions_in_box(6, 4):
            assert weighted_sum(to_multiplicity(a, shape)) == rank(a)


class TestEnumerateCompositions:
    def test_two_with_three_parts(self):
        got = enumerate_compositions(2, 3)
        assert set(got) == {
            (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)
        }
        assert len(got) == 6

    def test_zero_total(self):
        assert enumerate_compositions(0, 4) == [(0, 0, 0, 0)]

    def test_three_with_four_parts_counts(self):
        got = enumerate_compositions(3, 4)
        assert len(got) == 20 == comb(6, 3)
        # cross-check against a brute enumeration over the cube
        brute = {
            (a, b, c, 3 - a - b - c)
            for a in range(4)
            for b in range(4 - a)
            for c in range(4 - a - b)
        }
        assert set(got) == brute

    @given(st.integers(0, 8), st.integers(1, 5))
    def test_count_and_order(self, k, p):
        got = enumerate_compositions(k, p)
        assert len(got) == comb(k + p - 1, p - 1)
        assert got == sorted(got)
        assert all(sum(c) == k and len(c) == p for c in got)

    def test_many_parts_do_not_recurse(self):
        got = enumerate_compositions(1, 2000)
        assert len(got) == 2000
        assert got[0] == (0,) * 1999 + (1,) and got[-1] == (1,) + (0,) * 1999


class TestBoxEnumeration:
    def test_counts(self):
        for m in range(7):
            for n in range(7):
                assert len(list(partitions_in_box(m, n))) == comb(m + n, m)

    def test_degenerate_box_contains_only_empty(self):
        assert list(partitions_in_box(0, 5)) == [()]
        assert list(partitions_in_box(5, 0)) == [()]

    def test_same_sequence_as_the_recursion(self):
        def grow(prefix, bound, slots, n):
            yield tuple(prefix)
            if slots:
                for v in range(min(bound, n), 0, -1):
                    yield from grow(prefix + [v], v, slots - 1, n)

        for m in range(8):
            for n in range(8):
                assert list(partitions_in_box(m, n)) == list(grow([], n, m, n))

    def test_many_parts_do_not_recurse(self):
        got = list(partitions_in_box(2000, 1))
        assert len(got) == 2001
        assert got[-1] == (1,) * 2000


class TestStrings:
    @pytest.mark.parametrize(
        "a,text",
        [((3, 2, 1, 1), "3211"), ((), "∅"), ((12, 3), "[12,3]")],
    )
    def test_partition_round_trip(self, a, text):
        assert format_partition(a) == text
        assert parse_partition(text) == a

    @pytest.mark.parametrize(
        "c,text",
        [((1, 1, 2, 0), "1120"), ((10, 0, 2, 0), "[10,0,2,0]"), ((0,), "0")],
    )
    def test_composition_round_trip(self, c, text):
        assert format_composition(c) == text
        assert parse_composition(text) == c

    @pytest.mark.parametrize("text", ["[+2,0]", "[0_2,0]", "[\u0662,0]", "[ 2,0]",
                                      "[2 ,0]", "\u06620", "2\u00b2", "[]", "[-0,2]"])
    def test_parse_composition_takes_ascii_digits_only(self, text):
        with pytest.raises(ValueError):
            parse_composition(text)

    @pytest.mark.parametrize("text", ["[1,0,2,0]", "[010,0,2,0]", "[9]", "[0,9]",
                                      " 12", "12 ", "[10,0,2,00]"])
    def test_parse_composition_takes_only_the_written_spelling(self, text):
        with pytest.raises(ValueError):
            parse_composition(text)

    @given(st.one_of(st.text(), st.text(alphabet="0123456789[],", max_size=12)))
    @example("[10,0,2,0]")
    @example("[0,12]")
    @example("0120")
    def test_accepted_keys_are_written_back_unchanged(self, text):
        try:
            key = parse_composition(text)
        except ValueError:
            return
        assert format_composition(key) == text

    @pytest.mark.parametrize("text, value", [("0", 0), ("7", 7), ("10", 10), ("9000", 9000)])
    def test_parse_natural_reads_canonical_numbers(self, text, value):
        assert parse_natural(text) == value

    @pytest.mark.parametrize("text", ["00", "01", "007", "", "+1", " 1", "1_0", "\u0661"])
    def test_parse_natural_rejects_other_spellings(self, text):
        with pytest.raises(ValueError):
            parse_natural(text)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_composition("12a0")
        with pytest.raises(ValueError):
            parse_composition("[1,2")
        with pytest.raises(ValueError):
            parse_composition("[1,-1,0]")
        with pytest.raises(ValueError):
            parse_partition("[3,")


class TestArgumentValidation:
    def test_enumerate_compositions_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_compositions(-1, 3)
        with pytest.raises(ValueError):
            enumerate_compositions(2, 0)

    def test_box_rejects_negative_dimensions(self):
        with pytest.raises(ValueError):
            list(partitions_in_box(-1, 2))

    def test_negative_part_rejected(self):
        with pytest.raises(ValueError):
            as_partition([3, -1])
