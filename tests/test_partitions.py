import random
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    composition_lower_covers,
    lower_covers,
    partitions_in_box,
    reference_conjugate,
    reference_covers,
    reference_format_composition,
    reference_format_partition,
    reference_parse_partition,
    reference_to_multiplicity,
    traced_peak,
)
from younglat import partitions, poset
from younglat.partitions import (
    KEY_ENTRY_LIMIT,
    InvalidCompositionError,
    InvalidElementError,
    Shape,
    as_partition,
    complement,
    conjugate,
    covers,
    enumerate_compositions,
    format_composition,
    format_compositions,
    format_partition,
    from_multiplicity,
    leq,
    parse_composition,
    parse_natural,
    parse_partition,
    rank,
    require_composition,
    to_multiplicity,
    weighted_sum,
)
from younglat.poset import build_lattice
from younglat.roots import edge_color, root_color, weight_string
from younglat.scd import ChainDecomposition, brute_force_scd


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

    @pytest.mark.parametrize("k, p", [(0, 10**9), (10**9, 10**9), (10**9, 2),
                                      (0, KEY_ENTRY_LIMIT + 1), (3, 4 * 10**5)])
    def test_over_the_entry_limit_is_refused_before_the_loop(self, k, p):
        def refused():
            with pytest.raises(ValueError, match="over the limit of 40,000,000"):
                enumerate_compositions(k, p)
        assert traced_peak(refused) < 10**6

    def test_every_lattice_build_accepts_is_enumerated(self, monkeypatch):
        # with a low limit, the two bounds must agree on every shape
        for module in (partitions, poset):
            monkeypatch.setattr(module, "KEY_ENTRY_LIMIT", 5000)
        built = 0
        for m, n in product(range(1, 40), range(1, 40)):
            try:
                poset._require_within_limit(m, n)
            except ValueError:
                with pytest.raises(ValueError):
                    enumerate_compositions(m, n + 1)
                continue
            assert len(build_lattice(Shape(m, n))) == comb(m + n, m)
            built += 1
        assert built > 100

    def test_large_results_under_the_limit_are_made(self):
        assert len(enumerate_compositions(40, 5)) == comb(44, 4)

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


# keys of mixed lengths, the empty key among them, with entries of one digit,
# of more than one, and negative
KEYS = st.lists(st.one_of(st.sampled_from([0, 1, 9, 10, 12, 100]), st.integers(-120, 120)),
                max_size=6).map(tuple)


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

    @given(st.lists(KEYS, max_size=8))
    @example([])
    @example([(), (-1, 3, 0), (), (10, 0, 2, 0), (9,), (-1,), (0, 12)])
    def test_one_rule_spells_every_key(self, keys):
        texts = format_compositions(keys)
        assert texts == list(map(format_composition, keys))
        for key, text in zip(keys, texts):
            if min(key, default=0) >= 0:
                assert text == reference_format_composition(key)
            else:  # in digits (-1, 3, 0) would read "-130"
                assert text == "[" + ",".join(map(str, key)) + "]"

    @given(KEYS.filter(lambda key: key and min(key) >= 0))
    def test_keys_read_back(self, key):
        assert parse_composition(format_composition(key)) == key

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

    @pytest.mark.parametrize("k, p", [(2.0, 3), (True, 2), (2, 3.0), (2, True),
                                      (None, 2), ("2", 3), (2, None)])
    def test_enumerate_compositions_takes_ints_only(self, k, p):
        with pytest.raises(ValueError):
            enumerate_compositions(k, p)


S = Shape(2, 3)

# calls on a sequence that is no partition or composition, or on a dimension
# that is no int
WRONG_CALLS = [
    (to_multiplicity, (0, 5), S),
    (covers, (1, 2), (1, 1), S),
    (format_partition, (1, 3)),
    (as_partition, [2.5, 1.9]),
    (as_partition, [True]),
    (as_partition, [3, 0.0]),
    (enumerate_compositions, 2.0, 3),
    (enumerate_compositions, True, 2),
    (format_compositions, [("a",)]),
    (format_compositions, [(None, 1)]),
    (to_multiplicity, (1, 3), S),
    (leq, (1, 3), (3, 3), S),
    (conjugate, (1, 3)),
    (complement, (0, 5), S),
    (to_multiplicity, (3, 1), Shape(2.0, 3)),
    (from_multiplicity, (1, 0, True, 0), S),
    (require_composition, (1.5, 0.5, 0, 0), S),
    (rank, (1, 3)),
]


@pytest.mark.parametrize("call", WRONG_CALLS, ids=lambda call: call[0].__name__)
def test_wrong_call_raises_value_error(call):
    fn, *args = call
    with pytest.raises(ValueError):
        fn(*args)


class I(int):
    """An int subclass, which the one int rule does not count as an int."""


@pytest.mark.parametrize("call", [
    lambda: build_lattice((I(2), 2)),
    lambda: brute_force_scd(build_lattice((1, 1)), I(5)),
    lambda: as_partition([I(2)]),
    lambda: ChainDecomposition((2, 2), [((I(2), 0, 0),)]),
    lambda: edge_color((I(0), 1), (1, 0)),
    lambda: weight_string((1, 0, 1, 0), I(2), (2, 3)),
    lambda: root_color(I(1)),
], ids=["dimension", "budget", "part", "key-entry", "edge-color-entry",
        "weight-string-root", "root-color-root"])
def test_an_int_subclass_is_refused(call):
    # each of these was accepted as the int it stands for
    with pytest.raises(ValueError):
        call()


SMALL_VALUES = st.one_of(st.integers(-3, 12), st.booleans(), st.floats(), st.none(),
                         st.text(max_size=2))
PARTS = st.one_of(st.lists(SMALL_VALUES, max_size=6), partitions_st(6, 6),
                  st.lists(st.integers(0, 6), max_size=6))
DIMS = st.one_of(st.integers(-2, 6), st.floats(-2, 6), st.booleans())


@given(PARTS, PARTS, DIMS, DIMS, st.one_of(st.text(), st.text("0123456789[],∅ +_", max_size=8)))
def test_partition_side_ends_in_a_result_or_a_value_error(a, b, m, n, text):
    shape = Shape(m, n)
    calls = [(as_partition, a), (rank, a), (conjugate, a), (format_partition, a),
             (parse_partition, text), (leq, a, b, shape), (covers, b, a, shape),
             (complement, a, shape), (to_multiplicity, a, shape),
             (from_multiplicity, a, shape), (require_composition, a, shape)]
    for fn, *args in calls:
        try:
            fn(*args)
        except ValueError:
            pass


class TestFrozenPartitionView:
    def test_strings_match_the_old_grammar(self):
        # L(6, 12) holds every partition of every box with m <= 6 and n <= 12
        for a in partitions_in_box(6, 12):
            text = format_partition(a)
            assert text == reference_format_partition(a)
            assert parse_partition(text) == reference_parse_partition(text) == a

    def test_covers_match_the_index_scan(self):
        for m, n in product(range(5), repeat=2):
            shape = Shape(m, n)
            elements = list(partitions_in_box(m, n))
            for a, b in product(elements, repeat=2):
                assert covers(b, a, shape) == reference_covers(b, a, shape)

    @pytest.mark.parametrize("text", ["", " 32 ", "[3,2]", "[ 12,3]", "[+12,3]",
                                      "[1_2,3]", "[010,1]", "23", "[3,12]", "3 2"])
    def test_partition_strings_no_writer_makes_are_refused(self, text):
        with pytest.raises(ValueError):
            parse_partition(text)

    @pytest.mark.parametrize("text, a", [("0", ()), ("00", ()), ("320", (3, 2)),
                                         ("∅", ()), ("[12,3,0]", (12, 3))])
    def test_trailing_zeros_still_read(self, text, a):
        assert parse_partition(text) == a


class TestShapesAndEntryLimit:
    def test_counting_matches_the_frozen_scans(self):
        for m, n in product(range(7), repeat=2):
            shape = Shape(m, n)
            for a in partitions_in_box(m, n):
                assert conjugate(a) == reference_conjugate(a)
                assert to_multiplicity(a, shape) == reference_to_multiplicity(a, shape)

    def test_plain_shapes_read_as_shapes(self):
        # a tuple or a list of two ints is a shape; reading shape.n once made
        # these an AttributeError
        for m, n in product(range(5), repeat=2):
            shape = Shape(m, n)
            for a in partitions_in_box(m, n):
                c = to_multiplicity(a, shape)
                for plain in ((m, n), [m, n]):
                    assert to_multiplicity(a, plain) == c
                    assert complement(a, plain) == complement(a, shape)
                    assert from_multiplicity(c, plain) == a
        assert to_multiplicity((1,), (2, 3)) == (0, 0, 1, 1)

    @pytest.mark.parametrize("shape", [(2, 2, 0), (2, 2, 5), (2,), (), 5, None, "22",
                                       {2: 0, 3: 0}, iter([2, 2])])
    @pytest.mark.parametrize("call", [
        lambda shape: build_lattice(shape),
        lambda shape: ChainDecomposition(shape, ()),
        lambda shape: leq((1,), (1,), shape),
        lambda shape: require_composition((1, 1, 0), shape),
        lambda shape: to_multiplicity((1,), shape),
        lambda shape: complement((1,), shape),
        lambda shape: from_multiplicity((1, 1, 0), shape),
    ], ids=["build_lattice", "ChainDecomposition", "leq", "require_composition",
            "to_multiplicity", "complement", "from_multiplicity"])
    def test_shape_not_of_two_dimensions_is_refused(self, call, shape):
        # a third entry once went on as the least dimension: (2, 2, 0) built
        # L(2,2), and (2, 2, 5) said "ints >= 5"
        with pytest.raises(ValueError):
            call(shape)

    @pytest.mark.parametrize("call", [
        lambda: conjugate((10**9,)),
        lambda: conjugate((KEY_ENTRY_LIMIT + 1, 1)),
        lambda: to_multiplicity((1,), Shape(1, 10**9)),
        lambda: to_multiplicity((), Shape(0, KEY_ENTRY_LIMIT)),
        lambda: from_multiplicity((10**9, 0), Shape(10**9, 1)),
        lambda: leq((), (), Shape(10**9, 1)),
        lambda: covers((1,), (), Shape(10**9, 1)),
        lambda: complement((), Shape(KEY_ENTRY_LIMIT + 1, 1)),
    ])
    def test_result_over_the_entry_limit_is_refused_before_it_is_made(self, call):
        def refused():
            with pytest.raises(ValueError, match="over the limit of 40,000,000"):
                call()
        assert traced_peak(refused) < 10**6

    def test_results_at_small_sizes_are_made(self):
        assert conjugate((5,)) == (1, 1, 1, 1, 1)
        assert to_multiplicity((), Shape(0, 9)) == (0,) * 9 + (0,)
        assert from_multiplicity((3, 0), Shape(3, 1)) == (1, 1, 1)

    def test_one_entry_limit(self):
        assert poset.KEY_ENTRY_LIMIT is KEY_ENTRY_LIMIT == 40_000_000


PARTITION_SIDE = {"from_multiplicity", "to_multiplicity", "conjugate", "complement",
                  "leq", "covers", "as_partition", "format_partition", "parse_partition"}


def imports_from_other_modules():
    """``(file name, line, module, name)`` of each ``from ... import`` of the
    package's modules but ``partitions``."""
    import ast
    from pathlib import Path

    import younglat

    for path in sorted(Path(younglat.__file__).parent.glob("*.py")):
        if path.name != "partitions.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom):
                    yield from ((path.name, node.lineno, node.module, alias.name)
                                for alias in node.names)


class TestPartitionsAreALabel:
    def test_no_module_imports_the_partition_side(self):
        # the program keeps composition keys; only the package re-exports
        # the partition API; a whole-module import would reach the same names
        offenders = [f"{name}:{line} {alias}"
                     for name, line, module, alias in imports_from_other_modules()
                     if alias in PARTITION_SIDE | {"partitions"}
                     and not (name == "__init__.py" and module == "partitions")]
        assert offenders == []

    def test_the_spelling_rule_stays_in_partitions(self):
        # no other module makes a key template; poset repeats the one
        # template of a lattice's keys, and only poset takes it
        taken = [(name, alias) for name, _, _, alias in imports_from_other_modules()
                 if alias in ("_key_templates", "_shape_template", "partitions")]
        assert taken == [("poset.py", "_shape_template")]
