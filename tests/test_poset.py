import sys
import threading
from collections import Counter
from math import comb
from time import perf_counter

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import (
    _poly_mul,
    composition_lower_covers,
    cover_pairs_by_scan,
    lower_covers,
    mutated_text,
    partitions_in_box,
    q_factorial,
    reference_build_lattice,
    reference_gaussian_binomial,
    traced_peak,
)
from younglat import poset
from younglat.partitions import (
    Shape,
    enumerate_compositions,
    format_composition,
    format_compositions,
    from_multiplicity,
    leq,
    to_multiplicity,
    weighted_sum,
)
from younglat.poset import (
    DEGREE_LIMIT,
    ELEMENT_LIMIT,
    KEY_ENTRY_LIMIT,
    GradedPoset,
    ParseError,
    RankPolynomial,
    SplitCheck,
    _half_quotient,
    _next_half,
    build_lattice,
    check_splitting_identities,
    gaussian_binomial,
    parse_poset,
    rank_profile,
    serialize_poset,
)
from younglat.render import to_dot, to_svg
from younglat.roots import NotACoverError, edge_color
from younglat.scd import ChainDecomposition, brute_force_scd, lindstrom, scd_n2


def lattice_fields(p):
    """The six fields poset equality compared before it became equality by
    shape and coordinates; the reference builders return these."""
    return p.shape, p.coords, tuple(p.elements), tuple(p.ranks), tuple(p.covers), p.height


def assert_same_poset(got, want):
    """``got`` equals ``want``, field by field, and writes the same bytes."""
    assert got == want
    assert lattice_fields(got) == lattice_fields(want)
    assert serialize_poset(got) == serialize_poset(want)


class TestGaussianBinomial:
    def test_3_3(self):
        assert list(gaussian_binomial(3, 3)) == [1, 1, 2, 3, 3, 3, 3, 2, 1, 1]

    def test_n_zero(self):
        assert list(gaussian_binomial(5, 0)) == [1]
        assert list(gaussian_binomial(0, 5)) == [1]

    def test_degree_limit_is_checked_before_any_work(self):
        with pytest.raises(ValueError) as err:
            gaussian_binomial(301, 301)
        assert str(err.value) == "the 301 x 301 box has degree 90,601, over the limit of 90,000"
        with pytest.raises(ValueError):
            gaussian_binomial(10**9, 10**9)
        assert len(gaussian_binomial(1, DEGREE_LIMIT)) == DEGREE_LIMIT + 1
        # the loop runs over the smaller side, so a zero side costs nothing
        assert list(gaussian_binomial(0, 10**12)) == [1]

    def test_2_2_against_enumeration(self):
        counts = Counter(sum(a) for a in partitions_in_box(2, 2))
        expected = [counts[k] for k in range(5)]
        assert expected == [1, 1, 2, 1, 1]
        assert list(gaussian_binomial(2, 2)) == expected

    def test_4_3_frozen_from_enumeration(self):
        counts = Counter(sum(a) for a in partitions_in_box(4, 3))
        expected = [counts[k] for k in range(13)]
        assert expected == [1, 1, 2, 3, 4, 4, 5, 4, 4, 3, 2, 1, 1]
        assert list(gaussian_binomial(4, 3)) == expected

    def test_4_3_splits_into_3_3_and_shifted_4_2(self):
        whole = list(gaussian_binomial(4, 3))
        peeled = [0, 0, 0] + list(gaussian_binomial(3, 3))
        rest = list(gaussian_binomial(4, 2))
        summed = [
            (peeled[k] if k < len(peeled) else 0)
            + (rest[k] if k < len(rest) else 0)
            for k in range(len(whole))
        ]
        assert whole == summed

    def test_coefficients_count_partitions(self):
        for m in range(6):
            for n in range(6):
                g = gaussian_binomial(m, n)
                counts = Counter(sum(a) for a in partitions_in_box(m, n))
                assert list(g) == [counts[k] for k in range(m * n + 1)]

    def test_total_is_binomial(self):
        for m in range(9):
            for n in range(9):
                assert gaussian_binomial(m, n).total == comb(m + n, m)

    def test_symmetry_and_unimodality_up_to_12(self):
        for m in range(13):
            for n in range(13):
                g = gaussian_binomial(m, n)
                assert g.is_symmetric
                assert g.is_unimodal

    def test_q_factorial_factorization(self):
        # (m+n)! = m! n! [m+n choose m] as polynomials
        for m in range(1, 7):
            for n in range(1, 7):
                lhs = list(q_factorial(m + n))
                rhs = _poly_mul(
                    list(q_factorial(m)),
                    _poly_mul(list(q_factorial(n)), list(gaussian_binomial(m, n))),
                )
                assert lhs == rhs


class TestInterleavedGaussianBinomial:
    def test_matches_two_phase_reference(self):
        # m, n <= 40 covers both parities of m * i and (m + 1) * i; the
        # polynomial is symmetric in m and n, so one reference serves both
        for m in range(41):
            for n in range(m + 1):
                want = reference_gaussian_binomial(m, n)
                assert list(gaussian_binomial(m, n)) == want, (m, n)
                assert list(gaussian_binomial(n, m)) == want, (n, m)

    def test_matches_two_phase_reference_150(self):
        assert list(gaussian_binomial(150, 150)) == reference_gaussian_binomial(150, 150)

    @pytest.mark.parametrize("m, n", [(7, 150), (150, 7)])
    def test_matches_two_phase_reference_one_long_side(self, m, n):
        assert list(gaussian_binomial(m, n)) == reference_gaussian_binomial(m, n)

    @pytest.mark.parametrize("lower, m, i", [
        # lower halves of palindromes of degree m * (i - 1), but not of the
        # (2, 2) polynomial [1, 1, 2, 1, 1]
        ([1, 0, 0], 2, 3),
        ([1, 1, 3], 2, 3),
        ([2, 1, 2], 2, 3),
        # not m * (i - 1) // 2 + 1 long; without the length check each of
        # these would return a wrong half instead of raising
        ([1], 2, 2),             # shorter
        ([5, 5], 1, 2),          # longer
        ([0, 0, 0], 2, 2),       # longer, although nothing remains
        ([1, 0, 0, 0], 2, 3),    # longer
    ])
    def test_inexact_division_raises(self, lower, m, i):
        with pytest.raises(ArithmeticError):
            _next_half(lower, m, i)


@st.composite
def anti_palindromes(draw):
    """``(T, i)``: ``T`` anti-palindromic of degree ``(m + 1) * i``, half the
    time ``Q * (1 - q^i)`` for a palindromic ``Q``, so exactly divisible."""
    m, i = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    degree = (m + 1) * i
    small = st.integers(-3, 3)
    if draw(st.booleans()):
        lower = draw(st.lists(small, min_size=m * i // 2 + 1, max_size=m * i // 2 + 1))
        quotient = lower + lower[(m * i + 1) // 2 - 1::-1]
        return _poly_mul(quotient, [1] + [0] * (i - 1) + [-1]), i
    lower = draw(st.lists(small, min_size=(degree + 1) // 2, max_size=(degree + 1) // 2))
    middle = [0] if degree % 2 == 0 else []  # T[D / 2] is its own negative
    return lower + middle + [-v for v in reversed(lower)], i


class TestHalfQuotient:
    @given(anti_palindromes())
    @example(([1, 0, 0, 0, 1, 0, -1, 0, 0, 0, -1], 2))  # (1 + q^4)(1 - q^6), exact
    @example(([1, 0, 0, 0, 1, -1, 0, 0, 0, -1], 3))  # (1 + q^4)(1 - q^5), inexact
    def test_last_sums_decide_exactness(self, case):
        """``L(r) == L(-r)`` for every class holds exactly when every full
        class sum of ``T`` is zero, and the sums are then the quotient."""
        T, i = case
        degree = len(T) - 1
        assert degree % i == 0 and T == [-v for v in reversed(T)]
        exact = all(sum(T[r::i]) == 0 for r in range(i))
        low = T[: (degree + 1) // 2]
        if not exact:
            with pytest.raises(ArithmeticError):
                _half_quotient(low, i)
            return
        quotient = [0] * (degree - i + 1)
        for j in range(len(quotient)):
            quotient[j] = T[j] + (quotient[j - i] if j >= i else 0)
        assert _half_quotient(low, i) == quotient[: len(low)]


class TestRankPolynomialType:
    def test_not_unimodal_detected(self):
        assert not RankPolynomial((1, 2, 1, 2, 1)).is_unimodal

    def test_not_symmetric_detected(self):
        assert not RankPolynomial((1, 2)).is_symmetric

    def test_is_the_tuple_of_its_coefficients(self):
        poly = RankPolynomial((1, 2, 1))
        assert poly == (1, 2, 1)
        assert type(poly.coefficients) is tuple and poly.coefficients == (1, 2, 1)

    @pytest.mark.parametrize("poly", [gaussian_binomial(4, 3),
                                      rank_profile(build_lattice((4, 3)))],
                             ids=["gaussian_binomial", "rank_profile"])
    def test_reads_as_before(self, poly):
        # the figures the dataclass gave for the (4, 3) box
        assert type(poly) is RankPolynomial
        assert len(poly) == 13
        assert (poly[0], poly[6], poly[-1]) == (1, 5, 1)
        assert list(poly) == [1, 1, 2, 3, 4, 4, 5, 4, 4, 3, 2, 1, 1]
        assert poly.total == 35 == comb(7, 3)
        assert poly.is_symmetric and poly.is_unimodal
        assert repr(poly) == "RankPolynomial(coefficients=(1, 1, 2, 3, 4, 4, 5, 4, 4, 3, 2, 1, 1))"

    def test_is_read_only(self):
        poly = gaussian_binomial(2, 2)
        for name in ("coefficients", "other"):
            with pytest.raises(AttributeError):
                setattr(poly, name, (1,))
        assert poly == (1, 1, 2, 1, 1)


class TestBuildLattice:
    def test_l33_has_twenty_elements(self):
        assert len(build_lattice(Shape(3, 3))) == 20

    def test_one_row_is_a_chain(self):
        for n in range(1, 7):
            p = build_lattice(Shape(1, n))
            assert len(p) == n + 1
            assert len(p.covers) == n

    def test_l43_count_and_height(self):
        p = build_lattice(Shape(4, 3))
        assert len(p) == 35 == comb(7, 3)
        assert p.height == 12

    def test_degenerate_shapes_empty(self):
        for shape in [Shape(0, 4), Shape(4, 0), Shape(0, 0)]:
            p = build_lattice(shape)
            assert len(p) == 0 and len(p.covers) == 0

    def test_unique_min_and_max(self):
        for m in range(1, 6):
            for n in range(1, 6):
                p = build_lattice(Shape(m, n))
                profile = rank_profile(p)
                assert profile[0] == 1 and profile[p.height] == 1

    def test_covers_raise_rank_by_one(self):
        p = build_lattice(Shape(4, 4), "composition")
        for lo, hi, _ in p.covers:
            assert p.ranks[hi] == p.ranks[lo] + 1

    def test_profile_matches_gaussian_small(self):
        for m in range(6):
            for n in range(6):
                for coords in ("partition", "composition"):
                    p = build_lattice(Shape(m, n), coords)
                    if m and n:
                        assert rank_profile(p) == gaussian_binomial(m, n)

    @pytest.mark.parametrize("coords", ["partition", "composition"])
    def test_many_parts_do_not_recurse(self, coords):
        p = build_lattice(Shape(2000, 1), coords)
        assert len(p) == 2001 and len(p.covers) == 2000

    def test_refuses_more_than_element_limit(self):
        assert comb(24, 12) <= ELEMENT_LIMIT < comb(26, 13)
        for shape in (Shape(13, 13), Shape(3000, 3), Shape(3, 3000),
                      Shape(99999999, 99999999)):
            with pytest.raises(ValueError, match="more than"):
                build_lattice(shape, "composition")

    def test_refuses_more_than_key_entry_limit(self):
        # L(12,12) and the largest shapes the two constructions accept stay in
        assert comb(24, 12) * 13 <= KEY_ENTRY_LIMIT
        assert comb(289, 3) * 4 <= KEY_ENTRY_LIMIT and comb(2828, 2) * 3 <= KEY_ENTRY_LIMIT
        for m, n in ((1, 20000), (1, 100000), (10, 15)):
            with pytest.raises(ValueError) as err:
                build_lattice(Shape(m, n), "composition")
            assert str(err.value) == (f"L({m},{n}) has {comb(m + n, m):,} keys of {n + 1:,} "
                                      f"entries, over the limit of 40,000,000 entries")
        # an empty lattice holds no key, whatever its other dimension
        assert len(build_lattice(Shape(0, 10**9))) == len(build_lattice(Shape(10**9, 0))) == 0

    def test_rejects_unknown_coordinate_mode(self):
        with pytest.raises(ValueError):
            build_lattice(Shape(2, 2), "cartesian")

    def test_accessors(self):
        p = build_lattice(Shape(2, 2), "composition")
        assert (1, 0, 1) in p
        assert p.ranks[p.index_of((1, 0, 1))] == 2
        assert (0, 1, 1) in p and edge_color((0, 1, 1), (1, 0, 1)) == 1
        with pytest.raises(KeyError):
            p.index_of((9, 9, 9))
        assert (9, 9, 9) not in p
        for name in ("rank_of", "is_cover", "color_of"):
            assert not hasattr(p, name)

    def test_cover_relation_decided_from_keys(self):
        # every ordered pair of every shape up to 5 x 5, in both coordinate systems
        pairs = 0
        for m in range(6):
            for n in range(6):
                for coords in ("partition", "composition"):
                    p = build_lattice(Shape(m, n), coords)
                    stored = {(p.elements[lo], p.elements[hi]): color
                              for lo, hi, color in p.covers}
                    for a in p.elements:
                        for b in p.elements:
                            pairs += 1
                            assert a in p and b in p
                            try:
                                color = edge_color(a, b)
                            except NotACoverError:
                                color = None
                            assert color == stored.get((a, b))
        assert pairs == 222_044

    def test_non_covers_are_refused(self):
        p = build_lattice(Shape(2, 2), "composition")
        with pytest.raises(NotACoverError):
            edge_color((1, 0, 1), (0, 1, 1))  # known keys, wrong direction
        with pytest.raises(NotACoverError):
            edge_color((0, 0, 2), (2, 0, 0))  # known keys, two ranks apart
        assert (0, 1, 1) in p and (9, 9, 9) not in p
        # a root step between keys outside the lattice (sum 3): edge_color
        # gives it a color, and membership refuses both ends
        assert edge_color((0, 1, 2), (1, 0, 2)) == 1
        assert (0, 1, 2) not in p and (1, 0, 2) not in p
        # a root step with one end outside by a negative entry: that end is
        # no key, so edge_color refuses it, and membership refuses it too
        for lower, upper in (((-1, 1, 2), (0, 0, 2)), ((0, 0, 2), (1, -1, 2))):
            with pytest.raises(ValueError, match=r"^keys must be tuples of ints >= 0$"):
                edge_color(lower, upper)
        assert (0, 0, 2) in p and (-1, 1, 2) not in p and (1, -1, 2) not in p

    def test_q_factorial_rejects_negative(self):
        with pytest.raises(ValueError):
            q_factorial(-1)

    def test_cover_scan_oracle(self):
        # independent pairwise scan of Young containment on the partition
        # view agrees with constructive generation
        for m in range(1, 5):
            for n in range(1, 5):
                shape = Shape(m, n)
                p = build_lattice(shape)
                parts = [from_multiplicity(c, shape) for c in p.elements]
                expected = cover_pairs_by_scan(
                    parts, lambda a, b: a != b and leq(a, b, shape)
                )
                got = sorted((parts[lo], parts[hi]) for lo, hi, _ in p.covers)
                assert got == expected

    def test_coordinate_systems_isomorphic(self):
        for m in range(1, 6):
            for n in range(1, 6):
                shape = Shape(m, n)
                pp = build_lattice(shape, "partition")
                pc = build_lattice(shape, "composition")
                parts = [from_multiplicity(c, shape) for c in pc.elements]
                assert sorted(parts) == sorted(partitions_in_box(m, n))
                assert [sum(a) for a in parts] == list(pc.ranks)
                assert pp.elements == pc.elements
                assert pp.covers == pc.covers
                assert pp.ranks == pc.ranks

    def test_coordinates_choose_only_the_label(self):
        for m in range(7):
            for n in range(7):
                pp = build_lattice(Shape(m, n), "partition")
                pc = build_lattice(Shape(m, n), "composition")
                assert (pp.elements, pp.ranks, pp.covers, pp.height) == (
                    pc.elements, pc.ranks, pc.covers, pc.height)
                assert (pp.coords, pc.coords) == ("partition", "composition")
                assert (pp.label(), pc.label()) == (f"L({m},{n})", f"L'({m},{n})")
                assert pp != pc
                for p in (pp, pc):
                    assert_same_poset(parse_poset(serialize_poset(p)), p)


def reference_levels(p):
    """``levels()`` as the per-element loop it was."""
    out = [[] for _ in range(p.height + 1)]
    for i, r in enumerate(p.ranks):
        out[r].append(i)
    return out


def reference_rank_profile(p):
    """``rank_profile`` as the per-element count it was."""
    counts = [0] * (p.height + 1)
    for r in p.ranks:
        counts[r] += 1
    return RankPolynomial(tuple(counts))


class TestRankRuns:
    def test_levels_and_profile_match_the_element_loops(self):
        for m in range(9):
            for n in range(9):
                for coords in ("partition", "composition"):
                    p = build_lattice(Shape(m, n), coords)
                    levels = p.levels()
                    assert all(type(level) is range for level in levels)
                    assert list(map(list, levels)) == reference_levels(p), (m, n, coords)
                    assert rank_profile(p) == reference_rank_profile(p), (m, n, coords)


def reference_two_branch_build(shape, coordinates):
    """The two-branch build that build_lattice replaced: partitions_in_box
    with lower_covers, or compositions with composition_lower_covers, then
    one sort of the (rank, key) pairs and one of the covers.  Partition keys
    are mapped to compositions at the end, the only element keys a poset
    holds; the lexicographic orders of the two forms agree within a rank."""
    m, n = shape
    if m == 0 or n == 0:
        return shape, coordinates, (), (), (), 0
    if coordinates == "partition":
        keys, rank_fn = partitions_in_box(m, n), sum
        cover_fn = lambda key: lower_covers(key, shape)
    else:
        keys, rank_fn = enumerate_compositions(m, n + 1), weighted_sum
        cover_fn = lambda key: composition_lower_covers(key, shape)
    ranked = sorted((rank_fn(key), key) for key in keys)
    elems = [key for _, key in ranked]
    index = {key: i for i, key in enumerate(elems)}
    edges = sorted(
        (index[low], hi, color)
        for hi, key in enumerate(elems)
        for low, color in cover_fn(key)
    )
    if coordinates == "partition":
        elems = [to_multiplicity(a, shape) for a in elems]
    return (shape, coordinates, tuple(elems), tuple(r for r, _ in ranked), tuple(edges),
            m * n)


class TestSingleBuildPath:
    SHAPES = ([Shape(m, n) for m in range(8) for n in range(8)]
              + [Shape(12, 1), Shape(1, 12)]
              + [Shape(0, k) for k in (8, 12)] + [Shape(k, 0) for k in (8, 12)])

    @pytest.mark.parametrize("coords", ["partition", "composition"])
    def test_matches_two_branch_reference(self, coords):
        for shape in self.SHAPES:
            assert (lattice_fields(build_lattice(shape, coords))
                    == reference_two_branch_build(shape, coords))


class TestPrefixSumBuild:
    # every shape of at most 3,003 elements with both dimensions up to 60:
    # 435 shapes, 166,867 elements, the empty lattices included
    SMALL = [Shape(m, n) for m in range(61) for n in range(61) if comb(m + n, m) <= 3003]

    @staticmethod
    def assert_same_build(shape):
        got, want = build_lattice(shape), reference_build_lattice(shape)
        assert got.elements == want.elements, shape
        assert got.ranks == want.ranks, shape
        assert got.covers == want.covers, shape

    def test_small_shapes_match_the_reference(self):
        assert len(self.SMALL) == 435
        for shape in self.SMALL:
            self.assert_same_build(shape)

    @pytest.mark.parametrize("m,n", [(48, 3), (49, 3), (8, 8), (7, 9), (9, 7), (1, 300),
                                     (300, 1), (0, 7), (7, 0)])
    def test_large_shapes_match_the_reference(self, m, n):
        self.assert_same_build(Shape(m, n))


class TestKeyStringsBySpelling:
    # digits for m <= 9, bracketed for m > 9 * (n + 1), mixed between
    SHAPES = [(m, n) for m in range(41) for n in range(5)] + [(7, 9), (8, 8), (9, 7)]

    @pytest.mark.parametrize("coords", ["partition", "composition"])
    def test_key_strings_format_each_element(self, coords):
        spellings = set()
        for m, n in self.SHAPES:
            p = build_lattice(Shape(m, n), coords)
            assert p.key_strings == tuple(map(format_composition, p.elements)), (m, n)
            spellings.add("digits" if m <= 9 else "bracketed" if m > 9 * (n + 1) else "mixed")
        assert spellings == {"digits", "bracketed", "mixed"}

    def test_empty_poset_of_a_huge_n_makes_no_template(self):
        assert traced_peak(lambda: build_lattice(Shape(0, 10**9)).key_strings) < 10**6


def reference_format_composition(c):
    """The join-based key rule that format_composition's templates replaced."""
    if max(c, default=0) <= 9:
        return "".join(map(str, c))
    return "[" + ",".join(map(str, c)) + "]"


def reference_serialize_poset(p):
    """The f-string writer that serialize_poset's format maps replaced."""
    lines = [f"poset {p.label()} height={p.height} count={len(p)}"]
    for i, c in enumerate(p.elements):
        lines.append(f"{i} {p.ranks[i]} {reference_format_composition(c)}")
    for lo, hi, color in p.covers:
        lines.append(f"{lo} {hi} {color}")
    return "\n".join(lines) + "\n"


def reference_dict_build(shape, coordinates):
    """The dict-based cover emission that the root-translation pairing
    replaced: every upper cover looked up in a key -> index dict, for each
    element and j from n - 1 down to 0."""
    m, n = shape
    if m == 0 or n == 0:
        return shape, coordinates, (), (), (), 0
    comps = enumerate_compositions(m, n + 1)
    comps.sort(key=weighted_sum)
    index = {c: i for i, c in enumerate(comps)}
    edges = [(lo, index[c[:j] + (c[j] + 1, c[j + 1] - 1) + c[j + 2 :]], j + 1)
             for lo, c in enumerate(comps) for j in range(n - 1, -1, -1) if c[j + 1]]
    ranks = tuple(map(weighted_sum, comps))
    return shape, coordinates, tuple(comps), ranks, tuple(edges), m * n


def reference_natural(text):
    """``parse_natural`` before leading zeros were refused: ASCII digits only."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a number in ASCII digits: {text!r}")
    return int(text)


def reference_key(token):
    """``parse_composition`` before a key had one spelling: any key may be
    bracketed, and bracketed entries may have leading zeros."""
    if token.startswith("["):
        if not token.endswith("]"):
            raise ValueError(f"unterminated bracketed composition: {token!r}")
        try:
            return tuple(map(reference_natural, token[1:-1].split(",")))
        except ValueError:
            raise ValueError(f"not a composition key: {token!r}") from None
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a composition key: {token!r}")
    return tuple(map(int, token))


def reference_label(label):
    """``_parse_label`` with the lenient numbers of :func:`reference_natural`."""
    coords = "composition" if label.startswith("L'") else "partition"
    body = label[2:] if coords == "composition" else label[1:]
    if not (label.startswith("L") and body.startswith("(") and body.endswith(")")):
        raise ParseError(1, f"bad lattice label: {label!r}")
    dims = body[1:-1].split(",")
    try:
        m, n = (reference_natural(v.removeprefix("-")) for v in dims)
    except ValueError:
        raise ParseError(1, f"bad lattice label: {label!r}") from None
    if any(v.startswith("-") for v in dims):
        raise ParseError(1, f"negative lattice dimension: {label!r}")
    return Shape(m, n), coords


def reference_parse_lines(text):
    """The line validator that parse_poset replaced by one comparison with
    the writer's text.  It parses the header fields in any order and
    revalidates every line: index, rank, key, order, and each cover by its
    base-(m+1) code step.  It accepts spellings the writer never produces,
    so its accepted set contains parse_poset's.  It returns the lattice's
    :func:`lattice_fields`."""
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty poset file")
    parts = lines[0].split()
    if len(parts) != 4 or parts[0] != "poset":
        raise ParseError(1, f"bad poset header: {lines[0]!r}")
    shape, coords = reference_label(parts[1])
    fields = {}
    for chunk in parts[2:]:
        key, _, value = chunk.partition("=")
        try:
            fields[key] = reference_natural(value)
        except ValueError:
            raise ParseError(1, f"bad header field: {chunk!r}") from None
    if set(fields) != {"height", "count"}:
        raise ParseError(1, "expected height= and count= in header")
    height, count = fields["height"], fields["count"]
    m, n = shape
    try:
        poset._require_within_limit(m, n)
    except ValueError as exc:
        raise ParseError(1, str(exc)) from None
    expected_count = 0 if m == 0 or n == 0 else comb(m + n, m)
    if count != expected_count:
        raise ParseError(1, f"count={count} does not match the {m} x {n} lattice")
    if height != m * n:
        raise ParseError(1, f"height={height} does not match the {m} x {n} lattice")
    if len(lines) < 1 + count:
        raise ParseError(len(lines), "truncated element section")

    base = m + 1
    comps, ranks, codes = [], [], []
    degree_total = 0
    for i in range(count):
        line_no = i + 2
        fields = lines[1 + i].split()
        if len(fields) != 3:
            raise ParseError(line_no, f"bad element line: {lines[1 + i]!r}")
        try:
            idx, r = reference_natural(fields[0]), reference_natural(fields[1])
            key = reference_key(fields[2])
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        if idx != i:
            raise ParseError(line_no, f"expected index {i}, got {idx}")
        if len(key) != n + 1 or sum(key) != m:
            raise ParseError(line_no, f"key {fields[2]} is not an element of the lattice")
        if r != weighted_sum(key):
            raise ParseError(line_no, f"rank {r} does not match key {fields[2]}")
        if comps and (ranks[-1], comps[-1]) >= (r, key):
            raise ParseError(line_no, "elements out of order")
        code = 0
        for v in key:
            code = code * base + v
        comps.append(key)
        ranks.append(r)
        codes.append(code)
        degree_total += n - key[:n].count(0)

    step = [0] + [base ** (n - j) - base ** (n - j - 1) for j in range(n)]
    covers = []
    prev = (-1, -1)
    for line_no, line in enumerate(lines[1 + count :], count + 2):
        fields = line.split()
        if len(fields) != 3:
            raise ParseError(line_no, f"bad cover line: {line!r}")
        try:
            lo, hi, color = map(reference_natural, fields)
        except ValueError:
            raise ParseError(line_no, f"bad cover line: {line!r}") from None
        if not (0 <= lo < count and 0 <= hi < count):
            raise ParseError(line_no, "cover index out of range")
        if not 1 <= color <= n:
            raise ParseError(line_no, f"color {color} out of range 1..{n}")
        if comps[hi][color - 1] < 1 or codes[hi] - codes[lo] != step[color]:
            raise ParseError(
                line_no, f"{comps[lo]} is not the color-{color} cover below {comps[hi]}"
            )
        if prev >= (lo, hi):
            raise ParseError(line_no, "covers out of order")
        prev = (lo, hi)
        covers.append((lo, hi, color))
    if len(covers) != degree_total:
        raise ParseError(len(lines), f"expected {degree_total} covers, got {len(covers)}")

    return shape, coords, tuple(comps), tuple(ranks), tuple(covers), height


def assert_within_the_reference(text):
    """parse_poset accepts ``text`` only if the reference validator accepts
    it, and then returns the same poset; otherwise it raises ParseError."""
    try:
        expected = reference_parse_lines(text)
    except ParseError:
        with pytest.raises(ParseError):
            parse_poset(text)
        return
    try:
        got = parse_poset(text)
    except ParseError:
        return
    assert lattice_fields(got) == expected


class LineSplitForbidden(str):
    """A text that fails the test if it is ever cut into lines."""

    def splitlines(self, keepends=False):
        raise AssertionError("the text was split into lines")


def respaced(text, data):
    """``text`` with each line end drawn from LF, CRLF and CR, each run of
    blanks drawn from blank and tab runs, and maybe no final line end: the
    freedom parse_poset leaves a writer."""
    blanks = st.sampled_from([" ", "  ", "\t", " \t ", "\t\t"])
    out = []
    for line in text.splitlines():
        words = line.split()
        lead, trail = data.draw(st.sampled_from(["", " ", "\t"])), data.draw(st.sampled_from(["", " "]))
        out.append(lead + "".join(w + data.draw(blanks) for w in words[:-1]) + words[-1] + trail)
        out.append(data.draw(st.sampled_from(["\n", "\r\n", "\r"])))
    if data.draw(st.booleans()):
        out.pop()
    return "".join(out)


class TestCanonicalPosetIO:
    SHAPES = ([Shape(m, n) for m in range(8) for n in range(8)]
              + [Shape(12, 1), Shape(1, 12), Shape(2000, 1)]
              + [Shape(0, k) for k in (8, 12)] + [Shape(k, 0) for k in (8, 12)])

    @pytest.mark.parametrize("coords", ["partition", "composition"])
    def test_build_and_write_match_the_references(self, coords):
        for shape in self.SHAPES:
            p = build_lattice(shape, coords)
            assert lattice_fields(p) == reference_dict_build(shape, coords), shape
            assert serialize_poset(p) == reference_serialize_poset(p), shape

    def test_format_composition_matches_the_join_rule(self):
        keys = {c for shape in self.SHAPES for c in build_lattice(shape).elements}
        keys |= {(), (0,), (9,), (10,), (10, 0, 2, 0), (123, 4), (9, 9, 9)}
        for c in keys:
            assert format_composition(c) == reference_format_composition(c)
        keys = sorted(keys)  # mixed lengths and widths in one call
        assert format_compositions(keys) == list(map(reference_format_composition, keys))
        for batch in ([], [()], [(), ()], [(10, 0, 2, 0), (1, 2), (9, 9, 9)],
                      [(1, 2), (), (123, 4), (0,), ()]):
            assert format_compositions(batch) == list(map(reference_format_composition, batch))

    @pytest.mark.parametrize("keys", [
        [(), (1, 2), (), (10, 0, 2, 0), (9,)],
        [(1, 2), (9, 9, 9), (10,), (0,), (123, 4, 5, 6)],
        [(-1, 3, 0), (2, -10), (-1,), (9, -11, 10), ()],
        [(0, 9), (9, 10), (-10, 9), (), ()],
    ])
    def test_batch_equals_one_key_at_a_time(self, keys):
        assert format_compositions(keys) == [format_composition(k) for k in keys]

    @pytest.mark.parametrize("coords", ["partition", "composition"])
    def test_fast_path_returns_what_the_validator_returns(self, coords):
        for shape in self.SHAPES:
            text = serialize_poset(build_lattice(shape, coords))
            # CRLF line ends are not the writer's bytes: the validator reads them
            assert_same_poset(parse_poset(text), parse_poset(text.replace("\n", "\r\n")))

    def test_only_non_canonical_text_reaches_the_validator(self):
        # the validator is now the line-by-line comparison: the writer's exact
        # bytes are accepted by one comparison, without cutting them into lines
        text = serialize_poset(build_lattice(Shape(4, 3)))
        validated = parse_poset(text.replace("\n", "\r\n"))
        assert_same_poset(parse_poset(LineSplitForbidden(text)), validated)
        with pytest.raises(AssertionError):
            parse_poset(LineSplitForbidden(text.replace("\n", "\r\n")))

    @given(st.sampled_from([(2, 2), (3, 2), (2, 3), (1, 4)]),
           st.sampled_from(["partition", "composition"]), st.data())
    def test_mutated_text_matches_the_validator(self, shape, coords, data):
        text = mutated_text(serialize_poset(build_lattice(Shape(*shape), coords)), data)
        assert_within_the_reference(text)

    def test_large_header_with_short_body_fails_without_a_build(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a lattice was built")

        monkeypatch.setattr(poset, "build_lattice", unreachable)
        key = format_composition((12,) + (0,) * 12)
        text = f"poset L(12,12) height=144 count=2704156\n0 0 {key}\n1 1 x\n2 2 y\n"
        start = perf_counter()
        with pytest.raises(ParseError) as err:
            parse_poset(text)
        assert perf_counter() - start < 0.1
        lines = 1 + comb(24, 12) + 12 * comb(23, 12)
        assert lines == 18_929_093
        assert str(err.value) == "line 5: expected 18929093 lines, got 4"


def _change_first_line(text):
    """The index of the first element line changed from 0 to 1."""
    start = text.index("\n") + 1
    return text[:start] + "1" + text[start + 1:]


def _change_last_line(text):
    """The color of the last cover line changed."""
    return text[:-2] + ("2" if text[-2] == "1" else "1") + "\n"


class TestBlockWriter:
    """The writer makes the text in blocks of ``_BLOCK_LINES`` lines, and the
    parser compares a text with those blocks in place; where the blocks end
    changes no byte written and no result or error of a parse."""

    SHAPES = [Shape(m, n) for m in range(7) for n in range(7)]

    @pytest.mark.parametrize("block_lines", [1, 2, 3, 7])
    @pytest.mark.parametrize("coords", ["partition", "composition"])
    def test_any_block_size_writes_and_reads_the_reference_text(self, monkeypatch,
                                                                block_lines, coords):
        monkeypatch.setattr(poset, "_BLOCK_LINES", block_lines)
        for shape in self.SHAPES:
            p = build_lattice(shape, coords)
            blocks = list(poset._poset_blocks(p))
            assert all(0 < block.count("\n") <= block_lines for block in blocks), shape
            text = serialize_poset(p)
            assert text == "".join(blocks) == reference_serialize_poset(p), shape
            assert lattice_fields(p) == reference_parse_lines(text), shape
            validated = parse_poset(text.replace("\n", "\r\n"))  # not the writer's bytes
            assert_same_poset(validated, p)
            assert_same_poset(parse_poset(text), validated)
            assert_same_poset(parse_poset(LineSplitForbidden(text)), validated)

    @pytest.mark.parametrize("block_lines", [1, 2, 3, 7, poset._BLOCK_LINES])
    @pytest.mark.parametrize("shape, coords, count, first_key, last_lo_hi", [
        ((4, 3), "composition", 96, "0004", "33 34"),
        ((2, 2), "partition", 13, "002", "4 5"),
        ((6, 6), "partition", 3697, "0000006", "922 923"),
    ])
    def test_near_misses_raise_the_line_validators_errors(self, monkeypatch, block_lines,
                                                           shape, coords, count, first_key,
                                                           last_lo_hi):
        monkeypatch.setattr(poset, "_BLOCK_LINES", block_lines)
        p = build_lattice(Shape(*shape), coords)
        text = serialize_poset(p)
        assert_same_poset(parse_poset(text[:-1]), p)  # the final line end is free
        last_line = f"{last_lo_hi} 1"
        for variant, line, message in [
            (text + "x", count + 1, f"expected {count} lines, got {count + 1}"),
            (text[:-2] + "\n", count, f"expected {last_line!r}, got '{last_lo_hi} '"),
            (_change_first_line(text), 2, f"expected '0 0 {first_key}', got '1 0 {first_key}'"),
            (_change_last_line(text), count, f"expected {last_line!r}, got '{last_lo_hi} 2'"),
        ]:
            with pytest.raises(ParseError) as err:
                parse_poset(variant)
            assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")

    def test_write_and_parse_hold_one_text_at_a_time(self):
        # L'(60,3): 39,711 elements and 113,460 covers.  Joining one string
        # per line held about 5.7 texts at the peak of a write and 6.5 texts
        # beyond the build at the peak of a parse.
        p = build_lattice(Shape(60, 3), "composition")
        p.key_strings
        text = serialize_poset(p)
        size = len(text)
        assert traced_peak(serialize_poset, p) < 3 * size
        parse_peak = traced_peak(parse_poset, text)
        build_peak = traced_peak(build_lattice, Shape(60, 3), "composition")
        assert parse_peak - build_peak < 3 * size


_L22 = serialize_poset(build_lattice(Shape(2, 2)))


class TestOneParseRule:
    """parse_poset accepts exactly the writer's text for the header's lattice,
    up to line ends and runs of blanks."""

    @given(st.text())
    @example(_L22)
    @example(_L22.replace("L(2,2)", "L(02,2)"))
    @example("poset L(2,2) height=4 count=6\n")
    def test_any_text_stays_within_the_reference(self, text):
        assert_within_the_reference(text)

    @given(st.sampled_from([(2, 2), (3, 2), (1, 4), (0, 3)]),
           st.sampled_from(["partition", "composition"]), st.data())
    def test_text_that_parses_is_the_writers_text(self, shape, coords, data):
        text = serialize_poset(build_lattice(Shape(*shape), coords))
        text = respaced(text, data)
        if data.draw(st.booleans()):
            text = mutated_text(text, data)
        try:
            p = parse_poset(text)
        except ParseError:
            return
        assert ([line.split() for line in text.splitlines()]
                == [line.split() for line in serialize_poset(p).splitlines()])

    @pytest.mark.parametrize("old, new", [
        ("L(2,2)", "L(02,2)"),
        ("count=6", "count=06"),
        ("\n0 0 002\n", "\n00 0 002\n"),
        ("\n0 0 002\n", "\n0 0 [0,0,2]\n"),
        ("\n0 1 2\n", "\n0 01 2\n"),
        ("height=4 count=6", "count=6 height=4"),
    ])
    def test_spellings_the_writer_never_produces_are_rejected(self, old, new):
        text = _L22.replace(old, new, 1)
        assert reference_parse_lines(text) == lattice_fields(build_lattice(Shape(2, 2)))
        with pytest.raises(ParseError):
            parse_poset(text)

    @pytest.mark.parametrize("variant", [
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t.replace("\n", "\r"),
        lambda t: t.replace(" ", "\t"),
        lambda t: "".join(f" {line}  \n" for line in t.replace(" ", " \t  ").split("\n")[:-1]),
        lambda t: t[:-1],
    ], ids=["crlf", "bare-cr", "tabs", "blank-runs", "no-final-newline"])
    @pytest.mark.parametrize("shape", [(2, 2), (4, 3), (0, 3)])
    def test_line_ends_and_blanks_are_free(self, variant, shape):
        p = build_lattice(Shape(*shape), "composition")
        assert_same_poset(parse_poset(variant(serialize_poset(p))), p)

    def test_each_call_builds_at_most_one_lattice(self, monkeypatch):
        built = []

        def counting_build(*args):
            built.append(args)
            return build_lattice(*args)

        monkeypatch.setattr(poset, "build_lattice", counting_build)
        text = serialize_poset(build_lattice(Shape(3, 3)))
        lines = text.splitlines()
        texts = [text, text.replace("\n", "\r\n"), text[:-1],
                 "\n".join(lines[:5] + ["garbage"] + lines[6:]) + "\n",
                 text + "\x0c", text + "0 1 1\n", text[: len(text) // 2], "", "poset"]
        for variant in texts:
            built.clear()
            try:
                parse_poset(variant)
            except ParseError:
                pass
            assert len(built) <= 1
        # a text with the wrong number of lines is refused before any build
        for variant in texts[-4:]:
            built.clear()
            with pytest.raises(ParseError):
                parse_poset(variant)
            assert built == []

    @pytest.mark.parametrize("text, message", [
        ("", "bad poset header: ''"),
        ("poset L(2,2)\n", "bad poset header: 'poset L(2,2)'"),
        (_L22.replace("poset", "graph", 1), "bad poset header: 'graph L(2,2) height=4 count=6'"),
        ("graph L(2,2) height=4 count=6\n", "bad poset header: 'graph L(2,2) height=4 count=6'"),
        ("poset L(2,2)\x0c" + _L22, "bad poset header: 'poset L(2,2)'"),
    ])
    def test_header_is_checked_before_the_line_count(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_poset(text)
        assert str(err.value) == f"line 1: {message}"

    def test_garbage_in_a_full_length_file_reports_its_line(self):
        lines = _L22.splitlines()
        lines[2] = "garbage"
        with pytest.raises(ParseError) as err:
            parse_poset("\n".join(lines) + "\n")
        assert str(err.value) == "line 3: expected '1 1 011', got 'garbage'"

    def test_other_line_breaks_beside_the_newlines_are_counted(self):
        # the newline count matches, but str.splitlines also cuts at \x0c
        with pytest.raises(ParseError) as err:
            parse_poset(_L22 + "\x0c")
        assert str(err.value) == "line 14: expected 13 lines, got 14"

    @given(st.one_of(st.text(), st.text(alphabet="poset L(2)\n\r\x0b\x0c\x1c\x1d\x1e\x85"
                                                  "\u2028\u2029\t")))
    def test_header_is_the_first_line_splitlines_cuts(self, text):
        first = (text.splitlines() or [""])[0]
        words = first.split()
        assume(len(words) != 4 or words[0] != "poset")
        with pytest.raises(ParseError) as err:
            parse_poset(text)
        assert str(err.value) == f"line 1: bad poset header: {first!r}"


def reference_splitting_identities(m, n):
    """check_splitting_identities with the element split replayed on
    partition sets from partitions_in_box, as before the composition replay."""
    check = check_splitting_identities(m, n)
    elements = set(partitions_in_box(m, n))
    with_big = {a for a in elements if a and a[0] == n}
    without_big = elements - with_big
    image = {a[1:] for a in with_big}
    bijective = (
        len(image) == len(with_big)
        and image == set(partitions_in_box(m - 1, n))
        and without_big == set(partitions_in_box(m, n - 1))
    )
    return SplitCheck(Shape(m, n), check.first_identity, check.second_identity,
                      len(with_big), len(without_big), bijective)


class TestSplittingIdentities:
    def test_is_a_named_tuple_of_the_old_fields(self):
        check = check_splitting_identities(3, 2)
        assert SplitCheck._fields == ("shape", "first_identity", "second_identity",
                                      "with_largest", "without_largest", "split_bijective")
        assert check == (Shape(3, 2), True, True, 6, 4, True)
        assert bool(check) == check.passed is True
        with pytest.raises(AttributeError):
            check.first_identity = False

    def test_bool_is_passed_when_a_check_fails(self):
        check = check_splitting_identities(3, 2)._replace(split_bijective=False)
        assert bool(check) == check.passed is False

    def test_composition_replay_matches_the_partition_sets(self):
        for m in range(1, 9):
            for n in range(1, 9):
                assert check_splitting_identities(m, n) == reference_splitting_identities(m, n)

    def test_l33_splits_ten_ten(self):
        result = check_splitting_identities(3, 3)
        assert result.passed
        assert result.with_largest == 10
        assert result.without_largest == 10

    def test_smallest_box(self):
        assert check_splitting_identities(1, 1).passed

    def test_l43(self):
        assert check_splitting_identities(4, 3).passed

    def test_refuses_more_than_element_limit(self):
        with pytest.raises(ValueError) as err:
            check_splitting_identities(13, 13)
        assert str(err.value) == "L(13,13) has more than 4,000,000 elements"
        assert check_splitting_identities(2000, 1).passed

    def test_refuses_more_than_key_entry_limit(self):
        with pytest.raises(ValueError) as err:
            check_splitting_identities(1, 20000)
        assert str(err.value) == ("L(1,20000) has 20,001 keys of 20,001 entries, "
                                  "over the limit of 40,000,000 entries")

    @pytest.mark.parametrize("at", [-2, 1])  # in the c[0] >= 1 block, in the c[0] = 0 block
    def test_a_broken_key_split_is_reported(self, monkeypatch, at):
        # the (4, 3) keys with one key listed twice, in place of its successor:
        # the coefficient identities still hold, the replayed split does not
        def listing(m, n):
            keys = enumerate_compositions(m, n)
            if (m, n) == (4, 4):
                keys[at] = keys[at - 1]
            return keys

        monkeypatch.setattr(poset, "enumerate_compositions", listing)
        result = check_splitting_identities(4, 3)
        assert result.first_identity and result.second_identity
        assert not result.split_bijective and not result.passed

    def test_exhaustive_up_to_8(self):
        for m in range(1, 9):
            for n in range(1, 9):
                assert check_splitting_identities(m, n).passed

    def test_iterated_decomposition_by_largest_part(self):
        # peeling the largest part of L(3,3) repeatedly splits it into
        # two-row boxes with ceilings 3, 2, 1, 0
        elements = list(partitions_in_box(3, 3))
        groups = {k: set() for k in range(4)}
        for a in elements:
            groups[a[0] if a else 0].add(a)
        assert {len(groups[k]) for k in groups} == {10, 6, 3, 1}
        for k in range(4):
            image = {a[1:] for a in groups[k]} if k else groups[k]
            assert image == set(partitions_in_box(2, k))


class TestPosetFiles:
    def test_round_trip_both_coordinate_modes(self):
        for coords in ("partition", "composition"):
            p = build_lattice(Shape(4, 3), coords)
            text = serialize_poset(p)
            q = parse_poset(text)
            assert_same_poset(q, p)
            assert serialize_poset(q) == text

    def test_bodies_identical_across_modes(self):
        a = serialize_poset(build_lattice(Shape(4, 3), "partition"))
        b = serialize_poset(build_lattice(Shape(4, 3), "composition"))
        assert a.splitlines()[0] == "poset L(4,3) height=12 count=35"
        assert b.splitlines()[0] == "poset L'(4,3) height=12 count=35"
        assert a.splitlines()[1:] == b.splitlines()[1:]

    def test_header_shape(self):
        text = serialize_poset(build_lattice(Shape(3, 3)))
        first = text.splitlines()[0]
        assert first == "poset L(3,3) height=9 count=20"

    @given(st.integers(0, 4), st.integers(0, 4))
    def test_round_trip_random_shapes(self, m, n):
        p = build_lattice(Shape(m, n), "composition")
        assert_same_poset(parse_poset(serialize_poset(p)), p)

    def test_parse_error_carries_line_number(self):
        text = serialize_poset(build_lattice(Shape(2, 2)))
        lines = text.splitlines()
        lines[3] = "bogus line"
        with pytest.raises(ParseError) as err:
            parse_poset("\n".join(lines) + "\n")
        assert err.value.line == 4

    def test_parse_rejects_wrong_count(self):
        text = serialize_poset(build_lattice(Shape(2, 2)))
        with pytest.raises(ParseError):
            parse_poset(text.replace("count=6", "count=5"))

    def test_parse_rejects_bad_rank(self):
        text = serialize_poset(build_lattice(Shape(2, 2)))
        bad = text.replace("1 1 011", "1 2 011")
        with pytest.raises(ParseError):
            parse_poset(bad)

    def test_parse_rejects_wrong_color(self):
        p = build_lattice(Shape(2, 2))
        text = serialize_poset(p)
        lines = text.splitlines()
        lo, hi, color = lines[-1].split()
        flipped = "1" if color != "1" else "2"
        lines[-1] = f"{lo} {hi} {flipped}"
        with pytest.raises(ParseError):
            parse_poset("\n".join(lines) + "\n")

    @pytest.mark.parametrize("label", ["L'(-1,3)", "L(3,-2)", "L(-1,-1)"])
    def test_parse_rejects_negative_dimension(self, label):
        with pytest.raises(ParseError) as err:
            parse_poset(f"poset {label} height=0 count=0\n")
        assert err.value.line == 1
        assert "negative" in str(err.value)

    @pytest.mark.parametrize("label", ["X(2,2)", "M'(2,2)"])
    def test_parse_rejects_label_not_starting_with_l(self, label):
        text = serialize_poset(build_lattice(Shape(2, 2)))
        with pytest.raises(ParseError) as err:
            parse_poset(text.replace("L(2,2)", label, 1))
        assert err.value.line == 1
        assert str(err.value) == f"line 1: bad lattice label: {label!r}"


class TestParseAnyText:
    @given(st.text())
    @example("poset L(2,2) height=\u00b2 count=6\n")
    @example("poset L(2,2) height=4 count=\u00b2\n")
    @example("poset L(100000,100000) height=10000000000 count=1\n")
    @example(_L22.replace("L(2,2)", "L(+2,2)"))
    @example(_L22.replace("L(2,2)", "L(2,0_2)"))
    @example(_L22.replace("L(2,2)", "L(\u0662,2)"))
    @example(_L22.replace("count=6", "count=\u0666"))
    @example(_L22.replace("\n0 0 002\n", "\n+0 0 002\n"))
    @example(_L22.replace("\n0 0 002\n", "\n0 \u0660 002\n"))
    @example(_L22.replace("\n0 0 002\n", "\n0 0 [0,0,+2]\n"))
    @example(_L22.replace("\n0 0 002\n", "\n0 0 [0,0,0_2]\n"))
    @example(_L22.replace("\n0 0 002\n", "\n0 0 00\u0662\n"))
    @example(_L22.replace("\n0 1 2\n", "\n0 +1 2\n"))
    @example(_L22.replace("\n0 1 2\n", "\n0 0_1 2\n"))
    @example(_L22.replace("\n0 1 2\n", "\n0 1 \u0662\n"))
    def test_any_text_parses_or_raises_parse_error(self, text):
        try:
            assert isinstance(parse_poset(text), GradedPoset)
        except ParseError:
            return
        # numbers are ASCII digits only: no sign, no underscore, no other digit
        assert not any(ch in "+_" or ch.isdigit() and not ch.isascii() for ch in text)

    @given(st.sampled_from([(2, 2), (3, 2), (2, 3)]), st.data())
    def test_mutated_file_parses_or_raises_parse_error(self, shape, data):
        text = mutated_text(serialize_poset(build_lattice(Shape(*shape))), data)
        try:
            assert isinstance(parse_poset(text), GradedPoset)
        except ParseError:
            pass

    @pytest.mark.parametrize("header", [
        "poset L(100000,100000) height=10000000000 count=1",
        "poset L'(13,13) height=169 count=10400600",
    ])
    def test_header_over_element_limit_is_refused(self, header):
        label = header.split()[1].replace("'", "")
        with pytest.raises(ParseError) as err:
            parse_poset(header + "\n")
        assert str(err.value) == f"line 1: {label} has more than 4,000,000 elements"

    def test_header_over_key_entry_limit_is_refused(self):
        with pytest.raises(ParseError) as err:
            parse_poset("poset L'(1,100000) height=100000 count=100001\n")
        assert (err.value.line, str(err.value)) == (1, (
            "line 1: L(1,100000) has 100,001 keys of 100,001 entries, "
            "over the limit of 40,000,000 entries"))
        assert len(parse_poset("poset L(0,1000000000) height=0 count=0\n")) == 0


def reference_cover_error(comps, n, lines, first_line_no):
    """The tuple-slicing cover check that parse_poset's code arithmetic
    replaced: (line, message) of the first cover line it rejects, or None.
    ``comps`` are the already validated element keys."""
    count = len(comps)
    covers = []
    for offset, line in enumerate(lines):
        line_no = first_line_no + offset
        fields = line.split()
        if len(fields) != 3:
            return line_no, f"bad cover line: {line!r}"
        lo, hi, color = (int(v) for v in fields)
        if not (0 <= lo < count and 0 <= hi < count):
            return line_no, "cover index out of range"
        if not 1 <= color <= n:
            return line_no, f"color {color} out of range 1..{n}"
        upper, lower = comps[hi], comps[lo]
        j = color - 1
        moved = upper[:j] + (upper[j] - 1, upper[j + 1] + 1) + upper[j + 2 :]
        if moved != lower:
            return line_no, f"{lower} is not the color-{color} cover below {upper}"
        if covers and covers[-1][:2] >= (lo, hi):
            return line_no, "covers out of order"
        covers.append((lo, hi, color))
    return None


class TestArithmeticCoverCheck:
    @given(
        st.integers(1, 6),
        st.integers(1, 4),
        st.sampled_from(["partition", "composition"]),
        st.sampled_from(["color+1", "color-1", "lo", "hi", "swap", "repeat"]),
        st.data(),
    )
    def test_single_cover_mutation_matches_reference(self, m, n, coords, kind, data):
        p = build_lattice(Shape(m, n), coords)
        lines = serialize_poset(p).splitlines()
        first = 1 + len(p)
        k = data.draw(st.integers(first, len(lines) - 1), label="cover line")
        lo, hi, color = p.covers[k - first]
        if kind.startswith("color"):
            color += 1 if kind == "color+1" else -1
        elif kind == "swap":
            lo, hi = hi, lo
        elif kind == "repeat":  # the previous line again: only the order check fails
            lo, hi, color = p.covers[max(k - first - 1, 0)]
        else:
            target = data.draw(st.integers(0, len(p) - 1), label="index")
            lo, hi = (target, hi) if kind == "lo" else (lo, target)
        lines[k] = f"{lo} {hi} {color}"
        text = "\n".join(lines) + "\n"

        # the reference decides whether and where the text is rejected; the
        # message names the writer's line and the line found there
        expected = reference_cover_error(p.elements, n, lines[first:], first + 1)
        if expected is None:
            assert_same_poset(parse_poset(text), p)
        else:
            with pytest.raises(ParseError) as err:
                parse_poset(text)
            line = expected[0]
            want = serialize_poset(p).splitlines()[line - 1]
            assert (err.value.line, str(err.value)) == (
                line, f"line {line}: expected {want!r}, got {lines[line - 1]!r}")


class TestDimensionsAreInts:
    @pytest.mark.parametrize("entry", [
        lambda d: build_lattice((d, 3)),
        lambda d: build_lattice(Shape(2, d), "composition"),
        lambda d: gaussian_binomial(d, 2),
        lambda d: gaussian_binomial(2, d),
        lambda d: check_splitting_identities(d, 2),
        lambda d: check_splitting_identities(2, d),
        lambda d: lindstrom(d),
        lambda d: scd_n2(d),
        lambda d: ChainDecomposition((d, 3), lindstrom(2).chains),
        lambda d: ChainDecomposition((2, d), ()),
    ], ids=["build_lattice-m", "build_lattice-n", "gaussian_binomial-m", "gaussian_binomial-n",
            "identities-m", "identities-n", "lindstrom", "scd_n2", "ChainDecomposition-m",
            "ChainDecomposition-n"])
    @pytest.mark.parametrize("dim", [True, False, 2.0, 2.5, 0.0, "3", None])
    def test_refuses_dimension_that_is_not_an_int(self, entry, dim):
        # a bool or a float once reached the label (L'(True,3), L(2.0,0)) or math.comb
        with pytest.raises(ValueError) as err:
            entry(dim)
        assert str(err.value).startswith("lattice dimensions must be ints >= ")


class TestIndexStaysInPoset:
    def test_index_is_built_on_the_first_lookup(self):
        p = build_lattice(Shape(6, 3), "composition")
        serialize_poset(p)
        to_dot(p)
        to_svg(p, labels="young")
        brute_force_scd(p, 1000)
        assert "_index" not in vars(p)
        assert (0, 0, 0, 6) in p
        assert "_index" in vars(p)

    def test_first_uses_from_many_threads_agree(self):
        keys = build_lattice(Shape(30, 3), "composition").elements
        want = (tuple(map(format_composition, keys)), list(range(len(keys))))
        shared = build_lattice(Shape(30, 3), "composition")
        start = threading.Barrier(8)
        got = [None] * 8

        def first_use(t):
            start.wait(timeout=30)
            if t % 2:  # half the threads touch the index first, half the key strings
                at = list(map(shared.index_of, keys))
                got[t] = (shared.key_strings, at)
            else:
                strings = shared.key_strings
                got[t] = (strings, list(map(shared.index_of, keys)))

        threads = [threading.Thread(target=first_use, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want] * 8

    def test_no_other_module_reads_the_private_index(self):
        import ast
        from pathlib import Path

        import younglat

        offenders = []
        for path in sorted(Path(younglat.__file__).parent.glob("*.py")):
            if path.name == "poset.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and node.attr in ("_index", "_edge_colors"):
                    offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
        assert offenders == []

    def test_only_build_lattice_makes_posets(self):
        # every poset the program holds is a whole lattice
        import ast
        from pathlib import Path

        import younglat

        def called(node):
            func = node.func
            return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

        offenders = []
        sites = 0
        for path in sorted(Path(younglat.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            allowed = {id(node)
                       for fn in ast.walk(tree)
                       if isinstance(fn, ast.FunctionDef) and fn.name == "build_lattice"
                       and path.name == "poset.py"
                       for node in ast.walk(fn)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and called(node) == "GradedPoset":
                    sites += 1
                    if id(node) not in allowed:
                        offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []
        assert sites == 2
