import random
import sys
from itertools import product
from math import comb
from typing import Iterator

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (CORRUPTIONS, chain_lengths, corrupted, mutated_text,
                      reference_serialize_decomposition, reference_verify_scd, traced_peak)
from test_partitions import SMALL_VALUES
from younglat.partitions import Shape, parse_composition
from younglat.poset import (
    ELEMENT_LIMIT,
    GradedPoset,
    ParseError,
    build_lattice,
    gaussian_binomial,
    parse_poset,
    rank_profile,
    serialize_poset,
)
from younglat.render import to_dot, to_svg
from younglat.scd import (
    DEFAULT_BUDGET,
    ChainDecomposition,
    ScdReport,
    SearchResult,
    brute_force_scd,
    lindstrom,
    parse_decomposition,
    scd_n2,
    serialize_decomposition,
    verify_scd,
)

class _BudgetExceeded(Exception):
    pass


def reference_brute_force_scd(p, budget):
    """The recursive search that brute_force_scd replaced with an explicit
    stack; it recurses once per placed element."""
    n_el = len(p)
    if n_el == 0:
        return SearchResult("found", ChainDecomposition(p.shape, ()), 0)
    ht = p.height
    counts = [0] * (ht + 1)
    for r in p.ranks:
        counts[r] += 1
    if any(counts[r] != counts[ht - r] for r in range(ht + 1)):
        return SearchResult("not-found", None, 0)
    if any(counts[r] > counts[r + 1] for r in range(ht // 2)):
        return SearchResult("not-found", None, 0)

    tops_quota = {}
    for t in range((ht + 1) // 2, ht + 1):
        quota = counts[t] - (counts[t + 1] if t < ht else 0)
        if quota:
            tops_quota[t] = quota

    down = [[] for _ in range(n_el)]
    for lo, hi, _ in p.covers:
        down[hi].append(lo)
    for targets in down:
        targets.sort()

    unassigned = [True] * n_el
    chains_acc = []
    spent = [0]

    def charge():
        spent[0] += 1
        if spent[0] > budget:
            raise _BudgetExceeded

    def next_top():
        for i in range(n_el - 1, -1, -1):
            if unassigned[i]:
                return i
        return -1

    def extend(path, bottom_rank):
        if p.ranks[path[-1]] == bottom_rank:
            chains_acc.append(tuple(path))
            if start_chain():
                return True
            chains_acc.pop()
            return False
        for child in down[path[-1]]:
            if unassigned[child]:
                charge()
                unassigned[child] = False
                path.append(child)
                if extend(path, bottom_rank):
                    return True
                path.pop()
                unassigned[child] = True
        return False

    def start_chain():
        i = next_top()
        if i < 0:
            return True
        t = p.ranks[i]
        quota = tops_quota.get(t, 0)
        if quota == 0:
            return False
        charge()
        tops_quota[t] = quota - 1
        unassigned[i] = False
        if extend([i], ht - t):
            return True
        unassigned[i] = True
        tops_quota[t] = quota
        return False

    try:
        found = start_chain()
    except _BudgetExceeded:
        return SearchResult("budget-exhausted", None, spent[0])
    if not found:
        return SearchResult("not-found", None, spent[0])
    chains = [tuple(p.elements[i] for i in chain) for chain in chains_acc]
    return SearchResult("found", ChainDecomposition(p.shape, chains), spent[0])



# brute_force_scd as it was before it charged dead descents without walking
# them, frozen here under another name as the oracle for that change
def reference_stack_brute_force_scd(p: GradedPoset, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Backtracking search for a symmetric chain decomposition of ``p``.

    The highest-ranked unassigned element must top a chain descending to the
    mirror rank; candidate paths are explored in canonical element order, so
    the result is deterministic.  Branches are pruned with the forced count
    of chain tops per level (the consecutive differences of the rank
    numbers).  Each attempted placement consumes one unit of ``budget``;
    running out is reported distinctly from proven absence.  The search
    keeps its own stack, so no shape reaches the recursion limit.
    """
    n_el = len(p)
    if n_el == 0:
        return SearchResult("found", ChainDecomposition(p.shape, ()), 0)
    ht = p.height
    counts = rank_profile(p)

    tops_quota = {}
    for t in range((ht + 1) // 2, ht + 1):
        quota = counts[t] - (counts[t + 1] if t < ht else 0)
        if quota:
            tops_quota[t] = quota

    down: list[list[int]] = [[] for _ in range(n_el)]
    for lo, hi, _ in p.covers:  # in lower-index order, so each list is ascending
        down[hi].append(lo)

    ranks = p.ranks
    unassigned = [True] * n_el
    # one entry per placed element, chains concatenated top-down: the element
    # and the iterator over the alternatives still untried in its position
    placed: list[tuple[int, Iterator[int]]] = []
    tops: list[int] = []  # positions in ``placed`` where the chains start
    spent = 0
    while True:
        starting = not tops or (
            ranks[placed[-1][0]] == ht - ranks[placed[tops[-1]][0]])
        if starting:
            # the highest unassigned element tops the next chain; every
            # element above the previous top is assigned already
            top = (placed[tops[-1]][0] if tops else n_el) - 1
            while top >= 0 and not unassigned[top]:
                top -= 1
            if top < 0:
                break
            options = iter((top,) if tops_quota.get(ranks[top]) else ())
        else:
            options = iter(down[placed[-1][0]])
        # take the first unassigned option; backtrack while there is none
        while True:
            for child in options:
                if unassigned[child]:
                    break
            else:
                if not placed:
                    return SearchResult("not-found", None, spent)
                undone, options = placed.pop()
                unassigned[undone] = True
                if tops[-1] == len(placed):
                    tops.pop()
                    tops_quota[ranks[undone]] += 1
                starting = False
                continue
            break
        spent += 1
        if spent > budget:
            return SearchResult("budget-exhausted", None, spent)
        unassigned[child] = False
        if starting:
            tops.append(len(placed))
            tops_quota[ranks[child]] -= 1
        placed.append((child, options))
    bounds = tops + [len(placed)]
    chains = [tuple(p.elements[i] for i, _ in placed[lo:hi])
              for lo, hi in zip(bounds, bounds[1:])]
    return SearchResult("found", ChainDecomposition(p.shape, chains), spent)


L13_CHAIN = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def expected_start_profile(m, n):
    g = list(gaussian_binomial(m, n))
    out = {}
    for s in range(m * n // 2 + 1):
        d = g[s] - (g[s - 1] if s else 0)
        if d:
            out[s] = d
    return out


class Vee:
    """Two maximal elements over one minimum: not a lattice, and no
    symmetric chain cover exists.  A stand-in with the poset surface that
    brute_force_scd reads, since every GradedPoset is a whole lattice."""

    shape = None
    elements = ((0,), (1,), (2,))
    ranks = (0, 1, 1)
    covers = ((0, 1, 1), (0, 2, 1))
    height = 1

    def levels(self):
        return [range(0, 1), range(1, 3)]

    def __len__(self):
        return len(self.elements)


# the shapes the small_diagrams benchmark workload hands to `scd brute`: four
# or more part sizes, at most 60 cells and at most 1,001 elements
BRUTE_SHAPES = [(m, n) for m in range(1, 61) for n in range(4, 61)
                if m * n <= 60 and comb(m + n, m) <= 1001]
BOXES = [(m, n) for m in range(7) for n in range(7)]


@pytest.fixture
def vee():
    return Vee()


def one_chain_report(chain, m):
    """The verifier's report on the decomposition of L'(m,3) that holds
    ``chain`` alone: the chain is symmetric when it is neither unsaturated
    nor asymmetric there."""
    p = build_lattice(Shape(m, 3), "composition")
    return verify_scd(ChainDecomposition(Shape(m, 3), [chain]), p)


class TestIsSymmetricChain:
    def test_red_string_is_not_symmetric(self):
        chain = ((1, 3, 0, 0), (1, 2, 1, 0), (1, 1, 2, 0), (1, 0, 3, 0))
        # ranks 9 down to 6 in a height-12 poset
        report = one_chain_report(chain, 4)
        assert (report.unsaturated, report.asymmetric) == ((), (0,))

    def test_singleton_at_middle_rank(self):
        report = one_chain_report(((1, 0, 0, 1),), 2)  # rank 3 = height / 2
        assert (report.unsaturated, report.asymmetric) == ((), ())

    def test_full_chain_poset(self):
        assert one_chain_report(L13_CHAIN, 1).passed

    def test_unknown_element_reported(self):
        report = one_chain_report(((9, 9, 9, 9),), 1)
        assert report.unknown == ((9, 9, 9, 9),)
        assert (report.unsaturated, report.asymmetric) == ((0,), ())

    def test_gap_is_not_saturated(self):
        report = one_chain_report(((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), 1)
        assert (report.unsaturated, report.asymmetric) == ((0,), ())


class TestVerifier:
    def test_report_is_a_named_tuple_of_the_old_fields(self):
        report = verify_scd(lindstrom(3), build_lattice(Shape(3, 3)))
        assert ScdReport._fields == ("shape", "height", "poset_size", "chain_count", "missing",
                                     "duplicated", "unknown", "unsaturated", "asymmetric",
                                     "start_profile")
        assert report == (Shape(3, 3), 9, 20, 3, (), (), (), (), (), {0: 1, 2: 1, 3: 1})
        assert report.passed
        with pytest.raises(AttributeError):
            report.missing = ((0, 0, 0, 3),)

    def test_single_chain_decomposition_passes(self):
        p = build_lattice(Shape(1, 3), "composition")
        d = ChainDecomposition(Shape(1, 3), [L13_CHAIN])
        report = verify_scd(d, p)
        assert report.passed
        assert report.start_profile == {0: 1}

    def test_missing_element_detected(self):
        p = build_lattice(Shape(1, 3), "composition")
        d = ChainDecomposition(Shape(1, 3), [L13_CHAIN[:-1]])
        report = verify_scd(d, p)
        assert not report.passed
        assert report.missing == ((0, 0, 0, 1),)
        assert report.asymmetric  # truncated chain no longer mirrors

    def test_duplicate_detected(self):
        p = build_lattice(Shape(1, 3), "composition")
        d = ChainDecomposition(
            Shape(1, 3), [L13_CHAIN, ((0, 0, 1, 0),)]
        )
        report = verify_scd(d, p)
        assert report.duplicated == ((0, 0, 1, 0),)

    def test_unknown_key_detected(self):
        p = build_lattice(Shape(1, 3), "composition")
        d = ChainDecomposition(Shape(1, 3), [L13_CHAIN, ((4, 0, 0, 0),)])
        report = verify_scd(d, p)
        assert (4, 0, 0, 0) in report.unknown
        assert not report.passed

    def test_chain_start_profile_forced(self):
        # any valid decomposition starts r_s - r_{s-1} chains at rank s
        p = build_lattice(Shape(3, 3), "composition")
        report = verify_scd(lindstrom(3), p)
        assert report.passed
        assert report.start_profile == expected_start_profile(3, 3) == {
            0: 1, 2: 1, 3: 1,
        }

    def test_shape_mismatch_raises(self):
        d = ChainDecomposition(Shape(3, 3), lindstrom(2).chains)
        with pytest.raises(ValueError) as err:
            verify_scd(d, build_lattice(Shape(2, 3), "composition"))
        assert str(err.value) == "shape mismatch: poset L'(2,3) vs decomposition L'(3,3)"

    def test_report_lines_bracket_a_key_with_a_negative_entry(self):
        # a negative entry cannot reach a report (the constructor refuses it);
        # an entry over 9 is bracketed, since in digits (12, 0, 0) reads "1200"
        p = build_lattice(Shape(2, 2), "composition")
        chains = [((12, 0, 0),), ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2))]
        lines = verify_scd(ChainDecomposition(Shape(2, 2), chains), p).lines()
        assert lines[lines.index("unknown elements: 1") + 1] == "  [12,0,0]"
        # a key with entries 0..9 keeps its digit form
        assert lines[lines.index("missing elements: 1") + 1] == "  020"

    def test_report_lines_mention_verdict(self):
        p = build_lattice(Shape(1, 3), "composition")
        d = ChainDecomposition(Shape(1, 3), [L13_CHAIN])
        assert verify_scd(d, p).lines()[-1] == "verdict: PASS"


class TestAlternatingConstruction:
    def test_single_row_is_one_chain(self):
        d = scd_n2(1)
        assert len(d.chains) == 1
        assert len(d.chains[0]) == 3  # length 2 in covering steps

    def test_even_m_has_singleton(self):
        d = scd_n2(2)
        assert ((0, 2, 0),) in d.chains

    def test_odd_m_smallest_chain_has_length_two(self):
        d = scd_n2(3)
        assert min(len(ch) - 1 for ch in d.chains) == 2

    @pytest.mark.parametrize("m", range(1, 31))
    def test_written_like_one_key_at_a_time(self, m):
        d = scd_n2(m)
        assert serialize_decomposition(d) == reference_serialize_decomposition(d)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_valid_and_profiled(self, m):
        d = scd_n2(m)
        p = build_lattice(Shape(m, 2), "composition")
        report = verify_scd(d, p)
        assert report.passed
        assert report.start_profile == expected_start_profile(m, 2)
        assert (((0, m, 0),) in d.chains) == (m % 2 == 0)

    def test_colors_alternate_along_each_chain(self):
        from younglat.roots import edge_color

        for m in (2, 5, 8):
            for chain in scd_n2(m).chains:
                colors = [
                    edge_color(lower, upper)
                    for upper, lower in zip(chain, chain[1:])
                ]
                assert colors == [1 + i % 2 for i in range(len(colors))]


class TestBruteForce:
    def test_result_is_a_named_tuple_of_the_old_fields(self):
        result = brute_force_scd(build_lattice(Shape(2, 2)))
        assert SearchResult._fields == ("status", "decomposition", "assignments")
        status, decomposition, assignments = result
        assert (status, decomposition.shape, assignments) == ("found", Shape(2, 2), 6)
        with pytest.raises(AttributeError):
            result.status = "not-found"

    def test_l33_found_and_valid(self):
        p = build_lattice(Shape(3, 3), "composition")
        result = brute_force_scd(p)
        assert result.status == "found"
        assert verify_scd(result.decomposition, p).passed

    def test_l43_found_and_valid(self):
        p = build_lattice(Shape(4, 3), "composition")
        result = brute_force_scd(p)
        assert result.status == "found"
        assert verify_scd(result.decomposition, p).passed

    def test_vee_has_no_decomposition(self, vee):
        # the profile (1, 2) is not symmetric, and the search itself proves it
        result = brute_force_scd(vee)
        assert (result.status, result.decomposition, result.assignments) == (
            "not-found", None, 3)

    def test_budget_exhaustion_is_distinct(self):
        p = build_lattice(Shape(4, 3), "composition")
        result = brute_force_scd(p, budget=2)
        assert result.status == "budget-exhausted"
        assert result.decomposition is None

    @pytest.mark.parametrize("budget", [-1, -5, 2.5, 1.0, float("inf"), True, False, None, "10"])
    def test_budget_that_is_no_int_at_least_zero_is_refused_before_any_work(self, budget):
        class Untouchable:
            def __len__(self):
                raise AssertionError("the search looked at the poset")

            def __getattr__(self, name):
                raise AssertionError(f"the search read {name}")

        with pytest.raises(ValueError, match=r"^budget must be an int >= 0, got "):
            brute_force_scd(Untouchable(), budget)

    def test_deterministic(self):
        p = build_lattice(Shape(3, 3), "composition")
        a = brute_force_scd(p)
        b = brute_force_scd(p)
        assert a.decomposition == b.decomposition
        assert a.assignments == b.assignments

    def test_chain_length_multiset_matches_lindstrom(self):
        p = build_lattice(Shape(3, 3), "composition")
        found = brute_force_scd(p).decomposition
        assert chain_lengths(found) == chain_lengths(lindstrom(3))

    def test_empty_poset(self):
        p = build_lattice(Shape(0, 3), "composition")
        result = brute_force_scd(p)
        assert result.status == "found"
        assert len(result.decomposition) == 0

    @pytest.mark.parametrize("budget", [0, DEFAULT_BUDGET])
    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (0, 10**9), (10**9, 0)])
    def test_empty_lattice_is_found_with_no_assignment(self, shape, budget):
        # the search loop itself ends an empty lattice: no top, so no chain
        p = build_lattice(Shape(*shape), "composition")
        result = brute_force_scd(p, budget)
        assert (result.status, result.assignments) == ("found", 0)
        assert result.decomposition.chains == ()
        assert result.decomposition.shape == p.shape == shape

    def test_works_in_partition_coordinates(self):
        p = build_lattice(Shape(3, 3), "partition")
        result = brute_force_scd(p)
        assert result.status == "found"
        assert verify_scd(
            result.decomposition, build_lattice(Shape(3, 3), "composition")
        ).passed

    @pytest.mark.parametrize("budget", [1_000, 100_000])
    def test_explicit_stack_matches_the_recursion(self, budget):
        for m in range(6):
            for n in range(6):
                p = build_lattice(Shape(m, n), "composition")
                assert brute_force_scd(p, budget) == reference_brute_force_scd(p, budget)

    def test_deep_search_returns_a_status(self):
        # 1,001 elements: the recursion needs a deeper stack than the default
        result = brute_force_scd(build_lattice(Shape(10, 4), "composition"), 100_000)
        assert (result.status, result.assignments) == ("budget-exhausted", 100_001)

    @pytest.mark.parametrize("shape", sorted(set(BRUTE_SHAPES) | set(BOXES)), ids=str)
    def test_dead_descents_are_charged_as_walked(self, shape):
        p = build_lattice(Shape(*shape), "composition")
        result = brute_force_scd(p, 100_000)
        assert result == reference_stack_brute_force_scd(p, 100_000)
        budgets = [0, 1, 7, 100, 1_000] if shape in BOXES else []
        if result.status == "found":
            # it runs out one placement short of its count; a budget below 0
            # is refused, so the empty lattice's count of 0 is tried twice
            budgets += [max(result.assignments - 1, 0), result.assignments]
        for budget in budgets:
            assert brute_force_scd(p, budget) == reference_stack_brute_force_scd(
                p, budget), budget

    def test_dead_descents_are_walked_without_recursion(self):
        # height 102, and the search meets dead descents: a walk that recursed
        # once per rank would need more frames than the lowered limit allows
        p = build_lattice(Shape(3, 34), "composition")
        want = reference_stack_brute_force_scd(p, 100_000)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            result = brute_force_scd(p, 100_000)
        finally:
            sys.setrecursionlimit(limit)
        assert result == want

    def test_one_chain_of_height_5000(self):
        result = brute_force_scd(build_lattice(Shape(1, 5000)))
        assert (result.status, result.assignments) == ("found", 5001)
        assert len(result.decomposition) == 1


# posets for the poset-resolved parse: the shapes of the decompositions the
# tests below write, the L'(2,2) of their examples, bracketed keys, and the
# empty lattice; any text is parsed with a poset of its own shape and of others
PARSE_POSETS = [build_lattice(Shape(m, n), "composition")
                for m, n in ((2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (10, 2), (0, 3))]


def parse_with_and_without(text, p):
    """``parse_decomposition(text)``, after checking that ``p`` changes
    nothing: the same result, or a ``ParseError`` with the same line and
    message, which is raised again."""
    try:
        alone = parse_decomposition(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_decomposition(text, p)
        assert (err.value.line, str(err.value)) == (exc.line, str(exc))
        raise
    assert parse_decomposition(text, p) == alone
    return alone


def assert_writers_text(text, d):
    """``text`` is what serialize_decomposition writes for ``d``, up to line
    ends and runs of blanks."""
    written = serialize_decomposition(d).splitlines()
    assert [line.split() for line in text.splitlines()] == [
        line.split() for line in written]


class TestDecompositionFiles:
    def test_round_trip_bit_exact(self):
        for d in (lindstrom(5), lindstrom(6), scd_n2(7)):
            text = serialize_decomposition(d)
            back = parse_decomposition(text)
            assert back == d
            assert serialize_decomposition(back) == text

    @given(st.integers(1, 8))
    def test_round_trip_any_m(self, m):
        text = serialize_decomposition(lindstrom(m))
        assert serialize_decomposition(parse_decomposition(text)) == text

    def test_header(self):
        text = serialize_decomposition(lindstrom(1))
        assert text == "scd L'(1,3) chains=1\n1000 0100 0010 0001\n"

    def test_canonical_chain_order(self):
        d = lindstrom(4)
        bottoms = [ch[-1] for ch in d.chains]
        from younglat.partitions import weighted_sum

        keys = [(weighted_sum(b), b) for b in bottoms]
        assert keys == sorted(keys)

    def test_parse_error_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_decomposition("scd L'(1,3) chains=1\n10x0 0100\n")
        assert err.value.line == 2
        with pytest.raises(ParseError) as err:
            parse_decomposition("bogus header\n")
        assert err.value.line == 1

    @pytest.mark.parametrize("label", ["L'(-1,3)", "L'(3,-2)", "L'(-1,-1)"])
    def test_parse_rejects_negative_dimension(self, label):
        with pytest.raises(ParseError) as err:
            parse_decomposition(f"scd {label} chains=0\n")
        assert err.value.line == 1
        assert str(err.value) == f"line 1: negative lattice dimension: {label!r}"

    @pytest.mark.parametrize("text, line", [
        ("scd L'(1,3) chains=01\n1000 0100 0010 0001\n", 1),
        ("scd L'(01,3) chains=1\n1000 0100 0010 0001\n", 1),
        ("scd L'(1,3) chains=1\n[1,0,0,0] 0100 0010 0001\n", 2),
        ("scd L'(10,3) chains=1\n[010,0,0,0]\n", 2),
    ])
    def test_parse_rejects_spellings_the_writer_never_produces(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_decomposition(text)
        assert err.value.line == line

    def test_parse_rejects_chains_out_of_order(self):
        lines = serialize_decomposition(lindstrom(3)).splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        with pytest.raises(ParseError) as err:
            parse_decomposition("\n".join(lines) + "\n")
        assert str(err.value) == (
            "line 2: chains out of canonical order (bottom rank, then bottom key)")

    @given(st.sampled_from([lindstrom(3), lindstrom(4), scd_n2(3), scd_n2(4)]),
           st.sampled_from(PARSE_POSETS), st.data())
    def test_a_text_that_parses_is_the_writers_text(self, d, p, data):
        # the writer's text with its chain lines permuted, then edited a little
        lines = serialize_decomposition(d).splitlines()
        lines[1:] = data.draw(st.permutations(lines[1:]))
        text = mutated_text("\n".join(lines) + "\n", data)
        try:
            back = parse_with_and_without(text, p)
        except ParseError:
            return
        assert_writers_text(text, back)

    def test_parse_rejects_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_decomposition("scd L'(1,3) chains=2\n1000 0100 0010 0001\n")

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            ChainDecomposition(Shape(1, 3), [()])

    @pytest.mark.parametrize("text, line", [
        ("scd L'(1,3) chains=1\n\n1000 0100 0010 0001\n", 2),
        ("scd L'(1,3) chains=1\n \t \n1000 0100 0010 0001\n", 2),
        ("scd L'(1,3) chains=1\n1000 0100 0010 0001\n\n", 3),
    ], ids=["empty", "blanks", "trailing"])
    def test_parse_rejects_an_empty_chain_line(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_with_and_without(text, build_lattice(Shape(1, 3), "composition"))
        assert (err.value.line, str(err.value)) == (line, f"line {line}: empty chain line")

    @pytest.mark.parametrize("chains", [[((1,), 1, 0)], [(None,)], [(5,)], 5])
    def test_chains_of_entries_that_are_not_keys_are_rejected(self, chains):
        with pytest.raises(ValueError):
            ChainDecomposition(Shape(1, 3), chains)

    def test_keys_of_strings_are_not_written(self):
        with pytest.raises(ValueError):
            serialize_decomposition(ChainDecomposition((2, 2), ["ab"]))

    # each of these was once written as a text that reads back as another
    # decomposition ("100", " 101") or as none ("[-1,3,0]", an empty line);
    # the constructor refuses them, so no decomposition holds them
    @pytest.mark.parametrize("chains", [[((1.5, 0.5, 0),)], [((-1, 3, 0),)], [((True, 1, 0),)],
                                        [((), (1, 0, 1))], [((),)]],
                             ids=["float", "negative", "bool", "empty-key", "empty-only-key"])
    def test_keys_the_reader_cannot_give_back_are_not_written(self, chains):
        with pytest.raises(ValueError) as err:
            ChainDecomposition((2, 2), chains)
        assert str(err.value) == "chains must be nonempty, of nonempty keys of ints >= 0"

    # each of these once got through the constructor, or raised TypeError
    # from its sort, and then failed in the verifier or the renderer
    @pytest.mark.parametrize("chains", [[((None, 0),)], [(("a", 0, 1),)], [((1, 0, [1]),)]],
                             ids=["none", "string", "list"])
    def test_keys_that_are_no_tuples_of_ints_are_refused(self, chains):
        with pytest.raises(ValueError) as err:
            ChainDecomposition((2, 2), chains)
        assert str(err.value) == "chains must be nonempty, of nonempty keys of ints >= 0"

    # no lattice has an entry over ELEMENT_LIMIT, and 10**5000 was once
    # accepted here and then failed in every writer of its keys
    @pytest.mark.parametrize("entry", [ELEMENT_LIMIT + 1, 10**5000], ids=["limit+1", "10**5000"])
    def test_entries_over_the_element_limit_are_refused(self, entry):
        with pytest.raises(ValueError) as err:
            ChainDecomposition((1, 1), [((entry, 0),)])
        assert str(err.value) == "key entries must be at most ELEMENT_LIMIT = 4,000,000"

    def test_an_entry_at_the_element_limit_is_written_and_read_back(self):
        d = ChainDecomposition((ELEMENT_LIMIT, 1), [((ELEMENT_LIMIT, 0),)])
        text = serialize_decomposition(d)
        assert text == "scd L'(4000000,1) chains=1\n[4000000,0]\n"
        assert parse_decomposition(text) == d

    # entries over 9 as often as digits, so keys of both spellings, of any
    # length: most keys are not elements of the shape or of the poset
    @given(st.tuples(st.integers(0, 12), st.integers(0, 12)),
           st.lists(st.lists(st.lists(st.one_of(st.integers(0, 9), st.integers(0, 100)),
                                      min_size=1, max_size=6).map(tuple),
                             min_size=1, max_size=4).map(tuple), max_size=5),
           st.sampled_from(PARSE_POSETS))
    def test_every_written_decomposition_reads_back(self, shape, chains, p):
        d = ChainDecomposition(shape, chains)
        assert parse_with_and_without(serialize_decomposition(d), p) == d

    def test_keys_are_normalized_to_tuples(self):
        d = lindstrom(4)
        as_lists = [[list(key) for key in chain] for chain in reversed(d.chains)]
        again = ChainDecomposition(Shape(4, 3), as_lists)
        assert again == d
        assert all(type(key) is tuple for chain in again.chains for key in chain)

    @given(st.text(), st.sampled_from(PARSE_POSETS))
    @example("scd L'(2,2) chains=\u00b2\n", PARSE_POSETS[0])
    @example("scd L'(100000,100000) chains=1\n1\n", PARSE_POSETS[0])
    @example("scd L'(+2,2) chains=1\n002\n", PARSE_POSETS[0])
    @example("scd L'(2,2) chains=0_1\n002\n", PARSE_POSETS[0])
    @example("scd L'(2,2) chains=\u0661\n002\n", PARSE_POSETS[0])
    @example("scd L'(2,2) chains=1\n[0,0,+2]\n", PARSE_POSETS[0])
    @example("scd L'(2,2) chains=1\n[0,0,0_2]\n", PARSE_POSETS[0])
    @example("scd L'(2,2) chains=1\n00\u0662\n", PARSE_POSETS[0])
    @example("scd L'(2,2) chains=1\n002 011\n", PARSE_POSETS[0])
    @example("scd L'(2,2) chains=1\n002 011\n", PARSE_POSETS[3])
    def test_any_text_parses_or_raises_parse_error(self, text, p):
        try:
            d = parse_with_and_without(text, p)
        except ParseError:
            return
        assert_writers_text(text, d)
        # numbers are ASCII digits only: no sign, no underscore, no other digit
        assert not any(ch in "+_" or ch.isdigit() and not ch.isascii() for ch in text)

    @given(st.sampled_from([lindstrom(3), lindstrom(4), scd_n2(3)]),
           st.sampled_from(PARSE_POSETS), st.data())
    def test_mutated_file_parses_or_raises_parse_error(self, d, p, data):
        text = mutated_text(serialize_decomposition(d), data)
        try:
            assert isinstance(parse_with_and_without(text, p), ChainDecomposition)
        except ParseError:
            pass


# key entries of every kind: small ints of either sign, bools, floats, None,
# short strings, an int too long for "%d", and tuples and lists of those
KEY_ENTRIES = st.one_of(SMALL_VALUES, st.just(10**5000), st.tuples(SMALL_VALUES),
                        st.lists(SMALL_VALUES, max_size=2))
SMALL_POSETS = {shape: build_lattice(shape, "composition")
                for shape in product(range(5), repeat=2)}


@st.composite
def shapes_and_chains(draw):
    """A shape with m, n <= 4 and chains for it.  Half the cases draw chains
    of any length whose keys have any entries or are good; the others draw
    nonempty chains of good keys only (nonempty keys of 0..12 or
    ``10**5000``, or elements of the lattice), so that many are accepted."""
    shape = draw(st.sampled_from(sorted(SMALL_POSETS)))
    elements = SMALL_POSETS[shape].elements
    good = st.one_of(st.lists(st.sampled_from([*range(13), 10**5000]), min_size=1, max_size=5),
                     *([st.sampled_from(elements)] if elements else []))
    chain = draw(st.sampled_from([st.lists(good, min_size=1, max_size=4), st.lists(
        st.one_of(st.lists(KEY_ENTRIES, max_size=5), good), max_size=4)]))
    return shape, draw(st.lists(chain, max_size=4))


class TestEveryKeyEndsInAResultOrAValueError:
    @given(shapes_and_chains())
    @example(((2, 2), [((None, 0),)]))
    @example(((2, 2), [((1, 0, [1]),)]))
    @example(((1, 1), [((10**5000, 0),)]))
    def test_constructor_and_every_reader_of_its_keys(self, case):
        shape, chains = case
        p = SMALL_POSETS[shape]

        def calls():
            try:
                d = ChainDecomposition(shape, chains)
            except ValueError:
                return
            # an accepted decomposition is reported and written without error
            report = verify_scd(d, p)
            lines = report.lines()
            # every key a report lists reads back to itself
            listed = [*report.missing, *report.duplicated, *report.unknown]
            key_lines = [line[2:] for line in lines if line.startswith("  ")]
            assert [*map(parse_composition, key_lines[:len(listed)])] == listed
            for draw in (to_dot, to_svg):
                try:
                    draw(p, highlight=d)
                except ValueError:  # a key absent from the poset
                    pass
            assert parse_with_and_without(serialize_decomposition(d), p) == d

        assert traced_peak(calls) < 64 * 2**20


class TestVerifierCatchesCorruption:
    @given(st.integers(2, 10), st.randoms(use_true_random=False))
    def test_any_single_corruption_fails(self, m, rng):
        chains = [list(ch) for ch in lindstrom(m).chains]
        kind = rng.randrange(3)
        ci = rng.randrange(len(chains))
        if kind == 0 and len(chains[ci]) == 1:
            kind = 2  # dropping from a singleton would leave the input valid
        if kind == 0:
            # drop one element somewhere in a chain
            del chains[ci][rng.randrange(len(chains[ci]))]
        elif kind == 1:
            # duplicate an element into another chain
            cj = rng.randrange(len(chains))
            chains[cj].append(chains[ci][rng.randrange(len(chains[ci]))])
        else:
            # replace an element with a key outside the lattice
            chains[ci][rng.randrange(len(chains[ci]))] = (m + 1, 0, 0, 0)
        d = ChainDecomposition(Shape(m, 3), [tuple(ch) for ch in chains])
        p = build_lattice(Shape(m, 3), "composition")
        assert not verify_scd(d, p).passed

    @given(st.sampled_from([2, 3]), st.integers(1, 6), st.integers(0, 1),
           st.sampled_from(["drop", "duplicate", "swap", "digit"]), st.data())
    def test_any_structured_file_mutation_is_refused(self, n, m, which, kind, data):
        # a valid poset and decomposition pair with one whole line dropped,
        # duplicated or swapped with another, or one digit raised by 1-9 mod
        # 10; no two lines of a valid file are equal, so each changes the text.
        # ``which`` picks the file: 0 the poset, 1 the decomposition
        shape = Shape(m, n)
        texts = [serialize_poset(build_lattice(shape, "composition")),
                 serialize_decomposition((lindstrom if n == 3 else scd_n2)(m))]
        lines = texts[which].splitlines(keepends=True)
        index = st.integers(0, len(lines) - 1)
        if kind == "drop":
            del lines[data.draw(index)]
        elif kind == "duplicate":
            lines.insert(data.draw(st.integers(0, len(lines))), lines[data.draw(index)])
        elif kind == "swap":
            i = data.draw(index)
            j = (i + data.draw(st.integers(1, len(lines) - 1))) % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        else:
            text = "".join(lines)
            at = data.draw(st.sampled_from([k for k, ch in enumerate(text) if ch.isdigit()]))
            digit = str((int(text[at]) + data.draw(st.integers(1, 9))) % 10)
            lines = [text[:at], digit, text[at + 1:]]
        texts[which] = "".join(lines)
        try:
            # read as the command line reads them: the poset first, and its
            # keys resolve the decomposition's tokens
            p = parse_poset(texts[0])
            report = verify_scd(parse_decomposition(texts[1], p), p)
        except ParseError:
            return
        except ValueError as exc:
            assert str(exc).startswith("shape mismatch: ")
            return
        assert not report.passed


def same_report(d, p):
    """``verify_scd(d, p)``, after checking that it and its lines equal those
    of the key-based verifier kept in conftest."""
    report = verify_scd(d, p)
    want = reference_verify_scd(d, p)
    assert report == want
    assert report.lines() == want.lines()
    return report


class TestVerifierMatchesKeyBasedReference:
    def test_constructions(self):
        for m in range(1, 31):
            assert same_report(lindstrom(m), build_lattice(Shape(m, 3), "composition")).passed
            assert same_report(scd_n2(m), build_lattice(Shape(m, 2), "composition")).passed

    @pytest.mark.parametrize("m, n", [(m, n) for m in range(5) for n in range(5)])
    def test_brute_force_results(self, m, n):
        p = build_lattice(Shape(m, n), "composition")
        result = brute_force_scd(p)
        assert result.status == "found"
        assert same_report(result.decomposition, p).passed

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    @pytest.mark.parametrize("n, construct", [(3, lindstrom), (2, scd_n2)])
    def test_seeded_corruptions(self, kind, n, construct):
        # L(1, n) has no two elements of one rank to swap
        for m in range(2 if kind == "same_rank_swap" else 1, 15):
            p = build_lattice(Shape(m, n), "composition")
            for seed in range(10):
                d = corrupted(construct(m), [kind], random.Random(100 * m + seed))
                assert not same_report(d, p).passed

    def test_steps_one_rank_down_that_are_no_covers(self):
        # every rank falls by 1 and every key is used once, but two steps of
        # the first chain move a unit across more than one slot
        p = build_lattice(Shape(2, 3), "composition")
        d = ChainDecomposition(Shape(2, 3), [
            ((2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0), (1, 0, 0, 1), (0, 0, 2, 0),
             (0, 0, 1, 1), (0, 0, 0, 2)),
            ((1, 0, 1, 0), (0, 1, 1, 0), (0, 1, 0, 1))])
        report = same_report(d, p)
        assert report.unsaturated == (0,)
        assert not (report.missing or report.duplicated or report.unknown
                    or report.asymmetric)

    def test_same_rank_swaps_leave_a_step_that_is_no_cover(self):
        for m in range(2, 15):
            p = build_lattice(Shape(m, 3), "composition")
            for seed in range(5):
                d = corrupted(lindstrom(m), ["same_rank_swap"], random.Random(seed))
                assert same_report(d, p).unsaturated

    def test_seeded_corruption_mixes(self):
        rng = random.Random(2020)
        for m in range(1, 15):
            p = build_lattice(Shape(m, 3), "composition")
            for _ in range(20):
                kinds = rng.sample(CORRUPTIONS, rng.randint(2, 4))
                assert not same_report(corrupted(lindstrom(m), kinds, rng), p).passed

    def test_unknown_key_listed_twice_is_duplicated(self):
        p = build_lattice(Shape(2, 3), "composition")
        d = ChainDecomposition(Shape(2, 3), [((3, 0, 0, 0),), *lindstrom(2).chains,
                                             ((3, 0, 0, 0), (1, 0, 0, 1))])
        report = same_report(d, p)
        # a known and an unknown key, each listed twice
        assert report.unknown == ((3, 0, 0, 0), (3, 0, 0, 0))
        assert report.duplicated == ((1, 0, 0, 1), (3, 0, 0, 0))


class TestGeneratorArguments:
    def test_scd_n2_rejects_zero(self):
        with pytest.raises(ValueError):
            scd_n2(0)

    @pytest.mark.parametrize("construction, argument, label", [
        ("lindstrom", 287, "L(287,3)"),
        pytest.param("lindstrom", 289, "L(289,3)", id="lindstrom_odd-289-L(289,3)"),
        pytest.param("lindstrom", 288, "L(288,3)", id="lindstrom_even-288-L(288,3)"),
        ("scd_n2", 2827, "L(2827,2)"),
        ("lindstrom", 10**9, "L(1000000000,3)"),
    ])
    def test_constructions_refuse_more_than_element_limit(self, construction, argument, label):
        import time

        from younglat import scd

        start = time.perf_counter()
        with pytest.raises(ValueError) as err:
            getattr(scd, construction)(argument)
        assert time.perf_counter() - start < 0.1
        assert str(err.value) == f"{label} has more than 4,000,000 elements"
