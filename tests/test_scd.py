import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import chain_lengths, mutated_text
from younglat.partitions import Shape
from younglat.poset import GradedPoset, ParseError, build_lattice, gaussian_binomial
from younglat.scd import (
    ChainDecomposition,
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


L13_CHAIN = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def expected_start_profile(m, n):
    g = list(gaussian_binomial(m, n))
    out = {}
    for s in range(m * n // 2 + 1):
        d = g[s] - (g[s - 1] if s else 0)
        if d:
            out[s] = d
    return out


@pytest.fixture
def vee():
    # two maximal elements over one minimum: no symmetric chain cover exists
    return GradedPoset(
        None, "composition",
        ((0,), (1,), (2,)), (0, 1, 1), ((0, 1, 1), (0, 2, 1)), 1,
    )


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
        assert brute_force_scd(vee).status == "not-found"

    def test_budget_exhaustion_is_distinct(self):
        p = build_lattice(Shape(4, 3), "composition")
        result = brute_force_scd(p, budget=2)
        assert result.status == "budget-exhausted"
        assert result.decomposition is None

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

    @given(st.sampled_from([lindstrom(3), lindstrom(4), scd_n2(3), scd_n2(4)]), st.data())
    def test_a_text_that_parses_is_the_writers_text(self, d, data):
        # the writer's text with its chain lines permuted, then edited a little
        lines = serialize_decomposition(d).splitlines()
        lines[1:] = data.draw(st.permutations(lines[1:]))
        text = mutated_text("\n".join(lines) + "\n", data)
        try:
            back = parse_decomposition(text)
        except ParseError:
            return
        assert_writers_text(text, back)

    def test_parse_rejects_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_decomposition("scd L'(1,3) chains=2\n1000 0100 0010 0001\n")

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            ChainDecomposition(Shape(1, 3), [()])

    def test_keys_are_normalized_to_tuples(self):
        d = lindstrom(4)
        as_lists = [[list(key) for key in chain] for chain in reversed(d.chains)]
        again = ChainDecomposition(Shape(4, 3), as_lists)
        assert again == d
        assert all(type(key) is tuple for chain in again.chains for key in chain)

    @given(st.text())
    @example("scd L'(2,2) chains=\u00b2\n")
    @example("scd L'(100000,100000) chains=1\n1\n")
    @example("scd L'(+2,2) chains=1\n002\n")
    @example("scd L'(2,2) chains=0_1\n002\n")
    @example("scd L'(2,2) chains=\u0661\n002\n")
    @example("scd L'(2,2) chains=1\n[0,0,+2]\n")
    @example("scd L'(2,2) chains=1\n[0,0,0_2]\n")
    @example("scd L'(2,2) chains=1\n00\u0662\n")
    def test_any_text_parses_or_raises_parse_error(self, text):
        try:
            d = parse_decomposition(text)
        except ParseError:
            return
        assert_writers_text(text, d)
        # numbers are ASCII digits only: no sign, no underscore, no other digit
        assert not any(ch in "+_" or ch.isdigit() and not ch.isascii() for ch in text)

    @given(st.sampled_from([lindstrom(3), lindstrom(4), scd_n2(3)]), st.data())
    def test_mutated_file_parses_or_raises_parse_error(self, d, data):
        text = mutated_text(serialize_decomposition(d), data)
        try:
            assert isinstance(parse_decomposition(text), ChainDecomposition)
        except ParseError:
            pass


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
