"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each criterion states its tolerance (exact unless noted) and a wall-clock
budget where one applies.
"""

import time
from itertools import combinations

import pytest

from conftest import chain_lengths, composition_lower_covers, lower_covers, partitions_in_box
from younglat.cli import main
from younglat.partitions import (
    Shape,
    complement,
    conjugate,
    covers,
    from_multiplicity,
    leq,
    rank,
    to_multiplicity,
)
from younglat.poset import (
    build_lattice,
    check_splitting_identities,
    gaussian_binomial,
    rank_profile,
)
from younglat.render import to_dot, to_svg
from younglat.roots import weight_string
from younglat.scd import brute_force_scd, lindstrom, scd_n2, verify_scd


def run_criterion(capsys, number, description, limit, body):
    def verdict(line):
        with capsys.disabled():
            print(line)

    start = time.perf_counter()
    try:
        body()
    except BaseException:
        verdict(f"[criterion {number:2d}] FAIL {description}")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed > limit:
        verdict(
            f"[criterion {number:2d}] FAIL {description}: "
            f"{elapsed:.2f}s exceeds {limit}s"
        )
        pytest.fail(f"criterion {number} exceeded its {limit}s budget")
    verdict(f"[criterion {number:2d}] PASS {description} ({elapsed:.2f}s)")


def test_criterion_1_rank_polynomial_reproduction(capsys):
    def body():
        assert main(["ranks", "3", "3"]) == 0
        out = capsys.readouterr().out
        assert out == "1\n1\n2\n3\n3\n3\n3\n2\n1\n1\n"
        assert main(["lattice", "3", "3"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "poset L(3,3) height=9 count=20"

    run_criterion(capsys, 1, "rank polynomial and element count for the 3x3 box", 1.0, body)


def test_criterion_2_rank_profile_equality(capsys):
    def body():
        for m in range(1, 9):
            for n in range(1, 9):
                p = build_lattice(Shape(m, n), "composition")
                assert rank_profile(p) == gaussian_binomial(m, n), (m, n)

    run_criterion(capsys, 2, "profile equals Gaussian binomial, all 64 shapes to 8x8", 10.0, body)


def test_criterion_3_splitting_identities(capsys):
    def body():
        for m in range(1, 9):
            for n in range(1, 9):
                assert check_splitting_identities(m, n).passed, (m, n)
        split = check_splitting_identities(3, 3)
        assert split.with_largest == 10 and split.without_largest == 10

    run_criterion(capsys, 3, "splitting identities to 8x8 plus the 10+10 split", 5.0, body)


def test_criterion_4_bijection_fidelity(capsys):
    def body():
        shape = Shape(4, 3)
        assert to_multiplicity((3, 2, 1, 1), shape) == (1, 1, 2, 0)
        children = {(2, 2, 1, 1): (0, 2, 2, 0), (3, 1, 1, 1): (1, 0, 3, 0),
                    (3, 2, 1): (1, 1, 1, 1)}
        for child, image in children.items():
            assert covers((3, 2, 1, 1), child, shape)
            assert to_multiplicity(child, shape) == image

        for m in range(1, 6):
            for n in range(1, 6):
                box = Shape(m, n)
                seen = set()
                for a in partitions_in_box(m, n):
                    c = to_multiplicity(a, box)
                    assert c not in seen
                    seen.add(c)
                    assert from_multiplicity(c, box) == a
                    part_children = {
                        to_multiplicity(x, box) for x, _ in lower_covers(a, box)
                    }
                    comp_children = {
                        x for x, _ in composition_lower_covers(c, box)
                    }
                    assert part_children == comp_children

    run_criterion(capsys, 4, "multiplicity map is a cover-preserving bijection to 5x5", None, body)


def test_criterion_5_weight_string_reproduction(capsys):
    def body():
        shape = Shape(4, 3)
        string = weight_string((1, 3, 0, 0), 2, shape)
        assert string == ((1, 3, 0, 0), (1, 2, 1, 0), (1, 1, 2, 0), (1, 0, 3, 0))
        parts = [from_multiplicity(c, shape) for c in string]
        assert parts == [(3, 2, 2, 2), (3, 2, 2, 1), (3, 2, 1, 1), (3, 1, 1, 1)]

    run_criterion(capsys, 5, "middle-root weight string and its partition image", None, body)


def test_criterion_6_lindstrom_validity(capsys):
    def body():
        for m in range(1, 31):
            d = lindstrom(m)
            p = build_lattice(Shape(m, 3), "composition")
            report = verify_scd(d, p)
            assert report.passed, m
            g = list(gaussian_binomial(m, 3))
            expected = {
                s: g[s] - (g[s - 1] if s else 0)
                for s in range(3 * m // 2 + 1)
                if g[s] - (g[s - 1] if s else 0)
            }
            assert report.start_profile == expected, m
        # embedding invariants in place of figure-level routes
        for m in range(3, 31, 2):
            outer = set(lindstrom(m).chains)
            for chain in lindstrom(m - 2).chains:
                image = tuple((a + 1, b, c, d + 1) for a, b, c, d in chain)
                assert image in outer, m
        for m in range(6, 31, 2):
            outer = set(lindstrom(m).chains)
            for chain in lindstrom(m - 4).chains:
                image = tuple((a + 2, b, c, d + 2) for a, b, c, d in chain)
                assert image in outer, m

    run_criterion(capsys, 6, "recursive three-size decomposition valid for m=1..30", 60.0, body)


def test_criterion_7_two_size_construction(capsys):
    def body():
        for m in range(1, 31):
            d = scd_n2(m)
            p = build_lattice(Shape(m, 2), "composition")
            assert verify_scd(d, p).passed, m
            singletons = [ch for ch in d.chains if len(ch) == 1]
            if m % 2 == 0:
                assert singletons == [((0, m, 0),)], m
            else:
                assert not singletons, m
                assert min(len(ch) - 1 for ch in d.chains) == 2, m

    run_criterion(capsys, 7, "alternating two-size decomposition valid for m=1..30", None, body)


def test_criterion_8_oracle_agreement(capsys):
    def body():
        p33 = build_lattice(Shape(3, 3), "composition")
        found33 = brute_force_scd(p33)
        assert found33.status == "found"
        assert verify_scd(found33.decomposition, p33).passed
        assert chain_lengths(found33.decomposition) == chain_lengths(lindstrom(3))
        p43 = build_lattice(Shape(4, 3), "composition")
        found43 = brute_force_scd(p43)
        assert found43.status == "found"
        assert verify_scd(found43.decomposition, p43).passed

    run_criterion(capsys, 8, "backtracking oracle agrees on the 3x3 and 4x3 boxes", 30.0, body)


def test_criterion_9_involutions(capsys):
    def body():
        for m in range(1, 6):
            for n in range(1, 6):
                shape, flipped = Shape(m, n), Shape(n, m)
                elements = list(partitions_in_box(m, n))
                assert {conjugate(a) for a in elements} == set(
                    partitions_in_box(n, m)
                )
                for a in elements:
                    assert conjugate(conjugate(a)) == a
                    assert complement(complement(a, shape), shape) == a
                    assert rank(a) + rank(complement(a, shape)) == m * n
                for a, b in combinations(elements, 2):
                    assert leq(a, b, shape) == leq(
                        conjugate(a), conjugate(b), flipped
                    )
                    assert leq(a, b, shape) == leq(
                        complement(b, shape), complement(a, shape), shape
                    )

    run_criterion(capsys, 9, "conjugation and complement involutions to 5x5", None, body)


def test_criterion_10_rendering_soundness(capsys):
    def body():
        for m in range(1, 7):
            for n in range(1, 7):
                p = build_lattice(Shape(m, n), "composition")
                dot = to_dot(p)
                assert dot.count("[label=") == len(p), (m, n)
                assert dot.count(" -> ") == len(p.covers), (m, n)
                svg = to_svg(p)
                assert svg.count('class="node"') == len(p), (m, n)
                assert svg.count("<line ") == len(p.covers), (m, n)
        import re

        for m in range(1, 6):
            for n in range(1, 6):
                p = build_lattice(Shape(m, n), "composition")
                colors = set(re.findall(r'color="([#\w]+)"', to_dot(p)))
                assert len(colors) == n, (m, n)

    run_criterion(capsys, 10, "diagram node/edge counts and color usage", None, body)
