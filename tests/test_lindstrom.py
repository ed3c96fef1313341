import pytest

from younglat.partitions import Shape, format_composition, from_multiplicity
from younglat.poset import build_lattice, gaussian_binomial
from younglat.scd import (
    ChainDecomposition,
    _even_shell,
    _odd_shell,
    _two_column_seed,
    lindstrom,
    serialize_decomposition,
    verify_scd,
)


def shift(chain, s):
    return tuple((a + s, b, c, d + s) for a, b, c, d in chain)


def reference_lindstrom(m):
    """The recursion that lindstrom unrolled: every level re-embeds all
    earlier chains with ``shift`` and adds its own shell at offset 0."""
    if m % 2:
        chains = []
        for k in range(1, m + 1, 2):
            chains = [shift(ch, 1) for ch in chains]
            chains.extend(_odd_shell(k, 0))
    elif m == 2:
        chains = _two_column_seed(0)
    else:
        if m % 4 == 0:
            chains, start = [((2, 0, 0, 2),)], 4
        else:
            chains, start = [shift(ch, 2) for ch in _two_column_seed(0)], 6
        chains.extend(_even_shell(start, 0))
        for k in range(start + 4, m + 1, 4):
            chains = [shift(ch, 2) for ch in chains]
            chains.extend(_even_shell(k, 0))
    return ChainDecomposition(Shape(m, 3), chains)


def expected_start_profile(m):
    g = list(gaussian_binomial(m, 3))
    return {
        s: g[s] - (g[s - 1] if s else 0)
        for s in range(3 * m // 2 + 1)
        if g[s] - (g[s - 1] if s else 0)
    }


class TestOddCases:
    def test_base_is_the_four_element_chain(self):
        d = lindstrom(1)
        assert d.chains == (
            ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        )

    def test_m3_contains_embedded_image_of_base(self):
        # the image of the base chain under the (+1, ., ., +1) embedding;
        # the middle element is 1011: sums must stay 3 and covers must hold
        d = lindstrom(3)
        embedded = ((2, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1), (1, 0, 0, 2))
        assert embedded in d.chains

    def test_m3_full_decomposition(self):
        d = lindstrom(3)
        p = build_lattice(Shape(3, 3), "composition")
        report = verify_scd(d, p)
        assert report.passed
        assert len(p) == 20
        assert report.start_profile == {0: 1, 2: 1, 3: 1}

    def test_m3_face_chains_explicit(self):
        chains = {
            tuple(format_composition(k) for k in ch) for ch in lindstrom(3).chains
        }
        long_chain = (
            "3000 2100 2010 1110 1020 0120 0030 0021 0012 0003".split()
        )
        short_chain = "1200 0300 0210 0201 0111 0102".split()
        assert tuple(long_chain) in chains
        assert tuple(short_chain) in chains


class TestEvenCases:
    def test_m2_is_the_conjugated_two_column_decomposition(self):
        d = lindstrom(2)
        text = {
            " ".join(format_composition(k) for k in ch) for ch in d.chains
        }
        assert text == {
            "2000 1100 0200 0110 0020 0011 0002",
            "1010 1001 0101",
        }

    def test_m4_center_is_the_single_node(self):
        d = lindstrom(4)
        assert ((2, 0, 0, 2),) in d.chains

    def test_m4_red_chain_is_the_middle_root_string(self):
        d = lindstrom(4)
        red = tuple((0, 4 - k, k, 0) for k in range(5))
        assert red in d.chains

    def test_m4_full_decomposition(self):
        d = lindstrom(4)
        p = build_lattice(Shape(4, 3), "composition")
        report = verify_scd(d, p)
        assert report.passed
        assert len(p) == 35
        assert report.start_profile == {0: 1, 2: 1, 3: 1, 4: 1, 6: 1}

    def test_m6_valid_with_84_elements(self):
        d = lindstrom(6)
        p = build_lattice(Shape(6, 3), "composition")
        assert len(p) == 84
        assert verify_scd(d, p).passed


class TestChainsWrittenOnce:
    def test_matches_the_shifting_recursion_byte_for_byte(self):
        for m in range(1, 61):
            assert serialize_decomposition(lindstrom(m)) == serialize_decomposition(
                reference_lindstrom(m))


class TestDispatch:
    def test_m1_goes_to_odd(self):
        assert lindstrom(1) == ChainDecomposition(Shape(1, 3), _odd_shell(1, 0))

    def test_m4_goes_to_even(self):
        assert lindstrom(4) == ChainDecomposition(
            Shape(4, 3), [((2, 0, 0, 2),)] + _even_shell(4, 0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lindstrom(0)


class TestValidityRange:
    @pytest.mark.parametrize("m", range(1, 21))
    def test_valid_up_to_twenty(self, m):
        d = lindstrom(m)
        p = build_lattice(Shape(m, 3), "composition")
        report = verify_scd(d, p)
        assert report.passed
        assert report.start_profile == expected_start_profile(m)

    def test_m30_scale(self):
        d = lindstrom(30)
        p = build_lattice(Shape(30, 3), "composition")
        assert len(p) == 5456
        assert verify_scd(d, p).passed


class TestEmbeddingInvariance:
    @pytest.mark.parametrize("m", range(3, 16, 2))
    def test_odd_embedding_shifts_rank_by_three(self, m):
        inner = lindstrom(m - 2)
        outer = set(lindstrom(m).chains)
        for chain in inner.chains:
            image = shift(chain, 1)
            assert image in outer
            for original, moved in zip(chain, image):
                assert sum(
                    (3 - i) * v for i, v in enumerate(moved)
                ) == sum((3 - i) * v for i, v in enumerate(original)) + 3

    @pytest.mark.parametrize("m", range(6, 17, 2))
    def test_even_embedding_shifts_rank_by_six(self, m):
        inner = lindstrom(m - 4)
        outer = set(lindstrom(m).chains)
        for chain in inner.chains:
            image = shift(chain, 2)
            assert image in outer
            for original, moved in zip(chain, image):
                assert sum(
                    (3 - i) * v for i, v in enumerate(moved)
                ) == sum((3 - i) * v for i, v in enumerate(original)) + 6


class TestFaceDiscipline:
    @pytest.mark.parametrize("m", range(1, 16, 2))
    def test_odd_non_embedded_chains_live_on_the_faces(self, m):
        embedded = (
            {shift(ch, 1) for ch in lindstrom(m - 2).chains} if m > 1 else set()
        )
        for chain in lindstrom(m).chains:
            if chain in embedded:
                continue
            assert all(key[0] == 0 or key[3] == 0 for key in chain)


class TestPartitionForm:
    def test_chains_translate_to_partition_covers(self):
        from younglat.partitions import covers

        shape = Shape(5, 3)
        for keys in lindstrom(5).chains:
            chain = [from_multiplicity(key, shape) for key in keys]
            for upper, lower in zip(chain, chain[1:]):
                assert covers(upper, lower, shape)
