import pytest

from conftest import reference_serialize_decomposition
from younglat.partitions import (
    Shape,
    conjugate,
    format_composition,
    from_multiplicity,
    to_multiplicity,
)
from younglat.poset import build_lattice, gaussian_binomial
from younglat.scd import (
    Chain,
    ChainDecomposition,
    _shell,
    lindstrom,
    scd_n2,
    serialize_decomposition,
    verify_scd,
)


# The shells as they were written before the zigzag and sweep primitives,
# frozen here as the oracle for the rewrite.
def reference_odd_shell(m: int, s: int) -> list[Chain]:
    """Chains covering the two outer faces of the simplex for odd ``m``,
    written at offset ``s``: ``s`` is added to the first and last entry of
    every key, which moves the chains ``s`` layers into a larger simplex.

    Chain ``i`` (0-based, up to (m - 1) / 2) starts at ``(m - 2i, 2i, 0, 0)``,
    zigzags down the last-slot-zero face with its second slot held at ``2i``
    or ``2i + 1``, crosses onto the first-slot-zero face, and then sweeps one
    element per rank down to rank ``2i``.  Endpoint ranks are ``3m - 2i`` and
    ``2i``, so every chain is symmetric; together the chains cover exactly
    the compositions whose first or last entry is zero.  The offset raises
    both endpoint ranks by ``3s``, mirroring them in the height ``3m + 6s``.
    """
    chains = []
    for i in range((m + 1) // 2):
        a, b, c = m - 2 * i, 2 * i, 0
        chain = [(a + s, b, c, s)]
        while a > 0:
            a -= 1
            chain.append((a + s, b + 1, c, s))
            chain.append((a + s, b, c + 1, s))
            c += 1
        # face sweep: at rank r the chain sits at second slot bb, one rank a step
        for r in range(m - 1 + 2 * i, 2 * i - 1, -1):
            bb = i + max(0, (r - (m - 1)) // 2)
            chain.append((s, bb, r - 2 * bb, m - r + bb + s))
        chains.append(tuple(chain))
    return chains


def reference_even_shell(m: int, s: int) -> list[Chain]:
    """Chains covering the outer two layers of the simplex for even ``m`` >= 4,
    written at offset ``s`` as in :func:`reference_odd_shell`.

    One marked chain runs the full middle-root string along the edge shared
    by the two outer faces, from ``(0, m, 0, 0)`` down to ``(0, 0, m, 0)``;
    its endpoint ranks ``2m`` and ``m`` mirror.  Outer chains then zigzag the
    last-slot-zero face but stop one step short of that occupied edge, detour
    through a single inner-layer element, and sweep the first-slot-zero face.
    Inner chains repeat the pattern one layer in, where the detours of the
    outer chains have already consumed the even positions of the inner edge.
    """
    if m < 4 or m % 2:
        raise ValueError(f"generic even shell needs even m >= 4, got {m}")
    chains: list[Chain] = [tuple((s, m - k, k, s) for k in range(m + 1))]
    for i in range(m // 2):
        a, b, c = m - 2 * i, 2 * i, 0
        chain = [(a + s, b, c, s)]
        while a > 1:
            a -= 1
            chain.append((a + s, b + 1, c, s))
            chain.append((a + s, b, c + 1, s))
            c += 1
        chain.append((1 + s, b, c - 1, 1 + s))  # inner-layer detour past the edge chain
        for r in range(m + 2 * i, 2 * i - 1, -1):
            bb = max(0, r - m + 1) + i - max(0, -(-(r - m) // 2))
            chain.append((s, bb, r - 2 * bb, m - r + bb + s))
        chains.append(tuple(chain))
    inner = m - 2
    for j in range(m // 2 - 1):
        a, b, c = inner - 2 * j, 2 * j, 0
        chain = [(a + 1 + s, b, c, 1 + s)]
        while a > 0:
            a -= 1
            chain.append((a + 1 + s, b + 1, c, 1 + s))
            if a > 0:
                chain.append((a + 1 + s, b, c + 1, 1 + s))
                c += 1
        for r in range(inner + 2 * j, 2 * j - 1, -1):
            bb = max(0, r - inner + 1) + j - max(0, -(-(r - inner) // 2))
            chain.append((1 + s, bb, r - 2 * bb, inner - r + bb + 1 + s))
        chains.append(tuple(chain))
    return chains


def shift(chain, s):
    return tuple((a + s, b, c, d + s) for a, b, c, d in chain)


def reference_lindstrom(m):
    """The recursion that lindstrom unrolled: every level re-embeds all
    earlier chains with ``shift`` and adds its own shell at offset 0."""
    if m % 2:
        chains = []
        for k in range(1, m + 1, 2):
            chains = [shift(ch, 1) for ch in chains]
            chains.extend(reference_odd_shell(k, 0))
    elif m == 2:
        chains = _shell(2, 0)
    else:
        if m % 4 == 0:
            chains, start = [((2, 0, 0, 2),)], 4
        else:
            chains, start = [shift(ch, 2) for ch in _shell(2, 0)], 6
        chains.extend(reference_even_shell(start, 0))
        for k in range(start + 4, m + 1, 4):
            chains = [shift(ch, 2) for ch in chains]
            chains.extend(reference_even_shell(k, 0))
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


def reference_two_column_seed(s: int) -> list[Chain]:
    """The seed as it was derived: the alternating decomposition of the
    (3, 2) box, conjugated through the partition form into the (2, 3)
    lattice, written at offset ``s``."""
    out = []
    for chain in scd_n2(3).chains:
        mapped = []
        for key in chain:
            part = from_multiplicity(key, Shape(3, 2))
            a, b, c, d = to_multiplicity(conjugate(part), Shape(2, 3))
            mapped.append((a + s, b, c, d + s))
        out.append(tuple(mapped))
    return out


class TestShellsMatchTheFrozenReference:
    @pytest.mark.parametrize("s", range(4))
    def test_odd_shell(self, s):
        for m in range(1, 121, 2):
            assert _shell(m, s) == reference_odd_shell(m, s), (m, s)

    @pytest.mark.parametrize("s", range(4))
    def test_even_shell(self, s):
        for m in range(4, 121, 2):
            assert _shell(m, s) == reference_even_shell(m, s), (m, s)

    @pytest.mark.parametrize("s", range(4))
    def test_two_column_seed(self, s):
        assert _shell(2, s) == reference_two_column_seed(s)

    @pytest.mark.parametrize("s", range(4))
    def test_core(self, s):
        assert _shell(0, s) == [((s, 0, 0, s),)]


def down(m: int, key) -> tuple | None:
    """The key one rank below ``key`` on its chain of ``lindstrom(m)``, or
    None at the chain's bottom, read off the key alone.

    The key's shell ``k = m - 2s`` sits at offset ``s = min(key[0], key[3])``,
    rounded down to even for even ``m``, whose shells are two layers deep.
    In the shell's own coordinates ``(a, b, c, d)`` an odd shell has two
    cases: on the last-slot-zero face with ``a > 0`` the zigzag of
    ``i = b // 2`` steps ``(a - 1, b + 1, c)`` from even ``b`` and
    ``(a, b - 1, c + 1)`` from odd ``b``; any other key is on the sweep down
    the first-slot-zero face.  At rank ``r = 2b + c`` the sweep is chain
    ``i = b - max(0, (r - k + 1 + e) // 2)`` and goes on to second slot
    ``i + max(0, (r - k + e) // 2)`` at rank ``r - 1``, down to rank ``2i``;
    ``e`` is 1 in an even shell and 0 in an odd one.  An even shell adds the
    chain down the edge of its outer faces, the step of each outer zigzag
    into its detour ``(1, 2i, c, 1)``, the detour's step to
    ``(0, 2i + 1, c, 1)``, and the odd rules for the rest of the inner layer
    as the shell of ``k - 2`` one offset further in.  ``k = 2`` is the
    two-column table, and ``k = 0`` a single node.
    """
    t = min(key[0], key[3])
    s = t if m % 2 else t - t % 2
    k = m - 2 * s
    a, b, c, d = key[0] - s, key[1], key[2], key[3] - s
    if k == 2:
        chain = next(ch for ch in reference_two_column_seed(s) if key in ch)
        return dict(zip(chain, chain[1:])).get(key)
    if k % 2 == 0:
        if k == 0 or a == d == 0:  # the single node, or the edge chain
            return (s, b - 1, c + 1, s) if b else None
        if a == d == 1 and b % 2 == 0:  # a detour steps into its sweep
            return (s, b + 1, c, s + 1)
        if a == 1 and d == 0 and b % 2 == 0:  # an outer zigzag steps into its detour
            return (s + 1, b, c - 1, s + 1)
        if min(a, d) == 1:  # the rest of the inner layer: the shell of k - 2
            s, k, a, d = s + 1, k - 2, a - 1, d - 1
    e = 1 - k % 2
    if d == 0 and a > 0:
        return (a - 1 + s, b + 1, c, s) if b % 2 == 0 else (a + s, b - 1, c + 1, s)
    r = 2 * b + c
    i = b - max(0, (r - k + 1 + e) // 2)
    if r - 1 < 2 * i:
        return None
    b = i + max(0, (r - k + e) // 2)
    return (s, b, r - 1 - 2 * b, k - r + 1 + b + s)


def assert_down_walks_every_chain(m: int) -> None:
    for chain in lindstrom(m).chains:
        assert [*map(down, [m] * len(chain), chain)] == [*chain[1:], None], (m, chain)


class TestDownOracle:
    # the rule checks every key of _chain's output; m <= 121 runs outside
    # tier-1: PYTHONPATH=src:tests python3 -c "import test_lindstrom as t;
    # [t.assert_down_walks_every_chain(m) for m in range(1, 122)]"
    @pytest.mark.parametrize("m", range(1, 61))
    def test_down_gives_the_next_key_of_every_chain(self, m):
        assert_down_walks_every_chain(m)


class TestDispatch:
    def test_m1_goes_to_odd(self):
        assert lindstrom(1) == ChainDecomposition(Shape(1, 3), _shell(1, 0))

    def test_m4_goes_to_even(self):
        assert lindstrom(4) == ChainDecomposition(
            Shape(4, 3), [((2, 0, 0, 2),)] + _shell(4, 0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lindstrom(0)


class TestValidityRange:
    @pytest.mark.parametrize("m", range(1, 61))
    def test_valid_up_to_sixty(self, m):
        d = lindstrom(m)
        p = build_lattice(Shape(m, 3), "composition")
        report = verify_scd(d, p)
        assert report.passed
        assert report.start_profile == expected_start_profile(m)
        # digits up to m = 9, both spellings up to m = 36, then bracketed
        assert serialize_decomposition(d) == reference_serialize_decomposition(d)

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
