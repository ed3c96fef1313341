"""Bounded partition lattices as explicit graded posets.

Builds the lattice of shape ``(m, n)``, computes Gaussian-binomial rank
polynomials with exact big-integer arithmetic, checks the two classical
one-step splittings of that polynomial, and reads and writes a line-oriented
text format.  Element keys are always weak compositions; the coordinate
system of a poset (partition or composition) chooses only its label,
``L(m,n)`` or ``L'(m,n)``, and partitions are a view through the
multiplicity bijection of :mod:`younglat.partitions`, which spells the keys
too.  Posets are immutable after construction and safe to share between
threads; the key strings and the key index are made on first use.

The interchange format, one file per poset::

    poset L'(4,3) height=12 count=35
    <index> <rank> <key>          (one line per element)
    <lower> <upper> <color>       (one line per cover)

Files from either coordinate system share one key space.  Elements are
ordered by rank and then lexicographically; covers are sorted by index pair.
Output is byte-stable.  The header fixes everything after it, so a file
parses exactly when it is the writer's text for the lattice its header
names, up to line ends and runs of blanks.

The writer makes the text in blocks of a fixed number of lines, each block
by one ``%`` of the repeated line template over the block's values, so it
never holds one string per line.  A command writes the blocks out as they
come, and the parser compares a text with them block by block, in place.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import (accumulate, chain, combinations_with_replacement, compress, count,
                       islice, repeat)
from math import comb
from operator import itemgetter, sub
from typing import NamedTuple

from .partitions import (
    KEY_ENTRY_LIMIT,
    Shape,
    _checked_shape,
    _shape_template,
    enumerate_compositions,
    format_compositions,
    parse_natural,
)

ELEMENT_LIMIT = 4_000_000  # above L(12,12); build_lattice refuses larger lattices
DEGREE_LIMIT = 90_000  # m * n of L(300,300); gaussian_binomial refuses larger boxes
_BLOCK_LINES = 4096  # lines per block of the poset writer


class ParseError(ValueError):
    """Malformed interchange file; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class RankPolynomial(tuple):
    """Nonnegative integer coefficients, as the tuple's items; item ``k``
    counts rank-``k`` elements, so it compares equal to the plain tuple."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"RankPolynomial(coefficients={tuple(self)!r})"

    @property
    def coefficients(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def total(self) -> int:
        return sum(self)

    @property
    def is_symmetric(self) -> bool:
        return self == self[::-1]

    @property
    def is_unimodal(self) -> bool:
        """Weakly increasing, then weakly decreasing."""
        falling = False
        for i in range(1, len(self)):
            if self[i] < self[i - 1]:
                falling = True
            elif self[i] > self[i - 1] and falling:
                return False
        return True


def _half_quotient(low: list[int], i: int) -> list[int]:
    """The lower half of ``T / (1 - q^i)`` from ``low``, the lower half of ``T``.

    ``T`` is anti-palindromic (``T[D - j] = -T[j]``) of a degree ``D`` that
    is a multiple of ``i``, and ``low`` holds its coefficients below
    ``D / 2``: ``len(low) = ceil(D / 2)``, at least ``i``.  The quotient's
    ``quot[j] = T[j] + quot[j - i]`` is a running sum over each residue class
    mod ``i``, so its lower coefficients need only ``low``.

    The division is exact when the sum of ``T`` over every residue class is
    zero.  ``j -> D - j`` maps class ``r`` onto class ``-r``, because ``i``
    divides ``D``, and it negates the coefficient, so the part of class ``r``
    above ``D / 2`` sums to ``-L(-r)``, where ``L(r)`` is the last running
    sum of class ``r`` in ``low`` (a middle coefficient ``T[D / 2]`` is its
    own negative, zero).  Class ``r`` therefore sums to ``L(r) - L(-r)``,
    and the division is exact exactly when ``L(r) == L(-r)`` for every
    ``r``; otherwise ``ArithmeticError``.
    """
    sums = [0] * len(low)
    for r in range(i):
        sums[r::i] = accumulate(low[r::i])
    # the last running sum of each class r, indexed by r
    last = [sums[len(low) - 1 - (len(low) - 1 - r) % i] for r in range(i)]
    if last[1:] != last[:0:-1]:
        raise ArithmeticError("inexact polynomial division")
    return sums


def _next_half(lower: list[int], m: int, i: int) -> list[int]:
    """The lower half (coefficients ``0..m * i // 2``) of the ``(m, i)``
    polynomial from ``lower``, that of the ``(m, i - 1)`` polynomial ``P``,
    for ``m, i >= 1``.

    ``P`` is palindromic of degree ``d = m * (i - 1)``, so its coefficients
    below ``half = ceil((m + 1) * i / 2)`` are ``lower``, its mirror up to
    degree ``d``, and zeros (only for ``i = 1``).  That window is all the
    anti-palindromic step polynomial ``T = P * (1 - q^(m+i))``, of degree
    ``(m + 1) * i``, needs below ``half``, and :func:`_half_quotient`
    divides those coefficients by ``1 - q^i`` with the exactness check.  A
    ``lower`` not ``d // 2 + 1`` long raises ``ArithmeticError``.
    """
    d = m * (i - 1)
    if len(lower) != d // 2 + 1:
        raise ArithmeticError(f"the ({m}, {i - 1}) polynomial has degree {d}")
    half = ((m + 1) * i + 1) // 2
    top = min(d + 1, half)
    low = lower + lower[d + 1 - top:(d + 1) // 2][::-1] + [0] * (half - top)
    low[m + i:] = map(sub, low[m + i:], low)
    return _half_quotient(low, i)[: m * i // 2 + 1]


def gaussian_binomial(m: int, n: int) -> RankPolynomial:
    """Coefficients of the Gaussian binomial for an ``(m, n)`` box.

    The polynomial is symmetric in ``m`` and ``n``; with ``n`` the smaller
    one, it is the exact product of ``(1 - q^(m+i)) / (1 - q^i)``, one
    ``i = 1..n`` at a time, with each division checked to leave no
    remainder; after step ``i`` it is the ``(m, i)`` polynomial, of degree
    ``m * i``.  Every ``(m, i)`` polynomial is palindromic, so the steps
    carry only its lower half (:func:`_next_half`), and the result mirrors
    the last half once, at the end.  The coefficient of ``q^k`` counts the
    partitions of ``k`` with at most ``m`` parts, each at most ``n``.  A
    dimension that is not an int, or a degree ``m * n`` over
    ``DEGREE_LIMIT``, raises ``ValueError`` before any work.
    """
    m, n = _checked_shape((m, n))
    if m * n > DEGREE_LIMIT:
        raise ValueError(f"the {m} x {n} box has degree {m * n:,}, over the "
                         f"limit of {DEGREE_LIMIT:,}")
    m, n = max(m, n), min(m, n)
    lower = [1]
    for i in range(1, n + 1):
        lower = _next_half(lower, m, i)
    # a forward slice, reversed: the mirror of degree 0 is empty
    return RankPolynomial(tuple(lower + lower[: (m * n + 1) // 2][::-1]))


class GradedPoset:
    """The lattice of its shape, with colored cover edges.

    Every poset is built by :func:`build_lattice`, so the shape fixes the
    rest: ``height`` is ``m * n``, and equality is by shape and coordinates.
    ``elements`` holds weak-composition keys sorted by rank and then
    lexicographically, whatever ``coords`` is: ``coords`` only picks the
    label of :meth:`label`.  ``covers`` holds ``(lower_index, upper_index,
    color)`` triples sorted by index pair.  Covers are root steps, so
    ``roots.edge_color`` decides from two keys ``in`` the poset alone.
    :attr:`key_strings` and the key index behind ``in``, :meth:`index_of`
    and ``_positions`` are made on first use, so a poset only written or
    drawn holds no index; threads racing there make equal values.
    """

    def __init__(self, shape, coords, elements, ranks, covers):
        self.shape = shape
        self.coords = coords
        self.elements = elements
        self.ranks = ranks
        self.covers = covers
        self.height = shape.m * shape.n

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, key) -> bool:
        return key in self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedPoset):
            return NotImplemented
        return (self.shape, self.coords) == (other.shape, other.coords)

    @cached_property
    def key_strings(self) -> tuple[str, ...]:
        """``format_composition`` of each element, in element order: one
        repeated template where the shape has one (``_shape_template``), else
        ``format_compositions``, which the empty poset also takes."""
        template = _shape_template(*self.shape) if self.elements else None
        if template is None:
            return tuple(format_compositions(self.elements))
        template = (template + "\n") * len(self)
        return tuple((template % tuple(chain.from_iterable(self.elements))).splitlines())

    @cached_property
    def _index(self) -> dict:
        return {key: i for i, key in enumerate(self.elements)}

    def index_of(self, key) -> int:
        try:
            return self._index[key]
        except KeyError:
            raise KeyError(f"unknown element {key}") from None

    def levels(self) -> list[range]:
        """Element indices grouped by rank, rank 0 first: the ranges between
        the offsets of each rank in the sorted ``ranks``."""
        starts = [bisect_left(self.ranks, r) for r in range(self.height + 2)]
        return list(map(range, starts, starts[1:]))

    def label(self) -> str:
        return _lattice_label(self.shape, self.coords)


def _lattice_label(shape: Shape, coords: str) -> str:
    """``L(m,n)`` in partition coordinates, ``L'(m,n)`` in composition ones."""
    prime = "" if coords == "partition" else "'"
    return f"L{prime}({shape.m},{shape.n})"


def _positions(p: GradedPoset, keys) -> list:
    """The element index of each key in ``p``, None for a key that is not
    one: one probe of the key index per key."""
    return list(map(p._index.get, keys))


def _require_within_limit(m: int, n: int) -> None:
    """``ValueError`` when the ``(m, n)`` lattice has over ``ELEMENT_LIMIT``
    elements or, if not empty, its keys hold over ``KEY_ENTRY_LIMIT`` entries."""
    if min(m, n) > 32 or comb(m + n, m) > ELEMENT_LIMIT:  # C(66, 33) > 7e18
        raise ValueError(f"L({m},{n}) has more than {ELEMENT_LIMIT:,} elements")
    if m and n and comb(m + n, m) * (n + 1) > KEY_ENTRY_LIMIT:
        raise ValueError(f"L({m},{n}) has {comb(m + n, m):,} keys of {n + 1:,} "
                         f"entries, over the limit of {KEY_ENTRY_LIMIT:,} entries")


def build_lattice(shape: Shape, coordinates: str = "partition") -> GradedPoset:
    """Materialize the lattice of partitions bounded by ``shape``.

    The elements are the weak compositions of ``m`` with ``n + 1`` entries,
    stably sorted by rank (lexicographic within a rank), in both coordinate
    systems; ``coordinates`` only sets the label.  ``m = 0`` or ``n = 0``
    gives the empty poset; a dimension that is not an int, or over
    ``ELEMENT_LIMIT`` elements or ``KEY_ENTRY_LIMIT`` key entries, raises
    ``ValueError``.

    The ``n`` proper prefix sums of a key, ``(c0, c0 + c1, ...)``, are the
    parts of the conjugate partition: a nondecreasing ``n``-tuple in
    ``[0, m]`` whose sum is the key's rank.
    ``combinations_with_replacement(range(m + 1), n)`` lists exactly those
    tuples, in the lexicographic order of ``enumerate_compositions`` (stars
    and bars), so each key's rank is computed once, as the ``sum`` of its
    tuple, without a call per key; a stable argsort by rank puts the keys
    and their ranks in order.

    The color-``j + 1`` covers are the translations by the simple root
    ``e_j - e_(j+1)``: a unit moves from slot ``j + 1`` to slot ``j``.  That
    translation is a bijection from the keys with ``c[j + 1] > 0`` onto the
    keys with ``c[j] > 0``, it raises the rank by one, and it keeps the
    lexicographic order of keys of one rank, so it keeps the element order.
    Taken in index order, the ``k``-th key of the first set therefore lies
    below the ``k``-th key of the second, and each color's covers come out
    sorted by lower index.  Above one lower key, a smaller color moves its
    unit to an earlier slot, so its upper key is lexicographically larger
    and has the larger index.  One stable sort on the lower index alone
    therefore merges the ``n`` runs, taken in descending color order, into
    index-pair order, comparing no tuples.  No key is looked up.
    """
    shape = _checked_shape(shape)
    m, n = shape
    if coordinates not in ("partition", "composition"):
        raise ValueError(f"unknown coordinate system {coordinates!r}")
    if m == 0 or n == 0:
        return GradedPoset(shape, coordinates, (), (), ())
    _require_within_limit(m, n)
    lex = enumerate_compositions(m, n + 1)
    weights = list(map(sum, combinations_with_replacement(range(m + 1), n)))
    order = sorted(range(len(lex)), key=weights.__getitem__)
    comps = tuple(map(lex.__getitem__, order))
    ranks = tuple(map(weights.__getitem__, order))
    del lex, weights, order  # freed before the covers are made
    everyone = list(range(len(comps)))  # shared int objects, not one per cover end
    runs = [zip(compress(everyone, map(itemgetter(j + 1), comps)),
                compress(everyone, map(itemgetter(j), comps)), repeat(j + 1))
            for j in reversed(range(n))]
    edges = tuple(sorted(chain.from_iterable(runs), key=itemgetter(0)))
    return GradedPoset(shape, coordinates, comps, ranks, edges)


def rank_profile(p: GradedPoset) -> RankPolynomial:
    """Per-level element counts of ``p``; equals the Gaussian binomial for
    lattices with ``m, n >= 1``.  ``m = 0`` or ``n = 0`` gives the empty
    lattice here, whose profile is ``(0,)`` where the Gaussian binomial is
    ``(1,)``."""
    return RankPolynomial(tuple(map(len, p.levels())))


def _plus_shifted(a: list[int], b: list[int], k: int) -> list[int]:
    """Coefficients of ``a + q^k * b``."""
    out = a + [0] * (len(b) + k - len(a))
    for i, v in enumerate(b, k):
        out[i] += v
    return out


class SplitCheck(NamedTuple):
    """Result of the one-step splitting checks for an ``(m, n)`` box, a named
    tuple; it is true when every check passed."""

    shape: Shape
    first_identity: bool
    second_identity: bool
    with_largest: int
    without_largest: int
    split_bijective: bool

    @property
    def passed(self) -> bool:
        return self.first_identity and self.second_identity and self.split_bijective

    def __bool__(self) -> bool:
        return self.passed


def check_splitting_identities(m: int, n: int) -> SplitCheck:
    """Check both one-step splittings of the rank polynomial, exactly.

    The first splitting peels off the elements with a part of size ``n``:
    deleting that part is a bijection onto the ``(m - 1, n)`` box, shifted up
    ``n`` levels, and the remaining elements are exactly the ``(m, n - 1)``
    box.  The second splits by number of parts instead.  Coefficient
    identities use exact arithmetic, and the first split is also replayed on
    the composition keys: a key with ``c[0] >= 1`` loses one part of size
    ``n`` as ``(c[0] - 1,) + c[1:]``, an ``(m - 1, n)`` key, and a key with
    ``c[0] = 0`` drops that slot as ``c[1:]``, an ``(m, n - 1)`` key.
    Lexicographic order puts the ``c[0] = 0`` block first, and both maps keep
    the order within a block, so a map is a bijection exactly when its
    images, in order, equal the lexicographic listing of its target box.
    Dimensions that are not ints, or boxes over ``ELEMENT_LIMIT`` elements or
    ``KEY_ENTRY_LIMIT`` entries, raise ``ValueError``.
    """
    shape = _checked_shape((m, n), 1)
    _require_within_limit(m, n)
    whole = list(gaussian_binomial(m, n))
    fewer_parts = list(gaussian_binomial(m - 1, n))
    smaller_parts = list(gaussian_binomial(m, n - 1))
    first = whole == _plus_shifted(smaller_parts, fewer_parts, n)
    second = whole == _plus_shifted(fewer_parts, smaller_parts, m)
    keys = enumerate_compositions(m, n + 1)
    with_big = [(c[0] - 1,) + c[1:] for c in keys if c[0]]
    without_big = [c[1:] for c in keys if not c[0]]
    bijective = (with_big == enumerate_compositions(m - 1, n + 1)
                 and without_big == enumerate_compositions(m, n))
    return SplitCheck(shape, first, second, len(with_big),
                      len(without_big), bijective)


def _blocks(template: str, rows):
    """``template`` filled from ``rows``, equal-length tuples of its values,
    ``_BLOCK_LINES`` rows to a block: one ``%`` per block, one line per
    ``len(row)`` values.  ``rows`` is read once, as an iterator, so ``zip``
    may reuse its tuple.  For text that streams: the poset writer's
    (``lattice``, :func:`parse_poset`'s comparison) and ``render --format dot``'s."""
    rows = iter(rows)
    for first in rows:
        values = (*first, *chain.from_iterable(islice(rows, _BLOCK_LINES - 1)))
        yield template * (len(values) // len(first)) % values


def _poset_blocks(p: GradedPoset):
    """The interchange text of ``p``: the header line, then the element lines
    and the cover lines in blocks of at most ``_BLOCK_LINES`` lines."""
    yield f"poset {p.label()} height={p.height} count={len(p)}\n"
    yield from _blocks("%d %d %s\n", zip(count(), p.ranks, p.key_strings))
    yield from _blocks("%d %d %d\n", p.covers)


def _poset_lines(p: GradedPoset):
    """The lines of ``p`` in the interchange format, without their line ends."""
    return chain.from_iterable(map(str.splitlines, _poset_blocks(p)))


def serialize_poset(p: GradedPoset) -> str:
    """Render ``p`` in the interchange format: the writer's blocks of
    ``_BLOCK_LINES`` lines, joined; ``lattice`` writes the blocks out one by
    one instead."""
    return "".join(_poset_blocks(p))


def _parse_label(label: str) -> tuple[Shape, str]:
    """Shape and coordinates of a header label ``L(m,n)`` or ``L'(m,n)``."""
    coords = "composition" if label.startswith("L'") else "partition"
    body = label[2:] if coords == "composition" else label[1:]
    if not (label.startswith("L") and body.startswith("(") and body.endswith(")")):
        raise ParseError(1, f"bad lattice label: {label!r}")
    dims = body[1:-1].split(",")
    try:
        m, n = (parse_natural(v.removeprefix("-")) for v in dims)
    except ValueError:
        raise ParseError(1, f"bad lattice label: {label!r}") from None
    if any(v.startswith("-") for v in dims):
        raise ParseError(1, f"negative lattice dimension: {label!r}")
    return Shape(m, n), coords


def _parse_header(text: str) -> tuple[Shape, str]:
    """Shape and coordinates named by the header, the first line of ``text``.

    The line is cut by ``str.splitlines`` from the text before the first
    newline, so the rest of the text is not copied.  Only the word
    ``poset``, the label and the size limit are checked here; ``height=``
    and ``count=`` are compared with the rest of the text.
    """
    head = text[:end] if (end := text.find("\n")) >= 0 else text
    line = (head.splitlines() or [""])[0]
    parts = line.split()
    if len(parts) != 4 or parts[0] != "poset":
        raise ParseError(1, f"bad poset header: {line!r}")
    shape, coords = _parse_label(parts[1])
    try:
        _require_within_limit(*shape)
    except ValueError as exc:
        raise ParseError(1, str(exc)) from None
    return shape, coords


def _line_count_error(got: int, expected: int) -> ParseError:
    return ParseError(min(got, expected) + 1, f"expected {expected} lines, got {got}")


def parse_poset(text: str) -> GradedPoset:
    """Parse the interchange format back into a :class:`GradedPoset`.

    The header names the lattice, and the lattice fixes every line after it,
    so there is one rule: ``text`` must be :func:`serialize_poset` of that
    lattice up to line ends (as ``str.splitlines`` cuts them) and runs of
    blanks.  The header is read first and the lines are counted, so a lattice
    is built only for a text with as many lines as its own, and at most once.
    The writer's exact bytes are accepted by comparing the text with its
    blocks one at a time, in place, without a second full copy; any other
    text is compared line by line, and the first line whose words differ
    raises :class:`ParseError`, the only exception raised.
    """
    shape, coords = _parse_header(text)
    m, n = shape
    expected = 1 if m == 0 or n == 0 else 1 + comb(m + n, m) + n * comb(m + n - 1, n)
    got = text.count("\n")
    if got != expected:
        got = len(text.splitlines())
    if got != expected:
        raise _line_count_error(got, expected)
    built = build_lattice(shape, coords)
    pos = 0
    for block in _poset_blocks(built):
        if not text.startswith(block, pos):
            break
        pos += len(block)
    else:
        if pos == len(text):
            return built
    lines = text.splitlines()
    if len(lines) != expected:  # other line breaks besides the right number of "\n"
        raise _line_count_error(len(lines), expected)
    for number, line, want in zip(count(1), lines, _poset_lines(built)):
        if line.split() != want.split():
            raise ParseError(number, f"expected {want!r}, got {line!r}")
    return built
