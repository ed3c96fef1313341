"""Bounded partition lattices as explicit graded posets.

Builds the lattice of shape ``(m, n)``, computes Gaussian-binomial rank
polynomials with exact big-integer arithmetic, checks the two classical
one-step splittings of that polynomial, and reads and writes a line-oriented
text format.  Element keys are always weak compositions; the coordinate
system of a poset (partition or composition) chooses only its label,
``L(m,n)`` or ``L'(m,n)``, and partitions are a view through the
multiplicity bijection of :mod:`younglat.partitions`.  Posets are immutable
after construction and safe to share between threads.

The interchange format, one file per poset::

    poset L'(4,3) height=12 count=35
    <index> <rank> <key>          (one line per element)
    <lower> <upper> <color>       (one line per cover)

Files from either coordinate system share one key space.  Elements are
ordered by rank and then lexicographically; covers are sorted by index pair.
Output is byte-stable.  The header fixes everything after it, so a file
parses exactly when it is the writer's text for the lattice its header
names, up to line ends and runs of blanks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, repeat
from math import comb
from operator import itemgetter, sub

from .partitions import (
    Shape,
    enumerate_compositions,
    format_composition,
    parse_natural,
    weighted_sum,
)
from .roots import NotACoverError, edge_color

# the header line: up to the first character at which str.splitlines ends a line
_FIRST_LINE = re.compile(r"[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")

ELEMENT_LIMIT = 4_000_000  # above L(12,12); build_lattice refuses larger lattices
DEGREE_LIMIT = 90_000  # m * n of L(300,300); gaussian_binomial refuses larger boxes


class ParseError(ValueError):
    """Malformed interchange file; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class RankPolynomial:
    """Nonnegative integer coefficients; index ``k`` counts rank-``k`` elements."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))

    def __len__(self) -> int:
        return len(self.coefficients)

    def __getitem__(self, k: int) -> int:
        return self.coefficients[k]

    def __iter__(self):
        return iter(self.coefficients)

    @property
    def total(self) -> int:
        return sum(self.coefficients)

    @property
    def is_symmetric(self) -> bool:
        return self.coefficients == self.coefficients[::-1]

    @property
    def is_unimodal(self) -> bool:
        """Weakly increasing, then weakly decreasing."""
        c = self.coefficients
        falling = False
        for i in range(1, len(c)):
            if c[i] < c[i - 1]:
                falling = True
            elif c[i] > c[i - 1] and falling:
                return False
        return True


def _times_one_minus_power(poly: list[int], k: int) -> list[int]:
    """``poly * (1 - q^k)``: the coefficients of ``poly`` subtracted ``k`` places up."""
    out = poly + [0] * k
    out[k:] = map(sub, out[k:], poly)
    return out


def _exact_quotient_one_minus_power(poly: list[int], k: int) -> list[int]:
    """``poly / (1 - q^k)``; ``ArithmeticError`` unless exact and ``deg >= k``.

    ``quot[j] = poly[j] + quot[j - k]`` is a running sum over each residue
    class mod ``k``; run over all of ``poly``, the last ``k`` sums are the
    remainder.
    """
    sums = [0] * len(poly)
    for r in range(k):
        sums[r::k] = accumulate(poly[r::k])
    if len(poly) <= k or any(sums[-k:]):
        raise ArithmeticError("inexact polynomial division")
    del sums[-k:]
    return sums


def gaussian_binomial(m: int, n: int) -> RankPolynomial:
    """Coefficients of the Gaussian binomial for an ``(m, n)`` box.

    The polynomial is symmetric in ``m`` and ``n``; with ``n`` the smaller
    one, it is the exact product of ``(1 - q^(m+i)) / (1 - q^i)``, one
    ``i = 1..n`` at a time, with each division checked to leave no
    remainder; after step ``i`` it is the ``(m, i)`` polynomial, of degree
    ``m * i``.  The coefficient of ``q^k`` counts the partitions of ``k``
    with at most ``m`` parts, each at most ``n``.  A degree ``m * n`` over
    ``DEGREE_LIMIT`` raises ``ValueError`` before any work.
    """
    if m < 0 or n < 0:
        raise ValueError("box dimensions must be nonnegative")
    if m * n > DEGREE_LIMIT:
        raise ValueError(f"the {m} x {n} box has degree {m * n:,}, over the "
                         f"limit of {DEGREE_LIMIT:,}")
    m, n = max(m, n), min(m, n)
    poly = [1]
    for i in range(1, n + 1):
        poly = _exact_quotient_one_minus_power(_times_one_minus_power(poly, m + i), i)
    return RankPolynomial(tuple(poly))


class GradedPoset:
    """A finite leveled poset with colored cover edges.

    ``elements`` holds weak-composition keys sorted by rank and then
    lexicographically, whatever ``coords`` is: ``coords`` only picks the
    label of :meth:`label`.  ``covers`` holds ``(lower_index, upper_index,
    color)`` triples sorted by index pair.  The lattice factory guarantees a unique
    minimum and maximum.  Covers must be root steps between composition keys:
    :meth:`is_cover` and :meth:`color_of` decide from the two keys alone.
    """

    __slots__ = ("shape", "coords", "elements", "ranks", "covers", "height",
                 "_index")

    def __init__(self, shape, coords, elements, ranks, covers, height):
        self.shape = shape
        self.coords = coords
        self.elements = tuple(elements)
        self.ranks = tuple(ranks)
        self.covers = tuple(covers)
        self.height = height
        if len(self.elements) != len(self.ranks):
            raise ValueError("one rank per element required")
        self._index = {key: i for i, key in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, key) -> bool:
        return key in self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedPoset):
            return NotImplemented
        return (self.shape, self.coords, self.elements, self.ranks,
                self.covers, self.height) == (
                    other.shape, other.coords, other.elements, other.ranks,
                    other.covers, other.height)

    def index_of(self, key) -> int:
        if key not in self._index:
            raise KeyError(f"unknown element {key}")
        return self._index[key]

    def rank_of(self, key) -> int:
        return self.ranks[self.index_of(key)]

    def is_cover(self, lower_key, upper_key) -> bool:
        if lower_key not in self._index or upper_key not in self._index:
            return False
        try:
            edge_color(lower_key, upper_key)
        except NotACoverError:
            return False
        return True

    def color_of(self, lower_key, upper_key) -> int:
        if not self.is_cover(lower_key, upper_key):
            raise KeyError(f"{upper_key} does not cover {lower_key} in {self.label()}")
        return edge_color(lower_key, upper_key)

    def levels(self) -> list[list[int]]:
        """Element indices grouped by rank, rank 0 first."""
        out: list[list[int]] = [[] for _ in range(self.height + 1)]
        for i, r in enumerate(self.ranks):
            out[r].append(i)
        return out

    def label(self) -> str:
        prime = "" if self.coords == "partition" else "'"
        return f"L{prime}({self.shape.m},{self.shape.n})"


def _require_within_limit(m: int, n: int) -> None:
    """``ValueError`` when the ``(m, n)`` lattice has over ``ELEMENT_LIMIT`` elements."""
    if min(m, n) > 32 or comb(m + n, m) > ELEMENT_LIMIT:  # C(66, 33) > 7e18
        raise ValueError(f"L({m},{n}) has more than {ELEMENT_LIMIT:,} elements")


def build_lattice(shape: Shape, coordinates: str = "partition") -> GradedPoset:
    """Materialize the lattice of partitions bounded by ``shape``.

    The elements are the weak compositions of ``m`` with ``n + 1`` entries,
    stably sorted by rank (lexicographic within a rank), in both coordinate
    systems; ``coordinates`` only sets the label.  ``m = 0`` or ``n = 0``
    gives the empty poset; over ``ELEMENT_LIMIT`` elements raise
    ``ValueError``.

    The color-``j + 1`` covers are the translations by the simple root
    ``e_j - e_(j+1)``: a unit moves from slot ``j + 1`` to slot ``j``.  That
    translation is a bijection from the keys with ``c[j + 1] > 0`` onto the
    keys with ``c[j] > 0``, it raises the rank by one, and it keeps the
    lexicographic order of keys of one rank, so it keeps the element order.
    Taken in index order, the ``k``-th key of the first set therefore lies
    below the ``k``-th key of the second, and each color's covers come out
    sorted by lower index; one sort merges the ``n`` runs into index-pair
    order.  No key is looked up.
    """
    shape = Shape(*shape)
    m, n = shape
    if m < 0 or n < 0:
        raise ValueError("shape dimensions must be nonnegative")
    if coordinates not in ("partition", "composition"):
        raise ValueError(f"unknown coordinate system {coordinates!r}")
    if m == 0 or n == 0:
        return GradedPoset(shape, coordinates, (), (), (), 0)
    _require_within_limit(m, n)
    comps = enumerate_compositions(m, n + 1)
    comps.sort(key=weighted_sum)
    ranks = list(map(weighted_sum, comps))
    everyone = list(range(len(comps)))  # shared int objects, not one per cover end
    runs = [zip(compress(everyone, map(itemgetter(j + 1), comps)),
                compress(everyone, map(itemgetter(j), comps)), repeat(j + 1))
            for j in range(n)]
    edges = sorted(chain.from_iterable(runs))
    return GradedPoset(shape, coordinates, comps, ranks, edges, m * n)


def rank_profile(p: GradedPoset) -> RankPolynomial:
    """Per-level element counts of ``p``; equals the Gaussian binomial for lattices."""
    counts = [0] * (p.height + 1)
    for r in p.ranks:
        counts[r] += 1
    return RankPolynomial(tuple(counts))


def _shifted(coeffs: list[int], k: int) -> list[int]:
    return [0] * k + list(coeffs)


def _padded_add(a: list[int], b: list[int]) -> list[int]:
    width = max(len(a), len(b))
    out = [0] * width
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return out


@dataclass(frozen=True)
class SplitCheck:
    """Result of the one-step splitting checks for an ``(m, n)`` box."""

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
    ``c[0] = 0`` drops that slot as ``c[1:]``, an ``(m, n - 1)`` key.  Boxes
    over ``ELEMENT_LIMIT`` elements raise ``ValueError``.
    """
    if m < 1 or n < 1:
        raise ValueError("both box dimensions must be at least 1")
    _require_within_limit(m, n)
    whole = list(gaussian_binomial(m, n))
    fewer_parts = list(gaussian_binomial(m - 1, n))
    smaller_parts = list(gaussian_binomial(m, n - 1))
    first = whole == _padded_add(_shifted(fewer_parts, n), smaller_parts)
    second = whole == _padded_add(fewer_parts, _shifted(smaller_parts, m))
    keys = enumerate_compositions(m, n + 1)
    with_big = [c for c in keys if c[0]]
    without_big = [c[1:] for c in keys if not c[0]]
    image = {(c[0] - 1,) + c[1:] for c in with_big}
    bijective = (
        len(image) == len(with_big)
        and image == set(enumerate_compositions(m - 1, n + 1))
        and set(without_big) == set(enumerate_compositions(m, n))
    )
    return SplitCheck(Shape(m, n), first, second, len(with_big),
                      len(without_big), bijective)


def _poset_lines(p: GradedPoset):
    """The lines of ``p`` in the interchange format, each ending in ``\\n``."""
    keys = map(format_composition, p.elements)
    return chain(
        [f"poset {p.label()} height={p.height} count={len(p)}\n"],
        map("%d %d %s\n".__mod__, zip(count(), p.ranks, keys)),
        map("%d %d %d\n".__mod__, p.covers),
    )


def serialize_poset(p: GradedPoset) -> str:
    """Render ``p`` in the interchange format."""
    return "".join(_poset_lines(p))


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

    The line is cut where ``str.splitlines`` would cut it, without splitting
    the rest of the text.  Only the word ``poset``, the label and the size
    limit are checked here; ``height=`` and ``count=`` are compared with the
    rest of the text.
    """
    line = _FIRST_LINE.match(text).group()
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
    The exact bytes the writer produces are accepted by one comparison; any
    other text is compared line by line, and the first line whose words
    differ raises :class:`ParseError`, the only exception raised.
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
    canonical = serialize_poset(built)
    if text == canonical:
        return built
    lines = text.splitlines()
    if len(lines) != expected:  # other line breaks besides the right number of "\n"
        raise _line_count_error(len(lines), expected)
    for number, line, want in zip(count(1), lines, _poset_lines(built)):
        if line.split() != want.split():
            raise ParseError(number, f"expected {want[:-1]!r}, got {line!r}")
    return built
