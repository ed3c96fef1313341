"""Exact arithmetic on integer partitions and weak compositions.

A partition is stored as a tuple of positive parts in non-increasing order
with no trailing zeros; the empty tuple stands for the partition of 0.  A
partition belongs to the bounded lattice of shape ``(m, n)`` when it has at
most ``m`` parts, each of size at most ``n``; shape-dependent operations
zero-pad internally, so ``(3, 2, 1)`` and the four-part ``(3, 2, 1, 0)`` are
one element.

The same element can be written as a weak composition: a tuple of ``n + 1``
nonnegative entries summing to ``m`` whose entry ``j`` (1-based, left to
right) counts the parts of size ``n + 1 - j``.  The first entry counts parts
of size ``n`` and the last counts padding zeros.  ``to_multiplicity`` and
``from_multiplicity`` convert between the two coordinate systems and carry
cover edges to cover edges in both directions.  Every ``poset.GradedPoset``
keys its elements by weak composition, in either coordinate system, and the
program converts no key to a partition except to make a label; ``render``
writes even those straight from the composition.

``poset.build_lattice`` and ``poset.check_splitting_identities`` enumerate
elements with ``enumerate_compositions`` alone.  The rank of a composition
is ``weighted_sum``, the sum of its proper prefix sums; ``build_lattice``
takes those prefix sums for all keys at once from
``itertools.combinations_with_replacement``.  The partition-side names
(``from_multiplicity``, ``to_multiplicity``, ``leq``, ``covers``,
``conjugate``, ``complement`` and the partition strings) are the public
partition API: the package re-exports them, and no other module imports
them.

Everything here is a pure function over immutable tuples; concurrent callers
need no coordination.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import accumulate, chain
from typing import Iterable, NamedTuple, Sequence

Partition = tuple[int, ...]
WeakComposition = tuple[int, ...]


class Shape(NamedTuple):
    """Lattice bounds: at most ``m`` parts, each of size at most ``n``."""

    m: int
    n: int


class InvalidElementError(ValueError):
    """Raised when a partition does not fit the shape it is used with."""


class InvalidCompositionError(ValueError):
    """Raised when a weak composition has the wrong length, sum, or sign."""


def as_partition(parts: Iterable[int]) -> Partition:
    """Canonicalize ``parts``: drop trailing zeros, reject bad sequences."""
    out = tuple(int(v) for v in parts)
    while out and out[-1] == 0:
        out = out[:-1]
    for i, v in enumerate(out):
        if v < 1:
            raise ValueError(f"parts must be positive, got {v} in {out}")
        if i and out[i - 1] < v:
            raise ValueError(f"parts must be non-increasing, got {out}")
    return out


def _require_fits(a: Partition, shape: Shape) -> None:
    """``InvalidElementError`` unless ``a`` has at most ``shape.m`` parts, each
    at most ``shape.n``."""
    if len(a) > shape.m or (a and a[0] > shape.n):
        raise InvalidElementError(
            f"partition {a} does not fit in a {shape.m} x {shape.n} box"
        )


def require_composition(c: WeakComposition, shape: Shape) -> None:
    """Validate that ``c`` is a weak composition of ``shape.m`` with ``shape.n + 1`` entries."""
    if len(c) != shape.n + 1:
        raise InvalidCompositionError(
            f"expected {shape.n + 1} entries, got {len(c)} in {c}"
        )
    if any(v < 0 for v in c):
        raise InvalidCompositionError(f"negative entry in {c}")
    if sum(c) != shape.m:
        raise InvalidCompositionError(
            f"entries of {c} sum to {sum(c)}, expected {shape.m}"
        )


def padded(a: Partition, m: int) -> tuple[int, ...]:
    """``a`` extended with zeros to exactly ``m`` entries."""
    return a + (0,) * (m - len(a))


def rank(a: Partition) -> int:
    """Sum of parts: the number of boxes in the Young diagram."""
    return sum(a)


def leq(a: Partition, b: Partition, shape: Shape) -> bool:
    """Entry-wise comparison after zero-padding both sides to ``m`` parts.

    Equivalently, the Young diagram of ``a`` fits inside the diagram of
    ``b``.
    """
    _require_fits(a, shape)
    _require_fits(b, shape)
    return all(x <= y for x, y in zip(padded(a, shape.m), padded(b, shape.m)))


def covers(b: Partition, a: Partition, shape: Shape) -> bool:
    """True when ``b`` covers ``a``: exactly one part grows by one box."""
    _require_fits(a, shape)
    _require_fits(b, shape)
    pa, pb = padded(a, shape.m), padded(b, shape.m)
    bumped = [i for i in range(shape.m) if pa[i] != pb[i]]
    return len(bumped) == 1 and pb[bumped[0]] == pa[bumped[0]] + 1


def conjugate(a: Partition) -> Partition:
    """Transpose the Young diagram: column lengths become the parts."""
    if not a:
        return ()
    return tuple(sum(1 for v in a if v > j) for j in range(a[0]))


def complement(a: Partition, shape: Shape) -> Partition:
    """Complement inside the ``m x n`` rectangle: parts ``n - a_i``, reversed.

    An order-reversing involution; ranks satisfy ``|a| + |a*| = m * n``.
    """
    _require_fits(a, shape)
    return as_partition(sorted((shape.n - v for v in padded(a, shape.m)), reverse=True))


def to_multiplicity(a: Partition, shape: Shape) -> WeakComposition:
    """Multiplicity coordinates of ``a``: entry ``j`` counts parts of size ``n + 1 - j``."""
    _require_fits(a, shape)
    counts = [0] * (shape.n + 1)
    for v in padded(a, shape.m):
        counts[shape.n - v] += 1
    return tuple(counts)


def from_multiplicity(c: WeakComposition, shape: Shape) -> Partition:
    """Inverse of :func:`to_multiplicity`.

    ``c`` is validated with :func:`require_composition`; the canonical tuple
    is then built directly, part size ``n - j`` repeated ``c[j]`` times for
    ``j < n``, without passing through :func:`as_partition` again.
    """
    require_composition(c, shape)
    parts: list[int] = []
    for j, count in enumerate(c[: shape.n]):
        parts.extend([shape.n - j] * count)
    return tuple(parts)


def weighted_sum(c: Sequence[int]) -> int:
    """Entries weighted by the part size their slot stands for (no validation).

    Entry ``i`` of ``len(c)`` has weight ``len(c) - 1 - i``, the number of
    prefix sums it is part of, so the total is the sum of all proper prefix
    sums.  For a composition key this is its rank, ``rank(from_multiplicity(c,
    shape))``.
    """
    return sum(accumulate(c[:-1]))


def enumerate_compositions(k: int, p: int) -> list[WeakComposition]:
    """All weak compositions of ``k`` with ``p`` parts, in lexicographic order.

    The count is C(k + p - 1, p - 1).  Each step finds the rightmost nonzero
    entry after the first, moves one of its units one slot left and the rest
    of it to the last slot.
    """
    if k < 0:
        raise ValueError(f"total must be nonnegative, got {k}")
    if p < 1:
        raise ValueError(f"need at least one part, got {p}")
    c = [0] * (p - 1) + [k]
    out = [tuple(c)]
    while c[0] < k:
        j = p - 1
        while not c[j]:
            j -= 1
        c[j - 1] += 1
        c[j], c[-1] = 0, c[j] - 1
        out.append(tuple(c))
    return out


def format_partition(a: Partition) -> str:
    """Digit-string display ("3211", "∅"), bracketed when a part exceeds 9."""
    if not a:
        return "∅"
    if a[0] <= 9:
        return "".join(map(str, a))
    return "[" + ",".join(map(str, a)) + "]"


def parse_partition(text: str) -> Partition:
    """Accept digit strings ("3211"), bracketed lists ("[12,3]"), "∅", or "0"."""
    s = text.strip()
    if s in ("∅", "0", ""):
        return ()
    if s.startswith("["):
        if not s.endswith("]"):
            raise ValueError(f"unterminated bracketed partition: {text!r}")
        return as_partition(int(v) for v in s[1:-1].split(","))
    if not s.isdigit():
        raise ValueError(f"not a partition string: {text!r}")
    return as_partition(int(ch) for ch in s)


# the bracketed key spelling: ASCII numbers without leading zeros, comma-separated
_BRACKETED_KEY = re.compile(r"\[(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*\]")


@lru_cache(maxsize=64)  # bounded: key lengths come from input files too
def _key_templates(length: int) -> tuple[str, str]:
    """The ``%`` templates of a key of ``length`` entries: digits, bracketed."""
    return "%d" * length, "[" + ",".join(["%d"] * length) + "]"


def _key_template(c: WeakComposition) -> str:
    return _key_templates(len(c))[bool(c) and max(c) > 9]


def format_composition(c: WeakComposition) -> str:
    """Digit-string key ("1120"), bracketed ("[10,0,2,0]") when an entry exceeds 9."""
    return _key_template(c) % tuple(c)


def format_compositions(keys: Sequence[WeakComposition]) -> list[str]:
    """``list(map(format_composition, keys))``, made by one ``%`` of the keys'
    templates joined by newlines over all their entries, then split; no key
    string holds a newline."""
    if not keys:
        return []
    return ("\n".join(map(_key_template, keys)) % tuple(chain.from_iterable(keys))).split("\n")


def _is_int_at_least(value, least: int) -> bool:
    """Whether ``value`` is an int (a ``bool`` is not one) of at least ``least``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def parse_natural(text: str) -> int:
    """A nonnegative integer as the writers spell it: ASCII digits, no leading zero.

    ``int`` alone would also take signs, blanks, underscores, non-ASCII
    decimal digits and leading zeros.
    """
    if not (text.isascii() and text.isdigit()) or (text[0] == "0" and len(text) > 1):
        raise ValueError(f"not a number in ASCII digits, no leading zero: {text!r}")
    return int(text)


def parse_composition(text: str) -> WeakComposition:
    """Inverse of :func:`format_composition`, accepting only the strings it
    writes: one ASCII digit per entry or, when an entry exceeds 9, a
    bracketed list of numbers without leading zeros (syntax check only)."""
    if text.startswith("["):
        if not _BRACKETED_KEY.fullmatch(text):
            raise ValueError(f"not a composition key: {text!r}")
        key = tuple(map(int, text[1:-1].split(",")))
        if len(text) == 2 * len(key) + 1:  # every entry is one digit
            raise ValueError(f"bracketed key with no entry over 9: {text!r}")
        return key
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a composition key: {text!r}")
    return tuple(map(int, text))
