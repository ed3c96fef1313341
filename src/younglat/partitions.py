"""Exact arithmetic on integer partitions and weak compositions.

A partition is stored as a tuple of positive parts in non-increasing order
with no trailing zeros; the empty tuple stands for the partition of 0.
``_ints_at_least`` is the package's one rule for what an int is (type
exactly ``int``) and ``as_partition`` the one rule for what a partition is:
every partition-side function reads its partitions through it, and those
that take a shape ``(m, n)`` through ``_require_fits``, which also checks
that the partition has at most ``m`` parts, each at most ``n``, and
zero-pads it to ``m`` entries, so ``(3, 2, 1)`` and ``(3, 2, 1, 0)`` are one
element.  A partition is spelled as a key is, or "∅" when empty; the one
key speller, ``format_compositions``, writes digits ("1120") when each entry
is 0..9.

The same element can be written as a weak composition: a tuple of ``n + 1``
nonnegative entries summing to ``m`` whose entry ``j`` (1-based, left to
right) counts the parts of size ``n + 1 - j``.  The first entry counts parts
of size ``n`` and the last counts padding zeros.  ``to_multiplicity`` and
``from_multiplicity`` convert between the two coordinate systems and carry
cover edges to cover edges in both directions.  Every ``poset.GradedPoset``
keys its elements by weak composition, in either coordinate system, and the
program converts no key to a partition except to make a label; ``render``
makes those with ``_parts``, the multiplicity map without its checks.

``poset.build_lattice`` and ``poset.check_splitting_identities`` enumerate
elements with ``enumerate_compositions`` alone.  The rank of a composition
is ``weighted_sum``, the sum of its proper prefix sums.  The partition-side
names are the public partition API: the package re-exports them, and no
other module imports them.  A result, or a partition padded to ``m`` parts,
of over ``KEY_ENTRY_LIMIT`` entries raises ``ValueError`` before it is made.

Everything here is a pure function over immutable tuples; concurrent callers
need no coordination.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache
from itertools import accumulate, chain, repeat
from math import comb
from operator import le, lt
from typing import Iterable, NamedTuple, Sequence

Partition = tuple[int, ...]
WeakComposition = tuple[int, ...]
KEY_ENTRY_LIMIT = 40_000_000  # entries in all keys of a lattice, or in one result here


class Shape(NamedTuple):
    """Lattice bounds: at most ``m`` parts, each of size at most ``n``."""

    m: int
    n: int


class InvalidElementError(ValueError):
    """Raised when a partition does not fit the shape it is used with."""


class InvalidCompositionError(ValueError):
    """Raised when a weak composition has the wrong length, sum, or sign."""


def _require_entries(count: int) -> None:
    """``ValueError`` for a result of ``count`` entries, over ``KEY_ENTRY_LIMIT``."""
    if count > KEY_ENTRY_LIMIT:
        raise ValueError(f"a result of {count:,} entries, over the limit of {KEY_ENTRY_LIMIT:,}")


def _ints_at_least(values: Sequence, least: int) -> bool:
    """Whether all ``values`` are ints >= ``least``, the one int rule: of type
    exactly ``int``, so a ``bool`` or any other subclass is not one."""
    return {*map(type, values)} <= {int} and min(values, default=least) >= least


def _checked_shape(shape, least: int = 0) -> Shape:
    """``Shape(*shape)``; ``ValueError`` unless ``shape`` is a tuple or list of
    exactly two ints of at least ``least``."""
    if not isinstance(shape, (tuple, list)) or len(shape) != 2:
        raise ValueError(f"a shape is two lattice dimensions (m, n), got {shape!r}")
    if not _ints_at_least(shape, least):
        raise ValueError(f"lattice dimensions must be ints >= {least}, got {shape!r}")
    return Shape(*shape)


def as_partition(parts: Iterable[int]) -> Partition:
    """Canonicalize ``parts``: drop trailing zeros; ``ValueError`` unless the
    parts are ints, the kept ones at least 1 and non-increasing.  The one
    rule for what a partition is."""
    out = tuple(parts)
    if not _ints_at_least(out, 0):
        raise ValueError(f"parts must be ints >= 0, got {out!r}")
    size = len(out)
    while size and not out[size - 1]:
        size -= 1
    if any(map(lt, out[:size], out[1:size])):
        raise ValueError(f"parts must be positive and non-increasing, got {out}")
    return out[:size]


def _require_fits(a: Iterable[int], shape: Shape) -> tuple[int, ...]:
    """``a`` as :func:`as_partition` reads it, zero-padded to ``shape.m``
    entries; ``ValueError`` unless ``shape`` is two ints >= 0, and
    ``InvalidElementError`` unless ``a`` has at most ``m`` parts, each at most
    ``n``."""
    m, n = _checked_shape(shape)
    _require_entries(m)
    a = as_partition(a)
    if len(a) > m or (a and a[0] > n):
        raise InvalidElementError(f"partition {a} does not fit in a {m} x {n} box")
    return padded(a, m)


def require_composition(c: WeakComposition, shape: Shape) -> None:
    """Validate that ``c`` is a weak composition of ``shape.m`` with ``shape.n + 1``
    entries, each an int >= 0, for a ``shape`` of two ints >= 0."""
    m, n = _checked_shape(shape)
    if len(c) != n + 1:
        raise InvalidCompositionError(f"expected {n + 1} entries, got {len(c)} in {c}")
    if not _ints_at_least(c, 0):
        raise InvalidCompositionError(f"entries must be ints >= 0, got {c!r}")
    if sum(c) != m:
        raise InvalidCompositionError(f"entries of {c} sum to {sum(c)}, expected {m}")


def padded(a: Partition, m: int) -> tuple[int, ...]:
    """``a`` extended with zeros to exactly ``m`` entries."""
    return a + (0,) * (m - len(a))


def rank(a: Partition) -> int:
    """Sum of parts: the number of boxes in the Young diagram."""
    return sum(as_partition(a))


def leq(a: Partition, b: Partition, shape: Shape) -> bool:
    """Entry-wise comparison after zero-padding both sides to ``m`` parts.

    Equivalently, the Young diagram of ``a`` fits inside the diagram of
    ``b``.
    """
    return all(map(le, _require_fits(a, shape), _require_fits(b, shape)))


def covers(b: Partition, a: Partition, shape: Shape) -> bool:
    """True when ``b`` covers ``a``: ``a <= b`` and ``b`` has one box more."""
    return leq(a, b, shape) and sum(b) == sum(a) + 1


def conjugate(a: Partition) -> Partition:
    """Transpose the Young diagram: part ``j`` counts the parts of at least ``j``."""
    a = as_partition(a) or (0,)  # the empty partition's largest part is 0
    _require_entries(a[0])
    return tuple(accumulate(map(Counter(a).__getitem__, range(a[0], 0, -1))))[::-1]


def complement(a: Partition, shape: Shape) -> Partition:
    """Complement inside the ``m x n`` rectangle: parts ``n - a_i``, reversed.

    An order-reversing involution; ranks satisfy ``|a| + |a*| = m * n``.
    """
    n = _checked_shape(shape).n
    return as_partition(n - v for v in reversed(_require_fits(a, shape)))


def to_multiplicity(a: Partition, shape: Shape) -> WeakComposition:
    """Multiplicity coordinates of ``a``: entry ``j`` counts parts of size ``n + 1 - j``."""
    n = _checked_shape(shape).n
    _require_entries(n + 1)
    return tuple(map(Counter(_require_fits(a, shape)).__getitem__, range(n, -1, -1)))


def _parts(c: WeakComposition) -> Partition:
    """The parts of key ``c``, unchecked: part size ``n - j`` repeated ``c[j]``
    times for ``j < n``.  :func:`from_multiplicity` returns it after its checks."""
    return tuple(chain.from_iterable(map(repeat, range(len(c) - 1, 0, -1), c)))


def from_multiplicity(c: WeakComposition, shape: Shape) -> Partition:
    """Inverse of :func:`to_multiplicity`.

    ``c`` is validated with :func:`require_composition`; the canonical tuple
    is then :func:`_parts` of ``c``, without passing through
    :func:`as_partition` again.
    """
    require_composition(c, shape)
    _require_entries(sum(c) - c[-1])
    return _parts(c)


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

    The count is C(k + p - 1, p - 1), refused as ``KEY_ENTRY_LIMIT`` says.
    Each step finds the rightmost nonzero entry after the first, moves one
    of its units one slot left and the rest of it to the last slot.
    """
    if not (_ints_at_least((k,), 0) and _ints_at_least((p,), 1)):
        raise ValueError(f"need an int total >= 0 and int parts >= 1, got {k!r} and {p!r}")
    if min(k, p - 1) > 32 or comb(k + p - 1, k) * p > KEY_ENTRY_LIMIT:  # C(66, 33) > 7e18
        raise ValueError(f"{k} into {p} parts: over the limit of {KEY_ENTRY_LIMIT:,} entries")
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
    """The parts in the key spelling of :func:`format_composition` ("3211",
    "[12,3]"), or "∅" for the empty partition."""
    return format_composition(as_partition(a)) or "∅"


def parse_partition(text: str) -> Partition:
    """Inverse of :func:`format_partition`: "∅", or a key string as
    :func:`parse_composition` reads it, whose entries :func:`as_partition`
    then checks ("320" and "0" still read, as (3, 2) and ())."""
    return () if text == "∅" else as_partition(parse_composition(text))


# the bracketed key spelling: ASCII numbers without leading zeros, comma-separated
_BRACKETED_KEY = re.compile(r"\[(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*\]")


@lru_cache(maxsize=64)  # bounded: key lengths come from input files too
def _key_templates(length: int) -> str:
    """The bracketed ``%`` template of a key of ``length`` entries; ``""`` if none."""
    return "[" + ",".join(["%d"] * length) + "]" if length else ""


def _shape_template(m: int, n: int) -> str | None:
    """The ``%`` template of every key of ``n + 1`` entries summing to ``m``:
    digits for ``m <= 9``, bracketed for ``m > 9 * (n + 1)``, else None."""
    if m <= 9:
        return "%d" * (n + 1)
    return _key_templates(n + 1) if m > 9 * (n + 1) else None


def format_composition(c: WeakComposition) -> str:
    """The key string of ``c``, as :func:`format_compositions` spells it."""
    return format_compositions((c,))[0]


def format_compositions(keys: Sequence[WeakComposition]) -> list[str]:
    """Each key bracketed ("[10,0,2,0]", "[-1,3,0]"), by one ``%`` of the keys'
    templates joined by newlines over all their entries, then cut to its
    digits ("1120") when its text is ``2 * len(key) + 1`` long: when every
    entry is one character, 0..9.  A non-number entry raises ``ValueError``."""
    try:
        text = "\n".join(map(_key_templates, map(len, keys))) % tuple(chain.from_iterable(keys))
    except TypeError as exc:
        raise ValueError(f"keys must be tuples of ints: {exc}") from None
    return [s if len(s) != 2 * len(c) + 1 else s[1:-1:2] for s, c in zip(text.split("\n"), keys)]


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
