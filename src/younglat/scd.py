"""Symmetric chain machinery for the bounded partition lattices.

A chain is a tuple of composition keys listed top-down; it is symmetric in a
poset of height ``h`` when it is saturated and its endpoint ranks add up to
``h``.  A decomposition partitions the whole poset into symmetric chains.
This module provides the universal verifier, the alternating construction
for two part sizes, the recursive construction for three part sizes, and a
small backtracking search used as an oracle on small posets.  Every chain
of the two constructions is a zigzag down one face of the simplex (the
whole chain for two part sizes); for three part sizes one rule, ``_chain``,
cuts it short by at most two keys and goes on through an optional
one-element detour into the next layer and a sweep down the other face.

Decomposition file format, one file per decomposition::

    scd L'(4,3) chains=5
    <key> <key> ...               (one line per chain, top-down)

Chains are canonically ordered by (bottom rank, bottom key); a file must
list them in that order, so files written here parse back bit-exactly and a
file that parses is the writer's text up to line ends and runs of blanks.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress, islice
from operator import sub
from typing import Iterator, NamedTuple

from .partitions import (
    Shape,
    WeakComposition,
    _checked_shape,
    _ints_at_least,
    format_compositions,
    parse_composition,
    parse_natural,
    weighted_sum,
)
from .poset import (ELEMENT_LIMIT, GradedPoset, ParseError, _lattice_label, _parse_label,
                    _positions, _require_within_limit, rank_profile)

Chain = tuple[WeakComposition, ...]

DEFAULT_BUDGET = 100_000_000  # assignments brute_force_scd may spend, unless told otherwise


class ChainDecomposition:
    """A set of chains over one lattice, canonically ordered.

    Chains are sorted by (bottom rank, bottom key, whole chain).  The one
    door for keys: ``ValueError`` unless ``shape`` is two ints >= 0 and each
    chain and key is nonempty, of ints in ``0..ELEMENT_LIMIT``, a bound no
    entry of a lattice ``build_lattice`` makes exceeds.  A key of the wrong
    length or sum is accepted, for the verifier to report.
    """

    __slots__ = ("shape", "chains")

    def __init__(self, shape: Shape, chains):
        self.shape = _checked_shape(shape)
        try:
            normalized = [tuple(map(tuple, ch)) for ch in chains]
        except TypeError as exc:
            raise ValueError(f"chains must be iterables of keys: {exc}") from None
        keys = [*chain.from_iterable(normalized)]
        entries = [*chain.from_iterable(keys)]
        if not (all(normalized) and all(keys) and _ints_at_least(entries, 0)):
            raise ValueError("chains must be nonempty, of nonempty keys of ints >= 0")
        if max(entries, default=0) > ELEMENT_LIMIT:
            raise ValueError(f"key entries must be at most ELEMENT_LIMIT = {ELEMENT_LIMIT:,}")
        normalized.sort(key=lambda ch: (weighted_sum(ch[-1]), ch[-1], ch))
        self.chains = tuple(normalized)

    def __len__(self) -> int:
        return len(self.chains)

    def __iter__(self):
        return iter(self.chains)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainDecomposition):
            return NotImplemented
        return (self.shape, self.chains) == (other.shape, other.chains)


class ScdReport(NamedTuple):
    """Verification outcome, a named tuple: the lattice's size, the defect
    lists and the chain-start profile."""

    shape: Shape
    height: int
    poset_size: int
    chain_count: int
    missing: tuple
    duplicated: tuple
    unknown: tuple
    unsaturated: tuple[int, ...]
    asymmetric: tuple[int, ...]
    start_profile: dict[int, int]

    @property
    def passed(self) -> bool:
        return not any((self.missing, self.duplicated, self.unknown, self.unsaturated,
                        self.asymmetric))

    def lines(self) -> list[str]:
        starts = " ".join(f"{s}:{c}" for s, c in sorted(self.start_profile.items()))
        out = [f"decomposition: {self.chain_count} chains",
               f"poset: {self.poset_size} elements, height {self.height}",
               f"chain starts: {starts or '(none)'}"]
        for name, items in (
            ("missing elements", format_compositions(self.missing)),
            ("duplicated elements", format_compositions(self.duplicated)),
            ("unknown elements", format_compositions(self.unknown)),
            ("unsaturated chains", self.unsaturated),
            ("non-symmetric chains", self.asymmetric),
        ):
            out.append(f"{name}: {len(items)}")
            out += [f"  {item}" for item in items]
        out.append("verdict: " + ("PASS" if self.passed else "FAIL"))
        return out


def _require_same_shape(d: ChainDecomposition, p: GradedPoset) -> None:
    """Raise ``ValueError`` unless ``d`` decomposes a lattice of ``p``'s shape."""
    if d.shape != p.shape:
        raise ValueError(f"shape mismatch: poset {p.label()} vs decomposition "
                         + _lattice_label(d.shape, "composition"))


def verify_scd(d: ChainDecomposition, p: GradedPoset) -> ScdReport:
    """Check ``d`` against the definition of a symmetric chain decomposition.

    Defects are report content, never exceptions: missing and doubly covered
    elements, keys absent from the poset, chains that are not saturated (a
    chain with an absent key counts as one), and chains whose endpoint ranks
    do not add up to the height.  The report also counts how many chains
    start (bottom out) at each rank.  Differing shapes raise ``ValueError``.
    Each key is looked up in the poset's key index once, and the checks then
    work on element indices; only unknown keys are counted by key.  A chain
    of known keys is saturated, every step a simple root ``e_j - e_(j+1)``
    (``roots.edge_color``), when its ranks fall by 1 per step and its steps
    sum to ``2 * steps`` in L1 distance: a step one rank down is nonzero
    with zero sum, so at least 2, and 2 only as ``e_a - e_(a+1)``.
    """
    _require_same_shape(d, p)
    uses = [0] * len(p)
    unknown: list = []
    unsaturated: list[int] = []
    asymmetric: list[int] = []
    profile: Counter = Counter()
    for ci, keys in enumerate(d.chains):
        at = _positions(p, keys)
        for key, i in zip(keys, at):
            if i is None:
                unknown.append(key)
            else:
                uses[i] += 1
        if None in at:
            unsaturated.append(ci)
            continue
        ranks = [*map(p.ranks.__getitem__, at)]
        flat = [*chain.from_iterable(keys)]  # a step pairs entry i with entry i + n + 1
        if (ranks != [*range(ranks[0], ranks[-1] - 1, -1)]
                or sum(map(abs, map(sub, flat, flat[p.shape.n + 1:]))) != 2 * len(keys) - 2):
            unsaturated.append(ci)
        if ranks[0] + ranks[-1] != p.height:
            asymmetric.append(ci)
        profile[ranks[-1]] += 1
    duplicated = [key for key, v in Counter(unknown).items() if v > 1]
    duplicated += compress(p.elements, [v > 1 for v in uses])
    return ScdReport(
        shape=d.shape,
        height=p.height,
        poset_size=len(p),
        chain_count=len(d.chains),
        missing=tuple(sorted(compress(p.elements, [not v for v in uses]))),
        duplicated=tuple(sorted(duplicated)),
        unknown=tuple(unknown),
        unsaturated=tuple(unsaturated),
        asymmetric=tuple(asymmetric),
        start_profile=dict(sorted(profile.items())),
    )


# ---------------------------------------------------------------------------
# constructions


def _zigzag(a: int, b: int) -> list[tuple[int, int, int]]:
    """The alternating chain from ``(a, b, 0)`` down to ``(0, b, a)``.

    Each unit leaves the first slot through the middle one, largest-part
    step first, so the middle slot stays at ``b`` or ``b + 1``: the
    ``L(m, 2)`` picture on one face of the simplex.
    """
    chain = [(a, b, 0)]
    for c in range(a):
        chain += ((a - 1 - c, b + 1, c), (a - 1 - c, b, c + 1))
    return chain


def scd_n2(m: int) -> ChainDecomposition:
    """Alternating decomposition of the lattice with two part sizes.

    Chain ``i`` is :func:`_zigzag` from ``(m - 2i, 2i, 0)``: it alternates
    the two root steps, largest-part step first, for ``2(m - 2i)`` covers.
    The middle slot stays at ``2i`` or ``2i + 1`` along chain ``i``, so the
    chains partition the triangle.  Even ``m`` leaves a singleton chain; odd
    ``m`` bottoms out with a chain of length 2.  A non-int ``m``, ``m < 1``
    or over ``ELEMENT_LIMIT`` elements raise ``ValueError`` before any work.
    """
    _checked_shape((m, 2), 1)
    _require_within_limit(m, 2)
    chains = [_zigzag(m - 2 * i, 2 * i) for i in range(m // 2 + 1)]
    return ChainDecomposition(Shape(m, 2), chains)


def _chain(k: int, i: int, s: int, cut: int, detour: Chain = ()) -> Chain:
    """Chain ``i`` of the shell of ``k`` at offset ``s``, by the one rule of
    every Lindström chain: the :func:`_zigzag` from ``(k - 2i, 2i, 0)`` on the
    last-slot-zero face of layer ``s`` less its last ``cut`` keys, ``detour``,
    and a sweep of one key per rank down to rank ``2i`` (from the layer's
    bottom ``3s``) on the first-slot-zero face.  With ``e = cut - len(detour)``
    it starts at rank ``k - 1 + 2i + e``, one below the head, and its second
    slot climbs from ``i`` one every two ranks above rank ``k - 1 - e``."""
    face = _zigzag(k - 2 * i, 2 * i)
    chain = [(a + s, b, c, s) for a, b, c in face[:len(face) - cut]] + [*detour]
    e = cut - len(detour)
    for r in range(k - 1 + 2 * i + e, 2 * i - 1, -1):
        b = i + max(0, (r - k + 1 + e) // 2)
        chain.append((s, b, r - 2 * b, k - r + b + s))
    return tuple(chain)


def _odd_shell(m: int, s: int) -> list[Chain]:
    """Chains covering the two outer faces of the simplex for odd ``m``, at
    offset ``s`` (``s`` added to the first and last entry of every key, which
    moves the chains ``s`` layers into a larger simplex, their endpoint ranks
    up by ``3s`` and the height to ``3m + 6s``).  Chain ``i`` is the whole
    zigzag from ``(m - 2i, 2i, 0, 0)`` and its sweep, from rank ``3m - 2i``
    down to ``2i``; together they cover the keys with a first or last 0."""
    return [_chain(m, i, s, 0) for i in range((m + 1) // 2)]


def _even_shell(m: int, s: int) -> list[Chain]:
    """Chains covering the outer two layers of the simplex for even ``m``,
    at offset ``s`` as in :func:`_odd_shell`: ``(s, 0, 0, s)`` for ``m = 0``,
    ``_TWO_COLUMN`` for ``m = 2``.  From ``m = 4`` on, one chain runs the
    edge shared by the outer faces; outer chains stop their zigzag two keys
    short of it and detour through one inner-layer element, and inner chains
    stop one short of the inner edge, whose even positions the detours took.
    Odd or negative ``m`` raises ``ValueError``."""
    if m < 0 or m % 2:
        raise ValueError(f"even shell needs even m >= 0, got {m}")
    if m == 2:
        return [tuple((a + s, b, c, d + s) for a, b, c, d in chain) for chain in _TWO_COLUMN]
    return [tuple((s, m - k, k, s) for k in range(m + 1)),
            *(_chain(m, i, s, 2, ((1 + s, 2 * i, m - 2 - 2 * i, 1 + s),))
              for i in range(m // 2)),
            *(_chain(m - 2, j, s + 1, 1) for j in range(m // 2 - 1))]


# the two chains of the (2, 3) lattice: the conjugated alternating chains of the (3, 2) box
_TWO_COLUMN = (
    ((2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0),
     (0, 0, 1, 1), (0, 0, 0, 2)),
    ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1)),
)


def lindstrom(m: int) -> ChainDecomposition:
    """Recursive symmetric chain decomposition of the three-size lattice, ``m >= 1``.

    One rule for both parities: the decomposition for ``m - step`` re-embeds
    by adding ``step / 2`` to the first and last entry of every key (ranks
    shift by ``3 * step / 2``, the height by ``3 * step``, so symmetry is
    preserved), and the outer ``step / 2`` layers are filled by the shell of
    ``m``: :func:`_odd_shell` with step 2 for odd ``m``, :func:`_even_shell`
    with step 4 for even ``m``.  The recursion bottoms out at ``m % step``,
    itself a shell: the four-element chain of ``m = 1``, the two-column
    decomposition of ``m = 2``, or the single node of ``m = 0``.

    Unrolled, shell ``k`` sits at offset ``(m - k) / 2`` for ``k`` from
    ``m % step`` up to ``m`` in steps of ``step``, so each chain is written
    once, in its final position.  Through the multiplicity bijection the
    result also decomposes the partition form of the lattice, and by
    conjugation its transpose.  A non-int ``m``, ``m < 1`` or over
    ``ELEMENT_LIMIT`` elements raise ``ValueError`` before any work.
    """
    _checked_shape((m, 3), 1)
    _require_within_limit(m, 3)
    shell, step = (_odd_shell, 2) if m % 2 else (_even_shell, 4)
    chains = [ch for k in range(m % step, m + 1, step) for ch in shell(k, (m - k) // 2)]
    return ChainDecomposition(Shape(m, 3), chains)


# ---------------------------------------------------------------------------
# brute-force oracle


class SearchResult(NamedTuple):
    """Outcome of the backtracking search, a named tuple.

    ``status`` is ``"found"``, ``"not-found"`` (proven), or
    ``"budget-exhausted"`` (gave up after the assignment budget).
    ``assignments`` counts every placement of the depth-first order,
    including those of a dead descent, which the search counts without
    making; an exhausted search reports ``budget + 1``.
    """

    status: str
    decomposition: ChainDecomposition | None
    assignments: int


def _dead_walk(x: int, stop: int, limit: int, down: list[list[int]], ranks,
               unassigned: list[bool], dead: dict[int, int]) -> int:
    """The placements the depth-first order makes from ``x`` on, its own
    included, when no path of free elements leads from ``x`` down to rank
    ``stop``; 0 when one does.

    Every element the walk settles gets its answer in ``dead``, which stays
    valid while the free elements below ``x`` do.  A count that passes
    ``limit`` is returned as it stands, since the search stops there.
    """
    walked = 1
    stack = [(x, iter(down[x]), 0)]  # element, its untried lower covers, walked before it
    while stack:
        y, below, before = stack[-1]
        for d in below:
            if unassigned[d]:
                cost = 0 if ranks[d] == stop else dead.get(d)
                if cost is None:
                    stack.append((d, iter(down[d]), walked))
                    walked += 1
                    break
                if not cost:
                    for y, _, _ in stack:
                        dead[y] = 0
                    return 0
                walked += cost
        else:
            dead[y] = walked - before
            stack.pop()
        if walked > limit:
            return walked
    return walked


def brute_force_scd(p: GradedPoset, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Backtracking search for a symmetric chain decomposition of ``p``.

    The highest-ranked unassigned element must top a chain descending to the
    mirror rank; candidate paths are explored in canonical element order, so
    the result is deterministic.  Branches are pruned with the forced count
    of chain tops per level (the consecutive differences of the rank
    numbers).  Each placement of that depth-first order consumes one unit of
    ``budget``, including the placements of a dead descent, an element from
    which no path of free elements reaches the chain's mirror rank: the
    search counts those without making them.  Running out is reported
    distinctly from proven absence.  The search keeps its own stacks, so no
    shape reaches the recursion limit.  A ``budget`` that is not an int >= 0
    raises ``ValueError`` before any work.
    """
    if not _ints_at_least((budget,), 0):
        raise ValueError(f"budget must be an int >= 0, got {budget!r}")
    n_el = len(p)
    ht = p.height
    counts = rank_profile(p)

    tops_quota = [0] * (ht + 1)
    for t in range((ht + 1) // 2, ht + 1):
        tops_quota[t] = counts[t] - (counts[t + 1] if t < ht else 0)

    down: list[list[int]] = [[] for _ in range(n_el)]
    for lo, hi, _ in p.covers:  # in lower-index order, so each list is ascending
        down[hi].append(lo)

    ranks = p.ranks
    unassigned = [True] * n_el
    # one entry per placed element, chains concatenated top-down: the element
    # and the iterator over the alternatives still untried in its position
    placed: list[tuple[int, Iterator[int]]] = []
    # one entry per chain: where it starts in ``placed``, its mirror rank
    # (where it ends), and _dead_walk's answers within it
    tops: list[tuple[int, int, dict[int, int]]] = []
    stop, dead = -1, {}
    spent = 0
    while True:
        starting = not placed or ranks[placed[-1][0]] == stop
        if starting:
            # the highest unassigned element tops the next chain; every
            # element above the previous top is assigned already
            top = (placed[tops[-1][0]][0] if tops else n_el) - 1
            while top >= 0 and not unassigned[top]:
                top -= 1
            if top < 0:
                break
            stop, dead = ht - ranks[top], {}
            options = iter((top,) if tops_quota[ranks[top]] else ())
        else:
            options = iter(down[placed[-1][0]])
        # take the first unassigned option that is no dead descent, charging
        # each dead one its walk; backtrack while there is none
        while True:
            for child in options:
                if unassigned[child]:
                    if ranks[child] == stop:
                        break
                    cost = dead.get(child)
                    if cost is None:
                        cost = _dead_walk(child, stop, budget - spent, down, ranks,
                                          unassigned, dead)
                    if not cost:
                        break
                    spent += cost
                    if spent > budget:
                        return SearchResult("budget-exhausted", None, budget + 1)
            else:
                if not placed:
                    return SearchResult("not-found", None, spent)
                undone, options = placed.pop()
                unassigned[undone] = True
                if tops[-1][0] == len(placed):
                    tops.pop()
                    tops_quota[ranks[undone]] += 1
                if tops:
                    _, stop, dead = tops[-1]
                starting = False
                continue
            break
        spent += 1
        if spent > budget:
            return SearchResult("budget-exhausted", None, spent)
        unassigned[child] = False
        if starting:
            tops.append((len(placed), stop, dead))
            tops_quota[ranks[child]] -= 1
        placed.append((child, options))
    bounds = [start for start, _, _ in tops] + [len(placed)]
    chains = [tuple(p.elements[i] for i, _ in placed[lo:hi])
              for lo, hi in zip(bounds, bounds[1:])]
    return SearchResult("found", ChainDecomposition(p.shape, chains), spent)


# ---------------------------------------------------------------------------
# file format


def serialize_decomposition(d: ChainDecomposition) -> str:
    """Render ``d`` in the decomposition file format, every key by one
    :func:`format_compositions` call; the constructor admits only keys the
    reader gives back, and no entry too long to write in decimal."""
    keys = iter(format_compositions([*chain.from_iterable(d.chains)]))
    lines = [f"scd {_lattice_label(d.shape, 'composition')} chains={len(d.chains)}"]
    lines += [" ".join(islice(keys, len(c))) for c in d.chains]
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str, poset: GradedPoset | None = None) -> ChainDecomposition:
    """Parse a decomposition file; semantic checks are left to the verifier.

    The chains must come in canonical order, so a text that parses is
    :func:`serialize_decomposition` of the result up to line ends and runs
    of blanks.

    With ``poset``, a token equal to one of its :attr:`GradedPoset.key_strings`
    reads as that element, and any other token goes through
    :func:`parse_composition`.  Those strings are ``format_composition`` of
    their keys, and ``parse_composition`` inverts ``format_composition``, so
    the result, and every :class:`ParseError` with its line and message, is
    the same with any poset or none: the poset only saves parsing.
    """
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty decomposition file")
    fields = lines[0].split()
    if len(fields) != 3 or fields[0] != "scd" or not fields[1].startswith("L'("):
        raise ParseError(1, f"bad decomposition header: {lines[0]!r}")
    shape, _ = _parse_label(fields[1])
    key_name, _, value = fields[2].partition("=")
    try:
        if key_name != "chains":
            raise ValueError(key_name)
        declared = parse_natural(value)
    except ValueError:
        raise ParseError(1, f"bad header field: {fields[2]!r}") from None
    known = dict(zip(poset.key_strings, poset.elements)) if poset is not None else {}
    chains = []
    for offset, line in enumerate(lines[1:]):
        line_no = offset + 2
        if not line.strip():
            raise ParseError(line_no, "empty chain line")
        try:
            chains.append(tuple(known.get(tok) or parse_composition(tok) for tok in line.split()))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
    if len(chains) != declared:
        raise ParseError(
            len(lines), f"header declares {declared} chains, found {len(chains)}"
        )
    d = ChainDecomposition(shape, chains)
    for line_no, (chain, canonical) in enumerate(zip(chains, d.chains), 2):
        if chain != canonical:
            raise ParseError(line_no, "chains out of canonical order "
                             "(bottom rank, then bottom key)")
    return d
