"""Symmetric chain machinery for the bounded partition lattices.

A chain is a tuple of composition keys listed top-down; it is symmetric in a
poset of height ``h`` when it is saturated and its endpoint ranks add up to
``h``.  A decomposition partitions the whole poset into symmetric chains.
This module provides the universal verifier, the alternating construction
for two part sizes, the recursive construction for three part sizes, and a
small backtracking search used as an oracle on small posets.

Decomposition file format, one file per decomposition::

    scd L'(4,3) chains=5
    <key> <key> ...               (one line per chain, top-down)

Chains are canonically ordered by (bottom rank, bottom key); a file must
list them in that order, so files written here parse back bit-exactly and a
file that parses is the writer's text up to line ends and runs of blanks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from .partitions import (
    Shape,
    WeakComposition,
    conjugate,
    format_composition,
    from_multiplicity,
    parse_composition,
    parse_natural,
    to_multiplicity,
    weighted_sum,
)
from .poset import GradedPoset, ParseError, _parse_label, _require_within_limit, rank_profile

Chain = tuple[WeakComposition, ...]


class ChainDecomposition:
    """A set of chains over one lattice, canonically ordered.

    Chains are sorted by (bottom rank, bottom key, whole chain); the class
    does not check validity, that is the verifier's job.
    """

    __slots__ = ("shape", "chains")

    def __init__(self, shape: Shape, chains):
        self.shape = Shape(*shape)
        normalized = []
        for chain in chains:
            chain = tuple(map(tuple, chain))
            if not chain:
                raise ValueError("chains must contain at least one element")
            normalized.append(chain)
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


@dataclass(frozen=True)
class ScdReport:
    """Verification outcome: defect lists plus the chain-start profile."""

    shape: Shape
    height: int
    poset_size: int
    chain_count: int
    missing: tuple
    duplicated: tuple
    unknown: tuple
    unsaturated: tuple[int, ...]
    asymmetric: tuple[int, ...]
    start_profile: dict[int, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not (
            self.missing
            or self.duplicated
            or self.unknown
            or self.unsaturated
            or self.asymmetric
        )

    def lines(self) -> list[str]:
        out = [
            f"decomposition: {self.chain_count} chains",
            f"poset: {self.poset_size} elements, height {self.height}",
            "chain starts: "
            + (
                " ".join(f"{s}:{c}" for s, c in sorted(self.start_profile.items()))
                or "(none)"
            ),
        ]
        for name, items in (
            ("missing elements", self.missing),
            ("duplicated elements", self.duplicated),
            ("unknown elements", self.unknown),
            ("unsaturated chains", self.unsaturated),
            ("non-symmetric chains", self.asymmetric),
        ):
            out.append(f"{name}: {len(items)}")
            for item in items:
                shown = format_composition(item) if isinstance(item, tuple) else item
                out.append(f"  {shown}")
        out.append("verdict: " + ("PASS" if self.passed else "FAIL"))
        return out


def verify_scd(d: ChainDecomposition, p: GradedPoset) -> ScdReport:
    """Check ``d`` against the definition of a symmetric chain decomposition.

    Defects are report content, never exceptions: missing and doubly covered
    elements, keys absent from the poset, chains that are not saturated (a
    chain with an absent key counts as one), and chains whose endpoint ranks
    do not add up to the height.  The report also counts how many chains
    start (bottom out) at each rank.  Differing shapes raise ``ValueError``.
    """
    if d.shape != p.shape:
        raise ValueError(f"shape mismatch: poset {p.label()} vs decomposition "
                         f"L'({d.shape.m},{d.shape.n})")
    seen: Counter = Counter()
    unknown: list = []
    unsaturated: list[int] = []
    asymmetric: list[int] = []
    profile: Counter = Counter()
    for ci, chain in enumerate(d.chains):
        seen.update(chain)
        absent = [key for key in chain if key not in p]
        if absent:
            unknown.extend(absent)
            unsaturated.append(ci)
            continue
        if not all(map(p.is_cover, chain[1:], chain)):
            unsaturated.append(ci)
        bottom = p.rank_of(chain[-1])
        if p.rank_of(chain[0]) + bottom != p.height:
            asymmetric.append(ci)
        profile[bottom] += 1
    missing = tuple(sorted(key for key in p.elements if key not in seen))
    duplicated = tuple(sorted(k for k, v in seen.items() if v > 1))
    return ScdReport(
        shape=d.shape,
        height=p.height,
        poset_size=len(p),
        chain_count=len(d.chains),
        missing=missing,
        duplicated=duplicated,
        unknown=tuple(unknown),
        unsaturated=tuple(unsaturated),
        asymmetric=tuple(asymmetric),
        start_profile=dict(sorted(profile.items())),
    )


# ---------------------------------------------------------------------------
# constructions


def scd_n2(m: int) -> ChainDecomposition:
    """Alternating decomposition of the lattice with two part sizes.

    Chain ``i`` starts at ``(m - 2i, 2i, 0)`` and alternates the two root
    steps, largest-part step first, for ``2(m - 2i)`` covers.  The middle
    slot stays at ``2i`` or ``2i + 1`` along chain ``i``, so the chains
    partition the triangle.  Even ``m`` leaves a singleton chain; odd ``m``
    bottoms out with a chain of length 2.  Over ``ELEMENT_LIMIT`` elements
    raise ``ValueError`` before any work.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    _require_within_limit(m, 2)
    chains = []
    for i in range(m // 2 + 1):
        a, b, c = m - 2 * i, 2 * i, 0
        chain = [(a, b, c)]
        while a > 0:
            a -= 1
            chain.append((a, b + 1, c))
            chain.append((a, b, c + 1))
            c += 1
        chains.append(tuple(chain))
    return ChainDecomposition(Shape(m, 2), chains)


def _odd_shell(m: int, s: int) -> list[Chain]:
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


def _even_shell(m: int, s: int) -> list[Chain]:
    """Chains covering the outer two layers of the simplex for even ``m`` >= 4,
    written at offset ``s`` as in :func:`_odd_shell`.

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


def _two_column_seed(s: int) -> list[Chain]:
    """Decomposition of the (2, 3) lattice obtained by conjugating the
    alternating decomposition of the (3, 2) box, written at offset ``s``."""
    out = []
    for chain in scd_n2(3).chains:
        mapped = []
        for key in chain:
            part = from_multiplicity(key, Shape(3, 2))
            a, b, c, d = to_multiplicity(conjugate(part), Shape(2, 3))
            mapped.append((a + s, b, c, d + s))
        out.append(tuple(mapped))
    return out


def lindstrom(m: int) -> ChainDecomposition:
    """Recursive symmetric chain decomposition of the three-size lattice, ``m >= 1``.

    Odd ``m``: the decomposition for ``m - 2`` re-embeds by adding one to the
    first and last entry of every key (ranks shift by 3, the height by 6, so
    symmetry is preserved), and the two outer faces are filled by
    :func:`_odd_shell`.  The base ``m = 1`` is the single four-element chain.

    Even ``m``: the decomposition for ``m - 4`` re-embeds by adding two to the
    first and last entry of every key (rank shift 6), and the outer two
    layers are filled by :func:`_even_shell`.  Base cases: ``m = 2`` is the
    conjugated two-column decomposition, and the embedded core of ``m = 4``
    is the single middle node ``(2, 0, 0, 2)``.

    Unrolled, shell ``k`` sits at offset ``(m - k) / 2``, the ``m = 4`` core
    at ``(m - 4) / 2`` and the two-column seed at ``(m - 2) / 2``, so each
    chain is written once, in its final position.  Through the multiplicity
    bijection the result also decomposes the partition form of the lattice,
    and by conjugation its transpose.  Over ``ELEMENT_LIMIT`` elements raise
    ``ValueError`` before any work.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    _require_within_limit(m, 3)
    if m % 2:
        chains = [ch for k in range(1, m + 1, 2) for ch in _odd_shell(k, (m - k) // 2)]
    else:
        if m % 4 == 0:
            chains = [((m // 2, 0, 0, m // 2),)]
            start = 4
        else:
            chains = _two_column_seed((m - 2) // 2)
            start = 6
        for k in range(start, m + 1, 4):
            chains.extend(_even_shell(k, (m - k) // 2))
    return ChainDecomposition(Shape(m, 3), chains)


# ---------------------------------------------------------------------------
# brute-force oracle


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the backtracking search.

    ``status`` is ``"found"``, ``"not-found"`` (proven), or
    ``"budget-exhausted"`` (gave up after the assignment budget).
    """

    status: str
    decomposition: ChainDecomposition | None
    assignments: int


def brute_force_scd(p: GradedPoset, budget: int = 100_000_000) -> SearchResult:
    """Backtracking search for a symmetric chain decomposition of ``p``.

    The highest-ranked unassigned element must top a chain descending to the
    mirror rank; candidate paths are explored in canonical element order, so
    the result is deterministic.  Branches are pruned with the forced count
    of chain tops per level (the consecutive differences of the rank
    numbers).  An asymmetric or non-unimodal rank profile is proof that no
    decomposition exists.  Each attempted placement consumes one unit of
    ``budget``; running out is reported distinctly from proven absence.  The
    search keeps its own stack, so no shape reaches the recursion limit.
    """
    n_el = len(p)
    if n_el == 0:
        return SearchResult("found", ChainDecomposition(p.shape, ()), 0)
    ht = p.height
    counts = rank_profile(p)
    if any(counts[r] != counts[ht - r] for r in range(ht + 1)):
        return SearchResult("not-found", None, 0)
    if any(counts[r] > counts[r + 1] for r in range(ht // 2)):
        return SearchResult("not-found", None, 0)

    tops_quota = {}
    for t in range((ht + 1) // 2, ht + 1):
        quota = counts[t] - (counts[t + 1] if t < ht else 0)
        if quota:
            tops_quota[t] = quota

    down: list[list[int]] = [[] for _ in range(n_el)]
    for lo, hi, _ in p.covers:
        down[hi].append(lo)
    for targets in down:
        targets.sort()

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


# ---------------------------------------------------------------------------
# file format


def serialize_decomposition(d: ChainDecomposition) -> str:
    """Render ``d`` in the decomposition file format."""
    lines = [f"scd L'({d.shape.m},{d.shape.n}) chains={len(d.chains)}"]
    lines += [" ".join(map(format_composition, chain)) for chain in d.chains]
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str) -> ChainDecomposition:
    """Parse a decomposition file; semantic checks are left to the verifier.

    The chains must come in canonical order, so a text that parses is
    :func:`serialize_decomposition` of the result up to line ends and runs
    of blanks.
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
    chains = []
    for offset, line in enumerate(lines[1:]):
        line_no = offset + 2
        if not line.strip():
            raise ParseError(line_no, "empty chain line")
        try:
            chains.append(tuple(parse_composition(tok) for tok in line.split()))
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
