"""Simple-root structure behind the edge coloring of the multiplicity lattice.

Compositions with ``n + 1`` slots admit ``n`` simple roots; root ``j`` is the
vector ``e_j - e_{j+1}``, and stepping down a cover edge subtracts exactly
one such root (one unit of multiplicity moves one slot to the right).  The
root index is therefore a canonical color for every Hasse edge.  The maximal
runs in a fixed root direction, the weight strings, are saturated chains and
partition the lattice for each root.
"""

from __future__ import annotations

from operator import sub

from .partitions import (Shape, WeakComposition, _ints_at_least, _require_entries,
                         require_composition)


class NotACoverError(ValueError):
    """The given pair of compositions is not a cover edge."""


def edge_color(lower: WeakComposition, upper: WeakComposition) -> int:
    """Root index of the cover step from ``upper`` down to ``lower``, keys of
    ints >= 0 (else ``ValueError``): for three part sizes 1 shrinks a largest
    part, 2 shrinks a middle part, 3 removes a smallest part.
    """
    if not _ints_at_least((*lower, *upper), 0):
        raise ValueError("keys must be tuples of ints >= 0")
    if len(lower) != len(upper):
        raise NotACoverError(f"slot counts differ: {upper} vs {lower}")
    # upper - lower must be e_j - e_(j+1): a 1, a -1 right after it, zeros elsewhere
    delta = tuple(map(sub, upper, lower))
    if delta.count(0) == len(delta) - 2 and 1 in delta:
        j = delta.index(1)
        if delta[j + 1 : j + 2] == (-1,):
            return j + 1
    raise NotACoverError(f"{upper} does not cover {lower}")


def weight_string(gamma: WeakComposition, j: int, shape: Shape) -> tuple[WeakComposition, ...]:
    """Maximal run ``gamma + k * (e_j - e_(j+1))`` inside the simplex, highest
    rank first.

    The run is always a saturated chain of the lattice and contains
    ``gamma``; its edges all carry color ``j``.  A ``j`` that is not an int
    in ``1..n``, or a run of over ``KEY_ENTRY_LIMIT`` entries, raises
    ``ValueError``.
    """
    require_composition(gamma, shape)
    if not _ints_at_least((j,), 1) or j >= len(gamma):
        raise ValueError(f"root index must be an int in 1..{len(gamma) - 1}, got {j!r}")
    room_up = gamma[j]        # units that can move left into slot j
    room_down = gamma[j - 1]  # units that can move right out of slot j
    _require_entries((room_up + room_down + 1) * len(gamma))
    out = []
    for k in range(room_up, -room_down - 1, -1):
        entry = list(gamma)
        entry[j - 1] += k
        entry[j] -= k
        out.append(tuple(entry))
    return tuple(out)


_PALETTE = (
    "green", "red", "blue", "orange", "purple", "magenta",
    "cyan", "brown", "olive", "teal", "navy", "maroon",
)


def root_color(j: int) -> str:
    """Display color of root ``j >= 1``: green/red/blue first, a fixed
    extended palette after, hex beyond; distinct for distinct roots.  A ``j``
    that is not an int >= 1 raises ``ValueError``."""
    if not _ints_at_least((j,), 1):
        raise ValueError(f"root index must be an int >= 1, got {j!r}")
    return _PALETTE[j - 1] if j <= len(_PALETTE) else f"#{j:06x}"
