"""Simple-root structure behind the edge coloring of the multiplicity lattice.

Compositions with ``n + 1`` slots admit ``n`` simple roots; root ``j`` is the
vector ``e_j - e_{j+1}``, and stepping down a cover edge subtracts exactly
one such root (one unit of multiplicity moves one slot to the right).  The
root index is therefore a canonical color for every Hasse edge.  The maximal
runs in a fixed root direction, the weight strings, are saturated chains and
partition the lattice for each root.
"""

from __future__ import annotations

from .partitions import Shape, WeakComposition, require_composition


class NotACoverError(ValueError):
    """The given pair of compositions is not a cover edge."""


def edge_color(lower: WeakComposition, upper: WeakComposition) -> int:
    """Root index of the cover step from ``upper`` down to ``lower``.

    For three part sizes this reads: 1 shrinks a largest part, 2 shrinks a
    middle part, 3 removes a smallest part.
    """
    if len(lower) != len(upper):
        raise NotACoverError(f"slot counts differ: {upper} vs {lower}")
    for j, (u, l) in enumerate(zip(upper, lower)):
        if u != l:
            # the first difference gains a unit, the next slot loses it, the rest agree
            if (u - l == 1 and j + 1 < len(upper)
                    and lower[j + 1] - upper[j + 1] == 1
                    and upper[j + 2 :] == lower[j + 2 :]):
                return j + 1
            break
    raise NotACoverError(f"{upper} does not cover {lower}")


def weight_string(gamma: WeakComposition, j: int, shape: Shape) -> tuple[WeakComposition, ...]:
    """Maximal run ``gamma + k * (e_j - e_(j+1))`` inside the simplex, highest
    rank first.

    The run is always a saturated chain of the lattice and contains
    ``gamma``; its edges all carry color ``j``.
    """
    require_composition(gamma, shape)
    if not 1 <= j <= shape.n:
        raise ValueError(f"root index {j} out of range 1..{shape.n}")
    room_up = gamma[j]        # units that can move left into slot j
    room_down = gamma[j - 1]  # units that can move right out of slot j
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
    extended palette after, hex beyond; distinct for distinct roots."""
    return _PALETTE[j - 1] if j <= len(_PALETTE) else f"#{j:06x}"
