"""Simple-root structure behind the edge coloring of the multiplicity lattice.

Compositions with ``n + 1`` slots admit ``n`` simple roots; root ``j`` is the
vector ``e_j - e_{j+1}``, and stepping down a cover edge subtracts exactly
one such root (one unit of multiplicity moves one slot to the right).  The
root index is therefore a canonical color for every Hasse edge.  The maximal
runs in a fixed root direction, the weight strings, are saturated chains and
partition the lattice for each root.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .partitions import Shape, WeakComposition, require_composition


class SimpleRoot(NamedTuple):
    """Root ``index``: the vector ``e_index - e_{index+1}`` in ``n + 1`` slots."""

    index: int
    vector: tuple[int, ...]


class NotACoverError(ValueError):
    """The given pair of compositions is not a cover edge."""


def simple_roots(n: int) -> tuple[SimpleRoot, ...]:
    """The ``n`` simple roots acting on compositions with ``n + 1`` slots."""
    if n < 1:
        raise ValueError(f"need at least one root, got n={n}")
    out = []
    for j in range(1, n + 1):
        vec = [0] * (n + 1)
        vec[j - 1], vec[j] = 1, -1
        out.append(SimpleRoot(j, tuple(vec)))
    return tuple(out)


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


def weight_string(
    gamma: WeakComposition, root: SimpleRoot | int, shape: Shape
) -> tuple[WeakComposition, ...]:
    """Maximal run ``gamma + k * root`` inside the simplex, highest rank first.

    The run is always a saturated chain of the lattice and contains
    ``gamma``; its edges all carry the root's color.
    """
    require_composition(gamma, shape)
    j = root.index if isinstance(root, SimpleRoot) else int(root)
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


class ColorMap:
    """Injective assignment of display colors to root indices."""

    def __init__(self, names: Mapping[int, str]):
        self.names = dict(names)
        if len(set(self.names.values())) != len(self.names):
            raise ValueError("colors must be pairwise distinct")

    @classmethod
    def default(cls, n: int) -> "ColorMap":
        """green/red/blue first, a fixed extended palette after, hex beyond."""
        names = {}
        for j in range(1, n + 1):
            names[j] = _PALETTE[j - 1] if j <= len(_PALETTE) else f"#{j:06x}"
        return cls(names)

    def name(self, index: int) -> str:
        return self.names[index]

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, index: int) -> bool:
        return index in self.names
