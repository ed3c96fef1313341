import sys
from collections import Counter
from pathlib import Path

from typing import Iterator

from hypothesis import strategies as st

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from younglat.partitions import (  # noqa: E402  (needs SRC on the path)
    Partition,
    Shape,
    WeakComposition,
    _require_fits,
    as_partition,
    padded,
    require_composition,
)
from younglat.poset import RankPolynomial  # noqa: E402


def cover_pairs_by_scan(elements, le):
    """Quadratic-scan cover oracle: b covers a iff a < b with nothing between.

    Deliberately independent of the constructive cover generation; only
    usable on small posets.
    """
    pairs = []
    strictly_less = {
        (a, b) for a in elements for b in elements if a != b and le(a, b)
    }
    for a, b in strictly_less:
        if not any(
            (a, c) in strictly_less and (c, b) in strictly_less for c in elements
        ):
            pairs.append((a, b))
    return sorted(pairs)


def chain_lengths(d):
    """Multiset of the chain lengths of decomposition ``d``, in covering steps."""
    return Counter(len(chain) - 1 for chain in d.chains)


def mutated_text(text, data):
    """``text`` edited one to three times at positions drawn from the
    hypothesis ``data`` object: characters inserted, characters cut, or one
    character set to a digit, which keeps most lines parseable."""
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        edit = data.draw(st.sampled_from(["insert", "cut", "digit"]))
        if edit == "insert":
            text = text[:at] + data.draw(st.text(min_size=1, max_size=3)) + text[at:]
        elif edit == "cut":
            text = text[:at] + text[at + data.draw(st.integers(1, 3)):]
        else:
            text = text[:at] + str(data.draw(st.integers(0, 9))) + text[at + 1:]
    return text


# Reference implementations that the library no longer needs: partition-side
# cover generation and enumeration, composition cover generation, and the
# q-factorial.  The tests compare the library's answers against these.


def lower_covers(b: Partition, shape: Shape) -> list[tuple[Partition, int]]:
    """Partitions covered by ``b``, each with the root color of its edge.

    Shrinking a part of size ``x`` to ``x - 1`` moves one unit of
    multiplicity between adjacent sizes, the simple-root step with index
    ``n + 1 - x``.  Only the last part of a run of equal values may shrink,
    which keeps the results distinct.
    """
    _require_fits(b, shape)
    p = padded(b, shape.m)
    out = []
    for i in range(shape.m):
        if p[i] >= 1 and (i + 1 == shape.m or p[i + 1] < p[i]):
            smaller = p[:i] + (p[i] - 1,) + p[i + 1 :]
            out.append((as_partition(smaller), shape.n + 1 - p[i]))
    return out


def composition_lower_covers(
    c: WeakComposition, shape: Shape
) -> list[tuple[WeakComposition, int]]:
    """Compositions covered by ``c``: move one unit right by one slot.

    Moving from slot ``j`` to ``j + 1`` (1-based) is the simple-root step
    ``j``, which is also the edge color.
    """
    require_composition(c, shape)
    out = []
    for j in range(shape.n):
        if c[j] >= 1:
            out.append((c[:j] + (c[j] - 1, c[j + 1] + 1) + c[j + 2 :], j + 1))
    return out


def partitions_in_box(m: int, n: int) -> Iterator[Partition]:
    """Every partition with at most ``m`` parts, each at most ``n``.

    The empty partition is always included, so a degenerate box still yields
    one element.
    """
    if m < 0 or n < 0:
        raise ValueError("box dimensions must be nonnegative")
    # preorder: a partition, then its extensions by one part, largest first
    prefix: list[int] = []
    while True:
        yield tuple(prefix)
        if len(prefix) < m and n:
            prefix.append(prefix[-1] if prefix else n)
            continue
        while prefix and prefix[-1] == 1:
            prefix.pop()
        if not prefix:
            return
        prefix[-1] -= 1


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def q_factorial(k: int) -> RankPolynomial:
    """Product of ``1 + q + ... + q^(i-1)`` over ``i = 1..k``, exactly."""
    if k < 0:
        raise ValueError("q-factorial needs a nonnegative argument")
    poly = [1]
    for i in range(2, k + 1):
        poly = _poly_mul(poly, [1] * i)
    return RankPolynomial(tuple(poly))
