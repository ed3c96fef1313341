import sys
import tracemalloc
from collections import Counter
from functools import partial
from itertools import chain, compress, repeat
from operator import itemgetter
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
    enumerate_compositions,
    padded,
    require_composition,
    weighted_sum,
)
from younglat.poset import GradedPoset, RankPolynomial  # noqa: E402
from younglat.roots import NotACoverError, edge_color  # noqa: E402
from younglat.scd import ChainDecomposition, ScdReport, _require_same_shape  # noqa: E402


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


# The key strings as they were before one rule spelt them all, the partition
# strings and the cover test as they were when partition strings had a
# grammar of their own and ``covers`` scanned the padded parts for the one
# that grew, and ``conjugate`` and ``to_multiplicity`` as they were before
# they counted the part sizes once.  The library's answers must equal theirs
# on valid input.


def reference_format_composition(c: WeakComposition) -> str:
    """The key spelling as it was when each key chose its own template: digits
    ("1120"), bracketed ("[10,0,2,0]") when an entry exceeds 9.  A negative
    entry kept the digit form ((-1, 3, 0) read "-130"); the library's
    spelling must equal this one on keys with no negative entry."""
    bracketed = bool(c) and max(c) > 9
    template = "[" + ",".join(["%d"] * len(c)) + "]" if bracketed else "%d" * len(c)
    return template % tuple(c)


def reference_serialize_decomposition(d) -> str:
    """The decomposition file with each key spelt on its own, as
    :func:`reference_format_composition` spells it."""
    lines = [f"scd L'({d.shape.m},{d.shape.n}) chains={len(d.chains)}"]
    lines += [" ".join(map(reference_format_composition, chain)) for chain in d.chains]
    return "\n".join(lines) + "\n"


def reference_format_partition(a: Partition) -> str:
    """Digit-string display ("3211", "∅"), bracketed when a part exceeds 9."""
    if not a:
        return "∅"
    if a[0] <= 9:
        return "".join(map(str, a))
    return "[" + ",".join(map(str, a)) + "]"


def reference_parse_partition(text: str) -> Partition:
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


def reference_conjugate(a: Partition) -> Partition:
    """Column lengths by a scan of the parts for every column."""
    a = as_partition(a)
    return tuple(sum(1 for v in a if v > j) for j in range(a[0])) if a else ()


def reference_to_multiplicity(a: Partition, shape: Shape) -> WeakComposition:
    """One count over the padded parts per part size."""
    return tuple(map(_require_fits(a, shape).count, range(shape.n, -1, -1)))


def reference_covers(b: Partition, a: Partition, shape: Shape) -> bool:
    """True when ``b`` covers ``a``: exactly one part grows by one box."""
    _require_fits(a, shape)
    _require_fits(b, shape)
    pa, pb = padded(a, shape.m), padded(b, shape.m)
    bumped = [i for i in range(shape.m) if pa[i] != pb[i]]
    return len(bumped) == 1 and pb[bumped[0]] == pa[bumped[0]] + 1


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


def reference_gaussian_binomial(m, n):
    """The two-phase loop that gaussian_binomial replaced: all n products by
    (1 - q^(m+i)) first, then all n exact divisions by (1 - q^i)."""
    poly = [1]
    for i in range(1, n + 1):
        k = m + i
        out = poly + [0] * k
        for j, v in enumerate(poly):
            out[j + k] -= v
        poly = out
    for k in range(1, n + 1):
        deg = len(poly) - 1
        assert deg >= k
        quot = [0] * (deg - k + 1)
        for j in range(len(quot)):
            quot[j] = poly[j] + (quot[j - k] if j >= k else 0)
        for j in range(len(quot), deg + 1):
            assert poly[j] == -(quot[j - k] if j - k >= 0 else 0)
        poly = quot
    return poly


def reference_build_lattice(shape, coordinates="partition"):
    """The build that ranks each key by one ``weighted_sum`` call and sorts
    the covers as ``(lower, upper, color)`` tuples; ``build_lattice`` now
    takes the ranks from prefix sums and sorts the covers on the lower index
    alone, and must give the same poset.  Takes a valid ``Shape``."""
    m, n = shape
    if m == 0 or n == 0:
        return GradedPoset(shape, coordinates, (), (), ())
    lex = enumerate_compositions(m, n + 1)
    weights = list(map(weighted_sum, lex))
    comps = tuple(map(lex.__getitem__, sorted(range(len(lex)), key=weights.__getitem__)))
    ranks = tuple(sorted(weights))
    everyone = list(range(len(comps)))
    runs = [zip(compress(everyone, map(itemgetter(j + 1), comps)),
                compress(everyone, map(itemgetter(j), comps)), repeat(j + 1))
            for j in range(n)]
    edges = tuple(sorted(chain.from_iterable(runs)))
    return GradedPoset(shape, coordinates, comps, ranks, edges)


def traced_peak(fn, *args):
    """The most memory ``fn(*args)`` had allocated at once, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The verifier as it was before it worked on element indices: a Counter over
# the keys, ``key in p``, and the per-key rank and per-pair cover lookups that
# GradedPoset had then, kept here as functions.  Its reports are the reference
# for verify_scd's.


def rank_of(p, key):
    return p.ranks[p.index_of(key)]


def is_cover(p, lower_key, upper_key):
    if lower_key not in p or upper_key not in p:
        return False
    try:
        edge_color(lower_key, upper_key)
    except NotACoverError:
        return False
    return True


def reference_verify_scd(d, p):
    _require_same_shape(d, p)
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
        if not all(map(partial(is_cover, p), chain[1:], chain)):
            unsaturated.append(ci)
        bottom = rank_of(p, chain[-1])
        if rank_of(p, chain[0]) + bottom != p.height:
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


CORRUPTIONS = ("shared", "unknown_twice", "other_length", "unknown_singleton",
               "absent_mid_chain", "dropped_mid_chain", "reversed_step", "same_rank_swap")


def _steps_are_covers(keys):
    """Whether every step down ``keys`` is a cover, by ``edge_color``."""
    try:
        for lower, upper in zip(keys[1:], keys):
            edge_color(lower, upper)
    except NotACoverError:
        return False
    return True


def corrupted(d, kinds, rng):
    """``d`` with one defect of each of ``kinds`` (names from ``CORRUPTIONS``),
    each at a place drawn from the ``random.Random`` ``rng``:

    - ``shared``: a key of one chain put into another chain as well;
    - ``unknown_twice``: a key of the right length that is no element,
      inserted twice;
    - ``other_length``: a key given one more entry;
    - ``unknown_singleton``: a one-element chain of a key that is no element;
    - ``absent_mid_chain``: a key inside a chain replaced by one that is no
      element;
    - ``dropped_mid_chain``: a key inside a chain removed;
    - ``reversed_step``: two neighbours of a chain swapped;
    - ``same_rank_swap``: a key inside a chain replaced by another element of
      its rank, so that every step stays one rank down.  A replacement that
      leaves some step no cover is drawn when there is one; L(1, n) has no
      two elements of one rank, so there this kind changes nothing.

    The chains of ``d`` must have n + 1 entries per key, and one of them at
    least three keys.
    """
    chains = [list(chain) for chain in d.chains]
    stranger = (d.shape.m + 1,) + (0,) * d.shape.n  # the right length, the wrong sum

    def any_chain(least=1):
        return rng.choice([chain for chain in chains if len(chain) >= least])

    for kind in kinds:
        if kind == "shared":
            target = any_chain()
            target.insert(rng.randrange(len(target) + 1), rng.choice(any_chain()))
        elif kind == "unknown_twice":
            for _ in range(2):
                target = any_chain()
                target.insert(rng.randrange(len(target) + 1), stranger)
        elif kind == "other_length":
            chain = any_chain()
            at = rng.randrange(len(chain))
            chain[at] = (*chain[at], 0)
        elif kind == "unknown_singleton":
            chains.append([(0,) * d.shape.n + (d.shape.m + 2,)])
        elif kind in ("absent_mid_chain", "dropped_mid_chain"):
            chain = any_chain(3)
            at = rng.randrange(1, len(chain) - 1)
            if kind == "absent_mid_chain":
                chain[at] = stranger
            else:
                del chain[at]
        elif kind == "reversed_step":
            chain = any_chain(2)
            at = rng.randrange(len(chain) - 1)
            chain[at], chain[at + 1] = chain[at + 1], chain[at]
        elif kind == "same_rank_swap":
            by_rank: dict = {}
            for key in enumerate_compositions(d.shape.m, d.shape.n + 1):
                by_rank.setdefault(weighted_sum(key), []).append(key)
            swaps = [(chain, at, other) for chain in chains for at in range(1, len(chain) - 1)
                     for other in by_rank.get(weighted_sum(chain[at]), ()) if other != chain[at]]
            broken = [(chain, at, other) for chain, at, other in swaps
                      if not _steps_are_covers((chain[at - 1], other, chain[at + 1]))]
            if swaps:
                chain, at, other = rng.choice(broken or swaps)
                chain[at] = other
        else:
            raise ValueError(f"unknown corruption {kind!r}")
    return ChainDecomposition(d.shape, chains)
