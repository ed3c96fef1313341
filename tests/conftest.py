import sys
from pathlib import Path

from hypothesis import strategies as st

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


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
