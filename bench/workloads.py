"""The three benchmark workloads: which shapes each sweeps, and which CLI
commands one request issues.

A request is one user's pass through the command line for one shape.  It
is written as a function of the shape and a ``run`` callable that executes
one command (an argv list in which ``{P}`` and ``{D}`` stand for the
request's poset and decomposition files) and returns its outcome.  Every
run of a workload sweeps the same set of shapes; the seed only shuffles
their order, so runs with different seeds measure the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Callable


def n3_request(m: int, run) -> None:
    """The pipeline the paper describes: build, decompose, verify, render."""
    run(["lattice", str(m), "3", "--coords", "composition", "--out", "{P}"])
    run(["scd", "lindstrom", str(m), "--out", "{D}"])
    run(["scd", "verify", "{P}", "{D}"])
    run(["render", "{P}", "--scd", "{D}", "--format", "dot"])


def wide_request(shape: tuple[int, int], run) -> None:
    """Partition-coordinate build plus the rank-data commands; writes only."""
    m, n = shape
    run(["lattice", str(m), str(n), "--out", "{P}"])
    run(["identities", str(m), str(n)])
    run(["ranks", "150", "150"])


def small_request(shape: tuple[int, int], run) -> None:
    """Build, find a decomposition if one is cheap, verify it, draw an SVG."""
    m, n = shape
    run(["lattice", str(m), str(n), "--coords", "composition", "--out", "{P}"])
    if n == 2:
        scd = run(["scd", "n2", str(m), "--out", "{D}"])
    elif n == 3:
        scd = run(["scd", "lindstrom", str(m), "--out", "{D}"])
    else:
        # `scd brute` prints the decomposition; the client saves it as {D},
        # as a shell user would with `> D`.
        scd = run(["scd", "brute", str(m), str(n), "--budget", "100000"],
                  stdout_file="{D}")
    has_scd = scd.code == 0
    if has_scd:
        run(["scd", "verify", "{P}", "{D}"])
    overlay = ["--scd", "{D}"] if has_scd else []
    run(["render", "{P}", *overlay, "--format", "svg", "--labels", "young"])


def _small_shapes() -> tuple[tuple[int, int], ...]:
    # m * n <= 60 is the SVG height limit; 1,001 elements keeps the brute
    # search and the drawing small enough for a sweep of many requests.
    return tuple(
        (m, n)
        for m in range(1, 61)
        for n in range(1, 61)
        if m * n <= 60 and comb(m + n, m) <= 1001
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shapes: tuple           # canonical order; the seed shuffles a copy
    request: Callable       # request(shape, run)
    warmup: tuple           # untimed shapes run once before measuring
    probe: object           # shape whose request the memory pass replays

    def order(self, seed: int) -> list:
        shapes = list(self.shapes)
        random.Random(seed).shuffle(shapes)
        return shapes


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="n3_pipeline",
            why="lattice -> scd lindstrom -> scd verify -> render dot at m=46..49: "
                "the only workload that parses files back and runs Lindstrom at scale",
            # one m per residue mod 4: the odd recursion and both even ones
            shapes=(46, 47, 48, 49),
            request=n3_request,
            warmup=(12,),
            probe=48,
        ),
        Workload(
            name="wide_boxes",
            why="partition-coordinate builds with many part sizes plus exact "
                "big-integer rank data; writes only, so parse and Lindstrom are idle",
            shapes=((7, 9), (8, 8), (9, 7)),
            request=wide_request,
            warmup=((4, 4),),
            probe=(8, 8),
        ),
        Workload(
            name="small_diagrams",
            why="222 small requests ending in an SVG: fixed per-command costs, "
                "to_svg and the budgeted brute search dominate",
            shapes=_small_shapes(),
            request=small_request,
            warmup=((3, 3), (2, 5), (4, 2)),
            probe=(14, 3),
        ),
    )
}
