"""One closed-loop client that runs ``younglat.cli.main`` in-process and
checks every command's outputs.

Each command is timed around the ``main(argv)`` call alone, with stdout and
stderr captured in memory.  After the clock stops the client checks the
result twice:

* against the output gate, a table of sha256 digests of stdout and of every
  file written, plus the exit code, recorded from the seed code for every
  argv the workloads can issue (``gate.json``, made by ``make_gate.py``);
* against facts that do not depend on any recorded output: the element
  count is C(m+n, m), the rank profile is the Gaussian binomial (computed
  here by the q-Pascal recurrence, not by the library's product formula),
  a decomposition has as many chains as the widest rank, ``scd verify``
  passes every constructed decomposition, and ``ranks`` is symmetric,
  unimodal and sums to C(m+n, m).

A command that raises, exits with an unexpected code, or fails a check is a
failed command.  Exceptions are failures but not wrong output; everything
else also marks the run incorrect.
"""

from __future__ import annotations

import hashlib
import io
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from pathlib import Path
from time import perf_counter


@dataclass
class Outcome:
    key: str                    # workload, shape and argv template: the gate's key
    stage: str                  # lattice, scd, verify, render, identities, ranks
    code: int | None            # exit code, None when main raised
    raised: str | None          # exception class name
    seconds: float
    problems: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    @property
    def failed(self) -> bool:
        return self.raised is not None or bool(self.problems)


def stage_of(template: list[str]) -> str:
    if template[0] == "scd":
        return "verify" if template[1] == "verify" else "scd"
    return template[0]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@lru_cache(maxsize=None)
def q_binomial(m: int, n: int) -> tuple[int, ...]:
    """Rank sizes of the (m, n) box by G(m, n) = q^n G(m-1, n) + G(m, n-1)."""
    row = [[1] for _ in range(n + 1)]          # G(0, b) = 1
    for _ in range(m):
        new = [[1]]                            # G(a, 0) = 1
        for b in range(1, n + 1):
            shifted = [0] * b + row[b]
            left = new[b - 1]
            width = max(len(shifted), len(left))
            new.append([(shifted[i] if i < len(shifted) else 0)
                        + (left[i] if i < len(left) else 0) for i in range(width)])
        row = new
    return tuple(row[n])


class Client:
    """Runs requests command by command and keeps what the checks found.

    With ``gate=None`` nothing is compared against the table; the observed
    results are collected in ``observed`` instead (this is how the table is
    made).  ``tracer``, when set, opens a root span around each command.
    """

    def __init__(self, workdir: Path, gate: dict | None):
        self.files = {"P": workdir / "p.poset", "D": workdir / "d.scd"}
        self.gate = gate
        self.observed: dict[str, dict] = {}
        self.outcomes: list[Outcome] = []
        self.tracer = None
        self.prefix = ""

    def request(self, workload, shape) -> list[Outcome]:
        """Run one request; returns the outcomes of its commands."""
        for path in self.files.values():
            path.unlink(missing_ok=True)   # no stale file may pass a check
        self.outcomes = []
        self.prefix = f"{workload.name} {shape}: "
        workload.request(shape, self.run)
        return self.outcomes

    def run(self, template: list[str], stdout_file: str | None = None) -> Outcome:
        names = {k: str(v) for k, v in self.files.items()}
        argv = [arg.format(**names) for arg in template]
        main = sys.modules["younglat.cli"].main
        if self.tracer is not None:
            main = self.tracer.span("cli.main", main)
        out, err = io.StringIO(), io.StringIO()
        code = raised = None
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except Exception as exc:  # a crash is a measured failure, not the end of the run
            raised = type(exc).__name__
        seconds = perf_counter() - start
        outcome = Outcome(self.prefix + " ".join(template), stage_of(template), code, raised, seconds)
        stdout = out.getvalue().encode("utf-8")
        written = [template[i + 1].strip("{}") for i, a in enumerate(template) if a == "--out"]
        if stdout_file is not None and code == 0:
            self.files[stdout_file.strip("{}")].write_bytes(stdout)
            written.append(stdout_file.strip("{}"))
        if raised is None:
            contents = {name: self.files[name].read_bytes() for name in written
                        if self.files[name].exists()}
            observed = {"code": code, "stdout": _sha(stdout),
                        "files": {k: _sha(v) for k, v in sorted(contents.items())}}
            outcome.counts["output_bytes"] = len(stdout) + sum(map(len, contents.values()))
            outcome.problems.extend(_independent(template, code, stdout, contents, outcome.counts))
        else:
            observed = {"raised": raised}
        self._compare(outcome, observed)
        self.outcomes.append(outcome)
        return outcome

    def _compare(self, outcome: Outcome, observed: dict) -> None:
        if self.gate is None:
            self.observed[outcome.key] = observed
            return
        expected = self.gate.get(outcome.key)
        if outcome.raised is not None or expected is None or "raised" in expected:
            return   # a crash is already a failure; no bytes to compare
        for field_name in ("code", "stdout", "files"):
            if observed[field_name] != expected[field_name]:
                outcome.problems.append(f"{field_name} differs from the seed output")


def _independent(template, code, stdout: bytes, files: dict, counts: Counter) -> list[str]:
    """Checks that hold for any correct program, whatever the seed code did."""
    stage = stage_of(template)
    text = stdout.decode("utf-8")
    lines = text.splitlines()
    if stage == "lattice":
        m, n = int(template[1]), int(template[2])
        if code != 0 or "P" not in files:
            return [f"lattice exited {code} without a poset file"]
        body = files["P"].decode("utf-8").splitlines()
        count = comb(m + n, m)
        prime = "'" if "composition" in template else ""
        header = f"poset L{prime}({m},{n}) height={m * n} count={count}"
        if not body or body[0] != header:
            return [f"poset header {body[:1]} is not {header!r}"]
        profile = [0] * (m * n + 1)
        for line in body[1:1 + count]:
            profile[int(line.split(" ", 2)[1])] += 1
        counts["elements"] = count
        counts["covers"] = len(body) - 1 - count
        if tuple(profile) != q_binomial(m, n):
            return ["rank profile differs from the Gaussian binomial"]
    elif stage == "scd":
        if code not in (0, 1) or (code == 1 and template[1] != "brute"):
            return [f"scd exited {code}"]
        if code == 0:
            m = int(template[2])
            n = int(template[3]) if template[1] == "brute" else {"n2": 2, "lindstrom": 3}[template[1]]
            head = files.get("D", b"").split(b"\n", 1)[0].decode("utf-8")
            declared = head.rpartition(" chains=")[2]
            chains = int(declared) if declared.isdigit() else -1
            counts["chains"] = chains
            if chains != max(q_binomial(m, n)):
                return [f"{chains} chains, but the widest rank has {max(q_binomial(m, n))}"]
    elif stage == "verify":
        if code != 0 or not lines or lines[-1] != "verdict: PASS":
            return [f"verify exited {code}: {lines[-1:]}"]
    elif stage == "identities":
        if code != 0 or lines[-1:] != ["PASS"]:
            return [f"identities exited {code}"]
    elif stage == "ranks":
        m, n = int(template[1]), int(template[2])
        coeffs = [int(v) for v in lines]
        peak = coeffs.index(max(coeffs)) if coeffs else 0
        if (code != 0 or len(coeffs) != m * n + 1 or coeffs != coeffs[::-1]
                or sum(coeffs) != comb(m + n, m)
                or coeffs[:peak + 1] != sorted(coeffs[:peak + 1])):
            return ["ranks output is not a symmetric unimodal profile of C(m+n, m) elements"]
    elif stage == "render":
        lead = "digraph" if "dot" in template else "<?xml"
        if code != 0 or not text.startswith(lead):
            return [f"render exited {code}"]
    return []
