"""Record the output gate: ``python3 bench/make_gate.py`` rewrites
``bench/gate.json`` from the code now under ``src/``.

For every request of every workload (all shapes, so every seed is covered)
it stores, per argv template, the exit code and the sha256 of stdout and of
each file the command wrote, or the exception the command raised.  The
table must come from the seed commit named in its ``source`` field: a
change that claims a speed-up keeps output bytes identical, so it is checked
against this table and must not regenerate it.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import BENCH, SRC, git_sha, src_sha


def main() -> int:
    sys.path.insert(0, str(SRC))
    import younglat.cli  # noqa: F401  (the client looks it up in sys.modules)
    from client import Client
    from workloads import WORKLOADS

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="gate-", dir=out_dir))
    commands: dict[str, dict] = {}
    try:
        for workload in WORKLOADS.values():
            for shape in workload.shapes:
                client = Client(workdir, gate=None)
                for outcome in client.request(workload, shape):
                    if outcome.problems:
                        print(f"check failed: {outcome.key}: {outcome.problems}",
                              file=sys.stderr)
                        return 1
                for key, observed in client.observed.items():
                    if commands.setdefault(key, observed) != observed:
                        print(f"nondeterministic output: {key}", file=sys.stderr)
                        return 1
            print(f"{workload.name}: {len(commands)} commands so far", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    table = {"source": {"git_sha": git_sha(), "src_sha256": src_sha()},
             "commands": dict(sorted(commands.items()))}
    (BENCH / "gate.json").write_text(json.dumps(table, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
