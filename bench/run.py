"""Benchmark runner for the younglat command line.

    python3 bench/run.py --workload n3_pipeline --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) in this process: one client in a
closed loop calls ``younglat.cli.main(argv)`` command after command, with
the package imported from ``src/`` next to this directory and all files in
a scratch directory under ``bench/out/``.  Every run sweeps the workload's
whole shape set in rounds, in an order drawn from ``--seed``, and keeps
starting rounds until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced round (spans and counters, see ``tracing.py``) for
the same time, then replays the workload's probe request with allocation
tracing around the build and the parse, and reports the per-layer metrics
and the tracing overhead.  Spans go to ``bench/out/spans-*.jsonl``.

Output: a human-readable table on stderr; on stdout a record line (schema,
source stamps, seed, shapes, every metric of the workload, exact counts,
failures) followed by the result line
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exit code 0 when the run completed, 2 when ``src/younglat`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCHEMA = "younglat-bench/1"
SAMPLES_PER_ROUND = 16   # set-up and reference samples, spread over a round
REFERENCE_S = 0.010   # nominal time of reference_work(); timings are scaled to it
UNITS = {"setup_s": "s", "lattice_s": "s", "request_p50_ms": "ms",
         "request_p95_ms": "ms", "requests_per_s": "1/s", "peak_rss_mb": "MB"}


def reference_work() -> int:
    """Fixed pure-Python work (tuples, a keyed sort, a dict, string formatting
    and parsing) that times the machine, not the program.  Never change it:
    every calibrated figure is relative to it."""
    keys = [(i % 7, i % 11, i % 13, i) for i in range(3000)]
    keys.sort(key=lambda k: (sum(k[:3]), k))
    index = {k: i for i, k in enumerate(keys)}
    text = "\n".join(f"{i} {''.join(map(str, k[:3]))}" for k, i in index.items())
    return sum(int(line.split()[0]) for line in text.splitlines())


def time_reference() -> float:
    gc.collect()
    start = perf_counter()
    reference_work()
    return perf_counter() - start


def set_up(workload, seed: int):
    """Import younglat afresh and draw the request order: the work a user's
    process does before its first command.  Returns (seconds, order)."""
    for name in [n for n in sys.modules if n == "younglat" or n.startswith("younglat.")]:
        del sys.modules[name]
    start = perf_counter()
    importlib.import_module("younglat.cli")
    order = workload.order(seed)
    return perf_counter() - start, order


def run_round(client, workload, order, tracer=None, between=None) -> list[list]:
    """One pass over ``order``; returns the outcomes of each request."""
    stride = max(1, len(order) // SAMPLES_PER_ROUND)
    requests = []
    for i, shape in enumerate(order):
        gc.collect()   # start every request from a collected heap, as a fresh process would
        if tracer is not None:
            tracer.request = i
        requests.append(client.request(workload, shape))
        if between is not None and (i + 1) % stride == 0:
            between()
    return requests


def _round_counts(requests) -> Counter:
    total = Counter()
    for outcomes in requests:
        for o in outcomes:
            total.update(o.counts)
    return total


def measure(workload, seed, seconds, client, order, setup) -> tuple[dict, dict, list, list]:
    """Untraced rounds until ``seconds`` pass; end-to-end metrics.

    The speed of the machine drifts by tens of percent within minutes, for
    the program and for any other Python code alike.  So the run also times
    ``reference_work`` at the same points as the set-up samples, and every
    timing is reported scaled by REFERENCE_S / (median reference time): the
    time the command would take where the reference takes REFERENCE_S.  A
    change to the program moves these figures; a change of machine speed
    largely cancels.  The measured values are kept in the record."""
    rounds, references = [], [time_reference()]

    def sample_setup():
        setup.append(set_up(workload, seed)[0])
        references.append(time_reference())

    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        rounds.append(run_round(client, workload, order, between=sample_setup))
    requests = [outcomes for r in rounds for outcomes in r]
    latencies = [sum(o.seconds for o in outcomes) for outcomes in requests]
    # Every statistic is taken per round, which holds every shape once, and
    # then its median over rounds: over single commands it would jump between
    # the sizes of the shape mix, and one slow burst would set the tail.
    round_stats = []
    for r in rounds:
        times: dict[str, list[float]] = {}
        for outcomes in r:
            times.setdefault("request", []).append(sum(o.seconds for o in outcomes))
            for o in outcomes:
                times.setdefault(o.stage, []).append(o.seconds)
        stats = {stage: statistics.fmean(v) for stage, v in times.items()}
        stats["p50"] = statistics.median(times["request"])
        stats["p95"] = statistics.quantiles(times["request"], n=20, method="inclusive")[18]
        round_stats.append(stats)

    def per_round(stat: str) -> float:
        return statistics.median(stats[stat] for stats in round_stats)

    measured = {
        "setup_s": statistics.median(setup),
        "lattice_s": per_round("lattice"),
        "request_p50_ms": per_round("p50") * 1000,
        "request_p95_ms": per_round("p95") * 1000,
        "requests_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    measured.update({f"{stage}_s": per_round(stage) for stage in round_stats[0]
                     if stage not in ("request", "lattice", "p50", "p95")})
    measured["pipeline_s"] = per_round("request")
    scale = REFERENCE_S / statistics.median(references)
    calibrated = {name: value * scale if name.endswith(("_s", "_ms")) else value
                  for name, value in measured.items()}
    calibrated["requests_per_s"] = measured["requests_per_s"] / scale
    metrics = {name: calibrated.pop(name) for name in UNITS}
    detail = {**calibrated, "rounds": len(rounds), "requests": len(requests),
              "reference_scale": scale, "reference_samples_s": references,
              "measured": measured, "round_stats_s": round_stats,
              "setup_samples_s": setup}
    return metrics, detail, rounds, []


def traced(workload, seconds, client, order) -> tuple[dict, dict, list, list]:
    """Pairs of rounds, one untraced and one traced, until ``seconds`` pass,
    then one memory pass over the probe request.  Per-layer metrics are
    medians over the traced rounds; the overhead is each traced round's
    command time minus that of the untraced round before it."""
    from tracing import PER_LAYER, Tracer

    rounds, per_round, spans = [], [], []
    start = perf_counter()
    while not per_round or perf_counter() - start < seconds:
        plain_round = run_round(client, workload, order)
        tracer = Tracer()
        tracer.install()
        client.tracer = tracer
        try:
            traced_round = run_round(client, workload, order, tracer=tracer)
        finally:
            client.tracer = None
            tracer.uninstall()
        plain = sum(o.seconds for outcomes in plain_round for o in outcomes)
        with_spans = sum(o.seconds for outcomes in traced_round for o in outcomes)
        per_round.append(tracer.metrics(with_spans - plain, plain))
        spans.append(tracer.spans)
        rounds += [plain_round, traced_round]
    memory = Tracer()
    memory.install_peaks()
    try:
        rounds.append([client.request(workload, workload.probe)])
    finally:
        memory.uninstall()
    metrics, drift = {}, []
    for name, unit in PER_LAYER:
        values = [r[name] for r in per_round]
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
        if unit in ("count", "bytes") and len(set(values)) > 1:
            drift.append(name)
    metrics.update(memory.peaks)
    problems = [f"counts differ between traced rounds: {', '.join(drift)}"] if drift else []
    return metrics, {"traced_rounds": len(per_round), "spans": spans}, rounds, problems


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def src_sha() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "younglat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "younglat" / "cli.py").is_file():
        print(f"error: no younglat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from client import Client
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    gate = json.loads((BENCH / "gate.json").read_text(encoding="utf-8"))["commands"]
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        first_setup, order = set_up(workload, args.seed)
        client = Client(workdir, gate)
        for shape in workload.warmup:
            client.request(workload, shape)
        if args.trace:
            metrics, detail, rounds, problems = traced(workload, args.seconds, client, order)
            spans_file = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
            with spans_file.open("w", encoding="utf-8") as fh:
                for number, round_spans in enumerate(detail.pop("spans")):
                    for name, start, end, parent, request in round_spans:
                        fh.write(json.dumps({"round": number, "request": request, "name": name,
                                             "start": start, "end": end, "parent": parent}) + "\n")
            detail["spans_file"] = str(spans_file.relative_to(ROOT))
            from tracing import PER_LAYER
            units = dict(PER_LAYER)
        else:
            metrics, detail, rounds, problems = measure(workload, args.seed, args.seconds,
                                                        client, order, [first_setup])
            units = UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = [o for r in rounds for request in r for o in request]
    failures = sorted({f"{o.key}: {o.raised or '; '.join(o.problems)}"
                       for o in outcomes if o.failed})
    failures += problems
    correct = not problems and not any(o.problems for o in outcomes)
    counts = [_round_counts(r) for r in rounds if len(r) == len(order)]
    if any(c != counts[0] for c in counts):
        correct = False
        failures.append(f"counts differ between rounds: {counts}")
    failed = sum(o.failed for o in outcomes)
    detail["fail_ratio"] = failed / len(outcomes)
    record = {
        "schema": SCHEMA, "git_sha": git_sha(), "src_sha256": src_sha(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "shapes": order,
        "metrics": {**metrics, **detail}, "counts": dict(counts[0]) if counts else {},
        "failures": failures,
    }
    for name, value in record["metrics"].items():
        if isinstance(value, (int, float)):
            unit = units.get(name) or ("s" if name.endswith("_s") else "")
            print(f"{workload.name:>15} {name:<42} {value:>14.6g} {unit}",
                  file=sys.stderr)
    for line in failures:
        print(f"{workload.name:>15} FAILED {line}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct, "attempted": len(outcomes), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
