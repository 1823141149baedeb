"""ncdet benchmark: one workload, closed loop, one client, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up imports ``ncdet`` from ``src/`` afresh, warms its lazy caches and
builds the workload's inputs from the seed; it is repeated SETUP_REPEATS
times and ``setup_s`` is the median.  The run then repeats the workload's
fixed operation list (a round) a fixed number of times, set per workload by
ROUNDS_PER_15_S and scaled by ``--seconds``.  Every operation is timed alone
under a time budget and its result is checked outside the timed span.

Times are reported in reference seconds.  The machine may be shared, and
its speed can drift by 1.7x over seconds to minutes, so a short fixed loop
(``calibrate``) runs before every operation and each raw time is scaled by
CAL_REF_S over the calibration time measured around it.  ``wall_s`` (time
to finish the operation list) is the sum over operations of the median of
each one's scaled repeats.  ``op_p50_ms`` and ``op_tail_ms`` are taken over
every attempted operation's scaled latency, pooled across rounds: the median
and the value at the highest percentile with ten samples beyond it.  As the
round count is fixed, every run of a workload pools the same number of
samples and the tail stays at the same rank.  The raw figures go into the
run record.

With ``--trace 1`` the run instead makes one untraced round (the reference
for the tracing overhead) and one traced round, and reports the per-layer
metrics of ``tracer.py``.  ``cli_verify`` is traced by calling
``ncdet.cli.main`` in this process.

The last line of standard output is the JSON result; the run record (git
sha, Python, nproc, seed, input digest, op counts, failures) goes to
standard error and to ``.bench_out/records.jsonl``.
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
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from tracer import LAYERS, MODULE_LAYERS, Tracer, term_count  # noqa: E402

SETUP_REPEATS = 7
MIN_ROUNDS = 3
# Rounds of a 15-second run, scaled for other ``--seconds``.  On the machine
# the benchmark was defined on (Python 3.11, 2 shared cores) they take 13 to
# 27 s.  With these counts the tail rank (ten samples beyond it) falls
# inside the repeats of one of the slowest operations.
ROUNDS_PER_15_S = {"generic_symbolic": 12, "grassmann_trials": 7, "integer_exact": 6,
                   "cli_verify": 5}
HARD_LIMIT_S = 150.0
TRACE_BUDGET_FACTOR = 10.0
OUT_DIR = wl.ROOT / ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

clock = time.perf_counter

# Reported times are in reference seconds: each raw time is scaled by
# CAL_REF_S over the time the calibration loop took around it, so that the
# changing load of other tenants of the machine divides out.
CAL_REF_S = 1e-3
CAL_WINDOW = 2  # calibration samples on each side of an operation


def _calibration_work() -> int:
    """Fixed pure-Python work shaped like a sparse product: tuple-keyed
    dict accumulation of integer products, independent of ncdet."""
    left = {(i, i % 7): i + 1 for i in range(60)}
    right = {(j % 5, j): j - 3 for j in range(60)}
    out: dict = {}
    get = out.get
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            word = w1 + w2
            out[word] = get(word, 0) + c1 * c2
    return len(out)


def calibrate() -> float:
    t0 = clock()
    _calibration_work()
    return clock() - t0


def per_layer_units() -> dict[str, str]:
    names = list(Tracer().metrics()) + ["untraced_wall_s", "trace.overhead_ratio", "cli.startup_s"]
    units = {}
    for name in names:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        elif name.endswith(".bytes"):
            units[name] = "bytes"
        else:
            units[name] = "count"
    return units


# ----------------------------------------------------------------- set-up


def import_fresh():
    """Import ncdet from scratch, so each set-up pays the import again."""
    for name in [m for m in sys.modules if m == "ncdet" or m.startswith("ncdet.")]:
        del sys.modules[name]
    nc = importlib.import_module("ncdet")
    importlib.import_module("ncdet.cli")
    return nc


def set_up(name, seed, scratch_root):
    """Timed set-up: import, warm the lazy caches, build the inputs."""
    times, normalized = [], []
    nc = workload = None
    cal = calibrate()
    for rep in range(SETUP_REPEATS):
        scratch = scratch_root / f"docs{rep}"
        t0 = clock()
        nc = import_fresh()
        for n in range(1, 7):
            nc.signed_permutations(n)
        workload = wl.build(name, seed, nc, scratch=scratch)
        seconds = clock() - t0
        cal_after = calibrate()
        times.append(seconds)
        normalized.append(seconds * CAL_REF_S / ((cal + cal_after) / 2))
        cal = cal_after
    return times, normalized, nc, workload


# ------------------------------------------------------------- operations


class Budget:
    """Per-operation time budget for in-process calls, by SIGALRM."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise wl.OpTimeout()

    @contextmanager
    def limit(self, seconds):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.armed = False


def run_one(op, budget, call=None, factor=1.0):
    """Time one operation, then check it; returns (seconds, result, failure)."""
    call = call or op.run
    result = failure = None
    # Subprocess operations enforce their budget themselves.
    limit = budget.limit(op.budget_s * factor) if op.in_process else nullcontext()
    t0 = clock()
    try:
        with limit:
            t0 = clock()
            result = call()
    except wl.OpTimeout:
        failure = ("timeout", f"over its {op.budget_s * factor:g} s budget")
    except Exception as exc:  # a crashed operation is a recorded failure
        failure = ("exception", f"{type(exc).__name__}: {exc}"[:300])
    seconds = clock() - t0
    if failure is None:
        try:
            failure = op.check(result)
        except Exception as exc:  # so is a result the check cannot read
            failure = ("mismatch", f"check raised {type(exc).__name__}: {exc}"[:300])
    return seconds, result, failure


class Tally:
    """Attempts, failures by input, and per-operation latencies."""

    def __init__(self, ops):
        self.ops = ops
        self.latencies = [[] for _ in ops]
        self.round_walls: list[float] = []
        self.attempted = 0
        self.failures: Counter = Counter()
        self.details: dict = {}
        self.result_terms = None
        self.sequence: list[tuple] = []  # (op index, seconds or None, calibration s)

    def add(self, index, seconds, failure, cal=None):
        self.attempted += 1
        ran = failure is None or failure[0] != "deadline"
        if ran:
            self.latencies[index].append(seconds)
        if cal is not None:
            self.sequence.append((index, seconds if ran else None, cal))
        if failure is not None:
            key = (self.ops[index].label, failure[0])
            self.failures[key] += 1
            self.details.setdefault(key, failure[1])

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def unexpected(self):
        return [key for key in self.failures if wl.KNOWN_FAILURES.get(key[0]) != key[1]]

    def failure_list(self):
        return [
            {"op": label, "kind": kind, "count": count, "detail": self.details[(label, kind)],
             "known": wl.KNOWN_FAILURES.get(label) == kind}
            for (label, kind), count in sorted(self.failures.items())
        ]


def run_round(tally, budget, deadline, calls=None, factor=1.0, calibrated=False):
    """One pass over the operation list.

    ``calibrated`` runs the calibration loop before every operation (outside
    its timed span).
    """
    gc.collect()
    wall = 0.0
    terms = 0
    for index, op in enumerate(tally.ops):
        cal = calibrate() if calibrated else None
        if clock() > deadline:
            tally.add(index, 0.0, ("deadline", "run ended before this operation"), cal)
            continue
        call = calls[index] if calls else None
        seconds, result, failure = run_one(op, budget, call, factor)
        wall += seconds
        terms += term_count(result)
        tally.add(index, seconds, failure, cal)
    tally.round_walls.append(wall)
    if tally.result_terms is None:
        tally.result_terms = terms


def tail(samples):
    """Value at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def normalized_latencies(tally):
    """Per-operation latencies in reference seconds.

    Each time is scaled by CAL_REF_S over the median calibration time of the
    CAL_WINDOW samples on either side of it.
    """
    cals = [cal for _, _, cal in tally.sequence]
    out = [[] for _ in tally.ops]
    for pos, (index, seconds, _) in enumerate(tally.sequence):
        if seconds is not None:
            window = cals[max(0, pos - CAL_WINDOW): pos + CAL_WINDOW + 1]
            out[index].append(seconds * CAL_REF_S / statistics.median(window))
    return out


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ------------------------------------------------------------------ modes


def planned_rounds(name, seconds):
    return max(MIN_ROUNDS, round(ROUNDS_PER_15_S[name] * seconds / 15))


def measure(workload, seconds, budget, deadline):
    tally = Tally(workload.ops)
    for _ in range(planned_rounds(workload.name, seconds)):
        run_round(tally, budget, deadline, calibrated=True)
    scaled = normalized_latencies(tally)
    pooled = [t for lat in scaled for t in lat]
    raw_pooled = [t for lat in tally.latencies for t in lat]
    tail_s, percentile = tail(pooled)
    metrics = {
        "wall_s": sum(statistics.median(lat) for lat in scaled if lat),
        "op_p50_ms": statistics.median(pooled) * 1000.0,
        "op_tail_ms": tail_s * 1000.0,
        "peak_rss_mb": peak_rss_mb(children=workload.name == "cli_verify"),
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }
    extra = {
        "rounds": len(tally.round_walls),
        "tail": {"percentile": percentile, "samples": len(pooled), "value_ms": tail_s * 1000.0},
        "fail_ratio": tally.failed / tally.attempted,
        "calibration_ms": statistics.median(cal for _, _, cal in tally.sequence) * 1000.0,
        "raw": {
            "wall_s": sum(statistics.median(lat) for lat in tally.latencies if lat),
            "op_p50_ms": statistics.median(raw_pooled) * 1000.0,
            "op_tail_ms": tail(raw_pooled)[0] * 1000.0,
        },
    }
    return tally, metrics, extra


def in_process_ops(ops, nc):
    """The cli operations as ``ncdet.cli.main`` calls in this process."""
    return [
        replace(op, run=lambda argv=op.argv: wl.run_cli_inprocess(nc, argv), in_process=True)
        for op in ops
    ]


def measure_traced(name, seed, nc, workload, budget, deadline, scratch_root):
    """One untraced reference round, then one traced round."""
    reference = untraced = Tally(workload.ops)
    run_round(reference, budget, deadline)
    tracer = Tracer()
    traced_ops = wl.build(name, seed, nc, int_type=tracer.int_type,
                          scratch=scratch_root / "traced").ops
    startup = 0.0
    if name == "cli_verify":
        # Start-up cost: subprocess wall minus the same argv run in-process.
        untraced = Tally(in_process_ops(workload.ops, nc))
        run_round(untraced, budget, deadline)
        startup = statistics.median(
            sub[0] - inproc[0] for sub, inproc in zip(reference.latencies, untraced.latencies)
        )
        traced_ops = in_process_ops(traced_ops, nc)
    tally = Tally(traced_ops)
    calls = [lambda i=i, op=op: tracer.run_op(i, op.run)[0] for i, op in enumerate(traced_ops)]
    tracer.install([sys.modules[m] for m in MODULE_LAYERS if m in sys.modules])
    try:
        run_round(tally, budget, deadline, calls, TRACE_BUDGET_FACTOR)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["untraced_wall_s"] = untraced.round_walls[0]
    metrics["trace.overhead_ratio"] = metrics["traced_wall_s"] / metrics["untraced_wall_s"]
    metrics["cli.startup_s"] = startup
    residual = metrics["traced_wall_s"] - metrics["unattributed_s"] - sum(
        metrics[f"{layer}.self_s"] for layer in LAYERS
    )
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path, [op.label for op in traced_ops])
    combined = Tally(workload.ops)
    for source in {id(t): t for t in (reference, untraced, tally)}.values():
        combined.attempted += source.attempted
        combined.failures.update(source.failures)
        combined.details.update(source.details)
    combined.result_terms = reference.result_terms
    info = {"layer_sum_residual_s": residual, "spans_file": str(spans_path.relative_to(wl.ROOT))}
    return combined, metrics, info


# ------------------------------------------------------------------ record


def git_sha():
    """HEAD of the checkout, or None when the checkout is not a git tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=wl.ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != wl.ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """Digest of the package source, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((wl.SRC / "ncdet").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_all(args) -> int:
    """Every workload in turn, each in its own process (peak RSS is per
    process); exits non-zero when any run fails or finds a wrong result."""
    status = 0
    for name in wl.WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, __file__, *argv], stdout=subprocess.PIPE,
                              text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (wl.SRC / "ncdet" / "__init__.py").is_file():
        print(f"error: no ncdet package under {wl.SRC}", file=sys.stderr)
        return 2
    started = clock()
    deadline = started + HARD_LIMIT_S
    sys.path.insert(0, str(wl.SRC))
    scratch_root = OUT_DIR / f"run-{os.getpid()}"
    budget = Budget()
    # One core for this process and its children: the calibration loop then
    # measures the core the work runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        for _ in range(5):  # let the interpreter specialise the calibration loop
            calibrate()
        setup_times, setup_normalized, nc, workload = set_up(args.workload, args.seed, scratch_root)
        if args.trace:
            tally, metrics, info = measure_traced(
                args.workload, args.seed, nc, workload, budget, deadline, scratch_root
            )
            units = per_layer_units()
        else:
            tally, metrics, info = measure(workload, args.seconds, budget, deadline)
            metrics["setup_s"] = statistics.median(setup_normalized)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(scratch_root, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "input_digest": workload.input_digest,
        "ops_per_round": len(workload.ops),
        "op_counts": dict(Counter(op.kind for op in workload.ops)),
        "result_terms": tally.result_terms,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failure_list(),
        "setup_raw_s": setup_times,
        "setup_normalized_s": setup_normalized,
        "elapsed_s": clock() - started,
        **info,
        "metrics": {k: metrics[k] for k in units},
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"record": record}), file=sys.stderr)
    for key in units:
        print(f"{args.workload:17s} {key:48s} {metrics[key]:>16.6f} {units[key]}")
    result = {
        "correct": not tally.unexpected(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
