"""Benchmark for the vanatta CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload surface-sweep --seed 1 --seconds 30 --trace 0

One client calls ``vanatta.cli.main(argv)`` in this process, closed loop:
each op is one CLI command on inputs derived from ``--seed``, and the next
op starts when the previous one has returned.  Every op's output files are
checked.  The last line of stdout is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run
record (environment, seed, op counts, tail percentile).  ``--out PATH``
also writes the record with the result to PATH, for ``compare.py``.

``--trace 0`` reports the end-to-end metrics with no tracing.  Times are
scaled to a reference host speed (see REF_SECONDS below):

    setup_s      median over fresh interpreters of the time from start to
                 the end of the first op (import plus first call, what each
                 CLI invocation pays)
    op_p50_ms    median op time
    op_tail_ms   op time at the workload's tail percentile
    work_per_s   work units done per second of op time
    ok_ratio     share of attempted ops that exited 0 and passed the check
                 (1 - fail ratio; the fail ratio itself is failed/attempted)
    peak_rss_mb  peak resident memory of this process

``--trace 1`` alternates untraced and traced ops and reports the per-layer
metrics of ``spans.PER_LAYER``: per-op medians over the traced ops, work
counts over the first COUNT_OPS of them (the op inputs are a fixed sequence
for a seed, so counts repeat exactly), and the tracing overhead.

The program is imported from ``src/`` of the checkout and nothing else;
without it the benchmark exits non-zero before measuring.  Scratch files go to
``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS, Op, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

SETUP_RUNS = 11
COUNT_OPS = 5
MIN_TRACED_OPS = 10
# Ops continue past --seconds until the tail has ten ops beyond it, but
# never longer than this, so that a much slower program still ends in time.
OVERRUN_SECONDS = 45.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "work_per_s": "1/s",
    "ok_ratio": "1",
    "peak_rss_mb": "MB",
}

# On a shared host the CPU's speed drifts by up to 1.5x for seconds at a
# time: on a 2-vCPU Xeon virtual machine, medians of a fixed loop over 30 s
# windows spread by 40% between windows, which no affordable run length
# averages out.  So a fixed
# reference kernel runs between ops, and each op's time is scaled by
# REF_SECONDS over the mean time of the reference runs just before and just
# after it: the time the op would take on a host that runs the reference in
# REF_SECONDS.  The ratio of op time to reference time spreads by about 2%
# between windows.  Interpreter start-up does not follow the CPU reference,
# so fresh-interpreter runs are scaled the same way by starts of
# ``python -c "import numpy"`` made between them, to a host that makes that
# start in REF_SPAWN_SECONDS.  Raw wall times go to the record.
REF_SECONDS = 0.012
REF_SPAWN_SECONDS = 0.2
_REF_ARRAY = np.random.default_rng(0).random((128, 721))


def reference_seconds() -> float:
    """Time of the fixed reference kernel (a Python loop and numpy exp)."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(60_000):
        acc += k * k
    for _ in range(3):
        np.exp(1j * _REF_ARRAY).sum(axis=0)
    return time.perf_counter() - t0


def _spawn_seconds(cmd: list[str]) -> tuple[float, int]:
    """Wall time from start to exit of a child process, and its exit code."""
    t0 = time.perf_counter()
    # No timeout: with one, the wait polls at up to 50 ms intervals.
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0, done.returncode


def spawn_reference_seconds() -> float:
    """Time to start Python and import numpy."""
    elapsed, code = _spawn_seconds([sys.executable, "-c", "import numpy"])
    if code != 0:
        raise RuntimeError(f"reference interpreter exited {code}")
    return elapsed


def scaled(walls: list[float], refs: list[float], nominal: float) -> list[float]:
    """Wall times scaled by nominal over the mean of the reference times
    taken just before and just after each (refs interleave walls)."""
    return [wall * 2.0 * nominal / (refs[i] + refs[i + 1]) for i, wall in enumerate(walls)]


# Runs one op in a fresh interpreter; argv: src dir, CLI argv as JSON.
_SETUP_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from vanatta.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[2]))
sys.exit(code)
"""


class Runner:
    """Runs a workload's ops in this process and counts their outcomes."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        from vanatta.cli import main  # src/ joins sys.path in _import_program

        self.main = main
        self.workload = workload
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        self.out = work_dir / "out"
        self.attempted = 0
        self.failed = 0

    def next_op(self) -> tuple[Op, list[str]]:
        """The next op of the seeded sequence, with its config file written."""
        op = self.workload.make_op(self.rng)
        shutil.rmtree(self.out, ignore_errors=True)
        config = self.work_dir / "op.cfg"
        config.write_text(op.config)
        return op, op.argv(str(config), str(self.out))

    def record(self, op: Op, code) -> None:
        errors = [f"exit code {code}"] if code != 0 else self.workload.check(op, self.out)
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"{self.workload.name}: op failed: {'; '.join(errors[:3])}", file=sys.stderr)

    def run_op(self) -> float:
        """One checked op in this process; returns its wall seconds."""
        op, argv = self.next_op()
        sink = io.StringIO()
        # A CLI invocation starts with an empty heap: collect the garbage of
        # earlier ops here, not during this op's time.
        gc.collect()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = self.main(argv)
        except Exception:  # an op that raises is a failed op, not a failed run
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - t0
        self.record(op, code)
        return elapsed

    def setup_op(self) -> float:
        """One checked op in a fresh interpreter; returns start-to-exit seconds."""
        op, argv = self.next_op()
        cmd = [sys.executable, "-c", _SETUP_CHILD, str(SRC), json.dumps(argv)]
        elapsed, code = _spawn_seconds(cmd)
        self.record(op, code)
        return elapsed

    def out_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out.iterdir() if p.is_file())


def tail(values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile, and how many values lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _more(deadline: float, short: bool) -> bool:
    """Whether to start another op: before the deadline, or after it while
    the run is still short of ops and within OVERRUN_SECONDS."""
    now = time.perf_counter()
    return now < deadline or (short and now < deadline + OVERRUN_SECONDS)


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    workload = runner.workload
    setup_walls, setup_refs = [], [spawn_reference_seconds()]
    for _ in range(SETUP_RUNS):
        setup_walls.append(runner.setup_op())
        setup_refs.append(spawn_reference_seconds())
    runner.run_op()  # untimed: the first in-process call
    walls, refs = [], [reference_seconds()]
    deadline = time.perf_counter() + seconds
    while _more(deadline, len(walls) < workload.min_ops):
        walls.append(runner.run_op())
        refs.append(reference_seconds())
    times = scaled(walls, refs, REF_SECONDS)
    tail_s, beyond = tail(times, workload.tail_pct)
    values = {
        "setup_s": statistics.median(scaled(setup_walls, setup_refs, REF_SPAWN_SECONDS)),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "work_per_s": workload.work_per_op * len(times) / sum(times),
        "ok_ratio": 1.0 - runner.failed / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "measured_ops": len(times),
        "tail_pct": workload.tail_pct,
        "ops_beyond_tail": beyond,
        "work_unit": workload.work_unit,
        "work_per_op": workload.work_per_op,
        "raw_setup_s": setup_walls,
        "raw_op_p50_ms": statistics.median(walls) * 1e3,
        "reference_p50_ms": statistics.median(refs) * 1e3,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, detail


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict]:
    tracer = spans.Tracer()
    units = {m.name: m.unit for m in spans.PER_LAYER}
    runner.run_op()  # untimed: the first in-process call
    # Untraced and traced ops alternate; per_op holds the traced ops' metrics
    # in wall milliseconds until the host scaling is known.
    walls, refs, per_op = [], [reference_seconds()], []
    deadline = time.perf_counter() + seconds
    while _more(deadline, len(per_op) < MIN_TRACED_OPS):
        walls.append(runner.run_op())
        refs.append(reference_seconds())
        tracer.install()
        try:
            wall = runner.run_op()
        finally:
            tracer.uninstall()
        refs.append(reference_seconds())
        walls.append(wall)
        metrics = spans.op_metrics(tracer, tracer.take(), wall * 1e3)
        metrics[spans.OUT_BYTES.name] = runner.out_bytes()
        per_op.append(metrics)
    times = scaled(walls, refs, REF_SECONDS)
    plain, traced = times[0::2], times[1::2]
    for metrics, wall, time_s in zip(per_op, walls[1::2], traced):
        for name, value in metrics.items():
            if units[name] == "ms":
                metrics[name] = value * time_s / wall

    values = {}
    for metric in spans.PER_LAYER:
        sample = per_op[:COUNT_OPS] if metric.unit != "ms" else per_op
        if all(metric.name in m for m in sample):
            values[metric.name] = statistics.median(m[metric.name] for m in sample)
    values[spans.OVERHEAD.name] = (statistics.median(traced) - statistics.median(plain)) * 1e3

    # Self times plus untraced time add up to each op's traced wall time.
    self_names = [f"{layer}.self_ms" for layer in tracer.layers] + [spans.UNTRACED.name]
    residual = max(
        abs(sum(m[n] for n in self_names) - t * 1e3) for m, t in zip(per_op, traced)
    )
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    detail = {
        "traced_ops": len(traced),
        "untraced_ops": len(plain),
        "traced_op_p50_ms": statistics.median(traced) * 1e3,
        "untraced_op_p50_ms": statistics.median(plain) * 1e3,
        "max_self_time_residual_ms": residual,
        "absent": sorted(m.name for m in spans.PER_LAYER if m.name not in values),
        "boundaries": sorted(tracer.boundaries),
    }
    return metrics, detail


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    kernels = sys.modules.get("vanatta.kernels")
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "kernels_backend": getattr(kernels, "BACKEND", None),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def _import_program() -> None:
    """Import vanatta from the checkout's src/, or exit 2."""
    if not (SRC / "vanatta" / "cli.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'vanatta'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import vanatta.cli

    if Path(vanatta.cli.__file__).resolve().parent != (SRC / "vanatta").resolve():
        sys.exit(f"perfbench: imported vanatta from {vanatta.cli.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="also write the record here")
    args = parser.parse_args(argv)

    _import_program()
    workload = WORKLOADS[args.workload]
    work_dir = BUILD / f"perfbench-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, args.seed, work_dir)
        measure = per_layer if args.trace else end_to_end
        metrics, detail = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        **detail,
    }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
