"""Fresh-process benchmark of the qfilab command line.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one qfilab CLI invocation in a fresh Python process
(perfbench/op.py), started from this single process, one at a time and
timed from outside: wall time from spawn to exit, CPU time and peak RSS
from os.wait4. Every output is checked against an independent oracle
(oracles.py); a wrong exit code, a crash, a timeout or a wrong output
counts as a failed operation. QFILAB_THREADS and the BLAS thread settings
are left as found and recorded.

Samples are taken until --seconds would be exceeded by one more. Without
tracing, each operation is followed by an import-only spawn of op.py,
which adds a set-up sample at a fraction of an operation's cost. The
second-to-last stdout line is a JSON report (environment, sample counts,
failures); the last is the result {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 every sample also runs perfbench/traced.py, which repeats the
invocation as a sequence of spanned public calls, and the metrics are the
per-layer ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
OP_TIMEOUT_S = 120.0
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever hangs
STARTED = time.monotonic()
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = (*workloads.SPANS, *workloads.COUNTS, *workloads.CLI_METRICS, *workloads.TRACE_METRICS)


@dataclass
class Proc:
    """A finished child process, as seen from outside."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    stdout: str
    stderr: str


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def spawn(script: Path, args: list[str]) -> Proc:
    """Run `python script args` with src/ importable and wait for it.

    Wall time runs from just before the spawn to the child's exit; CPU
    time (user + sys) and peak RSS are the child's own, from os.wait4.
    A child is killed after OP_TIMEOUT_S, or earlier if the run would
    otherwise pass RUN_LIMIT_S.
    """
    logs = _fresh_dir(WORK / "logs")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(logs / "stdout"), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(logs / "stderr"), flags, 0o644),
    ]
    start = time.monotonic()
    timeout = max(1.0, min(OP_TIMEOUT_S, STARTED + RUN_LIMIT_S - start))
    env["PERFBENCH_SPAWN_T"] = repr(start)
    pid = os.posix_spawn(sys.executable, [sys.executable, str(script), *args], env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    reaped = False
    try:
        if not select.select([pidfd], [], [], timeout)[0]:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall_s = time.monotonic() - start
        reaped = True
    finally:
        if not reaped:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(pid, 0)
        os.close(pidfd)
    return Proc(
        code=os.waitstatus_to_exitcode(status),
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=(logs / "stdout").read_text(errors="replace"),
        stderr=(logs / "stderr").read_text(errors="replace"),
    )


def _read_dir(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@dataclass
class Op:
    """One CLI invocation and what the oracle made of it."""

    proc: Proc
    setup_s: float | None
    main_s: float | None
    files: dict[str, bytes]
    problems: list[str]


def _timed(proc: Proc, files: dict[str, bytes], problems: list[str]) -> Op:
    """Read op.py's "perfbench <setup_s> <main_s>" line into an Op."""
    tail = proc.stderr.rstrip("\n").rsplit("\n", 1)[-1].split()
    if len(tail) == 3 and tail[0] == "perfbench":
        return Op(proc, float(tail[1]), float(tail[2]), files, problems)
    problems.append(f"no timing line; stderr ends {proc.stderr[-300:]!r}")
    return Op(proc, None, None, files, problems)


def run_op(cmd) -> Op:
    out = _fresh_dir(WORK / "op")
    proc = spawn(HERE / "op.py", cmd.argv(str(out / cmd.out_name)))
    files = _read_dir(out)
    return _timed(proc, files, oracles.check(cmd, proc.code, files))


def run_setup() -> Op:
    """An import-only spawn of op.py: one more set-up sample."""
    proc = spawn(HERE / "op.py", [])
    return _timed(proc, {}, [f"import-only run exit {proc.code}"] if proc.code else [])


@dataclass
class Traced:
    """One traced stand-in run: spans, counts, and whether its outputs
    matched the CLI's byte for byte."""

    proc: Proc
    spans: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def run_traced(workload: str, seed: int, index: int, op: Op) -> Traced:
    out = _fresh_dir(WORK / "traced")
    proc = spawn(HERE / "traced.py", [workload, str(seed), str(index), str(out)])
    run = Traced(proc)
    if proc.code != 0:
        run.problems.append(f"traced run exit {proc.code}; stderr ends {proc.stderr[-300:]!r}")
        return run
    record = json.loads(proc.stdout.strip().rsplit("\n", 1)[-1])
    run.spans, run.counts = record["spans"], record["counts"]
    if _read_dir(out) != op.files:
        run.problems.append("traced outputs differ from the CLI's")
    return run


# ---------------------------------------------------------------------------
# environment

def _digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_rev() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {k: os.environ.get(k, "unset") for k in THREAD_VARS},
        "QFILAB_THREADS": os.environ.get("QFILAB_THREADS", "unset"),
        "git_rev": _git_rev(),
        "src_sha256": _digest(SRC / "qfilab"),
        "perfbench_sha256": _digest(HERE),
    }


# ---------------------------------------------------------------------------
# measurement

def _high_percentile(values: list[float]) -> dict | None:
    """The highest whole percentile with at least ten samples above it."""
    pct = int(100 * (1 - 10 / len(values))) if len(values) > 10 else 0
    if pct < 51:
        return None
    return {"percentile": pct, "value": statistics.quantiles(values, n=100)[pct - 1]}


@dataclass
class Sample:
    """One run of a workload's commands: the CLI operations, then either
    their traced stand-ins or one import-only spawn per operation."""

    ops: list[Op]
    traced: list[Traced] = field(default_factory=list)
    setups: list[Op] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(op.proc.wall_s for op in self.ops)


def collect(workload: str, seed: int, seconds: float, trace: bool) -> list[Sample]:
    """Run samples until one more would pass the deadline; with tracing,
    at least two samples are taken, so the counts can be compared."""
    cmds = workloads.commands(workload, seed)
    deadline = time.monotonic() + seconds
    samples, durations = [], []
    while True:
        start = time.monotonic()
        sample = Sample([])
        for cmd in cmds:
            sample.ops.append(run_op(cmd))
            if not trace:
                sample.setups.append(run_setup())
        if trace:
            sample.traced = [run_traced(workload, seed, i, op) for i, op in enumerate(sample.ops)]
        samples.append(sample)
        durations.append(time.monotonic() - start)
        if len(samples) >= (2 if trace else 1) and time.monotonic() + statistics.median(durations) > deadline:
            return samples


def end_to_end(samples: list[Sample]) -> dict[str, float]:
    """Medians per sample of wall and CPU time (on curve_sweep a sample is
    the fig3a call plus the fig3b call), the median set-up over operations
    and import-only spawns, and the largest RSS of any operation."""
    ops = [op for s in samples for op in s.ops]
    setups = [op.setup_s for s in samples for op in (*s.ops, *s.setups) if op.setup_s is not None]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(s.wall_s for s in samples),
        "cpu_s": statistics.median(sum(op.proc.cpu_s for op in s.ops) for s in samples),
        "peak_rss_mib": max(op.proc.rss_mib for op in ops),
    }


def per_layer(samples: list[Sample], count_file: Path) -> tuple[dict[str, float], list[str]]:
    """Median spans over samples, exact counts, and the cli and trace
    figures. Counts that differ between samples, or from an earlier clean
    run of the same code and seed (kept in `count_file`), are problems."""
    rows, problems = [], []
    for s in samples:
        row = {name: sum(t.spans.get(name, 0.0) for t in s.traced) for name in workloads.SPANS}
        row.update({name: sum(t.counts.get(name, 0) for t in s.traced) for name in workloads.COUNTS})
        lower = sum(row[name] for name in workloads.SPANS)
        main = sum(op.main_s or 0.0 for op in s.ops)
        setup = sum(op.setup_s or 0.0 for op in s.ops)
        row["cli.main_s"] = main
        row["cli.self_s"] = main - lower
        row["cli.output_bytes"] = sum(len(b) for op in s.ops for b in op.files.values())
        row["trace.coverage"] = (setup + lower) / s.wall_s
        row["trace.overhead_s"] = sum(t.proc.wall_s for t in s.traced) - s.wall_s
        rows.append(row)

    counted = (*workloads.COUNTS, "cli.output_bytes")
    counts = {name: rows[0][name] for name in counted}
    for i, row in enumerate(rows[1:], 1):
        diff = [name for name in counted if row[name] != counts[name]]
        if diff:
            problems.append(f"sample {i} counts differ from sample 0: {diff}")
    clean = not any(run.problems for s in samples for run in (*s.ops, *s.traced))
    if count_file.is_file():
        earlier = json.loads(count_file.read_text())
        diff = [name for name in counted if earlier.get(name) != counts[name]]
        if diff:
            problems.append(f"counts differ from an earlier run of this code and seed: {diff}")
    elif clean and not problems:
        count_file.parent.mkdir(parents=True, exist_ok=True)
        count_file.write_text(json.dumps(counts, indent=1) + "\n")

    metrics = {name: statistics.median(row[name] for row in rows) for name in PER_LAYER}
    metrics.update(counts)
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qfilab" / "cli.py").is_file():
        sys.stderr.write(f"error: no qfilab sources under {SRC}; run from a source checkout\n")
        return 2

    env = environment()
    samples = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    ops = [op for s in samples for op in s.ops]
    traced = [t for s in samples for t in s.traced]
    setups = [op for s in samples for op in s.setups]
    if not any(op.setup_s is not None for op in ops):
        sys.stderr.write("error: no operation completed; first problems:\n  "
                         + "\n  ".join(p for op in ops[:5] for p in op.problems) + "\n")
        return 1

    if args.trace:
        key = hashlib.sha256((env["src_sha256"] + env["perfbench_sha256"]).encode()).hexdigest()
        count_file = WORK / "counts" / f"{args.workload}-seed{args.seed}-{key[:16]}.json"
        values, count_problems = per_layer(samples, count_file)
        traced[-1].problems += count_problems
        units = {name: workloads.unit(name) for name in PER_LAYER}
    else:
        values, units = end_to_end(samples), END_TO_END
    runs = ops + traced
    problems = [p for run in (*runs, *setups) for p in run.problems]
    failed = sum(1 for run in runs if run.problems)

    walls = [s.wall_s for s in samples]
    report = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commands": [" ".join(["qfilab", *cmd.argv("<out>")]) for cmd in workloads.commands(args.workload, args.seed)],
        "environment": env,
        "samples": len(samples),
        "setup_samples": sum(op.setup_s is not None for op in ops + setups),
        "wall_s_per_sample": walls,
        "wall_s_high_percentile": _high_percentile(walls),
        "error_rate": failed / len(runs),
        "problems": problems[:20],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
