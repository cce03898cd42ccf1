"""End-to-end benchmark of the ``epicost`` CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload games --seed 1 --seconds 20 --trace 0

One client drives the commands in a closed loop: each operation is one
``python -m epicost <command>`` subprocess on a generated scenario file,
started only after the previous one exits. The loop runs whole rounds of
the workload's jobs until ``--seconds`` have passed, then checks every
report. ``--trace 1`` replaces the timed loop by in-process passes over the
same jobs and reports per-layer timings and counts instead (see layers.py).
The last line of standard output is one JSON object with the results.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import scenarios

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = Path(__file__).resolve().parent / ".runs"
SETUP_REPEATS = 7
STARTUP_REPEATS = 5


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_command(argv, log: Path) -> tuple[int, float, float]:
    """Run ``python -m epicost *argv``; return (exit code, wall s, peak RSS MB)."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "epicost", *argv], cwd=ROOT,
                                env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0   # ru_maxrss is in KiB


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Run:
    """One benchmark run: its work directory, jobs and verdicts."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.dir = RUNS / f"{workload}-{seed}-{os.getpid()}"
        self.out = self.dir / "out"
        self.jobs = []
        self.runs = {}      # job name -> runs started
        self.kept = {}      # job name -> (directory, digest) of its first report
        self.problems = []
        self.attempted = self.failed = 0

    @staticmethod
    def log(message: str):
        print(f"perfbench: {message}", file=sys.stderr)

    def setup(self) -> float:
        """Generate the scenarios and run one untimed warm-up command; median seconds."""
        took = []
        for i in range(SETUP_REPEATS):
            start = time.perf_counter()
            # new files each time: see out_dir
            setup = self.dir / f"setup-{i}"
            self.jobs = scenarios.make_jobs(self.workload, self.seed, SRC, setup)
            job = self.jobs[0]
            rc, _, _ = run_command(job.argv(setup / "warmup"), setup / "warmup.log")
            took.append(time.perf_counter() - start)
            if rc != 0:
                log = (setup / "warmup.log").read_text(errors="replace")
                raise SystemExit(f"perfbench: warm-up {job.name} exited {rc}:\n{log}")
        return statistics.median(took)

    def out_dir(self, job) -> Path:
        """A fresh output directory for the next run of ``job``.

        Rewriting an existing report makes ext4 flush it to disk on close
        (``auto_da_alloc``), which made every third repeat of a large
        report twice as slow; a new file in a new directory does not.
        """
        n = self.runs.get(job.name, 0)
        self.runs[job.name] = n + 1
        return self.out / job.name / str(n)

    def report(self, job) -> Path:
        """The first report of ``job``, kept for the checks."""
        return self.kept[job.name][0] / job.report

    def record(self, job, out: Path, rc: int, log: str = ""):
        """Count one attempted operation and compare its report with the first one."""
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            self.log(f"{job.name} exited {rc}: {log.strip()[-500:]}")
            return
        got = digest(out / job.report)
        first, first_digest = self.kept.setdefault(job.name, (out, got))
        if first != out:
            if first_digest != got:
                self.problems.append(f"{job.name}: repeated runs wrote different reports")
            shutil.rmtree(out)

    def check_reports(self):
        import checks   # numpy and scipy stay out of the parent until the loop is over
        for job in self.jobs:
            if job.name not in self.kept:
                continue    # it never succeeded, which is counted in failed
            scenario = json.loads(job.config.read_text())
            found = checks.check(job.command, self.report(job), scenario,
                                 self.seed, job.extra)
            self.problems += [f"{job.name}: {p}" for p in found]

    def timed_loop(self, seconds: float) -> dict:
        walls, peak_rss = [], 0.0
        log = self.dir / "command.log"
        start = time.perf_counter()
        while True:
            for job in self.jobs:
                out = self.out_dir(job)
                rc, wall, rss = run_command(job.argv(out), log)
                self.record(job, out, rc, log.read_text(errors="replace") if rc else "")
                if rc == 0:
                    walls.append(wall)
                    peak_rss = max(peak_rss, rss)
            if time.perf_counter() - start >= seconds:
                break
        elapsed = time.perf_counter() - start
        if not walls:
            raise SystemExit("perfbench: no command completed")
        return {
            "cmd_s_p50": (statistics.median(walls), "s"),
            "scenarios_per_s": (len(walls) / elapsed, "1/s"),
            "peak_rss_mb": (peak_rss, "MB"),
        }

    def in_process(self, cli) -> float:
        """One round of the jobs through ``cli.main`` in this process; seconds."""
        start = time.perf_counter()
        for job in self.jobs:
            out, err = self.out_dir(job), io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.main(job.argv(out))
            self.record(job, out, rc, err.getvalue())
        return time.perf_counter() - start

    def traced(self, seconds: float) -> dict:
        import layers
        sys.path.insert(0, str(SRC))
        from epicost import cli

        startup = []
        for _ in range(STARTUP_REPEATS):
            rc, wall, _ = run_command(["--help"], self.dir / "startup.log")
            if rc != 0:
                raise SystemExit(f"perfbench: epicost --help exited {rc}")
            startup.append(wall)

        plain, traced, rounds = [], [], []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            plain.append(self.in_process(cli))
            tracer = layers.Tracer()
            wrapped = layers.Wrapped(tracer.wrap)
            try:
                traced.append(self.in_process(cli))
            finally:
                wrapped.uninstall()
            rounds.append(tracer)

        # tracemalloc slows every allocation, so the peak gets a pass of its own
        memory = layers.PeakMemory()
        if any(job.command == "compare-schedules" for job in self.jobs):
            wrapped = layers.Wrapped(memory.wrap)
            try:
                self.in_process(cli)
            finally:
                wrapped.uninstall()

        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        print(f"perfbench: {len(rounds)} traced rounds, median {statistics.median(traced):.3f} s;"
              f" untraced {statistics.median(plain):.3f} s; tracing overhead "
              f"{100 * overhead:.1f}%", file=sys.stderr)

        # the reports of every round are byte-identical, so count the kept ones
        work = rounds[0].work
        for job in self.jobs:
            if job.name not in self.kept:
                continue
            report = self.report(job)
            work["cli.report_bytes"] += report.stat().st_size
            if report.suffix == ".csv":
                with open(report) as fh:
                    work["cli.report_rows"] += sum(not line.startswith("#") for line in fh) - 1

        metrics = {"cli.startup_ms": (1000 * statistics.median(startup), "ms")}
        for name in layers.TIMES:
            metrics[name] = (statistics.median(layers.times(t)[name] for t in rounds), "ms")
        for name, value in layers.counts(rounds[0]).items():
            metrics[name] = (value, "bytes" if name.endswith("_bytes") else "count")
        metrics["trajectory.compare_peak_mb"] = (max(memory.peaks, default=0) / 2**20, "MB")
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "epicost" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no epicost sources under {SRC}")

    run = Run(args.workload, args.seed)
    try:
        setup_s = run.setup()
        if args.trace:
            metrics = run.traced(args.seconds)
        else:
            metrics = run.timed_loop(args.seconds)
            metrics["setup_s"] = (setup_s, "s")
        run.check_reports()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUNS.rmdir()

    for problem in run.problems:
        run.log(f"check failed: {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
