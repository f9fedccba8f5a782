"""Shared pieces of the workloads: run context, child processes, statistics."""

from __future__ import annotations

import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

from .workspace import C07

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# switches that would change what is measured: a shared compile state
# directory, and the forced pure-Python closure kernel
PINNED_OUT = ("MTALK_STATE", "MTALK_PURE")


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in PINNED_OUT}
    env["PYTHONPATH"] = str(SRC)
    return env


# Host speed. On a shared 2-vCPU virtual machine, other tenants slowed a
# CPU-bound loop by up to a third, in phases of a second to minutes, so raw
# times of one run spread by 20-35% across runs. Every time the benchmark reports is therefore scaled to
# a reference host speed: multiplied by CALIBRATION_REF_NS over the time of a
# fixed pure-Python loop measured next to it -- before it, after it and, for
# operations longer than SAMPLE_INTERVAL_S, every SAMPLE_INTERVAL_S during
# it from a timer signal on the same thread. The loop allocates no objects
# the garbage collector tracks, so it neither triggers nor pays for
# collections of mtalk's heap.
CALIBRATION_LOOPS = 2000
CALIBRATION_REF_NS = 500_000
SAMPLE_INTERVAL_S = 0.05


def calibration_ns() -> int:
    """One timing of the calibration loop, in ns."""
    t0 = time.perf_counter_ns()
    d: dict[int, int] = {}
    for i in range(CALIBRATION_LOOPS):
        key = (i * 7919) % 4093
        d[key] = d.get(key, 0) + i
    return time.perf_counter_ns() - t0


class Timed:
    """Wall time of a block, scaled to reference host speed; see above.
    Time spent in the calibrations taken during the block is subtracted."""

    def __init__(self, run):
        self.run = run
        self.seconds = 0.0
        self.raw_seconds = 0.0
        self._samples: list[int] = []

    def _sample(self, _signum=None, _frame=None):
        self._samples.append(calibration_ns())

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._first = len(self._samples)
        self._t0 = time.perf_counter_ns()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter_ns() - self._t0 - sum(self._samples[self._first:])
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self.run.calibrations += self._samples
        self.raw_seconds = elapsed / 1e9
        self.seconds = self.raw_seconds * CALIBRATION_REF_NS / median(self._samples)
        return False


def nearest_rank(sorted_values, q: float):
    """The q-quantile by nearest rank: a value that was measured."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tail_quantile(n: int) -> float:
    """The highest of p99.9, p99, p90 and p75 with at least ten of `n`
    samples beyond it; the median when none has."""
    for q in (0.999, 0.99, 0.9, 0.75):
        if n * (1 - q) >= 10:
            return q
    return 0.5


def median(values):
    return nearest_rank(sorted(values), 0.5)


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb() -> float:
    """This process's resident set now, in MB."""
    with open("/proc/self/statm", encoding="ascii") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def observed(values) -> dict:
    """A runtime instance's injected values in the form
    Workspace.expected_values predicts: references as ("ref", id)."""
    from mtalk.vm import RuntimeInstance

    return {name: ("ref", v.bean_id.render()) if isinstance(v, RuntimeInstance) else v
            for name, v in values.items()}


def same(got: dict, want: dict) -> bool:
    # compare types too: True == 1 in Python, but a Boolean is not a Long
    return got == want and all(type(got[k]) is type(want[k]) for k in want)


def model_values(compiled, bean_id: str) -> dict | str:
    """What a VM freshly loaded on `compiled` injects into `bean_id`, or why
    it cannot."""
    from mtalk import vm

    try:
        return observed(vm.get_instance(vm.load(compiled), bean_id).values)
    except Exception as exc:  # a refused load or a missing bean is a wrong result
        return repr(exc)


class Run:
    """One benchmark run: its seed, workspace spec, scratch directory, tracer
    and tally of operations attempted and failed."""

    def __init__(self, seed: int, tracer=None, spec=C07):
        self.seed = seed
        self.tracer = tracer
        self.spec = spec
        scratch = ROOT / ".bench_build" / "perfbench"
        scratch.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
        self._dirs = 0
        self.attempted = 0
        self.failed = 0
        self.calibrations: list[int] = []
        self.rss_baseline_mb: float | None = None

    def harness_built(self) -> None:
        """Called by a set-up once the benchmark's own data (bean table,
        request stream) is built and before mtalk compiles or loads: the
        first call fixes the resident set that peak_rss_mb() leaves out."""
        if self.rss_baseline_mb is None:
            self.rss_baseline_mb = rss_mb()

    def peak_rss_mb(self) -> float:
        """Peak resident set above the baseline of harness_built(), in MB:
        what mtalk's compiles, folds and loads added to this process."""
        return peak_rss_mb() - (self.rss_baseline_mb or 0.0)

    def calibrate(self) -> int:
        """Calibration loop time now, in ns; kept for the run's report."""
        ns = calibration_ns()
        self.calibrations.append(ns)
        return ns

    def scaled(self, seconds: float, before_ns: int, after_ns: int) -> float:
        """`seconds` measured between two calibrations, at reference speed."""
        return seconds * 2 * CALIBRATION_REF_NS / (before_ns + after_ns)

    def timed(self) -> Timed:
        return Timed(self)

    def host_speed(self) -> float:
        """Reference calibration time over this run's median one: the factor
        by which raw times were multiplied, typically."""
        return CALIBRATION_REF_NS / median(self.calibrations) if self.calibrations else 1.0

    def new_dir(self, name: str) -> str:
        self._dirs += 1
        path = self.dir / f"{name}-{self._dirs}"
        path.mkdir()
        return str(path)

    def record(self, ok: bool, what: str) -> None:
        """Count one operation; a failed one is reported on stderr."""
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        """Mark one counted operation failed."""
        self.failed += 1
        if self.failed <= 20:
            print(f"perfbench: FAILED {what}", file=sys.stderr)

    def span(self, name: str, **counts):
        """The tracer's span, or a stand-in record when not tracing."""
        if self.tracer is None:
            return nullcontext([name, 0, 0, -1, counts])
        return self.tracer.span(name, **counts)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def run_child(run: Run, args: list[str], traced: bool = False):
    """Run one mtalk CLI child to completion.

    Returns (exit code, stdout, stderr, peak RSS in MB of that child). The
    caller times it. A traced child records spans and they join the run's
    tracer.
    """
    out_path = run.dir / "child.out"
    err_path = run.dir / "child.err"
    if traced:
        spans_path = run.dir / "child.spans.gz"
        cmd = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"), str(spans_path), run.tracer.run_id, *args]
    else:
        cmd = [sys.executable, "-m", "mtalk.cli", *args]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=str(ROOT))
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_bytes()
    stderr = err_path.read_bytes()
    if traced and spans_path.exists():
        run.tracer.adopt(str(spans_path), run.tracer.current())
    return code, stdout, stderr, usage.ru_maxrss / 1024.0
