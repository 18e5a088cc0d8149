"""Closed-loop task runner, span tracer and the statistics the benchmark reports.

One client, one thread: each task starts only after the previous one has
returned.  A task is a call into the library (``run``) followed by a
correctness check (``check``) that runs outside the timed region.  Spans are
recorded only around the benchmark's own calls into the library, so the
library itself is never modified.

Times are reported at reference speed.  The 2-core host is shared, and its
speed drifts by tens of percent within seconds, evenly across pure-Python
code.  So a SpeedSampler times a fixed stdlib-only reference loop from a
timer signal every SAMPLE_EVERY_S of wall time, also while a long library
call runs, and each measured time is multiplied by REFERENCE_NOMINAL_S over
the mean reference timing taken during it (widened by one sampling interval
on each side).  Time spent in the signal handler is taken out of every
measured interval.  Raw times are kept beside the scaled ones.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import signal
import resource
import sys
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from statistics import median
from typing import Any, Callable, Optional

from inputs import pair_profile, table_from

REFERENCE_NOMINAL_S = 0.0012  # the reference loop on the defining 2-core host: 1.12-1.22 ms when quiet
SAMPLE_EVERY_S = 0.05

# Tail ladder in parts per ten thousand: p99.99, p99.9, p99, p90, p50.
TAIL_LADDER = (9999, 9990, 9900, 9000, 5000)
MIN_BEYOND = 10


class Fail(Exception):
    """A correctness check failed; ``module`` is the layer it blames."""

    def __init__(self, module: str, message: str):
        super().__init__(f"{module}: {message}")
        self.module = module


def expect(cond: bool, module: str, message: str) -> None:
    if not cond:
        raise Fail(module, message)


@dataclass
class Task:
    kind: str
    module: str  # layer blamed when ``run`` raises
    run: Callable[[Any], Any]  # run(tracer) -> output, timed
    check: Callable[[Any, Any], None] = lambda out, tracer: None  # untimed; raises Fail


class NullTracer:
    """Tracing off: calls go straight through, counts are dropped."""

    traced = False

    def __call__(self, name: str, fn, *args, tag: Optional[str] = None):
        return fn(*args)

    def count(self, name: str, k: float = 1) -> None:
        pass

    def open(self, name: str) -> None:
        pass

    def close(self) -> None:
        pass


class Tracer:
    """In-memory spans (name, tag, start_ns, end_ns, parent index) and counts."""

    traced = True

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def __call__(self, name: str, fn, *args, tag: Optional[str] = None):
        self.open(name, tag)
        try:
            return fn(*args)
        finally:
            self.close()

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] += k

    def open(self, name: str, tag: Optional[str] = None) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, tag, time.perf_counter_ns(), 0, parent])

    def close(self) -> None:
        self.spans[self._stack.pop()][3] = time.perf_counter_ns()


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once, and clipped to
    the parent's interval)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _name, _tag, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_name, _tag, start, end, _parent) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def tail_level(samples: int) -> int:
    """Highest ladder percentile (parts per ten thousand) that leaves at
    least ten samples beyond its nearest-rank position."""
    for level in TAIL_LADDER:
        if samples - rank_of(level, samples) >= MIN_BEYOND:
            return level
    raise ValueError(f"{samples} samples leave fewer than {MIN_BEYOND} beyond the median")


def rank_of(level: int, samples: int) -> int:
    """1-based nearest-rank position of a percentile given in parts per ten thousand."""
    return max(1, -(-level * samples // 10000))


def percentile(values, level: int) -> float:
    ordered = sorted(values)
    return ordered[rank_of(level, len(ordered)) - 1]


_REFERENCE_TABLE = table_from(12, lambda i, j: min((i - j) % 12, (j - i) % 12))


_REFERENCE_FRACTIONS = [Fraction(i, 7 + i % 13) for i in range(1, 800)]


def reference_loop() -> Counter:
    """Fixed pure-Python work (tuples, sorting, counters, Fraction arithmetic
    and hashing) that never touches the library: the yardstick for host speed."""
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i % 7, i % 11 + 1)
    seen = set(_REFERENCE_FRACTIONS)
    return pair_profile(_REFERENCE_TABLE) if acc not in seen else Counter()


def reference_time() -> float:
    """One timing of the reference loop, garbage collector off so that
    collecting the workload's heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Samples host speed with the reference loop from SIGALRM while active.

    ``mark()`` returns a (time, handler seconds so far) pair; ``interval``
    turns two marks into the elapsed time without the handler's share and
    the factor that brings it to reference speed."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.references: list[float] = []
        self.handler_s = 0.0

    def _sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        reference = reference_time()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.references.append(reference)
        self.handler_s += t1 - t0

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.handler_s

    def interval(self, start: tuple[float, float], end: tuple[float, float]) -> tuple[float, float]:
        elapsed = (end[0] - start[0]) - (end[1] - start[1])
        lo = bisect_left(self.times, start[0] - SAMPLE_EVERY_S)
        hi = bisect_right(self.times, end[0] + SAMPLE_EVERY_S)
        window = self.references[lo:hi] or self.references[max(0, lo - 1) : lo + 1]
        return elapsed, REFERENCE_NOMINAL_S / (sum(window) / len(window))


@dataclass
class PassResult:
    traced: bool
    latencies: list[float] = field(default_factory=list)  # raw seconds
    factors: list[float] = field(default_factory=list)  # per task, to reference speed
    failures: list[tuple[str, str, str]] = field(default_factory=list)  # (kind, module, message)
    tracer: Any = None

    @property
    def scaled(self) -> list[float]:
        return [x * f for x, f in zip(self.latencies, self.factors)]

    @property
    def factor(self) -> float:
        return median(self.factors)


def run_pass(tasks: list[Task], tracer, sampler: SpeedSampler, finish: Optional[Callable[[], None]] = None) -> PassResult:
    """Run every task once, closed loop, timing only ``run``."""
    result = PassResult(tracer.traced, tracer=tracer)
    marks = []
    mark = sampler.mark
    for task in tasks:
        tracer.open("task." + task.kind)
        t0 = mark()
        try:
            out = task.run(tracer)
        except Exception as exc:  # a library failure is a failed task, not a crash
            marks.append((t0, mark()))
            tracer.close()
            result.failures.append((task.kind, task.module, f"{type(exc).__name__}: {exc}"))
            continue
        marks.append((t0, mark()))
        tracer.close()
        try:
            task.check(out, tracer)
        except Fail as exc:
            result.failures.append((task.kind, exc.module, str(exc)))
        except Exception as exc:
            result.failures.append((task.kind, task.module, f"{type(exc).__name__}: {exc}"))
    if finish is not None:
        try:
            finish()
        except Fail as exc:
            result.failures.append(("pass", exc.module, str(exc)))
    while sampler.times[-1] < marks[-1][1][0]:
        signal.pause()  # the last task's window needs a later sample
    for start, end in marks:
        elapsed, factor = sampler.interval(start, end)
        result.latencies.append(elapsed)
        result.factors.append(factor)
    return result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def env_stamp(root: Path, seed: int) -> dict:
    import numpy

    src = root / "src" / "echelon"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "commit": _commit(root),
        "src_sha256": digest.hexdigest(),
        "argv": sys.argv[1:],
    }


def _commit(root: Path) -> str:
    """HEAD of the enclosing git checkout, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
