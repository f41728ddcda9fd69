"""Shared pieces of the benchmark: paths, BLAS pinning, statistics, spans
and the environment record.

Nothing here imports numpy at module level: ``pin_blas_threads`` must run
before numpy is first imported, and ``import_proxyvote`` must find the
package under this checkout's ``src/`` and nowhere else.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

#: BLAS threads per process.  The 2-worker workload runs two solving
#: processes, so one thread each keeps processes x threads <= nproc on a
#: 2-CPU host; the other workloads use the same value so that their
#: per-layer numbers are comparable and single-core.
BLAS_THREADS = 1
_BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10


class BenchSetupError(Exception):
    """The checkout cannot be benchmarked (no sources, wrong package)."""


def pin_blas_threads() -> None:
    for var in _BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def import_proxyvote():
    """Import ``proxyvote`` from this checkout's ``src/`` only."""
    init = SRC / "proxyvote" / "__init__.py"
    if not init.is_file():
        raise BenchSetupError(f"no proxyvote sources at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import proxyvote

    found = Path(proxyvote.__file__).resolve()
    if found != init.resolve():
        raise BenchSetupError(f"imported proxyvote from {found}, not from this checkout")
    return proxyvote


# ---------------------------------------------------------------- statistics


def p50(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond).  With TAIL_BEYOND or
    fewer samples no such percentile exists and the maximum is returned
    with 0 samples beyond.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return float(ordered[-1]), 100.0, 0
    index = count - 1 - TAIL_BEYOND
    return float(ordered[index]), 100.0 * (index + 1) / count, TAIL_BEYOND


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------- host speed

#: seconds each reference kernel takes on the host where the benchmark was
#: defined, at that host's usual speed
REFERENCE_S = {"interpreter": 0.020, "blas": 0.0075}
_reference_inputs: dict = {}


def _interpreter_kernel(matrix, rhs, keys) -> None:
    import numpy as np

    for _ in range(20):
        seen = set()
        for value in range(300):
            int(np.searchsorted(keys, value))
            if value not in seen:
                seen.add(value)
        np.linalg.solve(matrix, rhs)
        total = 0
        for i in range(2000):
            total += i * i % 7


def _blas_kernel(matrix, vector, system) -> None:
    import numpy as np

    w = vector
    for _ in range(10):
        w = matrix @ w
        w /= w.sum()
    np.linalg.solve(system, vector[: len(system)])


def reference_seconds(kind: str) -> float:
    """Wall seconds of one run of a fixed reference kernel that calls no
    ``proxyvote`` code.

    ``interpreter``: a walk over a sorted 300-element array with set
    membership and ``np.searchsorted``, a 60x60 solve and an integer loop,
    20 times; interpreter-bound like the Monte Carlo trials.  ``blas``: ten
    products with a 1000x1000 matrix and a 400x400 solve; BLAS- and
    memory-bound like the dense solves and sweeps of a large decide.  Its
    inputs stay allocated for the whole run (about 9 MiB).

    The kernel's time tracks the shared host's speed for that kind of work
    at the moment it runs.  Timings scaled by ``REFERENCE_S[kind] /
    reference_seconds(kind)`` read as if the host ran at its usual speed;
    a change to the program does not move the kernel.
    """
    import numpy as np

    if kind not in _reference_inputs:
        rng = np.random.default_rng(20041215)
        if kind == "interpreter":
            inputs = (rng.random((60, 60)) + 60.0 * np.eye(60), rng.random(60),
                      np.sort(rng.integers(0, 300, 300)))
        else:
            inputs = (rng.random((1000, 1000)), rng.random(1000),
                      rng.random((400, 400)) + 400.0 * np.eye(400))
        _reference_inputs[kind] = inputs
    kernel = _interpreter_kernel if kind == "interpreter" else _blas_kernel
    start = time.perf_counter()
    kernel(*_reference_inputs[kind])
    return time.perf_counter() - start


# ---------------------------------------------------------------- spans


class Tracer:
    """In-memory spans: (id, parent id, trace id, name, start ns, end ns)."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, int, str, int, int]] = []
        self._next = 0

    def span(self, name: str, parent: int | None, trace_id: int) -> "_Span":
        self._next += 1
        return _Span(self, self._next, parent, trace_id, name)

    def durations(self, name: str, unit: float = 1e-3, since: int = 0) -> list[float]:
        """Durations of spans called ``name`` (µs by default; unit is the
        factor applied to nanoseconds)."""
        return [(e - s) * unit for _, _, _, n, s, e in self.spans[since:] if n == name]


class _Span:
    __slots__ = ("tracer", "id", "parent", "trace_id", "name", "start")

    def __init__(self, tracer, span_id, parent, trace_id, name):
        self.tracer, self.id, self.parent = tracer, span_id, parent
        self.trace_id, self.name = trace_id, name

    def __enter__(self) -> int:
        self.start = time.perf_counter_ns()
        return self.id

    def __exit__(self, *exc) -> None:
        end = time.perf_counter_ns()
        self.tracer.spans.append((self.id, self.parent, self.trace_id, self.name, self.start, end))


class NullTracer:
    """Tracer interface that records nothing (untraced replicas)."""

    class _Nothing:
        def __enter__(self):
            return None

        def __exit__(self, *exc):
            return None

    _nothing = _Nothing()

    def span(self, name, parent, trace_id):
        return self._nothing


# ---------------------------------------------------------------- environment


def _git_commit() -> str | None:
    """HEAD commit read from ``.git`` without running git, or None."""
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


def _blas() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration") if blas.get(k)}


def environment(workload: str | None, seed: int | None, held_out: bool) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads_pinned": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "held_out": held_out,
    }

