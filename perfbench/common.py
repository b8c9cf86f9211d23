"""Shared set-up for the benchmark scripts: where the checkout is, how the
package under test is imported, thread pinning, seed derivation and the
environment record.

Nothing here runs at import time; the entry scripts call ``pin_threads``
before anything imports numpy.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Every BLAS / OpenMP pool numpy might start is held to one thread: the
# machine has two cores and the benchmark measures one process, one thread.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")


class MissingPackage(Exception):
    """The checkout holds no importable ``src/implogic``."""


def pin_threads() -> None:
    for var in THREAD_ENV:
        os.environ[var] = "1"


def import_implogic():
    """Import implogic from this checkout's ``src`` and nowhere else."""
    init = SRC / "implogic" / "__init__.py"
    if not init.is_file():
        raise MissingPackage(f"no package at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import implogic
    if Path(implogic.__file__).resolve() != init.resolve():
        raise MissingPackage(f"implogic imported from {implogic.__file__}, "
                             f"not from {init.relative_to(ROOT)}")
    return implogic


def derive_seed(*labels) -> int:
    """A 32-bit seed from the workload seed and labels. Built on sha256 so
    recorded digests do not depend on a library's random stream."""
    digest = hashlib.sha256(repr(labels).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def peak_rss_mb() -> float:
    """Peak resident set of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    """HEAD read from the .git directory, without starting git."""
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
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources; identifies the code under test
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "implogic").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment_record() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
    }
