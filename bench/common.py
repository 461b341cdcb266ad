"""Process, statistics and provenance helpers shared by the benchmark.

Every path the benchmark touches lives under the checkout it runs from:
``ROOT`` is the directory holding ``src/`` and ``bench/``.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

# Interpreter code timed by ``setup_s``: the import and table build that
# every fresh process pays before it can classify anything.
SETUP_CODE = """
import json, sys
import ionread
for doc in json.loads(sys.argv[1]):
    ionread.build_observation_table(ionread.RateParams.from_json_dict(doc))
"""


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


@dataclass(frozen=True)
class ChildResult:
    exit_code: int
    wall_s: float
    max_rss_mb: float


def run_child(argv, *, log_path: Path, timeout_s: float) -> ChildResult:
    """Run one child process to completion and return its wall time and
    peak RSS.

    The child is reaped with ``wait4`` so its own resource usage is read,
    not the running maximum over all children.  A watchdog kills it after
    ``timeout_s``; it is always reaped before this function returns.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    # Tell Popen the child is gone so it never signals or waits on the pid.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def cli_argv(*args) -> list:
    """The ``ionread`` console script, spelled out so the checkout's source
    runs instead of whatever may be installed."""
    return [sys.executable, "-c",
            "import sys; from ionread.cli import main; sys.exit(main())", *args]


def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(values):
    """Highest whole percentile with at least ten samples above it.

    Returns (percentile, value) or None when fewer than eleven samples
    exist.  The value is the sample with exactly ten samples beyond it.
    """
    n = len(values)
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n), sorted(values)[n - 11]


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _src_files():
    return sorted(p for p in SRC.rglob("*.py") if "__pycache__" not in p.parts)


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    sha = None                          # an exported checkout has no .git
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    lines = 0
    for path in _src_files():
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }
