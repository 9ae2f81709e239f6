"""The package runs in one OS thread, and its output does not depend on the
BLAS thread count.

Importing ``tribalance`` loads numpy with OpenBLAS capped at one thread
unless the caller set ``OPENBLAS_NUM_THREADS``, and removes the variable
again once OpenBLAS has read it.  Each check runs in a fresh interpreter,
since OpenBLAS reads the variable only when it loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PROBE = ("import json, os, tribalance; print(json.dumps([len(os.listdir('/proc/self/task')),"
         " os.environ.get('OPENBLAS_NUM_THREADS')]))")

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="needs /proc/self/task")


def python(args, blas_threads=None) -> bytes:
    """stdout of ``python *args`` with the package on the path and
    ``OPENBLAS_NUM_THREADS`` set to blas_threads, or unset for None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@needs_proc
def test_import_leaves_one_thread_and_no_variable():
    threads, variable = json.loads(python(["-c", PROBE]))
    assert threads == 1
    assert variable is None


@needs_proc
def test_a_set_blas_thread_count_is_honoured():
    _, variable = json.loads(python(["-c", PROBE], blas_threads=2))
    assert variable == "2"


@pytest.mark.parametrize("argv", [["constants"], ["discrepancy", "0", "10000"]])
def test_output_does_not_depend_on_the_blas_thread_count(argv):
    # ``constants`` prints numbers that pass through a LAPACK solve.
    one, two = (python(["-m", "tribalance", *argv], blas_threads=k) for k in (1, 2))
    assert one == two
    assert one
