"""The package runs in one OS thread, its output does not depend on the
BLAS thread count, and queries from several threads on one buffer give the
serial answers.

Importing ``tribalance`` loads numpy with OpenBLAS capped at one thread
unless the caller set ``OPENBLAS_NUM_THREADS``, and removes the variable
again once OpenBLAS has read it.  Each of those checks runs in a fresh
interpreter, since OpenBLAS reads the variable only when it loads.  A
buffer's growth is serialized by its own lock, so two growths never
overlap and a buffer never gets shorter, and the whole-buffer counts are
kept only while the symbols they count are still the buffer's.  The
buffer keeps the factor index over the longest region built, whatever
order the builds finish in.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from tribalance import abelian_complexity, factor_index, factors, tribonacci_word, words

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


def run_threads(*targets) -> None:
    """Run each target in its own thread, join them, and re-raise the
    first exception any of them raised."""
    errors = []

    def guarded(target):
        try:
            target()
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]


def test_overlapping_growths_never_shrink_the_buffer(monkeypatch):
    # The shorter growth is held inside its expansion, with the buffer's
    # state read, until the longer one has stored, or for at most a second.
    # Serialized, the longer growth waits for the shorter one and then
    # grows past it.
    buf = tribonacci_word(10)
    inside, stored = threading.Event(), threading.Event()
    original = words._expand

    def held(*state):
        if not inside.is_set():
            inside.set()
            stored.wait(timeout=1.0)
        return original(*state)

    monkeypatch.setattr(words, "_expand", held)

    def shorter():
        buf.ensure(1_000)

    def longer():
        assert inside.wait(timeout=30)
        buf.ensure(100_000)
        stored.set()

    run_threads(shorter, longer)
    assert len(buf) == 100_000
    assert buf.symbols == tribonacci_word(100_000).symbols


def test_a_smaller_index_that_finishes_last_never_replaces_a_larger_one(monkeypatch):
    # The smaller build is held inside its automaton, after its caller found
    # no index to reuse, until the larger build has been kept.  The smaller
    # one then finishes last, and the buffer keeps the larger.
    buf = tribonacci_word(10)
    small_region = 8 * (10 + 1) + 1024  # the first region factor_index(buf, 10) tries
    inside, kept = threading.Event(), threading.Event()
    original = factors._suffix_automaton

    def held(data, m):
        if len(data) == small_region:
            inside.set()
            assert kept.wait(timeout=30)
        return original(data, m)

    monkeypatch.setattr(factors, "_suffix_automaton", held)
    built = {}

    def smaller():
        built["small"] = factor_index(buf, 10)

    def larger():
        assert inside.wait(timeout=30)
        built["large"] = factor_index(buf, 1000)
        kept.set()

    run_threads(smaller, larger)
    assert built["small"].region_len == small_region < built["large"].region_len
    assert buf.index is built["large"]
    assert factor_index(buf, 10) is built["large"]


def test_concurrent_queries_on_a_fresh_buffer_give_the_serial_answers():
    # More threads than the two cores of a small machine, switched often.
    ns = (30, 342, 3914, 7199)
    serial = [abelian_complexity(tribonacci_word(10), n) for n in ns]
    assert serial == [5, 6, 7, 7]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(10):
            buf = tribonacci_word(10)
            answers = {}

            def query(n):
                return lambda: answers.__setitem__(n, abelian_complexity(buf, n))

            run_threads(*(query(n) for n in ns))
            assert [answers[n] for n in ns] == serial
    finally:
        sys.setswitchinterval(interval)


def test_counts_kept_after_a_concurrent_growth_are_of_the_whole_buffer():
    # One thread reads the whole-buffer counts while another grows the
    # buffer, switched often: whichever finishes last, the counts the
    # buffer keeps are of all its symbols.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(10):
            buf = tribonacci_word(200_000)
            run_threads(lambda: buf.prefix_counts, lambda: buf.ensure(300_000))
            assert buf.prefix_counts.shape == (3, 300_001)
    finally:
        sys.setswitchinterval(interval)
