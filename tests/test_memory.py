"""Memory guards: what a run holds is bounded by what it reads.

No command and no claim reads ``WordBuffer.prefix_counts``, the int32
counts of the whole buffer (12 MB for 10^6 Tribonacci symbols), and
nothing in the package reads it at all.  The claims that read 10^6
symbols count them block by block, the window pass counts its own region
in one narrow block, and Parikh queries and
``spectral.discrepancy_direct`` count their symbols with ``bytes.count``.
A buffer grows by joining whole τ^j images once, and ``generate`` writes
those images one by one, so it never holds the word.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from tribalance import WordBuffer, tribonacci_word
from tribalance.cli import main
from tribalance.verify import run_suite

ROOT = Path(__file__).resolve().parent.parent

#: The claims that read the word's first 10^6 symbols, and the two window
#: walks (to 200 and 185) that run on that buffer after them.
LONG_BUFFER_CLAIMS = {
    "eq1_oracle_equivalence_1e6",
    "empirical_discrepancy_containment",
    "zeckendorf_roundtrip_1e6",
    "equivalences_agree_n200",
    "prefix_balance_184_185",
}


#: Claims that build a buffer, index it and count its windows; the shared
#: profile indexes 134,096 symbols, a region that the saturation claim
#: then counts its samples over.
INDEXING_CLAIMS = LONG_BUFFER_CLAIMS | {
    "rho_min_5_is_30",
    "factor_count_saturation_20_samples",
}


def traced(call):
    """(result, peak, current) traced bytes of one call."""
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, current


def test_no_command_or_claim_reads_the_whole_buffer_counts(monkeypatch, capsys):
    def refuse(buffer):
        raise AssertionError("WordBuffer.prefix_counts was read")

    monkeypatch.setattr(WordBuffer, "prefix_counts", property(refuse))
    report = run_suite()
    assert [(c.claim_id, c.observed) for c in report.claims if c.status != "pass"] == []
    for argv in (["rho", "mbonacci:4", "1", "300"], ["rho", "tribonacci", "1", "100"],
                 ["balance", "mbonacci:4", "400"], ["balance", "tribonacci", "100"],
                 ["special", "tribonacci", "1", "300"], ["special", "mbonacci:4", "1", "100"],
                 ["discrepancy", "2", "200000"]):
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_long_buffer_claims_hold_no_whole_buffer_counts():
    # The whole-buffer counts traced an 18.3 MB peak here and stayed held
    # (13.2 MB) until the buffer was collected.  Counted block by block, the
    # peak was the growth of the 10^6 symbols (6.2 MB); grown by τ^j images,
    # it is 3.2 MB, and 0.2 MB stays.
    report, peak, held = traced(lambda: run_suite(claim_ids=LONG_BUFFER_CLAIMS))
    assert [c.status for c in report.claims] == ["pass"] * len(LONG_BUFFER_CLAIMS)
    assert peak < 3.5 * 10**6
    assert held < 2 * 10**6


def test_finished_claims_free_their_buffers_without_a_collection():
    # With the collector off, only reference counts free memory: a cycle
    # between a buffer and its ``buffer.index`` kept 3.7 MB held here
    # until a collection; without one 0.4 MB stays.  The claims run first
    # in a fresh interpreter, so what they keep once per process is traced
    # and nothing that earlier tests left (such as a resize of the table
    # of interned strings) is.
    script = ("import gc, json, sys, tracemalloc; from tribalance.verify import run_suite; "
              "gc.disable(); tracemalloc.start(); "
              "report = run_suite(claim_ids=set(sys.argv[1:])); "
              "held = tracemalloc.get_traced_memory()[0]; tracemalloc.stop(); "
              "print(json.dumps([[c.status for c in report.claims], held]))")
    statuses, held = json.loads(python_output(script, *sorted(INDEXING_CLAIMS)))
    assert statuses == ["pass"] * len(INDEXING_CLAIMS)
    assert held < 1 * 10**6


def test_growth_peak_per_symbol():
    # Summing the image sizes of every unexpanded symbol, not only of the
    # ones a step needs, traced 7.8 bytes per symbol, and applying τ with
    # int64 size arrays 6.2; joining τ^j images once traces 1.2.
    length = 10**6
    buf, peak, _ = traced(lambda: tribonacci_word(length))
    assert len(buf) == length
    assert peak <= 1.5 * length


def python_output(script: str, *argv: str) -> str:
    """Standard output of a fresh interpreter that runs script on argv."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout


def peak_rss_mb(*argv: str) -> float:
    """Peak resident set of a fresh interpreter that runs the command line
    on argv, in MB."""
    script = ("import resource, sys; from tribalance.cli import main; main(sys.argv[1:]); "
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    return int(python_output(script, *argv)) / 1024  # ru_maxrss is in KiB on Linux


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads ru_maxrss in KiB")
def test_generate_holds_no_word():
    # 10^7 symbols peaked at 86 MB when the word and its text were held
    # whole; written image by image, generate peaks within a few hundred
    # kB of a command that only imports the package and prints constants.
    base = peak_rss_mb("constants", "--out", os.devnull)
    peak = peak_rss_mb("generate", "tribonacci", "10000000", "--out", os.devnull)
    assert peak - base < 8
