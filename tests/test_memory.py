"""Memory guards: what a run holds is bounded by what it reads.

No command and no claim reads ``WordBuffer.prefix_counts``, the int32
counts of the whole buffer (12 MB for 10^6 Tribonacci symbols).  The
claims that read 10^6 symbols count them block by block, the window pass
counts its own region, and Parikh queries count their window's symbols.
The tracer-only ``spectral.discrepancy_direct`` still reads the property.
"""

import gc
import tracemalloc

from tribalance import WordBuffer, tribonacci_word
from tribalance.cli import main
from tribalance.verify import run_suite

#: The claims that read the word's first 10^6 symbols, and the two window
#: walks (to 200 and 185) that run on that buffer after them.
LONG_BUFFER_CLAIMS = {
    "eq1_oracle_equivalence_1e6",
    "empirical_discrepancy_containment",
    "zeckendorf_roundtrip_1e6",
    "equivalences_agree_n200",
    "prefix_balance_184_185",
}


#: Claims that build a buffer, index it and count its windows; the
#: saturation claim indexes 132,990 symbols.
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
    # (13.2 MB) until the buffer was collected; counted block by block, the
    # peak is the growth of the 10^6 symbols (6.2 MB) and 1.3 MB stays.
    report, peak, held = traced(lambda: run_suite(claim_ids=LONG_BUFFER_CLAIMS))
    assert [c.status for c in report.claims] == ["pass"] * len(LONG_BUFFER_CLAIMS)
    assert peak < 10 * 10**6
    assert held < 2 * 10**6


def test_finished_claims_free_their_buffers_without_a_collection():
    # With the collector off, only reference counts free memory: a cycle
    # between a buffer and its ``buffer.index`` kept 3.7 MB held here
    # until a collection; without one 0.4 MB stays.
    gc.disable()
    try:
        report, _, held = traced(lambda: run_suite(claim_ids=INDEXING_CLAIMS))
    finally:
        gc.enable()
    assert [c.status for c in report.claims] == ["pass"] * len(INDEXING_CLAIMS)
    assert held < 1 * 10**6


def test_growth_peak_per_symbol():
    # Summing the image sizes of every unexpanded symbol, not only of the
    # ones a step needs, traced 7.8 bytes per symbol; 6.2 now.
    length = 10**6
    buf, peak, _ = traced(lambda: tribonacci_word(length))
    assert len(buf) == length
    assert peak <= 7 * length
