import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import cap_positions

from tribalance.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_tribonacci(capsys):
    code, out, _ = run(capsys, "generate", "tribonacci", "14")
    assert code == 0
    assert out == "01020100102010\n"


def test_generate_fibonacci(capsys):
    code, out, _ = run(capsys, "generate", "mbonacci:2", "8")
    assert code == 0
    assert out == "01001010\n"


def test_generate_zero_length_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "tribonacci", "0"])
    assert excinfo.value.code == 2


def test_bad_word_spec_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "quadbonacci", "5"])
    assert excinfo.value.code == 2


def test_unknown_command_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_rho_range(capsys):
    code, out, _ = run(capsys, "rho", "tribonacci", "1", "6", "--threads", "1")
    assert code == 0
    assert out.splitlines() == ["n,rho", "1,3", "2,3", "3,4", "4,3", "5,4", "6,4"]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_usage_error(capsys, threads):
    with pytest.raises(SystemExit) as excinfo:
        main(["rho", "tribonacci", "1", "5", "--threads", threads])
    assert excinfo.value.code == 2
    assert f"--threads: must be >= 1, got {threads}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, expected", [
    (["generate", "mbonacci:300", "5"], 2),
    (["generate", "tribonacci", "5", "--max-buffer", "2"], 3),
    (["rho", "tribonacci", "1", "5", "--out", "MISSING"], 2),
    (["rho", "tribonacci", "1", "5", "--max-buffer", "0"], 2),
    (["rho", "tribonacci", "1", "5", "--max-buffer", "-1"], 2),
    (["balance", "mbonacci:300", "5"], 2),
    # --scan-cap was removed: the position cap is derived, not set.
    (["balance", "tribonacci", "5", "--scan-cap", "0"], 2),
    (["balance", "tribonacci", "5", "--scan-cap", "-5"], 2),
    (["discrepancy", "3", "10"], 2),
    (["discrepancy", "0", "10", "--max-buffer", "5"], 3),
    (["zeckendorf", "-1"], 2),
    (["constants", "--out", "MISSING"], 2),
    (["special", "mbonacci:300", "1", "3"], 2),
    (["special", "tribonacci", "1", "5", "--max-buffer", "2"], 3),
    (["verify", "--json", "MISSING"], 2),
    (["generate", "mbonacci:11", "3000"], 2),
])
def test_bad_input_exits_without_traceback(capsys, monkeypatch, tmp_path, argv, expected):
    import tribalance.verify as verify

    monkeypatch.setattr(verify, "CLAIMS", tuple(
        c for c in verify.CLAIMS if c.claim_id == "spectral_constants_5dp"))
    argv = [str(tmp_path / "missing" / "x") if a == "MISSING" else a for a in argv]
    # Any exception other than SystemExit escaping main() would be a traceback.
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == expected
    assert "Traceback" not in err
    last = err.splitlines()[-1]
    assert last.startswith("resource failure: " if expected == 3 else ("error: ", "tribalance"))
    if any(a.endswith("missing/x") for a in argv):
        assert last.startswith("error: cannot write ") and "missing/x: " in last


def test_rho_single(capsys):
    code, out, _ = run(capsys, "rho", "tribonacci", "30", "30")
    assert code == 0
    assert out.splitlines()[-1] == "30,5"


def test_rho_csv_is_byte_stable(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["rho", "tribonacci", "1", "50", "--out", str(a)]) == 0
    assert main(["rho", "tribonacci", "1", "50", "--out", str(b), "--threads", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()  # LF line endings


def test_balance_profile(capsys):
    code, out, err = run(capsys, "balance", "tribonacci", "40")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,rho,max_imbalance_0,max_imbalance_1,max_imbalance_2"
    assert lines[1] == "1,3,1,1,1"
    assert "global maximum imbalance: 2" in err


def test_balance_trivial_length(capsys):
    code, out, _ = run(capsys, "balance", "tribonacci", "1")
    assert code == 0
    assert out.splitlines()[1] == "1,3,1,1,1"


def test_balance_fourbonacci_reports_witness(capsys):
    code, out, err = run(capsys, "balance", "mbonacci:4", "3305", "--threads", "2")
    assert code == 0
    assert out.splitlines()[-1].startswith("3305,")
    assert "global maximum imbalance: 3" in err
    assert "imbalance witness: 1,3305,2663,9048,891,888" in err


def test_resource_exit_code(capsys):
    # The Fibonacci word still takes the window route, which the caps bind.
    code, _, err = run(capsys, "rho", "mbonacci:2", "1", "500", "--max-buffer", "64")
    assert code == 3
    # The refusal names the need, not one growth step: the lengths and
    # letters, the first index region and its position-cap bound, the cap.
    assert err == ("resource failure: lengths up to 500 on 2 letters need an index region of "
                   "5032 symbols (at most 36661: the position cap 36160 plus 501), past the "
                   "buffer cap of 64 symbols (--max-buffer)\n")


@pytest.mark.parametrize("cap", [["--max-buffer", "64"], []])
@pytest.mark.parametrize("argv", [["rho", "tribonacci", "1", "500"],
                                  ["rho", "tribonacci", "200", "200"],
                                  ["balance", "tribonacci", "300"]])
def test_caps_do_not_bind_the_tribonacci_automaton(capsys, monkeypatch, argv, cap):
    # The automaton reads no buffer: these exited 3 on the window route
    # under --max-buffer 64, or (no flag) under a 10-start position cap.
    expected = run(capsys, *argv)
    if not cap:
        cap_positions(monkeypatch, 10)
    assert run(capsys, *argv, *cap) == expected
    assert expected[0] == 0


def test_max_buffer_covers_adaptive_region(capsys):
    # The index region starts near 8n symbols, so a cap well below the
    # 64n + 4096 position cap suffices and changes no output byte.
    code, out, _ = run(capsys, "rho", "mbonacci:2", "1", "500", "--max-buffer", "10000")
    assert code == 0
    assert out == run(capsys, "rho", "mbonacci:2", "1", "500")[1]


def test_saturation_cap_exit_code(capsys, monkeypatch):
    cap_positions(monkeypatch, 10)
    code, _, err = run(capsys, "rho", "mbonacci:2", "200", "200")
    assert code == 3
    assert err == ("resource failure: region of 211 symbols holds 12 factors of "
                   "length 200, target 201\n")
    code, _, err = run(capsys, "special", "tribonacci", "1", "5")
    assert code == 3
    assert err == ("resource failure: length 3 saturates only at window start 12, "
                   "beyond the cap 10\n")


def test_saturation_cap_exit_code_balance(capsys, monkeypatch):
    cap_positions(monkeypatch, 2000)
    code, _, err = run(capsys, "balance", "mbonacci:4", "400")
    assert code == 3
    assert err == ("resource failure: region of 2401 symbols holds 675 factors of "
                   "length 225, target 676\n")


@pytest.mark.parametrize("argv", [["rho", "tribonacci", "1", "300"],
                                  ["balance", "mbonacci:4", "300"]])
def test_csv_bytes_independent_of_threads(capsys, argv):
    code1, out1, err1 = run(capsys, *argv, "--threads", "1")
    code4, out4, err4 = run(capsys, *argv, "--threads", "4")
    assert code1 == code4 == 0
    assert (out1, err1) == (out4, err4)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_full_size_csv_golden_digests(capsys):
    # The paper's full certified profiles; these digests were taken from
    # the sorting pass over the full capped index region.
    code, out, _ = run(capsys, "rho", "tribonacci", "1", "7199", "--threads", "2")
    assert code == 0
    assert _sha256(out) == "fbaa502158be5751916ee034f1245e44d57195ef6d8406d4ad7649c40e89ec25"
    code, out, err = run(capsys, "balance", "mbonacci:4", "3305", "--threads", "2")
    assert code == 0
    assert _sha256(out) == "e58f4746dd2b6eee0ffb87e56966230e0f15156d9ff5218f91f5ce788c853381"
    assert err.splitlines()[-1] == "imbalance witness: 1,3305,2663,9048,891,888"


@pytest.mark.parametrize("argv, digest", [
    (("rho", "mbonacci:2", "1", "2000"),
     "6fad98e44ac49b1b6075bd44895c509d48d0915d15b515bf242d70fc1e69527d"),
    # Key spaces above 32 values: the np.bincount route.
    (("rho", "mbonacci:5", "1", "600"),
     "e426685cf008621aeac849e04776d3d0c2f46c36fa1e929a4583045879e65a1d"),
    (("balance", "mbonacci:6", "300"),
     "bcba08ebfdc9d93de861810f975f83db9d7f180f7b7a88354ad6c75e5bce3456"),
])
def test_window_pass_golden_digests_other_orders(capsys, argv, digest):
    # Orders the benchmark does not run; the digests were taken from the
    # window pass over every window start up to each certified bound.
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert _sha256(out) == digest


@pytest.mark.parametrize("block", [None, 4097])
def test_tribonacci_automaton_golden_digests(capsys, monkeypatch, block):
    # Digests taken from the certified window pass the automaton replaced
    # for the Tribonacci word; the rows stream out block by block, and
    # balance keeps its maximum across the blocks.
    import tribalance.synchronized as synchronized

    if block is not None:
        monkeypatch.setattr(synchronized, "BLOCK", block)
    code, out, err = run(capsys, "rho", "tribonacci", "1", "20000")
    assert (code, err) == (0, "")
    assert _sha256(out) == "60f0a2402bce5efbcbadee2cd63833df0e97e5a380ebfe9968a8f3fcd36c3866"
    code, out, err = run(capsys, "balance", "tribonacci", "7199")
    assert (code, err) == (0, "global maximum imbalance: 2\n")
    assert _sha256(out) == "2374745424d7f78ee9546fa41888d99194dbf19fa3517a6424d44e1d865eed0c"


#: Digests of ``rho mbonacci:m 1 200``, taken when the position cap could
#: still be set.
HIGH_ORDER_DIGESTS = {
    7: "20e6a3abf4f4c33ba9d8b885302bda217f35a279ef41c2fd616ef8ba09945916",
    8: "0336ff099a6ca4833fd7390f3e8273d55a2d68497c966ad7ced617add4f6a8a8",
    9: "7333b4329f62f70e820fc97ab0742f118f3e944e02e43546946ccc27f4571180",
    10: "165badf45be67faa40b85b8a98f08b0aeae3ebd93eef4eeb43c5c02ba51b68c5",
}


@pytest.mark.parametrize("m", [7, 8, 9, 10])
def test_default_cap_reaches_high_orders(capsys, monkeypatch, m):
    # The default cap grows as 2^m, past the first occurrence of every
    # factor; at 64n + 4096 these exited 3 (m = 7 at n = 129, m = 10 at n = 9).
    # A 10^7 cap changes no byte.
    code, out, _ = run(capsys, "rho", f"mbonacci:{m}", "1", "200")
    assert code == 0
    assert _sha256(out) == HIGH_ORDER_DIGESTS[m]
    cap_positions(monkeypatch, 10**7)
    assert run(capsys, "rho", f"mbonacci:{m}", "1", "200")[1] == out


def test_discrepancy(capsys):
    code, out, err = run(capsys, "discrepancy", "0", "50")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,discrepancy"
    assert lines[1] == "0,0"
    assert len(lines) == 52
    assert "contained: True" in err


def test_discrepancy_golden_digests(capsys):
    # Digests taken from the per-row csv.writer loop the block writer
    # replaced; stderr holds the progress line and the containment summary.
    code, out, err = run(capsys, "discrepancy", "0", "200000")
    assert code == 0
    assert _sha256(out) == "0012a1df929b5cbdb48df69b904300f50695e0f5508c96e6c09585c0f3fdf6d3"
    assert _sha256(err) == "9506cfc20c3a9b437c6961c5bae4d00710dea795ab69ec46b2de310c39c7c848"


#: The options each command takes: those it reads, and --threads where the
#: benchmark passes it.
COMMAND_FLAGS = {
    "generate": {"--out", "--max-buffer"},
    "rho": {"--out", "--threads", "--max-buffer"},
    "balance": {"--out", "--threads", "--max-buffer"},
    "discrepancy": {"--out", "--threads", "--max-buffer"},
    "zeckendorf": set(),
    "constants": {"--out"},
    "special": {"--out", "--max-buffer"},
    "verify": {"--suite", "--json", "--threads", "--seed", "--max-buffer"},
}

POSITIONALS = {
    "generate": ["tribonacci", "5"],
    "rho": ["tribonacci", "1", "5"],
    "balance": ["tribonacci", "5"],
    "discrepancy": ["0", "10"],
    "zeckendorf": ["6"],
    "constants": [],
    "special": ["tribonacci", "1", "5"],
    "verify": [],
}

#: A value for each flag above, and for the removed --scan-cap, which every
#: command refuses.
FLAG_VALUES = {"--out": "out.csv", "--suite": "paper", "--json": "report.json",
               "--threads": "2", "--seed": "9", "--max-buffer": "100000", "--scan-cap": "5000"}


def subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_each_command_takes_exactly_its_flags():
    taken = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
             for name, p in subcommands(build_parser()).items()}
    assert taken == COMMAND_FLAGS
    assert sum(map(len, taken.values())) == 19


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_command_accepts_its_flags_and_refuses_the_others(capsys, command):
    parser = build_parser()
    for flag, value in FLAG_VALUES.items():
        argv = [command, *POSITIONALS[command], flag, value]
        if flag in COMMAND_FLAGS[command]:
            assert parser.parse_args(argv).command == command
        else:
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args(argv)
            assert excinfo.value.code == 2
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def load_benchmark_workloads(monkeypatch):
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up by name while they are created.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("smoke", [True, False], ids=["smoke", "full"])
def test_benchmark_commands_parse(monkeypatch, tmp_path, smoke):
    workloads = load_benchmark_workloads(monkeypatch)
    parser = build_parser()
    parsed = []
    for workload in workloads.WORKLOADS:
        for cmd in workloads.commands(workload, 0, tmp_path, smoke):
            if cmd.argv[0] == "suite-subset":  # the tracer's own entry point
                continue
            parsed.append(parser.parse_args(list(cmd.argv)).command)
    assert sorted(parsed) == sorted(["rho", "balance", "discrepancy"] + ["verify"] * (not smoke))


def test_zeckendorf(capsys):
    assert run(capsys, "zeckendorf", "6")[1] == "011\n"
    assert run(capsys, "zeckendorf", "1")[1] == "1\n"
    assert run(capsys, "zeckendorf", "7")[1] == "0001\n"
    assert run(capsys, "zeckendorf", "0")[1] == "\n"


def test_constants(capsys):
    code, out, _ = run(capsys, "constants")
    assert code == 0
    lines = dict(line.split("=") for line in out.splitlines())
    assert set(lines) == {
        "beta", "abs_alpha", "abs_a_alpha", "factor_i0", "factor_i1", "factor_i2",
    }
    assert lines["beta"] == "1.83928675521"
    assert lines["abs_a_alpha"] == "0.141353707564"


def test_special_report(capsys):
    code, out, _ = run(capsys, "special", "tribonacci", "1", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,right_special_word,i,j,k,bispecial,rho,rho3_closed_form"
    assert lines[1] == "1,,0,0,0,1,3,1"
    assert lines[2] == "2,0,1,0,0,1,3,1"
    assert lines[4] == "4,010,2,1,0,1,3,1"


def test_special_report_tribonacci_bytes(capsys):
    # Golden digest: the Tribonacci report is byte-stable whatever the
    # column layout chosen for other alphabet sizes.
    code, out, _ = run(capsys, "special", "tribonacci", "1", "40")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "167c0acee963da712c72e3142abcbf0a1b93df5e367e4efe49cd131b76da84ba"
    )


@pytest.mark.parametrize("word_spec, n_to, digest", [
    ("tribonacci", 2000, "1a55f31d6b28b470828c03647f6a035d1b9a65d65f186b67dd65cd94c3696c96"),
    ("mbonacci:4", 200, "f3691b4ed03df61cdc731b3ee7ce0e3052ad4289f92d266c5a3ff9e83848acb5"),
    ("mbonacci:2", 300, "bf1e847b850be4f033cbc5a0da764c4084ffeea464ccdaf9b6f57268c56ea4ec"),
])
def test_special_report_golden_digests(capsys, word_spec, n_to, digest):
    # Digests taken from the per-length scanner route the index replaced.
    code, out, _ = run(capsys, "special", word_spec, "1", str(n_to))
    assert code == 0
    assert _sha256(out) == digest


def test_outputs_opened_before_computing(capsys, monkeypatch, tmp_path):
    # An unwritable --out or --json path fails before any profile or claim
    # runs.
    import tribalance.abelian as abelian
    import tribalance.synchronized as synchronized
    import tribalance.verify as verify

    def refuse(*args, **kwargs):
        raise AssertionError("computed before the output was opened")

    monkeypatch.setattr(verify, "run_suite", refuse)
    monkeypatch.setattr(abelian, "abelian_profile", refuse)
    monkeypatch.setattr(synchronized, "synchronized_profile", refuse)
    missing = str(tmp_path / "missing" / "x")
    for argv in (["verify", "--json", missing],
                 ["rho", "tribonacci", "1", "50", "--out", missing],
                 ["balance", "tribonacci", "50", "--out", missing],
                 ["rho", "mbonacci:4", "1", "50", "--out", missing],
                 ["balance", "mbonacci:2", "50", "--out", missing]):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: cannot write {missing}: ")


def test_generate_refuses_an_order_past_256(capsys):
    code, out, err = run(capsys, "generate", "mbonacci:257", "5")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: m-bonacci order must be an integer in 2..256, got 257"]


@pytest.mark.parametrize("order", ["1", "0", "-3"])
def test_generate_refuses_an_order_below_2_as_past_256(capsys, order):
    # Both ends of 2..256 are refused by mbonacci_word, with one message.
    code, out, err = run(capsys, "generate", f"mbonacci:{order}", "5")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: m-bonacci order must be an integer in 2..256, got {order}"]


def test_generate_refuses_an_order_that_is_no_integer(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "mbonacci:x", "5"])
    assert excinfo.value.code == 2
    assert "bad word spec 'mbonacci:x': m-bonacci order must be an integer\n" in capsys.readouterr().err


def test_special_refuses_two_digit_symbols_before_any_output(capsys, tmp_path):
    # The 11-bonacci word first shows the symbol 10 at position 1023, so
    # rows up to n = 1024 print, and n = 1025 (a right-special factor of
    # length 1024) is refused before the report is opened.
    path = tmp_path / "special.csv"
    code, out, err = run(capsys, "special", "mbonacci:11", "1", "1025", "--out", str(path))
    assert (code, out) == (2, "")
    assert err == "error: symbol 10 has no one-digit text form; text covers the symbols 0..9\n"
    assert not path.exists()
    code, out, _ = run(capsys, "special", "mbonacci:11", "1", "1025")
    assert (code, out) == (2, "")
    code, out, _ = run(capsys, "special", "mbonacci:11", "1", "1024")
    assert code == 0
    assert _sha256(out) == "b949f384392ced55bcff49195ff21b4594c972aee02115753bed191db63d4036"


@pytest.mark.parametrize("m", [2, 3, 4])
def test_special_report_columns_follow_alphabet(capsys, m):
    code, out, _ = run(capsys, "special", f"mbonacci:{m}", "1", "12")
    assert code == 0
    header, *rows = [line.split(",") for line in out.splitlines()]
    assert len(rows) == 12
    assert all(len(row) == len(header) for row in rows)
    assert len(header) == 4 + m + (m == 3)
    assert ("rho3_closed_form" in header) == (m == 3)


def test_verify_subset_passes(capsys, tmp_path, monkeypatch):
    import tribalance.verify as verify

    subset = {"rho_sequence_1_42", "rho_3914_is_7", "spectral_constants_5dp",
              "zeckendorf_uniqueness_1e4"}
    monkeypatch.setattr(
        verify, "CLAIMS", tuple(c for c in verify.CLAIMS if c.claim_id in subset)
    )
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", "paper", "--json", str(path))
    assert code == 0
    assert out.count("PASS") == 4
    report = json.loads(path.read_text())
    assert report["suite"] == "paper"
    ids = [c["claim_id"] for c in report["claims"]]
    assert sorted(ids) == sorted(subset)
    for claim in report["claims"]:
        assert claim["status"] == "pass"
        assert claim["runtime_ms"] >= 0
    by_id = {c["claim_id"]: c for c in report["claims"]}
    assert by_id["rho_3914_is_7"]["expected"] == 7
    assert by_id["rho_3914_is_7"]["observed"] == 7


@pytest.mark.parametrize("argv, header", [
    (["rho", "tribonacci", "1", "20000"], b"n,rho\n"),
    (["discrepancy", "0", "100000"], b"N,discrepancy\n"),
])
def test_closed_stdout_exits_141_without_a_traceback(argv, header):
    # The reader takes the header and leaves, as `| head -1` does, while
    # far more output than a pipe buffers is still to come.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, "-m", "tribalance", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == header
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_verify_degraded_mode_skips_and_fails(capsys, tmp_path, monkeypatch):
    # With a tiny buffer cap, saturation-dependent claims must report
    # "skipped", and the run must exit 1.
    import tribalance.verify as verify

    subset = {"rho_sequence_1_42", "spectral_constants_5dp"}
    monkeypatch.setattr(
        verify, "CLAIMS", tuple(c for c in verify.CLAIMS if c.claim_id in subset)
    )
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--suite", "paper", "--json", str(path), "--max-buffer", "64"
    )
    assert code == 1
    report = json.loads(path.read_text())
    statuses = {c["claim_id"]: c["status"] for c in report["claims"]}
    assert statuses["rho_sequence_1_42"] == "skipped"
    assert statuses["spectral_constants_5dp"] == "pass"


def run_tracer(*argv):
    root = ROOT
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "tracer.py"), *argv],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_benchmark_tracer_installs(tmp_path):
    # The benchmark tracer wraps every layer's functions by name and fails
    # on a name the package no longer has, so one traced run checks that a
    # refactor kept every name it wraps.
    spans = tmp_path / "spans.json"
    run_tracer("--spans", str(spans), "--", "special", "tribonacci", "1", "30")
    names = {s["name"] for s in json.loads(spans.read_text())["spans"]}
    assert {"special.right_special", "factors.factor_index", "abelian.profile"} <= names


def test_benchmark_tracer_speedup_calls_the_profile():
    # --speedup calls factor_index, prefix_counts and abelian_profile(...,
    # threads=, collect_vectors=) directly.
    result = json.loads(run_tracer("--speedup", "3,1,40,0"))
    assert result["pairs"] and result["speedup"] > 0


def test_benchmark_tracer_suite_subset(tmp_path):
    # suite-subset builds SuiteConfig(seed=, threads=) and calls run_suite.
    report = tmp_path / "report.json"
    run_tracer("--", "suite-subset", "--claims", "rho_sequence_1_42", "--seed", "0",
               "--threads", "2", "--json", str(report))
    (claim,) = json.loads(report.read_text())["claims"]
    assert (claim["claim_id"], claim["status"]) == ("rho_sequence_1_42", "pass")
