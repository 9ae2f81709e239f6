"""Workloads of the tribalance benchmark and the checks on their outputs.

Each workload is a closed loop: one process runs one command after another,
each command a fresh ``tribalance`` process with ``--threads 2``.

- ``profile_bulk``: the certified abelian-complexity profile of the
  Tribonacci word to n = 7199 (the lengths behind 30, 342, 3914 and the
  recurring 7s), then the 4-bonacci balance profile to 3305.  Factor-index
  construction and the per-length profile pass do nearly all of the work;
  two alphabet sizes keep a Tribonacci-only fast path honest.
- ``discrepancy_1e6``: the prefix-discrepancy table to 10^6, written as
  10^6 + 1 CSV rows.  Buffer growth, prefix counts and the CSV writer do the
  work; the factor, abelian and numeration layers stay idle.
- ``verify_paper``: the full paper-reproduction suite of 22 claims.  The only
  workload that runs the numeration codec, the spectral digit route, the
  special-factor geometry and the per-query factor scanner.

``discrepancy_1e6`` is not listed in ``BENCHMARK.json``: on a shared 2-core
machine its pure-Python row loop changed speed by up to 30% between runs a
few minutes apart, more than any bound allows.  It stays runnable on its
own and in ``--workload all``.

Only ``verify_paper`` depends on the seed (it is forwarded to
``verify --seed``); the other two are fixed by the paper's sizes.  Smoke mode
runs the same layers at small sizes, for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("profile_bulk", "discrepancy_1e6", "verify_paper")

THREADS = ("--threads", "2")

#: Seed whose full claim report is stored in the reference file.
DEFAULT_SEED = 0

#: Claims whose observed values depend on --seed; for other seeds they are
#: only required to pass.
SEEDED_CLAIMS = frozenset({"eq1_oracle_equivalence_1e6", "factor_count_saturation_20_samples"})

#: A cheap subset of the suite, one of them seeded, for smoke mode.
SMOKE_CLAIMS = ("rho_sequence_1_42", "zeckendorf_uniqueness_1e4",
                "factor_count_saturation_20_samples")

REFERENCE = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Command:
    """One invocation: ``ref`` names its entry in the reference file,
    ``argv`` are the arguments of ``tribalance``, ``report`` is the JSON claim
    report a suite command writes."""

    ref: str
    argv: tuple[str, ...]
    report: Path | None = None


def commands(workload: str, seed: int, work: Path, smoke: bool) -> list[Command]:
    if workload == "profile_bulk":
        if smoke:
            return [Command("rho", ("rho", "tribonacci", "1", "200", *THREADS)),
                    Command("balance", ("balance", "mbonacci:4", "200", *THREADS))]
        return [Command("rho", ("rho", "tribonacci", "1", "7199", *THREADS)),
                Command("balance", ("balance", "mbonacci:4", "3305", *THREADS))]
    if workload == "discrepancy_1e6":
        n_max = "10000" if smoke else "1000000"
        return [Command("discrepancy", ("discrepancy", "0", n_max, *THREADS))]
    if workload == "verify_paper":
        report = work / "report.json"
        if smoke:
            argv = ("suite-subset", "--claims", ",".join(SMOKE_CLAIMS), "--seed", str(seed),
                    "--json", str(report), *THREADS)
        else:
            argv = ("verify", "--suite", "paper", "--seed", str(seed),
                    "--json", str(report), *THREADS)
        return [Command("verify", argv, report)]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Outcome:
    """Checked result of one command: operations attempted and failed,
    units of work completed, and what went wrong."""

    attempted: int
    failed: int
    items: int
    problems: list[str]
    claim_ms: dict[str, float]


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def record(cmd: Command, out: Path, err: Path) -> dict:
    """Reference entry for a command run on a trusted commit."""
    if cmd.report is not None:
        claims = json.loads(cmd.report.read_text())["claims"]
        failing = [c["claim_id"] for c in claims if c["status"] != "pass"]
        if failing:
            raise RuntimeError(f"cannot record a reference with failing claims: {failing}")
        return {"claims": {c["claim_id"]: c["observed"] for c in claims}}
    lines = err.read_text().splitlines()
    # The summary lines of balance and discrepancy; progress lines are not kept.
    summary = [s for s in lines if s.startswith(("global maximum", "imbalance witness", "letter "))]
    rows = out.read_bytes().count(b"\n") - 1
    return {"sha256": digest(out), "rows": rows, "stderr": summary}


def check(cmd: Command, ref: dict, seed: int, exit_code: int, out: Path, err: Path) -> Outcome:
    """Compare one command's outputs with its reference entry.

    A CSV command is one operation: it fails on a non-zero exit, a stdout
    digest that differs from the reference, or a missing stderr summary line.
    A suite command is one operation per reference claim: a claim fails when
    it is missing, did not pass, or (for the default seed, and for every
    claim that does not depend on the seed) observed another value.
    """
    if cmd.report is not None:
        return _check_suite(cmd, ref, seed, exit_code)
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    elif digest(out) != ref["sha256"]:
        problems.append("stdout differs from the reference")
    else:
        lines = err.read_text().splitlines()
        problems += [f"stderr lacks {s!r}" for s in ref["stderr"] if s not in lines]
    items = 0 if problems else ref["rows"]
    return Outcome(1, 1 if problems else 0, items, problems, {})


def _check_suite(cmd: Command, ref: dict, seed: int, exit_code: int) -> Outcome:
    expected = ref["claims"]
    try:
        claims = {c["claim_id"]: c for c in json.loads(cmd.report.read_text())["claims"]}
    except (OSError, ValueError, KeyError, TypeError):
        claims = {}
    problems = []
    if not claims:
        problems.append(f"no claim report (exit code {exit_code})")
    passed = 0
    for cid, observed in expected.items():
        c = claims.get(cid)
        if c is None:
            problems.append(f"claim {cid} missing")
        elif c.get("status") != "pass":
            problems.append(f"claim {cid} status {c.get('status')}")
        elif (seed == DEFAULT_SEED or cid not in SEEDED_CLAIMS) and c.get("observed") != observed:
            problems.append(f"claim {cid} observed {c.get('observed')!r}, reference {observed!r}")
        else:
            passed += 1
    claim_ms = {cid: float(c.get("runtime_ms", 0.0)) for cid, c in claims.items()}
    failed = len(expected) - passed
    if exit_code != 0 and failed == 0:
        problems.append(f"exit code {exit_code} with every claim passing")
        failed = len(expected)
        passed = 0
    return Outcome(len(expected), failed, passed, problems, claim_ms)


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())
