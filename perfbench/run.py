"""Benchmark of the tribalance command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
    python3 perfbench/run.py --write-reference

Run from the root of a source checkout; the program is taken from ``src/``,
nothing is installed or built.  Workloads are described in ``workloads.py``.

``--trace 0`` measures end to end, with tracing off: it runs whole workload
iterations, each command in a fresh process, until the next iteration would
end after ``--seconds``, and reports the median over iterations of wall time,
child CPU time (user + sys), work items per second and child peak RSS.
``setup_s`` is interpreter start plus ``import tribalance.cli``, sampled
SETUP_SAMPLES times spread over the run (a few before the loop, one before
every iteration, the rest after it); it reports the minimum, which a slow
moment of a shared machine does not raise.  Every output is checked against
``reference.json``; a failed operation counts in ``failed``, and the
``failed_ratio`` line of the summary.

``--trace 1`` runs untraced iterations for half of ``--seconds``, then the
workload once with every layer wrapped from the outside (``tracer.py``), then
one more untraced iteration, then the profile pass at one and two threads,
and reports the per-layer metrics.  ``trace.overhead_ratio`` divides the
traced iteration by the mean of its two untraced neighbours.  Spans are
written under ``.perfbench_work/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result file with the run's
metadata (git sha, Python and numpy versions, nproc, seed, load average at
start and end) and every iteration is written to ``--result`` or under
``.perfbench_work/results/``.  ``--smoke`` runs the small sizes and checks
them against the smoke references.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 21
SETUP_SAMPLES_FIRST = 5
CHILD_TIMEOUT_S = 170


def _units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], out: Path, err: Path) -> dict:
    """Run ``python3 *args`` from the checkout root; wall time from spawn to
    exit, CPU time and peak RSS of that child alone."""
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=stdout, stderr=stderr,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    return {"exit_code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6}


def measure_setup(work: Path, samples: list[float], count: int) -> None:
    """Append ``count`` timings of interpreter start plus the CLI import."""
    args = ["-c", "import tribalance.cli"]
    for _ in range(count):
        child = run_child(args, work / "setup.out", work / "setup.err")
        if child["exit_code"] != 0:
            raise RuntimeError((work / "setup.err").read_text())
        samples.append(child["wall_s"])


def run_iteration(workload: str, seed: int, work: Path, smoke: bool, ref: dict,
                  spans_dir: Path | None = None) -> dict:
    """One pass over the workload's commands, each checked."""
    it = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "attempted": 0, "failed": 0,
          "items": 0, "rows_out": 0, "bytes_out": 0, "problems": [], "claim_ms": {},
          "spans": []}
    for cmd in workloads.commands(workload, seed, work, smoke):
        out, err = work / f"{cmd.ref}.out", work / f"{cmd.ref}.err"
        if cmd.report is not None:
            cmd.report.unlink(missing_ok=True)
        args = [str(BENCH / "tracer.py")]
        if spans_dir is not None:
            spans = spans_dir / f"{workload}-{cmd.ref}.json"
            args += ["--spans", str(spans)]
            it["spans"].append(str(spans))
        child = run_child(args + ["--", *cmd.argv], out, err)
        outcome = workloads.check(cmd, ref[cmd.ref], seed, child["exit_code"], out, err)
        it["wall_s"] += child["wall_s"]
        it["cpu_s"] += child["cpu_s"]
        it["peak_rss_mb"] = max(it["peak_rss_mb"], child["peak_rss_mb"])
        it["attempted"] += outcome.attempted
        it["failed"] += outcome.failed
        it["items"] += outcome.items
        it["problems"] += [f"{cmd.ref}: {p}" for p in outcome.problems]
        it["claim_ms"].update(outcome.claim_ms)
        it["rows_out"] += out.read_bytes().count(b"\n")
        it["bytes_out"] += out.stat().st_size
        out.unlink()
    return it


def run_loop(workload: str, seed: int, seconds: float, work: Path, smoke: bool,
             ref: dict, setup: list[float]) -> list[dict]:
    """Closed loop of whole iterations, each after one set-up sample; stops
    before one that would end past ``seconds`` (at least one iteration runs)."""
    iterations = []
    start = time.perf_counter()
    while True:
        measure_setup(work, setup, 1)
        iterations.append(run_iteration(workload, seed, work, smoke, ref))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(i["wall_s"] for i in iterations) > seconds:
            return iterations


def spread(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def end_to_end(iterations: list[dict], setup: list[float]) -> dict:
    """Median and quartiles of each metric; ``value`` is what the run reports
    (the median, but the minimum for set-up time)."""
    series = {
        "wall_s": [i["wall_s"] for i in iterations],
        "cpu_s": [i["cpu_s"] for i in iterations],
        "items_per_s": [i["items"] / i["wall_s"] for i in iterations],
        "peak_rss_mb": [i["peak_rss_mb"] for i in iterations],
        "setup_s": setup,
    }
    summary = {name: spread(values) for name, values in series.items()}
    for name, s in summary.items():
        s["value"] = min(setup) if name == "setup_s" else s["median"]
    return summary


def traced_metrics(workload: str, seed: int, work: Path, smoke: bool, ref: dict,
                   iterations: list[dict], claim_ids) -> tuple[dict, dict]:
    """Per-layer metrics from one traced iteration, run between the last
    untraced iteration and one more (appended to ``iterations``), plus the
    thread speed-up."""
    spans_dir = WORK / "spans" / work.name
    spans_dir.mkdir(parents=True, exist_ok=True)
    before_s = iterations[-1]["wall_s"]
    traced = run_iteration(workload, seed, work, smoke, ref, spans_dir)
    iterations.append(run_iteration(workload, seed, work, smoke, ref))
    neighbours_s = statistics.mean((before_s, iterations[-1]["wall_s"]))
    totals: dict = {"cli.rows_out": traced["rows_out"], "cli.bytes_out": traced["bytes_out"]}
    for path in map(Path, traced["spans"]):
        if not path.is_file():  # the command crashed; the check counted it as failed
            continue
        for key, value in json.loads(path.read_text())["totals"].items():
            totals[key] = totals.get(key, 0 if not isinstance(value, list) else []) + value

    speedup = 0.0
    calls = totals.get("profile_calls", [])
    if calls:
        specs = [f"{m},{lo},{hi},{int(vec)}" for m, lo, hi, vec in calls]
        out, err = work / "speedup.out", work / "speedup.err"
        child = run_child([str(BENCH / "tracer.py"), "--speedup", *specs], out, err)
        if child["exit_code"] != 0:
            raise RuntimeError(f"thread speed-up not measured: {err.read_text()}")
        speedup = json.loads(out.read_text())["speedup"]

    claim_ms = {cid: statistics.median(i["claim_ms"].get(cid, 0.0) for i in iterations)
                for cid in claim_ids}
    metrics = tracer.layer_metrics(totals, claim_ms, speedup, traced["wall_s"], neighbours_s,
                                   claim_ids)
    return metrics, traced


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metadata(seed: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }


def run_workload(workload: str, args, ref: dict, claim_ids) -> dict:
    work = WORK / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup: list[float] = []
        measure_setup(work, [], 1)  # compiles the bytecode
        measure_setup(work, setup, SETUP_SAMPLES_FIRST)
        budget = args.seconds / 2 if args.trace else args.seconds
        iterations = run_loop(workload, args.seed, budget, work, args.smoke, ref, setup)
        runs = list(iterations)
        if args.trace:
            metrics, traced = traced_metrics(workload, args.seed, work, args.smoke, ref,
                                             iterations, claim_ids)
            runs = [*runs, dict(traced, traced=True), iterations[-1]]
        measure_setup(work, setup, max(0, SETUP_SAMPLES - len(setup)))
        summary = end_to_end(iterations, setup)
        if not args.trace:
            metrics = {name: summary[name]["value"] for name in _units("end_to_end")}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"workload": workload, "summary": summary, "metrics": metrics, "iterations": runs,
            "attempted": sum(i["attempted"] for i in runs),
            "failed": sum(i["failed"] for i in runs),
            "problems": [p for i in runs for p in i["problems"]]}


def print_summary(res: dict, trace: bool) -> None:
    w = res["workload"]
    for p in res["problems"]:
        print(f"{w}  FAILED  {p}")
    for name, unit in _units("end_to_end").items():
        s = res["summary"][name]
        stat = "minimum" if name == "setup_s" else "median"
        print(f"{w:16s} {name:14s} {s['value']:12.6g} {unit:4s} "
              f"({stat} of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    ratio = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"{w:16s} {'failed_ratio':14s} {ratio:12.6g} ratio "
          f"({res['failed']} of {res['attempted']} operations)")
    if trace:
        for name, value in res["metrics"].items():
            print(f"{w:16s} {name:48s} {value:14.6g}")


def write_reference(path: Path) -> None:
    ref: dict = {"default_seed": workloads.DEFAULT_SEED}
    for smoke in (False, True):
        section = {}
        for workload in workloads.WORKLOADS:
            work = WORK / f"reference-{os.getpid()}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                for cmd in workloads.commands(workload, workloads.DEFAULT_SEED, work, smoke):
                    out, err = work / "out", work / "err"
                    child = run_child([str(BENCH / "tracer.py"), "--", *cmd.argv], out, err)
                    if child["exit_code"] != 0:
                        raise RuntimeError(f"{cmd.argv} exited {child['exit_code']}: "
                                           f"{err.read_text()}")
                    section[cmd.ref] = workloads.record(cmd, out, err)
            finally:
                shutil.rmtree(work, ignore_errors=True)
        ref["smoke" if smoke else "full"] = section
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small sizes, for the benchmark's tests")
    p.add_argument("--reference", type=Path, default=workloads.REFERENCE)
    p.add_argument("--result", type=Path, help="result file (default under .perfbench_work)")
    p.add_argument("--write-reference", action="store_true",
                   help="regenerate reference.json from the program in src/")
    args = p.parse_args()

    if not (ROOT / "src" / "tribalance" / "cli.py").is_file():
        print(f"error: no tribalance sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference(args.reference)
        return 0
    if args.workload is None:
        p.error("--workload is required")

    reference = workloads.load_reference(args.reference)
    ref = reference["smoke" if args.smoke else "full"]
    claim_ids = sorted(reference["full"]["verify"]["claims"])
    meta = metadata(args.seed)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in names:
        res = run_workload(workload, args, ref, claim_ids)
        print_summary(res, bool(args.trace))
        results.append(res)
    meta["loadavg_end"] = list(os.getloadavg())

    units = _units("per_layer" if args.trace else "end_to_end")
    prefix = len(results) > 1
    metrics = {(f"{r['workload']}." if prefix else "") + k: {"value": v, "unit": units[k]}
               for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    result_path = args.result or WORK / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
        f"-{os.getpid()}.json")
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps({
        "meta": meta, "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "workloads": results, "output": line}, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
