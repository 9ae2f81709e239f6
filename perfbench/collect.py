"""Merge result files of ``run.py`` into one summary, one entry per workload.

    python3 perfbench/collect.py LABEL RESULT.json [RESULT.json ...] > BENCH_LABEL.json

For every metric the summary gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), their distance as a share
of the median, and every run's value; untraced and traced runs are kept apart.
The metadata of each run (git sha, versions, nproc, seed, load average) is
kept alongside.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import spread


def summarize(values: list[float]) -> dict:
    s = spread(values)
    s["iqr_share"] = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
    s["values"] = values
    return s


def collect(label: str, paths: list[Path]) -> dict:
    groups: dict[str, dict] = {}
    for path in paths:
        run = json.loads(path.read_text())
        mode = "traced" if run["trace"] else "untraced"
        for res in run["workloads"]:
            group = groups.setdefault(f"{res['workload']}/{mode}",
                                      {"runs": [], "correct": True, "metrics": {}})
            group["runs"].append(dict(run["meta"], seconds=run["seconds"], smoke=run["smoke"],
                                      attempted=res["attempted"], failed=res["failed"]))
            group["correct"] = group["correct"] and res["failed"] == 0
            for name, value in res["metrics"].items():
                group["metrics"].setdefault(name, []).append(value)
    for group in groups.values():
        group["metrics"] = {k: summarize(v) for k, v in group["metrics"].items()}
    return {"label": label, "results": dict(sorted(groups.items()))}


if __name__ == "__main__":
    print(json.dumps(collect(sys.argv[1], [Path(p) for p in sys.argv[2:]]), indent=1))
