"""Child process of the tribalance benchmark: runs one command, optionally traced.

    python3 perfbench/tracer.py [--spans PATH] -- <tribalance arguments>
    python3 perfbench/tracer.py --speedup M,N_FROM,N_TO,VECTORS [...]

The first form runs ``tribalance.cli.main(argv)`` in this process, exactly as
the ``tribalance`` console script does, and exits with its code.  With
``--spans`` it first wraps the public functions of every layer (the modules of
``src/tribalance``) from the outside and, after the command, writes the spans,
the per-value aggregates and the additive per-layer totals to PATH.  The
pseudo-command ``suite-subset`` runs ``verify.run_suite`` on a few claims; the
benchmark's smoke mode uses it in place of the full ``verify`` command.

The second form times ``abelian.abelian_profile`` at one and at two threads
over prebuilt factor indexes, for every listed profile call.  It alternates
the order of the two passes over several pairs and prints each pair's times
and the median of the pairs' speed-ups as JSON.

Tracing model: a span records name, start, end, parent and self time (its
duration minus the time of the wrapped calls nested in it).  Functions called
once per value are aggregated into a count plus total and self time instead.
A layer's self time is the sum of the self times of its spans and aggregates,
so the layers' self times add up to the part of the root span they cover.

Coverage: the self time of the root and of the dispatcher spans (``cli.main``,
``verify.run_suite`` and each ``verify.claim``) is time that no leaf function
of a layer covers: argument parsing, dispatch, and the claims' own loops.  Its
share of the root is ``trace.unattributed_ratio``, so time moving into code
that no wrapper reaches shows up as a number.  A name the tracer wraps that
the program no longer has is an error, not a silent zero.
"""

from __future__ import annotations

import argparse
import dataclasses
import contextlib
import functools
import itertools
import json
import statistics
import sys
import threading
import time
import weakref
from pathlib import Path

LAYERS = ("words", "factors", "abelian", "numeration", "spectral", "special", "verify", "cli")

#: Spans whose own code dispatches to the layers rather than doing their work.
DISPATCHERS = ("cli.main", "verify.run_suite", "verify.claim")

#: Alternating pairs of one- and two-thread profile passes behind the speed-up.
SPEEDUP_PAIRS = 3

SUITE_SUBSET = "suite-subset"


class Tracer:
    """In-memory span and aggregate recorder.

    Spans may be recorded from any thread (each thread keeps its own stack of
    open frames); aggregates are updated without a lock and are only used for
    functions that the benchmarked commands call from the main thread.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.aggregates: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self._ids = itertools.count()
        self._local = threading.local()
        self.last_index = None  # most recent index returned by factors.factor_index

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin(self, layer: str) -> list:
        """Open a frame: [nested_s, span_id, layer, parent_id, start]."""
        stack = self._stack()
        frame = [0.0, next(self._ids), layer, stack[-1][1] if stack else None,
                 time.perf_counter()]
        stack.append(frame)
        return frame

    def end(self, frame: list, name: str, attrs: dict | None = None) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[4]
        if stack:
            stack[-1][0] += duration
        self.spans.append({
            "id": frame[1], "parent": frame[3], "name": name,
            "start": frame[4], "end": end, "self_s": duration - frame[0],
            "attrs": attrs or {},
        })

    def end_aggregate(self, frame: list, name: str) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[4]
        if stack:
            stack[-1][0] += duration
        agg = self.aggregates.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame[0]

    def span(self, name: str, fn, attrs=None):
        """Wrap fn so each call is a span; attrs(args, kwargs, result) adds
        attributes after a successful call."""

        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.begin(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(frame, name, {"raised": True})
                raise
            self.end(frame, name, attrs(args, kwargs, result) if attrs else None)
            return result

        return wrapper

    def aggregate(self, name: str, fn):
        """Wrap fn so calls only add to a count and a total.

        This is the hot path (millions of calls per run), so the frame logic
        is inlined, and a call nested directly in a frame of the same layer is
        only counted: its time already belongs to that layer.
        """
        layer = name.split(".", 1)[0]
        stack_of = self._stack
        agg = self.aggregates.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            if stack and stack[-1][2] == layer:
                agg[0] += 1
                return fn(*args, **kwargs)
            # Spans opened inside this call take the enclosing span as parent.
            frame = [0.0, stack[-1][1] if stack else None, layer]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]

        return wrapper


def _patch_everywhere(modules, owner, attr: str, make) -> None:
    """Replace owner.attr, and every module-level alias of the same object in
    the given modules, by make(original).  A missing name raises
    AttributeError."""
    original = getattr(owner, attr)
    wrapped = make(original)
    setattr(owner, attr, wrapped)
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer where they are looked up."""
    from tribalance import abelian, cli, factors, numeration, special, spectral, verify, words

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "tribalance" or n.startswith("tribalance.")]

    def patch(owner, attr, make):
        _patch_everywhere(modules, owner, attr, make)

    def span(name, attrs=None):
        return lambda fn: tracer.span(name, fn, attrs)

    def aggregate(name):
        return lambda fn: tracer.aggregate(name, fn)

    # words: growth only when the buffer actually grows; prefix_counts as a
    # span when it computes the array, as an aggregate when it returns the
    # array it returned last time.
    buffer_cls = words.WordBuffer
    ensure = buffer_cls.ensure

    @functools.wraps(ensure)
    def traced_ensure(buf, min_len, *args, **kwargs):
        if min_len <= len(buf):
            return ensure(buf, min_len, *args, **kwargs)
        before = len(buf)
        frame = tracer.begin("words")
        try:
            return ensure(buf, min_len, *args, **kwargs)
        finally:
            tracer.end(frame, "words.grow", {"symbols": len(buf) - before})

    buffer_cls.ensure = traced_ensure

    prop = buffer_cls.__dict__["prefix_counts"]
    last = weakref.WeakKeyDictionary()

    def traced_prefix_counts(buf):
        frame = tracer.begin("words")
        try:
            array = prop.fget(buf)
        except BaseException:
            tracer.end(frame, "words.prefix_counts", {"raised": True})
            raise
        if last.get(buf) is array:
            tracer.end_aggregate(frame, "words.prefix_counts_hit")
        else:
            last[buf] = array
            tracer.end(frame, "words.prefix_counts", {"bytes": int(array.nbytes)})
        return array

    buffer_cls.prefix_counts = property(traced_prefix_counts, doc=prop.__doc__)

    # factors
    def index_attrs(args, kwargs, result):
        index = args[0]
        return {"region_len": int(index.region_len), "states": int(index.n_states)}

    index_cls = factors.FactorIndex
    index_cls.__init__ = tracer.span("factors.index_build", index_cls.__init__, index_attrs)

    def factor_index_attrs(args, kwargs, result):
        tracer.last_index = result
        n_max = args[1] if len(args) > 1 else kwargs["n_max"]
        return {"n_max": int(n_max), "useful": int(result.cover_end[n_max])}

    def scan_attrs(args, kwargs, result):
        return {"n": int(result.n), "distinct": int(result.count),
                "positions": int(result.positions_scanned)}

    patch(factors, "factor_index", span("factors.factor_index", factor_index_attrs))
    patch(factors, "scan_distinct_factors", span("factors.scan", scan_attrs))

    # abelian
    def profile_attrs(args, kwargs, result):
        buf, n_from, n_to = args[0], args[1], args[2]
        vectors = args[5] if len(args) > 5 else kwargs.get("collect_vectors", False)
        # abelian_profile looks its index up through factors.factor_index.
        cover = tracer.last_index.cover_end
        windows = int(cover[n_from:n_to + 1].sum()) - sum(range(n_from, n_to + 1)) \
            + (n_to - n_from + 1)
        return {"m": int(buf.alphabet_size), "n_from": int(n_from), "n_to": int(n_to),
                "vectors": bool(vectors), "windows": windows}

    patch(abelian, "abelian_profile", span("abelian.profile", profile_attrs))
    for name in ("parikh_set", "abelian_complexity", "prefix_balance_check",
                 "imbalance_witness_search", "verify_witness"):
        patch(abelian, name, span("abelian.query"))
    patch(abelian, "window_parikh", aggregate("abelian.window_parikh"))

    # numeration: called once per value
    for name in ("zeckendorf_encode", "zeckendorf_decode", "is_valid_rep"):
        patch(numeration, name, aggregate(f"numeration.{name}"))

    # spectral
    patch(spectral, "discrepancy_spectral", aggregate("spectral.digit_route"))
    patch(spectral, "discrepancy_direct", aggregate("spectral.direct"))
    patch(spectral, "discrepancy_extremes", span("spectral.extremes"))
    patch(spectral, "compute_spectral_data", span("spectral.compute_spectral_data"))
    patch(spectral, "certify_balance_bounds", span("spectral.certify_balance_bounds"))

    # special
    patch(special, "right_special_factor", span("special.right_special"))
    patch(special, "right_special_parikh", span("special.right_special"))
    patch(special, "twelve_vector_geometry", span("special.geometry"))
    patch(special, "verify_equivalences", span("special.equivalences"))

    # verify: the runner and every registered claim
    patch(verify, "run_suite", span("verify.run_suite"))
    verify.CLAIMS = tuple(
        dataclasses.replace(
            c, run=tracer.span("verify.claim", c.run,
                               lambda a, k, r, cid=c.claim_id: {"claim": cid}))
        for c in verify.CLAIMS
    )

    # cli: the entry point (argument parsing and dispatch) and the block that
    # writes a command's output (the CSV row loops)
    patch(cli, "main", span("cli.main"))
    open_out = cli._open_out

    @contextlib.contextmanager
    def traced_open_out(*args, **kwargs):
        with open_out(*args, **kwargs) as out:
            frame = tracer.begin("cli")
            try:
                yield out
            finally:
                tracer.end(frame, "cli.write")

    cli._open_out = traced_open_out


def totals(tracer: Tracer, root: dict) -> dict:
    """Additive per-layer totals of one traced command (see ``layer_metrics``)."""
    t: dict = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    root_s = root["end"] - root["start"]
    t.update({"root_s": root_s, "covered_s": root_s - root["self_s"],
              "unattributed_s": root["self_s"], "profile_calls": []})

    def add(key, value):
        t[key] = t.get(key, 0) + value

    by_id = {s["id"]: s for s in tracer.spans}
    index_parents = {s["parent"] for s in tracer.spans if s["name"] == "factors.index_build"}

    def under_claim(span):
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == "verify.claim":
                return True
            parent = by_id.get(parent["parent"])
        return False

    for s in tracer.spans:
        name, a = s["name"], s["attrs"]
        if s["id"] == root["id"]:
            continue
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            add(f"{layer}.self_s", s["self_s"])
        add(f"span:{name}:self_s", s["self_s"])
        add(f"span:{name}:calls", 1)
        if name in DISPATCHERS:
            add("unattributed_s", s["self_s"])
        if name == "words.grow":
            add("words.symbols", a.get("symbols", 0))
        elif name == "words.prefix_counts":
            add("words.prefix_counts_bytes", a.get("bytes", 0))
        elif name == "factors.index_build":
            add("factors.index_region_len", a.get("region_len", 0))
            add("factors.index_states", a.get("states", 0))
        elif name == "factors.factor_index":
            if s["id"] in index_parents:
                add("factors.index_useful", a.get("useful", 0))
        elif name == "factors.scan":
            add("factors.scan_positions", a.get("positions", 0))
            add("factors.scan_distinct", a.get("distinct", 0))
        elif name == "abelian.profile":
            add("abelian.windows", a.get("windows", 0))
            add("abelian.bytes_computed", a.get("windows", 0) * a.get("m", 0) * 8)
            if "m" in a:
                t["profile_calls"].append(
                    [a["m"], a["n_from"], a["n_to"], a["vectors"]])
            if under_claim(s):
                add("verify.shared_build_s", s["end"] - s["start"])
    for name, (calls, _total, self_s) in tracer.aggregates.items():
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            add(f"{layer}.self_s", self_s)
        add(f"agg:{name}:self_s", self_s)
        add(f"agg:{name}:calls", calls)
    return t


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: dict, claim_ms: dict[str, float], speedup: float,
                  traced_wall_s: float, untraced_wall_s: float, claim_ids) -> dict:
    """Per-layer metrics of one workload from its summed totals.

    A layer the workload does not run reports 0 for its times, counts and
    ratios.  Times are self times unless the name says otherwise.
    """
    def g(key: str) -> float:
        return t.get(key, 0)

    codec = ("numeration.zeckendorf_encode", "numeration.zeckendorf_decode",
             "numeration.is_valid_rep")
    codec_s = sum(g(f"agg:{n}:self_s") for n in codec)
    profile_s = g("span:abelian.profile:self_s")
    m = {
        "words.grow_s": g("span:words.grow:self_s"),
        "words.symbols": g("words.symbols"),
        "words.prefix_counts_s": g("span:words.prefix_counts:self_s")
        + g("agg:words.prefix_counts_hit:self_s"),
        "words.prefix_counts_bytes": g("words.prefix_counts_bytes"),
        "words.self_s": g("words.self_s"),
        "factors.index_build_s": g("span:factors.index_build:self_s"),
        "factors.index_region_len": g("factors.index_region_len"),
        "factors.index_states": g("factors.index_states"),
        "factors.index_useful_ratio": _ratio(g("factors.index_useful"),
                                             g("factors.index_region_len")),
        "factors.scan_s": g("span:factors.scan:self_s"),
        "factors.scan_calls": g("span:factors.scan:calls"),
        "factors.scan_positions": g("factors.scan_positions"),
        "factors.scan_useful_ratio": _ratio(g("factors.scan_distinct"),
                                            g("factors.scan_positions")),
        "factors.self_s": g("factors.self_s"),
        "abelian.profile_pass_s": profile_s,
        "abelian.windows": g("abelian.windows"),
        "abelian.windows_per_s": _ratio(g("abelian.windows"), profile_s),
        "abelian.bytes_computed": g("abelian.bytes_computed"),
        "abelian.thread_speedup": speedup,
        "abelian.query_s": g("span:abelian.query:self_s") + g("agg:abelian.window_parikh:self_s"),
        "abelian.query_calls": g("span:abelian.query:calls") + g("agg:abelian.window_parikh:calls"),
        "abelian.self_s": g("abelian.self_s"),
        "numeration.codec_s": codec_s,
        "numeration.codec_calls": sum(g(f"agg:{n}:calls") for n in codec),
        "numeration.values_per_s": _ratio(g("agg:numeration.zeckendorf_encode:calls"), codec_s),
        "spectral.digit_route_s": g("agg:spectral.digit_route:self_s"),
        "spectral.digit_route_calls": g("agg:spectral.digit_route:calls"),
        "spectral.extremes_s": g("span:spectral.extremes:self_s"),
        "spectral.self_s": g("spectral.self_s"),
        "special.right_special_s": g("span:special.right_special:self_s"),
        "special.right_special_calls": g("span:special.right_special:calls"),
        "special.geometry_s": g("span:special.geometry:self_s"),
        "special.self_s": g("special.self_s"),
        "verify.shared_build_s": g("verify.shared_build_s"),
        "verify.self_s": g("verify.self_s"),
        "cli.self_s": g("cli.self_s"),
        "cli.rows_out": g("cli.rows_out"),
        "cli.bytes_out": g("cli.bytes_out"),
        "trace.overhead_ratio": _ratio(traced_wall_s, untraced_wall_s),
        "trace.unattributed_ratio": _ratio(g("unattributed_s"), g("root_s")),
    }
    for cid in claim_ids:
        m[f"verify.claim.{cid}_ms"] = claim_ms.get(cid, 0.0)
    return m


def _run_suite_subset(argv: list[str]) -> int:
    from tribalance import verify

    p = argparse.ArgumentParser(prog=SUITE_SUBSET)
    p.add_argument("--claims", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--json", required=True)
    args = p.parse_args(argv)
    report = verify.run_suite("paper", verify.SuiteConfig(seed=args.seed, threads=args.threads),
                              claim_ids=set(args.claims.split(",")))
    Path(args.json).write_text(report.to_json() + "\n")
    return 0 if report.all_passed else 1


def run_command(argv: list[str]) -> int:
    if argv and argv[0] == SUITE_SUBSET:
        return _run_suite_subset(argv[1:])
    from tribalance import cli

    return cli.main(argv)


def traced(argv: list[str], spans_path: Path) -> int:
    tracer = Tracer()
    install(tracer)
    root = tracer.begin("bench")
    try:
        code = run_command(argv)
    finally:
        tracer.end(root, "bench.root")
        root_span = tracer.spans[-1]
        record = {
            "argv": argv,
            "spans": sorted(tracer.spans, key=lambda s: s["start"]),
            "aggregates": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                           for k, v in tracer.aggregates.items()},
            "totals": totals(tracer, root_span),
        }
        spans_path.write_text(json.dumps(record))
    return code


def speedup(specs: list[str]) -> dict:
    """Profile-pass seconds at one and two threads over prebuilt indexes, in
    SPEEDUP_PAIRS pairs whose order alternates, and the median speed-up."""
    from tribalance import abelian, factors, words

    calls = sorted(((int(m), int(n_from), int(n_to), vectors == "1")
                    for m, n_from, n_to, vectors in (spec.split(",") for spec in specs)),
                   key=lambda call: -call[2])
    buffers: dict[int, words.WordBuffer] = {}
    for m, _, n_to, _ in calls:  # largest first, so each buffer builds one index
        buf = buffers.setdefault(m, words.mbonacci_word(m))
        factors.factor_index(buf, n_to)
        buf.prefix_counts
    pairs = []
    for pair in range(SPEEDUP_PAIRS):
        seconds = {}
        for threads in ((1, 2) if pair % 2 == 0 else (2, 1)):
            start = time.perf_counter()
            for m, n_from, n_to, vectors in calls:
                abelian.abelian_profile(buffers[m], n_from, n_to, threads=threads,
                                        collect_vectors=vectors)
            seconds[threads] = time.perf_counter() - start
        pairs.append({"threads1_s": seconds[1], "threads2_s": seconds[2]})
    return {"pairs": pairs,
            "speedup": statistics.median(p["threads1_s"] / p["threads2_s"] for p in pairs)}


def main(argv: list[str]) -> int:
    if argv[:1] == ["--speedup"]:
        print(json.dumps(speedup(argv[1:])))
        return 0
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = Path(argv[1]), argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if spans is None:
        return run_command(argv)
    return traced(argv, spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
