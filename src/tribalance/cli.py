"""Command-line surface: generation, profiles, discrepancy tables, the
numeration codec, spectral constants, special-factor reports, and the
claim-verification suite.

Exit codes: 0 success, 1 claim failure, 2 usage error (including an
unwritable output path), 3 resource or saturation failure, 141 (128 +
SIGPIPE) when the reader of stdout closed it early.  Data (CSV,
digit strings) goes to --out or stdout; progress and summaries go to
stderr so piped output stays clean.  Real numbers are printed with 12
significant digits, deterministically.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import sys
from collections.abc import Iterable
from contextlib import contextmanager, nullcontext

from . import abelian, numeration, special, spectral, synchronized, verify
from .errors import BufferLimitError, InvalidInputError, SaturationError, TribalanceError
from .words import DEFAULT_MAX_SYMBOLS, WordBuffer, mbonacci_word, word_to_text

EXIT_OK = 0
EXIT_CLAIM_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_BROKEN_PIPE = 141


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
        return
    try:
        handle = open(path, "w", newline="")
    except OSError as err:
        raise InvalidInputError(f"cannot write {path}: {err.strerror}") from None
    with handle:
        yield handle


def _make_buffer(spec: str, parser: argparse.ArgumentParser, max_symbols: int) -> WordBuffer:
    """The word a spec names; an order of ASCII digits outside 2..256 is
    refused by ``mbonacci_word``, with one message for both ends."""
    if spec == "tribonacci":
        m = 3
    elif re.fullmatch("mbonacci:-?[0-9]+", spec):
        m = int(spec.split(":", 1)[1])
    elif spec.startswith("mbonacci:"):
        parser.error(f"bad word spec {spec!r}: m-bonacci order must be an integer")
    else:
        parser.error(f"word spec must be 'tribonacci' or 'mbonacci:<m>', got {spec!r}")
    return mbonacci_word(m, max_symbols=max_symbols)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def cmd_generate(args, parser) -> int:
    if args.length < 1:
        parser.error(f"length must be >= 1, got {args.length}")
    buf = _make_buffer(args.word_spec, parser, args.max_buffer)
    # The word is written block by block and never held whole.  Each
    # distinct block is converted once, before any byte is written, the one
    # with the largest symbol first: a symbol of 10 or more exits 2 naming
    # the prefix's largest symbol, and no output is opened.
    blocks = buf.blocks(args.length)
    distinct = sorted({id(b): b for b in blocks}.values(), key=max, reverse=True)
    texts = {id(b): word_to_text(b) for b in distinct}
    with _open_out(args.out) as out:
        for b in blocks:
            out.write(texts[id(b)])
        out.write("\n")
    return EXIT_OK


def _profile(buf: WordBuffer, n_from: int, n_to: int) -> Iterable[abelian.ProfileRow]:
    """Profile rows of the word, in order: produced lazily off the
    synchronized digit automaton for the Tribonacci word, which reads no
    buffer, so --max-buffer does not bind; through the certified window pass for
    every other word."""
    if buf.alphabet_size == 3:
        return synchronized.synchronized_profile(n_from, n_to)
    if n_to > 1000:
        _progress(f"certifying factor sets up to length {n_to}")
    return abelian.abelian_profile(buf, n_from, n_to)


def cmd_rho(args, parser) -> int:
    if args.n_from < 1 or args.n_to < args.n_from:
        parser.error(f"bad length range [{args.n_from}, {args.n_to}]")
    buf = _make_buffer(args.word_spec, parser, args.max_buffer)
    with _open_out(args.out) as out:
        rows = _profile(buf, args.n_from, args.n_to)
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n", "rho"])
        for row in rows:
            writer.writerow([row.n, row.rho])
    return EXIT_OK


def cmd_balance(args, parser) -> int:
    if args.max_len < 1:
        parser.error(f"max length must be >= 1, got {args.max_len}")
    buf = _make_buffer(args.word_spec, parser, args.max_buffer)
    m = buf.alphabet_size
    global_max, first = 0, None
    with _open_out(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n", "rho"] + [f"max_imbalance_{a}" for a in range(m)])
        for row in _profile(buf, 1, args.max_len):
            writer.writerow([row.n, row.rho] + list(row.max_imbalance))
            global_max = max(global_max, *row.max_imbalance)
            if first is None and global_max >= 3:
                first = (row.n, next(a for a in range(m) if row.max_imbalance[a] >= 3))
    print(f"global maximum imbalance: {global_max}", file=sys.stderr)
    if first is not None:
        # The word is not 2-balanced in the scanned range; exhibit the
        # first witness in wire form letter,length,pos_u,pos_v,count_u,count_v.
        # The certified rows prove no shorter length reaches imbalance 3.
        n, letter = first
        w = abelian.imbalance_witness_search(buf, letter, 3, n, n_from=n)
        print(
            f"imbalance witness: {w.letter},{w.length},{w.pos_u},{w.pos_v},"
            f"{w.count_u},{w.count_v}",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_discrepancy(args, parser) -> int:
    if args.letter not in (0, 1, 2):
        parser.error(f"letter must be 0, 1 or 2, got {args.letter}")
    if args.n_max < 0:
        parser.error(f"n_max must be >= 0, got {args.n_max}")
    sd = spectral.compute_spectral_data()
    buf = _make_buffer("tribonacci", parser, args.max_buffer)
    if args.n_max > 100_000:
        _progress(f"tabulating {args.n_max + 1} prefix discrepancies")
    buf.ensure(max(args.n_max, 1))
    lo, hi = math.inf, -math.inf
    with _open_out(args.out) as out:
        out.write("N,discrepancy\n")
        # One block of rows at a time: neither the column nor its text is
        # ever held whole.
        for start, block in spectral.discrepancy_blocks(buf, args.n_max, args.letter, sd):
            out.write("".join(f"{n},{x:.12g}\n" for n, x in enumerate(block.tolist(), start)))
            lo, hi = min(lo, float(block.min())), max(hi, float(block.max()))
    t_lo, t_hi = spectral.TARGET_INTERVALS[args.letter]
    contained = t_lo < lo and hi < t_hi
    print(
        f"letter {args.letter}: observed [{_fmt(lo)}, {_fmt(hi)}], "
        f"certified interval ({t_lo}, {t_hi}), contained: {contained}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_zeckendorf(args, parser) -> int:
    if args.n < 0:
        parser.error(f"N must be >= 0, got {args.n}")
    print("".join(map(str, numeration.zeckendorf_encode(args.n))))
    return EXIT_OK


def cmd_constants(args, parser) -> int:
    with _open_out(args.out) as out:
        for name, (lo, _) in spectral.named_constants().items():
            out.write(f"{name}={_fmt(float(lo))}\n")
    return EXIT_OK


def cmd_special(args, parser) -> int:
    if args.n_from < 1 or args.n_to < args.n_from:
        parser.error(f"bad length range [{args.n_from}, {args.n_to}]")
    buf = _make_buffer(args.word_spec, parser, args.max_buffer)
    m = buf.alphabet_size
    if m > 10:
        # The right-special factor of length n - 1 is the reversal of the
        # prefix of that length (Droubay, Justin and Pirillo 2001), so the
        # rows hold the symbols of the first n_to - 1: one of 10 or more has
        # no one-digit form and is refused before any output is opened.
        word_to_text(buf.ensure(args.n_to - 1).symbols[: args.n_to - 1])
    # The Parikh columns keep the paper's (i, j, k) names for the Tribonacci
    # word; the complexity-3 closed form is Tribonacci-only.
    letters = ["i", "j", "k"] if m == 3 else [f"count_{a}" for a in range(m)]
    closed_form = ["rho3_closed_form"] if m == 3 else []
    min_lengths = set(special.min_complexity_lengths(args.n_to))
    with _open_out(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n", "right_special_word", *letters, "bispecial", "rho", *closed_form])
        for prow in abelian.abelian_profile(buf, args.n_from, args.n_to):
            n = prow.n
            record = special.right_special_factor(buf, n - 1)
            row = [n, word_to_text(record.word), *record.parikh, int(record.is_bispecial), prow.rho]
            if closed_form:
                row.append(int(n in min_lengths))
            writer.writerow(row)
    return EXIT_OK


def cmd_verify(args, parser) -> int:
    config = verify.SuiteConfig(
        seed=args.seed,
        threads=args.threads,
        max_buffer=args.max_buffer,
        progress=_progress,
    )
    with _open_out(args.json) if args.json else nullcontext() as handle:
        report = verify.run_suite(args.suite, config)
        for claim in report.claims:
            print(f"{claim.status.upper():7s} {claim.claim_id} ({claim.runtime_ms:.0f} ms): "
                  f"{claim.description}")
        if handle is not None:
            handle.write(report.to_json())
            handle.write("\n")
    passed = sum(c.status == "pass" for c in report.claims)
    print(f"{passed}/{len(report.claims)} claims passed", file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_CLAIM_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tribalance",
        description="Balance and abelian-complexity analysis of m-bonacci words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each command takes only the options it reads; argparse refuses any
    # other with exit 2.  --threads is validated and changes no output: the
    # benchmark passes it.
    options = {
        "--out": dict(metavar="PATH", help="write data output to PATH instead of stdout"),
        "--suite": dict(default="paper", choices=["paper"]),
        "--json": dict(metavar="PATH", help="write the JSON report to PATH"),
        "--threads": dict(type=_positive_int, default=os.cpu_count() or 1,
                          help="validated and accepted; does not change the output"),
        "--seed": dict(type=int, default=0, help="seed for randomized spot checks"),
        "--max-buffer": dict(type=_positive_int, default=DEFAULT_MAX_SYMBOLS,
                             help="hard cap on materialized symbols"),
    }

    def command(name: str, func, summary: str, *flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.set_defaults(func=func)
        return p

    p = command("generate", cmd_generate, "write a prefix of a word", "--out", "--max-buffer")
    p.add_argument("word_spec", help="'tribonacci' or 'mbonacci:<m>'")
    p.add_argument("length", type=int)

    p = command("rho", cmd_rho, "abelian complexity over a length range (CSV)",
                "--out", "--threads", "--max-buffer")
    p.add_argument("word_spec")
    p.add_argument("n_from", type=int)
    p.add_argument("n_to", type=int)

    p = command("balance", cmd_balance, "per-letter imbalance profile (CSV)",
                "--out", "--threads", "--max-buffer")
    p.add_argument("word_spec")
    p.add_argument("max_len", type=int)

    p = command("discrepancy", cmd_discrepancy, "prefix discrepancy table for one letter (CSV)",
                "--out", "--threads", "--max-buffer")
    p.add_argument("letter", type=int)
    p.add_argument("n_max", type=int)

    p = command("zeckendorf", cmd_zeckendorf, "Tribonacci-numeration digits of N (LSB first)")
    p.add_argument("n", type=int)

    command("constants", cmd_constants, "spectral constants, 12 significant digits", "--out")

    p = command("special", cmd_special, "right-special factor report (CSV)",
                "--out", "--max-buffer")
    p.add_argument("word_spec")
    p.add_argument("n_from", type=int)
    p.add_argument("n_to", type=int)

    command("verify", cmd_verify, "run the claim-verification suite",
            "--suite", "--json", "--threads", "--seed", "--max-buffer")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, parser)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except (SaturationError, BufferLimitError) as err:
        print(f"resource failure: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except TribalanceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE if isinstance(err, InvalidInputError) else EXIT_CLAIM_FAILURE
    except BrokenPipeError:
        # Python flushes stdout again at exit: send what is left to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
