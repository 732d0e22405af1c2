"""The qsh command line: algebra calculators, verification suites, export.

Exit codes: 0 success / everything verified, 1 a check found a
counterexample, 2 usage or parse errors, 141 the reader of stdout closed
it early (as for a process killed by SIGPIPE).

Every suite parameter has exactly one `qsh verify` flag, from the table
_SUITE_FLAGS; a flag whose parameter the suite does not take (its
`params`, recorded at registration) is a usage error.
"""
from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import cache
from math import isqrt

from .algebra import (
    EPoly,
    NcPoly,
    e_to_word,
    hoffman_dual,
    index_str,
    parse_index,
    word_to_e,
)
from .cyclo import zn_map
from .derivations import Delta_X, Phi_X, Psi_X, delta_n, partial_n, partial_n_e
from .errors import OutOfRange, QHarmonicError, UsageError
from .evalq import QValue, zeta_q_partial
from .export import ohno_sides, relation_records, render_csv, render_json
from .products import shuffle_q, stuffle_classical, stuffle_q
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141

#: Rows of the cProfile table printed by qsh --profile.
PROFILE_ROWS = 15


def _is_word(text: str) -> bool:
    return text != "" and all(ch in "ab" for ch in text)


def _print_series(s, out):
    for m, c in enumerate(s.coeffs):
        print(f"X^{m}: {c}", file=out)


def _size(text: str) -> int:
    """A nonnegative integer flag value."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs a nonnegative integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


#: Ceiling of --M: a partial sum at truncation M holds about K*M^2/2 bits;
#: `qsh verify double-shuffle --M 250` takes about 3 s and 170 MB.
MAX_M = 250


def _truncation(text: str) -> int:
    """An --M value: an integer at most MAX_M; the evaluator rejects M < 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs an integer, got {text!r}") from None
    if value > MAX_M:
        raise UsageError(f"--M must be at most {MAX_M}, got {value}")
    return value


def _parse_n_range(text: str) -> range:
    """n or a nonempty inclusive range A:B of nonnegative integers."""
    lo, sep, hi = text.partition(":")
    try:
        n_range = range(_size(lo), _size(hi if sep else lo) + 1)
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"{exc} in {text!r}") from None
    if not n_range:
        raise UsageError(f"--n {text} is an empty range, so the flags select no case")
    return n_range


def _parse_q(text: str) -> Fraction:
    """A rational q with 0 < q < 1; anything else is a usage error (exit 2)."""
    try:
        return QValue(Fraction(text)).q
    except (ValueError, ZeroDivisionError, OutOfRange):
        raise UsageError(f"--q needs a rational in (0, 1) such as 1/2, got {text!r}") from None


def _parse_primes(text: str) -> tuple[int, ...]:
    """Comma separated primes; any other value is a usage error (exit 2)."""
    try:
        primes = tuple(_size(x) for x in text.split(","))
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"{exc} in {text!r}") from None
    for i, p in enumerate(primes):
        if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            raise UsageError(f"--p takes primes only, got {p}")
        if p in primes[:i]:
            raise UsageError(f"--p {text} gives the prime {p} twice")
    return primes


#: Suite parameter -> the qsh verify flag that sets it, its parser, its help.
_SUITE_FLAGS = {
    "max_weight": ("--max-weight", _size, "weight ceiling"),
    "order": ("--order", _size, "series truncation order"),
    "max_n": ("--max-n", _size, "n ceiling"),
    "max_m": ("--max-m", _size, "Ohno shift ceiling"),
    "n_range": ("--n", _parse_n_range, "n or n range as A:B (inclusive)"),
    "primes": ("--p", _parse_primes, "comma separated primes"),
    "q": ("--q", _parse_q, "rational q in (0,1), e.g. 1/2"),
    "M": ("--M", _truncation, f"partial sum truncation, at most {MAX_M}"),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The qsh argument parser, shared by every main() call in the process.

    It is built on the first call, not at import. Each parse_args() call
    returns a fresh Namespace; the parser itself must not be mutated.
    """
    ap = argparse.ArgumentParser(
        prog="qsh",
        description="Exact computer algebra for multiple harmonic q-series.",
    )
    ap.add_argument(
        "--profile",
        action="store_true",
        help=f"run under cProfile and print the top {PROFILE_ROWS} rows by self time to stderr",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stuffle", help="q-stuffle (or classical stuffle) of two indices")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--classical", action="store_true")

    p = sub.add_parser("shuffle", help="q-shuffle of two words over {a,b}")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--to-e", action="store_true", help="print the result in the e-basis")

    p = sub.add_parser("dual", help="Hoffman dual of an index")
    p.add_argument("index")

    p = sub.add_parser("partial", help="partial_n of a word or of an e-basis index")
    p.add_argument("n", type=int)
    p.add_argument("target", help="a word like 'aab' or an index like '2,1'")

    p = sub.add_parser("delta", help="delta_n of a word")
    p.add_argument("n", type=int)
    p.add_argument("word")

    p = sub.add_parser("series", help="Phi_X / Psi_X / Delta_X of a word, truncated")
    p.add_argument("which", choices=["phi", "psi", "delta"])
    p.add_argument("target", help="a word like 'ab' or an index like '2'")
    p.add_argument("--order", type=_size, default=4)

    p = sub.add_parser("eval", help="certified numeric evaluation")
    p.add_argument("what", choices=["zetaq"])
    p.add_argument("index")
    p.add_argument("--q", type=_parse_q, default="1/2")
    p.add_argument("--M", type=_truncation, default=50, help=f"at most {MAX_M}")

    p = sub.add_parser("zn", help="z_n(k; zeta_n) exactly in Q(zeta_n)")
    p.add_argument("index")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    for param, (flag, parse, text) in _SUITE_FLAGS.items():
        p.add_argument(flag, dest=param, type=parse, default=None, help=text)
    p.add_argument("--index", default=None, help="single index, e.g. 2,1 (ohno only)")
    p.add_argument("--m", type=_size, default=None, help="single Ohno shift (ohno only)")
    p.add_argument("--quiet", action="store_true", help="print only the summary")

    p = sub.add_parser("export", help="export relation records")
    p.add_argument("--kind", choices=["derivation", "ohno"], required=True)
    p.add_argument("--max-n", type=_size, default=3)
    p.add_argument("--max-weight", type=_size, default=4)
    p.add_argument("--max-m", type=_size, default=None, help="Ohno shift ceiling (ohno only, default 2)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    return ap


def _suite_kwargs(args) -> dict:
    """The suite parameters set by the flags given; a flag the suite would
    ignore is a usage error."""
    given = {param: getattr(args, param) for param in _SUITE_FLAGS
             if getattr(args, param) is not None}
    for param in given:
        flag = _SUITE_FLAGS[param][0]
        if args.suite == "all":
            raise UsageError(f"verify all runs every suite at its defaults; drop {flag}")
        if param not in SUITES[args.suite].params:
            raise UsageError(f"verify {args.suite} does not take {flag}")
    return given


def _cmd_single_ohno(args, out) -> int:
    others = [p for p in _SUITE_FLAGS if p != "n_range" and getattr(args, p) is not None]
    single = None not in (args.index, args.m, args.n_range) and len(args.n_range) == 1
    if args.suite != "ohno" or not single or others or args.quiet:
        raise UsageError("one Ohno instance is verify ohno --index K --n N --m M, no other flag")
    k = parse_index(args.index)
    n = args.n_range[0]
    lhs, rhs = (zn_map(side, n) for side in ohno_sides(k, args.m, n))
    ok = lhs == rhs
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] ohno: n={n} k=({index_str(k)}) m={args.m}", file=out)
    print(f"    lhs = {lhs}", file=out)
    print(f"    rhs = {rhs}", file=out)
    return EXIT_OK if ok else EXIT_COUNTEREXAMPLE


def _cmd_verify(args, out) -> int:
    if args.index is not None or args.m is not None:
        return _cmd_single_ohno(args, out)
    reports = run_suite(args.suite, **_suite_kwargs(args))
    if not reports:
        raise UsageError(f"the flags select no case of verify {args.suite}")
    failures = [r for r in reports if not r.ok]
    if not args.quiet:
        for r in reports:
            print(r.line(), file=out)
    print(
        f"{args.suite}: {len(reports) - len(failures)}/{len(reports)} cases verified",
        file=out,
    )
    return EXIT_OK if not failures else EXIT_COUNTEREXAMPLE


def _cmd_export(args, out):
    kwargs = {}
    if args.max_m is not None:
        if args.kind != "ohno":
            raise UsageError(f"export --kind {args.kind} does not take --max-m")
        kwargs["max_m"] = args.max_m
    records = relation_records(args.kind, args.max_n, args.max_weight, **kwargs)
    if not records:
        raise UsageError(f"the flags select no record of export --kind {args.kind}")
    text = render_json(records) if args.format == "json" else render_csv(records)
    if args.out:
        try:
            fh = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"--out {args.out}: {exc.strerror}") from None
        with fh:
            fh.write(text)
    else:
        out.write(text)


def _dispatch(args) -> int:
    out = sys.stdout
    if args.command == "stuffle":
        left, right = parse_index(args.left), parse_index(args.right)
        prod = stuffle_classical if args.classical else stuffle_q
        print(prod(EPoly({left: 1}), EPoly({right: 1})), file=out)
    elif args.command == "shuffle":
        res = shuffle_q(NcPoly.word(args.left), NcPoly.word(args.right))
        print(word_to_e(res) if args.to_e else res, file=out)
    elif args.command == "dual":
        print(index_str(hoffman_dual(parse_index(args.index))), file=out)
    elif args.command == "partial":
        if _is_word(args.target):
            print(partial_n(args.n, NcPoly.word(args.target)), file=out)
        else:
            k = parse_index(args.target)
            print(partial_n_e(args.n, EPoly({k: 1})), file=out)
    elif args.command == "delta":
        print(delta_n(args.n, NcPoly.word(args.word)), file=out)
    elif args.command == "series":
        op = {"phi": Phi_X, "psi": Psi_X, "delta": Delta_X}[args.which]
        if _is_word(args.target):
            w = NcPoly.word(args.target)
        else:
            w = e_to_word(EPoly({parse_index(args.target): 1}))
        _print_series(op(w, args.order), out)
    elif args.command == "eval":
        k = parse_index(args.index)
        cv = zeta_q_partial(k, QValue(args.q), args.M)
        print(cv, file=out)
    elif args.command == "zn":
        val = zn_map(EPoly({parse_index(args.index): 1}), args.n)
        print(f"{val} (n={args.n})", file=out)
    elif args.command == "verify":
        return _cmd_verify(args, out)
    elif args.command == "export":
        _cmd_export(args, out)
    else:  # pragma: no cover - argparse enforces the choices
        return EXIT_USAGE
    return EXIT_OK


def _profiled(args) -> int:
    # Imported here so that a run without --profile does not pay for them.
    import cProfile
    import pstats

    prof = cProfile.Profile()
    try:
        return prof.runcall(_dispatch, args)
    finally:
        stats = pstats.Stats(prof, stream=sys.stderr)
        stats.sort_stats(pstats.SortKey.TIME).print_stats(PROFILE_ROWS)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = _profiled(args) if args.profile else _dispatch(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except (QHarmonicError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:  # stdout to devnull, as the Python docs advise, so exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
