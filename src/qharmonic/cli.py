"""The qsh command line: algebra calculators, verification suites, export.

Exit codes: 0 success / everything verified, 1 a check found a
counterexample, 2 usage or parse errors.
"""
from __future__ import annotations

import argparse
import inspect
import sys
from fractions import Fraction

from .algebra import (
    EPoly,
    NcPoly,
    e_to_word,
    hoffman_dual,
    index_str,
    parse_index,
    word_to_e,
)
from .cyclo import ohno_check, zn_map
from .derivations import Delta_X, Phi_X, Psi_X, delta_n, partial_n, partial_n_e
from .errors import QHarmonicError, UsageError
from .evalq import QValue, zeta_q_partial
from .export import relation_records, render_csv, render_json
from .products import shuffle_q, stuffle_classical, stuffle_q
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2

#: Rows of the cProfile table printed by qsh --profile.
PROFILE_ROWS = 15


def _parse_word(text: str) -> NcPoly:
    if any(ch not in "ab" for ch in text):
        raise QHarmonicError(f"words use the letters a and b, got {text!r}")
    return NcPoly.word(text)


def _is_word(text: str) -> bool:
    return text != "" and all(ch in "ab" for ch in text)


def _print_series(s, out):
    for m, c in enumerate(s.coeffs):
        print(f"X^{m}: {c}", file=out)


def _size(text: str) -> int:
    """A nonnegative integer flag value."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_n_range(text: str) -> range:
    """n or a nonempty inclusive range A:B of nonnegative integers."""
    lo, _, hi = text.partition(":")
    n_range = range(_size(lo), _size(hi or lo) + 1)
    if not n_range:
        raise UsageError(f"--n {text} is an empty range, so the flags select no case")
    return n_range


def _parse_primes(text: str) -> tuple[int, ...]:
    return tuple(_size(x) for x in text.split(","))


#: qsh verify flag (its argparse dest) -> the suite parameter it sets.
_SUITE_PARAMS = {
    "max_weight": "max_weight",
    "order": "order",
    "max_n": "max_n",
    "max_m": "max_m",
    "n": "n_range",
    "p": "primes",
    "q": "q",
    "M": "M",
}


def _add_common_verify_args(p: argparse.ArgumentParser):
    p.add_argument("--max-weight", type=_size, default=None, help="weight ceiling")
    p.add_argument("--order", type=_size, default=None, help="series truncation order")
    p.add_argument("--max-n", type=_size, default=None, help="n ceiling")
    p.add_argument("--max-m", type=_size, default=None, help="Ohno shift ceiling")
    p.add_argument("--n", type=_parse_n_range, default=None, help="n or n range as A:B (inclusive)")
    p.add_argument("--p", type=_parse_primes, default=None, help="comma separated primes")
    p.add_argument("--q", type=Fraction, default=None, help="rational q in (0,1), e.g. 1/2")
    p.add_argument("--M", type=_size, default=None, help="partial sum truncation")
    p.add_argument("--index", default=None, help="single index, e.g. 2,1 (ohno only)")
    p.add_argument("--m", type=_size, default=None, help="single Ohno shift (ohno only)")
    p.add_argument("--quiet", action="store_true", help="print only the summary")


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--q", default="1/2")
    p.add_argument("--M", type=int, default=50)

    p = sub.add_parser("zn", help="z_n(k; zeta_n) exactly in Q(zeta_n)")
    p.add_argument("index")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    _add_common_verify_args(p)

    p = sub.add_parser("export", help="export relation records")
    p.add_argument("--kind", choices=["derivation", "ohno"], required=True)
    p.add_argument("--max-n", type=_size, default=3)
    p.add_argument("--max-weight", type=_size, default=4)
    p.add_argument("--max-m", type=_size, default=2)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    return ap


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _suite_kwargs(args) -> dict:
    """The suite parameters set by the flags given; a flag the suite would
    ignore is a usage error."""
    given = {d: getattr(args, d) for d in _SUITE_PARAMS if getattr(args, d) is not None}
    if args.suite == "all":
        if given:
            flag = _flag(next(iter(given)))
            raise UsageError(f"verify all runs every suite at its defaults; drop {flag}")
        return {}
    takes = inspect.signature(SUITES[args.suite]).parameters
    for dest in given:
        if _SUITE_PARAMS[dest] not in takes:
            raise UsageError(f"verify {args.suite} does not take {_flag(dest)}")
    if "n" in given and "max_n" in given:
        raise UsageError("give --n or --max-n, not both")
    return {_SUITE_PARAMS[d]: v for d, v in given.items()}


def _cmd_single_ohno(args, out) -> int:
    others = [d for d in _SUITE_PARAMS if d != "n" and getattr(args, d) is not None]
    single = None not in (args.index, args.m, args.n) and len(args.n) == 1
    if args.suite != "ohno" or not single or others:
        raise UsageError("one Ohno instance is verify ohno --index K --n N --m M, no other flag")
    k = parse_index(args.index)
    n = args.n[0]
    ok, lhs, rhs = ohno_check(k, args.m, n)
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
    kwargs = {"max_m": args.max_m} if args.kind == "ohno" else {}
    records = relation_records(args.kind, args.max_n, args.max_weight, **kwargs)
    if not records:
        raise UsageError(f"the flags select no record of export --kind {args.kind}")
    text = render_json(records) if args.format == "json" else render_csv(records)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
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
        res = shuffle_q(_parse_word(args.left), _parse_word(args.right))
        print(word_to_e(res) if args.to_e else res, file=out)
    elif args.command == "dual":
        print(index_str(hoffman_dual(parse_index(args.index))), file=out)
    elif args.command == "partial":
        if _is_word(args.target):
            print(partial_n(args.n, _parse_word(args.target)), file=out)
        else:
            k = parse_index(args.target)
            print(partial_n_e(args.n, EPoly({k: 1})), file=out)
    elif args.command == "delta":
        print(delta_n(args.n, _parse_word(args.word)), file=out)
    elif args.command == "series":
        op = {"phi": Phi_X, "psi": Psi_X, "delta": Delta_X}[args.which]
        if _is_word(args.target):
            w = _parse_word(args.target)
        else:
            w = e_to_word(EPoly({parse_index(args.target): 1}))
        _print_series(op(w, args.order), out)
    elif args.command == "eval":
        k = parse_index(args.index)
        cv = zeta_q_partial(k, QValue(Fraction(args.q)), args.M)
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
        return _profiled(args) if args.profile else _dispatch(args)
    except (QHarmonicError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
