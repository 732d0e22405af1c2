"""The qsh command line: algebra calculators, verification suites, export.

Exit codes: 0 success / everything verified, 1 a check found a
counterexample, 2 usage or parse errors.
"""
from __future__ import annotations

import argparse
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
from .cyclo import zn_map
from .derivations import Delta_X, Phi_X, Psi_X, delta_n, partial_n, partial_n_e
from .errors import QHarmonicError
from .evalq import QValue, zeta_q_partial
from .export import export_relations
from .products import shuffle_q, stuffle_classical, stuffle_q
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2


def _parse_word(text: str) -> NcPoly:
    if any(ch not in "ab" for ch in text):
        raise QHarmonicError(f"words use the letters a and b, got {text!r}")
    return NcPoly.word(text)


def _is_word(text: str) -> bool:
    return text != "" and all(ch in "ab" for ch in text)


def _print_series(s, out):
    for m, c in enumerate(s.coeffs):
        print(f"X^{m}: {c}", file=out)


def _add_common_verify_args(p: argparse.ArgumentParser):
    p.add_argument("--max-weight", type=int, default=None, help="weight ceiling")
    p.add_argument("--order", type=int, default=None, help="series truncation order")
    p.add_argument("--max-n", type=int, default=None, help="derivation index ceiling")
    p.add_argument("--max-m", type=int, default=None, help="Ohno shift ceiling")
    p.add_argument("--n", default=None, help="n or n range as A:B (inclusive)")
    p.add_argument("--p", default=None, help="comma separated primes")
    p.add_argument("--q", default=None, help="rational q in (0,1), e.g. 1/2")
    p.add_argument("--M", type=int, default=None, help="partial sum truncation")
    p.add_argument("--index", default=None, help="single index, e.g. 2,1")
    p.add_argument("--m", type=int, default=None, help="single Ohno shift")
    p.add_argument("--quiet", action="store_true", help="print only the summary")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qsh",
        description="Exact computer algebra for multiple harmonic q-series.",
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
    p.add_argument("--order", type=int, default=4)

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
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--max-weight", type=int, default=4)
    p.add_argument("--max-m", type=int, default=2)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    return ap


def _parse_n_range(text: str):
    if ":" in text:
        lo, hi = text.split(":", 1)
        return range(int(lo), int(hi) + 1)
    n = int(text)
    return range(n, n + 1)


def _suite_kwargs(args) -> dict:
    kw = {}
    suite = args.suite
    if suite in ("double-shuffle", "derivation"):
        if args.q is not None:
            kw["q"] = Fraction(args.q)
        if args.M is not None:
            kw["M"] = args.M
        if args.max_weight is not None:
            kw["max_weight"] = args.max_weight
        if suite == "derivation" and args.max_n is not None:
            kw["max_n"] = args.max_n
    elif suite == "log-formulas":
        if args.order is not None:
            kw["order"] = args.order
    elif suite in ("delta-factorization", "cor-delta"):
        if args.order is not None:
            kw["order"] = args.order
        if args.max_weight is not None:
            kw["max_weight"] = args.max_weight
    elif suite in ("zn-stuffle", "zn-duality"):
        if args.n is not None:
            kw["n_range"] = _parse_n_range(args.n)
        if args.max_weight is not None:
            kw["max_weight"] = args.max_weight
    elif suite == "ohno":
        if args.n is not None:
            kw["n_range"] = _parse_n_range(args.n)
        if args.max_weight is not None:
            kw["max_weight"] = args.max_weight
        if args.max_m is not None:
            kw["max_m"] = args.max_m
    elif suite == "ones-bar":
        if args.n is not None:
            kw["n_range"] = _parse_n_range(args.n)
    elif suite in ("fmzv", "varpi-l", "cyc-ohno"):
        if args.p is not None:
            kw["primes"] = tuple(int(x) for x in args.p.split(","))
        if args.max_weight is not None:
            kw["max_weight"] = args.max_weight
        if suite == "cyc-ohno" and args.max_m is not None:
            kw["max_m"] = args.max_m
    elif suite == "mzv-compare":
        if args.max_n is not None:
            kw["max_n"] = args.max_n
        if args.max_weight is not None:
            kw["max_weight"] = args.max_weight
    return kw


def _cmd_verify(args, out) -> int:
    if args.suite == "ohno" and args.index is not None and args.n and args.m is not None:
        from .cyclo import ohno_check

        k = parse_index(args.index)
        n = _parse_n_range(args.n)[0]
        ok, lhs, rhs = ohno_check(k, args.m, n)
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] ohno: n={n} k=({index_str(k)}) m={args.m}", file=out)
        print(f"    lhs = {lhs}", file=out)
        print(f"    rhs = {rhs}", file=out)
        return EXIT_OK if ok else EXIT_COUNTEREXAMPLE
    kwargs = _suite_kwargs(args)
    reports = run_suite(args.suite, **kwargs)
    failures = [r for r in reports if not r.ok]
    if not args.quiet:
        for r in reports:
            print(r.line(), file=out)
    print(
        f"{args.suite}: {len(reports) - len(failures)}/{len(reports)} cases verified",
        file=out,
    )
    return EXIT_OK if not failures else EXIT_COUNTEREXAMPLE


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
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
            kwargs = {}
            if args.kind == "ohno":
                kwargs["max_m"] = args.max_m
            text = export_relations(
                args.kind, args.max_n, args.max_weight, args.format, **kwargs
            )
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            else:
                out.write(text)
        else:  # pragma: no cover - argparse enforces the choices
            return EXIT_USAGE
    except QHarmonicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
