"""The derivations delta_n, d_n, partial_n and the exponential homomorphisms
Phi_X, Psi_X, Delta_X built from them, plus the index combinatorics feeding
the Ohno-type relations and the comparison embedding from the classical
two-letter algebra of multiple zeta values.

Phi_X and Delta_X are concatenation homomorphisms (delta_n, partial_n are
derivations), computed from cached letter series multiplied along words.
Psi_X stays on its definition, _exp_apply: delta-factorization derives its
multiplicativity from Phi_X = Psi_X Delta_X.
"""
from __future__ import annotations

import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import comb, factorial

from .algebra import (
    BAR1,
    EPoly,
    Index,
    LinComb,
    NcPoly,
    _accumulate,
    binary_to_index,
    hoffman_dual,
    left_mul_a,
)
from .coeff import Laurent
from .errors import BadEntry, NotInH0, NotInMzvH1, OutOfRange
from .products import shuffle_q
from .series import (
    TruncSeries,
    series_log_one_plus_hbx,
    series_one,
    series_psi,
    ts_mul,
)


def derive_words(w: LinComb, images: dict) -> LinComb:
    """Leibniz extension of a map given on single letters of words, or on
    single entries of indices: images maps each to a value of w's type."""
    out: dict = {}
    for word, c in w.terms.items():
        for i, ch in enumerate(word):
            head, tail = word[:i], word[i + 1:]
            for u, d in images[ch].terms.items():
                _accumulate(out, head + u + tail, c * d)
    return type(w)._wrap(out)


@lru_cache(maxsize=None)
def _delta_images(n: int) -> dict[str, NcPoly]:
    c = Fraction((-1) ** (n - 1), n)
    tail = "a" * n + "b"
    return {"a": NcPoly.zero(), "b": NcPoly({"b" + tail: c, tail: c})}


def delta_n(n: int, w: NcPoly) -> NcPoly:
    """The derivation with delta_n(a) = 0, delta_n(b) = ((-1)^(n-1)/n)(b+1)a^n b."""
    if n < 1:
        raise ValueError("n >= 1")
    return derive_words(w, _delta_images(n))


def d_n(n: int, w: NcPoly) -> NcPoly:
    """d_n(w) = ((-h)^(n-1)/n) { (a b^n) sh_q w - a b^n w }."""
    if n < 1:
        raise ValueError("n >= 1")
    abn = NcPoly.word("a" + "b" * n)
    c = Laurent.h(n - 1, Fraction((-1) ** (n - 1), n))
    return (shuffle_q(abn, w) - abn * w).scale(c)


# z = a(b+1) + h b and its flipped companion (b+1)a + h b, the two brackets
# in the defining formulas for partial_n.
_Z_LEFT = NcPoly({"ab": 1, "a": 1, "b": Laurent.h()})
_Z_RIGHT = NcPoly({"ba": 1, "a": 1, "b": Laurent.h()})
_A_PLUS_H_B = NcPoly({"ab": 1, "b": Laurent.h()})
_B_PLUS_1_B = NcPoly({"bb": 1, "b": 1})


def _nc_power(base: NcPoly, n: int) -> NcPoly:
    out = NcPoly.one()
    for _ in range(n):
        out = out * base
    return out


@lru_cache(maxsize=None)
def _partial_images(n: int) -> dict[str, NcPoly]:
    ca = Fraction((-1) ** n, n)
    cb = Fraction((-1) ** (n - 1), n)
    da = (NcPoly.word("a") * _nc_power(_Z_LEFT, n - 1) * _A_PLUS_H_B).scale(ca)
    db = (NcPoly.word("a") * _nc_power(_Z_RIGHT, n - 1) * _B_PLUS_1_B).scale(cb)
    return {"a": da, "b": db}


def partial_n(n: int, w: NcPoly) -> NcPoly:
    """The derivation interpolating the two products; defined on all words."""
    if n < 1:
        raise ValueError("n >= 1")
    return derive_words(w, _partial_images(n))


# --- partial_n in the e-basis ---------------------------------------------


@lru_cache(maxsize=None)
def partial_a_epoly(n: int) -> EPoly:
    """partial_n(a) = ((-1)^n / n) a (a + e_1)^(n-1) e_1 as an e-polynomial."""
    out = EPoly.gen(1)
    for _ in range(n - 1):
        out = left_mul_a(out) + out.prepend(1)
    out = left_mul_a(out)
    return out.scale(Fraction((-1) ** n, n))


@lru_cache(maxsize=None)
def partial_e1_minus_e1bar(n: int) -> EPoly:
    """partial_n(e_1 - e_1bar) = ((-1)^(n-1)/n)(a+e_1bar)(a+e_1)^(n-1)(e_1-e_1bar)."""
    out = EPoly.gen(1) - EPoly.gen(BAR1)
    for _ in range(n - 1):
        out = left_mul_a(out) + out.prepend(1)
    out = left_mul_a(out) + out.prepend(BAR1)
    return out.scale(Fraction((-1) ** (n - 1), n))


@lru_cache(maxsize=None)
def partial_gen(n: int, entry) -> EPoly:
    """partial_n on one generator, computed entirely in the e-basis.

    Uses the recursion partial_n(e_k) = partial_n(a) e_(k-1) + a partial_n(e_(k-1)),
    with partial_n(e_1) = -partial_n(a) and partial_n(e_1bar) obtained from
    the closed form for partial_n(e_1 - e_1bar).
    """
    if entry is BAR1:
        return partial_gen(n, 1) - partial_e1_minus_e1bar(n)
    if entry == 1:
        return -partial_a_epoly(n)
    return partial_a_epoly(n) * EPoly.from_index((entry - 1,)) + left_mul_a(
        partial_gen(n, entry - 1)
    )


def partial_epoly(n: int, x: EPoly) -> EPoly:
    """Leibniz extension of partial_gen over products of generators.

    Defined on all of Hhat1; the public entry point partial_n_e adds the
    Hhat0 gate from the statement of the derivation relations.
    """
    if n < 1:
        raise ValueError("n >= 1")
    return derive_words(x, {e: partial_gen(n, e) for k in x.terms for e in k})


def partial_n_e(n: int, x: EPoly) -> EPoly:
    """partial_n on Hhat0 in the e-basis; raises NotInH0 off the subalgebra."""
    if not x.supported_in_Ihat0():
        raise NotInH0("input has an index starting with an unbarred 1")
    return partial_epoly(n, x)


# --- the exponential homomorphisms -----------------------------------------


def _exp_apply(apply_n, w, order: int) -> list:
    """Coefficients of exp(sum_n X^n D_n)(w) up to X^order.

    The X^m coefficient is sum over r >= 1 and compositions (j_1..j_r) of m
    of (1/r!) D_(j_1)...D_(j_r)(w); enumerated depth first so composition
    prefixes share the already-applied tail. Each stack entry is
    (D_(j_1)...D_(j_r)(w), j_1 + ... + j_r, r).
    """
    if order < 0:
        raise OutOfRange(f"series order must be >= 0, got {order}")
    totals = [dict(w.terms)] + [{} for _ in range(order)]
    stack = [(w, 0, 0)]
    while stack:
        x, m, r = stack.pop()
        c = Laurent(Fraction(1, factorial(r + 1)))
        for j in range(1, order - m + 1):
            y = apply_n(j, x)
            if y.is_zero():
                continue
            for k, v in y.terms.items():
                _accumulate(totals[m + j], k, v * c)
            stack.append((y, m + j, r + 1))
    return [type(w)._wrap(t) for t in totals]


@lru_cache(maxsize=32)
def _letter_series(apply_n, letter: str, order: int) -> TruncSeries:
    """exp(sum X^n D_n) of one letter."""
    return TruncSeries(tuple(_exp_apply(apply_n, NcPoly.word(letter), order)))


def _hom_apply(apply_n, terms: dict, order: int) -> TruncSeries:
    """exp(sum X^n D_n), D_n a derivation, on {word: coefficient}: words are grouped
    by first letter, and each group's tail image is left-multiplied by its letter series."""
    if order < 0:
        raise OutOfRange(f"series order must be >= 0, got {order}")
    groups: dict[str, dict] = {}
    for word, c in terms.items():
        groups.setdefault(word[:1], {})[word[1:]] = c
    out = TruncSeries((NcPoly(groups.pop("", None)),) + (NcPoly.zero(),) * order)
    for letter, tails in groups.items():
        head = _letter_series(apply_n, letter, order)
        out = out + ts_mul(operator.mul, head, _hom_apply(apply_n, tails, order))
    return out


def Phi_X(w: NcPoly, order: int) -> TruncSeries:
    """Phi_X = exp(sum X^n delta_n) applied to w, truncated."""
    return _hom_apply(delta_n, w.terms, order)


def Psi_X(w: NcPoly, order: int) -> TruncSeries:
    """Psi_X = exp(sum X^n d_n) applied to w, truncated."""
    # Not a homomorphism route: verify derives Psi_X's multiplicativity
    # from Phi_X = Psi_X Delta_X, so assuming it here would be circular.
    return TruncSeries(tuple(_exp_apply(d_n, w, order)))


def Delta_X(w: NcPoly, order: int) -> TruncSeries:
    """Delta_X = exp(sum X^n partial_n) applied to w, truncated."""
    return _hom_apply(partial_n, w.terms, order)


def Psi_X_series(s: TruncSeries) -> TruncSeries:
    """Psi_X on a series: the operator coefficients convolve with those of s."""
    n = s.order
    parts: list[list] = [[] for _ in range(n + 1)]
    for i, c in enumerate(s.coeffs):
        if c.is_zero():
            continue
        for j, piece in enumerate(_exp_apply(d_n, c, n - i)):
            parts[i + j].append(piece)
    return TruncSeries(tuple(type(s.coeffs[0]).sum(p) for p in parts))


def rho_s(s: int, order: int) -> TruncSeries:
    """The recurrence rho_1 = 1, rho_(s+1) = (psi + log(1+hbX)) rho_s + psi sh rho_s."""
    if s < 1:
        raise ValueError("s >= 1")
    rho = series_one(NcPoly.one(), order)
    if s == 1:
        return rho
    psi = series_psi(order)
    pref = psi + series_log_one_plus_hbx(order)
    for _ in range(s - 1):
        rho = ts_mul(operator.mul, pref, rho) + ts_mul(shuffle_q, psi, rho)
    return rho


def d_power_series(s: int, w: TruncSeries) -> TruncSeries:
    """(sum_n X^n d_n)^s applied to a series, truncated at its order."""
    cls = type(w.coeffs[0])
    for _ in range(s):
        c = w.coeffs
        w = TruncSeries(
            tuple(cls.sum(d_n(m - i, c[i]) for i in range(m) if c[i]) for m in range(len(c)))
        )
    return w


# --- Ohno combinatorics -----------------------------------------------------


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _shifts(k: Index, l: int):
    """The indices k + e over nonnegative shifts e with |e| = l, all distinct."""
    return (tuple(a + b for a, b in zip(k, e)) for e in _compositions(l, len(k)))


def _shift_sum(k: Index, l: int, coeff=1) -> EPoly:
    """coeff * sum over |e| = l of e_(k+e)."""
    return EPoly._wrap(dict.fromkeys(_shifts(k, l), Laurent(coeff)))


def _dual_shift_sum(k: Index, m: int) -> EPoly:
    """sum over |e| = m of e_((k^dual + e)^dual), with ^dual the Hoffman dual."""
    return EPoly._wrap(dict.fromkeys(map(hoffman_dual, _shifts(hoffman_dual(k), m)), Laurent(1)))


def _ohno_rhs(k: Index, m: int, n: int) -> EPoly:
    """The shift side of the Ohno-type relation for (k, m, n):
    sum over l <= m of (C(n, m-l+1)/n) h^(m-l) sum_(|e|=l) e_(k+e)."""
    return EPoly.sum(
        _shift_sum(k, l, Laurent.h(m - l, Fraction(comb(n, m - l + 1), n))) for l in range(m + 1)
    )


def a_s_index(k: tuple[int, ...], s: int) -> EPoly:
    """The sum a_s(k) over all placements of s extra e_1 letters.

    k may contain zero entries (a zero block contributes a bare e_1).
    Words over {e_0, e_1} always end in e_1 here, so the result is returned
    as a rational combination of indices.
    """
    if any(e < 0 for e in k):
        raise BadEntry("a_s needs nonnegative entries")
    if s < 0:
        raise BadEntry("s >= 0")
    counts: Counter = Counter()
    for js in _compositions(s, sum(k)):
        word = []
        pos = 0
        for ki in k:
            for _ in range(ki):
                word.append("0" + "1" * js[pos])
                pos += 1
            word.append("1")
        counts[binary_to_index("".join(word))] += 1
    return EPoly(counts)


def A_ksp(k: Index, s: int, p: int) -> EPoly:
    """A_(k,s,p): a_s over all 0/1 shifts of k of total weight p, entrywise -1."""
    if not k:
        raise BadEntry("A_(k,s,p) needs a nonempty index")
    if any(e is BAR1 for e in k):
        raise BadEntry("A_(k,s,p) takes indices without 1bar")
    return EPoly.sum(
        a_s_index(tuple(ki + li - 1 for ki, li in zip(k, lam)), s)
        for lam in iproduct((0, 1), repeat=len(k))
        if sum(lam) == p
    )


def delta_expansion(k: int, order: int) -> TruncSeries:
    """sum_(p,s) (-1)^s X^(p+s) A_((k),s,p) as a series of e-polynomials."""
    return TruncSeries(
        tuple(
            EPoly.sum(A_ksp((k,), s, m - s).scale((-1) ** s) for s in range(m + 1))
            for m in range(order + 1)
        )
    )


# --- comparison with the classical two-letter algebra ----------------------

# Words over {x, y} are carried by NcPoly with letters 'x' and 'y'; the
# coefficients stay rational (no h ever appears on this side).


def z_word(*ks: int) -> NcPoly:
    """z_(k_1) ... z_(k_r) with z_k = x^(k-1) y."""
    return NcPoly({"".join("x" * (k - 1) + "y" for k in ks): 1})


@lru_cache(maxsize=None)
def _mzv_images(n: int) -> dict[str, NcPoly]:
    base = NcPoly({"x": 1, "y": 1})
    img = NcPoly.word("x") * _nc_power(base, n - 1) * NcPoly.word("y")
    return {"x": img, "y": -img}


def mzv_partial(n: int, w: NcPoly) -> NcPoly:
    """The classical derivation with x -> x(x+y)^(n-1) y -> -x(x+y)^(n-1)y."""
    if n < 1:
        raise ValueError("n >= 1")
    return derive_words(w, _mzv_images(n))


def iota(w: NcPoly) -> EPoly:
    """The embedding z_k -> e_k on words ending in y (and the empty word)."""
    out: dict[Index, Laurent] = {}
    for word, c in w.terms.items():
        entries = []
        run = 0
        for ch in word:
            if ch == "x":
                run += 1
            elif ch == "y":
                entries.append(run + 1)
                run = 0
            else:
                raise NotInMzvH1(f"unexpected letter {ch!r}")
        if run:
            raise NotInMzvH1(f"word {word!r} ends in x")
        if not c.is_constant():
            raise NotInMzvH1("classical words must have rational coefficients")
        _accumulate(out, tuple(entries), c)
    return EPoly._wrap(out)
