"""The derivations delta_n, d_n, partial_n and the exponential homomorphisms
Phi_X, Psi_X, Delta_X built from them, plus the index combinatorics feeding
the Ohno-type relations and the comparison embedding from the classical
two-letter algebra of multiple zeta values.

Every exponential exp(sum X^n D_n) is one derivative recursion, _exp_series,
which needs the D_n to commute; delta-factorization checks that they do.
Phi_X and Delta_X (delta_n, partial_n are derivations) multiply cached letter
series, exponentials of one letter, along words, in place into one dict per
power of X. Psi_X stays on its definition, the recursion applied to w:
delta-factorization derives its multiplicativity from Phi_X = Psi_X Delta_X.

The Leibniz rule (derive_words, _leibniz) runs on integer numerators over
one denominator, divided out once; the letter images of delta_n, partial_n
and mzv_partial are cached in that form. Each takes words of one class, and
a value of another class is a TypeError; the class's constructor has checked
the letters.

partial_n_e is the word derivation carried to the e-basis: partial_gen(n,
entry) is word_to_e(partial_n(n, e_to_word(e_entry))), cached per (n, entry),
and the same Leibniz rule extends it over the entries of an index.

The Ohno pieces are pure functions of small index tuples that the Ohno,
cyc-Ohno and export routes ask for again and again, so _dual_shift_sum,
_ohno_rhs and A_ksp (through _A_ksp, keyed on tuple(k)) each keep a
bounded lru_cache(maxsize=4096); cache_clear() empties one. Their values
are shared, and no caller mutates one.
"""
from __future__ import annotations

import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import comb

from .algebra import (
    BAR1,
    EPoly,
    Index,
    LinComb,
    MzvPoly,
    NcPoly,
    _accumulate,
    _divided,
    _int_form,
    _times,
    binary_to_index,
    e_to_word,
    hoffman_dual,
    index_to_binary,
    word_to_e,
)
from .coeff import Laurent, _exact
from .errors import BadEntry, NotInH0, NotInMzvH1, OutOfRange, index_sized
from .products import shuffle_q
from .series import TruncSeries, _cauchy_into, series_const


def derive_words(w: LinComb, images: dict) -> LinComb:
    """Leibniz extension of a map given on single letters of words, or on
    single entries of indices: images maps each to a value of w's type."""
    den, nums = _int_form(*(v.terms for v in images.values()))
    cls = type(next(iter(images.values()), w))  # w's own class when there are no images
    return _leibniz(w, cls, den, dict(zip(images, nums)))


def _leibniz(w: LinComb, cls: type, den: int, imgs: dict) -> LinComb:
    """derive_words on w of class cls, the images integer terms over den: {letter: terms}."""
    if type(w) is not cls:
        raise TypeError(f"the derivation takes a {cls.__name__}, got {type(w).__name__}")
    wden, (terms,) = _int_form(w.terms)
    out: dict = {}
    for (word, j), c in terms.items():
        for i, ch in enumerate(word):
            head, tail = word[:i], word[i + 1:]
            for (u, ju), d in imgs[ch].items():
                _accumulate(out, (head + u + tail, j + ju), c * d)
    return cls._wrap(_divided(out, den * wden))


def _check_n(n: int) -> None:
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    index_sized(n, "n")


@lru_cache(maxsize=None)
def _delta_images(n: int) -> tuple[int, dict]:
    tail = "a" * n + "b"
    return n, {"a": {}, "b": dict.fromkeys((("b" + tail, 0), (tail, 0)), (-1) ** (n - 1))}


def delta_n(n: int, w: NcPoly) -> NcPoly:
    """The derivation with delta_n(a) = 0, delta_n(b) = ((-1)^(n-1)/n)(b+1)a^n b."""
    _check_n(n)
    return _leibniz(w, NcPoly, *_delta_images(n))


def d_n(n: int, w: NcPoly) -> NcPoly:
    """d_n(w) = ((-h)^(n-1)/n) { (a b^n) sh_q w - a b^n w }."""
    _check_n(n)
    abn = NcPoly._wrap({("a" + "b" * n, 0): 1})
    return (shuffle_q(abn, w) - abn * w).scale(Fraction((-1) ** (n - 1), n), n - 1)


# z = a(b+1) + h b and its flipped companion (b+1)a + h b, the two brackets
# in the defining formulas for partial_n.
_Z_LEFT = NcPoly({"ab": 1, "a": 1, "b": Laurent.h()})
_Z_RIGHT = NcPoly({"ba": 1, "a": 1, "b": Laurent.h()})
_A_PLUS_H_B = NcPoly({"ab": 1, "b": Laurent.h()})
_B_PLUS_1_B = NcPoly({"bb": 1, "b": 1})


def _nc_power(base: NcPoly, n: int) -> NcPoly:
    out = base.one()
    for _ in range(n):
        out = out * base
    return out


@lru_cache(maxsize=None)
def _partial_images(n: int) -> tuple[int, dict]:
    da = NcPoly.word("a") * _nc_power(_Z_LEFT, n - 1) * _A_PLUS_H_B
    db = NcPoly.word("a") * _nc_power(_Z_RIGHT, n - 1) * _B_PLUS_1_B
    return n, {"a": da.scale((-1) ** n).terms, "b": db.scale((-1) ** (n - 1)).terms}


def partial_n(n: int, w: NcPoly) -> NcPoly:
    """The derivation interpolating the two products; defined on all words."""
    _check_n(n)
    return _leibniz(w, NcPoly, *_partial_images(n))


# --- partial_n in the e-basis ---------------------------------------------


@lru_cache(maxsize=None)
def partial_gen(n: int, entry) -> EPoly:
    """partial_n on one generator: the word derivation carried to the e-basis.

    e_to_word is a homomorphism, partial_n keeps words ending in b ending in
    b, and word_to_e inverts e_to_word on those words.
    """
    return word_to_e(partial_n(n, e_to_word(EPoly.gen(entry))))


def partial_n_e(n: int, x: EPoly) -> EPoly:
    """partial_n on Hhat0 in the e-basis, by the Leibniz rule over entries on
    the cached generator images; raises NotInH0 off the subalgebra."""
    if not x.supported_in_Ihat0():
        raise NotInH0("input has an index starting with an unbarred 1")
    _check_n(n)
    return derive_words(x, {e: partial_gen(n, e) for k, _ in x.terms for e in k})


# --- the exponential homomorphisms -----------------------------------------


def _exp_series(apply_n, s: TruncSeries) -> TruncSeries:
    """exp(sum_n X^n D_n)(s), truncated at s's order, for pairwise commuting D_n.
    From each E_0 = s_i, E_m = (1/m) sum over j <= m of j D_j(E_(m-j)) is built
    in one dict, scaled once, and added straight into the X^(i+m) coefficient."""
    c, cls = s.coeffs, type(s.coeffs[0])
    outs = [cls._add_into({}, x) for x in c]
    for i, si in enumerate(c):
        if not si:
            continue
        es = [si]
        for m in range(1, len(c) - i):
            acc: dict = {}
            for j in range(1, m + 1):
                if es[m - j]:
                    for kj, v in apply_n(j, es[m - j]).terms.items():
                        _accumulate(acc, kj, v * j if j > 1 else v)
            es.append(cls._wrap(_times(acc, Fraction(1, m))))
            cls._add_into(outs[i + m], es[m])
    return TruncSeries(tuple(map(cls._wrap, outs)))


@lru_cache(maxsize=32)
def _letter_series(apply_n, letter: str, order: int) -> TruncSeries:
    """exp(sum X^n D_n) of one letter."""
    return _exp_series(apply_n, series_const(NcPoly.word(letter), order))


def _hom_apply(apply_n, w: NcPoly, order: int) -> TruncSeries:
    """exp(sum X^n D_n)(w), D_n a derivation, truncated at X^order: each first letter's
    series times the image of its tails goes straight into one dict per power of X."""
    if type(w) is not NcPoly:
        raise TypeError(f"the homomorphism takes an NcPoly, got {type(w).__name__}")
    if order < 0:
        raise OutOfRange(f"series order must be >= 0, got {order}")
    groups: dict[str, dict] = {}
    for (word, j), c in w.terms.items():
        groups.setdefault(word[:1], {})[word[1:], j] = c
    outs = [groups.pop("", {})] + [{} for _ in range(order)]
    for letter, tails in groups.items():
        tail = _hom_apply(apply_n, NcPoly._wrap(tails), order).coeffs
        _cauchy_into(outs, operator.mul, _letter_series(apply_n, letter, order).coeffs, tail)
    return TruncSeries(tuple(map(NcPoly._wrap, outs)))


def Phi_X(w: NcPoly, order: int) -> TruncSeries:
    """Phi_X = exp(sum X^n delta_n) applied to w, truncated."""
    return _hom_apply(delta_n, w, order)


def Psi_X(w: NcPoly, order: int) -> TruncSeries:
    """Psi_X = exp(sum X^n d_n) applied to w, truncated."""
    # Not a homomorphism route: verify derives Psi_X's multiplicativity
    # from Phi_X = Psi_X Delta_X, so assuming it here would be circular.
    return Psi_X_series(series_const(w, order))


def Delta_X(w: NcPoly, order: int) -> TruncSeries:
    """Delta_X = exp(sum X^n partial_n) applied to w, truncated."""
    return _hom_apply(partial_n, w, order)


def Psi_X_series(s: TruncSeries) -> TruncSeries:
    """Psi_X on a series, truncated at its order."""
    return _exp_series(d_n, s)


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


def _shift_sum(k: Index, l: int, coeff=1, j: int = 0) -> EPoly:
    """coeff h^j sum over |e| = l of e_(k+e), coeff a nonzero rational."""
    return EPoly._wrap(dict.fromkeys(((s, j) for s in _shifts(k, l)), _exact(coeff)))


@lru_cache(maxsize=4096)
def _dual_shift_sum(k: Index, m: int) -> EPoly:
    """sum over |e| = m of e_((k^dual + e)^dual), with ^dual the Hoffman dual."""
    return EPoly._wrap({(hoffman_dual(s), 0): 1 for s in _shifts(hoffman_dual(k), m)})


@lru_cache(maxsize=4096)
def _ohno_rhs(k: Index, m: int, n: int) -> EPoly:
    """The shift side of the Ohno-type relation for (k, m, n):
    sum over l <= m of (C(n, m-l+1)/n) h^(m-l) sum_(|e|=l) e_(k+e)."""
    return EPoly.sum(
        _shift_sum(k, l, Fraction(comb(n, m - l + 1), n), m - l) for l in range(m + 1)
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
    return EPoly._wrap({(k, 0): c for k, c in counts.items()})


def A_ksp(k: Index, s: int, p: int) -> EPoly:
    """A_(k,s,p): a_s over all 0/1 shifts of k of total weight p, entrywise -1.

    k may be any sequence; the cached _A_ksp keys on tuple(k)."""
    return _A_ksp(tuple(k), s, p)


@lru_cache(maxsize=4096)
def _A_ksp(k: Index, s: int, p: int) -> EPoly:
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

# Words over {x, y} are MzvPoly values; the coefficients stay rational (no h
# ever appears on this side).


def z_word(*ks: int) -> MzvPoly:
    """z_(k_1) ... z_(k_r) with z_k = x^(k-1) y, the binary word of ks over {x, y}."""
    return MzvPoly({index_to_binary(ks).replace("0", "x").replace("1", "y"): 1})


@lru_cache(maxsize=None)
def _mzv_images(n: int) -> tuple[int, dict]:
    img = MzvPoly.word("x") * _nc_power(MzvPoly({"x": 1, "y": 1}), n - 1) * MzvPoly.word("y")
    return 1, {"x": img.terms, "y": (-img).terms}


def mzv_partial(n: int, w: MzvPoly) -> MzvPoly:
    """The classical derivation with x -> x(x+y)^(n-1) y -> -x(x+y)^(n-1)y."""
    _check_n(n)
    return _leibniz(w, MzvPoly, *_mzv_images(n))


def iota(w: MzvPoly) -> EPoly:
    """The embedding z_k -> e_k on words ending in y (and the empty word)."""
    if type(w) is not MzvPoly:
        raise TypeError(f"iota takes an MzvPoly, got {type(w).__name__}")
    out: dict = {}
    for (word, j), c in w.terms.items():
        if word.endswith("x"):
            raise NotInMzvH1(f"word {word!r} ends in x")
        if j:
            raise NotInMzvH1("classical words must have rational coefficients")
        _accumulate(out, (binary_to_index(word.replace("x", "0").replace("y", "1")), 0), c)
    return EPoly._wrap(out)
