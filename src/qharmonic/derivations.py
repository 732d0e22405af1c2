"""The derivations delta_n, d_n, partial_n and the exponential homomorphisms
Phi_X, Psi_X, Delta_X built from them, plus the index combinatorics feeding
the Ohno-type relations and the comparison embedding from the classical
two-letter algebra of multiple zeta values.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct

from .algebra import BAR1, EPoly, Index, NcPoly, _accumulate, binary_to_index, left_mul_a
from .coeff import Laurent
from .errors import BadEntry, NotInH0, NotInMzvH1
from .products import ProductTag, shuffle_q
from .series import (
    TruncSeries,
    series_log_one_plus_hbx,
    series_one,
    series_psi,
    ts_mul,
)


def derive_words(w: NcPoly, images: dict[str, NcPoly]) -> NcPoly:
    """Leibniz extension of a map given on single letters."""
    out: dict[str, Laurent] = {}
    for word, c in w.terms.items():
        for i, ch in enumerate(word):
            head, tail = word[:i], word[i + 1:]
            for u, d in images[ch].terms.items():
                _accumulate(out, head + u + tail, c * d)
    res = NcPoly.__new__(NcPoly)
    res.terms = out
    return res


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


_A_PLUS_H = NcPoly({"a": 1, "": Laurent.h()})


def partial_images_alt(n: int) -> dict[str, NcPoly]:
    """The rewritten generator formulas; tests check they agree with the
    defining ones."""
    ca = Fraction((-1) ** n, n)
    cb = Fraction((-1) ** (n - 1), n)
    da = (
        NcPoly.word("a") * _A_PLUS_H * _nc_power(_Z_RIGHT, n - 1) * NcPoly.word("b")
    ).scale(ca)
    db = (
        NcPoly({"ab": 1, "a": 1}) * _nc_power(_Z_LEFT, n - 1) * NcPoly.word("b")
    ).scale(cb)
    return {"a": da, "b": db}


def partial_n_alt(n: int, w: NcPoly) -> NcPoly:
    return derive_words(w, partial_images_alt(n))


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
    out = EPoly()
    for k, c in x.terms.items():
        for i, e in enumerate(k):
            img = partial_gen(n, e)
            piece = EPoly({k[:i]: c}) * img * EPoly({k[i + 1:]: 1})
            out = out + piece
    return out


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
    prefixes share the already-applied tail.
    """
    zero = type(w).zero()
    total = [w] + [zero] * order
    fact = [1]
    for r in range(1, order + 1):
        fact.append(fact[-1] * r)

    def dfs(x, m: int, r: int):
        for j in range(1, order - m + 1):
            y = apply_n(j, x)
            if y.is_zero():
                continue
            total[m + j] = total[m + j] + y.scale(Fraction(1, fact[r + 1]))
            dfs(y, m + j, r + 1)

    dfs(w, 0, 0)
    return total


def Phi_X(w: NcPoly, order: int) -> TruncSeries:
    """Phi_X = exp(sum X^n delta_n) applied to w, truncated."""
    return TruncSeries(tuple(_exp_apply(delta_n, w, order)))


def Psi_X(w: NcPoly, order: int) -> TruncSeries:
    """Psi_X = exp(sum X^n d_n) applied to w, truncated."""
    return TruncSeries(tuple(_exp_apply(d_n, w, order)))


def Delta_X(w: NcPoly, order: int) -> TruncSeries:
    """Delta_X = exp(sum X^n partial_n) applied to w, truncated."""
    return TruncSeries(tuple(_exp_apply(partial_n, w, order)))


def Psi_X_series(s: TruncSeries) -> TruncSeries:
    """Psi_X on a series: the operator coefficients convolve with those of s."""
    n = s.order
    zero = type(s.coeffs[0]).zero()
    out = [zero] * (n + 1)
    for i, c in enumerate(s.coeffs):
        if c.is_zero():
            continue
        pieces = _exp_apply(d_n, c, n - i)
        for j, piece in enumerate(pieces):
            out[i + j] = out[i + j] + piece
    return TruncSeries(tuple(out))


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
        rho = ts_mul(ProductTag.CONCAT, pref, rho) + ts_mul(ProductTag.SHUFFLE_Q, psi, rho)
    return rho


def d_power_series(s: int, w: TruncSeries) -> TruncSeries:
    """(sum_n X^n d_n)^s applied to a series, truncated at its order."""
    out = w
    n = w.order
    for _ in range(s):
        zero = type(out.coeffs[0]).zero()
        nxt = [zero] * (n + 1)
        for i, c in enumerate(out.coeffs):
            if c.is_zero():
                continue
            for j in range(1, n - i + 1):
                y = d_n(j, c)
                if not y.is_zero():
                    nxt[i + j] = nxt[i + j] + y
        out = TruncSeries(tuple(nxt))
    return out


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
    slots = sum(k)
    out = EPoly()
    for js in _compositions(s, slots):
        word = []
        pos = 0
        for ki in k:
            for _ in range(ki):
                word.append("0" + "1" * js[pos])
                pos += 1
            word.append("1")
        idx = binary_to_index("".join(word))
        out = out + EPoly({idx: 1})
    return out


def A_ksp(k: Index, s: int, p: int) -> EPoly:
    """A_(k,s,p): a_s over all 0/1 shifts of k of total weight p, entrywise -1."""
    if not k:
        raise BadEntry("A_(k,s,p) needs a nonempty index")
    if any(e is BAR1 for e in k):
        raise BadEntry("A_(k,s,p) takes indices without 1bar")
    r = len(k)
    out = EPoly()
    for lam in iproduct((0, 1), repeat=r):
        if sum(lam) != p:
            continue
        shifted = tuple(ki + li - 1 for ki, li in zip(k, lam))
        out = out + a_s_index(shifted, s)
    return out


def delta_expansion(k: int, order: int) -> TruncSeries:
    """sum_(p,s) (-1)^s X^(p+s) A_((k),s,p) as a series of e-polynomials."""
    coeffs = [EPoly.zero() for _ in range(order + 1)]
    for m in range(order + 1):
        acc = EPoly()
        for s in range(m + 1):
            p = m - s
            acc = acc + A_ksp((k,), s, p).scale(Fraction((-1) ** s))
        coeffs[m] = acc
    return TruncSeries(tuple(coeffs))


# --- comparison with the classical two-letter algebra ----------------------

# Words over {x, y} are carried by NcPoly with letters 'x' and 'y'; the
# coefficients stay rational (no h ever appears on this side).


def mzv_word(w: str, coeff=1) -> NcPoly:
    if any(ch not in "xy" for ch in w):
        raise BadEntry(f"classical words use letters x and y, got {w!r}")
    return NcPoly({w: coeff})


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
    out = EPoly()
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
        out = out + EPoly({tuple(entries): c})
    return out
