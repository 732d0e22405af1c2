"""Machine verification suites for every relation the package models.

A suite is a generator of (case label, witness) pairs, registered by name
with `_suite`: the witness is None when the case verified and a failure
string otherwise, built only on failure. The registered function returns
one VerifyReport per case, timed from the previous yield up to its own,
so the first case also carries the suite's setup, and lists the
generator's parameter names in `params`. Each parameter has one qsh
verify flag; a bound that no flag sets is a constant in the suite's
body. Suites are pure and deterministic; cases are emitted in sorted
parameter order, and `verify all` runs the suites in the order they are
registered.

Six suites (double-shuffle, derivation, zn-duality with its instances
e_1bar + e_1, ohno, varpi-l, cyc-ohno) check relation families of `export`
through its realizations, which return None or a nonzero image, so
`v and witness` is the witness exactly when the check fails.
"""
from __future__ import annotations

import operator
import time
from fractions import Fraction
from functools import wraps
from itertools import combinations, product as iproduct

from .algebra import (
    BAR1,
    EPoly,
    NcPoly,
    _sorted_indices,
    e_to_word,
    index_str,
    word_to_e,
)
from .coeff import _Frozen
from .cyclo import fmzv_reduce, ones_bar_closed_form, zn_eval, zn_map
from .derivations import (
    A_ksp,
    Delta_X,
    Phi_X,
    Psi_X,
    Psi_X_series,
    _dual_shift_sum,
    d_n,
    delta_expansion,
    delta_n,
    iota,
    mzv_partial,
    partial_n,
    partial_n_e,
    z_word,
)
from .errors import OutOfRange
from .evalq import DEFAULT_M, DEFAULT_Q, QValue, Zq_eval, _exact_str, zeta_q_partial
from .export import (
    certified, cyc_ohno_relations, cyclotomic, derivation_relations, double_shuffle_relations,
    duality_relations, mod_p, ohno_relations, varpi_l_relations,
)
from .products import shuffle_q, stuffle_q
from .series import (
    TruncSeries, geometric, series_const, series_one, series_phi, series_psi, ts_log, ts_mul
)


class VerifyReport(_Frozen):
    __slots__ = ("suite", "case", "ok", "witness", "ms")

    def __init__(self, suite: str, case: str, ok: bool, witness: str | None, ms: float):
        for field, value in zip(self.__slots__, (suite, case, ok, witness, ms)):
            object.__setattr__(self, field, value)

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        text = f"[{status}] {self.suite}: {self.case} ({self.ms:.1f} ms)"
        if not self.ok and self.witness:
            text += f"\n    witness: {self.witness}"
        return text


#: Suite name -> suite function, in the order `verify all` runs them.
SUITES = {}


def _suite(name: str):
    """Register a generator of (case, witness) pairs as the suite `name`.

    The registered function keeps the generator's name, docstring and
    signature, returns list[VerifyReport], and lists the generator's
    parameter names in `params`."""

    def register(gen):
        @wraps(gen)
        def suite(*args, **kwargs) -> list[VerifyReport]:
            reports = []
            t0 = time.perf_counter()
            for case, witness in gen(*args, **kwargs):
                ms = (time.perf_counter() - t0) * 1e3
                reports.append(VerifyReport(name, case, witness is None, witness, ms))
                t0 = time.perf_counter()
            return reports

        code = gen.__code__
        suite.params = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
        SUITES[name] = suite
        return suite

    return register


def _idx_label(k) -> str:
    return f"({index_str(k)})"


# --- Z_q and formal series suites -------------------------------------------


def _product_witness(vs, v1, v2):
    """|vs - v1 v2| <= ts + t1 (|v2| + t2) + t2 (|v1| + t1) + t1 t2, for v, t
    the values and tail bounds of Z_q(w *_q w'), Z_q(w), Z_q(w').

    The stuffle product rule passes on integer enclosures at 2^-P, P being
    64 bits below the smallest nonzero tail bound, with no value reduced: the
    residual is bounded above and the bound below. Any other case is decided,
    and its witness built, in exact Fractions."""
    bounds = (vs.tail_bound, v1.tail_bound, v2.tail_bound)
    gaps = [t.denominator.bit_length() - t.numerator.bit_length() for t in bounds if t]
    bits = 64 + max([0, *gaps])
    (ls, hs), (l1, h1), (l2, h2) = (v._enclose(bits) for v in (vs, v1, v2))
    ts, t1, t2 = ((t.numerator << bits) // t.denominator for t in bounds)
    corners = (l1 * l2, l1 * h2, h1 * l2, h1 * h2)
    resid_hi = max(abs((ls << bits) - max(corners)), abs((hs << bits) - min(corners)))
    bound_lo = (ts << bits) + t1 * (max(l2, -h2, 0) + t2) + t2 * (max(l1, -h1, 0) + t1) + t1 * t2
    if resid_hi <= bound_lo:
        return None
    prod_resid = abs(vs.value - v1.value * v2.value)
    prod_bound = (
        vs.tail_bound
        + v1.tail_bound * (abs(v2.value) + v2.tail_bound)
        + v2.tail_bound * (abs(v1.value) + v1.tail_bound)
        + v1.tail_bound * v2.tail_bound
    )
    if prod_resid > prod_bound:
        return f"stuffle product residual {_exact_str(prod_resid)} > {_exact_str(prod_bound)}"
    return None


@_suite("double-shuffle")
def suite_double_shuffle(q: Fraction = DEFAULT_Q, M: int = DEFAULT_M, max_weight: int = 3):
    """Z_q(w *_q w' - w sh_q w') = 0 within the certified bound, and the
    stuffle product rule against the product of values."""
    qv = QValue(q)
    for (w1, w2), rel in double_shuffle_relations(max_weight):
        resid = certified(rel, qv, M)
        if resid is not None:
            witness = f"double-shuffle residual {resid}"
        else:
            vs = Zq_eval(stuffle_q(EPoly({w1: 1}), EPoly({w2: 1})), qv, M)
            witness = _product_witness(vs, zeta_q_partial(w1, qv, M), zeta_q_partial(w2, qv, M))
        yield f"w={_idx_label(w1)} w'={_idx_label(w2)}", witness


@_suite("log-formulas")
def suite_log_formulas(order: int = 6):
    """psi(X) and phi(X) as logarithms of the geometric series 1/(1-e_1bar X)."""
    got = ts_log(shuffle_q, geometric(NcPoly.word("ab"), order))
    want = series_psi(order)
    witness = None if got == want else f"log_sh mismatch:\n{got.coeffs}\nvs\n{want.coeffs}"
    yield f"log_sh(1/(1-e_1bar X)) = psi, order {order}", witness
    got = ts_log(stuffle_q, geometric(EPoly.gen(BAR1), order))
    want = series_phi(order).map_coeffs(word_to_e)
    witness = None if got == want else f"log_* mismatch:\n{got.coeffs}\nvs\n{want.coeffs}"
    yield f"log_*(1/(1-e_1bar X)) = phi, order {order}", witness


def _one_minus_e1bar_x(like, order: int) -> TruncSeries:
    one = series_one(like, order)
    gen = EPoly.gen(BAR1) if isinstance(like, EPoly) else NcPoly.word("ab")
    coeffs = list(one.coeffs)
    coeffs[1] = coeffs[1] - gen
    return TruncSeries(tuple(coeffs))


@_suite("delta-factorization")
def suite_delta_factorization(order: int = 4, max_weight: int = 4):
    """[D_i, D_j] = 0 for i < j <= 6 for d_n on words of length <= 4 and delta_n on
    letters, and for j <= 5 for partial_n on letters ([partial_i, partial_6] alone
    takes 2.5 s); the rewrites Phi_X = (1-e_1bar X)(1/(1-e_1bar X) *_q -)
    and Psi_X = (1-e_1bar X)(1/(1-e_1bar X) sh_q -); and Phi_X = Psi_X Delta_X
    on letters to order 6."""
    if order < 1:
        raise OutOfRange("delta-factorization needs order >= 1")
    short = [NcPoly.word("".join(t)) for m in range(5) for t in iproduct("ab", repeat=m)]
    letters = [NcPoly.word("a"), NcPoly.word("b")]
    for name, op, top, words in (("d", d_n, 6, short), ("delta", delta_n, 6, letters),
                                 ("partial", partial_n, 5, letters)):
        for i, j in combinations(range(1, top + 1), 2):
            bad = next((w for w in words if op(i, op(j, w)) != op(j, op(i, w))), None)
            witness = None if bad is None else f"[{name}_{i}, {name}_{j}]({bad}) != 0"
            yield f"[{name}_{i}, {name}_{j}] = 0 on {len(words)} words", witness
    basis = _sorted_indices(max_weight, "Ihat")
    geo_e = geometric(EPoly.gen(BAR1), order)
    geo_w = geometric(NcPoly.word("ab"), order)
    left_e = _one_minus_e1bar_x(EPoly.one(), order)
    left_w = _one_minus_e1bar_x(NcPoly.one(), order)

    for k in basis:
        w = EPoly({k: 1})
        lhs = Phi_X(e_to_word(w), order).map_coeffs(word_to_e)
        rhs = ts_mul(operator.mul, left_e, ts_mul(stuffle_q, geo_e, series_const(w, order)))
        witness = None if lhs == rhs else f"Phi rewrite fails on e_{_idx_label(k)}"
        yield f"Phi_X rewrite w={_idx_label(k)}", witness

    shuffle_targets = [("a", NcPoly.word("a")), ("b", NcPoly.word("b")), ("ab", NcPoly.word("ab"))]
    for k in basis:
        if k:
            shuffle_targets.append((f"e{_idx_label(k)}", e_to_word(EPoly({k: 1}))))
    for name, w in shuffle_targets:
        lhs = Psi_X(w, order)
        rhs = ts_mul(operator.mul, left_w, ts_mul(shuffle_q, geo_w, series_const(w, order)))
        yield f"Psi_X rewrite w={name}", None if lhs == rhs else f"Psi rewrite fails on {name}"

    for name, u in (("a", NcPoly.word("a")), ("b", NcPoly.word("b"))):
        lhs = Phi_X(u, 6)
        rhs = Psi_X_series(Delta_X(u, 6))
        witness = None if lhs == rhs else f"Phi_X != Psi_X Delta_X on {name}"
        yield f"Phi=Psi.Delta on {name}, order 6", witness


@_suite("cor-delta")
def suite_cor_delta(order: int = 4, max_weight: int = 4):
    """1/(1-e_1bar X) *_q w = 1/(1-e_1bar X) sh_q Delta_X(w) on basis words."""
    geo_e = geometric(EPoly.gen(BAR1), order)
    geo_w = geometric(NcPoly.word("ab"), order)
    for k in _sorted_indices(max_weight, "Ihat"):
        w = EPoly({k: 1})
        # compared in words: e_to_word is injective, with word_to_e its inverse on H^1
        lhs = ts_mul(stuffle_q, geo_e, series_const(w, order)).map_coeffs(e_to_word)
        rhs = ts_mul(shuffle_q, geo_w, Delta_X(e_to_word(w), order))
        yield f"w={_idx_label(k)}", None if lhs == rhs else f"cor-Delta fails on e_{_idx_label(k)}"


@_suite("derivation")
def suite_derivation(
    q: Fraction = DEFAULT_Q, M: int = DEFAULT_M, max_n: int = 3, max_weight: int = 3
):
    """Z_q(partial_n(w)) = 0 within the certified bound on Hhat0 words."""
    qv = QValue(q)
    for (n, w), rel in derivation_relations(max_n, max_weight):
        cv = certified(rel, qv, M)
        yield f"n={n} w={_idx_label(w)}", cv and f"Z_q(partial_{n} e_{_idx_label(w)}) = {cv}"


# --- root-of-unity suites ---------------------------------------------------


@_suite("zn-stuffle")
def suite_zn_stuffle(n_range=range(3, 11), max_weight: int = 3):
    """z_n(w *_q w') = z_n(w) z_n(w') exactly in Q(zeta_n)."""
    words = _sorted_indices(max_weight, "Ihat")
    for n, w1, w2 in iproduct(n_range, words, words):
        e1, e2 = EPoly({w1: 1}), EPoly({w2: 1})
        lhs = zn_map(stuffle_q(e1, e2), n)
        rhs = zn_map(e1, n) * zn_map(e2, n)
        witness = None if lhs == rhs else f"z_{n} stuffle fails: {lhs} != {rhs}"
        yield f"n={n} w={_idx_label(w1)} w'={_idx_label(w2)}", witness


@_suite("zn-duality")
def suite_zn_duality(n_range=range(3, 11), max_weight: int = 3):
    """z_n(w sh_q w') = z_n(psi(w) w') exactly, plus z_n(e_1bar) = -z_n(e_1)
    for n = 2..12."""
    relations = list(duality_relations(max_weight))  # they do not depend on n
    for n, ((w1, w2), rel) in iproduct(n_range, relations):
        v = cyclotomic(rel, n)
        witness = v and f"z_{n} shuffle-psi fails: lhs - rhs = {v}"
        yield f"n={n} w={_idx_label(w1)} w'={_idx_label(w2)}", witness
    instance = EPoly({(BAR1,): 1, (1,): 1})
    for n in range(2, 13):
        v = cyclotomic(instance, n)
        yield f"duality instance n={n}", v and f"z_{n}(e_1bar) + z_{n}(e_1) = {v}"


@_suite("ohno")
def suite_ohno(n_range=range(4, 13), max_weight: int = 4, max_m: int = 3):
    """The Ohno-type relation, plus the Delta_X expansion and the
    combination identity that feed its proof."""
    for k in range(1, 5):
        lhs = Delta_X(e_to_word(EPoly.gen(k)), 3).map_coeffs(word_to_e)
        witness = None if lhs == delta_expansion(k, 3) else f"Delta_X(e_{k}) expansion mismatch"
        yield f"Delta expansion k={k}", witness

    for k in [k for k in _sorted_indices(4, "I") if k]:
        r = len(k)
        for p, mp in iproduct(range(r + 1), range(3)):
            lhs = EPoly.sum(EPoly({(1,) * l: 1}) * A_ksp(k, mp - l, p) for l in range(mp + 1))
            rhs = EPoly.sum(
                _dual_shift_sum(tuple(a + b for a, b in zip(k, lam)), mp)
                for lam in iproduct((0, 1), repeat=r)
                if sum(lam) == p
            )
            witness = None if lhs == rhs else f"combination identity fails k={k} p={p} m-p={mp}"
            yield f"combination k={_idx_label(k)} p={p} m-p={mp}", witness

    for (n, k, m), rel in ohno_relations(n_range, max_weight, max_m):
        v = cyclotomic(rel, n)
        yield f"n={n} k={_idx_label(k)} m={m}", v and f"Ohno fails: lhs - rhs = {v}"


@_suite("ones-bar")
def suite_ones_bar(n_range=range(2, 17)):
    """z_n({1bar}^r) against its closed form, for n in n_range and r <= min(n - 1, 8)."""
    for n in n_range:
        for r in range(min(n - 1, 8) + 1):
            lhs = zn_eval((BAR1,) * r, n)
            rhs = ones_bar_closed_form(n, r)
            yield f"n={n} r={r}", None if lhs == rhs else f"z_{n}(1bar^{r}) = {lhs} != {rhs}"


def harmonic_sum_mod_p(k, p: int) -> int:
    """Independent oracle: sum over p > m_1 > ... > m_r >= 1 of
    prod m_j^(-k_j) mod p, computed with modular inverses."""
    cum_prev = [1] * p  # over m = 0..p-1
    for entry in reversed(k):
        cum = [0] * p
        acc = 0
        for m in range(1, p):
            acc = (acc + pow(m, -entry, p) * cum_prev[m - 1]) % p
            cum[m] = acc
        cum_prev = cum
    return cum_prev[p - 1]


@_suite("fmzv")
def suite_fmzv(primes=(5, 7, 11, 13), max_weight: int = 4):
    """z_p(k; zeta_p) mod (1 - zeta_p) equals the truncated harmonic sum mod p."""
    for p, k in iproduct(primes, _sorted_indices(max_weight, "I")):
        got = fmzv_reduce(zn_eval(k, p), p)
        want = harmonic_sum_mod_p(k, p)
        witness = None if got == want else f"mod-{p} reduction {got} != harmonic sum {want}"
        yield f"p={p} k={_idx_label(k)}", witness


@_suite("varpi-l")
def suite_varpi_l(primes=(7, 11, 13), max_weight: int = 3):
    """(1-zeta_p) Zcyc(k) = Zcyc(L(k)) at single primes, coprime cases only."""
    relations = list(varpi_l_relations(max_weight))  # they do not depend on p
    for p, (k, rel) in iproduct(primes, relations):
        if (2 * len(k) + 1) % p:
            yield f"p={p} k={_idx_label(k)}", mod_p(rel, p) and f"varpi-L fails at p={p}, k={k}"


@_suite("cyc-ohno")
def suite_cyc_ohno(primes=(7, 11, 13), max_weight: int = 3, max_m: int = 2):
    """The Ohno-type relation for the cyclotomic analogue at single primes."""
    relations = list(cyc_ohno_relations(max_weight, max_m))  # they do not depend on p
    for p, ((k, m), rel) in iproduct(primes, relations):
        if p >= len(k) + m + 1:
            v = mod_p(rel, p)
            yield f"p={p} k={_idx_label(k)} m={m}", v and f"cyc-Ohno fails: lhs - rhs = {v}"


def _mzv_compare_witness(n: int, k):
    """k is a nonempty index in I; the iota comparison is made in words, as in cor-delta."""
    w = z_word(*k)
    lhs = iota(mzv_partial(n, w)).scale(Fraction((-1) ** n, n))
    if e_to_word(lhs) != partial_n(n, e_to_word(iota(w))):
        return f"iota comparison fails on z{k}"
    if k[0] != 1 and lhs != partial_n_e(n, iota(w)):
        return f"e-basis route disagrees on z{k}"
    return None


@_suite("mzv-compare")
def suite_mzv_compare(max_n: int = 3, max_weight: int = 4):
    """((-1)^n / n) iota(partial~_n(w)) = partial_n(iota(w)) on z-words."""
    indices = [k for k in _sorted_indices(max_weight, "I") if k]
    for n, k in iproduct(range(1, max_n + 1), indices):
        yield f"n={n} w=z{_idx_label(k)}", _mzv_compare_witness(n, k)


def run_suite(name: str, **kwargs) -> list[VerifyReport]:
    if name == "all":
        if kwargs:
            raise ValueError(f"suite 'all' runs every suite at its defaults; drop {sorted(kwargs)}")
        return [report for suite in SUITES.values() for report in suite()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](**kwargs)
