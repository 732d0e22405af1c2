"""Machine verification suites for every relation the package models.

Each suite returns a list of VerifyReport, one per checked case, with an
exact pass/fail status and a serialized witness on failure. Suites are
pure and deterministic; cases are emitted in sorted parameter order.
"""
from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product as iproduct

from .algebra import (
    BAR1,
    EPoly,
    NcPoly,
    e_to_word,
    enumerate_indices_up_to,
    in_I,
    index_sort_key,
    index_str,
    word_to_e,
)
from .cyclo import (
    ohno_check,
    ones_bar_closed_form,
    varpi_l_check,
    zcyc_mod_p,
    zn_eval,
    zn_map,
)
from .derivations import (
    A_ksp,
    Delta_X,
    Phi_X,
    Psi_X,
    Psi_X_series,
    _dual_shift_sum,
    _shift_sum,
    delta_expansion,
    iota,
    mzv_partial,
    partial_n,
    partial_n_e,
    z_word,
)
from .errors import BadDenominator, OutOfRange
from .evalq import DEFAULT_M, DEFAULT_Q, QValue, Zq_eval, _exact_str, zeta_q_partial
from .products import l_map_epoly, psi_involution, shuffle_q, stuffle_q
from .series import TruncSeries, geometric, series_one, series_phi, series_psi, ts_log, ts_mul


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    case: str
    ok: bool
    witness: str | None
    ms: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        text = f"[{status}] {self.suite}: {self.case} ({self.ms:.1f} ms)"
        if not self.ok and self.witness:
            text += f"\n    witness: {self.witness}"
        return text


def _run(suite: str, case: str, check) -> VerifyReport:
    t0 = time.perf_counter()
    ok, witness = check()
    ms = (time.perf_counter() - t0) * 1e3
    return VerifyReport(suite, case, ok, None if ok else witness, ms)


def _idx_label(k) -> str:
    return f"({index_str(k)})"


def _sorted_indices(max_weight: int, family: str):
    return sorted(enumerate_indices_up_to(max_weight, family), key=index_sort_key)


# --- numeric suites ---------------------------------------------------------


def suite_double_shuffle(q: Fraction = DEFAULT_Q, M: int = DEFAULT_M, max_weight: int = 3):
    """Z_q(w *_q w' - w sh_q w') = 0 within the certified bound, and the
    stuffle product rule against the product of values."""
    qv = QValue(q)
    words = _sorted_indices(max_weight, "Ihat0")
    reports = []
    for w1 in words:
        for w2 in words:
            def check(w1=w1, w2=w2):
                e1, e2 = EPoly({w1: 1}), EPoly({w2: 1})
                st = stuffle_q(e1, e2)
                sh = word_to_e(shuffle_q(e_to_word(e1), e_to_word(e2)))
                resid = Zq_eval(st - sh, qv, M)
                if not resid.certifies_zero():
                    return False, f"double-shuffle residual {resid}"
                v1, v2 = zeta_q_partial(w1, qv, M), zeta_q_partial(w2, qv, M)
                vs = Zq_eval(st, qv, M)
                prod_resid = abs(vs.value - v1.value * v2.value)
                prod_bound = (
                    vs.tail_bound
                    + v1.tail_bound * (abs(v2.value) + v2.tail_bound)
                    + v2.tail_bound * (abs(v1.value) + v1.tail_bound)
                    + v1.tail_bound * v2.tail_bound
                )
                if prod_resid > prod_bound:
                    excess = f"{_exact_str(prod_resid)} > {_exact_str(prod_bound)}"
                    return False, f"stuffle product residual {excess}"
                return True, None

            reports.append(
                _run("double-shuffle", f"w={_idx_label(w1)} w'={_idx_label(w2)}", check)
            )
    return reports


def suite_derivation(
    q: Fraction = DEFAULT_Q, M: int = DEFAULT_M, max_n: int = 3, max_weight: int = 3
):
    """Z_q(partial_n(w)) = 0 within the certified bound on Hhat0 words."""
    qv = QValue(q)
    reports = []
    words = [k for k in _sorted_indices(max_weight, "Ihat0") if k]
    for n in range(1, max_n + 1):
        for w in words:
            def check(n=n, w=w):
                cv = Zq_eval(partial_n_e(n, EPoly({w: 1})), qv, M)
                if cv.certifies_zero():
                    return True, None
                return False, f"Z_q(partial_{n} e_{_idx_label(w)}) = {cv}"

            reports.append(_run("derivation", f"n={n} w={_idx_label(w)}", check))
    return reports


# --- formal series suites ---------------------------------------------------


def suite_log_formulas(order: int = 6):
    """psi(X) and phi(X) as logarithms of the geometric series 1/(1-e_1bar X)."""
    reports = []

    def check_shuffle():
        geo = geometric(NcPoly.word("ab"), order)
        got = ts_log(shuffle_q, geo)
        want = series_psi(order)
        return got == want, f"log_sh mismatch:\n{got.coeffs}\nvs\n{want.coeffs}"

    def check_stuffle():
        geo = geometric(EPoly.gen(BAR1), order)
        got = ts_log(stuffle_q, geo)
        want = series_phi(order).map_coeffs(word_to_e)
        return got == want, f"log_* mismatch:\n{got.coeffs}\nvs\n{want.coeffs}"

    reports.append(_run("log-formulas", f"log_sh(1/(1-e_1bar X)) = psi, order {order}", check_shuffle))
    reports.append(_run("log-formulas", f"log_*(1/(1-e_1bar X)) = phi, order {order}", check_stuffle))
    return reports


def _one_minus_e1bar_x(like, order: int) -> TruncSeries:
    one = series_one(like, order)
    gen = EPoly.gen(BAR1) if isinstance(like, EPoly) else NcPoly.word("ab")
    coeffs = list(one.coeffs)
    coeffs[1] = coeffs[1] - gen
    return TruncSeries(tuple(coeffs))


def suite_delta_factorization(order: int = 4, max_weight: int = 4, delta_order: int = 6):
    """The rewrites Phi_X = (1-e_1bar X)(1/(1-e_1bar X) *_q -) and
    Psi_X = (1-e_1bar X)(1/(1-e_1bar X) sh_q -), and Phi_X = Psi_X Delta_X."""
    if order < 1:
        raise OutOfRange("delta-factorization needs order >= 1")
    reports = []
    basis = _sorted_indices(max_weight, "Ihat")
    geo_e = geometric(EPoly.gen(BAR1), order)
    geo_w = geometric(NcPoly.word("ab"), order)
    left_e = _one_minus_e1bar_x(EPoly.one(), order)
    left_w = _one_minus_e1bar_x(NcPoly.one(), order)

    for k in basis:
        def check_stuffle_rewrite(k=k):
            w = EPoly({k: 1})
            lhs = Phi_X(e_to_word(w), order).map_coeffs(word_to_e)
            rhs = ts_mul(
                operator.mul,
                left_e,
                ts_mul(stuffle_q, geo_e, TruncSeries((w,) + (EPoly.zero(),) * order)),
            )
            return lhs == rhs, f"Phi rewrite fails on e_{_idx_label(k)}"

        reports.append(
            _run("delta-factorization", f"Phi_X rewrite w={_idx_label(k)}", check_stuffle_rewrite)
        )

    shuffle_targets = [("a", NcPoly.word("a")), ("b", NcPoly.word("b")), ("ab", NcPoly.word("ab"))]
    for k in basis:
        if k:
            shuffle_targets.append((f"e{_idx_label(k)}", e_to_word(EPoly({k: 1}))))
    for name, w in shuffle_targets:
        def check_shuffle_rewrite(w=w, name=name):
            lhs = Psi_X(w, order)
            rhs = ts_mul(
                operator.mul,
                left_w,
                ts_mul(shuffle_q, geo_w, TruncSeries((w,) + (NcPoly.zero(),) * order)),
            )
            return lhs == rhs, f"Psi rewrite fails on {name}"

        reports.append(_run("delta-factorization", f"Psi_X rewrite w={name}", check_shuffle_rewrite))

    for name, u in (("a", NcPoly.word("a")), ("b", NcPoly.word("b"))):
        def check_delta(u=u, name=name):
            lhs = Phi_X(u, delta_order)
            rhs = Psi_X_series(Delta_X(u, delta_order))
            return lhs == rhs, f"Phi_X != Psi_X Delta_X on {name}"

        reports.append(
            _run("delta-factorization", f"Phi=Psi.Delta on {name}, order {delta_order}", check_delta)
        )
    return reports


def suite_cor_delta(order: int = 4, max_weight: int = 4):
    """1/(1-e_1bar X) *_q w = 1/(1-e_1bar X) sh_q Delta_X(w) on basis words."""
    reports = []
    geo_e = geometric(EPoly.gen(BAR1), order)
    geo_w = geometric(NcPoly.word("ab"), order)
    for k in _sorted_indices(max_weight, "Ihat"):
        def check(k=k):
            w = EPoly({k: 1})
            lhs = ts_mul(stuffle_q, geo_e, TruncSeries((w,) + (EPoly.zero(),) * order))
            rhs = ts_mul(shuffle_q, geo_w, Delta_X(e_to_word(w), order)).map_coeffs(word_to_e)
            return lhs == rhs, f"cor-Delta fails on e_{_idx_label(k)}"

        reports.append(_run("cor-delta", f"w={_idx_label(k)}", check))
    return reports


# --- root-of-unity suites ---------------------------------------------------


def suite_zn_stuffle(n_range=range(3, 11), max_weight: int = 3):
    """z_n(w *_q w') = z_n(w) z_n(w') exactly in Q(zeta_n)."""
    reports = []
    words = _sorted_indices(max_weight, "Ihat")
    for n in n_range:
        for w1 in words:
            for w2 in words:
                def check(n=n, w1=w1, w2=w2):
                    e1, e2 = EPoly({w1: 1}), EPoly({w2: 1})
                    lhs = zn_map(stuffle_q(e1, e2), n)
                    rhs = zn_map(e1, n) * zn_map(e2, n)
                    return lhs == rhs, f"z_{n} stuffle fails: {lhs} != {rhs}"

                reports.append(
                    _run("zn-stuffle", f"n={n} w={_idx_label(w1)} w'={_idx_label(w2)}", check)
                )
    return reports


def suite_zn_duality(n_range=range(3, 11), max_weight: int = 3, dual_max_n: int = 12):
    """z_n(w sh_q w') = z_n(psi(w) w') exactly, plus z_n(e_1bar) = -z_n(e_1)."""
    reports = []
    words = _sorted_indices(max_weight, "Ihat")

    @cache
    def sides(w1, w2):
        # Both sides before z_n; they do not depend on n.
        e1, e2 = EPoly({w1: 1}), EPoly({w2: 1})
        return word_to_e(shuffle_q(e_to_word(e1), e_to_word(e2))), psi_involution(e1) * e2

    for n in n_range:
        for w1 in words:
            for w2 in words:
                def check(n=n, w1=w1, w2=w2):
                    lhs, rhs = (zn_map(x, n) for x in sides(w1, w2))
                    return lhs == rhs, f"z_{n} shuffle-psi fails: {lhs} != {rhs}"

                reports.append(
                    _run("zn-duality", f"n={n} w={_idx_label(w1)} w'={_idx_label(w2)}", check)
                )
    for n in range(2, dual_max_n + 1):
        def check_dual(n=n):
            lhs = zn_map(EPoly.gen(BAR1), n)
            rhs = -zn_map(EPoly.gen(1), n)
            return lhs == rhs, f"z_{n}(e_1bar) = {lhs} but -z_{n}(e_1) = {rhs}"

        reports.append(_run("zn-duality", f"duality instance n={n}", check_dual))
    return reports


def suite_ohno(n_range=range(4, 13), max_weight: int = 4, max_m: int = 3):
    """The Ohno-type relation, plus the Delta_X expansion and the
    combination identity that feed its proof."""
    reports = []
    for k in range(1, 5):
        def check_expansion(k=k):
            lhs = Delta_X(e_to_word(EPoly.gen(k)), 3).map_coeffs(word_to_e)
            rhs = delta_expansion(k, 3)
            return lhs == rhs, f"Delta_X(e_{k}) expansion mismatch"

        reports.append(_run("ohno", f"Delta expansion k={k}", check_expansion))

    indices = [k for k in _sorted_indices(4, "I") if k]
    for k in indices:
        r = len(k)
        for p in range(0, r + 1):
            for mp in range(0, 3):
                def check_comb(k=k, p=p, mp=mp):
                    lhs = EPoly.sum(
                        EPoly({(1,) * l: 1}) * A_ksp(k, mp - l, p) for l in range(mp + 1)
                    )
                    rhs = EPoly.sum(
                        _dual_shift_sum(tuple(a + b for a, b in zip(k, lam)), mp)
                        for lam in iproduct((0, 1), repeat=r)
                        if sum(lam) == p
                    )
                    return lhs == rhs, f"combination identity fails k={k} p={p} m-p={mp}"

                reports.append(
                    _run("ohno", f"combination k={_idx_label(k)} p={p} m-p={mp}", check_comb)
                )

    ohno_indices = [k for k in _sorted_indices(max_weight, "I") if k]
    for n in n_range:
        for k in ohno_indices:
            for m in range(0, max_m + 1):
                if n < len(k) + m + 1:
                    continue

                def check(n=n, k=k, m=m):
                    ok, lhs, rhs = ohno_check(k, m, n)
                    return ok, f"Ohno fails: lhs={lhs} rhs={rhs}"

                reports.append(_run("ohno", f"n={n} k={_idx_label(k)} m={m}", check))
    return reports


def suite_ones_bar(max_n: int = 16, max_r: int = 8, n_range=None):
    """z_n({1bar}^r) against its closed form, for n in n_range (2..max_n
    when n_range is not given)."""
    reports = []
    for n in n_range if n_range is not None else range(2, max_n + 1):
        for r in range(0, min(n - 1, max_r) + 1):
            def check(n=n, r=r):
                lhs = zn_eval((BAR1,) * r, n)
                rhs = ones_bar_closed_form(n, r)
                return lhs == rhs, f"z_{n}(1bar^{r}) = {lhs} != {rhs}"

            reports.append(_run("ones-bar", f"n={n} r={r}", check))
    return reports


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


def suite_fmzv(primes=(5, 7, 11, 13), max_weight: int = 4):
    """z_p(k; zeta_p) mod (1 - zeta_p) equals the truncated harmonic sum mod p."""
    reports = []
    from .cyclo import fmzv_reduce

    indices = _sorted_indices(max_weight, "I")
    for p in primes:
        for k in indices:
            def check(p=p, k=k):
                got = fmzv_reduce(zn_eval(k, p), p)
                want = harmonic_sum_mod_p(k, p)
                return got == want, f"mod-{p} reduction {got} != harmonic sum {want}"

            reports.append(_run("fmzv", f"p={p} k={_idx_label(k)}", check))
    return reports


def suite_varpi_l(primes=(7, 11, 13), max_weight: int = 3):
    """(1-zeta_p) Zcyc(k) = Zcyc(L(k)) at single primes, coprime cases only."""
    reports = []
    indices = _sorted_indices(max_weight, "I")
    for p in primes:
        for k in indices:
            if (2 * len(k) + 1) % p == 0:
                continue

            def check(p=p, k=k):
                return varpi_l_check(k, p), f"varpi-L fails at p={p}, k={k}"

            reports.append(_run("varpi-l", f"p={p} k={_idx_label(k)}", check))
    return reports


def suite_cyc_ohno(primes=(7, 11, 13), max_weight: int = 3, max_m: int = 2):
    """The Ohno-type relation for the cyclotomic analogue at single primes."""
    reports = []
    indices = [k for k in _sorted_indices(max_weight, "I") if k]

    @cache
    def sides(k, m):
        # Both sides before reduction mod p; they do not depend on p. The
        # right side is a list of (coefficient, iterated L image) pairs.
        pairs = []
        for l in range(m + 1):
            shift = _shift_sum(k, l)
            for _ in range(m - l):
                shift = l_map_epoly(shift)
            pairs.append((Fraction((-1) ** (m - l), m - l + 1), shift))
        return _dual_shift_sum(k, m), pairs

    for p in primes:
        for k in indices:
            for m in range(0, max_m + 1):
                if p < len(k) + m + 1:
                    continue

                def check(p=p, k=k, m=m):
                    try:
                        dual, pairs = sides(k, m)
                        lhs = zcyc_mod_p(dual, p)
                        rhs = None
                        for c, shift in pairs:
                            term = c * zcyc_mod_p(shift, p)
                            rhs = term if rhs is None else rhs + term
                    except BadDenominator as exc:
                        return True, f"skipped: {exc}"
                    return lhs == rhs, f"cyc-Ohno fails: {lhs} != {rhs}"

                reports.append(_run("cyc-ohno", f"p={p} k={_idx_label(k)} m={m}", check))
    return reports


def suite_mzv_compare(max_n: int = 3, max_weight: int = 4):
    """((-1)^n / n) iota(partial~_n(w)) = partial_n(iota(w)) on z-words."""
    reports = []
    indices = [k for k in _sorted_indices(max_weight, "I") if k]
    for n in range(1, max_n + 1):
        for k in indices:
            def check(n=n, k=k):
                w = z_word(*k)
                lhs = iota(mzv_partial(n, w)).scale(Fraction((-1) ** n, n))
                rhs = word_to_e(partial_n(n, e_to_word(iota(w))))
                if lhs != rhs:
                    return False, f"iota comparison fails on z{k}"
                if in_I(k) and (not k or k[0] != 1):
                    rhs2 = partial_n_e(n, iota(w))
                    if lhs != rhs2:
                        return False, f"e-basis route disagrees on z{k}"
                return True, None

            reports.append(_run("mzv-compare", f"n={n} w=z{_idx_label(k)}", check))
    return reports


SUITES = {
    "double-shuffle": suite_double_shuffle,
    "log-formulas": suite_log_formulas,
    "delta-factorization": suite_delta_factorization,
    "cor-delta": suite_cor_delta,
    "derivation": suite_derivation,
    "zn-stuffle": suite_zn_stuffle,
    "zn-duality": suite_zn_duality,
    "ohno": suite_ohno,
    "ones-bar": suite_ones_bar,
    "fmzv": suite_fmzv,
    "varpi-l": suite_varpi_l,
    "cyc-ohno": suite_cyc_ohno,
    "mzv-compare": suite_mzv_compare,
}


def run_suite(name: str, **kwargs) -> list[VerifyReport]:
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(SUITES[key]())
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](**kwargs)
