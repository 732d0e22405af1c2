"""Certified exact evaluation of multiple harmonic q-series at rational q.

Everything here is rational arithmetic: a partial sum is computed exactly
and wrapped together with an exact upper bound on the dropped tail. The
tail bound counts decreasing tuples by their largest element:

    |F_(k_1)(m)| <= q^m  for k_1 != 1   and   |F_k(m)| <= 1 for every k,

since [m] = 1 + q + ... + q^(m-1) >= 1 for q in (0,1). Hence the tail of
an index of depth r is at most sum_(m>M) C(m-1, r-1) q^m, and
sum_(m>=r) C(m-1, r-1) q^m = q^r/(1-q)^r in closed form.

At q = a/b the partial sum of zeta_q(k) over m_1 <= M is an integer
N_k over b^W_k G^K_k, where G = prod_(m<=M) (b^m - a^m), W_k is the weight
of k and K_k its largest entry weight. Z_q of an e-polynomial therefore
sums integer numerators over one shared denominator L b^W G^K (L the lcm
of the coefficient denominators at h = 1 - q) and builds one Fraction:
one gcd per call, not one or more per term. The tail bound is likewise
one closed-form Fraction per (depth, q, M).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .algebra import BAR1, EPoly, Index, in_Ihat0, index_dep
from .errors import Divergent, NotInI0hat, OutOfRange

#: Parameters used by the acceptance-level numeric checks.
DEFAULT_Q = Fraction(1, 2)
DEFAULT_M = 120


@dataclass(frozen=True)
class QValue:
    """A rational deformation parameter with 0 < q < 1."""

    q: Fraction

    def __post_init__(self):
        q = Fraction(self.q)
        object.__setattr__(self, "q", q)
        if not (0 < q < 1):
            raise OutOfRange(f"q must satisfy 0 < q < 1, got {q}")


@dataclass(frozen=True)
class CertifiedValue:
    """An exact partial sum plus an exact bound on the dropped tail.

    The true value lies in [value - tail_bound, value + tail_bound].
    """

    value: Fraction
    tail_bound: Fraction
    truncation: int

    def __post_init__(self):
        if self.tail_bound < 0:
            raise ValueError("tail bounds are nonnegative")

    def overlaps(self, other: "CertifiedValue") -> bool:
        gap = abs(self.value - other.value)
        return gap <= self.tail_bound + other.tail_bound

    def __str__(self):
        return f"{self.value} +/- {self.tail_bound} (M={self.truncation})"


def q_int(m: int, q: QValue | Fraction) -> Fraction:
    """The q-integer [m] = (1 - q^m)/(1 - q)."""
    if m < 1:
        raise OutOfRange("q-integers need m >= 1")
    qq = q.q if isinstance(q, QValue) else Fraction(q)
    return (1 - qq**m) / (1 - qq)


def f_factor(entry, m: int, q: Fraction) -> Fraction:
    """F_k(m): q^((k-1)m)/[m]^k for integer k, q^m/[m] for 1bar."""
    br = q_int(m, q)
    if entry is BAR1:
        return q**m / br
    return q ** ((entry - 1) * m) / br**entry


@lru_cache(maxsize=1024)
def tail_bound(depth: int, q: Fraction, M: int) -> Fraction:
    """Exact tail of the counting bound: sum_(m>M) C(m-1, depth-1) q^m.

    At q = a/b this is a^r/(b-a)^r - (sum_(m=r..M) C(m-1, r-1) a^m b^(M-m))/b^M
    with r = depth: one Fraction over (b-a)^r b^M.
    """
    if depth == 0:
        return Fraction(0)
    a, b = q.numerator, q.denominator
    finite = sum(comb(m - 1, depth - 1) * a**m * b ** (M - m) for m in range(depth, M + 1))
    bm, ba = b ** max(M, 0), (b - a) ** depth
    return Fraction(a**depth * bm - ba * finite, ba * bm)


# --- integer-numerator dynamic programme ------------------------------------
#
# At q = a/b the factors take the form
#     F_k(m) = a^((k-1)m) (b-a)^k b^(m-k) / g_m^k,      g_m = b^m - a^m,
#     F_1bar(m) = a^m (b-a) / (b g_m),
# so the cumulative sums over a suffix s of the index have the fixed
# denominator b^W(s) * prod_(i<=m) g_i^K(s) with W the suffix weight and
# K its largest entry weight. Keeping only the integer numerators makes the
# whole DP gcd-free; one Fraction is formed at the very end.


@lru_cache(maxsize=None)
def _gammas(a: int, b: int, M: int) -> tuple[int, ...]:
    return tuple(b**m - a**m for m in range(M + 1))


@lru_cache(maxsize=None)
def _gamma_prefix(delta: int, a: int, b: int, M: int) -> tuple[int, ...]:
    g = _gammas(a, b, M)
    out = [1]
    for m in range(1, M + 1):
        out.append(out[-1] * g[m] ** delta)
    return tuple(out)


def _entry_profile(entry) -> tuple[int, int]:
    # (denominator exponent of g_m, weight) for one entry
    return (1, 1) if entry is BAR1 else (entry, entry)


@lru_cache(maxsize=None)
def _suffix_numerators(suffix: Index, a: int, b: int, M: int) -> tuple[tuple[int, ...], int, int]:
    """Numerators N(0..M) of the cumulative sums over m_1 <= m for `suffix`,
    over the denominator b^W * prod_(i<=m) g_i^K; returns (N, K, W)."""
    if not suffix:
        return tuple([1] * (M + 1)), 0, 0
    head, rest = suffix[0], suffix[1:]
    sub, k_rest, w_rest = _suffix_numerators(rest, a, b, M)
    v, wt = _entry_profile(head)
    kappa = max(v, k_rest)
    weight = wt + w_rest
    g = _gammas(a, b, M)
    pp = _gamma_prefix(kappa - k_rest, a, b, M) if kappa != k_rest else None
    ba = b - a
    out = [0] * (M + 1)
    acc = 0
    for m in range(1, M + 1):
        # numerator of F_head(m) * cum_rest(m-1), over the common denominator
        if head is BAR1:
            term = a**m * ba * sub[m - 1]
        else:
            term = a ** ((head - 1) * m) * ba**head * b**m * sub[m - 1]
        if kappa > v:
            term *= g[m] ** (kappa - v)
        if pp is not None:
            term *= pp[m - 1]
        acc = acc * g[m] ** kappa + term
        out[m] = acc
    return tuple(out), kappa, weight


def _combined_partial_sum(terms, a: int, b: int, M: int) -> Fraction:
    """sum of c * (partial sum of zeta_q(k) over m_1 <= M) for (k, c) in terms,
    at q = a/b, with rational weights c (int or Fraction).

    Each partial sum is N_k/(b^W_k G^K_k) with G = prod_(m<=M) g_m, so with
    L the lcm of the weight denominators, W = max W_k and K = max K_k the
    whole combination is one integer over L b^W G^K: a single gcd.
    """
    parts = [(c, *_suffix_numerators(k, a, b, M)) for k, c in terms]
    if not parts:
        return Fraction(0)
    den_l = lcm(*(c.denominator for c, *_ in parts))
    top_k = max(kappa for _, _, kappa, _ in parts)
    top_w = max(weight for *_, weight in parts)
    num = 0
    for c, nums, kappa, weight in parts:
        num += (
            c.numerator * (den_l // c.denominator) * nums[M]
            * b ** (top_w - weight) * _gamma_prefix(top_k - kappa, a, b, M)[M]
        )
    return Fraction(num, den_l * b**top_w * _gamma_prefix(top_k, a, b, M)[M])


_zeta_cache: dict[tuple[Index, Fraction, int], CertifiedValue] = {}


def _check_index(k: Index, M: int):
    if M < 1:
        raise OutOfRange("M >= 1")
    if not in_Ihat0(k):
        raise NotInI0hat(f"index {k} starts with an unbarred 1")


def zeta_q_partial(k: Index, q: QValue, M: int) -> CertifiedValue:
    """Exact partial sum of zeta_q(k) over m_1 <= M with a certified tail.

    k must lie in I0-hat (first entry != 1); the empty index gives 1.
    """
    _check_index(k, M)
    if not k:
        return CertifiedValue(Fraction(1), Fraction(0), M)
    key = (k, q.q, M)
    hit = _zeta_cache.get(key)
    if hit is not None:
        return hit
    value = _combined_partial_sum([(k, 1)], q.q.numerator, q.q.denominator, M)
    out = CertifiedValue(value, tail_bound(index_dep(k), q.q, M), M)
    _zeta_cache[key] = out
    return out


def polylog_partial(k: Index, t: Fraction, q: QValue, M: int) -> CertifiedValue:
    """Partial sum of the one-variable multiple polylogarithm L_k(t).

    Needs 0 < t < 1, or t = 1 with k in I0-hat. The tail factor is
    u = t q when the leading entry is not an unbarred 1 (then
    |t^m F_(k_1)(m)| <= (tq)^m) and u = t otherwise.
    """
    t = Fraction(t)
    if not k:
        return CertifiedValue(Fraction(1), Fraction(0), M)
    if not (0 < t <= 1):
        raise OutOfRange("t must satisfy 0 < t <= 1")
    if t == 1 and k[0] == 1:
        raise Divergent("L_k(1) diverges when the index starts with 1")
    qq = q.q
    r = len(k)
    # cum[j][m] = sum over m >= m_(j+1) > ... > m_r of the inner factors
    cum_prev = [Fraction(1)] * (M + 1)
    for j in range(r - 1, 0, -1):
        cum = [Fraction(0)] * (M + 1)
        acc = Fraction(0)
        for m in range(1, M + 1):
            acc += f_factor(k[j], m, qq) * cum_prev[m - 1]
            cum[m] = acc
        cum_prev = cum
    value = sum(
        (t**m * f_factor(k[0], m, qq) * cum_prev[m - 1] for m in range(1, M + 1)),
        Fraction(0),
    )
    u = t if k[0] == 1 else t * qq
    closed = u**r / (1 - u) ** r
    finite = sum((comb(m - 1, r - 1) * u**m for m in range(r, M + 1)), Fraction(0))
    return CertifiedValue(value, closed - finite, M)


def Zq_eval(x: EPoly, q: QValue, M: int) -> CertifiedValue:
    """Z_q of an e-polynomial supported on I0-hat: h acts as 1 - q.

    The partial sums are combined over one shared denominator (see
    _combined_partial_sum); tail bounds combine with absolute-value weights.
    """
    terms = []
    bound = Fraction(0)
    one_minus_q = 1 - q.q
    for k, c in x.terms.items():
        scalar = c.substitute(one_minus_q)
        _check_index(k, M)
        terms.append((k, scalar))
        bound += abs(scalar) * tail_bound(index_dep(k), q.q, M)
    value = _combined_partial_sum(terms, q.q.numerator, q.q.denominator, M)
    return CertifiedValue(value, bound, M)


def f_basis_expand(k: int, l: int):
    """Express q^(lm)/[m]^k in the F-basis: {entry: Laurent coefficient}.

    For k > l >= 0, expanding q^(lm)/[m]^k against ((1-q)[m] + q^m)^(k-l-1) = 1
    gives binomial coefficients C(k-l-1, j-1) on F_(l+j)(m) with powers of
    h = 1-q. (The seemingly natural C(k-l, j-1) fails termwise already at
    k-l = 2, m = 1.) For l = k the leading term falls onto F_1bar with
    powers of q-1 = -h.
    """
    from .coeff import Laurent

    if k < 1 or l < 0 or l > k:
        raise OutOfRange("need k >= 1 and 0 <= l <= k")
    if l < k:
        return {
            l + j: Laurent.h(k - l - j, comb(k - l - 1, j - 1))
            for j in range(1, k - l + 1)
        }
    out = {j: Laurent.h(k - j, (-1) ** (k - j)) for j in range(2, k + 1)}
    out[BAR1] = Laurent.h(k - 1, (-1) ** (k - 1))
    return out
