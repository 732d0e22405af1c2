"""Certified exact evaluation of multiple harmonic q-series at rational q.

Everything here is exact: a partial sum comes with an exact upper bound on
the dropped tail, which counts decreasing tuples by their largest element:

    |F_(k_1)(m)| <= q^m  for k_1 != 1   and   |F_k(m)| <= 1 for every k,

since [m] = 1 + q + ... + q^(m-1) >= 1 for q in (0,1). Hence the tail of
an index of depth r is at most sum_(m>M) C(m-1, r-1) q^m, and
sum_(m>=r) C(m-1, r-1) q^m = q^r/(1-q)^r in closed form.

At q = a/b the partial sum of zeta_q(k) over m_1 <= M is an integer
N_k over b^W_k G^K_k, where G = prod_(m<=M) (b^m - a^m), W_k is the weight
of k and K_k its largest entry weight. N_k comes from a DP over the
suffixes of k in which every layer runs at K_k; the proper suffixes keep
their tables of numerators (cached per suffix and K_k), k keeps only N_k.
Z_q of an e-polynomial sums these over one shared denominator L b^W G^K
(L the lcm of the coefficient denominators at h = 1 - q), left unreduced:
bound checks cross-multiply or compare fixed-point enclosures (`_enclose`),
and a value is reduced only when it is read or printed. The tail bound is
one closed-form Fraction per (depth, q, M), times the summed |c| of that
depth. A float is refused as input. Zq_eval memoises each value per (terms
of x, q, M) in _zeta_cache, bounded by ZETA_CACHE_MAXSIZE (least recently
used evicted); zeta_q_partial(k, q, M) is Z_q(e_k).
"""
from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from math import comb, lcm
from operator import mul

from .algebra import BAR1, EPoly, Index, check_index, entry_wt, in_Ihat0, index_dep, index_wt
from .coeff import _exact, _Frozen
from .errors import NotInH0, OutOfRange

#: Parameters used by the acceptance-level numeric checks.
DEFAULT_Q = Fraction(1, 2)
DEFAULT_M = 120


class QValue(_Frozen):
    """A rational deformation parameter with 0 < q < 1."""

    __slots__ = ("q",)

    def __init__(self, q: Fraction):
        q = Fraction(_exact(q))
        if not (0 < q < 1):
            raise OutOfRange(f"q must satisfy 0 < q < 1, got {q}")
        object.__setattr__(self, "q", q)


class CertifiedValue:
    """An exact partial sum plus an exact bound on the dropped tail.

    The true value lies in [value - tail_bound, value + tail_bound]. The
    sum is kept as num/den (den > 0), possibly unreduced; `value` reduces
    it on first read. Equality and hashing go by value, like a Fraction.
    """

    __slots__ = ("num", "den", "tail_bound", "truncation", "_value")

    def __init__(self, value, tail_bound: Fraction, truncation: int):
        value = Fraction(_exact(value))
        self.num, self.den, self._value = value.numerator, value.denominator, value
        self.tail_bound, self.truncation = tail_bound, truncation
        if tail_bound < 0:
            raise ValueError("tail bounds are nonnegative")

    @classmethod
    def _unreduced(cls, num: int, den: int, tail_bound: Fraction, truncation: int):
        out = cls(0, tail_bound, truncation)
        out.num, out.den, out._value = num, den, None
        return out

    @property
    def value(self) -> Fraction:
        if self._value is None:
            self._value = Fraction(self.num, self.den)
        return self._value

    def _enclose(self, bits: int) -> tuple[int, int]:
        """(lo, hi), lo <= value 2^bits <= hi <= lo + 1: one division, no gcd."""
        lo, r = divmod(self.num << bits, self.den)
        return lo, lo + (r != 0)

    def certifies_zero(self) -> bool:
        """|value| <= tail_bound, by integer cross-multiplication."""
        tb = self.tail_bound
        return abs(self.num) * tb.denominator <= tb.numerator * self.den

    def overlaps(self, other: "CertifiedValue") -> bool:
        tb = self.tail_bound + other.tail_bound
        gap = abs(self.num * other.den - other.num * self.den)
        return gap * tb.denominator <= tb.numerator * self.den * other.den

    def _key(self):
        return self.value, self.tail_bound, self.truncation

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        value, bound, truncation = self._key()
        return (f"CertifiedValue(value={_exact_str(value)}, "
                f"tail_bound={_exact_str(bound)}, truncation={truncation})")

    def __str__(self):
        return f"{_exact_str(self.value)} +/- {_exact_str(self.tail_bound)} (M={self.truncation})"


def _exact_str(x: int | Fraction) -> str:
    """str(x) at any size: Decimal converts an int exactly and is not bound
    by CPython's 4300-digit limit on int -> str conversion."""
    num, den = Fraction(x).as_integer_ratio()
    return str(Decimal(num)) + ("" if den == 1 else f"/{Decimal(den)}")


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
# so for kappa >= every entry weight of a suffix s, the cumulative sums over
# s have the denominator b^W(s) prod_(i<=m) g_i^kappa, W(s) the weight of s.
# An index of largest entry weight K runs every layer at K, with f(m) the
# numerator of F_head(m) g_m^(K-v), v the head's entry weight:
#     N(m) = N(m-1) g_m^K + f(m) N_rest(m-1),    N_empty(m) = prod_(i<=m) g_i^K,
# two big-by-small products per step and no gcd. The proper suffixes keep
# their tables, cached per (suffix, K); an evaluated index keeps only N(M).


@lru_cache(maxsize=None)
def _gamma_powers(delta: int, a: int, b: int, M: int) -> tuple[int, ...]:
    return tuple((b**m - a**m) ** delta for m in range(M + 1))


@lru_cache(maxsize=None)
def _gamma_prefix(delta: int, a: int, b: int, M: int) -> tuple[int, ...]:
    return tuple(accumulate(_gamma_powers(delta, a, b, M)[1:], mul, initial=1))


@lru_cache(maxsize=None)
def _head_factors(head, kappa: int, a: int, b: int, M: int) -> tuple[int, ...]:
    """f(0..M): the numerator of F_head(m) over b^v g_m^kappa."""
    ba, lift = b - a, _gamma_powers(kappa - entry_wt(head), a, b, M)
    return tuple(
        (a**m * ba if head is BAR1 else a ** ((head - 1) * m) * ba**head * b**m) * lift[m]
        for m in range(M + 1)
    )


def _layer(k: Index, kappa: int, a: int, b: int, M: int):
    """The step N(m-1), m -> N(m) of the head of k over the suffix k[1:] at kappa."""
    f, gk = _head_factors(k[0], kappa, a, b, M), _gamma_powers(kappa, a, b, M)
    sub = _suffix_numerators(k[1:], kappa, a, b, M)
    return lambda acc, m: acc * gk[m] + f[m] * sub[m - 1]


@lru_cache(maxsize=None)
def _suffix_numerators(suffix: Index, kappa: int, a: int, b: int, M: int) -> tuple[int, ...]:
    """Numerators N(0..M) of the cumulative sums over m_1 <= m for `suffix`,
    over b^W prod_(i<=m) g_i^kappa; kappa is at least every entry weight."""
    if not suffix:
        return _gamma_prefix(kappa, a, b, M)
    return tuple(accumulate(range(1, M + 1), _layer(suffix, kappa, a, b, M), initial=0))


@lru_cache(maxsize=None)
def _index_numerator(k: Index, a: int, b: int, M: int) -> tuple[int, int, int]:
    """(N(M), K, W) of k: its partial sum is N(M)/(b^W prod_(m<=M) g_m^K)."""
    if not k:
        return 1, 0, 0
    kappa = max(map(entry_wt, k))
    return reduce(_layer(k, kappa, a, b, M), range(1, M + 1), 0), kappa, index_wt(k)


def _combined_partial_sum(terms, a: int, b: int, M: int) -> tuple[int, int]:
    """Unreduced (num, den), den > 0, of sum c * (partial sum of zeta_q(k)
    over m_1 <= M) for (k, c) in terms at q = a/b, c rational.

    Each partial sum is N_k/(b^W_k G^K_k) with G = prod_(m<=M) g_m, so the
    combination is one integer over L b^W G^K (L the lcm of the c
    denominators, W = max W_k, K = max K_k). Terms are summed per K_k
    first, so each group takes one big product by G^(K - K_k).
    """
    parts = [(c, *_index_numerator(k, a, b, M)) for k, c in terms]
    den_l = lcm(*(c.denominator for c, *_ in parts))
    top_k = max((kappa for _, _, kappa, _ in parts), default=0)
    top_w = max((weight for *_, weight in parts), default=0)
    groups: dict[int, int] = {}
    for c, num, kappa, weight in parts:
        scale = c.numerator * (den_l // c.denominator) * b ** (top_w - weight)
        groups[kappa] = groups.get(kappa, 0) + scale * num
    num = sum(s * _gamma_prefix(top_k - kappa, a, b, M)[M] for kappa, s in groups.items())
    return num, den_l * b**top_w * _gamma_prefix(top_k, a, b, M)[M]


#: Most values _zeta_cache keeps, the least recently used dropped first:
#: `qsh verify all` makes 194, and each holds about K*M^2/2 bits.
ZETA_CACHE_MAXSIZE = 256

_zeta_cache: dict[tuple[frozenset, Fraction, int], CertifiedValue] = {}


def zeta_q_partial(k: Index, q: QValue, M: int) -> CertifiedValue:
    """Exact partial sum of zeta_q(k) over m_1 <= M with a certified tail:
    Z_q(e_k), cached by Zq_eval.

    k must lie in I0-hat (first entry != 1); the empty index gives 1.
    """
    return Zq_eval(EPoly({check_index(k): 1}), q, M)


def Zq_eval(x: EPoly, q: QValue, M: int) -> CertifiedValue:
    """Z_q of an e-polynomial supported on I0-hat: h acts as 1 - q.

    The partial sums are combined over one shared denominator (see
    _combined_partial_sum); tail bounds combine with absolute-value weights
    |c(1 - q)|, one per index, c its coefficient with every power of h summed.
    Memoised per (terms, q, M) in a bounded cache, so the value is shared,
    which is safe as CertifiedValues are immutable by convention.
    """
    key = (frozenset(x.terms.items()), q.q, M)
    cv = _zeta_cache.pop(key, None)
    if cv is None:
        a, b = q.q.numerator, q.q.denominator
        h = Fraction(b - a, b)
        coeffs: dict = {}
        for (k, j), c in x.terms.items():
            coeffs[k] = coeffs[k] + h**j * c if k in coeffs else h**j * c
        terms = list(coeffs.items())
        if terms and M < 1:
            raise OutOfRange(f"M must be >= 1, got {M}")
        weights: dict[int, Fraction] = {}  # depth -> sum of |c| over its indices
        for k, c in terms:
            if not in_Ihat0(k):
                raise NotInH0(f"index {k} starts with an unbarred 1")
            r = index_dep(k)
            weights[r] = weights[r] + abs(c) if r in weights else abs(c)
        bound = sum((tail_bound(r, q.q, M) * w for r, w in weights.items()), Fraction(0))
        cv = CertifiedValue._unreduced(*_combined_partial_sum(terms, a, b, M), bound, M)
        if len(_zeta_cache) >= ZETA_CACHE_MAXSIZE:
            del _zeta_cache[next(iter(_zeta_cache))]
    _zeta_cache[key] = cv
    return cv
