"""The products on the harmonic algebra: q-stuffle, q-shuffle, the circle
product that merges leading entries, the anti-involution psi, the classical
(h-free) stuffle, and the L map built from it.

The q-stuffle and the classical stuffle are both quasi-shuffle products
(Hoffman): on indices,

    (a u) * (b v) = a (u * b v) + b (a u * v) + merge(a, b) (u * v),

and they differ only in the merge of two leading entries, circ for the
q-stuffle and a + b for the classical one. One memoized recursion,
_quasi_shuffle, computes both; the q-shuffle has its own recursion on
words. Each recursion is memoized on basis pairs in its own cache; a
cache only ever gains entries for argument pairs already fully
determined by the rules, so results are independent of call order (and
of thread interleaving under the GIL). _IN_PLACE maps each product to its
form that accumulates into a dict the caller passes. The L map of one index
is an lru_cache(maxsize=4096) on l_map, cleared by l_map.cache_clear().
"""
from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache, partial
from math import comb

from .algebra import BAR1, Entry, EPoly, Index, LinComb, NcPoly, _accumulate, _concat_into
from .errors import HasBarEntry


def circ(k: Entry, l: Entry) -> EPoly:
    """The symmetric merge of two generators.

    e_1bar o e_1bar = e_2 - h e_1bar, e_1bar o e_k = e_(k+1), and
    e_k o e_l = e_(k+l) + h e_(k+l-1).
    """
    if k is BAR1 and l is BAR1:
        return EPoly._wrap({((2,), 0): 1, ((BAR1,), 1): -1})
    if k is BAR1 or l is BAR1:
        m = l if k is BAR1 else k
        return EPoly._wrap({((m + 1,), 0): 1})
    return EPoly._wrap({((k + l,), 0): 1, ((k + l - 1,), 1): 1})


def _quasi_shuffle(k1: Index, k2: Index, merge, cache: dict) -> EPoly:
    """The quasi-shuffle of two indices whose leading entries combine by
    merge (entries to a combination of depth-one indices), memoized in cache."""
    if not k1 or not k2:
        return EPoly._wrap({(k1 + k2, 0): 1})
    key = (k1, k2)
    hit = cache.get(key)
    if hit is not None:
        return hit
    a, rest1 = k1[0], k1[1:]
    b, rest2 = k2[0], k2[1:]
    tail = _quasi_shuffle(rest1, rest2, merge, cache)
    out = EPoly.sum(
        [
            _quasi_shuffle(rest1, k2, merge, cache).prepend(a),
            _quasi_shuffle(k1, rest2, merge, cache).prepend(b),
        ]
        + [tail.prepend(m, c, j) for ((m,), j), c in merge(a, b).terms.items()]
    )
    cache[key] = out
    return out


def _bilinear(out: dict, u: LinComb, v: LinComb, on_basis, cls: type) -> dict:
    """out += the bilinear extension of on_basis (two keys to a cls value) at
    u and v, two values of type cls, in place on graded terms; returns out."""
    if type(u) is not cls or type(v) is not cls:
        raise TypeError(f"the product takes two {cls.__name__} values")
    for (k1, j1), c1 in u.terms.items():
        for (k2, j2), c2 in v.terms.items():
            c, j = c1 * c2, j1 + j2
            for (k, i), d in on_basis(k1, k2).terms.items():
                _accumulate(out, (k, i + j), c * d)
    return out


_stuffle_cache: dict[tuple[Index, Index], EPoly] = {}
_stuffle_basis = partial(_quasi_shuffle, merge=circ, cache=_stuffle_cache)


def stuffle_q(u: EPoly, v: EPoly) -> EPoly:
    """The q-stuffle product on Hhat1: commutative, associative, unit 1.

    The defining recursion merges leading entries through circ. (The
    source display of the unit rule reads "= 1"; the unit law "= w" is
    the only reading compatible with multiplicativity and is used here.)
    """
    return EPoly._wrap(_bilinear({}, u, v, _stuffle_basis, EPoly))


_shuffle_cache: dict[tuple[str, str], NcPoly] = {}


def _shuffle_words(w1: str, w2: str) -> NcPoly:
    if not w1 or not w2:
        return NcPoly._wrap({(w1 + w2, 0): 1})
    hit = _shuffle_cache.get((w1, w2))
    if hit is not None:
        return hit
    # Fixed strategy: pull a leading b from the left argument first. When
    # both arguments start with b the two applicable rules rewrite to the
    # same element; a property test checks strategy independence.
    if w1[0] == "b":
        out = _prepend_letter("b", _shuffle_words(w1[1:], w2))
    elif w2[0] == "b":
        out = _prepend_letter("b", _shuffle_words(w1, w2[1:]))
    else:
        u, v = w1[1:], w2[1:]
        inner = NcPoly.sum(
            [_shuffle_words(w1, v), _shuffle_words(u, w2), _shuffle_words(u, v).scale(1, 1)]
        )
        out = _prepend_letter("a", inner)
    _shuffle_cache[w1, w2] = out
    return out


def _prepend_letter(ch: str, x: NcPoly) -> NcPoly:
    return NcPoly._wrap({(ch + w, j): c for (w, j), c in x.terms.items()})


def shuffle_q(u: NcPoly, v: NcPoly) -> NcPoly:
    """The q-shuffle product on words over {a, b}.

    b-letters factor out in front from either argument; two leading a's
    produce the three-term q-deformed rule with an h correction.
    """
    return NcPoly._wrap(_bilinear({}, u, v, _shuffle_words, NcPoly))


@lru_cache(maxsize=None)
def _psi_gen(entry: Entry) -> EPoly:
    if entry is BAR1:
        return EPoly({(1,): -1})
    if entry == 1:
        return EPoly({(BAR1,): -1})
    k = entry
    sign = (-1) ** k
    return EPoly._wrap({((j,), k - j): sign * comb(k - 2, j - 2) for j in range(2, k + 1)})


def _psi_index(k: Index) -> EPoly:
    word = EPoly.one()
    for e in reversed(k):
        word = word * _psi_gen(e)
    return word


def psi_involution(x: EPoly) -> EPoly:
    """The anti-involution with psi(e_1bar) = -e_1 and binomial images of e_k.

    It reverses products: psi(uv) = psi(v) psi(u), and psi o psi = id.
    """
    return EPoly.sum(_psi_index(k).scale(c, j) for (k, j), c in x.terms.items())


def _add_entries(k: int, l: int) -> EPoly:
    """The classical merge of e_k and e_l: e_(k+l)."""
    return EPoly._wrap({((k + l,), 0): 1})


_classical_cache: dict[tuple[Index, Index], EPoly] = {}
_classical_basis = partial(_quasi_shuffle, merge=_add_entries, cache=_classical_cache)


def stuffle_classical(u: EPoly, v: EPoly) -> EPoly:
    """The classical stuffle on integer indices: merges to e_(k+l) with no h term.

    This is genuinely a different product from the h -> 0 limit of the
    q-stuffle on barred entries: the same recursion with another merge.
    """
    return EPoly._wrap(_stuffle_classical_into({}, u, v))


def _stuffle_classical_into(out: dict, u: EPoly, v: EPoly) -> dict:
    if any(e is BAR1 for x in (u, v) for k, _ in x.terms for e in k):
        raise HasBarEntry("classical stuffle takes indices without 1bar")
    return _bilinear(out, u, v, _classical_basis, EPoly)


#: The form f(out, u, v) of each product that adds u * v to graded terms out in place.
_IN_PLACE = {
    operator.mul: lambda out, u, v: _concat_into(out, u.terms, v.terms),
    stuffle_q: lambda out, u, v: _bilinear(out, u, v, _stuffle_basis, EPoly),
    shuffle_q: lambda out, u, v: _bilinear(out, u, v, _shuffle_words, NcPoly),
    stuffle_classical: _stuffle_classical_into,
}


@lru_cache(maxsize=4096)
def l_map(k: Index) -> EPoly:
    """L(e_k) = -2/(2 dep(k) + 1) * (e_1 * e_k), classical stuffle.

    The normalization is pinned by the congruence it exists for:
    (1 - zeta_p) Zcyc(e_k) = Zcyc(L(e_k)) in Z[zeta_p]/(p) at every prime
    p coprime to 2 dep(k) + 1. (With -1 in place of -2 that congruence
    fails at every prime, starting from (1-zeta_p) = -2 z_p((1)) mod p.)
    """
    if not all(e is not BAR1 for e in k):
        raise HasBarEntry("the L map takes indices without 1bar")
    factor = Fraction(-2, 2 * len(k) + 1)
    return stuffle_classical(EPoly.gen(1), EPoly({k: 1})).scale(factor)


def l_map_epoly(x: EPoly) -> EPoly:
    """Linear extension of the L map to rational combinations of indices."""
    return EPoly.sum(l_map(k).scale(c, j) for (k, j), c in x.terms.items())
