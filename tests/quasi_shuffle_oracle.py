"""Hoffman's exponential: an independent route to both stuffle products.

When the merge of two letters is commutative and associative, the map

    exp(w) = sum over compositions I of len(w) of I[w] / prod_j i_j!

is an isomorphism from the letter shuffle onto the quasi-shuffle built
from that merge, with inverse

    log(w) = sum over compositions I of len(w) of (-1)^(len(w) - len(I)) I[w] / prod_j i_j,

where I[w] merges the letters of w block by block along I (Hoffman,
"Quasi-shuffle products", J. Algebraic Combin. 11 (2000) 49-68). So
u * v = exp(log u sh log v). No code of qharmonic.products is on this
route except the merge it is given: circ for the q-stuffle, and
classical_merge here for the classical stuffle. Indices are words whose
letters are entries; a merged letter is a combination of depth-one
indices with coefficients in Q[h, h^-1].
"""
from fractions import Fraction
from math import factorial, prod

from qharmonic.algebra import EPoly


def classical_merge(k: int, l: int) -> EPoly:
    """The merge of the classical stuffle: e_k and e_l to e_(k+l)."""
    return EPoly.gen(k + l)


def compositions(n: int):
    """All tuples of positive integers summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def merge_into(x: EPoly, entry, merge) -> EPoly:
    """The merge, extended linearly, of x (depth-one indices) with one entry."""
    return EPoly.sum(merge(m, entry).scale(c) for (m,), c in x.coefficients().items())


def merged_block(block: tuple, merge) -> EPoly:
    """The entries of block merged from the left into one letter."""
    out = EPoly.gen(block[0])
    for e in block[1:]:
        out = merge_into(out, e, merge)
    return out


def _by_compositions(x: EPoly, merge, weight) -> EPoly:
    """The linear map k -> sum over compositions I of len(k) of weight(I) I[k]."""
    out = []
    for k, c in x.coefficients().items():
        for comp in compositions(len(k)):
            term, pos = EPoly.one(), 0
            for size in comp:
                term = term * merged_block(k[pos:pos + size], merge)
                pos += size
            out.append(term.scale(weight(comp)).scale(c))
    return EPoly.sum(out)


def hoffman_exp(x: EPoly, merge) -> EPoly:
    return _by_compositions(x, merge, lambda comp: Fraction(1, prod(map(factorial, comp))))


def hoffman_log(x: EPoly, merge) -> EPoly:
    return _by_compositions(
        x, merge, lambda comp: Fraction((-1) ** (sum(comp) - len(comp)), prod(comp))
    )


def letter_shuffle(k1: tuple, k2: tuple) -> EPoly:
    """The shuffle of two indices, their entries taken as plain letters."""
    if not k1 or not k2:
        return EPoly({k1 + k2: 1})
    return letter_shuffle(k1[1:], k2).prepend(k1[0]) + letter_shuffle(k1, k2[1:]).prepend(k2[0])


def quasi_shuffle(u: EPoly, v: EPoly, merge) -> EPoly:
    """u * v = exp(log u sh log v), the quasi-shuffle of u and v for merge."""
    lu, lv = hoffman_log(u, merge), hoffman_log(v, merge)
    sh = EPoly.sum(
        letter_shuffle(k1, k2).scale(c1).scale(c2)
        for k1, c1 in lu.coefficients().items()
        for k2, c2 in lv.coefficients().items()
    )
    return hoffman_exp(sh, merge)
