"""Exact computer algebra for multiple harmonic q-series.

The package implements the algebra of q-analogues of multiple zeta values:
the q-stuffle and q-shuffle products, the derivations that relate them,
truncated formal-series homomorphisms, certified evaluation at rational q,
and exact evaluation of the finite series at roots of unity, together with
verification suites for all the relations these structures satisfy.
"""

from .algebra import (
    BAR1,
    EPoly,
    LinComb,
    MzvPoly,
    NcPoly,
    e_to_word,
    enumerate_indices,
    hoffman_dual,
    index_dep,
    index_str,
    index_wt,
    parse_index,
    word_to_e,
)
from .coeff import Laurent, ModPoly, Rational, UniPoly
from .cyclo import (
    CycField,
    CycNum,
    cyc_field,
    cyclotomic_poly,
    fmzv_reduce,
    ones_bar_closed_form,
    prime_ring,
    zcyc_mod_p,
    zn_eval,
    zn_map,
)
from .derivations import Delta_X, Phi_X, Psi_X, d_n, delta_n, iota, mzv_partial, partial_n, partial_n_e
from .evalq import CertifiedValue, QValue, Zq_eval, zeta_q_partial
from .products import circ, l_map, psi_involution, shuffle_q, stuffle_classical, stuffle_q
from .series import TruncSeries, geometric, series_phi, series_psi, ts_log, ts_mul

__version__ = "0.1.0"
