"""Relation families, the realizations that check them, and JSON/CSV
export of their records.

A family yields (key, EPoly) pairs, one per case in the order the suites
report them, zero relations included: derivation, Ohno-type, cyclotomic
Ohno, varpi-L, double shuffle and duality; ohno_sides gives the two sides
of one Ohno-type instance. A realization (certified: Z_q at rational q;
cyclotomic: z_n in Q(zeta_n); mod_p: in Z[zeta_p]/(p)) returns None when
the image of a relation is 0, else the nonzero image.
A record is a nonzero derivation or ohno relation. The JSON writer is
canonical: parsing a file and re-serializing it reproduces the bytes.
"""
from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from itertools import product as iproduct

from .algebra import (
    EPoly, _sorted_indices, e_to_word, in_I, index_dep, index_sort_key, parse_entry, word_to_e,
)
from .coeff import Laurent
from .cyclo import zcyc_mod_p, zn_map
from .derivations import _dual_shift_sum, _ohno_rhs, _shift_sum, partial_n_e
from .errors import BadDenominator, OutOfRange, PreconditionViolated
from .evalq import DEFAULT_M, DEFAULT_Q, QValue, Zq_eval
from .products import l_map_epoly, psi_involution, shuffle_q, stuffle_q

MAX_EXPORT_WEIGHT = 6


def _tokens_to_index(tokens) -> tuple:
    return tuple(parse_entry(t) for t in tokens)


def _terms_payload(x: EPoly) -> list[dict]:
    items = sorted(x.coefficients().items(), key=lambda kv: index_sort_key(kv[0]))
    return [{"index": list(map(str, k)), "coeff": str(c)} for k, c in items]


def derivation_relations(max_n: int, max_weight: int):
    """(n, w) -> partial_n(e_w) over the nonempty Ihat0 indices w; Z_q sends it to 0."""
    words = [w for w in _sorted_indices(max_weight, "Ihat0") if w]
    for n, w in iproduct(range(1, max_n + 1), words):
        yield (n, w), partial_n_e(n, EPoly({w: 1}))


def ohno_sides(k, m: int, n: int) -> tuple[EPoly, EPoly]:
    """The two sides of the Ohno-type relation for (k, m, n), the dual shift
    sum and the shift side; z_n sends them to one value."""
    k = tuple(k)
    if not k:
        raise PreconditionViolated("k must be nonempty")
    if not in_I(k):
        raise PreconditionViolated("k must avoid 1bar")
    if m < 0 or n < index_dep(k) + m + 1:
        raise PreconditionViolated(f"need m >= 0 and n >= dep(k)+m+1, got m={m}, n={n}")
    return _dual_shift_sum(k, m), _ohno_rhs(k, m, n)


def ohno_relations(ns, max_weight: int, max_m: int):
    """(n, k, m) -> the Ohno-type combination, the dual shift sum minus the
    shift side, for n >= dep(k) + m + 1; z_n sends it to 0."""
    ks = [k for k in _sorted_indices(max_weight, "I") if k]
    for n, k, m in iproduct(ns, ks, range(max_m + 1)):
        if n >= len(k) + m + 1:
            lhs, rhs = ohno_sides(k, m, n)
            yield (n, k, m), lhs - rhs


def varpi_l_relations(max_weight: int):
    """k -> h e_k - L(e_k) over I; each Zcyc mod p with p not dividing
    2 dep(k) + 1 sends it to 0."""
    for k in _sorted_indices(max_weight, "I"):
        yield k, EPoly({k: Laurent.h()}) - l_map_epoly(EPoly({k: 1}))


def cyc_ohno_relations(max_weight: int, max_m: int):
    """(k, m) -> the dual shift sum minus sum over l <= m of
    (-1)^(m-l)/(m-l+1) L^(m-l)(sum_(|e|=l) e_(k+e)); each Zcyc mod p
    with p >= dep(k) + m + 1 sends it to 0."""
    for k in [k for k in _sorted_indices(max_weight, "I") if k]:
        for m in range(max_m + 1):
            shifts = []
            for l in range(m + 1):
                shift = _shift_sum(k, l)
                for _ in range(m - l):
                    shift = l_map_epoly(shift)
                shifts.append(shift.scale(Fraction((-1) ** (m - l), m - l + 1)))
            yield (k, m), _dual_shift_sum(k, m) - EPoly.sum(shifts)


def double_shuffle_relations(max_weight: int):
    """(w, w') -> e_w *_q e_w' - e_w sh_q e_w' over Ihat0; Z_q sends it to 0."""
    words = _sorted_indices(max_weight, "Ihat0")
    for w1, w2 in iproduct(words, words):
        e1, e2 = EPoly({w1: 1}), EPoly({w2: 1})
        yield (w1, w2), stuffle_q(e1, e2) - word_to_e(shuffle_q(e_to_word(e1), e_to_word(e2)))


def duality_relations(max_weight: int):
    """(w, w') -> e_w sh_q e_w' - psi(e_w) e_w' over Ihat; every z_n sends it to 0."""
    words = _sorted_indices(max_weight, "Ihat")
    for w1, w2 in iproduct(words, words):
        e1, e2 = EPoly({w1: 1}), EPoly({w2: 1})
        yield (w1, w2), word_to_e(shuffle_q(e_to_word(e1), e_to_word(e2))) - psi_involution(e1) * e2


def certified(x: EPoly, qv: QValue, M: int):
    """None when Z_q(x), truncated at M, certifies zero; else that CertifiedValue."""
    cv = Zq_eval(x, qv, M)
    return None if cv.certifies_zero() else cv


def cyclotomic(x: EPoly, n: int):
    """None when z_n(x) = 0 in Q(zeta_n); else that value."""
    v = zn_map(x, n)
    return None if v.is_zero() else v


def mod_p(x: EPoly, p: int):
    """None when Zcyc(x) = 0 in Z[zeta_p]/(p); else that value."""
    try:
        v = zcyc_mod_p(x, p)
    except BadDenominator:
        # p divides a denominator, so nothing is checked; the case still
        # reports PASS (ROADMAP item 1 turns it into a SKIP).
        return None
    return None if v.is_zero() else v


def derivation_records(max_n: int, max_weight: int, q=None, M: int = DEFAULT_M) -> list[dict]:
    """One record per nonzero derivation relation, partial_n(e_w) expanded;
    verified means it evaluates to 0 within its certified bound at q, M."""
    _check_weight(max_weight)
    qv = QValue(q if q is not None else DEFAULT_Q)
    return [
        {"kind": "derivation", "n": n, "word": list(map(str, w)), "terms": _terms_payload(rel),
         "verified": certified(rel, qv, M) is None}
        for (n, w), rel in derivation_relations(max_n, max_weight) if not rel.is_zero()
    ]


def ohno_records(max_n: int, max_weight: int, max_m: int = 2) -> list[dict]:
    """One record per nonzero Ohno relation (m = 0 collapses to the dual
    involution), h standing for 1 - zeta_n; verified by exact evaluation."""
    _check_weight(max_weight)
    return [
        {"kind": "ohno", "n": n, "word": list(map(str, k)), "m": m, "terms": _terms_payload(rel),
         "verified": cyclotomic(rel, n) is None}
        for (n, k, m), rel in ohno_relations(range(2, max_n + 1), max_weight, max_m)
        if not rel.is_zero()
    ]


def _check_weight(max_weight: int):
    if max_weight > MAX_EXPORT_WEIGHT:
        raise OutOfRange(f"max_weight exceeds the export ceiling {MAX_EXPORT_WEIGHT}")


def relation_records(kind: str, max_n: int, max_weight: int, **kwargs) -> list[dict]:
    """The records of one relation kind; empty when the sizes select none."""
    if kind == "derivation":
        return derivation_records(max_n, max_weight, **kwargs)
    if kind == "ohno":
        return ohno_records(max_n, max_weight, **kwargs)
    raise ValueError(f"unknown relation kind {kind!r}")


_KEY_ORDER = ("kind", "n", "word", "m", "terms", "verified")


def _canonical_record(rec: dict) -> dict:
    out = {}
    for key in _KEY_ORDER:
        if key in rec:
            out[key] = rec[key]
    return out


def render_json(records: list[dict]) -> str:
    return json.dumps([_canonical_record(r) for r in records], indent=2) + "\n"


def parse_json(text: str) -> list[dict]:
    """Parse exported JSON back into records (canonical key order).

    Raises if a term fails to parse; round-trips byte-identically through
    render_json.
    """
    records = []
    for raw in json.loads(text):
        rec = _canonical_record(raw)
        # validate that indices and coefficients parse
        record_combination(rec)
        _tokens_to_index(rec["word"])
        records.append(rec)
    return records


def record_combination(rec: dict) -> EPoly:
    """The linear combination carried by a record, as an e-polynomial."""
    return EPoly({_tokens_to_index(t["index"]): Laurent.parse(t["coeff"]) for t in rec["terms"]})


def render_csv(records: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "n", "word", "m", "combination", "verified"])
    for rec in records:
        writer.writerow(
            [
                rec["kind"],
                rec["n"],
                " ".join(rec["word"]),
                rec.get("m", ""),
                str(record_combination(rec)),
                str(rec["verified"]).lower(),
            ]
        )
    return buf.getvalue()
