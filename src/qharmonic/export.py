"""JSON/CSV export of derivation and Ohno relation records.

A record carries a linear combination of indices whose Z_q (derivation
kind) or z_n (ohno kind) image vanishes. The JSON writer is canonical:
parsing a file and re-serializing it reproduces the bytes exactly.
"""
from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import comb

from .algebra import (
    EPoly,
    enumerate_indices,
    hoffman_dual,
    index_sort_key,
    parse_entry,
)
from .coeff import Laurent
from .cyclo import zn_map
from .derivations import _compositions, partial_n_e
from .errors import OutOfRange
from .evalq import DEFAULT_M, DEFAULT_Q, QValue, Zq_eval

MAX_EXPORT_WEIGHT = 6


def _index_tokens(k) -> list[str]:
    return [str(e) for e in k]


def _tokens_to_index(tokens) -> tuple:
    return tuple(parse_entry(t) for t in tokens)


def _terms_payload(x: EPoly) -> list[dict]:
    items = sorted(x.terms.items(), key=lambda kv: index_sort_key(kv[0]))
    return [{"index": _index_tokens(k), "coeff": str(c)} for k, c in items]


def _terms_to_epoly(terms) -> EPoly:
    out: dict = {}
    for t in terms:
        out[_tokens_to_index(t["index"])] = Laurent.parse(t["coeff"])
    return EPoly(out)


def derivation_records(max_n: int, max_weight: int, q=None, M: int = DEFAULT_M) -> list[dict]:
    """One record per (n, Hhat0 basis word) with the expansion of partial_n(w).

    verified means the combination evaluates to 0 within its certified
    bound at the given q and truncation.
    """
    _check_weight(max_weight)
    qv = QValue(q if q is not None else DEFAULT_Q)
    records = []
    for n in range(1, max_n + 1):
        words = []
        for wt in range(1, max_weight + 1):
            words.extend(enumerate_indices(wt, "Ihat0"))
        for w in sorted(words, key=index_sort_key):
            rel = partial_n_e(n, EPoly({w: 1}))
            if rel.is_zero():
                continue
            cv = Zq_eval(rel, qv, M)
            records.append(
                {
                    "kind": "derivation",
                    "n": n,
                    "word": _index_tokens(w),
                    "terms": _terms_payload(rel),
                    "verified": bool(abs(cv.value) <= cv.tail_bound),
                }
            )
    return records


def ohno_records(max_n: int, max_weight: int, max_m: int = 2) -> list[dict]:
    """One record per (n, k, m): the combination LHS - RHS of the Ohno
    relation, with h standing for 1 - zeta_n; verified by exact evaluation."""
    _check_weight(max_weight)
    records = []
    for n in range(2, max_n + 1):
        ks = []
        for wt in range(1, max_weight + 1):
            ks.extend(k for k in enumerate_indices(wt, "I") if k)
        for k in sorted(ks, key=index_sort_key):
            for m in range(0, max_m + 1):
                if n < len(k) + m + 1:
                    continue
                comb_poly = _ohno_combination(k, m, n)
                if comb_poly.is_zero():
                    continue  # m = 0 collapses to the dual involution
                records.append(
                    {
                        "kind": "ohno",
                        "n": n,
                        "word": _index_tokens(k),
                        "m": m,
                        "terms": _terms_payload(comb_poly),
                        "verified": bool(zn_map(comb_poly, n).is_zero()),
                    }
                )
    return records


def _ohno_combination(k, m: int, n: int) -> EPoly:
    dual = hoffman_dual(k)
    out = EPoly()
    for e in _compositions(m, len(dual)):
        out = out + EPoly({hoffman_dual(tuple(a + b for a, b in zip(dual, e))): 1})
    for l in range(m + 1):
        weight = Laurent.h(m - l, Fraction(-comb(n, m - l + 1), n))
        for e in _compositions(l, len(k)):
            out = out + EPoly({tuple(a + b for a, b in zip(k, e)): weight})
    return out


def _check_weight(max_weight: int):
    if max_weight > MAX_EXPORT_WEIGHT:
        raise OutOfRange(f"max_weight exceeds the export ceiling {MAX_EXPORT_WEIGHT}")


def export_relations(kind: str, max_n: int, max_weight: int, fmt: str = "json", **kwargs) -> str:
    """Render records in the requested format; returns the file contents."""
    if kind == "derivation":
        records = derivation_records(max_n, max_weight, **kwargs)
    elif kind == "ohno":
        records = ohno_records(max_n, max_weight, **kwargs)
    else:
        raise ValueError(f"unknown relation kind {kind!r}")
    if fmt == "json":
        return render_json(records)
    if fmt == "csv":
        return render_csv(records)
    raise ValueError(f"unknown format {fmt!r}")


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
        _terms_to_epoly(rec["terms"])
        _tokens_to_index(rec["word"])
        records.append(rec)
    return records


def record_combination(rec: dict) -> EPoly:
    """The linear combination carried by a record, as an e-polynomial."""
    return _terms_to_epoly(rec["terms"])


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
