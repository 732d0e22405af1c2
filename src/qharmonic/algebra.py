"""Words over {a, b}, indices over {1bar, 1, 2, ...}, and the two
presentations of the harmonic algebra.

Both presentations are one sparse linear-combination type, LinComb: a
dict from basis keys to nonzero Laurent coefficients, with the sum, the
concatenation product, the Laurent-scalar action and an in-place sum
defined once. NcPoly has words as keys; EPoly is the same algebra
written in the e-generator basis, with indices (tuples of entries) as
keys. The generators are

    e_1bar = ab,    e_k = a^(k-1) (a + h) b   for k >= 1,

and word_to_e / e_to_word convert between the presentations on the
subalgebra of words ending in b. Loops that build a combination term by
term accumulate into one dict with _accumulate, or sum whole values
with LinComb.sum.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .coeff import Laurent, _monomial_str
from .errors import BadEntry, EmptyIndex, HasBarEntry, NotInH1

_scalar = (int, Fraction)


class _Bar1:
    """The extra index letter 1bar; a single shared instance is used."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "1bar"

    def __reduce__(self):
        return (_Bar1, ())


BAR1 = _Bar1()

#: An index entry: 1bar or an integer >= 1.
Entry = int | _Bar1
#: An index: a tuple of entries. The empty tuple is the empty index.
Index = tuple


def entry_wt(e: Entry) -> int:
    """Weight of one entry; wt(1bar) = 1 so e_1bar is weight-homogeneous."""
    return 1 if e is BAR1 else e


def index_wt(k: Index) -> int:
    return sum(entry_wt(e) for e in k)


def index_dep(k: Index) -> int:
    return len(k)


def in_I(k: Index) -> bool:
    return all(e is not BAR1 for e in k)


def in_Ihat0(k: Index) -> bool:
    return not k or k[0] != 1


def in_I0(k: Index) -> bool:
    return in_I(k) and in_Ihat0(k)


def check_entry(e) -> Entry:
    if e is BAR1:
        return e
    if isinstance(e, int) and e >= 1:
        return e
    raise BadEntry(f"index entries are 1bar or integers >= 1, got {e!r}")


def parse_entry(token: str) -> Entry:
    token = token.strip()
    if token == "1bar":
        return BAR1
    try:
        return check_entry(int(token))
    except ValueError:
        raise BadEntry(f"cannot parse index entry {token!r}") from None


def parse_index(text: str) -> Index:
    """Parse "2,1bar,3" into an index; "" and "()" give the empty index."""
    text = text.strip()
    if text in ("", "()"):
        return ()
    return tuple(parse_entry(tok) for tok in text.split(","))


def index_str(k: Index) -> str:
    return ",".join(str(e) for e in k)


def entry_print_key(e: Entry) -> int:
    # 1bar sorts before 1 when printing.
    return 0 if e is BAR1 else e


def _index_print_key(k: Index):
    # Leading-term-first: higher weight first, then lexicographic with
    # 1bar < 1 < 2 < ...
    return (-index_wt(k), tuple(entry_print_key(e) for e in k))


def _entry_enum_key(e: Entry):
    # Enumeration order: integers ascending, then 1bar.
    return (1, 0) if e is BAR1 else (0, e)


def index_sort_key(k: Index):
    """Deterministic ordering used for enumeration and exports."""
    return tuple(_entry_enum_key(e) for e in k)


def _render_terms(items: list[tuple[str, Laurent]], unit: str) -> str:
    """Shared pretty-printer: items are (basis string, coefficient)."""
    if not items:
        return "0"
    parts = []
    for basis, coeff in items:
        mono = coeff.single_term()
        if mono is not None:
            e, c = mono
            cs = _monomial_str(e, abs(c))
            if basis == unit:
                body = cs
            elif cs == "1":
                body = basis
            else:
                body = f"{cs}*{basis}"
            sign = c > 0
        else:
            body = f"({coeff})" if basis == unit else f"({coeff})*{basis}"
            sign = True
        if not parts:
            parts.append(body if sign else "-" + body)
        else:
            parts.append((" + " if sign else " - ") + body)
    return "".join(parts)


def _as_laurent(c) -> Laurent:
    return c if isinstance(c, Laurent) else Laurent(c)


def _accumulate(out: dict, key, c: Laurent) -> None:
    """out[key] += c in place, dropping the key when the sum cancels."""
    s = out.get(key)
    s = c if s is None else s + c
    if s:
        out[key] = s
    else:
        del out[key]


class LinComb:
    """A sparse linear combination {key: Laurent} with no zero coefficient.

    Keys are words (str) in NcPoly and indices (tuples) in EPoly; both
    concatenate with +, which is the product of basis elements. A subclass
    sets the unit key and the normalisation of keys given to the
    constructor. Values of different subclasses never compare equal and
    never combine: the arithmetic returns NotImplemented on a mismatch.
    Values are immutable by convention.
    """

    __slots__ = ("terms",)
    _unit = None
    _key = None

    def __init__(self, terms: Mapping | None = None):
        out = {}
        if terms:
            key = self._key
            for k, c in terms.items():
                c = _as_laurent(c)
                if c:
                    out[key(k)] = c
        self.terms = out

    @classmethod
    def _wrap(cls, terms: dict):
        """A value over terms, a normalised dict that it takes over uncopied."""
        res = cls.__new__(cls)
        res.terms = terms
        return res

    @classmethod
    def one(cls):
        return cls._wrap({cls._unit: Laurent.one()})

    @classmethod
    def zero(cls):
        return cls._wrap({})

    @classmethod
    def sum(cls, parts: Iterable):
        """The sum of parts, all of this type, accumulated in one dict."""
        out: dict = {}
        for x in parts:
            if type(x) is not cls:
                raise TypeError(f"cannot add {type(x).__name__} to {cls.__name__}")
            for k, c in x.terms.items():
                _accumulate(out, k, c)
        return cls._wrap(out)

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return self._wrap({k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            _accumulate(out, k, c)
        return self._wrap(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Concatenation product, or scalar action of the Laurent ring."""
        if type(other) is not type(self):
            if isinstance(other, (Laurent, *_scalar)):
                return self.scale(other)
            return NotImplemented
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                _accumulate(out, k1 + k2, c1 * c2)
        return self._wrap(out)

    __rmul__ = __mul__  # reached only for a scalar or a mismatched type

    def scale(self, c):
        c = _as_laurent(c)
        if not c:
            return self.zero()
        return self._wrap({k: v * c for k, v in self.terms.items()})

    def constant(self) -> Laurent:
        """The coefficient of the unit."""
        return self.terms.get(self._unit, Laurent())

    def __repr__(self):
        return str(self)


class NcPoly(LinComb):
    """Sparse noncommutative polynomial: {word: Laurent}, words over 'ab'."""

    __slots__ = ()
    _unit = ""
    _key = str

    @classmethod
    def word(cls, w: str, coeff=1) -> "NcPoly":
        return cls({w: coeff})

    def __str__(self):
        items = sorted(self.terms.items(), key=lambda kv: (-len(kv[0]), kv[0]))
        return _render_terms([(w or "1", c) for w, c in items], unit="1")


class EPoly(LinComb):
    """Sparse element of the e-generator algebra: {index: Laurent}.

    Its concatenation product is that of Hhat1, which is free on the e_k.
    """

    __slots__ = ()
    _unit = ()
    _key = tuple

    @classmethod
    def gen(cls, entry: Entry, coeff=1) -> "EPoly":
        return cls({(check_entry(entry),): coeff})

    @classmethod
    def from_index(cls, k: Iterable[Entry], coeff=1) -> "EPoly":
        return cls({tuple(check_entry(e) for e in k): coeff})

    def prepend(self, entry: Entry, coeff=1) -> "EPoly":
        """Left-multiply by coeff * e_entry."""
        c = _as_laurent(coeff)
        if not c:
            return EPoly()
        return self._wrap({(entry,) + k: v * c for k, v in self.terms.items()})

    def supported_in_Ihat0(self) -> bool:
        return all(in_Ihat0(k) for k in self.terms)

    def max_weight(self) -> int:
        return max((index_wt(k) for k in self.terms), default=0)

    def __str__(self):
        items = sorted(self.terms.items(), key=lambda kv: _index_print_key(kv[0]))
        return _render_terms(
            [(f"e[{index_str(k)}]", c) for k, c in items], unit="e[]"
        )


def _entry_words(e: Entry) -> tuple[tuple[str, int], ...]:
    """The words of e_e with the power of h on each: e_k = a^k b + h a^(k-1) b."""
    if e is BAR1:
        return (("ab", 0),)
    return (("a" * e + "b", 0), ("a" * (e - 1) + "b", 1))


def e_to_word(x: EPoly) -> NcPoly:
    """Algebra homomorphism on generators: e_1bar -> ab, e_k -> a^(k-1)(a+h)b."""
    out: dict[str, Laurent] = {}
    for k, c in x.terms.items():
        # Distinct choices of one word per entry give distinct words, so
        # only the images of different indices can meet in out.
        words = {"": 0}
        for e in k:
            words = {w + u: j + i for w, j in words.items() for u, i in _entry_words(e)}
        for w, j in words.items():
            _accumulate(out, w, c * Laurent.h(j) if j else c)
    return NcPoly._wrap(out)


@lru_cache(maxsize=None)
def enbar(n: int) -> EPoly:
    """a^n b in the e-basis: sum_{j=2}^n (-h)^(n-j) e_j + (-h)^(n-1) e_1bar."""
    if n < 1:
        raise BadEntry("enbar is defined for n >= 1")
    terms: dict[Index, Laurent] = {
        (j,): Laurent.h(n - j, (-1) ** (n - j)) for j in range(2, n + 1)
    }
    terms[(BAR1,)] = Laurent.h(n - 1, (-1) ** (n - 1))
    return EPoly(terms)


_B_BLOCK = EPoly({(1,): Laurent.h(-1), (BAR1,): Laurent.h(-1, -1)})


def _mul_block(n: int, tail: Mapping[Index, Laurent], out: dict[Index, Laurent]) -> None:
    """out += (a^n b in the e-basis) * tail, in place."""
    block = enbar(n) if n else _B_BLOCK
    for k1, c1 in block.terms.items():
        for k2, c2 in tail.items():
            _accumulate(out, k1 + k2, c1 * c2)


@lru_cache(maxsize=4096)
def _word_to_e_single(w: str) -> dict[Index, Laurent]:
    """The e-basis image of one word ending in b (or empty); read-only."""
    if not w:
        return {(): Laurent.one()}
    n = w.index("b")
    out: dict[Index, Laurent] = {}
    _mul_block(n, _word_to_e_single(w[n + 1 :]), out)
    return out


def _words_to_e(terms: Mapping[str, Laurent]) -> dict[Index, Laurent]:
    """word_to_e on {word: coefficient}, every nonempty word ending in b.

    Words are grouped by their leading block a^n b; the suffixes of each
    group are converted recursively and only then multiplied by the
    block's image (enbar(n), or _B_BLOCK for n = 0), so terms cancel level
    by level before they multiply. A group of one word is looked up in
    the bounded _word_to_e_single memo.
    """
    if len(terms) == 1:
        ((w, c),) = terms.items()
        return {k: v * c for k, v in _word_to_e_single(w).items()}
    out: dict[Index, Laurent] = {}
    groups: dict[int, dict[str, Laurent]] = {}
    for w, c in terms.items():
        if not w:
            out[()] = c
            continue
        n = w.index("b")
        groups.setdefault(n, {})[w[n + 1 :]] = c
    for n, suffixes in groups.items():
        _mul_block(n, _words_to_e(suffixes), out)
    return out


def word_to_e(x: NcPoly) -> EPoly:
    """Inverse of e_to_word on words ending in b (blocks a^n b map to enbar)."""
    for w in x.terms:
        if w.endswith("a"):
            raise NotInH1(f"word {w!r} ends in a")
    return EPoly._wrap(_words_to_e(x.terms))


def left_mul_a(x: EPoly) -> EPoly:
    """Left multiplication by a on the e-basis.

    a e_k = e_(k+1) and a e_1bar = e_2 - h e_1bar, applied to the leading
    generator of every index.
    """
    out: dict[Index, Laurent] = {}
    for k, c in x.terms.items():
        if not k:
            raise EmptyIndex("a * 1 = a is not in Hhat1")
        head, rest = k[0], k[1:]
        if head is BAR1:
            _accumulate(out, (2,) + rest, c)
            _accumulate(out, (BAR1,) + rest, c * Laurent.h(1, -1))
        else:
            _accumulate(out, (head + 1,) + rest, c)
    return EPoly._wrap(out)


def index_to_binary(k: Index) -> str:
    """e_k as a word over e_0 = a (written '0') and e_1 (written '1')."""
    return "".join("0" * (e - 1) + "1" for e in k)


def binary_to_index(s: str) -> Index:
    """Inverse of index_to_binary; s must end in '1'."""
    out = []
    run = 0
    for ch in s:
        if ch == "0":
            run += 1
        else:
            out.append(run + 1)
            run = 0
    if run:
        raise ValueError(f"binary word {s!r} does not end in e_1")
    return tuple(out)


def hoffman_dual(k: Index) -> Index:
    """The Hoffman dual: write e_k = w e_1 over {e_0, e_1} and swap letters in w.

    >>> hoffman_dual((2, 3, 1))
    (1, 2, 1, 2)
    """
    if not k:
        raise EmptyIndex("the Hoffman dual needs a nonempty index")
    if not in_I(k):
        raise HasBarEntry("the Hoffman dual is defined on indices without 1bar")
    s = index_to_binary(k)
    w = s[:-1]
    flipped = "".join("1" if ch == "0" else "0" for ch in w)
    return binary_to_index(flipped + "1")


_FAMILIES = {
    "Ihat": lambda k: True,
    "I": in_I,
    "Ihat0": in_Ihat0,
    "I0": in_I0,
}


def enumerate_indices(weight: int, family: str = "Ihat") -> list[Index]:
    """All indices of exact weight in the family, in deterministic order.

    Entries are ordered 1 < 2 < ... < 1bar, indices lexicographically.
    Families: "Ihat", "I", "Ihat0", "I0".
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; use one of {sorted(_FAMILIES)}")
    if weight < 0:
        raise ValueError("weight must be nonnegative")
    bar_ok = family in ("Ihat", "Ihat0")
    first_one_ok = family in ("Ihat", "I")

    def rec(remaining: int, first: bool):
        if remaining == 0:
            yield ()
            return
        entries: list[Entry] = [
            e for e in range(1, remaining + 1) if not (first and not first_one_ok and e == 1)
        ]
        if bar_ok:
            entries.append(BAR1)
        for e in entries:
            for rest in rec(remaining - entry_wt(e), False):
                yield (e,) + rest

    return list(rec(weight, True))


def enumerate_indices_up_to(max_weight: int, family: str = "Ihat") -> list[Index]:
    """All indices of weight 0..max_weight in the family."""
    out: list[Index] = []
    for w in range(max_weight + 1):
        out.extend(enumerate_indices(w, family))
    return out
