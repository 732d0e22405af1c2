"""Words over {a, b}, indices over {1bar, 1, 2, ...}, and the two
presentations of the harmonic algebra.

Both presentations are one sparse linear-combination type, LinComb.
Under the weight grading (deg a = deg h = 1, deg b = 0) the coefficient
of a basis element in a homogeneous value is a single monomial c*h^j, so
a term is stored as (basis key, j) -> c with c an exact scalar (a value
that is not homogeneous takes one entry per power of h): a product adds
exponents and multiplies scalars, and no Laurent polynomial is built on
the way. The sum, the concatenation product, the scalar action and their
in-place forms are defined once; coefficients() is the view
{key: Laurent} that printing, export and tests read. NcPoly has words
as keys; EPoly is the same algebra written in the e-generator basis,
with indices (tuples of entries) as keys. The generators are

    e_1bar = ab,    e_k = a^(k-1) (a + h) b   for k >= 1,

and word_to_e / e_to_word convert between the presentations on the
subalgebra of words ending in b. Loops that build a combination term by
term accumulate into one dict with _accumulate, or sum whole values
with LinComb.sum. word_to_e and the Leibniz rule of derivations run on the
integer numerators of _int_form, and divide by its one denominator at the end.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .coeff import Laurent, _accumulate, _exact, _join_signed, _monomial_str, _scalar
from .errors import BadEntry, BadLetter, EmptyIndex, HasBarEntry, NotInH1, index_sized


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


def check_entry(e) -> Entry:
    if e is BAR1:
        return e
    if type(e) is int and e >= 1:
        return e
    raise BadEntry(f"index entries are 1bar or integers >= 1, got {e!r}")


def check_index(k) -> Index:
    """k as a tuple of entries; BadEntry on a bad entry or a k that is not iterable."""
    try:
        entries = iter(k)
    except TypeError:
        raise BadEntry(f"indices are iterables of index entries, got {k!r}") from None
    return tuple(map(check_entry, entries))


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

    def term(basis: str, coeff: Laurent) -> tuple[bool, str]:
        mono = coeff.single_term()
        if mono is None:
            return True, f"({coeff})" if basis == unit else f"({coeff})*{basis}"
        e, c = mono
        cs = _monomial_str(e, abs(c))
        if basis == unit:
            return c > 0, cs
        return c > 0, basis if cs == "1" else f"{cs}*{basis}"

    return _join_signed(term(basis, coeff) for basis, coeff in items)


def _concat_into(out: dict, u: dict, v: dict) -> dict:
    """out += u * v in place, the concatenation product of graded terms; returns out."""
    for (k1, j1), c1 in u.items():
        for (k2, j2), c2 in v.items():
            _accumulate(out, (k1 + k2, j1 + j2), c1 * c2)
    return out


def _int_form(*parts: dict) -> tuple[int, tuple]:
    """(D, numerators): D the lcm of the coefficient denominators in parts, and
    each part as {key: c * D}, all ints; the parts themselves when D = 1."""
    den = lcm(*{c.denominator for t in parts for c in t.values() if type(c) is not int})
    if den == 1:
        return 1, parts
    return den, tuple(
        {kj: c.numerator * (den // c.denominator) for kj, c in t.items()} for t in parts
    )


def _divided(terms: dict, den: int) -> dict:
    """{kj: n / den} over integer terms, an int where den divides n; terms when den = 1."""
    if den == 1:
        return terms
    return {kj: n // den if n % den == 0 else Fraction(n, den) for kj, n in terms.items()}


def _times(terms: dict, c, j: int = 0) -> dict:
    """{(key, i + j): c * v} over terms, for a nonzero exact scalar c; c goes
    on the left, so a Fraction c times an int v takes Fraction's forward path."""
    if c == 1:
        return {(k, i + j): v for (k, i), v in terms.items()} if j else dict(terms)
    return {(k, i + j): _exact(c * v) for (k, i), v in terms.items()}


class LinComb:
    """A sparse linear combination of basis keys over Q[h, h^-1].

    terms maps (key, j) to the nonzero coefficient c of h^j key, an int when
    integral and a Fraction otherwise. Keys are words (str) in NcPoly and MzvPoly,
    indices (tuples) in EPoly; both concatenate with +, the product of basis
    elements. The constructor takes {key: coefficient} with int, Fraction or
    Laurent coefficients, and checks each key with the subclass's _key, the one
    place keys are checked; _wrap checks nothing, for keys built from checked ones.
    coefficients() gives that view back. Values of different subclasses never
    compare equal and never combine: the arithmetic returns NotImplemented on a
    mismatch. Values are immutable by convention.
    """

    __slots__ = ("terms",)
    _unit = None
    _key = None

    def __init__(self, terms: Mapping | None = None):
        out = {}
        if terms:
            key = self._key
            for k, c in terms.items():
                k = key(k)
                if isinstance(c, Laurent):
                    for j, v in c.terms.items():
                        out[k, j] = v
                else:
                    c = _exact(c)
                    if c:
                        out[k, 0] = c
        self.terms = out

    @classmethod
    def _wrap(cls, terms: dict):
        """A value over terms, a normalised dict that it takes over uncopied."""
        res = cls.__new__(cls)
        res.terms = terms
        return res

    @classmethod
    def one(cls):
        return cls._wrap({(cls._unit, 0): 1})

    @classmethod
    def zero(cls):
        return cls._wrap({})

    @classmethod
    def sum(cls, parts: Iterable):
        """The sum of parts, all of this type, accumulated in one dict."""
        out: dict = {}
        for x in parts:
            cls._add_into(out, x)
        return cls._wrap(out)

    @classmethod
    def _add_into(cls, out: dict, x) -> dict:
        """out += x in place, for x of this type; returns out."""
        if type(x) is not cls:
            raise TypeError(f"cannot add {type(x).__name__} to {cls.__name__}")
        for kj, c in x.terms.items():
            _accumulate(out, kj, c)
        return out

    def coefficients(self) -> dict:
        """{key: Laurent}: the coefficient of each basis key as a Laurent polynomial."""
        out: dict = {}
        for (k, j), c in self.terms.items():
            out.setdefault(k, {})[j] = c
        return {k: Laurent(t) for k, t in out.items()}

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
        return self._wrap({kj: -c for kj, c in self.terms.items()})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._wrap(self._add_into(dict(self.terms), other))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Concatenation product, or scalar action of the Laurent ring."""
        if type(other) is not type(self):
            if isinstance(other, (Laurent, *_scalar)):
                return self.scale(other)
            return NotImplemented
        return self._wrap(_concat_into({}, self.terms, other.terms))

    __rmul__ = __mul__  # reached only for a scalar or a mismatched type

    def scale(self, c, j: int = 0):
        """c h^j times this value, for c an exact scalar or a Laurent polynomial."""
        if isinstance(c, Laurent):
            return type(self).sum(self.scale(v, j + i) for i, v in c.terms.items())
        c = _exact(c)
        return self._wrap(_times(self.terms, c, j) if c else {})

    def __repr__(self):
        return str(self)


class NcPoly(LinComb):
    """Sparse noncommutative polynomial over Q[h, h^-1], words over 'ab'. The
    constructor raises BadLetter on a key that is not a str over _letters."""

    __slots__ = ()
    _unit = ""
    _letters = "ab"

    @classmethod
    def _key(cls, w):
        bad = w.strip(cls._letters) if type(w) is str else [w]
        if bad:
            raise BadLetter(f"{cls.__name__} words use the letters {cls._letters}, got {bad[0]!r}")
        return w

    @classmethod
    def word(cls, w: str, coeff=1) -> "NcPoly":
        return cls({w: coeff})

    def __str__(self):
        items = sorted(self.coefficients().items(), key=lambda kv: (-len(kv[0]), kv[0]))
        return _render_terms([(w or "1", c) for w, c in items], unit="1")


class MzvPoly(NcPoly):
    """Words over 'xy', the classical two-letter algebra of multiple zeta values.
    It shares NcPoly's code, not its values: the two never add, multiply or compare equal."""

    __slots__ = ()
    _letters = "xy"


class EPoly(LinComb):
    """Sparse element of the e-generator algebra: indices over Q[h, h^-1].

    Its concatenation product is that of Hhat1, which is free on the e_k. A key
    is any iterable of entries; the constructor raises BadEntry on a bad entry.
    """

    __slots__ = ()
    _unit = ()

    _key = staticmethod(check_index)

    @classmethod
    def gen(cls, entry: Entry, coeff=1) -> "EPoly":
        return cls({(entry,): coeff})

    def prepend(self, entry: Entry, coeff=1, j: int = 0) -> "EPoly":
        """Left-multiply by coeff h^j e_entry, coeff a scalar or a Laurent polynomial."""
        out = self._wrap({((entry,) + k, i): v for (k, i), v in self.terms.items()})
        return out if coeff == 1 and not j else out.scale(coeff, j)

    def supported_in_Ihat0(self) -> bool:
        return all(in_Ihat0(k) for k, _ in self.terms)

    def __str__(self):
        items = sorted(self.coefficients().items(), key=lambda kv: _index_print_key(kv[0]))
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
    out: dict = {}
    for (k, j), c in x.terms.items():
        # Distinct choices of one word per entry give distinct words, so
        # only the images of different terms can meet in out.
        words = {"": j}
        for e in k:
            words = {w + u: i + d for w, i in words.items() for u, d in _entry_words(e)}
        for wi in words.items():
            _accumulate(out, wi, c)
    return NcPoly._wrap(out)


@lru_cache(maxsize=None)
def enbar(n: int) -> EPoly:
    """a^n b in the e-basis: sum_{j=2}^n (-h)^(n-j) e_j + (-h)^(n-1) e_1bar."""
    if n < 1:
        raise BadEntry("enbar is defined for n >= 1")
    terms = {((j,), n - j): (-1) ** (n - j) for j in range(2, n + 1)}
    terms[(BAR1,), n - 1] = (-1) ** (n - 1)
    return EPoly._wrap(terms)


_B_BLOCK = EPoly._wrap({((1,), -1): 1, ((BAR1,), -1): -1})


@lru_cache(maxsize=4096)
def _word_to_e_single(w: str) -> dict:
    """The graded e-basis terms of one word ending in b (or empty); read-only."""
    if not w:
        return {((), 0): 1}
    n = w.index("b")
    return _concat_into({}, (enbar(n) if n else _B_BLOCK).terms, _word_to_e_single(w[n + 1 :]))


def _words_to_e(terms: dict) -> dict:
    """word_to_e on graded int terms {(word, j): n}, every nonempty word ending in b.

    Words are grouped by their leading block a^n b; the suffixes of each
    group are converted recursively and only then multiplied by the
    block's image (enbar(n), or _B_BLOCK for n = 0), so terms cancel level
    by level before they multiply. A group of one word is looked up in
    the bounded _word_to_e_single memo.
    """
    if len(terms) == 1:
        (((w, j), c),) = terms.items()
        return _times(_word_to_e_single(w), c, j)
    out: dict = {}
    groups: dict[int, dict] = {}
    for (w, j), c in terms.items():
        if not w:
            out[(), j] = c
            continue
        n = w.index("b")
        groups.setdefault(n, {})[w[n + 1 :], j] = c
    for n, suffixes in groups.items():
        _concat_into(out, (enbar(n) if n else _B_BLOCK).terms, _words_to_e(suffixes))
    return out


def word_to_e(x: NcPoly) -> EPoly:
    """Inverse of e_to_word on words ending in b (blocks a^n b map to enbar)."""
    for w, _ in x.terms:
        if w.endswith("a"):
            raise NotInH1(f"word {w!r} ends in a")
    den, (terms,) = _int_form(x.terms)
    return EPoly._wrap(_divided(_words_to_e(terms), den))


def index_to_binary(k: Index) -> str:
    """e_k as a word over e_0 = a (written '0') and e_1 (written '1'), for k
    without 1bar; BadEntry on a bad entry, HasBarEntry on 1bar."""
    if not in_I(k := check_index(k)):
        raise HasBarEntry("binary words are defined on indices without 1bar")
    index_sized(max(k, default=1), "an index entry")
    return "".join("0" * (e - 1) + "1" for e in k)


def binary_to_index(s: str) -> Index:
    """Inverse of index_to_binary; s must be over {0, 1} and end in '1'."""
    out = []
    run = 0
    for ch in s:
        if ch == "0":
            run += 1
        elif ch == "1":
            out.append(run + 1)
            run = 0
        else:
            raise BadLetter(f"binary word {s!r} has the letter {ch!r}")
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
    w = index_to_binary(k)[:-1]
    flipped = "".join("1" if ch == "0" else "0" for ch in w)
    return binary_to_index(flipped + "1")


_FAMILIES = {
    "Ihat": lambda k: True,
    "I": in_I,
    "Ihat0": in_Ihat0,
}


def enumerate_indices(weight: int, family: str = "Ihat") -> list[Index]:
    """All indices of exact weight in the family, in deterministic order.

    Entries are ordered 1 < 2 < ... < 1bar, indices lexicographically.
    Families: "Ihat", "I", "Ihat0".
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; use one of {sorted(_FAMILIES)}")
    if weight < 0:
        raise ValueError("weight must be nonnegative")

    def rec(remaining: int):
        if remaining == 0:
            yield ()
            return
        for e in [*range(1, remaining + 1), BAR1]:
            for rest in rec(remaining - entry_wt(e)):
                yield (e,) + rest

    return list(filter(_FAMILIES[family], rec(weight)))


def enumerate_indices_up_to(max_weight: int, family: str = "Ihat") -> list[Index]:
    """All indices of weight 0..max_weight in the family."""
    out: list[Index] = []
    for w in range(max_weight + 1):
        out.extend(enumerate_indices(w, family))
    return out


def _sorted_indices(max_weight: int, family: str) -> list[Index]:
    """All indices of weight 0..max_weight in the family, sorted by index_sort_key."""
    return sorted(enumerate_indices_up_to(max_weight, family), key=index_sort_key)
