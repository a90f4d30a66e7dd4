"""Exact differential polynomial ring in two conjugate potentials q, r.

Elements are finite sums of monomials ``c * q^(a0) q^(a1) ... r^(b0) ...``
where each factor is a derivative ``∂_x^k q`` or ``∂_x^k r`` and the
coefficient c is a Gaussian rational, stored as three integers
``(a + b i)/d`` with d > 0 and gcd(a, b, d) = 1.  The ring carries the total
derivative ``DiffPoly.dx``, conjugation ``DiffPoly.conj`` (swap q <-> r,
conjugate coefficients) and the partial derivative ``DiffPoly.partial`` by
one factor.  Sums go through ``+`` or, for many terms at once,
``DiffPoly.sum``, which merges once.

A monomial is one int, its packed key: byte s counts the factors in slot
s = 2 * order + (0 for q, 1 for r).  A product of monomials adds their keys;
dx moves one of the n factors in slot s to slot s + 2, times n, so repeated
factors merge as they are made.  ``dx_terms`` states that rule once, for
``DiffPoly.dx`` and the integer calculus here and in ``hierarchy`` alike,
``partial_terms`` the partial derivative's (one factor of slot s removed,
times n), ``swap_qr`` the q <-> r swap of conjugation (``DiffPoly.conj``,
the twist of ``gauge``) and ``merge_terms`` the one sum of integer terms.
``grading(key)`` = (#q, #r, #derivatives) is read from one byte string;
``pack``/``unpack`` convert from and to factor tuples.  A slot holds at
most 127 copies of its factor, the 7 low bits of its byte: a product or dx
that makes 128 sets the byte's top (guard) bit and raises OverflowError,
never carrying into the next slot.

Every value is immutable and every operation pure.  Keys carry no order, so
terms are sorted only at the boundary: ``DiffPoly.items`` yields them by
factor tuple (q before r, then ascending derivative order), and the text,
JSON and LaTeX forms follow it, canonical byte-for-byte.  Integration by
parts lives here too: ``variational_derivative`` is the Euler operator, and
``antiderivative``, the inverse of ``dx``, the homotopy operator on each graded
block, accepted only where ``dx`` of the result reproduces it, else ``NotExact``.
Both run on ``IntTerms``, {key: (a, b)} with each coefficient (a + b i)/den, the
one integer form that crosses the ``DiffPoly`` boundary: ``DiffPoly.numerators``
reads it, and ``DiffPoly.over`` builds from it, merging nothing again.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, groupby
from math import gcd, lcm
from operator import itemgetter, or_
from typing import Collection, Iterable, Iterator, TypeVar, Union

RationalLike = Union[int, Fraction]
C = TypeVar("C")


class GaussianRational:
    """Exact complex number (a + b i)/d with integers a, b, d.

    The triple is canonical: d > 0 and gcd(a, b, d) = 1, so equal values
    have equal triples and every operation normalises once.  ``re`` and
    ``im`` are exposed as :class:`~fractions.Fraction`.  Values are treated
    as immutable.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike | str = 0, im: RationalLike | str = 0):
        re, im = Fraction(re), Fraction(im)
        # Both parts are in lowest terms, so over the lcm of the
        # denominators the triple is already reduced.
        d = lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @staticmethod
    def of(re: "GaussianRational | RationalLike | str" = 0,
           im: RationalLike | str = 0) -> "GaussianRational":
        """re + im i; a GaussianRational ``re`` is returned as it is."""
        return re if isinstance(re, GaussianRational) else GaussianRational(re, im)

    @staticmethod
    def i() -> "GaussianRational":
        return _reduced(0, 1, 1)

    @staticmethod
    def two_i_pow(k: int) -> "GaussianRational":
        """(2i)**k for any integer k, exactly."""
        num, den = (2 ** k, 1) if k >= 0 else (1, 2 ** -k)
        return _reduced(*((num, 0), (0, num), (-num, 0), (0, -num))[k % 4], den)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a + other._a, self._b + other._b, d1)
        return _reduced(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return self + (-other) if isinstance(other, GaussianRational) else NotImplemented

    def __neg__(self) -> "GaussianRational":
        return _reduced(-self._a, -self._b, self._d)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            return NotImplemented  # c * p for a DiffPoly p is p.scale(c)
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    def conjugate(self) -> "GaussianRational":
        return _reduced(self._a, -self._b, self._d)

    def scale(self, f: RationalLike) -> "GaussianRational":
        if isinstance(f, int):
            return _reduced(self._a * f, self._b * f, self._d)
        f = Fraction(f)
        return _reduced(self._a * f.numerator, self._b * f.numerator, self._d * f.denominator)

    @property
    def is_real(self) -> bool:
        return not self._b

    def __complex__(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!s}, {self.im!s})"


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """A GaussianRational from integers with d > 0, dividing out gcd(a, b, d)."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    out = object.__new__(GaussianRational)
    out._a, out._b, out._d = a, b, d
    return out


Factor = tuple[str, int]
Factors = tuple[Factor, ...]
Term = tuple[Factors, GaussianRational]
IntTerms = dict[int, tuple[int, int]]  # {key: (a, b)}, each (a + b i) key over one denominator

_VARS = ("q", "r")
_DX_STEP = (1 << 16) - 1  # e_(s+2) - e_s at s = 0
_TOO_MANY = "a monomial holds at most 127 copies of a factor"


def _slot(var: str, order: int) -> int:
    if var not in _VARS or order < 0:
        raise ValueError(f"no factor {var}[{order}]: the variables are q and r, orders >= 0")
    return 2 * order + _VARS.index(var)


def _counts(key: int) -> bytes:
    """Factor count per slot, up to the highest occupied slot."""
    return key.to_bytes((key.bit_length() + 7) >> 3, "little")


def _every_slot(pattern: bytes, key: int) -> int:
    """``pattern`` repeated once per slot of ``key``: a mask for every key up to it."""
    return int.from_bytes(pattern * ((key.bit_length() + 7) >> 3), "little")


def dx_terms(terms: Iterable[tuple[int, C]]) -> Iterator[tuple[int, C, int]]:
    """The terms of the x-derivative of a sum of (key, c) terms, as
    (key, c, multiplicity): the n factors in slot s give n times the key with
    one of them moved to s + 2.  The one statement of the rule, for
    coefficients of any kind."""
    return (
        (key + (_DX_STEP << (8 * s)), c, n)
        for key, c in terms
        for s, n in enumerate(_counts(key))
        if n
    )


def partial_terms(terms: Iterable[tuple[int, C]], var: str,
                  order: int) -> Iterator[tuple[int, C, int]]:
    """The terms of ∂/∂(∂_x^order var) of a sum of (key, c) terms, as (key, c,
    multiplicity): the n factors in its slot give n times the key less one of
    them.  The one statement of the rule, as :func:`dx_terms` is for dx."""
    step = 1 << 8 * _slot(var, order)
    return ((key - step, c, n) for key, c in terms for n in ((key // step) & 0xFF,) if n)


def swap_qr(terms: Collection[tuple[int, C]]) -> list[tuple[int, C]]:
    """The (key, c) terms with q and r swapped in every key, each c as it
    is: the one statement of the key-level conjugation, for ``DiffPoly.conj``
    and for the twisted r-factors of ``gauge`` alike."""
    q_slots = _every_slot(b"\xff\x00", reduce(or_, (k for k, _ in terms), 0))
    return [(((k & q_slots) << 8) | ((k >> 8) & q_slots), c) for k, c in terms]


def pack(factors: Iterable[Factor]) -> int:
    """The packed key of a monomial, from its factors in any order."""
    key = 0
    for var, order in factors:
        shift = 8 * _slot(var, order)
        key += 1 << shift
        if (key >> shift) & 0x80:
            raise OverflowError(_TOO_MANY)
    return key


def unpack(key: int) -> Factors:
    """The sorted factor tuple of a key: q before r, then ascending order."""
    counts = _counts(key)
    return tuple(
        f
        for var, per_order in zip(_VARS, (counts[::2], counts[1::2]))
        for order, n in enumerate(per_order)
        for f in ((var, order),) * n
    )


def grading(key: int) -> tuple[int, int, int]:
    """(#q, #r, #derivatives) of a packed monomial.

    The order is 2 * #derivatives + #q + #r, and the monomial is phase
    balanced when #q = #r + 1; dx adds one derivative and keeps #q and #r.
    """
    # sum_s s * count_s, the suffix sums' sum, is 2 * #derivatives + #r: s = 2 * order + (1 for r).
    counts = _counts(key)
    nr = sum(counts[1::2])
    return sum(counts) - nr, nr, (sum(accumulate(counts[:0:-1])) - nr) >> 1


class DiffPoly:
    """Differential polynomial: a dict from packed key to nonzero coefficient."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[int, GaussianRational]] = ()):
        """The sum of (packed key, coefficient) pairs, as :meth:`terms` yields
        them: the one place where the monomials of a sum meet, and where a
        guard bit shows a slot past 127 copies."""
        acc: dict[int, GaussianRational] = {}
        for k, c in terms:
            s = acc.get(k)
            acc[k] = c if s is None else s + c
        union = reduce(or_, acc, 0)
        if union & _every_slot(b"\x80", union):
            raise OverflowError(_TOO_MANY)
        self._terms = {k: c for k, c in acc.items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "DiffPoly":
        return _ZERO_POLY

    @staticmethod
    def constant(c: GaussianRational | RationalLike) -> "DiffPoly":
        return DiffPoly(((0, GaussianRational.of(c)),))

    @staticmethod
    def variable(var: str, order: int = 0) -> "DiffPoly":
        return DiffPoly.monomial(GaussianRational.of(1), ((var, order),))

    @staticmethod
    def monomial(coeff: GaussianRational, factors: Iterable[Factor]) -> "DiffPoly":
        return DiffPoly(((pack(factors), coeff),))

    @staticmethod
    def sum(polys: Iterable["DiffPoly"]) -> "DiffPoly":
        """The sum of many polynomials, merged once."""
        return DiffPoly(pair for p in polys for pair in p._terms.items())

    @staticmethod
    def over(den: int, terms: IntTerms) -> "DiffPoly":
        """Sum of (a + b i)/den key over merged terms, den >= 1: undoes :meth:`numerators`."""
        if den < 1:
            raise ValueError(f"a denominator must be positive, not {den!r}")
        union = reduce(or_, terms, 0)
        if union & _every_slot(b"\x80", union):
            raise OverflowError(_TOO_MANY)
        return _poly({k: _reduced(a, b, den) for k, (a, b) in terms.items() if a or b})

    # -- views -------------------------------------------------------------

    def terms(self) -> Iterable[tuple[int, GaussianRational]]:
        """(packed key, coefficient) pairs, in no particular order."""
        return self._terms.items()

    def numerators(self) -> tuple[int, IntTerms]:
        """The coefficients' least common denominator den (1 for zero) and the
        terms as {key: (a, b)}, each coefficient (a + b i)/den."""
        den = lcm(*(c._d for c in self._terms.values()))
        return den, {k: (c._a * (den // c._d), c._b * (den // c._d)) for k, c in self.terms()}

    def items(self) -> tuple[Term, ...]:
        """(factors, coefficient) pairs sorted by factors: every artifact's order."""
        return tuple(sorted(((unpack(k), c) for k, c in self._terms.items()), key=itemgetter(0)))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, factors: Iterable[Factor]) -> GaussianRational:
        return self._terms.get(pack(factors), _ZERO_GR)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return DiffPoly(chain(self._terms.items(), other._terms.items()))

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return self + (-other) if isinstance(other, DiffPoly) else NotImplemented

    def __neg__(self) -> "DiffPoly":
        return _poly({k: -c for k, c in self._terms.items()})

    def __mul__(self, other: "DiffPoly | GaussianRational | int") -> "DiffPoly":
        if not isinstance(other, DiffPoly):
            return self.scale(other) if isinstance(other, (int, GaussianRational)) else NotImplemented
        right = other._terms.items()
        return DiffPoly((k1 + k2, c1 * c2) for k1, c1 in self._terms.items() for k2, c2 in right)

    __rmul__ = __mul__

    def scale(self, c: GaussianRational | RationalLike) -> "DiffPoly":
        c = GaussianRational.of(c)
        if not c:
            return _ZERO_POLY
        return _poly({k: v * c for k, v in self._terms.items()})

    def dx(self) -> "DiffPoly":
        """Total x-derivative, term by term through :func:`dx_terms`."""
        return DiffPoly(
            (k, c if n == 1 else c.scale(n)) for k, c, n in dx_terms(self._terms.items())
        )

    def partial(self, var: str, order: int) -> "DiffPoly":
        """Formal partial derivative with respect to the factor ∂_x^order var."""
        return _poly({
            k: c if n == 1 else c.scale(n)
            for k, c, n in partial_terms(self._terms.items(), var, order)
        })

    def conj(self) -> "DiffPoly":
        """Swap q <-> r in every factor and conjugate every coefficient."""
        return _poly({k: c.conjugate() for k, c in swap_qr(self._terms.items())})

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DiffPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"DiffPoly({serialize_poly(self)!r})"


def _poly(terms: dict[int, GaussianRational]) -> DiffPoly:
    """A DiffPoly owning ``terms``: legal keys, nonzero coefficients."""
    out = object.__new__(DiffPoly)
    out._terms = terms
    return out


_ZERO_POLY = _poly({})
_ZERO_GR = GaussianRational()


def merge_terms(terms: Iterable[tuple[int, tuple[int, int], int]],
                minus: Iterable[tuple[int, tuple[int, int], int]] = ()) -> IntTerms:
    """{key: (a, b)}: the one merge of integer terms, the sum of n (a + b i) key over
    (key, (a, b), n) as :func:`dx_terms` yields them, less ``minus``; zeros dropped."""
    acc: IntTerms = {}
    for sign, part in ((1, terms), (-1, minus)):
        for k, (a, b), n in part:
            s, n = acc.get(k, (0, 0)), sign * n
            acc[k] = (s[0] + n * a, s[1] + n * b)
    return {k: v for k, v in acc.items() if v[0] or v[1]}


# ---------------------------------------------------------------------------
# Integration by parts: Euler operator and exact antiderivative
# ---------------------------------------------------------------------------

class NotExact(Exception):
    """p has no antiderivative in the ring; carries a graded block with no preimage."""

    def __init__(self, residual: DiffPoly):
        self.residual = residual

    def __str__(self) -> str:
        return f"not an exact derivative; residual {serialize_poly(self.residual)}"


def _euler_tails(terms: IntTerms, var: str, lowest: int = 0) -> Iterator[tuple[int, IntTerms]]:
    """(k, T_k) for k from the highest order of ``var`` in the terms down to
    ``lowest``, over the terms' denominator,

        T_k = ∂p/∂(∂_x^k var) - dx T_(k+1),   zero above the highest order.

    T_0 is the Euler operator sum_k (-1)^k dx^k ∂p/∂(∂_x^k var) in Horner
    form, one dx per order; the tails with k >= 1 make the homotopy operator.
    """
    # A slot is occupied in some term iff its byte in the union of the keys is.
    per_order = _counts(reduce(or_, terms, 0))[_slot(var, 0)::2]
    top = max((o for o, n in enumerate(per_order) if n), default=-1)
    tail: IntTerms = {}
    for k in range(top, lowest - 1, -1):
        tail = merge_terms(partial_terms(terms.items(), var, k), minus=dx_terms(tail.items()))
        yield k, tail


def variational_derivative(p: DiffPoly, var: str) -> DiffPoly:
    """Euler operator: sum_k (-1)^k dx^k [ ∂p / ∂(∂_x^k var) ], the last
    Euler tail T_0 of :func:`_euler_tails`, on p's numerators."""
    den, terms = p.numerators()
    return DiffPoly.over(den, dict(_euler_tails(terms, var)).get(0, {}))


def _homotopy(block: IntTerms, degree: int) -> IntTerms | None:
    """``degree`` times the 1-D homotopy operator on a block homogeneous of
    that degree, over the block's denominator,

        sum_var sum_k sum_{i<k} ∂^i var (-D)^(k-i-1) ∂block/∂(∂^k var),

    summed per k as ∂^(k-1) var * T_k over the Euler tails T_k, k >= 1; or
    None where its dx is not ``degree`` times the block: no primitive.
    """
    out = merge_terms(
        (key + factor, c, 1)
        for var in _VARS
        for k, tail in _euler_tails(block, var, 1)
        for factor in (pack(((var, k - 1),)),)  # a product of keys is their sum
        for key, c in tail.items()
    )
    residual = merge_terms(dx_terms(out.items()), minus=((k, c, degree) for k, c in block.items()))
    return None if residual else out


def antiderivative(p: DiffPoly) -> DiffPoly:
    """The unique P with dx(P) = p, or :class:`NotExact`.

    dx adds one derivative and keeps #q and #r, so each block of equal
    ``grading`` (#q, #r, #derivatives) is integrated on its own, by the
    homotopy operator (Hereman et al. 2005) on a block of degree #q + #r,
    on p's numerators; the result is over den * lcm(degrees).
    A block is accepted only if dx of the result gives it back exactly; the
    first block that is not, constants included, is raised as the
    :class:`NotExact` residual.  Injectivity of dx on constant-free
    polynomials makes P unique when it exists.
    """
    den, terms = p.numerators()
    blocks: dict[tuple[int, int, int], IntTerms] = {}
    for key, c in terms.items():
        blocks.setdefault(grading(key), {})[key] = c
    scale = lcm(*(nq + nr for nq, nr, _ in blocks))
    result: IntTerms = {}
    for (nq, nr, _), block in blocks.items():
        primitive = _homotopy(block, nq + nr) if nq + nr else None
        if primitive is None:
            raise NotExact(DiffPoly.over(den, block))
        m = scale // (nq + nr)  # blocks differ in grading, so their primitives share no key
        result.update((k, (m * a, m * b)) for k, (a, b) in primitive.items())
    return DiffPoly.over(den * scale, result)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def fmt_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def serialize_term(factors: Factors, c: GaussianRational) -> str:
    """One term of :func:`serialize_poly`: ``(re,im)·q[k]·r[m]...``."""
    head = f"({fmt_fraction(c.re)},{fmt_fraction(c.im)})"
    return head + "".join(f"·{v}[{o}]" for v, o in factors)


def serialize_poly(p: DiffPoly) -> str:
    """Canonical text form: :func:`serialize_term` of each term, joined by ' + '."""
    return " + ".join(serialize_term(f, c) for f, c in p.items()) or "0"


_TERM_RE = _re.compile(
    r"^\((?P<re>-?\d+(?:/\d+)?),(?P<im>-?\d+(?:/\d+)?)\)(?P<factors>(?:·[qr]\[\d+\])*)$"
)
_FACTOR_RE = _re.compile(r"·([qr])\[(\d+)\]")


def parse_poly(text: str) -> DiffPoly:
    """Inverse of :func:`serialize_poly`."""
    text = text.strip()
    if text == "0":
        return DiffPoly.zero()
    return DiffPoly(_parse_term(chunk) for chunk in text.split(" + "))


def _parse_term(chunk: str) -> tuple[int, GaussianRational]:
    m = _TERM_RE.match(chunk.strip())
    if m is None:
        raise ValueError(f"cannot parse term {chunk!r}")
    key = pack((var, int(order)) for var, order in _FACTOR_RE.findall(m.group("factors")))
    return key, GaussianRational(m.group("re"), m.group("im"))


def coeff_to_json(c: GaussianRational) -> dict:
    """The JSON form of a coefficient, exact parts as text: {"re": "1/2", "im": "0"}."""
    return {"re": fmt_fraction(c.re), "im": fmt_fraction(c.im)}


def poly_to_json(p: DiffPoly) -> dict:
    return {
        "terms": [
            {
                "coeff": coeff_to_json(c),
                "factors": [{"var": v, "order": o} for v, o in f],
            }
            for f, c in p.items()
        ]
    }


# ---------------------------------------------------------------------------
# LaTeX rendering (subscript style: q_x, q_{xx}, powers grouped)
# ---------------------------------------------------------------------------

def _latex_factor(var: str, order: int, power: int) -> str:
    name = var if order == 0 else (f"{var}_x" if order == 1 else f"{var}_{{{'x' * order}}}")
    return name if power == 1 else f"{name}^{power}" if power < 10 else f"{name}^{{{power}}}"


def _latex_rational(f: Fraction, unit: str = "") -> str:
    # unit is "" or "i"; |f| rendered as integer or \frac.
    sign, a = "-" if f < 0 else "", abs(f)
    if a.denominator == 1:
        return f"{sign}{'' if a == 1 and unit else a.numerator}{unit}"
    return f"{sign}\\frac{{{a.numerator}{unit}}}{{{a.denominator}}}"


def latex_coefficient(c: GaussianRational) -> str:
    if c.is_real:
        return _latex_rational(c.re)
    if not c.re:
        return _latex_rational(c.im, "i")
    return f"({_latex_rational(c.re)}{'+' if c.im > 0 else ''}{_latex_rational(c.im, 'i')})"


def latex_term(c: GaussianRational, body: str) -> str:
    """The signed term c·body, "+" included; a ±1 coefficient of a body is its sign."""
    cs = latex_coefficient(c)
    if body and cs in ("1", "-1"):
        cs = cs[:-1]
    return (cs if cs.startswith("-") else "+" + cs) + body


def poly_to_latex(p: DiffPoly) -> str:
    out = ""
    for factors, coeff in p.items():
        # Sorted factors: each run of equal factors is one power.
        body = "".join(_latex_factor(v, o, len(list(run))) for (v, o), run in groupby(factors))
        out += latex_term(coeff, body)
    return out.removeprefix("+") or "0"
