"""Exact differential polynomial ring in two conjugate potentials q, r.

Elements are finite sums of monomials ``c * q^(a0) q^(a1) ... r^(b0) ...``
where each factor is a derivative ``∂_x^k q`` or ``∂_x^k r`` and the
coefficient c is a Gaussian rational, stored as three integers
``(a + b i)/d`` with d > 0 and gcd(a, b, d) = 1.  The ring carries

  * the total derivative ``DiffPoly.dx`` (Leibniz rule, raising each
    factor's order in turn),
  * conjugation ``DiffPoly.conj`` (swap q <-> r, conjugate coefficients),
  * the partial derivative ``DiffPoly.partial`` by one factor, and the
    Euler tails ``euler_tails`` built from it,
  * the grading ``grading(factors)`` = (#q, #r, #derivatives) of a term
    ``(factors, coeff)``, as ``DiffPoly.items`` yields them.

Sums go through ``+`` or, for many terms at once, ``DiffPoly.sum``, which
merges equal monomials and sorts once.

Every value is immutable and every operation pure.  Monomials keep their
factors in a fixed total order (variable q before r, then ascending
derivative order), polynomials keep their terms merged and sorted, so the
text serialization below is canonical byte-for-byte.  The inverse of the
total derivative, ``gauge.antiderivative``, is the homotopy operator on each
graded block, accepted only where ``dx`` of the result reproduces the block
exactly.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Mapping, Union

__all__ = [
    "GaussianRational",
    "DiffPoly",
    "grading",
    "euler_tails",
    "serialize_poly",
    "parse_poly",
    "poly_to_json",
    "poly_from_json",
    "poly_to_latex",
]

RationalLike = Union[int, Fraction]


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
        d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @staticmethod
    def of(re: RationalLike | str = 0, im: RationalLike | str = 0) -> "GaussianRational":
        return GaussianRational(re, im)

    @staticmethod
    def i() -> "GaussianRational":
        return _make(0, 1, 1)

    @staticmethod
    def two_i_pow(k: int) -> "GaussianRational":
        """(2i)**k for any integer k, exactly."""
        num, den = (2 ** k, 1) if k >= 0 else (1, 2 ** -k)
        rem = k % 4
        if rem == 0:
            return _make(num, 0, den)
        if rem == 1:
            return _make(0, num, den)
        if rem == 2:
            return _make(-num, 0, den)
        return _make(0, -num, den)

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
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a + other._a, self._b + other._b, d1)
        return _reduced(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return self + (-other)

    def __neg__(self) -> "GaussianRational":
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        c, e = other._a, other._b
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        a, b, f = self._a, self._b, other._d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * n)

    def __pow__(self, k: int) -> "GaussianRational":
        if k < 0:
            return _ONE_GR / self.__pow__(-k)
        out = _ONE_GR
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    def scale(self, f: RationalLike) -> "GaussianRational":
        f = Fraction(f)
        return _reduced(self._a * f.numerator, self._b * f.numerator, self._d * f.denominator)

    @property
    def is_real(self) -> bool:
        return not self._b

    def __complex__(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!s}, {self.im!s})"


def _make(a: int, b: int, d: int) -> GaussianRational:
    """A GaussianRational from a triple that is already canonical."""
    out = object.__new__(GaussianRational)
    out._a = a
    out._b = b
    out._d = d
    return out


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """A GaussianRational from integers with d > 0, dividing out gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _make(a, b, d)


_ONE_GR = _make(1, 0, 1)


# A factor is (variable, derivative order); factor tuples are kept sorted.
Factor = tuple[str, int]
Factors = tuple[Factor, ...]
Term = tuple[Factors, GaussianRational]

_VARS = ("q", "r")


def _check_factors(factors: Iterable[Factor]) -> Factors:
    fs = tuple(sorted(factors))
    for var, order in fs:
        if var not in _VARS:
            raise ValueError(f"unknown variable {var!r}")
        if order < 0:
            raise ValueError("negative derivative order")
    return fs


def grading(factors: Factors) -> tuple[int, int, int]:
    """(#q, #r, #derivatives) of a factor tuple.

    The order is 2 * #derivatives + #q + #r, and the monomial is phase
    balanced when #q = #r + 1; dx adds one derivative and keeps #q and #r.
    """
    nq = sum(1 for var, _ in factors if var == "q")
    return nq, len(factors) - nq, sum(order for _, order in factors)


class DiffPoly:
    """Canonical differential polynomial: merged, sorted, zero-free terms."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Factors, GaussianRational] | None = None):
        self._terms = tuple(sorted((f, c) for f, c in terms.items() if c)) if terms else ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "DiffPoly":
        return _ZERO_POLY

    @staticmethod
    def constant(c: GaussianRational | RationalLike) -> "DiffPoly":
        if not isinstance(c, GaussianRational):
            c = GaussianRational.of(c)
        return DiffPoly({(): c})

    @staticmethod
    def variable(var: str, order: int = 0) -> "DiffPoly":
        return DiffPoly.monomial(GaussianRational.of(1), ((var, order),))

    @staticmethod
    def monomial(coeff: GaussianRational, factors: Iterable[Factor]) -> "DiffPoly":
        return DiffPoly({_check_factors(factors): coeff})

    @staticmethod
    def sum(polys: Iterable["DiffPoly"]) -> "DiffPoly":
        """The sum of many polynomials, merged and sorted once."""
        return _collect(pair for p in polys for pair in p._terms)

    # -- views -------------------------------------------------------------

    def items(self) -> tuple[Term, ...]:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, factors: Iterable[Factor]) -> GaussianRational:
        key = _check_factors(factors)
        for f, c in self._terms:
            if f == key:
                return c
        return GaussianRational()

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        return _collect(self._terms + other._terms)

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return self + (-other)

    def __neg__(self) -> "DiffPoly":
        return DiffPoly({f: -c for f, c in self._terms})

    def __mul__(self, other: "DiffPoly | GaussianRational | int") -> "DiffPoly":
        if isinstance(other, (int, GaussianRational)):
            other = DiffPoly.constant(other)
        return _collect(
            (tuple(sorted(f1 + f2)), c1 * c2)
            for f1, c1 in self._terms
            for f2, c2 in other._terms
        )

    __rmul__ = __mul__

    def scale(self, c: GaussianRational | RationalLike) -> "DiffPoly":
        if not isinstance(c, GaussianRational):
            c = GaussianRational.of(c)
        if not c:
            return _ZERO_POLY
        return DiffPoly({f: v * c for f, v in self._terms})

    def dx(self) -> "DiffPoly":
        """Total x-derivative (Leibniz rule per monomial)."""
        return _collect(
            (tuple(sorted(f[:idx] + ((var, order + 1),) + f[idx + 1:])), c)
            for f, c in self._terms
            for idx, (var, order) in enumerate(f)
        )

    def partial(self, var: str, order: int) -> "DiffPoly":
        """Formal partial derivative with respect to the factor ∂_x^order var."""
        target = (var, order)
        return _collect(
            (factors[:idx] + factors[idx + 1:], coeff.scale(factors.count(target)))
            for factors, coeff in self._terms
            if target in factors
            for idx in (factors.index(target),)
        )

    def conj(self) -> "DiffPoly":
        """Swap q <-> r in every factor and conjugate every coefficient."""
        return DiffPoly({
            tuple(sorted(("r" if v == "q" else "q", o) for v, o in f)): c.conjugate()
            for f, c in self._terms
        })

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DiffPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __repr__(self) -> str:
        return f"DiffPoly({serialize_poly(self)!r})"


_ZERO_POLY = DiffPoly()


def _collect(pairs: Iterable[Term]) -> DiffPoly:
    """Merge the coefficients of equal (sorted) factor tuples, drop zeros and
    sort once: the one place where monomials of a sum meet."""
    acc: dict[Factors, GaussianRational] = {}
    for f, c in pairs:
        s = acc.get(f)
        acc[f] = c if s is None else s + c
    return DiffPoly(acc)


def euler_tails(p: DiffPoly, var: str, lowest: int = 0) -> Iterator[tuple[int, DiffPoly]]:
    """(k, T_k) for k from the highest order of ``var`` in p down to ``lowest``,

        T_k = ∂p/∂(∂_x^k var) - dx T_(k+1),   zero above the highest order.

    T_0 is the Euler operator sum_k (-1)^k dx^k ∂p/∂(∂_x^k var) in Horner
    form, one dx per order; the tails with k >= 1 make the homotopy operator.
    """
    top = max((o for factors, _ in p.items() for v, o in factors if v == var), default=-1)
    tail = _ZERO_POLY
    for k in range(top, lowest - 1, -1):
        tail = p.partial(var, k) - tail.dx()
        yield k, tail


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def fmt_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def serialize_poly(p: DiffPoly) -> str:
    """Canonical text form: ``(re,im)·q[k]·r[m]...`` terms joined by ' + '."""
    if p.is_zero:
        return "0"
    parts = []
    for factors, coeff in p.items():
        s = f"({fmt_fraction(coeff.re)},{fmt_fraction(coeff.im)})"
        for var, order in factors:
            s += f"·{var}[{order}]"
        parts.append(s)
    return " + ".join(parts)


_TERM_RE = _re.compile(
    r"^\((?P<re>-?\d+(?:/\d+)?),(?P<im>-?\d+(?:/\d+)?)\)(?P<factors>(?:·[qr]\[\d+\])*)$"
)
_FACTOR_RE = _re.compile(r"·([qr])\[(\d+)\]")


def parse_poly(text: str) -> DiffPoly:
    """Inverse of :func:`serialize_poly`."""
    text = text.strip()
    if text == "0":
        return DiffPoly.zero()
    return _collect(_parse_term(chunk) for chunk in text.split(" + "))


def _parse_term(chunk: str) -> Term:
    m = _TERM_RE.match(chunk.strip())
    if m is None:
        raise ValueError(f"cannot parse term {chunk!r}")
    factors = tuple(
        sorted((var, int(order)) for var, order in _FACTOR_RE.findall(m.group("factors")))
    )
    return factors, GaussianRational(Fraction(m.group("re")), Fraction(m.group("im")))


def poly_to_json(p: DiffPoly) -> dict:
    return {
        "terms": [
            {
                "coeff": {"re": fmt_fraction(c.re), "im": fmt_fraction(c.im)},
                "factors": [{"var": v, "order": o} for v, o in f],
            }
            for f, c in p.items()
        ]
    }


def poly_from_json(obj: dict) -> DiffPoly:
    return _collect(
        (
            tuple(sorted((f["var"], int(f["order"])) for f in term["factors"])),
            GaussianRational(Fraction(term["coeff"]["re"]), Fraction(term["coeff"]["im"])),
        )
        for term in obj["terms"]
    )


# ---------------------------------------------------------------------------
# LaTeX rendering (subscript style: q_x, q_{xx}, powers grouped)
# ---------------------------------------------------------------------------

def _latex_factor(var: str, order: int, power: int) -> str:
    name = var if order == 0 else (f"{var}_x" if order == 1 else f"{var}_{{{'x' * order}}}")
    return name if power == 1 else f"{name}^{power}" if power < 10 else f"{name}^{{{power}}}"


def _latex_rational(f: Fraction, unit: str = "") -> str:
    # unit is "" or "i"; |f| rendered as integer or \frac.
    sign = "-" if f < 0 else ""
    a = abs(f)
    if a.denominator == 1:
        mag = str(a.numerator)
        if mag == "1" and unit:
            mag = ""
        return f"{sign}{mag}{unit}"
    return f"{sign}\\frac{{{a.numerator}{unit}}}{{{a.denominator}}}"


def latex_coefficient(c: GaussianRational) -> str:
    if c.is_real:
        return _latex_rational(c.re)
    if not c.re:
        return _latex_rational(c.im, "i")
    return f"({_latex_rational(c.re)}{'+' if c.im > 0 else ''}{_latex_rational(c.im, 'i')})"


def poly_to_latex(p: DiffPoly) -> str:
    if p.is_zero:
        return "0"
    rendered = []
    for factors, coeff in p.items():
        powers: dict[Factor, int] = {}
        for fac in factors:
            powers[fac] = powers.get(fac, 0) + 1
        body = "".join(_latex_factor(v, o, k) for (v, o), k in sorted(powers.items()))
        cs = latex_coefficient(coeff)
        if cs == "1" and body:
            cs = ""
        elif cs == "-1" and body:
            cs = "-"
        rendered.append(f"{cs}{body}")
    out = rendered[0]
    for term in rendered[1:]:
        out += term if term.startswith("-") else "+" + term
    return out
