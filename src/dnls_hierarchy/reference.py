"""Curated reference tables for the first hierarchy equations.

The ``reference_data`` directory stores, in the canonical text serialization,
the expanded nonlinearity NL_n and its antiderivative (bracket form) for the
flows n = 0..5 in the per-unit-alpha presentation

    q_t = (alpha i^n / 2^n) ( ∂_x^(n+1) q + NL_n ),

plus the gauged nonlinearities for j = 1, 2, 3 at alpha = 2^(2j-1).  The
tables were transcribed and cross-checked independently of the generator
(bracket and expanded forms differentiate into each other; cubic
coefficients obey the closed form), so they pin the derivation down to the
coefficient level.

Each table is compared in its own frame: NL_n = ``unit_form(n)`` -
∂_x^(n+1) q against the expanded table (the canonical frame is stated only
in ``hierarchy.Equation``), the gauged nonlinearity against the gauged
table.  The bracket tables, tied to the expanded ones by the tests (no
constant term, derivative equal to the table), are each the one
constant-free antiderivative of its expanded table.

One rule holds for every table.  ``expected_differences.json`` lists, under
the table's name (``hierarchy_n{n}`` or ``gauged_j{j}``), monomials that may
differ from the derivation without failing the comparison; each is reported
either way.  Only the sixth-order gauged table has such a flagged entry, the
quintic +q³r_x r_xxx whose sign breaks the pattern of its neighbours.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .algebra import DiffPoly, GaussianRational, parse_poly, serialize_term, unpack
from .gauge import derive_gauged
from .hierarchy import build_hierarchy_equation, unit_form

REFERENCE_HIERARCHY_RANGE = range(0, 6)
REFERENCE_GAUGED_RANGE = (1, 2, 3)


def _load_text(name: str) -> str:
    return resources.files("dnls_hierarchy").joinpath("reference_data", name).read_text()


def reference_expanded(n: int) -> DiffPoly:
    """Stored NL_n (expanded, per-unit-alpha frame)."""
    return parse_poly(_load_text(f"hierarchy_n{n}_expanded.txt"))


def reference_bracket(n: int) -> DiffPoly:
    """Stored antiderivative of NL_n (the nonlinearity under one ∂_x)."""
    return parse_poly(_load_text(f"hierarchy_n{n}_bracket.txt"))


def reference_gauged(j: int) -> DiffPoly:
    """Stored gauged nonlinearity for dispersion order 2j, canonical frame."""
    return parse_poly(_load_text(f"gauged_j{j}.txt"))


def expected_differences() -> dict[str, list[dict]]:
    return json.loads(_load_text("expected_differences.json"))


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GoldenDiff:
    """Outcome of one reference comparison.

    ``differences`` maps the serialized monomial to (derived, stored) pairs
    for every unexpected mismatch; ``allowed`` does the same, and ``notes``
    has one line, for each monomial on the expected-differences list.
    """

    matches: bool
    differences: dict[str, tuple[str, str]]
    allowed: dict[str, tuple[str, str]]
    notes: tuple[str, ...]


_ONE = GaussianRational.of(1)


def _compare(label: str, derived: DiffPoly, stored: DiffPoly) -> GoldenDiff:
    """Derived against stored, term by term, in factor order.  A term where
    they differ fails the comparison unless ``expected_differences.json``
    flags it under ``label``; a flagged term either has is reported in
    ``allowed`` and a note whether or not it differs."""
    entries = expected_differences().get(label, [])
    flagged = {k for e in entries for k, _ in parse_poly(e["term"]).terms()}
    a, b = dict(derived.terms()), dict(stored.terms())
    keys = {k for k, _ in (derived - stored).terms()} | (flagged & (a.keys() | b.keys()))
    differences, allowed, notes = {}, {}, []
    for factors, k in sorted((unpack(k), k) for k in keys):
        term = serialize_term(factors, _ONE)
        d, s = (serialize_term((), c) if c else "0" for c in (a.get(k), b.get(k)))
        if k in flagged:
            allowed[term] = d, s
            status = "agrees with" if d == s else "DIFFERS from"
            notes.append(f"flagged term {term}: derived {d}, stored {s} ({status} the stored table)")
        else:
            differences[term] = d, s
    return GoldenDiff(not differences, differences, allowed, tuple(notes))


def compare_hierarchy_equation(n: int) -> GoldenDiff:
    """Derived NL_n = unit_form(n) - ∂_x^(n+1) q against its expanded table."""
    return _compare(f"hierarchy_n{n}", unit_form(n) - DiffPoly.variable("q", n + 1),
                    reference_expanded(n))


def compare_gauged_equation(j: int) -> GoldenDiff:
    """Derived gauged nonlinearity for dispersion order 2j against its table."""
    gauged = derive_gauged(build_hierarchy_equation(2 * j - 1)).gauged
    return _compare(f"gauged_j{j}", gauged.nonlinearity, reference_gauged(j))
