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

A hierarchy comparison reads NL_n = ``unit_form(n)`` - ∂_x^(n+1) q against the
expanded table, in the table's own frame (the canonical one is stated only in
``hierarchy.Equation``).  The bracket tables, tied to the expanded ones by the
tests (no constant term, derivative equal to the table), are each the one
constant-free antiderivative of its expanded table.

``expected_differences.json`` lists monomials that are allowed to differ
from the derivation without failing a comparison; each is reported either
way.  The sixth-order gauged table carries one such flagged entry, the
quintic +q³r_x r_xxx whose sign breaks the pattern of its neighbours.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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
    for every unexpected mismatch; ``allowed`` does the same for monomials on
    the expected-differences list (reported, never failing).
    """

    matches: bool
    differences: dict[str, tuple[str, str]] = field(default_factory=dict)
    allowed: dict[str, tuple[str, str]] = field(default_factory=dict)
    notes: tuple[str, ...] = ()


_ONE = GaussianRational.of(1)


def _coeff_str(c: GaussianRational | None) -> str:
    return serialize_term((), c) if c else "0"


def _diff_polys(derived: DiffPoly, stored: DiffPoly, allowed_keys: set[int]):
    """(differences, allowed): term label -> (derived, stored) coefficient text,
    in factor order, for every term where the two differ and every allowed
    term that either has."""
    a, b = dict(derived.terms()), dict(stored.terms())
    keys = {k for k, _ in (derived - stored).terms()}
    keys |= {k for k in allowed_keys if k in a or k in b}
    diffs: dict[str, tuple[str, str]] = {}
    allowed: dict[str, tuple[str, str]] = {}
    for factors, k in sorted((unpack(k), k) for k in keys):
        entry = (_coeff_str(a.get(k)), _coeff_str(b.get(k)))
        (allowed if k in allowed_keys else diffs)[serialize_term(factors, _ONE)] = entry
    return diffs, allowed


def _parse_term_key(term: str) -> int:
    ((key, _coeff),) = parse_poly(term).terms()
    return key


def compare_hierarchy_equation(n: int) -> GoldenDiff:
    """Derived NL_n = unit_form(n) - ∂_x^(n+1) q against its expanded table."""
    nl = unit_form(n) - DiffPoly.variable("q", n + 1)
    diffs, _ = _diff_polys(nl, reference_expanded(n), set())
    return GoldenDiff(
        matches=not diffs,
        differences=diffs,
    )


def compare_gauged_equation(j: int) -> GoldenDiff:
    """Derived gauged equation against the stored table, honouring the
    expected-differences list for this j."""
    gd = derive_gauged(build_hierarchy_equation(2 * j - 1))
    stored = reference_gauged(j)
    allowed_entries = expected_differences().get(f"gauged_j{j}", [])
    allowed_keys = {_parse_term_key(e["term"]) for e in allowed_entries}
    diffs, allowed = _diff_polys(gd.gauged.nonlinearity, stored, allowed_keys)
    notes = []
    for key, (derived_c, stored_c) in allowed.items():
        status = "agrees with the stored table" if derived_c == stored_c else "DIFFERS from the stored table"
        notes.append(f"flagged term {key}: derived {derived_c}, stored {stored_c} ({status})")
    return GoldenDiff(
        matches=not diffs,
        differences=diffs,
        allowed=allowed,
        notes=tuple(notes),
    )
