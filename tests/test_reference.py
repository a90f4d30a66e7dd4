import pytest

from dnls_hierarchy import reference
from dnls_hierarchy.algebra import parse_poly, serialize_poly
from dnls_hierarchy.reference import (
    REFERENCE_GAUGED_RANGE,
    REFERENCE_HIERARCHY_RANGE,
    compare_gauged_equation,
    compare_hierarchy_equation,
    expected_differences,
    reference_bracket,
    reference_expanded,
    reference_gauged,
)


@pytest.mark.parametrize("n", list(REFERENCE_HIERARCHY_RANGE))
def test_hierarchy_tables_match_derivation(n):
    diff = compare_hierarchy_equation(n)
    assert diff.matches, diff.differences


@pytest.mark.parametrize("j", list(REFERENCE_GAUGED_RANGE))
def test_gauged_tables_match_derivation(j):
    diff = compare_gauged_equation(j)
    assert diff.matches, diff.differences


def test_flagged_term_is_reported(self=None):
    diff = compare_gauged_equation(3)
    assert len(diff.allowed) == 1
    assert any("flagged term" in note for note in diff.notes)


def test_tables_are_canonically_serialized():
    # Stored bytes equal the canonical serialization of their own parse.
    from importlib import resources

    for n in REFERENCE_HIERARCHY_RANGE:
        raw = (
            resources.files("dnls_hierarchy")
            .joinpath("reference_data", f"hierarchy_n{n}_expanded.txt")
            .read_text()
        )
        assert raw == serialize_poly(reference_expanded(n)) + "\n"


def test_expected_difference_entry_names_the_quintic():
    entries = expected_differences()["gauged_j3"]
    assert entries[0]["term"].endswith("q[0]·q[0]·q[0]·r[1]·r[3]")


def test_bracket_differentiates_to_expanded():
    # A bracket with no constant term is the one antiderivative of its
    # expanded table, so the golden check compares the expanded table only.
    for n in range(1, 6):
        assert all(factors for factors, _ in reference_bracket(n).items())
        assert reference_bracket(n).dx() == reference_expanded(n)


def test_gauged_tables_have_no_bad_cubics():
    for j in REFERENCE_GAUGED_RANGE:
        for factors, _ in reference_gauged(j).items():
            if len(factors) == 3:
                assert [o for v, o in factors if v == "r"] != [0]


def test_table_mismatch_names_the_changed_term(monkeypatch):
    # One coefficient of the stored n = 3 table changed: the comparison
    # fails and names exactly that term, with (derived, stored) coefficients.
    assert compare_hierarchy_equation(3).matches
    stored = reference.reference_expanded
    text = serialize_poly(stored(3))
    assert "+ (0,-5)·q[1]·q[1]·r[1] +" in text
    changed = parse_poly(text.replace("(0,-5)·q[1]·q[1]·r[1]", "(0,-6)·q[1]·q[1]·r[1]"))
    monkeypatch.setattr(reference, "reference_expanded",
                        lambda n: changed if n == 3 else stored(n))
    diff = compare_hierarchy_equation(3)
    assert not diff.matches
    assert diff.differences == {"(1,0)·q[1]·q[1]·r[1]": ("(0,-5)", "(0,-6)")}
    assert all(compare_hierarchy_equation(n).matches for n in (2, 4))
