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


@pytest.mark.hash_order
@pytest.mark.parametrize("n", list(REFERENCE_HIERARCHY_RANGE))
def test_hierarchy_tables_match_derivation(n):
    diff = compare_hierarchy_equation(n)
    assert diff.matches, diff.differences


@pytest.mark.hash_order
@pytest.mark.parametrize("j", list(REFERENCE_GAUGED_RANGE))
def test_gauged_tables_match_derivation(j):
    diff = compare_gauged_equation(j)
    assert diff.matches, diff.differences


@pytest.mark.hash_order
def test_flagged_term_is_reported():
    diff = compare_gauged_equation(3)
    assert len(diff.allowed) == 1
    assert any("flagged term" in note for note in diff.notes)


@pytest.mark.hash_order
def test_a_flagged_hierarchy_term_is_allowed(monkeypatch):
    # The expected-differences list holds for every table: a term flagged
    # under hierarchy_n3 whose stored coefficient differs is reported in
    # allowed and in a note, and does not fail the comparison.
    stored = reference.reference_expanded
    term = "q[1]·q[1]·r[1]"
    changed = parse_poly(serialize_poly(stored(3)).replace(f"(0,-5)·{term}", f"(0,-6)·{term}"))
    monkeypatch.setattr(reference, "reference_expanded",
                        lambda n: changed if n == 3 else stored(n))
    monkeypatch.setattr(reference, "expected_differences",
                        lambda: {"hierarchy_n3": [{"term": f"(1,0)·{term}", "note": "flagged"}]})
    diff = compare_hierarchy_equation(3)
    assert diff.matches and diff.differences == {}
    assert diff.allowed == {f"(1,0)·{term}": ("(0,-5)", "(0,-6)")}
    assert diff.notes == (f"flagged term (1,0)·{term}: derived (0,-5), stored (0,-6) "
                          "(DIFFERS from the stored table)",)


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


@pytest.mark.hash_order
@pytest.mark.parametrize("compare,table,i,term,old,new", [
    (compare_hierarchy_equation, "reference_expanded", 3, "q[1]·q[1]·r[1]", "(0,-5)", "(0,-6)"),
    (compare_gauged_equation, "reference_gauged", 2, "q[0]·q[1]·r[2]", "(0,2)", "(0,3)"),
], ids=["hierarchy_n3", "gauged_j2"])
def test_table_mismatch_names_the_changed_term(monkeypatch, compare, table, i, term, old, new):
    # One coefficient of one stored table changed: the comparison fails and
    # names exactly that term, with (derived, stored) coefficients, and the
    # neighbouring tables of its kind still match.
    assert compare(i).matches
    stored = getattr(reference, table)
    text = serialize_poly(stored(i))
    assert f"+ {old}·{term} +" in text
    changed = parse_poly(text.replace(f"{old}·{term}", f"{new}·{term}"))
    monkeypatch.setattr(reference, table, lambda k: changed if k == i else stored(k))
    diff = compare(i)
    assert not diff.matches
    assert diff.differences == {f"(1,0)·{term}": (old, new)}
    assert all(compare(k).matches for k in (i - 1, i + 1))
