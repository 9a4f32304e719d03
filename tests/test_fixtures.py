"""The planted-defect catalog: every code lands exactly where intended.

Each fixture certificate carries one deliberately planted defect.  The
recognizer must report exactly the planted code plus any codes the
fixture documents as implied by it, the planted diagnostic must carry
the frozen severity class, and acceptance must match the plan.
"""

import pytest

from derlint.grammar import parse_certificate

from support import certs

FIXTURES = certs.planted_fixtures()


def fixture_ids():
    return [f.name for f in FIXTURES]


@pytest.fixture(scope="module")
def parsed_by_name():
    return {f.name: parse_certificate(f.data) for f in FIXTURES}


def test_catalog_is_large_enough():
    assert len(FIXTURES) >= 25


def test_catalog_names_unique():
    names = [f.name for f in FIXTURES]
    assert len(names) == len(set(names))


def test_catalog_covers_distinct_codes():
    codes = {f.code for f in FIXTURES}
    assert len(codes) >= 25


@pytest.mark.parametrize("fixture", FIXTURES, ids=fixture_ids())
def test_planted_code_set_is_exact(fixture, parsed_by_name):
    parsed = parsed_by_name[fixture.name]
    got = {d.code.name for d in parsed.diagnostics}
    assert got == {fixture.code} | fixture.implied


@pytest.mark.parametrize("fixture", FIXTURES, ids=fixture_ids())
def test_planted_severity_class(fixture, parsed_by_name):
    parsed = parsed_by_name[fixture.name]
    planted = [d for d in parsed.diagnostics if d.code.name == fixture.code]
    assert planted, "planted code missing"
    for d in planted:
        assert d.code.severity.value == fixture.severity
        assert d.severity.value == fixture.severity


@pytest.mark.parametrize("fixture", FIXTURES, ids=fixture_ids())
def test_planted_acceptance(fixture, parsed_by_name):
    parsed = parsed_by_name[fixture.name]
    assert parsed.accepted == fixture.accepted
    assert parsed.accepted == (not any(d.code.rejects for d in parsed.diagnostics))


@pytest.mark.parametrize("fixture", FIXTURES, ids=fixture_ids())
def test_diagnostics_carry_location(fixture, parsed_by_name):
    parsed = parsed_by_name[fixture.name]
    for d in parsed.diagnostics:
        assert d.grammar_path
        if d.byte_offset is not None:
            assert 0 <= d.byte_offset <= len(fixture.data)
