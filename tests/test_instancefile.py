"""Instance file parsing and validation."""
from __future__ import annotations

import pytest

from kropinaflat import InstanceError, build_instance, load_instance_file, parse_instance_text


GOOD = """\
# comment line
n = 2
m = 3

A = y1^3 + y1*y2^2 + y2^3   # trailing comment
beta = y1
numeric_points = 7
seed = 99
irreducible_asserted = true
"""


def test_parse_full_document():
    spec = parse_instance_text(GOOD, source="inline")
    assert spec.n == 2
    assert spec.m == 3
    assert spec.numeric_points == 7
    assert spec.seed == 99
    assert spec.irreducible_asserted is True
    assert spec.source == "inline"
    inst = build_instance(spec)
    assert inst.metric.irreducibility.kind == "asserted"


def test_defaults():
    spec = parse_instance_text("n = 2\nm = 3\nA = y1^3 + y2^3\nbeta = y1\n")
    assert spec.irreducible_asserted is False
    assert spec.numeric_points == 20
    assert spec.seed == 1234


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("n = 2\nm = 3\nA = y1^3\n", "missing required key 'beta'"),
        ("n = 2\nm = 3\nA = y1^3\nbeta = y1\nwhat = 1\n", "unknown key"),
        ("n = 2\nm = 3\nm = 4\nA = y1^3\nbeta = y1\n", "duplicate key"),
        ("n = 2\nm = 3\njust a line\nA = y1^3\nbeta = y1\n", "expected 'key = value'"),
        ("n = two\nm = 3\nA = y1^3\nbeta = y1\n", "needs an integer"),
        ("n = 2\nm = 3\nA = y1^3\nbeta = y1\nirreducible_asserted = maybe\n", "true/false"),
        ("n = 1\nm = 3\nA = y1^3\nbeta = y1\n", "dimension must be at least 2"),
        ("n = 2\nm = 2\nA = y1*y2\nbeta = y1\n", "m > 2"),
        ("n = 2\nm = 3\nA = y1^3\nbeta = y1\nnumeric_points = 0\n", "positive"),
    ],
)
def test_document_errors(text, fragment):
    with pytest.raises(InstanceError) as err:
        parse_instance_text(text)
    assert fragment in str(err.value)


def test_nonpositive_numeric_points_error_has_its_line():
    with pytest.raises(InstanceError) as err:
        parse_instance_text("n = 2\nm = 3\nA = y1^3\nbeta = y1\n\nnumeric_points = 0\n")
    assert str(err.value) == "line 6: key 'numeric_points' must be positive, got 0"


@pytest.mark.parametrize(
    "a,beta,fragment",
    [
        ("y1^3 + y2^2", "y1", "y-homogeneous of degree m=3"),
        ("y1^4 + y2^4", "y1", "degree m=3"),
        ("0", "y1", "nonzero"),
        ("y1^(1/2)", "y1", "fractional exponent"),
        ("y1^3 + z9", "y1", "unknown variable"),
        ("y1^3 + y2^3", "0", "must not vanish"),
        ("y1^3 + y2^3", "y1^2", "degree 1"),
        ("y1^3 + y2^3", "y1 + 1", "degree 1"),
    ],
)
def test_expression_validation(a, beta, fragment):
    spec = parse_instance_text(f"n = 2\nm = 3\nA = {a}\nbeta = {beta}\n")
    with pytest.raises(InstanceError) as err:
        build_instance(spec)
    assert fragment in str(err.value)


def test_load_missing_file(tmp_path):
    with pytest.raises(InstanceError) as err:
        load_instance_file(tmp_path / "nope.inst")
    assert "cannot read" in str(err.value)


def test_line_numbers_in_errors():
    with pytest.raises(InstanceError) as err:
        parse_instance_text("n = 2\nm = 3\nA = y1^3\nbeta = y1\nnot-a-pair\n")
    assert "line 5" in str(err.value)
