"""Report assembly: overall verdict precedence and serialization shape."""
from __future__ import annotations

from fractions import Fraction

from kropinaflat import FAILS, HOLDS, INCONCLUSIVE, Condition, ConditionReport
from kropinaflat.cli import _render_check_text
from kropinaflat.reports import format_point


def report_with(*verdicts: str) -> ConditionReport:
    return ConditionReport(
        name="x", conditions=[Condition(f"c{i}", v) for i, v in enumerate(verdicts)]
    )


def test_overall_holds_iff_all_hold():
    assert report_with(HOLDS, HOLDS).overall == HOLDS
    assert report_with().overall == HOLDS
    assert report_with(HOLDS, FAILS).overall == FAILS
    assert report_with(HOLDS, INCONCLUSIVE).overall == INCONCLUSIVE
    # a decisive counterexample beats an undecided condition
    assert report_with(INCONCLUSIVE, FAILS).overall == FAILS


def test_to_dict_shape_and_optional_fields():
    report = ConditionReport(
        name="demo",
        conditions=[
            Condition("ok", HOLDS),
            Condition("bad", FAILS, witness="y1", witness_point={"x": ["1"], "y": ["2"]}),
        ],
        derived_facts={"key": True},
    )
    data = report.to_dict()
    assert data["overall"] == FAILS
    assert data["conditions"][0] == {"name": "ok", "verdict": HOLDS}
    assert data["conditions"][1]["witness"] == "y1"
    assert data["derived_facts"] == {"key": True}
    text = _render_check_text(report.to_dict())
    assert "[FAILS] demo" in text
    assert "witness: y1" in text


def test_format_point_exact_rationals():
    point = format_point((Fraction(1, 2), Fraction(-3)), (Fraction(7, 3), Fraction(0)))
    assert point == {"x": ["1/2", "-3"], "y": ["7/3", "0"]}


def test_condition_lookup():
    report = report_with(HOLDS)
    assert report.condition("c0").verdict == HOLDS
    try:
        report.condition("missing")
    except KeyError:
        pass
    else:
        raise AssertionError("expected KeyError")
