"""Verdicts and condition reports shared by the checkers and the CLI.

A report collects named conditions, each resolved to one of three verdicts:

  holds          the identity was verified exactly
  fails          a nonzero witness (polynomial and/or point) disproves it
  inconclusive   the check could not decide (with a reason)

The overall verdict is holds iff every condition holds; a single failing
condition makes the whole report fail, and otherwise any inconclusive
condition leaves the report inconclusive.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


def format_point(xs: Iterable[Fraction], ys: Iterable[Fraction]) -> dict:
    """Witness point with exact rational coordinates rendered as 'p/q'."""
    return {
        "x": [str(Fraction(v)) for v in xs],
        "y": [str(Fraction(v)) for v in ys],
    }


@dataclass
class Condition:
    name: str
    verdict: str
    witness: str | None = None
    witness_point: dict | None = None
    detail: str | None = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.witness_point is not None:
            out["witness_point"] = self.witness_point
        if self.detail is not None:
            out["detail"] = self.detail
        return out


@dataclass
class ConditionReport:
    name: str
    conditions: list[Condition] = field(default_factory=list)
    derived_facts: dict = field(default_factory=dict)

    @property
    def overall(self) -> str:
        verdicts = [c.verdict for c in self.conditions]
        if any(v == FAILS for v in verdicts):
            return FAILS
        if any(v == INCONCLUSIVE for v in verdicts):
            return INCONCLUSIVE
        return HOLDS

    def condition(self, name: str) -> Condition:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "overall": self.overall,
            "conditions": [c.to_dict() for c in self.conditions],
            "derived_facts": self.derived_facts,
        }

