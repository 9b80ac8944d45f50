"""Flat key/value instance files describing one metric + 1-form pair.

Format: one `key = value` pair per line, `#` starts a comment, blank lines
are ignored.  Required keys: n, m, A, beta.  Optional keys (with defaults):
irreducible_asserted (false), numeric_points (20), seed (1234).  The A and
beta values use the polynomial expression grammar over x1..xn, y1..yn.

Example:

    # x-perturbed cubic metric
    n = 2
    m = 3
    A = (1 + x1)*y1^3 + y1*y2^2 + y2^3
    beta = y1
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .algebra.parser import ParseError, parse
from .finsler import MthRootMetric, OneForm
from .kropina import KropinaInstance


class InstanceError(ValueError):
    """Invalid instance file: bad syntax, bad values, or failed validation."""


_REQUIRED = ("n", "m", "A", "beta")
_OPTIONAL = {"irreducible_asserted": "false", "numeric_points": "20", "seed": "1234"}


@dataclass
class InstanceFile:
    n: int
    m: int
    a_text: str
    beta_text: str
    irreducible_asserted: bool = False
    numeric_points: int = 20
    seed: int = 1234
    source: str | None = None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "A": self.a_text,
            "beta": self.beta_text,
            "irreducible_asserted": self.irreducible_asserted,
            "numeric_points": self.numeric_points,
            "seed": self.seed,
            "source": self.source,
        }


def _parse_int(key: str, raw: str, line_no: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise InstanceError(f"line {line_no}: key {key!r} needs an integer, got {raw!r}") from None


def _parse_bool(key: str, raw: str, line_no: int) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise InstanceError(f"line {line_no}: key {key!r} needs true/false, got {raw!r}")


def parse_instance_text(text: str, source: str | None = None) -> InstanceFile:
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InstanceError(f"line {line_no}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _REQUIRED and key not in _OPTIONAL:
            raise InstanceError(f"line {line_no}: unknown key {key!r}")
        if key in values:
            raise InstanceError(f"line {line_no}: duplicate key {key!r}")
        values[key] = raw
        lines[key] = line_no
    for key in _REQUIRED:
        if key not in values:
            raise InstanceError(f"missing required key {key!r}")

    n = _parse_int("n", values["n"], lines["n"])
    m = _parse_int("m", values["m"], lines["m"])
    if n < 2:
        raise InstanceError(f"line {lines['n']}: dimension must be at least 2, got n={n}")
    if m < 3:
        raise InstanceError(
            f"line {lines['m']}: theorem checkers require root order m > 2, got m={m}"
        )
    spec = InstanceFile(
        n=n,
        m=m,
        a_text=values["A"],
        beta_text=values["beta"],
        source=source,
    )
    if "irreducible_asserted" in values:
        spec.irreducible_asserted = _parse_bool(
            "irreducible_asserted", values["irreducible_asserted"], lines["irreducible_asserted"]
        )
    if "numeric_points" in values:
        spec.numeric_points = _parse_int(
            "numeric_points", values["numeric_points"], lines["numeric_points"]
        )
        if spec.numeric_points < 1:
            raise InstanceError(
                f"line {lines['numeric_points']}: key 'numeric_points' must be positive, "
                f"got {spec.numeric_points}"
            )
    if "seed" in values:
        spec.seed = _parse_int("seed", values["seed"], lines["seed"])
    return spec


def load_instance_file(path: str | Path) -> InstanceFile:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    return parse_instance_text(text, source=str(path))


def parse_expressions(spec: InstanceFile) -> tuple[MthRootMetric, OneForm]:
    """Parse and validate A and beta, without deriving anything from them."""
    try:
        a = parse(spec.a_text, spec.n)
    except ParseError as exc:
        raise InstanceError(f"key 'A': {exc}") from exc
    try:
        beta_poly = parse(spec.beta_text, spec.n)
    except ParseError as exc:
        raise InstanceError(f"key 'beta': {exc}") from exc

    if a.is_zero():
        raise InstanceError("key 'A': metric polynomial must be nonzero")
    degree = a.homogeneous_y_degree()
    if degree != spec.m:
        raise InstanceError(
            f"key 'A': must be y-homogeneous of degree m={spec.m}, "
            f"got {'inhomogeneous' if degree is None else f'degree {degree}'}"
        )
    try:
        metric = MthRootMetric(spec.n, spec.m, a, assert_irreducible=spec.irreducible_asserted)
    except ValueError as exc:
        raise InstanceError(f"key 'A': {exc}") from exc

    if beta_poly.is_zero():
        raise InstanceError("key 'beta': one-form must not vanish identically")
    if beta_poly.homogeneous_y_degree() != 1:
        raise InstanceError("key 'beta': must be y-homogeneous of degree 1")
    try:
        return metric, OneForm.from_poly(beta_poly)
    except ValueError as exc:
        raise InstanceError(str(exc)) from exc


def build_instance(spec: InstanceFile) -> KropinaInstance:
    """Parse and validate the expressions, returning a ready instance."""
    metric, beta = parse_expressions(spec)
    try:
        return KropinaInstance(metric, beta)
    except ValueError as exc:
        raise InstanceError(str(exc)) from exc
