"""Exact symbolic verification of flatness conditions for Kropina-changed
m-th root Finsler metrics, cross-validated by a numeric oracle."""

from importlib import resources
from pathlib import Path

__version__ = "0.1.0"

from .algebra import (
    MultiPoly,
    ParseError,
    PowerExpr,
    RatFunc,
    divide_exact,
    divide_exact_qx,
    find_nonzero_point,
    parse,
    to_text,
)
from .finsler import (
    DerivedQuantities,
    IrreducibilityStatus,
    MthRootMetric,
    OneForm,
    derive,
    irreducibility_heuristic,
    verify_euler_identities,
    verify_inverse_identities,
)
from .instancefile import InstanceError, InstanceFile, build_instance, load_instance_file, parse_instance_text
from .kropina import (
    KropinaInstance,
    ThetaExtraction,
    ThetaForm,
    check_dually_flat,
    check_projectively_flat,
    check_prop31,
    check_theta_condition,
    check_theorem1,
    condition_brackets,
    contraction_probes,
    dually_flat_residual,
    extract_theta,
    hamel_residual,
    kropina_F,
    kropina_L,
    numeric_crosscheck,
    prop31_condition,
    sample_admissible_points,
)
from .reports import FAILS, HOLDS, INCONCLUSIVE, Condition, ConditionReport


def corpus_dir() -> Path:
    """Filesystem path of the bundled instance corpus."""
    return Path(resources.files("kropinaflat") / "corpus")


__all__ = [
    "Condition",
    "ConditionReport",
    "FAILS",
    "HOLDS",
    "INCONCLUSIVE",
    "DerivedQuantities",
    "InstanceError",
    "InstanceFile",
    "IrreducibilityStatus",
    "KropinaInstance",
    "MthRootMetric",
    "MultiPoly",
    "OneForm",
    "ParseError",
    "PowerExpr",
    "RatFunc",
    "ThetaExtraction",
    "ThetaForm",
    "__version__",
    "build_instance",
    "check_dually_flat",
    "check_projectively_flat",
    "check_prop31",
    "check_theta_condition",
    "check_theorem1",
    "condition_brackets",
    "contraction_probes",
    "corpus_dir",
    "derive",
    "divide_exact",
    "divide_exact_qx",
    "dually_flat_residual",
    "extract_theta",
    "find_nonzero_point",
    "hamel_residual",
    "irreducibility_heuristic",
    "kropina_F",
    "kropina_L",
    "load_instance_file",
    "numeric_crosscheck",
    "parse",
    "parse_instance_text",
    "prop31_condition",
    "sample_admissible_points",
    "to_text",
    "verify_euler_identities",
    "verify_inverse_identities",
]
