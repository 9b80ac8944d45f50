"""The public names: each one resolves, and the packages export nothing else."""
from __future__ import annotations

import kropinaflat
import kropinaflat.algebra

PACKAGE = {
    "Condition", "ConditionReport", "FAILS", "HOLDS", "INCONCLUSIVE", "DerivedQuantities",
    "InstanceError", "InstanceFile", "IrreducibilityStatus", "KropinaInstance", "MthRootMetric",
    "MultiPoly", "OneForm", "ParseError", "PowerExpr", "RatFunc", "ThetaExtraction",
    "ThetaForm", "__version__", "build_instance", "check_dually_flat", "check_projectively_flat",
    "check_prop31", "check_theta_condition", "check_theorem1", "condition_brackets",
    "contraction_probes", "corpus_dir", "derive", "divide_exact", "divide_exact_qx",
    "dually_flat_residual", "extract_theta", "find_nonzero_point", "hamel_residual",
    "irreducibility_heuristic", "kropina_F", "kropina_L", "load_instance_file", "numeric_crosscheck",
    "parse", "parse_instance_text", "prop31_condition", "sample_admissible_points", "to_text",
    "verify_euler_identities", "verify_inverse_identities",
}
ALGEBRA = {
    "MultiPoly", "ParseError", "PowerExpr", "RatFunc", "divide_exact",
    "divide_exact_qx", "find_nonzero_point", "monomial_key", "parse", "to_text",
}


def _defined_here(module) -> set[str]:
    """Public module attributes that are classes or functions of the package."""
    return {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_") and getattr(obj, "__module__", "").startswith("kropinaflat")
    }


def test_every_exported_name_resolves():
    for module in (kropinaflat, kropinaflat.algebra):
        for name in module.__all__:
            assert getattr(module, name) is not None, (module.__name__, name)


def test_exports_are_exactly_the_public_api():
    assert set(kropinaflat.__all__) == PACKAGE
    assert set(kropinaflat.algebra.__all__) == ALGEBRA
    assert len(kropinaflat.__all__) == len(PACKAGE)
    assert _defined_here(kropinaflat) <= PACKAGE
    assert _defined_here(kropinaflat.algebra) <= ALGEBRA
