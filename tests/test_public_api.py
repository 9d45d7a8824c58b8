"""parakahler.__all__ lists what the package exports, each name once."""

import pytest

import parakahler

EXPORTED = [
    "Chart", "ChristoffelSymbols", "ConservationReport", "CurvatureTensor",
    "DegenerateLagrangianError", "DegreeError", "DifferentialForm", "EulerLagrangeSystem",
    "EvaluationError", "ExpressionError", "HamiltonianSystem",
    "LagrangianSystem", "Metric", "NewtonConvergenceError", "NonFiniteStateError",
    "ODESystem", "ParseError", "ProductStructure", "SamplingError", "Semispray",
    "SingularMetricError", "SymmetryReport", "Trajectory", "VectorField", "canonical_form",
    "christoffel", "compatibility_check", "conservation_report", "constant_c_test",
    "differentiate", "energy", "energy_differential", "equal_on_samples",
    "euler_lagrange_system", "evaluate", "exponential_law_report", "exterior_derivative",
    "hamilton_odes", "hamiltonian_vector_field", "integrate_rk4", "integrate_symplectic_euler",
    "interior_product", "j_dual_apply", "j_sectional_curvature", "kahler_form",
    "liouville_one_form", "metric_from_potential", "model_dual_structure", "model_metric",
    "model_product_structure", "nabla_J", "parse", "r_zero", "riemann", "simplify",
    "solve_semispray", "symmetry_report", "symplecticity_check", "to_source",
    "write_trajectory_csv",
]

# helpers that no command reached, deleted from the package; owner.name is an
# attribute deleted from a module or class the package exports
REMOVED = ["wedge", "metric_apply", "j_apply", "insertion_operator",
           "liouville_field", "Proposition1Report", "proposition1_report",
           "vertical_derivative", "SectionalPlane", "sectional_curvature",
           "DegeneratePlaneError", "IsotropicVectorError",
           "curvature.PLANE_TOL", "curvature.ISOTROPY_TOL", "CurvatureTensor.apply",
           "VectorField.at", "VectorField._compiled",
           "DifferentialForm.at", "DifferentialForm._compiled"]


def test_every_listed_name_resolves():
    missing = [name for name in parakahler.__all__ if not hasattr(parakahler, name)]
    assert missing == []


def test_no_listed_name_repeats():
    assert len(set(parakahler.__all__)) == len(parakahler.__all__)


def test_exports_are_pinned():
    assert sorted(parakahler.__all__) == EXPORTED


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_not_importable(name):
    owner, _, attribute = name.rpartition(".")
    if owner:
        assert not hasattr(getattr(parakahler, owner), attribute)
        return
    assert name not in parakahler.__all__
    with pytest.raises(ImportError):
        exec(f"from parakahler import {name}", {})
