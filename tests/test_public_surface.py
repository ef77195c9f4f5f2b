"""The public surface: `trajphase.__all__` as a reviewed literal, and the
surfaces between the package's modules.

Adding, removing or renaming an export fails this test until the list below
is edited with it, so every change to the surface shows up in review. A
module's underscore names are its own: no other module of the package
imports one.
"""

from __future__ import annotations

import ast
from pathlib import Path

import trajphase

SOURCE = Path(__file__).resolve().parent.parent / "src" / "trajphase"

EXPORTS = [
    "AllOverflowError",
    "BlochAngles",
    "BranchTrackingError",
    "ConfigError",
    "DensityMatrix",
    "DephasingParams",
    "GeometricPhaseResult",
    "IntegrationError",
    "JumpEnsembleResult",
    "JumpEvent",
    "KrausSet",
    "LindbladModel",
    "Operator",
    "OperatorSchedule",
    "PureState",
    "QSDConfig",
    "QSDEnsembleResult",
    "RunSettings",
    "ScalarSchedule",
    "ScenarioConfig",
    "ScheduleRangeError",
    "ShiftSet",
    "StepSizeError",
    "SweepAxis",
    "TotalDecayError",
    "TrajectoryRecord",
    "annihilation",
    "apply_shift",
    "apply_unitary_mixing",
    "average_jump_ensemble",
    "averaged_geometric_phase",
    "averaged_geometric_phases",
    "averaged_overlap",
    "bloch_angles",
    "bloch_path",
    "bloch_spiral",
    "bloch_state",
    "closed_form_dynamical_phase",
    "closed_form_no_jump_phase",
    "closed_form_overlap_phase",
    "closed_form_survival",
    "combine_schedules",
    "commutator",
    "connection_unitarity_residual",
    "decay_equivalent_model",
    "decay_model",
    "dephasing_model",
    "evolve_density",
    "gauge_transform_check",
    "identity",
    "is_hermitian",
    "kraus_connection_matrix",
    "kraus_maps_equal",
    "kraus_set",
    "lindblad_rhs",
    "load_config",
    "matrix_exponential",
    "no_jump_geometric_phase",
    "no_jump_geometric_phases",
    "no_jump_hamiltonian",
    "no_jump_phase_correction",
    "no_jump_probability",
    "parse_config",
    "pauli",
    "propagate_no_jump",
    "sample_jump_trajectory",
    "serialize_config",
    "shift_is_hidden",
    "shifted_hamiltonian",
    "shifted_no_jump_hamiltonian",
    "wrap_phase",
    "zero_point_shift",
]


def test_exports_are_the_reviewed_list() -> None:
    assert sorted(trajphase.__all__) == EXPORTS


def test_every_export_resolves() -> None:
    missing = [name for name in trajphase.__all__ if not hasattr(trajphase, name)]
    assert missing == []


def test_no_module_imports_a_private_name_of_another() -> None:
    # A decision that two modules share belongs to one of them, under a
    # public name or as a method of the type it decides for.
    private = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not node.level and not (node.module or "").startswith("trajphase"):
                continue
            private += [
                f"{path.name}: {alias.name} from {'.' * node.level}{node.module or ''}"
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.endswith("__")
            ]
    assert private == []
