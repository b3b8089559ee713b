"""Toolkit for unambiguous unitary maps and channels.

Certifies whether operators and Kraus channels act as heralded unitaries on
chosen subspaces, refines certified channels to canonical rank-one form,
and exercises the three standard applications: unambiguous teleportation,
quantum error correction, and unambiguous dense coding.

``import uuqc`` loads no submodule: each exported name, and each of the six
submodules below, is imported on first access (PEP 562) and then cached in
this module's namespace.
"""

from importlib import import_module

# Each submodule and the names it exports here.
_EXPORTS = {
    "channels": ("KrausChannel", "PhysicalityReport", "apply", "choi_state", "compose", "is_physical", "povm_of"),
    "densecode": ("BoundReport", "DenseCodingProtocol", "SharedState", "SimulationResult", "capacity",
                  "optimal_protocol", "optimal_receiver", "simulate", "verify_protocol_bound", "weyl_operators"),
    "entanglement": ("SchmidtForm", "TeleportCertificate", "check_mixed_nonzero", "conversion_probability",
                     "is_rank_d_ues", "schmidt", "search_mixed_nonzero", "teleport_probability_pure",
                     "teleportation_parts", "ues_to_uuqc", "uuqc_to_ues"),
    "linalg": ("DEFAULT_TOL", "FactoredPair", "SubspaceIsometry", "factor_as_tensor", "partial_trace",
               "random_unitary", "shift_clock_unitaries", "tensor_product"),
    "qec": ("CodeSpec", "CorrectionReport", "KlReport", "diagonalize_errors", "kl_check",
            "meets_certainty_condition", "noise_choi_state", "standard_recovery",
            "unambiguous_correction_probability", "verify_correction_uuqc"),
    "unambiguous": ("UumCertificate", "UuqcCertificate", "certify_uum", "certify_uuqc", "extend_by_identity",
                    "probability_profile", "refine", "restrict_operator"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        # Importing a submodule binds it here as well.
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
