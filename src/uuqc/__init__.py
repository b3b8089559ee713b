"""Toolkit for unambiguous unitary maps and channels.

Certifies whether operators and Kraus channels act as heralded unitaries on
chosen subspaces, refines certified channels to canonical rank-one form,
and exercises the three standard applications: unambiguous teleportation,
quantum error correction, and unambiguous dense coding.
"""

from .channels import (
    KrausChannel,
    PhysicalityReport,
    apply,
    choi_state,
    compose,
    identity_channel,
    is_physical,
    maximally_entangled_ket,
    povm_of,
)
from .densecode import (
    BoundReport,
    DenseCodingProtocol,
    SharedState,
    SimulationResult,
    capacity,
    optimal_protocol,
    optimal_receiver,
    simulate,
    verify_protocol_bound,
    weyl_operators,
)
from .entanglement import (
    SchmidtForm,
    TeleportCertificate,
    check_mixed_nonzero,
    conversion_probability,
    is_rank_d_ues,
    schmidt,
    search_mixed_nonzero,
    teleport_probability_pure,
    teleportation_parts,
    ues_to_uuqc,
    uuqc_to_ues,
)
from .linalg import (
    DEFAULT_TOL,
    FactoredPair,
    SubspaceIsometry,
    factor_as_tensor,
    partial_trace,
    random_ket,
    random_unitary,
    shift_clock_unitaries,
    svd,
    tensor_product,
)
from .qec import (
    CodeSpec,
    CorrectionReport,
    KlReport,
    diagonalize_errors,
    encoding_channel,
    kl_check,
    meets_certainty_condition,
    noise_choi_state,
    standard_recovery,
    unambiguous_correction_probability,
    verify_correction_uuqc,
)
from .unambiguous import (
    UumCertificate,
    UuqcCertificate,
    certify_uum,
    certify_uuqc,
    extend_by_identity,
    probability_profile,
    refine,
    restrict_operator,
)

__version__ = "0.1.0"
