"""Simulator for a supervised three-party entanglement-sharing protocol.

A supervisor (Charlie) distributes three-qubit W states to Alice and Bob,
randomly sampled rounds are measured to catch an eavesdropper on the
Bob-bound channel, surviving rounds are distilled into Bell pairs, and the
pairs carry single-qubit teleportation.  The package provides the quantum
bookkeeping, the protocol state machine, pluggable attack models, the
closed-form detection/success formulas, and a CLI experiment runner.
"""

__version__ = "0.1.0"

from .analytic import (
    closed_form_round_detection,
    isra_case_probs,
    isra_success_sequence,
    round_detection_probability,
    sequence_success_probability,
)
from .attacks import AttackModel, eve_recover_attempt
from .protocol import (
    CheckReport,
    CheckerMode,
    DetectionDirective,
    DistilledPairSet,
    ProtocolConfig,
    RunOutcome,
    run_protocol,
)
from .statevec import (
    Basis,
    BellOutcome,
    MeasurementBranch,
    StateVector,
    enumerate_qubit,
    make_basis_state,
    make_message_state,
    make_w_state,
    measure_qubit,
    reduced_fidelity,
    tensor,
)
from .teleport import (
    TeleportResult,
    build_correction_table,
    ema_decomposition,
    random_message,
    teleport,
)

__all__ = [
    "AttackModel",
    "Basis",
    "BellOutcome",
    "CheckReport",
    "CheckerMode",
    "DetectionDirective",
    "DistilledPairSet",
    "MeasurementBranch",
    "ProtocolConfig",
    "RunOutcome",
    "StateVector",
    "TeleportResult",
    "build_correction_table",
    "closed_form_round_detection",
    "ema_decomposition",
    "enumerate_qubit",
    "eve_recover_attempt",
    "isra_case_probs",
    "isra_success_sequence",
    "make_basis_state",
    "make_message_state",
    "make_w_state",
    "measure_qubit",
    "random_message",
    "reduced_fidelity",
    "round_detection_probability",
    "run_protocol",
    "sequence_success_probability",
    "teleport",
    "tensor",
]
