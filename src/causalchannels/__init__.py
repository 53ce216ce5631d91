"""Workbench for multipartite quantum channels and the non-locality objects
they define: causality verification, correlation / assemblage / distributed
measurement / teleportage extraction, a gallery of worked channel
constructions, and membership classifiers (local, quantum-model, and
almost-quantum feasibility)."""

from .causality import CausalityReport, is_causal, is_semicausal, signalling_witness
from .channels import (
    Channel,
    CircuitChannel,
    CircuitGate,
    CircuitParty,
    KrausSet,
    Party,
    choi_from_kraus,
    compile_circuit,
    compose_parallel,
    compose_serial,
    identity_channel,
    kraus_from_choi,
)
from .constructions import (
    ProjectiveRealization,
    almost_localizable_from_realization,
    assemblage_from_commuting_projectors,
    canonical_channel_from_assemblage,
    canonical_channel_from_correlations,
    ghjw_realize_assemblage,
    ghjw_realize_teleportage,
    pq_steering_alpha_channel,
    pq_steering_pr_channel,
    pr_box_channel,
    singlet_tsirelson_channel,
)
from .linalg import SystemLayout, Subsystem
from .membership import (
    FeasibilityReport,
    MomentMatrix,
    almost_quantum_assemblage_membership,
    almost_quantum_correlation_membership,
    build_moment_skeleton,
    gram_realization,
    lhs_membership,
    lhv_membership,
    moment_matrix_from_realization,
    tsirelson_witness,
)
from .scenarios import (
    Assemblage,
    Correlation,
    DistributedMeasurement,
    Teleportage,
    assemblage_from_channel,
    assemblage_general,
    chsh_value,
    correlations_from_channel,
    correlations_general,
    distributed_measurement_from_channel,
    is_nonsignalling_assemblage,
    is_nonsignalling_correlation,
    is_nonsignalling_distributed_measurement,
    is_nonsignalling_teleportage,
    teleportage_from_channel,
)
from .serialize import DocumentError, parse, serialize

__version__ = "0.1.0"
