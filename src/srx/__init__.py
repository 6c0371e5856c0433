"""srx: a numerical laboratory for local optimality of normal SR extremals."""

from .core import (ControlSignal, Domain, FrameRankError, GridMismatchError,
                   PolyVectorField, SRFrame, SRXError, Trajectory, control_inner)
from .flows import (DomainExitError, IntegrationError, TangentFlow,
                    integrate_trajectory, tangent_flow)
from .extremals import (HamiltonianExtremal, NSREReport, NotNormalizedError,
                        OrthoDistribution, angle_to_subspace,
                        hamiltonian_extremal, nsre_check,
                        orthogonal_control_complement, span_profile)
from .homotopy import (EnergyComparison, Homotopy, VariationField,
                       energy_comparison_check, natural_homotopy,
                       variation_direct, variation_integral)
from .certify import (Certificate, EpsilonResult, FrameConstants,
                      NotCertifiableError, TrialRecord, VerificationReport,
                      build_certificate, compute_epsilon, compute_eta,
                      estimate_constants, psi, sample_admissible_perturbation,
                      verify_certificate, xi, zeta)

__version__ = "0.1.0"

__all__ = [
    "ControlSignal", "Domain", "FrameRankError", "GridMismatchError",
    "PolyVectorField", "SRFrame", "SRXError", "Trajectory", "control_inner",
    "DomainExitError", "IntegrationError", "TangentFlow",
    "integrate_trajectory", "tangent_flow",
    "HamiltonianExtremal", "NSREReport", "NotNormalizedError",
    "OrthoDistribution", "angle_to_subspace",
    "hamiltonian_extremal", "nsre_check", "orthogonal_control_complement",
    "span_profile",
    "EnergyComparison", "Homotopy", "VariationField",
    "energy_comparison_check", "natural_homotopy",
    "variation_direct", "variation_integral",
    "Certificate", "EpsilonResult", "FrameConstants", "NotCertifiableError",
    "TrialRecord", "VerificationReport", "build_certificate",
    "compute_epsilon", "compute_eta", "estimate_constants", "psi",
    "sample_admissible_perturbation", "verify_certificate", "xi", "zeta",
    "__version__",
]
