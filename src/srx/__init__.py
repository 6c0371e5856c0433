"""srx: a numerical laboratory for local optimality of normal SR extremals."""
import importlib

__version__ = "0.1.0"

# exported name -> its module, imported on first use (PEP 562), so importing
# srx or srx.scenario loads no pipeline module
_MODULE_OF = {name: module for module, names in {
    "core": "ControlSignal Domain FrameRankError GridMismatchError "
            "NotCertifiableError PolyVectorField SRFrame SRXError Trajectory "
            "control_inner",
    "flows": "IntegrationError TangentFlow integrate_trajectory tangent_flow",
    "extremals": "HamiltonianExtremal NSREReport NotNormalizedError "
                 "OrthoDistribution angle_to_subspace hamiltonian_extremal "
                 "nsre_check orthogonal_control_complement span_profile",
    "homotopy": "EnergyComparison Homotopy VariationField "
                "energy_comparison_check natural_homotopy variation_direct "
                "variation_integral",
    "certify": "Certificate FrameConstants "
               "TrialRecord VerificationReport build_certificate "
               "compute_epsilon compute_eta estimate_constants psi "
               "sample_admissible_perturbation verify_certificate xi zeta",
}.items() for name in names.split()}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
