"""contactlab: numerical experiments in contact Hamiltonian geometry.

Chart-level contact algebra, Reeb dynamics and return maps, model-
neighborhood (thickening) constructions, the asymptotic operator of a
computed Reeb orbit and its spectral gap, and the three-interval
exponential-decay machinery on model cylinders, tied together by a
scenario-driven CLI.
"""

from .core import (ContactChart, PerturbationData, contact_volume, flat_dual, perturbed_projection, perturbed_reeb,
                   reeb_solve, sharp_dual, xi_frame)
from .decay import (ActionCharge, CylinderField, FlatTorusQ, Forcing, IntervalSeq, action_charge, center_of_mass,
                    decay_rate, gamma_of_c, growth_factor, random_hypothesis_sequences, solve_cylinder,
                    three_interval_bound)
from .dynamics import (MorseBottCandidate, Nondegenerate, ReebOrbit, ReturnMap, classify_orbit,
                       find_closed_orbit, flow, monodromy, orbit_family_scan, return_map)
from .normalform import (AdaptedJ, MorseBottSetup, ThickeningChart, build_thickening, check_adapted,
                         make_adapted_J, radial_identities, reeb_of_thickening, split_contact_distribution)
from .spectral import SpectralOperator, assemble_operator, asymptotic_operator, gap_inequality_check, spectrum

__all__ = [
    "ContactChart", "PerturbationData", "contact_volume", "flat_dual", "perturbed_projection", "perturbed_reeb",
    "reeb_solve", "sharp_dual", "xi_frame",
    "ActionCharge", "CylinderField", "FlatTorusQ", "Forcing", "IntervalSeq", "action_charge", "center_of_mass",
    "decay_rate", "gamma_of_c", "growth_factor", "random_hypothesis_sequences", "solve_cylinder",
    "three_interval_bound",
    "MorseBottCandidate", "Nondegenerate", "ReebOrbit", "ReturnMap", "classify_orbit",
    "find_closed_orbit", "flow", "monodromy", "orbit_family_scan", "return_map",
    "AdaptedJ", "MorseBottSetup", "ThickeningChart", "build_thickening", "check_adapted",
    "make_adapted_J", "radial_identities", "reeb_of_thickening", "split_contact_distribution",
    "SpectralOperator", "assemble_operator", "asymptotic_operator", "gap_inequality_check", "spectrum",
]

__version__ = "0.1.0"
