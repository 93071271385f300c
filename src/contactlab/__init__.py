"""contactlab: numerical experiments in contact Hamiltonian geometry.

Chart-level contact algebra, Reeb dynamics and return maps, model-
neighborhood (thickening) constructions, spectral gaps of asymptotic
operators along orbits, and the three-interval exponential-decay machinery
on model cylinders, tied together by a scenario-driven CLI.
"""

from .core import (
    ContactChart,
    PerturbationData,
    chart_diagnostics,
    contact_volume,
    flat_dual,
    perturbed_projection,
    perturbed_reeb,
    project_xi,
    reeb_field,
    reeb_solve,
    sharp_dual,
    triad_gradient,
    xi_frame,
)
from .decay import (
    ActionCharge,
    CylinderField,
    FlatTorusQ,
    Forcing,
    IntervalSeq,
    RotatingTubeQ,
    action_charge,
    center_of_mass,
    decay_rate,
    gamma_of_c,
    growth_factor,
    mean_zero_check,
    solve_cylinder,
    three_interval_bound,
)
from .dynamics import (
    MorseBottCandidate,
    Nondegenerate,
    ReebOrbit,
    ReturnMap,
    classify_orbit,
    find_closed_orbit,
    flow,
    monodromy,
    orbit_family_scan,
    return_map,
)
from .normalform import (
    AdaptedJ,
    MorseBottSetup,
    ThickeningChart,
    build_thickening,
    check_adapted,
    make_adapted_J,
    radial_identities,
    reeb_of_thickening,
    split_contact_distribution,
    validate_setup,
)
from .spectral import (
    HessianData,
    SpectralOperator,
    assemble_operator,
    build_operator,
    gap_inequality_check,
    linearized_orbit_operator,
    spectrum,
)

__version__ = "0.1.0"
