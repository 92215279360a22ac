"""Bloch-vector geometry of N x N density matrices.

Generalized Gell-Mann bases, density-matrix/Bloch-vector conversion,
stratification of boundary states by concentric spheres, per-direction
admissible Bloch lengths, antipodal boundary states, and seedable
Monte-Carlo samplers for verifying all of the above.
"""

from types import ModuleType as _ModuleType

from .antipode import (
    AntipodeReport,
    antipodal_family,
    antipodal_state,
    antipode_of_boundary,
    max_antipodal_length,
)
from .basis import BasisSet, ValidationReport, Violation, build_basis, expand, verify_basis
from .direction import (
    DirectionReport,
    direction_report,
    direction_reports,
    directional_matrix,
    directional_matrix_of_boundary,
    extremal_spectra,
    state_along,
)
from .errors import BlochGeometryError, DomainError, NumericError
from .sampling import (
    SamplerConfig,
    sample_bloch_in_ball,
    sample_direction,
    sample_state,
    sample_states,
    sample_unit_sum_tuple,
)
from .states import (
    DEFAULT_ZERO_TOL,
    Spectrum,
    StateClass,
    StateKind,
    check_density,
    check_hermitian,
    classify,
    from_bloch,
    maximally_mixed,
    purity,
    spectrum,
    to_bloch,
)
from .stratification import (
    HarrimanResult,
    StratumReport,
    boundary_state,
    distance_to_max,
    harriman_check,
    harriman_checks,
    stratum_radius,
    stratum_report,
    stratum_reports,
)

__version__ = "0.2.0"

# the public names are the ones imported above, listed once
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
