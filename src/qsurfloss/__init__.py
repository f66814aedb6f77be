"""Interface participation ratios and dielectric-loss analysis for
superconducting-qubit capacitors.

The toolkit covers the full chain from 2D electrostatics of coplanar
capacitor cross sections, through thin-layer interface participation
ratios, to loss-tangent fits against measured, Purcell-subtracted qubit
quality factors.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    ConvergenceError,
    DegenerateFitError,
    FitFailureError,
    InvalidInputError,
    NumericalFailureError,
    QSurfLossError,
)
from .geometry import (
    SAPPHIRE_EPS_REL,
    CrossSection,
    Strip,
    interdigital_unit_cell,
    load_cross_section,
)
from .solver import (
    FieldSolution,
    reconstruct_gap_voltage,
    refine_until_converged,
    solution_to_csv,
    solve_cross_section,
)
from .participation import (
    DEFAULT_SM_SPEC,
    InterfaceRegion,
    InterfaceSpec,
    ParticipationSet,
    cutoff_sensitivity,
    participation_set,
    psm_width_sweep,
    write_sweep_csv,
)
from .lossmodel import (
    LossDataPoint,
    LossFitResult,
    LossModel,
    Weighting,
    fit_sm_only,
    fit_sm_plus_j,
    fit_sm_plus_q0,
    model_inverse_q,
    normalized_pr,
)
from .qubitfit import (
    DecayTrace,
    PurcellParams,
    T1Estimate,
    T1Statistics,
    fit_exponential,
    load_decay_trace,
    purcell_limit,
    purcell_subtract_q,
    purcell_subtract_t1,
    q_statistics_from_rounds,
    t1_statistics,
)
from .dataio import (
    DeviceRecord,
    bundled_device_table,
    group_for_fit,
    load_device_table,
    save_device_table,
)
from .pipeline import PipelineConfig, SweepConfig, run_pipeline

# the submodules that the imports above bind are not API names
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
