"""g2flow: a numerical laboratory for cohomogeneity-one torsion-free G2-structure ODEs."""

from .errors import (
    BracketError,
    ClosureError,
    ConstraintError,
    ConvergenceError,
    DomainError,
    G2FlowError,
    NonAnalyticError,
    RegionExitError,
    ResonanceError,
    SeedError,
    StiffnessError,
)
from .invariants import (
    U1State,
    eval_F,
    eval_lambda,
    hamiltonian,
    mean_curvature,
    su2cubed_curve_residual,
)
from .flow import (
    Budget,
    StopEvent,
    Trajectory,
    integrate,
)
from .params import ModelParams
from .classify import (
    ClassifyBudget,
    Verdict,
    chamber_membership,
    classify_trajectory,
    extract_alc_ell,
)
from .seeds import (
    NU0,
    NUINF,
    SeedSpec,
    SeriesSolution,
    cone_state,
    cs_linearization_eigen,
    seed_ac_end,
    seed_cs_end,
    seed_delta_su2,
    seed_kmn,
    seed_su2_factor,
    solve_singular_ivp,
)
from .shooter import (
    GammaCurve,
    ShootResult,
    closure_extract_beta,
    extend_ac_backward,
    find_beta_ac,
    find_c_ac,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
