"""Executable model geometry: block quasi-metrics, solvable model spaces,
similarity algebra, conformal structures, conjugation pipelines, and
almost-translation kernel algorithms."""

from .errors import (
    ConvergenceError,
    DimensionMismatch,
    DomainError,
    InfiniteIndexSuspected,
    InputError,
    NotInKernel,
    NotInUniformSubgroup,
    SolvRigidError,
)
from .spectral import BlockPoint, SpectralData, random_row_blocks
from .quasimetric import (
    ChainEnergyEstimate,
    ChainGrid,
    chain_energy,
    dilate,
    distance,
    enumerate_chain_cost,
    estimate_qsim_constants,
)
from .funcexpr import (
    BlockVar,
    Const,
    FuncExpr,
    Osc,
    Scale,
    Sum,
)
from .nilpotent import (
    AlmostTranslation,
    ExactGenerator,
    ExactWord,
    OrbitCount,
    RootCertificate,
    approx_lth_root,
    default_probes,
    epsilon_bound,
    orbit_growth,
    oscillation,
    root_power_word,
)
from .mapalg import (
    ASimMap,
    Classification,
    FirstBlockAffineMap,
    RotationWitness,
    SimMap,
    classify,
    conjugate_almost_by_sim,
    height_hom,
    rotation_rigidity_witness,
    stretch_hom,
)
from .solvgroup import (
    SolvPoint,
    SolvSpec,
    boundary_of_height_isometry,
    inverse,
    multiply,
    pair_to_point,
    pair_to_point_bisect,
)
from .conformal import (
    CircumcenterResult,
    ConfField,
    act,
    circumcenter,
    conf_class,
    ddist,
    dilatation,
    invariant_structure,
    kdist,
    solve_circumcenter,
)
from .tukia import (
    GroupSample,
    NormalizedSample,
    PLHomeo,
    RadialReport,
    SupMeasure1D,
    conjugator_1d,
    normalize_stretch,
    radial_conjugator,
    sup_measure_1d,
    verify_conjugation,
)

__version__ = "0.1.0"
