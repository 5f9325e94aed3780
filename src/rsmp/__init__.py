"""Relaxed stochastic optimal control toolkit.

Forward Monte Carlo simulation of controlled (jump-)diffusions, backward
least-squares regression for the adjoint processes, Hamiltonian-based
conditional-gradient optimization over measure-valued controls, and
chattering realization of relaxed optima by rapidly switching point controls.
"""

from .adjoint import (
    AdjointEnsemble,
    BasisSpec,
    adjoint_pairing,
    duality_gap,
    solve_bsde,
)
from .bench import (
    BENCHMARK_NAMES,
    LQSpec,
    RiccatiSolution,
    benchmark_grid,
    benchmark_lq_spec,
    benchmark_partition,
    best_regular_open_loop,
    describe,
    lq_problem,
    lq_riccati_oracle,
    make_benchmark,
    nonconvex_weight_oracle,
)
from .container import paths_to_csv
from .control import (
    OBSERVATION_FEEDBACK,
    OPEN_LOOP,
    STATE_FEEDBACK,
    CellPartition,
    ControlGrid,
    ControlReport,
    RegularControl,
    RelaxedControl,
    constant_control,
    dirac_embed,
    mix,
    pair,
    refine_steps,
    validate,
)
from .errors import (
    BlowUp,
    DomainError,
    MissingPaths,
    NonFiniteCoefficient,
    NonPSD,
    RsmpError,
    ShapeMismatch,
    SingularRegression,
    UnknownBenchmark,
    ValueOffGrid,
)
from .forward import (
    NoiseEnsemble,
    PathEnsemble,
    cost,
    pathwise_cost,
    sample_noise,
    simulate,
)
from .problem import (
    GaussianInitial,
    JumpSpec,
    Problem,
    Separable,
    fd_gradient,
)
from .smp import (
    HamiltonianField,
    IterateRecord,
    OptimizationResult,
    OptimizeParams,
    hamiltonian,
    hamiltonian_field,
    optimize,
    pointwise_argmin,
    realize_regular,
    smp_gap,
)
from .variation import VariationEnsemble, gateaux, response_functional, simulate_variational

__version__ = "0.1.0"
