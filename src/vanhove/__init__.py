"""Self-induced decoherence toolkit for continuous-spectrum Hamiltonians.

Kernel-represented states and observables over a discretized energy
continuum, unitary dephasing and its weak limit, per-shell pointer bases,
phase-space (Wigner) images with mollified shell densities, and a
Robertson-Walker minisuperspace model resolved into weighted classical
trajectories.  See the ``vanhove`` CLI for the experiment harness.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateSupportError,
    DomainMismatchError,
    GridMismatchError,
    IncompatibleBasisError,
    InvalidPotentialError,
    InvalidShellError,
    NotEquilibratedError,
    VanHoveError,
)
from .kernels import (
    EnergyGrid,
    Observable,
    RegularKernel,
    SingularKernel,
    StateFunctional,
    ValidationReport,
    hamiltonian_observable,
    identity_observable,
    make_grid,
    pair,
    validate_state,
    zero_regular,
    zero_singular,
)
from .descriptors import (
    observable_from_descriptors,
    regular_from_descriptor,
    singular_from_descriptor,
    state_from_descriptors,
)
from .evolution import (
    DecayProfile,
    decay_profile,
    decoherence_time,
    evolve,
    expectation,
    fit_gaussian_envelope,
    recurrence_time,
    weak_limit,
)
from .pointer import PointerBasis, ShellState, diagonalize_shell, pointer_state
from .wigner import (
    ClassicalDensity,
    MollifierPolicy,
    PhaseField,
    PhaseGrid,
    classical_expectation,
    classical_state_density,
    liouville_residual,
    mass_within,
    multi_invariant_density,
    read_phase_field,
    shell_density,
    wigner_singular,
    write_phase_field,
)
from .config import config_hash, load_config
from .harness import RunResult, run_experiment
from .cosmology import (
    CosmoState,
    FockBasis,
    ModeSet,
    Potential,
    ScaleFactorSolution,
    TrajectoryEnsemble,
    constant_potential,
    cosmo_expectation,
    cosmo_weak_limit,
    diagonalize_remaining,
    enumerate_fock,
    quadratic_cap_potential,
    random_cosmo_state,
    solve_scale_factor,
    sqrt_prime_modes,
    table_potential,
    trajectory_ensemble,
    uniform_cosmo_state,
)
