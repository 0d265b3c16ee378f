"""Damping of the polariton soft mode in a cavity-coupled condensate."""

from .params import (
    ThermoParams, ConfigError, critical_coupling, default_params,
    momentum_grid,
)
from .meanfield import (
    MeanField, ConvergenceError, CriticalPointError,
    solve_normal_phase, solve_steady_state,
)
from .hamiltonian import ModelExpansion
from .bogoliubov import (
    GAMMA, OMEGA, ModeSet, DiagonalizationError, diagonalize_symplectic,
    soft_mode, symmetry_residuals, mirrored_modes,
)
from .coupling import (
    VertexSet, vertex_coefficients, landau_beliaev_couplings, pair_kernel,
    soft_mode_couplings, vw_connection_residual, v_reflection_residual,
    vertex_duality_residuals,
)
from .bath import (
    BathSpectrum, BathConstructionError, thermal_occupation,
    build_bath_spectrum,
)
from .response import (
    Response, BornMarkovResult, NumericsError, self_energy, build_response,
    phonon_bands, spectral_sum_rule, damping_sweep,
)
from .continuation import (
    MeromorphicModel, ComplexGrid, Pole, PoleSet, reconstruct_meromorphic,
    continue_green, march_cauchy_riemann,
    find_poles, companion_pole_candidates, pole_sweep,
)
from .fockcheck import coupling_residuals, oracle_residuals
from .csvio import read_table, write_json_lines, write_table

__version__ = "0.1.0"
