"""Ordered-exponential factorizations of {1, x^2, x d/dx, d^2/dx^2} generators.

Closed-form and ODE-integrated product coefficients (`algebra`), factor chains
acting on sampled wavefunctions (`grid`), a truncated number-basis matrix
oracle (`fock`), closed-form reference states (`states`), and the verification
suites behind the command line (`checks`, `cli`).
"""
from .algebra import (
    BlowUpError,
    CausticError,
    CoefficientTrajectory,
    FactorizationCoefficients,
    GeneratorCoefficients,
    SqueezeParameter,
    integrate_wei_norman,
    squeeze_factorization,
    squeeze_scale,
    time_displacement_factorization,
    wei_norman_final,
    wei_norman_rhs,
)
from .fock import (
    FockBasis,
    displacement_generator,
    factored_matrix,
    fock_to_position,
    generator_matrix,
    hermite_functions,
    ladder_matrices,
    position_to_fock,
    squeeze_generator,
    unitary_exponential,
    xp_matrices,
)
from .grid import (
    Dilation,
    Grid,
    LinearPhase,
    OperatorFactor,
    QuadraticPhase,
    Scalar,
    Shift,
    SpectralD2,
    WaveFunction,
    apply_chain,
    apply_dilation,
    apply_factor,
    apply_phase,
    apply_shift,
    apply_spectral_d2,
    displacement_factors,
    squeeze_factors,
    time_displacement_factors,
)
from .states import (
    EvenOddSpec,
    SqueezedStateSpec,
    box_mode_phase,
    coherent_evolved,
    coherent_state,
    psi0,
    psi_spm,
    psi_ss,
    rho_spm,
    rho_spm_integral,
)

__version__ = "0.1.0"
