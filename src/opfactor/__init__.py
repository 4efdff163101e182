"""Ordered-exponential factorizations of {1, x^2, x d/dx, d^2/dx^2} generators.

Closed-form and ODE-integrated product coefficients (`algebra`), factor chains
acting on sampled wavefunctions (`grid`), a truncated number-basis matrix
oracle (`fock`), closed-form reference states (`states`), and the verification
suites behind the command line (`checks`, `cli`).  The API is those modules:
import each name from the module that defines it.
"""
__version__ = "0.1.0"
