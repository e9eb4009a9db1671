"""Bayesian quantum state and process tomography with sequential Monte
Carlo, constructive prior distributions, and diffusive state tracking."""

from . import cli, design, harness, likelihood, priors, qobj, randq, smc

__all__ = [
    "cli",
    "design",
    "harness",
    "likelihood",
    "priors",
    "qobj",
    "randq",
    "smc",
]

__version__ = "0.1.0"
