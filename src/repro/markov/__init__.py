"""Stochastic-simulation kernels for two-state Markov chains.

This package implements the computational core of SAMURAI (paper §III):

- :mod:`repro.markov.propensity` — time-varying capture/emission
  propensity abstractions (the ``lambda_c(t)``/``lambda_e(t)`` of paper
  Eqs. 1-2, decoupled from trap physics so the kernels are reusable).
- :mod:`repro.markov.occupancy` — the :class:`OccupancyTrace` produced by
  every kernel: a piecewise-constant 0/1 trajectory over time; the
  population kernels return a whole population's as one flat
  :class:`PopulationOccupancy`.
- :mod:`repro.markov.uniformization` — paper Algorithm 1: exact
  simulation of a time-inhomogeneous two-state chain by uniformisation
  (thinning of a dominating Poisson process).
- :mod:`repro.markov.gillespie` — Gillespie's stochastic simulation
  algorithm for *constant* rates (the stationary baseline the paper
  extends).
- :mod:`repro.markov.piecewise` — an exact solver for piecewise-constant
  rates, used as an independent cross-check of uniformisation.
- :mod:`repro.markov.analytic` — closed-form occupancy probabilities,
  stationary autocorrelation and Lorentzian spectral densities.
"""

from .analytic import (
    lorentzian_psd,
    occupancy_probability,
    occupancy_probability_constant,
    stationary_autocorrelation,
    stationary_autocovariance,
    stationary_occupancy,
)
from .batch import (
    BatchPropensity,
    BatchUniformizationStats,
    simulate_traps_batch,
    simulate_traps_scalar,
)
from .gillespie import simulate_constant
from .occupancy import OccupancyTrace, PopulationOccupancy, number_filled
from .piecewise import simulate_piecewise
from .propensity import (
    CallableTwoStatePropensity,
    ConstantTwoStatePropensity,
    SampledTwoStatePropensity,
    TwoStatePropensity,
    make_propensity,
)
from .uniformization import UniformizationStats, simulate_trap, simulate_trap_detailed

__all__ = [
    "BatchPropensity",
    "BatchUniformizationStats",
    "CallableTwoStatePropensity",
    "ConstantTwoStatePropensity",
    "OccupancyTrace",
    "PopulationOccupancy",
    "SampledTwoStatePropensity",
    "TwoStatePropensity",
    "UniformizationStats",
    "lorentzian_psd",
    "make_propensity",
    "number_filled",
    "occupancy_probability",
    "occupancy_probability_constant",
    "simulate_constant",
    "simulate_piecewise",
    "simulate_trap",
    "simulate_trap_detailed",
    "simulate_traps_batch",
    "simulate_traps_scalar",
    "stationary_autocorrelation",
    "stationary_autocovariance",
    "stationary_occupancy",
]
