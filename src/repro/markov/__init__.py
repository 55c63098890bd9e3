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
