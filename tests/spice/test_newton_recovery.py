"""Tests for the Newton recovery ladder and failure metadata."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConvergenceError, RecoveredWarning
from repro.spice.newton import NewtonOptions, NewtonRecovery, solve_newton

pytestmark = pytest.mark.tier1


def fixed_point(g):
    """Assembler for the 1-D fixed-point iteration ``x -> g(x)``."""
    def assemble(x):
        return np.eye(1), np.array([g(float(x[0]))])
    return assemble


def marching(target, stride=1.0):
    """A map that walks toward ``target`` one ``stride`` per iteration.

    Needs about ``|x0 - target| / stride`` iterations — more than the
    default budget from a far start, so the plain solve fails but the
    recovery ladder's boosted budget succeeds.
    """
    def g(x):
        step = min(stride, abs(x - target))
        return x - np.sign(x - target) * step
    return fixed_point(g)


def two_zone(target):
    """Contracts within 2 of ``target``, expands outside.

    The plain solve (and tighter damping) diverges from a far start;
    only ramping the 'bias' — the source-stepping rung — walks the
    solution in.
    """
    def g(x):
        distance = x - target
        factor = 0.5 if abs(distance) < 2.0 else 1.5
        return target + factor * distance
    return fixed_point(g)


def singular(x):
    return np.zeros((1, 1)), np.zeros(1)


class TestFailureMetadata:
    def test_budget_exhaustion_carries_residual(self):
        with pytest.raises(ConvergenceError) as excinfo:
            solve_newton(two_zone(10.0), np.zeros(1),
                         NewtonOptions(max_iterations=8))
        assert excinfo.value.iterations == 8
        assert excinfo.value.residual is not None
        assert np.isfinite(excinfo.value.residual)

    def test_singular_matrix_after_progress_carries_residual(self):
        # One good iteration, then a singular system: the error must
        # still report the last known change, not residual=None.
        calls = {"n": 0}

        def assemble(x):
            calls["n"] += 1
            if calls["n"] == 1:
                return np.eye(1), np.array([5.0])
            return singular(x)

        with pytest.raises(ConvergenceError) as excinfo:
            solve_newton(assemble, np.zeros(1))
        assert excinfo.value.residual is not None
        assert "last change" in str(excinfo.value)

    def test_immediate_singular_matrix_has_no_residual(self):
        with pytest.raises(ConvergenceError) as excinfo:
            solve_newton(singular, np.zeros(1))
        assert excinfo.value.iterations == 0
        assert excinfo.value.residual is None


class TestRecoveryLadder:
    def test_no_recover_keeps_fail_fast(self):
        with pytest.raises(ConvergenceError):
            solve_newton(marching(0.0), np.array([100.0]),
                         NewtonOptions(max_iterations=30))

    def test_damping_rung_rescues_with_boosted_budget(self):
        assemble = marching(0.0)
        options = NewtonOptions(max_iterations=30)
        with pytest.warns(RecoveredWarning) as caught:
            x = solve_newton(assemble, np.array([100.0]), options,
                             recover=NewtonRecovery(iteration_boost=5))
        assert abs(float(x[0])) < 1e-6
        assert any(w.message.stage.startswith("damping")
                   for w in caught)

    def test_source_stepping_rung(self):
        target = 10.0

        def scaled(scale):
            return two_zone(scale * target)

        recover = NewtonRecovery(damping_ladder=(0.1,),
                                 source_stepping=scaled, source_steps=8)
        with pytest.warns(RecoveredWarning) as caught:
            x = solve_newton(two_zone(target), np.zeros(1),
                             NewtonOptions(max_iterations=25),
                             recover=recover)
        assert abs(float(x[0]) - target) < 1e-4
        assert any(w.message.stage == "source stepping" for w in caught)

    def test_exhausted_ladder_reraises_first_error(self):
        recover = NewtonRecovery(damping_ladder=(0.1,))
        with pytest.raises(ConvergenceError) as excinfo:
            solve_newton(singular, np.zeros(1), recover=recover)
        assert "singular" in str(excinfo.value)

    def test_warnings_suppressible(self):
        import warnings

        recover = NewtonRecovery(iteration_boost=5, warn=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_newton(marching(0.0), np.array([100.0]),
                         NewtonOptions(max_iterations=30), recover=recover)


class TestTransientStallMetadata:
    def test_stall_error_carries_newton_metadata(self):
        # A genuine transient whose every Newton solve is doomed (zero
        # iteration budget): the stall error must be a ConvergenceError
        # that still carries the solver's iteration/residual context.
        from repro.spice.circuit import Circuit
        from repro.spice.elements import Capacitor, Resistor, VoltageSource
        from repro.spice.sources import DC
        from repro.spice.transient import TransientOptions, simulate_transient

        circuit = Circuit("rc")
        VoltageSource("V1", circuit, "in", "0", DC(1.0))
        Resistor("R1", circuit, "in", "out", 1e3)
        Capacitor("C1", circuit, "out", "0", 1e-9)
        options = TransientOptions(
            max_halvings=1, newton=NewtonOptions(max_iterations=0))
        with pytest.raises(ConvergenceError) as excinfo:
            simulate_transient(circuit, 1e-6, 1e-7, options=options)
        assert "stalled" in str(excinfo.value)
        assert excinfo.value.iterations == 0
