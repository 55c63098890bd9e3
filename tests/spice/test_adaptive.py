"""Tests for the LTE-controlled adaptive transient engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import NetlistError, SimulationError
from repro.spice.adaptive import AdaptiveOptions, simulate_transient_adaptive
from repro.spice.circuit import Circuit
from repro.spice.elements import Capacitor, Resistor, VoltageSource
from repro.spice.sources import DC, PULSE

pytestmark = pytest.mark.tier1


def rc_circuit(tau_parts=(1e3, 1e-9)) -> Circuit:
    r, c_val = tau_parts
    c = Circuit("rc")
    VoltageSource("V1", c, "in", "0", DC(1.0))
    Resistor("R1", c, "in", "out", r)
    Capacitor("C1", c, "out", "0", c_val)
    return c


class TestInterface:
    def test_rejects_bad_windows(self, deadline):
        c = rc_circuit()
        with pytest.raises(SimulationError):
            simulate_transient_adaptive(c, -1.0, 1e-9)
        with pytest.raises(SimulationError):
            simulate_transient_adaptive(c, 1e-6, 2e-6)
        nan, inf = float("nan"), float("inf")
        for t_stop, dt_initial in ((1e-6, nan), (nan, 1e-9), (inf, 1e-9),
                                   (1e-6, inf)):
            with deadline(10), pytest.raises(SimulationError,
                                             match="finite|lie"):
                simulate_transient_adaptive(c, t_stop, dt_initial)

    def test_unknown_initial_node_rejected_not_created(self):
        c = rc_circuit()
        names = list(c.node_names)
        with pytest.raises(NetlistError, match="typo"):
            simulate_transient_adaptive(c, 1e-7, 1e-8,
                                        initial_voltages={"typo": 5.0})
        assert c.node_names == names

    def test_options_validation(self):
        with pytest.raises(SimulationError):
            AdaptiveOptions(lte_abstol=0.0)
        with pytest.raises(SimulationError):
            AdaptiveOptions(growth_limit=1.0)
        with pytest.raises(SimulationError):
            AdaptiveOptions(safety=0.0)


class TestAccuracy:
    def test_rc_charge_accuracy(self):
        tau = 1e-6
        wf = simulate_transient_adaptive(rc_circuit(), 5 * tau, tau / 50)
        exact = 1.0 - np.exp(-wf.times / tau)
        assert np.max(np.abs(wf["out"] - exact)) < 2e-3

    def test_covers_window(self):
        wf = simulate_transient_adaptive(rc_circuit(), 1e-6, 1e-8)
        assert wf.times[0] == 0.0
        assert wf.times[-1] == pytest.approx(1e-6, rel=1e-9)

    def test_grid_is_strictly_increasing(self):
        wf = simulate_transient_adaptive(rc_circuit(), 1e-6, 1e-8)
        assert np.all(np.diff(wf.times) > 0.0)


class TestStepControl:
    def test_steps_grow_in_quiescence(self):
        """After the RC settles, the controller opens the step up."""
        tau = 1e-6
        wf = simulate_transient_adaptive(
            rc_circuit(), 20 * tau, tau / 50,
            options=AdaptiveOptions(max_step=2e-6))
        steps = np.diff(wf.times)
        early = steps[wf.times[:-1] < tau].mean()
        late = steps[wf.times[:-1] > 10 * tau].mean()
        assert late > 5 * early

    def test_edges_refine_the_step(self):
        """A pulse edge mid-run forces the step back down."""
        c = Circuit("pulse")
        VoltageSource("V1", c, "in", "0",
                      PULSE(0.0, 1.0, delay=5e-6, rise=5e-9, fall=5e-9,
                            width=5e-6))
        Resistor("R1", c, "in", "out", 1e3)
        Capacitor("C1", c, "out", "0", 1e-9)
        wf = simulate_transient_adaptive(c, 1.5e-5, 1e-8)
        steps = np.diff(wf.times)
        centres = wf.times[:-1]
        quiet = steps[(centres > 2e-6) & (centres < 4.5e-6)]
        busy = steps[(centres > 5e-6) & (centres < 6e-6)]
        assert busy.mean() < quiet.mean()
        # And the edge is actually resolved.
        exact_tail = 1.0 - np.exp(-(wf.times - 5e-6) / 1e-6)
        mask = (wf.times > 5.05e-6) & (wf.times < 10e-6)
        assert np.max(np.abs(wf["out"][mask] - exact_tail[mask])) < 5e-3

    def test_fewer_points_than_fixed_step_at_same_accuracy(self):
        """The controller beats a fixed grid on point count for a decay
        followed by a long quiet tail."""
        from repro.spice.transient import simulate_transient
        tau = 1e-6
        t_stop = 30 * tau
        adaptive = simulate_transient_adaptive(rc_circuit(), t_stop,
                                               tau / 50)
        fixed = simulate_transient(rc_circuit(), t_stop, tau / 50)
        exact_a = 1.0 - np.exp(-adaptive.times / tau)
        err_a = np.max(np.abs(adaptive["out"] - exact_a))
        assert err_a < 2e-3
        assert adaptive.times.size < fixed.times.size / 3
