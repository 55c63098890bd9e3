"""Paper §I-B, observation 2: the pessimism of stationary RTN analysis.

"From measurement data, it is well-known that stationary RTN analysis
harbours considerable pessimism (the difference between predicted and
observed noise power is sometimes as high as 15 dB)" — the paper's
motivation for non-stationary analysis, rooted in refs [2] (Kolhatkar,
cyclo-stationary RTS) and [3] (Tian & El Gamal, switched MOSFETs).

Mechanism, reproduced here: a stationary analysis assumes the trap sits
at its ON-bias statistics forever.  In a switched circuit the device
spends part of each cycle OFF, where the trap empties (emission
dominates at low gate bias) and carries no current; every OFF phase
*resets* the trap, so the slow occupancy correlations behind the
low-frequency Lorentzian plateau never build up.  The measured
low-frequency noise power falls below the stationary prediction by an
amount that grows as the ON duty shrinks — reaching the paper's
"as high as 15 dB" at 25% duty.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import compute_welch_psd
from repro.core.report import format_table, write_csv
from repro.devices.technology import TECH_90NM
from repro.markov.analytic import lorentzian_psd
from repro.markov.propensity import SampledTwoStatePropensity
from repro.markov.uniformization import simulate_trap
from repro.traps.band import crossing_energy
from repro.traps.propensity import propensity_sum, rates_from_bias
from repro.traps.trap import Trap

#: ON/OFF gate biases of the switched device.
V_ON = 0.6
V_OFF = 0.1
#: ON-duty sweep (1.0 = the stationary reference).
DUTIES = (0.75, 0.5, 0.25)
N_SAMPLES = 2 ** 19


def _low_frequency_power(trap: Trap, duty: float, switch_frequency: float,
                         t_stop: float, rng) -> float:
    """Mean PSD below corner/20 of the gated, switched-bias RTN."""
    tech = TECH_90NM
    times = np.linspace(0.0, t_stop, N_SAMPLES)
    period = 1.0 / switch_frequency
    on_phase = (times % period) < duty * period
    v_gs = np.where(on_phase, V_ON, V_OFF)
    lam_c, lam_e = rates_from_bias(v_gs, trap, tech)
    propensity = SampledTwoStatePropensity(times=times, capture_values=lam_c, emission_values=lam_e)
    trace = simulate_trap(propensity, 0.0, t_stop, rng)
    current = trace.sample(times).astype(float) * on_phase
    dt = t_stop / (N_SAMPLES - 1)
    freq, psd = compute_welch_psd(current, dt, nperseg=8192)
    corner = propensity_sum(trap, tech)
    return float(np.mean(psd[freq < corner / 20.0]))


def test_obs2_stationary_analysis_is_pessimistic(benchmark, rng, out_dir):
    tech = TECH_90NM
    y = 1.35e-9
    trap = Trap(y_tr=y, e_tr=crossing_energy(V_ON, y, tech))
    total = propensity_sum(trap, tech)
    lam_c_on, lam_e_on = rates_from_bias(V_ON, trap, tech)
    t_stop = 4000.0 / total

    def run():
        # Stationary reference: duty 1 (the % period never leaves ON).
        reference = _low_frequency_power(trap, 1.0, 1e-9, t_stop, rng)
        sweep = [(duty, _low_frequency_power(trap, duty, 10.0 * total,
                                             t_stop, rng))
                 for duty in DUTIES]
        return reference, sweep

    reference, sweep = benchmark.pedantic(run, rounds=1, iterations=1)
    pessimism = {duty: 10.0 * np.log10(reference / power)
                 for duty, power in sweep}
    print()
    print(format_table(
        ["ON duty", "measured LF power [1/Hz]",
         "stationary pessimism [dB]"],
        [[f"{duty:.2f}", f"{power:.3e}", f"{pessimism[duty]:.1f}"]
         for duty, power in sweep],
        title="Obs. 2: switched-bias noise vs stationary analysis"))
    write_csv(f"{out_dir}/obs2_pessimism.csv",
              ["duty", "lf_power", "pessimism_db"],
              [[duty, power, pessimism[duty]] for duty, power in sweep])

    # The always-on reference sits on the analytic Lorentzian plateau.
    plateau = lorentzian_psd(0.0, lam_c_on, lam_e_on, 1.0)
    assert reference == pytest.approx(plateau, rel=0.35)
    # Pessimism grows as the device spends less time ON...
    ordered = [pessimism[d] for d in DUTIES]
    assert ordered == sorted(ordered)
    # ...is already real at 75% duty, and reaches the paper's
    # "as high as 15 dB" territory by 25% duty.
    assert pessimism[0.75] > 1.5
    assert pessimism[0.25] > 12.0
