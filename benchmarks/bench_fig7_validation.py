"""Paper Fig. 7: validation against the stationary closed forms.

Three sweeps, as in the paper's §IV-A: hold two of {V_gs, E_tr, y_tr}
fixed and sweep the third.  For each configuration a stationary trace is
generated with Algorithm 1 and compared against the analytical results
in both domains:

- time domain (plots a-c): the autocorrelation's zero-lag value and its
  exponential decay rate must match
  ``R(0) = dI^2 p1`` and ``lambda_c + lambda_e``;
- frequency domain (plots d-f): the Welch spectrum's Lorentzian plateau
  and corner frequency must match the closed form, and the RTN plateau
  must sit far above the thermal-noise floor ``(8/3) kT gm`` at low
  frequency (the paper's floor overlay).
"""

from __future__ import annotations

import numpy as np

from repro.api import compute_autocovariance, compute_welch_psd, fit_lorentzian
from repro.core.report import format_table, write_csv
from repro.devices.ekv import saturation_current, transconductance
from repro.devices.mosfet import MosfetParams
from repro.devices.noise import thermal_noise_psd
from repro.devices.technology import TECH_90NM
from repro.markov.analytic import (
    lorentzian_corner_frequency,
    lorentzian_psd,
    stationary_autocorrelation,
    stationary_occupancy,
)
from repro.rtn.current import VanDerZielModel
from repro.rtn.generator import generate_constant_bias_rtn
from repro.traps.band import crossing_energy
from repro.traps.propensity import rates_from_bias
from repro.traps.trap import Trap

TECH = TECH_90NM
DEVICE = MosfetParams.nominal(TECH, "n")
# 2^19 grid samples keep ~25 samples inside even the short dwell of the
# most asymmetric sweep point; coarser grids miss short occupancy events
# and bias the spectrum estimate.
N_SAMPLES = 2 ** 19
DWELLS = 4000.0  # expected transitions per trace

#: Sweep definitions: (label, [(v_gs, trap), ...]).  The base trap
#: crosses the Fermi level at 0.55 V from a depth of 1.4 nm.
BASE_Y = 1.4e-9
BASE_V = 0.55


def base_trap(delta_e: float = 0.0, y_tr: float = BASE_Y) -> Trap:
    return Trap(y_tr=y_tr,
                e_tr=crossing_energy(BASE_V, y_tr, TECH) + delta_e)


def sweep_configurations():
    sweeps = {
        "a/d: sweep V_gs": [(v, base_trap()) for v in (0.50, 0.55, 0.60)],
        "b/e: sweep E_tr": [(BASE_V, base_trap(delta_e=d))
                            for d in (-0.03, 0.0, 0.03)],
        "c/f: sweep y_tr": [(BASE_V, base_trap(y_tr=y))
                            for y in (1.3e-9, 1.4e-9, 1.5e-9)],
    }
    return sweeps


def validate_one(v_gs: float, trap: Trap, rng) -> dict:
    """Generate one stationary trace and measure both-domain errors."""
    lam_c, lam_e = rates_from_bias(v_gs, trap, TECH)
    total = lam_c + lam_e
    i_d = float(saturation_current(DEVICE, v_gs))
    amplitude = float(np.asarray(
        VanDerZielModel().amplitude(DEVICE, v_gs, i_d)))
    t_stop = DWELLS / min(lam_c, lam_e)
    result = generate_constant_bias_rtn(DEVICE, [trap], v_gs, i_d, t_stop,
                                        rng, n_samples=N_SAMPLES)
    dt = t_stop / (N_SAMPLES - 1)
    samples = result.trace.current

    # Time domain: R(0) and the covariance decay rate.
    max_lag = max(16, min(int(3.0 / (total * dt)), N_SAMPLES // 8))
    lags, cov = compute_autocovariance(samples, dt, max_lag=max_lag)
    r0_est = float(np.mean(samples ** 2))
    r0_true = stationary_autocorrelation(0.0, lam_c, lam_e, amplitude)
    positive = cov > 0.05 * cov[0]
    fit = np.polyfit(lags[positive], np.log(cov[positive]), 1)
    decay_est = -fit[0]

    # Frequency domain: Lorentzian plateau and corner.
    freq, psd = compute_welch_psd(samples, dt, nperseg=8192)
    corner_true = lorentzian_corner_frequency(lam_c, lam_e)
    band = (freq < 20 * corner_true)
    lorentz = fit_lorentzian(freq[band], psd[band])
    plateau_true = lorentzian_psd(0.0, lam_c, lam_e, amplitude)
    gm = float(transconductance(DEVICE, v_gs, TECH.vdd))
    floor = thermal_noise_psd(gm, TECH.temperature)

    return {
        "v_gs": v_gs, "y_tr": trap.y_tr, "e_tr": trap.e_tr,
        "occupancy": stationary_occupancy(lam_c, lam_e),
        "r0_err": abs(r0_est - r0_true) / r0_true,
        "decay_err": abs(decay_est - total) / total,
        "plateau_err": abs(lorentz.parameters["plateau"] - plateau_true)
        / plateau_true,
        "corner_err": abs(lorentz.parameters["corner"] - corner_true)
        / corner_true,
        "rtn_over_thermal": plateau_true / floor,
    }


def test_fig7_validation_sweeps(benchmark, rng, out_dir):
    def run():
        rows = []
        for label, configs in sweep_configurations().items():
            for v_gs, trap in configs:
                record = validate_one(v_gs, trap, rng)
                record["sweep"] = label
                rows.append(record)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    headers = ["sweep", "V_gs", "occup.", "R(0) err", "decay err",
               "plateau err", "corner err", "RTN/thermal @DC"]
    table = [[r["sweep"], f"{r['v_gs']:.2f}", f"{r['occupancy']:.2f}",
              f"{r['r0_err']:.3f}", f"{r['decay_err']:.3f}",
              f"{r['plateau_err']:.3f}", f"{r['corner_err']:.3f}",
              f"{r['rtn_over_thermal']:.2e}"] for r in rows]
    print()
    print(format_table(headers, table,
                       title="Fig. 7: SAMURAI vs analytical (rel. errors)"))
    write_csv(f"{out_dir}/fig7_validation.csv", list(rows[0]),
              [list(r.values()) for r in rows])

    # The paper's claim: close agreement in both domains, everywhere.
    for record in rows:
        context = f"{record['sweep']} @ V_gs={record['v_gs']}"
        assert record["r0_err"] < 0.15, f"R(0) off in {context}"
        assert record["decay_err"] < 0.15, f"decay rate off in {context}"
        assert record["plateau_err"] < 0.30, f"plateau off in {context}"
        assert record["corner_err"] < 0.30, f"corner off in {context}"
        # RTN dwarfs thermal noise at low frequency for these traps.
        assert record["rtn_over_thermal"] > 1e2, f"no RTN excess in {context}"
