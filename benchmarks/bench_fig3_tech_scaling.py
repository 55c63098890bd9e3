"""Paper Fig. 3: device RTN spectra vs the analytical 1/f fit.

25 device instances are sampled per technology (as in the paper) and
their stationary drain-current noise spectra built as superpositions of
per-trap Lorentzians (paper Eqs. 1-3 at fixed bias).  Claims:

1. for the old node the analytical 1/f fit is good (log-RMS misfit well
   under a quarter decade);
2. for the deeply scaled node the fit fails (misfit an order of
   magnitude larger) because only a handful of traps are active;
3. a Monte-Carlo trace simulated with Algorithm 1 agrees with the
   analytic Lorentzian construction for a single sampled trap.
"""

from __future__ import annotations

import numpy as np

from repro.api import compute_welch_psd, fit_one_over_f
from repro.core.report import format_table, write_csv
from repro.devices.mosfet import MosfetParams
from repro.devices.technology import TECH_22NM, TECH_180NM
from repro.devices.ekv import saturation_current
from repro.markov.analytic import lorentzian_psd, superposed_lorentzian_psd
from repro.rtn.current import VanDerZielModel
from repro.rtn.generator import generate_constant_bias_rtn
from repro.traps.profiling import TrapProfiler
from repro.traps.propensity import propensity_sum, rates_from_bias

N_DEVICES = 25
FREQ = np.logspace(1.0, 7.0, 120)


def sample_device_spectrum(tech, rng):
    """Sample one device and return (n_traps, analytic PSD)."""
    device = MosfetParams.nominal(tech, "n")
    traps = TrapProfiler(tech).sample(rng, device.width, device.length)
    v_gs = 0.6 * tech.vdd
    i_d = float(saturation_current(device, v_gs))
    amplitude = float(np.asarray(
        VanDerZielModel().amplitude(device, v_gs, i_d)))
    rates = [rates_from_bias(v_gs, trap, tech) for trap in traps]
    lam_c = np.array([r[0] for r in rates])
    lam_e = np.array([r[1] for r in rates])
    psd = superposed_lorentzian_psd(FREQ, lam_c, lam_e,
                                    np.full(len(traps), amplitude))
    return len(traps), psd


def node_fit_errors(tech, rng):
    counts, errors = [], []
    for _ in range(N_DEVICES):
        n_traps, psd = sample_device_spectrum(tech, rng)
        counts.append(n_traps)
        if np.all(psd > 0.0):
            errors.append(fit_one_over_f(FREQ, psd).log_rms)
    return counts, errors


def test_fig3_one_over_f_fit_quality(benchmark, rng, out_dir):
    def run():
        return {tech.name: node_fit_errors(tech, rng)
                for tech in (TECH_180NM, TECH_22NM)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    csv_rows = []
    for name, (counts, errors) in results.items():
        rows.append([name, f"{np.mean(counts):.1f}",
                     f"{np.median(errors):.3f}", f"{np.max(errors):.3f}"])
        for index, (count, error) in enumerate(zip(counts, errors)):
            csv_rows.append([name, index, count, error])
    headers = ["node", "mean traps", "median 1/f log-RMS",
               "worst 1/f log-RMS"]
    print()
    print(format_table(headers, rows, title="Fig. 3: 1/f fit quality"))
    write_csv(f"{out_dir}/fig3_fit_errors.csv",
              ["node", "device", "n_traps", "log_rms"], csv_rows)

    old_counts, old_errors = results["180nm"]
    new_counts, new_errors = results["22nm"]
    # Claim: hundreds of traps vs a handful.
    assert np.mean(old_counts) > 100 * max(np.mean(new_counts), 0.1)
    # Claim 1: good 1/f fit for the old node.
    assert np.median(old_errors) < 0.25
    # Claim 2: the fit fails for the scaled node, by a wide factor.
    assert np.median(new_errors) > 4 * np.median(old_errors)


def test_fig3_trace_vs_analytic_single_trap(benchmark, rng):
    """A simulated trace's Welch spectrum matches its trap's Lorentzian."""
    tech = TECH_22NM
    device = MosfetParams.nominal(tech, "n")
    # Cap the sampled propensity sum so the trace stays resolvable on an
    # affordable grid (the 1 nm oxide admits rates up to ~5e10 1/s).
    profiler = TrapProfiler(tech, max_rate=2e6)
    trap = profiler.sample_fixed_count(rng, 1)[0]
    v_gs = 0.6 * tech.vdd
    i_d = float(saturation_current(device, v_gs))
    total = propensity_sum(trap, tech)
    t_stop = 3000.0 / total

    def run():
        return generate_constant_bias_rtn(device, [trap], v_gs, i_d,
                                          t_stop, rng, n_samples=2 ** 17)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    dt = t_stop / (2 ** 17 - 1)
    freq, psd = compute_welch_psd(result.trace.current, dt, nperseg=8192)
    lam_c, lam_e = rates_from_bias(v_gs, trap, tech)
    amplitude = float(np.asarray(
        VanDerZielModel().amplitude(device, v_gs, i_d)))
    model = lorentzian_psd(freq, lam_c, lam_e, amplitude)
    corner = (lam_c + lam_e) / (2 * np.pi)
    band = (freq > corner / 10) & (freq < corner * 10) & (model > 0)
    ratio = np.median(psd[band] / model[band])
    assert 0.6 < ratio < 1.6, f"trace PSD off the Lorentzian by {ratio:.2f}x"
