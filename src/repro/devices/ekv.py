"""EKV-style all-region MOSFET compact model with analytic derivatives.

The paper uses BSIM-4 inside SpiceOPUS; we substitute the EKV long-channel
interpolation because it is smooth from weak to strong inversion (a hard
requirement both for Newton convergence in the circuit simulator and for
the trap physics, which evaluates device quantities across the full bias
swing of an SRAM write).

Core equations (bulk-referenced voltages, NMOS):

- pinch-off voltage  ``v_p = (v_gb - v_t0) / n``
- normalised forward/reverse levels ``x_f = (v_p - v_sb)/V_t``,
  ``x_r = (v_p - v_db)/V_t``
- interpolation function ``F(u) = ln^2(1 + e^{u/2})``
- drain current ``I_DS = I_S (F(x_f) - F(x_r))`` with the specific
  current ``I_S = 2 n mu C_ox (W/L) V_t^2``.

PMOS devices are handled by mirroring every terminal voltage about the
bulk and negating the current.  All functions are vectorised over the
terminal voltages.
"""

from __future__ import annotations

import numpy as np

from ..constants import thermal_voltage
from .mosfet import MosfetParams


def _softplus(x):
    """Numerically stable ``ln(1 + e^x)``."""
    return np.logaddexp(0.0, x)


def expit(x):
    """The logistic sigmoid ``1 / (1 + e^{-x})``, elementwise.

    Within 4 ulp of ``scipy.special.expit`` over the whole double range
    (0 below x = -709.78, where ``e^{-x}`` overflows, silently).
    ``exp`` runs on the fresh temporary ``-x``: NumPy's float64 ``exp``
    takes a SIMD or a libm path depending on its input's strides, and
    the two differ in the last bit, so a reversed or strided view would
    not give the bits of a contiguous call.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def interpolation_f(u):
    """The EKV interpolation function ``F(u) = ln^2(1 + e^{u/2})``.

    ``F(u) -> e^u`` in weak inversion (u << 0) and ``F(u) -> (u/2)^2``
    in strong inversion (u >> 0).
    """
    sp = _softplus(np.asarray(u, dtype=float) / 2.0)
    return sp * sp


def interpolation_f_prime(u):
    """Derivative ``dF/du = ln(1 + e^{u/2}) * sigmoid(u/2)``.

    With ``sp = ln(1 + e^{u/2})``, ``sigmoid(u/2) = 1 - e^{-sp}``, so
    ``F' = -sp * expm1(-sp)``: the formula :func:`core_derivatives` uses.
    """
    sp = _softplus(np.asarray(u, dtype=float) / 2.0)
    return -(sp * np.expm1(-sp))


def device_constants(params: MosfetParams) -> tuple:
    """Return ``(vt0, slope_factor, thermal_voltage, i_spec)`` of a device.

    These four numbers are all the EKV core reads from the parameters;
    :func:`core_derivatives` takes them as scalars or per-device arrays.
    """
    tech = params.technology
    return (params.vt0, tech.slope_factor,
            thermal_voltage(tech.temperature), params.i_spec)


def _core_levels(vt0, slope, v_t, v_gb, v_db, v_sb):
    """Return ``(x_f, x_r)`` for an NMOS-convention device."""
    v_p = (np.asarray(v_gb, dtype=float) - vt0) / slope
    x_f = (v_p - np.asarray(v_sb, dtype=float)) / v_t
    x_r = (v_p - np.asarray(v_db, dtype=float)) / v_t
    return x_f, x_r


def _core_current(params: MosfetParams, v_gb, v_db, v_sb):
    vt0, slope, v_t, i_s = device_constants(params)
    x_f, x_r = _core_levels(vt0, slope, v_t, v_gb, v_db, v_sb)
    return i_s * (interpolation_f(x_f) - interpolation_f(x_r))


def core_derivatives(vt0, slope, v_t, i_s, v_gb, v_db, v_sb):
    """Return ``(i, di/dv_gb, di/dv_db, di/dv_sb)`` for the NMOS core.

    The device constants (see :func:`device_constants`) are scalars or
    arrays that broadcast to the shape of the bulk-referenced voltages,
    which broadcast together; every operation is elementwise, so an
    array call gives each device the same bits as a scalar call.  The
    forward and reverse levels ``(x_f, x_r)`` are stacked on a leading
    axis, so they share one softplus and one ``expm1``: ``F = sp^2`` and
    ``-F' = sp * expm1(-sp)`` with ``sp = ln(1 + e^{x/2})``.  The
    temporaries are updated in place, which keeps the per-call cost of
    the extra negation at or below that of the former one-pass sigmoid.
    """
    v_p = (np.asarray(v_gb, dtype=float) - vt0) / slope
    terminals = (v_sb, v_db)
    if not getattr(v_sb, "shape", None) == getattr(v_db, "shape", None) \
            == v_p.shape:
        terminals = np.broadcast_arrays(v_sb, v_db, v_p)[:2]
    sp = v_p - np.array(terminals, dtype=float)
    sp /= v_t
    sp /= 2.0
    np.logaddexp(0.0, sp, out=sp)
    # expm1 runs on the fresh temporary -sp (see expit).
    neg_fp = -sp
    np.expm1(neg_fp, out=neg_fp)
    neg_fp *= sp
    f = sp
    f *= sp  # F = sp^2 in place: sp is not read again
    i = f[0] - f[1]
    i *= i_s
    di_dvg = neg_fp[1] - neg_fp[0]
    di_dvg *= i_s
    di_dvg /= slope * v_t
    # -(i_s F'_r / v_t) has the bits of i_s (-F'_r) / v_t: IEEE products,
    # quotients and differences are symmetric under negation.
    neg_fp *= i_s
    neg_fp /= v_t
    return i, di_dvg, -neg_fp[1], neg_fp[0]


def drain_current(params: MosfetParams, v_g, v_d, v_s, v_b=0.0):
    """Current into the drain terminal [A] at the given node voltages.

    Positive for an NMOS in normal operation (``v_d > v_s``); a PMOS in
    normal operation (``v_d < v_s``) returns a negative value, i.e. the
    conventional current flows source -> drain.
    """
    if params.is_nmos:
        return _core_current(params, np.asarray(v_g) - v_b,
                             np.asarray(v_d) - v_b, np.asarray(v_s) - v_b)
    return -_core_current(params, v_b - np.asarray(v_g),
                          v_b - np.asarray(v_d), v_b - np.asarray(v_s))


def drain_current_derivatives(params: MosfetParams, v_g, v_d, v_s, v_b=0.0):
    """Return ``(i_d, di/dv_g, di/dv_d, di/dv_s, di/dv_b)``.

    These are exactly the values the MNA Newton stamps need.  For both
    polarities the bulk derivative is minus the sum of the other three
    (the current depends only on voltage differences).
    """
    constants = device_constants(params)
    if params.is_nmos:
        i, dg, dd, ds = core_derivatives(
            *constants, np.asarray(v_g) - v_b, np.asarray(v_d) - v_b,
            np.asarray(v_s) - v_b)
    else:
        # Mirrored core: u_x = v_b - v_x, i = -i_core.  The two sign
        # flips (mirror and negation) cancel in the terminal derivatives.
        i_core, dg, dd, ds = core_derivatives(
            *constants, v_b - np.asarray(v_g), v_b - np.asarray(v_d),
            v_b - np.asarray(v_s))
        i = -i_core
    db = -(dg + dd + ds)
    return i, dg, dd, ds, db


def transconductance(params: MosfetParams, v_gs, v_ds):
    """Gate transconductance ``gm = dI_D/dV_GS`` [S], source-referenced.

    For a PMOS, pass the magnitudes ``v_gs = v_sg`` and ``v_ds = v_sd``;
    the returned gm is the (positive) magnitude used by the thermal-noise
    model.
    """
    v_gs = np.asarray(v_gs, dtype=float)
    v_ds = np.asarray(v_ds, dtype=float)
    if params.is_nmos:
        _, dg, _, _, _ = drain_current_derivatives(params, v_gs, v_ds, 0.0, 0.0)
        return dg
    _, dg, _, _, _ = drain_current_derivatives(params, -v_gs, -v_ds, 0.0, 0.0)
    return np.abs(dg)


def inversion_charge_density(params: MosfetParams, v_gs):
    """Inversion-layer charge per unit area [C/m^2] at gate overdrive.

    Smooth charge-sheet interpolation
    ``Q_inv = n C_ox V_t ln(1 + exp((v_gs - v_t0)/(n V_t)))`` which
    tends to ``C_ox (v_gs - v_t0)`` in strong inversion and decays
    exponentially in weak inversion.  Pass the on-direction drive:
    ``v_gs`` for NMOS, ``v_sg`` for PMOS (both positive when the device
    conducts).
    """
    tech = params.technology
    v_t = thermal_voltage(tech.temperature)
    n = tech.slope_factor
    overdrive = np.asarray(v_gs, dtype=float) - params.vt0
    return n * tech.c_ox * v_t * _softplus(overdrive / (n * v_t))


def saturation_current(params: MosfetParams, v_gs):
    """Drain current [A] magnitude deep in saturation at the given v_gs."""
    v_dd = params.technology.vdd
    if params.is_nmos:
        return np.abs(drain_current(params, v_gs, 10.0 * v_dd, 0.0))
    return np.abs(drain_current(params, -np.abs(v_gs), -10.0 * v_dd, 0.0))
