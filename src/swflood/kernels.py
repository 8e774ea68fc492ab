"""Pointwise kernels of the well-balanced finite-volume scheme.

All kernels take float64 arrays or Python floats, work elementwise and are
pure.  The scheme combines a minmod MUSCL reconstruction of u, h and h+z, a
discharge-conserving velocity reconstruction, the hydrostatic reconstruction
of interface depths, an HLLC flux, and the interface plus centered source
terms that keep lakes at rest exactly balanced.
"""

from __future__ import annotations

import numpy as np


def minmod(x, y):
    """Slope limiter: min(x, y) if both >= 0, max(x, y) if both <= 0, else 0.

    Both sign tests read off lo = min(x, y) and hi = max(x, y); a NaN makes
    both fail and gives 0.
    """
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    return np.where(lo >= 0, lo, np.where(hi <= 0, hi, 0.0))


def muscl_reconstruct(s_prev, s_i, s_next):
    """Limited linear traces of a cell value at its two faces.

    Returns (s_minus, s_plus) = s_i -/+ (dx/2) * Ds_i with the minmod slope
    Ds_i = minmod((s_i - s_prev)/dx, (s_next - s_i)/dx).  The dx factors
    cancel, so the traces are computed from plain neighbor differences and
    take no dx; the mean (s_minus + s_plus)/2 equals s_i.
    """
    half = 0.5 * minmod(s_i - s_prev, s_next - s_i)
    return s_i - half, s_i + half


def muscl_slope(s_prev, s_i, s_next, dx):
    """Minmod slope used by the velocity reconstruction."""
    return minmod(s_i - s_prev, s_next - s_i) / dx


def velocity_reconstruct(u_i, h_i, h_minus, h_plus, du, dx, h_dry):
    """Velocity traces weighted so the cell discharge is conserved.

    The face opposite each trace supplies the depth weight:

        u_minus = u_i - (h_plus / h_i) * (dx/2) * du
        u_plus  = u_i + (h_minus / h_i) * (dx/2) * du

    which gives h_minus*u_minus + h_plus*u_plus = 2*h_i*u_i since the depth
    traces average to h_i.  Dry cells (h_i <= h_dry) take zero traces.
    """
    wet = h_i > h_dry
    h_safe = np.where(wet, h_i, 1.0)
    step = (0.5 * dx) * du / h_safe
    u_minus = np.where(wet, u_i - h_plus * step, 0.0)
    u_plus = np.where(wet, u_i + h_minus * step, 0.0)
    return u_minus, u_plus


def hydrostatic_reconstruct(h_minus, z_minus, h_plus, z_plus):
    """Nonnegative one-sided depths over the higher of the two face bottoms.

    With z* = max(z_minus, z_plus):

        h_left  = max(h_minus + z_minus - z*, 0)
        h_right = max(h_plus + z_plus - z*, 0)

    computed through the bottom step dz = z_plus - z_minus so that equal free
    surfaces yield exactly equal depths.  Both outputs are bounded by their
    input depths.
    """
    dz = z_plus - z_minus
    h_left = np.maximum(h_minus - np.maximum(dz, 0.0), 0.0)
    h_right = np.maximum(h_plus + np.minimum(dz, 0.0), 0.0)
    return h_left, h_right


def physical_flux(h, u, g):
    """Mass and momentum flux (h*u, h*u^2 + g*h^2/2) of a single state."""
    q = h * u
    return q, q * u + (0.5 * g) * (h * h)


# The two helpers below free their temporaries on return, so hllc_flux holds
# fewer arrays at once than a separate HLL pass and contact pass would.


def _wave_speeds(h_l, u_l, h_r, u_r, g):
    """HLL wave speed bounds (c1, c2) of hllc_flux."""
    c_l = np.sqrt(g * h_l)
    c_r = np.sqrt(g * h_r)
    return np.minimum(u_l - c_l, u_r - c_r), np.maximum(u_l + c_l, u_r + c_r)


def _contact_upwind_left(h_l, u_l, h_r, u_r, c1, c2):
    """Mask of c* >= 0 for the contact speed c* of hllc_flux.

    Where the denominator vanishes c* = 0, which counts as >= 0.
    """
    d_l = u_l - c1
    d_r = u_r - c2
    num = c1 * h_r * d_r - c2 * h_l * d_l
    den = h_r * d_r - h_l * d_l
    zero = den == 0
    return zero | (num / np.where(zero, 1.0, den) >= 0)


def hllc_flux(h_l, u_l, v_l, h_r, u_r, v_r, g):
    """HLL flux extended with an upwinded transverse momentum component.

    Mass and normal momentum are the two-wave HLL flux with wave speed bounds

        c1 = min(u_l - sqrt(g*h_l), u_r - sqrt(g*h_r))
        c2 = max(u_l + sqrt(g*h_l), u_r + sqrt(g*h_r))

    Supersonic cases take the upwind physical flux; otherwise the standard
    HLL average applies.  Identical states return the physical flux exactly,
    and two dry states return zero flux.  The transverse flux is f_h * v taken from the side of the contact wave

        c* = (c1*h_r*(u_r - c2) - c2*h_l*(u_l - c1))
             / (h_r*(u_r - c2) - h_l*(u_l - c1))

    with c* = 0 when the denominator vanishes.  The wave speeds, the
    discharges q = h*u and the upwind masks are computed once and shared by
    all three components.
    """
    c1, c2 = _wave_speeds(h_l, u_l, h_r, u_r, g)
    upwind_left = _contact_upwind_left(h_l, u_l, h_r, u_r, c1, c2)
    q_l, fhu_l = physical_flux(h_l, u_l, g)
    q_r, fhu_r = physical_flux(h_r, u_r, g)

    span = c2 - c1
    safe = np.where(span > 0, span, 1.0)
    c12 = c1 * c2
    # Scalar inputs give numpy scalars here; copyto below needs arrays.
    fh = np.asarray((c2 * q_l - c1 * q_r + c12 * (h_r - h_l)) / safe)
    fhu = np.asarray((c2 * fhu_l - c1 * fhu_r + c12 * (q_r - q_l)) / safe)

    # Lowest priority first: right upwind, then left upwind, then dry.
    right = c2 <= 0
    np.copyto(fh, q_r, where=right)
    np.copyto(fhu, fhu_r, where=right)
    left = ((h_l == h_r) & (u_l == u_r)) | (c1 >= 0)
    np.copyto(fh, q_l, where=left)
    np.copyto(fhu, fhu_l, where=left)
    dry = (h_l == 0.0) & (h_r == 0.0)
    np.copyto(fh, 0.0, where=dry)
    np.copyto(fhu, 0.0, where=dry)
    return fh, fhu, fh * np.where(upwind_left, v_l, v_r)


def interface_sources(h_minus, h_plus, h_left, h_right, g):
    """Momentum corrections restoring balance lost to the depth reconstruction.

    Returns (s_left, s_right) = g/2 * (h_minus^2 - h_left^2) and
    g/2 * (h_plus^2 - h_right^2), added to the momentum flux seen by the
    left and right cell respectively.  Factored differences keep the
    cancellation tight for near-balanced states.
    """
    s_left = (0.5 * g) * ((h_minus - h_left) * (h_minus + h_left))
    s_right = (0.5 * g) * ((h_plus - h_right) * (h_plus + h_right))
    return s_left, s_right


def centered_source(h_left_trace, h_right_trace, z_left_trace, z_right_trace, g):
    """Momentum source from the bottom slope within one cell.

        Fc = -g * (h_left_trace + h_right_trace)/2 * (z_right_trace - z_left_trace)

    Exactly cancels the interface corrections for a lake at rest.
    """
    return (-0.5 * g) * (h_left_trace + h_right_trace) * (z_right_trace - z_left_trace)
