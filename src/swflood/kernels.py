"""Pointwise kernels of the well-balanced finite-volume scheme.

All kernels take float64 arrays or Python floats, work elementwise and are
pure.  The scheme combines a minmod MUSCL reconstruction of u, h and h+z, a
discharge-conserving velocity reconstruction, the hydrostatic reconstruction
of interface depths, an HLLC flux, and the interface plus centered source
terms that keep lakes at rest exactly balanced.

Every kernel writes its results and temporaries through numpy ``out=``
arguments into arrays taken from ``ws``.  The default, FRESH, allocates new
arrays on every call, 0-d ones for scalar inputs.  The solver passes a
Workspace, which hands out views of one reused pool instead.  A ufunc gives
the same value into ``out=`` as into a new array, so the results are the
same bits either way.
"""

from __future__ import annotations

import numpy as np


class _Fresh:
    """The workspace of a caller that passes none: every array is new."""

    @staticmethod
    def take(*operands, n=1, masks=0, keep=None):
        """n new float64 arrays, then ``masks`` bool ones, of the operands'
        broadcast shape, then a mark of 0 if ``keep`` is given."""
        shape = np.broadcast(*operands).shape
        return (*(np.empty(shape) for _ in range(n)),
                *(np.empty(shape, bool) for _ in range(masks)),
                *(() if keep is None else (0,)))

    @staticmethod
    def mark():
        return 0

    @staticmethod
    def release(mark):
        pass


FRESH = _Fresh()


class Workspace:
    """Scratch arrays handed out from one growing pool, as a stack.

    take(a, n=, masks=) returns n float64 views and then ``masks`` bool
    views, uninitialised, shaped like ``a`` and laid out like it: C order,
    or the F order of a transposed view, so a sweep along either axis keeps
    its operands in one layout.  The operands a kernel passes besides ``a``
    all share its shape here.  release(mark) hands every view taken since
    the mark back to the pool, and reset() hands back all of them, so a view
    must not be read after that.  The mark is mark(), or with keep=k the
    last item take returns: the mark after its first k float views.  So a
    kernel takes its results and its scratch at once, and releasing that
    mark keeps only the results.  The pool only grows, at least doubling,
    to the most any caller has held at once.  A view taken before a growth
    stays valid in the old pool.

    A strip asks for the same views in the same order as the strip before
    it, unless the active box changed, so the views of each request are
    kept and handed out again for the same request: place in the pool,
    shape, strides and counts.
    """

    # Past this many kept requests (a few boxes' worth) the kept views are
    # dropped, so a box that keeps changing holds no more than this.
    _MAX_REQUESTS = 1024

    def __init__(self):
        self._pool = np.empty(0, np.uint8)
        self._top = 0
        self._views = {}

    def take(self, a, *_, n=1, masks=0, keep=None):
        key = (self._top, a.shape, a.strides, n, masks, keep)
        views = self._views.get(key)
        if views is None:
            views = self._carve(key, a.size)
        views, self._top = views
        return views

    def _carve(self, key, size):
        """New views for ``key`` at the top of the pool, and the top after them."""
        top, shape, strides, n, masks, keep = key
        # Each view starts on a 64-byte line.
        floats = (size * 8 + 63) & -64
        bools = (size + 63) & -64
        end = top + n * floats + masks * bools
        if end > self._pool.size:
            self._pool = np.empty(max(2 * self._pool.size, end), np.uint8)
            self._views.clear()
        elif len(self._views) >= self._MAX_REQUESTS:
            self._views.clear()
        layouts = ((8, shape[0] * 8), (1, shape[0])) if strides[0] < strides[-1] else (None, None)
        views = []
        for dtype, layout, nbytes, count in ((np.float64, layouts[0], floats, n),
                                             (bool, layouts[1], bools, masks)):
            for _ in range(count):
                views.append(np.ndarray(shape, dtype, self._pool, top, layout))
                top += nbytes
        if keep is not None:
            views.append(key[0] + keep * floats)
        self._views[key] = hit = tuple(views), end
        return hit

    def mark(self) -> int:
        return self._top

    def release(self, mark: int) -> None:
        self._top = mark

    def reset(self) -> None:
        self._top = 0


def minmod(x, y, ws=FRESH):
    """Slope limiter: min(x, y) if both >= 0, max(x, y) if both <= 0, else 0.

    Both sign tests read off lo = min(x, y) and hi = max(x, y); a NaN makes
    both fail and gives 0.
    """
    hi, lo, test, mark = ws.take(x, y, n=2, masks=1, keep=1)
    np.minimum(x, y, out=lo)
    np.maximum(x, y, out=hi)
    # hi where hi <= 0, else 0; then lo where lo >= 0.
    np.copyto(hi, 0.0, where=np.logical_not(np.less_equal(hi, 0, out=test), out=test))
    np.copyto(hi, lo, where=np.greater_equal(lo, 0, out=test))
    ws.release(mark)
    return hi


def muscl_reconstruct(s_prev, s_i, s_next, ws=FRESH):
    """Limited linear traces of a cell value at its two faces.

    Returns (s_minus, s_plus) = s_i -/+ (dx/2) * Ds_i with the minmod slope
    Ds_i = minmod((s_i - s_prev)/dx, (s_next - s_i)/dx).  The dx factors
    cancel, so the traces are computed from plain neighbor differences and
    take no dx; the mean (s_minus + s_plus)/2 equals s_i.
    """
    s_minus, s_plus, mark = ws.take(s_i, s_prev, s_next, n=2, keep=2)
    half = minmod(np.subtract(s_i, s_prev, out=s_minus),
                  np.subtract(s_next, s_i, out=s_plus), ws)
    np.multiply(0.5, half, out=half)
    np.subtract(s_i, half, out=s_minus)
    np.add(s_i, half, out=s_plus)
    ws.release(mark)
    return s_minus, s_plus


def muscl_slope(s_prev, s_i, s_next, dx, ws=FRESH):
    """Minmod slope used by the velocity reconstruction."""
    out, ahead, mark = ws.take(s_i, s_prev, s_next, n=2, keep=1)
    slope = minmod(np.subtract(s_i, s_prev, out=out),
                   np.subtract(s_next, s_i, out=ahead), ws)
    np.divide(slope, dx, out=out)
    ws.release(mark)
    return out


def velocity_reconstruct(u_i, h_i, h_minus, h_plus, du, dx, h_dry, ws=FRESH):
    """Velocity traces weighted so the cell discharge is conserved.

    The face opposite each trace supplies the depth weight:

        u_minus = u_i - (h_plus / h_i) * (dx/2) * du
        u_plus  = u_i + (h_minus / h_i) * (dx/2) * du

    which gives h_minus*u_minus + h_plus*u_plus = 2*h_i*u_i since the depth
    traces average to h_i.  Dry cells (h_i <= h_dry) take zero traces.
    """
    u_minus, u_plus, step, wet, mark = ws.take(h_i, u_i, h_minus, h_plus, du, n=3, masks=1,
                                               keep=2)
    np.greater(h_i, h_dry, out=wet)
    # Dry cells keep (dx/2) * du, the step over a unit depth; their traces are zeroed.
    np.multiply(0.5 * dx, du, out=step)
    np.divide(step, h_i, out=step, where=wet)
    np.subtract(u_i, np.multiply(h_plus, step, out=u_minus), out=u_minus)
    np.add(u_i, np.multiply(h_minus, step, out=u_plus), out=u_plus)
    dry = np.logical_not(wet, out=wet)
    np.copyto(u_minus, 0.0, where=dry)
    np.copyto(u_plus, 0.0, where=dry)
    ws.release(mark)
    return u_minus, u_plus


def hydrostatic_reconstruct(h_minus, z_minus, h_plus, z_plus, ws=FRESH):
    """Nonnegative one-sided depths over the higher of the two face bottoms.

    With z* = max(z_minus, z_plus):

        h_left  = max(h_minus + z_minus - z*, 0)
        h_right = max(h_plus + z_plus - z*, 0)

    computed through the bottom step dz = z_plus - z_minus so that equal free
    surfaces yield exactly equal depths.  Both outputs are bounded by their
    input depths.
    """
    h_left, h_right, dz, mark = ws.take(h_minus, z_minus, h_plus, z_plus, n=3, keep=2)
    np.subtract(z_plus, z_minus, out=dz)
    np.subtract(h_minus, np.maximum(dz, 0.0, out=h_left), out=h_left)
    np.maximum(h_left, 0.0, out=h_left)
    np.add(h_plus, np.minimum(dz, 0.0, out=h_right), out=h_right)
    np.maximum(h_right, 0.0, out=h_right)
    ws.release(mark)
    return h_left, h_right


def physical_flux(h, u, g, ws=FRESH):
    """Mass and momentum flux (h*u, h*u^2 + g*h^2/2) of a single state."""
    q, flux, pressure, mark = ws.take(h, u, n=3, keep=2)
    np.multiply(h, u, out=q)
    np.multiply(q, u, out=flux)
    np.multiply(0.5 * g, np.multiply(h, h, out=pressure), out=pressure)
    np.add(flux, pressure, out=flux)
    ws.release(mark)
    return q, flux


# The two helpers below hand their temporaries back on return, so hllc_flux
# holds fewer arrays at once than a separate HLL pass and contact pass would.


def _wave_speeds(h_l, u_l, h_r, u_r, g, ws):
    """HLL wave speed bounds (c1, c2) of hllc_flux."""
    c1, c2, c_l, c_r, mark = ws.take(h_l, u_l, h_r, u_r, n=4, keep=2)
    np.sqrt(np.multiply(g, h_l, out=c_l), out=c_l)
    np.sqrt(np.multiply(g, h_r, out=c_r), out=c_r)
    np.minimum(np.subtract(u_l, c_l, out=c1), np.subtract(u_r, c_r, out=c2), out=c1)
    np.maximum(np.add(u_l, c_l, out=c2), np.add(u_r, c_r, out=c_r), out=c2)
    ws.release(mark)
    return c1, c2


def _contact_upwind_left(h_l, u_l, h_r, u_r, c1, c2, ws):
    """Mask of c* >= 0 for the contact speed c* of hllc_flux.

    Where the denominator vanishes c* = 0, which counts as >= 0.
    """
    zero, = ws.take(c1, n=0, masks=1)
    mark = ws.mark()
    d_l, d_r, num, num_l, ahead = ws.take(c1, n=4, masks=1)
    np.subtract(u_l, c1, out=d_l)
    np.subtract(u_r, c2, out=d_r)
    # num = c1*h_r*d_r - c2*h_l*d_l, and den = h_r*d_r - h_l*d_l in d_r.
    np.multiply(np.multiply(c1, h_r, out=num), d_r, out=num)
    np.multiply(np.multiply(c2, h_l, out=num_l), d_l, out=num_l)
    np.subtract(num, num_l, out=num)
    den = np.subtract(np.multiply(h_r, d_r, out=d_r), np.multiply(h_l, d_l, out=d_l),
                      out=d_r)
    np.equal(den, 0, out=zero)
    np.copyto(den, 1.0, where=zero)
    np.greater_equal(np.divide(num, den, out=num), 0, out=ahead)
    np.logical_or(zero, ahead, out=zero)
    ws.release(mark)
    return zero


def hllc_flux(h_l, u_l, v_l, h_r, u_r, v_r, g, ws=FRESH):
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
    fh, fhu, fhv, span, c12, tmp, test, other, mark = ws.take(h_l, u_l, h_r, u_r, n=6,
                                                              masks=2, keep=3)
    c1, c2 = _wave_speeds(h_l, u_l, h_r, u_r, g, ws)
    upwind_left = _contact_upwind_left(h_l, u_l, h_r, u_r, c1, c2, ws)
    q_l, fhu_l = physical_flux(h_l, u_l, g, ws)
    q_r, fhu_r = physical_flux(h_r, u_r, g, ws)

    # span = c2 - c1 where it is positive, else 1.
    np.subtract(c2, c1, out=span)
    np.copyto(span, 1.0, where=np.logical_not(np.greater(span, 0, out=test), out=test))
    np.multiply(c1, c2, out=c12)
    for out, f_l, f_r, jump in ((fh, q_l, q_r, (h_r, h_l)), (fhu, fhu_l, fhu_r, (q_r, q_l))):
        # (c2 * f_l - c1 * f_r + c12 * jump) / span
        np.subtract(np.multiply(c2, f_l, out=out), np.multiply(c1, f_r, out=tmp), out=out)
        np.multiply(c12, np.subtract(*jump, out=tmp), out=tmp)
        np.divide(np.add(out, tmp, out=out), span, out=out)

    # Lowest priority first: right upwind, then left upwind, then dry.
    right = np.less_equal(c2, 0, out=test)
    np.copyto(fh, q_r, where=right)
    np.copyto(fhu, fhu_r, where=right)
    left = np.logical_and(np.equal(h_l, h_r, out=test), np.equal(u_l, u_r, out=other),
                          out=test)
    np.logical_or(left, np.greater_equal(c1, 0, out=other), out=left)
    np.copyto(fh, q_l, where=left)
    np.copyto(fhu, fhu_l, where=left)
    dry = np.logical_and(np.equal(h_l, 0.0, out=test), np.equal(h_r, 0.0, out=other),
                         out=test)
    np.copyto(fh, 0.0, where=dry)
    np.copyto(fhu, 0.0, where=dry)
    np.copyto(fhv, v_r)
    np.copyto(fhv, v_l, where=upwind_left)
    np.multiply(fh, fhv, out=fhv)
    ws.release(mark)
    return fh, fhu, fhv


def interface_sources(h_minus, h_plus, h_left, h_right, g, ws=FRESH):
    """Momentum corrections restoring balance lost to the depth reconstruction.

    Returns (s_left, s_right) = g/2 * (h_minus^2 - h_left^2) and
    g/2 * (h_plus^2 - h_right^2), added to the momentum flux seen by the
    left and right cell respectively.  Factored differences keep the
    cancellation tight for near-balanced states.
    """
    s_left, s_right, total, mark = ws.take(h_minus, h_plus, h_left, h_right, n=3, keep=2)
    for out, h, h_star in ((s_left, h_minus, h_left), (s_right, h_plus, h_right)):
        np.multiply(np.subtract(h, h_star, out=out), np.add(h, h_star, out=total), out=out)
        np.multiply(0.5 * g, out, out=out)
    ws.release(mark)
    return s_left, s_right


def centered_source(h_left_trace, h_right_trace, z_left_trace, z_right_trace, g,
                    ws=FRESH):
    """Momentum source from the bottom slope within one cell.

        Fc = -g * (h_left_trace + h_right_trace)/2 * (z_right_trace - z_left_trace)

    Exactly cancels the interface corrections for a lake at rest.
    """
    out, dz, mark = ws.take(h_left_trace, h_right_trace, z_left_trace, z_right_trace, n=2,
                            keep=1)
    np.multiply(-0.5 * g, np.add(h_left_trace, h_right_trace, out=out), out=out)
    np.multiply(out, np.subtract(z_right_trace, z_left_trace, out=dz), out=out)
    ws.release(mark)
    return out
