"""Property tests: the fused Riemann flux and the two-sided minmod are bitwise
equal to their straightforward forms.

The reference implementations below are the plain versions the kernels
replace: ``minmod`` as a nested ``np.where`` over both sign tests, and
``hllc_flux`` as an HLL flux followed by a second pass that recomputes the
wave speeds for the contact.  Every generated input must give the same bits,
signed zeros included.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from swflood.kernels import hllc_flux, minmod

G = 9.81


def ref_minmod(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return np.where(
        (x >= 0) & (y >= 0),
        np.minimum(x, y),
        np.where((x <= 0) & (y <= 0), np.maximum(x, y), 0.0),
    )


def ref_physical_flux(h, u, g):
    q = h * u
    return q, q * u + (0.5 * g) * (h * h)


def ref_hll_flux(h_l, u_l, h_r, u_r, g):
    h_l = np.asarray(h_l, dtype=np.float64)
    u_l = np.asarray(u_l, dtype=np.float64)
    h_r = np.asarray(h_r, dtype=np.float64)
    u_r = np.asarray(u_r, dtype=np.float64)
    c_l = np.sqrt(g * h_l)
    c_r = np.sqrt(g * h_r)
    c1 = np.minimum(u_l - c_l, u_r - c_r)
    c2 = np.maximum(u_l + c_l, u_r + c_r)
    fh_l, fhu_l = ref_physical_flux(h_l, u_l, g)
    fh_r, fhu_r = ref_physical_flux(h_r, u_r, g)
    span = c2 - c1
    safe = np.where(span > 0, span, 1.0)
    fh_m = (c2 * fh_l - c1 * fh_r + c1 * c2 * (h_r - h_l)) / safe
    fhu_m = (c2 * fhu_l - c1 * fhu_r + c1 * c2 * (h_r * u_r - h_l * u_l)) / safe
    same = (h_l == h_r) & (u_l == u_r)
    dry = (h_l == 0.0) & (h_r == 0.0)
    fh = np.where(dry, 0.0, np.where(same | (c1 >= 0), fh_l, np.where(c2 <= 0, fh_r, fh_m)))
    fhu = np.where(dry, 0.0, np.where(same | (c1 >= 0), fhu_l, np.where(c2 <= 0, fhu_r, fhu_m)))
    return fh, fhu


def ref_hllc_flux(h_l, u_l, v_l, h_r, u_r, v_r, g):
    fh, fhu = ref_hll_flux(h_l, u_l, h_r, u_r, g)
    h_l = np.asarray(h_l, dtype=np.float64)
    h_r = np.asarray(h_r, dtype=np.float64)
    u_l = np.asarray(u_l, dtype=np.float64)
    u_r = np.asarray(u_r, dtype=np.float64)
    c_l = np.sqrt(g * h_l)
    c_r = np.sqrt(g * h_r)
    c1 = np.minimum(u_l - c_l, u_r - c_r)
    c2 = np.maximum(u_l + c_l, u_r + c_r)
    num = c1 * h_r * (u_r - c2) - c2 * h_l * (u_l - c1)
    den = h_r * (u_r - c2) - h_l * (u_l - c1)
    c_star = np.where(den != 0, num / np.where(den != 0, den, 1.0), 0.0)
    fhv = fh * np.where(c_star >= 0, v_l, v_r)
    return fh, fhu, fhv


def bits(values):
    """Raw float64 bits of each output, so -0.0 and +0.0 differ."""
    return [np.asarray(v, dtype=np.float64).view(np.uint64).tolist() for v in values]


SIGNED_ZEROS = [0.0, -0.0]
# Slopes: signed zeros, tiny and huge magnitudes, NaN.
slopes = st.one_of(
    st.sampled_from(SIGNED_ZEROS + [np.nan, 5e-324, -5e-324, 1.0, -1.0]),
    st.floats(allow_nan=True, allow_infinity=False, width=64),
)
# Depths: dry, subnormal (products underflow and the contact denominator
# vanishes), and physical.
depths = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1e-10, 1.0]),
    st.floats(min_value=0.0, max_value=1e3),
)
# Velocities: signed zeros and supersonic magnitudes.
speeds = st.one_of(
    st.sampled_from(SIGNED_ZEROS + [1e-300, -1e-300]),
    st.floats(min_value=-200.0, max_value=200.0),
)


def arrays_of(elements, n):
    return hnp.arrays(np.float64, n, elements=elements)


@settings(max_examples=300, deadline=None)
@given(slopes, slopes)
@example(0.0, -0.0)
@example(-0.0, 0.0)
@example(-0.0, -0.0)
@example(np.nan, 1.0)
@example(-1.0, np.nan)
def test_minmod_matches_the_nested_where_on_scalars(x, y):
    assert bits([minmod(x, y)]) == bits([ref_minmod(x, y)])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(arrays_of(slopes, n),
                                                      arrays_of(slopes, n))))
def test_minmod_matches_the_nested_where_on_arrays(xy):
    x, y = xy
    assert bits([minmod(x, y)]) == bits([ref_minmod(x, y)])


STATE = (depths, speeds, speeds, depths, speeds, speeds)


@settings(max_examples=400, deadline=None)
@given(*STATE)
@example(0.0, 1.0, -2.0, 0.0, -1.0, 3.0)           # two dry states
@example(0.0, -0.0, -0.0, 0.0, 0.0, -0.0)          # dry, signed zeros
@example(1.0, 2.0, 5.0, 1.0, 2.0, -3.0)            # identical states
@example(1.0, 10.0, 5.0, 0.5, 10.0, -3.0)          # supersonic to the right
@example(1.0, -10.0, 5.0, 0.5, -10.0, -3.0)        # supersonic to the left
@example(1.0, 2.0, 7.0, 1.0, -2.0, 9.0)            # zero contact numerator
@example(5e-324, 0.0, 7.0, 5e-324, 0.0, -9.0)      # zero contact denominator
@example(0.0, 0.0, -1.0, 1.0, 0.0, 1.0)            # dry to wet
@example(0.0, 10.5, 1.0, 5e-324, 10.0, -1.0)       # zero denominator, negative numerator
def test_fused_flux_matches_hll_then_contact_on_scalars(h_l, u_l, v_l, h_r, u_r, v_r):
    got = hllc_flux(h_l, u_l, v_l, h_r, u_r, v_r, G)
    want = ref_hllc_flux(h_l, u_l, v_l, h_r, u_r, v_r, G)
    assert bits(got) == bits(want)
    hll = hllc_flux(h_l, u_l, 0.0, h_r, u_r, 0.0, G)[:2]
    assert bits(hll) == bits(ref_hll_flux(h_l, u_l, h_r, u_r, G))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda n: st.tuples(*(arrays_of(e, n) for e in STATE))))
def test_fused_flux_matches_hll_then_contact_on_arrays(state):
    h_l, u_l, v_l, h_r, u_r, v_r = state
    got = hllc_flux(h_l, u_l, v_l, h_r, u_r, v_r, G)
    assert bits(got) == bits(ref_hllc_flux(h_l, u_l, v_l, h_r, u_r, v_r, G))
    assert bits(hllc_flux(h_l, u_l, 0.0, h_r, u_r, 0.0, G)[:2]) == bits(got[:2])


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_fused_flux_matches_on_strided_views(rows, cols, data):
    # The residual passes transposed, offset views of padded arrays.
    h = data.draw(arrays_of(depths, (rows + 1, cols + 2)))
    u = data.draw(arrays_of(speeds, (rows + 1, cols + 2)))
    v = data.draw(arrays_of(speeds, (rows + 1, cols + 2)))
    ht, ut, vt = h.T, u.T, v.T
    args = (ht[:-1, :-1], ut[:-1, :-1], vt[:-1, :-1], ht[1:, 1:], ut[1:, 1:], vt[1:, 1:], G)
    assert bits(hllc_flux(*args)) == bits(ref_hllc_flux(*args))
