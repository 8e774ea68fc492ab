"""Closed-form 1D shallow-water solutions used as verification oracles.

Provides lake-at-rest equilibria, the Ritter (dry-bed) and Stoker (wet-bed)
dam-break solutions, an exact Riemann solver sampled at any xi = x/t, and
discrete error norms.  All evaluators are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Root-finding tolerances for the middle-state solvers.
STAR_TOL = 1.0e-12
STAR_MAX_ITER = 200


@dataclass(frozen=True)
class AnalyticalCase:
    """A 1D reference problem: initial data plus its exact solution in time."""

    name: str
    length: float
    topography: Callable[[np.ndarray], np.ndarray]
    initial: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    exact: Callable[[np.ndarray, float], tuple[np.ndarray, np.ndarray]]
    horizon: float


def parabolic_bump(x) -> np.ndarray:
    """Classical bump profile on [0, 25]: crest 0.2 m at x = 10."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(0.0, 0.2 - 0.05 * (x - 10.0) ** 2)


def lake_at_rest_case(surface: float, topography=parabolic_bump,
                      length: float = 25.0, horizon: float = 5.0,
                      name: str = "lake-at-rest") -> AnalyticalCase:
    """Still water at the given surface level; the exact solution is the
    initial state for all time.  A surface below the topography crest gives
    the emerged variant with a dry patch."""

    def initial(x):
        z = topography(x)
        h = np.maximum(surface - z, 0.0)
        return h, np.zeros_like(h)

    def exact(x, t):
        return initial(x)

    return AnalyticalCase(name, length, topography, initial, exact, horizon)


def ritter_solution(x, t: float, x0: float, h_l: float, g: float):
    """Dam break onto a dry bed: left reservoir h_l, rarefaction fan, dry front."""
    x = np.asarray(x, dtype=np.float64)
    c = math.sqrt(g * h_l)
    xi = (x - x0) / t
    fan_h = (2.0 * c - xi) ** 2 / (9.0 * g)
    fan_u = 2.0 * (xi + c) / 3.0
    h = np.where(xi <= -c, h_l, np.where(xi >= 2.0 * c, 0.0, fan_h))
    u = np.where(xi <= -c, 0.0, np.where(xi >= 2.0 * c, 0.0, fan_u))
    return h, u


def stoker_middle_state(h_l: float, h_r: float, g: float):
    """Middle depth, velocity and shock speed of the wet dam break.

    The matching condition (rarefaction from the left, shock to the right)
    is monotone in h_m and bracketed in (h_r, h_l); solved by bisection.
    Returns (h_m, u_m, shock_speed).
    """
    if not h_l > h_r > 0.0:
        raise ValueError(f"need h_l > h_r > 0, got {h_l}, {h_r}")
    c_l = math.sqrt(g * h_l)

    def match(h):
        # rarefaction velocity minus shock velocity at depth h
        rare = 2.0 * (c_l - math.sqrt(g * h))
        shock = (h - h_r) * math.sqrt(0.5 * g * (h + h_r) / (h * h_r))
        return rare - shock

    lo, hi = h_r, h_l
    f_mid = math.inf
    for _ in range(STAR_MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = match(mid)
        if abs(f_mid) <= STAR_TOL or (hi - lo) <= 1e-16 * h_l:
            break
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid
    h_m = 0.5 * (lo + hi)
    u_m = 2.0 * (c_l - math.sqrt(g * h_m))
    # Rankine-Hugoniot mass condition with a still right state.
    s = h_m * u_m / (h_m - h_r)
    return h_m, u_m, s


def stoker_solution(x, t: float, x0: float, h_l: float, h_r: float, g: float):
    """Dam break onto a wet bed: reservoir / fan / middle state / shock / tail."""
    if h_l == h_r:
        x = np.asarray(x, dtype=np.float64)
        return np.full_like(x, h_l), np.zeros_like(x)
    h_m, u_m, s = stoker_middle_state(h_l, h_r, g)
    c_l = math.sqrt(g * h_l)
    c_m = math.sqrt(g * h_m)
    x = np.asarray(x, dtype=np.float64)
    xi = (x - x0) / t
    fan_h = (2.0 * c_l - xi) ** 2 / (9.0 * g)
    fan_u = 2.0 * (xi + c_l) / 3.0
    h = np.select(
        [xi <= -c_l, xi < u_m - c_m, xi < s],
        [h_l, fan_h, h_m],
        default=h_r,
    )
    u = np.select(
        [xi <= -c_l, xi < u_m - c_m, xi < s],
        [0.0, fan_u, u_m],
        default=0.0,
    )
    return h, u


def _wave_function(h: float, h_k: float, g: float) -> float:
    """Velocity jump across one wave connecting depth h_k to h (Toro's f_K)."""
    if h <= h_k:
        return 2.0 * (math.sqrt(g * h) - math.sqrt(g * h_k))
    return (h - h_k) * math.sqrt(0.5 * g * (h + h_k) / (h * h_k))


def _wave_function_deriv(h: float, h_k: float, g: float) -> float:
    if h <= h_k:
        return math.sqrt(g / h)
    a = math.sqrt(0.5 * g * (h + h_k) / (h * h_k))
    return a - g * (h - h_k) / (4.0 * h * h * a)


def _star_depth(h_l, u_l, h_r, u_r, g) -> float:
    """Depth between the two waves of a wet/wet Riemann problem (no vacuum)."""

    def f(h):
        return _wave_function(h, h_l, g) + _wave_function(h, h_r, g) + u_r - u_l

    c_l = math.sqrt(g * h_l)
    c_r = math.sqrt(g * h_r)
    # Two-rarefaction estimate; exact when both waves are rarefactions.
    h = max((0.5 * (c_l + c_r) + 0.25 * (u_l - u_r)) ** 2 / g, 1e-300)
    lo = 0.0
    hi = max(h_l, h_r, h)
    while f(hi) < 0.0:
        hi *= 2.0
    for _ in range(STAR_MAX_ITER):
        fv = f(h)
        if abs(fv) <= STAR_TOL:
            break
        if fv > 0.0:
            hi = h
        else:
            lo = h
        h_new = h - fv / (_wave_function_deriv(h, h_l, g)
                          + _wave_function_deriv(h, h_r, g))
        if not lo < h_new < hi:
            h_new = 0.5 * (lo + hi)
        if abs(h_new - h) <= 1e-16 * h:
            h = h_new
            break
        h = h_new
    return h


def exact_riemann_sample(h_l, u_l, h_r, u_r, g, xi: float = 0.0):
    """Exact Riemann solution sampled at similarity coordinate xi = x/t.

    Handles dry sides and vacuum formation.  Returns (h, u) at xi.
    """
    dry_l = h_l <= 0.0
    dry_r = h_r <= 0.0
    if dry_l and dry_r:
        return 0.0, 0.0
    if dry_l:
        c_r = math.sqrt(g * h_r)
        if xi >= u_r + c_r:
            return h_r, u_r
        if xi <= u_r - 2.0 * c_r:
            return 0.0, 0.0
        c = (xi - u_r + 2.0 * c_r) / 3.0
        return c * c / g, xi - c
    if dry_r:
        c_l = math.sqrt(g * h_l)
        if xi <= u_l - c_l:
            return h_l, u_l
        if xi >= u_l + 2.0 * c_l:
            return 0.0, 0.0
        c = (u_l + 2.0 * c_l - xi) / 3.0
        return c * c / g, xi + c

    c_l = math.sqrt(g * h_l)
    c_r = math.sqrt(g * h_r)
    if u_r - u_l >= 2.0 * (c_l + c_r):
        # Two rarefactions pulling apart with a dry patch between them.
        if xi <= u_l - c_l:
            return h_l, u_l
        if xi < u_l + 2.0 * c_l:
            c = (u_l + 2.0 * c_l - xi) / 3.0
            return c * c / g, xi + c
        if xi <= u_r - 2.0 * c_r:
            return 0.0, 0.0
        if xi < u_r + c_r:
            c = (xi - u_r + 2.0 * c_r) / 3.0
            return c * c / g, xi - c
        return h_r, u_r

    h_s = _star_depth(h_l, u_l, h_r, u_r, g)
    u_s = 0.5 * (u_l + u_r) + 0.5 * (
        _wave_function(h_s, h_r, g) - _wave_function(h_s, h_l, g)
    )
    c_s = math.sqrt(g * h_s)

    if xi <= u_s:
        if h_s > h_l:  # left shock
            s_l = u_l - c_l * math.sqrt(0.5 * h_s * (h_s + h_l)) / h_l
            return (h_l, u_l) if xi <= s_l else (h_s, u_s)
        if xi <= u_l - c_l:
            return h_l, u_l
        if xi < u_s - c_s:
            c = (u_l + 2.0 * c_l - xi) / 3.0
            return c * c / g, xi + c
        return h_s, u_s
    if h_s > h_r:  # right shock
        s_r = u_r + c_r * math.sqrt(0.5 * h_s * (h_s + h_r)) / h_r
        return (h_r, u_r) if xi >= s_r else (h_s, u_s)
    if xi >= u_r + c_r:
        return h_r, u_r
    if xi > u_s + c_s:
        c = (xi - u_r + 2.0 * c_r) / 3.0
        return c * c / g, xi - c
    return h_s, u_s


def error_norms(numeric, exact, dx: float):
    """Discrete (L1, L2, Linf) norms of the pointwise error field."""
    e = np.abs(np.asarray(numeric, dtype=np.float64)
               - np.asarray(exact, dtype=np.float64))
    l1 = float(e.sum() * dx)
    l2 = float(math.sqrt(float((e * e).sum() * dx)))
    linf = float(e.max()) if e.size else 0.0
    return l1, l2, linf
