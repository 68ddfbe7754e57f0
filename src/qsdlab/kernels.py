"""Closed-form transition kernels for the Bessel family.

The entrance-type process with index +nu >= 1 and the absorbed process with
index -nu share the modified Bessel function I_nu; both kernels below are
densities with respect to the same reference measure

    m(dy) = 2 y^(2 nu + 1) dy

so that the h-transform identity p_minus(t,x,y) = (x/y)^(2 nu) p_plus(t,x,y)
is an algebraic statement between comparable objects.  Everything is
evaluated in log space and exponentiated once at the end, so the Gaussian
factors and I_nu never overflow individually.
"""

from __future__ import annotations

import math

import numpy as np

# power-series cutoff: below it a 91-term series reaches 16-digit accuracy,
# above it the large-argument expansion with four corrections takes over
_SWITCH_Z = 30.0
_SERIES_TERMS = 91


def log_iv(nu: float, z) -> np.ndarray | float:
    """log I_nu(z) for nu > 0 and z >= 0 (elementwise on arrays).

    Series branch (z <= 30): log-sum-exp of the ascending series terms
    (z/2)^(2k+nu) / (k! Gamma(k+nu+1)).  Asymptotic branch (z > 30):
    z - log sqrt(2 pi z) plus the first four large-argument corrections.
    For half-integer nu the correction series terminates, so that branch is
    exact to rounding; for other indices the first omitted term leaves a
    relative error of order 2e-8 at the switchover, shrinking like z^-5.
    """
    if not nu > 0:
        raise ValueError(f"log_iv expects a positive index, got nu={nu}")
    scalar = np.isscalar(z)
    za = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(za < 0):
        raise ValueError("log_iv expects nonnegative arguments")
    out = np.empty_like(za)

    small = za <= _SWITCH_Z
    if np.any(small):
        zs = za[small]
        k = np.arange(_SERIES_TERMS)
        lg_k = np.array([math.lgamma(j + 1.0) for j in range(_SERIES_TERMS)])
        lg_nu = np.array([math.lgamma(j + 1.0 + nu)
                          for j in range(_SERIES_TERMS)])
        with np.errstate(divide="ignore", invalid="ignore"):
            lt = ((2.0 * k[None, :] + nu) * np.log(0.5 * zs)[:, None]
                  - lg_k[None, :] - lg_nu[None, :])
            peak = lt.max(axis=1)
            val = peak + np.log(np.exp(lt - peak[:, None]).sum(axis=1))
        out[small] = np.where(np.isfinite(peak), val, -np.inf)

    large = ~small
    if np.any(large):
        zl = za[large]
        m4 = 4.0 * nu * nu
        c1 = m4 - 1.0
        c2 = m4 - 9.0
        c3 = m4 - 25.0
        c4 = m4 - 49.0
        e = 8.0 * zl
        corr = (1.0 - c1 / e + c1 * c2 / (2.0 * e ** 2)
                - c1 * c2 * c3 / (6.0 * e ** 3)
                + c1 * c2 * c3 * c4 / (24.0 * e ** 4))
        out[large] = zl - 0.5 * np.log(2.0 * np.pi * zl) + np.log(corr)

    return float(out[0]) if scalar else out


def _check_positive(t, x, y):
    if np.any(np.asarray(t) <= 0) or np.any(np.asarray(x) <= 0) \
            or np.any(np.asarray(y) <= 0):
        raise ValueError("kernel arguments t, x, y must be positive")


def bessel_kernel_plus(nu: float, t, x, y):
    """Transition density of the index +nu process w.r.t. m(dy) = 2 y^(2nu+1) dy:

        (1 / 2t) (x y)^(-nu) exp(-(x^2+y^2)/2t) I_nu(x y / t)

    Symmetric in (x, y).
    """
    _check_positive(t, x, y)
    t, x, y = np.asarray(t, float), np.asarray(x, float), np.asarray(y, float)
    lg = (-np.log(2.0 * t) - nu * (np.log(x) + np.log(y))
          - (x ** 2 + y ** 2) / (2.0 * t) + log_iv(nu, x * y / t))
    return np.exp(lg)


def bessel_kernel(nu: float, t, x, y):
    """Sub-Markov transition density of the absorbed index -nu process
    (killed at 0) w.r.t. the same measure m(dy) = 2 y^(2nu+1) dy:

        (1 / 2t) x^nu y^(-3nu) exp(-(x^2+y^2)/2t) I_nu(x y / t)

    Requires nu >= 1 (the singular-absorption range).
    """
    if nu < 1.0:
        raise ValueError(f"bessel_kernel expects index magnitude >= 1, got {nu}")
    _check_positive(t, x, y)
    t, x, y = np.asarray(t, float), np.asarray(x, float), np.asarray(y, float)
    lg = (-np.log(2.0 * t) + nu * np.log(x) - 3.0 * nu * np.log(y)
          - (x ** 2 + y ** 2) / (2.0 * t) + log_iv(nu, x * y / t))
    return np.exp(lg)


def bessel_transition_lebesgue(nu: float, t, x, y):
    """Lebesgue-density form of `bessel_kernel`: the density of
    P_x(X_t in dy, not yet absorbed) w.r.t. dy,

        (1 / t) x^nu y^(1-nu) exp(-(x^2+y^2)/2t) I_nu(x y / t).

    This is what a histogram of surviving simulated paths estimates.
    """
    if nu < 1.0:
        raise ValueError(f"bessel_transition_lebesgue expects index magnitude >= 1, got {nu}")
    _check_positive(t, x, y)
    t, x, y = np.asarray(t, float), np.asarray(x, float), np.asarray(y, float)
    lg = (-np.log(t) + nu * np.log(x) + (1.0 - nu) * np.log(y)
          - (x ** 2 + y ** 2) / (2.0 * t) + log_iv(nu, x * y / t))
    return np.exp(lg)
