"""Weak-field TLS loss model and its power-sweep fit.

The total resonator loss tan(delta) = 1/Q_i splits into a power-dependent
TLS term and a power-independent high-power floor 1/Q_HP. The TLS term
saturates with mean photon number n as

    loss_tls(n) = F*tan_delta0 * tanh(hbar*omega0 / (2*k_B*T)) / (1 + n/n_c)^beta

where F*tan_delta0 is the zero-power, zero-temperature TLS loss (filling
factor included), n_c the critical photon number and beta is usually close
to 0.5. n is the mean photon number that ``s21.photon_number`` gives for
each S21 fit, so n_c is always fitted in photons. At fixed (n_c, beta)
the loss is linear in (F*tan_delta0, 1/Q_HP), which the power-sweep fit
solves exactly at every step. The fit holds beta at the
standard-tunneling-model 0.5, or fits it from that start in [0.001, 1]
when asked to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FitFailureError, IllConditionedFitError
from .s21 import hbar, k_B, least_squares, one_sigma_errors

_BETA = 0.5  # the fixed saturation exponent, and the seed of a free one


def thermal_factor(omega0: float, temperature: float) -> float:
    """Thermal occupation factor tanh(hbar*omega0 / (2*k_B*T))."""
    if not (0.0 < omega0 < math.inf and 0.0 < temperature < math.inf):
        raise ValueError(f"omega0 and temperature must be finite and > 0, "
                         f"got {omega0} and {temperature}")
    return math.tanh(hbar * omega0 / (2.0 * k_B * temperature))


@dataclass(frozen=True)
class TlsLossParams:
    """Parameter set of the saturable TLS loss curve."""

    f_tan_delta0: float  # zero-power zero-temperature TLS loss, dimensionless
    n_c: float  # critical photon number
    beta: float  # saturation exponent, 0 < beta <= 1
    q_hp: float  # high-power quality factor
    omega0: float  # angular resonance frequency, rad/s
    temperature: float  # K

    def __post_init__(self):
        if not (self.f_tan_delta0 >= 0.0 and math.isfinite(self.f_tan_delta0)):
            raise ValueError(f"f_tan_delta0 must be >= 0, got {self.f_tan_delta0}")
        if not self.n_c > 0.0:
            raise ValueError(f"n_c must be > 0, got {self.n_c}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if not self.q_hp > 0.0:
            raise ValueError(f"q_hp must be > 0, got {self.q_hp}")
        if not self.omega0 > 0.0:
            raise ValueError(f"omega0 must be > 0, got {self.omega0}")
        if not self.temperature > 0.0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")

    @property
    def thermal_factor(self) -> float:
        return thermal_factor(self.omega0, self.temperature)


@dataclass(frozen=True)
class PowerSweepPoint:
    """One measured loss point of a photon-number sweep."""

    photons: float  # mean photon number n
    loss: float
    loss_sigma: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.photons < math.inf:
            raise ValueError(f"photons must be finite and >= 0, got {self.photons}")
        if not 0.0 < self.loss < math.inf:
            raise ValueError(f"loss must be finite and > 0, got {self.loss}")
        if not 0.0 <= self.loss_sigma < math.inf:
            raise ValueError(f"loss_sigma must be finite and >= 0, got {self.loss_sigma}")


def tls_loss(photons, params: TlsLossParams):
    """TLS contribution to the loss at mean photon number ``photons``."""
    n = np.asarray(photons, dtype=float)
    if np.any(n < 0.0):
        raise ValueError("photon number must be >= 0")
    out = (
        params.f_tan_delta0
        * params.thermal_factor
        / (1.0 + n / params.n_c) ** params.beta
    )
    return float(out) if np.isscalar(photons) else out


def total_loss(photons, params: TlsLossParams):
    """Total loss 1/Q_i: saturable TLS term plus the high-power floor."""
    return tls_loss(photons, params) + 1.0 / params.q_hp


@dataclass(frozen=True)
class TlsFitResult:
    """Power-sweep fit output with one-sigma parameter uncertainties.

    A floor the sweep does not resolve comes back as q_hp = q_hp_err = inf;
    q_hp_lower_limit then still bounds it from below. When F*tan_delta0 is
    0, n_c_err and (with a free beta) beta_err are inf.
    """

    params: TlsLossParams
    f_tan_delta0_err: float
    n_c_err: float
    q_hp_err: float
    beta_err: float
    residual_rms: float  # RMS of the sigma-normalised loss misfit
    nfev: int  # model evaluations of the solver
    q_hp_lower_limit: float  # one-sided 95% lower limit, 1/(1/q_hp + 1.645 sigma(1/q_hp))


def _nonneg_solve(design, target):
    """Least-squares coefficients >= 0 of a two-column design.

    When the unconstrained solution has a negative coefficient the optimum
    lies on a face of the positive quadrant, so the better of the two
    one-column fits (each clipped at zero) is exact.
    """
    coef = np.linalg.lstsq(design, target, rcond=None)[0]
    if np.all(coef >= 0.0):
        return coef
    best = None
    for k in range(2):
        col = design[:, k]
        trial = np.zeros(2)
        trial[k] = max(float(col @ target) / float(col @ col), 0.0)
        cost = float(np.sum((design @ trial - target) ** 2))
        if best is None or cost < best[0]:
            best = (cost, trial)
    return best[1]


def fit_power_sweep(
    points: Sequence[PowerSweepPoint],
    omega0: float,
    temperature: float,
    *,
    free_beta: bool = False,
) -> TlsFitResult:
    """Fit the saturable loss model to a photon-number sweep.

    Weighted least squares on the loss itself, by variable projection
    (Golub & Pereyra 1973): at fixed (n_c, beta) the model is linear in
    (F*tan_delta0, 1/q_hp), which an exact non-negative solve supplies at
    every evaluation, so the solver only sees ln n_c and, when free, beta.
    Residuals are divided by the per-point uncertainties when every point
    carries one, or by the measured loss (a relative misfit) when none
    does; a sweep with some of each is refused. The thermal tanh factor is
    evaluated from (omega0, temperature), never fitted. beta is held at
    0.5 unless ``free_beta`` is set.

    Raises ValueError for too few points, too narrow a span or a partly
    weighted sweep, IllConditionedFitError when the sweep lacks either the
    unsaturated low-power regime or the saturated high-power regime, and
    FitFailureError on non-convergence.
    """
    if len(points) < 5:
        raise ValueError(f"need at least 5 points, got {len(points)}")
    n = np.array([p.photons for p in points])
    y = np.array([p.loss for p in points])
    sig = np.array([p.loss_sigma for p in points])

    positive = n[n > 0.0]
    if positive.size < 2:
        raise ValueError("need at least 2 points with nonzero photon number")
    n_lo, n_hi = positive.min(), positive.max()
    if n_hi / n_lo < 1e2:
        raise ValueError("points must span at least two decades of photon number")

    weighted = sig > 0.0
    if weighted.any() and not weighted.all():
        raise ValueError(f"loss_sigma is 0 on {np.sum(~weighted)} of {sig.size} points; "
                         "give every point a sigma or none")
    th = thermal_factor(omega0, temperature)
    s = sig if weighted.all() else y
    target = y / s
    # Columns of the full Jacobian: [f_tan_delta0, ln n_c, 1/q_hp, beta?];
    # the solver's parameters u are the nonlinear ones, [ln n_c, beta?].
    linear = [0, 2]
    nonlinear = [1, 3] if free_beta else [1]

    def unpack(u):
        return math.exp(u[0]), (u[1] if free_beta else _BETA)

    def project(u):
        """Residuals, linear coefficients and full Jacobian at u."""
        nc, b = unpack(u)
        x = n / nc
        design = np.column_stack([th / (1.0 + x) ** b, np.ones_like(x)]) / s[:, None]
        coef = _nonneg_solve(design, target)
        tls = coef[0] * design[:, 0]
        cols = [design[:, 0], b * tls * x / (1.0 + x), design[:, 1]]
        if free_beta:
            cols.append(-tls * np.log1p(x))
        return design @ coef - target, coef, np.column_stack(cols)

    def model(u):
        # Kaufman (1975): the residuals of one projection, with the nonlinear
        # columns projected orthogonal to the linear columns that are not
        # held at zero.
        r, coef, jac = project(u)
        basis = jac[:, linear][:, coef > 0.0]
        varying = jac[:, nonlinear]
        return r, varying - basis @ np.linalg.lstsq(basis, varying, rcond=None)[0]

    # Seed: the best of a 25-point ln n_c grid spanning the sampled photon
    # numbers a decade beyond each end.
    starts = np.log(np.geomspace(n_lo / 10.0, n_hi * 10.0, 25))[:, None]
    if free_beta:
        starts = np.column_stack([starts, np.full(len(starts), _BETA)])
    u0 = min(starts, key=lambda u: float(np.sum(project(u)[0] ** 2)))

    lo = [math.log(n_lo) - 12.0] + ([1e-3] if free_beta else [])
    hi = [math.log(n_hi) + 12.0] + ([1.0] if free_beta else [])
    res = least_squares(model, u0, bounds=(np.asarray(lo), np.asarray(hi)))
    if not res.success:
        raise FitFailureError("power-sweep fit did not converge")

    r, coef, jac = project(res.x)
    err = one_sigma_errors(jac, r)
    ftd_hat, inv_qhp = coef
    if ftd_hat == 0.0:
        err[nonlinear] = math.inf  # without a TLS term the data do not fix n_c or beta
    inv_qhp_err = float(err[2])
    nc_hat, beta_hat = unpack(res.x)
    if inv_qhp > 0.0:
        qhp_hat, qhp_err = 1.0 / inv_qhp, inv_qhp_err / inv_qhp**2
    else:
        qhp_hat, qhp_err = math.inf, math.inf
    bound = inv_qhp + 1.645 * inv_qhp_err
    result = TlsFitResult(
        params=TlsLossParams(
            f_tan_delta0=float(ftd_hat),
            n_c=float(nc_hat),
            beta=float(beta_hat),
            q_hp=float(qhp_hat),
            omega0=float(omega0),
            temperature=float(temperature),
        ),
        f_tan_delta0_err=float(err[0]),
        n_c_err=float(nc_hat * err[1]),
        q_hp_err=float(qhp_err),
        beta_err=float(err[-1]) if free_beta else 0.0,
        residual_rms=float(np.sqrt(np.mean(r**2))),
        nfev=int(res.nfev),
        q_hp_lower_limit=float(1.0 / bound) if bound > 0.0 else math.inf,
    )

    # A critical photon number far outside the sampled range means one
    # saturation regime was never measured and the parameters are
    # degenerate. Skip the check when the TLS term is absent altogether.
    if ftd_hat * th > 1e-6 * inv_qhp:
        if nc_hat < n_lo / 10.0:
            raise IllConditionedFitError(
                "all points lie in the TLS-saturated regime; the low-power "
                "plateau is missing",
                missing_regime="low-power",
            )
        if nc_hat > n_hi * 10.0:
            raise IllConditionedFitError(
                "all points lie in the TLS-dominated regime; the saturated "
                "high-power regime is missing",
                missing_regime="high-power",
            )
    return result
