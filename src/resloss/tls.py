"""Weak-field TLS loss model and its power-sweep fit.

The total resonator loss tan(delta) = 1/Q_i splits into a power-dependent
TLS term and a power-independent high-power floor 1/Q_HP. The TLS term
saturates with mean photon number n as

    loss_tls(n) = F*tan_delta0 * tanh(hbar*omega0 / (2*k_B*T)) / (1 + n/n_c)^beta

where F*tan_delta0 is the zero-power, zero-temperature TLS loss (filling
factor included), n_c the critical photon number and beta is usually close
to 0.5. Fitting is done in log-loss space because measured losses span
decades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FitFailureError, IllConditionedFitError
from .s21 import hbar, k_B, least_squares, one_sigma_errors

_MAX_ITER = 200
_FTOL = 1e-14


def thermal_factor(omega0: float, temperature: float) -> float:
    """Thermal occupation factor tanh(hbar*omega0 / (2*k_B*T))."""
    if omega0 <= 0.0 or temperature <= 0.0:
        raise ValueError("omega0 and temperature must be > 0")
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

    photons: float  # mean photon number, or n/n_c when the sweep is fractional
    loss: float
    loss_sigma: float = 0.0

    def __post_init__(self):
        if not self.photons >= 0.0:
            raise ValueError(f"photons must be >= 0, got {self.photons}")
        if not self.loss > 0.0:
            raise ValueError(f"loss must be > 0, got {self.loss}")
        if not self.loss_sigma >= 0.0:
            raise ValueError(f"loss_sigma must be >= 0, got {self.loss_sigma}")


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
    """Power-sweep fit output with one-sigma parameter uncertainties."""

    params: TlsLossParams
    f_tan_delta0_err: float
    n_c_err: float
    q_hp_err: float
    beta_err: float
    residual_rms: float  # RMS of log-loss misfit
    n_c_physical: bool  # False when the photon axis was fractional n/n_c
    nfev: int  # model evaluations of the solver, over every restart


def _profile_n_c(n, loss, th, beta, candidates):
    """Best (n_c, f_tan_delta0, 1/q_hp) over a candidate grid.

    At fixed n_c and beta the model is linear in (f_tan_delta0, 1/q_hp),
    so each candidate costs one 2x2 least-squares solve.
    """
    best = None
    logy = np.log(loss)
    for n_c in candidates:
        g = th / (1.0 + n / n_c) ** beta
        design = np.column_stack([g, np.ones_like(g)])
        (a, b), *_ = np.linalg.lstsq(design, loss, rcond=None)
        a = max(a, 0.0)
        b = max(b, 1e-30)
        model = a * g + b
        score = float(np.sum((np.log(model) - logy) ** 2))
        if best is None or score < best[0]:
            best = (score, n_c, a, b)
    _, n_c, a, b = best
    return n_c, a, b


def fit_power_sweep(
    points: Sequence[PowerSweepPoint],
    omega0: float,
    temperature: float,
    *,
    beta: float = 0.5,
    free_beta: bool = False,
    fractional: bool = False,
) -> TlsFitResult:
    """Fit the saturable loss model to a photon-number sweep.

    Weighted nonlinear least squares on log(loss); weights come from the
    per-point uncertainties when every point carries one, otherwise the
    fit is unweighted. The thermal tanh factor is evaluated from
    (omega0, temperature), never fitted. ``beta`` is held fixed unless
    ``free_beta`` is set. With ``fractional`` the photon axis is n/n_c,
    n_c is pinned to 1 and flagged non-physical in the result.

    Raises IllConditionedFitError when the sweep lacks either the
    unsaturated low-power regime or the saturated high-power regime, and
    FitFailureError (carrying the best iterate) on non-convergence.
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

    th = thermal_factor(omega0, temperature)
    # Relative log-space weights; only meaningful when every point has one.
    if np.all(sig > 0.0):
        w = sig / y
    else:
        w = np.ones_like(y)

    fit_n_c = not fractional
    candidates = np.geomspace(n_lo / 10.0, n_hi * 10.0, 25) if fit_n_c else [1.0]
    n_c0, ftd0, b0 = _profile_n_c(n, y, th, beta, candidates)

    # The profiled floor can collapse to zero when the sweep barely reaches
    # saturation; restart from a few floor guesses anchored to the lowest
    # measured loss and keep the best converged fit.
    floor_starts = [0.5 * y.min(), 0.02 * y.min()]
    if b0 > 1e-6 * y.min():
        floor_starts.insert(0, min(b0, y.max()))

    # Parameter layout: [f_tan_delta0, ln n_c?, ln q_hp, beta?]
    lo = [0.0]
    hi = [10.0 * max(y.max() / th, ftd0)]
    scale = [max(ftd0, 0.1 * y.max() / th)]
    if fit_n_c:
        lo.append(math.log(n_lo) - 12.0)
        hi.append(math.log(n_hi) + 12.0)
        scale.append(1.0)
    lo.append(math.log(1.0 / y.max()) - 12.0)
    hi.append(120.0)
    scale.append(1.0)
    if free_beta:
        lo.append(1e-3)
        hi.append(1.0)
        scale.append(0.25)

    def unpack(u):
        ftd = u[0]
        i = 1
        if fit_n_c:
            nc = math.exp(u[i])
            i += 1
        else:
            nc = 1.0
        qhp = math.exp(u[i])
        i += 1
        b = u[i] if free_beta else beta
        return ftd, nc, qhp, b

    logy = np.log(y)

    def residuals(u):
        ftd, nc, qhp, b = unpack(u)
        model = th * ftd / (1.0 + n / nc) ** b + 1.0 / qhp
        return (np.log(model) - logy) / w

    def jacobian(u):
        ftd, nc, qhp, b = unpack(u)
        sat = 1.0 + n / nc
        g = th / sat**b
        tls = ftd * g
        cols = [g]
        if fit_n_c:
            cols.append(b * tls * (n / nc) / sat)
        cols.append(np.full_like(n, -1.0 / qhp))
        if free_beta:
            cols.append(-tls * np.log(sat))
        return np.column_stack(cols) / ((tls + 1.0 / qhp) * w)[:, None]

    res = None
    nfev = 0
    for floor in floor_starts:
        p0 = [ftd0]
        if fit_n_c:
            p0.append(math.log(n_c0))
        p0.append(min(math.log(1.0 / floor), 119.0))
        if free_beta:
            p0.append(beta)
        attempt = least_squares(
            residuals,
            np.asarray(p0),
            jac=jacobian,
            bounds=(np.asarray(lo), np.asarray(hi)),
            x_scale=np.asarray(scale),
            ftol=_FTOL,
            xtol=_FTOL,
            gtol=_FTOL,
            max_nfev=_MAX_ITER * (len(p0) + 1),
        )
        nfev += attempt.nfev
        # A converged attempt beats any non-converged one, whatever its cost.
        if res is None or (attempt.success, -attempt.cost) > (res.success, -res.cost):
            res = attempt
        if res.success and res.cost <= 1e-24:
            break

    ftd_hat, nc_hat, qhp_hat, beta_hat = unpack(res.x)
    result = _build_result(
        res, ftd_hat, nc_hat, qhp_hat, beta_hat, omega0, temperature, fit_n_c, free_beta, nfev
    )
    if not res.success:
        raise FitFailureError("power-sweep fit did not converge", best=result)

    # A critical photon number far outside the sampled range means one
    # saturation regime was never measured and the parameters are
    # degenerate. Skip the check when the TLS term is absent altogether.
    if fit_n_c and ftd_hat * th > 1e-6 / qhp_hat:
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


def _build_result(res, ftd, nc, qhp, beta_hat, omega0, temperature,
                  fit_n_c, free_beta, nfev):
    err = one_sigma_errors(res)

    i = 1
    nc_err = 0.0
    if fit_n_c:
        nc_err = nc * err[i]
        i += 1
    qhp_err = qhp * err[i]
    i += 1
    beta_err = err[i] if free_beta else 0.0

    params = TlsLossParams(
        f_tan_delta0=float(ftd),
        n_c=float(nc),
        beta=float(beta_hat),
        q_hp=float(qhp),
        omega0=float(omega0),
        temperature=float(temperature),
    )
    return TlsFitResult(
        params=params,
        f_tan_delta0_err=float(err[0]),
        n_c_err=float(nc_err),
        q_hp_err=float(qhp_err),
        beta_err=float(beta_err),
        residual_rms=float(np.sqrt(np.mean(res.fun**2))),
        n_c_physical=fit_n_c,
        nfev=int(nfev),
    )
