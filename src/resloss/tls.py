"""Weak-field TLS loss model and its power-sweep fit, in plain floats.

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
when asked to. The fit runs without numpy: its projection, solver steps
and covariance all go through one modified Gram-Schmidt solve (``_lstsq``).
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import mul
from typing import Sequence

from .errors import FitFailureError, IllConditionedFitError, Record

# Exact SI values (2019 redefinition of the SI base units).
hbar = 6.62607015e-34 / (2.0 * math.pi)  # J s
k_B = 1.380649e-23  # J/K

# the rules of both least-squares solvers, this module's and s21's
_TOL = 1e-12  # the one stop tolerance, for every fit
_MAX_NFEV = 200  # model evaluations before a solver gives up
_MU_MIN = 1e-12  # damping floor, relative to the unit-scaled J^T J

_BETA = 0.5  # the fixed saturation exponent, and the seed of a free one


def thermal_factor(omega0: float, temperature: float) -> float:
    """Thermal occupation factor tanh(hbar*omega0 / (2*k_B*T))."""
    if not (0.0 < omega0 < math.inf and 0.0 < temperature < math.inf):
        raise ValueError(f"omega0 and temperature must be finite and > 0, "
                         f"got {omega0} and {temperature}")
    return math.tanh(hbar * omega0 / (2.0 * k_B * temperature))


class TlsLossParams(Record, namedtuple("TlsLossParams", [
    "f_tan_delta0",  # zero-power zero-temperature TLS loss, dimensionless
    "n_c",  # critical photon number
    "beta",  # saturation exponent, 0 < beta <= 1
    "q_hp",  # high-power quality factor
    "omega0",  # angular resonance frequency, rad/s
    "temperature",  # K
])):
    """Parameter set of the saturable TLS loss curve."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.f_tan_delta0 >= 0.0 and math.isfinite(self.f_tan_delta0)):
            raise ValueError(f"f_tan_delta0 must be >= 0, got {self.f_tan_delta0}")
        if not self.n_c > 0.0:
            raise ValueError(f"n_c must be > 0, got {self.n_c}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if not self.q_hp > 0.0:
            raise ValueError(f"q_hp must be > 0, got {self.q_hp}")
        for name in ("omega0", "temperature"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        return self

    @property
    def thermal_factor(self) -> float:
        return thermal_factor(self.omega0, self.temperature)


class PowerSweepPoint(Record, namedtuple("PowerSweepPoint", [
    "photons",  # mean photon number n
    "loss", "loss_sigma",
], defaults=(0.0,))):
    """One measured loss point of a photon-number sweep."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= self.photons < math.inf:
            raise ValueError(f"photons must be finite and >= 0, got {self.photons}")
        if not 0.0 < self.loss < math.inf:
            raise ValueError(f"loss must be finite and > 0, got {self.loss}")
        if not 0.0 <= self.loss_sigma < math.inf:
            raise ValueError(f"loss_sigma must be finite and >= 0, got {self.loss_sigma}")
        return self


def tls_loss(photons, params: TlsLossParams):
    """TLS contribution to the loss at mean photon number ``photons``, a float or an array."""
    scalar = isinstance(photons, (int, float))
    if photons < 0.0 if scalar else (photons < 0.0).any():
        raise ValueError("photon number must be >= 0")
    out = params.f_tan_delta0 * params.thermal_factor / (1.0 + photons / params.n_c) ** params.beta
    return float(out) if scalar else out


def total_loss(photons, params: TlsLossParams):
    """Total loss 1/Q_i: saturable TLS term plus the high-power floor."""
    return tls_loss(photons, params) + 1.0 / params.q_hp


class TlsFitResult(namedtuple("TlsFitResult", [
    "params",  # TlsLossParams
    "f_tan_delta0_err", "n_c_err", "q_hp_err", "beta_err",
    "residual_rms",  # RMS of the sigma-normalised loss misfit
    "nfev",  # model evaluations of the solver
    "q_hp_lower_limit",  # one-sided 95% lower limit, 1/(1/q_hp + 1.645 sigma(1/q_hp))
])):
    """Power-sweep fit output with one-sigma parameter uncertainties.

    A floor the sweep does not resolve comes back as q_hp = q_hp_err = inf;
    q_hp_lower_limit then still bounds it from below. When F*tan_delta0 is
    0, n_c_err and (with a free beta) beta_err are inf.
    """

    __slots__ = ()


def _dot(a, b) -> float:
    return sum(map(mul, a, b))


def _lstsq(columns, targets):
    """Least squares by modified Gram-Schmidt (Bjorck, BIT 7, 1 (1967)).

    ``columns`` are the k independent columns of a design A, ``targets``
    right-hand sides b, all of one length; each b is orthogonalised along
    with the columns, which keeps the solve backward stable. Returns R of
    A = QR (k rows), and per target the x minimising ||A x - b|| and b - A x.
    """
    k = len(columns)
    q = [list(c) for c in columns]
    residuals = [list(t) for t in targets]
    R = [[0.0] * k for _ in range(k)]
    z = [[0.0] * k for _ in residuals]  # Q^T b, then x in place
    for j in range(k):
        R[j][j] = norm = math.sqrt(_dot(q[j], q[j]))
        qj = q[j] = [v / norm for v in q[j]]
        for i in range(j + 1, k):
            R[j][i] = c = _dot(qj, q[i])
            q[i] = [a - c * b for a, b in zip(q[i], qj)]
        for zt, v in zip(z, residuals):
            zt[j] = c = _dot(qj, v)
            v[:] = [a - c * b for a, b in zip(v, qj)]
    for x in z:
        for j in reversed(range(k)):
            x[j] = (x[j] - _dot(R[j][j + 1:], x[j + 1:])) / R[j][j]
    return R, z, residuals


def _nonneg_solve(design, target) -> list[float]:
    """Least-squares coefficients >= 0 of a two-column design.

    When the unconstrained solution has a negative coefficient the optimum
    lies on a face of the positive quadrant, so the better of the two
    one-column fits (each clipped at zero) is exact.
    """
    coef = _lstsq(design, [target])[1][0]
    if all(c >= 0.0 for c in coef):
        return coef
    best = None
    for k, col in enumerate(design):
        trial = [0.0, 0.0]
        trial[k] = max(_dot(col, target) / _dot(col, col), 0.0)
        misfit = [trial[k] * v - t for v, t in zip(col, target)]
        if best is None or _dot(misfit, misfit) < best[0]:
            best = (_dot(misfit, misfit), trial)
    return best[1]


class LeastSquaresResult(namedtuple("LeastSquaresResult", [
    "x",  # final parameters
    "fun",  # residuals at x
    "jac",  # Jacobian at x, one row per residual
    "cost",  # 0.5 * sum(fun**2)
    "nfev",  # model evaluations
    "success",  # a stop rule was met within _MAX_NFEV evaluations
])):
    """Outcome of ``least_squares`` here and in ``s21``."""

    __slots__ = ()


def least_squares(model, x0, bounds) -> LeastSquaresResult:
    """``s21.least_squares`` in plain floats, for a few parameters.

    The scaling, damping, bound and stop rules are the same; ``model(x)``
    returns the residuals and the Jacobian as rows. Each damped step y =
    D dx solves [J D^-1; sqrt(mu) I] y = [-r; 0] by ``_lstsq``, which
    never forms J^T J and so needs no fallback when that is ill-conditioned.
    """
    lo, hi = bounds
    x = [min(max(v, a), b) for v, a, b in zip(x0, lo, hi)]
    r, J = model(x)
    nfev = 1
    cost = 0.5 * _dot(r, r)
    scale = [0.0] * len(x)
    mu, nu = 1e-3, 2.0
    success = False
    while not success and nfev < _MAX_NFEV:
        columns = list(zip(*J))
        g = [_dot(c, r) for c in columns]
        scale = [max(d, math.sqrt(_dot(c, c))) for d, c in zip(scale, columns)]
        free = [j for j, (v, d, gj) in enumerate(zip(x, scale, g))
                if d > 0.0 and not (v <= lo[j] and gj > 0.0 or v >= hi[j] and gj < 0.0)]
        if all(abs(g[j]) <= _TOL * scale[j] for j in free):
            success = True
            break
        scaled = [[v / scale[j] for v in columns[j]] for j in free]
        k = len(free)
        rhs = [-v for v in r] + [0.0] * k
        x_norm = math.sqrt(sum((d * v) ** 2 for d, v in zip(scale, x)))
        while nfev < _MAX_NFEV:
            root = math.sqrt(mu)
            damped = [c + [root * (i == j) for i in range(k)] for j, c in enumerate(scaled)]
            step = [0.0] * len(x)
            for j, y in zip(free, _lstsq(damped, [rhs])[1][0]):
                step[j] = y / scale[j]
            trial = [min(max(v + d, a), b) for v, d, a, b in zip(x, step, lo, hi)]
            s = [t - v for t, v in zip(trial, x)]
            r_trial, J_trial = model(trial)
            nfev += 1
            cost_trial = 0.5 * _dot(r_trial, r_trial)
            js = [_dot(row, s) for row in J]
            predicted = -_dot(g, s) - 0.5 * _dot(js, js)
            actual = cost - cost_trial
            ratio = actual / predicted if predicted > 0.0 else -1.0
            success = (
                math.sqrt(sum((d * v) ** 2 for d, v in zip(scale, s))) <= _TOL * (_TOL + x_norm)
                or (abs(actual) <= _TOL * cost and predicted <= _TOL * cost and ratio <= 2.0)
            )
            if ratio > 1e-4:
                x, r, J, cost = trial, r_trial, J_trial, cost_trial
                mu = max(mu * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), _MU_MIN)
                nu = 2.0
                break
            mu, nu = mu * nu, 2.0 * nu
            if success:
                break
    return LeastSquaresResult(x=x, fun=r, jac=J, cost=cost, nfev=nfev, success=success)


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
    n = [p.photons for p in points]
    y = [p.loss for p in points]
    sig = [p.loss_sigma for p in points]

    positive = [v for v in n if v > 0.0]
    if len(positive) < 2:
        raise ValueError("need at least 2 points with nonzero photon number")
    n_lo, n_hi = min(positive), max(positive)
    if n_hi / n_lo < 1e2:
        raise ValueError("points must span at least two decades of photon number")

    unweighted = sig.count(0.0)
    if 0 < unweighted < len(sig):
        raise ValueError(f"loss_sigma is 0 on {unweighted} of {len(sig)} points; "
                         "give every point a sigma or none")
    th = thermal_factor(omega0, temperature)
    s = y if unweighted else sig
    target = [a / b for a, b in zip(y, s)]
    ones = [1.0 / v for v in s]
    # Columns of the full Jacobian: [f_tan_delta0, ln n_c, 1/q_hp, beta?];
    # the solver's parameters u are the nonlinear ones, [ln n_c, beta?].
    linear = [0, 2]
    nonlinear = [1, 3] if free_beta else [1]

    def unpack(u):
        return math.exp(u[0]), (u[1] if free_beta else _BETA)

    def project(u):
        """Residuals, linear coefficients and the full Jacobian's columns at u."""
        nc, b = unpack(u)
        x = [v / nc for v in n]
        design = [[th / (1.0 + v) ** b / w for v, w in zip(x, s)], ones]
        coef = _nonneg_solve(design, target)
        tls = [coef[0] * v for v in design[0]]
        r = [a + coef[1] * c - t for a, c, t in zip(tls, ones, target)]
        cols = [design[0], [b * t * v / (1.0 + v) for t, v in zip(tls, x)], ones]
        if free_beta:
            cols.append([-t * math.log1p(v) for t, v in zip(tls, x)])
        return r, coef, cols

    def model(u):
        # Kaufman (1975): the residuals of one projection, with the nonlinear
        # columns projected orthogonal to the linear columns that are not
        # held at zero.
        r, coef, cols = project(u)
        basis = [cols[k] for k, c in zip(linear, coef) if c > 0.0]
        return r, list(zip(*_lstsq(basis, [cols[k] for k in nonlinear])[2]))

    # Seed: the best of a 25-point ln n_c grid spanning the sampled photon
    # numbers a decade beyond each end.
    ln_lo, ln_hi = math.log(n_lo / 10.0), math.log(n_hi * 10.0)
    starts = [[(ln_lo * (24 - i) + ln_hi * i) / 24] + [_BETA] * free_beta for i in range(25)]
    u0 = min(starts, key=lambda u: sum(v * v for v in project(u)[0]))

    lo = [math.log(n_lo) - 12.0] + [1e-3] * free_beta
    hi = [math.log(n_hi) + 12.0] + [1.0] * free_beta
    res = least_squares(model, u0, bounds=(lo, hi))
    if not res.success:
        raise FitFailureError("power-sweep fit did not converge")

    r, coef, cols = project(res.x)
    ftd_hat, inv_qhp = coef
    # The covariance s^2 (J^T J)^-1 = s^2 R^-1 R^-T, s^2 the residual
    # variance; R^-1 solves R X = I. Without a TLS term the data do not
    # fix n_c or beta.
    fitted = linear if ftd_hat == 0.0 else range(len(cols))
    R = _lstsq([cols[k] for k in fitted], [])[0]
    inverse = _lstsq(list(zip(*R)), [[float(i == j) for j in fitted] for i in fitted])[1]
    s2 = _dot(r, r) / max(len(r) - len(cols), 1)
    err = [math.inf] * len(cols)
    for p, k in enumerate(fitted):
        err[k] = math.sqrt(s2 * sum(column[p] ** 2 for column in inverse))
    inv_qhp_err = err[2]
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
        f_tan_delta0_err=err[0],
        n_c_err=float(nc_hat * err[1]),
        q_hp_err=float(qhp_err),
        beta_err=err[-1] if free_beta else 0.0,
        residual_rms=math.sqrt(_dot(r, r) / len(r)),
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
