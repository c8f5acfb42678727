"""Complex transmission sweeps and the joint calibration-resonance fit.

A side-coupled resonator shows up in inverse transmission as

    1/S21(f) = 1 + (Q_i/Q_c) * exp(i*phi) / (1 + 2i*Q_i*(f - f0)/f0)

which traces a circle of diameter Q_i/Q_c in the complex plane. The
circle and the width of the transmission dip give deterministic initial
guesses. The fit itself is done in transmission space, where
measurement noise is additive, with the cable delay and the complex
baseline fitted alongside the resonance.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

import numpy as np

from . import tls
from .errors import FitFailureError, OutOfSpanError, Record
from .tls import LeastSquaresResult, hbar, k_B

TWO_PI = 2.0 * math.pi

_COND_MAX = 1e8  # above this condition number of J^T J, steps come from the SVD of J
_EDGE_FRACTION = 0.05  # per side; the outer 10% of points are off-resonant


class ComplexSweep(Record, namedtuple("ComplexSweep", [
    "frequencies",  # Hz, positive and strictly increasing
    "s21",  # complex transmission
    "power",  # W, at the device reference plane
    "temperature",  # K
])):
    """One frequency sweep of complex transmission at fixed power and T.

    The arrays are read-only copies of the ones given.
    """

    __slots__ = ()

    def __new__(cls, frequencies, s21, power, temperature):
        f = np.asarray(frequencies, dtype=float)
        z = np.asarray(s21, dtype=complex)
        if f.ndim != 1 or z.shape != f.shape:
            raise ValueError("frequencies and s21 must be 1-D arrays of equal length")
        if f.size < 16:
            raise ValueError(f"need at least 16 samples, got {f.size}")
        if not np.all(np.diff(f) > 0.0):
            raise ValueError("frequencies must be strictly increasing")
        if not (
            np.all(np.isfinite(f))
            and np.all(np.isfinite(z.real))
            and np.all(np.isfinite(z.imag))
        ):
            raise ValueError("sweep contains non-finite samples")
        if not f[0] > 0.0:
            raise ValueError(f"frequencies must be > 0, got {f[0]}")
        for name, value in (("power", power), ("temperature", temperature)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        f = f.copy()
        z = z.copy()
        f.setflags(write=False)
        z.setflags(write=False)
        return super().__new__(cls, f, z, power, temperature)


class ResonatorFitResult(namedtuple("ResonatorFitResult", [
    "f0",  # Hz
    "q_i", "q_c",
    "phi",  # rad, impedance-mismatch rotation of the coupling term
    "f0_err", "q_i_err", "q_c_err", "phi_err",
    "residual_rms",  # RMS of the complex transmission misfit
    "nfev",  # model evaluations of the solver
])):
    """Fitted resonance parameters with one-sigma uncertainties."""

    __slots__ = ()

    @property
    def loss(self) -> float:
        """Internal loss tan(delta) = 1/Q_i."""
        return 1.0 / self.q_i

    @property
    def loss_err(self) -> float:
        return self.q_i_err / self.q_i**2


def inverse_s21_model(f, f0: float, q_i: float, q_c: float, phi: float):
    """Inverse transmission of a side-coupled resonator.

    Equals 1 + Q_i/Q_c on resonance at phi = 0 and tends to 1 far off
    resonance.
    """
    if f0 <= 0.0 or q_i <= 0.0 or q_c <= 0.0:
        raise ValueError("f0, q_i and q_c must be > 0")
    x = (np.asarray(f, dtype=float) - f0) / f0
    out = 1.0 + (q_i / q_c) * np.exp(1j * phi) / (1.0 + 2j * q_i * x)
    return complex(out) if np.isscalar(f) else out


def photon_number(power: float, f0: float, q_i: float, q_c: float) -> float:
    """Mean intracavity photon number for a side-coupled resonator.

    Standard side-coupled convention: n = 2 * Q_l^2 * P / (Q_c * hbar * omega0^2)
    with Q_l the loaded quality factor and P the power at the device plane.
    """
    if power <= 0.0 or f0 <= 0.0 or q_i <= 0.0 or q_c <= 0.0:
        raise ValueError("all arguments must be > 0")
    q_l = 1.0 / (1.0 / q_i + 1.0 / q_c)
    omega0 = TWO_PI * f0
    return 2.0 * q_l**2 * power / (q_c * hbar * omega0**2)


def fit_circle(z: np.ndarray) -> tuple[complex, float]:
    """Algebraic least-squares circle through complex points.

    Returns (center, radius). Exact for noise-free circles; used to seed
    the resonance fit.
    """
    x = np.real(z)
    y = np.imag(z)
    design = np.column_stack([x, y, np.ones_like(x)])
    rhs = -(x**2 + y**2)
    (d, e, f_coef), *_ = np.linalg.lstsq(design, rhs, rcond=None)
    cx = -d / 2.0
    cy = -e / 2.0
    r2 = cx**2 + cy**2 - f_coef
    radius = math.sqrt(r2) if r2 > 0.0 else 0.0
    return complex(cx, cy), radius


def _edge_mask(n: int) -> np.ndarray:
    k = max(2, int(round(_EDGE_FRACTION * n)))
    mask = np.zeros(n, dtype=bool)
    mask[:k] = True
    mask[-k:] = True
    return mask


def _estimate_delay(f: np.ndarray, z: np.ndarray, baseline: complex | None = None) -> float:
    """Cable delay from the off-resonant phase slope of the sweep edges.

    The estimate carries a small bias from the resonance phase tails,
    which shrinks with the square of the span-to-linewidth ratio; it only
    seeds the joint fit, which removes the bias. A known baseline pins
    the absolute phase, which fixes the delay modulo 1/f; the estimate is
    then moved to the branch nearest the slope.
    """
    mask = _edge_mask(f.size)
    phase = np.unwrap(np.angle(z))[mask]
    fe = f[mask]
    fc = fe.mean()
    slope = np.polyfit(fe - fc, phase, 1)[0]
    delay = -slope / TWO_PI
    if baseline is not None:
        offset = np.mean(z[mask] * np.exp(2j * math.pi * fe * delay)) / baseline
        delay -= float(np.angle(offset)) / (TWO_PI * fc)
    return delay


def _estimate_baseline(f: np.ndarray, z: np.ndarray) -> complex:
    """Off-resonant level from the mean magnitude and phase of the edges."""
    edges = z[_edge_mask(f.size)]
    mag = float(np.mean(np.abs(edges)))
    direction = np.mean(edges / np.abs(edges))
    phase = float(np.angle(direction)) if direction != 0 else 0.0
    return mag * complex(math.cos(phase), math.sin(phase))


def _initial_guess(f: np.ndarray, z_inv: np.ndarray) -> tuple[float, float, float, float]:
    """Deterministic starting point (f0, q_i, q_c, phi) of a calibrated sweep.

    The circle through 1/S21 gives K = (Q_i/Q_c)*exp(i*phi). The dip
    |1 - S21| = |K| / |1 + K + 2i*Q_i*x| has the loaded width
    f0*|1 + Re K|/Q_i at 1/sqrt(2) of its peak, which even strongly
    overcoupled sweeps resolve. Its peak sits up to about tan(phi)/2
    loaded linewidths off f0, an offset the fit removes.
    """
    center, radius = fit_circle(z_inv)
    diameter = 2.0 * radius
    phi = float(np.angle(center - 1.0)) if center != 1.0 else 0.0

    dip = np.abs(1.0 - 1.0 / z_inv)
    i0 = int(np.argmax(dip))
    f0 = float(f[i0])
    level = dip[i0] / math.sqrt(2.0)
    f_lo = f[0]
    for i in range(i0, 0, -1):
        if dip[i - 1] <= level:
            frac = (dip[i] - level) / (dip[i] - dip[i - 1])
            f_lo = f[i] + frac * (f[i - 1] - f[i])
            break
    f_hi = f[-1]
    for i in range(i0, f.size - 1):
        if dip[i + 1] <= level:
            frac = (dip[i] - level) / (dip[i] - dip[i + 1])
            f_hi = f[i] + frac * (f[i + 1] - f[i])
            break
    width = max(f_hi - f_lo, (f[-1] - f[0]) / (f.size - 1))
    q_i = f0 * abs(1.0 + diameter * math.cos(phi)) / width
    q_c = q_i / diameter if diameter > 0.0 else q_i
    return f0, q_i, q_c, phi


def _model_and_jacobian(p, f):
    f0, q_i, q_c, phi = p
    x = (f - f0) / f0
    denom = 1.0 + 2j * q_i * x
    coupling = (q_i / q_c) * np.exp(1j * phi)
    term = coupling / denom
    model = 1.0 + term
    d_f0 = term / denom * 2j * q_i * f / f0**2
    d_qi = term / q_i - term / denom * 2j * x
    d_qc = -term / q_c
    d_phi = 1j * term
    return model, (d_f0, d_qi, d_qc, d_phi)


def calibrate_and_fit(
    sweep: ComplexSweep,
    delay: float | None = None,
    baseline: complex | None = None,
) -> tuple[ResonatorFitResult, float, complex]:
    """Fit the resonance and the calibration of a raw sweep in one solve.

    The raw trace is modeled as baseline * exp(-2i*pi*f*delay) * S21.
    A delay or baseline passed in is held fixed; the others are fitted
    together with f0, Q_i, Q_c and phi, seeded from the phase slope and
    mean level of the outer 10% of points. The residual is the complex
    misfit of the dressed model to the raw trace, where additive noise is
    white, so the fit is maximum likelihood for it. The covariance covers
    every free parameter, so the quoted resonance errors include the
    calibration uncertainty. Returns (fit, delay, baseline).

    Raises FitFailureError when no resonance feature is present or the
    iteration cap is hit, and OutOfSpanError when the resonance converges
    onto the edge of the swept range.
    """
    f = sweep.frequencies
    z = sweep.s21
    if delay is not None and not math.isfinite(delay):
        raise ValueError(f"delay must be finite, got {delay}")
    if baseline is not None and not (cmath.isfinite(baseline) and baseline != 0):
        raise ValueError(f"baseline must be finite and nonzero, got {baseline}")
    if np.any(z == 0):
        raise FitFailureError("transmission contains exact zeros; cannot invert")
    delay_0 = _estimate_delay(f, z, baseline) if delay is None else float(delay)
    z_cal = z * np.exp(2j * math.pi * f * delay_0)
    baseline_0 = _estimate_baseline(f, z_cal) if baseline is None else complex(baseline)
    z_inv = baseline_0 / z_cal

    dist = np.abs(z_inv - 1.0)
    spread = float(dist.max() - dist.min())
    middle = [(z.size - 1) // 2, z.size // 2]  # np.median's middle pair, without numpy.ma
    if spread < 1e-6 * max(1.0, float(np.partition(np.abs(z_inv), middle)[middle].mean())):
        raise FitFailureError("no resonance feature detected in the sweep")

    f0_0, qi_0, qc_0, phi_0 = _initial_guess(f, z_inv)
    # Q_i and Q_c are fitted as logarithms: on overcoupled sweeps Q_i
    # spans decades within its error, and the log keeps the steps even.
    p0 = [
        min(max(f0_0, float(f[0])), float(f[-1])),
        math.log(min(max(qi_0, 1.0), 1e12)),
        math.log(min(max(qc_0, 1.0), 1e12)),
        min(max(phi_0, -math.pi), math.pi),
    ]
    lower = [f[0], 0.0, 0.0, -math.pi]
    upper = [f[-1], math.log(1e12), math.log(1e12), math.pi]
    # A free baseline is referred to the centre f_c of the span, where it
    # is nearly uncorrelated with the delay; referred to f = 0 the two
    # trade off almost exactly, since f varies by only a few linewidths.
    f_c = 0.5 * (f[0] + f[-1]) if baseline is None else 0.0
    f_ref = f - f_c
    if delay is None:
        p0.append(delay_0)
    if baseline is None:
        b_ref = baseline_0 * cmath.exp(-2j * math.pi * f_c * delay_0)
        p0 += [math.log(abs(b_ref)), cmath.phase(b_ref)]
    lower += [-np.inf] * (len(p0) - 4)
    upper += [np.inf] * (len(p0) - 4)

    def dressing(p):
        """(delay, baseline referred to f_ref)."""
        tau = p[4] if delay is None else delay_0
        b = cmath.exp(complex(p[-2], p[-1])) if baseline is None else baseline_0
        return tau, b

    def model(p):
        """Residuals and Jacobian of the dressed model at p."""
        tau, b = dressing(p)
        q_i, q_c = math.exp(p[1]), math.exp(p[2])
        inv, (d_f0, d_qi, d_qc, d_phi) = _model_and_jacobian((p[0], q_i, q_c, p[3]), f)
        s = b * np.exp(-2j * math.pi * f_ref * tau) / inv
        u = -s / inv
        cols = [u * d_f0, u * (q_i * d_qi), u * (q_c * d_qc), u * d_phi]
        if delay is None:
            cols.append(-2j * math.pi * f_ref * s)
        if baseline is None:
            cols += [s, 1j * s]
        cols = np.column_stack(cols)
        diff = s - z
        return np.concatenate([diff.real, diff.imag]), np.concatenate([cols.real, cols.imag])

    res = least_squares(model, np.array(p0), bounds=(lower, upper))
    if not res.success:
        raise FitFailureError("resonance fit did not converge within the iteration cap")
    result = _build_result(res, f.size)
    edge = (f[-1] - f[0]) * 1e-9
    if result.f0 <= f[0] + edge or result.f0 >= f[-1] - edge:
        raise OutOfSpanError(
            f"fitted resonance {result.f0:.6g} Hz sits at the edge of the "
            f"swept range [{f[0]:.6g}, {f[-1]:.6g}] Hz"
        )
    tau, b = dressing(res.x)
    return result, float(tau), complex(b * cmath.exp(2j * math.pi * f_c * tau))


def least_squares(model, x0, bounds=(-np.inf, np.inf)) -> LeastSquaresResult:
    """Minimize 0.5*||r(x)||^2 within box bounds by Levenberg-Marquardt.

    ``model(x)`` returns the residuals r and their Jacobian J at x; it is
    called once per trial point, and the Jacobian of an accepted trial is
    the one the next step uses. Each step solves (J^T J + mu*D^2) dx =
    -J^T r (Marquardt 1963; More, Lecture Notes in Mathematics 630, 1978).
    D is the running maximum of the Jacobian's column norms, so the step
    does not depend on the units of the parameters. The system is solved
    through the eigendecomposition of the scaled J^T J, or through the SVD
    of the scaled Jacobian when J^T J is too ill-conditioned to keep its
    small eigenvalues. The damping mu follows the gain ratio of actual to
    predicted cost reduction (Nielsen 1999). A step that leaves the box is
    clipped onto it, and a parameter held at a bound by its gradient is
    left out of the step.

    Every fit runs at one fixed tolerance, tol = ``tls._TOL``, which drives
    three stop rules, each a success: the scaled gradient max_j
    |(J^T r)_j| / D_j is <= tol; the actual and the predicted relative
    cost reductions of a step are both <= tol; or the scaled step ||D dx||
    is <= tol * (tol + ||D x||). A tighter tol sits at the rounding floor
    of the cost and only adds evaluations. Returns success=False, at the
    best point found, when ``tls._MAX_NFEV`` model evaluations pass first.
    """
    tol, max_nfev = tls._TOL, tls._MAX_NFEV
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), np.shape(x0)) for b in bounds)
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r, J = model(x)
    nfev = 1
    cost = 0.5 * float(r @ r)
    scale = np.zeros(x.size)
    mu, nu = 1e-3, 2.0
    success = False
    while not success and nfev < max_nfev:
        A = J.T @ J
        g = J.T @ r
        scale = np.maximum(scale, np.sqrt(np.diag(A)))
        free = (scale > 0.0) & ~(((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0)))
        if np.all(np.abs(g[free]) <= tol * scale[free]):
            success = True
            break
        d = scale[free]
        lam, V = np.linalg.eigh(A[np.ix_(free, free)] / np.outer(d, d))
        if lam[0] > lam[-1] / _COND_MAX:
            coef = V.T @ (-g[free] / d)
        else:
            # J^T J has lost the small singular values of J to rounding;
            # the SVD of the scaled Jacobian keeps them.
            u, sv, vt = np.linalg.svd(J[:, free] / d, full_matrices=False)
            V, lam, coef = vt.T, sv**2, -sv * (u.T @ r)
        x_norm = math.sqrt(float(np.sum((scale * x) ** 2)))
        while nfev < max_nfev:
            step = np.zeros(x.size)
            step[free] = V @ (coef / (lam + mu)) / d
            trial = np.clip(x + step, lo, hi)
            s = trial - x
            r_trial, J_trial = model(trial)
            nfev += 1
            cost_trial = 0.5 * float(r_trial @ r_trial)
            js = J @ s
            predicted = -float(g @ s) - 0.5 * float(js @ js)
            actual = cost - cost_trial
            ratio = actual / predicted if predicted > 0.0 else -1.0
            success = (
                math.sqrt(float(np.sum((scale * s) ** 2))) <= tol * (tol + x_norm)
                or (abs(actual) <= tol * cost and predicted <= tol * cost and ratio <= 2.0)
            )
            if ratio > 1e-4:
                x, r, J, cost = trial, r_trial, J_trial, cost_trial
                mu = max(mu * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), tls._MU_MIN)
                nu = 2.0
                break
            mu, nu = mu * nu, 2.0 * nu
            if success:
                break
    return LeastSquaresResult(x=x, fun=r, jac=J, cost=cost, nfev=nfev, success=success)


def one_sigma_errors(jac: np.ndarray, fun: np.ndarray) -> np.ndarray:
    """One-sigma errors of the parameters from the Jacobian and residuals.

    The covariance is s^2 (J^T J)^-1 with s^2 the residual variance.
    Columns are normalized before the inversion: parameters such as f0
    and the delay sit many decades away from the dimensionless ones, and
    the unscaled J^T J can be too ill-conditioned to invert.
    """
    norms = np.linalg.norm(jac, axis=0)
    norms[norms == 0.0] = 1.0
    scaled = jac / norms
    dof = max(fun.size - jac.shape[1], 1)
    s2 = float(fun @ fun) / dof
    cov = np.linalg.pinv(scaled.T @ scaled) / np.outer(norms, norms) * s2
    return np.sqrt(np.maximum(np.diag(cov), 0.0))


def _build_result(res, n: int) -> ResonatorFitResult:
    err = one_sigma_errors(res.jac, res.fun)
    q_i = math.exp(res.x[1])
    q_c = math.exp(res.x[2])
    return ResonatorFitResult(
        f0=float(res.x[0]),
        q_i=q_i,
        q_c=q_c,
        phi=float(res.x[3]),
        f0_err=float(err[0]),
        q_i_err=q_i * float(err[1]),
        q_c_err=q_c * float(err[2]),
        phi_err=float(err[3]),
        residual_rms=float(np.sqrt(2.0 * res.cost / n)),
        nfev=int(res.nfev),
    )
