"""The two Levenberg-Marquardt solvers, with scipy's trf method as oracle.

scipy is a test-only dependency: the oracle scans rebind the
``least_squares`` name that ``resloss.s21`` and ``resloss.tls`` call
to an adaptor over ``scipy.optimize.least_squares(method="trf")`` and
refit the same sweeps, so both solvers see the same residuals, Jacobians,
bounds and Jacobian-norm scaling. The oracle runs at tolerances of 1e-14
and 600 evaluations, tighter than the solvers' fixed 1e-12 and 200.
"""

import math

import numpy as np
import pytest
import scipy.optimize

import resloss.s21 as s21
import resloss.tls as tls
from helpers import resonator_truth, three_device_truths
from resloss import (
    FitFailureError,
    IllConditionedFitError,
    calibrate_and_fit,
    fit_power_sweep,
    generate_power_sweep,
    generate_s21_sweep,
)
from resloss.s21 import least_squares

SIGMA_TOL = 1e-3  # largest solver difference, in units of the oracle's one-sigma error


def trf(model, x0, bounds):
    # Both solvers always scale by the Jacobian's column norms.
    return scipy.optimize.least_squares(
        lambda x: model(x)[0], x0, jac=lambda x: model(x)[1], bounds=bounds,
        ftol=1e-14, xtol=1e-14, gtol=1e-14, max_nfev=600, method="trf", x_scale="jac")


class TestSolver:
    def test_linear_problem_matches_lstsq(self):
        u = np.linspace(0.0, 1.0, 40)
        x = np.column_stack([np.ones_like(u), 1e6 * u, np.cos(5 * u)])
        y = x @ np.array([1.0, 2e-6, -0.5]) + 1e-3 * np.sin(17 * u)
        res = least_squares(lambda p: (x @ p - y, x), np.zeros(3))
        expected = np.linalg.lstsq(x, y, rcond=None)[0]
        assert res.success
        np.testing.assert_allclose(res.x, expected, rtol=1e-10)
        assert res.cost == pytest.approx(0.5 * np.sum(res.fun**2), rel=1e-15)
        np.testing.assert_array_equal(res.jac, x)

    # Two 2-parameter problems, each solved by the S21 fit's numpy solver and
    # by the TLS fit's float solver, which must take the same path.
    @staticmethod
    def bounded(p):
        # unconstrained minimum at (2, -1); the box caps the first at 1.5
        return (np.array([p[0] - 2.0, p[1] + 1.0, 0.1 * p[0] * p[1]]),
                np.array([[1.0, 0.0], [0.0, 1.0], [0.1 * p[1], 0.1 * p[0]]]))

    @staticmethod
    def rosenbrock(p):
        return (np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]]),
                np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]]))

    @staticmethod
    def both_solvers(model, x0, bounds):
        arrays = least_squares(model, np.array(x0), bounds=bounds)
        floats = tls.least_squares(model, x0, bounds)
        assert (floats.success, floats.nfev) == (arrays.success, arrays.nfev)
        np.testing.assert_allclose(floats.x, arrays.x, rtol=1e-12)
        return arrays

    def test_bound_holds_a_parameter(self):
        res = self.both_solvers(self.bounded, [0.0, 0.0], ([-5.0, -5.0], [1.5, 5.0]))
        assert res.success
        assert res.x[0] == 1.5
        # with p0 held, p1 minimizes (p1 + 1)^2 + (0.15 p1)^2
        assert res.x[1] == pytest.approx(-1.0 / 1.0225, rel=1e-7)

    def test_evaluation_cap_reports_failure(self, monkeypatch):
        unbounded = ([-math.inf] * 2, [math.inf] * 2)
        with monkeypatch.context() as patch:
            patch.setattr(tls, "_MAX_NFEV", 3)  # the one cap of both solvers
            capped = self.both_solvers(self.rosenbrock, [-1.2, 1.0], unbounded)
        assert not capped.success
        assert capped.nfev == 3
        full = self.both_solvers(self.rosenbrock, [-1.2, 1.0], unbounded)
        assert full.success
        np.testing.assert_allclose(full.x, [1.0, 1.0], rtol=1e-10)
        assert capped.cost > full.cost


def assert_same_resonance(fit, ref):
    for name in ("f0", "q_i", "q_c", "phi"):
        deviation = abs(getattr(fit, name) - getattr(ref, name)) / getattr(ref, f"{name}_err")
        assert deviation <= SIGMA_TOL, (name, deviation)
    assert fit.q_i_err == pytest.approx(ref.q_i_err, rel=1e-4)


class TestS21AgainstTrf:
    @pytest.mark.parametrize("device", ["ppc", "idc", "cpw"])
    def test_three_device_sweeps(self, device, monkeypatch):
        # Every fifth power of a 101-power campaign set: the IDC and CPW
        # sweeps at high power are strongly overcoupled (Q_i ~ 5e6, Q_c 3e4).
        truth = three_device_truths(seed=11)[device]
        sweeps = [generate_s21_sweep(truth, i) for i in range(0, 101, 5)]
        fits = [calibrate_and_fit(sweep)[0] for sweep in sweeps]
        monkeypatch.setattr(s21, "least_squares", trf)
        for sweep, fit in zip(sweeps, fits):
            assert_same_resonance(fit, calibrate_and_fit(sweep)[0])

    def test_pull_case(self, monkeypatch):
        truths = [resonator_truth(1.19e5, q_c=3e3, delay=50e-9, baseline=0.8 + 0.3j,
                                  s21_sigma=1e-3, seed=seed) for seed in range(20)]
        sweeps = [generate_s21_sweep(truth, 0) for truth in truths]
        fits = [calibrate_and_fit(sweep)[0] for sweep in sweeps]
        monkeypatch.setattr(s21, "least_squares", trf)
        for sweep, fit in zip(sweeps, fits):
            assert_same_resonance(fit, calibrate_and_fit(sweep)[0])


def tls_outcome(truth, free_beta):
    try:
        return fit_power_sweep(generate_power_sweep(truth), 2 * math.pi * truth.f0,
                               truth.temperature, free_beta=free_beta)
    except (FitFailureError, IllConditionedFitError) as exc:
        return type(exc)


def floor_resolved(fit) -> bool:
    return 0.0 < fit.q_hp_err < fit.params.q_hp


class TestTlsAgainstTrf:
    @pytest.mark.parametrize("free_beta", [False, True])
    def test_noisy_power_sweeps(self, free_beta, monkeypatch):
        truths = [truth for seed in range(8) for sigma in (0.005, 0.02)
                  for truth in three_device_truths(n_powers=21, loss_rel_sigma=sigma,
                                                   seed=10 * seed).values()]
        fits = [tls_outcome(truth, free_beta) for truth in truths]
        monkeypatch.setattr(tls, "least_squares", trf)
        compared = 0
        for truth, fit in zip(truths, fits):
            ref = tls_outcome(truth, free_beta)
            if isinstance(ref, type) or isinstance(fit, type):
                assert fit is ref  # the same exit status
                continue
            # A floor the sweep does not resolve leaves q_hp and its
            # correlated parameters undetermined; only the status is compared.
            if not (floor_resolved(fit) and floor_resolved(ref)):
                continue
            compared += 1
            for value, err in (("f_tan_delta0", "f_tan_delta0_err"), ("n_c", "n_c_err")):
                deviation = abs(getattr(fit.params, value) - getattr(ref.params, value))
                assert deviation <= SIGMA_TOL * getattr(ref, err), (value, deviation)
        assert compared >= len(truths) // 2
