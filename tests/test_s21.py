import math

import numpy as np
import pytest

from helpers import HBAR, model_sweep, resonator_truth, three_device_truths
from resloss import (
    ComplexSweep,
    FitFailureError,
    OutOfSpanError,
    calibrate_and_fit,
    fit_circle,
    generate_s21_sweep,
    inverse_s21_model,
    photon_number,
)
from resloss.synth import resonator_state


class TestComplexSweep:
    def test_rejects_short_sweeps(self):
        f = np.linspace(1e9, 2e9, 8)
        with pytest.raises(ValueError):
            ComplexSweep(f, np.ones(8, dtype=complex), 1e-15, 0.1)

    def test_rejects_unsorted_frequencies(self):
        f = np.linspace(1e9, 2e9, 32)[::-1].copy()
        with pytest.raises(ValueError):
            ComplexSweep(f, np.ones(32, dtype=complex), 1e-15, 0.1)

    @pytest.mark.parametrize("lo", [-1e6, 0.0])
    def test_rejects_non_positive_frequencies(self, lo):
        f = np.linspace(lo, 1e6, 32)
        with pytest.raises(ValueError, match="frequencies must be > 0"):
            ComplexSweep(f, np.ones(32, dtype=complex), 1e-15, 0.1)

    def test_rejects_non_finite(self):
        f = np.linspace(1e9, 2e9, 32)
        z = np.ones(32, dtype=complex)
        z[5] = np.nan + 1j
        with pytest.raises(ValueError):
            ComplexSweep(f, z, 1e-15, 0.1)

    @pytest.mark.parametrize("power, temperature", [
        (0.0, 0.1), (np.nan, 0.1), (np.inf, 0.1), (1e-15, 0.0), (1e-15, np.nan), (1e-15, np.inf),
    ])
    def test_rejects_bad_power_or_temperature(self, power, temperature):
        f = np.linspace(1e9, 2e9, 32)
        with pytest.raises(ValueError, match="finite and > 0"):
            ComplexSweep(f, np.ones(32, dtype=complex), power, temperature)

    def test_arrays_are_read_only(self):
        sweep = model_sweep(4.5e9, 1e5, 5e4, 0.1)
        with pytest.raises(ValueError):
            sweep.s21[0] = 0.0


class TestInverseModel:
    def test_on_resonance_value(self):
        assert inverse_s21_model(4.5e9, 4.5e9, 1e5, 5e4, 0.0) == pytest.approx(3.0 + 0.0j)

    def test_off_resonance_baseline(self):
        far = inverse_s21_model(4.5e9 * 100, 4.5e9, 1e5, 5e4, 0.3)
        assert far == pytest.approx(1.0 + 0.0j, abs=1e-4)

    def test_detuned_by_half_inverse_width(self):
        # detuning f0/(2 Q_i) makes the denominator 1 + i
        f0, q_i = 4.5e9, 1e5
        value = inverse_s21_model(f0 + f0 / (2 * q_i), f0, q_i, 5e4, 0.0)
        assert value == pytest.approx(2.0 - 1.0j, abs=1e-9)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            inverse_s21_model(4.5e9, 4.5e9, -1e5, 5e4, 0.0)

    def test_model_traces_circle_of_diameter_qi_over_qc(self):
        f0, q_i, q_c = 4.5548e9, 1.19e5, 3e4
        sweep = model_sweep(f0, q_i, q_c, 0.1, n_points=401)
        center, radius = fit_circle(1.0 / sweep.s21)
        assert 2 * radius == pytest.approx(q_i / q_c, rel=1e-9)


class TestPhotonNumber:
    def test_reference_value(self):
        # 2 * (5e4)^2 * 1e-15 / (1e5 * hbar * (2*pi*5e9)^2)
        expected = 2 * (5e4) ** 2 * 1e-15 / (1e5 * HBAR * (2 * math.pi * 5e9) ** 2)
        assert photon_number(1e-15, 5e9, 1e5, 1e5) == pytest.approx(expected, rel=1e-8)

    def test_linear_in_power(self):
        n1 = photon_number(1e-15, 5e9, 1e5, 1e5)
        n2 = photon_number(2e-15, 5e9, 1e5, 1e5)
        assert n2 == pytest.approx(2 * n1, rel=1e-12)

    def test_overcoupled_limit(self):
        # Q_i -> inf leaves 2 * Q_c * P / (hbar * omega0^2)
        limit = 2 * 1e5 * 1e-15 / (HBAR * (2 * math.pi * 5e9) ** 2)
        approached = photon_number(1e-15, 5e9, 1e13, 1e5)
        assert approached == pytest.approx(limit, rel=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            photon_number(0.0, 5e9, 1e5, 1e5)


class TestPreprocess:
    """Delay and baseline removal, explicit or estimated, in calibrate_and_fit."""

    def test_clean_sweep_unchanged(self):
        f0, q_i, q_c, phi = 4.5e9, 1e5, 5e4, 0.1
        sweep = model_sweep(f0, q_i, q_c, phi)
        fit, delay, baseline = calibrate_and_fit(sweep, delay=0.0, baseline=1.0 + 0.0j)
        assert (delay, baseline) == (0.0, 1.0 + 0.0j)
        assert fit.q_i == pytest.approx(q_i, rel=1e-9)

    def test_explicit_inverse_round_trip(self):
        truth = resonator_truth(1.19e5, delay=40e-9, baseline=0.8 * np.exp(0.3j))
        fit, delay, baseline = calibrate_and_fit(
            generate_s21_sweep(truth, 0), delay=40e-9, baseline=0.8 * np.exp(0.3j))
        assert delay == 40e-9
        assert baseline == 0.8 * np.exp(0.3j)
        assert fit.f0 == pytest.approx(truth.f0, rel=1e-12)
        assert fit.q_i == pytest.approx(1.19e5, rel=1e-9)
        assert fit.q_c == pytest.approx(truth.q_c, rel=1e-9)
        assert fit.residual_rms < 1e-12

    def test_auto_estimation_recovers_delay(self):
        # shallow resonance, wide span: tail bias well below 1%
        truth = resonator_truth(1e5, q_c=1e6, span_linewidths=80, n_points=2001,
                                delay=40e-9)
        dressed = generate_s21_sweep(truth, 0)
        from resloss.s21 import _estimate_delay

        estimate = _estimate_delay(dressed.frequencies, dressed.s21)
        assert abs(estimate - 40e-9) / 40e-9 < 0.01

    def test_auto_estimation_leaves_flat_baseline(self):
        truth = resonator_truth(1e5, q_c=1e6, span_linewidths=80, n_points=2001,
                                delay=40e-9, baseline=1.2 * np.exp(-0.4j))
        fit, delay, baseline = calibrate_and_fit(generate_s21_sweep(truth, 0))
        assert delay == pytest.approx(40e-9, rel=1e-9)
        assert baseline == pytest.approx(1.2 * np.exp(-0.4j), rel=1e-9)
        assert fit.q_i == pytest.approx(1e5, rel=1e-9)

    def test_partial_arguments_estimate_the_rest(self):
        true_baseline = 1.2 * np.exp(-0.4j)
        truth = resonator_truth(1e5, q_c=1e6, span_linewidths=80, n_points=2001,
                                delay=40e-9, baseline=true_baseline)
        dressed = generate_s21_sweep(truth, 0)

        fit, delay, baseline = calibrate_and_fit(dressed, delay=40e-9)
        assert delay == 40e-9
        assert baseline == pytest.approx(true_baseline, rel=1e-9)
        assert fit.q_i == pytest.approx(1e5, rel=1e-9)

        fit, delay, baseline = calibrate_and_fit(dressed, baseline=true_baseline)
        assert delay == pytest.approx(40e-9, rel=1e-9)
        assert baseline == true_baseline
        assert fit.q_i == pytest.approx(1e5, rel=1e-9)

    def test_zero_baseline_rejected(self):
        sweep = model_sweep(4.5e9, 1e5, 5e4, 0.1)
        with pytest.raises(ValueError):
            calibrate_and_fit(sweep, delay=0.0, baseline=0.0)

    # An infinite baseline is covered in test_cli, in a subprocess: before
    # the check it made np.linalg.lstsq spin without returning.
    @pytest.mark.parametrize("delay, baseline", [
        (np.nan, None), (np.inf, None), (0.0, complex(np.nan, 0.0)),
    ])
    def test_non_finite_calibration_rejected(self, delay, baseline):
        sweep = model_sweep(4.5e9, 1e5, 5e4, 0.1)
        with pytest.raises(ValueError, match="must be finite"):
            calibrate_and_fit(sweep, delay=delay, baseline=baseline)


class TestFitResonance:
    def test_noise_free_recovery(self):
        f0, q_i, q_c, phi = 4.5548e9, 1.19e5, 3e4, 0.1
        fit = calibrate_and_fit(model_sweep(f0, q_i, q_c, phi), 0.0, 1.0)[0]
        assert fit.f0 == pytest.approx(f0, rel=1e-6)
        assert fit.q_i == pytest.approx(q_i, rel=1e-6)
        assert fit.q_c == pytest.approx(q_c, rel=1e-6)
        assert fit.phi == pytest.approx(phi, rel=1e-6)
        assert fit.residual_rms < 1e-12
        assert fit.loss == pytest.approx(1.0 / q_i, rel=1e-9)

    def test_loss_matches_reference_scale(self):
        # 1/Q_i = 8.42e-6 style low-loss device
        q_i = 1.0 / 8.42e-6
        fit = calibrate_and_fit(model_sweep(4.5548e9, q_i, 3e4, 0.1), 0.0, 1.0)[0]
        assert fit.loss == pytest.approx(8.42e-6, rel=1e-6)

    def test_flat_sweep_raises(self):
        f = np.linspace(4.4e9, 4.6e9, 64)
        flat = ComplexSweep(f, np.ones(64, dtype=complex), 1e-15, 0.1)
        with pytest.raises(FitFailureError):
            calibrate_and_fit(flat, 0.0, 1.0)

    def test_resonance_outside_span_raises(self):
        f0, q_i, q_c = 4.5e9, 1e5, 5e4
        span = 20 * f0 / (1 / (1 / q_i + 1 / q_c))
        f = np.linspace(f0 + 2 * span, f0 + 3 * span, 501)
        z = 1.0 / inverse_s21_model(f, f0, q_i, q_c, 0.1)
        sweep = ComplexSweep(f, z, 1e-15, 0.1)
        with pytest.raises((OutOfSpanError, FitFailureError)):
            calibrate_and_fit(sweep, 0.0, 1.0)

    def test_noisy_monte_carlo_median_error(self):
        q_i, q_c = 1.19e5, 3e4
        errors = []
        for seed in range(25):
            truth = resonator_truth(q_i, q_c=q_c, span_linewidths=10,
                                    n_points=2001, s21_sigma=0.01, seed=seed)
            fit = calibrate_and_fit(generate_s21_sweep(truth, 0), 0.0, 1.0)[0]
            errors.append(abs(fit.q_i - q_i) / q_i)
        assert float(np.median(errors)) < 0.01

    def test_uncertainties_scale_with_point_count(self):
        q_i, q_c = 1.19e5, 3e4
        sigmas = {}
        for n_points in (256, 4096):
            values = []
            for seed in range(15):
                truth = resonator_truth(q_i, q_c=q_c, n_points=n_points,
                                        s21_sigma=0.005, seed=100 + seed)
                fit = calibrate_and_fit(generate_s21_sweep(truth, 0), 0.0, 1.0)[0]
                values.append(fit.q_i_err)
            sigmas[n_points] = float(np.median(values))
        ratio = sigmas[256] / sigmas[4096]
        assert 4.0 / 1.5 < ratio < 4.0 * 1.5


class TestCalibrateAndFit:
    def test_recovers_dressing_and_parameters(self):
        q_i = 1.19e5
        truth = resonator_truth(q_i, n_points=1001, delay=40e-9,
                                baseline=0.8 * np.exp(0.3j))
        fit, delay, baseline = calibrate_and_fit(generate_s21_sweep(truth, 0))
        assert delay == pytest.approx(40e-9, rel=1e-9)
        assert baseline == pytest.approx(0.8 * np.exp(0.3j), rel=1e-9)
        assert fit.q_i == pytest.approx(q_i, rel=1e-9)

    @pytest.mark.parametrize("q_i", [1.8e3, 3.2e4, 1.19e5])
    def test_q_i_pull(self, q_i):
        # Under- to strongly overcoupled, with the calibration fitted too:
        # the quoted Q_i error must match the scatter over seeds.
        pulls = []
        for seed in range(100):
            truth = resonator_truth(q_i, q_c=3e3, delay=50e-9, baseline=0.8 + 0.3j,
                                    s21_sigma=1e-3, seed=seed)
            fit, _, _ = calibrate_and_fit(generate_s21_sweep(truth, 0))
            pulls.append((fit.q_i - q_i) / fit.q_i_err)
        assert 0.8 <= float(np.std(pulls)) <= 1.25

    @pytest.mark.parametrize("index", [80, 95, 100])
    def test_overcoupled_seed_has_loaded_width(self, index):
        # High-power CPW sweeps: Q_i ~ 5e6 against Q_c = 3e4, so the 1/Q_i
        # wide inverse-space peak is narrower than one point step, while
        # the S21 dip has the loaded width and seeds both quality factors.
        from resloss.s21 import _estimate_baseline, _estimate_delay, _initial_guess

        truth = three_device_truths(seed=3)["cpw"]
        sweep = generate_s21_sweep(truth, index)
        f, z = sweep.frequencies, sweep.s21
        z_cal = z * np.exp(2j * np.pi * f * _estimate_delay(f, z))
        _, q_i, q_c, _ = _initial_guess(f, _estimate_baseline(f, z_cal) / z_cal)
        assert 0.5 < q_i / resonator_state(truth, truth.powers[index])[1] < 2.0
        assert q_c == pytest.approx(3e4, rel=0.1)
        assert calibrate_and_fit(sweep)[0].nfev <= 10

    def test_explicit_calibration_skips_refinement(self):
        q_i = 1.19e5
        truth = resonator_truth(q_i, n_points=501, delay=25e-9)
        fit, delay, baseline = calibrate_and_fit(
            generate_s21_sweep(truth, 0), delay=25e-9, baseline=1.0 + 0.0j)
        assert delay == 25e-9
        assert baseline == 1.0 + 0.0j
        assert fit.q_i == pytest.approx(q_i, rel=1e-9)


class TestEdgeEstimation:
    def test_insufficient_baseline_error(self):
        from resloss.s21 import _edge_mask, _estimate_delay

        # The shortest accepted sweep still leaves 4 edge points to estimate from.
        f = np.linspace(4.4e9, 4.6e9, 16)
        assert np.count_nonzero(_edge_mask(16)) >= 4
        z = np.exp(-2j * np.pi * f * 10e-9)
        assert abs(_estimate_delay(f, z) - 10e-9) / 10e-9 < 1e-6
        # the calibrated trace is flat, so the fit finds no feature
        with pytest.raises(FitFailureError, match="no resonance feature"):
            calibrate_and_fit(ComplexSweep(f, z, 1e-15, 0.1))

    def test_too_few_points_raises(self):
        # Sweeps under 16 points are rejected at construction, before any
        # baseline estimate is attempted.
        f = np.linspace(4.4e9, 4.6e9, 15)
        with pytest.raises(ValueError, match="at least 16"):
            ComplexSweep(f, np.ones(15, dtype=complex), 1e-15, 0.1)


class TestOneSigmaErrors:
    def test_matches_ols_covariance_across_column_scales(self):
        from scipy.optimize import least_squares

        from resloss.s21 import one_sigma_errors

        # y = a*u + b*v with the columns ~1e9 apart in scale; the exact
        # errors are sqrt(diag(s^2 (X^T X)^-1)), inverted in closed form.
        u = np.linspace(-1.0, 1.0, 50)
        x = np.column_stack([1e9 * u, 1.0 + 0.3 * u**2])
        rng = np.random.Generator(np.random.Philox(key=np.array([7, 7], dtype=np.uint64)))
        y = x @ np.array([2e-9, 0.5]) + 1e-3 * rng.standard_normal(u.size)
        res = least_squares(lambda p: x @ p - y, np.zeros(2), jac=lambda p: x,
                            ftol=1e-15, xtol=1e-15, gtol=1e-15)

        beta = np.linalg.lstsq(x, y, rcond=None)[0]
        s2 = np.sum((y - x @ beta) ** 2) / (u.size - 2)
        (g00, g01), (_, g11) = x.T @ x
        det = g00 * g11 - g01**2
        expected = np.sqrt(s2 * np.array([g11, g00]) / det)
        np.testing.assert_allclose(one_sigma_errors(res.jac, res.fun), expected, rtol=1e-9)
