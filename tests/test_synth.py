import math

import numpy as np
import pytest

from helpers import HBAR, K_B, device_a_truth, resonator_truth, three_device_truths
from resloss import (
    calibrate_and_fit,
    fit_power_sweep,
    generate_power_sweep,
    generate_s21_sweep,
    photon_number,
    resonator_state,
    total_loss,
)


class TestGroundTruth:
    def test_invariants(self):
        with pytest.raises(ValueError):
            device_a_truth(n_points=8)
        with pytest.raises(ValueError):
            device_a_truth(s21_sigma=-0.1)
        with pytest.raises(ValueError):
            resonator_truth(1e5, power=-1e-15)

    def test_baseline_must_be_a_complex_scalar(self):
        with pytest.raises(ValueError, match="complex scalar"):
            resonator_truth(1e5, baseline=[1.0, 0.0])
        with pytest.raises(ValueError, match="nonzero"):
            resonator_truth(1e5, baseline=0.0)
        assert resonator_truth(1e5, baseline=np.complex128(0.8 + 0.3j)).baseline == 0.8 + 0.3j

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            resonator_truth(1e5, seed=seed)

    def test_tls_params_view(self):
        truth = device_a_truth()
        params = truth.tls_params
        assert params.omega0 == pytest.approx(2 * math.pi * truth.f0, rel=1e-15)
        assert params.f_tan_delta0 == truth.f_tan_delta0


class TestResonatorState:
    def test_self_consistency(self):
        truth = device_a_truth()
        for power in (truth.powers[0], truth.powers[-1]):
            n, q_i = resonator_state(truth, power)
            assert q_i == pytest.approx(1.0 / total_loss(n, truth.tls_params), rel=1e-12)
            assert n == pytest.approx(
                photon_number(power, truth.f0, q_i, truth.q_c), rel=1e-10)

    def test_loss_endpoints(self):
        # the generated loss series spans the thermal plateau down to the
        # high-power floor
        truth = device_a_truth()
        th = math.tanh(HBAR * 2 * math.pi * truth.f0 / (2 * K_B * truth.temperature))
        plateau = 9.2e-4 * th + 1e-6
        _, q_low = resonator_state(truth, 1e-25)
        assert 1.0 / q_low == pytest.approx(plateau, rel=1e-4)
        _, q_high = resonator_state(truth, 1e-6)
        assert 1.0 / q_high == pytest.approx(1e-6, rel=1e-2)

    def test_monotone_in_power(self):
        truth = device_a_truth()
        states = [resonator_state(truth, p) for p in truth.powers]
        photons = [s[0] for s in states]
        qis = [s[1] for s in states]
        assert all(np.diff(photons) > 0)
        assert all(np.diff(qis) > 0)


    def test_matches_brentq_over_campaign_powers(self):
        from scipy.optimize import brentq

        for truth in three_device_truths().values():
            params = truth.tls_params
            for power in truth.powers:
                def gap(n):
                    q_i = 1.0 / total_loss(n, params)
                    return photon_number(power, truth.f0, q_i, truth.q_c) - n

                n_hi = photon_number(power, truth.f0, truth.q_hp, truth.q_c)
                expected = n_hi if gap(n_hi) >= 0.0 else brentq(
                    gap, 0.0, n_hi, xtol=1e-30, rtol=1e-14, maxiter=200)
                n, q_i = resonator_state(truth, power)
                assert n == pytest.approx(expected, rel=1e-13, abs=0.0)
                assert q_i == pytest.approx(1.0 / total_loss(expected, params), rel=1e-13)


class TestGenerateS21Sweep:
    def test_seed_determinism(self):
        truth = device_a_truth(s21_sigma=0.01, seed=42)
        a = generate_s21_sweep(truth, 3)
        b = generate_s21_sweep(truth, 3)
        assert np.array_equal(a.s21, b.s21)
        assert np.array_equal(a.frequencies, b.frequencies)

    def test_different_seeds_differ(self):
        a = generate_s21_sweep(device_a_truth(s21_sigma=0.01, seed=1), 0)
        b = generate_s21_sweep(device_a_truth(s21_sigma=0.01, seed=2), 0)
        assert not np.array_equal(a.s21, b.s21)

    def test_power_streams_are_independent(self):
        truth = device_a_truth(s21_sigma=0.01, seed=5)
        a = generate_s21_sweep(truth, 0)
        b = generate_s21_sweep(truth, 1)
        assert not np.array_equal(a.s21 - np.mean(a.s21), b.s21 - np.mean(b.s21))

    def test_noise_free_round_trip(self):
        truth = device_a_truth()
        index = 10
        n_true, qi_true = resonator_state(truth, truth.powers[index])
        fit = calibrate_and_fit(generate_s21_sweep(truth, index), 0.0, 1.0)[0]
        assert fit.f0 == pytest.approx(truth.f0, rel=1e-6)
        assert fit.q_i == pytest.approx(qi_true, rel=1e-6)
        assert fit.q_c == pytest.approx(truth.q_c, rel=1e-6)
        assert fit.phi == pytest.approx(truth.phi, rel=1e-6)

    def test_metadata_attached(self):
        truth = device_a_truth()
        sweep = generate_s21_sweep(truth, 2)
        assert sweep.power == truth.powers[2]
        assert sweep.temperature == truth.temperature
        assert len(sweep) == truth.n_points

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            generate_s21_sweep(device_a_truth(), 99)


class TestGeneratePowerSweep:
    def test_noise_free_matches_model(self):
        truth = device_a_truth()
        points = generate_power_sweep(truth)
        params = truth.tls_params
        for point in points:
            assert point.loss == pytest.approx(
                total_loss(point.photons, params), rel=1e-12)
            assert point.loss_sigma == 0.0

    def test_round_trip_through_fit(self):
        truth = device_a_truth()
        points = generate_power_sweep(truth)
        fit = fit_power_sweep(points, truth.tls_params.omega0, truth.temperature)
        assert fit.params.f_tan_delta0 == pytest.approx(9.2e-4, rel=1e-6)
        assert fit.params.n_c == pytest.approx(10.0, rel=1e-6)
        assert fit.params.q_hp == pytest.approx(1e6, rel=1e-6)

    def test_noisy_sweep_is_deterministic(self):
        truth = device_a_truth(loss_rel_sigma=0.02, seed=9)
        a = generate_power_sweep(truth)
        b = generate_power_sweep(truth)
        assert [p.loss for p in a] == [p.loss for p in b]
        assert all(p.loss_sigma > 0 for p in a)

    def test_noisy_round_trip_within_tolerance(self):
        truth = device_a_truth(loss_rel_sigma=0.02, seed=21)
        points = generate_power_sweep(truth)
        fit = fit_power_sweep(points, truth.tls_params.omega0, truth.temperature)
        assert fit.params.f_tan_delta0 == pytest.approx(9.2e-4, rel=0.1)
