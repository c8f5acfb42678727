import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import HBAR, K_B, three_device_truths
from resloss import (
    IllConditionedFitError,
    PowerSweepPoint,
    TlsLossParams,
    fit_power_sweep,
    generate_power_sweep,
    thermal_factor,
    tls_loss,
    total_loss,
)

OMEGA_A = 2 * math.pi * 3.7464e9


def params(ftd0=9.2e-4, n_c=1.0, beta=0.5, q_hp=1e6, omega0=OMEGA_A, temperature=0.1):
    return TlsLossParams(ftd0, n_c, beta, q_hp, omega0, temperature)


def sweep_points(p, n_values, loss_sigma=0.0):
    return [PowerSweepPoint(float(n), float(total_loss(float(n), p)), loss_sigma)
            for n in n_values]


class TestThermalFactor:
    def test_exact_si_constants_equal_scipy(self):
        import scipy.constants

        import resloss.s21
        import resloss.tls

        # hbar = h/2pi and k_B as fixed by the 2019 SI, bit for bit
        assert resloss.s21.hbar == scipy.constants.hbar
        assert resloss.s21.k_B == scipy.constants.k
        assert (resloss.tls.hbar, resloss.tls.k_B) == (resloss.s21.hbar, resloss.s21.k_B)

    def test_device_a_operating_point(self):
        # independent arithmetic: tanh(hbar*omega/(2 kB T)) = tanh(0.898994)
        expected = math.tanh(HBAR * OMEGA_A / (2 * K_B * 0.1))
        assert expected == pytest.approx(0.7158077816, abs=1e-9)
        assert thermal_factor(OMEGA_A, 0.1) == pytest.approx(expected, rel=5e-9)

    def test_low_temperature_limit_is_one(self):
        assert thermal_factor(OMEGA_A, 1e-6) == 1.0

    def test_decreasing_in_temperature(self):
        assert thermal_factor(OMEGA_A, 0.05) > thermal_factor(OMEGA_A, 0.2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            thermal_factor(0.0, 0.1)
        with pytest.raises(ValueError):
            thermal_factor(OMEGA_A, 0.0)

    @pytest.mark.parametrize("omega0, temperature", [
        (OMEGA_A, np.nan), (OMEGA_A, np.inf), (np.nan, 0.1), (np.inf, 0.1)])
    def test_rejects_non_finite(self, omega0, temperature):
        with pytest.raises(ValueError, match="finite"):
            thermal_factor(omega0, temperature)


class TestLossModel:
    def test_zero_power_zero_temperature_limit(self):
        p = params(temperature=1e-6)  # tanh factor saturates to 1.0
        assert tls_loss(0.0, p) == p.f_tan_delta0

    def test_half_power_at_critical_photon_number(self):
        p = params(temperature=1e-6, beta=0.5)
        assert tls_loss(p.n_c, p) == pytest.approx(p.f_tan_delta0 / math.sqrt(2), rel=1e-12)

    def test_total_loss_reference_value(self):
        p = params()
        th = math.tanh(HBAR * OMEGA_A / (2 * K_B * 0.1))
        expected = th * 9.2e-4 / math.sqrt(101.0) + 1e-6
        assert expected == pytest.approx(6.652749e-5, rel=1e-6)
        assert total_loss(100.0, p) == pytest.approx(expected, rel=1e-8)

    def test_high_power_floor(self):
        p = params()
        assert total_loss(1e12, p) == pytest.approx(1.0 / p.q_hp, rel=1e-3)

    def test_zero_power_sum(self):
        p = params(temperature=1e-6)
        assert total_loss(0.0, p) == pytest.approx(p.f_tan_delta0 + 1.0 / p.q_hp, rel=1e-15)

    def test_negative_photons_rejected(self):
        with pytest.raises(ValueError):
            tls_loss(-1.0, params())

    @given(
        ftd0=st.floats(1e-7, 1e-2),
        n_c=st.floats(1e-2, 1e4),
        beta=st.floats(0.1, 1.0),
        q_hp=st.floats(1e4, 1e8),
        temperature=st.floats(0.01, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotonicity_and_bounds(self, ftd0, n_c, beta, q_hp, temperature):
        p = params(ftd0, n_c, beta, q_hp, temperature=temperature)
        n = np.geomspace(1e-3, 1e6, 40)
        losses = total_loss(n, p)
        assert np.all(np.diff(losses) < 0)
        assert total_loss(0.0, p) >= losses[0]
        assert np.all(losses > 1.0 / q_hp)

    def test_tls_loss_decreasing_in_temperature(self):
        lo = tls_loss(1.0, params(temperature=0.05))
        hi = tls_loss(1.0, params(temperature=0.3))
        assert lo > hi

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            params(ftd0=-1e-6)
        with pytest.raises(ValueError):
            params(n_c=0.0)
        with pytest.raises(ValueError):
            params(beta=1.5)
        with pytest.raises(ValueError):
            params(q_hp=0.0)

    @pytest.mark.parametrize("point", [
        (math.inf, 1e-5, 0.0), (math.nan, 1e-5, 0.0), (1.0, math.inf, 0.0),
        (1.0, math.nan, 0.0), (1.0, 1e-5, math.inf), (1.0, 1e-5, math.nan),
    ])
    def test_power_sweep_point_must_be_finite(self, point):
        with pytest.raises(ValueError, match="finite"):
            PowerSweepPoint(*point)


class TestFitPowerSweep:
    def test_noise_free_recovery(self):
        p = params()
        pts = sweep_points(p, np.geomspace(1e-2, 1e4, 25))
        fit = fit_power_sweep(pts, OMEGA_A, 0.1)
        assert fit.params.f_tan_delta0 == pytest.approx(9.2e-4, rel=1e-6)
        assert fit.params.q_hp == pytest.approx(1e6, rel=1e-6)
        assert fit.params.n_c == pytest.approx(1.0, rel=1e-6)

    def test_device_c_like_low_loss(self):
        p = params(ftd0=8.42e-6, q_hp=2e6, omega0=2 * math.pi * 4.5548e9)
        pts = sweep_points(p, np.geomspace(1e-2, 1e4, 25))
        fit = fit_power_sweep(pts, p.omega0, 0.1)
        assert fit.params.f_tan_delta0 == pytest.approx(8.42e-6, rel=1e-6)

    def test_free_beta_matches_fixed_on_half_power_data(self):
        p = params()
        pts = sweep_points(p, np.geomspace(1e-2, 1e4, 25))
        fixed = fit_power_sweep(pts, OMEGA_A, 0.1)
        free = fit_power_sweep(pts, OMEGA_A, 0.1, free_beta=True)
        assert free.params.beta == pytest.approx(0.5, abs=1e-6)
        shift = abs(free.params.f_tan_delta0 - fixed.params.f_tan_delta0)
        assert shift / fixed.params.f_tan_delta0 < 1e-2

    def test_monte_carlo_two_percent_noise(self):
        p = params()
        n = np.geomspace(1e-2, 1e4, 25)
        clean = total_loss(n, p)
        errors = []
        for seed in range(100):
            rng = np.random.Generator(np.random.Philox(key=np.array([seed, 7], dtype=np.uint64)))
            noisy = clean * (1.0 + 0.02 * rng.standard_normal(n.size))
            pts = [PowerSweepPoint(float(x), float(y), float(0.02 * c))
                   for x, y, c in zip(n, noisy, clean)]
            fit = fit_power_sweep(pts, OMEGA_A, 0.1)
            errors.append(abs(fit.params.f_tan_delta0 - 9.2e-4) / 9.2e-4)
        assert float(np.median(errors)) < 0.02

    def test_saturated_only_data_is_ill_conditioned(self):
        p = params()
        pts = sweep_points(p, np.geomspace(1e3, 1e7, 25))
        with pytest.raises(IllConditionedFitError) as info:
            fit_power_sweep(pts, OMEGA_A, 0.1)
        assert info.value.missing_regime == "low-power"

    def test_unsaturated_only_data_is_ill_conditioned(self):
        p = params(n_c=1e9)
        pts = sweep_points(p, np.geomspace(1e-2, 1e3, 25))
        with pytest.raises(IllConditionedFitError) as info:
            fit_power_sweep(pts, OMEGA_A, 0.1)
        assert info.value.missing_regime == "high-power"

    def test_zero_tls_data_recovers_zero(self):
        pts = [PowerSweepPoint(float(x), 1e-6) for x in np.geomspace(1e-2, 1e4, 10)]
        fit = fit_power_sweep(pts, OMEGA_A, 0.1)
        assert fit.params.f_tan_delta0 < 1e-9
        assert fit.params.q_hp == pytest.approx(1e6, rel=1e-6)
        # without a TLS term the sweep does not determine n_c or beta
        assert math.isinf(fit.n_c_err)
        assert math.isinf(fit_power_sweep(pts, OMEGA_A, 0.1, free_beta=True).beta_err)

    @staticmethod
    def weighted_points():
        """25 noisy points whose sigma alternates between 1% and 8% of the loss."""
        n = np.geomspace(1e-2, 1e4, 25)
        clean = total_loss(n, params())
        rng = np.random.Generator(np.random.Philox(key=np.array([3, 3], dtype=np.uint64)))
        sigma_rel = np.where(np.arange(n.size) % 2 == 0, 0.01, 0.08)
        noisy = clean * (1.0 + sigma_rel * rng.standard_normal(n.size))
        return [PowerSweepPoint(float(x), float(y), float(s * c))
                for x, y, s, c in zip(n, noisy, sigma_rel, clean)]

    def test_weighted_fit_uses_uncertainties(self):
        fit = fit_power_sweep(self.weighted_points(), OMEGA_A, 0.1)
        assert fit.params.f_tan_delta0 == pytest.approx(9.2e-4, rel=0.05)

    def test_partly_weighted_sweep_rejected(self):
        # One missing sigma would switch every point to relative weighting.
        pts = self.weighted_points()
        partly = [*pts[:7], PowerSweepPoint(pts[7].photons, pts[7].loss), *pts[8:]]
        with pytest.raises(ValueError, match="loss_sigma is 0 on 1 of 25 points"):
            fit_power_sweep(partly, OMEGA_A, 0.1)
        unweighted = [PowerSweepPoint(p.photons, p.loss) for p in pts]
        fit = fit_power_sweep(unweighted, OMEGA_A, 0.1)
        assert fit.params.f_tan_delta0 == pytest.approx(9.2e-4, rel=0.05)

    def test_too_few_points_rejected(self):
        p = params()
        pts = sweep_points(p, [1e-2, 1e0, 1e2, 1e4])
        with pytest.raises(ValueError):
            fit_power_sweep(pts, OMEGA_A, 0.1)

    def test_narrow_span_rejected(self):
        p = params()
        pts = sweep_points(p, np.geomspace(1.0, 10.0, 8))
        with pytest.raises(ValueError):
            fit_power_sweep(pts, OMEGA_A, 0.1)

    def test_unresolved_floor_is_infinite(self):
        # The PPC sweep of this seed puts the best non-negative floor at
        # 1/q_hp = 0; the fit says so instead of a huge finite q_hp.
        truth = three_device_truths(n_powers=21, loss_rel_sigma=0.02, seed=10)["ppc"]
        fit = fit_power_sweep(generate_power_sweep(truth), 2 * math.pi * truth.f0,
                              truth.temperature)
        assert fit.params.q_hp == math.inf
        assert fit.q_hp_err == math.inf
        assert 0.0 < fit.q_hp_lower_limit < math.inf
        assert fit.params.f_tan_delta0 == pytest.approx(9.2e-4, abs=3 * fit.f_tan_delta0_err)


class TestSeededCoverage:
    @pytest.mark.parametrize("free_beta", [False, True])
    def test_pulls_on_three_devices(self, free_beta):
        start = time.perf_counter()
        pulls = {name: ([], []) for name in ("ppc", "idc", "cpw")}
        for seed in range(50):
            truths = three_device_truths(n_powers=21, loss_rel_sigma=0.02, seed=seed)
            for name, truth in truths.items():
                fit = fit_power_sweep(generate_power_sweep(truth), 2 * math.pi * truth.f0,
                                      truth.temperature, free_beta=free_beta)
                if math.isinf(fit.params.q_hp):
                    assert math.isfinite(fit.q_hp_lower_limit), (name, seed)
                else:
                    assert 0.0 < fit.q_hp_err < math.inf, (name, seed)
                ftd, n_c = pulls[name]
                ftd.append((fit.params.f_tan_delta0 - truth.f_tan_delta0) / fit.f_tan_delta0_err)
                n_c.append((fit.params.n_c - truth.n_c) / fit.n_c_err)
        elapsed = time.perf_counter() - start
        for name, (ftd, n_c) in pulls.items():
            assert 0.8 <= np.std(ftd) <= 1.25, (name, np.std(ftd))
            assert 0.8 <= np.std(n_c) <= 1.25, (name, np.std(n_c))
        assert elapsed < 5.0


class TestEvaluationCountStability:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_nfev_steady_under_rounding_level_changes(self, seed):
        # Losses scaled by 1 + 1e-9 N(0, 1), far below the 0.5% noise, leave
        # the fit where it is; its evaluation count must not jump either.
        # With a stop tolerance at the rounding floor of the cost (1e-14)
        # the ten copies of a case spread over up to 10 evaluations and take
        # up to 15; at 1e-12 they spread over at most 2 and take at most 8.
        # The bounds, a spread of 5 and a maximum of 12, sit between the two.
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 9], dtype=np.uint64)))
        for name, truth in three_device_truths(n_powers=21, loss_rel_sigma=0.005,
                                               seed=seed).items():
            points = generate_power_sweep(truth)
            for free_beta in (False, True):
                nfev = []
                for _ in range(10):
                    scale = 1.0 + 1e-9 * rng.standard_normal(len(points))
                    copy = [PowerSweepPoint(p.photons, p.loss * k, p.loss_sigma)
                            for p, k in zip(points, scale)]
                    nfev.append(fit_power_sweep(copy, 2 * math.pi * truth.f0, truth.temperature,
                                                free_beta=free_beta).nfev)
                assert max(nfev) - min(nfev) <= 5, (name, free_beta, nfev)
                assert max(nfev) <= 12, (name, free_beta, nfev)
