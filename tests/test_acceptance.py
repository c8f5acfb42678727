"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured values and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import HBAR, K_B, device_a_truth, loaded_q, resonator_truth
from resloss import (
    ComplexSweep,
    DeviceCircuitModel,
    ExtractionInput,
    GroundTruth,
    PowerSweepPoint,
    calibrate_and_fit,
    extract,
    fit_lc,
    fit_power_sweep,
    generate_s21_sweep,
    inverse_s21_model,
    participation_asymptote,
    resonance_frequency,
    systematic_error,
    thermal_factor,
    total_loss,
)
from resloss.cli import EXIT_OK, main
from resloss.tls import TlsLossParams

OMEGA_A = 2 * math.pi * 3.7464e9


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_reference_extraction(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "ext"
    status = main(["extract", "--input", "table1", "--out", str(out)])
    result = json.loads((out / "extract.json").read_text())
    elapsed = time.perf_counter() - start

    ppc = result["ppc_loss"]
    difference = result["fractional_difference"]
    ok = (
        status == EXIT_OK
        and 0.98e-3 <= ppc <= 1.05e-3
        and abs(difference - 0.11) <= 0.01
        and elapsed < 1.0
    )
    report(1, ok, f"ppc_loss={ppc:.6g}, difference={difference:.4f}, "
                  f"elapsed={elapsed:.3f}s")
    assert status == EXIT_OK
    assert 0.98e-3 <= ppc <= 1.05e-3
    assert abs(difference - 0.11) <= 0.01
    assert elapsed < 1.0


def test_criterion_2_inductor_loss_stage(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "ext"
    status = main(["extract", "--input", "table1", "--out", str(out)])
    result = json.loads((out / "extract.json").read_text())
    elapsed = time.perf_counter() - start

    inductor = result["inductor_loss"]
    reference = result["reference"]
    ok = (
        status == EXIT_OK
        and abs(inductor - 9.2e-6) <= 0.1e-6
        and reference["values"]["inductor_loss"] == pytest.approx(1.12e-5)
        and "note" in reference["values"]
        and "inductor_loss_relative_deviation" in reference
        and elapsed < 1.0
    )
    report(2, ok, f"inductor_loss={inductor:.6g} (reference "
                  f"{reference['values']['inductor_loss']:.3g} displayed with "
                  f"discrepancy note), elapsed={elapsed:.3f}s")
    assert status == EXIT_OK
    assert abs(inductor - 9.2e-6) <= 0.1e-6
    assert reference["values"]["inductor_loss"] == pytest.approx(1.12e-5)
    assert "note" in reference["values"]
    assert "inductor_loss_relative_deviation" in reference
    assert elapsed < 1.0


def test_criterion_3_systematic_error_asymptote():
    start = time.perf_counter()
    magnitude = abs(systematic_error(1e-1, 1.12e-5, 0.102))
    at_equal = systematic_error(3.3e-4, 3.3e-4, 0.102)
    elapsed = time.perf_counter() - start

    ok = abs(magnitude - 0.1136) <= 1e-4 and at_equal == 0.0 and elapsed < 1.0
    report(3, ok, f"|error|={magnitude:.6f} (limit "
                  f"{participation_asymptote(0.102):.6f}), equal-loss error="
                  f"{at_equal}, elapsed={elapsed:.3f}s")
    assert abs(magnitude - 0.1136) <= 1e-4
    assert at_equal == 0.0
    assert elapsed < 1.0


def test_criterion_4_s21_fit_round_trip():
    start = time.perf_counter()
    f0, phi = 4.5548e9, 0.15
    worst = 0.0
    for q_i in (1e4, 1e5, 1e6):
        for q_c in (1e4, 1e5, 1e6):
            span = 20 * f0 / loaded_q(q_i, q_c)
            f = np.linspace(f0 - span / 2, f0 + span / 2, 501)
            z = 1.0 / inverse_s21_model(f, f0, q_i, q_c, phi)
            fit = calibrate_and_fit(ComplexSweep(f, z, 1e-15, 0.1), 0.0, 1.0)[0]
            worst = max(
                worst,
                abs(fit.f0 - f0) / f0,
                abs(fit.q_i - q_i) / q_i,
                abs(fit.q_c - q_c) / q_c,
                abs(fit.phi - phi) / phi,
            )

    q_i, q_c = 1.19e5, 3e4
    errors = []
    for seed in range(100):
        truth = resonator_truth(q_i, q_c=q_c, span_linewidths=10, n_points=2001,
                                s21_sigma=0.01, seed=seed)
        fit = calibrate_and_fit(generate_s21_sweep(truth, 0), 0.0, 1.0)[0]
        errors.append(abs(fit.q_i - q_i) / q_i)
    median_error = float(np.median(errors))
    elapsed = time.perf_counter() - start

    ok = worst < 1e-6 and median_error < 0.01 and elapsed < 30.0
    report(4, ok, f"noise-free worst rel error={worst:.3g} over 9 grid points, "
                  f"40 dB SNR median Q_i error={median_error:.4f} over 100 seeds, "
                  f"elapsed={elapsed:.2f}s")
    assert worst < 1e-6
    assert median_error < 0.01
    assert elapsed < 30.0


def test_criterion_5_tls_fit_round_trip():
    start = time.perf_counter()
    truth = TlsLossParams(9.2e-4, 1.0, 0.5, 1e6, OMEGA_A, 0.1)
    photons = np.geomspace(1e-2, 1e4, 25)
    clean = total_loss(photons, truth)

    points = [PowerSweepPoint(float(n), float(y)) for n, y in zip(photons, clean)]
    fit = fit_power_sweep(points, OMEGA_A, 0.1)
    ftd0_err = abs(fit.params.f_tan_delta0 - 9.2e-4) / 9.2e-4
    qhp_err = abs(fit.params.q_hp - 1e6) / 1e6

    errors = []
    for seed in range(100):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 17], dtype=np.uint64)))
        noisy = clean * (1.0 + 0.02 * rng.standard_normal(photons.size))
        pts = [PowerSweepPoint(float(n), float(y), float(0.02 * c))
               for n, y, c in zip(photons, noisy, clean)]
        noisy_fit = fit_power_sweep(pts, OMEGA_A, 0.1)
        errors.append(abs(noisy_fit.params.f_tan_delta0 - 9.2e-4) / 9.2e-4)
    median_error = float(np.median(errors))
    elapsed = time.perf_counter() - start

    ok = ftd0_err < 1e-6 and qhp_err < 1e-6 and median_error < 0.02 and elapsed < 30.0
    report(5, ok, f"noise-free rel errors ftd0={ftd0_err:.3g}, q_hp={qhp_err:.3g}; "
                  f"2% noise median ftd0 error={median_error:.4f} over 100 seeds, "
                  f"elapsed={elapsed:.2f}s")
    assert ftd0_err < 1e-6
    assert qhp_err < 1e-6
    assert median_error < 0.02
    assert elapsed < 30.0


def test_criterion_6_lc_regression():
    start = time.perf_counter()
    truth_l, truth_cl = 2.42e-9, 82.2e-15

    def points(caps):
        return [
            (c, resonance_frequency(DeviceCircuitModel(truth_l, c, truth_cl)))
            for c in caps
        ]

    four = fit_lc(points([100e-15, 300e-15, 500e-15, 700e-15]))
    two = fit_lc(points([150e-15, 650e-15]))
    worst = max(
        abs(four.inductance - truth_l) / truth_l,
        abs(four.stray_capacitance - truth_cl) / truth_cl,
        abs(two.inductance - truth_l) / truth_l,
        abs(two.stray_capacitance - truth_cl) / truth_cl,
    )
    elapsed = time.perf_counter() - start

    ok = worst < 1e-9 and elapsed < 1.0
    report(6, ok, f"worst rel error={worst:.3g} (4-point and 2-point), "
                  f"elapsed={elapsed:.3f}s")
    assert worst < 1e-9
    assert elapsed < 1.0


def test_criterion_7_thermal_factor():
    start = time.perf_counter()
    computed = thermal_factor(OMEGA_A, 0.1)
    independent = math.tanh(HBAR * OMEGA_A / (2 * K_B * 0.1))
    elapsed = time.perf_counter() - start

    matches_arithmetic = abs(computed - independent) < 1e-9
    stated = 0.7161
    within_stated = abs(computed - stated) <= 1e-4
    ok = matches_arithmetic and within_stated and elapsed < 1.0
    report(7, ok, f"computed={computed:.6f}, independent arithmetic="
                  f"{independent:.6f}, stated target={stated} +/- 1e-4, "
                  f"elapsed={elapsed:.3f}s")
    assert matches_arithmetic
    assert elapsed < 1.0
    # The acceptance target 0.7161 is not reachable: exact CODATA constants
    # give tanh(0.898994) = 0.715808, which sits 2.9e-4 from the target,
    # outside the 1e-4 band. See the decisions ledger for the analysis.
    assert within_stated, (
        f"thermal factor from exact constants is {computed:.6f}; the stated "
        f"acceptance value {stated} +/- 1e-4 cannot be met by any standard "
        f"value of hbar/k_B (tanh(0.898994) = 0.715808)"
    )


def test_criterion_8_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    cases = 1000

    # total loss is strictly decreasing in photon number
    for _ in range(cases):
        params = TlsLossParams(
            f_tan_delta0=10 ** rng.uniform(-7, -2),
            n_c=10 ** rng.uniform(-2, 4),
            beta=rng.uniform(0.1, 1.0),
            q_hp=10 ** rng.uniform(4, 8),
            omega0=2 * math.pi * 10 ** rng.uniform(9, 10),
            temperature=rng.uniform(0.02, 0.5),
        )
        n = np.sort(10 ** rng.uniform(-3, 6, size=8))
        losses = total_loss(n, params)
        assert np.all(np.diff(losses) < 0)
        assert np.all(losses > 1.0 / params.q_hp)
        assert total_loss(0.0, params) >= losses[0]
    monotone_ok = True

    # uniform device losses are a fixed point of the extraction
    for _ in range(cases):
        loss = 10 ** rng.uniform(-7, -3)
        inp = ExtractionInput(
            ppc_resonator_loss=loss, idc_resonator_loss=loss, cpw_loss=loss,
            ppc_circuit=DeviceCircuitModel(
                2e-9, 10 ** rng.uniform(-14, -12), 10 ** rng.uniform(-15, -13), "A"),
            idc_circuit=DeviceCircuitModel(
                1e-9, 10 ** rng.uniform(-14, -12), 10 ** rng.uniform(-15, -13), "B"),
        )
        result = extract(inp)
        assert result.ppc_loss == pytest.approx(loss, rel=1e-9)
        assert result.inductor_loss == pytest.approx(loss, rel=1e-9)
    uniform_ok = True

    # recombining the extracted losses reproduces the measured total
    worst_roundtrip = 0.0
    for _ in range(cases):
        cc_a = 10 ** rng.uniform(-14, -12)
        cl_a = 10 ** rng.uniform(-15, -13)
        cc_b = 10 ** rng.uniform(-14, -12)
        cl_b = 10 ** rng.uniform(-15, -13)
        ppc_true = 10 ** rng.uniform(-6, -3)
        ind_true = 10 ** rng.uniform(-6, -3)
        idc_true = 10 ** rng.uniform(-6, -3)
        loss_a = (cc_a * ppc_true + cl_a * ind_true) / (cc_a + cl_a)
        loss_b = (cc_b * idc_true + cl_b * ind_true) / (cc_b + cl_b)
        inp = ExtractionInput(
            ppc_resonator_loss=loss_a, idc_resonator_loss=loss_b, cpw_loss=idc_true,
            ppc_circuit=DeviceCircuitModel(2e-9, cc_a, cl_a, "A"),
            idc_circuit=DeviceCircuitModel(1e-9, cc_b, cl_b, "B"),
        )
        result = extract(inp)
        circuit = inp.ppc_circuit
        recombined = (
            circuit.capacitor_participation * result.ppc_loss
            + circuit.inductor_participation * result.inductor_loss
        )
        worst_roundtrip = max(worst_roundtrip, abs(recombined - loss_a) / loss_a)
    roundtrip_ok = worst_roundtrip <= 1e-15

    # systematic error: sign, scale invariance, participation bound
    for _ in range(cases):
        cap = 10 ** rng.uniform(-8, -1)
        ind = 10 ** rng.uniform(-8, -1)
        p = rng.uniform(1e-4, 0.99)
        value = systematic_error(cap, ind, p)
        assert (value > 0) == (ind > cap) and (value < 0) == (ind < cap)
        factor = 10 ** rng.uniform(-3, 3)
        scaled = systematic_error(cap * factor, ind * factor, p)
        assert scaled == pytest.approx(value, rel=1e-9, abs=1e-12)
        if cap > ind:
            assert abs(value) < participation_asymptote(p)
        assert systematic_error(cap, ind, 0.0) == 0.0
    sigma_ok = True

    # seeded generation is bit-identical
    for case in range(cases):
        truth = GroundTruth(
            f0=10 ** rng.uniform(9.4, 9.9),
            q_c=10 ** rng.uniform(3.5, 5.5),
            phi=rng.uniform(-0.4, 0.4),
            f_tan_delta0=10 ** rng.uniform(-6, -3),
            n_c=10 ** rng.uniform(-1, 3),
            beta=0.5,
            q_hp=10 ** rng.uniform(5, 7),
            temperature=0.1,
            span=4e6,
            n_points=16,
            powers=(10 ** rng.uniform(-18, -13),),
            s21_sigma=0.01,
            seed=int(rng.integers(0, 2**63)),
        )
        a = generate_s21_sweep(truth, 0)
        b = generate_s21_sweep(truth, 0)
        assert np.array_equal(a.s21, b.s21)
    determinism_ok = True

    elapsed = time.perf_counter() - start
    ok = (monotone_ok and uniform_ok and roundtrip_ok and sigma_ok
          and determinism_ok and elapsed < 60.0)
    report(8, ok, f"5 property suites x {cases} cases; recombination worst "
                  f"rel error={worst_roundtrip:.3g}, elapsed={elapsed:.2f}s")
    assert roundtrip_ok
    assert elapsed < 60.0
