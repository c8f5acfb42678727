import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resloss import (
    DesignKind,
    DeviceCircuitModel,
    DeviceRecord,
    InfeasibleGeometryError,
    InvalidModelError,
    NonphysicalFitError,
    UnderdeterminedError,
    capacitance_from_frequency,
    fit_lc,
    resonance_frequency,
)


def model(l=2.42e-9, cc=727.7e-15, cl=82.2e-15, label="A"):
    return DeviceCircuitModel(inductance=l, cap_capacitance=cc,
                              stray_capacitance=cl, label=label)


class TestResonanceFrequency:
    def test_reference_values(self):
        # independent evaluation: 1/(2*pi*sqrt(1e-9 * 1e-12)) = 5.0329 GHz
        f = resonance_frequency(model(1e-9, 1e-12, 0.0))
        assert f == pytest.approx(5032921210.448703, rel=1e-12)

    def test_device_a_row(self):
        # the tabulated capacitances imply 3.595 GHz, not the measured
        # 3.7464 GHz; the table is treated as opaque input
        f = resonance_frequency(model())
        assert f == pytest.approx(3594982239.622274, rel=1e-12)

    def test_quadrupling_l_halves_f0(self):
        f1 = resonance_frequency(model(1e-9, 1e-12, 50e-15))
        f2 = resonance_frequency(model(4e-9, 1e-12, 50e-15))
        assert f1 / f2 == pytest.approx(2.0, rel=1e-12)

    def test_monotone_decreasing_in_each_parameter(self):
        base = model(1e-9, 500e-15, 50e-15)
        assert resonance_frequency(model(2e-9, 500e-15, 50e-15)) < resonance_frequency(base)
        assert resonance_frequency(model(1e-9, 600e-15, 50e-15)) < resonance_frequency(base)
        assert resonance_frequency(model(1e-9, 500e-15, 90e-15)) < resonance_frequency(base)

    def test_invalid_model_rejected(self):
        with pytest.raises(InvalidModelError):
            model(l=-1e-9)
        with pytest.raises(InvalidModelError):
            model(cc=0.0)
        with pytest.raises(InvalidModelError):
            model(cl=-1e-15)


class TestCapacitanceFromFrequency:
    def test_inverse_of_reference(self):
        cc = capacitance_from_frequency(5032921210.448703, 1e-9, 0.0)
        assert cc == pytest.approx(1e-12, rel=1e-9)

    def test_round_trip_device_a(self):
        m = model()
        f0 = resonance_frequency(m)
        cc = capacitance_from_frequency(f0, m.inductance, m.stray_capacitance)
        assert cc == pytest.approx(m.cap_capacitance, rel=1e-12)

    def test_infeasible_geometry(self):
        # 10 GHz with 1 nH implies 253.3 fF total, below the 300 fF stray
        with pytest.raises(InfeasibleGeometryError):
            capacitance_from_frequency(10e9, 1e-9, 300e-15)

    def test_bad_arguments(self):
        with pytest.raises(InvalidModelError):
            capacitance_from_frequency(-1.0, 1e-9, 0.0)
        with pytest.raises(InvalidModelError):
            capacitance_from_frequency(5e9, 0.0, 0.0)

    @given(
        l=st.floats(1e-10, 1e-7),
        cc=st.floats(1e-15, 1e-11),
        cl=st.floats(0.0, 1e-12),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, l, cc, cl):
        m = DeviceCircuitModel(inductance=l, cap_capacitance=cc, stray_capacitance=cl)
        f0 = resonance_frequency(m)
        back = capacitance_from_frequency(f0, l, cl)
        assert back == pytest.approx(cc, rel=1e-12)


class TestFitLc:
    def test_noise_free_recovery(self):
        truth_l, truth_cl = 2.42e-9, 82.2e-15
        caps = [100e-15, 300e-15, 500e-15, 700e-15]
        points = [
            (c, resonance_frequency(DeviceCircuitModel(truth_l, c, truth_cl)))
            for c in caps
        ]
        fit = fit_lc(points)
        assert fit.inductance == pytest.approx(truth_l, rel=1e-9)
        assert fit.stray_capacitance == pytest.approx(truth_cl, rel=1e-9)

    def test_two_points_interpolate_exactly(self):
        truth_l, truth_cl = 1.1e-9, 40e-15
        points = [
            (c, resonance_frequency(DeviceCircuitModel(truth_l, c, truth_cl)))
            for c in (200e-15, 600e-15)
        ]
        fit = fit_lc(points)
        assert fit.inductance == pytest.approx(truth_l, rel=1e-9)
        assert fit.stray_capacitance == pytest.approx(truth_cl, rel=1e-9)
        assert fit.residual_rms < 1e-30

    def test_zero_stray_is_allowed(self):
        points = [
            (c, resonance_frequency(DeviceCircuitModel(1e-9, c, 0.0)))
            for c in (100e-15, 900e-15)
        ]
        fit = fit_lc(points)
        assert fit.stray_capacitance == pytest.approx(0.0, abs=1e-25)

    def test_duplicate_capacitance_underdetermined(self):
        with pytest.raises(UnderdeterminedError):
            fit_lc([(100e-15, 5e9), (100e-15, 6e9), (100e-15, 7e9)])

    def test_single_point_underdetermined(self):
        with pytest.raises(UnderdeterminedError):
            fit_lc([(100e-15, 5e9)])

    def test_nonphysical_fit_rejected(self):
        # frequencies increasing with capacitance force a negative slope
        with pytest.raises(NonphysicalFitError):
            fit_lc([(100e-15, 3e9), (500e-15, 9e9)])

    def test_frequency_noise_perturbs_l_linearly(self):
        truth_l, truth_cl = 2.42e-9, 82.2e-15
        caps = np.geomspace(50e-15, 900e-15, 12)
        f0s = np.array([
            resonance_frequency(DeviceCircuitModel(truth_l, c, truth_cl))
            for c in caps
        ])
        rng = np.random.default_rng(11)
        eps = 1e-6
        worst = 0.0
        for _ in range(10):
            noisy = f0s * (1.0 + eps * rng.standard_normal(f0s.size))
            fit = fit_lc(list(zip(caps, noisy)))
            worst = max(worst, abs(fit.inductance - truth_l) / truth_l)
        assert worst < 50 * eps


class TestParticipation:
    def test_total_capacitance_is_exact_sum(self):
        m = model()
        assert m.total_capacitance == 727.7e-15 + 82.2e-15

    def test_device_a_values(self):
        ind_p = model().inductor_participation
        # 82.2 / 809.9 from the tabulated capacitances; the rounded
        # published ratio for this device is 0.102
        assert ind_p == pytest.approx(82.2 / 809.9, rel=1e-12)
        assert abs(ind_p - 0.102) < 6e-4

    def test_pure_capacitor(self):
        m = model(cl=0.0)
        assert (m.capacitor_participation, m.inductor_participation) == (1.0, 0.0)

    def test_symmetric_split(self):
        m = model(cc=300e-15, cl=300e-15)
        assert m.capacitor_participation == pytest.approx(0.5, abs=1e-15)
        assert m.inductor_participation == pytest.approx(0.5, abs=1e-15)

    @given(
        cc=st.floats(1e-16, 1e-11),
        cl=st.floats(1e-18, 1e-11),
        factor=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance_and_unit_sum(self, cc, cl, factor):
        a = model(cc=cc, cl=cl)
        b = model(cc=cc * factor, cl=cl * factor)
        assert a.capacitor_participation == pytest.approx(b.capacitor_participation, rel=1e-9)
        assert a.capacitor_participation + a.inductor_participation == pytest.approx(
            1.0, abs=1e-12)


class TestDeviceRecord:
    def test_cpw_carries_no_circuit(self):
        rec = DeviceRecord(label="C", design=DesignKind.CPW, material="Al", f0=4.5548e9)
        assert rec.circuit is None
        with pytest.raises(InvalidModelError):
            DeviceRecord(label="C", design=DesignKind.CPW, material="Al",
                         f0=4.5548e9, circuit=model())

    def test_f0_must_be_positive(self):
        with pytest.raises(InvalidModelError):
            DeviceRecord(label="A", design=DesignKind.LE_PPC, material="x", f0=0.0)
