import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resloss import (
    DeviceCircuitModel,
    ExtractionInput,
    InconsistentInputsError,
    extract,
)

PPC_CIRCUIT = DeviceCircuitModel(2.42e-9, 727.7e-15, 82.2e-15, "A")
IDC_CIRCUIT = DeviceCircuitModel(1.87e-9, 34.7e-15, 64.4e-15, "B")


def reference_input(**overrides):
    values = dict(
        ppc_resonator_loss=920e-6,
        idc_resonator_loss=8.9e-6,
        cpw_loss=8.42e-6,
        ppc_circuit=PPC_CIRCUIT,
        idc_circuit=IDC_CIRCUIT,
        ppc_resonator_loss_err=7e-6,
        idc_resonator_loss_err=0.1e-6,
        cpw_loss_err=0.06e-6,
    )
    values.update(overrides)
    return ExtractionInput(**values)


class TestStages:
    """Each stage of ``extract``, isolated by the inputs of the other."""

    def test_inductor_loss_reference_value(self):
        # ((34.7+64.4)*8.9e-6 - 34.7*8.42e-6)/64.4 = 9.1586e-6
        value = extract(reference_input()).inductor_loss
        assert value == pytest.approx(9.158633540372669e-6, rel=1e-12)

    def test_uniform_loss_gives_same_inductor_loss(self):
        value = extract(reference_input(
            idc_resonator_loss=5e-6, cpw_loss=5e-6,
            idc_circuit=DeviceCircuitModel(1.87e-9, 40e-15, 40e-15, "B"),
        )).inductor_loss
        assert value == pytest.approx(5e-6, rel=1e-12)

    def test_inductor_loss_negative_solve(self):
        with pytest.raises(InconsistentInputsError) as info:
            extract(reference_input(
                idc_resonator_loss=5e-6, cpw_loss=1e-5,
                idc_circuit=DeviceCircuitModel(1.87e-9, 90e-15, 10e-15, "B"),
            ))
        assert info.value.stage == "inductor_loss"

    def test_ppc_loss_reference_value(self):
        # ((727.7+82.2)*920e-6 - 82.2*1.12e-5)/727.7 = 1.0227e-3
        value = extract(reference_input(idc_resonator_loss=1.12e-5, cpw_loss=1.12e-5)).ppc_loss
        assert value == pytest.approx(1.0226568091246393e-3, rel=1e-12)

    def test_ppc_loss_zero_inductor_limit(self):
        # equal IDC capacitances and a proxy loss twice the IDC total
        # give an inductor loss of exactly 0
        result = extract(reference_input(
            idc_resonator_loss=5e-6, cpw_loss=1e-5,
            idc_circuit=DeviceCircuitModel(1.87e-9, 40e-15, 40e-15, "B"),
        ))
        assert result.inductor_loss == 0.0
        assert result.ppc_loss == pytest.approx(1.0239219458568092e-3, rel=1e-12)

    def test_ppc_loss_uniform(self):
        value = extract(reference_input(
            ppc_resonator_loss=3e-4, idc_resonator_loss=3e-4, cpw_loss=3e-4,
            ppc_circuit=DeviceCircuitModel(2.42e-9, 500e-15, 100e-15, "A"),
        )).ppc_loss
        assert value == pytest.approx(3e-4, rel=1e-12)

    def test_ppc_loss_negative_solve(self):
        with pytest.raises(InconsistentInputsError) as info:
            extract(reference_input(
                ppc_resonator_loss=1e-6, idc_resonator_loss=1e-4, cpw_loss=1e-4,
                ppc_circuit=DeviceCircuitModel(2.42e-9, 100e-15, 900e-15, "A"),
            ))
        assert info.value.stage == "ppc_loss"

    @pytest.mark.parametrize("device", ["ppc", "idc"])
    def test_zero_stray_capacitance_rejected(self, device):
        circuit = DeviceCircuitModel(2e-9, 50e-15, 0.0, device)
        with pytest.raises(ValueError, match=f"{device.upper()} device: stray"):
            reference_input(**{f"{device}_circuit": circuit})


class TestExtract:
    def test_reference_devices(self):
        result = extract(reference_input())
        assert result.inductor_loss == pytest.approx(9.158633540372669e-6, rel=1e-12)
        assert result.ppc_loss == pytest.approx(1.02288739909713e-3, rel=1e-12)
        assert result.fractional_difference == pytest.approx(0.11183412945340215, rel=1e-12)

    def test_uncertainty_propagation(self):
        result = extract(reference_input())
        c_b = IDC_CIRCUIT.total_capacitance
        expected_ind = np.hypot(
            c_b / IDC_CIRCUIT.stray_capacitance * 0.1e-6,
            IDC_CIRCUIT.cap_capacitance / IDC_CIRCUIT.stray_capacitance * 0.06e-6,
        )
        assert result.inductor_loss_err == pytest.approx(expected_ind, rel=1e-12)
        c_a = PPC_CIRCUIT.total_capacitance
        expected_ppc = np.hypot(
            c_a / PPC_CIRCUIT.cap_capacitance * 7e-6,
            PPC_CIRCUIT.stray_capacitance / PPC_CIRCUIT.cap_capacitance * expected_ind,
        )
        assert result.ppc_loss_err == pytest.approx(expected_ppc, rel=1e-12)

    def test_uniform_loss_fixed_point(self):
        result = extract(reference_input(
            ppc_resonator_loss=4.2e-5, idc_resonator_loss=4.2e-5, cpw_loss=4.2e-5,
        ))
        assert result.inductor_loss == pytest.approx(4.2e-5, rel=1e-12)
        assert result.ppc_loss == pytest.approx(4.2e-5, rel=1e-12)
        assert result.fractional_difference == pytest.approx(0.0, abs=1e-12)

    def test_error_propagates_stage_name(self):
        with pytest.raises(InconsistentInputsError) as info:
            extract(reference_input(cpw_loss=2 * 8.9e-6 * 99.1 / 34.7))
        assert info.value.stage == "inductor_loss"

    def test_recombination_round_trip(self):
        result = extract(reference_input())
        cap_p = PPC_CIRCUIT.capacitor_participation
        ind_p = PPC_CIRCUIT.inductor_participation
        recombined = cap_p * result.ppc_loss + ind_p * result.inductor_loss
        assert recombined == pytest.approx(920e-6, rel=1e-15)

    def test_ppc_loss_affine_in_device_a_loss(self):
        r1 = extract(reference_input(ppc_resonator_loss=800e-6))
        r2 = extract(reference_input(ppc_resonator_loss=1000e-6))
        r_mid = extract(reference_input(ppc_resonator_loss=900e-6))
        assert r_mid.ppc_loss == pytest.approx((r1.ppc_loss + r2.ppc_loss) / 2, rel=1e-12)

    def test_underestimate_sign(self):
        # single-measurement under-reads the capacitor loss exactly when
        # the inductor is the quieter element
        low_ind = extract(reference_input())
        assert low_ind.inductor_loss < low_ind.ppc_loss
        assert low_ind.fractional_difference > 0.0

        high_ind = extract(reference_input(
            ppc_resonator_loss=2e-5, idc_resonator_loss=9e-5, cpw_loss=8e-6,
        ))
        assert high_ind.inductor_loss > high_ind.ppc_loss
        assert high_ind.fractional_difference < 0.0

    def test_identical_circuits_rejected(self):
        with pytest.raises(ValueError):
            reference_input(idc_circuit=PPC_CIRCUIT)

    def test_relabelled_identical_circuits_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            reference_input(idc_circuit=DeviceCircuitModel(2.42e-9, 727.7e-15, 82.2e-15, "B"))

    @pytest.mark.parametrize("device", ["ppc", "idc"])
    def test_missing_circuit_rejected(self, device):
        with pytest.raises(ValueError, match=f"{device.upper()} device: no circuit model"):
            reference_input(**{f"{device}_circuit": None})

    def test_nonpositive_losses_rejected(self):
        with pytest.raises(ValueError):
            reference_input(cpw_loss=0.0)
        with pytest.raises(ValueError):
            reference_input(ppc_resonator_loss=0.0)

    @pytest.mark.parametrize("name", ["ppc_resonator_loss_err", "idc_resonator_loss_err",
                                      "cpw_loss_err"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1e-6])
    def test_bad_loss_errors_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            reference_input(**{name: value})

    @given(
        loss=st.floats(1e-7, 1e-3),
        cc_a=st.floats(1e-14, 1e-12),
        cl_a=st.floats(1e-15, 1e-13),
        cc_b=st.floats(1e-14, 1e-12),
        cl_b=st.floats(1e-15, 1e-13),
    )
    @settings(max_examples=200, deadline=None)
    def test_uniform_loss_property(self, loss, cc_a, cl_a, cc_b, cl_b):
        inp = ExtractionInput(
            ppc_resonator_loss=loss, idc_resonator_loss=loss, cpw_loss=loss,
            ppc_circuit=DeviceCircuitModel(2e-9, cc_a, cl_a, "A"),
            idc_circuit=DeviceCircuitModel(1e-9, cc_b, cl_b, "B"),
        )
        result = extract(inp)
        assert result.ppc_loss == pytest.approx(loss, rel=1e-9)
        assert result.inductor_loss == pytest.approx(loss, rel=1e-9)
