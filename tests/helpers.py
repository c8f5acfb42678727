"""Shared builders for synthetic test data."""

import numpy as np

from resloss import ComplexSweep, GroundTruth, inverse_s21_model

# CODATA values typed in independently of scipy.constants, for oracle
# arithmetic in the tests.
HBAR = 1.054571817e-34
K_B = 1.380649e-23


def loaded_q(q_i: float, q_c: float) -> float:
    return 1.0 / (1.0 / q_i + 1.0 / q_c)


def model_sweep(f0, q_i, q_c, phi, span_linewidths=20, n_points=501,
                power=1e-15, temperature=0.1) -> ComplexSweep:
    """Noise-free sweep evaluated straight from the transmission model."""
    span = span_linewidths * f0 / loaded_q(q_i, q_c)
    f = np.linspace(f0 - span / 2, f0 + span / 2, n_points)
    z = 1.0 / inverse_s21_model(f, f0, q_i, q_c, phi)
    return ComplexSweep(frequencies=f, s21=z, power=power, temperature=temperature)


def resonator_truth(q_i, *, f0=4.5548e9, q_c=3e4, phi=0.1, span_linewidths=20,
                    n_points=501, power=1e-15, s21_sigma=0.0, delay=0.0,
                    baseline=1.0 + 0.0j, seed=0) -> GroundTruth:
    """Fixed-Q_i truth: the TLS curve is collapsed to a constant q_hp."""
    span = span_linewidths * f0 / loaded_q(q_i, q_c)
    return GroundTruth(
        f0=f0, q_c=q_c, phi=phi,
        f_tan_delta0=1e-30, n_c=1.0, beta=0.5, q_hp=q_i,
        temperature=0.1, span=span, n_points=n_points,
        powers=(power,), s21_sigma=s21_sigma, delay=delay,
        baseline=baseline, seed=seed,
    )


def device_a_truth(*, q_c=3e3, span=7.5e7, n_points=1001, n_powers=21,
                   s21_sigma=0.0, delay=0.0, baseline=1.0 + 0.0j,
                   loss_rel_sigma=0.0, seed=0) -> GroundTruth:
    """Lossy-PPC-style truth covering both TLS saturation regimes."""
    return GroundTruth(
        f0=3.7464e9, q_c=q_c, phi=0.05,
        f_tan_delta0=9.2e-4, n_c=10.0, beta=0.5, q_hp=1e6,
        temperature=0.1, span=span, n_points=n_points,
        powers=tuple(np.geomspace(1e-18, 1e-13, n_powers)),
        s21_sigma=s21_sigma, delay=delay, baseline=baseline,
        loss_rel_sigma=loss_rel_sigma, seed=seed,
    )


# PPC, IDC and CPW devices of the three-device method: the PPC is the
# lossy device_a truth; the IDC and CPW are low-loss and strongly
# overcoupled at high power, with a span of 20 loaded linewidths at their
# low-power loss.
_LOW_LOSS_DEVICES = {
    "idc": {"f0": 6.3798e9, "f_tan_delta0": 8.9e-6},
    "cpw": {"f0": 4.5548e9, "f_tan_delta0": 8.42e-6},
}


def three_device_truths(*, n_powers=101, n_points=1001, s21_sigma=1e-3, delay=50e-9,
                        baseline=0.8 + 0.3j, loss_rel_sigma=0.0, seed=0) -> dict:
    """{"ppc", "idc", "cpw"} -> GroundTruth over one power grid."""
    powers = tuple(np.geomspace(1e-18, 1e-13, n_powers))
    common = dict(phi=0.05, n_c=10.0, beta=0.5, temperature=0.1, n_points=n_points,
                  powers=powers, s21_sigma=s21_sigma, delay=delay, baseline=baseline,
                  loss_rel_sigma=loss_rel_sigma)
    truths = {"ppc": GroundTruth(f0=3.7464e9, q_c=3e3, f_tan_delta0=9.2e-4, q_hp=1e6,
                                 span=7.5e7, seed=seed, **common)}
    for k, (name, dev) in enumerate(_LOW_LOSS_DEVICES.items(), start=1):
        q_c, q_hp = 3e4, 1e7
        span = 20.0 * dev["f0"] * (dev["f_tan_delta0"] + 1.0 / q_hp + 1.0 / q_c)
        truths[name] = GroundTruth(q_c=q_c, q_hp=q_hp, span=span, seed=seed + k,
                                   **dev, **common)
    return truths
