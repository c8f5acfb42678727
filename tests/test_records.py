"""Every record is an immutable named tuple, and ``_replace`` runs its checks."""

import math
import re

import numpy as np
import pytest

from helpers import device_a_truth, model_sweep
from resloss import (
    AXIS_INDUCTOR_LOSS,
    DesignKind,
    DeviceCircuitModel,
    DeviceRecord,
    ExtractionInput,
    LcFit,
    PowerSweepPoint,
    ResonatorFitResult,
    TlsFitResult,
    TlsLossParams,
    error_map,
    extract,
    tls,
)

CIRCUIT = DeviceCircuitModel(2.42e-9, 727.7e-15, 82.2e-15, "A")
INPUTS = ExtractionInput(920e-6, 8.9e-6, 8.42e-6, CIRCUIT,
                         DeviceCircuitModel(1.87e-9, 34.7e-15, 64.4e-15, "B"))
PARAMS = TlsLossParams(9.2e-4, 10.0, 0.5, 1e6, 2.0 * math.pi * 3.7464e9, 0.1)

# Each record, built valid, and a field value that its checks refuse (None
# for the records without checks).
RECORDS = {
    "DeviceCircuitModel": (lambda: CIRCUIT, ("stray_capacitance", -1e-15)),
    "DeviceRecord": (lambda: DeviceRecord("C", DesignKind.CPW, "Al", 4.5548e9),
                     ("circuit", CIRCUIT)),
    "LcFit": (lambda: LcFit(2.42e-9, 82.2e-15, 0.0), None),
    "ExtractionInput": (lambda: INPUTS, ("idc_circuit", CIRCUIT)),
    "ExtractionResult": (lambda: extract(INPUTS), None),
    "TlsLossParams": (lambda: PARAMS, ("temperature", math.inf)),
    "PowerSweepPoint": (lambda: PowerSweepPoint(10.0, 1e-5, 1e-7), ("loss_sigma", math.nan)),
    "TlsFitResult": (lambda: TlsFitResult(PARAMS, 1e-6, 0.1, 1e3, 0.0, 1.0, 12, 9e5), None),
    "LeastSquaresResult": (lambda: tls.least_squares(
        lambda x: ([x[0] - 1.0], [[1.0]]), [0.0], ([-2.0], [2.0])), None),
    "ComplexSweep": (lambda: model_sweep(4.5e9, 1e5, 3e4, 0.1), ("power", 0.0)),
    "ResonatorFitResult": (lambda: ResonatorFitResult(4.5e9, 1e5, 3e4, 0.1, 1.0, 1e2, 30.0,
                                                      1e-3, 1e-4, 7), None),
    "GroundTruth": (lambda: device_a_truth(), ("baseline", 0j)),
    "ErrorMap": (lambda: error_map(AXIS_INDUCTOR_LOSS, [1e-5, 1e-4], [1e-6], 0.1), None),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_immutable_and_replace_checks(name):
    make, refused = RECORDS[name]
    record = make()
    assert type(record).__name__ == name and isinstance(record, tuple)
    for attribute in (record._fields[-1], "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, attribute, 1.0)
    if refused is None:
        return
    field, value = refused
    with pytest.raises(Exception) as built:
        type(record)(**{**record._asdict(), field: value})
    exact = f"^{re.escape(str(built.value))}$"
    with pytest.raises(type(built.value), match=exact):
        record._replace(**{field: value})
    with pytest.raises(type(built.value), match=exact):
        type(record)._make(value if key == field else old
                           for key, old in zip(record._fields, record))


def test_replace_keeps_a_record_normalised():
    truth = device_a_truth()._replace(baseline=2, powers=[1e-15, 1e-14])
    assert truth.baseline == 2 + 0j and type(truth.baseline) is complex
    assert truth.powers == (1e-15, 1e-14)
    sweep = model_sweep(4.5e9, 1e5, 3e4, 0.1)
    moved = sweep._replace(frequencies=sweep.frequencies.tolist())
    assert isinstance(moved.frequencies, np.ndarray) and not moved.frequencies.flags.writeable
    assert np.array_equal(moved.frequencies, sweep.frequencies)
