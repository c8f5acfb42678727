"""Synthetic measurement generator with seeded, reproducible noise.

Forward model for the whole analysis chain: the internal quality factor
at each applied power comes from the saturable TLS loss curve, with the
photon number solved self-consistently (it depends on Q_i, which depends
on it). Sweeps are the inverted inverse-transmission model, optionally
dressed with a cable delay, a complex baseline and additive complex
Gaussian noise.

Randomness uses the Philox 4x64 counter RNG keyed by (seed, stream), a
fixed, named, portable algorithm, so identical inputs give bit-identical
fixtures. Stream i is sweep i; stream 2**32 is the power-sweep noise.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .s21 import ComplexSweep, inverse_s21_model, photon_number
from .tls import PowerSweepPoint, TlsLossParams, total_loss

_POWER_SWEEP_STREAM = 2**32


@dataclass(frozen=True)
class GroundTruth:
    """Generator parameters for one synthetic resonator measurement set."""

    f0: float  # Hz
    q_c: float
    phi: float  # rad
    f_tan_delta0: float
    n_c: float
    beta: float
    q_hp: float
    temperature: float  # K
    span: float  # Hz, sweep window centered on f0
    n_points: int
    powers: tuple[float, ...]  # W at the device plane, one sweep each
    s21_sigma: float = 0.0  # additive complex noise, per quadrature
    delay: float = 0.0  # s
    baseline: complex = 1.0 + 0.0j
    loss_rel_sigma: float = 0.0  # multiplicative noise on power-sweep losses
    seed: int = 0

    def __post_init__(self):
        for name in ("f0", "q_c", "phi", "f_tan_delta0", "n_c", "beta", "q_hp", "temperature",
                     "span", "s21_sigma", "delay", "loss_rel_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.f0 > 0.0 and self.q_c > 0.0):
            raise ValueError("f0 and q_c must be > 0")
        if not self.span > 0.0:
            raise ValueError("span must be > 0")
        if self.n_points < 16:
            raise ValueError(f"need at least 16 points per sweep, got {self.n_points}")
        if self.s21_sigma < 0.0 or self.loss_rel_sigma < 0.0:
            raise ValueError("noise levels must be >= 0")
        if len(self.powers) == 0 or not all(0.0 < p < math.inf for p in self.powers):
            raise ValueError(f"powers must be a non-empty list of finite positive watts, "
                             f"got {list(self.powers)}")
        if not isinstance(self.baseline, numbers.Complex):
            raise ValueError(f"baseline must be a complex scalar, got {self.baseline!r}")
        if not (cmath.isfinite(self.baseline) and self.baseline != 0):
            raise ValueError(f"baseline must be finite and nonzero, got {self.baseline}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        object.__setattr__(self, "baseline", complex(self.baseline))
        object.__setattr__(self, "powers", tuple(float(p) for p in self.powers))

    @property
    def tls_params(self) -> TlsLossParams:
        return TlsLossParams(
            f_tan_delta0=self.f_tan_delta0,
            n_c=self.n_c,
            beta=self.beta,
            q_hp=self.q_hp,
            omega0=2.0 * math.pi * self.f0,
            temperature=self.temperature,
        )


def _rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def resonator_state(truth: GroundTruth, power: float) -> tuple[float, float]:
    """Self-consistent (photon number, Q_i) at one applied power.

    The photon number grows with Q_i and Q_i grows with photon number, so
    the fixed point is bracketed by n = 0 and the photon number at the
    fully saturated Q_i = q_hp, and is unique on that interval.
    """
    params = truth.tls_params

    def q_i(n: float) -> float:
        return 1.0 / total_loss(n, params)

    def gap(n: float) -> float:
        return photon_number(power, truth.f0, q_i(n), truth.q_c) - n

    n_hi = photon_number(power, truth.f0, truth.q_hp, truth.q_c)
    if gap(n_hi) >= 0.0:
        n = n_hi
    else:
        n = _illinois(gap, 0.0, n_hi)
    return float(n), q_i(n)


def _illinois(func, a: float, b: float) -> float:
    """Root of ``func`` on [a, b], where func(a) > 0 > func(b).

    Regula falsi in which an end point kept twice in a row has its
    function value halved (the Illinois method; Dowell & Jarratt, BIT 11,
    168 (1971)). It never leaves the bracket, converges superlinearly and
    stops when the bracket is down to a few ulps or no longer shrinks.
    """
    fa, fb = func(a), func(b)
    kept = 0  # +1 when a was kept by the last step, -1 when b was
    for _ in range(200):
        c = (a * fb - b * fa) / (fb - fa)
        if not a < c < b:
            break
        fc = func(c)
        if fc == 0.0:
            break
        if fc > 0.0:
            a, fa = c, fc
            if kept == -1:
                fb *= 0.5
            kept = -1
        else:
            b, fb = c, fc
            if kept == 1:
                fa *= 0.5
            kept = 1
        if b - a <= 4.0 * np.spacing(c):
            break
    return c


def generate_s21_sweep(truth: GroundTruth, power_index: int) -> ComplexSweep:
    """One complex transmission sweep at ``truth.powers[power_index]``."""
    if not 0 <= power_index < len(truth.powers):
        raise IndexError(f"power_index {power_index} out of range")
    power = truth.powers[power_index]
    _, q_i = resonator_state(truth, power)

    f = np.linspace(truth.f0 - truth.span / 2.0, truth.f0 + truth.span / 2.0, truth.n_points)
    z = 1.0 / inverse_s21_model(f, truth.f0, q_i, truth.q_c, truth.phi)
    z = z * truth.baseline * np.exp(-2j * math.pi * f * truth.delay)
    if truth.s21_sigma > 0.0:
        noise = _rng(truth.seed, power_index).standard_normal((2, truth.n_points))
        z = z + truth.s21_sigma * (noise[0] + 1j * noise[1])
    return ComplexSweep(
        frequencies=f, s21=z, power=power, temperature=truth.temperature
    )


def generate_power_sweep(truth: GroundTruth) -> list[PowerSweepPoint]:
    """(photon number, loss, sigma) triples across all planned powers."""
    rng = _rng(truth.seed, _POWER_SWEEP_STREAM)
    points = []
    for power in truth.powers:
        n, q_i = resonator_state(truth, power)
        loss = 1.0 / q_i
        sigma = truth.loss_rel_sigma * loss
        if truth.loss_rel_sigma > 0.0:
            loss = loss * (1.0 + truth.loss_rel_sigma * rng.standard_normal())
        points.append(PowerSweepPoint(photons=n, loss=loss, loss_sigma=sigma))
    return points
