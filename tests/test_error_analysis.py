import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resloss import (
    AXIS_INDUCTOR_LOSS,
    AXIS_PARTICIPATION,
    GridRangeError,
    error_map,
    log_grid,
    participation_asymptote,
    systematic_error,
)
from resloss.error_analysis import error_rows

positive_loss = st.floats(1e-8, 1e-1)


class TestSystematicError:
    def test_zero_at_equal_losses(self):
        assert systematic_error(3.3e-5, 3.3e-5, 0.102) == 0.0

    def test_lossy_inductor_reference_point(self):
        # 0.102*(1.12e-5 - 1e-6) / (0.898*1e-6 + 0.102*1.12e-5)
        value = systematic_error(1e-6, 1.12e-5, 0.102)
        assert value == pytest.approx(0.5099000196039991, rel=1e-12)

    def test_lossy_capacitor_approaches_asymptote(self):
        value = systematic_error(1e-1, 1.12e-5, 0.102)
        assert value == pytest.approx(-0.11357157968627356, rel=1e-12)
        assert abs(abs(value) - participation_asymptote(0.102)) < 1e-4

    def test_asymptote_value(self):
        assert participation_asymptote(0.102) == pytest.approx(0.102 / 0.898, rel=1e-12)

    def test_zero_participation_gives_zero(self):
        assert systematic_error(1e-4, 1e-6, 0.0) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            systematic_error(0.0, 1e-6, 0.1)
        with pytest.raises(ValueError):
            systematic_error(1e-6, 1e-6, 1.0)

    @given(c=positive_loss, l=positive_loss, p=st.floats(1e-6, 0.99))
    @settings(max_examples=300, deadline=None)
    def test_sign_follows_loss_ordering(self, c, l, p):
        value = systematic_error(c, l, p)
        if l > c:
            assert value > 0
        elif l < c:
            assert value < 0
        else:
            assert value == 0.0

    @given(c=positive_loss, l=positive_loss, p=st.floats(1e-6, 0.99),
           factor=st.floats(1e-3, 1e3))
    @settings(max_examples=300, deadline=None)
    def test_scale_invariance(self, c, l, p, factor):
        a = systematic_error(c, l, p)
        b = systematic_error(c * factor, l * factor, p)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    @given(l=positive_loss, p=st.floats(1e-6, 0.99), ratio=st.floats(1.5, 1e6))
    @settings(max_examples=300, deadline=None)
    def test_bounded_by_asymptote_for_lossier_capacitor(self, l, p, ratio):
        value = systematic_error(l * ratio, l, p)
        assert abs(value) < participation_asymptote(p)

    def test_monotone_approach_to_asymptote(self):
        caps = np.geomspace(1e-4, 1e0, 30)
        mags = np.abs(systematic_error(caps, 1.12e-5, 0.102))
        assert np.all(np.diff(mags) > 0)


class TestMeasurable:
    @staticmethod
    def measurable_cell(capacitor_loss, inductor_loss, participation, threshold=0.1):
        """The measurable_mask cell of a one-point, one-curve map."""
        emap = error_map(AXIS_INDUCTOR_LOSS, [capacitor_loss], [inductor_loss],
                         participation, threshold=threshold)
        return bool(emap.measurable_mask[0, 0])

    def test_operating_point_thresholds(self):
        # |error| = 0.1122 at the extracted operating point
        assert self.measurable_cell(1e-3, 1.12e-5, 0.102, threshold=0.12)
        assert not self.measurable_cell(1e-3, 1.12e-5, 0.102, threshold=0.10)

    def test_equal_losses_always_measurable(self):
        assert self.measurable_cell(5e-6, 5e-6, 0.4, threshold=1e-12)

    def test_low_loss_capacitor_not_measurable(self):
        assert not self.measurable_cell(1e-6, 1.12e-5, 0.102)

    def test_low_participation_can_still_fail(self):
        # a very quiet capacitor saturates |error| at 1 even for p = 0.01
        assert not self.measurable_cell(1e-9, 1.12e-5, 0.01)
        assert self.measurable_cell(1.12e-5, 1.12e-5, 0.01)


class TestLogGrid:
    def test_values(self):
        grid = log_grid(1e-7, 1e-1, 7)
        assert grid[0] == pytest.approx(1e-7)
        assert grid[-1] == pytest.approx(1e-1)
        assert np.allclose(np.diff(np.log(grid)), np.log(10))

    def test_invalid_bounds(self):
        with pytest.raises(GridRangeError):
            log_grid(-1.0, 1.0, 5)
        with pytest.raises(GridRangeError):
            log_grid(1e-3, 1e-6, 5)
        with pytest.raises(GridRangeError):
            log_grid(1e-6, 1e-3, 1)

    def test_definition(self):
        # exact ends; 10 ** (log10(lo) + i * step) between them, by libm's pow
        grid = log_grid(3e-8, 0.2, 101)
        step = (math.log10(0.2) - math.log10(3e-8)) / 100
        assert grid == [3e-8, *(10.0 ** (math.log10(3e-8) + i * step) for i in range(1, 100)),
                        0.2]
        assert all(type(x) is float for x in grid)

    def test_default_grid_decades_are_the_nearest_doubles(self):
        grid = log_grid(1e-7, 1e-1, 61)
        assert grid[20] == 1e-5
        assert [grid[10 * k] for k in range(7)] == [float(f"1e{k}") for k in range(-7, 0)]

    @pytest.mark.parametrize("lo, hi", [(1e-7, np.inf), (np.inf, np.inf), (1e-7, np.nan)])
    def test_non_finite_bounds(self, lo, hi):
        with pytest.raises(GridRangeError, match="finite"):
            log_grid(lo, hi, 5)


class TestErrorMap:
    def test_inductor_loss_curves_share_asymptote(self):
        grid = log_grid(1e-7, 1e-1, 41)
        emap = error_map(AXIS_INDUCTOR_LOSS, grid,
                         [1.12e-6, 1.12e-5, 1.12e-4], 0.102)
        assert emap.signed.shape == (41, 3)
        final = emap.magnitude[-1, :]
        for value in final:
            assert abs(value - participation_asymptote(0.102)) < 1e-3

    def test_participation_curves_have_own_asymptotes(self):
        grid = log_grid(1e-7, 1e-1, 41)
        emap = error_map(AXIS_PARTICIPATION, grid, [0.01, 0.102, 0.3], 1.12e-5)
        for j, p in enumerate((0.01, 0.102, 0.3)):
            assert emap.asymptotes()[j] == pytest.approx(p / (1 - p), rel=1e-12)
            assert abs(emap.magnitude[-1, j] - p / (1 - p)) < 1e-2 * p / (1 - p)

    def test_single_point_grid_at_equal_losses(self):
        emap = error_map(AXIS_INDUCTOR_LOSS, np.array([1.12e-5]), [1.12e-5], 0.102)
        assert emap.signed[0, 0] == 0.0

    def test_measurable_mask_matches_threshold(self):
        grid = log_grid(1e-7, 1e-1, 31)
        emap = error_map(AXIS_INDUCTOR_LOSS, grid, [1.12e-5], 0.102, threshold=0.1)
        mask = emap.measurable_mask[:, 0]
        assert mask.any() and (~mask).any()
        assert np.array_equal(mask, emap.magnitude[:, 0] <= 0.1)

    def test_determinism(self):
        grid = log_grid(1e-7, 1e-1, 21)
        a = error_map(AXIS_INDUCTOR_LOSS, grid, [1e-5], 0.102)
        b = error_map(AXIS_INDUCTOR_LOSS, grid, [1e-5], 0.102)
        assert np.array_equal(a.signed, b.signed)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            error_map("coupling", np.array([1e-5]), [1e-5], 0.102)
        with pytest.raises(GridRangeError):
            error_map(AXIS_INDUCTOR_LOSS, np.array([]), [1e-5], 0.102)
        with pytest.raises(ValueError):
            error_map(AXIS_INDUCTOR_LOSS, np.array([1e-5]), [], 0.102)

    @pytest.mark.parametrize("curves, fixed, threshold", [
        ([1e-5, np.nan], 0.102, 0.1),
        ([1e-5], np.nan, 0.1),
        ([1e-5], 0.102, np.nan),
        ([1e-5], 0.102, np.inf),
    ])
    def test_non_finite_values_rejected(self, curves, fixed, threshold):
        with pytest.raises(ValueError, match="finite"):
            error_map(AXIS_INDUCTOR_LOSS, np.array([1e-5]), curves, fixed, threshold)


class TestErrorRows:
    """The plain-float table agrees bit for bit with ``error_map``'s arrays."""

    @pytest.mark.parametrize("axis, curves, fixed", [
        (AXIS_INDUCTOR_LOSS, [1.12e-7, 1.12e-6, 1.12e-5, 1.12e-4, 1.12e-3], 0.102),
        (AXIS_PARTICIPATION, [0.0, 0.001, 0.01, 0.102, 0.3], 1.12e-5),
    ])
    def test_same_bits_as_error_map(self, axis, curves, fixed):
        grid = log_grid(1e-9, 1e2, 1365)
        rows = error_rows(axis, grid, curves, fixed)
        emap = error_map(axis, grid, curves, fixed)
        assert all(type(x) is float for row in rows for x in row)
        cells = np.array(rows)
        assert cells.tobytes() == np.column_stack([emap.capacitor_loss_grid,
                                                   emap.signed]).tobytes()

    def test_plain_numbers_give_a_float(self):
        assert type(systematic_error(1e-6, 1.12e-5, 0.102)) is float
        assert isinstance(systematic_error(np.float32(1e-6), 1, 0), float)
        assert systematic_error(np.array([1e-6]), 1.12e-5, 0.102).shape == (1,)

    @pytest.mark.parametrize("args, error", [
        (("coupling", [1e-5], [1e-5], 0.102), ValueError),
        ((AXIS_INDUCTOR_LOSS, [], [1e-5], 0.102), GridRangeError),
        ((AXIS_INDUCTOR_LOSS, [1e-5, -1.0], [1e-5], 0.102), GridRangeError),
        ((AXIS_INDUCTOR_LOSS, [1e-5], [], 0.102), ValueError),
        ((AXIS_INDUCTOR_LOSS, [1e-5], [1e-5], math.nan), ValueError),
        ((AXIS_INDUCTOR_LOSS, [1e-5], [1e-5], 0.102, 0.0), ValueError),
        ((AXIS_INDUCTOR_LOSS, [1e-5], [0.0], 0.102), ValueError),
        ((AXIS_PARTICIPATION, [1e-5], [1.0], 1e-5), ValueError),
    ])
    def test_refuses_what_error_map_refuses(self, args, error):
        with pytest.raises(error) as from_rows:
            error_rows(*args)
        with pytest.raises(error) as from_map:
            error_map(*args)
        assert str(from_rows.value) == str(from_map.value)
