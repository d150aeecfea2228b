import itertools
import math

import numpy as np
import pytest

from qmme.errors import DimensionMismatch
from qmme.fourier import (
    FourierOperatorSeries,
    _shells,
    check_rational_independence,
    frequency_vector,
    normalize_witness,
    sample_times,
)


def random_series(rng, r, d, trunc, n_terms, spread=None):
    # spread < trunc leaves room so that pairwise products stay inside the box
    spread = trunc if spread is None else spread
    coeffs = {}
    while len(coeffs) < n_terms:
        n = tuple(int(v) for v in rng.integers(-spread, spread + 1, size=r))
        coeffs[n] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return FourierOperatorSeries(r, d, trunc, coeffs)


class TestFrequencyVector:
    def test_accepts_positive(self):
        assert np.allclose(frequency_vector([1.0, 2.0]), [1.0, 2.0])

    @pytest.mark.parametrize("bad", [[1.0, 0.0], [1.0, -2.0], [np.inf], []])
    def test_rejects(self, bad):
        with pytest.raises(Exception):
            frequency_vector(bad)


class TestSeriesBasics:
    def test_constant(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        s = FourierOperatorSeries.constant(m, r=2)
        for t in [0.0, 0.7, 13.2]:
            assert np.allclose(s.evaluate([1.0, math.sqrt(2)], t), m)

    def test_single_mode_phase(self):
        m = np.eye(2, dtype=complex)
        s = FourierOperatorSeries(1, 2, 3, {(2,): m})
        omega = [1.3]
        t = 0.9
        assert np.allclose(s.evaluate(omega, t), np.exp(1j * 2 * 1.3 * 0.9) * m)

    def test_out_of_box_index_rejected(self):
        with pytest.raises(DimensionMismatch):
            FourierOperatorSeries(1, 2, 1, {(2,): np.eye(2)})

    def test_coeff_returns_zero_for_missing(self):
        s = FourierOperatorSeries.constant(np.eye(2), r=1, trunc=3)
        assert np.array_equal(s.coeff((2,)), np.zeros((2, 2)))

    def test_sampler_matches_evaluate(self, rng):
        # sampler and evaluate_many against evaluate, out to t = 200; with
        # 60 terms (r = 3) the grid spans three evaluate_many chunks
        ts = np.concatenate([[0.0, 0.31, 2.9, 17.3], np.linspace(0.0, 200.0, 701)])
        for omega, n_terms in (([1.0, math.sqrt(2)], 9), ([1.0, math.sqrt(2), math.sqrt(3)], 60)):
            omega = np.array(omega)
            s = random_series(rng, omega.size, 3, 4, n_terms)
            sampler = s.sampler(omega)
            many = s.evaluate_many(omega, ts)
            assert many.shape == (ts.size, 3, 3)
            bound = 1e-13 * s.l1_norm()
            for t, value in zip(ts, many):
                expect = s.evaluate(omega, t)
                assert np.max(np.abs(sampler(t) - expect)) <= bound
                assert np.max(np.abs(value - expect)) <= bound

    def test_evaluate_many_empty(self):
        s = FourierOperatorSeries(2, 2, 3, {})
        assert np.array_equal(s.evaluate_many([1.0, 2.0], [0.0, 1.5]), np.zeros((2, 2, 2)))
        assert s.evaluate_many([1.0, 2.0], []).shape == (0, 2, 2)


class TestSeriesAlgebra:
    def test_product_single_modes(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        b = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        s1 = FourierOperatorSeries(1, 2, 2, {(1,): a})
        s2 = FourierOperatorSeries(1, 2, 2, {(-1,): b})
        p = s1.product(s2)
        assert np.allclose(p.coeff((0,)), a @ b)
        assert len(p) == 1

    def test_product_matches_pointwise(self, rng):
        # supports confined to |n_i| <= 1 so the convolution fits in trunc=3
        s1 = random_series(rng, 2, 2, 3, 6, spread=1)
        s2 = random_series(rng, 2, 2, 3, 6, spread=1)
        p = s1.product(s2)
        omega = np.array([1.0, math.sqrt(2)])
        for t in sample_times(omega, count=7):
            assert np.allclose(
                p.evaluate(omega, t),
                s1.evaluate(omega, t) @ s2.evaluate(omega, t),
                atol=1e-12,
            )

    def test_adjoint_matches_pointwise(self, rng):
        s = random_series(rng, 2, 3, 3, 5)
        omega = np.array([0.9, 1.7])
        for t in [0.1, 1.4, 6.6]:
            assert np.allclose(
                s.adjoint().evaluate(omega, t),
                s.evaluate(omega, t).conj().T,
                atol=1e-13,
            )

    def test_derivative_matches_finite_difference(self, rng):
        s = random_series(rng, 2, 2, 3, 6)
        omega = np.array([1.0, math.sqrt(2)])
        ds = s.derivative(omega)
        t, h = 0.73, 1e-6
        fd = (s.evaluate(omega, t + h) - s.evaluate(omega, t - h)) / (2 * h)
        assert np.allclose(ds.evaluate(omega, t), fd, atol=1e-7)

    def test_add_and_scalar(self, rng):
        s1 = random_series(rng, 1, 2, 2, 3)
        s2 = random_series(rng, 1, 2, 2, 3)
        omega = [1.1]
        t = 0.5
        total = s1 + 2.0 * s2
        assert np.allclose(
            total.evaluate(omega, t),
            s1.evaluate(omega, t) + 2.0 * s2.evaluate(omega, t),
        )
        diff = s1 - s2
        assert np.allclose(
            diff.evaluate(omega, t), s1.evaluate(omega, t) - s2.evaluate(omega, t)
        )


class TestTruncationBookkeeping:
    def test_truncate_records_dropped_mass(self):
        m1 = np.eye(2, dtype=complex)
        m2 = 0.5 * np.eye(2, dtype=complex)
        s = FourierOperatorSeries(1, 2, 3, {(0,): m1, (3,): m2})
        cut = s.truncate(2)
        assert cut.trunc == 2
        assert cut.tail_norm == pytest.approx(np.linalg.norm(m2))
        assert len(cut) == 1

    def test_tail_bounds_sup_error(self, rng):
        s = random_series(rng, 1, 2, 6, 10)
        cut = s.truncate(2)
        omega = [1.0]
        worst = max(
            np.linalg.norm(s.evaluate(omega, t) - cut.evaluate(omega, t))
            for t in np.linspace(0.0, 50.0, 300)
        )
        assert worst <= cut.tail_norm + 1e-12

    def test_product_tail_propagates(self, rng):
        s1 = random_series(rng, 1, 2, 4, 5).truncate(3)
        s2 = random_series(rng, 1, 2, 4, 5).truncate(3)
        p = s1.product(s2)
        # the tail bound must dominate the actual pointwise error against
        # the exact product of the truncated factors evaluated directly
        omega = [1.3]
        worst = max(
            np.linalg.norm(
                s1.evaluate(omega, t) @ s2.evaluate(omega, t) - p.evaluate(omega, t)
            )
            for t in np.linspace(0.0, 40.0, 200)
        )
        assert worst <= p.tail_norm + 1e-12

    def test_drop_below(self):
        s = FourierOperatorSeries(
            1, 1, 2, {(0,): np.array([[1.0]]), (1,): np.array([[1e-18]])}
        )
        cleaned = s.drop_below(1e-15)
        assert len(cleaned) == 1
        assert cleaned.tail_norm >= 1e-18


class TestLattice:
    def test_shell_count_box_one(self):
        pts = _shells(2, 1)
        assert len(pts) == 8
        assert np.all(np.abs(pts).max(axis=1) == 1)

    def test_shells_cover_box_without_zero(self):
        pts = _shells(2, 3)
        assert len(pts) == 7 * 7 - 1
        assert len({tuple(k) for k in pts}) == len(pts)

    @pytest.mark.parametrize("r,box", [(1, 0), (1, 4), (2, 3), (3, 2), (3, 5)])
    def test_shell_order_matches_loop(self, r, box):
        # Chebyshev shell first, lexicographic inside a shell
        loop = [
            k
            for radius in range(1, box + 1)
            for k in itertools.product(range(-radius, radius + 1), repeat=r)
            if max(abs(v) for v in k) == radius
        ]
        pts = _shells(r, box)
        assert pts.shape == (len(loop), r)
        assert [tuple(int(v) for v in k) for k in pts] == loop

    def test_independent_pair_passes(self):
        assert check_rational_independence([1.0, math.sqrt(2)]) is None

    def test_dependent_pair_witness(self):
        # 2 * 1 + (-1) * 2 = 0, reported with positive leading entry
        assert check_rational_independence([1.0, 2.0]) == (2, -1)

    def test_small_denominator_found(self):
        assert check_rational_independence([1.0, 1.0 / 3.0]) == (1, -3)

    def test_normalize_witness(self):
        assert normalize_witness((-2, 1)) == (2, -1)
        assert normalize_witness((0, -3)) == (0, 3)
        assert normalize_witness((1, -5)) == (1, -5)


class TestSampleTimes:
    def test_grid_shape_and_range(self):
        omega = np.array([1.0, math.sqrt(2)])
        ts = sample_times(omega)
        assert ts.shape == (64,)
        assert ts[0] >= 0.0
        assert ts[-1] < 2 * math.pi / 1.0
        assert np.all(np.diff(ts) > 0)

    def test_deterministic(self):
        a = sample_times([2.0], count=16)
        b = sample_times([2.0], count=16)
        assert np.array_equal(a, b)
