import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from test_generator import scaled_r3_models

from qmme.bohr import interaction_picture_coupling_series
from qmme.errors import DimensionMismatch, Overflow
from qmme.generator import build_generator
from qmme.model import synthesize_hamiltonian
from qmme.presets import PRESETS
from qmme.fourier import (
    _MAX_BOX_POINTS,
    _PHASE_CHUNK,
    FourierOperatorSeries,
    _contract,
    _fast_length,
    _on_union,
    _shells,
    _total,
    check_rational_independence,
    frequency_vector,
    joint_sampler,
    normalize_witness,
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

    @pytest.mark.parametrize("tail", [-1.0, math.nan])
    def test_tail_must_be_a_nonnegative_number(self, tail):
        with pytest.raises(DimensionMismatch, match=r"tail_norm .* is not a number >= 0"):
            FourierOperatorSeries(1, 2, 0, {(0,): np.eye(2)}, tail_norm=tail)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_phase_names_its_time(self):
        # the table's largest phase is t * 2 * 3, though no term holds (0, 2) on the
        # second axis: it overflows from t = 3e307 on, where t and 3 t are finite
        s = FourierOperatorSeries(2, 1, 2, {(2, 0): [[1.0]], (0, 1): [[1.0]]})
        omega = np.array([1.0, 3.0])
        assert np.isfinite(s.evaluate_many(omega, [0.0, 1.0, 2.9e307])).all()
        for ts, first in (([0.0, 1.0, 3e307, 1e308], "3e+307"), ([-3e307], "-3e+307"), ([1.0, math.inf], "inf")):
            with pytest.raises(Overflow, match=rf"^series phase at t = {re.escape(first)} is not finite$"):
                s.evaluate_many(omega, ts)
        with pytest.raises(Overflow):
            joint_sampler([s, s], omega)([3e307])
        # a constant series has no phase to overflow
        constant = FourierOperatorSeries.constant(np.eye(2), r=1, trunc=3)
        assert np.array_equal(constant.evaluate_many([1.0], [1e308, math.inf]), np.broadcast_to(np.eye(2), (2, 2, 2)))

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
        assert np.allclose(p.coeffs[(0,)], a @ b)
        assert len(p) == 1

    def test_product_matches_pointwise(self, rng):
        # supports confined to |n_i| <= 1 so the convolution fits in trunc=3
        s1 = random_series(rng, 2, 2, 3, 6, spread=1)
        s2 = random_series(rng, 2, 2, 3, 6, spread=1)
        p = s1.product(s2)
        omega = np.array([1.0, math.sqrt(2)])
        for t in np.linspace(0.0, 2 * math.pi, 64):
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


BOUND_MODELS = {**{name: lambda name=name: PRESETS[name]() for name in sorted(PRESETS)},
                **{f"scaled_r3_seed{seed}_d{d}": lambda seed=seed, i=i: scaled_r3_models(seed, dims=(2, 3, 6))[i]
                   for seed in (1, 2, 3) for i, d in enumerate((2, 3, 6))}}


class TestUnitarityBound:
    """``unitarity_bound``, the l1 norm of p p^dag - I: a bound over all t."""

    @pytest.mark.parametrize("name", sorted(BOUND_MODELS))
    def test_bounds_a_dense_grid(self, name):
        # the largest residual on 20,001 points of [0, 1000] lies below the bound, and the bound
        # below validate_model's default tol_unitary
        model = BOUND_MODELS[name]()
        p = model.p_series.evaluate_many(model.frequencies, np.linspace(0.0, 1000.0, 20001))
        residuals = np.linalg.norm(p @ p.conj().swapaxes(1, 2) - np.eye(model.dim), 2, axis=(1, 2))
        bound = model.p_series.unitarity_bound()
        assert residuals.max() <= bound <= 1e-9

    def test_cached_value_is_a_fresh_computation(self, monkeypatch):
        model = scaled_r3_models(2)[1]
        p, products, product = model.p_series, [], FourierOperatorSeries.product
        monkeypatch.setattr(FourierOperatorSeries, "product",
                            lambda a, b, **kw: products.append(b) or product(a, b, **kw))
        first = p.unitarity_bound()
        assert p.unitarity_bound() == first and len(products) == 1
        fresh = FourierOperatorSeries(p.r, p.d, p.trunc, p.coeffs, p.tail_norm)
        assert fresh.unitarity_bound() == first and len(products) == 2
        # the bound is what an explicit product in a box of twice the radius gives, and it
        # drops nothing: without p's own tail, the product's tail is 0
        p0 = FourierOperatorSeries._from_rows(p.trunc, p._idx, p._stack, 0.0)
        square = p0.truncate(2 * p._radius()).product(p0.adjoint())
        assert square.tail_norm == 0.0 and p0.unitarity_bound() == first
        assert first == (square - FourierOperatorSeries.constant(np.eye(p.d), p.r)).l1_norm()

    def test_exact_on_a_single_harmonic(self):
        # p(t) = 1 + a (exp(i t) - 1): p p^dag - I = 2 a (1 - a) (cos t - 1) I peaks at t = pi
        a = 1e-3
        p = FourierOperatorSeries(1, 2, 1, {(0,): (1 - a) * np.eye(2), (1,): a * np.eye(2)})
        peak = p.evaluate([1.0], math.pi)
        assert p.unitarity_bound() == pytest.approx(np.linalg.norm(peak @ peak.conj().T - np.eye(2)), rel=1e-12)
        assert FourierOperatorSeries.constant(np.eye(3), 2).unitarity_bound() == 0.0


class TestConstantFactor:
    """``_times(m)``, the right product with a constant matrix, row by row."""

    def series_and_matrix(self, rng, tail=0.0):
        s = random_series(rng, 2, 3, 4, 9)
        s = FourierOperatorSeries._from_rows(s.trunc, s._idx, s._stack, tail)
        return s, rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))

    def test_rows_times_matrix_bit_for_bit(self, rng):
        s, m = self.series_and_matrix(rng, tail=0.25)
        out = s._times(m)
        assert np.array_equal(out._idx, s._idx) and out.trunc == s.trunc
        assert np.array_equal(out._stack, s._stack @ m)
        assert out.tail_norm == 0.25 * np.linalg.norm(m)

    def test_matches_product_with_constant(self, rng):
        s, m = self.series_and_matrix(rng, tail=1e-3)
        out, ref = s._times(m), s.product(FourierOperatorSeries.constant(m, s.r))
        assert list(out.coeffs) == list(ref.coeffs)
        assert np.max(np.abs(out._stack - ref._stack)) <= 1e-15 * np.max(np.abs(ref._stack))
        assert abs(out.tail_norm - ref.tail_norm) <= 1e-15 * ref.tail_norm

    def test_huge_factor_keeps_a_finite_tail(self, rng):
        # ||m||_F of entries 1e200 is 4.5e200 though its squares overflow: no warning
        s, m = self.series_and_matrix(rng, tail=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = s._times(1e200 * m)
        assert out.tail_norm == pytest.approx(1e-3 * 1e200 * np.linalg.norm(m), rel=1e-15)

    def test_wrong_shape_and_non_finite(self, rng):
        s, m = self.series_and_matrix(rng)
        with pytest.raises(DimensionMismatch):
            s._times(np.eye(2))
        m[1, 2] = np.inf
        with pytest.raises(Overflow):
            s._times(m)


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

    def test_product_of_two_tails(self):
        # both factors are all tail: the exact product 0.25 e^{2it} lies wholly in the tail
        s = FourierOperatorSeries(1, 1, 1, {(1,): np.array([[0.5]])}).truncate(0)
        assert len(s) == 0 and s.tail_norm == 0.5
        assert s.product(s).tail_norm >= 0.25

    def test_drop_below(self):
        s = FourierOperatorSeries(
            1, 1, 2, {(0,): np.array([[1.0]]), (1,): np.array([[1e-18]])}
        )
        cleaned = s.drop_below(1e-15)
        assert len(cleaned) == 1
        assert cleaned.tail_norm >= 1e-18


def dict_product(a, b):
    """The dict double loop over coefficient pairs: the reference convolution.

    Returns the kept coefficients and the dropped l1 mass, summed in sorted
    index order."""
    trunc = max(a.trunc, b.trunc)
    acc = {}
    for n, x in a.coeffs.items():
        for m, y in b.coeffs.items():
            idx = tuple(i + j for i, j in zip(n, m))
            acc[idx] = acc[idx] + x @ y if idx in acc else x @ y
    kept = {n: c for n, c in acc.items() if max(map(abs, n)) <= trunc}
    dropped = 0.0
    for n in sorted(acc):
        if max(map(abs, n)) > trunc:
            dropped += np.linalg.norm(acc[n])
    return kept, dropped


def dict_truncate(s, trunc):
    kept, dropped = {}, 0.0
    for n, a in s.coeffs.items():
        if max(map(abs, n)) <= trunc:
            kept[n] = a
        else:
            dropped += np.linalg.norm(a)
    return kept, s.tail_norm + dropped


def sparse_series(rng, r, d, trunc, n_terms, tail=0.0):
    s = random_series(rng, r, d, trunc, n_terms)
    return FourierOperatorSeries(r, d, trunc, s.coeffs, tail)


def product_cases():
    rng = np.random.default_rng(20261018)
    eye = FourierOperatorSeries.constant(np.eye(2), r=1)
    c3 = FourierOperatorSeries.constant(rng.normal(size=(3, 3)) + 0j, r=2)
    mode = lambda r, n, d=2: FourierOperatorSeries(r, d, 3, {n: rng.normal(size=(d, d)) + 1j})
    return {
        "r1 dense": (sparse_series(rng, 1, 2, 3, 7), sparse_series(rng, 1, 2, 3, 7)),
        "r1 unequal boxes": (sparse_series(rng, 1, 2, 5, 6, tail=1e-3), sparse_series(rng, 1, 2, 2, 4)),
        "r1 identity": (eye, sparse_series(rng, 1, 2, 4, 5)),
        "r2 series x constant": (sparse_series(rng, 2, 3, 4, 30), c3),
        "r2 constant x series": (c3, sparse_series(rng, 2, 3, 4, 30, tail=2e-4)),
        "r2 full boxes": (sparse_series(rng, 2, 2, 2, 25), sparse_series(rng, 2, 2, 2, 25)),
        "r3 sparse": (sparse_series(rng, 3, 2, 3, 40), sparse_series(rng, 3, 2, 2, 15)),
        "r3 d3 sparse": (sparse_series(rng, 3, 3, 2, 60, tail=1e-5), sparse_series(rng, 3, 3, 3, 20)),
        "empty x series": (FourierOperatorSeries(2, 2, 3, {}), sparse_series(rng, 2, 2, 3, 8)),
        "series x empty": (sparse_series(rng, 2, 2, 3, 8, tail=1e-3), FourierOperatorSeries(2, 2, 1, {})),
        "single modes inside": (mode(2, (1, -2)), mode(2, (-3, 2))),
        "single modes outside": (mode(2, (3, 1)), mode(2, (1, 0))),
        "single modes r3 edge": (mode(3, (-3, 0, 2), 3), mode(3, (0, 0, -3), 3)),
    }


PRODUCT_CASES = product_cases()


class TestDenseStorageMatchesDictReference:
    """The FFT product and the array operations against dict loops."""

    @pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
    def test_product(self, case):
        a, b = PRODUCT_CASES[case]
        p = a.product(b)
        kept, dropped = dict_product(a, b)
        scale = a.l1_norm() * b.l1_norm()
        assert p.trunc == max(a.trunc, b.trunc)
        assert list(p.coeffs) == sorted(kept)
        assert all(np.max(np.abs(p.coeffs[n] - c)) <= 1e-13 * scale for n, c in kept.items())
        expect = dropped + a.tail_norm * b.l1_norm() + b.tail_norm * a.l1_norm() + a.tail_norm * b.tail_norm
        # both sums round: on O(1) data the FFT's mass can come out a few ulps smaller
        assert abs(p.tail_norm - expect) <= 1e-13 * scale

    def test_product_single_modes_stay_single(self):
        a, b = PRODUCT_CASES["single modes inside"]
        assert list(a.product(b).coeffs) == [(-2, 0)]
        a, b = PRODUCT_CASES["single modes outside"]
        p = a.product(b)
        assert len(p) == 0
        assert p.tail_norm == pytest.approx(np.linalg.norm(a.coeffs[(3, 1)] @ b.coeffs[(1, 0)]), rel=1e-14)

    def test_product_transforms_supports_not_boxes(self, rng):
        # a box of 201^2 points holding a 3 x 3 support: the FFTs span the supports only
        coeffs = {(i, j): rng.normal(size=(2, 2)) for i in (-1, 0, 1) for j in (-1, 0, 1)}
        a = FourierOperatorSeries(2, 2, 100, coeffs)
        b = FourierOperatorSeries(2, 2, 100, {(1, -1): np.eye(2)})
        box_bytes = 201**2 * 4 * 16
        tracemalloc.start()
        try:
            p = a.product(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * box_bytes  # FFTs over the padded 401^2 boxes would take over 12 times that
        kept, _ = dict_product(a, b)
        assert list(p.coeffs) == sorted(kept)
        assert all(np.max(np.abs(p.coeffs[n] - c)) <= 1e-13 * a.l1_norm() * b.l1_norm() for n, c in kept.items())

    @pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
    def test_adjoint(self, case):
        for s in PRODUCT_CASES[case]:
            adj = s.adjoint()
            expect = {tuple(-v for v in n): a.conj().T for n, a in s.coeffs.items()}
            assert list(adj.coeffs) == sorted(expect)
            assert all(np.array_equal(adj.coeffs[n], a) for n, a in expect.items())
            assert adj.tail_norm == s.tail_norm

    @pytest.mark.parametrize("new_trunc", [0, 1, 2, 3, 5, 7])
    def test_truncate_shrinks_and_grows(self, new_trunc):
        for case in ("r1 unequal boxes", "r2 full boxes", "r3 d3 sparse"):
            s = PRODUCT_CASES[case][0]
            cut = s.truncate(new_trunc)
            kept, tail = dict_truncate(s, new_trunc)
            assert cut.trunc == new_trunc
            assert list(cut.coeffs) == sorted(kept)
            assert all(np.array_equal(cut.coeffs[n], a) for n, a in kept.items())
            assert cut.tail_norm == tail  # the same running sum of the same norms

    def test_drop_below(self, rng):
        s = sparse_series(rng, 2, 3, 3, 30, tail=1e-6)
        norms = {n: np.linalg.norm(a) for n, a in s.coeffs.items()}
        eps = float(np.median(list(norms.values())))
        cut = s.drop_below(eps)
        dropped = 0.0
        for n in sorted(norms):
            if norms[n] < eps:
                dropped += norms[n]
        assert list(cut.coeffs) == sorted(n for n in norms if norms[n] >= eps)
        assert all(np.array_equal(cut.coeffs[n], s.coeffs[n]) for n in cut.coeffs)
        assert cut.tail_norm == s.tail_norm + dropped
        l1 = 0.0
        for n in sorted(norms):
            l1 += norms[n]
        assert s.l1_norm() == l1

    def test_add_on_unequal_boxes(self, rng):
        a = sparse_series(rng, 2, 2, 4, 20, tail=1e-4)
        b = sparse_series(rng, 2, 2, 1, 5, tail=2e-4)
        expect = {n: c.copy() for n, c in a.coeffs.items()}
        for n, c in b.coeffs.items():
            expect[n] = expect[n] + c if n in expect else c
        for total in (a + b, b + a):
            assert total.trunc == 4
            assert list(total.coeffs) == sorted(expect)
            assert all(np.array_equal(total.coeffs[n], c) for n, c in expect.items())
            assert total.tail_norm == pytest.approx(3e-4, rel=1e-15)

    @pytest.mark.parametrize("case", ["r1 dense", "r2 series x constant", "r3 sparse", "r3 d3 sparse"])
    def test_evaluate_many_is_sorted_key_contraction(self, case):
        s = PRODUCT_CASES[case][0]
        omega = np.array([1.0, math.sqrt(2), math.sqrt(3)][: s.r])
        ts = np.linspace(0.0, 30.0, 41)
        keys = sorted(s.coeffs)
        idx = np.array(keys, dtype=float)
        phases = np.exp(1j * (ts[:, None] * (omega[0] * idx[:, 0])))
        for j in range(1, s.r):
            phases *= np.exp(1j * (ts[:, None] * (omega[j] * idx[:, j])))
        stack = np.stack([s.coeffs[n] for n in keys]).reshape(len(keys), -1)
        expect = (phases @ stack).reshape(ts.size, s.d, s.d)
        assert np.array_equal(s.evaluate_many(omega, ts), expect)

    def test_coeffs_read_only(self, rng):
        s = sparse_series(rng, 2, 2, 2, 5)
        with pytest.raises(TypeError):
            s.coeffs[(0, 0)] = np.eye(2)
        with pytest.raises(ValueError):
            s.coeffs[list(s.coeffs)[0]][0, 0] = 1.0


def full_table_evaluate_many(series, omega, ts):
    """evaluate_many with every column of the per-axis phase tables an exponential,
    m = -k .. k, in the same chunks: the reference for the half tables."""
    idx = np.array(list(series.coeffs), dtype=np.intp).reshape(-1, series.r)
    flat = np.array(list(series.coeffs.values())).reshape(len(idx), -1)
    k = int(np.abs(idx).max(initial=0))
    axis_freqs = omega[:, None] * np.arange(-k, k + 1)
    slots = idx.T + k
    out = np.zeros((ts.size, series.d**2), dtype=complex)
    rows = max(1, _PHASE_CHUNK // max(1, len(idx)))
    for lo in range(0, ts.size, rows):
        chunk = ts[lo : lo + rows, None]
        phases = np.exp(1j * (chunk * axis_freqs[0]))[:, slots[0]]
        for j in range(1, series.r):
            phases *= np.exp(1j * (chunk * axis_freqs[j]))[:, slots[j]]
        out[lo : lo + rows] = phases @ flat
    return out.reshape(ts.size, series.d, series.d)


class TestHalfPhaseTables:
    @pytest.mark.parametrize("r,d,trunc,n_terms", [(1, 2, 6, 9), (2, 3, 4, 30), (3, 2, 3, 60)])
    def test_bit_for_bit_against_full_tables(self, rng, r, d, trunc, n_terms):
        s = random_series(rng, r, d, trunc, n_terms)
        omega = np.sqrt(np.arange(2.0, 2.0 + r))
        # at t = 0, -0.0 and 5e-324 a conjugated column differs from exp in the sign of a zero
        ts = np.concatenate([[0.0, -0.0, 5e-324], rng.uniform(0.0, 1e4, 1000)])
        got, expect = s.evaluate_many(omega, ts), full_table_evaluate_many(s, omega, ts)
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))

    def test_zero_sine_sign_stays_out_of_the_sum(self):
        # at t = 0 the conjugated column -m is 1 - 0j where exp gives 1 + 0j; a coefficient
        # with imaginary part -0.0 would carry that sign into a product that kept it
        c = np.full((1, 1), complex(1.0, -0.0))
        for coeffs in ({(-1, 0): c}, {(-1, -2): c, (1, 2): -c}, {(-1, 1): c, (0, 0): c, (2, -1): c}):
            s = FourierOperatorSeries(2, 1, 2, coeffs)
            omega, ts = np.array([1.0, math.sqrt(2.0)]), np.array([0.0, -0.0, 1.0])
            expect = full_table_evaluate_many(s, omega, ts)
            assert np.array_equal(s.evaluate_many(omega, ts).view(np.uint64), expect.view(np.uint64))

    @pytest.mark.parametrize("name", ["qubit_driven", "qutrit_thermal"])
    def test_shipped_frames_bit_for_bit(self, rng, name):
        model = PRESETS[name]()
        ts = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1e4, 1000))])
        got = model.p_series.evaluate_many(model.frequencies, ts)
        expect = full_table_evaluate_many(model.p_series, model.frequencies, ts)
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))

    def test_exponential_of_negated_argument_is_the_conjugate(self):
        # the half tables rely on it; a libm whose sine is not odd would fail here
        x = np.random.default_rng(18).uniform(-1e4, 1e4, 10**6)
        assert np.array_equal(np.exp(-1j * x), np.conj(np.exp(1j * x)))


class TestJointSampler:
    """Several series from one phase table over the union of their supports."""

    @pytest.mark.parametrize("r,d", [(1, 2), (2, 3), (3, 2)])
    def test_matches_each_series(self, rng, r, d):
        # overlapping, disjoint and constant supports side by side
        series = [random_series(rng, r, d, 4, 6), random_series(rng, r, d, 2, 4),
                  FourierOperatorSeries.constant(np.eye(d), r)]
        omega, ts = np.sqrt(np.arange(2.0, 2.0 + r)), rng.uniform(0.0, 50.0, 300)
        together = joint_sampler(series, omega)(ts)
        assert together.shape == (3, ts.size, d, d)
        for got, s in zip(together, series):
            expect = s.evaluate_many(omega, ts)
            assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_shapes_must_agree(self, rng):
        with pytest.raises(DimensionMismatch):
            joint_sampler([random_series(rng, 2, 2, 2, 5), random_series(rng, 2, 3, 2, 5)], [1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            joint_sampler([random_series(rng, 1, 2, 2, 5)], [1.0, 2.0])


class TestOnUnion:
    """The union of several series' supports, with each series' coefficients on it."""

    def test_overlapping_disjoint_and_empty_supports(self):
        a = FourierOperatorSeries(2, 2, 3, {(0, 1): np.eye(2), (1, -1): 2 * np.eye(2)})
        b = FourierOperatorSeries(2, 2, 3, {(0, 1): 3j * np.eye(2), (-2, 0): 4 * np.eye(2)})
        c = FourierOperatorSeries(2, 2, 3, {(3, 3): 5 * np.eye(2)})
        empty = FourierOperatorSeries(2, 2, 3, {})
        idx, coeffs, held = _on_union([a, empty, b, c])
        assert idx.tolist() == [[-2, 0], [0, 1], [1, -1], [3, 3]]
        assert held.tolist() == [[False, False, True, False], [True, False, True, False],
                                 [True, False, False, False], [False, False, False, True]]
        assert coeffs.shape == (4, 4, 2, 2)
        for k, n in enumerate(map(tuple, idx.tolist())):
            for mu, s in enumerate([a, empty, b, c]):
                assert np.array_equal(coeffs[k, mu], s.coeffs.get(n, np.zeros((2, 2))))
        idx, coeffs, held = _on_union([empty, empty])
        assert idx.shape == (0, 2) and coeffs.shape == (0, 2, 2, 2) and held.shape == (0, 2)

    def test_shapes_must_agree(self, rng):
        with pytest.raises(DimensionMismatch):
            _on_union([random_series(rng, 2, 2, 2, 5), random_series(rng, 2, 3, 2, 5)])
        with pytest.raises(DimensionMismatch):
            _on_union([random_series(rng, 2, 2, 2, 5), random_series(rng, 1, 2, 2, 3)])


def _unique_union(series):
    """The union of the supports from ``np.unique(axis=0)``, as _on_union built it before
    its lexsort: the reference for the index rows, coefficients and mask."""
    idx, slot = np.unique(np.vstack([s._idx for s in series]), axis=0, return_inverse=True)
    where = slot.reshape(-1), np.repeat(np.arange(len(series)), [len(s) for s in series])
    coeffs = np.zeros((len(idx), len(series)) + (series[0].d,) * 2, dtype=complex)
    held = np.zeros(coeffs.shape[:2], dtype=bool)
    coeffs[where], held[where] = np.vstack([s._stack for s in series]), True
    return idx, coeffs, held


class TestOnUnionMatchesUnique:
    """The lexsort union against ``np.unique(axis=0)``, bit for bit and dtype for dtype."""

    @staticmethod
    def assert_same(series):
        for got, expect in zip(_on_union(series), _unique_union(series)):
            assert got.dtype == expect.dtype and got.shape == expect.shape
            assert got.tobytes() == expect.tobytes()

    def test_special_supports(self):
        eye = np.eye(2)
        empty = FourierOperatorSeries(3, 2, 4, {})
        one = FourierOperatorSeries(3, 2, 4, {(-4, 0, 2): eye})
        low = FourierOperatorSeries(3, 2, 4, {(-3, -1, -2): eye, (-3, -1, 4): 2 * eye, (-1, 0, 0): 3 * eye})
        high = FourierOperatorSeries(3, 2, 4, {(0, 0, 1): 4j * eye, (2, -4, -4): 5 * eye})
        for series in ([empty], [empty, empty], [one], [one, one], [empty, one], [low, high], [high, low],
                       [low, empty, high, one], [low, low.adjoint(), high]):
            self.assert_same(series)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_seeded_series(self, r):
        rng = np.random.default_rng(100 + r)
        for trial in range(30):
            spreads = rng.integers(0, 4, size=int(rng.integers(1, 5)))
            # at most every point of the spread's box, or random_series would not end
            self.assert_same([random_series(rng, r, 2, 3, int(rng.integers(0, min(12, (2 * k + 1) ** r) + 1)),
                                            spread=int(k)) for k in spreads])


class TestSupportStorage:
    def test_memory_follows_support_not_trunc(self):
        # trunc 150 over qubit_driven's radius-10 support: the whole synthesis
        # stays below the bytes of a single coefficient box of radius 150
        model = PRESETS["qubit_driven"]()
        box_bytes = 301**2 * 4 * 16
        tracemalloc.start()
        try:
            h = synthesize_hamiltonian(model.p_series.truncate(150), model.frequencies, model.h_bar)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < box_bytes
        assert h.trunc == 150

    def test_huge_trunc_is_only_a_bound(self):
        s = FourierOperatorSeries(2, 2, 10**9, {(1, -2): np.eye(2), (0, 3): 2j * np.eye(2)})
        omega = np.array([1.0, math.sqrt(2)])
        ts = np.linspace(0.0, 9.0, 7)
        expect = np.exp(1j * (ts * (1 - 2 * math.sqrt(2))))[:, None, None] * np.eye(2) \
            + 2j * np.exp(1j * (ts * 3 * math.sqrt(2)))[:, None, None] * np.eye(2)
        assert np.allclose(s.evaluate_many(omega, ts), expect, atol=1e-14)
        p = s.product(s.adjoint()) + s.derivative(omega)
        assert p.trunc == 10**9
        assert list(p.coeffs) == [(-1, 5), (0, 0), (0, 3), (1, -5), (1, -2)]
        assert np.allclose(p.coeffs[(0, 0)], 5 * np.eye(2), atol=1e-14)  # |1|^2 + |2i|^2
        assert list(s.truncate(2).coeffs) == [(1, -2)]


    def test_oversized_workspace_rejected_before_allocating(self):
        # two terms at radius 300: the product's workspace would be 1201^2 points of
        # 2 x 2 matrices, several hundred megabytes, for a 3-term result
        s = FourierOperatorSeries(2, 2, 300, {(0, -300): np.eye(2), (0, 300): np.eye(2)})
        adj = s.adjoint()
        tracemalloc.start()
        try:
            with pytest.raises(DimensionMismatch, match="workspace of radius 600 at r = 2 has 1442401 points"):
                s.product(adj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        # a sum takes the union of the supports: no 121^3-point box for one term
        wide = FourierOperatorSeries(3, 2, 60, {(60, 0, 0): np.eye(2)})
        tracemalloc.start()
        try:
            total = wide + wide
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert len(total) == 1 and np.array_equal(total.coeffs[(60, 0, 0)], 2 * np.eye(2))


class TestLattice:
    def test_shell_count_box_one(self):
        pts = _shells(2, 1)
        assert len(pts) == 8
        assert np.all(np.abs(pts).max(axis=1) == 1)

    def test_shells_cover_box_without_zero(self):
        pts = _shells(2, 3)
        assert len(pts) == 7 * 7 - 1
        assert len({tuple(k) for k in pts}) == len(pts)

    @pytest.mark.parametrize("r,box", [(1, 1), (1, 4), (2, 3), (3, 2), (3, 5)])
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

    @staticmethod
    def meshgrid_shells(r, box):
        """The shells as _shells built them before its radix sort: every point of the box
        from a meshgrid, in a stable argsort of its int64 Chebyshev radius."""
        axis = np.arange(-box, box + 1)
        pts = np.stack(np.meshgrid(*[axis] * r, indexing="ij"), axis=-1).reshape(-1, r)
        order = np.argsort(np.abs(pts).max(axis=1), kind="stable")
        return pts[order[1:]]

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_shells_match_meshgrid_reference(self, r):
        # every box under the cap at r = 3 and 4 (up to 49 and 15); at r = 1 and 2, whose
        # largest boxes are 499999 and 499, the scans' default 12 and the boxes below it, the
        # radius type's step from uint8 to uint16 and the largest box
        largest = (round(_MAX_BOX_POINTS ** (1 / r)) + 1) // 2
        while (2 * largest + 1) ** r > _MAX_BOX_POINTS:
            largest -= 1
        boxes = range(1, largest + 1) if r > 2 else [*range(1, 13), 255, 256, largest]
        for box in boxes:
            got, expect = _shells(r, box), self.meshgrid_shells(r, box)
            assert got.dtype == expect.dtype and got.shape == expect.shape
            assert np.array_equal(got, expect), (r, box)
        with pytest.raises(DimensionMismatch):
            _shells(r, largest + 1)

    def test_box_below_one_rejected(self):
        # a box below 1 holds no lattice point, so a scan over it would pass anything
        for r, box in ((1, 0), (3, 0), (2, -1)):
            with pytest.raises(DimensionMismatch, match=f"lattice box {box} is below 1"):
                _shells(r, box)

    def test_oversized_box_rejected_before_allocating(self):
        # (2 * 10^4 + 1)^3 = 8e12 points: the scan arrays would need hundreds of terabytes
        assert 25 ** 3 < _MAX_BOX_POINTS // 50  # the default box 12 at r = 3 is far below
        tracemalloc.start()
        try:
            with pytest.raises(DimensionMismatch, match="8001200060001 points"):
                _shells(3, 10**4)
            with pytest.raises(DimensionMismatch):
                check_rational_independence([1.0, math.sqrt(2), math.sqrt(3)], box=10**4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_independent_pair_passes(self):
        assert check_rational_independence([1.0, math.sqrt(2)]) is None

    def test_dependent_pair_witness(self):
        # 2 * 1 + (-1) * 2 = 0, reported with positive leading entry
        assert check_rational_independence([1.0, 2.0]) == (2, -1)

    def test_small_denominator_found(self):
        assert check_rational_independence([1.0, 1.0 / 3.0]) == (1, -3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    @pytest.mark.parametrize("ratio,witness", [(math.sqrt(2), None), (2.0, (2, -1))])
    def test_verdict_kept_at_extreme_scales(self, scale, ratio, witness):
        # ||omega|| overflows at 1e300 (every point was a witness) and underflows at 1e-300 (none was)
        assert check_rational_independence([scale, ratio * scale]) == witness

    def test_normalize_witness(self):
        assert normalize_witness((-2, 1)) == (2, -1)
        assert normalize_witness((0, -3)) == (0, 3)
        assert normalize_witness((1, -5)) == (1, -5)


def smooth_lengths(limit):
    """Every length up to ``limit`` with no prime factor above 7, from the powers."""
    lengths = {1}
    for prime in (2, 3, 5, 7):
        lengths = {m * prime**e for m in lengths for e in range(limit.bit_length()) if m * prime**e <= limit}
    return sorted(lengths)


def long_double_product(a, b):
    """The double loop over coefficient pairs in extended precision, the kept indices only:
    on x86 it rounds far below the FFT's few ulps of the largest entry."""
    acc = {}
    for n, x in a.coeffs.items():
        for m, y in b.coeffs.items():
            idx = tuple(i + j for i, j in zip(n, m))
            acc[idx] = acc.get(idx, 0) + x.astype(np.clongdouble) @ y.astype(np.clongdouble)
    return {n: c for n, c in acc.items() if max(map(abs, n)) <= max(a.trunc, b.trunc)}


def no_drop(a, b):
    """The product of a and b in a box that holds every index sum, so nothing is dropped."""
    k = a._radius() + b._radius()
    return a.truncate(max(a.trunc, k)).product(b.truncate(max(b.trunc, k)))


class TestFastLengthProducts:
    """Products at fast FFT lengths, contracted by multiply-adds at every d."""

    def test_length_rule_is_the_minimal_smooth_length(self):
        smooth = smooth_lengths(4096)
        for n in range(1, 2002):
            assert _fast_length(n) == next(m for m in smooth if m >= n), n
        assert [_fast_length(n) for n in (13, 25, 31, 41)] == [14, 25, 32, 42]

    @staticmethod
    def cases(r, d):
        rng = np.random.default_rng([r, d])
        k = 3 if r < 3 else 2
        mats = lambda: rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a, b = sparse_series(rng, r, d, k, 6, tail=1e-4), sparse_series(rng, r, d, k, 5)
        upper = FourierOperatorSeries(r, d, k, {(1,) + n: mats() for n in itertools.product(range(-1, 2), repeat=r - 1)})
        lower = FourierOperatorSeries(r, d, k, {(-2,) + n: mats() for n in itertools.product(range(2), repeat=r - 1)})
        constant = FourierOperatorSeries.constant(mats(), r, trunc=1)
        return {
            "overlapping": (a, b),
            "disjoint": (upper, lower),
            "unequal bounds": (sparse_series(rng, r, d, 1, 3), sparse_series(rng, r, d, k + 1, 4)),
            "radius 0 x series": (constant, b),
            "series x radius 0": (a, constant),
            "series x adjoint": (a, a.adjoint()),
        }

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_matches_direct_convolution(self, r, d):
        for name, (a, b) in self.cases(r, d).items():
            p, kept = a.product(b), long_double_product(a, b)
            largest = max((np.abs(c).max() for c in kept.values()), default=0.0)
            assert p.trunc == max(a.trunc, b.trunc), name
            assert list(p.coeffs) == sorted(kept), name
            assert all(np.abs(p.coeffs[n] - c).max() <= 1e-15 * largest for n, c in kept.items()), name
            _, dropped = dict_product(a, b)
            expect = dropped + a.tail_norm * b.l1_norm() + b.tail_norm * a.l1_norm() + a.tail_norm * b.tail_norm
            assert abs(p.tail_norm - expect) <= 1e-13 * a.l1_norm() * b.l1_norm(), name

    @staticmethod
    def recorded_products(monkeypatch, build):
        calls, product = [], FourierOperatorSeries.product
        monkeypatch.setattr(FourierOperatorSeries, "product",
                            lambda a, b, **kw: calls.append((a, b, product(a, b, **kw))) or calls[-1][2])
        build()
        monkeypatch.undo()
        return calls

    @pytest.mark.parametrize("name", ["qubit_dephasing", "qubit_driven", "qubit_driven_periodic", "qutrit_thermal",
                                      "qutrit_thermal_static", "qubit_congruence_violating", "scaled"])
    def test_tail_bounds_distance_to_undropped_product(self, monkeypatch, name):
        def build():
            models = scaled_r3_models(1) if name == "scaled" else [PRESETS[name]()]
            for model in models:
                build_generator(model, validate=False)
                synthesize_hamiltonian(model.p_series, model.frequencies, model.h_bar)

        distances = []
        for a, b, got in self.recorded_products(monkeypatch, build):
            full = no_drop(a, b)
            assert set(got.coeffs) <= set(full.coeffs)
            distances.append(_total([np.linalg.norm(full.coeffs[n] - got.coeffs.get(n, 0)) for n in sorted(full.coeffs)]))
            assert distances[-1] <= got.tail_norm * (1 + 1e-12)
        assert max(distances) > 0 or name in ("qubit_dephasing", "qutrit_thermal_static")  # p constant there

    def test_shared_spectra_are_bit_identical_to_fresh_products(self):
        # product i has a natural workspace of 2 i + 1 points: 33 and 35 both pad to 35, 37 and 39 to 40
        rng = np.random.default_rng(7)
        gen = FourierOperatorSeries(1, 2, 30, {(n,): 0.4 * rng.normal(size=(2, 2)) + 0.1j for n in (-1, 0, 1)}, 1e-9)
        spectra, shared = {}, FourierOperatorSeries.constant(np.eye(2), 1, trunc=30)
        fresh = shared
        for _ in range(20):
            shared, fresh = shared.product(gen, _spectra=spectra), fresh.product(gen)
            assert shared.trunc == fresh.trunc and shared.tail_norm == fresh.tail_norm
            assert np.array_equal(shared._idx, fresh._idx) and np.array_equal(shared._stack, fresh._stack)
        assert sorted(spectra) == sorted({(_fast_length(2 * i + 1),) for i in range(1, 21)})
        assert (35,) in spectra and (40,) in spectra and len(spectra) == 18

    def test_build_transforms_p_once_for_all_couplings(self, monkeypatch):
        dense, boxed = FourierOperatorSeries._dense, []
        monkeypatch.setattr(FourierOperatorSeries, "_dense", lambda s, k: boxed.append(s) or dense(s, k))
        for model in [PRESETS["qutrit_thermal"](), *scaled_r3_models(2)]:
            boxed.clear()
            bundle = build_generator(model, validate=False)
            assert len(model.couplings) == 2 and sum(s is model.p_series for s in boxed) == 1
            for s, got in zip(model.couplings, bundle.s_hat_series):
                fresh = interaction_picture_coupling_series(model.p_series, s)
                assert np.array_equal(got._idx, fresh._idx) and np.array_equal(got._stack, fresh._stack)
                assert got.tail_norm == fresh.tail_norm

    @pytest.mark.parametrize("r, largest", [(1, 499_999), (3, 49), (4, 14)])
    def test_workspace_cap_applies_to_padded_length(self, r, largest):
        # the largest radius sum whose padded workspace fits, and the next, refused unallocated
        assert _fast_length(2 * largest + 1) ** r <= _MAX_BOX_POINTS < _fast_length(2 * largest + 3) ** r
        half = (largest + 1) // 2
        a = FourierOperatorSeries(r, 1, largest + 1, {(half,) + (0,) * (r - 1): np.eye(1)})
        b = FourierOperatorSeries(r, 1, largest + 1, {(0,) * (r - 1) + (largest + 1 - half,): np.eye(1)})
        tracemalloc.start()
        try:
            with pytest.raises(DimensionMismatch, match=f"product workspace of radius {largest + 1}") as caught:
                a.product(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        if r == 4:  # 31^4 = 923,521 points fit; the padded 32^4 do not
            assert (2 * largest + 3) ** r <= _MAX_BOX_POINTS
            assert "padded to 32 points per axis at r = 4 has 1048576 points" in str(caught.value)


def box_then_truncate_product(a, b):
    """The product as built before the mask drop: every row of the natural box of radius
    ka + kb, then ``truncate`` to the kept bound, input tails propagated as ``product`` does."""
    ka, kb = a._radius(), b._radius()
    n = 2 * (ka + kb) + 1
    size, axes, box = (_fast_length(n),) * a.r, tuple(range(-a.r, 0)), (..., *(slice(n),) * a.r)
    (x, mx), (y, my) = a._dense(ka), b._dense(kb)
    full = np.fft.ifftn(_contract(np.fft.fftn(x, size, axes), np.fft.fftn(y, size, axes)), axes=axes)[box]
    pairs = np.fft.irfftn(np.fft.rfftn(mx, size, axes) * np.fft.rfftn(my, size, axes), size, axes)[box]
    out = FourierOperatorSeries._from_box(full, pairs > 0.5, 0.0, ka + kb).truncate(max(a.trunc, b.trunc))
    out.tail_norm = (out.tail_norm + a.tail_norm * b.l1_norm() + b.tail_norm * a.l1_norm()
                     + a.tail_norm * b.tail_norm)
    return out


class TestMaskedProductMatchesTruncatedBox:
    """The product that gathers only the kept box is byte for byte the one that built every row of
    the natural box and truncated it: support, coefficients, bound and tail."""

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("shift", [-1, 0, 2])  # kept bound below, at and above the natural radius
    def test_bound_around_natural_radius(self, r, shift):
        rng = np.random.default_rng([r, shift + 1])
        k = 3 if r < 3 else 2
        a = sparse_series(rng, r, 2, k, 6, tail=1e-4)
        b = sparse_series(rng, r, 2, k, 5, tail=3e-6)
        natural = a._radius() + b._radius()
        a = FourierOperatorSeries._from_rows(natural + shift, a._idx, a._stack, a.tail_norm)
        got, expect = a.product(b), box_then_truncate_product(a, b)
        assert got.trunc == expect.trunc == natural + shift
        assert got._idx.tobytes() == expect._idx.tobytes()
        assert got._stack.tobytes() == expect._stack.tobytes()
        assert got.tail_norm == expect.tail_norm
