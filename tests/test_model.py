"""Bath spectra, Hamiltonian synthesis, and model validation."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from conftest import random_hermitian
from test_generator import scaled_r3_models

from qmme import bohr, fourier, model as model_mod
from qmme.errors import (
    DimensionMismatch,
    NotHermitian,
    NotHermitianZeta,
    NotPSD,
    NotUnitary,
    Overflow,
)
from qmme.fourier import FourierOperatorSeries
from qmme.io import load_model
from qmme.model import (
    _H_RESIDUE,
    BathSpectrum,
    ReducedModel,
    bath_from_family,
    p_series_from_generator,
    p_series_from_profile_terms,
    synthesize_hamiltonian,
    validate_model,
)
from qmme.presets import PRESETS, SIGMA_X, SIGMA_Z

MODELS_DIR = Path(__file__).resolve().parents[1] / "models"


class TestFlatBath:
    def test_values(self):
        bath = BathSpectrum.flat(0.4, 2)
        for w in (-3.0, -0.5, 0.0, 0.5, 3.0):
            assert np.allclose(bath.h(w), 0.4 * np.eye(2), atol=0)
            assert np.allclose(bath.zeta(w), 0.0, atol=0)

    def test_negative_rate_rejected(self):
        # a parameter out of range is a usage error, as for ohmic_kms; a zero rate is a bath
        with pytest.raises(DimensionMismatch):
            BathSpectrum.flat(-0.1, 1)
        assert np.array_equal(BathSpectrum.flat(0.0, 1).h(1.0), np.zeros((1, 1)))

    def test_family_metadata(self):
        bath = BathSpectrum.flat(0.4, 3)
        assert bath.family == "flat"
        assert bath.params == {"gamma": 0.4}
        assert bath.n_couplings == 3


class TestOhmicKmsBath:
    KAPPA, CUTOFF, BETA = 0.15, 5.0, 1.0

    def bath(self, n=1):
        return BathSpectrum.ohmic_kms(self.KAPPA, self.CUTOFF, self.BETA, n)

    def test_zero_frequency_value(self):
        # limit w -> 0 of w / (e^{bw} - 1) is 1/b
        expect = 2.0 * math.pi * self.KAPPA / self.BETA
        got = self.bath().h(0.0)[0, 0].real
        assert got == pytest.approx(expect, rel=0, abs=1e-15)
        # continuity: approach from both sides
        for w in (1e-8, -1e-8):
            assert self.bath().h(w)[0, 0].real == pytest.approx(expect, rel=1e-7)

    def test_detailed_balance(self):
        # rate asymmetry h(w) = e^{-beta w} h(-w) at machine precision
        bath = self.bath()
        for w in np.linspace(0.05, 8.0, 40):
            up = bath.h(w)[0, 0].real
            down = bath.h(-w)[0, 0].real
            assert up == pytest.approx(math.exp(-self.BETA * w) * down, rel=1e-13)

    def test_unit_ratio(self):
        bath = self.bath()
        ratio = bath.h(1.0)[0, 0].real / bath.h(-1.0)[0, 0].real
        assert ratio == pytest.approx(math.exp(-self.BETA), rel=1e-13)

    def test_positive_everywhere(self):
        bath = self.bath(2)
        for w in np.linspace(-10.0, 10.0, 81):
            eigs = np.linalg.eigvalsh(bath.h(w))
            assert eigs[0] > 0.0

    def test_zeta_is_zero(self):
        assert np.allclose(self.bath().zeta(2.3), 0.0, atol=0)

    def test_bad_parameters(self):
        # the rate kappa may be 0; the scales cutoff and beta divide, so must be positive
        for args in ((-0.1, 5.0, 1.0), (0.1, -1.0, 1.0), (0.1, 0.0, 1.0), (0.1, 5.0, 0.0)):
            with pytest.raises(DimensionMismatch):
                BathSpectrum.ohmic_kms(*args, 1)
        ws = np.array([-1e3, -1.0, 0.0, 1.0, 1e3])
        assert np.array_equal(BathSpectrum.ohmic_kms(0.0, 5.0, 1.0, 1).h_many(ws), np.zeros((5, 1, 1)))


    def test_array_matches_scalar_formula(self):
        ws = np.concatenate([np.linspace(-10.0, 10.0, 401), [1e-300, -1e-300]])
        got = self.bath(2).h_many(ws)
        for w, h in zip(ws.tolist(), got):
            scale = 2.0 * math.pi * self.KAPPA * math.exp(-abs(w) / self.CUTOFF)
            expect = scale / self.BETA if self.BETA * w == 0.0 else scale * w / math.expm1(self.BETA * w)
            assert h[0, 0].real == pytest.approx(expect, rel=4e-15, abs=0)
            assert np.array_equal(h, h[0, 0] * np.eye(2))

    def test_far_above_cutoff(self):
        # expm1(beta w) overflows to inf: the weight is 0, not an error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.bath().h_many([1000.0, -1000.0, 0.0])[0, 0, 0] == 0.0
        assert 0.0 < self.bath().h(-1000.0)[0, 0].real < 1e-80


class TestBathArrayCallbacks:
    def test_one_call_over_distinct_frequencies(self):
        calls = []

        def h(ws):
            calls.append(ws.copy())
            return ws[:, None, None] ** 2 * np.eye(2)

        bath = BathSpectrum(h, lambda ws: np.zeros((ws.size, 2, 2)), 2)
        got = bath.h_many([2.0, -1.0, 2.0, 0.5])
        assert len(calls) == 1 and calls[0].tolist() == [2.0, -1.0, 0.5]
        assert [g[1, 1].real for g in got] == [4.0, 1.0, 4.0, 0.25]

    def test_wrong_stack_shape(self):
        bath = BathSpectrum(lambda ws: np.zeros((1, 2, 2)), lambda ws: np.zeros((ws.size, 2, 2)), 2)
        with pytest.raises(DimensionMismatch):
            bath.h_many([0.0, 1.0])


class TestBathCallableGates:
    def test_non_hermitian_h(self):
        bad = np.array([[1.0, 1.0], [0.0, 1.0]])
        bath = BathSpectrum.from_callables(lambda w: bad, n_couplings=2)
        with pytest.raises(NotHermitian):
            bath.h(0.0)

    def test_indefinite_h(self):
        bath = BathSpectrum.from_callables(lambda w: np.diag([1.0, -0.5]), n_couplings=2)
        with pytest.raises(NotPSD):
            bath.h(1.0)

    @pytest.mark.parametrize("low", [-1e100, -1e200])
    def test_indefinite_h_past_overflowing_squares(self, low):
        # the relative slack scales with ||h||, whose squares overflow at -1e200
        bath = BathSpectrum(lambda ws: np.diag([low, 1.0])[None].repeat(ws.size, 0),
                            lambda ws: np.zeros((ws.size, 2, 2)), n_couplings=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPSD):
                bath.h_many([0.5, 1.5])

    def test_non_hermitian_zeta(self):
        bath = BathSpectrum.from_callables(
            lambda w: np.eye(2),
            zeta_fn=lambda w: np.array([[0.0, 1.0], [0.0, 0.0]]),
            n_couplings=2,
        )
        with pytest.raises(NotHermitianZeta):
            bath.zeta(0.0)

    def test_wrong_shape(self):
        bath = BathSpectrum.from_callables(lambda w: np.eye(3), n_couplings=2)
        with pytest.raises(DimensionMismatch):
            bath.h(0.0)

    def test_non_finite(self):
        bath = BathSpectrum.from_callables(lambda w: np.array([[np.inf]]), n_couplings=1)
        with pytest.raises(Overflow):
            bath.h(0.0)

    def test_default_zeta_vanishes(self):
        bath = BathSpectrum.from_callables(lambda w: np.eye(1))
        assert np.allclose(bath.zeta(0.7), 0.0, atol=0)


class TestBathFamilies:
    def test_round_trip(self):
        bath = bath_from_family("ohmic_kms", {"kappa": 0.2, "cutoff": 3.0, "beta": 0.5}, 2)
        direct = BathSpectrum.ohmic_kms(0.2, 3.0, 0.5, 2)
        for w in (-1.0, 0.0, 2.5):
            assert np.allclose(bath.h(w), direct.h(w), atol=0)

    def test_unknown_family(self):
        with pytest.raises(DimensionMismatch):
            bath_from_family("nope", {}, 1)


def _term(profile, index, amplitude, matrix):
    return {"profile": profile, "index": index, "amplitude": amplitude, "matrix": matrix}


def _jacobi_anger(a, n):
    """Coefficient n of exp(-i a sin(theta) Z): diagonal Bessel values J_n(-a), J_n(a)."""
    return np.diag([scipy.special.jv(n, -a), scipy.special.jv(n, a)])


class TestGeneratorSeries:
    def test_jacobi_anger_coefficients(self):
        a, trunc = 0.3, 8
        series = p_series_from_generator([_term("sin", [1], a, SIGMA_Z)], r=1, trunc=trunc)
        for n in range(-3, 4):
            assert np.allclose(series.coeffs[(n,)], _jacobi_anger(a, n), atol=1e-12)

    @pytest.mark.parametrize("a, trunc", [(0.3, 2), (0.5, 3), (1.5, 4), (3.0, 6)])
    def test_tail_bounds_jacobi_anger_distance(self, a, trunc):
        # the l1 distance to the exact coefficients, over every index that carries
        # mass above rounding, must not exceed the reported tail
        series = p_series_from_generator([_term("sin", [1], a, SIGMA_Z)], r=1, trunc=trunc)
        dist = sum(np.linalg.norm(series.coeffs.get((n,), 0) - _jacobi_anger(a, n)) for n in range(-60, 61))
        assert series.tail_norm >= dist

    def test_tail_bounds_pointwise_distance(self):
        # r = 3, d = 3, trunc 3: sup_t ||p(t) - exp(-i A(omega t))||_F is at most the tail
        rng = np.random.default_rng(3)
        omega = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0)])
        terms = [
            _term("sin", [1, 0, 0], 0.1, random_hermitian(rng, 3)),
            _term("sin", [0, 1, 0], 0.08, random_hermitian(rng, 3)),
            _term("cos_minus_one", [0, 1, -1], 0.1, random_hermitian(rng, 3)),
        ]
        p = p_series_from_generator(terms, r=3, trunc=3)
        assert 0.0 < p.tail_norm < 1e-3
        worst = 0.0
        for t in rng.uniform(0.0, 100.0, 50):
            theta = omega * t
            a = sum(
                td["amplitude"] * (math.sin(np.dot(td["index"], theta)) if td["profile"] == "sin"
                                   else math.cos(np.dot(td["index"], theta)) - 1.0) * td["matrix"]
                for td in terms
            )
            worst = max(worst, np.linalg.norm(p.evaluate(omega, t) - scipy.linalg.expm(-1j * a)))
        assert worst <= p.tail_norm

    def test_identity_at_origin(self):
        series = p_series_from_generator([_term("sin", [1], 0.4, SIGMA_X)], r=1, trunc=10)
        p0 = series.evaluate(np.array([1.7]), 0.0)
        assert np.allclose(p0, np.eye(2), atol=1e-13)

    def test_non_hermitian_generator(self):
        g = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitian):
            p_series_from_generator([_term("sin", [1], 1.0, g)], r=1, trunc=4)

    def test_empty_terms(self):
        with pytest.raises(DimensionMismatch):
            p_series_from_generator([], r=1, trunc=4)

    def test_index_outside_box(self):
        with pytest.raises(DimensionMismatch, match="outside truncation box"):
            p_series_from_generator([_term("sin", [5], 0.3, SIGMA_Z)], r=1, trunc=4)

    def test_generator_norm_beyond_rounding_refused(self):
        # L = 30 sqrt(2): the Taylor terms would pass 1 / eps before they cancel
        with pytest.raises(Overflow, match="l1 norm"):
            p_series_from_generator([_term("sin", [1], 30.0, SIGMA_Z)], r=1, trunc=60)

    def test_profile_terms_name(self):
        assert p_series_from_profile_terms is p_series_from_generator

    def test_unknown_profile_kind(self):
        with pytest.raises(DimensionMismatch):
            p_series_from_profile_terms([_term("tan", [1], 0.1, SIGMA_Z)], r=1, trunc=4)

    def test_generator_transformed_once_per_workspace_size(self, monkeypatch):
        # every Taylor step multiplies by -iA; its transform is reused at a size seen before
        others, transforms, sizes = [], [], set()
        product, fftn = FourierOperatorSeries.product, np.fft.fftn

        def counted_product(a, b, **kw):
            others.append(b)
            return product(a, b, **kw)

        def counted_fftn(x, s=None, axes=None):
            transforms.append(x.shape)
            sizes.add(tuple(s))
            return fftn(x, s, axes)

        monkeypatch.setattr(FourierOperatorSeries, "product", counted_product)
        monkeypatch.setattr(np.fft, "fftn", counted_fftn)
        terms = [_term("sin", [1, 0], 0.4, SIGMA_Z), _term("cos_minus_one", [0, 1], 0.3, SIGMA_X)]
        p_series_from_generator(terms, r=2, trunc=4)
        assert all(b is others[0] for b in others) and len(sizes) < len(others)
        # one transform of the running term per product, one of -iA per workspace size
        assert len(transforms) == len(others) + len(sizes)


class TestSynthesize:
    def test_constant_frame_returns_static_part(self):
        omega = np.array([1.0, math.sqrt(2.0)])
        p = FourierOperatorSeries.constant(np.eye(2), r=2)
        h_bar = 0.3 * SIGMA_Z
        series = synthesize_hamiltonian(p, omega, h_bar)
        for t in (0.0, 1.3, 7.7):
            assert np.allclose(series.evaluate(omega, t), h_bar, atol=1e-14)

    def test_commuting_closed_form(self):
        # frame exp(-i a sin(w t) Z) with static part b Z commutes throughout,
        # so the lab Hamiltonian is (a w cos(w t) + b) Z
        a, b, w1 = 0.3, 0.4, 1.3
        omega = np.array([w1])
        p = p_series_from_generator([_term("sin", [1], a, SIGMA_Z)], r=1, trunc=12)
        series = synthesize_hamiltonian(p, omega, b * SIGMA_Z)
        for t in np.linspace(0.0, 9.0, 25):
            expect = (a * w1 * math.cos(w1 * t) + b) * SIGMA_Z
            got = series.evaluate(omega, t)
            assert np.allclose(got, expect, atol=1e-10)

    def test_result_hermitian(self, rng):
        p = p_series_from_generator(
            [_term("sin", [1, 0], 0.25, SIGMA_Z), _term("sin", [0, 1], 0.15, SIGMA_X)], r=2, trunc=10
        )
        omega = np.array([math.sqrt(2.0), math.pi])
        series = synthesize_hamiltonian(p, omega, random_hermitian(rng, 2))
        for t in (0.0, 0.9, 4.4):
            h = series.evaluate(omega, t)
            assert np.linalg.norm(h - h.conj().T, 2) < 1e-9

    def test_non_finite_tail_is_overflow(self):
        # a p tail of 1e300 times itself is past the float range, so H's tail is inf
        model = load_model(MODELS_DIR / "qubit_driven.json")
        p = model.p_series
        p = FourierOperatorSeries(p.r, p.d, p.trunc, p.coeffs, tail_norm=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Overflow, match=r"Hamiltonian tail inf is not finite"):
                synthesize_hamiltonian(p, model.frequencies, model.h_bar)

    def test_huge_frequencies_keep_a_finite_tail(self):
        # frequencies 1e300 give coefficients of about 3e299, whose squares overflow but
        # whose norms do not: the tail is finite and no warning is raised
        model = load_model(MODELS_DIR / "qubit_driven.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = synthesize_hamiltonian(model.p_series, 1e300 * model.frequencies, model.h_bar)
        assert 1e280 < h.tail_norm < 1e300 and np.isfinite(h.l1_norm())

    def test_non_unitary_frame_rejected(self):
        p = FourierOperatorSeries.constant(0.5 * np.eye(2), r=1)
        with pytest.raises(NotUnitary):
            synthesize_hamiltonian(p, np.array([1.0]), SIGMA_Z)

    @staticmethod
    def _undropped(model):
        """The product of synthesize_hamiltonian, every Minkowski-sum position kept."""
        p, omega = model.p_series, model.frequencies
        return (1j * p.derivative(omega) + p._times(model.h_bar)).product(p.adjoint())

    @staticmethod
    def _two_products(p, omega, h_bar):
        """H as i p' p^dag + (p h_bar) p^dag, h_bar a constant series, with the same floor."""
        pdag, hbar = p.adjoint(), FourierOperatorSeries.constant(h_bar, p.r)
        h = (1j * p.derivative(omega)).product(pdag) + p.product(hbar).product(pdag)
        return h.drop_below(_H_RESIDUE * h.l1_norm())

    @pytest.mark.parametrize("model", [
        *[lambda name=name: PRESETS[name]() for name in
          ("qubit_dephasing", "qubit_driven", "qubit_driven_periodic", "qutrit_thermal", "qutrit_thermal_static")],
        *[lambda seed=seed, i=i: scaled_r3_models(seed)[i] for seed in (1, 2, 3) for i in (0, 1)],
    ], ids=["qubit_dephasing", "qubit_driven", "qubit_driven_periodic", "qutrit_thermal", "qutrit_thermal_static",
            *[f"scaled_r3_seed{seed}_d{d}" for seed in (1, 2, 3) for d in (2, 3)]])
    def test_one_product_matches_two(self, model):
        model = model()
        p, omega = model.p_series, model.frequencies
        series, ref = synthesize_hamiltonian(p, omega, model.h_bar), self._two_products(p, omega, model.h_bar)
        gap = sum(np.linalg.norm(series.coeffs.get(n, 0) - ref.coeffs.get(n, 0)) for n in set(series.coeffs) | set(ref.coeffs))
        assert gap <= 1e-14 * ref.l1_norm()
        assert series.tail_norm <= ref.tail_norm

    def test_one_product_per_synthesis(self, monkeypatch):
        # a fresh series forms its unitarity bound (one product) and then H; the bound is kept
        model, calls, product = PRESETS["qutrit_thermal"](), [], FourierOperatorSeries.product
        monkeypatch.setattr(FourierOperatorSeries, "product", lambda a, b, **kw: calls.append(b) or product(a, b, **kw))
        synthesize_hamiltonian(model.p_series, model.frequencies, model.h_bar)
        assert len(calls) == 2
        calls.clear()
        synthesize_hamiltonian(model.p_series, model.frequencies, model.h_bar)
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["qubit_driven", "qutrit_thermal"])
    def test_residue_dropped_into_tail(self, name):
        model = load_model(MODELS_DIR / f"{name}.json")
        series = synthesize_hamiltonian(model.p_series, model.frequencies, model.h_bar)
        full = self._undropped(model)
        floor = 1e-15 * full.l1_norm()
        assert all(np.linalg.norm(c) >= 1e-15 * series.l1_norm() for c in series.coeffs.values())
        kept = [n for n in full.coeffs if np.linalg.norm(full.coeffs[n]) >= floor]
        assert list(series.coeffs) == kept and len(kept) < len(full)
        assert all(np.array_equal(series.coeffs[n], full.coeffs[n]) for n in kept)
        dropped = 0.0
        for n in full.coeffs:
            if n not in series.coeffs:
                dropped += np.linalg.norm(full.coeffs[n])
        assert series.tail_norm == full.tail_norm + dropped

    @pytest.mark.parametrize("name", ["qubit_driven", "qutrit_thermal"])
    def test_matches_frame_formula(self, name):
        model = load_model(MODELS_DIR / f"{name}.json")
        p, omega = model.p_series, model.frequencies
        series = synthesize_hamiltonian(p, omega, model.h_bar)
        dp = p.derivative(omega)
        for t in np.linspace(0.0, 40.0, 50):
            u, du = p.evaluate(omega, t), dp.evaluate(omega, t)
            expect = 1j * du @ u.conj().T + u @ model.h_bar @ u.conj().T
            assert np.linalg.norm(series.evaluate(omega, t) - expect) <= series.tail_norm + 1e-13

    def test_budget_sees_dropped_residue(self):
        model = load_model(MODELS_DIR / "qubit_driven.json")
        args = (model.p_series, model.frequencies, model.h_bar)
        undropped, dropped = self._undropped(model).tail_norm, synthesize_hamiltonian(*args).tail_norm
        assert undropped < dropped


class TestReducedModelConstruction:
    def good_kwargs(self):
        return dict(
            frequencies=np.array([1.0, math.sqrt(2.0)]),
            p_series=FourierOperatorSeries.constant(np.eye(2), r=2),
            h_bar=0.3 * SIGMA_Z,
            couplings=[SIGMA_Z],
            bath=BathSpectrum.flat(0.25, 1),
        )

    def test_good_model(self):
        m = ReducedModel(**self.good_kwargs())
        assert m.dim == 2
        assert m.frequencies.size == 2

    def test_rank_mismatch(self):
        kw = self.good_kwargs()
        kw["frequencies"] = np.array([1.0])
        with pytest.raises(DimensionMismatch):
            ReducedModel(**kw)

    def test_h_bar_shape(self):
        kw = self.good_kwargs()
        kw["h_bar"] = np.eye(3)
        with pytest.raises(DimensionMismatch):
            ReducedModel(**kw)

    def test_h_bar_finite(self):
        kw = self.good_kwargs()
        kw["h_bar"] = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(Overflow):
            ReducedModel(**kw)

    def test_couplings_required(self):
        kw = self.good_kwargs()
        kw["couplings"] = []
        with pytest.raises(DimensionMismatch):
            ReducedModel(**kw)

    def test_coupling_shape(self):
        kw = self.good_kwargs()
        kw["couplings"] = [np.eye(3)]
        with pytest.raises(DimensionMismatch):
            ReducedModel(**kw)

    def test_bath_type(self):
        kw = self.good_kwargs()
        kw["bath"] = "flat"
        with pytest.raises(DimensionMismatch):
            ReducedModel(**kw)

    def test_bath_count_mismatch(self):
        kw = self.good_kwargs()
        kw["bath"] = BathSpectrum.flat(0.25, 2)
        with pytest.raises(DimensionMismatch):
            ReducedModel(**kw)

    def test_p_series_type(self):
        kw = self.good_kwargs()
        kw["p_series"] = np.eye(2)
        with pytest.raises(DimensionMismatch):
            ReducedModel(**kw)


class TestValidateModel:
    def test_reference_models_pass(self):
        for name in ("qubit_dephasing", "qubit_driven", "qutrit_thermal"):
            report = validate_model(PRESETS[name]())
            assert report.passed, name

    def test_dephasing_report_contents(self):
        report = validate_model(PRESETS["qubit_dephasing"]())
        assert report.independence_witness is None
        assert report.unitarity_residual < 1e-12
        assert report.p0_residual < 1e-12
        assert report.hbar_hermiticity < 1e-14
        assert report.congruence_witness is None
        # static part 0.3 Z gives level splitting 0.6
        assert np.allclose(np.sort(report.bohr_frequencies), [-0.6, 0.0, 0.6], atol=1e-12)

    def test_dependent_frequencies(self):
        m = PRESETS["qubit_dephasing"]()
        bad = ReducedModel(
            frequencies=np.array([1.0, 2.0]),
            p_series=m.p_series,
            h_bar=m.h_bar,
            couplings=m.couplings,
            bath=m.bath,
        )
        report = validate_model(bad)
        assert not report.passed
        assert list(report.independence_witness) == [2, -1]
        d = report.to_dict()
        assert d["rational_independence"]["witness"] == [2, -1]

    def test_congruence_violation(self):
        report = validate_model(PRESETS["qubit_congruence_violating"]())
        assert not report.passed
        assert report.congruence_ok is False
        wa, wb, n = report.congruence_witness
        omega = PRESETS["qubit_congruence_violating"]().frequencies
        # witness must satisfy the congruence it claims
        assert abs((wa - wb) - np.dot(n, omega)) < 1e-12
        d = report.to_dict()["congruence_freedom"]["witness"]
        assert d["lattice_vector"] == [int(v) for v in n]

    def test_non_hermitian_static_part(self):
        m = PRESETS["qubit_dephasing"]()
        bad = ReducedModel(
            frequencies=m.frequencies,
            p_series=m.p_series,
            h_bar=np.array([[0.0, 1.0], [0.0, 0.0]]),
            couplings=m.couplings,
            bath=m.bath,
        )
        report = validate_model(bad)
        assert not report.passed
        assert not report.hermiticity_ok
        # spectral decomposition is skipped when the static part is invalid
        assert report.bohr_frequencies.size == 0
        assert report.to_dict()["hbar_hermiticity"]["passed"] is False

    def test_unitarity_violation(self):
        m = PRESETS["qubit_dephasing"]()
        bad = ReducedModel(
            frequencies=m.frequencies,
            p_series=FourierOperatorSeries.constant(0.9 * np.eye(2), r=2),
            h_bar=m.h_bar,
            couplings=m.couplings,
            bath=m.bath,
        )
        report = validate_model(bad)
        assert not report.passed
        assert not report.unitarity_ok
        assert report.unitarity_residual > 0.1

    def test_drift_between_samples_rejected(self):
        # the r = 3 recipe at d = 2, trunc 4, amplitude 0.091, seed 1 passed a 64-point sample
        # on [0, 2 pi] with 8.05e-10; its residual reaches 1.19e-9 at t = 10.3768, and the
        # bound over all t is 2.32e-9
        m = scaled_r3_models(1, dims=(2,), trunc=4, amplitude=0.091)[0]
        p = m.p_series.evaluate(m.frequencies, 10.3768)
        assert np.linalg.norm(p @ p.conj().T - np.eye(2), 2) > 1.1e-9
        report = validate_model(m)
        assert not report.unitarity_ok and not report.passed
        assert report.unitarity_residual == pytest.approx(2.32e-9, rel=1e-2)
        assert report.to_dict()["unitarity"] == {"passed": False, "residual": report.unitarity_residual,
                                                 "p0_residual": report.p0_residual}
        with pytest.raises(NotUnitary):
            synthesize_hamiltonian(m.p_series, m.frequencies, m.h_bar)

    def test_report_keeps_the_decomposition(self):
        m = PRESETS["qutrit_thermal"]()
        decomp = validate_model(m).decomposition
        assert np.array_equal(decomp.bohr_frequencies, bohr.decompose(m.h_bar).bohr_frequencies)
        bad = ReducedModel(frequencies=m.frequencies, p_series=m.p_series, h_bar=np.triu(m.h_bar + 1.0),
                           couplings=m.couplings, bath=m.bath)
        assert validate_model(bad).decomposition is None

    @pytest.mark.parametrize("box", [1, 5, 12])
    def test_one_lattice_serves_both_scans(self, monkeypatch, box):
        # the witnesses are the public scans' own, each of which builds its lattice alone
        shells, calls = fourier._shells, []
        counted = lambda r, b: calls.append((r, b)) or shells(r, b)
        models = {name: PRESETS[name]() for name in ("qubit_dephasing", "qubit_driven", "qutrit_thermal",
                                                   "qubit_congruence_violating")}
        models.update({f"scaled_d{m.dim}": m for m in scaled_r3_models(1)})
        dependent = models["qubit_dephasing"]
        models["dependent"] = ReducedModel(frequencies=np.array([1.0, 2.0]), p_series=dependent.p_series,
                                           h_bar=dependent.h_bar, couplings=dependent.couplings, bath=dependent.bath)
        for name, m in models.items():
            for mod in (fourier, bohr, model_mod):
                monkeypatch.setattr(mod, "_shells", counted)
            report = validate_model(m, box=box)
            monkeypatch.undo()
            assert calls == [(m.frequencies.size, box)], name
            calls.clear()
            freqs = report.bohr_frequencies
            assert report.independence_witness == fourier.check_rational_independence(m.frequencies, box=box)
            assert report.congruence_witness == bohr.check_congruence_freedom(freqs, m.frequencies, box=box)
        assert validate_model(models["dependent"], box=box).independence_witness == ((2, -1) if box >= 2 else None)
