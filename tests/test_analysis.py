"""Spectrum classification, limit cycles, decay fits, CPTP certification."""

import math

import numpy as np
import pytest
import scipy.linalg

from conftest import random_density

from qmme import analysis, linalg
from qmme.analysis import (
    cptp_certificate,
    decay_rate_fit,
    limit_cycle,
    positive_invariant,
    spectrum_classification,
)
from qmme.dynamics import DynamicalMap
from qmme.errors import Defective, InsufficientDecay, SpectralViolation
from qmme.fourier import FourierOperatorSeries
from qmme.generator import build_generator
from qmme.linalg import Superoperator, choi_of, hermitize, trace_norm, vectorize
from qmme.model import BathSpectrum, ReducedModel
from qmme.presets import SIGMA_X, SIGMA_Z


def two_rate_qubit():
    """Dephasing plus weak relaxation with exactly known rates.

    The generator spectrum is {0, -0.1, -1 -0.6i, -1 +0.6i}: populations
    relax at twice the flip rate (0.1), the coherence at the sum of both
    channel contributions (1.0).
    """
    bath = BathSpectrum.from_callables(
        lambda w: np.diag([0.475, 0.05]), n_couplings=2
    )
    model = ReducedModel(
        frequencies=np.array([math.sqrt(2.0)]),
        p_series=FourierOperatorSeries.constant(np.eye(2), r=1),
        h_bar=0.3 * SIGMA_Z,
        couplings=[SIGMA_Z, SIGMA_X],
        bath=bath,
    )
    bundle = build_generator(model)
    return model, bundle, DynamicalMap(model, bundle)


class _MatrixMap:
    """Minimal map interface around an arbitrary constant generator."""

    def __init__(self, gen):
        self._gen = np.asarray(gen, dtype=complex)
        self.dim = int(round(math.sqrt(self._gen.shape[0])))

    def at(self, t):
        return Superoperator(scipy.linalg.expm(float(t) * self._gen))

    def propagator(self, t, s):
        return Superoperator(scipy.linalg.expm(float(t - s) * self._gen))


class _BareMap:
    """Only the attributes a certificate may use: ``dim``, ``at`` and ``propagator``."""

    def __init__(self, dmap):
        self.dim, self.at, self.propagator = dmap.dim, dmap.at, dmap.propagator


def _row_by_row_certificate(dmap, ts=None, n_pairs=20, seed=7):
    """The certificate one row at a time: the reference for the stacked rows."""
    if ts is None:
        ts = np.logspace(-3, math.log10(50.0), 20)
    ts = np.asarray(ts, dtype=float).reshape(-1)
    rng = np.random.default_rng(seed)
    d = dmap.dim
    eye_vec = vectorize(np.eye(d))

    def _row(label, superop):
        c = choi_of(superop)
        choi_herm = float(np.linalg.norm(c - c.conj().T))
        min_eig = float(np.linalg.eigvalsh(hermitize(c))[0])
        trace_defect = float(
            np.max(np.abs(superop.matrix.conj().T @ eye_vec - eye_vec))
        )
        herm_defect = 0.0
        for _ in range(3):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            fwd = superop.apply(a)
            bwd = superop.apply(a.conj().T)
            herm_defect = max(herm_defect, float(np.linalg.norm(bwd - fwd.conj().T)))
        return dict(label, choi_min_eig=min_eig, trace_defect=trace_defect,
                    hermiticity_defect=herm_defect, choi_hermiticity=choi_herm)

    time_rows = [_row({"t": float(t)}, dmap.at(t)) for t in ts]
    pair_rows = []
    horizon = float(ts[-1])
    for _ in range(int(n_pairs)):
        a, b = sorted(rng.uniform(0.0, horizon, size=2))
        pair_rows.append(_row({"s": float(a), "t": float(b)}, dmap.propagator(b, a)))
    return time_rows, pair_rows


class TestSpectrumClassification:
    def test_dephasing_frozen(self, q1):
        _, bundle, _ = q1
        report = spectrum_classification(bundle.x)
        assert report.k0 == 2
        assert report.oscillatory_indices == []
        assert len(report.decaying_indices) == 2
        assert report.decay_rate == pytest.approx(0.5, abs=1e-12)
        assert report.slowest_decay_rate == pytest.approx(0.5, abs=1e-12)
        assert report.quasiperiodic_steady_state is True
        assert report.diagonalizable is True
        expect = np.array([-0.5 - 0.6j, -0.5 + 0.6j, 0.0, 0.0])
        assert np.allclose(report.eigenvalues, expect, atol=1e-12)

    def test_diagonalizable_is_the_eigensystem_gate(self, q1, monkeypatch):
        _, bundle, dmap = q1
        monkeypatch.setattr(linalg, "_COND_LIMIT", 1.0)
        report = spectrum_classification(bundle.x)
        assert report.diagonalizable is False
        assert report.eigvec_cond == dmap.eig_cond

    def test_mixed_classes(self):
        report = spectrum_classification(np.diag([0.0, 0.7j, -0.7j, -0.3]))
        assert report.k0 == 1
        assert len(report.oscillatory_indices) == 2
        assert len(report.decaying_indices) == 1
        assert report.decay_rate == pytest.approx(0.3)
        assert report.slowest_decay_rate == pytest.approx(0.3)
        assert report.quasiperiodic_steady_state is False

    def test_real_parts_snapped(self):
        report = spectrum_classification(
            np.diag([0.0, -1e-12 + 0.4j, -1e-12 - 0.4j, -0.2])
        )
        for i in report.oscillatory_indices:
            assert report.eigenvalues[i].real == 0.0
        # raw values keep the unsnapped data
        assert np.any(report.raw_eigenvalues.real != report.eigenvalues.real)

    def test_conjugate_pair_order_stable(self):
        # the pair's real parts one ulp apart, in either order: the same listing, -Im first
        a, b = -0.35, np.nextafter(-0.35, 0.0)
        listings = [
            spectrum_classification(np.diag([0.0, re_up + 0.83j, re_down - 0.83j, -0.1])).eigenvalues
            for re_up, re_down in ((a, b), (b, a))
        ]
        assert np.array_equal(listings[0].imag, [-0.83, 0.83, 0.0, 0.0])
        assert np.array_equal(listings[1].imag, listings[0].imag)
        assert np.array_equal(listings[1].real, listings[0].real[[1, 0, 2, 3]])

    def test_positive_real_part_rejected(self):
        with pytest.raises(SpectralViolation):
            spectrum_classification(np.diag([0.1, 0.0, -0.2]))

    def test_missing_kernel_rejected(self):
        with pytest.raises(SpectralViolation):
            spectrum_classification(np.diag([-1.0, -2.0]))

    def test_conjugation_asymmetry_rejected(self):
        with pytest.raises(SpectralViolation):
            spectrum_classification(np.diag([0.0, 1.0j, -0.5]))

    def test_reference_models_classified(self, q2, q3):
        for _, bundle, _ in (q2, q3):
            report = spectrum_classification(bundle.x)
            assert report.k0 == 1
            assert report.quasiperiodic_steady_state is True
            assert report.conjugation_defect < 1e-10

    def test_to_dict_round(self, q3):
        _, bundle, _ = q3
        d = spectrum_classification(bundle.x).to_dict()
        assert d["k0"] == 1
        assert d["quasiperiodic_steady_state"] is True
        assert len(d["eigenvalues"]) == 9


class TestPositiveInvariant:
    def test_dephasing_keeps_mixed_state(self, q1):
        _, bundle, _ = q1
        phi, min_eig = positive_invariant(bundle.x)
        assert np.allclose(phi, np.eye(2) / 2, atol=1e-12)
        assert min_eig == pytest.approx(0.5, abs=1e-12)

    def test_static_thermal_kernel_is_gibbs(self, q3_static):
        model, bundle, _ = q3_static
        phi, min_eig = positive_invariant(bundle.x)
        gibbs = scipy.linalg.expm(-model.h_bar)
        gibbs = gibbs / np.trace(gibbs)
        assert np.allclose(phi, gibbs, atol=1e-10)
        assert min_eig > 0.0
        assert np.trace(phi).real == pytest.approx(1.0, abs=1e-12)

    def test_defective_gate(self, q1, monkeypatch):
        _, bundle, _ = q1
        monkeypatch.setattr(linalg, "_COND_LIMIT", 1.0)
        with pytest.raises(Defective):
            positive_invariant(bundle.x)


class TestLimitCycle:
    def test_dephasing_cycle_is_population_part(self, q1):
        _, _, dmap = q1
        rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
        cycle = limit_cycle(dmap, rho0)
        assert cycle.quasiperiodic is True
        assert cycle.reconstruction_residual < 1e-12
        assert np.all(cycle.exponents == 0.0)
        target = np.diag([0.7, 0.3])
        for t in (0.0, 3.0, 17.0):
            assert np.allclose(cycle.states_at([t])[0], target, atol=1e-12)

    def test_cycle_attracts_trajectory(self, q2, rng):
        _, _, dmap = q2
        rho0 = random_density(rng, 2)
        cycle = limit_cycle(dmap, rho0)
        t_late = 60.0
        late = dmap.evolve(rho0, [t_late])[0]
        assert trace_norm(late - cycle.states_at([t_late])[0]) < 1e-8

    @pytest.mark.parametrize("fixture", ["q2", "q3", "q3_static"])
    def test_decay_weights_match_per_mode_norms(self, fixture, request, rng):
        # one column-norm call against the per-mode loop; the summation order
        # differs, so they agree to rounding (2.8e-17 on the qutrits)
        _, _, dmap = request.getfixturevalue(fixture)
        rho0 = random_density(rng, dmap.dim)
        cycle = limit_cycle(dmap, rho0)
        w, v, vinv = dmap.eigensystem()
        c = vinv @ vectorize(rho0)
        dec = np.flatnonzero(analysis._classify(w, 1e-9)[3])
        loop = np.array([abs(c[j]) * np.linalg.norm(v[:, j]) for j in dec])
        assert np.max(np.abs(cycle.decay_weights - loop)) <= 4 * np.finfo(float).eps * np.max(loop)

    def test_states_on_grid_match_mode_sum(self, q3, rng):
        # reference: the per-time mode sum, conjugated by p(t) from evaluate
        model, _, dmap = q3
        cycle = limit_cycle(dmap, random_density(rng, 3))
        ts = np.array([0.0, 1.3, 7.9, 60.0])
        for t, rho in zip(ts, cycle.states_at(ts)):
            base = sum(c * np.exp(xi * t) * phi for xi, c, phi in
                       zip(cycle.exponents, cycle.coefficients, cycle.mode_matrices))
            p = model.p_series.evaluate(model.frequencies, t)
            assert np.allclose(rho, p @ base @ p.conj().T, atol=1e-12)

    def test_cycle_states_are_densities(self, q3, rng):
        _, _, dmap = q3
        cycle = limit_cycle(dmap, random_density(rng, 3))
        for rho in cycle.states_at([0.0, 2.5, 9.1]):
            assert abs(np.trace(rho) - 1.0) < 1e-10
            assert np.linalg.norm(rho - rho.conj().T) < 1e-10
            assert np.linalg.eigvalsh(rho)[0] > -1e-10

    def test_to_dict(self, q1):
        _, _, dmap = q1
        d = limit_cycle(dmap, np.eye(2) / 2).to_dict()
        assert d["quasiperiodic"] is True
        assert len(d["exponents"]) == 2


class TestDecayFit:
    def test_two_rate_oracle(self):
        # a population-only initial deviation must expose the slow rate, not
        # the fast coherence rate
        _, _, dmap = two_rate_qubit()
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        cycle = limit_cycle(dmap, rho0)
        ts = np.linspace(0.0, 120.0, 400)
        fit = decay_rate_fit(dmap, cycle, rho0, ts)
        assert fit.expected_rate == pytest.approx(0.1, abs=1e-10)
        assert fit.fitted_rate == pytest.approx(0.1, rel=1e-6)
        assert fit.relative_error < 1e-6
        assert fit.n_points >= 4

    def test_coherent_start_exposes_fast_rate(self):
        _, _, dmap = two_rate_qubit()
        rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        cycle = limit_cycle(dmap, rho0)
        ts = np.linspace(0.0, 40.0, 400)
        fit = decay_rate_fit(dmap, cycle, rho0, ts)
        assert fit.expected_rate == pytest.approx(1.0, abs=1e-8)
        assert fit.relative_error < 0.05

    def test_already_converged(self):
        _, _, dmap = two_rate_qubit()
        rho0 = np.eye(2, dtype=complex) / 2
        cycle = limit_cycle(dmap, rho0)
        with pytest.raises(InsufficientDecay):
            decay_rate_fit(dmap, cycle, rho0, np.linspace(0.0, 50.0, 100))

    def test_window_too_short(self):
        _, _, dmap = two_rate_qubit()
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        cycle = limit_cycle(dmap, rho0)
        with pytest.raises(InsufficientDecay):
            decay_rate_fit(dmap, cycle, rho0, np.linspace(0.0, 5.0, 50))

    @pytest.mark.parametrize("fixture", ["q2", "q2_periodic"])
    def test_rate_stable_under_rounding_noise(self, fixture, request, monkeypatch):
        # the window ends where rounding is a negligible share of the distance,
        # so noise at its scale leaves the slope (0.8 on the driven qubits) in place
        _, _, dmap = request.getfixturevalue(fixture)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        ts = np.linspace(0.0, 120.0, 500)
        cycle = limit_cycle(dmap, rho0)
        clean = decay_rate_fit(dmap, cycle, rho0, ts)
        noise = 1e-16 * np.random.default_rng(5).standard_normal((ts.size, 2, 2))
        evolve = dmap.evolve
        monkeypatch.setattr(dmap, "evolve", lambda rho, times: evolve(rho, times) + noise)
        noisy = decay_rate_fit(dmap, cycle, rho0, ts)
        assert clean.relative_error < 1e-8
        assert abs(noisy.fitted_rate - clean.fitted_rate) < 1e-8

    def test_to_dict(self):
        _, _, dmap = two_rate_qubit()
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        cycle = limit_cycle(dmap, rho0)
        d = decay_rate_fit(dmap, cycle, rho0, np.linspace(0.0, 120.0, 400)).to_dict()
        assert set(d) >= {"fitted_rate", "expected_rate", "relative_error"}


class TestCptpCertificate:
    def test_reference_model_passes(self, q2):
        _, _, dmap = q2
        cert = cptp_certificate(dmap, ts=np.linspace(0.1, 10.0, 6), n_pairs=5)
        assert cert.passed
        assert cert.worst_choi_eig >= -1e-10
        assert cert.worst_trace_defect <= 1e-12
        assert len(cert.time_rows) == 6
        assert len(cert.pair_rows) == 5

    def test_positivity_violation_detected(self, q1):
        # reversing the dissipator amplifies coherence, which cannot be CP
        _, bundle, _ = q1
        bad = _MatrixMap(bundle.x.matrix - 2.0 * bundle.dissipator.matrix)
        cert = cptp_certificate(bad, ts=np.array([0.5, 1.0]), n_pairs=3)
        assert not cert.passed
        assert cert.worst_choi_eig < -1e-3

    def test_trace_violation_detected(self, q1):
        _, bundle, _ = q1
        bad = _MatrixMap(bundle.x.matrix + 0.05 * np.eye(4))
        cert = cptp_certificate(bad, ts=np.array([0.5, 1.0]), n_pairs=3)
        assert not cert.passed
        assert cert.worst_trace_defect > 1e-3

    def test_to_dict(self, q1):
        _, _, dmap = q1
        d = cptp_certificate(dmap, ts=np.array([0.5]), n_pairs=2).to_dict()
        assert d["passed"] is True
        assert "worst_choi_eig" in d and "times" in d and "propagator_pairs" in d

    @pytest.mark.parametrize("fixture", ["q1", "q2", "q2_periodic", "q3", "q3_static"])
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_stacked_rows_match_row_by_row(self, fixture, seed, request):
        _, _, dmap = request.getfixturevalue(fixture)
        cert = cptp_certificate(dmap, seed=seed)
        # repr keeps every bit, the sign of a zero included
        assert repr((cert.time_rows, cert.pair_rows)) == repr(_row_by_row_certificate(dmap, seed=seed))

    def test_stacked_rows_need_only_at_and_propagator(self, q3, q1):
        _, bundle, dmap = q1
        for m in (_BareMap(q3[2]), _MatrixMap(bundle.x.matrix - 2.0 * bundle.dissipator.matrix)):
            ts = np.array([0.2, 0.9, 3.0])
            cert = cptp_certificate(m, ts=ts, n_pairs=4, seed=3)
            assert repr((cert.time_rows, cert.pair_rows)) == repr(
                _row_by_row_certificate(m, ts=ts, n_pairs=4, seed=3))

    def test_no_pairs(self, q3):
        _, _, dmap = q3
        cert = cptp_certificate(dmap, ts=np.array([0.5, 2.0]), n_pairs=0)
        assert cert.pair_rows == [] and len(cert.time_rows) == 2
        assert repr((cert.time_rows, cert.pair_rows)) == repr(
            _row_by_row_certificate(dmap, ts=np.array([0.5, 2.0]), n_pairs=0))
        assert cert.worst_choi_eig == min(r["choi_min_eig"] for r in cert.time_rows)
