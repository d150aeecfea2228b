"""Energy shift, dissipator, and full generator assembly."""

import math

import numpy as np
import pytest

from conftest import random_density, random_hermitian

from qmme.bohr import (
    build_jump_operator_set,
    decompose,
    interaction_picture_coupling_series,
)
from qmme.errors import InadmissibleModel, NotPSD
from qmme.fourier import FourierOperatorSeries
from qmme.generator import (
    _KahanSum,
    assemble_x,
    build_dissipator,
    build_generator,
    build_lamb_shift,
    check_covariance,
    cross_check_selection_rule,
)
from qmme.linalg import devectorize, vectorize
from qmme.model import BathSpectrum, ReducedModel, p_series_from_profile_terms
from qmme.presets import SIGMA_X, SIGMA_Z, preset


def static_qubit_jumps(coupling, r=1):
    decomp = decompose(0.5 * SIGMA_Z)
    series = interaction_picture_coupling_series(
        FourierOperatorSeries.constant(np.eye(2), r=r), coupling
    )
    return decomp, build_jump_operator_set(decomp, [series])


class TestLambShift:
    def test_frozen_sign_profile(self):
        # zeta(w) = -0.1 sign(w) against splitting 1 gives
        # -0.1 |1><1| + 0.1 |0><0| = 0.1 Z
        _, jumps = static_qubit_jumps(SIGMA_X)
        bath = BathSpectrum.from_callables(
            lambda w: np.zeros((1, 1)),
            zeta_fn=lambda w: np.array([[-0.1 * np.sign(w)]]),
            n_couplings=1,
        )
        delta_h, zeta_blocks = build_lamb_shift(jumps, bath, np.array([math.sqrt(2.0)]))
        assert np.allclose(delta_h, 0.1 * SIGMA_Z, atol=1e-14)
        got = {float(z[0, 0].real) for z in zeta_blocks.values()}
        assert got == {0.1, -0.1}

    def test_vanishing_zeta_gives_zero_shift(self, q1):
        _, bundle, _ = q1
        assert np.allclose(bundle.delta_h, 0.0, atol=0)


class TestDissipator:
    def test_dephasing_closed_form(self, q1):
        # pure dephasing at rate g: the superoperator is diag(0,-2g,-2g,0)
        # in column stacking order
        _, bundle, _ = q1
        expect = np.diag([0.0, -0.5, -0.5, 0.0])
        assert np.allclose(bundle.dissipator.matrix, expect, atol=1e-14)

    def test_kossakowski_blocks_recorded(self, q1):
        _, bundle, _ = q1
        for block in bundle.kossakowski.values():
            assert np.allclose(block, 0.25 * np.eye(1), atol=0)
        for key in bundle.kossakowski:
            assert key in bundle.shifted_frequencies

    def test_indefinite_bath_rejected(self):
        _, jumps = static_qubit_jumps(SIGMA_X)
        bath = BathSpectrum.from_callables(lambda w: np.array([[w]]), n_couplings=1)
        with pytest.raises(NotPSD) as exc:
            build_dissipator(jumps, bath, np.array([math.sqrt(2.0)]))
        assert "block" in str(exc.value)

    def test_trace_annihilation(self, q2, rng):
        # every dissipator output is traceless
        _, bundle, _ = q2
        for _ in range(5):
            rho = random_density(rng, bundle.dim)
            out = devectorize(bundle.dissipator.matrix @ vectorize(rho))
            assert abs(np.trace(out)) < 1e-13


class TestAssembleX:
    def test_action_matches_direct_arithmetic(self, q1, rng):
        model, bundle, _ = q1
        g = 0.25
        for _ in range(5):
            rho = random_density(rng, 2)
            out = devectorize(bundle.x.matrix @ vectorize(rho))
            h = model.h_bar
            expect = -1j * (h @ rho - rho @ h) + g * (SIGMA_Z @ rho @ SIGMA_Z - rho)
            assert np.allclose(out, expect, atol=1e-13)

    def test_dephasing_spectrum_frozen(self, q1):
        _, bundle, _ = q1
        w = np.linalg.eigvals(bundle.x.matrix)
        w = np.sort_complex(w)
        expect = np.sort_complex(np.array([0.0, 0.0, -0.5 + 0.6j, -0.5 - 0.6j]))
        assert np.allclose(w, expect, atol=1e-13)

    def test_hermiticity_preservation(self, q3, rng):
        _, bundle, _ = q3
        a = random_hermitian(rng, 3)
        out = devectorize(bundle.x.matrix @ vectorize(a))
        assert np.linalg.norm(out - out.conj().T) < 1e-11


class TestThermalStationarity:
    def test_qubit_kernel_is_gibbs(self):
        beta = 1.3
        model = ReducedModel(
            frequencies=np.array([math.sqrt(2.0)]),
            p_series=FourierOperatorSeries.constant(np.eye(2), r=1),
            h_bar=0.5 * SIGMA_Z,
            couplings=[SIGMA_X],
            bath=BathSpectrum.ohmic_kms(0.2, 4.0, beta, 1),
        )
        bundle = build_generator(model)
        gibbs = np.diag(np.exp(-beta * np.array([0.5, -0.5])))
        gibbs = gibbs / np.trace(gibbs)
        # stationary under X
        assert np.linalg.norm(bundle.x.matrix @ vectorize(gibbs)) < 1e-12
        # and the populations obey the rate-ratio balance
        p_up = gibbs[0, 0].real
        p_dn = gibbs[1, 1].real
        assert p_up / p_dn == pytest.approx(math.exp(-beta), rel=1e-12)


class TestSelectionRule:
    def test_reference_models_near_zero(self, q2, q3):
        for model, bundle, _ in (q2, q3):
            dev = cross_check_selection_rule(bundle, model.bath, model.frequencies)
            assert dev < 1e-10

    def test_with_nonzero_zeta(self):
        # exercises the principal-value weights in the double sum
        bath = BathSpectrum.from_callables(
            lambda w: np.array([[0.3 * math.exp(-abs(w))]]),
            zeta_fn=lambda w: np.array([[0.05 * w]]),
            n_couplings=1,
        )
        model = ReducedModel(
            frequencies=np.array([math.sqrt(2.0)]),
            p_series=FourierOperatorSeries.constant(np.eye(2), r=1),
            h_bar=0.5 * SIGMA_Z,
            couplings=[SIGMA_X],
            bath=bath,
        )
        bundle = build_generator(model)
        assert np.linalg.norm(bundle.delta_h) > 1e-3  # shift actually engaged
        dev = cross_check_selection_rule(bundle, bath, model.frequencies)
        assert dev < 1e-12

    def test_two_couplings_with_cross_terms(self):
        # a driven qutrit with two couplings whose jump operators share every
        # block; h(w) and zeta(w) have complex off-diagonal entries, so the
        # mu != nu terms and the orientation of both bath matrices matter
        rng = np.random.default_rng(31)
        omega = np.array([math.sqrt(2.0)])
        terms = [{"profile": "sin", "index": (1,), "amplitude": 0.2,
                  "matrix": random_hermitian(rng, 3) / 3}]
        bath = BathSpectrum.from_callables(
            lambda w: 0.2 / (1.0 + w * w) * np.array(
                [[1.0, 0.4 * np.exp(1j * w)], [0.4 * np.exp(-1j * w), 0.7]]),
            zeta_fn=lambda w: np.array([[0.05 * w, 0.02 + 0.03j * w], [0.02 - 0.03j * w, -0.04]]),
            n_couplings=2,
        )
        model = ReducedModel(
            frequencies=omega,
            p_series=p_series_from_profile_terms(terms, r=1, trunc=6),
            h_bar=np.diag([0.0, 1.0, 2.7]),
            couplings=[random_hermitian(rng, 3), random_hermitian(rng, 3)],
            bath=bath,
        )
        bundle = build_generator(model)
        assert len({n for (_, n, _) in bundle.jumps.ops}) > 1  # sidebands present
        assert np.linalg.norm(bundle.delta_h) > 1e-2
        assert cross_check_selection_rule(bundle, bath, omega) < 1e-12
        assert check_covariance(bundle).passed

    def test_congruent_model_deviates(self):
        model = preset("qubit_congruence_violating")
        bundle = build_generator(model, validate=False)
        dev = cross_check_selection_rule(bundle, model.bath, model.frequencies)
        assert dev > 1e-3


class TestBuildGenerator:
    def test_refuses_inadmissible(self):
        with pytest.raises(InadmissibleModel) as exc:
            build_generator(preset("qubit_congruence_violating"))
        assert exc.value.report is not None
        assert exc.value.report.passed is False
        assert exc.value.report.congruence_witness is not None

    def test_validate_false_bypasses(self):
        bundle = build_generator(preset("qubit_congruence_violating"), validate=False)
        assert bundle.dim == 2

    def test_bundle_contents(self, q3):
        _, bundle, _ = q3
        assert bundle.dim == 3
        assert bundle.x.matrix.shape == (9, 9)
        assert len(bundle.s_hat_series) == 2
        assert all(t < 1e-10 for t in bundle.s_hat_tails())
        assert len(bundle.jumps.ops) > 100  # dense frame mixing

    def test_shift_hermitian(self, q3):
        _, bundle, _ = q3
        assert np.linalg.norm(bundle.delta_h - bundle.delta_h.conj().T) < 1e-13


class TestCovariance:
    def test_reference_models(self, q1, q2, q3):
        for _, bundle, _ in (q1, q2, q3):
            check = check_covariance(bundle)
            assert check.superop_residual <= 1e-10
            assert check.shift_commutator_residual <= 1e-10
            assert check.passed

    def test_to_dict(self, q2):
        _, bundle, _ = q2
        d = check_covariance(bundle).to_dict()
        assert set(d) == {"superop_residual", "shift_commutator_residual", "passed"}
        assert d["passed"] is True


class TestKahanSum:
    def test_small_increments_not_swallowed(self):
        # naive accumulation loses every 1e-16 added to 1.0; the compensated
        # sum keeps them
        acc = _KahanSum((1, 1))
        acc.add(np.array([[1.0]]))
        naive = 1.0
        for _ in range(10000):
            acc.add(np.array([[1e-16]]))
            naive += 1e-16
        assert naive == 1.0
        assert acc.total()[0, 0].real == pytest.approx(1.0 + 1e-12, rel=1e-6)

    def test_many_small_terms(self):
        acc = _KahanSum((1,))
        for _ in range(10**5):
            acc.add(np.array([0.1]))
        assert acc.total()[0] == pytest.approx(1e4, abs=1e-9)
