"""Energy shift, dissipator, and full generator assembly."""

import dataclasses
import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import block_keys, random_density, random_hermitian
from test_bohr import rotated_degenerate

from qmme.bohr import (
    build_jump_operator_set,
    decompose,
    interaction_picture_coupling_series,
)
from qmme.errors import InadmissibleModel, NotHermitian, NotHermitianZeta, NotPSD, Overflow
from qmme.fourier import FourierOperatorSeries
from qmme.generator import (
    assemble_x,
    build_dissipator,
    build_generator,
    build_lamb_shift,
    check_covariance,
    cross_check_selection_rule,
)
from qmme.io import dumps_canonical, model_to_dict
from qmme.linalg import Superoperator, ad_superop, devectorize, vectorize
from qmme.model import BathSpectrum, ReducedModel, p_series_from_profile_terms
from qmme.presets import PRESETS, SIGMA_X, SIGMA_Z


def static_qubit_jumps(coupling, r=1):
    decomp = decompose(0.5 * SIGMA_Z)
    series = interaction_picture_coupling_series(
        FourierOperatorSeries.constant(np.eye(2), r=r), coupling
    )
    return decomp, build_jump_operator_set(decomp, [series])


def driven_qutrit(h_fn=None, zeta_fn=None):
    """Driven qutrit with two couplings and a bath with complex off-diagonal
    h and zeta; ``h_fn``/``zeta_fn`` wrap the bath's (value, w) -> value."""
    rng = np.random.default_rng(31)
    terms = [{"profile": "sin", "index": (1,), "amplitude": 0.2,
              "matrix": random_hermitian(rng, 3) / 3}]

    def h(w):
        v = 0.2 / (1.0 + w * w) * np.array([[1.0, 0.4 * np.exp(1j * w)], [0.4 * np.exp(-1j * w), 0.7]])
        return v if h_fn is None else h_fn(v, w)

    def zeta(w):
        v = np.array([[0.05 * w, 0.02 + 0.03j * w], [0.02 - 0.03j * w, -0.04]])
        return v if zeta_fn is None else zeta_fn(v, w)

    return ReducedModel(
        frequencies=np.array([math.sqrt(2.0)]),
        p_series=p_series_from_profile_terms(terms, r=1, trunc=6),
        h_bar=np.diag([0.0, 1.0, 2.7]),
        couplings=[random_hermitian(rng, 3), random_hermitian(rng, 3)],
        bath=BathSpectrum.from_callables(h, zeta_fn=zeta, n_couplings=2),
    )


def degenerate_qutrit():
    """``driven_qutrit`` with h_bar = U diag(1, 1, 3) U^dag for a seeded random
    unitary U (``test_bohr.rotated_degenerate``): a rank-2 level whose
    eigenvectors are arbitrary inside it."""
    base = driven_qutrit()
    return ReducedModel(frequencies=base.frequencies, p_series=base.p_series, h_bar=rotated_degenerate(),
                        couplings=base.couplings, bath=base.bath)


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
        assert len(zeta_blocks) == len(jumps.frequency_index)
        got = {float(z[0, 0].real) for z in zeta_blocks}
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
        for block in bundle.kossakowski:
            assert np.allclose(block, 0.25 * np.eye(1), atol=0)
        # one block and one shifted frequency per block of the jump operators
        assert len(bundle.kossakowski) == len(bundle.shifted_frequencies) == len(bundle.jumps.frequency_index)

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
        model = driven_qutrit()
        bundle = build_generator(model)
        assert len({n for (_, n) in block_keys(bundle.jumps)}) > 1  # sidebands present
        assert np.linalg.norm(bundle.delta_h) > 1e-2
        assert cross_check_selection_rule(bundle, model.bath, model.frequencies) < 1e-12
        assert check_covariance(bundle).passed

    def test_congruent_model_deviates(self):
        model = PRESETS["qubit_congruence_violating"]()
        bundle = build_generator(model, validate=False)
        dev = cross_check_selection_rule(bundle, model.bath, model.frequencies)
        assert dev > 1e-3


class TestBuildGenerator:
    def test_refuses_inadmissible(self):
        with pytest.raises(InadmissibleModel) as exc:
            build_generator(PRESETS["qubit_congruence_violating"]())
        assert exc.value.report is not None
        assert exc.value.report.passed is False
        assert exc.value.report.congruence_witness is not None

    def test_validate_false_bypasses(self):
        bundle = build_generator(PRESETS["qubit_congruence_violating"](), validate=False)
        assert bundle.dim == 2

    def test_bundle_contents(self, q3):
        _, bundle, _ = q3
        assert bundle.dim == 3
        assert bundle.x.matrix.shape == (9, 9)
        assert len(bundle.s_hat_series) == 2
        assert all(s.tail_norm < 1e-10 for s in bundle.s_hat_series)
        assert bundle.jumps.present.sum() > 100  # dense frame mixing

    def test_shift_hermitian(self, q3):
        _, bundle, _ = q3
        assert np.linalg.norm(bundle.delta_h - bundle.delta_h.conj().T) < 1e-13

    def test_stacks_jump_operators_once(self):
        # the set holds its operators once, as read-only eigenbasis entries; neither
        # the build nor the cross-check asks for the lab-basis stack or the per-key view
        model = PRESETS["qutrit_thermal"]()
        bundle = build_generator(model)
        cross_check_selection_rule(bundle, model.bath, model.frequencies)
        jumps = bundle.jumps
        assert "stack" not in vars(jumps) and "ops" not in vars(jumps)  # no lab-basis copy
        assert not any(x.flags.writeable for x in jumps.values)
        assert [x.shape[1:] for x in jumps.values] == [(2, i.size) for i, _ in jumps.decomp.frequency_entries]
        assert not jumps.stack.flags.writeable and not jumps.present.flags.writeable
        # each operator's norm is its entries' 2-norm, the lab-basis Frobenius norm (V is unitary)
        lab = np.linalg.norm(jumps.stack, axis=(2, 3))
        assert np.max(np.abs(jumps.norms - lab)) <= 1e-15 * np.max(lab) and not np.any(jumps.norms[~jumps.present])
        assert jumps.stack.shape == (len(jumps.frequency_index), 2, 3, 3)
        assert jumps.present.shape == (len(jumps.frequency_index), 2)
        assert len(jumps.frequency_index) == len(bundle.kossakowski) == len(bundle.zeta_blocks)


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


# ---------------------------------------------------------------------------
# references: the per-pair and per-term loops the contractions replace
# ---------------------------------------------------------------------------

def _loop_cross_check(bundle, bath, omega, tol_delta=1e-8):
    """The selection-rule deviation as a compensated (Kahan) loop over ordered
    resonant pairs, one Kronecker sandwich per pair."""
    jumps = bundle.jumps
    d = jumps.decomp.dim
    eye = np.eye(d)
    entries = sorted(
        ((jumps.shifted_frequency(n, w_idx, omega), mu, s) for (mu, n, w_idx), s in jumps.ops.items()),
        key=lambda e: e[0],
    )
    shifts = np.array([e[0] for e in entries])
    h = {w: bath.h(w) for w in set(shifts.tolist())}
    zeta = {w: bath.zeta(w) for w in set(shifts.tolist())}
    total = np.zeros((d * d, d * d), dtype=complex)
    comp = np.zeros_like(total)
    for sa, mu_a, s_a in entries:
        lo = int(np.searchsorted(shifts, sa - tol_delta, side="left"))
        hi = int(np.searchsorted(shifts, sa + tol_delta, side="right"))
        for sb, mu_b, s_b in entries[lo:hi]:
            c1 = 0.5 * h[sa][mu_a, mu_b] + 1j * zeta[sa][mu_a, mu_b]
            c2 = 0.5 * h[sb][mu_a, mu_b] - 1j * zeta[sb][mu_a, mu_b]
            sab = s_a.conj().T @ s_b
            sandwich = np.kron(s_a.conj(), s_b)
            y = c1 * (sandwich - np.kron(eye, sab)) + c2 * (sandwich - np.kron(sab.T, eye)) - comp
            t = total + y
            comp = (t - total) - y
            total = t
    k_diag = -1j * ad_superop(bundle.delta_h) + bundle.dissipator.matrix
    return float(np.linalg.norm(total - k_diag, 2))


def _loop_jump_operators(decomp, s_hat_series, drop_tol=1e-14):
    """Projector sums applied one Fourier coefficient at a time."""
    ops = {}
    for n in s_hat_series.coeffs:
        s_hat = s_hat_series.coeffs[n]
        for w_idx in range(len(decomp.bohr_frequencies)):
            s = np.zeros_like(s_hat)
            for k, l in np.argwhere(decomp.pair_frequency == w_idx):
                s += decomp.projections[k] @ s_hat @ decomp.projections[l]
            if np.linalg.norm(s) >= drop_tol:
                ops[(n, w_idx)] = s
    return ops


def _exact_sum(terms):
    """Correctly rounded sum of a list of complex arrays (math.fsum per entry)."""
    flat = np.array(terms).reshape(len(terms), -1)
    total = [complex(math.fsum(col.real), math.fsum(col.imag)) for col in flat.T]
    return np.array(total).reshape(terms[0].shape)


def _term_generator(model, bundle):
    """delta_h and X summed term by term, exactly rounded, from scalar bath
    calls per block."""
    jumps, d = bundle.jumps, bundle.dim
    eye, zero = np.eye(d), np.zeros((d, d), dtype=complex)
    shift_terms, diss_terms = [], []
    for (w_idx, n) in block_keys(jumps):
        w = jumps.shifted_frequency(n, w_idx, model.frequencies)
        h, zeta = model.bath.h(w), model.bath.zeta(w)
        for mu in range(jumps.present.shape[1]):
            for nu in range(jumps.present.shape[1]):
                s_mu, s_nu = jumps.ops.get((mu, n, w_idx), zero), jumps.ops.get((nu, n, w_idx), zero)
                prod = s_mu.conj().T @ s_nu
                shift_terms.append(zeta[mu, nu] * prod)
                diss_terms.append(h[mu, nu] * (np.kron(s_mu.conj(), s_nu)
                                               - 0.5 * (np.kron(eye, prod) + np.kron(prod.T, eye))))
    delta_h, diss = _exact_sum(shift_terms), _exact_sum(diss_terms)
    return delta_h, assemble_x(model.h_bar, delta_h, Superoperator(diss)).matrix


def scaled_r3_models(seed, dims=(2, 3)):
    """The benchmark's seeded r = 3 models, one per dimension of ``dims``:
    random Hermitian h_bar (norm 1), two couplings (norm 0.5), an ohmic bath,
    and p = exp(-i sum_j 0.008 sin(theta_j) G_j) at trunc 3 with every
    coefficient kept. Each dimension draws from its own rng, seeded [seed, d]."""
    models = []
    for d in dims:
        rng = np.random.default_rng([seed, d])

        def herm(norm):
            h = random_hermitian(rng, d)
            return h * (norm / np.linalg.norm(h, 2))

        h_bar = herm(1.0)
        couplings = [herm(0.5), herm(0.5)]
        terms = [{"profile": "sin", "index": tuple(int(i == j) for i in range(3)),
                  "amplitude": 0.008, "matrix": herm(1.0)} for j in range(3)]
        models.append(ReducedModel(
            frequencies=np.array([1.0, math.sqrt(2.0), math.sqrt(3.0)]),
            p_series=p_series_from_profile_terms(terms, r=3, trunc=3, drop_eps=0.0),
            h_bar=h_bar,
            couplings=couplings,
            bath=BathSpectrum.ohmic_kms(kappa=0.1, cutoff=5.0, beta=1.0, n_couplings=2),
        ))
    return models


class TestScaledRecipeMatchesBenchmark:
    """perfbench/workloads.py writes the recipe of scaled_r3_models again; the two
    copies must give the same models, bit for bit (17 digits a float)."""

    def test_seeds_and_dimensions(self, monkeypatch):
        perfbench = Path(__file__).resolve().parent.parent / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))  # workloads imports its siblings
        spec = importlib.util.spec_from_file_location("perfbench_workloads", perfbench / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for seed in (1, 2, 3):
            family = workloads.scaled_family(seed)
            ours = scaled_r3_models(seed)
            assert sorted(family) == [f"r3_d{m.dim}" for m in ours] == ["r3_d2", "r3_d3"]
            for model in ours:
                assert (dumps_canonical(model_to_dict(family[f"r3_d{model.dim}"]))
                        == dumps_canonical(model_to_dict(model))), (seed, model.dim)


REFERENCE_MODELS = {
    **{name: lambda name=name: PRESETS[name]() for name in PRESETS},
    **{f"scaled_r3_seed{seed}_d{d}": lambda seed=seed, i=i: scaled_r3_models(seed)[i]
       for seed in (1, 2, 3) for i, d in enumerate((2, 3))},
    "driven_qutrit": driven_qutrit,
    "degenerate_qutrit": degenerate_qutrit,
}


class TestPairSumMatchesLoops:
    """The pair sum, the stacked jump operators and the batched bath against
    the loops they replace."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
    def test_reference_model(self, name):
        model = REFERENCE_MODELS[name]()
        bundle = build_generator(model, validate=False)
        omega = model.frequencies

        got = cross_check_selection_rule(bundle, model.bath, omega)
        expect = _loop_cross_check(bundle, model.bath, omega)
        if name == "qubit_congruence_violating":
            assert expect > 1e-3
            assert got == pytest.approx(expect, rel=1e-12, abs=0)
        else:
            assert abs(got - expect) <= 1e-14
        if name in ("qubit_driven", "qubit_congruence_violating", "driven_qutrit"):
            # exact coincidence only: the window must still hold each operator's equals
            got0 = cross_check_selection_rule(bundle, model.bath, omega, tol_delta=0.0)
            assert got0 == pytest.approx(_loop_cross_check(bundle, model.bath, omega, 0.0),
                                         rel=1e-12, abs=1e-14)

        expect_ops = {}
        for mu, series in enumerate(bundle.s_hat_series):
            for (n, w_idx), s in _loop_jump_operators(bundle.jumps.decomp, series).items():
                expect_ops[(mu, n, w_idx)] = s
        assert set(bundle.jumps.ops) == set(expect_ops)
        for key, s in expect_ops.items():
            assert np.max(np.abs(bundle.jumps.ops[key] - s)) <= 1e-15

        delta_h, x = _term_generator(model, bundle)
        assert np.max(np.abs(bundle.delta_h - delta_h), initial=0.0) <= 1e-15
        assert np.max(np.abs(bundle.x.matrix - x)) <= 1e-15


def _tuple_shifts(jumps, keys, omega):
    """w + n . omega from the (w_idx, n) tuples of ``keys``, as the jump operator set
    took them before it held its block keys as arrays."""
    n = np.array([n for _, n in keys], dtype=float).reshape(len(keys), 1, np.size(omega))
    return jumps.decomp.bohr_frequencies[[w for w, _ in keys]] + (n @ np.reshape(omega, (-1, 1))).reshape(-1)


class TestShiftedFrequenciesFromArrays:
    """The shifted frequencies taken from the block key arrays are bit for bit those
    taken from the key tuples, all blocks at once or one at a time."""

    @pytest.mark.parametrize("drop_tol", [0.0, 1e-14])
    @pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
    def test_reference_model(self, name, drop_tol):
        model = REFERENCE_MODELS[name]()
        jumps, omega = build_generator(model, validate=False, drop_tol=drop_tol).jumps, model.frequencies
        assert jumps.fourier_index.shape == (len(jumps.frequency_index), model.p_series.r)
        got = jumps.shifted_frequencies(omega)
        assert got.dtype == float and got.tobytes() == _tuple_shifts(jumps, block_keys(jumps), omega).tobytes()
        per_block = np.concatenate([_tuple_shifts(jumps, [key], omega) for key in block_keys(jumps)])
        assert got.tobytes() == per_block.tobytes()
        assert [jumps.shifted_frequency(n, w_idx, omega) for w_idx, n in block_keys(jumps)] == got.tolist()


class TestBlockStackMatchesLoop:
    """The block stack against the per-coefficient loop, coupling by coupling,
    for two couplings whose series have different supports."""

    @staticmethod
    def series_pair():
        rng = np.random.default_rng(12)

        def mat():
            return rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))

        a = FourierOperatorSeries(1, 3, 4, {(0,): mat(), (2,): mat(), (-3,): mat()})
        # (0,) is diagonal, so its nonzero frequencies are exact zeros; (1,) is all zero
        b = FourierOperatorSeries(1, 3, 4, {(0,): np.diag([1.0, 2.0, 3.0]), (1,): np.zeros((3, 3)),
                                            (-3,): mat()})
        return a, b

    @pytest.mark.parametrize("drop_tol", [0.0, 1e-14])
    def test_two_couplings_with_different_supports(self, drop_tol):
        decomp = decompose(np.diag([0.0, 1.0, 2.5]))
        series = self.series_pair()
        jumps = build_jump_operator_set(decomp, list(series), drop_tol=drop_tol)
        keys = set()
        for mu, s_hat in enumerate(series):
            expect = _loop_jump_operators(decomp, s_hat, drop_tol)
            got = {(n, w_idx): jumps.stack[b, mu]
                   for b, (w_idx, n) in enumerate(block_keys(jumps)) if jumps.present[b, mu]}
            assert set(got) == set(expect)
            assert {n for n, _ in got} <= set(s_hat.coeffs)  # nothing where the coupling has no index
            for key, s in expect.items():
                assert np.max(np.abs(got[key] - s)) <= 1e-15
            keys |= {(w_idx, n) for n, w_idx in got}
        assert block_keys(jumps) == sorted(keys)
        assert not np.any(jumps.stack[~jumps.present])  # zeros where no operator is
        zero = decomp.frequency_index(0.0)
        exact_zeros = [(n, w_idx) for (mu, n, w_idx), s in jumps.ops.items() if mu == 1 and not np.any(s)]
        if drop_tol == 0.0:
            # kept although exactly zero: only the mask tells them from the padding
            assert ((1,), zero) in exact_zeros and ((0,), zero) not in exact_zeros
        else:
            assert exact_zeros == []


def _counted(bath, calls):
    """``bath`` behind callbacks that record each frequency they are called at."""
    def h(w):
        calls["h"].append(w)
        return bath.h(w)

    def zeta(w):
        calls["zeta"].append(w)
        return bath.zeta(w)

    return BathSpectrum.from_callables(h, zeta, n_couplings=bath.n_couplings)


class TestBathBatches:
    """The bath is called once per distinct shifted frequency, and a bad value
    at one of them is named."""

    @pytest.mark.parametrize("name", ["driven_qutrit", "qubit_congruence_violating"])
    def test_one_call_per_distinct_frequency(self, name):
        calls = {"h": [], "zeta": []}
        base = REFERENCE_MODELS[name]()
        model = ReducedModel(frequencies=base.frequencies, p_series=base.p_series, h_bar=base.h_bar,
                             couplings=base.couplings, bath=_counted(base.bath, calls))
        bundle = build_generator(model, validate=False)
        distinct = set(bundle.shifted_frequencies.tolist())
        if name == "qubit_congruence_violating":
            assert len(distinct) < len(bundle.shifted_frequencies)  # blocks share frequencies
        for check in (None, cross_check_selection_rule):
            if check is not None:
                calls["h"].clear()
                calls["zeta"].clear()
                check(bundle, model.bath, model.frequencies)
            for key in ("h", "zeta"):
                assert sorted(calls[key]) == sorted(distinct)

    @pytest.mark.parametrize("which, value, error", [
        ("h", np.diag([1.0, -0.5]), NotPSD),
        ("h", np.array([[1.0, 1.0], [0.0, 1.0]]), NotHermitian),
        ("h", np.full((2, 2), np.inf), Overflow),
        ("zeta", np.array([[0.0, 1.0], [0.0, 0.0]]), NotHermitianZeta),
        ("zeta", np.full((2, 2), np.nan), Overflow),
    ])
    def test_bad_value_at_one_frequency_is_named(self, which, value, error):
        bundle = build_generator(driven_qutrit())
        shifted = bundle.shifted_frequencies.tolist()
        target = sorted(shifted)[len(shifted) // 2]
        bad = lambda v, w: value if w == target else v  # noqa: E731
        model = driven_qutrit(**{f"{which}_fn": bad})
        with pytest.raises(error) as exc:
            build_generator(model)
        assert f"bath {which}({target})" in str(exc.value)
        if error is NotPSD:
            w_idx, n = min(key for key, w in zip(block_keys(bundle.jumps), shifted) if w == target)
            assert f"block at (n={n}, frequency_index={w_idx}, shifted={target:.6g})" in str(exc.value)
            assert exc.value.__cause__.frequency == target
        with pytest.raises(error) as exc:
            cross_check_selection_rule(bundle, model.bath, model.frequencies)
        assert f"bath {which}({target})" in str(exc.value)


class TestCrossCheckMemoryAtLargerDimension:
    def test_pairs_are_gathered_in_chunks(self):
        # d = 10, r = 2, trunc 6: the stacked jump operators take about 12.6 MB;
        # gathering every resonant pair at once would take about 65 MB
        d = 10
        rng = np.random.default_rng(10)
        terms = [{"profile": "sin", "index": index, "amplitude": 0.1,
                  "matrix": random_hermitian(rng, d) / d} for index in ((1, 0), (0, 1))]
        model = ReducedModel(
            frequencies=np.array([1.0, math.sqrt(2.0)]),
            p_series=p_series_from_profile_terms(terms, r=2, trunc=6),
            h_bar=random_hermitian(rng, d) / d,
            couplings=[random_hermitian(rng, d) / (2 * d)],
            bath=BathSpectrum.ohmic_kms(kappa=0.1, cutoff=5.0, beta=1.0, n_couplings=1),
        )
        bundle = build_generator(model, validate=False)
        stacked = int(bundle.jumps.present.sum()) * d * d * 16
        tracemalloc.start()
        try:
            dev = cross_check_selection_rule(bundle, model.bath, model.frequencies)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * stacked
        assert dev < 1e-10


# ---------------------------------------------------------------------------
# references: the lab-basis stack sums the eigenbasis Gram sums replace
# ---------------------------------------------------------------------------

def _dagger_sum(s_conj, cs):
    """sum over the stacks of S^dag CS, a d x d matrix, from conj(S) and CS."""
    d = cs.shape[-1]
    return s_conj.reshape(-1, d).T @ cs.reshape(-1, d)


def _sandwich_sum(s_conj, cs):
    """sum over the stacks of conj(S) (x) CS, a d^2 x d^2 matrix, from conj(S)
    and CS: entry ((a, c), (x, e)) of the product goes to ((a, x), (c, e))."""
    d = cs.shape[-1]
    m = s_conj.reshape(-1, d * d).T @ cs.reshape(-1, d * d)
    return m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _stack_generator(bundle, s):
    """delta_h and the dissipator summed over a lab-basis stack ``s`` (blocks, couplings, d, d)
    with the bundle's bath blocks, as the generator took them before it read eigenbasis entries."""
    eye = np.eye(s.shape[-1], dtype=s.dtype)
    delta_h = _dagger_sum(s.conj(), np.einsum("bmn,bnij->bmij", bundle.zeta_blocks.astype(s.dtype), s))
    hs = np.einsum("bmn,bnij->bmij", bundle.kossakowski.astype(s.dtype), s)
    a = _dagger_sum(s.conj(), hs)
    return delta_h, _sandwich_sum(s.conj(), hs) - 0.5 * (np.kron(eye, a) + np.kron(a.T, eye))


def _relative(got, expect):
    return float(np.max(np.abs(got - expect), initial=0.0) / max(np.max(np.abs(expect)), 1e-300))


class TestEntrySumsMatchStackSums:
    """The Gram sums over eigenbasis entries against the lab-basis stack sums they replace, and
    both against the same sums in extended precision over operators V[:, I] diag(x) V[:, J]^dag
    formed from the entries, which on x86 round far below a double's ulp."""

    MODELS = {**REFERENCE_MODELS, **{f"scaled_r3_seed{seed}_d{d}": lambda seed=seed, i=i: scaled_r3_models(seed)[i]
                                     for seed in (4, 5) for i, d in enumerate((2, 3))}}

    @pytest.mark.parametrize("drop_tol", [0.0, 1e-14])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_reference_model(self, name, drop_tol):
        model = self.MODELS[name]()
        bundle = build_generator(model, validate=False, drop_tol=drop_tol)
        jumps = bundle.jumps
        delta_h, diss = _stack_generator(bundle, np.asarray(jumps.stack))
        x = assemble_x(model.h_bar, delta_h, Superoperator(diss)).matrix
        assert _relative(bundle.x.matrix, x) <= 1e-15
        assert _relative(bundle.delta_h, delta_h) <= 1e-15
        v = jumps.decomp.eigenvectors.astype(np.clongdouble)
        exact = np.concatenate([(v[:, i] * x.astype(np.clongdouble)[..., None, :]) @ v[:, j].conj().T
                                for (i, j), x in zip(jumps.decomp.frequency_entries, jumps.values)])
        exact[~jumps.present] = 0
        exact_delta_h, exact_diss = _stack_generator(bundle, exact)
        assert _relative(bundle.dissipator.matrix, exact_diss) <= 1e-15
        assert _relative(bundle.delta_h, exact_delta_h) <= 1e-15
        # the stack sums' own rounding reaches 1.0e-15 of the largest entry on these models
        assert _relative(bundle.dissipator.matrix, diss) <= 2e-15


def larger_dimension_model():
    """d = 10, r = 2, trunc 6, one coupling: the model of TestCrossCheckMemoryAtLargerDimension."""
    d = 10
    rng = np.random.default_rng(10)
    terms = [{"profile": "sin", "index": index, "amplitude": 0.1,
              "matrix": random_hermitian(rng, d) / d} for index in ((1, 0), (0, 1))]
    return ReducedModel(
        frequencies=np.array([1.0, math.sqrt(2.0)]),
        p_series=p_series_from_profile_terms(terms, r=2, trunc=6),
        h_bar=random_hermitian(rng, d) / d,
        couplings=[random_hermitian(rng, d) / (2 * d)],
        bath=BathSpectrum.ohmic_kms(kappa=0.1, cutoff=5.0, beta=1.0, n_couplings=1),
    )


class TestBuildMemoryAtLargerDimension:
    def test_build_holds_less_than_one_lab_stack(self):
        # the lab-basis stack of this model takes about 12.6 MB; the build never forms it
        model = larger_dimension_model()
        tracemalloc.start()
        try:
            bundle = build_generator(model, validate=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        d = bundle.dim
        assert peak < int(bundle.jumps.present.sum()) * d * d * 16
        assert "stack" not in vars(bundle.jumps)


class TestCrossCheckIndependence:
    @pytest.mark.parametrize("name", ["driven_qutrit", "degenerate_qutrit", "qubit_congruence_violating"])
    def test_ignores_bath_blocks_of_the_bundle(self, name):
        model = REFERENCE_MODELS[name]()
        bundle = build_generator(model, validate=False)
        blank = dataclasses.replace(bundle, kossakowski=np.zeros_like(bundle.kossakowski),
                                    zeta_blocks=np.zeros_like(bundle.zeta_blocks))
        got = cross_check_selection_rule(blank, model.bath, model.frequencies)
        assert got == cross_check_selection_rule(bundle, model.bath, model.frequencies)


class TestNearResonantPairs:
    def test_each_weight_takes_its_own_side(self):
        # a gap 3e-9 above omega_1 makes pairs of distinct blocks resonate within tol_delta at shifts
        # that differ, where an ohmic h differs too: c1 takes the bath at w_a and c2 at w_b
        base = PRESETS["qubit_congruence_violating"]()
        model = ReducedModel(frequencies=base.frequencies, p_series=base.p_series, h_bar=0.5 * (1 + 3e-9) * SIGMA_Z,
                             couplings=base.couplings,
                             bath=BathSpectrum.ohmic_kms(kappa=0.1, cutoff=5.0, beta=1.0, n_couplings=1))
        bundle = build_generator(model, validate=False)
        shifts = np.sort(bundle.shifted_frequencies)
        assert np.any((np.diff(shifts) > 0) & (np.diff(shifts) <= 1e-8))
        got = cross_check_selection_rule(bundle, model.bath, model.frequencies)
        assert got > 1e-3
        assert got == pytest.approx(_loop_cross_check(bundle, model.bath, model.frequencies), rel=1e-12, abs=0)
