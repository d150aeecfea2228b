"""Spectral decomposition, Bohr frequency bookkeeping, jump operators."""

import itertools
import math

import numpy as np
import pytest

from conftest import block_keys, random_density, random_hermitian

from qmme.bohr import (
    JumpOperatorSet,
    build_jump_operator_set,
    check_congruence_freedom,
    decompose,
    interaction_picture_coupling_series,
)
from qmme.errors import DimensionMismatch, NotHermitian, Overflow, UnknownFrequency
from qmme.fourier import FourierOperatorSeries, check_rational_independence, normalize_witness
from qmme.linalg import _norms, eig_hermitian
from qmme.model import p_series_from_generator
from qmme.presets import PRESETS, SIGMA_X, SIGMA_Z

E01 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E10 = E01.conj().T


def rotated_degenerate():
    """U diag(1, 1, 3) U^dag for a seeded random unitary U: a rank-2 level
    whose eigenvectors are arbitrary inside it."""
    rng = np.random.default_rng(47)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    h = u @ np.diag([1.0, 1.0, 3.0]) @ u.conj().T
    return 0.5 * (h + h.conj().T)


SPECTRA = {
    "rotated_degenerate": rotated_degenerate,
    "ladder5": lambda: np.diag(np.arange(5.0)),
    "ladder5_perturbed": lambda: np.diag(np.arange(5.0) + 1e-13 * np.array([0.3, -0.7, 0.2, 0.9, -0.4])),
}


def _loop_cluster_sorted(values, atol):
    order = np.argsort(values, kind="stable")
    clusters = [[int(order[0])]]
    for idx in order[1:]:
        idx = int(idx)
        if values[idx] - values[clusters[-1][-1]] <= atol:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return clusters


def _loop_decompose(h_bar, tol_cluster=1e-9):
    """Quasienergies, projectors, Bohr frequencies, level pairs and frequency
    tolerance from per-cluster loops: single linkage one value at a time, a
    projector per level, a pair list per frequency."""
    w, v = eig_hermitian(np.asarray(h_bar, dtype=complex))
    scale = float(np.max(np.abs(w))) if np.max(np.abs(w)) > 0 else 1.0
    atol = tol_cluster * scale
    clusters = _loop_cluster_sorted(w, atol)
    quasienergies = np.array([float(np.mean(w[c])) for c in clusters])
    projections = [v[:, c] @ v[:, c].conj().T for c in clusters]
    n = len(clusters)
    pair_list = [(k, l) for k in range(n) for l in range(n)]
    diffs = np.array([quasienergies[k] - quasienergies[l] for k, l in pair_list])
    diff_clusters = _loop_cluster_sorted(diffs, atol)
    reps = np.array([float(np.mean(diffs[c])) for c in diff_clusters])
    for i, r in enumerate(reps):
        if abs(r) <= atol:
            reps[i] = 0.0
    order = np.argsort(reps)
    reps = reps[order]
    diff_clusters = [diff_clusters[int(i)] for i in order]
    m = len(reps)
    for i in range(m // 2):
        mean = 0.5 * (reps[m - 1 - i] - reps[i])
        reps[m - 1 - i], reps[i] = mean, -mean
    pairs = [sorted(pair_list[f] for f in members) for members in diff_clusters]
    return quasienergies, projections, reps, pairs, max(atol, 1e-12)


def _level_pairs(decomp):
    """The sorted level pairs (k, l) of each Bohr frequency, read from ``pair_frequency``."""
    return [[tuple(kl) for kl in np.argwhere(decomp.pair_frequency == i).tolist()]
            for i in range(len(decomp.bohr_frequencies))]


class TestDecompose:
    def test_degenerate_diagonal(self):
        decomp = decompose(np.diag([1.0, 1.0, 3.0]))
        assert np.allclose(decomp.quasienergies, [1.0, 3.0], atol=1e-14)
        assert np.allclose(decomp.projections[0], np.diag([1.0, 1.0, 0.0]), atol=1e-14)
        assert np.allclose(decomp.projections[1], np.diag([0.0, 0.0, 1.0]), atol=1e-14)
        assert np.allclose(decomp.bohr_frequencies, [-2.0, 0.0, 2.0], atol=1e-14)
        assert _level_pairs(decomp)[decomp.frequency_index(0.0)] == [(0, 0), (1, 1)]
        assert _level_pairs(decomp)[decomp.frequency_index(2.0)] == [(1, 0)]
        assert _level_pairs(decomp)[decomp.frequency_index(-2.0)] == [(0, 1)]

    @pytest.mark.parametrize("name", sorted(SPECTRA))
    def test_matches_clustering_loop(self, name):
        decomp = decompose(SPECTRA[name]())
        quasienergies, projections, reps, pairs, atol = _loop_decompose(SPECTRA[name]())
        assert decomp.quasienergies.tobytes() == quasienergies.tobytes()
        assert decomp.bohr_frequencies.tobytes() == reps.tobytes()
        assert [p.tobytes() for p in decomp.projections] == [p.tobytes() for p in projections]
        assert _level_pairs(decomp) == pairs
        assert decomp.freq_atol == atol

    def test_near_degeneracy_clusters(self):
        decomp = decompose(np.diag([0.0, 1e-12, 1.0]))
        assert len(decomp.quasienergies) == 2
        assert np.isclose(decomp.quasienergies[1], 1.0)
        # the merged level carries a rank-2 projection
        assert np.isclose(np.trace(decomp.projections[0]).real, 2.0)

    def test_projections_resolve_identity(self, rng):
        h = random_hermitian(rng, 5)
        decomp = decompose(h)
        total = sum(decomp.projections)
        assert np.allclose(total, np.eye(5), atol=1e-12)
        for p in decomp.projections:
            assert np.allclose(p @ p, p, atol=1e-12)
            assert np.allclose(p, p.conj().T, atol=1e-13)

    def test_projections_reconstruct_h(self, rng):
        h = random_hermitian(rng, 4)
        decomp = decompose(h)
        rebuilt = sum(e * p for e, p in zip(decomp.quasienergies, decomp.projections))
        assert np.allclose(rebuilt, h, atol=1e-12)

    def test_negation_symmetry_exact(self, rng):
        for d in (2, 3, 5):
            decomp = decompose(random_hermitian(rng, d))
            freqs = decomp.bohr_frequencies
            assert np.array_equal(freqs, -freqs[::-1])
            assert 0.0 in freqs

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_frequency_index_unknown(self):
        decomp = decompose(np.diag([0.0, 1.0]))
        assert decomp.frequency_index(1.0) == decomp.frequency_index(1.0 + 1e-13)
        with pytest.raises(UnknownFrequency):
            decomp.frequency_index(0.5)


class TestFrequencyComponents:
    def test_components_sum_to_state(self, rng):
        decomp = decompose(random_hermitian(rng, 3))
        rho = random_density(rng, 3)
        total = sum(decomp.q_omega(w, rho) for w in decomp.bohr_frequencies)
        assert np.allclose(total, rho, atol=1e-13)

    def test_phase_weighted_sum_is_conjugation(self, rng):
        h = random_hermitian(rng, 3)
        decomp = decompose(h)
        rho = random_density(rng, 3)
        for t in (0.0, 0.8, 3.1):
            lhs = sum(
                np.exp(-1j * w * t) * decomp.q_omega(w, rho)
                for w in decomp.bohr_frequencies
            )
            e_vals, e_vecs = np.linalg.eigh(h)
            u = (e_vecs * np.exp(-1j * e_vals * t)) @ e_vecs.conj().T
            assert np.allclose(lhs, u @ rho @ u.conj().T, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(SPECTRA))
    def test_matches_projector_pairs(self, name):
        decomp = decompose(SPECTRA[name]())
        _, projections, reps, pairs, _ = _loop_decompose(SPECTRA[name]())
        rho = random_density(np.random.default_rng(3), decomp.dim)
        for w, klist in zip(reps, pairs):
            expect = sum(projections[k] @ rho @ projections[l] for k, l in klist)
            assert np.max(np.abs(decomp.q_omega(w, rho) - expect)) <= 1e-15

    def test_zero_component_is_block_diagonal_part(self):
        decomp = decompose(np.diag([0.0, 1.0]))
        rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
        assert np.allclose(decomp.q_omega(0.0, rho), np.diag([0.7, 0.3]), atol=1e-15)

    def test_wrong_shape(self):
        decomp = decompose(np.diag([0.0, 1.0]))
        with pytest.raises(DimensionMismatch):
            decomp.q_omega(0.0, np.eye(3))


class TestCongruenceFreedom:
    OMEGA = np.array([1.0, math.sqrt(2.0)])

    def test_violation_detected(self):
        # splitting 1 coincides with the first base frequency
        witness = check_congruence_freedom([-1.0, 0.0, 1.0], self.OMEGA)
        assert witness is not None
        wa, wb, n = witness
        assert abs((wa - wb) - np.dot(n, self.OMEGA)) < 1e-12
        assert any(v != 0 for v in n)

    def test_clean_set_passes(self):
        assert check_congruence_freedom([-0.6, 0.0, 0.6], self.OMEGA) is None

    def test_zero_lattice_vector_not_a_witness(self):
        # equal frequencies at n = 0 are excluded by construction
        assert check_congruence_freedom([0.0, 0.3], np.array([math.pi])) is None


def _loop_shells(r, box):
    for radius in range(1, box + 1):
        for k in itertools.product(range(-radius, radius + 1), repeat=r):
            if max(abs(v) for v in k) == radius:
                yield k


def _loop_independence(omega, box, tol):
    threshold = tol * float(np.linalg.norm(omega))
    for k in _loop_shells(omega.size, box):
        if abs(float(np.dot(k, omega))) < threshold:
            return normalize_witness(k)
    return None


def _loop_congruence(freqs, omega, box, tol):
    for i, wi in enumerate(freqs):
        for j, wj in enumerate(freqs):
            if i != j:
                for n in _loop_shells(omega.size, box):
                    if abs((wi - wj) - float(np.dot(n, omega))) < tol:
                        return (float(wi), float(wj), n)
    return None


class TestScansMatchLoops:
    """Both lattice scans return the witness a point-by-point loop finds first."""

    def test_seeded_frequency_sets(self):
        rng = np.random.default_rng(404)
        found = 0
        for trial in range(40):
            r, box = int(rng.integers(1, 4)), int(rng.integers(2, 5))
            omega = rng.uniform(0.3, 2.0, size=r)
            if trial % 3 == 0 and r > 1:
                # planted integer relation m omega_r = k . omega_{<r}
                k, m = rng.integers(-box, box + 1, size=r - 1), int(rng.integers(1, box + 1))
                if k @ omega[:-1] > 0:
                    omega[-1] = float(k @ omega[:-1]) / m
            half = list(rng.uniform(0.1, 3.0, size=2))
            if trial % 2 == 0:
                # planted congruence w' = w + n . omega
                half.append(half[0] + abs(float(rng.integers(-box, box + 1, size=r) @ omega)))
            freqs = np.array(sorted([-w for w in half] + [0.0] + half))
            tol = 1e-9 if trial % 4 else 0.05  # the loose tolerance also hits near misses
            got = check_congruence_freedom(freqs, omega, box=box, tol=tol)
            assert got == _loop_congruence(freqs, omega, box, tol)
            got_k = check_rational_independence(omega, box=box, tol=tol)
            assert got_k == _loop_independence(omega, box, tol)
            found += (got is not None) + (got_k is not None)
        assert found >= 20, found


class TestCongruenceWitnessWithTiedLattice:
    """Under a rationally dependent omega many lattice points share one value n . omega,
    so the scan's sort meets ties; the witness must still be the first point in shell
    order, as a point-by-point loop finds it, whatever order the sort gives the ties."""

    OMEGA = np.array([1.0, 2.0])

    @pytest.mark.parametrize("freqs", [
        [-1.0, 0.0, 1.0],
        [-2.0, 0.0, 2.0],
        [-3.0, -1.5, 0.0, 1.5, 3.0],
        [-4.0, -1.0, 0.0, 1.0, 4.0],
        [-2.5, -0.5, 0.0, 0.5, 2.5],
        [-7.0, -3.0, 0.0, 3.0, 7.0],
    ])
    def test_witness_matches_loop(self, freqs):
        box = 4
        dots = [float(np.dot(n, self.OMEGA)) for n in _loop_shells(2, box)]
        assert len(set(dots)) <= len(dots) // 3  # 25 values for 80 points
        freqs = np.array(freqs)
        got = check_congruence_freedom(freqs, self.OMEGA, box=box)
        assert got is not None
        assert got == _loop_congruence(freqs, self.OMEGA, box, 1e-9)


class TestInteractionSeries:
    def test_static_frame_passthrough(self):
        p = FourierOperatorSeries.constant(np.eye(2), r=2)
        series = interaction_picture_coupling_series(p, SIGMA_X)
        assert list(series.coeffs) == [(0, 0)]
        assert np.allclose(series.coeffs[(0, 0)], SIGMA_X, atol=0)

    def test_matches_pointwise_conjugation(self):
        p = p_series_from_generator(
            [{"profile": "sin", "index": [1], "amplitude": 0.3, "matrix": SIGMA_Z}], r=1, trunc=10
        )
        omega = np.array([math.sqrt(2.0)])
        series = interaction_picture_coupling_series(p, SIGMA_X)
        for t in np.linspace(0.0, 6.0, 13):
            u = p.evaluate(omega, t)
            expect = u.conj().T @ SIGMA_X @ u
            assert np.allclose(series.evaluate(omega, t), expect, atol=1e-11)

    def test_wrong_shape(self):
        p = FourierOperatorSeries.constant(np.eye(2), r=1)
        with pytest.raises(DimensionMismatch):
            interaction_picture_coupling_series(p, np.eye(3))

    @pytest.mark.parametrize("name", ["qubit_driven", "qubit_driven_periodic", "qutrit_thermal"])
    def test_matches_two_products(self, name, rng):
        # p^dag S as a row product against p^dag times the constant series S
        p = PRESETS[name]().p_series
        for s in (random_hermitian(rng, p.d), random_hermitian(rng, p.d)):
            series = interaction_picture_coupling_series(p, s)
            ref = p.adjoint().product(FourierOperatorSeries.constant(s, p.r)).product(p)
            assert list(series.coeffs) == list(ref.coeffs)
            assert np.max(_norms(series._stack - ref._stack)) <= 1e-15 * ref.l1_norm()
            assert abs(series.tail_norm - ref.tail_norm) <= 1e-15 * ref.l1_norm()

    def test_one_product_per_coupling(self, monkeypatch, rng):
        p, calls, product = PRESETS["qutrit_thermal"]().p_series, [], FourierOperatorSeries.product
        monkeypatch.setattr(FourierOperatorSeries, "product", lambda a, b, **kw: calls.append(b) or product(a, b, **kw))
        interaction_picture_coupling_series(p, random_hermitian(rng, 3))
        assert len(calls) == 1


def one_coupling_ops(decomp, series, drop_tol=1e-14):
    """A single coupling's jump operators keyed (n, frequency_index), read
    from the block stack."""
    jset = build_jump_operator_set(decomp, [series], drop_tol=drop_tol)
    return {(n, w_idx): jset.stack[b, 0]
            for b, (w_idx, n) in enumerate(block_keys(jset)) if jset.present[b, 0]}


class TestJumpOperators:
    def static_qubit(self):
        decomp = decompose(0.5 * SIGMA_Z)
        series = interaction_picture_coupling_series(
            FourierOperatorSeries.constant(np.eye(2), r=1), SIGMA_X
        )
        return decomp, series

    def test_frozen_qubit_split(self):
        # sigma_x against splitting 1: the positive-frequency part is |0><1|,
        # the negative one its adjoint, and nothing survives at frequency 0
        decomp, series = self.static_qubit()
        ops = one_coupling_ops(decomp, series)
        up = decomp.frequency_index(1.0)
        down = decomp.frequency_index(-1.0)
        zero = decomp.frequency_index(0.0)
        assert np.allclose(ops[((0,), up)], E01, atol=1e-14)
        assert np.allclose(ops[((0,), down)], E10, atol=1e-14)
        assert ((0,), zero) not in ops

    def test_raising_convention(self, rng):
        h = random_hermitian(rng, 4)
        decomp = decompose(h)
        coupling = random_hermitian(rng, 4)
        series = interaction_picture_coupling_series(
            FourierOperatorSeries.constant(np.eye(4), r=1), coupling
        )
        ops = one_coupling_ops(decomp, series)
        for (n, w_idx), s in ops.items():
            w = decomp.bohr_frequencies[w_idx]
            assert np.allclose(h @ s - s @ h, w * s, atol=1e-11)

    def test_completeness(self, rng):
        decomp = decompose(random_hermitian(rng, 4))
        coupling = random_hermitian(rng, 4)
        series = interaction_picture_coupling_series(
            FourierOperatorSeries.constant(np.eye(4), r=2), coupling
        )
        ops = one_coupling_ops(decomp, series)
        total = sum(s for (n, _), s in ops.items() if n == (0, 0))
        assert np.allclose(total, coupling, atol=1e-12)

    def test_drop_tol(self):
        decomp, series = self.static_qubit()
        jset = build_jump_operator_set(decomp, [series], drop_tol=1e6)
        assert block_keys(jset) == [] and jset.stack.shape == (0, 1, 2, 2) and jset.present.shape == (0, 1)
        assert jset.frequency_index.shape == (0,) and jset.fourier_index.shape == (0, series.r)
        shifted = jset.shifted_frequencies(np.array([1.0] * series.r))
        assert shifted.dtype == float and shifted.shape == (0,)
        assert one_coupling_ops(decomp, series, drop_tol=1e6) == {}

    def test_adjoint_pairing(self, rng):
        # for a Hermitian coupling in a static frame, ops at opposite
        # frequencies are mutual adjoints
        decomp = decompose(random_hermitian(rng, 3))
        coupling = random_hermitian(rng, 3)
        series = interaction_picture_coupling_series(
            FourierOperatorSeries.constant(np.eye(3), r=1), coupling
        )
        ops = one_coupling_ops(decomp, series)
        for (n, w_idx), s in ops.items():
            w = decomp.bohr_frequencies[w_idx]
            mate = decomp.frequency_index(-w)
            assert np.allclose(ops[(n, mate)], s.conj().T, atol=1e-12)


class TestJumpOperatorSet:
    def build(self):
        decomp = decompose(0.5 * SIGMA_Z)
        p = p_series_from_generator(
            [{"profile": "sin", "index": [1], "amplitude": 0.3, "matrix": SIGMA_Z}], r=1, trunc=8
        )
        s_hats = [
            interaction_picture_coupling_series(p, SIGMA_X),
            interaction_picture_coupling_series(p, SIGMA_Z),
        ]
        return decomp, build_jump_operator_set(decomp, s_hats)

    def test_indexing(self):
        decomp, jset = self.build()
        assert isinstance(jset, JumpOperatorSet)
        assert jset.present.shape[1] == 2
        # missing keys are absent
        assert jset.ops.get((0, (99,), 0)) is None
        for (mu, n, w_idx), s in jset.ops.items():
            assert np.allclose(jset.ops.get((mu, tuple(n), w_idx)), s, atol=0)

    def test_block_keys_sorted(self):
        _, jset = self.build()
        keys = block_keys(jset)
        assert keys == sorted(keys)
        assert jset.frequency_index.dtype.kind == jset.fourier_index.dtype.kind == "i"
        assert jset.stack.shape == (len(keys), 2, 2, 2) and jset.present.shape == (len(keys), 2)
        assert jset.present.any(axis=1).all()  # every block holds an operator
        assert list(jset.ops) == sorted(jset.ops, key=lambda k: (k[2], k[1], k[0]))

    def test_shifted_frequency(self):
        decomp, jset = self.build()
        omega = np.array([math.sqrt(2.0)])
        for (mu, n, w_idx) in jset.ops:
            expect = decomp.bohr_frequencies[w_idx] + np.dot(n, omega)
            assert jset.shifted_frequency(n, w_idx, omega) == pytest.approx(expect, abs=1e-15)
        per_block = [jset.shifted_frequency(n, w_idx, omega) for w_idx, n in block_keys(jset)]
        assert jset.shifted_frequencies(omega).tolist() == per_block

    def test_shifted_frequencies_past_the_float_range(self):
        # |n| ||omega||_1 past the float range is refused by name, not returned as inf with a warning
        _, jset = self.build()
        radius = int(np.abs(jset.fourier_index).max())
        jset.shifted_frequencies(np.array([np.finfo(float).max / radius]))
        with pytest.raises(Overflow, match=rf"have rates past the float range at \|n_i\| <= {radius}"):
            jset.shifted_frequencies(np.array([np.finfo(float).max / (radius - 0.5)]))

    def test_per_coupling_completeness(self):
        decomp, jset = self.build()
        p = p_series_from_generator(
            [{"profile": "sin", "index": [1], "amplitude": 0.3, "matrix": SIGMA_Z}], r=1, trunc=8
        )
        series = interaction_picture_coupling_series(p, SIGMA_X)
        for n in series.coeffs:
            total = sum(
                s for (mu, nn, _), s in jset.ops.items() if mu == 0 and nn == n
            )
            assert np.allclose(total, series.coeffs[n], atol=1e-12)
