import warnings

import numpy as np
import pytest
import scipy.linalg

from qmme import linalg
from qmme.errors import DimensionMismatch, NotHermitian, Overflow
from qmme.linalg import (
    Superoperator,
    ad_superop,
    choi_min_eigenvalue,
    choi_of,
    conjugation_superop,
    devectorize,
    eig_hermitian,
    eigensystem,
    expm,
    hermiticity_defect,
    hermitize,
    trace_norm,
    unitarity_residuals,
    vectorize,
)
from conftest import random_density, random_hermitian

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class TestVectorize:
    def test_column_stacking_order(self):
        # frozen orientation: columns are stacked, so E_01 lands in slot 2
        assert np.array_equal(vectorize(np.eye(2)), [1, 0, 0, 1])
        e01 = np.zeros((2, 2))
        e01[0, 1] = 1.0
        assert np.array_equal(vectorize(e01), [0, 0, 1, 0])

    def test_devectorize_inverse(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose(devectorize(vectorize(a)), a)

    def test_devectorize_rejects_non_square_length(self):
        with pytest.raises(DimensionMismatch):
            devectorize(np.zeros(5))

    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stacks_match_per_matrix_calls(self, rng, lead, d):
        a = rng.normal(size=lead + (d, d)) + 1j * rng.normal(size=lead + (d, d))
        vecs = vectorize(a)
        assert vecs.shape == lead + (d * d,)
        back = devectorize(vecs)
        assert back.shape == a.shape and np.array_equal(back, a)
        for k in np.ndindex(lead):
            assert np.array_equal(vecs[k], vectorize(a[k]))
            assert np.array_equal(back[k], devectorize(vecs[k]))
        # fresh arrays: writing to the result leaves the input alone
        vecs[...] = 0.0
        back[...] = 0.0
        assert np.array_equal(devectorize(vectorize(a)), a)

    def test_sandwich_identity(self, rng):
        # vec(A rho B) = kron(B^T, A) vec(rho), the convention everything
        # else in the package leans on
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = vectorize(a @ rho @ b)
        rhs = np.kron(b.T, a) @ vectorize(rho)
        assert np.allclose(lhs, rhs, atol=1e-13)


class TestHermitian:
    def test_defect_is_relative(self):
        big = 1e6 * np.eye(2) + np.array([[0, 1e-4], [0, 0]])
        assert hermiticity_defect(big) < 1e-9

    def test_defect_of_stack_matches_each_matrix(self, rng):
        for shape in ((7, 2, 2), (2, 3, 3, 3), (1, 4, 4)):
            a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            a[0] = 1e3 * hermitize(a[0])  # a Hermitian matrix with a norm past 1
            defects = hermiticity_defect(a)
            assert defects.shape == shape[:-2]
            expect = [hermiticity_defect(m) for m in a.reshape((-1,) + shape[-2:])]
            assert np.array_equal(defects, np.reshape(expect, shape[:-2]))
            one = a.reshape((-1,) + shape[-2:])[-1]
            assert hermiticity_defect(one) == np.linalg.norm(one - one.conj().T) / max(1.0, np.linalg.norm(one))

    @pytest.mark.parametrize("scale", [1e200, 1e300, -1e300j])
    def test_defect_survives_overflowing_squares(self, scale):
        # the squares of 1e200 overflow; the norms are taken again from the scaled matrix
        a = np.array([[1.0, 2.0], [0.0, 1.0]]) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hermiticity_defect(a) == pytest.approx(hermiticity_defect(a / abs(scale)), rel=1e-14)
            with pytest.raises(NotHermitian):
                eig_hermitian(a)

    def test_norms_past_the_float_range_stay_inf(self):
        stack = np.array([np.full((2, 2), 1.5e308), np.diag([np.inf, 1.0]), np.eye(2)], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linalg._norms(stack).tolist() == [np.inf, np.inf, np.sqrt(2.0)]

    def test_defect_of_vector_rejected(self):
        with pytest.raises(DimensionMismatch):
            hermiticity_defect(np.ones(3))

    def test_hermitize_projects(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = hermitize(a)
        assert np.allclose(h, h.conj().T)

    def test_eig_hermitian_reconstructs(self, rng):
        h = random_hermitian(rng, 5)
        w, v = eig_hermitian(h)
        assert np.allclose((v * w) @ v.conj().T, h, atol=1e-12)
        assert np.all(np.diff(w) >= 0)

    def test_eig_hermitian_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestExpm:
    def test_rotation_by_pi(self):
        # exp([[0, pi], [-pi, 0]]) is a rotation by pi: exactly -I
        a = np.array([[0.0, np.pi], [-np.pi, 0.0]])
        assert np.allclose(expm(a), -np.eye(2), atol=1e-13)

    def test_matches_scipy(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.allclose(expm(a), scipy.linalg.expm(a), atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 20, 100])
    @pytest.mark.parametrize("norm, bound", [(1e-8, 1e-13), (1e-2, 1e-13), (1.0, 1e-13),
                                             (10.0, 1e-13), (100.0, 1e-12)])
    def test_random_matches_scipy(self, rng, d, norm, bound):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a *= norm / np.linalg.norm(a, 1)
        ref = scipy.linalg.expm(a)
        assert np.linalg.norm(expm(a) - ref) <= bound * np.linalg.norm(ref)

    def test_nilpotent_is_finite_series(self, rng):
        n = np.triu(rng.normal(size=(6, 6)), k=1)
        series, term = np.eye(6), np.eye(6)
        for k in range(1, 6):  # N^6 = 0
            term = term @ n / k
            series = series + term
        assert np.linalg.norm(expm(n) - series) <= 1e-14 * np.linalg.norm(series)

    @pytest.mark.parametrize("lam, t", [(-0.3, 0.7), (0.5 + 2.0j, 3.0), (-4.0, 10.0)])
    def test_jordan_block(self, lam, t):
        closed = np.exp(lam * t) * np.array([[1.0, t], [0.0, 1.0]])
        out = expm(t * np.array([[lam, 1.0], [0.0, lam]]))
        assert np.linalg.norm(out - closed) <= 1e-14 * np.linalg.norm(closed)

    def test_zero_is_exact_identity(self):
        for d in (1, 4):
            assert np.array_equal(expm(np.zeros((d, d))), np.eye(d))

    @pytest.mark.parametrize("a", [np.full((2, 2), 1e308), np.array([[1e308]]), np.array([[1e300, 0.0], [0.0, 1.0]])])
    def test_huge_entries_overflow(self, a):
        with pytest.raises(Overflow):
            expm(a)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            expm(np.zeros((2, 3)))


class TestEigensystem:
    def test_reconstructs_a_diagonalizable_matrix(self, rng):
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        w, v, vinv, cond = eigensystem(a)
        assert np.linalg.norm((v * w) @ vinv - a) < 1e-12 * np.linalg.norm(a)
        assert cond == pytest.approx(np.linalg.cond(v), rel=1e-12)

    def test_jordan_block_has_no_inverse(self):
        _, _, vinv, cond = eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert vinv is None
        assert not cond < linalg._COND_LIMIT

    def test_limit_is_read_at_call_time(self, rng, monkeypatch):
        a = np.diag([1.0, 2.0]) + 0.1 * rng.normal(size=(2, 2))
        assert eigensystem(a)[2] is not None
        monkeypatch.setattr(linalg, "_COND_LIMIT", 1.0)
        assert eigensystem(a)[2] is None


class TestTraceNorm:
    def test_diagonal(self):
        assert trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0)

    def test_equals_singular_value_sum(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert trace_norm(a) == pytest.approx(np.linalg.svd(a, compute_uv=False).sum())

    def test_stack_matches_each_matrix(self, rng):
        for shape in ((7, 2, 2), (2, 3, 3, 3), (4, 2, 3)):
            a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            norms = trace_norm(a)
            assert norms.shape == shape[:-2]
            expect = np.array([trace_norm(m) for m in a.reshape((-1,) + shape[-2:])]).reshape(shape[:-2])
            assert np.array_equal(norms, expect)

    def test_vector_rejected(self):
        with pytest.raises(DimensionMismatch):
            trace_norm(np.ones(3))


class TestSuperoperator:
    def test_identity(self, rng):
        s = Superoperator(np.eye(9))
        rho = random_density(rng, 3)
        assert np.allclose(devectorize(s.matrix @ vectorize(rho)), rho)

    def test_ad_spectrum_is_eigenvalue_differences(self):
        h = np.diag([1.0, 2.0, 4.0])
        eigs = np.sort(np.linalg.eigvals(ad_superop(h)).real)
        expected = np.sort([a - b for a in [1, 2, 4] for b in [1, 2, 4]])
        assert np.allclose(eigs, expected, atol=1e-12)

    def test_ad_acts_as_commutator(self, rng):
        h = random_hermitian(rng, 3)
        rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        out = devectorize(ad_superop(h) @ vectorize(rho))
        assert np.allclose(out, h @ rho - rho @ h, atol=1e-12)

    def test_conjugation_is_unitary_action(self, rng):
        h = random_hermitian(rng, 3)
        u = scipy.linalg.expm(-1j * h)
        rho = random_density(rng, 3)
        out = devectorize(conjugation_superop(u) @ vectorize(rho))
        assert np.allclose(out, u @ rho @ u.conj().T, atol=1e-12)


class TestStackedSuperoperators:
    def test_stacks_match_single_kron_forms(self, rng):
        hs = np.stack([random_hermitian(rng, 3) for _ in range(4)])
        us = scipy.linalg.expm(-1j * hs)
        eye = np.eye(3)
        for h, u, ad, conj in zip(hs, us, ad_superop(hs), conjugation_superop(us)):
            assert np.array_equal(ad, np.kron(eye, h) - np.kron(h.T, eye))
            assert np.array_equal(ad, ad_superop(h))
            assert np.array_equal(conj, np.kron(u.conj(), u))
            assert np.array_equal(conj, conjugation_superop(u))

    def test_stacks_are_checked(self):
        with pytest.raises(DimensionMismatch):
            ad_superop(np.zeros((3, 2, 3)))
        with pytest.raises(Overflow):
            conjugation_superop(np.full((2, 2, 2), np.nan))
        with pytest.raises(DimensionMismatch):
            vectorize(np.zeros((2, 2, 3)))
        with pytest.raises(DimensionMismatch):
            devectorize(np.zeros((2, 5)))

    def test_unitarity_residuals_match_per_matrix_norms(self, rng):
        us = scipy.linalg.expm(-1j * np.stack([random_hermitian(rng, 3) for _ in range(5)]))
        us[2] *= 1.001
        loop = [np.linalg.norm(u @ u.conj().T - np.eye(3), 2) for u in us]
        assert np.array_equal(unitarity_residuals(us), loop)


class TestChoi:
    def test_reshuffle_matches_definition(self, rng):
        # a random map that does not preserve Hermiticity, so no symmetry of
        # the Choi matrix can hide a misplaced index
        d = 3
        m = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        s = Superoperator(m)
        expect = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d))
                e[i, j] = 1.0
                expect += np.kron(e, devectorize(s.matrix @ vectorize(e)))
        assert np.array_equal(choi_of(s), expect)
        assert np.array_equal(choi_of(m), expect)

    def test_identity_map_choi(self):
        # Choi of identity on d=2 is the rank-one projector scaled by d:
        # eigenvalues (2, 0, 0, 0)
        c = choi_of(Superoperator(np.eye(4)))
        eigs = np.sort(np.linalg.eigvalsh(c))
        assert np.allclose(eigs, [0.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_transpose_map_is_not_cp(self):
        d = 2
        # transpose superoperator in column stacking is the SWAP permutation
        m = np.zeros((4, 4))
        for i in range(d):
            for j in range(d):
                m[i * d + j, j * d + i] = 1.0
        min_eig, herm = choi_min_eigenvalue(Superoperator(m))
        assert min_eig == pytest.approx(-1.0, abs=1e-12)
        assert herm < 1e-12

    def test_stack_matches_per_matrix(self, rng):
        ms = rng.normal(size=(2, 3, 9, 9)) + 1j * rng.normal(size=(2, 3, 9, 9))
        ms[0, 1] = conjugation_superop(scipy.linalg.expm(-1j * random_hermitian(rng, 3)))
        min_eig, herm = choi_min_eigenvalue(ms)
        assert min_eig.shape == herm.shape == (2, 3)
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(choi_of(ms)[i, j], choi_of(ms[i, j]))
            c = choi_of(ms[i, j])
            assert (min_eig[i, j], herm[i, j]) == choi_min_eigenvalue(Superoperator(ms[i, j]))
            # the formulas of the single-matrix path before stacks
            assert herm[i, j] == float(np.linalg.norm(c - c.conj().T))
            assert min_eig[i, j] == float(np.linalg.eigvalsh(hermitize(c))[0])
        with pytest.raises(DimensionMismatch):
            choi_of(np.zeros((2, 3, 3)))

    def test_cptp_choi_of_conjugation(self, rng):
        u = scipy.linalg.expm(-1j * random_hermitian(rng, 3))
        min_eig, herm = choi_min_eigenvalue(Superoperator(conjugation_superop(u)))
        assert min_eig >= -1e-12
        assert herm < 1e-12
