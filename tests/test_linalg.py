import numpy as np
import pytest
import scipy.linalg

from qmme.errors import DimensionMismatch, NotHermitian
from qmme.linalg import (
    Superoperator,
    ad_superop,
    choi_min_eigenvalue,
    choi_of,
    conjugation_superop,
    devectorize,
    eig_hermitian,
    expm,
    hermiticity_defect,
    hermitize,
    trace_norm,
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


class TestTraceNorm:
    def test_diagonal(self):
        assert trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0)

    def test_equals_singular_value_sum(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert trace_norm(a) == pytest.approx(np.linalg.svd(a, compute_uv=False).sum())


class TestSuperoperator:
    def test_identity(self, rng):
        s = Superoperator(np.eye(9))
        rho = random_density(rng, 3)
        assert np.allclose(s.apply(rho), rho)

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
                expect += np.kron(e, s.apply(e))
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

    def test_cptp_choi_of_conjugation(self, rng):
        u = scipy.linalg.expm(-1j * random_hermitian(rng, 3))
        min_eig, herm = choi_min_eigenvalue(Superoperator(conjugation_superop(u)))
        assert min_eig >= -1e-12
        assert herm < 1e-12
