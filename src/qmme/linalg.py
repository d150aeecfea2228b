"""Dense linear algebra kernels and the superoperator convention.

Everything downstream relies on the conventions fixed here:

* ``vectorize`` stacks matrix COLUMNS, so ``vec(A @ rho @ B) = kron(B.T, A) @ vec(rho)``.
* A superoperator is a ``(d*d, d*d)`` complex matrix acting on column-stacked
  states; composition of maps is plain matrix multiplication.
* The Choi matrix of a map ``S`` is ``sum_ij E_ij kron S(E_ij)`` with ``E_ij``
  the unit matrix with a one in row ``i``, column ``j``.

All functions operate on ``numpy.ndarray`` with complex dtype.
"""

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, Overflow

__all__ = [
    "vectorize",
    "devectorize",
    "eig_hermitian",
    "expm",
    "trace_norm",
    "hermiticity_defect",
    "hermitize",
    "ad_superop",
    "conjugation_superop",
    "Superoperator",
    "choi_of",
    "choi_min_eigenvalue",
]


def _as_square(a, name="matrix"):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise Overflow(f"{name} contains non-finite entries")
    return a


def vectorize(rho):
    """Column-stack a d x d matrix into a length d*d vector.

    The identity on d=2 maps to (1, 0, 0, 1); the unit matrix with a one in
    row 0, column 1 maps to (0, 0, 1, 0).
    """
    rho = _as_square(rho, "state")
    return rho.reshape(-1, order="F").copy()


def devectorize(v):
    """Inverse of :func:`vectorize`; requires a perfect-square length."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise DimensionMismatch(f"vector length {v.size} is not a perfect square")
    return v.reshape((d, d), order="F").copy()


def hermiticity_defect(a):
    """Relative Frobenius defect ||A - A^dag|| / max(1, ||A||)."""
    a = np.asarray(a, dtype=complex)
    return np.linalg.norm(a - a.conj().T) / max(1.0, np.linalg.norm(a))


def hermitize(a):
    """Nearest Hermitian matrix (A + A^dag) / 2."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + a.conj().T)


def eig_hermitian(h, tol_herm=1e-9):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with real eigenvalues ``w`` ascending and unitary ``v``
    whose columns are eigenvectors, such that ``h = v @ diag(w) @ v^dag``
    within a 1e-12 relative residual.

    Raises NotHermitian if the input defect exceeds ``tol_herm`` (relative),
    NoConvergence if the underlying iteration fails.
    """
    h = _as_square(h, "operator")
    defect = hermiticity_defect(h)
    if defect > tol_herm:
        raise NotHermitian(f"matrix is not Hermitian: relative defect {defect:.3e} > {tol_herm:.1e}")
    try:
        w, v = np.linalg.eigh(hermitize(h))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver did not converge: {exc}") from exc
    scale = max(1.0, np.linalg.norm(h))
    residual = np.linalg.norm((v * w) @ v.conj().T - hermitize(h)) / scale
    if residual > 1e-12:
        raise NoConvergence(f"eigendecomposition residual {residual:.3e} exceeds 1e-12")
    return w, v


def expm(a):
    """Matrix exponential via scaling-and-squaring with backward-error control.

    Raises Overflow if the input or result contains non-finite entries.
    """
    import scipy.linalg  # here, so a process whose maps all diagonalize never loads scipy

    a = _as_square(a, "generator")
    out = scipy.linalg.expm(a)
    if not np.all(np.isfinite(out)):
        raise Overflow("matrix exponential overflowed to non-finite entries")
    return out


def trace_norm(a):
    """Sum of singular values (Schatten-1 norm)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"trace norm needs a matrix, got shape {a.shape}")
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def ad_superop(h):
    """Commutator superoperator rho -> [h, rho] = h rho - rho h.

    Its spectrum is the set of eigenvalue differences {w_i - w_j} of ``h``.
    """
    h = _as_square(h, "hamiltonian")
    eye = np.eye(h.shape[0])
    return np.kron(eye, h) - np.kron(h.T, eye)


def conjugation_superop(u):
    """Superoperator for rho -> u @ rho @ u^dag (no unitarity assumed here)."""
    u = _as_square(u)
    return np.kron(u.conj(), u)


class Superoperator:
    """A linear map on d x d matrices, stored as a (d*d, d*d) matrix in the
    column-stacking convention.

    ``apply`` acts on a matrix and returns a matrix. Instances are treated as
    immutable values.
    """

    __slots__ = ("matrix", "dim")

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionMismatch(f"superoperator matrix must be square, got {matrix.shape}")
        d = int(round(np.sqrt(matrix.shape[0])))
        if d * d != matrix.shape[0]:
            raise DimensionMismatch(f"superoperator side {matrix.shape[0]} is not a perfect square")
        if not np.all(np.isfinite(matrix)):
            raise Overflow("superoperator contains non-finite entries")
        self.matrix = matrix
        self.dim = d

    def apply(self, rho):
        rho = _as_square(rho, "state")
        if rho.shape[0] != self.dim:
            raise DimensionMismatch(f"state dim {rho.shape[0]} != superoperator dim {self.dim}")
        return devectorize(self.matrix @ vectorize(rho))

    def __repr__(self):
        return f"Superoperator(dim={self.dim})"


def choi_of(superop):
    """Choi matrix of a superoperator: C = sum_ij E_ij kron S(E_ij).

    Entry ((i, k), (j, l)) is S(E_ij)[k, l], the superoperator entry at row
    vec(E_kl) and column vec(E_ij), so C is an index reshuffle of the matrix.
    Hermitian whenever the map preserves Hermiticity; PSD iff the map is
    completely positive. The identity map on d=2 gives a rank-1 C with
    nonzero eigenvalue 2.
    """
    if not isinstance(superop, Superoperator):
        superop = Superoperator(superop)
    d = superop.dim
    return superop.matrix.reshape(d, d, d, d, order="F").transpose(2, 0, 3, 1).reshape(d * d, d * d)


def choi_min_eigenvalue(superop):
    """Smallest eigenvalue of the Hermitized Choi matrix, with the
    Hermiticity defect of the raw Choi matrix as a second return."""
    c = choi_of(superop)
    defect = float(np.linalg.norm(c - c.conj().T))
    w = np.linalg.eigvalsh(hermitize(c))
    return float(w[0]), defect
