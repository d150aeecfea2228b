"""Dense linear algebra kernels and the superoperator convention.

Everything downstream relies on the conventions fixed here:

* ``vectorize`` stacks matrix COLUMNS, so ``vec(A @ rho @ B) = kron(B.T, A) @ vec(rho)``;
  it and ``devectorize`` act on the trailing axes of a stack, and the other
  modules stack and un-stack states through them.
* A superoperator is a ``(d*d, d*d)`` complex matrix acting on column-stacked
  states; composition of maps is plain matrix multiplication.
* The Choi matrix of a map ``S`` is ``sum_ij E_ij kron S(E_ij)`` with ``E_ij``
  the unit matrix with a one in row ``i``, column ``j``.

All functions operate on ``numpy.ndarray`` with complex dtype.
"""

import math

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, Overflow

__all__ = [
    "vectorize",
    "devectorize",
    "eig_hermitian",
    "eigensystem",
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


_COND_LIMIT = 1e6  # eigenvector condition number from which no eigen-expansion is formed
# Pade-13 coefficients b_k = (26 - k)! / (k! (13 - k)!) and the 1-norm up to which
# they need no scaling (Higham 2005)
_PADE13 = [float(math.perm(26 - k, 13) // math.factorial(k)) for k in range(14)]
_THETA13 = 5.371920351148152


def _as_square(a, name="matrix", stacked=False):
    """``a`` as a complex square matrix, or a stack ``(..., d, d)`` of them if ``stacked``."""
    a = np.asarray(a, dtype=complex)
    if (a.ndim < 2 if stacked else a.ndim != 2) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise Overflow(f"{name} contains non-finite entries")
    return a


def vectorize(rho):
    """Column-stack a d x d matrix into a length d*d vector, or each matrix of a
    ``(..., d, d)`` stack into a ``(..., d*d)`` stack.

    The identity on d=2 maps to (1, 0, 0, 1); the unit matrix with a one in
    row 0, column 1 maps to (0, 0, 1, 0).
    """
    rho = _as_square(rho, "state", stacked=True)
    return np.array(rho.swapaxes(-1, -2)).reshape(rho.shape[:-2] + (rho.shape[-1] ** 2,))


def devectorize(v):
    """Inverse of :func:`vectorize`: a ``(..., d*d)`` stack to ``(..., d, d)``, a
    1-d (or 0-d) input to one matrix. Requires a perfect-square length."""
    v = np.atleast_1d(np.asarray(v, dtype=complex))
    d = math.isqrt(v.shape[-1])
    if d * d != v.shape[-1]:
        raise DimensionMismatch(f"vector length {v.shape[-1]} is not a perfect square")
    return v.reshape(v.shape[:-1] + (d, d)).swapaxes(-1, -2).copy()


def hermiticity_defect(a):
    """Relative Frobenius defect ||A - A^dag|| / max(1, ||A||): a float for one matrix,
    an array over the leading axes for a ``(..., d, d)`` stack, each as for its matrix alone."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2:
        raise DimensionMismatch(f"Hermiticity defect needs a matrix, got shape {a.shape}")
    defects = (_norms(a - a.conj().swapaxes(-1, -2)) / np.maximum(1.0, _norms(a))).reshape(a.shape[:-2])
    return float(defects) if a.ndim == 2 else defects


def hermitize(a):
    """Nearest Hermitian matrix (A + A^dag) / 2 (of each matrix of a stack), halved
    before the sum: finite wherever A is, and bit for bit 0.5 (A + A^dag) wherever
    that is finite and no half is subnormal."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * a + 0.5 * a.conj().swapaxes(-1, -2)


def _finite(a, what):
    """``a``, formed under np.errstate(over="ignore", invalid="ignore"); Overflow naming
    ``what`` when an entry is not finite, so past the float range."""
    if not np.isfinite(a).all():
        raise Overflow(f"{what} is past the float range")
    return a


def _norms(stack):
    """Frobenius norms of a stack of matrices, bit for bit those of
    ``np.linalg.norm`` (one dot product of real and of imaginary parts each)
    where the sum of squares is finite. A norm whose squares overflow is taken
    again from its matrix scaled by its largest part, so it is inf only past
    the float range, and no warning is raised."""
    flat = stack.reshape(-1, 1, stack.shape[-1] * stack.shape[-2])
    re, im = flat.real, flat.imag
    with np.errstate(over="ignore"):
        norms = np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)).reshape(-1)
        if np.isinf(norms).any():
            rows = np.isinf(norms) & np.isfinite(flat).all(axis=(1, 2))
            scale = np.maximum(abs(re[rows, 0]), abs(im[rows, 0])).max(axis=1)
            norms[rows] = scale * np.linalg.norm(flat[rows, 0] / scale[:, None], axis=1)
    return norms


def eig_hermitian(h):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with real eigenvalues ``w`` ascending and unitary ``v``
    whose columns are eigenvectors, such that ``h = v @ diag(w) @ v^dag``
    within a 1e-12 relative residual.

    Raises NotHermitian if the input defect exceeds 1e-9 (relative),
    NoConvergence if the underlying iteration fails.
    """
    h = _as_square(h, "operator")
    defect = hermiticity_defect(h)
    if defect > 1e-9:
        raise NotHermitian(f"matrix is not Hermitian: relative defect {defect:.3e} > 1.0e-09")
    try:
        w, v = np.linalg.eigh(hermitize(h))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver did not converge: {exc}") from exc
    scale = max(1.0, float(_norms(h)[0]))
    residual = float(_norms((v * w) @ v.conj().T - hermitize(h))[0]) / scale
    if residual > 1e-12:
        raise NoConvergence(f"eigendecomposition residual {residual:.3e} exceeds 1e-12")
    return w, v


def eigensystem(matrix):
    """Eigenvalues w, eigenvectors v (columns), their inverse vinv and cond(v) of a
    matrix; vinv is None unless cond(v) is finite and below ``_COND_LIMIT``, the
    range in which functions of the matrix are taken from its eigen-expansion."""
    w, v = np.linalg.eig(_as_square(matrix))
    cond = float(np.linalg.cond(v))
    return w, v, (np.linalg.inv(v) if cond < _COND_LIMIT else None), cond


def expm(a):
    """Matrix exponential by Pade-13 scaling and squaring (Higham, SIAM J. Matrix
    Anal. Appl. 26 (2005) 1179): A is scaled by 2^-s to 1-norm at most theta13,
    its [13/13] Pade approximant is formed with one solve, and squared s times.

    Raises Overflow if the input, its 1-norm or the result is not finite.
    """
    a = _as_square(a, "generator")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a, 1))
    if not np.isfinite(norm):
        raise Overflow(f"generator 1-norm {norm} is not finite")
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a * 2.0**-s
    b, eye = _PADE13, np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    out = eye + 2.0 * np.linalg.solve(v - u, u)  # = (V - U)^-1 (V + U), exactly I at A = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            out = out @ out
    if not np.all(np.isfinite(out)):
        raise Overflow("matrix exponential overflowed to non-finite entries")
    return out


def trace_norm(a):
    """Sum of singular values (Schatten-1 norm): a float for one matrix, an array
    over the leading axes for a ``(..., m, n)`` stack, each as for its matrix alone."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2:
        raise DimensionMismatch(f"trace norm needs a matrix, got shape {a.shape}")
    norms = np.linalg.svd(a, compute_uv=False).sum(axis=-1)
    return float(norms) if a.ndim == 2 else norms


def _kron(a, b):
    """``np.kron`` of the trailing matrices of two stacks, broadcast over the leading axes."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def ad_superop(h):
    """Commutator superoperator rho -> [h, rho] = h rho - rho h (of each h of a stack).

    Its spectrum is the set of eigenvalue differences {w_i - w_j} of ``h``.
    """
    h = _as_square(h, "hamiltonian", stacked=True)
    eye = np.eye(h.shape[-1])
    return _kron(eye, h) - _kron(h.swapaxes(-1, -2), eye)


def conjugation_superop(u):
    """Superoperator for rho -> u @ rho @ u^dag (of each u of a stack; no unitarity assumed)."""
    u = _as_square(u, stacked=True)
    return _kron(u.conj(), u)


class Superoperator:
    """A linear map on d x d matrices, stored as a (d*d, d*d) matrix in the
    column-stacking convention; ``devectorize(matrix @ vectorize(rho))`` applies it.
    Instances are treated as immutable values.
    """

    __slots__ = ("matrix", "dim")

    def __init__(self, matrix):
        matrix = _as_square(matrix, "superoperator matrix")
        d = int(round(np.sqrt(matrix.shape[0])))
        if d * d != matrix.shape[0]:
            raise DimensionMismatch(f"superoperator side {matrix.shape[0]} is not a perfect square")
        self.matrix = matrix
        self.dim = d

    def __repr__(self):
        return f"Superoperator(dim={self.dim})"


def choi_of(superop):
    """Choi matrix of a superoperator, or of each matrix of a ``(..., d*d, d*d)``
    stack: C = sum_ij E_ij kron S(E_ij).

    Entry ((i, k), (j, l)) is S(E_ij)[k, l], the superoperator entry at row
    vec(E_kl) and column vec(E_ij), so C is an index reshuffle of the matrix.
    Hermitian whenever the map preserves Hermiticity; PSD iff the map is
    completely positive. The identity map on d=2 gives a rank-1 C with
    nonzero eigenvalue 2.
    """
    m = (superop.matrix if isinstance(superop, Superoperator)
         else _as_square(superop, "superoperator matrix", stacked=True))
    lead, d = m.shape[:-2], math.isqrt(m.shape[-1])
    if d * d != m.shape[-1]:
        raise DimensionMismatch(f"superoperator side {m.shape[-1]} is not a perfect square")
    # entry (row, col) = ((l, k), (j, i)) in row-major digits; C swaps l and i
    return m.reshape(lead + (d,) * 4).swapaxes(-4, -1).reshape(lead + (d * d,) * 2)


def choi_min_eigenvalue(superop):
    """Smallest eigenvalue of the Hermitized Choi matrix, with the Frobenius
    Hermiticity defect of the raw Choi matrix as a second return; floats for
    one superoperator, arrays over the leading axes for a stack."""
    c = choi_of(superop)
    defect = _norms(c - c.conj().swapaxes(-1, -2)).reshape(c.shape[:-2])
    w = np.linalg.eigvalsh(hermitize(c))[..., 0]
    return (float(w), float(defect)) if c.ndim == 2 else (w, defect)
