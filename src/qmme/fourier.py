"""Operator-valued Fourier series on an r-torus and frequency-vector checks.

A series stores a finite set of matrix coefficients ``A_n`` indexed by integer
multi-indices ``n`` inside the box ``|n_i| <= trunc`` and evaluates as

    A(t) = sum_n A_n exp(i (n . omega) t)

for a frequency vector ``omega``. Operations that can lose coefficient mass
(products, truncation) report what they dropped: ``tail_norm`` is an l1 sum of
Frobenius norms of dropped coefficients, which upper-bounds the sup-over-t
evaluation error introduced by the loss, and input tails propagate through
products scaled by the partner's l1 norm.
"""

import math

import numpy as np

from .errors import DimensionMismatch, Overflow

# largest (times x terms) phase block that evaluate_many holds at once
_PHASE_CHUNK = 16384

__all__ = [
    "FourierOperatorSeries",
    "frequency_vector",
    "check_rational_independence",
    "normalize_witness",
    "sample_times",
]


def frequency_vector(omega):
    """Validate and return a base frequency vector: 1-d, finite, all positive."""
    omega = np.asarray(omega, dtype=float).reshape(-1)
    if omega.size == 0:
        raise DimensionMismatch("frequency vector must have at least one entry")
    if not np.all(np.isfinite(omega)):
        raise Overflow("frequency vector contains non-finite entries")
    if np.any(omega <= 0):
        raise DimensionMismatch("frequency vector entries must be positive")
    return omega


class FourierOperatorSeries:
    """Finite operator-valued Fourier series.

    Parameters
    ----------
    r : number of base frequencies (length of every multi-index).
    d : matrix dimension of the coefficients.
    trunc : per-axis truncation bound; every stored index has |n_i| <= trunc.
    coeffs : mapping from index tuples to (d, d) arrays.
    tail_norm : l1 mass already known to be missing from this series.
    """

    __slots__ = ("r", "d", "trunc", "coeffs", "tail_norm", "_idx_arr", "_coeff_arr")

    def __init__(self, r, d, trunc, coeffs, tail_norm=0.0):
        if r < 1 or d < 1 or trunc < 0:
            raise DimensionMismatch(f"bad series shape parameters r={r} d={d} trunc={trunc}")
        self.r = int(r)
        self.d = int(d)
        self.trunc = int(trunc)
        self.tail_norm = float(tail_norm)
        clean = {}
        for n in sorted(coeffs):
            idx = tuple(int(v) for v in n)
            if len(idx) != self.r:
                raise DimensionMismatch(f"index {idx} has length {len(idx)}, expected {self.r}")
            if any(abs(v) > self.trunc for v in idx):
                raise DimensionMismatch(f"index {idx} outside truncation box {self.trunc}")
            a = np.array(coeffs[n], dtype=complex)
            if a.shape != (self.d, self.d):
                raise DimensionMismatch(f"coefficient at {idx} has shape {a.shape}, expected {(self.d, self.d)}")
            if not np.all(np.isfinite(a)):
                raise Overflow(f"coefficient at {idx} contains non-finite entries")
            a.setflags(write=False)
            clean[idx] = a
        self.coeffs = clean
        self._idx_arr = None
        self._coeff_arr = None

    @classmethod
    def constant(cls, matrix, r, trunc=0):
        """Series with a single coefficient at n = 0."""
        matrix = np.asarray(matrix, dtype=complex)
        return cls(r, matrix.shape[0], trunc, {(0,) * r: matrix})

    # -- internals ---------------------------------------------------------

    def _stacked(self):
        if self._idx_arr is None:
            if self.coeffs:
                self._idx_arr = np.array(list(self.coeffs.keys()), dtype=float)
                self._coeff_arr = np.stack(list(self.coeffs.values()))
            else:
                self._idx_arr = np.zeros((0, self.r))
                self._coeff_arr = np.zeros((0, self.d, self.d), dtype=complex)
        return self._idx_arr, self._coeff_arr

    def _check_compatible(self, other):
        if not isinstance(other, FourierOperatorSeries):
            raise DimensionMismatch("expected a FourierOperatorSeries")
        if other.r != self.r or other.d != self.d:
            raise DimensionMismatch(
                f"series shapes differ: (r={self.r}, d={self.d}) vs (r={other.r}, d={other.d})"
            )

    # -- evaluation --------------------------------------------------------

    def evaluate(self, omega, t):
        """Evaluate the series at time ``t`` for base frequencies ``omega``."""
        omega = frequency_vector(omega)
        if omega.size != self.r:
            raise DimensionMismatch(f"frequency vector length {omega.size} != r = {self.r}")
        idx, arr = self._stacked()
        if arr.shape[0] == 0:
            return np.zeros((self.d, self.d), dtype=complex)
        phases = np.exp(1j * (idx @ omega) * float(t))
        return np.tensordot(phases, arr, axes=(0, 0))

    def evaluate_many(self, omega, ts):
        """Evaluate at every time of ``ts``; returns an array (len(ts), d, d).

        The phases exp(i (n . omega) t) are products of per-axis factors
        exp(i omega_j n_j t), gathered from one (times x (2 trunc + 1)) table
        per axis, and are contracted with the stacked coefficients in one
        matrix product. Times are taken in chunks of at most ``_PHASE_CHUNK``
        phase entries (one time at least), so memory does not grow with the grid.
        """
        omega = frequency_vector(omega)
        if omega.size != self.r:
            raise DimensionMismatch(f"frequency vector length {omega.size} != r = {self.r}")
        ts = np.asarray(ts, dtype=float).reshape(-1)
        idx, arr = self._stacked()
        out = np.zeros((ts.size, self.d * self.d), dtype=complex)
        if arr.shape[0] == 0:
            return out.reshape(ts.size, self.d, self.d)
        slots = idx.T.astype(np.intp) + self.trunc  # column of each term in the axis tables
        axis_freqs = omega[:, None] * np.arange(-self.trunc, self.trunc + 1)
        flat = arr.reshape(arr.shape[0], -1)
        rows = max(1, _PHASE_CHUNK // arr.shape[0])
        for lo in range(0, ts.size, rows):
            chunk = ts[lo : lo + rows, None]
            phases = np.exp(1j * (chunk * axis_freqs[0]))[:, slots[0]]
            for j in range(1, self.r):
                phases *= np.exp(1j * (chunk * axis_freqs[j]))[:, slots[j]]
            out[lo : lo + rows] = phases @ flat
        return out.reshape(ts.size, self.d, self.d)

    def sampler(self, omega):
        """Return a fast closure t -> A(t) with frequencies bound."""
        omega = frequency_vector(omega)
        if omega.size != self.r:
            raise DimensionMismatch(f"frequency vector length {omega.size} != r = {self.r}")
        idx, arr = self._stacked()
        if arr.shape[0] == 0:
            zero = np.zeros((self.d, self.d), dtype=complex)
            return lambda t: zero.copy()
        dots = idx @ omega
        return lambda t: np.tensordot(np.exp(1j * dots * t), arr, axes=(0, 0))

    # -- algebra -----------------------------------------------------------

    def product(self, other):
        """Series product (convolution of coefficients).

        The result is truncated to the union box max(trunc, other.trunc);
        dropped mass goes into ``tail_norm`` together with the propagated
        input tails.
        """
        self._check_compatible(other)
        new_trunc = max(self.trunc, other.trunc)
        acc = {}
        for n, a in self.coeffs.items():
            for m, b in other.coeffs.items():
                idx = tuple(ni + mi for ni, mi in zip(n, m))
                ab = a @ b
                if idx in acc:
                    acc[idx] = acc[idx] + ab
                else:
                    acc[idx] = ab
        kept, dropped_l1 = {}, 0.0
        for idx in sorted(acc):
            if max(abs(v) for v in idx) <= new_trunc:
                kept[idx] = acc[idx]
            else:
                dropped_l1 += np.linalg.norm(acc[idx])
        tail = dropped_l1 + self.tail_norm * other.l1_norm() + other.tail_norm * self.l1_norm()
        return FourierOperatorSeries(self.r, self.d, new_trunc, kept, tail)

    def adjoint(self):
        """Coefficient-wise adjoint: index n maps to -n with A_n^dag (lossless)."""
        out = {tuple(-v for v in n): a.conj().T for n, a in self.coeffs.items()}
        return FourierOperatorSeries(self.r, self.d, self.trunc, out, self.tail_norm)

    def derivative(self, omega):
        """Time derivative: coefficient A_n maps to i (n . omega) A_n."""
        omega = frequency_vector(omega)
        if omega.size != self.r:
            raise DimensionMismatch(f"frequency vector length {omega.size} != r = {self.r}")
        out = {n: 1j * float(np.dot(n, omega)) * a for n, a in self.coeffs.items()}
        # a dropped tail would have carried at most this frequency factor at the box edge
        tail = self.tail_norm * self.trunc * float(np.sum(omega))
        return FourierOperatorSeries(self.r, self.d, self.trunc, out, tail)

    def __add__(self, other):
        self._check_compatible(other)
        out = {n: a.copy() for n, a in self.coeffs.items()}
        for n, b in other.coeffs.items():
            out[n] = out[n] + b if n in out else b
        return FourierOperatorSeries(
            self.r, self.d, max(self.trunc, other.trunc), out, self.tail_norm + other.tail_norm
        )

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        c = complex(scalar)
        out = {n: c * a for n, a in self.coeffs.items()}
        return FourierOperatorSeries(self.r, self.d, self.trunc, out, abs(c) * self.tail_norm)

    __rmul__ = __mul__

    def truncate(self, new_trunc):
        """Shrink the box to ``new_trunc``; dropped mass goes into the tail."""
        kept, dropped = {}, 0.0
        for n, a in self.coeffs.items():
            if max((abs(v) for v in n), default=0) <= new_trunc:
                kept[n] = a
            else:
                dropped += np.linalg.norm(a)
        return FourierOperatorSeries(self.r, self.d, new_trunc, kept, self.tail_norm + dropped)

    def drop_below(self, eps):
        """Remove coefficients with Frobenius norm < eps (mass goes to the tail)."""
        kept, dropped = {}, 0.0
        for n, a in self.coeffs.items():
            if np.linalg.norm(a) >= eps:
                kept[n] = a
            else:
                dropped += np.linalg.norm(a)
        return FourierOperatorSeries(self.r, self.d, self.trunc, kept, self.tail_norm + dropped)

    # -- queries -----------------------------------------------------------

    def coeff(self, n):
        """Coefficient at index ``n`` (zeros if absent)."""
        idx = tuple(int(v) for v in n)
        if idx in self.coeffs:
            return self.coeffs[idx].copy()
        return np.zeros((self.d, self.d), dtype=complex)

    def indices(self):
        return list(self.coeffs.keys())

    def l1_norm(self):
        """Sum of coefficient Frobenius norms; bounds sup_t ||A(t)||_F."""
        return float(sum(np.linalg.norm(a) for a in self.coeffs.values()))

    def __len__(self):
        return len(self.coeffs)

    def __repr__(self):
        return (
            f"FourierOperatorSeries(r={self.r}, d={self.d}, trunc={self.trunc}, "
            f"terms={len(self.coeffs)}, tail={self.tail_norm:.2e})"
        )


def _shells(r, box):
    """Integer points of the box |k_i| <= box, excluding 0, as an (N, r) array
    in shells of increasing Chebyshev radius (lexicographic inside a shell)."""
    axis = np.arange(-box, box + 1)
    pts = np.stack(np.meshgrid(*[axis] * r, indexing="ij"), axis=-1).reshape(-1, r)
    order = np.argsort(np.abs(pts).max(axis=1), kind="stable")
    return pts[order[1:]]  # the origin is the only point of radius 0


def normalize_witness(k):
    """Canonical sign for an integer-relation witness: first nonzero > 0."""
    for v in k:
        if v:
            return tuple(-x for x in k) if v < 0 else tuple(k)
    return tuple(k)


def check_rational_independence(omega, box=12, tol=1e-9):
    """Scan for integer relations k . omega = 0 within the box.

    Returns None when no |k . omega| < tol * ||omega|| is found for
    0 < max|k_i| <= box, otherwise the first (smallest-shell) witness tuple
    with canonical sign.
    """
    omega = frequency_vector(omega)
    threshold = tol * float(np.linalg.norm(omega))
    pts = _shells(omega.size, box)
    hits = np.flatnonzero(np.abs(pts @ omega) < threshold)
    return normalize_witness(tuple(int(v) for v in pts[hits[0]])) if hits.size else None


def sample_times(omega, count=64):
    """Quasi-uniform sample grid on [0, 2*pi / min(omega)].

    Uniform spacing with a deterministic golden-ratio stagger so the samples
    are not commensurate with any single base frequency.
    """
    omega = frequency_vector(omega)
    t_max = 2.0 * math.pi / float(np.min(omega))
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    k = np.arange(count, dtype=float)
    stagger = 0.5 * np.modf((k + 1.0) * golden)[0]
    return (k + stagger) * (t_max / count)
