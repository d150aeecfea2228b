"""Operator-valued Fourier series on an r-torus and frequency-vector checks.

A series A(t) = sum_n A_n exp(i (n . omega) t), |n_i| <= trunc, is one dense box
tensor of shape ``(2 trunc + 1,) * r + (d, d)`` with a boolean support mask of the
indices it holds. A product convolves the boxes by FFTs zero-padded to
``2 (k_a + k_b) + 1`` points per axis, k the largest |n_i| on a support, so no
index sum wraps around; its support is the Minkowski sum of the supports. Lossy
operations add the l1 sum of Frobenius norms of what they drop to ``tail_norm``,
a bound on the sup-over-t error; products add each input's tail times the other's
l1 norm.
"""

import math
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatch, Overflow

# largest (times x terms) phase block that evaluate_many holds at once
_PHASE_CHUNK = 16384
# most lattice points a scan holds: its arrays take about 100 bytes a point
_MAX_BOX_POINTS = 10**6

__all__ = ["FourierOperatorSeries", "frequency_vector", "check_rational_independence",
           "normalize_witness", "sample_times"]


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


def _norms(stack):
    """Frobenius norms of a stack of matrices, bit for bit those of
    ``np.linalg.norm`` (one dot product of real and of imaginary parts each)."""
    flat = stack.reshape(-1, 1, stack.shape[-1] * stack.shape[-2])
    re, im = flat.real, flat.imag
    return np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)).reshape(-1)


def _total(values):
    """Left-to-right sum, so a tail is the same number a running sum gives."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


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

    __slots__ = ("r", "d", "trunc", "tail_norm", "_box", "_support", "_idx_arr", "_coeff_arr", "_coeffs")

    def __init__(self, r, d, trunc, coeffs, tail_norm=0.0):
        if r < 1 or d < 1 or trunc < 0:
            raise DimensionMismatch(f"bad series shape parameters r={r} d={d} trunc={trunc}")
        r, d, trunc = int(r), int(d), int(trunc)
        keys = sorted(coeffs)
        idx = [tuple(int(v) for v in n) for n in keys]
        mats = [np.asarray(coeffs[n], dtype=complex) for n in keys]
        for n, a in zip(idx, mats):
            if len(n) != r:
                raise DimensionMismatch(f"index {n} has length {len(n)}, expected {r}")
            if any(abs(v) > trunc for v in n):
                raise DimensionMismatch(f"index {n} outside truncation box {trunc}")
            if a.shape != (d, d):
                raise DimensionMismatch(f"coefficient at {n} has shape {a.shape}, expected {(d, d)}")
        stack = np.array(mats).reshape(len(mats), d, d)
        bad = np.flatnonzero(~np.isfinite(stack).all(axis=(1, 2)))
        if bad.size:
            raise Overflow(f"coefficient at {idx[bad[0]]} contains non-finite entries")
        box = np.zeros((2 * trunc + 1,) * r + (d, d), dtype=complex)
        support = np.zeros(box.shape[:r], dtype=bool)
        pos = tuple(np.array(idx, dtype=np.intp).reshape(-1, r).T + trunc)
        box[pos], support[pos] = stack, True
        self._set(box, support, tail_norm)

    def _set(self, box, support, tail_norm):
        self.r, self.trunc, self.d = support.ndim, support.shape[0] // 2, box.shape[-1]
        self.tail_norm = float(tail_norm)
        self._box = np.where(support[..., None, None], box, 0)  # contiguous, zero off the support
        self._support = np.array(support, dtype=bool)
        self._box.setflags(write=False)
        self._support.setflags(write=False)
        self._idx_arr = self._coeff_arr = self._coeffs = None
        return self

    @classmethod
    def _from_arrays(cls, box, support, tail_norm):
        """Series from a dense coefficient box and its support mask (unchecked)."""
        return cls.__new__(cls)._set(box, support, tail_norm)

    @classmethod
    def constant(cls, matrix, r, trunc=0):
        """Series with a single coefficient at n = 0."""
        return cls(r, len(matrix), trunc, {(0,) * r: matrix})

    def _core(self):
        """Radius k of the support, and the box and support cut to |n_i| <= k."""
        k = int(np.abs(self._stacked()[0]).max(initial=0))
        core = (slice(self.trunc - k, self.trunc + k + 1),) * self.r
        return k, self._box[core], self._support[core]

    def _stacked(self):
        """Indices (as floats) and coefficients of the support, in sorted order."""
        if self._idx_arr is None:
            self._idx_arr = (np.argwhere(self._support) - self.trunc).astype(float)
            self._coeff_arr = self._box[self._support]
            self._coeff_arr.setflags(write=False)
        return self._idx_arr, self._coeff_arr

    @property
    def coeffs(self):
        """Read-only mapping from index tuples to (d, d) coefficients."""
        if self._coeffs is None:
            idx, arr = self._stacked()
            self._coeffs = MappingProxyType(dict(zip(map(tuple, idx.astype(int).tolist()), arr)))
        return self._coeffs

    def _check_compatible(self, other):
        if not isinstance(other, FourierOperatorSeries):
            raise DimensionMismatch("expected a FourierOperatorSeries")
        if (other.r, other.d) != (self.r, self.d):
            raise DimensionMismatch(
                f"series shapes differ: (r={self.r}, d={self.d}) vs (r={other.r}, d={other.d})")

    def _frequencies(self, omega):
        omega = frequency_vector(omega)
        if omega.size != self.r:
            raise DimensionMismatch(f"frequency vector length {omega.size} != r = {self.r}")
        return omega

    def evaluate(self, omega, t):
        """Evaluate the series at time ``t`` for base frequencies ``omega``."""
        omega = self._frequencies(omega)
        idx, arr = self._stacked()
        return np.tensordot(np.exp(1j * (idx @ omega) * float(t)), arr, axes=(0, 0))

    def evaluate_many(self, omega, ts):
        """Evaluate at every time of ``ts``; returns an array (len(ts), d, d).

        The phases exp(i (n . omega) t) are products of per-axis factors from
        one (times x (2 trunc + 1)) table per axis, contracted with the support
        coefficients in one matrix product per chunk of at most ``_PHASE_CHUNK``
        phase entries (one time at least)."""
        omega = self._frequencies(omega)
        ts = np.asarray(ts, dtype=float).reshape(-1)
        idx, arr = self._stacked()
        out = np.zeros((ts.size, self.d * self.d), dtype=complex)
        slots = idx.T.astype(np.intp) + self.trunc  # column of each term in the axis tables
        axis_freqs = omega[:, None] * np.arange(-self.trunc, self.trunc + 1)
        flat = arr.reshape(len(arr), self.d * self.d)
        rows = max(1, _PHASE_CHUNK // max(1, arr.shape[0]))
        for lo in range(0, ts.size, rows):
            chunk = ts[lo : lo + rows, None]
            phases = np.exp(1j * (chunk * axis_freqs[0]))[:, slots[0]]
            for j in range(1, self.r):
                phases *= np.exp(1j * (chunk * axis_freqs[j]))[:, slots[j]]
            out[lo : lo + rows] = phases @ flat
        return out.reshape(ts.size, self.d, self.d)

    def sampler(self, omega):
        """Return a fast closure t -> A(t) with frequencies bound."""
        omega = self._frequencies(omega)
        idx, arr = self._stacked()
        dots = idx @ omega
        return lambda t: np.tensordot(np.exp(1j * dots * t), arr, axes=(0, 0))

    def product(self, other):
        """Series product (convolution of coefficients) in the box max(trunc,
        other.trunc); dropped mass and the propagated input tails go to the tail."""
        self._check_compatible(other)
        (ka, a, ma), (kb, b, mb) = self._core(), other._core()
        size, axes = (2 * (ka + kb) + 1,) * self.r, tuple(range(self.r))  # room for every index sum
        full = np.fft.ifftn(np.fft.fftn(a, size, axes) @ np.fft.fftn(b, size, axes), axes=axes)
        pairs = np.fft.irfftn(np.fft.rfftn(ma, size, axes) * np.fft.rfftn(mb, size, axes), size, axes)
        # the support is the Minkowski sum of the two; truncate puts what lies outside into the tail
        out = self._from_arrays(full, pairs > 0.5, 0.0).truncate(max(self.trunc, other.trunc))
        out.tail_norm = out.tail_norm + self.tail_norm * other.l1_norm() + other.tail_norm * self.l1_norm()
        return out

    def adjoint(self):
        """Coefficient-wise adjoint: index n maps to -n with A_n^dag (lossless)."""
        flip = (slice(None, None, -1),) * self.r
        adj = self._box[flip].conj().swapaxes(-1, -2)
        return self._from_arrays(adj, self._support[flip], self.tail_norm)

    def derivative(self, omega):
        """Time derivative: coefficient A_n maps to i (n . omega) A_n."""
        omega = self._frequencies(omega)
        grid = np.moveaxis(np.indices(self._support.shape) - self.trunc, 0, -1) @ omega
        # a dropped tail would have carried at most this frequency factor at the box edge
        tail = self.tail_norm * self.trunc * float(np.sum(omega))
        return self._from_arrays((1j * grid)[..., None, None] * self._box, self._support, tail)

    def __add__(self, other):
        self._check_compatible(other)
        trunc = max(self.trunc, other.trunc)
        a, b = self.truncate(trunc), other.truncate(trunc)  # zero-padded, lossless
        return self._from_arrays(a._box + b._box, a._support | b._support, self.tail_norm + other.tail_norm)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        c = complex(scalar)
        return self._from_arrays(c * self._box, self._support, abs(c) * self.tail_norm)

    __rmul__ = __mul__

    def truncate(self, new_trunc):
        """Shrink the box to ``new_trunc``, dropped mass going to the tail, or
        grow it with zeros."""
        if (new_trunc := int(new_trunc)) < 0:
            raise DimensionMismatch(f"bad truncation bound {new_trunc}")
        k = min(new_trunc, self.trunc)  # the boxes share |n_i| <= k
        old, new = ((slice(t - k, t + k + 1),) * self.r for t in (self.trunc, new_trunc))
        box = np.zeros((2 * new_trunc + 1,) * self.r + (self.d, self.d), dtype=complex)
        support = np.zeros(box.shape[: self.r], dtype=bool)
        box[new], support[new] = self._box[old], self._support[old]
        outside = self._support.copy()
        outside[old] = False
        return self._from_arrays(box, support, self.tail_norm + _total(_norms(self._box[outside])))

    def drop_below(self, eps):
        """Remove coefficients with Frobenius norm < eps (mass goes to the tail)."""
        norms = _norms(self._stacked()[1])
        kept = self._support.copy()
        kept[self._support] = norms >= eps
        return self._from_arrays(self._box, kept, self.tail_norm + _total(norms[norms < eps]))

    def coeff(self, n):
        """Coefficient at index ``n`` (zeros if absent)."""
        idx = tuple(int(v) for v in n)
        return self.coeffs[idx].copy() if idx in self.coeffs else np.zeros((self.d, self.d), dtype=complex)

    def indices(self):
        return list(self.coeffs.keys())

    def l1_norm(self):
        """Sum of coefficient Frobenius norms; bounds sup_t ||A(t)||_F."""
        return _total(_norms(self._stacked()[1]))

    def __len__(self):
        return int(np.count_nonzero(self._support))

    def __repr__(self):
        return (f"FourierOperatorSeries(r={self.r}, d={self.d}, trunc={self.trunc}, "
                f"terms={len(self)}, tail={self.tail_norm:.2e})")


def _shells(r, box):
    """Integer points of the box |k_i| <= box, excluding 0, as an (N, r) array
    in shells of increasing Chebyshev radius (lexicographic inside a shell);
    DimensionMismatch before any allocation above ``_MAX_BOX_POINTS`` points."""
    if (2 * box + 1) ** r > _MAX_BOX_POINTS:
        raise DimensionMismatch(f"lattice box {box} at r = {r} has {(2 * box + 1) ** r} points, "
                                f"more than {_MAX_BOX_POINTS}")
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
