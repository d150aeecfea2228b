"""Operator-valued Fourier series on an r-torus and frequency-vector checks.

A series A(t) = sum_n A_n exp(i (n . omega) t), |n_i| <= trunc, is stored as its
support: an integer index array of shape (N, r) in lexicographic order and the
coefficient stack (N, d, d). ``trunc`` is only a bound; no array is sized by it.
A product convolves entry-major (d, d, box) workspaces of radius k, the largest |n_i|
on a support, by FFTs zero-padded to the fast length >= ``2 (k_a + k_b) + 1`` per axis,
so no index sum wraps around, and cropped back; its support is the Minkowski sum
of the supports. A product with a constant matrix multiplies the coefficients one
by one and keeps the support. A padded workspace of more than ``_MAX_BOX_POINTS``
points is refused before it is allocated. Lossy operations add the l1 sum of the
Frobenius norms they drop to ``tail_norm``, a bound on the sup-over-t error;
products add each input's tail times the other's l1 norm, and the two tails' product.
"""

import functools
import math
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatch, Overflow
from .linalg import _norms

# largest (times x terms) phase block that a series evaluation holds at once
_PHASE_CHUNK = 16384
# most lattice points a scan or a series workspace holds
_MAX_BOX_POINTS = 10**6

__all__ = ["FourierOperatorSeries", "joint_sampler", "frequency_vector", "check_rational_independence",
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


def _check_box(r, length, what):
    """DimensionMismatch when a box of ``length`` points per axis holds more than
    ``_MAX_BOX_POINTS`` points, length^r; called before anything is allocated."""
    if (points := length**r) > _MAX_BOX_POINTS:
        raise DimensionMismatch(f"{what} at r = {r} has {points} points, more than {_MAX_BOX_POINTS}")


def _fast_length(n):
    """Smallest length >= n with no prime factor above 7, fast in numpy's FFT: 13 -> 14, 41 -> 42, 25 stays 25."""
    while pow(210, n.bit_length(), n):  # 0 exactly when n divides 210^k, k > log2 n
        n += 1
    return n


def _contract(fa, fb):
    """fa @ fb at every point of two entry-major (d, d, ...) workspaces: row i is the sum over j of
    fa[i, j] fb[j], multiply-adds whose temporaries are (d, ...) slabs (a matmul calls BLAS per point)."""
    fc = np.empty_like(fa)
    for i, row in enumerate(fa):
        fc[i] = row[0] * fb[0]
        for j in range(1, len(fa)):
            fc[i] += row[j] * fb[j]
    return fc


def _total(values):
    """Left-to-right sum, so a tail is the same number a running sum gives."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _evaluate_rows(idx, flat, omega, ts):
    """sum_n exp(i (n . omega) t) flat[n] over index rows ``idx`` (N, r) and coefficient columns ``flat``
    (N, c) at every time of ``ts``, as (len(ts), c), for a valid ``omega``: per-axis factors from a
    (times x r x (2 k + 1)) table, k the largest |n_i|, are multiplied into phases and contracted with
    ``flat`` in one matrix product per chunk of at most ``_PHASE_CHUNK`` phase entries (a time at least).
    Only the columns m > 0 are computed, as cos and sin: column 0 is 1 and column -m is column m
    conjugated, bit for bit exp(i x) but for a zero sine's sign at t = 0, which no sum keeps."""
    k, n_terms = int(np.abs(idx).max(initial=0)), len(idx)
    out = np.zeros((ts.size, flat.shape[1]), dtype=complex)
    slots = idx.T + k  # column of each term in the table
    axis_freqs = omega[:, None] * np.arange(1, k + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # each time's largest phase, in the table's product order
        top = ts * axis_freqs.max(initial=0.0)
    if k and not np.isfinite(top).all():  # its cos and sin would be NaN
        raise Overflow(f"series phase at t = {ts[np.argmin(np.isfinite(top))]} is not finite")
    rows = max(1, _PHASE_CHUNK // max(1, n_terms))
    for lo in range(0, ts.size, rows):
        x = ts[lo : lo + rows, None, None] * axis_freqs  # (times, r, k)
        table = np.empty(x.shape[:2] + (2 * k + 1,), dtype=complex)
        table.real[..., k + 1 :], table.imag[..., k + 1 :] = np.cos(x), np.sin(x)
        table[..., k], table[..., :k] = 1.0, table[..., :k:-1].conj()
        phases = table[:, 0, slots[0]]
        for j in range(1, idx.shape[1]):
            phases *= table[:, j, slots[j]]
        out[lo : lo + rows] = phases @ flat
    return out


class FourierOperatorSeries:
    """Finite operator-valued Fourier series.

    Parameters
    ----------
    r : number of base frequencies (length of every multi-index).
    d : matrix dimension of the coefficients.
    trunc : per-axis truncation bound; every stored index has |n_i| <= trunc.
    coeffs : mapping from index tuples to (d, d) arrays.
    tail_norm : l1 mass already known to be missing from this series, >= 0.
    """

    __slots__ = ("r", "d", "trunc", "tail_norm", "_idx", "_stack", "_coeffs")

    def __init__(self, r, d, trunc, coeffs, tail_norm=0.0):
        if r < 1 or d < 1 or trunc < 0:
            raise DimensionMismatch(f"bad series shape parameters r={r} d={d} trunc={trunc}")
        if not float(tail_norm) >= 0:  # a NaN fails this too
            raise DimensionMismatch(f"series tail_norm {tail_norm} is not a number >= 0")
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
        self._set(trunc, np.array(idx, dtype=np.intp).reshape(-1, r), stack, tail_norm)

    def _set(self, trunc, idx, stack, tail_norm):
        self.r, self.d = idx.shape[1], stack.shape[-1]
        self.trunc, self.tail_norm = int(trunc), float(tail_norm)
        self._idx, self._stack = np.ascontiguousarray(idx), np.ascontiguousarray(stack)
        self._idx.setflags(write=False)
        self._stack.setflags(write=False)
        self._coeffs = None
        return self

    @classmethod
    def _from_rows(cls, trunc, idx, stack, tail_norm):
        """Series from lexicographically sorted index rows and their coefficients (unchecked)."""
        return cls.__new__(cls)._set(trunc, idx, stack, tail_norm)

    @classmethod
    def _from_box(cls, box, support, tail_norm, trunc):
        """Series from the support entries of an entry-major dense box with bound ``trunc`` (unchecked)."""
        k = support.shape[0] // 2
        return cls._from_rows(trunc, np.argwhere(support) - k, box[..., support].transpose(2, 0, 1), tail_norm)

    @classmethod
    def constant(cls, matrix, r, trunc=0):
        """Series with a single coefficient at n = 0."""
        return cls(r, len(matrix), trunc, {(0,) * r: matrix})

    def _radius(self):
        """Largest |n_i| on the support (0 when empty)."""
        return int(np.abs(self._idx).max(initial=0))

    def _dense(self, k):
        """Entry-major workspace box (d, d, 2 k + 1, ...) of radius k >= the support radius:
        the coefficients at their lattice points, zeros elsewhere, and the support mask."""
        box = np.zeros((self.d, self.d) + (2 * k + 1,) * self.r, dtype=complex)
        support = np.zeros(box.shape[2:], dtype=bool)
        pos = tuple((self._idx + k).T)
        box[(..., *pos)], support[pos] = self._stack.transpose(1, 2, 0), True
        return box, support

    @property
    def coeffs(self):
        """Read-only mapping from index tuples to (d, d) coefficients."""
        if self._coeffs is None:
            self._coeffs = MappingProxyType(dict(zip(map(tuple, self._idx.tolist()), self._stack)))
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
        return np.tensordot(np.exp(1j * (self._idx @ omega) * float(t)), self._stack, axes=(0, 0))

    def evaluate_many(self, omega, ts):
        """Evaluate at every time of ``ts``; returns an array (len(ts), d, d) (see _evaluate_rows)."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        flat = self._stack.reshape(len(self), self.d * self.d)
        return _evaluate_rows(self._idx, flat, self._frequencies(omega), ts).reshape(ts.size, self.d, self.d)

    def sampler(self, omega):
        """Return a fast closure t -> A(t) with frequencies bound."""
        dots, stack = self._idx @ self._frequencies(omega), self._stack
        return lambda t: np.tensordot(np.exp(1j * dots * t), stack, axes=(0, 0))

    def product(self, other, *, _spectra=None):
        """Series product (convolution of coefficients) in the box max(trunc,
        other.trunc); dropped mass and the propagated input tails go to the tail.
        The workspace is ``_fast_length(2 (ka + kb) + 1)`` per axis, contracted by ``_contract``.
        ``_spectra``, a dict its caller holds for repeated products with the same
        ``other``, keeps other's transform and mask spectrum per workspace size."""
        self._check_compatible(other)
        ka, kb = self._radius(), other._radius()
        n, what = 2 * (ka + kb) + 1, f"product workspace of radius {ka + kb}"  # room for every index sum
        _check_box(self.r, n, what)  # first, so that the length search stays short
        size, axes, box = (_fast_length(n),) * self.r, tuple(range(-self.r, 0)), (..., *(slice(n),) * self.r)
        _check_box(self.r, size[0], f"{what} padded to {size[0]} points per axis")
        spectra = {} if _spectra is None else _spectra
        if size not in spectra:
            b, mb = other._dense(kb)
            spectra[size] = np.fft.fftn(b, size, axes), np.fft.rfftn(mb, size, axes)
        (a, ma), (fb, fmb) = self._dense(ka), spectra[size]
        full = np.fft.ifftn(_contract(np.fft.fftn(a, size, axes), fb), axes=axes)[box]
        pairs = np.fft.irfftn(np.fft.rfftn(ma, size, axes) * fmb, size, axes)[box]
        # the support is the Minkowski sum of the two; what lies outside the kept box |n|_inf <= trunc
        # goes to the tail, summed in row order, and the rows are gathered from the kept box alone
        trunc, support = max(self.trunc, other.trunc), pairs > 0.5
        kept = (slice(max(ka + kb - trunc, 0), ka + kb + trunc + 1),) * self.r
        outside = support.copy()
        outside[kept] = False
        # (a + ta)(b + tb) - ab = ta b + a tb + ta tb, each bounded by its norms
        tail = (_total(_norms(full[..., outside].transpose(2, 0, 1))) + self.tail_norm * other.l1_norm()
                + other.tail_norm * self.l1_norm() + self.tail_norm * other.tail_norm)
        return self._from_box(full[(..., *kept)], support[kept], tail, trunc)

    def _times(self, m):
        """Right product with a constant matrix, coefficient by coefficient: the
        support is kept and the tail scales by ||m||_F (no FFT)."""
        m = np.asarray(m, dtype=complex)
        if m.shape != (self.d, self.d):
            raise DimensionMismatch(f"constant factor has shape {m.shape}, expected {(self.d, self.d)}")
        if not np.isfinite(m).all():
            raise Overflow("constant factor contains non-finite entries")
        return self._from_rows(self.trunc, self._idx, self._stack @ m, self.tail_norm * float(np.linalg.norm(m)))

    def adjoint(self):
        """Coefficient-wise adjoint: index n maps to -n with A_n^dag (lossless)."""
        adj = self._stack[::-1].conj().swapaxes(-1, -2)  # negation reverses the sorted order
        return self._from_rows(self.trunc, -self._idx[::-1], adj, self.tail_norm)

    def derivative(self, omega):
        """Time derivative: coefficient A_n maps to i (n . omega) A_n."""
        omega = self._frequencies(omega)
        # a dropped tail would have carried at most this frequency factor at the box edge
        tail = self.tail_norm * self.trunc * float(np.sum(omega))
        freqs = 1j * (self._idx @ omega)
        return self._from_rows(self.trunc, self._idx, freqs[:, None, None] * self._stack, tail)

    def __add__(self, other):
        self._check_compatible(other)
        k = max(self._radius(), other._radius())
        _check_box(self.r, 2 * k + 1, f"sum workspace of radius {k}")
        (a, ma), (b, mb) = self._dense(k), other._dense(k)
        return self._from_box(a + b, ma | mb, self.tail_norm + other.tail_norm, max(self.trunc, other.trunc))

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        c = complex(scalar)
        return self._from_rows(self.trunc, self._idx, c * self._stack, abs(c) * self.tail_norm)

    __rmul__ = __mul__

    def truncate(self, new_trunc):
        """Drop the indices beyond ``new_trunc``, their mass going to the tail; a
        larger bound changes only ``trunc``."""
        if (new_trunc := int(new_trunc)) < 0:
            raise DimensionMismatch(f"bad truncation bound {new_trunc}")
        kept = np.abs(self._idx).max(axis=1, initial=0) <= new_trunc
        dropped = _total(_norms(self._stack[~kept]))
        return self._from_rows(new_trunc, self._idx[kept], self._stack[kept], self.tail_norm + dropped)

    def drop_below(self, eps):
        """Remove coefficients with Frobenius norm < eps (mass goes to the tail)."""
        norms = _norms(self._stack)
        kept, dropped = norms >= eps, _total(norms[norms < eps])
        return self._from_rows(self.trunc, self._idx[kept], self._stack[kept], self.tail_norm + dropped)

    def l1_norm(self):
        """Sum of coefficient Frobenius norms; bounds sup_t ||A(t)||_F."""
        return _total(_norms(self._stack))

    def __len__(self):
        return len(self._idx)

    def __repr__(self):
        return (f"FourierOperatorSeries(r={self.r}, d={self.d}, trunc={self.trunc}, "
                f"terms={len(self)}, tail={self.tail_norm:.2e})")


def _on_union(series):
    """The series (one r and d) on the union of their supports: its index rows (N, r) in
    lexicographic order, each series' coefficients on them (N, len(series), d, d), zero
    where a series has no term, and the mask (N, len(series)) of the terms each holds. One
    lexsort puts the stacked rows in order, and each row that differs from the one before
    it starts a new union row."""
    for other in series[1:]:
        series[0]._check_compatible(other)
    stacked = np.vstack([s._idx for s in series])
    order = np.lexsort(stacked.T[::-1])  # the first column is the primary key
    ranked = stacked[order]
    first = np.ones(len(ranked), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    idx, slot = ranked[first], np.empty(len(ranked), dtype=np.intp)
    slot[order] = np.cumsum(first) - 1
    # the union row and the series of each stacked term
    where = slot, np.repeat(np.arange(len(series)), [len(s) for s in series])
    coeffs = np.zeros((len(idx), len(series)) + (series[0].d,) * 2, dtype=complex)
    held = np.zeros(coeffs.shape[:2], dtype=bool)
    coeffs[where], held[where] = np.vstack([s._stack for s in series]), True
    return idx, coeffs, held


def joint_sampler(series, omega):
    """Return a closure ts -> (len(series), len(ts), d, d) with frequencies bound: the
    series (one r and d) from one phase table and one matrix product per chunk, their
    coefficients side by side over the union of their supports (see _evaluate_rows)."""
    idx, coeffs, _ = _on_union(series)
    d, flat, omega = series[0].d, coeffs.reshape(len(idx), -1), series[0]._frequencies(omega)
    return lambda ts: (_evaluate_rows(idx, flat, omega, np.asarray(ts, dtype=float).reshape(-1))
                       .reshape(-1, len(series), d, d).swapaxes(0, 1))


def _shells(r, box):
    """Integer points of the box |k_i| <= box, excluding 0, as an (N, r) array
    in shells of increasing Chebyshev radius (lexicographic inside a shell);
    DimensionMismatch for a box below 1, which would scan nothing, and before
    any allocation above ``_MAX_BOX_POINTS`` points. The radius of every point
    is the elementwise max of the r broadcast axes |k_i|, held in the smallest
    integer type that holds ``box``, whose stable sort is a radix sort; a stable
    sort keeps the lexicographic (row-major) order inside a shell."""
    if box < 1:
        raise DimensionMismatch(f"lattice box {box} is below 1: the scan would hold no point")
    _check_box(r, 2 * box + 1, f"lattice box {box}")
    axis = np.abs(np.arange(-box, box + 1)).astype(np.min_scalar_type(box))
    radius = functools.reduce(np.maximum, np.ix_(*[axis] * r))
    order = np.argsort(radius.reshape(-1), kind="stable")
    # the origin is the only point of radius 0; shifted in place, so no third copy is held
    pts = np.stack(np.unravel_index(order[1:], radius.shape), axis=-1)
    pts -= box
    return pts


def normalize_witness(k):
    """Canonical sign for an integer-relation witness: first nonzero > 0."""
    for v in k:
        if v:
            return tuple(-x for x in k) if v < 0 else tuple(k)
    return tuple(k)


def check_rational_independence(omega, box=12, tol=1e-9, *, _points=None):
    """Scan for integer relations k . omega = 0 within the box.

    Returns None when no |k . omega| < tol * ||omega|| is found for
    0 < max|k_i| <= box, otherwise the first (smallest-shell) witness tuple
    with canonical sign. ``_points`` is ``_shells(r, box)`` if the caller holds it.
    """
    omega = frequency_vector(omega)
    omega = np.ldexp(omega, -np.frexp(omega.max())[1])  # exact: ||omega|| neither overflows nor underflows
    threshold = tol * float(np.linalg.norm(omega))
    pts = _shells(omega.size, box) if _points is None else _points
    hits = np.flatnonzero(np.abs(pts @ omega) < threshold)
    return normalize_witness(tuple(int(v) for v in pts[hits[0]])) if hits.size else None


def sample_times(omega):
    """Quasi-uniform grid of 64 times on [0, 2*pi / min(omega)].

    Uniform spacing with a deterministic golden-ratio stagger so the samples
    are not commensurate with any single base frequency.
    """
    omega = frequency_vector(omega)
    t_max = 2.0 * math.pi / float(np.min(omega))
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    k = np.arange(64.0)
    stagger = 0.5 * np.modf((k + 1.0) * golden)[0]
    return (k + stagger) * (t_max / k.size)
