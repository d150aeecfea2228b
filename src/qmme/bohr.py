"""Spectral decomposition of the averaged Hamiltonian and jump operators.

The averaged (constant) Hamiltonian is diagonalized, h_bar = V diag(e) V^dag,
and its eigenvalues are clustered into quasienergy levels; differences of
quasienergies form the Bohr frequency set. Labelling each eigenvector with
its level and each level pair with its Bohr frequency gives every eigenbasis
entry a frequency, and a coupling operator, moved to the interaction picture
by the unitary series ``p``, splits per Fourier index ``n`` into the masks

    S_{n,w} = sum_{(k,l): e_k - e_l = w} P_k S_hat_n P_l = V (M_w o V^dag S_hat_n V) V^dag,

which satisfy [h_bar, S_{n,w}] = w S_{n,w} and sum over w to S_hat_n. Each
jump operator carries the shifted frequency w + n . omega at which bath
spectra are evaluated. In the eigenbasis an operator of frequency w is
nonzero only at the entries E_w = {(i, j): e_i - e_j = w}, one entry for a
nonzero w of a generic spectrum, and a model's jump operators are stored
once as their values there, the layout the generator sums read.
"""

import functools
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatch, NoConvergence, UnknownFrequency
from .fourier import _on_union, _shells, frequency_vector
from .linalg import _norms, eig_hermitian

__all__ = [
    "BohrDecomposition",
    "decompose",
    "check_congruence_freedom",
    "interaction_picture_coupling_series",
    "JumpOperatorSet",
    "build_jump_operator_set",
]


def _single_linkage(values, atol):
    """Single-linkage clusters of an ascending 1-d array: each entry's label
    (a new cluster starts at every gap above ``atol``) and each cluster's mean."""
    labels = np.concatenate(([0], np.cumsum(np.diff(values) > atol)))
    means = [np.mean(c) for c in np.split(values, np.flatnonzero(np.diff(labels)) + 1)]
    return labels, np.array(means)


@dataclass
class BohrDecomposition:
    """Clustered eigenstructure of the averaged Hamiltonian, as eigenbasis labels.

    The eigenvectors are columns in ascending eigenvalue order; ``levels`` and
    ``pair_frequency`` index ``quasienergies`` and ``bohr_frequencies``, and
    everything else is derived from them. The frequency set is ascending,
    contains 0, and is closed under negation exactly.
    """

    quasienergies: np.ndarray
    bohr_frequencies: np.ndarray
    freq_atol: float
    h_bar: np.ndarray
    eigenvectors: np.ndarray  # (d, d) unitary V
    levels: np.ndarray  # (d,) level of each eigenvector
    pair_frequency: np.ndarray  # (levels, levels) frequency of each difference e_k - e_l

    @property
    def dim(self):
        return self.h_bar.shape[0]

    @functools.cached_property
    def projections(self):
        """Spectral projector of each quasienergy level."""
        v = self.eigenvectors
        return [v[:, self.levels == k] @ v[:, self.levels == k].conj().T for k in range(len(self.quasienergies))]

    @functools.cached_property
    def frequency_entries(self):
        """``frequency_entries[w]``: the eigenbasis entries (I, J) at frequency w, row-major index arrays."""
        entry_frequency = self.pair_frequency[np.ix_(self.levels, self.levels)]
        return [np.nonzero(entry_frequency == w) for w in range(len(self.bohr_frequencies))]

    def frequency_index(self, w):
        """Index of the Bohr frequency nearest ``w`` within ``freq_atol``."""
        diffs = np.abs(self.bohr_frequencies - float(w))
        idx = int(np.argmin(diffs))
        if diffs[idx] > self.freq_atol:
            raise UnknownFrequency(
                f"{w} is not a Bohr frequency (nearest {self.bohr_frequencies[idx]}, "
                f"tolerance {self.freq_atol:.1e})"
            )
        return idx

    def q_omega(self, w, rho):
        """Frequency component of a state, sum_{(k,l) ~ w} P_k rho P_l: its eigenbasis
        entries at w, V[:, I] diag(entries) V[:, J]^dag. Summing over all Bohr
        frequencies returns rho; weighting the sum with exp(-i w t) realizes
        conjugation by exp(-i h_bar t).
        """
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"state shape {rho.shape} != {(self.dim, self.dim)}")
        i, j = self.frequency_entries[self.frequency_index(w)]
        v = self.eigenvectors
        return (v[:, i] * (v.conj().T @ rho @ v)[i, j]) @ v[:, j].conj().T


def decompose(h_bar, tol_cluster=1e-9):
    """Diagonalize and cluster the averaged Hamiltonian.

    Eigenvalues closer than ``tol_cluster`` times the spectral scale are
    merged into one quasienergy level (single linkage); Bohr frequencies are
    the clustered pairwise differences, symmetrized exactly around 0.
    """
    h_bar = np.asarray(h_bar, dtype=complex)
    w, v = eig_hermitian(h_bar)  # w ascending
    scale = float(np.max(np.abs(w))) if w.size and np.max(np.abs(w)) > 0 else 1.0
    atol = tol_cluster * scale

    levels, quasienergies = _single_linkage(w, atol)
    diffs = (quasienergies[:, None] - quasienergies[None, :]).reshape(-1)
    order = np.argsort(diffs, kind="stable")
    labels, reps = _single_linkage(diffs[order], atol)
    pair_frequency = labels[np.argsort(order)].reshape(len(quasienergies), -1)  # back to (k, l) order
    # the differences are exactly antisymmetric, so are the clusters: snap the middle one to 0
    reps[np.abs(reps) <= atol] = 0.0
    reps = 0.5 * (reps - reps[::-1])

    decomp = BohrDecomposition(
        quasienergies=quasienergies,
        bohr_frequencies=reps,
        freq_atol=max(atol, 1e-12),
        h_bar=h_bar,
        eigenvectors=v,
        levels=levels,
        pair_frequency=pair_frequency,
    )
    completeness = np.linalg.norm(sum(decomp.projections) - np.eye(h_bar.shape[0]))
    if completeness > 1e-10:
        raise NoConvergence(f"projector completeness residual {completeness:.3e}")
    return decomp


def check_congruence_freedom(bohr_freqs, omega, box=12, tol=1e-9, *, _points=None):
    """Scan for distinct Bohr frequencies congruent modulo the base lattice.

    Looks for |w - w' - n . omega| < tol with w != w' and 0 < max|n_i| <= box.
    Returns None on pass, otherwise a witness (w, w', n): the first pair in
    pair-major order, with n its first lattice point in shell order, as a
    point-by-point scan finds it. The lattice values n . omega are computed
    and sorted once, and each pair is a binary search. The sort need not be
    stable: a pair's window holds every point of its value range whatever the
    order of equal values, and the witness is the window's first point in
    shell order; ``_points`` is ``_shells(r, box)`` if the caller holds it. Frequency
    vectors failing rational independence should be caught separately; this
    check only inspects distinct frequency pairs.
    """
    bohr_freqs = np.asarray(bohr_freqs, dtype=float).reshape(-1)
    omega = frequency_vector(omega)
    pts = _shells(omega.size, box) if _points is None else _points
    dots = pts @ omega
    order = np.argsort(dots)
    ranked = dots[order]
    targets = bohr_freqs[:, None] - bohr_freqs[None, :]
    # a window of twice the tolerance holds every point the exact test below accepts
    lo = np.searchsorted(ranked, targets - 2 * tol, side="left")
    hi = np.searchsorted(ranked, targets + 2 * tol, side="right")
    candidates = hi > lo
    np.fill_diagonal(candidates, False)  # distinct frequencies only
    for i, j in zip(*np.nonzero(candidates)):  # pair-major order
        near = order[lo[i, j] : hi[i, j]]
        near = near[np.abs(targets[i, j] - dots[near]) < tol]
        if near.size:
            n = tuple(int(v) for v in pts[near.min()])
            return (float(bohr_freqs[i]), float(bohr_freqs[j]), n)
    return None


def interaction_picture_coupling_series(p_series, coupling, *, _spectra=None):
    """Fourier series of p(t)^dag S p(t) for a constant coupling S: p^dag S
    multiplies the coefficients of p^dag by S one by one, so it costs one
    series product, whose ``_spectra`` can hold p's transform across couplings."""
    return p_series.adjoint()._times(coupling).product(p_series, _spectra=_spectra)


@dataclass
class JumpOperatorSet:
    """All jump operators of a model, stored once as their eigenbasis entries.

    A block is a (frequency_index, n) pair that holds at least one operator;
    the blocks are sorted by frequency index first and Fourier index second,
    and the generator sums run in this order. Their keys are the read-only
    arrays ``frequency_index`` (blocks,) and ``fourier_index`` (blocks, r),
    from which the shifted frequencies are taken. ``values[w][b, mu]`` holds
    coupling mu's entries at ``decomp.frequency_entries[w]`` in the b-th block
    of frequency w, zeros where it has no operator, and the mask ``present``
    (blocks, couplings) says which slots are operators (with ``drop_tol=0`` a
    kept operator can be exactly zero); all are read-only. ``stack`` and
    ``ops`` are lab-basis views built on first access.
    """

    decomp: BohrDecomposition
    frequency_index: np.ndarray  # (blocks,) w_idx of each block
    fourier_index: np.ndarray  # (blocks, r) n of each block
    values: tuple  # values[w]: (blocks at w, couplings, |E_w|)
    present: np.ndarray  # (blocks, couplings) bool
    norms: np.ndarray  # (blocks, couplings) Frobenius norm of each operator, its entries' 2-norm

    @functools.cached_property
    def stack(self):
        """Lab-basis operators V[:, I] diag(entries) V[:, J]^dag, read-only (blocks, couplings, d, d)."""
        v = self.decomp.eigenvectors
        stack = np.concatenate([(v[:, i] * x[..., None, :]) @ v[:, j].conj().T
                                for (i, j), x in zip(self.decomp.frequency_entries, self.values)])
        stack[~self.present] = 0.0
        stack.setflags(write=False)
        return stack

    @functools.cached_property
    def ops(self):
        """Read-only mapping (mu, n, w_idx) -> operator in (w_idx, n, mu)
        order, built on first access."""
        b, mu = np.nonzero(self.present)
        mats = self.stack[b, mu]
        mats.setflags(write=False)
        keys = zip(mu.tolist(), map(tuple, self.fourier_index[b].tolist()), self.frequency_index[b].tolist())
        return MappingProxyType(dict(zip(keys, mats)))

    def shifted_frequency(self, n, w_idx, omega):
        return float(self._shifts([w_idx], [n], omega)[0])

    def shifted_frequencies(self, omega):
        """Shifted frequency w + n . omega of each block, as an array."""
        return self._shifts(self.frequency_index, self.fourier_index, omega)

    def _shifts(self, w_idx, n, omega):
        """w + n . omega for each frequency index of ``w_idx`` and Fourier index row
        of ``n``, each dot product as np.dot takes it: one (k, 1, r) @ (r, 1) product."""
        n = np.asarray(n, dtype=float).reshape(len(w_idx), 1, np.size(omega))
        return self.decomp.bohr_frequencies[w_idx] + (n @ np.reshape(omega, (-1, 1))).reshape(-1)


def build_jump_operator_set(decomp, s_hat_list, drop_tol=1e-14):
    """Split every coupling's interaction-picture series into Bohr-frequency
    components and keep their eigenbasis entries by block.

    The Fourier indices are the union of the couplings' supports. The
    coefficients of all couplings are rotated into h_bar's eigenbasis once,
    rot = V^dag S_hat_n V; frequency w's operators are the entries
    rot[..., I, J] at its eigenbasis entries (I, J). An operator is kept when
    its coupling's series holds the index and its Frobenius norm (that of its
    entries, V being unitary) is at least ``drop_tol``; a block is kept when
    it holds one.
    """
    idx, coeffs, held = _on_union(s_hat_list)
    v = decomp.eigenvectors
    rot = v.conj().T @ coeffs @ v
    parts = []  # per frequency: the kept rows, their entries, mask and norms
    for i, j in decomp.frequency_entries:
        x = rot[..., i, j]
        norm = _norms(x[..., None, :]).reshape(held.shape)
        kept = held & (norm >= drop_tol)
        x[~kept] = 0.0
        used = np.flatnonzero(kept.any(axis=1))
        parts.append((used, x[used], kept[used], (norm * kept)[used]))
    rows, values, masks, norms = zip(*parts)
    frequency_index = np.repeat(np.arange(len(rows)), [len(u) for u in rows])
    fourier_index = idx[np.concatenate(rows)]
    present, norms = np.concatenate(masks), np.concatenate(norms)
    for a in (frequency_index, fourier_index, present, norms, *values):
        a.setflags(write=False)
    return JumpOperatorSet(decomp=decomp, frequency_index=frequency_index, fourier_index=fourier_index,
                           values=values, present=present, norms=norms)
