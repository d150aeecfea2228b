"""Stability, limit cycles, and complete-positivity certification.

The constant generator of an admissible model has spectrum in the closed left
half-plane, contains 0, and is symmetric under conjugation. Eigenvalues split
into the kernel, a purely imaginary set (persistent oscillations), and a
strictly decaying set. The asymptotic state follows by dropping the decaying
part of the initial state's eigen-expansion and transporting the rest with
the unitary conjugation; it is quasiperiodic exactly when the purely
imaginary set is empty.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import Defective, DimensionMismatch, InsufficientDecay, SpectralViolation
from .linalg import (
    Superoperator,
    _norms,
    choi_min_eigenvalue,
    devectorize,
    eigensystem,
    hermitize,
    trace_norm,
    vectorize,
)

__all__ = [
    "StabilityReport",
    "spectrum_classification",
    "positive_invariant",
    "LimitCycle",
    "limit_cycle",
    "DecayFit",
    "decay_rate_fit",
    "CPTPCertificate",
    "cptp_certificate",
]

_WEIGHT_FLOOR = 1e-8  # modes weighted below this fraction of the largest count as absent from rho0
_FIT_FLOOR = 1e-8  # the decay fit ends above this times max(1, initial distance), clear of rounding


def _classify(w, tol_spec):
    """Masks (zero, oscillatory, decaying) after snapping tiny real parts."""
    re = np.where(np.abs(w.real) <= tol_spec, 0.0, w.real)
    zero = (re == 0.0) & (np.abs(w.imag) <= tol_spec)
    osc = (re == 0.0) & (np.abs(w.imag) > tol_spec)
    dec = re < 0.0
    return re, zero, osc, dec


@dataclass
class StabilityReport:
    """Classified spectrum of the constant generator."""

    eigenvalues: np.ndarray  # snapped, sorted by (Re, Im)
    raw_eigenvalues: np.ndarray
    k0: int
    oscillatory_indices: list
    decaying_indices: list
    eigvec_cond: float
    diagonalizable: bool
    quasiperiodic_steady_state: bool
    decay_rate: float  # max |Re| over the decaying set (None if empty)
    slowest_decay_rate: float  # min |Re| over the decaying set (None if empty)
    conjugation_defect: float
    tol_spec: float

    def to_dict(self):
        return {
            "eigenvalues": self.eigenvalues,
            "k0": int(self.k0),
            "n_oscillatory": len(self.oscillatory_indices),
            "n_decaying": len(self.decaying_indices),
            "eigvec_cond": float(self.eigvec_cond),
            "diagonalizable": bool(self.diagonalizable),
            "quasiperiodic_steady_state": bool(self.quasiperiodic_steady_state),
            "decay_rate": None if self.decay_rate is None else float(self.decay_rate),
            "slowest_decay_rate": None
            if self.slowest_decay_rate is None
            else float(self.slowest_decay_rate),
            "conjugation_defect": float(self.conjugation_defect),
            "tol_spec": float(self.tol_spec),
        }


def spectrum_classification(x, tol_spec=1e-9):
    """Classify the generator spectrum and verify its structural guarantees.

    Raises SpectralViolation when an eigenvalue has real part above
    ``tol_spec``, when no eigenvalue sits at 0, or when the spectrum is not
    conjugation-symmetric within ``tol_spec``. ``diagonalizable`` is
    ``linalg.eigensystem``'s verdict on the eigenvectors.
    """
    w, _, vinv, cond = eigensystem(x.matrix if isinstance(x, Superoperator) else x)
    # a conjugate pair sorts on its mean real part, the same bits for both, then on Im
    dist = np.abs(w[:, None] - np.conj(w)[None, :])
    mate = np.argmin(dist, axis=1)
    order = np.lexsort((w.imag, 0.5 * (w.real + w.real[mate])))
    w = w[order]

    worst_re = float(np.max(w.real))
    if worst_re > tol_spec:
        raise SpectralViolation(
            f"generator eigenvalue with positive real part {worst_re:.3e} > {tol_spec:.1e}"
        )
    re, zero, osc, dec = _classify(w, tol_spec)
    k0 = int(np.count_nonzero(zero))
    if k0 == 0:
        raise SpectralViolation("generator spectrum does not contain 0")
    conj_defect = float(np.max(dist[np.arange(w.size), mate]))
    if conj_defect > tol_spec:
        raise SpectralViolation(
            f"spectrum not conjugation-symmetric: defect {conj_defect:.3e}"
        )
    snapped = re + 1j * w.imag
    dec_rates = np.abs(re[dec])
    return StabilityReport(
        eigenvalues=snapped,
        raw_eigenvalues=w,
        k0=k0,
        oscillatory_indices=[int(i) for i in np.nonzero(osc)[0]],
        decaying_indices=[int(i) for i in np.nonzero(dec)[0]],
        eigvec_cond=cond,
        diagonalizable=vinv is not None,
        quasiperiodic_steady_state=bool(np.count_nonzero(osc) == 0),
        decay_rate=float(np.max(dec_rates)) if dec_rates.size else None,
        slowest_decay_rate=float(np.min(dec_rates)) if dec_rates.size else None,
        conjugation_defect=conj_defect,
        tol_spec=float(tol_spec),
    )


def positive_invariant(x):
    """A PSD trace-one element of the generator kernel.

    Applies the spectral projector onto the kernel (eigenvalues within 1e-9)
    to the maximally mixed state; since time averages of the (completely
    positive) flow converge to exactly this projection, the result is PSD up
    to rounding. Returns the matrix and its minimum eigenvalue; Defective
    when ``linalg.eigensystem`` gives no eigenvector inverse.
    """
    w, v, vinv, cond = eigensystem(x.matrix if isinstance(x, Superoperator) else x)
    if vinv is None:
        raise Defective(f"eigenvector condition number {cond:.3e} too large for eigen-expansion")
    _, zero, _, _ = _classify(w, 1e-9)
    sel = np.nonzero(zero)[0]
    d = int(round(math.sqrt(w.size)))
    proj = v[:, sel] @ vinv[sel, :]
    phi = hermitize(devectorize(proj @ vectorize(np.eye(d) / d)))
    min_eig = float(np.linalg.eigvalsh(phi)[0])
    return phi, min_eig


@dataclass
class LimitCycle:
    """Asymptotic trajectory of one initial state.

    ``states_at(ts)`` evaluates

        p(t) [ sum_j c_j exp(xi_j t) phi_j ] p(t)^dag

    over the retained (kernel + oscillatory) modes. ``decay_rates`` and
    ``decay_weights`` describe the discarded decaying modes of this initial
    state, for rate diagnostics.
    """

    exponents: np.ndarray  # retained xi_j (0 or purely imaginary, snapped)
    coefficients: np.ndarray  # retained c_j
    mode_matrices: list  # retained phi_j as d x d arrays
    quasiperiodic: bool
    reconstruction_residual: float
    decay_rates: np.ndarray
    decay_weights: np.ndarray
    _dmap: object

    def states_at(self, ts):
        """Cycle states at every time of ``ts``, p evaluated once per grid."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        d = self._dmap.dim
        weights = np.exp(np.outer(ts, self.exponents)) * self.coefficients
        base = np.tensordot(weights, np.reshape(self.mode_matrices, (-1, d, d)), axes=1)
        p = self._dmap.frames(ts)
        return p @ base @ p.conj().transpose(0, 2, 1)

    def to_dict(self):
        return {
            "exponents": self.exponents,
            "coefficients": self.coefficients,
            "mode_matrices": self.mode_matrices,
            "quasiperiodic": bool(self.quasiperiodic),
            "reconstruction_residual": float(self.reconstruction_residual),
            "decay_rates": self.decay_rates,
            "decay_weights": self.decay_weights,
        }


def limit_cycle(dmap, rho0, tol_spec=1e-9):
    """Expand an initial state in generator eigenmodes and keep what survives.

    Requires a diagonalizable generator (Defective otherwise). The retained
    part preserves trace and Hermiticity of a density-matrix input up to
    rounding; the limit cycle is quasiperiodic iff no oscillatory mode exists
    in the spectrum.
    """
    w, v, vinv = dmap.eigensystem()
    rho0 = np.asarray(rho0, dtype=complex)
    c = vinv @ vectorize(rho0)
    re, zero, osc, dec = _classify(w, tol_spec)
    keep = np.nonzero(zero | osc)[0]
    exponents = np.where(zero, 0.0, 1j * w.imag)[keep]
    modes = list(devectorize(v[:, keep].T))

    residual = float(np.linalg.norm(v @ c - vectorize(rho0)))

    rates = np.abs(re[dec])
    weights = np.abs(c[dec]) * np.linalg.norm(v[:, dec], axis=0)
    return LimitCycle(
        exponents=exponents,
        coefficients=c[keep],
        mode_matrices=modes,
        quasiperiodic=bool(np.count_nonzero(osc) == 0),
        reconstruction_residual=residual,
        decay_rates=rates,
        decay_weights=weights,
        _dmap=dmap,
    )


@dataclass
class DecayFit:
    """Least-squares asymptotic decay rate versus the spectral prediction."""

    fitted_rate: float
    expected_rate: float
    relative_error: float
    window: tuple
    n_points: int

    def to_dict(self):
        return {
            "fitted_rate": float(self.fitted_rate),
            "expected_rate": float(self.expected_rate),
            "relative_error": float(self.relative_error),
            "window": [int(self.window[0]), int(self.window[1])],
            "n_points": int(self.n_points),
        }


def decay_rate_fit(dmap, cycle, rho0, ts):
    """Fit the decay of the distance to the limit cycle.

    Fits a line to log ||rho_t - cycle(t)||_1 over the window from the first
    time the distance drops below 10% of its initial value to the last time
    it exceeds ``_FIT_FLOOR`` times max(1, initial distance), where rounding
    is still a negligible share of it, and compares the slope against
    the slowest decaying mode present in the initial state's expansion.
    Raises InsufficientDecay when the distance never falls below 1e-3 or when
    the state is already converged.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    if ts.size == 0:
        raise InsufficientDecay("the time grid is empty")
    gaps = dmap.evolve(rho0, ts) - cycle.states_at(ts)
    dists = trace_norm(gaps)

    if float(np.min(dists)) > 1e-3:
        raise InsufficientDecay(
            f"distance to the limit cycle never falls below 1e-3 (min {np.min(dists):.3e})"
        )
    d0 = float(dists[0])
    floor = _FIT_FLOOR * max(1.0, d0)
    if d0 <= floor:
        raise InsufficientDecay("initial state is already on the limit cycle")

    below = np.nonzero(dists < 0.1 * d0)[0]
    above = np.nonzero(dists > floor)[0]
    if below.size == 0 or above.size == 0 or above[-1] <= below[0]:
        raise InsufficientDecay("no usable fitting window")
    i0, i1 = int(below[0]), int(above[-1])
    window_t = ts[i0 : i1 + 1]
    window_d = dists[i0 : i1 + 1]
    if window_t.size < 4:
        raise InsufficientDecay(f"fitting window has only {window_t.size} points")
    slope = float(np.polyfit(window_t, np.log(window_d), 1)[0])
    fitted = -slope

    big = cycle.decay_weights > _WEIGHT_FLOOR * max(
        1.0, float(np.max(cycle.decay_weights, initial=0.0))
    )
    if not np.any(big):
        raise InsufficientDecay("initial state contains no decaying component")
    expected = float(np.min(cycle.decay_rates[big]))
    rel = abs(fitted - expected) / expected
    return DecayFit(
        fitted_rate=fitted,
        expected_rate=expected,
        relative_error=rel,
        window=(i0, i1),
        n_points=int(window_t.size),
    )


@dataclass
class CPTPCertificate:
    """Complete-positivity and trace-preservation evidence on a time sample."""

    time_rows: list
    pair_rows: list
    worst_choi_eig: float
    worst_trace_defect: float
    worst_hermiticity_defect: float
    tol_choi: float
    tol_trace: float

    @property
    def passed(self):
        return (
            self.worst_choi_eig >= -self.tol_choi
            and self.worst_trace_defect <= self.tol_trace
        )

    def to_dict(self):
        return {
            "passed": bool(self.passed),
            "worst_choi_eig": float(self.worst_choi_eig),
            "worst_trace_defect": float(self.worst_trace_defect),
            "worst_hermiticity_defect": float(self.worst_hermiticity_defect),
            "tol_choi": float(self.tol_choi),
            "tol_trace": float(self.tol_trace),
            "times": self.time_rows,
            "propagator_pairs": self.pair_rows,
        }


def cptp_certificate(dmap, ts=None, n_pairs=20, seed=7, tol_choi=1e-10, tol_trace=1e-12):
    """Certify the map (and sampled two-time propagators) as CPTP.

    For each sample time: smallest Choi eigenvalue, trace-preservation defect
    of the superoperator, and a Hermiticity-preservation defect on seeded
    random inputs. Random (s, t) pairs certify the interpolating propagators.
    Each superoperator comes from ``dmap.at`` or ``dmap.propagator``; the rows
    are computed on their stack at once, from the seeded draws of a row-by-row
    pass: the probes of every time row, then per pair its times and probes.
    """
    if ts is None:
        ts = np.logspace(-3, math.log10(50.0), 20)
    ts = np.asarray(ts, dtype=float).reshape(-1)
    if ts.size == 0:
        raise DimensionMismatch("the certificate needs at least one sample time")
    rng = np.random.default_rng(seed)
    d = dmap.dim

    def probes():
        return [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(3)]

    labels = [{"t": float(t)} for t in ts]
    maps = [dmap.at(t).matrix for t in ts]
    inputs = [probes() for _ in ts]
    horizon = float(ts[-1])
    for _ in range(int(n_pairs)):
        a, b = sorted(rng.uniform(0.0, horizon, size=2))
        labels.append({"s": float(a), "t": float(b)})
        maps.append(dmap.propagator(b, a).matrix)
        inputs.append(probes())

    m = np.stack(maps)
    min_eig, choi_herm = choi_min_eigenvalue(m)
    eye_vec = vectorize(np.eye(d))
    trace = np.max(np.abs(m.conj().swapaxes(-1, -2) @ eye_vec - eye_vec), axis=-1)
    # each row maps its probes A and A^dag
    a = np.array(inputs)
    vecs = vectorize(np.stack([a, a.conj().swapaxes(-1, -2)], axis=2))
    images = devectorize((m[:, None, None] @ vecs[..., None])[..., 0])
    fwd, bwd = images[:, :, 0], images[:, :, 1]
    herm = _norms(bwd - fwd.conj().swapaxes(-1, -2)).reshape(-1, 3).max(axis=1)
    rows = [dict(label, choi_min_eig=float(e), trace_defect=float(t), hermiticity_defect=float(h),
                 choi_hermiticity=float(c)) for label, e, t, h, c in zip(labels, min_eig, trace, herm, choi_herm)]
    time_rows, pair_rows = rows[: ts.size], rows[ts.size :]
    return CPTPCertificate(
        time_rows=time_rows,
        pair_rows=pair_rows,
        worst_choi_eig=float(min(r["choi_min_eig"] for r in rows)),
        worst_trace_defect=float(max(r["trace_defect"] for r in rows)),
        worst_hermiticity_defect=float(max(r["hermiticity_defect"] for r in rows)),
        tol_choi=float(tol_choi),
        tol_trace=float(tol_trace),
    )
