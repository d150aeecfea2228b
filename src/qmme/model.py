"""Model container, bath spectra, Hamiltonian synthesis, and validation.

A reduced model consists of a base frequency vector, a unitary Fourier series
``p`` with ``p(0) = I``, a constant Hermitian operator ``h_bar``, a list of
coupling operators, and a bath spectrum. The lab-frame Hamiltonian it encodes
is recovered by :func:`synthesize_hamiltonian`:

    H(t) = i p'(t) p(t)^dag + p(t) h_bar p(t)^dag.

Bath conventions: ``h(w)`` is the full Fourier transform (with kernel
``exp(-i w x)``) of the bath correlation matrix, evaluated at the shifted
frequency of a jump operator that *raises* the averaged energy by ``w``. For a
thermal bath this places the emission weight at negative arguments, so the
detailed-balance identity reads ``h(w) = exp(-beta w) h(-w)`` and the Gibbs
state of ``h_bar`` is stationary in the time-independent case.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import bohr as _bohr
from .errors import (
    DimensionMismatch,
    NotHermitian,
    NotHermitianZeta,
    NotPSD,
    NotUnitary,
    Overflow,
)
from .fourier import FourierOperatorSeries, _shells, check_rational_independence, frequency_vector
from .linalg import _norms, hermiticity_defect, hermitize

__all__ = [
    "BathSpectrum",
    "bath_from_family",
    "ReducedModel",
    "synthesize_hamiltonian",
    "ValidationReport",
    "validate_model",
    "p_series_from_generator",
    "p_series_from_profile_terms",
]


# ---------------------------------------------------------------------------
# bath spectra
# ---------------------------------------------------------------------------

class BathSpectrum:
    """Matrix-valued bath spectral data over the coupling index.

    ``h_fn`` and ``zeta_fn`` take a 1-d array of distinct real frequencies and
    return the stack (n, n_couplings, n_couplings) of their values; use
    :meth:`from_callables` for callbacks of one frequency. ``h`` must be
    Hermitian PSD at every frequency (Bochner positivity of the correlation
    transform) and ``zeta`` Hermitian. Both are validated at every evaluation
    since user callbacks cannot be checked globally; ``h`` and ``zeta`` are
    batches of one.
    """

    def __init__(self, h_fn, zeta_fn, n_couplings, family="custom", params=None):
        self._h_fn = h_fn
        self._zeta_fn = zeta_fn
        self.n_couplings = int(n_couplings)
        self.family = family
        self.params = dict(params or {})

    def h(self, w):
        return self.h_many([w])[0]

    def zeta(self, w):
        return self.zeta_many([w])[0]

    def h_many(self, ws, tol_psd=1e-12):
        """Checked h at each frequency of ``ws``, stacked (len(ws), m, m); the
        callback sees each distinct frequency once. A negative eigenvalue
        raises NotPSD with the first failing frequency as ``frequency``."""
        g, at, rows = self._checked(self._h_fn, "h", ws, NotHermitian)
        lo = np.linalg.eigvalsh(g)[:, 0]
        bad = np.flatnonzero(lo < -tol_psd * np.maximum(1.0, _norms(g)))
        if bad.size:
            err = NotPSD(f"bath h({float(at[bad[0]])}) has negative eigenvalue {lo[bad[0]]:.3e}")
            err.frequency = float(at[bad[0]])
            raise err
        return g[rows]

    def zeta_many(self, ws):
        """Checked zeta at each frequency of ``ws``, stacked (len(ws), m, m)."""
        z, _, rows = self._checked(self._zeta_fn, "zeta", ws, NotHermitianZeta)
        return z[rows]

    def _checked(self, fn, name, ws, not_hermitian):
        """Hermitized values of ``fn`` at the distinct frequencies of ``ws``,
        in order of first appearance; those frequencies; and the row of each
        frequency of ``ws``. A wrong stack shape raises, and so does the first
        value failing the finiteness or the (relative, 1e-9) Hermiticity check."""
        ws = np.asarray(ws, dtype=float).reshape(-1)
        _, first, inverse = np.unique(ws, return_index=True, return_inverse=True)
        calls = np.argsort(first)
        at = ws[first[calls]]
        shape = (at.size, self.n_couplings, self.n_couplings)
        g = np.asarray(fn(at), dtype=complex)
        if g.shape != shape:
            raise DimensionMismatch(f"bath {name} at {at.size} frequencies has shape {g.shape}, expected {shape}")
        bad = np.flatnonzero(~np.isfinite(g).all(axis=(1, 2)))
        if bad.size:
            raise Overflow(f"bath {name}({float(at[bad[0]])}) contains non-finite entries")
        bad = np.flatnonzero(hermiticity_defect(g) > 1e-9)
        if bad.size:
            raise not_hermitian(f"bath {name}({float(at[bad[0]])}) is not Hermitian")
        return hermitize(g), at, np.argsort(calls)[inverse.reshape(-1)]

    # -- constructors --------------------------------------------------

    @classmethod
    def _diagonal(cls, profile, n_couplings, family, params):
        """Bath with h = profile(w) I over the couplings and zeta = 0."""
        # placed, not multiplied: an infinite profile times the zeros off the diagonal is NaN
        diagonal = np.eye(n_couplings, dtype=bool)
        return cls(lambda ws: np.where(diagonal, profile(ws)[:, None, None], 0.0).astype(complex),
                   lambda ws: np.zeros((ws.size, n_couplings, n_couplings), dtype=complex),
                   n_couplings, family=family, params=params)

    @classmethod
    def flat(cls, gamma, n_couplings):
        """Frequency-independent rate: h(w) = gamma * I, zeta = 0, for gamma >= 0."""
        gamma = float(gamma)
        if not gamma >= 0:
            raise DimensionMismatch(f"flat bath needs gamma >= 0, got {gamma}")
        return cls._diagonal(lambda ws: np.full(ws.size, gamma), n_couplings, "flat", {"gamma": gamma})

    @classmethod
    def ohmic_kms(cls, kappa, cutoff, beta, n_couplings):
        """Ohmic profile with exponential cutoff in thermal detailed balance.

        Scalar profile lifted diagonally over the coupling index:

            h(w) = 2 pi kappa w exp(-|w| / cutoff) / (exp(beta w) - 1),
            h(0) = 2 pi kappa / beta,

        which is positive for all w (0 at kappa = 0) and satisfies
        h(w) = exp(-beta w) h(-w), so jumps that raise the averaged energy are
        exponentially suppressed against those that lower it. The rate
        ``kappa`` may be 0 or more; the scales ``cutoff`` and ``beta`` divide,
        so they must be positive.
        """
        kappa, cutoff, beta = float(kappa), float(cutoff), float(beta)
        if not (kappa >= 0 and cutoff > 0 and beta > 0):
            raise DimensionMismatch(f"ohmic_kms needs kappa >= 0, cutoff > 0 and beta > 0, "
                                    f"got {kappa}, {cutoff}, {beta}")

        def profile(ws):
            scale = 2.0 * math.pi * kappa * np.exp(-np.abs(ws) / cutoff)
            x = beta * ws
            # 0 / 0 where the w -> 0 limit applies; w / inf = 0 where expm1 overflows
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                return np.where(x == 0.0, scale / beta, scale * ws / np.expm1(x))

        return cls._diagonal(profile, n_couplings, "ohmic_kms",
                             {"kappa": kappa, "cutoff": cutoff, "beta": beta})

    @classmethod
    def from_callables(cls, h_fn, zeta_fn=None, n_couplings=1):
        """Bath from callbacks of one frequency, w -> (m, m) matrix, each called
        once per distinct frequency; ``zeta_fn`` defaults to zero. A value of
        the wrong shape raises DimensionMismatch naming its frequency."""
        m = int(n_couplings)
        if zeta_fn is None:
            zero = np.zeros((m, m), dtype=complex)
            zeta_fn = lambda w: zero

        def stacked(fn, name):
            def over(ws):
                vals = [np.asarray(fn(w), dtype=complex) for w in ws.tolist()]
                for w, v in zip(ws.tolist(), vals):
                    if v.shape != (m, m):
                        raise DimensionMismatch(f"bath {name}({w}) has shape {v.shape}, expected {(m, m)}")
                return np.array(vals).reshape(-1, m, m)
            return over

        return cls(stacked(h_fn, "h"), stacked(zeta_fn, "zeta"), m)


# H coefficients below this fraction of H's l1 norm are cancellation residue of the
# products; relative, because H carries the energy units of the model
_H_RESIDUE = 1e-15
# builder(params: dict, n_couplings: int) -> BathSpectrum for each family a model file may name
_BATH_FAMILIES = {
    "flat": lambda p, m: BathSpectrum.flat(p["gamma"], m),
    "ohmic_kms": lambda p, m: BathSpectrum.ohmic_kms(p["kappa"], p["cutoff"], p["beta"], m),
}


def bath_from_family(name, params, n_couplings):
    if name not in _BATH_FAMILIES:
        raise DimensionMismatch(
            f"unknown bath family {name!r}; known: {sorted(_BATH_FAMILIES)}"
        )
    return _BATH_FAMILIES[name](dict(params), n_couplings)


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------

@dataclass
class ReducedModel:
    """A quasiperiodic open-system model in reduced form."""

    frequencies: np.ndarray
    p_series: FourierOperatorSeries
    h_bar: np.ndarray
    couplings: list = field(default_factory=list)
    bath: BathSpectrum = None

    def __post_init__(self):
        self.frequencies = frequency_vector(self.frequencies)
        if not isinstance(self.p_series, FourierOperatorSeries):
            raise DimensionMismatch("p_series must be a FourierOperatorSeries")
        if self.p_series.r != self.frequencies.size:
            raise DimensionMismatch(
                f"p_series has r={self.p_series.r} but {self.frequencies.size} frequencies given"
            )
        self.h_bar = np.asarray(self.h_bar, dtype=complex)
        d = self.p_series.d
        if self.h_bar.shape != (d, d):
            raise DimensionMismatch(f"h_bar shape {self.h_bar.shape} != {(d, d)}")
        if not np.all(np.isfinite(self.h_bar)):
            raise Overflow("h_bar contains non-finite entries")
        self.couplings = [np.asarray(s, dtype=complex) for s in self.couplings]
        if not self.couplings:
            raise DimensionMismatch("at least one coupling operator is required")
        for i, s in enumerate(self.couplings):
            if s.shape != (d, d):
                raise DimensionMismatch(f"coupling {i} has shape {s.shape}, expected {(d, d)}")
            if not np.all(np.isfinite(s)):
                raise Overflow(f"coupling {i} contains non-finite entries")
        if not isinstance(self.bath, BathSpectrum):
            raise DimensionMismatch("bath must be a BathSpectrum")
        if self.bath.n_couplings != len(self.couplings):
            raise DimensionMismatch(
                f"bath covers {self.bath.n_couplings} couplings, model has {len(self.couplings)}"
            )

    @property
    def dim(self):
        return self.p_series.d



# ---------------------------------------------------------------------------
# Hamiltonian synthesis
# ---------------------------------------------------------------------------

def _require_unitary(p_series, tol_unitary):
    """NotUnitary unless p's bound over all t, ``unitarity_bound``, is at most ``tol_unitary``."""
    if not (bound := p_series.unitarity_bound()) <= tol_unitary:
        raise NotUnitary(f"p series unitarity bound {bound:.3e} > {tol_unitary:.1e}")


def synthesize_hamiltonian(p_series, omega, h_bar, tol_unitary=1e-9):
    """Fourier series of H(t) = (i p'(t) + p(t) h_bar) p(t)^dag.

    ``p h_bar`` multiplies p's coefficients by h_bar one by one, so H costs one
    series product. Raises NotUnitary if p's unitarity bound over all t
    exceeds ``tol_unitary`` and Overflow if the tail is not finite (the
    coefficients' norms overflow). The tail holds the product tail and the coefficients
    below ``_H_RESIDUE`` times H's l1 norm, which are dropped. The returned
    series is Hermitian-valued up to the reported tail mass.
    """
    omega = frequency_vector(omega)
    h_bar = np.asarray(h_bar, dtype=complex)
    _require_unitary(p_series, tol_unitary)
    h_series = (1j * p_series.derivative(omega) + p_series._times(h_bar)).product(p_series.adjoint())
    h_series = h_series.drop_below(_H_RESIDUE * h_series.l1_norm())
    if not math.isfinite(h_series.tail_norm):
        raise Overflow(f"synthesized Hamiltonian tail {h_series.tail_norm} is not finite")
    return h_series


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    """Outcome of the model admissibility checks.

    ``independence_witness`` and ``congruence_witness`` are None on pass;
    otherwise they carry the violating integer vector (and frequency pair).
    ``unitarity_residual`` is p's bound over all t (``unitarity_bound``), and
    ``decomposition`` h_bar's ``bohr.decompose`` (None when h_bar fails its
    Hermiticity check), which a validated build reuses.
    """

    independence_witness: object
    unitarity_residual: float
    p0_residual: float
    hbar_hermiticity: float
    congruence_witness: object
    bohr_frequencies: np.ndarray
    tol_unitary: float
    tol_herm: float
    decomposition: object = None

    @property
    def independence_ok(self):
        return self.independence_witness is None

    @property
    def unitarity_ok(self):
        return self.unitarity_residual <= self.tol_unitary and self.p0_residual <= self.tol_unitary

    @property
    def hermiticity_ok(self):
        return self.hbar_hermiticity <= self.tol_herm

    @property
    def congruence_ok(self):
        return self.congruence_witness is None

    @property
    def passed(self):
        return (
            self.independence_ok
            and self.unitarity_ok
            and self.hermiticity_ok
            and self.congruence_ok
        )

    def to_dict(self):
        def _wit(w):
            if w is None:
                return None
            wa, wb, n = w
            return {
                "frequency_a": float(wa),
                "frequency_b": float(wb),
                "lattice_vector": [int(v) for v in n],
            }

        return {
            "passed": bool(self.passed),
            "rational_independence": {
                "passed": bool(self.independence_ok),
                "witness": None if self.independence_witness is None
                else [int(v) for v in self.independence_witness],
            },
            "unitarity": {
                "passed": bool(self.unitarity_ok),
                "residual": float(self.unitarity_residual),
                "p0_residual": float(self.p0_residual),
            },
            "hbar_hermiticity": {
                "passed": bool(self.hermiticity_ok),
                "relative_defect": float(self.hbar_hermiticity),
            },
            "congruence_freedom": {
                "passed": bool(self.congruence_ok),
                "witness": _wit(self.congruence_witness),
            },
            "bohr_frequencies": self.bohr_frequencies,
        }


def validate_model(model, box=12, tol_independence=1e-9, tol_congruence=1e-9,
                   tol_unitary=1e-9, tol_herm=1e-10, tol_cluster=1e-9):
    """Check the model admissibility conditions and report every verdict.

    Checks: rational independence of the base frequencies within the integer
    box; unitarity of ``p`` at every t, by its bound, and ``p(0) = I``; Hermiticity
    of ``h_bar``; congruence freedom of the Bohr frequency set (no two
    distinct Bohr frequencies differ by a nonzero integer combination of the
    base frequencies within tolerance).
    """
    pts = _shells(model.frequencies.size, box)  # one lattice for both scans
    witness = check_rational_independence(model.frequencies, box=box, tol=tol_independence, _points=pts)
    # p(0) is the sum of the coefficients, contracted as evaluate contracts its phases: no frequency times 0
    p0 = np.tensordot(np.ones(len(model.p_series)), model.p_series._stack, axes=(0, 0))
    p0_res = float(np.linalg.norm(p0 - np.eye(model.dim), 2))
    herm = hermiticity_defect(model.h_bar)
    if herm <= tol_herm:
        decomp = _bohr.decompose(hermitize(model.h_bar), tol_cluster=tol_cluster)
        bohr_freqs = decomp.bohr_frequencies
        congruence = _bohr.check_congruence_freedom(
            bohr_freqs, model.frequencies, box=box, tol=tol_congruence, _points=pts
        )
    else:
        decomp, bohr_freqs, congruence = None, np.zeros(0), None
    return ValidationReport(
        independence_witness=witness,
        unitarity_residual=model.p_series.unitarity_bound(),
        p0_residual=p0_res,
        hbar_hermiticity=herm,
        congruence_witness=congruence,
        bohr_frequencies=bohr_freqs,
        tol_unitary=tol_unitary,
        tol_herm=tol_herm,
        decomposition=decomp,
    )


# ---------------------------------------------------------------------------
# building p from a periodic generator
# ---------------------------------------------------------------------------

_TAYLOR_REMAINDER = 1e-18  # the Taylor sum of p stops once its remainder bound is below this
# largest l1 norm L of the generator -iA: the Taylor terms of exp(-iA) reach about
# e^L / sqrt(2 pi L) before they cancel, so at e^L > 1 / eps rounding leaves no digit of p
_MAX_GENERATOR_NORM = 36.0


def p_series_from_generator(terms, r, trunc, drop_eps=1e-15):
    """Build p(theta) = exp(-i A(theta)), A = sum_j a_j profile_j(k_j . theta) G_j,
    as a Fourier series in the box ``trunc``.

    Each term is a dict with keys ``profile`` ('sin' or 'cos_minus_one'),
    ``index`` (k_j, a length-r integer vector within the box), ``amplitude``
    (a_j, real) and ``matrix`` (G_j, Hermitian). Both profiles vanish at
    theta = 0, so p(0) = I. -iA is a series of at most three terms per
    profile, and p is its Taylor sum in the series algebra, stopped at the
    first K whose remainder bound L^(K+1) / (K+1)! / (1 - L / (K+2)) is below
    ``_TAYLOR_REMAINDER``, L the l1 norm of A. The tail is that bound, plus
    the mass the products moved out of the box and the coefficients below
    ``drop_eps``: an upper bound on the l1 distance to exp(-iA), rounding aside.
    """
    if not terms:
        raise DimensionMismatch("at least one generator term is required")
    if trunc < 0:
        raise DimensionMismatch(f"bad truncation bound {trunc}")
    d = np.shape(terms[0]["matrix"])[0]
    coeffs = {}  # -iA
    for td in terms:
        g = np.asarray(td["matrix"], dtype=complex)
        if g.shape != (d, d):
            raise DimensionMismatch(f"generator term has shape {g.shape}, expected {(d, d)}")
        if hermiticity_defect(g) > 1e-12:
            raise NotHermitian("generator matrices must be Hermitian")
        g, a, k = hermitize(g), float(td["amplitude"]), tuple(int(v) for v in td["index"])
        if td["profile"] == "sin":  # -i a sin(x) = -(a/2) e^{ix} + (a/2) e^{-ix}
            parts = ((k, -0.5 * a), (tuple(-v for v in k), 0.5 * a))
        elif td["profile"] == "cos_minus_one":  # -i a (cos(x) - 1) = -(i a/2) (e^{ix} + e^{-ix}) + i a
            parts = ((k, -0.5j * a), (tuple(-v for v in k), -0.5j * a), ((0,) * len(k), 1j * a))
        else:
            raise DimensionMismatch(f"unknown profile kind {td['profile']!r}; use 'sin' or 'cos_minus_one'")
        for n, c in parts:
            coeffs[n] = coeffs.get(n, 0.0) + c * g
    gen = FourierOperatorSeries(r, d, trunc, coeffs)
    norm = gen.l1_norm()
    if norm > _MAX_GENERATOR_NORM:
        raise Overflow(f"generator l1 norm {norm:.3e} exceeds {_MAX_GENERATOR_NORM}: the Taylor "
                       "terms of exp(-iA) would cancel away every digit of p")

    total = term = FourierOperatorSeries.constant(np.eye(d), r, trunc)
    k, bound = 0, norm  # bound = L^(k+1) / (k+1)!
    spectra = {}  # -iA transformed once per workspace size
    while norm >= k + 2 or bound / (1.0 - norm / (k + 2)) >= _TAYLOR_REMAINDER:
        k += 1
        term = (1.0 / k) * term.product(gen, _spectra=spectra)
        total = total + term
        bound *= norm / (k + 1)
    total.tail_norm += bound / (1.0 - norm / (k + 2))
    return total.drop_below(drop_eps)


p_series_from_profile_terms = p_series_from_generator  # the old name, kept because perfbench/workloads.py calls it
