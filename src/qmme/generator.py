"""Assembly of the constant generator from jump operators and bath data.

With jump operators S_{mu,n,w} carrying shifted frequencies w_n = w + n . omega,
the pieces are

    delta_h    = sum zeta_{mu nu}(w_n) S_{mu,n,w}^dag S_{nu,n,w}
    dissipator = sum h_{mu nu}(w_n) ( S_{nu,n,w} rho S_{mu,n,w}^dag
                  - (1/2) { S_{mu,n,w}^dag S_{nu,n,w}, rho } )
    X          = -i [h_bar + delta_h, . ] + dissipator.

Both sums are array contractions, with no loop over terms. The jump
operators are stacked as S with shape (blocks, couplings, d, d), one block
per (frequency, Fourier index) and zeros where a coupling has no operator;
the bath matrices are stacked as c with shape (blocks, couplings, couplings).
With CS_mu = sum_nu c_{mu nu} S_nu per block (Kossakowski form, Breuer &
Petruccione ch. 3):

    delta_h    = sum S_mu^dag CS_mu                      (c = zeta)
    dissipator = sum conj(S_mu) (x) CS_mu - (1/2) (I (x) A + A^T (x) I),
                 A = sum S_mu^dag CS_mu                  (c = h),

where the sums run over blocks and couplings. The sandwich term is one
matrix product over the stacked operators, reshuffled into d^2 x d^2, and the
anticommutator collapses to the single d x d matrix A.

``cross_check_selection_rule`` rebuilds the generator from the raw double sum
over *pairs* of jump operators, keeping every pair whose shifted frequencies
agree within a numerical delta. When the admissibility assumptions hold, only
identical pairs survive and the double sum collapses onto the generator above;
a congruence violation leaves extra resonant pairs and a visible deviation.
It keeps its loop over pairs, accumulated with compensated (Kahan)
summation, as the reference that shares no arithmetic with the contractions.
"""

from dataclasses import dataclass

import numpy as np

from .bohr import (
    build_jump_operator_set,
    decompose,
    interaction_picture_coupling_series,
)
from .errors import InadmissibleModel, NotHermitian, NotPSD
from .linalg import Superoperator, ad_superop, hermiticity_defect, hermitize
from .model import validate_model

__all__ = [
    "GeneratorBundle",
    "build_lamb_shift",
    "build_dissipator",
    "assemble_x",
    "build_generator",
    "cross_check_selection_rule",
    "CovarianceCheck",
    "check_covariance",
]


class _KahanSum:
    """Elementwise compensated summation for complex arrays."""

    def __init__(self, shape):
        self._sum = np.zeros(shape, dtype=complex)
        self._comp = np.zeros(shape, dtype=complex)

    def add(self, x):
        y = x - self._comp
        t = self._sum + y
        self._comp = (t - self._sum) - y
        self._sum = t

    def total(self):
        return self._sum.copy()


def _stacked_operators(jumps):
    """Block keys and the jump operators as an array (blocks, couplings, d, d)."""
    keys = jumps.block_keys()
    row = {key: b for b, key in enumerate(keys)}
    d = jumps.decomp.dim
    s = np.zeros((len(keys), jumps.n_couplings, d, d), dtype=complex)
    for (mu, n, w_idx), op in jumps.ops.items():
        s[row[(w_idx, n)], mu] = op
    return keys, s


def _weighted(blocks, s):
    """CS_mu = sum_nu c_{mu nu} S_nu per block, for bath matrices ``blocks``."""
    n_blocks, m = s.shape[:2]
    c = np.array(list(blocks.values()), dtype=complex).reshape(n_blocks, m, m)
    return np.einsum("bmn,bnij->bmij", c, s)


def _dagger_sum(s_conj, cs):
    """sum over blocks and couplings of S_mu^dag CS_mu, a d x d matrix, from
    the stacks conj(S) and CS."""
    d = cs.shape[-1]
    return s_conj.reshape(-1, d).T @ cs.reshape(-1, d)


def build_lamb_shift(jumps, bath, omega, tol_herm=1e-9):
    """Hermitian energy-shift operator from the principal-value bath data.

    Returns the shift matrix together with the zeta blocks used, keyed by
    (frequency_index, n).
    """
    keys, s = _stacked_operators(jumps)
    zeta_blocks = {
        (w_idx, n): bath.zeta(jumps.shifted_frequency(n, w_idx, omega), tol_herm=tol_herm)
        for (w_idx, n) in keys
    }
    delta_h = _dagger_sum(s.conj(), _weighted(zeta_blocks, s))
    defect = hermiticity_defect(delta_h)
    if defect > 1e-12:
        raise NotHermitian(f"energy shift is not Hermitian: relative defect {defect:.3e}")
    return delta_h, zeta_blocks


def build_dissipator(jumps, bath, omega, tol_psd=1e-12):
    """Dissipative part as a superoperator, plus its Kossakowski blocks.

    Each block is the bath matrix h evaluated at one shifted frequency; a
    negative eigenvalue beyond tolerance raises NotPSD naming the offending
    block.
    """
    keys, s = _stacked_operators(jumps)
    blocks = {}
    shifted_map = {}
    for (w_idx, n) in keys:
        shifted = jumps.shifted_frequency(n, w_idx, omega)
        try:
            g = bath.h(shifted, tol_psd=tol_psd)
        except NotPSD as exc:
            raise NotPSD(
                f"Kossakowski block at (n={n}, frequency_index={w_idx}, "
                f"shifted={shifted:.6g}) failed: {exc}"
            ) from exc
        blocks[(w_idx, n)] = g
        shifted_map[(w_idx, n)] = shifted
    gs = _weighted(blocks, s)
    s_conj = s.conj()
    d = jumps.decomp.dim
    # sum conj(S_mu) (x) GS_mu: entry ((a, c), (x, e)) of the product, moved to ((a, x), (c, e))
    sandwich = s_conj.reshape(-1, d * d).T @ gs.reshape(-1, d * d)
    sandwich = sandwich.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    a = _dagger_sum(s_conj, gs)
    eye = np.eye(d)
    return Superoperator(sandwich - 0.5 * (np.kron(eye, a) + np.kron(a.T, eye))), blocks, shifted_map


def assemble_x(h_bar, delta_h, dissipator):
    """Constant generator X = -i [h_bar + delta_h, . ] + dissipator."""
    h_eff = hermitize(np.asarray(h_bar, dtype=complex)) + hermitize(np.asarray(delta_h, dtype=complex))
    return Superoperator(-1j * ad_superop(h_eff) + dissipator.matrix)


@dataclass
class GeneratorBundle:
    """Everything produced by the generator build, kept for inspection."""

    h_bar: np.ndarray
    delta_h: np.ndarray
    dissipator: Superoperator
    x: Superoperator
    kossakowski: dict  # (w_idx, n) -> bath h matrix
    zeta_blocks: dict  # (w_idx, n) -> bath zeta matrix
    shifted_frequencies: dict  # (w_idx, n) -> float
    decomp: object
    jumps: object
    s_hat_series: list

    @property
    def dim(self):
        return self.x.dim

    def s_hat_tails(self):
        return [s.tail_norm for s in self.s_hat_series]


def build_generator(model, decomp=None, validate=True, box=12, drop_tol=1e-14,
                    tol_psd=1e-12, tol_cluster=1e-9, tol_congruence=1e-9):
    """Full build: decomposition, jump operators, shift, dissipator, X.

    With ``validate=True`` (the default) the admissibility checks run first
    and a failing model is refused with InadmissibleModel. ``validate=False``
    skips them: the command line passes it after running its own validation
    with the user's tolerances, and it serves controlled experiments on
    inadmissible models, e.g. measuring the selection-rule deviation a
    congruence violation produces.
    """
    if validate:
        report = validate_model(
            model, box=box, tol_congruence=tol_congruence, tol_cluster=tol_cluster
        )
        if not report.passed:
            raise InadmissibleModel(
                "model failed admissibility checks; refusing to build the generator",
                report,
            )
    if decomp is None:
        decomp = decompose(hermitize(model.h_bar), tol_cluster=tol_cluster)
    s_hats = [
        interaction_picture_coupling_series(model.p_series, s) for s in model.couplings
    ]
    jumps = build_jump_operator_set(decomp, s_hats, drop_tol=drop_tol)
    delta_h, zeta_blocks = build_lamb_shift(jumps, model.bath, model.frequencies)
    dissipator, blocks, shifted_map = build_dissipator(
        jumps, model.bath, model.frequencies, tol_psd=tol_psd
    )
    x = assemble_x(model.h_bar, delta_h, dissipator)
    return GeneratorBundle(
        h_bar=hermitize(model.h_bar),
        delta_h=delta_h,
        dissipator=dissipator,
        x=x,
        kossakowski=blocks,
        zeta_blocks=zeta_blocks,
        shifted_frequencies=shifted_map,
        decomp=decomp,
        jumps=jumps,
        s_hat_series=s_hats,
    )


def cross_check_selection_rule(bundle, bath, omega, tol_delta=1e-8):
    """Deviation between the raw pair sum and the assembled generator.

    Rebuilds the dissipative-plus-shift action K = -i [delta_h, .] + dissipator
    from scratch as a double sum over ordered jump-operator pairs whose
    shifted frequencies coincide within ``tol_delta``, with one-sided bath
    weights (1/2) h + i zeta on the left factor and its conjugate weight on
    the right factor. Returns the induced 2-norm of the difference from the
    bundle's K; near zero exactly when only identical pairs resonate.
    """
    jumps = bundle.jumps
    d = jumps.decomp.dim
    eye = np.eye(d)

    entries = []
    for (mu, n, w_idx), s in jumps.items_sorted():
        entries.append((jumps.shifted_frequency(n, w_idx, omega), mu, s))
    entries.sort(key=lambda e: e[0])
    shifts = np.array([e[0] for e in entries])

    h_cache, z_cache = {}, {}

    def h_at(w):
        if w not in h_cache:
            h_cache[w] = bath.h(w)
        return h_cache[w]

    def z_at(w):
        if w not in z_cache:
            z_cache[w] = bath.zeta(w)
        return z_cache[w]

    acc = _KahanSum((d * d, d * d))
    for a in range(len(entries)):
        sa, mu_a, s_a = entries[a]
        lo = int(np.searchsorted(shifts, sa - tol_delta, side="left"))
        hi = int(np.searchsorted(shifts, sa + tol_delta, side="right"))
        s_a_dag = s_a.conj().T
        s_a_conj = s_a.conj()
        for b in range(lo, hi):
            sb, mu_b, s_b = entries[b]
            c1 = 0.5 * h_at(sa)[mu_a, mu_b] + 1j * z_at(sa)[mu_a, mu_b]
            c2 = 0.5 * h_at(sb)[mu_a, mu_b] - 1j * z_at(sb)[mu_a, mu_b]
            sab = s_a_dag @ s_b
            sandwich = np.kron(s_a_conj, s_b)
            acc.add(
                c1 * (sandwich - np.kron(eye, sab))
                + c2 * (sandwich - np.kron(sab.T, eye))
            )
    k_double = acc.total()
    k_diag = -1j * ad_superop(bundle.delta_h) + bundle.dissipator.matrix
    return float(np.linalg.norm(k_double - k_diag, 2))


@dataclass
class CovarianceCheck:
    """Residuals of the covariance property of the dissipative action."""

    superop_residual: float  # || K ad_hbar - ad_hbar K ||_2
    shift_commutator_residual: float  # || [delta_h, h_bar] ||_F

    @property
    def passed(self):
        return self.superop_residual <= 1e-10 and self.shift_commutator_residual <= 1e-10

    def to_dict(self):
        return {
            "superop_residual": float(self.superop_residual),
            "shift_commutator_residual": float(self.shift_commutator_residual),
            "passed": bool(self.passed),
        }


def check_covariance(bundle):
    """Verify K = -i [delta_h, .] + dissipator commutes with [h_bar, .]."""
    k = -1j * ad_superop(bundle.delta_h) + bundle.dissipator.matrix
    a = ad_superop(bundle.h_bar)
    superop_res = float(np.linalg.norm(k @ a - a @ k, 2))
    comm = bundle.delta_h @ bundle.h_bar - bundle.h_bar @ bundle.delta_h
    return CovarianceCheck(
        superop_residual=superop_res,
        shift_commutator_residual=float(np.linalg.norm(comm)),
    )
