"""Assembly of the constant generator from jump operators and bath data.

With jump operators S_{mu,n,w} carrying shifted frequencies w_n = w + n . omega,
the pieces are

    delta_h    = sum zeta_{mu nu}(w_n) S_{mu,n,w}^dag S_{nu,n,w}
    dissipator = sum h_{mu nu}(w_n) ( S_{nu,n,w} rho S_{mu,n,w}^dag
                  - (1/2) { S_{mu,n,w}^dag S_{nu,n,w}, rho } )
    X          = -i [h_bar + delta_h, . ] + dissipator.

Both sums are array contractions, with no loop over terms. They read the
jump operators as the set stores them, the stack S with shape (blocks,
couplings, d, d), one block per (frequency, Fourier index) and zeros where a
coupling has no operator; the bath matrices at the blocks' shifted
frequencies are stacked as c with shape (blocks, couplings, couplings).
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
The pair sum gathers the present operators from the stack, ordered by shifted
frequency, and is one matrix product per chunk of pairs with one-sided
weights; it never reads the bundle's bath blocks or the collapsed form, so it
stays an independent check on them.
"""

from dataclasses import dataclass

import numpy as np

from .bohr import build_jump_operator_set, decompose, interaction_picture_coupling_series
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


# most entries of one gathered pair stack (pairs x d^2) the cross-check holds at once
_PAIR_CHUNK = 1 << 15


def _dagger_sum(s_conj, cs):
    """sum over the stacks of S^dag CS, a d x d matrix, from conj(S) and CS."""
    d = cs.shape[-1]
    return s_conj.reshape(-1, d).T @ cs.reshape(-1, d)


def _sandwich_sum(s_conj, cs):
    """sum over the stacks of conj(S) (x) CS, a d^2 x d^2 matrix, from conj(S)
    and CS: entry ((a, c), (x, e)) of the product goes to ((a, x), (c, e))."""
    d = cs.shape[-1]
    m = s_conj.reshape(-1, d * d).T @ cs.reshape(-1, d * d)
    return m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def build_lamb_shift(jumps, bath, omega):
    """Hermitian energy-shift operator from the principal-value bath data.

    Returns the shift matrix together with the zeta matrices used, stacked
    (blocks, couplings, couplings) in the order of ``jumps.blocks``.
    """
    s = jumps.stack
    zeta = bath.zeta_many(jumps.shifted_frequencies(omega))
    delta_h = _dagger_sum(s.conj(), np.einsum("bmn,bnij->bmij", zeta, s))
    defect = hermiticity_defect(delta_h)
    if defect > 1e-12:
        raise NotHermitian(f"energy shift is not Hermitian: relative defect {defect:.3e}")
    return delta_h, zeta


def build_dissipator(jumps, bath, omega, tol_psd=1e-12):
    """Dissipative part as a superoperator, plus its Kossakowski blocks and
    their shifted frequencies, both in the order of ``jumps.blocks``.

    Each block is the bath matrix h evaluated at one shifted frequency; a
    negative eigenvalue beyond tolerance raises NotPSD naming the first
    offending block.
    """
    s, shifted = jumps.stack, jumps.shifted_frequencies(omega)
    try:
        h = bath.h_many(shifted, tol_psd=tol_psd)
    except NotPSD as exc:
        if exc.frequency is None:
            raise
        w_idx, n = jumps.blocks[int(np.flatnonzero(shifted == exc.frequency)[0])]
        raise NotPSD(
            f"Kossakowski block at (n={n}, frequency_index={w_idx}, "
            f"shifted={exc.frequency:.6g}) failed: {exc}"
        ) from exc
    gs = np.einsum("bmn,bnij->bmij", h, s)  # GS_mu = sum_nu h_{mu nu} S_nu per block
    s_conj = s.conj()
    a = _dagger_sum(s_conj, gs)
    eye = np.eye(jumps.decomp.dim)
    diss = _sandwich_sum(s_conj, gs) - 0.5 * (np.kron(eye, a) + np.kron(a.T, eye))
    return Superoperator(diss), h, shifted


def assemble_x(h_bar, delta_h, dissipator):
    """Constant generator X = -i [h_bar + delta_h, . ] + dissipator."""
    h_eff = hermitize(np.asarray(h_bar, dtype=complex)) + hermitize(np.asarray(delta_h, dtype=complex))
    return Superoperator(-1j * ad_superop(h_eff) + dissipator.matrix)


@dataclass
class GeneratorBundle:
    """Everything the generator build produced; h_bar's decomposition is ``jumps.decomp``."""

    delta_h: np.ndarray
    dissipator: Superoperator
    x: Superoperator
    kossakowski: np.ndarray  # bath h per block of jumps.blocks: (blocks, couplings, couplings)
    zeta_blocks: np.ndarray  # bath zeta per block, same shape
    shifted_frequencies: np.ndarray  # shifted frequency per block: (blocks,)
    jumps: object
    s_hat_series: list

    @property
    def dim(self):
        return self.x.dim


def build_generator(model, validate=True, drop_tol=1e-14, tol_psd=1e-12, tol_cluster=1e-9):
    """Full build: decomposition, jump operators, shift, dissipator, X.

    With ``validate=True`` (the default) the admissibility checks run first
    and a failing model is refused with InadmissibleModel. ``validate=False``
    skips them: the command line passes it after running its own validation
    with the user's tolerances, and it serves controlled experiments on
    inadmissible models, e.g. measuring the selection-rule deviation a
    congruence violation produces.
    """
    if validate:
        report = validate_model(model, tol_cluster=tol_cluster)
        if not report.passed:
            raise InadmissibleModel(
                "model failed admissibility checks; refusing to build the generator",
                report,
            )
    decomp = decompose(hermitize(model.h_bar), tol_cluster=tol_cluster)
    spectra = {}  # p transformed once per workspace size, not once per coupling
    s_hats = [
        interaction_picture_coupling_series(model.p_series, s, _spectra=spectra) for s in model.couplings
    ]
    jumps = build_jump_operator_set(decomp, s_hats, drop_tol=drop_tol)
    delta_h, zeta_blocks = build_lamb_shift(jumps, model.bath, model.frequencies)
    dissipator, blocks, shifted = build_dissipator(
        jumps, model.bath, model.frequencies, tol_psd=tol_psd
    )
    x = assemble_x(model.h_bar, delta_h, dissipator)
    return GeneratorBundle(
        delta_h=delta_h,
        dissipator=dissipator,
        x=x,
        kossakowski=blocks,
        zeta_blocks=zeta_blocks,
        shifted_frequencies=shifted,
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
    block, mu = np.nonzero(jumps.present)  # every operator, in (w_idx, n, mu) order
    shifts = jumps.shifted_frequencies(omega)[block]
    order = np.argsort(shifts, kind="stable")
    shifts, mu = shifts[order], mu[order]
    s = jumps.stack[block[order], mu]
    h, z = bath.h_many(shifts), bath.zeta_many(shifts)

    # ordered pairs (a, b) with |shift_b - shift_a| <= tol_delta, a-major
    lo = np.searchsorted(shifts, shifts - tol_delta, side="left")
    hi = np.searchsorted(shifts, shifts + tol_delta, side="right")
    width = hi - lo
    pair_a = np.repeat(np.arange(len(shifts)), width)
    pair_b = np.arange(pair_a.size) - np.repeat(np.cumsum(width) - hi, width)

    sandwich = np.zeros((d * d, d * d), dtype=complex)
    left = np.zeros((d, d), dtype=complex)  # sum c1 S_a^dag S_b
    right = np.zeros((d, d), dtype=complex)  # sum c2 S_a^dag S_b
    step = max(1, _PAIR_CHUNK // (d * d))
    for start in range(0, pair_a.size, step):
        a, b = pair_a[start:start + step], pair_b[start:start + step]
        mu_a, mu_b = mu[a], mu[b]
        c1 = 0.5 * h[a, mu_a, mu_b] + 1j * z[a, mu_a, mu_b]
        c2 = 0.5 * h[b, mu_a, mu_b] - 1j * z[b, mu_a, mu_b]
        sa_conj, sb = s[a].conj(), s[b]
        sandwich += _sandwich_sum(sa_conj, (c1 + c2)[:, None, None] * sb)
        left += _dagger_sum(sa_conj, c1[:, None, None] * sb)
        right += _dagger_sum(sa_conj, c2[:, None, None] * sb)
    eye = np.eye(d)
    k_double = sandwich - np.kron(eye, left) - np.kron(right.T, eye)
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
    h_bar = bundle.jumps.decomp.h_bar
    a = ad_superop(h_bar)
    superop_res = float(np.linalg.norm(k @ a - a @ k, 2))
    comm = bundle.delta_h @ h_bar - h_bar @ bundle.delta_h
    return CovarianceCheck(
        superop_residual=superop_res,
        shift_commutator_residual=float(np.linalg.norm(comm)),
    )
