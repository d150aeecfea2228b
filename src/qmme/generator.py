"""Assembly of the constant generator from jump operators and bath data.

With jump operators S_{mu,n,w} carrying shifted frequencies w_n = w + n . omega,
the pieces are

    delta_h    = sum zeta_{mu nu}(w_n) S_{mu,n,w}^dag S_{nu,n,w}
    dissipator = sum h_{mu nu}(w_n) ( S_{nu,n,w} rho S_{mu,n,w}^dag
                  - (1/2) { S_{mu,n,w}^dag S_{nu,n,w}, rho } )
    X          = -i [h_bar + delta_h, . ] + dissipator.

In h_bar's eigenbasis V an operator of frequency w is its entries x at
E_w = {(i_k, j_k)} (``bohr.JumpOperatorSet``). With the bath matrices c_b of
the blocks b at w (Kossakowski form, Breuer & Petruccione ch. 3), frequency
w adds one |E_w| x |E_w| Gram matrix G_w = sum_b x_b^dag c_b x_b, with x_b
(couplings, |E_w|), at the positions ((i_k, i_l), (j_k, j_l)) of
sum conj(S_mu) (x) (c S)_mu in the eigenbasis, no two frequencies sharing
one; its partial trace over i_k = i_l is sum S_mu^dag (c S)_mu, which is A
(c = h) and delta_h (c = zeta). One rotation per result, V for delta_h and
K = kron(conj V, V) for the dissipator, returns to the lab basis; no
lab-basis operator is formed.

``cross_check_selection_rule`` rebuilds the generator from the raw double sum
over *pairs* of jump operators, keeping every pair whose shifted frequencies
agree within a numerical delta. When the admissibility assumptions hold, only
identical pairs survive and the double sum collapses onto the generator above;
a congruence violation leaves extra resonant pairs and a visible deviation.
The pair sum reduces the pairs of each (w_a, w_b) to one |E_a| x |E_b| matrix
per one-sided weight, scattered as above and rotated back once; it never
reads the bundle's bath blocks or the collapsed form, so it stays an
independent check on them.
"""

from dataclasses import dataclass

import numpy as np

from .bohr import build_jump_operator_set, decompose, interaction_picture_coupling_series
from .errors import InadmissibleModel, NotHermitian, NotPSD
from .linalg import Superoperator, ad_superop, conjugation_superop, hermiticity_defect, hermitize
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


# most entries of one gathered pair chunk (pairs x |E|) the cross-check holds at once
_PAIR_CHUNK = 1 << 15


def _gram_sum(jumps, c):
    """sum conj(S_mu) (x) (c S)_mu over blocks and couplings in h_bar's eigenbasis, as
    (d, d, d, d) [i, i', j, j']: each frequency's Gram matrix G_w at ((i_k, i_l), (j_k, j_l))."""
    decomp = jumps.decomp
    t = np.zeros((decomp.dim,) * 4, dtype=complex)
    per_frequency = np.split(c, np.cumsum([len(x) for x in jumps.values])[:-1])
    for (i, j), x, cb in zip(decomp.frequency_entries, jumps.values, per_frequency):
        t[i[:, None], i, j[:, None], j] = x.conj().reshape(-1, i.size).T @ (cb @ x).reshape(-1, i.size)
    return t


def _lab_superop(left, right, v):
    """K (left + right - I (x) tr(left) - tr(right)^T (x) I) K^dag, K = kron(conj V, V): the
    dissipative action of two eigenbasis sandwich sums (d, d, d, d), rotated to the lab basis;
    tr is the partial trace over the pairs i = i', which gives the sums of S_a^dag S_b."""
    d = v.shape[0]
    eye = np.eye(d)
    core = ((left + right).reshape(d * d, d * d) - np.kron(eye, np.trace(left, axis1=0, axis2=1))
            - np.kron(np.trace(right, axis1=0, axis2=1).T, eye))
    k = conjugation_superop(v)
    return k @ core @ k.conj().T


def build_lamb_shift(jumps, bath, omega):
    """Hermitian energy-shift operator from the principal-value bath data.

    Returns the shift matrix together with the zeta matrices used, stacked
    (blocks, couplings, couplings) in the block order of ``jumps``.
    """
    v = jumps.decomp.eigenvectors
    zeta = bath.zeta_many(jumps.shifted_frequencies(omega))
    delta_h = v @ np.trace(_gram_sum(jumps, zeta), axis1=0, axis2=1) @ v.conj().T
    defect = hermiticity_defect(delta_h)
    if defect > 1e-12:
        raise NotHermitian(f"energy shift is not Hermitian: relative defect {defect:.3e}")
    return delta_h, zeta


def build_dissipator(jumps, bath, omega, tol_psd=1e-12):
    """Dissipative part as a superoperator, plus its Kossakowski blocks and
    their shifted frequencies, both in the block order of ``jumps``.

    Each block is the bath matrix h evaluated at one shifted frequency; a
    negative eigenvalue beyond tolerance raises NotPSD naming the first
    offending block.
    """
    shifted = jumps.shifted_frequencies(omega)
    try:
        h = bath.h_many(shifted, tol_psd=tol_psd)
    except NotPSD as exc:
        if exc.frequency is None:
            raise
        b = np.flatnonzero(shifted == exc.frequency)[0]
        raise NotPSD(
            f"Kossakowski block at (n={tuple(jumps.fourier_index[b].tolist())}, "
            f"frequency_index={jumps.frequency_index[b]}, shifted={exc.frequency:.6g}) failed: {exc}"
        ) from exc
    half = 0.5 * _gram_sum(jumps, h)
    return Superoperator(_lab_superop(half, half, jumps.decomp.eigenvectors)), h, shifted


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
    kossakowski: np.ndarray  # bath h per block of jumps, in its order: (blocks, couplings, couplings)
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
    decomp, n_freq = jumps.decomp, len(jumps.values)
    block, mu = np.nonzero(jumps.present)  # every operator, in (w_idx, n, mu) order
    shifts = jumps.shifted_frequencies(omega)[block]
    order = np.argsort(shifts, kind="stable")
    shifts, mu, block = shifts[order], mu[order], block[order]
    w = jumps.frequency_index[block]
    row = block - np.searchsorted(jumps.frequency_index, w)  # its block's row in values[w]
    h, z = bath.h_many(shifts), bath.zeta_many(shifts)

    # ordered pairs (a, b) with |shift_b - shift_a| <= tol_delta, a-major
    lo = np.searchsorted(shifts, shifts - tol_delta, side="left")
    hi = np.searchsorted(shifts, shifts + tol_delta, side="right")
    width = hi - lo
    pair_a = np.repeat(np.arange(len(shifts)), width)
    pair_b = np.arange(pair_a.size) - np.repeat(np.cumsum(width) - hi, width)
    # grouped by their Bohr frequencies (w_a, w_b), a-major within a group
    key = w[pair_a] * n_freq + w[pair_b]
    by = np.argsort(key, kind="stable")
    pair_a, pair_b = pair_a[by], pair_b[by]
    groups, firsts = np.unique(key[by], return_index=True)

    # sums c1 conj(M_a) (x) M_b and c2 conj(M_a) (x) M_b in the eigenbasis, [i, i', j, j']
    t = np.zeros((2,) + (decomp.dim,) * 4, dtype=complex)
    for group, first, last in zip(groups.tolist(), firsts, [*firsts[1:], by.size]):
        wa, wb = divmod(group, n_freq)
        (ia, ja), (ib, jb) = decomp.frequency_entries[wa], decomp.frequency_entries[wb]
        step = max(1, _PAIR_CHUNK // max(ia.size, ib.size))
        gram = np.zeros((2, ia.size, ib.size), dtype=complex)
        for start in range(first, last, step):
            chunk = slice(start, min(start + step, last))
            a, b = pair_a[chunk], pair_b[chunk]
            mu_a, mu_b = mu[a], mu[b]
            c = np.stack([0.5 * h[a, mu_a, mu_b] + 1j * z[a, mu_a, mu_b],
                          0.5 * h[b, mu_a, mu_b] - 1j * z[b, mu_a, mu_b]])
            xa_conj, xb = jumps.values[wa][row[a], mu_a].conj(), jumps.values[wb][row[b], mu_b]
            gram += (c[..., None] * xa_conj).swapaxes(1, 2) @ xb
        t[:, ia[:, None], ib, ja[:, None], jb] = gram
    k_double = _lab_superop(t[0], t[1], decomp.eigenvectors)
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
