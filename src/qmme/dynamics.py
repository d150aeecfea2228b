"""Product-form dynamical maps and direct time-stepping cross-checks.

The evolution factorizes exactly as

    map(t) = sigma(t) o exp(t X),        sigma(t): rho -> p(t) rho p(t)^dag,

with X the constant generator. The equivalent time-local master equation uses

    L(t) = -i [H(t) + sigma_t(delta_h), . ] + sigma_t o dissipator o sigma_t^{-1},

and ``integrate_direct`` solves it with classical fixed-step RK4 under step
halving; ``integrate_schrodinger_direct`` solves u' = -i H(t) u with the
3-stage Gauss-Legendre rule (order 6) on the same halving ladder.

Both cross-checks take their substeps in chunks, as many as hold
``_CHUNK_ENTRIES`` matrix entries at their stage nodes, and evaluate their
series once per chunk, the master equation's p and H from one phase table. A
chunk forms its own substeps from per-interval counts and sizes, so a march
holds one chunk and arrays over the grid nodes, however long the grid. Both
equations are linear, y' = A(t) y, A = -i H(t) on the oracle's d x d state and
A = L(t) on the column-stacked density matrix, so one substep of size h is a
step matrix R, held as R - I to round at the scale of the step:

- RK4 marches the master equation. A chunk of n substeps has 2n + 1 stage
  nodes, its n + 1 edges and n midpoints (2 d^4 entries a substep: 256
  substeps at d = 2, 16 at d = 4), and R = I + h/6 (A1 + 2 B2 + 2 B3 + B4),
  with B2 = A2 (I + h/2 A1), B3 = A2 (I + h/2 B2), B4 = A4 (I + h B3) and
  A1, A2, A4 the generator at the substep's start, midpoint and end.
- Gauss-Legendre marches the oracle. A substep has three nodes t + c_i h
  (3 d^2 entries: 682 substeps at d = 2, 42 at d = 8), and its stage
  derivatives solve one (3d, 3d) system, (I - h [a_ij A_i]) K = [A_i], all
  of a chunk in one batched solve; R - I = h sum_i b_i K_i. Gauss methods
  keep quadratic invariants, so u stays unitary up to rounding.

A chunk's step matrices are applied to the state in turn, y <- y + (R - I) y,
and the chunk returns the state after every substep, from which the grid
nodes it reaches are read. A chunk that ends on a non-finite state ends its
level of the halving ladder, whose later nodes all take that state. Above
``_STEP_MATRIX_MAX_DIM`` the master equation takes RK4 stages on the d x d
density matrix instead (2 d^2 entries a substep), as they cost less there
than d^2 x d^2 products, and ``rk4_path`` takes them for any y' = f(t, y).
The master equation stays on RK4 below that too:
its steps are set by the grid spacing as much as by the tolerance, and a
Gauss-Legendre march of the five shipped models on ``integrate_direct``'s
benchmark grid took 0.65 s against RK4's 0.24 s. The product form evaluates
p once per time grid. What the cross-checks share with the product form is
only the series evaluation and the constant dissipator matrix; no
exponential of X enters them, so agreement between the paths checks the
whole construction.
"""

import functools
import math

import numpy as np

from .errors import Defective, DimensionMismatch, NoConvergence, OrderViolation, Overflow
from .fourier import joint_sampler
from .linalg import Superoperator, conjugation_superop, devectorize, eigensystem, expm, trace_norm, vectorize
from .model import _require_unitary, synthesize_hamiltonian

__all__ = [
    "DynamicalMap",
    "integrate_schrodinger_direct",
    "rk4_path",
]

# largest d whose master equation marches as d^2 x d^2 step matrices: on the driven
# r = 1 test model (grid 0:20:200, tol 1e-8, best of 5 in each of two runs, 2-core VM)
# they took 0.09 s against 0.22 s for the per-substep stages at d = 4, and 0.33-0.37 s
# against 0.32-0.40 s at d = 5, too close to move the switch with no benchmark workload
# above d = 3
_STEP_MATRIX_MAX_DIM = 4
# most matrix entries (stage nodes x entries of the generator at a node) one chunk holds
_CHUNK_ENTRIES = 1 << 13
# first step (before halving), and the halvings allowed before NoConvergence
_H_INITIAL, _MAX_REFINEMENTS = 0.05, 12
# the oracle's 3-stage Gauss-Legendre tableau (order 6): nodes c, coefficients a, weights b
_SQRT15 = math.sqrt(15.0)
_GL_C = np.array([0.5 - _SQRT15 / 10, 0.5, 0.5 + _SQRT15 / 10])
_GL_A = np.array([[5 / 36, 2 / 9 - _SQRT15 / 15, 5 / 36 - _SQRT15 / 30],
                  [5 / 36 + _SQRT15 / 24, 2 / 9, 5 / 36 - _SQRT15 / 24],
                  [5 / 36 + _SQRT15 / 30, 2 / 9 + _SQRT15 / 15, 5 / 36]])
_GL_B = np.array([5 / 18, 4 / 9, 5 / 18])


# ---------------------------------------------------------------------------
# RK4 and Gauss-Legendre with step-halving convergence control
# ---------------------------------------------------------------------------

def _rk4_step(f, y, h, start, middle, end):
    """One classical RK4 substep of size h for y' = f(node, y), where
    ``start``, ``middle`` and ``end`` are the nodes passed to f."""
    k1 = f(start, y)
    k2 = f(middle, y + (0.5 * h) * k1)
    k3 = f(middle, y + (0.5 * h) * k2)
    k4 = f(end, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _substeps(ts, h_target):
    """Each interval of ``ts`` in equal substeps of size at most ``h_target``, as arrays over the
    intervals: the number of substeps that reach its end node, its substep count and its substep size."""
    spans = np.diff(ts)
    if np.any(spans < 0):
        raise OrderViolation("sample times must be ascending")
    # bounded in Python floats first: the array division below would overflow to inf
    total = float(np.sum(spans)) / h_target + spans.size
    if not total < np.iinfo(np.intp).max:
        raise DimensionMismatch(
            f"time grid needs about {total:.3g} RK4 substeps, more than an index can count")
    counts = np.ceil(spans / h_target).astype(np.intp)  # 0 only for a repeated node
    return np.cumsum(counts), counts, spans / np.maximum(counts, 1)


def _rk4_step_matrices(a_at, edges, h):
    """Stacked RK4 step matrices R of y' = A y over the substeps of sizes ``h``
    between consecutive ``edges``, from ``a_at`` at their 2n + 1 stage nodes,
    held as R - I, which rounds at its own scale and not at that of I."""
    n = h.size
    a = a_at(_stage_nodes(edges, h))
    a1, a2, a4 = a[:n], a[n + 1 :], a[1 : n + 1]
    eye = np.eye(a1.shape[-1])
    h = h[:, None, None]
    b2 = a2 @ (eye + (0.5 * h) * a1)
    b3 = a2 @ (eye + (0.5 * h) * b2)
    b4 = a4 @ (eye + h * b3)
    return (h / 6.0) * (a1 + 2.0 * b2 + 2.0 * b3 + b4)


def _stage_nodes(edges, h):
    """The 2n + 1 RK4 stage times of the n substeps of sizes ``h`` between
    consecutive ``edges``: the n + 1 edges, then the n midpoints. Substep k
    takes its first stage at node k, its middle stages at node n + 1 + k and
    its last stage at node k + 1, the start of the next substep."""
    return np.concatenate([edges, edges[:-1] + 0.5 * h])


def _rk4_blocked(advance, chunk, y0, ts, h_target):
    """The substeps of ``_substeps`` taken ``chunk`` at a time, by any rule.

    ``advance(y, edges, h)`` marches y through the substeps of sizes ``h``
    between consecutive ``edges`` and returns the state after each of them.
    Only the current chunk's edges exist at a time: substep k of interval i
    starts at ts[i] + k size[i], and the grid's last substep ends on ts[-1].
    A chunk that ends on a non-finite state ends the march: every later node
    takes that state, which no further substep could make finite again.
    """
    reached, counts, sizes = _substeps(ts, h_target)
    total = counts.sum()
    first, sizes = np.append(reached - counts, total), np.append(sizes, 0.0)  # past the last interval: ts[-1] + 0
    out = np.empty((ts.size,) + y0.shape, dtype=complex)
    out[np.append(0, reached) == 0] = y0  # the nodes no substep reaches, the first among them
    y = y0
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        j = np.arange(lo, hi + 1)  # the chunk's substeps, then the next one (or the grid's end)
        i = np.searchsorted(reached, j, side="right")  # the interval of each
        path = advance(y, ts[i] + (j - first[i]) * sizes[i], sizes[i[:-1]])
        y = path[-1]
        out[1 + i[0] : 1 + i[-1]] = path[reached[i[0] : i[-1]] - lo - 1]
        if not np.isfinite(y).all():
            out[1 + i[-1] :] = y
            break
    return out


def _gauss_step_matrices(a_at, edges, h):
    """Stacked 3-stage Gauss-Legendre step matrices R of y' = A y over the
    substeps of sizes ``h`` between consecutive ``edges``, held as R - I.

    ``a_at`` is called once, at the 3n nodes t + c_i h (substep by substep).
    The stage derivatives K_i of y = I solve the (3d, 3d) system
    K_i - h A_i sum_j a_ij K_j = A_i, one batched solve for the chunk, and
    R - I = h sum_i b_i K_i.
    """
    n, s = h.size, _GL_C.size
    a = a_at((edges[:-1, None] + h[:, None] * _GL_C).reshape(-1))
    d = a.shape[-1]
    a = a.reshape(n, s, d, d)
    h = h[:, None, None]
    # block (i, j) of the stage system is a_ij A_i
    blocks = (_GL_A[:, :, None, None] * a[:, :, None]).transpose(0, 1, 3, 2, 4).reshape(n, s * d, s * d)
    k = np.linalg.solve(np.eye(s * d) - h * blocks, a.reshape(n, s * d, d)).reshape(a.shape)
    return h * np.einsum("i,nijk->njk", _GL_B, k)


def _linear_advance(a_at, step_matrices=_rk4_step_matrices):
    """Chunk march of y' = A(t) y, where ``a_at(times)`` returns the stacked
    generators A at an array of times: one step matrix S = R - I per substep
    (RK4 by default), applied in turn, y <- y + S y."""

    def advance(y, edges, h):
        steps = step_matrices(a_at, edges, h)
        path = np.empty((h.size,) + y.shape, dtype=complex)
        for k, step in enumerate(steps):  # on these small arrays .dot and out= cost less a call than @ and +
            y = np.add(y, step.dot(y), out=path[k])
        return path

    return advance


def _stage_advance(f_at):
    """Chunk march of y' = f by RK4 stages, where ``f_at(nodes)`` returns f(i, y),
    the right-hand side at stage node i of the chunk's 2n + 1 (see _stage_nodes)."""

    def advance(y, edges, h):
        n = h.size
        f = f_at(_stage_nodes(edges, h))
        path = np.empty((n,) + y.shape, dtype=complex)
        for k in range(n):
            y = path[k] = _rk4_step(f, y, h[k], k, n + 1 + k, k + 1)
        return path

    return advance


def _refine(march, y0, ts, tol, norm, max_refinements, rule):
    """Trajectory ``march(y0, ts, h)`` refined by step halving (see rk4_path);
    ``rule`` names the step rule in NoConvergence. A level whose end state
    differs from the last one's by a non-finite amount has not converged, and
    ``norm`` never sees it."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    y0 = np.array(y0, dtype=complex)
    if ts.size < 2:
        return np.repeat(y0[None], ts.size, axis=0)
    h = min(_H_INITIAL, max(float(ts[-1] - ts[0]), 1e-12) / 8.0)
    prev = march(y0, ts, h)
    for _ in range(max_refinements):
        h *= 0.5
        cur = march(y0, ts, h)
        change = cur[-1] - prev[-1]
        if np.isfinite(change).all() and norm(change) < tol:
            return cur
        prev = cur
    raise NoConvergence(f"{rule} did not reach tol={tol:.1e} within {max_refinements} step halvings")


def rk4_path(f, y0, ts, tol=1e-8, norm=None, max_refinements=_MAX_REFINEMENTS):
    """RK4 trajectory over ``ts``, refined by step halving.

    The step is halved until the end state moves by less than ``tol`` in the
    given norm between successive refinements; the finer trajectory is
    returned. The default trace norm takes only a matrix state, and any other
    raises DimensionMismatch before the first step. Raises NoConvergence when
    the refinement budget is exhausted.
    """
    if norm is None:
        norm = trace_norm
        norm(np.zeros(np.shape(y0), dtype=complex))  # a state it cannot take fails here
    advance = _stage_advance(lambda nodes: lambda i, y: f(nodes[i], y))
    chunk = max(1, _CHUNK_ENTRIES // (2 * max(1, np.size(y0))))  # two stage nodes a substep, of y's entries
    return _refine(functools.partial(_rk4_blocked, advance, chunk), y0, ts, tol, norm, max_refinements, "RK4")


def _nonnegative_times(ts):
    """``ts`` as a float array; OrderViolation for a negative time (every trajectory starts at t = 0)
    and Overflow for a time that is not finite."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    if np.any(ts < 0):
        raise OrderViolation("sample times must be nonnegative")
    if not np.isfinite(ts).all():
        raise Overflow(f"sample time {ts[np.argmin(np.isfinite(ts))]} is not finite")
    return ts


# ---------------------------------------------------------------------------
# the dynamical map
# ---------------------------------------------------------------------------

class DynamicalMap:
    """Product-form propagation for one model and its generator bundle.

    Caches the eigendecomposition of X when ``linalg.eigensystem`` admits it
    (eigenvector condition number ``eig_cond`` below its limit); otherwise
    every exponential falls back to scaling-and-squaring. An eigenvalue with
    ``|w| <= d^2 eps ||X||_1`` is cached as exactly 0: it is the kernel's, and
    its rounding error would grow as exp(t w) at large t. A p whose unitarity
    bound over all t exceeds ``tol_unitary`` is refused with NotUnitary.
    """

    def __init__(self, model, bundle, tol_unitary=1e-9):
        _require_unitary(model.p_series, tol_unitary)
        self.model = model
        self.bundle = bundle
        self.dim = model.dim
        self.tol_unitary = float(tol_unitary)
        self._x = bundle.x.matrix
        self._h_series = self._joint = None

        w, v, vinv, self.eig_cond = eigensystem(self._x)
        w = np.where(np.abs(w) <= w.size * np.finfo(float).eps * np.linalg.norm(self._x, 1), 0.0, w)
        self._x_eig = w, v, vinv, self.eig_cond  # for analysis.spectrum_classification
        self._eig = None if vinv is None else (w, v, vinv)

    # -- pieces ---------------------------------------------------------

    def eigensystem(self):
        """Cached (eigenvalues, eigenvectors, inverse) of X; Defective if absent."""
        if self._eig is None:
            raise Defective(
                f"X eigenvector condition number {self.eig_cond:.3e} too large for "
                "eigen-expansion"
            )
        return self._eig

    def frames(self, ts):
        """p(t) at every time of ``ts`` as a (len(ts), d, d) array.

        The series passed its unitarity bound over all t when the map was
        made, so a node whose ||p p^dag - I||_F exceeds ``tol_unitary`` has
        lost its phase in evaluation, t times a frequency past float
        precision: Overflow names the first such time.
        """
        ts = np.asarray(ts, dtype=float).reshape(-1)
        p = self.model.p_series.evaluate_many(self.model.frequencies, ts)
        drift = np.linalg.norm(p @ p.conj().swapaxes(-1, -2) - np.eye(self.dim), axis=(-2, -1))
        if (bad := np.flatnonzero(~(drift <= self.tol_unitary))).size:
            i = bad[0]
            raise Overflow(f"p({ts[i]}) lost its phase in evaluation: unitarity residual {drift[i]:.3e} "
                           f"> {self.tol_unitary:.1e}")
        return p

    def p_at(self, t):
        """Evaluate the unitary series at ``t`` (evaluation checked, see frames)."""
        return self.frames([t])[0]

    def _exp_w(self, ts):
        """exp(w t) for X's eigenvalues w (rows) at the times ``ts`` (columns), without a
        numpy warning; Overflow names the first time at which it is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(np.outer(self._eig[0], ts))
        if not np.isfinite(e).all():
            raise Overflow(f"exp(t X) is not finite at t = {ts[np.argmin(np.isfinite(e).all(axis=0))]}")
        return e

    def _expms(self, ts):
        """exp(t X) at every time of ``ts`` as a (len(ts), d^2, d^2) stack: one broadcast
        eigen-expansion, or ``linalg.expm`` at each time; Overflow where it is not finite."""
        if self._eig is not None:
            _, v, vinv = self._eig
            return (v * self._exp_w(ts).T[:, None, :]) @ vinv
        with np.errstate(over="ignore", invalid="ignore"):  # expm refuses a non-finite t X
            return np.array([expm(t * self._x) for t in ts]).reshape((-1,) + self._x.shape)

    def expm_x(self, t):
        """Matrix of exp(t X); Overflow where it is not finite."""
        return self._expms(np.array([float(t)]))[0]

    def maps(self, ts, starts=None):
        """sigma_t exp((t - s) X) sigma_s^{-1} for each time t of ``ts`` and start s of ``starts`` in
        its row (sigma_t exp(t X) without ``starts``), as a (len(ts), d^2, d^2) stack: p from one
        ``frames`` call over every time, exp from one ``_expms`` over every interval."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        if starts is None and (bad := np.flatnonzero(ts < 0)).size:
            raise OrderViolation(f"map time must be nonnegative, got {ts[bad[0]]}")
        s = np.zeros(ts.size) if starts is None else np.asarray(starts, dtype=float).reshape(-1)
        if s.size != ts.size:
            raise DimensionMismatch(f"{s.size} starts for {ts.size} times")
        if (bad := np.flatnonzero(s > ts)).size:
            raise OrderViolation(f"propagator needs s <= t, got s={s[bad[0]]} > t={ts[bad[0]]}")
        p = self.frames(ts if starts is None else np.concatenate([ts, s]))
        out = conjugation_superop(p[: ts.size]) @ self._expms(ts - s)
        return out if starts is None else out @ conjugation_superop(p[ts.size :].conj().swapaxes(-1, -2))

    def at(self, t):
        """The dynamical map at time t >= 0 as a superoperator (the one-row ``maps``)."""
        return Superoperator(self.maps([t])[0])

    def propagator(self, t, s):
        """Two-time propagator sigma_t exp((t - s) X) sigma_s^{-1}, s <= t (the one-row ``maps``)."""
        return Superoperator(self.maps([t], [s])[0])

    def h_series(self):
        """Synthesized Hamiltonian series (cached)."""
        if self._h_series is None:
            self._h_series = synthesize_hamiltonian(
                self.model.p_series,
                self.model.frequencies,
                self.model.h_bar,
                tol_unitary=self.tol_unitary,
            )
        return self._h_series

    def _hamiltonians(self, ts):
        """p (not checked unitary) and H(t) + p(t) delta_h p(t)^dag at the times ``ts``;
        p and H come from one joint_sampler, built on first use."""
        if self._joint is None:
            self._joint = joint_sampler([self.model.p_series, self.h_series()], self.model.frequencies)
        p, h = self._joint(ts)
        p_delta = (p.reshape(-1, self.dim) @ self.bundle.delta_h).reshape(p.shape)  # one flat product
        return p, h + p_delta @ p.conj().transpose(0, 2, 1)

    def _lindbladians(self, ts):
        """L(t) at the times ``ts`` as a (len(ts), d^2, d^2) stack acting on column-stacked
        states. D takes one flat product; -i [G, .] = -i (I (x) G - G^T (x) I) is written
        in place, G on the d diagonal blocks and G^T's entries on the blocks' diagonals."""
        p, g = self._hamiltonians(ts)
        d = self.dim
        sigma = conjugation_superop(p)  # rho -> p rho p^dag; its adjoint undoes it
        out = ((sigma.reshape(-1, d * d) @ self.bundle.dissipator.matrix).reshape(sigma.shape)
               @ sigma.conj().transpose(0, 2, 1))
        g = -1j * g
        blocks = out.reshape(-1, d, d, d, d)  # [t, a, i, b, j]: row a d + i, column b d + j
        np.einsum("taiaj->taij", blocks)[...] += g[:, None]  # einsum's diagonals are views
        np.einsum("taibi->tabi", blocks)[...] -= g.transpose(0, 2, 1)[..., None]
        return out

    def lindbladian(self, t):
        """Time-local generator L(t) as a superoperator (p(t)'s evaluation checked, see frames)."""
        self.frames([t])
        return Superoperator(self._lindbladians(np.array([t], dtype=float))[0])

    def _master_rhs(self, nodes):
        """The master equation's right-hand side f(i, rho) at stage node i of ``nodes`` for
        d > _STEP_MATRIX_MAX_DIM (see _stage_advance): p and H at every node from one phase
        table, and O(d^4) a call on the d x d state for the dissipator."""
        d = self.dim
        p, gen = self._hamiltonians(nodes)
        pd, gen = p.conj().transpose(0, 2, 1), -1j * gen
        # the dissipator on row-major vectors: vec_F(X) = vec_C(X^T)
        rows = np.arange(d * d).reshape(d, d).T.reshape(-1)
        diss = self.bundle.dissipator.matrix[np.ix_(rows, rows)]

        def rhs(i, rho):
            dissipated = (diss @ (pd[i] @ rho @ p[i]).reshape(-1)).reshape(d, d)
            return gen[i] @ rho - rho @ gen[i] + p[i] @ dissipated @ pd[i]

        return rhs

    # -- propagation ------------------------------------------------------

    def _state(self, rho0):
        rho0 = np.asarray(rho0, dtype=complex)
        if rho0.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"initial state has shape {rho0.shape}, map dimension is {self.dim}")
        if not np.isfinite(rho0).all():  # a march would carry it through every step halving
            raise Overflow("state contains non-finite entries")
        return rho0

    def evolve(self, rho0, ts, frames=None):
        """Product-form trajectory at the sample times, p evaluated once per grid or given as ``frames``."""
        rho0, ts = self._state(rho0), _nonnegative_times(ts)
        p = self.frames(ts) if frames is None else frames  # first: a lost phase raises before exp(t w) overflows
        v0 = vectorize(rho0)
        if self._eig is not None:
            _, v, vinv = self._eig
            vecs = (v @ (self._exp_w(ts) * (vinv @ v0)[:, None])).T
        else:  # one time at a time: a stack of d^2 x d^2 exponentials would hold len(ts) d^4 entries
            vecs = np.array([self.expm_x(t) @ v0 for t in ts], dtype=complex).reshape(ts.size, v0.size)
        return p @ devectorize(vecs) @ p.conj().transpose(0, 2, 1)

    def integrate_direct(self, rho0, ts, tol=1e-8):
        """Trajectory from RK4 on the time-local master equation, from ``rho0`` at t = 0.

        Deliberately avoids the product form: the only shared ingredients are
        the series evaluations and the constant dissipator matrix.
        """
        rho0, d, ts = self._state(rho0), self.dim, np.append(0.0, _nonnegative_times(ts))
        # two stage nodes a substep, of the d x d generator above the switch and of L(t) below it
        chunk = max(1, _CHUNK_ENTRIES // (2 * (d * d if d > _STEP_MATRIX_MAX_DIM else d**4)))
        if d > _STEP_MATRIX_MAX_DIM:
            advance, y0 = _stage_advance(self._master_rhs), rho0
        else:  # column-stacked states: a row-major reshape gives rho^T, which has the same trace norm
            advance, y0 = _linear_advance(self._lindbladians), vectorize(rho0)
        # L(t) is finite: a level past RK4's stability bound overflows unwarned, and unconverged
        with np.errstate(over="ignore", invalid="ignore"):
            path = _refine(functools.partial(_rk4_blocked, advance, chunk), y0, ts, tol,
                           lambda y: trace_norm(y.reshape(d, d)), _MAX_REFINEMENTS, "RK4")[1:]
        return path if d > _STEP_MATRIX_MAX_DIM else devectorize(path)


# ---------------------------------------------------------------------------
# module-level entry points
# ---------------------------------------------------------------------------

def integrate_schrodinger_direct(model, ts, tol=1e-8):
    """Solution of u' = -i H(t) u with u(0) = I at the nonnegative times ``ts``
    by the 3-stage Gauss-Legendre rule (order 6) under step halving.

    ``H`` is the synthesized Hamiltonian series of the model; this is the
    oracle used to confirm that p(t) exp(-i t h_bar) solves the same equation.
    Each chunk of substeps (``_CHUNK_ENTRIES`` at 3 d^2 a substep: 682 at
    d = 2, 42 at d = 8) evaluates H once, at the three nodes t + c_i h of
    every substep, and forms its step matrices R - I = h sum_i b_i K_i from
    one batched solve of the (3d, 3d) stage systems. Gauss methods keep
    quadratic invariants, so u stays unitary up to rounding.
    """
    ts = np.append(0.0, _nonnegative_times(ts))
    h_series = synthesize_hamiltonian(model.p_series, model.frequencies, model.h_bar)
    advance = _linear_advance(lambda times: -1j * h_series.evaluate_many(model.frequencies, times),
                              _gauss_step_matrices)
    chunk = max(1, _CHUNK_ENTRIES // (_GL_C.size * model.dim**2))
    return _refine(functools.partial(_rk4_blocked, advance, chunk), np.eye(model.dim, dtype=complex), ts,
                   tol, np.linalg.norm, _MAX_REFINEMENTS, "Gauss-Legendre")[1:]
