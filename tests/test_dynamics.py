"""Integrators, the product-form map, and its direct-integration oracles."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import random_density, random_hermitian

from qmme import dynamics, fourier, linalg
from qmme.dynamics import (
    DynamicalMap,
    integrate_schrodinger_direct,
    rk4_path,
)
from qmme.errors import Defective, DimensionMismatch, NoConvergence, NotUnitary, OrderViolation, Overflow
from qmme.fourier import FourierOperatorSeries
from qmme.generator import build_generator
from qmme.linalg import ad_superop, conjugation_superop, devectorize, trace_norm, vectorize
from qmme.model import (
    BathSpectrum,
    ReducedModel,
    p_series_from_profile_terms,
    synthesize_hamiltonian,
)
from qmme.presets import PRESETS


def _rk4_fixed(f, y0, ts, h_target):
    """March y' = f(t, y) through the nodes ``ts`` with uniform substeps of
    size at most ``h_target`` inside each interval; records y at every node."""
    out = [np.array(y0, dtype=complex)]
    y = out[0]
    for a, b in zip(ts[:-1], ts[1:]):
        span = float(b - a)
        if span < 0:
            raise OrderViolation("sample times must be ascending")
        if span == 0.0:
            out.append(y.copy())
            continue
        m = max(1, int(math.ceil(span / h_target)))
        h = span / m
        for k in range(m):
            t = float(a) + k * h  # not a running sum, which drifts over many substeps
            y = dynamics._rk4_step(f, y, h, t, t + 0.5 * h, t + h)
        out.append(y)
    return np.stack(out)


def _level_substeps(ts, h_target):
    """The whole level of substeps that dynamics._rk4_blocked marches chunk by chunk:
    start time and size of each substep, and for every node after the first the
    number of substeps that reach it."""
    spans = np.diff(ts)
    counts = np.ceil(spans / h_target).astype(np.intp)
    sizes = np.repeat(spans / np.maximum(counts, 1), counts)
    reached = np.cumsum(counts)
    k = np.arange(sizes.size) - np.repeat(reached - counts, counts)
    return np.repeat(ts[:-1], counts) + k * sizes, sizes, reached


def _rk4_reference(f, y0, ts, tol, norm):
    """The reference RK4 trajectory: _rk4_fixed, one interval and one substep at a
    time, under the halving ladder of the marches it checks."""
    return dynamics._refine(functools.partial(_rk4_fixed, f), y0, ts, tol, norm, dynamics._MAX_REFINEMENTS, "RK4")


def _counted(fn, calls):
    """``fn`` that appends to ``calls`` on every call."""

    def wrapped(*args):
        calls.append(1)
        return fn(*args)

    return wrapped


class TestRk4:
    def test_exponential_decay(self):
        ts = np.linspace(0.0, 2.0, 21)
        path = rk4_path(lambda t, y: -y, np.array([1.0 + 0j]), ts, tol=1e-10, norm=np.linalg.norm)
        assert np.allclose(path[:, 0], np.exp(-ts), atol=1e-9)

    def test_cubic_exact(self):
        # the classical scheme integrates t-polynomials up to degree 3 exactly
        ts = np.linspace(0.0, 3.0, 7)
        path = rk4_path(lambda t, y: np.array([3.0 * t * t]), np.array([0.0 + 0j]), ts,
                        norm=np.linalg.norm)
        assert np.allclose(path[:, 0], ts**3, atol=1e-11)

    def test_rotation_norm_preserved(self):
        ts = np.linspace(0.0, 2.0 * math.pi, 40)
        path = rk4_path(lambda t, y: 1j * y, np.array([1.0 + 0j]), ts, tol=1e-10,
                        norm=np.linalg.norm)
        assert np.allclose(np.abs(path[:, 0]), 1.0, atol=1e-9)

    def test_no_convergence(self):
        with pytest.raises(NoConvergence):
            rk4_path(lambda t, y: -y, np.array([1.0 + 0j]), [0.0, 1.0], tol=1e-8,
                     norm=np.linalg.norm, max_refinements=0)
        with pytest.raises(NoConvergence):
            rk4_path(lambda t, y: -y, np.array([1.0 + 0j]), [0.0, 1.0], tol=1e-30,
                     norm=np.linalg.norm, max_refinements=3)

    def test_caller_warnings_not_hidden(self):
        # numpy's warnings are off only in the master-equation march, not around a caller's f
        with pytest.warns(RuntimeWarning) as seen, pytest.raises(NoConvergence):
            rk4_path(lambda t, y: y * 1e308 * 10.0, np.array([1.0 + 0j]), [0.0, 1.0],
                     norm=np.linalg.norm, max_refinements=1)
        assert any("overflow" in str(w.message) for w in seen)

    def test_non_finite_level_not_converged_under_trace_norm(self):
        # the default trace norm takes an SVD, which cannot take a non-finite end state:
        # the level counts as not converged before any norm is taken, and the warning stays
        seen_by_norm = []
        with pytest.warns(RuntimeWarning), pytest.raises(NoConvergence, match=r"^RK4 did not reach"):
            rk4_path(lambda t, y: y * 1e308 * 10.0, np.eye(2), [0.0, 1.0], max_refinements=1)
        with pytest.warns(RuntimeWarning), pytest.raises(NoConvergence):
            rk4_path(lambda t, y: y * 1e308 * 10.0, np.eye(2), [0.0, 1.0], max_refinements=2,
                     norm=lambda y: seen_by_norm.append(y) or trace_norm(y))
        assert seen_by_norm == []

    def test_state_the_trace_norm_cannot_take_fails_before_the_march(self):
        # the default norm takes only matrices: a vector state is refused with no call of f,
        # where it took two whole levels (480,000 calls) before the first convergence test
        calls = []
        f = _counted(lambda t, y: -0.01 * y, calls)
        with pytest.raises(DimensionMismatch, match=r"^trace norm needs a matrix, got shape \(1,\)$"):
            rk4_path(f, [1.0], [0.0, 2000.0], tol=1e-12)
        assert calls == []

    def test_descending_times_rejected(self):
        with pytest.raises(OrderViolation):
            rk4_path(lambda t, y: -y, np.array([1.0 + 0j]), [0.0, 2.0, 1.0],
                     norm=np.linalg.norm)

    def test_single_node(self):
        path = rk4_path(lambda t, y: -y, np.array([1.0 + 0j]), [0.0], norm=np.linalg.norm)
        assert path.shape == (1, 1)
        assert path[0, 0] == 1.0 + 0j

    def test_repeated_node(self):
        ts = [0.0, 1.0, 1.0, 2.0]
        path = rk4_path(lambda t, y: -y, np.array([1.0 + 0j]), ts, tol=1e-10, norm=np.linalg.norm)
        assert path[1, 0] == path[2, 0]

    def test_empty_state(self):
        path = rk4_path(lambda t, y: -y, np.zeros(0), [0.0, 1.0], norm=np.linalg.norm)
        assert path.shape == (2, 0)

    def test_matches_reference_march(self, monkeypatch):
        # uneven spacing and a repeated node; at tol 1e-12 the last levels take 3,846
        # and 7,684 substeps, two and four chunks of 2,048 at a state of two entries
        ts = np.concatenate([np.linspace(0.0, 1.0, 7), [1.3, 2.0, 2.0, 2.05, 3.0]])
        y0 = np.array([1.0, 0.5j])

        def f(t, y):
            return _rotation([t])[0] @ y

        ref_calls, calls, marches = [], [], []
        reference = _rk4_reference(f, y0, ts, 1e-12, _counted(np.linalg.norm, ref_calls))
        march = dynamics._rk4_blocked

        def recorded(advance, chunk, y0, ts, h_target):
            marches.append((chunk, _level_substeps(ts, h_target)[0].size))
            return march(advance, chunk, y0, ts, h_target)

        monkeypatch.setattr(dynamics, "_rk4_blocked", recorded)
        path = rk4_path(f, y0, ts, tol=1e-12, norm=_counted(np.linalg.norm, calls))
        assert len(calls) == len(ref_calls) == len(marches) - 1
        chunk, substeps = marches[-1]
        assert chunk == dynamics._CHUNK_ENTRIES // 4 and substeps > 3 * chunk
        assert np.max(np.abs(path - reference)) < 1e-13
        assert np.array_equal(path[8], path[9])


def _constant(a):
    """Generator callback of the linear path for a constant matrix."""
    a = np.asarray(a, dtype=complex)
    return lambda times: np.broadcast_to(a, (len(times),) + a.shape)


def _rotation(times):
    """A(t) = [[0, t], [-t, 0]]: y(t) rotates by the angle t^2 / 2."""
    a = np.zeros((len(times), 2, 2), dtype=complex)
    a[:, 0, 1], a[:, 1, 0] = times, -np.asarray(times)
    return a


class TestLinearRk4:
    """The blocked step-matrix march against the callback integrator."""

    def path(self, a_at, y0, ts, tol=1e-10, norm=np.linalg.norm):
        march = functools.partial(dynamics._rk4_blocked, dynamics._linear_advance(a_at),
                                  dynamics._CHUNK_ENTRIES // len(y0) ** 2)
        with np.errstate(over="ignore", invalid="ignore"):  # as integrate_direct marches
            return dynamics._refine(march, np.asarray(y0, dtype=complex), ts, tol, norm,
                                    dynamics._MAX_REFINEMENTS, "RK4")

    def test_matches_callback_scheme(self):
        # uneven node spacing, so the substeps of several intervals share blocks
        ts = np.concatenate([np.linspace(0.0, 1.0, 7), [1.3, 2.0, 2.05, 3.0]])
        y0 = np.array([1.0, 0.5j])
        linear = self.path(_rotation, y0, ts)
        callback = _rk4_reference(lambda t, y: _rotation([t])[0] @ y, y0, ts, 1e-10, np.linalg.norm)
        assert np.max(np.abs(linear - callback)) < 1e-13
        angle = 0.5 * ts[-1] ** 2
        expect = np.array([[math.cos(angle), math.sin(angle)], [-math.sin(angle), math.cos(angle)]]) @ y0
        assert np.allclose(linear[-1], expect, atol=1e-9)

    def test_segments_across_chunks(self):
        y0 = np.array([1.0, 0.5j])
        for ts, h_target in (
            # 3,100 substeps at d = 2 make four chunks; recorded nodes, a repeated
            # one among them, fall inside chunks and on their edges
            ([0.0, 0.3, 1.024, 1.024, 2.0, 2.9, 3.1], 1e-3),
            # one interval of 3,200 or 3,100 substeps: the first three chunks record no
            # node. Binary-fraction substeps make every substep start exact; at h 1e-3,
            # summed starts drifted the callback path by 2.4e-13 over the interval
            ([0.0, 3.125], 2.0**-10),
            ([0.0, 3.1], 1e-3),
        ):
            ts = np.array(ts)
            chunked = dynamics._rk4_blocked(dynamics._linear_advance(_rotation), 1024, y0, ts, h_target)
            callback = _rk4_fixed(lambda t, y: _rotation([t])[0] @ y, y0, ts, h_target)
            assert _level_substeps(ts, h_target)[0].size > 3 * 1024
            assert np.max(np.abs(chunked - callback)) < 1e-13
            repeated = np.flatnonzero(np.diff(ts) == 0)
            assert np.array_equal(chunked[repeated], chunked[repeated + 1])

    def test_repeated_node(self):
        path = self.path(_constant([[-1.0]]), [1.0], [0.0, 1.0, 1.0, 2.0])
        assert path[1, 0] == path[2, 0]
        assert abs(path[3, 0] - math.exp(-2.0)) < 1e-9

    def test_repeated_first_node(self):
        path = self.path(_constant([[-1.0]]), [1.0], [0.0, 0.0, 1.0])
        assert path[0, 0] == path[1, 0] == 1.0

    def test_descending_times_rejected(self):
        with pytest.raises(OrderViolation):
            self.path(_constant([[-1.0]]), [1.0], [0.0, 2.0, 1.0])


class TestChunkEdges:
    """The edges and sizes each chunk hands its rule, formed inside the chunk,
    against slices of the whole level of _level_substeps, bit for bit."""

    @pytest.mark.parametrize("ts, h_target", [
        ([0.0, 0.0, 0.3, 1.0], 1e-3),  # a repeated first node
        ([0.0, 0.5, 0.5, 1.7], 1e-3),  # a repeated inner node
        ([0.0, 0.013, 0.4, 0.41, 2.0, 2.9], 7e-4),  # uneven spacing
        ([0.0, 0.25, 0.75, 3.125], 2.0**-9),  # binary fractions: every substep start is exact
        ([0.0, 0.875, 1.75, 3.0], 0.125),  # 7, 7 and 10 substeps: chunks of 7 end on nodes
    ])
    def test_edges_match_whole_level(self, ts, h_target):
        ts = np.array(ts)
        starts, sizes, reached = _level_substeps(ts, h_target)
        edges = np.append(starts, ts[-1])
        for chunk in (1, 7, 1024, sizes.size, sizes.size + 5):
            seen = []

            def advance(y, chunk_edges, h):  # the state counts the substeps taken
                seen.append((chunk_edges, h))
                return y + np.arange(1.0, h.size + 1)

            out = dynamics._rk4_blocked(advance, chunk, np.zeros(()), ts, h_target)
            lo = 0
            for chunk_edges, h in seen:
                n = min(chunk, sizes.size - lo)
                assert chunk_edges.tobytes() == edges[lo : lo + n + 1].tobytes()
                assert h.tobytes() == sizes[lo : lo + n].tobytes()
                lo += n
            assert lo == sizes.size
            assert np.array_equal(out, np.append(0, reached))


class TestGaussStepMatrix:
    """The oracle's step matrix for a constant A against the exponential."""

    def step(self, a, h):
        steps = dynamics._gauss_step_matrices(_constant(a), np.array([0.0, h]), np.array([h]))
        return np.eye(len(a)) + steps[0]

    def test_order_six(self):
        # local error of the Pade (3, 3) approximant exp(z): 3!^2 / (6! 7!) z^7 = 9.9e-6 z^7
        rng = np.random.default_rng(6)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a /= np.linalg.norm(a, 2)
        for h in (1.0, 0.5, 0.25, 0.125):
            assert np.linalg.norm(self.step(a, h) - scipy.linalg.expm(h * a), 2) <= 1e-5 * h**7

    def test_unitary_for_skew_hermitian(self):
        a = -1j * random_hermitian(np.random.default_rng(7), 4)
        h = 1.0 / np.linalg.norm(a, 2)
        r = self.step(a, h)
        assert np.linalg.norm(r @ r.conj().T - np.eye(4), 2) <= 1e-14


class TestNoConvergenceNamesRule:
    """NoConvergence names the step rule of the march that ran out of halvings."""

    def test_each_cross_check_names_its_rule(self, q2, monkeypatch):
        model, _, dmap = q2
        larger = _larger_model(dynamics._STEP_MATRIX_MAX_DIM + 1, np.random.default_rng(5))
        larger_map = DynamicalMap(larger, build_generator(larger, validate=False))
        monkeypatch.setattr(dynamics, "_MAX_REFINEMENTS", 0)
        ts = [0.0, 0.5]
        with pytest.raises(NoConvergence, match=r"^RK4 did not reach tol=1\.0e-08 within 0 step halvings$"):
            dmap.integrate_direct(np.eye(2) / 2, ts)
        with pytest.raises(NoConvergence, match=r"^RK4 did not reach"):
            larger_map.integrate_direct(np.eye(larger.dim) / larger.dim, ts)
        with pytest.raises(NoConvergence, match=r"^Gauss-Legendre did not reach tol=1\.0e-10 "):
            integrate_schrodinger_direct(model, ts, tol=1e-10)
        with pytest.raises(NoConvergence, match=r"^RK4 did not reach"):
            rk4_path(lambda t, y: -y, np.array([[1.0 + 0j]]), ts, max_refinements=0)


def _master_rhs(model, bundle, dmap):
    """The master equation's right-hand side, sampled point by point."""
    d = dmap.dim
    p_at = model.p_series.sampler(model.frequencies)
    h_at = dmap.h_series().sampler(model.frequencies)
    diss = bundle.dissipator.matrix

    def rhs(t, rho):
        p = p_at(t)
        pd = p.conj().T
        h_eff = h_at(t) + p @ bundle.delta_h @ pd
        inner = (diss @ vectorize(pd @ rho @ p)).reshape((d, d), order="F")
        return -1j * (h_eff @ rho - rho @ h_eff) + p @ inner @ pd

    return rhs


# the 3-stage Gauss-Legendre tableau (order 6), written out apart from dynamics
_ROOT15 = math.sqrt(15.0)
_GL_C = [0.5 - _ROOT15 / 10, 0.5, 0.5 + _ROOT15 / 10]
_GL_A = [[5 / 36, 2 / 9 - _ROOT15 / 15, 5 / 36 - _ROOT15 / 30],
         [5 / 36 + _ROOT15 / 24, 2 / 9, 5 / 36 - _ROOT15 / 24],
         [5 / 36 + _ROOT15 / 30, 2 / 9 + _ROOT15 / 15, 5 / 36]]
_GL_B = [5 / 18, 4 / 9, 5 / 18]


def _gauss_fixed(a_at, y0, ts, h_target):
    """The oracle's march one substep at a time, for y' = a_at(t) y: the
    substeps of _rk4_fixed, each with A at its three nodes t + c_i h
    and one plain solve of the stage system K_i = A_i (y + h sum_j a_ij K_j)."""
    y = np.array(y0, dtype=complex)
    d = y.shape[0]
    out = [y]
    for lo, hi in zip(ts[:-1], ts[1:]):
        span = float(hi - lo)
        m = math.ceil(span / h_target)
        h = span / max(m, 1)
        for k in range(m):
            t = lo + k * h
            a = [a_at(t + c * h) for c in _GL_C]
            system = np.eye(3 * d, dtype=complex)
            for i in range(3):
                for j in range(3):
                    system[i * d : (i + 1) * d, j * d : (j + 1) * d] -= h * _GL_A[i][j] * a[i]
            stages = np.linalg.solve(system, np.concatenate([a_i @ y for a_i in a]))
            y = y + h * sum(b * stages[i * d : (i + 1) * d] for i, b in enumerate(_GL_B))
        out.append(y)
    return np.stack(out)


class TestBatchedIntegratorsMatchCallbacks:
    """Both cross-checks against marches driven by per-step right-hand sides, one
    interval at a time: the master equation against _rk4_fixed, the oracle
    against _gauss_fixed."""

    def halvings(self, monkeypatch, run):
        marches = []
        monkeypatch.setattr(dynamics, "_rk4_blocked", _counted(dynamics._rk4_blocked, marches))
        return run(), len(marches) - 1

    # the driven models on both sides of the switch from step matrices to RK4 stages on d x d states
    @pytest.mark.parametrize("fixture", ["q2", "q3", dynamics._STEP_MATRIX_MAX_DIM,
                                         dynamics._STEP_MATRIX_MAX_DIM + 1])
    def test_direct_master_equation(self, fixture, request, monkeypatch):
        if isinstance(fixture, str):
            model, bundle, dmap = request.getfixturevalue(fixture)
        else:
            model = _larger_model(fixture, np.random.default_rng(fixture))
            bundle = build_generator(model, validate=False)
            dmap = DynamicalMap(model, bundle)
        d = dmap.dim
        rho0 = np.full((d, d), 1.0 / d, dtype=complex)
        ts = np.linspace(0.0, 4.0, 41)
        rhs = _master_rhs(model, bundle, dmap)

        calls = []
        reference = _rk4_reference(rhs, rho0, ts, 1e-8, _counted(trace_norm, calls))
        batched, halvings = self.halvings(
            monkeypatch, lambda: dmap.integrate_direct(rho0, ts, tol=1e-8))
        assert np.max(np.abs(batched - reference)) <= 1e-12
        assert halvings == len(calls)

    @pytest.mark.parametrize("fixture", ["q2", "q3"])
    def test_schrodinger_oracle(self, fixture, request, monkeypatch):
        model, _, _ = request.getfixturevalue(fixture)
        ts = np.linspace(0.0, 2.0, 9)
        h_at = synthesize_hamiltonian(model.p_series, model.frequencies, model.h_bar).sampler(
            model.frequencies)
        calls = []
        reference = dynamics._refine(
            functools.partial(_gauss_fixed, lambda t: -1j * h_at(t)), np.eye(model.dim), ts, 1e-10,
            _counted(np.linalg.norm, calls), dynamics._MAX_REFINEMENTS, "Gauss-Legendre")
        batched, halvings = self.halvings(
            monkeypatch, lambda: integrate_schrodinger_direct(model, ts, tol=1e-10))
        assert np.max(np.abs(batched - reference)) <= 1e-12
        assert halvings == len(calls)


class TestStageNodes:
    """Each chunk of a march evaluates its series once at its stage nodes: for
    RK4 p and H together, at the 2n + 1 substep starts, their midpoints and the
    end of the last; for the oracle's Gauss-Legendre rule H at the 3n nodes
    t + c_i h."""

    def record(self, monkeypatch, owner, name, key):
        """Record, march by march, the times of every call of ``owner.name``
        (its last argument) under ``key(arguments)``."""
        marches = []
        march, evaluate = dynamics._rk4_blocked, getattr(owner, name)

        def counted_march(advance, chunk, y0, ts, h_target):
            marches.append((np.asarray(ts, dtype=float), h_target, chunk, {}))
            return march(advance, chunk, y0, ts, h_target)

        def counted_evaluate(*args):
            if marches:
                marches[-1][3].setdefault(key(args), []).append(np.array(args[-1], dtype=float))
            return evaluate(*args)

        monkeypatch.setattr(dynamics, "_rk4_blocked", counted_march)
        monkeypatch.setattr(owner, name, counted_evaluate)
        return marches

    def check(self, marches, n_series, chunk):
        assert max(len(calls) for *_, evaluated in marches for calls in evaluated.values()) > 1
        for ts, h_target, march_chunk, evaluated in marches:
            assert march_chunk == chunk
            starts, sizes, _ = _level_substeps(ts, h_target)
            edges = np.append(starts, ts[-1])
            assert len(evaluated) == n_series
            for calls in evaluated.values():
                lo = 0
                for times in calls:
                    n = times.size // 2
                    assert times.size == 2 * n + 1 and n == min(chunk, starts.size - lo)
                    ordered = np.sort(times)
                    assert np.array_equal(ordered[0::2], edges[lo : lo + n + 1])
                    assert np.array_equal(ordered[1::2], starts[lo : lo + n] + 0.5 * sizes[lo : lo + n])
                    lo += n
                assert lo == starts.size
                # within one march a time is evaluated twice only where two chunks meet
                every = np.concatenate(calls)
                assert every.size - np.unique(every).size == len(calls) - 1

    def test_master_equation(self, q3, monkeypatch):
        model, _, dmap = q3
        h_series = dmap.h_series()  # synthesized outside the march
        separate = []
        monkeypatch.setattr(FourierOperatorSeries, "evaluate_many", lambda *args: separate.append(args))
        kernels = {}

        def key(args):  # the coefficient columns of a kernel call name it
            kernels[id(args[1])] = args[:2]
            return id(args[1])

        marches = self.record(monkeypatch, fourier, "_evaluate_rows", key)
        dmap.integrate_direct(np.eye(3) / 3, [0.0, 1.5, 1.5, 12.0, 20.0], tol=1e-8)
        # two stage nodes of a d^2 x d^2 generator per substep: 50 substeps a
        # chunk at d = 3, so each march of 400 or more substeps spans several
        self.check(marches, n_series=1, chunk=dynamics._CHUNK_ENTRIES // (2 * 3**4))
        assert not separate
        # one kernel, built once for every march, holds p's coefficients and H's side by side
        assert len(kernels) == 1
        idx, flat = next(iter(kernels.values()))
        assert flat.shape == (len(idx), 2 * 9)
        for series, columns in ((model.p_series, flat[:, :9]), (h_series, flat[:, 9:])):
            rows = {tuple(n): c for n, c in zip(idx.tolist(), columns)}
            assert set(series.coeffs) <= set(rows)
            assert all(np.array_equal(rows[n], c.reshape(-1)) for n, c in series.coeffs.items())
            assert not np.any([rows[n] for n in set(rows) - set(series.coeffs)])

    def test_schrodinger_oracle(self, q2, monkeypatch):
        model, _, _ = q2
        marches = self.record(monkeypatch, FourierOperatorSeries, "evaluate_many", lambda args: id(args[0]))
        integrate_schrodinger_direct(model, [0.0, 0.7, 0.7, 3.0, 16.0], tol=1e-10)
        # three stage nodes of d^2 entries per substep: 682 substeps a chunk at
        # d = 2, so the last march (1,280 substeps) spans two
        chunk = dynamics._CHUNK_ENTRIES // (3 * 4)
        assert max(len(calls) for *_, evaluated in marches for calls in evaluated.values()) > 1
        for ts, h_target, march_chunk, evaluated in marches:
            assert march_chunk == chunk
            starts, sizes, _ = _level_substeps(ts, h_target)
            assert len(evaluated) == 1
            (calls,) = evaluated.values()
            assert len(calls) == -(-starts.size // chunk)  # one call per chunk
            lo = 0
            for times in calls:
                n = times.size // 3
                assert times.size == 3 * n and n == min(chunk, starts.size - lo)
                expect = starts[lo : lo + n, None] + sizes[lo : lo + n, None] * np.array(_GL_C)
                assert np.allclose(times.reshape(n, 3), expect, rtol=1e-15, atol=1e-15)
                lo += n
            assert lo == starts.size
            # the nodes lie inside the substeps, so none is evaluated twice
            every = np.concatenate(calls)
            assert np.unique(every).size == every.size


class TestJointSeriesEvaluation:
    """p and H at the march's nodes, from one phase table over their joint
    support, against separate evaluate_many calls."""

    @pytest.mark.parametrize("name", [*PRESETS, 5])
    def test_matches_separate_evaluations(self, name):
        model = PRESETS[name]() if isinstance(name, str) else _larger_model(name, np.random.default_rng(name))
        bundle = build_generator(model, validate=False)
        dmap = DynamicalMap(model, bundle)
        ts = np.linspace(0.0, 20.0, 1001)
        p, g = dmap._hamiltonians(ts)
        h = g - np.array([p_t @ bundle.delta_h @ p_t.conj().T for p_t in p])
        for got, series in ((p, model.p_series), (h, dmap.h_series())):
            expect = series.evaluate_many(model.frequencies, ts)
            assert np.max(np.abs(got - expect)) <= 1e-15 * np.max(np.abs(expect))


class TestStiffLadder:
    """A level past RK4's stability bound overflows; it counts as not converged,
    with no warning and no norm taken of its non-finite end state."""

    def stiff_map(self, q1, gamma):
        model = dataclasses.replace(q1[0], bath=BathSpectrum.flat(gamma, 1))
        return DynamicalMap(model, build_generator(model))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stiff_rate_converges(self, q1):
        # h gamma = 50 on the first level; the halvings reach RK4's stability bound
        dmap = self.stiff_map(q1, 1e3)
        rho0, ts = np.full((2, 2), 0.5, dtype=complex), np.linspace(0.0, 1.0, 11)
        direct, product = dmap.integrate_direct(rho0, ts), dmap.evolve(rho0, ts)
        assert max(trace_norm(a - b) for a, b in zip(direct, product)) < 1e-8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_level_unstable_raises(self, q1, monkeypatch):
        # h gamma >= 6250 on all four levels
        dmap = self.stiff_map(q1, 1e6)
        monkeypatch.setattr(dynamics, "_MAX_REFINEMENTS", 3)
        with pytest.raises(NoConvergence, match=r"^RK4 did not reach tol=1\.0e-08 within 3 step halvings$"):
            dmap.integrate_direct(np.full((2, 2), 0.5, dtype=complex), np.linspace(0.0, 1.0, 11))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unstable_level_stops_at_its_first_chunk(self, q1, monkeypatch):
        # each of the 13 levels overflows in its first chunk and marches no further;
        # marching every level to its end would take 651 chunks
        dmap = self.stiff_map(q1, 1e6)
        calls, lindbladians = [], dmap._lindbladians
        monkeypatch.setattr(dmap, "_lindbladians", lambda ts: calls.append(ts) or lindbladians(ts))
        with pytest.raises(NoConvergence, match=r"^RK4 did not reach tol=1\.0e-08 within 12 step halvings$"):
            dmap.integrate_direct(np.full((2, 2), 0.5, dtype=complex), np.linspace(0.0, 1.0, 11))
        assert 0 < len(calls) <= dynamics._MAX_REFINEMENTS + 1


def _larger_model(d, rng):
    """A driven r = 1 model of dimension d drawn from ``rng``."""
    terms = [{"profile": "sin", "index": (1,), "amplitude": 0.1,
              "matrix": random_hermitian(rng, d) / d}]
    return ReducedModel(
        frequencies=np.array([1.0]),
        p_series=p_series_from_profile_terms(terms, r=1, trunc=6),
        h_bar=random_hermitian(rng, d) / d,
        couplings=[random_hermitian(rng, d) / (2 * d)],
        bath=BathSpectrum.ohmic_kms(kappa=0.1, cutoff=5.0, beta=1.0, n_couplings=1),
    )


@functools.cache
def _five_level():
    """_larger_model at d = 5, above the step-matrix march, with its generator and map."""
    model = _larger_model(5, np.random.default_rng(5))
    bundle = build_generator(model)
    return model, bundle, DynamicalMap(model, bundle)


class TestOracleAtLargerDimension:
    def test_working_memory_stays_on_one_chunk(self):
        # d = 8: the oracle holds one chunk of 42 substeps at a time (1.6 MB
        # traced); a whole march as one chunk peaks at 46 MB
        model = _larger_model(8, np.random.default_rng(8))
        ts = np.linspace(0.0, 20.0, 81)
        tracemalloc.start()
        try:
            u = integrate_schrodinger_direct(model, ts, tol=1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        frames = model.p_series.evaluate_many(model.frequencies, ts)
        for t, p, u_t in zip(ts, frames, u):
            assert np.linalg.norm(u_t - p @ scipy.linalg.expm(-1j * t * model.h_bar), 2) < 1e-8


class TestDirectIntegrationAtLargerDimension:
    def test_working_memory_stays_on_the_state(self):
        # d = 8, above the step-matrix switch: the batched master equation must
        # keep its stages on d x d states; a d^2 x d^2 generator per stage node
        # of the first march (60 nodes) would alone take 3.9 MB
        d = 8
        rng = np.random.default_rng(8)
        model = _larger_model(d, rng)
        bundle = build_generator(model, validate=False)
        dmap = DynamicalMap(model, bundle)
        dmap.h_series()
        rho0 = random_density(rng, d)
        ts = np.linspace(0.0, 1.0, 3)
        tracemalloc.start()
        try:
            direct = dmap.integrate_direct(rho0, ts, tol=1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        reference = _rk4_reference(_master_rhs(model, bundle, dmap), rho0, ts, 1e-6, trace_norm)
        assert np.max(np.abs(direct - reference)) <= 1e-12


def _traced_peak(run):
    """The tracemalloc peak, in bytes, of ``run()``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMarchMemoryFollowsTheChunk:
    """Each chunk forms its own substeps, so a long grid costs one chunk's
    arrays and per-node arrays, not arrays over every substep of a level."""

    def test_rk4_path_on_a_long_interval(self):
        # one chunk of 4,096 substeps (a state of one entry) holds its edges, their
        # indices and 8,193 stage nodes, about 0.3 MB; the last level's 80,000
        # substeps took 2.6 MB as whole-level start, size and index arrays
        peak = _traced_peak(lambda: rk4_path(lambda t, y: -0.01 * y, [1.0], [0.0, 2000.0], tol=1e-12,
                                             norm=np.linalg.norm))
        assert peak < 1e6

    # qubit_driven over 0:2000:50: the last levels take 80,017 substeps (master
    # equation) and 160,034 (oracle); whole-level arrays took 2.7 MB and 5.3 MB
    long_grid = np.linspace(0.0, 2000.0, 50)

    def test_master_equation_on_a_long_grid(self):
        model = PRESETS["qubit_driven"]()
        dmap = DynamicalMap(model, build_generator(model))
        dmap.h_series()  # synthesized outside the traced march
        rho0, direct = np.full((2, 2), 0.5, dtype=complex), []
        assert _traced_peak(lambda: direct.append(dmap.integrate_direct(rho0, self.long_grid))) < 1.5e6
        # qmme evolve --rho0 plus --grid 0:2000:50 holds the march within 1e-6 of the product form
        assert np.max(trace_norm(direct[0] - dmap.evolve(rho0, self.long_grid))) <= 1e-6

    def test_master_equation_on_a_long_grid_non_unital(self):
        # qubit_driven's flat bath is unital and reaches I/2 by the second node; qutrit_thermal
        # still moves at t = 400, where the two paths agree to 1.5e-10. Frames evaluated at
        # float32 times move the product form by 2.1e-6, and a dissipator scaled by 1.01 fails too
        model = PRESETS["qutrit_thermal"]()
        dmap = DynamicalMap(model, build_generator(model))
        ts, rho0 = np.linspace(0.0, 400.0, 50), np.full((3, 3), 1.0 / 3.0, dtype=complex)
        assert np.max(trace_norm(dmap.integrate_direct(rho0, ts) - dmap.evolve(rho0, ts))) <= 1e-9

    def test_oracle_on_a_long_grid(self):
        model = PRESETS["qubit_driven"]()
        assert _traced_peak(lambda: integrate_schrodinger_direct(model, self.long_grid)) < 3e6


class TestMapBasics:
    def test_identity_at_zero(self, q2):
        _, _, dmap = q2
        eye = np.eye(dmap.dim * dmap.dim)
        assert np.linalg.norm(dmap.at(0.0).matrix - eye, 2) < 1e-12

    def test_negative_time_rejected(self, q1):
        _, _, dmap = q1
        with pytest.raises(OrderViolation):
            dmap.at(-0.5)

    def test_propagator_order(self, q1):
        _, _, dmap = q1
        with pytest.raises(OrderViolation):
            dmap.propagator(1.0, 2.0)

    def test_propagator_identity_on_diagonal(self, q2):
        _, _, dmap = q2
        eye = np.eye(dmap.dim * dmap.dim)
        for t in (0.0, 1.7):
            assert np.linalg.norm(dmap.propagator(t, t).matrix - eye, 2) < 1e-11

    def test_propagator_from_origin_is_map(self, q2):
        _, _, dmap = q2
        t = 2.3
        assert np.linalg.norm(dmap.propagator(t, 0.0).matrix - dmap.at(t).matrix, 2) < 1e-11

    def test_composition_law(self, q2):
        _, _, dmap = q2
        a = dmap.propagator(3.1, 1.7).matrix @ dmap.propagator(1.7, 0.4).matrix
        b = dmap.propagator(3.1, 0.4).matrix
        assert np.linalg.norm(a - b, 2) < 1e-11

    def test_exponential_matches_scipy(self, q3):
        _, bundle, dmap = q3
        for t in (0.4, 2.6):
            direct = scipy.linalg.expm(t * bundle.x.matrix)
            assert np.linalg.norm(dmap.expm_x(t) - direct, 2) < 1e-10

    def test_frame_samples_unitary(self, q2):
        _, _, dmap = q2
        for t in (0.3, 1.1, 5.9):
            p = dmap.p_at(t)
            assert np.linalg.norm(p @ p.conj().T - np.eye(2), 2) < 1e-10

    def test_eigensystem_consistency(self, q3):
        _, bundle, dmap = q3
        w, v, vinv = dmap.eigensystem()
        assert np.linalg.norm(bundle.x.matrix @ v - v * w, 2) < 1e-10
        assert np.linalg.norm(v @ vinv - np.eye(9), 2) < 1e-10

    def test_defective_gate(self, q1, monkeypatch):
        model, bundle, _ = q1
        monkeypatch.setattr(linalg, "_COND_LIMIT", 1.0)
        shim = DynamicalMap(model, bundle)
        with pytest.raises(Defective):
            shim.eigensystem()
        # the map itself still works through the dense exponential
        assert np.linalg.norm(shim.at(0.7).matrix - DynamicalMap(model, bundle).at(0.7).matrix, 2) < 1e-12
        rho0, ts = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex), np.linspace(0.0, 6.0, 13)
        gap = shim.evolve(rho0, ts) - DynamicalMap(model, bundle).evolve(rho0, ts)
        assert np.max(np.abs(gap)) < 1e-12
        assert shim.evolve(rho0, []).shape == (0, 2, 2)


class TestStackedMaps:
    """``maps`` stacks the map and its two-time propagators; ``at`` and ``propagator`` are its one-row case."""

    fixtures = pytest.mark.parametrize("fixture", ["q1", "q2", "q2_periodic", "q3", "q3_static"])

    @fixtures
    def test_one_row_is_at_and_propagator(self, fixture, request):
        _, _, dmap = request.getfixturevalue(fixture)
        for t, s in ((0.0, 0.0), (0.7, 0.2), (13.5, 4.1), (50.0, 49.9)):
            assert np.array_equal(dmap.at(t).matrix, dmap.maps([t])[0])
            assert np.array_equal(dmap.propagator(t, s).matrix, dmap.maps([t], [s])[0])

    @fixtures
    def test_rows_match_row_by_row(self, fixture, request):
        # p at one time and p in a batch may differ in the last bit: _evaluate_rows takes phases @ flat
        # by another BLAS path for one row (3.3e-16 on qutrit_thermal at the certificate's default times)
        _, _, dmap = request.getfixturevalue(fixture)
        ts = np.logspace(-3, math.log10(50.0), 20)
        starts = np.sort(np.random.default_rng(3).uniform(0.0, 50.0, size=(ts.size, 2)), axis=1)
        for stack, one in ((dmap.maps(ts), [dmap.at(t) for t in ts]),
                           (dmap.maps(starts[:, 1], starts[:, 0]), [dmap.propagator(t, s) for s, t in starts])):
            assert stack.shape == (ts.size, dmap.dim**2, dmap.dim**2)
            for row, superop in zip(stack, one):
                assert np.linalg.norm(row - superop.matrix, 2) <= 1e-14 * np.linalg.norm(superop.matrix, 2)

    def test_batched_exponential_is_bit_identical(self, q3):
        _, _, dmap = q3
        ts = np.logspace(-3, math.log10(50.0), 20)
        for t, e in zip(ts, dmap._expms(ts)):
            assert np.array_equal(e, dmap.expm_x(t))

    def test_order_violation_names_the_first_bad_row(self, q1):
        _, _, dmap = q1
        with pytest.raises(OrderViolation, match="map time must be nonnegative, got -0.5"):
            dmap.maps([0.3, -0.5, -1.0])
        with pytest.raises(OrderViolation, match="propagator needs s <= t, got s=2.0 > t=1.0"):
            dmap.maps([3.0, 1.0, 0.5], [0.5, 2.0, 4.0])
        # a propagator's times may be negative, as before
        assert dmap.maps([-0.5], [-1.0]).shape == (1, 4, 4)
        with pytest.raises(DimensionMismatch, match="1 starts for 2 times"):
            dmap.maps([1.0, 2.0], [0.5])

    def test_dense_exponential_fallback(self, q3, monkeypatch):
        model, bundle, dmap = q3
        monkeypatch.setattr(linalg, "_COND_LIMIT", 1.0)
        shim = DynamicalMap(model, bundle)
        ts, starts = np.array([0.0, 0.4, 2.6, 9.0]), np.array([0.0, 0.1, 2.6, 3.5])
        assert np.max(np.abs(shim.maps(ts, starts) - dmap.maps(ts, starts))) < 1e-12
        assert np.array_equal(shim.maps(ts[1:2])[0], shim.at(0.4).matrix)
        assert shim.maps([]).shape == shim.maps([], []).shape == (0, 9, 9)


class TestTrajectories:
    def test_trace_holds_at_large_times(self, q3_static):
        # X's kernel eigenvalue is cached as exactly 0: its rounding error of about 1e-16, taken
        # through exp(t w), put the trace of I/3 at 1.009 at t = 1e14 and at 6898 at t = 1e17
        _, _, dmap = q3_static
        assert np.count_nonzero(dmap.eigensystem()[0] == 0) == 1
        states = dmap.evolve(np.eye(3) / 3, [1e14, 1e16, 1e17])
        assert np.max(np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)) <= 1e-12

    def test_trace_and_hermiticity_preserved(self, q2, rng):
        _, _, dmap = q2
        rho0 = random_density(rng, 2)
        states = dmap.evolve(rho0, np.linspace(0.0, 12.0, 60))
        for rho in states:
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.linalg.norm(rho - rho.conj().T) < 1e-12

    def test_dephasing_closed_form(self, q1):
        # populations frozen; coherence decays at 2g and rotates at the
        # level splitting: rho01(t) = exp(-(0.5 + 0.6 i) t) rho01(0)
        _, _, dmap = q1
        rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
        ts = np.array([0.0, 0.5, 1.0, 3.0])
        states = dmap.evolve(rho0, ts)
        for t, rho in zip(ts, states):
            assert rho[0, 0] == pytest.approx(0.7, abs=1e-13)
            assert rho[1, 1] == pytest.approx(0.3, abs=1e-13)
            expect = (0.2 - 0.1j) * np.exp(-(0.5 + 0.6j) * t)
            assert abs(rho[0, 1] - expect) < 1e-12

    def test_evolve_matches_map_application(self, q2, rng):
        _, _, dmap = q2
        rho0 = random_density(rng, 2)
        ts = np.array([0.0, 0.8, 2.9, 7.3])
        states = dmap.evolve(rho0, ts)
        for t, rho in zip(ts, states):
            assert np.allclose(devectorize(dmap.at(t).matrix @ vectorize(rho0)), rho, atol=1e-12)

    def test_negative_time_rejected(self, q1):
        model, _, dmap = q1
        with pytest.raises(OrderViolation):
            dmap.evolve(np.eye(2) / 2, [-1.0, 0.0])
        with pytest.raises(OrderViolation):
            dmap.integrate_direct(np.eye(2) / 2, [-1.0, 0.0])
        with pytest.raises(OrderViolation):
            integrate_schrodinger_direct(model, [-1.0, 0.0])

    @pytest.mark.parametrize("path, bad", [
        (path, bad) for path in ("evolve", "direct-step-matrices", "direct-stages", "oracle")
        for bad in ("rho0-nan", "rho0-inf", "t-nan", "t-inf") if path != "oracle" or bad.startswith("t-")])
    def test_non_finite_input_is_overflow(self, path, bad, q1):
        # refused before any march: above d = 4 a NaN state went through all 12 step
        # halvings to NoConvergence, and a NaN or infinite time counted its substeps
        model, _, dmap = _five_level() if path == "direct-stages" else q1
        value, d = (np.nan if bad.endswith("nan") else np.inf), dmap.dim
        rho0, ts = np.eye(d, dtype=complex) / d, np.array([0.0, 1.0])
        if bad.startswith("rho0"):
            rho0[0, 1] = value
        else:
            ts[1] = value
        run = {"evolve": lambda: dmap.evolve(rho0, ts),
               "oracle": lambda: integrate_schrodinger_direct(model, ts)}.get(path, lambda: dmap.integrate_direct(rho0, ts))
        with pytest.raises(Overflow, match=r"^(state contains non-finite entries|sample time (nan|inf) is not finite)$"):
            run()

    def test_direct_grid_after_zero(self, q2):
        # rho0 is the state at t = 0, so a grid starting later is reached by marching from 0
        _, _, dmap = q2
        rho0 = np.full((2, 2), 0.5, dtype=complex)
        for ts in ([2.0], [5.0, 6.0, 10.0]):
            gaps = dmap.integrate_direct(rho0, ts) - dmap.evolve(rho0, ts)
            assert np.max(trace_norm(gaps)) < 1e-7

    def test_non_unitary_series_refused_at_construction(self, q1):
        # p(t) = 1 + a (exp(i t) - 1) is unitary at t = 0 only: p p^dag - I = 2 a (1 - a) (cos t - 1) I,
        # whose Frobenius norm peaks at t = pi on sqrt(2) 4 a (1 - a), the l1 norm of its coefficients
        model, bundle, _ = q1
        a = 1e-6
        series = FourierOperatorSeries(2, 2, 1, {(0, 0): (1 - a) * np.eye(2), (1, 0): a * np.eye(2)})
        assert series.unitarity_bound() == pytest.approx(4.0 * math.sqrt(2.0) * a * (1 - a), rel=1e-12)
        with pytest.raises(NotUnitary, match=r"^p series unitarity bound 5\.657e-06 > 1\.0e-09$"):
            DynamicalMap(dataclasses.replace(model, p_series=series), bundle)
        assert DynamicalMap(dataclasses.replace(model, p_series=series), bundle, tol_unitary=6e-6).dim == 2

    def test_bound_is_the_frobenius_norm(self, q1):
        # E = p p^dag - I = c I at d = 2 has ||E||_2 = c and ||E||_F = sqrt(2) c: the bound is the latter,
        # so c = 0.7e-9 passes the 1e-9 gate and c = 0.8e-9 does not
        model, bundle, _ = q1
        for c, passes in ((0.7e-9, True), (0.8e-9, False)):
            series = FourierOperatorSeries.constant(math.sqrt(1.0 + c) * np.eye(2), r=model.p_series.r)
            assert series.unitarity_bound() == pytest.approx(math.sqrt(2.0) * c, rel=1e-6)
            if passes:
                DynamicalMap(dataclasses.replace(model, p_series=series), bundle)
            else:
                with pytest.raises(NotUnitary):
                    DynamicalMap(dataclasses.replace(model, p_series=series), bundle)

    def test_non_unitary_frame_names_first_bad_time(self, q2):
        # qubit_driven passes its bound, but from t = 5e199 a phase t (n . omega) has no digit
        # below its integer part, and the evaluated frame is not unitary: Overflow names 5e199
        _, _, dmap = q2
        assert dmap.frames(np.linspace(0.0, 1e3, 101)).shape == (101, 2, 2)
        with pytest.raises(Overflow, match=r"^p\(5e\+199\) lost its phase in evaluation: unitarity residual "):
            dmap.frames([0.0, 1.0, 5e199, 1e200])
        with pytest.raises(Overflow, match=r"^p\(5e\+199\) lost its phase"):
            dmap.evolve(np.eye(2) / 2, [0.0, 5e199])

    def test_unitary_frames_take_no_svd(self, q3, monkeypatch):
        # the evaluation guard is one Frobenius norm per node: no SVD and no 2-norm
        _, _, dmap = q3
        ts = np.linspace(0.0, 50.0, 101)
        expect = dmap.frames(ts)
        norm = np.linalg.norm

        def no_svd(*args, **kwargs):
            raise AssertionError("frames took an SVD")

        def frobenius_only(x, ord=None, axis=None, keepdims=False):
            assert ord in (None, "fro"), f"frames took a norm of order {ord}"
            return norm(x, ord, axis, keepdims)

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        monkeypatch.setattr(scipy.linalg, "svd", no_svd)
        monkeypatch.setattr(np.linalg, "norm", frobenius_only)
        assert np.array_equal(dmap.frames(ts), expect)

    @pytest.mark.parametrize("fixture", ["q2", "q3"])
    def test_wrong_shaped_state_rejected(self, fixture, request):
        _, _, dmap = request.getfixturevalue(fixture)
        d = dmap.dim
        for rho0 in (np.eye(d + 1) / (d + 1), np.eye(d).reshape(-1) / d, np.ones((d, d + 1))):
            with pytest.raises(DimensionMismatch, match=rf"^initial state has shape .*, map dimension is {d}$"):
                dmap.evolve(rho0, [0.0, 1.0])
            with pytest.raises(DimensionMismatch):
                dmap.integrate_direct(rho0, [0.0, 1.0])

    def test_unital_fixed_point_kept(self, q2_periodic):
        # the driven qubit is unital, L(t) I = 0 up to rounding. Step matrices held
        # as R - I round at the scale of the step, so I / 2 stays put to 1e-18;
        # held as R they round at the scale of I, and the state drifted by 1.5e-14
        _, _, dmap = q2_periodic
        states = dmap.integrate_direct(np.eye(2) / 2, np.linspace(0.0, 20.0, 200), tol=1e-8)
        assert np.max(np.abs(states - np.eye(2) / 2)) < 1e-16

    def test_empty_grid(self, q2):
        _, _, dmap = q2
        rho0 = np.eye(2) / 2
        assert dmap.integrate_direct(rho0, []).shape == dmap.evolve(rho0, []).shape == (0, 2, 2)

    def test_direct_integration_matches_closed_form(self, q1):
        _, _, dmap = q1
        rho0 = np.array([[0.6, 0.25 + 0.05j], [0.25 - 0.05j, 0.4]])
        ts = np.linspace(0.0, 4.0, 17)
        direct = dmap.integrate_direct(rho0, ts, tol=1e-10)
        product = dmap.evolve(rho0, ts)
        for a, b in zip(direct, product):
            assert trace_norm(a - b) < 1e-8

    def test_module_entry_point(self, q1, rng):
        _, _, dmap = q1
        rho0 = random_density(rng, 2)
        ts = np.linspace(0.0, 2.0, 9)
        states = dmap.integrate_direct(rho0, ts)
        assert ts.shape == (9,) and states.shape == (9, 2, 2)
        assert trace_norm(states[-1] - dmap.evolve(rho0, ts)[-1]) < 1e-7


class TestLindbladian:
    def test_generates_trajectory_derivative(self, q2, rng):
        _, _, dmap = q2
        rho0 = random_density(rng, 2)
        t, eps = 1.3, 1e-4
        rho_t = dmap.evolve(rho0, [t])[0]
        plus = dmap.evolve(rho0, [t + eps])[0]
        minus = dmap.evolve(rho0, [t - eps])[0]
        numeric = (plus - minus) / (2.0 * eps)
        analytic = devectorize(dmap.lindbladian(t).matrix @ vectorize(rho_t))
        assert trace_norm(numeric - analytic) < 1e-6

    @pytest.mark.parametrize("fixture", ["q2", "q3"])
    def test_matches_superoperator_formula(self, fixture, request):
        # L(t) = -i ad(H_eff) + S D S^{-1}, composed from the dense kernels of linalg
        _, bundle, dmap = request.getfixturevalue(fixture)
        for t in (0.0, 0.37, 5.2):
            p = dmap.p_at(t)
            h_eff = dmap.h_series().evaluate(dmap.model.frequencies, t) + p @ bundle.delta_h @ p.conj().T
            expect = (-1j * ad_superop(h_eff) + conjugation_superop(p) @ bundle.dissipator.matrix
                      @ conjugation_superop(p.conj().T))
            assert np.max(np.abs(dmap.lindbladian(t).matrix - expect)) < 1e-14

    @pytest.mark.parametrize("fixture", ["q2", "q3", 4])
    def test_stack_matches_per_node_formula(self, fixture, request):
        # the stack assembled in place against the dense kernels of linalg, node by node
        if isinstance(fixture, str):
            model, bundle, dmap = request.getfixturevalue(fixture)
        else:
            model = _larger_model(fixture, np.random.default_rng(fixture))
            bundle = build_generator(model, validate=False)
            dmap = DynamicalMap(model, bundle)
        ts = np.linspace(0.0, 20.0, 50)
        p = model.p_series.evaluate_many(model.frequencies, ts)
        h = dmap.h_series().evaluate_many(model.frequencies, ts)
        expect = np.array([conjugation_superop(p_t) @ bundle.dissipator.matrix @ conjugation_superop(p_t.conj().T)
                           - 1j * ad_superop(h_t + p_t @ bundle.delta_h @ p_t.conj().T)
                           for p_t, h_t in zip(p, h)])
        assert np.max(np.abs(dmap._lindbladians(ts) - expect)) <= 1e-15 * np.max(np.abs(expect))

    def test_non_unitary_frame_rejected(self, q2):
        # the frame of TestTrajectories::test_non_unitary_frame_names_first_bad_time
        _, _, dmap = q2
        with pytest.raises(Overflow, match=r"^p\(5e\+199\) lost its phase"):
            dmap.lindbladian(5e199)

    def test_trace_annihilated(self, q3):
        _, _, dmap = q3
        eye_vec = vectorize(np.eye(3))
        for t in (0.0, 1.9):
            residual = eye_vec.conj() @ dmap.lindbladian(t).matrix
            assert np.linalg.norm(residual) < 1e-11


class TestSchrodingerReduction:
    def test_product_form_solves_schrodinger(self, q2):
        # u(t) = p(t) exp(-i t h_bar) against direct integration of the
        # synthesized Hamiltonian
        model, _, dmap = q2
        ts = np.linspace(0.0, 10.0, 41)
        u_path = integrate_schrodinger_direct(model, ts, tol=1e-10)
        h_bar = model.h_bar
        worst = 0.0
        for t, u in zip(ts, u_path):
            closed = dmap.p_at(t) @ scipy.linalg.expm(-1j * t * h_bar)
            worst = max(worst, float(np.linalg.norm(u - closed, 2)))
        assert worst < 1e-7

    @pytest.mark.parametrize("fixture", ["q1", "q2", "q2_periodic", "q3", "q3_static"])
    def test_oracle_accuracy_on_shipped_models(self, fixture, request):
        # the RK4 oracle missed the first bound on qubit_driven_periodic (2.8e-12)
        model, _, dmap = request.getfixturevalue(fixture)
        ts = np.linspace(0.0, 20.0, 81)
        u_path = integrate_schrodinger_direct(model, ts, tol=1e-10)
        eye = np.eye(model.dim)
        for t, p, u in zip(ts, dmap.frames(ts), u_path):
            assert np.linalg.norm(u - p @ scipy.linalg.expm(-1j * t * model.h_bar), 2) <= 1e-12
            assert np.linalg.norm(u @ u.conj().T - eye, 2) <= 1e-13

    def test_empty_grid(self, q3):
        model, _, _ = q3
        assert integrate_schrodinger_direct(model, []).shape == (0, 3, 3)

    def test_grid_after_zero(self, q3):
        # u(0) = I, so a grid starting at t = 3 still follows p(t) exp(-i t h_bar)
        model, _, dmap = q3
        ts = np.linspace(3.0, 8.0, 11)
        u_path = integrate_schrodinger_direct(model, ts, tol=1e-10)
        for t, p, u in zip(ts, dmap.frames(ts), u_path):
            assert np.linalg.norm(u - p @ scipy.linalg.expm(-1j * t * model.h_bar), 2) <= 1e-10

    def test_unitarity_of_integrated_path(self, q2):
        model, _, _ = q2
        u = integrate_schrodinger_direct(model, np.linspace(0.0, 5.0, 11), tol=1e-10)[-1]
        assert np.linalg.norm(u @ u.conj().T - np.eye(2), 2) < 1e-8


class TestTruncationControl:
    def test_coarse_frame_within_tail_budget(self, q2):
        model, _, _ = q2
        fine = model.p_series
        coarse = fine.truncate(4)
        budget = coarse.tail_norm + fine.tail_norm + 1e-13
        omega = model.frequencies
        worst = 0.0
        for t in np.linspace(0.0, 30.0, 150):
            diff = np.linalg.norm(coarse.evaluate(omega, t) - fine.evaluate(omega, t), 2)
            worst = max(worst, float(diff))
        assert worst <= budget
        assert coarse.tail_norm > fine.tail_norm
