"""Checks of qmme's outputs against the benchmark's own computations.

Every check returns a list of problems (empty when the output is right). The
references are computed here with plain numpy and ``scipy.linalg.expm``:
``p(t)`` is summed from the model's coefficients, ``exp(tX)`` is a fresh
matrix exponential, and Choi matrices are built from their definition. The
rest are properties the method must have: states are densities, X
preserves the trace, its spectrum lies in the closed left half-plane and
contains 0.
"""

import csv
import io
import json

import numpy as np
import scipy.linalg

TOL_STATE = 1e-9  # trace, Hermiticity and positivity of a state
TOL_REFERENCE = 1e-9  # product form against p expm(tX) rho0 p^dag
TOL_PATHS = 1e-6  # product form against direct RK4, trace distance
TOL_ORACLE = 1e-8  # u(t) against p(t) expm(-i t h_bar), 2-norm
TOL_TRACE_PRESERVING = 1e-10  # |vec(I)^dag X| entries
TOL_SPECTRUM = 1e-9  # largest real part, smallest modulus
TOL_SELECTION = 1e-10  # admissible models
MIN_SELECTION_VIOLATION = 1e-3  # the congruence-violating model
TOL_DECAY_FIT = 0.05
TOL_GIBBS = 1e-10
TOL_CHOI_AGREEMENT = 1e-9


def _fail(label, value, bound, relation="<="):
    return [f"{label}: {value:.3e} not {relation} {bound:.1e}"]


def vec(rho):
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v, d):
    return np.asarray(v).reshape((d, d), order="F")


def p_reference(model, ts):
    """p(t) at the times ``ts`` from the model's coefficients, and p'(t)."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    d = model.dim
    p = np.zeros((ts.size, d, d), dtype=complex)
    dp = np.zeros_like(p)
    for n, a in model.p_series.coeffs.items():
        freq = float(np.dot(n, model.frequencies))
        phase = np.exp(1j * freq * ts)[:, None, None]
        p += phase * a
        dp += (1j * freq) * phase * a
    return p, dp


def series_values(coeffs, omega, ts, d):
    """Sum a coefficient dict {n: matrix} at the times ``ts``."""
    out = np.zeros((len(ts), d, d), dtype=complex)
    for n, a in coeffs.items():
        out += np.exp(1j * float(np.dot(n, omega)) * np.asarray(ts))[:, None, None] * a
    return out


def product_reference(model, x, rho0, ts):
    """p(t) [expm(tX) rho0] p(t)^dag, computed without qmme."""
    d = model.dim
    p, _ = p_reference(model, ts)
    v0 = vec(rho0)
    out = np.empty((len(ts), d, d), dtype=complex)
    for i, t in enumerate(ts):
        u = unvec(scipy.linalg.expm(float(t) * x) @ v0, d)
        out[i] = p[i] @ u @ p[i].conj().T
    return out


def trace_distances(a, b):
    return np.sum(np.linalg.svd(np.asarray(a) - np.asarray(b), compute_uv=False), axis=-1)


# ---------------------------------------------------------------------------
# states and trajectories
# ---------------------------------------------------------------------------

def states_are_densities(states, label, tol=TOL_STATE):
    states = np.asarray(states, dtype=complex)
    problems = []
    trace_err = float(np.max(np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)))
    if trace_err > tol:
        problems += _fail(f"{label} trace defect", trace_err, tol)
    herm = float(np.max(np.abs(states - np.conj(np.swapaxes(states, 1, 2)))))
    if herm > tol:
        problems += _fail(f"{label} Hermiticity defect", herm, tol)
    lowest = float(np.min(np.linalg.eigvalsh(0.5 * (states + np.conj(np.swapaxes(states, 1, 2))))))
    if lowest < -tol:
        problems += _fail(f"{label} lowest eigenvalue", lowest, -tol, ">=")
    return problems


def product_matches_reference(states, model, x, rho0, ts, label, tol=TOL_REFERENCE):
    ref = product_reference(model, x, rho0, ts)
    err = float(np.max(np.abs(np.asarray(states) - ref)))
    return _fail(f"{label} product form vs own expm", err, tol) if err > tol else []


def paths_agree(product, direct, label, tol=TOL_PATHS):
    worst = float(np.max(trace_distances(product, direct)))
    return _fail(f"{label} product vs RK4 trace distance", worst, tol) if worst > tol else []


def oracle_matches(u_path, model, ts, label, tol=TOL_ORACLE):
    p, _ = p_reference(model, ts)
    h_bar = 0.5 * (model.h_bar + model.h_bar.conj().T)
    worst = 0.0
    for i, t in enumerate(ts):
        closed = p[i] @ scipy.linalg.expm(-1j * float(t) * h_bar)
        worst = max(worst, float(np.linalg.norm(u_path[i] - closed, 2)))
    return _fail(f"{label} oracle vs p expm(-i t h_bar)", worst, tol) if worst > tol else []


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------

def trace_preserving(x, label, tol=TOL_TRACE_PRESERVING):
    d = int(round(np.sqrt(x.shape[0])))
    defect = float(np.max(np.abs(vec(np.eye(d)).conj() @ x)))
    return _fail(f"{label} |vec(I)^dag X|", defect, tol) if defect > tol else []


def spectrum_in_left_half_plane(x, label, tol=TOL_SPECTRUM):
    w = np.linalg.eigvals(x)
    problems = []
    if float(np.max(w.real)) > tol:
        problems += _fail(f"{label} largest real part of spec X", float(np.max(w.real)), tol)
    if float(np.min(np.abs(w))) > tol:
        problems += _fail(f"{label} smallest |eigenvalue| of X", float(np.min(np.abs(w))), tol)
    return problems


def spectra_match(reported, x, label, tol=1e-8):
    """Every own eigenvalue of X lies within ``tol`` of a reported one, and back."""
    own = np.linalg.eigvals(x)
    reported = np.asarray(reported, dtype=complex)
    if reported.size != own.size:
        return [f"{label}: {reported.size} eigenvalues reported, X has {own.size}"]
    gap = np.abs(own[:, None] - reported[None, :])
    worst = float(max(np.max(np.min(gap, axis=1)), np.max(np.min(gap, axis=0))))
    return _fail(f"{label} reported vs own eigenvalues", worst, tol) if worst > tol else []


def dephasing_spectrum(eigenvalues, model, label, tol=1e-10):
    """Closed form for a qubit dephased along its energy axis at a flat rate:
    0 (twice) and -2 gamma +- i gap."""
    gamma = float(model.bath.params["gamma"])
    levels = np.linalg.eigvalsh(model.h_bar)
    gap = float(levels[-1] - levels[0])
    expected = np.array([0.0, 0.0, -2 * gamma + 1j * gap, -2 * gamma - 1j * gap])
    got = np.asarray(eigenvalues, dtype=complex)
    if got.size != 4:
        return [f"{label}: {got.size} eigenvalues, expected 4"]
    gap_m = np.abs(expected[:, None] - got[None, :])
    worst = float(max(np.max(np.min(gap_m, axis=1)), np.max(np.min(gap_m, axis=0))))
    return _fail(f"{label} closed-form dephasing spectrum", worst, tol) if worst > tol else []


def gibbs_fixed(x, model, label, tol=TOL_GIBBS):
    beta = float(model.bath.params["beta"])
    gibbs = scipy.linalg.expm(-beta * model.h_bar)
    gibbs = gibbs / np.trace(gibbs)
    residual = float(np.linalg.norm(x @ vec(gibbs)))
    return _fail(f"{label} |X vec(gibbs)|", residual, tol) if residual > tol else []


def selection_deviation(dev, admissible, label):
    if admissible:
        return _fail(f"{label} selection deviation", dev, TOL_SELECTION) if dev > TOL_SELECTION else []
    if not dev > MIN_SELECTION_VIOLATION:
        return _fail(f"{label} selection deviation of the violating model", dev,
                     MIN_SELECTION_VIOLATION, ">")
    return []


def validation(passed, congruence_witness, admissible, label):
    if admissible and not passed:
        return [f"{label}: admissible model failed validation"]
    if not admissible and (passed or congruence_witness is None):
        return [f"{label}: violating model not rejected with a congruence witness"]
    return []


def decay_fit(relative_error, label, tol=TOL_DECAY_FIT):
    return _fail(f"{label} decay-fit relative error", relative_error, tol) if relative_error > tol else []


def synthesized_hamiltonian(coeffs, tail, model, ts, label):
    """H(t) summed from the synthesized coefficients against
    i p'(t) p(t)^dag + p(t) h_bar p(t)^dag from the model's own p, within the
    reported tail (plus rounding)."""
    p, dp = p_reference(model, ts)
    pd = np.conj(np.swapaxes(p, 1, 2))
    expected = 1j * dp @ pd + p @ model.h_bar @ pd
    got = series_values(coeffs, model.frequencies, ts, model.dim)
    worst = float(np.max(np.linalg.norm(got - expected, axis=(1, 2))))
    bound = float(tail) + 1e-10
    return _fail(f"{label} synthesized H(t) vs own formula", worst, bound) if worst > bound else []


def choi_by_definition(superop, d):
    """C = sum_ij E_ij (x) S(E_ij), with S applied to column-stacked matrices."""
    c = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            c[d * i:d * i + d, d * j:d * j + d] = unvec(superop @ vec(e), d)
    return c


def certificate(cert, model, x, label, tol=TOL_CHOI_AGREEMENT, rows=3):
    """The certificate passes, and its Choi eigenvalues at a few sample
    times agree with the benchmark's own map p expm(tX) p^dag."""
    problems = []
    if not cert["passed"]:
        problems.append(f"{label}: certificate failed (choi {cert['worst_choi_eig']:.3e}, "
                        f"trace {cert['worst_trace_defect']:.3e})")
    d = model.dim
    times = cert["times"]
    picked = [times[int(k)] for k in np.linspace(0, len(times) - 1, rows)]
    p, _ = p_reference(model, [row["t"] for row in picked])
    for k, row in enumerate(picked):
        superop = np.kron(p[k].conj(), p[k]) @ scipy.linalg.expm(row["t"] * x)
        c = choi_by_definition(superop, d)
        own = float(np.linalg.eigvalsh(0.5 * (c + c.conj().T))[0])
        if abs(own - row["choi_min_eig"]) > tol:
            problems += _fail(f"{label} Choi eigenvalue at t={row['t']:.3g} vs own",
                              abs(own - row["choi_min_eig"]), tol)
    return problems


# ---------------------------------------------------------------------------
# command-line outputs
# ---------------------------------------------------------------------------

def parse_json(text, label):
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f"{label}: stdout is not JSON ({exc})"]


def matrix_from_json(m):
    a = np.asarray(m, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def exit_code(code, expected, label):
    return [] if code == expected else [f"{label}: exit code {code}, documented {expected}"]


def cli_validate(code, text, admissible, label):
    doc, problems = parse_json(text, label)
    problems += exit_code(code, 0 if admissible else 1, label)
    if doc is not None:
        witness = doc.get("congruence_freedom", {}).get("witness")
        problems += validation(doc.get("passed"), witness, admissible, label)
    return problems


def cli_synthesize(code, text, model, label):
    doc, problems = parse_json(text, label)
    problems += exit_code(code, 0, label)
    if doc is not None:
        coeffs = {tuple(c["n"]): matrix_from_json(c["matrix"]) for c in doc["coefficients"]}
        ts = np.linspace(0.0, 7.0, 5)
        problems += synthesized_hamiltonian(coeffs, doc["tail_norm"], model, ts, label)
    return problems


def cli_build(code, text, label):
    """Checks build.json; returns (problems, X or None)."""
    doc, problems = parse_json(text, label)
    problems += exit_code(code, 0, label)
    if doc is None or "x_matrix" not in doc:
        return problems + [f"{label}: no x_matrix"], None
    x = matrix_from_json(doc["x_matrix"])
    problems += trace_preserving(x, label)
    problems += spectrum_in_left_half_plane(x, label)
    if not doc["covariance"]["passed"]:
        problems.append(f"{label}: covariance check failed")
    if not doc["validation"]["passed"]:
        problems.append(f"{label}: validation failed")
    return problems, x


def parse_trajectory(text, d):
    """(ts, product states, direct states, dist) from the evolve CSV."""
    rows = list(csv.DictReader(io.StringIO(text)))
    ts = np.array([float(r["t"]) for r in rows])

    def track(prefix):
        out = np.empty((len(rows), d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                out[:, i, j] = [float(r[f"{prefix}re_{i}{j}"]) + 1j * float(r[f"{prefix}im_{i}{j}"])
                                for r in rows]
        return out

    dist = np.array([float(r["dist"]) for r in rows])
    return ts, track(""), track("direct_"), dist


def cli_evolve(code, text, model, x, rho0, label, rows=5):
    problems = exit_code(code, 0, label)
    try:
        ts, product, direct, dist = parse_trajectory(text, model.dim)
    except (KeyError, ValueError) as exc:
        return problems + [f"{label}: stdout is not the trajectory CSV ({exc})"]
    if ts.size == 0:
        return problems + [f"{label}: trajectory CSV has no rows"]
    problems += states_are_densities(product, label + " product")
    problems += states_are_densities(direct, label + " direct")
    problems += paths_agree(product, direct, label)
    if float(np.max(dist)) > TOL_PATHS:
        problems += _fail(f"{label} reported dist", float(np.max(dist)), TOL_PATHS)
    if x is not None:
        pick = np.unique(np.linspace(0, ts.size - 1, rows).astype(int))
        problems += product_matches_reference(product[pick], model, x, rho0, ts[pick], label)
    return problems


def cli_spectrum(code, text, x, label):
    doc, problems = parse_json(text, label)
    problems += exit_code(code, 0, label)
    if doc is not None:
        eig = np.array([complex(a, b) for a, b in doc["eigenvalues"]])
        if float(np.max(eig.real)) > TOL_SPECTRUM or doc["k0"] < 1:
            problems.append(f"{label}: reported spectrum leaves the closed left half-plane or misses 0")
        if x is not None:
            problems += spectra_match(eig, x, label)
    return problems


def cli_steady_state(code, text, stationary_start, label):
    doc, problems = parse_json(text, label)
    problems += exit_code(code, 0, label)
    if doc is not None:
        fit = doc["decay_fit"]
        if "relative_error" in fit:
            problems += decay_fit(fit["relative_error"], label)
        elif not stationary_start:
            problems.append(f"{label}: no decay fit ({fit.get('error')})")
    return problems


def cli_certify(code, text, model, x, label):
    doc, problems = parse_json(text, label)
    problems += exit_code(code, 0, label)
    if doc is not None and x is not None:
        problems += certificate(doc, model, x, label)
    return problems
