"""End-to-end acceptance battery.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and then
asserts. The reference models are the shipped presets: Q1 dephasing qubit,
Q2 driven qubit, Q3 thermal qutrit, plus the single-frequency variant of Q2
and the static variant of Q3.
"""

import time

import numpy as np
import scipy.linalg

from conftest import random_density, random_hermitian

from qmme.analysis import (
    cptp_certificate,
    decay_rate_fit,
    limit_cycle,
    spectrum_classification,
)
from qmme.bohr import decompose
from qmme.dynamics import integrate_schrodinger_direct
from qmme.generator import build_generator, check_covariance, cross_check_selection_rule
from qmme.linalg import Superoperator, trace_norm, vectorize
from qmme.model import validate_model
from qmme.presets import PRESETS


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}): {detail}"


class _FlippedBlockMap:
    """Generator with the sign of every Kossakowski block reversed."""

    def __init__(self, bundle):
        self._gen = bundle.x.matrix - 2.0 * bundle.dissipator.matrix
        self.dim = bundle.dim

    def at(self, t):
        return Superoperator(scipy.linalg.expm(float(t) * self._gen))

    def propagator(self, t, s):
        return Superoperator(scipy.linalg.expm(float(t - s) * self._gen))


def _reduction_residual(model, dmap, t_end=20.0, nodes=81):
    ts = np.linspace(0.0, t_end, nodes)
    u_path = integrate_schrodinger_direct(model, ts, tol=1e-10)
    h_bar = model.h_bar
    worst = 0.0
    for t, u in zip(ts, u_path):
        closed = dmap.p_at(t) @ scipy.linalg.expm(-1j * t * h_bar)
        worst = max(worst, float(np.linalg.norm(u - closed, 2)))
    return worst


def _product_vs_direct(dmap, t_end=20.0, nodes=200):
    d = dmap.dim
    rho0 = np.full((d, d), 1.0 / d, dtype=complex)
    ts = np.linspace(0.0, t_end, nodes)
    product = dmap.evolve(rho0, ts)
    direct = dmap.integrate_direct(rho0, ts, tol=1e-8)
    return max(trace_norm(a - b) for a, b in zip(product, direct))


def _structural_residuals(model, bundle):
    h_bar = bundle.jumps.decomp.h_bar
    jumps = bundle.jumps
    worst_comm = 0.0
    for (mu, n, w_idx), s in jumps.ops.items():
        w = jumps.decomp.bohr_frequencies[w_idx]
        worst_comm = max(
            worst_comm, float(np.linalg.norm(h_bar @ s - s @ h_bar - w * s))
        )
    worst_complete = 0.0
    for mu, series in enumerate(bundle.s_hat_series):
        for n in series.coeffs:
            total = sum(
                s for (m2, n2, _), s in jumps.ops.items() if m2 == mu and n2 == n
            )
            worst_complete = max(
                worst_complete, float(np.linalg.norm(total - series.coeffs[n]))
            )
    return worst_comm, worst_complete


def _frequency_component_residual(rng, d=3, n_states=3):
    h = random_hermitian(rng, d)
    decomp = decompose(h)
    worst = 0.0
    for _ in range(n_states):
        rho = random_density(rng, d)
        for t in (0.0, 0.7, 2.9):
            total = sum(
                np.exp(-1j * w * t) * decomp.q_omega(w, rho)
                for w in decomp.bohr_frequencies
            )
            e_vals, e_vecs = np.linalg.eigh(h)
            u = (e_vecs * np.exp(-1j * e_vals * t)) @ e_vecs.conj().T
            worst = max(worst, float(np.linalg.norm(total - u @ rho @ u.conj().T)))
    return worst


def _spectral_ok(bundle, tol_re=1e-9, tol_zero=1e-10, tol_conj=1e-10):
    report = spectrum_classification(bundle.x, tol_spec=1e-9)
    raw = report.raw_eigenvalues
    max_re = float(np.max(raw.real))
    has_zero = float(np.min(np.abs(raw))) <= tol_zero
    conj_ok = report.conjugation_defect <= tol_conj
    ok = (max_re <= tol_re) and has_zero and conj_ok
    detail = (
        f"max Re {max_re:.1e}, |smallest| {np.min(np.abs(raw)):.1e}, "
        f"conj defect {report.conjugation_defect:.1e}"
    )
    return ok, detail, report


def test_criterion_01_reduction_oracle(q2, q3):
    parts = []
    ok = True
    for label, (model, _, dmap) in (("Q2", q2), ("Q3", q3)):
        start = time.perf_counter()
        worst = _reduction_residual(model, dmap)
        elapsed = time.perf_counter() - start
        parts.append(f"{label} {worst:.1e} in {elapsed:.1f}s")
        ok = ok and worst <= 1e-8 and elapsed < 5.0
    _report(1, "reduction-oracle", ok, ", ".join(parts))


def test_criterion_02_product_form_dynamics(q1, q2, q3):
    parts = []
    ok = True
    for label, (_, _, dmap) in (("Q1", q1), ("Q2", q2), ("Q3", q3)):
        start = time.perf_counter()
        worst = _product_vs_direct(dmap)
        elapsed = time.perf_counter() - start
        parts.append(f"{label} {worst:.1e} in {elapsed:.1f}s")
        ok = ok and worst <= 1e-6 and elapsed < 30.0
    _report(2, "product-form-dynamics", ok, ", ".join(parts))


def test_criterion_03_cptp_certification(q1, q2, q3):
    parts = []
    ok = True
    for label, (_, _, dmap) in (("Q2", q2), ("Q3", q3)):
        cert = cptp_certificate(dmap, n_pairs=20, tol_choi=1e-10, tol_trace=1e-12)
        parts.append(
            f"{label} choi {cert.worst_choi_eig:.1e} trace {cert.worst_trace_defect:.1e}"
        )
        ok = ok and cert.passed
    _, bundle, _ = q1
    control = cptp_certificate(
        _FlippedBlockMap(bundle), ts=np.array([0.5, 1.0, 2.0]), n_pairs=5
    )
    parts.append(f"flipped-block control choi {control.worst_choi_eig:.1e}")
    ok = ok and (not control.passed) and control.worst_choi_eig < -1e-3
    _report(3, "cptp-certification", ok, ", ".join(parts))


def test_criterion_04_structural_identities(q2, q3, rng):
    parts = []
    ok = True
    for label, (model, bundle, _) in (("Q2", q2), ("Q3", q3)):
        comm, complete = _structural_residuals(model, bundle)
        parts.append(f"{label} comm {comm:.1e} complete {complete:.1e}")
        ok = ok and comm <= 1e-10 and complete <= 1e-12
    qres = _frequency_component_residual(rng)
    parts.append(f"freq-components {qres:.1e}")
    ok = ok and qres <= 1e-11
    _report(4, "structural-identities", ok, ", ".join(parts))


def test_criterion_05_covariance(q2, q3):
    parts = []
    ok = True
    for label, (_, bundle, _) in (("Q2", q2), ("Q3", q3)):
        check = check_covariance(bundle)
        parts.append(
            f"{label} superop {check.superop_residual:.1e} "
            f"shift-comm {check.shift_commutator_residual:.1e}"
        )
        ok = ok and check.superop_residual <= 1e-10
        ok = ok and check.shift_commutator_residual <= 1e-10
    _report(5, "covariance", ok, ", ".join(parts))


def test_criterion_06_selection_rule(q2, q3):
    parts = []
    ok = True
    for label, (model, bundle, _) in (("Q2", q2), ("Q3", q3)):
        dev = cross_check_selection_rule(bundle, model.bath, model.frequencies)
        parts.append(f"{label} {dev:.1e}")
        ok = ok and dev <= 1e-10
    violating = PRESETS["qubit_congruence_violating"]()
    report = validate_model(violating)
    bundle = build_generator(violating, validate=False)
    dev = cross_check_selection_rule(bundle, violating.bath, violating.frequencies)
    parts.append(f"violating-model {dev:.1e}, validation passed={report.passed}")
    ok = ok and dev > 1e-3 and not report.passed
    _report(6, "selection-rule", ok, ", ".join(parts))


def test_criterion_07_spectral_structure(q1, q2, q3):
    parts = []
    ok = True
    for label, (_, bundle, _) in (("Q1", q1), ("Q2", q2), ("Q3", q3)):
        good, detail, _ = _spectral_ok(bundle)
        parts.append(f"{label}: {detail}")
        ok = ok and good
    _report(7, "spectral-structure", ok, "; ".join(parts))


def test_criterion_08_limit_cycle_decay(q3):
    _, bundle, dmap = q3
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[0, 0] = 1.0
    cycle = limit_cycle(dmap, rho0)
    fit = decay_rate_fit(dmap, cycle, rho0, np.linspace(0.0, 120.0, 500))
    report = spectrum_classification(bundle.x)
    flag_consistent = cycle.quasiperiodic == (len(report.oscillatory_indices) == 0)
    ok = fit.relative_error <= 0.05 and flag_consistent
    _report(
        8,
        "limit-cycle-decay",
        ok,
        f"fitted {fit.fitted_rate:.6f} vs slowest mode {fit.expected_rate:.6f} "
        f"(rel {fit.relative_error:.1e}), quasiperiodic={cycle.quasiperiodic}",
    )


def test_criterion_09_gibbs_fixed_point(q3_static):
    model, bundle, _ = q3_static
    beta = model.bath.params["beta"]
    gibbs = scipy.linalg.expm(-beta * model.h_bar)
    gibbs = gibbs / np.trace(gibbs)
    residual = float(np.linalg.norm(bundle.x.matrix @ vectorize(gibbs)))
    ok = residual <= 1e-10
    _report(9, "gibbs-fixed-point", ok, f"residual {residual:.1e}")


def test_criterion_10_periodic_special_case(q2_periodic, rng):
    model, bundle, dmap = q2_periodic
    parts = []
    ok = True

    worst = _reduction_residual(model, dmap)
    parts.append(f"reduction {worst:.1e}")
    ok = ok and worst <= 1e-8

    worst = _product_vs_direct(dmap)
    parts.append(f"product-vs-direct {worst:.1e}")
    ok = ok and worst <= 1e-6

    cert = cptp_certificate(dmap, n_pairs=20)
    parts.append(f"choi {cert.worst_choi_eig:.1e}")
    ok = ok and cert.passed

    comm, complete = _structural_residuals(model, bundle)
    parts.append(f"comm {comm:.1e} complete {complete:.1e}")
    ok = ok and comm <= 1e-10 and complete <= 1e-12

    cov = check_covariance(bundle)
    parts.append(f"covariance {max(cov.superop_residual, cov.shift_commutator_residual):.1e}")
    ok = ok and cov.passed

    dev = cross_check_selection_rule(bundle, model.bath, model.frequencies)
    parts.append(f"selection {dev:.1e}")
    ok = ok and dev <= 1e-10

    good, detail, report = _spectral_ok(bundle)
    parts.append("spectrum ok" if good else f"spectrum BAD ({detail})")
    ok = ok and good

    rho0 = np.full((2, 2), 0.5, dtype=complex)
    cycle = limit_cycle(dmap, rho0)
    fit = decay_rate_fit(dmap, cycle, rho0, np.linspace(0.0, 120.0, 500))
    flag_consistent = cycle.quasiperiodic == (len(report.oscillatory_indices) == 0)
    parts.append(f"decay rel {fit.relative_error:.1e}")
    ok = ok and fit.relative_error <= 0.05 and flag_consistent

    _report(10, "periodic-special-case", ok, ", ".join(parts))
