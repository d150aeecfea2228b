"""Self-test of the benchmark's checks: each accepts a right result and
rejects a corrupted one, so none of them is vacuous.

    python3 perfbench/selftest.py      # from the root of a qmme checkout

Right results come from small shipped models (in-process and through the
command line). Corruptions include the sign-flipped dissipator X - 2D, a
perturbed trajectory, a non-trace-preserving generator, altered reported
numbers and wrong exit codes. Exits 1 if any check misjudges a case.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


class FlippedMap:
    """Map generated by X - 2D: every Kossakowski block with its sign reversed."""

    def __init__(self, bundle):
        self._gen = bundle.x.matrix - 2.0 * bundle.dissipator.matrix
        self.dim = bundle.dim

    def at(self, t):
        from qmme.linalg import Superoperator

        return Superoperator(scipy.linalg.expm(float(t) * self._gen))

    def propagator(self, t, s):
        return self.at(t - s)


class Tally:
    def __init__(self):
        self.bad = []
        self.cases = 0

    def expect(self, name, problems, should_fail):
        self.cases += 1
        failed = bool(problems)
        verdict = "ok " if failed == should_fail else "BAD"
        kind = "rejects corrupted" if should_fail else "accepts right"
        print(f"{verdict} {name}: {kind}" + (f" ({problems[0]})" if problems else ""))
        if failed != should_fail:
            self.bad.append(name)

    def pair(self, name, right, corrupted):
        self.expect(name, right, False)
        self.expect(name, corrupted, True)


def in_process(t, models):
    from qmme import analysis, dynamics, generator

    dephasing = models["qubit_dephasing"]
    model = models["qubit_driven_periodic"]
    static = models["qutrit_thermal_static"]
    bundle = generator.build_generator(model)
    dmap = dynamics.DynamicalMap(model, bundle)
    x = bundle.x.matrix
    flipped = x - 2.0 * bundle.dissipator.matrix
    ts = np.linspace(0.0, 5.0, 26)
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    product = dmap.evolve(rho0, ts)
    direct = dmap.integrate_direct(rho0, ts, tol=1e-8)
    bumped = product.copy()
    bumped[7] += 1e-6 * np.array([[1.0, 0.5], [0.5, -1.0]])

    t.pair("states_are_densities (perturbed trace)",
           checks.states_are_densities(product, "p"),
           checks.states_are_densities(product + 1e-6 * np.eye(2), "p"))
    t.expect("states_are_densities (non-Hermitian)",
             checks.states_are_densities(product + 1e-6 * np.array([[0, 1], [0, 0]]), "p"), True)
    t.expect("states_are_densities (negative eigenvalue)",
             checks.states_are_densities(np.array([np.diag([1.0 + 1e-6, -1e-6])]), "p"), True)
    t.pair("product_matches_reference (perturbed trajectory)",
           checks.product_matches_reference(product, model, x, rho0, ts, "p"),
           checks.product_matches_reference(bumped, model, x, rho0, ts, "p"))
    t.expect("product_matches_reference (sign-flipped dissipator)",
             checks.product_matches_reference(product, model, flipped, rho0, ts, "p"), True)
    t.pair("paths_agree (perturbed RK4 path)",
           checks.paths_agree(product, direct, "p"),
           checks.paths_agree(product, direct + 1e-5 * np.array([[1, 0], [0, -1]]), "p"))

    oracle_ts = np.linspace(0.0, 5.0, 21)
    u = dynamics.integrate_schrodinger_direct(model, oracle_ts, tol=1e-10)
    t.pair("oracle_matches (phase-shifted u)",
           checks.oracle_matches(u, model, oracle_ts, "p"),
           checks.oracle_matches(u * np.exp(1e-6j), model, oracle_ts, "p"))

    t.pair("trace_preserving (X + 1e-6 I)",
           checks.trace_preserving(x, "p"),
           checks.trace_preserving(x + 1e-6 * np.eye(4), "p"))
    t.pair("spectrum_in_left_half_plane (sign-flipped dissipator)",
           checks.spectrum_in_left_half_plane(x, "p"),
           checks.spectrum_in_left_half_plane(flipped, "p"))
    t.expect("spectrum_in_left_half_plane (no zero eigenvalue)",
             checks.spectrum_in_left_half_plane(x - 1e-3 * np.eye(4), "p"), True)
    report = analysis.spectrum_classification(x)
    t.pair("spectra_match (sign-flipped dissipator)",
           checks.spectra_match(report.raw_eigenvalues, x, "p"),
           checks.spectra_match(report.raw_eigenvalues, flipped, "p"))

    d_bundle = generator.build_generator(dephasing)
    d_x = d_bundle.x.matrix
    t.pair("dephasing_spectrum (sign-flipped dissipator)",
           checks.dephasing_spectrum(np.linalg.eigvals(d_x), dephasing, "p"),
           checks.dephasing_spectrum(np.linalg.eigvals(d_x - 2 * d_bundle.dissipator.matrix), dephasing, "p"))

    s_x = generator.build_generator(static).x.matrix
    t.pair("gibbs_fixed (perturbed generator)",
           checks.gibbs_fixed(s_x, static, "p"),
           checks.gibbs_fixed(s_x + 1e-6 * np.kron(np.eye(3), np.diag([1.0, 0.0, -1.0])), static, "p"))

    t.pair("selection_deviation (admissible)",
           checks.selection_deviation(1e-16, True, "p"), checks.selection_deviation(1e-6, True, "p"))
    t.pair("selection_deviation (violating)",
           checks.selection_deviation(0.1, False, "p"), checks.selection_deviation(1e-5, False, "p"))
    t.pair("validation (admissible)",
           checks.validation(True, None, True, "p"), checks.validation(False, None, True, "p"))
    t.pair("validation (violating)",
           checks.validation(False, (1.0, -1.0, (1, 0)), False, "p"), checks.validation(True, None, False, "p"))
    t.pair("decay_fit", checks.decay_fit(0.01, "p"), checks.decay_fit(0.2, "p"))

    h = dmap.h_series()
    coeffs = dict(h.coeffs)
    n0 = next(iter(coeffs))
    bent = dict(coeffs)
    bent[n0] = coeffs[n0] + 1e-6 * np.array([[0, 1], [1, 0]])
    sample = np.linspace(0.0, 7.0, 5)
    t.pair("synthesized_hamiltonian (perturbed coefficient)",
           checks.synthesized_hamiltonian(coeffs, h.tail_norm, model, sample, "p"),
           checks.synthesized_hamiltonian(bent, h.tail_norm, model, sample, "p"))

    cert = analysis.cptp_certificate(dmap, n_pairs=5).to_dict()
    flipped_cert = analysis.cptp_certificate(
        FlippedMap(bundle), ts=np.array([0.5, 1.0, 2.0]), n_pairs=5).to_dict()
    t.pair("certificate (sign-flipped dissipator)",
           checks.certificate(cert, model, x, "p"), checks.certificate(flipped_cert, model, x, "p"))
    shifted = json.loads(json.dumps(cert))
    for row in shifted["times"]:
        row["choi_min_eig"] -= 1e-6
    t.expect("certificate (altered Choi eigenvalues)", checks.certificate(shifted, model, x, "p"), True)


def command_line(t, root, models):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(*args):
        proc = subprocess.run([sys.executable, "-m", "qmme", *args], cwd=root, env=env,
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout

    name = "qubit_dephasing"
    model = models[name]
    path = str(root / "models" / f"{name}.json")
    outputs = {sub: run(sub, path) for sub in ("validate", "synthesize", "build", "evolve", "spectrum", "certify")}
    outputs["steady-state"] = run("steady-state", path, "--rho0", "plus", "--grid", "0:120:500")
    violating = run("validate", str(root / "models" / f"{workloads.VIOLATING}.json"))

    def edit(text, fn):
        doc = json.loads(text)
        fn(doc)
        return json.dumps(doc)

    code, text = outputs["validate"]
    t.pair("cli_validate (exit code)", checks.cli_validate(code, text, True, "c"),
           checks.cli_validate(1, text, True, "c"))
    t.expect("cli_validate (not JSON)", checks.cli_validate(code, text[:-5], True, "c"), True)
    t.pair("cli_validate (violating model)", checks.cli_validate(*violating, False, "c"),
           checks.cli_validate(0, edit(violating[1], lambda d: d.update(passed=True)), False, "c"))

    code, text = outputs["synthesize"]

    def bump_coefficient(doc):
        doc["coefficients"][0]["matrix"][0][0][0] += 1e-6

    t.pair("cli_synthesize (perturbed coefficient)", checks.cli_synthesize(code, text, model, "c"),
           checks.cli_synthesize(code, edit(text, bump_coefficient), model, "c"))

    code, text = outputs["build"]
    problems, x = checks.cli_build(code, text, "c")

    def not_trace_preserving(doc):
        doc["x_matrix"][0][0][0] += 1e-6

    t.pair("cli_build (perturbed X)", problems,
           checks.cli_build(code, edit(text, not_trace_preserving), "c")[0])
    t.expect("cli_build (exit code)", checks.cli_build(2, text, "c")[0], True)

    code, text = outputs["evolve"]
    mixed = np.eye(2, dtype=complex) / 2
    lines = text.splitlines()
    head = lines[0].split(",")
    row = lines[60].split(",")
    # small and trace-preserving: only the comparison with p expm(tX) rho0 p^dag sees it
    row[head.index("re_00")] = repr(float(row[head.index("re_00")]) + 1e-8)
    row[head.index("re_11")] = repr(float(row[head.index("re_11")]) - 1e-8)
    lines[60] = ",".join(row)
    t.pair("cli_evolve (perturbed product row)", checks.cli_evolve(code, text, model, x, mixed, "c", rows=200),
           checks.cli_evolve(code, "\n".join(lines) + "\n", model, x, mixed, "c", rows=200))
    t.expect("cli_evolve (not CSV)", checks.cli_evolve(code, "garbage\n", model, x, mixed, "c"), True)

    code, text = outputs["spectrum"]

    def move_eigenvalue(doc):
        doc["eigenvalues"][0][0] += 1e-6

    t.pair("cli_spectrum (altered eigenvalue)", checks.cli_spectrum(code, text, x, "c"),
           checks.cli_spectrum(code, edit(text, move_eigenvalue), x, "c"))

    code, text = outputs["steady-state"]
    t.pair("cli_steady_state (bad fit)", checks.cli_steady_state(code, text, False, "c"),
           checks.cli_steady_state(code, edit(text, lambda d: d["decay_fit"].update(relative_error=0.5)),
                                   False, "c"))
    t.expect("cli_steady_state (missing fit)",
             checks.cli_steady_state(code, edit(text, lambda d: d.update(decay_fit={"error": "x"})),
                                     False, "c"), True)

    code, text = outputs["certify"]
    t.pair("cli_certify (failed certificate)", checks.cli_certify(code, text, model, x, "c"),
           checks.cli_certify(1, edit(text, lambda d: d.update(passed=False)), model, x, "c"))


def main():
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    models = workloads.load_shipped(root)
    t = Tally()
    in_process(t, models)
    command_line(t, root, models)
    print(f"{t.cases} cases, {len(t.bad)} misjudged")
    return 1 if t.bad else 0


if __name__ == "__main__":
    sys.exit(main())
