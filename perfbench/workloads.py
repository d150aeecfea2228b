"""The three workloads: their set-up, one pass of operations, and its checks.

A pass runs every operation of the workload once, in a closed loop from one
process: the next operation starts when the previous one has returned.
Each operation is timed into a stage; a pass reports the sum per stage and
the pass's wall time. Checks run after the pass, outside the timed region.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from speed import Gauge

ADMISSIBLE = (
    "qubit_dephasing",
    "qubit_driven",
    "qubit_driven_periodic",
    "qutrit_thermal",
    "qutrit_thermal_static",
)
VIOLATING = "qubit_congruence_violating"
CLI_MIX = ("validate", "synthesize", "build", "evolve", "spectrum", "steady-state", "certify")

# stage that each subcommand's wall time is summed into
CLI_STAGE = {
    "validate": "validate",
    "synthesize": "synthesize",
    "build": "generator",
    "evolve": "verified_evolve",
    "spectrum": "spectrum",
    "steady-state": "steady_state",
    "certify": "certify",
}

EVOLVE_GRID = np.linspace(0.0, 20.0, 200)
ORACLE_GRID = np.linspace(0.0, 20.0, 81)
FIT_GRID = np.linspace(0.0, 120.0, 500)
LONG_GRID = np.linspace(0.0, 200.0, 4000)
SCALED_EVOLVE_GRID = np.linspace(0.0, 10.0, 51)
# At 1e-8 the number of RK4 step halvings, and so the work, changes with the
# random model; at 1e-6 every model stops after the first halving.
SCALED_EVOLVE_TOL = 1e-6

# scaled-r3 family: frequencies (1, sqrt 2, sqrt 3), one model per dimension.
# The drop thresholds are 0, so every coefficient of the truncation box is
# kept: with the defaults the number of series terms, jump operators and
# Kossakowski blocks, and with them the time, changed by up to 50% between
# seeds.
SCALED_DIMS = (2, 3)
SCALED_TRUNC = 3
SCALED_AMPLITUDE = 0.008


class Pass:
    """Timings, operation counts and problems of one pass.

    ``stages`` and ``mix`` hold times scaled to the reference speed (see
    speed.py); ``raw`` and ``wall`` hold plain wall times.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.gauge = Gauge()
        self.stages = {}
        self.raw = {}
        self.mix = 0.0
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.problems = []
        self.extra = {}

    def _timed(self, stage, step):
        token = self.tracer.open("stage." + stage) if self.tracer else None
        before = self.gauge.last
        start = time.perf_counter()
        try:
            step()
        finally:
            raw = time.perf_counter() - start
            if token is not None:
                self.tracer.close(token)
            scaled = self.gauge.scale(raw, before)
            self.stages[stage] = self.stages.get(stage, 0.0) + scaled
            self.raw[stage] = self.raw.get(stage, 0.0) + raw
            self.mix += scaled

    def run(self, label, steps):
        """Run ``(stage, step)`` pairs in order; after a failure the rest
        count as attempted and failed."""
        for i, (stage, step) in enumerate(steps):
            self.attempted += 1
            try:
                self._timed(stage, step)
            except Exception as exc:  # an operation that fails is counted, not fatal
                left = len(steps) - i - 1
                self.attempted += left
                self.failed += 1 + left
                self.errors.append(f"{label}/{stage}: {type(exc).__name__}: {exc}")
                return False
        return True


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _plus(d):
    return np.full((d, d), 1.0 / d, dtype=complex)


def _generator_steps(mdl, r, **build_options):
    """The generator and selection_check steps of one model, results into ``r``."""
    from qmme import generator, model as model_mod

    def build():
        r["report"] = model_mod.validate_model(mdl)
        r["bundle"] = generator.build_generator(mdl, validate=False, **build_options)

    def selection():
        r["dev"] = generator.cross_check_selection_rule(r["bundle"], mdl.bath, mdl.frequencies)

    return [("generator", build), ("selection_check", selection)]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def load_shipped(root):
    from qmme.io import load_model

    return {name: load_model(root / "models" / f"{name}.json") for name in ADMISSIBLE + (VIOLATING,)}


def _random_hermitian(rng, d, norm):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = 0.5 * (a + a.conj().T)
    return h * (norm / np.linalg.norm(h, 2))


def scaled_family(seed):
    """The seeded r = 3 models, one per dimension in SCALED_DIMS.

    Each has a random Hermitian h_bar (spectral norm 1), two random Hermitian
    couplings (norm 0.5), an ohmic_kms bath, and p = exp(-i sum_j a sin(theta_j) G_j)
    with random Hermitian G_j of norm 1, a = SCALED_AMPLITUDE and
    trunc = SCALED_TRUNC, for which the unitarity residual stays near 1e-10,
    below validate_model's 1e-9. All (2 trunc + 1)^3 coefficients are kept.
    """
    from qmme.model import BathSpectrum, ReducedModel, p_series_from_profile_terms

    omega = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0)])
    family = {}
    for d in SCALED_DIMS:
        rng = np.random.default_rng([seed, d])
        h_bar = _random_hermitian(rng, d, 1.0)
        couplings = [_random_hermitian(rng, d, 0.5) for _ in range(2)]
        terms = [
            {"profile": "sin", "index": tuple(int(i == j) for i in range(3)),
             "amplitude": SCALED_AMPLITUDE, "matrix": _random_hermitian(rng, d, 1.0)}
            for j in range(3)
        ]
        p = p_series_from_profile_terms(terms, r=3, trunc=SCALED_TRUNC, drop_eps=0.0)
        family[f"r3_d{d}"] = ReducedModel(
            frequencies=omega,
            p_series=p,
            h_bar=h_bar,
            couplings=couplings,
            bath=BathSpectrum.ohmic_kms(kappa=0.1, cutoff=5.0, beta=1.0, n_couplings=2),
        )
    return family


class Workload:
    name = ""

    def __init__(self, root, seed, out_dir):
        self.root = root
        self.seed = seed
        self.out_dir = out_dir
        self.inputs = None

    def setup(self):
        raise NotImplementedError

    def run_pass(self, tracer=None):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# cli-shipped
# ---------------------------------------------------------------------------

class CliShipped(Workload):
    """Every subcommand as a fresh ``python -m qmme`` process per shipped model."""

    name = "cli-shipped"

    def setup(self):
        self.inputs = load_shipped(self.root)
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def _command(self, sub, model_name):
        args = [sub, str(self.root / "models" / f"{model_name}.json")]
        if sub == "certify":
            args += ["--seed", str(self.seed)]
        if sub == "steady-state":
            args += ["--grid", "0:120:500"]  # long enough for the slowest shipped mode
        return args

    def _launch(self, args, tracer):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        if tracer is None:
            cmd = [sys.executable, "-m", "qmme"] + args
        else:
            trace_file = self.out_dir / "cli_child_trace.json"
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(trace_file)] + args
        proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True, text=True)
        if tracer is not None:
            data = json.loads(trace_file.read_text())
            tracer.merge([tuple(s) for s in data["spans"]], tracer.current())
            for k, v in data["counts"].items():
                tracer.add(k, v)
            for k, v in data["maxima"].items():
                tracer.peak(k, v)
        return proc

    def run_pass(self, tracer=None):
        ps = Pass(tracer)
        outputs = {}
        start = time.perf_counter()
        jobs = [(m, sub) for m in ADMISSIBLE for sub in CLI_MIX] + [(VIOLATING, "validate")]
        for model_name, sub in jobs:
            def step(model_name=model_name, sub=sub):
                proc = self._launch(self._command(sub, model_name), tracer)
                if proc.returncode not in (0, 1) or "Traceback" in proc.stderr:
                    raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                outputs[(model_name, sub)] = proc

            ps.run(f"{model_name}/{sub}", [(CLI_STAGE[sub], step)])
        ps.wall = time.perf_counter() - start
        self._check(ps, outputs)
        return ps

    def _check(self, ps, outputs):
        for name in ADMISSIBLE:
            mdl = self.inputs[name]
            out = {sub: (p.returncode, p.stdout) for (m, sub), p in outputs.items() if m == name}
            label = f"cli {name}"
            x = None
            if "build" in out:
                problems, x = checks.cli_build(*out["build"], label + " build")
                ps.problems += problems
            mixed = np.eye(mdl.dim, dtype=complex) / mdl.dim  # evolve's default --rho0
            basis0 = np.zeros((mdl.dim, mdl.dim), dtype=complex)
            basis0[0, 0] = 1.0  # steady-state's default --rho0
            stationary = x is not None and np.linalg.norm(x @ checks.vec(basis0)) < 1e-12
            check_of = {
                "validate": lambda c, t, lab: checks.cli_validate(c, t, True, lab),
                "synthesize": lambda c, t, lab: checks.cli_synthesize(c, t, mdl, lab),
                "evolve": lambda c, t, lab: checks.cli_evolve(c, t, mdl, x, mixed, lab),
                "spectrum": lambda c, t, lab: checks.cli_spectrum(c, t, x, lab),
                "steady-state": lambda c, t, lab: checks.cli_steady_state(c, t, stationary, lab),
                "certify": lambda c, t, lab: checks.cli_certify(c, t, mdl, x, lab),
            }
            for sub, check in check_of.items():
                if sub in out:
                    ps.problems += check(*out[sub], f"{label} {sub}")
        violating = outputs.get((VIOLATING, "validate"))
        if violating is not None:
            ps.problems += checks.cli_validate(
                violating.returncode, violating.stdout, False, f"cli {VIOLATING} validate")


# ---------------------------------------------------------------------------
# pipeline-shipped
# ---------------------------------------------------------------------------

class PipelineShipped(Workload):
    """The library in-process on the shipped models."""

    name = "pipeline-shipped"

    def setup(self):
        models = load_shipped(self.root)
        rng = np.random.default_rng(self.seed)
        states = {name: random_density(rng, models[name].dim) for name in ADMISSIBLE}
        self.inputs = (models, states)

    def run_pass(self, tracer=None):
        from qmme import analysis, dynamics

        models, states = self.inputs
        ps = Pass(tracer)
        results = {}
        start = time.perf_counter()
        for name in ADMISSIBLE:
            mdl = models[name]
            r = results[name] = {}
            plus = _plus(mdl.dim)

            build, selection = _generator_steps(mdl, r)

            def synthesize():
                r["dmap"] = dynamics.DynamicalMap(mdl, r["bundle"])
                r["h"] = r["dmap"].h_series()

            def verified_evolve():
                r["product"] = r["dmap"].evolve(plus, EVOLVE_GRID)
                r["direct"] = r["dmap"].integrate_direct(plus, EVOLVE_GRID, tol=1e-8)

            def oracle():
                r["u"] = dynamics.integrate_schrodinger_direct(mdl, ORACLE_GRID, tol=1e-10)

            def steady_state():
                r["spectrum"] = analysis.spectrum_classification(r["bundle"].x)
                cycle = analysis.limit_cycle(r["dmap"], plus)
                r["fit"] = analysis.decay_rate_fit(r["dmap"], cycle, plus, FIT_GRID)

            def certify():
                r["cert"] = analysis.cptp_certificate(r["dmap"], seed=self.seed)

            def long_grid():
                r["long"] = r["dmap"].evolve(states[name], LONG_GRID)

            ps.run(name, [
                build, ("synthesize", synthesize),
                ("verified_evolve", verified_evolve), ("reduction_oracle", oracle),
                selection, ("steady_state", steady_state),
                ("certify", certify), ("product_long", long_grid),
            ])

        results[VIOLATING] = {}
        ps.run(VIOLATING, _generator_steps(models[VIOLATING], results[VIOLATING]))
        ps.wall = time.perf_counter() - start
        ps.extra["product_states"] = LONG_GRID.size * len(ADMISSIBLE)
        self._check(ps, models, states, results)
        return ps

    def _check(self, ps, models, states, results):
        for name in ADMISSIBLE:
            mdl, r = models[name], results[name]
            if "long" not in r:
                continue  # counted as failed operations
            x = r["bundle"].x.matrix
            plus = _plus(mdl.dim)
            label = name
            ps.problems += checks.validation(r["report"].passed, r["report"].congruence_witness, True, label)
            ps.problems += checks.trace_preserving(x, label)
            ps.problems += checks.spectrum_in_left_half_plane(x, label)
            ps.problems += checks.spectra_match(r["spectrum"].raw_eigenvalues, x, label)
            ps.problems += checks.synthesized_hamiltonian(
                r["h"].coeffs, r["h"].tail_norm, mdl, np.linspace(0.0, 7.0, 5), label)
            ps.problems += checks.states_are_densities(r["product"], label + " product")
            ps.problems += checks.states_are_densities(r["direct"], label + " direct")
            ps.problems += checks.product_matches_reference(r["product"], mdl, x, plus, EVOLVE_GRID, label)
            ps.problems += checks.paths_agree(r["product"], r["direct"], label)
            ps.problems += checks.oracle_matches(r["u"], mdl, ORACLE_GRID, label)
            ps.problems += checks.selection_deviation(r["dev"], True, label)
            ps.problems += checks.decay_fit(r["fit"].relative_error, label)
            ps.problems += checks.certificate(r["cert"].to_dict(), mdl, x, label)
            pick = np.linspace(0, LONG_GRID.size - 1, 6).astype(int)
            ps.problems += checks.states_are_densities(r["long"], label + " long grid")
            ps.problems += checks.product_matches_reference(
                r["long"][pick], mdl, x, states[name], LONG_GRID[pick], label + " long grid")
            if name == "qubit_dephasing":
                ps.problems += checks.dephasing_spectrum(r["spectrum"].raw_eigenvalues, mdl, label)
            if name == "qutrit_thermal_static":
                ps.problems += checks.gibbs_fixed(x, mdl, label)
        r = results[VIOLATING]
        if "dev" in r:
            ps.problems += checks.validation(
                r["report"].passed, r["report"].congruence_witness, False, VIOLATING)
            ps.problems += checks.selection_deviation(r["dev"], False, VIOLATING)


# ---------------------------------------------------------------------------
# scaled-r3
# ---------------------------------------------------------------------------

class ScaledR3(Workload):
    """The seeded r = 3 family: series algebra at a larger truncation box."""

    name = "scaled-r3"

    def setup(self):
        self.inputs = scaled_family(self.seed)

    def run_pass(self, tracer=None):
        from qmme import dynamics

        ps = Pass(tracer)
        results = {}
        start = time.perf_counter()
        for name, mdl in self.inputs.items():
            r = results[name] = {}
            rho0 = np.eye(mdl.dim, dtype=complex) / mdl.dim

            def synthesize():
                r["dmap"] = dynamics.DynamicalMap(mdl, r["bundle"])
                r["h"] = r["dmap"].h_series()

            def verified_evolve():
                r["product"] = r["dmap"].evolve(rho0, SCALED_EVOLVE_GRID)
                r["direct"] = r["dmap"].integrate_direct(rho0, SCALED_EVOLVE_GRID, tol=SCALED_EVOLVE_TOL)

            ps.run(name, _generator_steps(mdl, r, drop_tol=0.0) + [
                ("synthesize", synthesize), ("verified_evolve", verified_evolve),
            ])
        ps.wall = time.perf_counter() - start
        for name, mdl in self.inputs.items():
            r = results[name]
            if "direct" not in r:
                continue
            x = r["bundle"].x.matrix
            rho0 = np.eye(mdl.dim, dtype=complex) / mdl.dim
            ps.problems += checks.validation(r["report"].passed, r["report"].congruence_witness, True, name)
            ps.problems += checks.trace_preserving(x, name)
            ps.problems += checks.spectrum_in_left_half_plane(x, name)
            ps.problems += checks.selection_deviation(r["dev"], True, name)
            ps.problems += checks.synthesized_hamiltonian(
                r["h"].coeffs, r["h"].tail_norm, mdl, np.linspace(0.0, 7.0, 5), name)
            ps.problems += checks.states_are_densities(r["product"], name + " product")
            ps.problems += checks.states_are_densities(r["direct"], name + " direct")
            ps.problems += checks.product_matches_reference(r["product"], mdl, x, rho0, SCALED_EVOLVE_GRID, name)
            ps.problems += checks.paths_agree(r["product"], r["direct"], name)
        return ps


WORKLOADS = {w.name: w for w in (CliShipped, PipelineShipped, ScaledR3)}
