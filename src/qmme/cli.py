"""Command line front end: validate, synthesize, build, evolve, analyze.

Exit codes: 0 success, 1 validation or certification failure, 2 usage or
parse error, 3 numerical failure. Module errors and argparse's usage errors
become a machine-readable JSON object on stdout. Every tolerance flag can also
be set through an environment variable with the ``QMME_`` prefix
(``--tol-herm`` reads ``QMME_TOL_HERM``, and so on); the flag wins when both
are present. A tolerance must be finite and nonnegative, and
``--tol-integrate`` positive, or the run exits 2.
"""

import argparse
import dataclasses
import io
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, dynamics, generator, model as model_mod
from .errors import (
    DimensionMismatch,
    InadmissibleModel,
    InsufficientDecay,
    NotHermitian,
    NotPSD,
    NotUnitary,
    OrderViolation,
    ParseError,
    QmmeError,
    SpectralViolation,
    UnknownFrequency,
)
from .io import (
    _entry_columns,
    _pairs,
    _series_to_dict,
    dumps_canonical,
    load_density_matrix,
    load_model,
    write_trajectory_csv,
)
from .linalg import eig_hermitian, hermitize, trace_norm

__all__ = ["main", "build_parser"]

_USAGE_ERRORS = (ParseError, DimensionMismatch, OrderViolation, UnknownFrequency)
_CONTRACT_ERRORS = (InadmissibleModel, NotPSD, NotHermitian, NotUnitary, SpectralViolation)


def _exit_code_for(exc):
    if isinstance(exc, _USAGE_ERRORS):
        return 2
    if isinstance(exc, _CONTRACT_ERRORS):
        return 1
    return 3  # a numerical failure


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ParseError instead of
    printing usage text and exiting, so they end in the JSON error contract."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def _add_tol(parser, flag, fallback, help_text, positive=False):
    """A tolerance flag, also read from its QMME_ variable: a finite float
    >= 0, or > 0 if ``positive``. A NaN or negative bound would switch its
    check off, and a step-halving bound of 0 is never met. The variable is the
    raw string default, which argparse parses only for the subcommand it
    parses and only when the flag is absent."""
    name = "QMME_" + flag.strip("-").upper().replace("-", "_")

    def parse(raw):
        try:
            value = float(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{raw!r} is not a number (flag value or {name})") from None
        if not (np.isfinite(value) and (value > 0 if positive else value >= 0)):
            bound = "> 0" if positive else ">= 0"
            raise argparse.ArgumentTypeError(f"{raw!r} is not a finite number {bound} (flag value or {name})")
        return value

    parser.add_argument(flag, type=parse, default=os.environ.get(name, fallback), metavar="X",
                        help=f"{help_text} (default {fallback:g}, env {name})")


def _nonnegative_int(raw):
    """A pair count or seed: an integer >= 0 (a negative count would certify nothing)."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{raw!r} is not an integer >= 0")
    return value


def _add_common(parser):
    parser.add_argument("model", help="model JSON file")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="write artifacts into DIR instead of stdout")
    parser.add_argument("--trunc", type=int, default=None, metavar="N",
                        help="re-truncate the unitary series to box N")
    parser.add_argument("--box", type=int, default=12, metavar="K",
                        help="integer lattice box for independence/congruence scans")
    _add_tol(parser, "--tol-herm", 1e-10, "Hermiticity residual bound")
    _add_tol(parser, "--tol-cluster", 1e-9, "relative eigenvalue clustering width")
    _add_tol(parser, "--tol-unitary", 1e-9, "unitarity drift bound for p(t)")
    _add_tol(parser, "--tol-independence", 1e-9, "rational-independence scan tolerance")
    _add_tol(parser, "--tol-congruence", 1e-9, "congruence-freedom scan tolerance")


def _parse_grid(spec):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParseError(f"--grid needs start:stop:count, got {spec!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(f"--grid needs numeric start:stop and integer count, got {spec!r}") from None
    if not (np.isfinite(start) and np.isfinite(stop)) or start < 0 or stop <= start or count < 2:
        raise ParseError(
            f"--grid needs finite 0 <= start < stop and count >= 2, got {spec!r}"
        )
    try:
        return np.linspace(start, stop, count)
    except (MemoryError, ValueError):  # numpy refuses more than it can address as a ValueError
        raise ParseError(f"--grid count {count} is too large to allocate, got {spec!r}") from None


def _initial_state(spec, mdl):
    d = mdl.dim
    if spec == "mixed":
        return np.eye(d, dtype=complex) / d
    if spec == "basis0":
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
        return rho
    if spec == "plus":
        return np.full((d, d), 1.0 / d, dtype=complex)
    if spec == "ground":
        g = eig_hermitian(hermitize(mdl.h_bar))[1][:, 0]
        return np.outer(g, g.conj())
    path = Path(spec)
    if not path.exists():
        raise ParseError(
            f"--rho0 {spec!r} is neither a named state (mixed, basis0, plus, ground) "
            "nor an existing file"
        )
    rho = load_density_matrix(path)
    if rho.shape != (d, d):
        raise DimensionMismatch(f"initial state has shape {rho.shape}, model dimension is {d}")
    return rho


def _load(args):
    mdl = load_model(args.model)
    if args.trunc is not None:
        mdl = dataclasses.replace(mdl, p_series=mdl.p_series.truncate(args.trunc))
    return mdl


def _emit(args, name, text):
    if args.out:
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / name).write_text(text)
        except OSError as exc:  # the directory the user named cannot be used: exit 2, not 3
            raise ParseError(f"--out cannot be written: {exc}") from None
        print(str(out_dir / name))
    else:
        sys.stdout.write(text)


def _validate(args, mdl):
    return model_mod.validate_model(
        mdl,
        box=args.box,
        tol_independence=args.tol_independence,
        tol_congruence=args.tol_congruence,
        tol_unitary=args.tol_unitary,
        tol_herm=args.tol_herm,
        tol_cluster=args.tol_cluster,
    )


def _build(args, mdl):
    report = _validate(args, mdl)
    if not report.passed:
        raise InadmissibleModel("model failed admissibility checks", report=report)
    bundle = generator.build_generator(
        mdl, validate=False, tol_psd=args.tol_psd, tol_cluster=args.tol_cluster
    )
    return report, bundle


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args):
    mdl = _load(args)
    report = _validate(args, mdl)
    _emit(args, "validate.json", dumps_canonical(report.to_dict()))
    return 0 if report.passed else 1


def cmd_synthesize(args):
    mdl = _load(args)
    h_series = model_mod.synthesize_hamiltonian(
        mdl.p_series, mdl.frequencies, mdl.h_bar, tol_unitary=args.tol_unitary
    )
    _emit(args, "h_series.json", dumps_canonical(_series_to_dict(h_series)))
    return 0


def cmd_build(args):
    mdl = _load(args)
    report, bundle = _build(args, mdl)
    cov = generator.check_covariance(bundle)
    decomp, jumps = bundle.jumps.decomp, bundle.jumps
    block, mu = np.nonzero(jumps.present)  # every operator, in (w_idx, n, mu) order
    norms = jumps.norms[block, mu].tolist()
    bohr, shifted = decomp.bohr_frequencies.tolist(), bundle.shifted_frequencies.tolist()
    payload = {
        "validation": report.to_dict(),
        "decomposition": {
            "quasienergies": decomp.quasienergies.tolist(),
            "bohr_frequencies": bohr,
            "projections": _pairs(decomp.projections),
        },
        "jump_operators": [
            {
                "coupling": m,
                "n": list(jumps.blocks[b][1]),
                "frequency": bohr[jumps.blocks[b][0]],
                "shifted_frequency": shifted[b],
                "norm": norm,
            }
            for b, m, norm in zip(block.tolist(), mu.tolist(), norms)
        ],
        "delta_h": _pairs(bundle.delta_h),
        "kossakowski_blocks": [
            {
                "n": list(n),
                "frequency": bohr[w_idx],
                "shifted_frequency": shift,
                "h_matrix": h,
            }
            for (w_idx, n), shift, h in zip(jumps.blocks, shifted, _pairs(bundle.kossakowski))
        ],
        "x_matrix": _pairs(bundle.x.matrix),
        "covariance": cov.to_dict(),
    }
    _emit(args, "build.json", dumps_canonical(payload))
    return 0


def cmd_evolve(args):
    mdl = _load(args)
    _, bundle = _build(args, mdl)
    dmap = dynamics.DynamicalMap(mdl, bundle, tol_unitary=args.tol_unitary)
    ts = _parse_grid(args.grid)
    rho0 = _initial_state(args.rho0, mdl)
    product = dmap.evolve(rho0, ts)
    direct = dmap.integrate_direct(rho0, ts, tol=args.tol_integrate)
    buf = io.StringIO()
    write_trajectory_csv(buf, ts, product,
                         extra={**_entry_columns(direct, "direct_"), "dist": trace_norm(product - direct)})
    _emit(args, "trajectory.csv", buf.getvalue())
    return 0


def cmd_spectrum(args):
    mdl = _load(args)
    _, bundle = _build(args, mdl)
    report = analysis.spectrum_classification(bundle.x, tol_spec=args.tol_spectral)
    _emit(args, "spectrum.json", dumps_canonical(report.to_dict()))
    return 0


def cmd_steady_state(args):
    mdl = _load(args)
    _, bundle = _build(args, mdl)
    dmap = dynamics.DynamicalMap(mdl, bundle, tol_unitary=args.tol_unitary)
    stability = analysis.spectrum_classification(bundle.x, tol_spec=args.tol_spectral)
    rho0 = _initial_state(args.rho0, mdl)
    cycle = analysis.limit_cycle(dmap, rho0, tol_spec=args.tol_spectral)
    ts = _parse_grid(args.grid)
    try:
        fit = analysis.decay_rate_fit(dmap, cycle, rho0, ts).to_dict()
    except InsufficientDecay as exc:
        fit = {"error": str(exc)}
    payload = {
        "stability": stability.to_dict(),
        "limit_cycle": cycle.to_dict(),
        "decay_fit": fit,
    }
    _emit(args, "steady_state.json", dumps_canonical(payload))
    return 0


def cmd_certify(args):
    mdl = _load(args)
    _, bundle = _build(args, mdl)
    dmap = dynamics.DynamicalMap(mdl, bundle, tol_unitary=args.tol_unitary)
    ts = _parse_grid(args.grid) if args.grid else None
    cert = analysis.cptp_certificate(
        dmap,
        ts=ts,
        n_pairs=args.pairs,
        seed=args.seed,
        tol_choi=args.tol_choi,
        tol_trace=args.tol_trace,
    )
    _emit(args, "certificate.json", dumps_canonical(cert.to_dict()))
    return 0 if cert.passed else 1


def build_parser():
    parser = _Parser(
        prog="qmme",
        description=(
            "Quasiperiodic Markovian master equation toolkit: validate model "
            "files, synthesize the lab-frame Hamiltonian, build the constant "
            "generator, evolve states along the product-form map, and certify "
            "its properties."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    psd = ("--tol-psd", 1e-12, "bath positivity slack")
    spectral = ("--tol-spectral", 1e-9, "spectral snapping tolerance")

    def command(name, help_text, func, *tols):
        """A subcommand with the common flags, then the tolerance flags ``tols``."""
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        for tol in tols:
            _add_tol(p, *tol)
        p.set_defaults(func=func)
        return p

    command("validate", "check model admissibility", cmd_validate)
    command("synthesize", "emit the lab-frame Hamiltonian series", cmd_synthesize)
    command("build", "emit decomposition, shift, rates, and generator", cmd_build, psd)
    p = command("evolve", "trajectory CSV from both dynamics paths", cmd_evolve, psd,
                ("--tol-integrate", 1e-8, "step-halving convergence bound", True))
    p.add_argument("--grid", default="0:20:200", metavar="A:B:N",
                   help="time grid start:stop:count (default 0:20:200)")
    p.add_argument("--rho0", default="mixed", metavar="STATE",
                   help="initial state: mixed, basis0, plus, ground, or a JSON file")
    command("spectrum", "classify the constant generator spectrum", cmd_spectrum, psd, spectral)
    p = command("steady-state", "limit cycle and decay-rate report", cmd_steady_state, psd, spectral)
    p.add_argument("--grid", default="0:120:500", metavar="A:B:N",
                   help="time grid for the decay fit (default 0:120:500, long enough for "
                        "the slowest decaying mode of the shipped models)")
    p.add_argument("--rho0", default="basis0", metavar="STATE",
                   help="initial state: mixed, basis0, plus, ground, or a JSON file")
    p = command("certify", "complete-positivity certificate", cmd_certify, psd,
                ("--tol-choi", 1e-10, "lowest admissible Choi eigenvalue"),
                ("--tol-trace", 1e-12, "trace-preservation defect bound"))
    p.add_argument("--grid", default=None, metavar="A:B:N",
                   help="sample times (default: 20 log-spaced points up to t=50)")
    p.add_argument("--pairs", type=_nonnegative_int, default=20, metavar="N",
                   help="number of random two-time propagators to certify")
    p.add_argument("--seed", type=_nonnegative_int, default=7, metavar="S",
                   help="seed for the random pair sample")

    return parser


def _fail(exc, code):
    """Write the JSON error object of ``exc`` (and its validation report, if any); return ``code``."""
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if (report := getattr(exc, "report", None)) is not None:
        payload["validation"] = report.to_dict()
    sys.stdout.write(dumps_canonical(payload))
    return code


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except QmmeError as exc:
        return _fail(exc, 2)
    try:
        return args.func(args)
    except QmmeError as exc:
        return _fail(exc, _exit_code_for(exc))
    except Exception as exc:  # an unanticipated failure is numerical (3), never exit 1
        return _fail(exc, 3)


if __name__ == "__main__":
    raise SystemExit(main())
