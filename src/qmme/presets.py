"""Reference models used across the test suite and CLI examples.

Every preset is admissible by construction: base frequencies are rationally
independent, the unitary series starts at the identity, and the averaged
Hamiltonian's transition-frequency differences stay clear of the frequency
lattice (checked numerically in the tests, box 12). ``qubit_congruence_violating``
is the deliberate exception: its transition gap equals the first base
frequency, so validation must reject it.

``PRESETS[name]()`` builds a preset by name. Run ``python -m qmme.presets
[out_dir]`` to write each preset as JSON (default ``models/``).
"""

import math
import sys
from pathlib import Path

import numpy as np

from .fourier import FourierOperatorSeries
from .io import save_model
from .model import BathSpectrum, ReducedModel, p_series_from_generator

__all__ = [
    "PRESETS",
    "qubit_dephasing",
    "qubit_driven",
    "qubit_driven_periodic",
    "qutrit_thermal",
    "qutrit_thermal_static",
    "qubit_congruence_violating",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Fixed nondegenerate qutrit Hamiltonian; gaps approx 0.66, 0.85, 1.51 keep a
# few-percent margin from every lattice point k1 + k2*sqrt(2), |k| <= 12.
QUTRIT_H_BAR = np.array(
    [
        [0.90, 0.15 + 0.10j, 0.05 - 0.20j],
        [0.15 - 0.10j, 0.25, 0.10 + 0.05j],
        [0.05 + 0.20j, 0.10 - 0.05j, -0.55],
    ],
    dtype=complex,
)

# Two Hermitian couplings with every transition populated (one-dimensional
# kernel) but level 2 attached weakly: the slowest generator mode is then a
# single real population mode separated from the next rate by a factor ~4,
# which keeps asymptotic-rate fits clean.
QUTRIT_COUPLING_1 = np.array(
    [
        [0.00, 0.70 + 0.20j, 0.12 - 0.05j],
        [0.70 - 0.20j, 0.20, 0.10 + 0.08j],
        [0.12 + 0.05j, 0.10 - 0.08j, -0.10],
    ],
    dtype=complex,
)
QUTRIT_COUPLING_2 = np.array(
    [
        [0.40, 0.25 - 0.55j, 0.10 + 0.06j],
        [0.25 + 0.55j, -0.30, 0.08 - 0.10j],
        [0.10 - 0.06j, 0.08 + 0.10j, 0.10],
    ],
    dtype=complex,
)

# Noncommuting generators for the qutrit unitary series.
QUTRIT_ROT_1 = np.array(
    [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex
)
QUTRIT_ROT_2 = np.array(
    [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]], dtype=complex
)


def _model(omega, h_bar, couplings, bath, terms=None):
    """The reduced model of these data. p = I for a constant frame, and
    otherwise exp(-iA) of the profile ``terms`` in the box 10."""
    omega = np.asarray(omega, dtype=float)
    if terms is None:
        p = FourierOperatorSeries.constant(np.eye(len(h_bar), dtype=complex), r=omega.size)
    else:
        p = p_series_from_generator(terms, r=omega.size, trunc=10)
    return ReducedModel(frequencies=omega, p_series=p, h_bar=np.array(h_bar),
                        couplings=[np.array(s) for s in couplings], bath=bath)


def _sin(index, amplitude, matrix):
    return {"profile": "sin", "index": index, "amplitude": amplitude, "matrix": matrix}


def _driven_qubit(omega, terms):
    """Qubit with gap 1.0 in the frame of ``terms``, a transverse coupling and a flat rate 0.4."""
    return _model(omega, 0.5 * SIGMA_Z, [SIGMA_X], BathSpectrum.flat(0.4, 1), terms)


def _thermal_qutrit(terms):
    """Qutrit with two couplings and a thermal bath, base frequencies (1, sqrt(2))."""
    bath = BathSpectrum.ohmic_kms(kappa=0.15, cutoff=5.0, beta=1.0, n_couplings=2)
    return _model([1.0, math.sqrt(2.0)], QUTRIT_H_BAR, [QUTRIT_COUPLING_1, QUTRIT_COUPLING_2], bath, terms)


def qubit_dephasing():
    """Qubit, constant frame, coupling along the energy axis.

    The generator spectrum is known in closed form: populations are frozen
    (two zero modes) and each coherence decays at rate 2*gamma while rotating
    at the transition gap 0.6.
    """
    return _model([1.0, math.sqrt(2.0)], 0.3 * SIGMA_Z, [SIGMA_Z], BathSpectrum.flat(0.25, 1))


def qubit_driven():
    """Qubit in a two-frequency rotating frame with a transverse coupling.

    Base frequencies (sqrt(2), pi): the transition gap 1.0 and its doubles
    stay off the frequency lattice, which fails for (1, sqrt(2)).
    """
    return _driven_qubit([math.sqrt(2.0), math.pi], [_sin((1, 0), 0.3, SIGMA_Z), _sin((0, 1), 0.2, SIGMA_Z)])


def qubit_driven_periodic():
    """Single-frequency (periodic) restriction of :func:`qubit_driven`."""
    return _driven_qubit([math.sqrt(2.0)], [_sin((1,), 0.3, SIGMA_Z)])


def qutrit_thermal():
    """Qutrit with two couplings and a thermal bath in a rotating frame."""
    return _thermal_qutrit([_sin((1, 0), 0.2, QUTRIT_ROT_1), _sin((0, 1), 0.15, QUTRIT_ROT_2)])


def qutrit_thermal_static():
    """Constant-frame variant of :func:`qutrit_thermal`.

    With the frame frozen the thermal detailed-balance of the bath makes the
    Gibbs state of ``h_bar`` an exact fixed point of the constant generator.
    """
    return _thermal_qutrit(None)


def qubit_congruence_violating():
    """Inadmissible on purpose: the transition gap 1.0 equals frequency 1.

    Validation must report a congruence witness, and assembling the constant
    generator from its jump operators without the frequency-matching rule
    gives a visibly different map.
    """
    return _driven_qubit([1.0, math.sqrt(2.0)], [_sin((1, 0), 0.3, SIGMA_Z)])


PRESETS = {
    "qubit_dephasing": qubit_dephasing,
    "qubit_driven": qubit_driven,
    "qubit_driven_periodic": qubit_driven_periodic,
    "qutrit_thermal": qutrit_thermal,
    "qutrit_thermal_static": qutrit_thermal_static,
    "qubit_congruence_violating": qubit_congruence_violating,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    out_dir = Path(argv[0]) if argv else Path("models")
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, builder in sorted(PRESETS.items()):
        path = out_dir / f"{name}.json"
        save_model(builder(), path)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
