"""Reference models used across the test suite and CLI examples.

Every preset is admissible by construction: base frequencies are rationally
independent, the unitary series starts at the identity, and the averaged
Hamiltonian's transition-frequency differences stay clear of the frequency
lattice (checked numerically in the tests, box 12). ``qubit_congruence_violating``
is the deliberate exception: its transition gap equals the first base
frequency, so validation must reject it.

Run ``python -m qmme.presets [out_dir]`` to write each preset as JSON
(default ``models/``).
"""

import math
import sys

import numpy as np

from .fourier import FourierOperatorSeries
from .model import BathSpectrum, ReducedModel, p_series_from_generator

__all__ = [
    "PRESETS",
    "preset",
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


def qubit_dephasing():
    """Qubit, constant frame, coupling along the energy axis.

    The generator spectrum is known in closed form: populations are frozen
    (two zero modes) and each coherence decays at rate 2*gamma while rotating
    at the transition gap 0.6.
    """
    omega = np.array([1.0, math.sqrt(2.0)])
    p = FourierOperatorSeries.constant(np.eye(2, dtype=complex), r=2)
    return ReducedModel(
        frequencies=omega,
        p_series=p,
        h_bar=0.3 * SIGMA_Z,
        couplings=[SIGMA_Z.copy()],
        bath=BathSpectrum.flat(0.25, 1),
    )


def _driven_terms(amp1, amp2):
    return [
        {"profile": "sin", "index": (1, 0), "amplitude": amp1, "matrix": SIGMA_Z},
        {"profile": "sin", "index": (0, 1), "amplitude": amp2, "matrix": SIGMA_Z},
    ]


def qubit_driven(trunc=10):
    """Qubit in a two-frequency rotating frame with a transverse coupling.

    Base frequencies (sqrt(2), pi): the transition gap 1.0 and its doubles
    stay off the frequency lattice, which fails for (1, sqrt(2)).
    """
    omega = np.array([math.sqrt(2.0), math.pi])
    p = p_series_from_generator(_driven_terms(0.3, 0.2), r=2, trunc=trunc)
    return ReducedModel(
        frequencies=omega,
        p_series=p,
        h_bar=0.5 * SIGMA_Z,
        couplings=[SIGMA_X.copy()],
        bath=BathSpectrum.flat(0.4, 1),
    )


def qubit_driven_periodic(trunc=10):
    """Single-frequency (periodic) restriction of :func:`qubit_driven`."""
    omega = np.array([math.sqrt(2.0)])
    terms = [
        {"profile": "sin", "index": (1,), "amplitude": 0.3, "matrix": SIGMA_Z},
    ]
    p = p_series_from_generator(terms, r=1, trunc=trunc)
    return ReducedModel(
        frequencies=omega,
        p_series=p,
        h_bar=0.5 * SIGMA_Z,
        couplings=[SIGMA_X.copy()],
        bath=BathSpectrum.flat(0.4, 1),
    )


def qutrit_thermal(trunc=10):
    """Qutrit with two couplings and a thermal bath in a rotating frame."""
    omega = np.array([1.0, math.sqrt(2.0)])
    terms = [
        {"profile": "sin", "index": (1, 0), "amplitude": 0.2, "matrix": QUTRIT_ROT_1},
        {"profile": "sin", "index": (0, 1), "amplitude": 0.15, "matrix": QUTRIT_ROT_2},
    ]
    p = p_series_from_generator(terms, r=2, trunc=trunc)
    return ReducedModel(
        frequencies=omega,
        p_series=p,
        h_bar=QUTRIT_H_BAR.copy(),
        couplings=[QUTRIT_COUPLING_1.copy(), QUTRIT_COUPLING_2.copy()],
        bath=BathSpectrum.ohmic_kms(kappa=0.15, cutoff=5.0, beta=1.0, n_couplings=2),
    )


def qutrit_thermal_static():
    """Constant-frame variant of :func:`qutrit_thermal`.

    With the frame frozen the thermal detailed-balance of the bath makes the
    Gibbs state of ``h_bar`` an exact fixed point of the constant generator.
    """
    omega = np.array([1.0, math.sqrt(2.0)])
    p = FourierOperatorSeries.constant(np.eye(3, dtype=complex), r=2)
    return ReducedModel(
        frequencies=omega,
        p_series=p,
        h_bar=QUTRIT_H_BAR.copy(),
        couplings=[QUTRIT_COUPLING_1.copy(), QUTRIT_COUPLING_2.copy()],
        bath=BathSpectrum.ohmic_kms(kappa=0.15, cutoff=5.0, beta=1.0, n_couplings=2),
    )


def qubit_congruence_violating(trunc=10):
    """Inadmissible on purpose: the transition gap 1.0 equals frequency 1.

    Validation must report a congruence witness, and assembling the constant
    generator from its jump operators without the frequency-matching rule
    gives a visibly different map.
    """
    omega = np.array([1.0, math.sqrt(2.0)])
    terms = [
        {"profile": "sin", "index": (1, 0), "amplitude": 0.3, "matrix": SIGMA_Z},
    ]
    p = p_series_from_generator(terms, r=2, trunc=trunc)
    return ReducedModel(
        frequencies=omega,
        p_series=p,
        h_bar=0.5 * SIGMA_Z,
        couplings=[SIGMA_X.copy()],
        bath=BathSpectrum.flat(0.4, 1),
    )


PRESETS = {
    "qubit_dephasing": qubit_dephasing,
    "qubit_driven": qubit_driven,
    "qubit_driven_periodic": qubit_driven_periodic,
    "qutrit_thermal": qutrit_thermal,
    "qutrit_thermal_static": qutrit_thermal_static,
    "qubit_congruence_violating": qubit_congruence_violating,
}


def preset(name):
    """Instantiate a preset by name (KeyError lists the known names)."""
    try:
        builder = PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; known: {sorted(PRESETS)}") from None
    return builder()


def main(argv=None):
    from pathlib import Path

    from .io import save_model

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
