"""The Bloch maps of one measurement cycle, which `spintrack.engine`
samples with.

Averaged over readout outcomes the target Bloch vector follows the linear
recurrence

    x' = x cos(phi) - y sin(phi)
    y' = (x sin(phi) + y cos(phi)) cos(alpha)

(z stays zero throughout), and the sensor polarisation before readout is
zeta = x' sin(alpha), i.e. the probability of the +1 outcome is
(1 + zeta)/2.  `recurrence_step` is that map and `recurrence_matrix` its
2x2 matrix, built by applying it to the unit vectors.  These are reduced
forms of one cycle on the full 4x4 sensor-target composite; the
test-suite holds that route (`tests/oracles.py`) and checks them
against it.

On an initially mixed target the very first measurement polarises it to
(+-sin(alpha), 0, 0) with equal probability for the two readout outcomes
— the protocol generates its own initial state.  That state is
`conditioned_update(0, 0, alpha, sign)`.  The engine samples that start,
then `recurrence_step` on every run (at alpha = 0, a pure precession, on a
charge-neutral cycle).

`damped_cosine` is the weak-measurement approximation of the iterated
recurrence, amplitude * cos(phi N) exp(-(N-1) alpha^2/4); it is the one
definition of that model, behind the strength fit of `spintrack.calibrate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "ProtocolConfig",
    "recurrence_step",
    "recurrence_matrix",
    "conditioned_update",
    "damped_cosine",
]


@dataclass
class ProtocolConfig:
    """Protocol settings for a simulated measurement sequence.

    alpha         per-cycle measurement strength, rad, in [0, pi]
    phi           per-cycle precession angle omega * t_f, rad
    cycles        number of measurement cycles after initialisation
    prepolarized  start from (x, y) = (1, 0) instead of the self-generated
                  (+-sin(alpha), 0) state
    """

    alpha: float
    phi: float
    cycles: int
    prepolarized: bool = False

    def __post_init__(self):
        if not (0.0 <= self.alpha <= np.pi):
            raise InvalidArgumentError(f"alpha must lie in [0, pi], got {self.alpha}")
        if not np.isfinite(self.phi):
            raise InvalidArgumentError("phi must be finite")
        if self.cycles < 1:
            raise InvalidArgumentError("cycles must be >= 1")


def conditioned_update(x, y, alpha: float, outcome):
    """Target Bloch vector conditioned on a readout outcome (+1 or -1).

    Scalars or arrays.  (x, y) is the precessed state the interaction acts
    on; the outcome has probability (1 + outcome x sin(alpha)) / 2.  The
    test-suite checks it against the Kraus route (sensor projectors on the
    4x4 composite after one measurement cycle).  The engine applies it to the
    polarising measurement only (see the module docstring of `spintrack.engine`).
    """
    s = np.sin(alpha)
    p = 1.0 + outcome * x * s
    return (x + outcome * s) / p, y * np.cos(alpha) / p


def recurrence_step(x, y, alpha: float, phi: float):
    """Reduced per-cycle update of the target transverse Bloch components.

    Accepts scalars or arrays.  Returns (x', y').
    """
    c, s = np.cos(phi), np.sin(phi)
    xr = x * c - y * s
    yr = (x * s + y * c) * np.cos(alpha)
    return xr, yr


def recurrence_matrix(alpha: float, phi: float) -> np.ndarray:
    """2x2 matrix form of `recurrence_step` acting on (x, y): its columns
    are the images of the unit vectors (1, 0) and (0, 1)."""
    return np.array(recurrence_step(np.array([1.0, 0.0]), np.array([0.0, 1.0]), alpha, phi))


def damped_cosine(alpha: float, phi: float, lags, amplitude) -> np.ndarray:
    """Damped-cosine approximation of the x amplitude after N cycles:

        x_N ~= amplitude * cos(phi N) * exp(-(N-1) alpha^2 / 4)

    evaluated on the array `lags`.  `amplitude` is sin(alpha) for the
    self-generated initial state, 1 for an externally polarised one and
    sin^2(alpha) for the readout correlator C_Sz; it may also be a per-lag
    array.  Accurate to a few percent of `amplitude` for alpha up to
    ~0.1 pi over tens of cycles; the exact recurrence also picks up an
    O(alpha^2) frequency shift that this form ignores.
    """
    n = np.asarray(lags)
    return amplitude * np.cos(phi * n) * np.exp(-(n - 1) * alpha**2 / 4.0)
