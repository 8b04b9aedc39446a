"""The sequential weak-measurement protocol.

One measurement cycle of the sensor-target system consists of

1. sensor repolarisation into S_e + S_z (optical pumping) followed by a
   (pi/2)_y pulse tipping it to S_e + S_x,
2. free precession of the target spin about z by phi = omega * t_f,
3. the controlled interaction exp(-i alpha * 2 S_z (x) I_x) of strength
   alpha accumulated over the pulse train,
4. a (pi/2)_x pulse mapping the entangled S_y component onto S_z,
5. projective readout of the sensor along z.

Averaged over readout outcomes the target Bloch vector follows the linear
recurrence

    x' = x cos(phi) - y sin(phi)
    y' = (x sin(phi) + y cos(phi)) cos(alpha)

(z stays zero throughout), and the sensor polarisation before readout is
zeta = x' sin(alpha), i.e. the probability of the +1 outcome is
(1 + zeta)/2.  `measurement_cycle` runs the full 4x4 route and
`recurrence_step` the reduced one; the two are cross-checked against each
other in the test-suite, do not collapse them.

On an initially mixed target the very first measurement polarises it to
(+-sin(alpha), 0, 0) with equal probability for the two readout outcomes
— the protocol generates its own initial state.  That state is
`_conditioned_bloch_update(0, 0, alpha, sign)`, and `spintrack.engine`
draws it as each run's polarising measurement.

`damped_cosine` is the weak-measurement approximation of the iterated
recurrence, amplitude * cos(phi N) exp(-(N-1) alpha^2/4); it is the one
definition of that model behind the correlation functions of
`spintrack.correlation` and the strength fit of `spintrack.calibrate`.
Runs are sampled by `spintrack.engine`, which iterates the same
recurrence vectorised over runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .pauli import S_E, S_X, S_Y, S_Z, partial_trace, tensor
from .propagator import bch_evolve

__all__ = [
    "ProtocolConfig",
    "CycleResult",
    "INTERACTION_H",
    "FREE_PRECESSION_H",
    "measurement_cycle",
    "recurrence_step",
    "recurrence_matrix",
    "damped_cosine",
]

_EYE2 = np.eye(2, dtype=complex)

# Normalised so the closed-form curvature is 1: evolving by angle alpha
# applies exactly the interaction of strength alpha.  The bare coupling
# S_z (x) I_x has curvature 1/4 (half-angle convention).
INTERACTION_H = 2.0 * tensor(S_Z, S_X)
FREE_PRECESSION_H = tensor(_EYE2, S_Z)
_ROT_X = tensor(S_X, _EYE2)
_ROT_Y = tensor(S_Y, _EYE2)


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


def _conditioned_bloch_update(x: float, y: float, alpha: float, outcome: int) -> tuple[float, float]:
    """Target Bloch vector conditioned on a readout outcome (+1 or -1).

    (x, y) is the precessed state the interaction acts on; the outcome
    has probability (1 + outcome x sin(alpha)) / 2.  The test-suite checks
    it against the Kraus route (sensor projectors on the composite of
    `measurement_cycle`).  The simulation pipeline deliberately propagates
    the outcome-averaged map (see module docstring of `spintrack.engine`).
    """
    s = np.sin(alpha)
    p = 1.0 + outcome * x * s
    return (x + outcome * s) / p, y * np.cos(alpha) / p


@dataclass
class CycleResult:
    """Outcome-averaged result of one full measurement cycle."""

    target_rho: np.ndarray     # 2x2 post-cycle target state
    sensor_rho: np.ndarray     # 2x2 sensor state right before readout
    zeta: float                # sensor z polarisation tr[sigma_z sensor_rho]


def measurement_cycle(target_rho: np.ndarray, alpha: float, phi: float) -> CycleResult:
    """One cycle on the full 4x4 composite, averaged over readout outcomes.

    The sensor is taken fresh (pumped to S_e + S_z and tipped by the
    (pi/2)_y pulse), the target precesses by phi, interacts with strength
    alpha, and the (pi/2)_x pulse maps the measured component onto the
    sensor z axis.  The returned target state is the unconditional
    post-readout state (readout and repolarisation discard the sensor).
    """
    comp = tensor(S_E + S_Z, np.asarray(target_rho, dtype=complex))
    comp = bch_evolve(_ROT_Y, comp, np.pi / 2)          # sensor S_e+S_z -> S_e+S_x
    comp = bch_evolve(FREE_PRECESSION_H, comp, phi)
    comp = bch_evolve(INTERACTION_H, comp, alpha)
    comp = bch_evolve(_ROT_X, comp, np.pi / 2)
    sensor = partial_trace(comp, "sensor")
    target = partial_trace(comp, "target")
    zeta = float(np.trace(sensor @ np.array([[1, 0], [0, -1]], dtype=complex)).real)
    return CycleResult(target_rho=target, sensor_rho=sensor, zeta=zeta)


def recurrence_step(x, y, alpha: float, phi: float):
    """Reduced per-cycle update of the target transverse Bloch components.

    Accepts scalars or arrays.  Returns (x', y').
    """
    c, s = np.cos(phi), np.sin(phi)
    xr = x * c - y * s
    yr = (x * s + y * c) * np.cos(alpha)
    return xr, yr


def recurrence_matrix(alpha: float, phi: float) -> np.ndarray:
    """2x2 matrix form of `recurrence_step` acting on (x, y)."""
    c, s = np.cos(phi), np.sin(phi)
    ca = np.cos(alpha)
    return np.array([[c, -s], [s * ca, c * ca]])


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
