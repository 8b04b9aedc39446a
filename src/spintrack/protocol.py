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
— the protocol generates its own initial state.

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

from .errors import AmbiguousRegimeError, InvalidArgumentError
from .pauli import S_E, S_X, S_Y, S_Z, partial_trace, tensor
from .propagator import bch_evolve

__all__ = [
    "PhysicalParams",
    "ProtocolConfig",
    "CycleResult",
    "INTERACTION_H",
    "FREE_PRECESSION_H",
    "GAMMA_C13",
    "resonance_tau",
    "alpha_from_pulses",
    "precession_frequencies",
    "dephasing_rates",
    "generate_initial_state",
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

#: gyromagnetic ratio of a 13C nucleus, Hz/T
GAMMA_C13 = 10.7084e6

#: dominance factor required between regimes before a formula branch is chosen
REGIME_DOMINANCE = 100.0


@dataclass
class PhysicalParams:
    """Physical parameters of the sensor-target pair.

    omega_larmor   bare target Larmor frequency, rad/s
    a_par          parallel hyperfine component A_par, Hz
    a_perp         transverse hyperfine component A_perp, Hz
    b_field        static field along the sensor axis, T
    gamma_n        target gyromagnetic ratio, Hz/T (defaults to 13C)
    pulses         number of pulses in one decoupling train
    """

    omega_larmor: float
    a_par: float = 0.0
    a_perp: float = 0.0
    b_field: float = 0.0
    gamma_n: float = GAMMA_C13
    pulses: int = 1

    def __post_init__(self):
        if self.omega_larmor <= 0:
            raise InvalidArgumentError("omega_larmor must be positive")
        if self.pulses < 1:
            raise InvalidArgumentError("pulses must be >= 1")
        for name in ("a_par", "a_perp", "b_field", "gamma_n"):
            if getattr(self, name) < 0:
                raise InvalidArgumentError(f"{name} must be non-negative")


def resonance_tau(params: PhysicalParams, harmonic: int = 0) -> float:
    """Inter-pulse spacing that puts the decoupling train on resonance.

    Two regimes, selected only when one dominates by a factor of
    REGIME_DOMINANCE (=100):

    * weak transverse coupling, A_perp << gamma_n * B:
        tau = (2k + 1) pi / (2 omega_L + 2 pi A_par)
    * weak parallel coupling, 2 pi A_par << omega_L:
        tau = pi / omega_L

    Anything in between raises AmbiguousRegimeError: neither closed form
    is trustworthy there.
    """
    if harmonic < 0:
        raise InvalidArgumentError("harmonic must be >= 0")
    w0 = params.omega_larmor
    if params.b_field > 0 and params.gamma_n * params.b_field >= REGIME_DOMINANCE * params.a_perp:
        return (2 * harmonic + 1) * np.pi / (2 * w0 + 2 * np.pi * params.a_par)
    if w0 >= REGIME_DOMINANCE * 2 * np.pi * params.a_par:
        return (2 * harmonic + 1) * np.pi / w0
    raise AmbiguousRegimeError(
        "neither the transverse- nor the parallel-coupling regime dominates "
        f"(A_perp={params.a_perp} Hz, A_par={params.a_par} Hz, "
        f"gamma_n*B={params.gamma_n * params.b_field} Hz, omega_L={w0} rad/s)"
    )


def alpha_from_pulses(params: PhysicalParams, tau: float) -> float:
    """Accumulated measurement strength alpha = pi * N_pulses * A_perp * tau."""
    if tau <= 0:
        raise InvalidArgumentError("tau must be positive")
    return np.pi * params.pulses * params.a_perp * tau


def precession_frequencies(params: PhysicalParams) -> tuple[float, float, float]:
    """Target precession frequencies (omega_0, omega_+, omega_-), rad/s.

    The sensor-state-dependent frequencies are
    omega_+- = sqrt((omega_0 +- 2 pi A_par)^2 + (2 pi A_perp)^2).
    """
    w0 = params.omega_larmor
    ap = 2 * np.pi * params.a_par
    at = 2 * np.pi * params.a_perp
    wp = float(np.hypot(w0 + ap, at))
    wm = float(np.hypot(w0 - ap, at))
    return w0, wp, wm


def dephasing_rates(alpha: float, t_s: float, a_par: float = 0.0, t_l: float = 0.0) -> tuple[float, float]:
    """(measurement-induced rate, coupling-induced rate), both 1/s.

    measurement back-action:  alpha^2 / (4 t_s)
    sensor-lifetime coupling: (2 pi a_par)^2 t_l^2 / (2 t_s)

    t_s is the duration of one cycle, t_l the sensor relaxation window
    during which the parallel coupling a_par (given in Hz) dephases the
    target.
    """
    if t_s <= 0:
        raise InvalidArgumentError("t_s must be positive")
    if t_l < 0:
        raise InvalidArgumentError("t_l must be non-negative")
    gamma_meas = alpha**2 / (4.0 * t_s)
    gamma_coupling = (2 * np.pi * a_par) ** 2 * t_l**2 / (2.0 * t_s)
    return gamma_meas, gamma_coupling


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

    Used only to cross-check `generate_initial_state` against the explicit
    Kraus route; the simulation pipeline deliberately propagates the
    outcome-averaged map (see module docstring of `spintrack.engine`).
    """
    s = np.sin(alpha)
    p = 1.0 + outcome * x * s
    return (x + outcome * s) / p, y * np.cos(alpha) / p


def generate_initial_state(alpha: float, rng: np.random.Generator | None = None, sign: int | None = None):
    """Polarise an initially mixed target with one measurement.

    Returns (sign, bloch) where sign = +-1 is the readout outcome of the
    polarising measurement (fair coin on the mixed state) and
    bloch = (sign * sin(alpha), 0, 0) the conditioned target state.
    Pass `sign` to make the choice deterministic.
    """
    if sign is None:
        if rng is None:
            raise InvalidArgumentError("provide either rng or an explicit sign")
        sign = 1 if rng.random() < 0.5 else -1
    if sign not in (-1, 1):
        raise InvalidArgumentError(f"sign must be +1 or -1, got {sign}")
    return sign, np.array([sign * np.sin(alpha), 0.0, 0.0])


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
