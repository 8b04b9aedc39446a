"""References that the test-suite checks the pipeline against.

No module of `spintrack` imports this one, and `report` runs none of it.
It holds three groups:

* the exact 4x4 route of the sensor-target composite, which the Bloch maps
  of `spintrack.protocol` are checked against (acceptance checks 1-2,
  `tests/test_pauli.py`, `tests/test_propagator.py`, `tests/test_protocol.py`);
* the two-time outcome statistics: the exact unit-start iterate
  (`unit_start_x`; acceptance checks 3, 4 and 8 and the defect register),
  the model correlator and the ensemble estimator of an outcome record
  (`corr_Sz`, `ensemble_corr`; acceptance checks 4-6), the joint outcome
  distribution and its information distance from projective readout
  (`joint_distribution`, `relative_entropy`, `entropy_Sz_Ix`; check 10);
* the three-variable classical-probability identities behind the
  Leggett-Garg bound (`wigner_despagnat_check`, `strong_additivity_check`;
  acceptance check 9).

Tests import it as `from oracles import ...`, as they import `conftest`.

The 4x4 route
-------------

Conventions:

* Single-spin basis operators are the *half* Paulis ``S_k = sigma_k / 2``
  together with ``S_e = 1/2``, so a qubit state is
  ``rho = S_e + x S_x + y S_y + z S_z`` with Bloch components
  ``x = tr[rho sigma_x]`` etc.  The same operators describe the target
  spin (there they are conventionally written ``I_k``).
* Composite operators live on sensor (x) target, in that tensor order:
  ``kron(sensor_op, target_op)``.
* ``hbar = 1``; angles are radians.

Numerical tolerances: algebraic identities are expected to hold to 1e-12
and eigenvalue positivity to -1e-10.

Closed-form propagation.  For a Hamiltonian H and state rho such that,
with B = [H, rho],

    [H, B]      = k rho - k Delta        (k > 0)
    [H, Delta]  = 0

the conjugation U rho U* with U = exp(-i phi H) has the closed form

    rho cos(phi sqrt(k)) + Delta (1 - cos(phi sqrt(k)))
        - (i / sqrt(k)) B sin(phi sqrt(k)).

The useful special case Delta = 0, k = 1 reduces to the familiar
rho cos(phi) - i [H, rho] sin(phi).  The conditions close automatically
whenever H has exactly two distinct eigenvalues (every rotation generator
and the sensor-target coupling of the cycle), which is why a whole cycle
is propagated without exponentiating a matrix.  `exact_evolve` is the
independent eigendecomposition route that cross-checks the closed form.

One measurement cycle (`measurement_cycle`) consists of

1. sensor repolarisation into S_e + S_z (optical pumping) followed by a
   (pi/2)_y pulse tipping it to S_e + S_x,
2. free precession of the target spin about z by phi = omega * t_f,
3. the controlled interaction exp(-i alpha * 2 S_z (x) I_x) of strength
   alpha accumulated over the pulse train,
4. a (pi/2)_x pulse mapping the entangled S_y component onto S_z,
5. projective readout of the sensor along z.

`protocol.recurrence_step` and `protocol.conditioned_update` are the
reduced forms of that cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spintrack.correlation import CorrelationSeries, lag_products
from spintrack.errors import InvalidArgumentError, SpintrackError
from spintrack.protocol import damped_cosine, recurrence_step


# ---------------------------------------------------------------------------
# the exact 4x4 route of the sensor-target composite

class UnsupportedStateError(SpintrackError):
    """The requested operation has no closed form for this operator/state pair."""


ALG_TOL = 1e-12
POSITIVITY_TOL = 1e-10
DEFAULT_TOL = 1e-10

SIGMA = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
_EYE2 = np.eye(2, dtype=complex)


def spin_op(axis: str) -> np.ndarray:
    """Half-Pauli basis operator: 'e' -> 1/2, 'x'/'y'/'z' -> sigma/2.

    These are the building blocks of every state and Hamiltonian in the
    package; they satisfy [S_x, S_y] = i S_z and S_k S_k = S_e / 2.
    """
    if axis == "e":
        return _EYE2 / 2
    try:
        return SIGMA[axis] / 2
    except KeyError:
        raise InvalidArgumentError(f"axis must be one of 'e','x','y','z', got {axis!r}") from None


# frequently used aliases (sensor S_* and target I_* are the same matrices)
S_E, S_X, S_Y, S_Z = (spin_op(a) for a in "exyz")


def tensor(sensor_op: np.ndarray, target_op: np.ndarray) -> np.ndarray:
    """Kronecker product in the fixed sensor (x) target order."""
    return np.kron(np.asarray(sensor_op, dtype=complex), np.asarray(target_op, dtype=complex))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def bloch_to_density(bloch) -> np.ndarray:
    """Map a Bloch vector (x, y, z) to the qubit density matrix.

    The norm may not exceed 1 (up to 1e-12); anything longer would not be
    a state.
    """
    b = np.asarray(bloch, dtype=float)
    if b.shape != (3,):
        raise InvalidArgumentError(f"Bloch vector must have 3 components, got shape {b.shape}")
    norm = float(np.linalg.norm(b))
    if norm > 1.0 + ALG_TOL:
        raise InvalidArgumentError(f"Bloch vector norm {norm} exceeds 1")
    return S_E + b[0] * S_X + b[1] * S_Y + b[2] * S_Z


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch components tr[rho sigma_k] of a 2x2 density matrix."""
    rho = np.asarray(rho, dtype=complex)
    check_density_matrix(rho, dim=2)
    return np.array([np.trace(rho @ SIGMA[a]).real for a in "xyz"])


def check_density_matrix(rho: np.ndarray, dim: int | None = None) -> None:
    """Validate hermiticity, unit trace and positivity (within tolerances).

    Raises InvalidArgumentError with a description of the first violated
    property.  ``dim`` optionally pins the expected dimension.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidArgumentError(f"density matrix must be square, got shape {rho.shape}")
    if dim is not None and rho.shape[0] != dim:
        raise InvalidArgumentError(f"expected a {dim}x{dim} matrix, got {rho.shape[0]}x{rho.shape[0]}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-9:
        raise InvalidArgumentError("density matrix is not Hermitian")
    tr = np.trace(rho)
    if abs(tr - 1.0) > 1e-9:
        raise InvalidArgumentError(f"density matrix trace is {tr}, expected 1")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -POSITIVITY_TOL:
        raise InvalidArgumentError(f"density matrix has negative eigenvalue {evals.min()}")


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Trace a 4x4 sensor(x)target operator down to one qubit.

    keep='sensor' traces out the target spin, keep='target' the sensor.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidArgumentError(f"expected a 4x4 matrix, got shape {rho.shape}")
    r = rho.reshape(2, 2, 2, 2)  # (sensor, target, sensor', target')
    if keep == "sensor":
        return np.einsum("ikjk->ij", r)
    if keep == "target":
        return np.einsum("kikj->ij", r)
    raise InvalidArgumentError(f"keep must be 'sensor' or 'target', got {keep!r}")


@dataclass
class BchDecomposition:
    """Result of decomposing a (H, rho) pair for closed-form propagation.

    commutator  B = [H, rho]
    curvature   k with [H, [H, B]] = k B (k > 0 when valid)
    stationary  Delta = rho - [H, B] / k, commutes with H when valid
    valid       True when the closure residuals are below tolerance
    residual    max-norm residual of the closure conditions
    """

    commutator: np.ndarray
    curvature: float
    stationary: np.ndarray
    valid: bool
    residual: float


def _maxabs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def check_bch_conditions(h: np.ndarray, rho: np.ndarray) -> BchDecomposition:
    """Decompose (H, rho) into the closed commutator structure, if it exists.

    The curvature k is obtained by least squares from the proportionality
    [H, [H, B]] = k B (projection of the triple commutator of H with rho
    onto B), then Delta = rho - [H, B]/k.  The decomposition is marked
    invalid when no positive k exists or either residual
    ||[H,[H,B]] - k B|| or ||[H, Delta]|| exceeds DEFAULT_TOL.

    A commuting pair ([H, rho] = 0) is trivially valid with k = 1 and
    Delta = rho: the propagated state never moves.
    """
    h = np.asarray(h, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if h.shape != rho.shape or h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InvalidArgumentError(f"H and rho must be equal square matrices, got {h.shape} and {rho.shape}")

    b = commutator(h, rho)
    if _maxabs(b) < DEFAULT_TOL:
        return BchDecomposition(b, 1.0, rho.copy(), True, 0.0)

    d = commutator(h, b)          # k rho - k Delta when the structure closes
    e = commutator(h, d)          # then equals k B
    bb = np.vdot(b, b).real
    k = float(np.vdot(b, e).real / bb)
    if k <= DEFAULT_TOL:
        return BchDecomposition(b, k, rho.copy(), False, _maxabs(e))

    delta = rho - d / k
    residual = max(_maxabs(e - k * b), _maxabs(commutator(h, delta)))
    return BchDecomposition(b, k, delta, residual < DEFAULT_TOL, residual)


def bch_evolve(h: np.ndarray, rho: np.ndarray, phi: float) -> np.ndarray:
    """Propagate rho -> exp(-i phi H) rho exp(+i phi H) via the closed form.

    Raises UnsupportedStateError when the commutator structure of (H, rho)
    does not close, in which case `exact_evolve` is the fallback.
    """
    dec = check_bch_conditions(h, rho)
    if not dec.valid:
        raise UnsupportedStateError(
            f"no closed commutator structure for this (H, rho) pair (residual {dec.residual:.3e})"
        )
    root_k = np.sqrt(dec.curvature)
    ang = phi * root_k
    return (
        np.asarray(rho, dtype=complex) * np.cos(ang)
        + dec.stationary * (1.0 - np.cos(ang))
        - (1j / root_k) * dec.commutator * np.sin(ang)
    )


def exact_evolve(h: np.ndarray, rho: np.ndarray, phi: float) -> np.ndarray:
    """Reference propagation by eigendecomposition of H (independent route)."""
    h = np.asarray(h, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if _maxabs(h - h.conj().T) > 1e-9:
        raise InvalidArgumentError("H must be Hermitian")
    w, v = np.linalg.eigh(h)
    u = v @ np.diag(np.exp(-1j * phi * w)) @ v.conj().T
    return u @ rho @ u.conj().T


# Normalised so the closed-form curvature is 1: evolving by angle alpha
# applies exactly the interaction of strength alpha.  The bare coupling
# S_z (x) I_x has curvature 1/4 (half-angle convention).
INTERACTION_H = 2.0 * tensor(S_Z, S_X)
FREE_PRECESSION_H = tensor(_EYE2, S_Z)
_ROT_X = tensor(S_X, _EYE2)
_ROT_Y = tensor(S_Y, _EYE2)


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
    zeta = float(np.trace(sensor @ SIGMA["z"]).real)
    return CycleResult(target_rho=target, sensor_rho=sensor, zeta=zeta)


# ---------------------------------------------------------------------------
# two-time outcome statistics

def unit_start_x(alpha: float, phi: float, n_max: int) -> np.ndarray:
    """x_N, N = 1..n_max: the x component of the target spin after N
    outcome-averaged cycles (`protocol.recurrence_step`) from the unit start
    (1, 0).  The exact readout correlator is sin^2(alpha) x_N."""
    x, y = 1.0, 0.0
    out = np.empty(n_max)
    for n in range(n_max):
        x, y = recurrence_step(x, y, alpha, phi)
        out[n] = x
    return out


def joint_distribution(x_n: float) -> np.ndarray:
    """2x2 joint distribution of (initial outcome mu, lag-N outcome lambda).

    Index 0 means +1, index 1 means -1:
    p[0,0] = p[1,1] = (1 + x_n)/4,  p[0,1] = p[1,0] = (1 - x_n)/4.
    """
    if abs(x_n) > 1.0 + 1e-12:
        raise InvalidArgumentError(f"|x_n| must not exceed 1, got {x_n}")
    same = (1.0 + x_n) / 4.0
    diff = (1.0 - x_n) / 4.0
    return np.array([[same, diff], [diff, same]])


def _lag_array(max_lag: int) -> np.ndarray:
    if max_lag < 1:
        raise InvalidArgumentError("max_lag must be >= 1")
    return np.arange(1, max_lag + 1)


def corr_Sz(alpha: float, phi: float, max_lag: int) -> CorrelationSeries:
    """Model readout correlator C_Sz(N) = sin(alpha) x_N for N = 1..max_lag.

    Uses the weak-measurement approximation
    C_Sz(N) ~= sin^2(alpha) cos(phi N) e^{-(N-1) alpha^2/4}, which is off
    by O(alpha^2); the exact value is sin^2(alpha) times the unit-start x
    of `protocol.recurrence_step`.
    """
    n = _lag_array(max_lag)
    vals = damped_cosine(alpha, phi, n, np.sin(alpha) ** 2)
    return CorrelationSeries(n, vals, np.zeros_like(vals), kind="Sz-model")


def ensemble_corr(records: np.ndarray, max_lag: int | None = None) -> CorrelationSeries:
    """Across-run estimator: C(N) = mean_r [ s_{r,0} * s_{r,N} ].

    `records` has shape (runs, length); column 0 is the reference
    measurement of each run (the polarising measurement for self-polarised
    data).  stderr is the standard error over runs.  Integer records
    pass to `lag_products` without a float copy.
    """
    m = np.atleast_2d(records)
    if max_lag is None:
        max_lag = m.shape[1] - 1
    mean, std, count = lag_products(m, max_lag, "ensemble")
    return CorrelationSeries(_lag_array(max_lag), mean, std / np.sqrt(count), kind="ensemble")


def relative_entropy(p, q) -> float:
    """Kullback-Leibler divergence sum_i p_i ln(p_i / q_i) (natural log).

    Both arguments must be probability vectors of equal length (entries
    >= 0, summing to 1 within 1e-9).  Terms with p_i = 0 contribute 0;
    a q_i = 0 with p_i > 0 means disjoint support and raises
    InvalidArgumentError.  Always >= 0, and 0 exactly when p == q.
    """
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    if p.shape != q.shape:
        raise InvalidArgumentError("p and q must have the same length")
    for name, v in (("p", p), ("q", q)):
        if np.any(v < -1e-12):
            raise InvalidArgumentError(f"{name} has negative entries")
        if abs(v.sum() - 1.0) > 1e-9:
            raise InvalidArgumentError(f"{name} must sum to 1, got {v.sum()}")
    pm = p > 0
    if np.any(pm & (q <= 0)):
        raise InvalidArgumentError("q vanishes where p does not (disjoint support)")
    # where p and q nearly agree, rounding can leave a sum just below 0
    return max(0.0, float(np.sum(p[pm] * np.log(p[pm] / q[pm]))))


def entropy_Sz_Ix(alpha: float, phi: float, lag: int = 1) -> float:
    """Information distance between weak and projective readout statistics.

    Compares the lag-N weak readout distribution
    P = ((1 + x_N sin(alpha))/2, (1 - x_N sin(alpha))/2), with
    x_N = sin(alpha) cos(phi N) e^{-(N-1) alpha^2/4}, against the ideal
    projective reference Q = ((1 + cos(phi N))/2, (1 - cos(phi N))/2).
    Approaches 0 as alpha -> pi/2 at N = 1 (weak readout becomes
    projective); at phi = 0 the reference is deterministic while the weak
    distribution is not, which violates the support precondition of
    `relative_entropy` and raises InvalidArgumentError.
    """
    if lag < 1:
        raise InvalidArgumentError("lag must be >= 1")
    x_n = damped_cosine(alpha, phi, lag, np.sin(alpha))
    zeta = x_n * np.sin(alpha)
    ref = np.cos(phi * lag)
    p = np.array([(1.0 + zeta) / 2.0, (1.0 - zeta) / 2.0])
    q = np.array([(1.0 + ref) / 2.0, (1.0 - ref) / 2.0])
    return relative_entropy(p, q)


# ---------------------------------------------------------------------------
# three-variable classical oracles
#
# They operate on joint distributions of three +-1 variables on one
# probability space (axis order (xi, phi, theta), index 0 <-> value +1):
# any such joint satisfies both strong additivity and the pairwise
# marginal inequality P(xi+, phi+) + P(phi-, theta+) >= P(xi+, theta+),
# which is why a violation in the temporal data rules such a joint out.

#: slack of the oracles' probability identities, for float rounding only
ROUNDING_TOL = 1e-12

# canonical event masks of the marginal inequality, axis order (xi, phi, theta)
_IDX = np.indices((2, 2, 2))
DESPAGNAT_A = (_IDX[0] == 0) & (_IDX[1] == 0)   # {xi = +1, phi = +1}
DESPAGNAT_B = (_IDX[1] == 1) & (_IDX[2] == 0)   # {phi = -1, theta = +1}


_ATOMS = (-3, -2, -1)


def _check_joint(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape[-3:] != (2, 2, 2):
        raise InvalidArgumentError(f"joint must have shape (..., 2, 2, 2), got {p.shape}")
    if np.any(p < -ROUNDING_TOL):
        raise InvalidArgumentError("joint has negative entries")
    total = p.sum(axis=_ATOMS)
    off = np.abs(total - 1.0) > 1e-9
    if np.any(off):
        raise InvalidArgumentError(f"joint must sum to 1, got {total[off].flat[0]}")
    return p


def _scalar_or_array(x):
    """A plain float/bool for one joint, the array for a batch."""
    return x.item() if x.ndim == 0 else x


def wigner_despagnat_check(p) -> tuple:
    """Pairwise-marginal inequality for three +-1 variables on one space.

    Returns (lhs, rhs, holds) for

        P(xi=+1, phi=+1) + P(phi=-1, theta=+1) >= P(xi=+1, theta=+1).

    lhs - rhs equals the probability of the two atoms (+,+,-) and
    (-,-,+), so `holds` is true for every valid joint; the ROUNDING_TOL
    slack only absorbs float rounding of the sums.  `p` is one (2,2,2)
    joint (floats and a bool come back) or a batch (..., 2, 2, 2) (arrays
    of the batch shape come back).
    """
    p = _check_joint(p)
    lhs = p[..., 0, 0, :].sum(axis=-1) + p[..., :, 1, 0].sum(axis=-1)
    rhs = p[..., 0, :, 0].sum(axis=-1)
    return (_scalar_or_array(lhs), _scalar_or_array(rhs),
            _scalar_or_array(lhs + ROUNDING_TOL >= rhs))


def strong_additivity_check(p, set_a=None, set_b=None):
    """Verify P(A) + P(B) = P(A and B) + P(A or B) on an atom measure.

    `p` is a (2,2,2) probability table, or a batch (..., 2, 2, 2) of them;
    the sets are boolean masks over it, one mask or one per joint
    (default: the canonical pair above, which is disjoint, so the
    identity degenerates to plain additivity).  This is the measure-
    theoretic fact behind `wigner_despagnat_check`: apply it to the
    canonical sets and drop the non-shared atoms to get the inequality.
    The identity must hold to ROUNDING_TOL.  Returns a bool for one
    joint, a bool array of the batch shape for a batch.
    """
    p = _check_joint(p)
    a = DESPAGNAT_A if set_a is None else np.asarray(set_a, dtype=bool)
    b = DESPAGNAT_B if set_b is None else np.asarray(set_b, dtype=bool)
    if a.shape[-3:] != (2, 2, 2) or b.shape[-3:] != (2, 2, 2):
        raise InvalidArgumentError("set masks must have the joint's (2, 2, 2) shape")

    def measure(mask):
        return (p * mask).sum(axis=_ATOMS)

    lhs = measure(a) + measure(b)
    rhs = measure(a & b) + measure(a | b)
    return _scalar_or_array(np.abs(lhs - rhs) <= ROUNDING_TOL)
