"""The exact 4x4 route of the sensor-target composite: the oracle that the
Bloch maps of `spintrack.protocol` are checked against.

Conventions used throughout the package:

* Single-spin basis operators are the *half* Paulis ``S_k = sigma_k / 2``
  together with ``S_e = 1/2``, so a qubit state is
  ``rho = S_e + x S_x + y S_y + z S_z`` with Bloch components
  ``x = tr[rho sigma_x]`` etc.  The same operators describe the target
  spin (there they are conventionally written ``I_k``).
* Composite operators live on sensor (x) target, in that tensor order:
  ``kron(sensor_op, target_op)``.
* ``hbar = 1``; angles are radians.

Numerical tolerances: algebraic identities are expected to hold to 1e-12,
eigenvalue positivity to -1e-10, and the commutator Gram matrix is ranked
with an absolute singular-value cutoff of 1e-10.

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
reduced forms of that cycle; the test-suite checks them against it, so
no module of the pipeline imports this one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, UnsupportedStateError

__all__ = ["SIGMA", "spin_op", "tensor", "commutator", "bloch_to_density", "density_to_bloch",
           "partial_trace", "check_density_matrix", "gram_matrix", "gram_rank",
           "GRAM_RANK_CUTOFF", "BchDecomposition", "check_bch_conditions", "bch_evolve",
           "exact_evolve", "CycleResult", "INTERACTION_H", "FREE_PRECESSION_H",
           "measurement_cycle"]

ALG_TOL = 1e-12
POSITIVITY_TOL = 1e-10
GRAM_RANK_CUTOFF = 1e-10
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


# Anti-Hermitian rotation generators i sigma_k on either factor; the Gram
# matrix below measures how the state responds to all six local rotations.
_GENERATORS = tuple(
    [tensor(1j * SIGMA[a], _EYE2) for a in "xyz"]
    + [tensor(_EYE2, 1j * SIGMA[a]) for a in "xyz"]
)


def gram_matrix(rho: np.ndarray) -> np.ndarray:
    """Real symmetric 6x6 overlap matrix G_ij = tr(W_i W_j)/2, W_j = [R_j, rho].

    R_1..3 = i sigma_k on the sensor, R_4..6 = i sigma_k on the target.
    Each W_j is Hermitian, so G is real.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidArgumentError(f"expected a 4x4 matrix, got shape {rho.shape}")
    w = [commutator(g, rho) for g in _GENERATORS]
    g = np.empty((6, 6))
    for i in range(6):
        for j in range(i, 6):
            val = 0.5 * np.trace(w[i] @ w[j])
            g[i, j] = g[j, i] = val.real
    return g


def gram_rank(rho: np.ndarray) -> int:
    """Rank of the rotation-response Gram matrix (SVD cutoff GRAM_RANK_CUTOFF).

    Counts the independent directions in which local rotations move the
    state: 0 for the maximally mixed state, up to 6 for states carrying
    sensor-target correlations.  Invariant under local unitaries
    SU(2) (x) SU(2), which conjugate G by an orthogonal matrix.
    """
    svals = np.linalg.svd(gram_matrix(rho), compute_uv=False)
    return int(np.sum(svals > GRAM_RANK_CUTOFF))


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
