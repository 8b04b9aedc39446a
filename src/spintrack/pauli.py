"""Two-qubit operator toolbox for a sensor qubit coupled to a target spin-1/2.

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
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "SIGMA",
    "spin_op",
    "tensor",
    "commutator",
    "bloch_to_density",
    "density_to_bloch",
    "partial_trace",
    "check_density_matrix",
    "gram_matrix",
    "gram_rank",
    "GRAM_RANK_CUTOFF",
]

ALG_TOL = 1e-12
POSITIVITY_TOL = 1e-10
GRAM_RANK_CUTOFF = 1e-10

SIGMA = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
_IDENTITY = np.eye(2, dtype=complex)


def spin_op(axis: str) -> np.ndarray:
    """Half-Pauli basis operator: 'e' -> 1/2, 'x'/'y'/'z' -> sigma/2.

    These are the building blocks of every state and Hamiltonian in the
    package; they satisfy [S_x, S_y] = i S_z and S_k S_k = S_e / 2.
    """
    if axis == "e":
        return _IDENTITY / 2
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
    [tensor(1j * SIGMA[a], _IDENTITY) for a in "xyz"]
    + [tensor(_IDENTITY, 1j * SIGMA[a]) for a in "xyz"]
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
