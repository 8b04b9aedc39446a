"""Closed-form Heisenberg-picture propagation for operators with a closed
commutator structure.

For a Hamiltonian H and state rho such that, with B = [H, rho],

    [H, B]      = k rho - k Delta        (k > 0)
    [H, Delta]  = 0

the conjugation U rho U* with U = exp(-i phi H) has the closed form

    rho cos(phi sqrt(k)) + Delta (1 - cos(phi sqrt(k)))
        - (i / sqrt(k)) B sin(phi sqrt(k)).

The useful special case Delta = 0, k = 1 reduces to the familiar
rho cos(phi) - i [H, rho] sin(phi).

The conditions close automatically whenever H has exactly two distinct
eigenvalues (every rotation generator and the sensor-target coupling used
by the measurement protocol), which is why the whole protocol can be
propagated without ever exponentiating a matrix.  `exact_evolve` provides
the independent eigendecomposition route used to cross-check the closed
form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, UnsupportedStateError
from .pauli import commutator

__all__ = [
    "BchDecomposition",
    "check_bch_conditions",
    "bch_evolve",
    "exact_evolve",
]

DEFAULT_TOL = 1e-10


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

