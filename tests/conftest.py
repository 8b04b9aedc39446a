"""Shared helpers for the test suite."""

import numpy as np
import pytest

from oracles import S_E, S_X, S_Y, S_Z, bloch_to_density, tensor


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_bloch(rng, radius=1.0):
    """Uniform random Bloch vector with |r| <= radius."""
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * radius * rng.random() ** (1.0 / 3.0)


def random_density(rng, dim=2):
    """Random full-rank density matrix (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def interaction_family_state(x, y):
    """Composite (S_e + S_x) (x) (I_e + x I_x + y I_y) used throughout.

    This is the sensor tipped onto the x axis paired with a target of
    transverse polarisation (x, y); it is the state family the closed-form
    propagator must handle exactly for the coupling 2 S_z (x) I_x.
    """
    sensor = S_E + S_X
    target = 0.5 * np.eye(2) + x * S_X + y * S_Y
    return tensor(sensor, target)


def target_density(x, y):
    return bloch_to_density([x, y, 0.0])
