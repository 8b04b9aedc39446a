import numpy as np
import pytest

from spintrack.errors import InvalidArgumentError

from oracles import (
    FREE_PRECESSION_H,
    INTERACTION_H,
    S_E,
    S_X,
    S_Z,
    UnsupportedStateError,
    bch_evolve,
    check_bch_conditions,
    commutator,
    exact_evolve,
    tensor,
)
from conftest import interaction_family_state, random_density


def _random_family_state(rng):
    # random transverse polarisation inside the unit disc
    r = np.sqrt(rng.random())
    t = rng.uniform(0, 2 * np.pi)
    return interaction_family_state(r * np.cos(t), r * np.sin(t))


def test_closed_form_matches_exact_on_family(rng):
    worst = 0.0
    for _ in range(100):
        rho = _random_family_state(rng)
        phi = rng.uniform(0, np.pi)
        a = bch_evolve(INTERACTION_H, rho, phi)
        b = exact_evolve(INTERACTION_H, rho, phi)
        worst = max(worst, np.max(np.abs(a - b)))
    assert worst < 1e-12


def test_decomposition_fields_on_family():
    rho = interaction_family_state(0.4, -0.2)
    dec = check_bch_conditions(INTERACTION_H, rho)
    assert dec.valid
    assert dec.curvature == pytest.approx(1.0, abs=1e-12)
    assert dec.residual < 1e-10
    assert np.allclose(dec.commutator, commutator(INTERACTION_H, rho))
    # the stationary part is inert under the coupling
    assert np.max(np.abs(commutator(INTERACTION_H, dec.stationary))) < 1e-10


def test_bare_coupling_has_quarter_curvature():
    """Dropping the factor 2 from the coupling rescales the curvature to
    1/4; the angle argument then no longer equals the measurement
    strength.  Regression guard for the normalisation."""
    dec = check_bch_conditions(tensor(S_Z, S_X), interaction_family_state(0.7, 0.1))
    assert dec.valid
    assert dec.curvature == pytest.approx(0.25, abs=1e-12)


def test_commuting_pair_is_stationary():
    rho = tensor(0.5 * np.eye(2), S_E + S_Z)
    dec = check_bch_conditions(FREE_PRECESSION_H, rho)
    assert dec.valid
    assert dec.curvature == 1.0
    assert np.allclose(dec.stationary, rho)
    assert np.allclose(bch_evolve(FREE_PRECESSION_H, rho, 1.234), rho)


def test_involutive_coupling_closes_for_any_state(rng):
    """The coupling squares to the identity (over 4), so every state --
    not just the protocol family -- admits the closed form with unit
    curvature.  The family restriction is physical, not algebraic."""
    for _ in range(10):
        rho = random_density(rng, dim=4)
        dec = check_bch_conditions(INTERACTION_H, rho)
        assert dec.valid
        assert dec.curvature == pytest.approx(1.0, abs=1e-10)
        out = bch_evolve(INTERACTION_H, rho, 0.9)
        assert np.allclose(out, exact_evolve(INTERACTION_H, rho, 0.9), atol=1e-12)


def test_unequal_gap_hamiltonian_fails_closure(rng):
    # gaps 1, 2, 4, ... admit no single rotation frequency
    h = np.diag([0.0, 1.0, 2.0, 4.0])
    rho = random_density(rng, dim=4)
    dec = check_bch_conditions(h, rho)
    assert not dec.valid
    assert dec.residual > 1e-10
    with pytest.raises(UnsupportedStateError):
        bch_evolve(h, rho, 0.5)


def test_shape_mismatch_rejected():
    with pytest.raises(InvalidArgumentError):
        check_bch_conditions(np.eye(2), np.eye(4) / 4)


def test_exact_evolve_requires_hermitian():
    with pytest.raises(InvalidArgumentError):
        exact_evolve(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2) / 2, 0.3)


def test_evolution_preserves_state_properties(rng):
    rho = _random_family_state(rng)
    out = bch_evolve(INTERACTION_H, rho, 0.77)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out, out.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(out).min() > -1e-10


def test_zero_angle_is_identity(rng):
    rho = _random_family_state(rng)
    assert np.allclose(bch_evolve(INTERACTION_H, rho, 0.0), rho, atol=1e-14)


def test_period_two_pi_over_root_curvature(rng):
    rho = _random_family_state(rng)
    # curvature 1 for the full coupling: period 2 pi
    a = bch_evolve(INTERACTION_H, rho, 0.4)
    b = bch_evolve(INTERACTION_H, rho, 0.4 + 2 * np.pi)
    assert np.allclose(a, b, atol=1e-12)
    # curvature 1/4 for the bare coupling: period 4 pi
    half = tensor(S_Z, S_X)
    c = bch_evolve(half, rho, 0.4)
    d = bch_evolve(half, rho, 0.4 + 4 * np.pi)
    assert np.allclose(c, d, atol=1e-12)


def test_bch_evolve_matches_increment_form(rng):
    """For a curvature-1/4 coupling the closed form at angle 2 alpha is the
    master-equation increment
    rho - 2i sin(alpha) [H, rho] - 4 (1 - cos(alpha)) [H, [H, rho]]."""
    h = tensor(S_Z, S_X)
    rho = _random_family_state(rng)
    b = commutator(h, rho)
    for alpha in (0.05, 0.3, 1.1):
        increment = rho - 2j * np.sin(alpha) * b - 4.0 * (1.0 - np.cos(alpha)) * commutator(h, b)
        assert np.allclose(bch_evolve(h, rho, 2.0 * alpha), increment, atol=1e-12)


def test_bch_evolve_small_angle_limit(rng):
    rho = _random_family_state(rng)
    h = tensor(S_Z, S_X)
    eps = 1e-6
    step = bch_evolve(h, rho, 2.0 * eps)
    linear = rho - 2j * eps * commutator(h, rho)
    assert np.max(np.abs(step - linear)) < 1e-11
