import numpy as np
import pytest

from spintrack.engine import simulate_runs
from spintrack.errors import InvalidArgumentError
from spintrack.protocol import (
    ProtocolConfig,
    conditioned_update,
    damped_cosine,
    recurrence_matrix,
    recurrence_step,
)

from oracles import (
    FREE_PRECESSION_H,
    INTERACTION_H,
    S_E,
    S_Z,
    _ROT_X,
    _ROT_Y,
    bch_evolve,
    bloch_to_density,
    density_to_bloch,
    measurement_cycle,
    partial_trace,
    tensor,
)
from conftest import target_density


ALPHA = 0.18 * np.pi
PHI = np.deg2rad(27.0)


def test_first_cycle_sensor_polarisation():
    res = measurement_cycle(target_density(1.0, 0.0), ALPHA, PHI)
    assert res.zeta == pytest.approx(np.sin(ALPHA) * np.cos(PHI), abs=1e-12)
    # frozen value for these exact parameters
    assert res.zeta == pytest.approx(0.477425170161229, abs=1e-12)
    # the readout probabilities (1 +- zeta)/2 are the sensor state's diagonal
    assert res.sensor_rho[0, 0].real == pytest.approx((1.0 + res.zeta) / 2.0, abs=1e-12)
    assert res.sensor_rho[1, 1].real == pytest.approx((1.0 - res.zeta) / 2.0, abs=1e-12)


def test_mixed_target_gives_no_signal():
    res = measurement_cycle(np.eye(2) / 2, ALPHA, PHI)
    assert abs(res.zeta) < 1e-12


def test_cycle_matches_reduced_recurrence():
    """Full 4x4 route vs the 2-component recurrence, cycle by cycle."""
    x, y = 0.6, -0.3
    rho = target_density(x, y)
    for _ in range(30):
        res = measurement_cycle(rho, ALPHA, PHI)
        x, y = recurrence_step(x, y, ALPHA, PHI)
        bloch = density_to_bloch(res.target_rho)
        assert abs(bloch[0] - x) < 1e-12
        assert abs(bloch[1] - y) < 1e-12
        assert abs(bloch[2]) < 1e-12
        # sensor readout must agree with the reduced prediction too
        assert abs(res.zeta - x * np.sin(ALPHA)) < 1e-12
        rho = res.target_rho


def test_recurrence_matrix_equals_step():
    m = recurrence_matrix(ALPHA, PHI)
    x, y = recurrence_step(0.25, -0.9, ALPHA, PHI)
    assert np.allclose(m @ [0.25, -0.9], [x, y], atol=1e-15)


def test_recurrence_matrix_is_the_closed_form():
    for alpha in (0.0, ALPHA, 1.0, np.pi / 2, np.pi):
        for phi in (0.0, -0.0, PHI, 1.0, np.pi / 2, np.pi, -2.5):
            c, s, ca = np.cos(phi), np.sin(phi), np.cos(alpha)
            assert np.array_equal(recurrence_matrix(alpha, phi),
                                  [[c, -s], [s * ca, c * ca]]), (alpha, phi)


def test_zero_strength_cycle_is_pure_precession():
    res = measurement_cycle(target_density(0.8, 0.1), 0.0, PHI)
    assert abs(res.zeta) < 1e-12
    x, y = recurrence_step(0.8, 0.1, 0.0, PHI)
    bloch = density_to_bloch(res.target_rho)
    assert np.hypot(bloch[0], bloch[1]) == pytest.approx(np.hypot(0.8, 0.1), abs=1e-12)
    assert bloch[0] == pytest.approx(x, abs=1e-12)
    assert bloch[1] == pytest.approx(y, abs=1e-12)


def test_initial_state_matches_conditioned_update():
    """The engine's polarising measurement is the conditioned map applied
    to the mixed state: each run starts from (sign sin(alpha), 0)."""
    for sign in (1, -1):
        x, y = conditioned_update(0.0, 0.0, ALPHA, sign)
        assert (x, y) == pytest.approx((sign * np.sin(ALPHA), 0.0), abs=1e-15)
    batch = simulate_runs(ProtocolConfig(alpha=ALPHA, phi=PHI, cycles=1), runs=300, seed=4)
    assert set(np.unique(batch.signs)) == {-1, 1}
    for sign in (1, -1):
        x, y = recurrence_step(*conditioned_update(0.0, 0.0, ALPHA, sign), ALPHA, PHI)
        zeta1 = batch.zetas[batch.signs == sign, 1]
        assert np.allclose(zeta1, x * np.sin(ALPHA), rtol=0, atol=1e-15)


def test_initial_state_sign_is_fair():
    """The polarising outcome on the mixed state is a fair coin."""
    signs = simulate_runs(ProtocolConfig(alpha=ALPHA, phi=PHI, cycles=1), runs=4000,
                          seed=20260823).signs
    assert abs(signs.mean()) < 3.0 / np.sqrt(signs.size)


@pytest.mark.parametrize("x, y", [(0.0, 0.0), (0.3, -0.4), (0.7, 0.2), (-0.5, 0.6)])
def test_conditioned_update_matches_kraus_route(x, y):
    """Project the sensor of `measurement_cycle`'s composite onto +-z: the
    conditioned target state and the outcome probability must match
    `conditioned_update` on the precessed (x, y)."""
    phi = np.pi / 3
    comp = tensor(S_E + S_Z, bloch_to_density([x, y, 0.0]))
    comp = bch_evolve(_ROT_Y, comp, np.pi / 2)
    comp = bch_evolve(FREE_PRECESSION_H, comp, phi)
    comp = bch_evolve(INTERACTION_H, comp, ALPHA)
    comp = bch_evolve(_ROT_X, comp, np.pi / 2)
    xp, yp = recurrence_step(x, y, 0.0, phi)  # precession only
    for outcome in (1, -1):
        proj = tensor((np.eye(2) + outcome * 2 * S_Z) / 2, np.eye(2))
        target = partial_trace(proj @ comp @ proj, "target")
        prob = np.trace(target).real
        assert prob == pytest.approx((1 + outcome * xp * np.sin(ALPHA)) / 2, abs=1e-12)
        bloch = density_to_bloch(target / prob)
        want = conditioned_update(xp, yp, ALPHA, outcome)
        assert bloch == pytest.approx([*want, 0.0], abs=1e-12)


def test_protocol_config_validation():
    ProtocolConfig(alpha=0.3, phi=0.5, cycles=1)
    with pytest.raises(InvalidArgumentError):
        ProtocolConfig(alpha=-0.1, phi=0.5, cycles=1)
    with pytest.raises(InvalidArgumentError):
        ProtocolConfig(alpha=3.5, phi=0.5, cycles=1)
    with pytest.raises(InvalidArgumentError):
        ProtocolConfig(alpha=0.3, phi=0.5, cycles=0)
    with pytest.raises(InvalidArgumentError):
        ProtocolConfig(alpha=0.3, phi=np.inf, cycles=1)


def test_approx_tracks_recurrence_at_weak_coupling():
    alpha = 0.05 * np.pi
    x, y = np.sin(alpha), 0.0
    exact = []
    for _ in range(50):
        x, y = recurrence_step(x, y, alpha, PHI)
        exact.append(x)
    approx = damped_cosine(alpha, PHI, np.arange(1, 51), np.sin(alpha))
    assert np.max(np.abs(approx - exact)) < 0.015
