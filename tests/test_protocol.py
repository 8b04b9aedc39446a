import numpy as np
import pytest

from spintrack.errors import AmbiguousRegimeError, InvalidArgumentError
from spintrack.pauli import density_to_bloch
from spintrack.protocol import (
    GAMMA_C13,
    PhysicalParams,
    ProtocolConfig,
    _conditioned_bloch_update,
    alpha_from_pulses,
    damped_cosine,
    dephasing_rates,
    generate_initial_state,
    measurement_cycle,
    precession_frequencies,
    recurrence_matrix,
    recurrence_step,
    resonance_tau,
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


def test_zero_strength_cycle_is_pure_precession():
    res = measurement_cycle(target_density(0.8, 0.1), 0.0, PHI)
    assert abs(res.zeta) < 1e-12
    x, y = recurrence_step(0.8, 0.1, 0.0, PHI)
    bloch = density_to_bloch(res.target_rho)
    assert np.hypot(bloch[0], bloch[1]) == pytest.approx(np.hypot(0.8, 0.1), abs=1e-12)
    assert bloch[0] == pytest.approx(x, abs=1e-12)
    assert bloch[1] == pytest.approx(y, abs=1e-12)


def test_initial_state_matches_conditioned_update():
    """The polarising measurement is the conditioned map applied to the
    mixed state; both routes must give the same conditional state."""
    for sign in (1, -1):
        got_sign, bloch = generate_initial_state(ALPHA, sign=sign)
        assert got_sign == sign
        x, y = _conditioned_bloch_update(0.0, 0.0, ALPHA, sign)
        assert bloch[0] == pytest.approx(x, abs=1e-15)
        assert bloch[1] == pytest.approx(y, abs=1e-15)
        assert bloch[0] == pytest.approx(sign * np.sin(ALPHA), abs=1e-15)


def test_initial_state_sign_is_fair(rng):
    signs = [generate_initial_state(ALPHA, rng=rng)[0] for _ in range(4000)]
    mean = np.mean(signs)
    assert abs(mean) < 3.0 / np.sqrt(4000)


def test_initial_state_argument_validation():
    with pytest.raises(InvalidArgumentError):
        generate_initial_state(ALPHA)
    with pytest.raises(InvalidArgumentError):
        generate_initial_state(ALPHA, sign=2)


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


def test_resonance_tau_transverse_regime():
    p = PhysicalParams(
        omega_larmor=2 * np.pi * 431e3,
        a_par=60e3,
        a_perp=30e3,
        b_field=0.4,
    )
    # gamma_n * B ~ 4.3e6 Hz >> 100 * a_perp
    tau = resonance_tau(p)
    expected = np.pi / (2 * p.omega_larmor + 2 * np.pi * p.a_par)
    assert tau == pytest.approx(expected, rel=1e-12)
    assert resonance_tau(p, harmonic=1) / tau == pytest.approx(3.0, rel=1e-12)


def test_resonance_tau_parallel_regime():
    p = PhysicalParams(omega_larmor=2 * np.pi * 431e3, a_par=50.0)
    tau = resonance_tau(p)
    assert tau == pytest.approx(np.pi / p.omega_larmor, rel=1e-12)
    assert resonance_tau(p, harmonic=2) / tau == pytest.approx(5.0, rel=1e-12)


def test_resonance_tau_ambiguous_regime_raises():
    p = PhysicalParams(omega_larmor=2 * np.pi * 431e3, a_par=100e3, a_perp=80e3)
    with pytest.raises(AmbiguousRegimeError):
        resonance_tau(p)
    with pytest.raises(InvalidArgumentError):
        resonance_tau(PhysicalParams(omega_larmor=1.0), harmonic=-1)


def test_alpha_from_pulses_scales_linearly():
    p = PhysicalParams(omega_larmor=1.0, a_perp=20e3, pulses=32)
    tau = 1e-6
    assert alpha_from_pulses(p, tau) == pytest.approx(np.pi * 32 * 20e3 * tau)
    assert alpha_from_pulses(p, 2 * tau) == pytest.approx(2 * alpha_from_pulses(p, tau))
    with pytest.raises(InvalidArgumentError):
        alpha_from_pulses(p, 0.0)


def test_precession_frequencies():
    p = PhysicalParams(omega_larmor=2 * np.pi * 431e3, a_par=60e3, a_perp=30e3)
    w0, wp, wm = precession_frequencies(p)
    assert w0 == p.omega_larmor
    assert wp == pytest.approx(
        np.hypot(w0 + 2 * np.pi * 60e3, 2 * np.pi * 30e3), rel=1e-12
    )
    assert wm == pytest.approx(
        np.hypot(w0 - 2 * np.pi * 60e3, 2 * np.pi * 30e3), rel=1e-12
    )
    assert wp > wm


def test_dephasing_rates():
    gm, gc = dephasing_rates(0.3, t_s=5e-6, a_par=50e3, t_l=300e-9)
    assert gm == pytest.approx(0.3**2 / (4 * 5e-6), rel=1e-12)
    assert gc == pytest.approx((2 * np.pi * 50e3) ** 2 * (300e-9) ** 2 / (2 * 5e-6), rel=1e-12)
    assert dephasing_rates(0.3, t_s=1.0)[1] == 0.0
    with pytest.raises(InvalidArgumentError):
        dephasing_rates(0.3, t_s=0.0)


def test_gamma_c13_constant():
    assert GAMMA_C13 == pytest.approx(10.7084e6)


def test_physical_params_validation():
    with pytest.raises(InvalidArgumentError):
        PhysicalParams(omega_larmor=0.0)
    with pytest.raises(InvalidArgumentError):
        PhysicalParams(omega_larmor=1.0, pulses=0)
    with pytest.raises(InvalidArgumentError):
        PhysicalParams(omega_larmor=1.0, a_perp=-1.0)
