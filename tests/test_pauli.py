import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintrack.errors import InvalidArgumentError
from spintrack.composite import (
    GRAM_RANK_CUTOFF,
    S_E,
    S_X,
    S_Y,
    S_Z,
    bloch_to_density,
    check_density_matrix,
    commutator,
    density_to_bloch,
    gram_matrix,
    gram_rank,
    partial_trace,
    spin_op,
    tensor,
)

from conftest import interaction_family_state, random_density


def test_spin_operators_satisfy_su2_algebra():
    assert np.allclose(commutator(S_X, S_Y), 1j * S_Z)
    assert np.allclose(commutator(S_Y, S_Z), 1j * S_X)
    assert np.allclose(commutator(S_Z, S_X), 1j * S_Y)
    for s in (S_X, S_Y, S_Z):
        assert np.allclose(s @ s, 0.25 * np.eye(2))
        assert np.allclose(s, s.conj().T)


def test_spin_operator_traces():
    ops = {"x": S_X, "y": S_Y, "z": S_Z}
    for a, sa in ops.items():
        for b, sb in ops.items():
            expected = 0.5 if a == b else 0.0
            assert np.trace(sa @ sb).real == pytest.approx(expected, abs=1e-15)
    assert np.allclose(S_E, 0.5 * np.eye(2))


def test_spin_op_accepts_named_axes():
    assert np.allclose(spin_op("x"), S_X)
    assert np.allclose(spin_op("e"), S_E)
    with pytest.raises(InvalidArgumentError):
        spin_op("q")


def test_tensor_is_sensor_slow_target_fast():
    a = np.arange(4).reshape(2, 2)
    b = np.eye(2)
    t = tensor(a, b)
    assert t.shape == (4, 4)
    assert np.allclose(t, np.kron(a, b))
    # sensor index varies slowest: top-left 2x2 block is a[0,0] * b
    assert np.allclose(t[:2, :2], a[0, 0] * b)


def test_bloch_roundtrip_pure_states():
    for v in ([1, 0, 0], [0, 1, 0], [0, 0, -1]):
        rho = bloch_to_density(v)
        check_density_matrix(rho)
        assert np.allclose(density_to_bloch(rho), v)
        assert np.trace(rho @ rho).real == pytest.approx(1.0)


@given(
    st.tuples(
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
    ).filter(lambda v: np.linalg.norm(v) <= 1.0)
)
def test_bloch_roundtrip_property(v):
    rho = bloch_to_density(v)
    back = density_to_bloch(rho)
    assert np.allclose(back, v, atol=1e-12)
    # purity follows the Bloch norm
    purity = np.trace(rho @ rho).real
    assert purity == pytest.approx((1 + np.dot(v, v)) / 2, abs=1e-12)


def test_bloch_rejects_overlong_vector():
    with pytest.raises(InvalidArgumentError):
        bloch_to_density([0.8, 0.8, 0.0])


def test_check_density_matrix_rejects_bad_inputs():
    with pytest.raises(InvalidArgumentError):
        check_density_matrix(np.array([[1.0, 0.5], [0.2, 0.0]]))  # not Hermitian
    with pytest.raises(InvalidArgumentError):
        check_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(InvalidArgumentError):
        check_density_matrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(InvalidArgumentError):
        check_density_matrix(np.eye(4) / 4.0, dim=2)


def test_partial_trace_of_product_state(rng):
    a = random_density(rng)
    b = random_density(rng)
    rho = tensor(a, b)
    assert np.allclose(partial_trace(rho, "sensor"), a)
    assert np.allclose(partial_trace(rho, "target"), b)
    with pytest.raises(InvalidArgumentError):
        partial_trace(rho, "both")


def test_partial_trace_preserves_trace(rng):
    rho = random_density(rng, dim=4)
    for keep in ("sensor", "target"):
        red = partial_trace(rho, keep)
        assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(red, red.conj().T)


def test_gram_matrix_is_symmetric_psd(rng):
    rho = random_density(rng, dim=4)
    g = gram_matrix(rho)
    assert g.shape == (6, 6)  # three sensor + three target rotation directions
    assert np.allclose(g, g.T, atol=1e-12)
    assert np.linalg.eigvalsh(g).min() > -1e-12


# Frozen commutant dimensions: how many independent rotation directions
# actually move the state.  These pin the operational meaning of the rank.
def test_gram_rank_frozen_values():
    mixed = np.eye(4) / 4.0
    assert gram_rank(mixed) == 0

    both_z = tensor(S_E + S_Z, S_E + S_Z)
    assert gram_rank(both_z) == 4

    sensor_only = tensor(S_E + S_X, S_E)
    assert gram_rank(sensor_only) == 2

    generic_product = tensor(
        bloch_to_density([0.3, 0.1, 0.7]), bloch_to_density([0.0, 0.5, 0.2])
    )
    assert gram_rank(generic_product) == 4


def test_gram_rank_entangled_mid_protocol_state():
    """After the coupling pulse a mixed polarised target is entangled
    with the sensor and all six local directions move the state."""
    from spintrack.composite import INTERACTION_H, exact_evolve

    rho = interaction_family_state(0.6, 0.3)
    evolved = exact_evolve(INTERACTION_H, rho, 0.18 * np.pi)
    assert gram_rank(evolved) == 6


def _random_su2(rng):
    # Euler-angle parametrisation is good enough for a test
    a, b, c = rng.uniform(0, 2 * np.pi, size=3)
    rz = lambda t: np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])
    ry = np.array(
        [[np.cos(b / 2), -np.sin(b / 2)], [np.sin(b / 2), np.cos(b / 2)]],
        dtype=complex,
    )
    return rz(a) @ ry @ rz(c)


def test_gram_rank_invariant_under_local_rotations(rng):
    states = [
        tensor(S_E + S_Z, S_E + S_Z),
        tensor(S_E + S_X, S_E),
        interaction_family_state(0.6, 0.3),
    ]
    for rho in states:
        base = gram_rank(rho)
        for _ in range(5):
            u = tensor(_random_su2(rng), _random_su2(rng))
            rotated = u @ rho @ u.conj().T
            assert gram_rank(rotated) == base


def test_gram_rank_cutoff_default():
    assert GRAM_RANK_CUTOFF == 1e-10
