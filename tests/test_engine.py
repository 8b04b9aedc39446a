import numpy as np
import pytest

from spintrack.engine import (
    CHUNK_SIZE,
    _classical_chunk,
    _simulate_chunk,
    chunk_rng,
    classical_runs,
    simulate_runs,
)
from spintrack.errors import InvalidArgumentError
from spintrack.protocol import ProtocolConfig, recurrence_step

ALPHA = 0.18 * np.pi
PHI = np.deg2rad(27.0)
CFG = ProtocolConfig(alpha=ALPHA, phi=PHI, cycles=10)


def test_same_seed_same_batch():
    a = simulate_runs(CFG, runs=300, seed=42)
    b = simulate_runs(CFG, runs=300, seed=42)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert np.array_equal(a.zetas, b.zetas)
    assert np.array_equal(a.signs, b.signs)
    c = simulate_runs(CFG, runs=300, seed=43)
    assert not np.array_equal(a.outcomes, c.outcomes)


def test_batch_is_concatenation_of_chunks():
    """Run i depends only on (seed, i // CHUNK_SIZE): a batch is its chunks'
    outputs stacked in order, each chunk drawn from its own `chunk_rng`."""
    runs = 3 * CHUNK_SIZE + 17
    sizes = [CHUNK_SIZE] * 3 + [17]
    quantum = simulate_runs(CFG, runs=runs, seed=7, bright=90.0, dark=30.0)
    quantum_parts = [_simulate_chunk(chunk_rng(7, i), n, CFG, 1.0, 90.0, 30.0, 30.0)
                     for i, n in enumerate(sizes)]
    classical = classical_runs(0.3, 0.5, length=40, runs=runs, seed=12, bright=90.0, dark=30.0)
    classical_parts = [_classical_chunk(chunk_rng(12, i), n, 0.3, 0.5, 40, False, 1.0,
                                        90.0, 30.0) for i, n in enumerate(sizes)]
    for batch, parts in ((quantum, quantum_parts), (classical, classical_parts)):
        for k, name in enumerate(("outcomes", "zetas", "counts", "signs")):
            stacked = np.concatenate([part[k] for part in parts])
            assert np.array_equal(getattr(batch, name), stacked), name


def test_chunking_is_invisible():
    """A batch must equal the concatenation of its per-chunk pieces, so
    run i only ever depends on (seed, i // CHUNK_SIZE)."""
    big = simulate_runs(CFG, runs=CHUNK_SIZE + 40, seed=11)
    first = simulate_runs(CFG, runs=CHUNK_SIZE, seed=11)
    assert np.array_equal(big.outcomes[:CHUNK_SIZE], first.outcomes)
    # second chunk starts from its own generator, independent of how many
    # runs of it are requested
    assert big.outcomes.shape == (CHUNK_SIZE + 40, 11)


def test_chunk_rng_streams_differ():
    a = chunk_rng(5, 0).random(4)
    b = chunk_rng(5, 1).random(4)
    assert not np.array_equal(a, b)


def test_self_polarised_layout():
    batch = simulate_runs(CFG, runs=200, seed=1)
    assert batch.first_lag == 0
    assert batch.length == CFG.cycles + 1
    assert batch.counts is None
    # column 0 is the polarising measurement itself
    assert np.array_equal(batch.outcomes[:, 0], batch.signs)
    assert np.all(batch.zetas[:, 0] == 0.0)
    assert set(np.unique(batch.signs)) <= {-1, 1}


def test_prepolarised_layout():
    cfg = ProtocolConfig(alpha=ALPHA, phi=PHI, cycles=10, prepolarized=True)
    batch = simulate_runs(cfg, runs=64, seed=1)
    assert batch.first_lag == 1
    assert batch.length == 10
    assert np.all(batch.signs == 1)
    # first recorded polarisation is deterministic: sin(a) cos(phi)
    assert np.allclose(batch.zetas[:, 0], np.sin(ALPHA) * np.cos(PHI), atol=1e-12)


def test_zeta_paths_follow_recurrence():
    batch = simulate_runs(CFG, runs=50, seed=3)
    sa = np.sin(ALPHA)
    for r in range(50):
        x, y = batch.signs[r] * sa, 0.0
        for n in range(1, batch.length):
            x, y = recurrence_step(x, y, ALPHA, PHI)
            assert batch.zetas[r, n] == pytest.approx(x * sa, abs=1e-12)


def test_outcome_bias_matches_zeta():
    batch = simulate_runs(CFG, runs=40000, seed=9)
    # conditioned on sign the lag-1 outcome has mean zeta_1
    sel = batch.signs == 1
    zeta1 = np.sin(ALPHA) ** 2 * np.cos(PHI)
    mean = batch.outcomes[sel, 1].mean()
    se = 1.0 / np.sqrt(sel.sum())
    assert abs(mean - zeta1) < 4 * se


def test_photon_counts_sampling():
    batch = simulate_runs(CFG, runs=2000, seed=21, bright=120.0, dark=60.0)
    assert batch.counts is not None
    assert batch.counts.dtype == np.int64
    on = batch.counts[batch.outcomes == 1]
    off = batch.counts[batch.outcomes == -1]
    assert on.mean() == pytest.approx(120.0, abs=4 * np.sqrt(120.0 / on.size))
    assert off.mean() == pytest.approx(60.0, abs=4 * np.sqrt(60.0 / off.size))


def test_charge_free_runs_have_no_neutral_cycles():
    batch = simulate_runs(CFG, runs=500, seed=5, p_minus=1.0)
    assert np.all(batch.signs != 0)
    # all lag >= 1 polarisations are on the deterministic recurrence, never zeroed
    assert np.all(batch.zetas[:, 1] != 0.0)


def test_fully_neutral_runs_are_pure_noise():
    batch = simulate_runs(CFG, runs=2000, seed=6, p_minus=0.0)
    assert np.all(batch.signs == 0)
    assert np.all(batch.zetas == 0.0)
    mean = batch.outcomes[:, 1:].astype(float).mean()
    assert abs(mean) < 4.0 / np.sqrt(batch.outcomes[:, 1:].size)


def test_neutral_cycles_read_dark_level():
    batch = simulate_runs(
        CFG, runs=3000, seed=13, p_minus=0.0, bright=200.0, dark=40.0, nv0_mean=5.0
    )
    # every measurement is charge-neutral, so every count sits at nv0_mean
    assert batch.counts.mean() == pytest.approx(5.0, abs=0.1)


def test_partial_charge_interleaves_live_and_neutral():
    batch = simulate_runs(CFG, runs=4000, seed=17, p_minus=0.7,
                          bright=200.0, dark=40.0, nv0_mean=5.0)
    frac_zero = np.mean(batch.zetas[:, 1:] == 0.0)
    # a cycle reads zero polarisation when it is neutral or when the run
    # started neutral; both are p_minus-controlled
    assert 0.25 < frac_zero < 0.55
    assert np.mean(batch.signs == 0) == pytest.approx(0.3, abs=0.03)
    # the three photon levels barely overlap: below 20 counts is neutral,
    # above it the level follows the outcome
    neutral = batch.counts < 20
    assert np.mean(neutral) == pytest.approx(0.3, abs=0.01)
    neutral_se = np.sqrt(5.0 / neutral.sum())
    assert batch.counts[neutral].mean() == pytest.approx(5.0, abs=4 * neutral_se)
    on, off = ~neutral & (batch.outcomes == 1), ~neutral & (batch.outcomes == -1)
    assert batch.counts[on].mean() == pytest.approx(200.0, rel=0.01)
    assert batch.counts[off].mean() == pytest.approx(40.0, rel=0.01)


def test_simulate_validation():
    with pytest.raises(InvalidArgumentError):
        simulate_runs(CFG, runs=10, seed=1, p_minus=1.5)
    with pytest.raises(InvalidArgumentError):
        simulate_runs(CFG, runs=10, seed=1, bright=100.0)


def test_classical_random_phase_statistics():
    alpha, theta = 0.3, np.pi / 6
    batch = classical_runs(alpha, theta, length=200, runs=400, seed=31)
    assert batch.first_lag == 0
    assert np.all(np.abs(batch.zetas) <= np.sin(alpha) + 1e-12)
    # each run keeps a fixed phase: zeta is periodic with the drive
    period = int(round(2 * np.pi / theta))
    assert np.allclose(batch.zetas[:, :50], batch.zetas[:, period : period + 50], atol=1e-12)
    # phase averaging kills the mean polarisation
    assert abs(batch.zetas.mean()) < 0.01


def test_classical_modulated_rows_are_deterministic():
    alpha, phi_s = 0.4, 1.0
    batch = classical_runs(0.4, 0.5, length=64, runs=10, seed=8, modulated=True, phi_s=phi_s)
    k = np.arange(64)
    expected = np.sin(
        0.5 * np.pi * np.sin(2 * np.pi * k / 8.0) + alpha * np.cos(k * phi_s * np.pi / 4.0)
    )
    for r in range(10):
        assert np.allclose(batch.zetas[r], expected, atol=1e-12)


def test_classical_counts_and_validation():
    batch = classical_runs(0.3, 0.5, length=50, runs=100, seed=2, bright=90.0, dark=30.0)
    assert batch.counts.shape == (100, 50)
    assert batch.counts[batch.outcomes == 1].mean() == pytest.approx(90.0, rel=0.01)
    assert batch.counts[batch.outcomes == -1].mean() == pytest.approx(30.0, rel=0.01)
    with pytest.raises(InvalidArgumentError):
        classical_runs(0.3, 0.5, length=0, runs=10, seed=1)
    with pytest.raises(InvalidArgumentError):
        classical_runs(0.3, 0.5, length=10, runs=10, seed=1, dark=30.0)
