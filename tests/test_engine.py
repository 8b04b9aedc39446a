import tracemalloc

import numpy as np
import pytest

from spintrack.engine import (
    CHUNK_SIZE,
    Sampler,
    _Record,
    chunk_rng,
    classical_runs,
    modulated_drive,
    simulate_runs,
)
from spintrack.errors import InvalidArgumentError
from spintrack.protocol import ProtocolConfig, conditioned_update, recurrence_step

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


# --- the chunk-by-chunk reference sampler: each chunk draws from its own
# generator, one cycle at a time, in the order the engine's draws must keep


def _draw_outcomes(rng, zetas) -> np.ndarray:
    """+-1 readout outcomes, +1 with probability (1 + zeta) / 2."""
    return np.where(rng.random(zetas.shape) < (1.0 + zetas) / 2.0, 1, -1).astype(np.int8)


def _draw_charge(rng, n_runs: int, p_minus: float) -> np.ndarray:
    """Charge state of one cycle per run, True when active; no draw at p_minus 1."""
    if p_minus < 1.0:
        return rng.random(n_runs) < p_minus
    return np.ones(n_runs, dtype=bool)


def _draw_photons(rng, outcomes, bright, dark, live=None, nv0_mean=None):
    """Poisson counts at the bright/dark level of each outcome, or at
    nv0_mean where `live` is False; None when there is no photon model."""
    if bright is None:
        return None
    lam = np.where(outcomes == 1, bright, dark)
    if live is not None:
        lam = np.where(live, lam, nv0_mean)
    return rng.poisson(lam).astype(np.int64)


def _simulate_chunk(rng, n_runs, config: ProtocolConfig, p_minus, bright, dark, nv0_mean):
    alpha, phi = config.alpha, config.phi
    sa, ca = np.sin(alpha), np.cos(alpha)
    c, s = np.cos(phi), np.sin(phi)

    out_cols, zeta_cols, live_cols = [], [], []
    if config.prepolarized:
        signs = np.ones(n_runs, dtype=np.int8)
        x = np.ones(n_runs)
    else:
        zeta_cols.append(np.zeros(n_runs))
        out_cols.append(_draw_outcomes(rng, zeta_cols[0]))
        live_cols.append(_draw_charge(rng, n_runs, p_minus))
        signs = np.where(live_cols[0], out_cols[0], 0).astype(np.int8)
        x = signs * sa
    y = np.zeros(n_runs)

    for _ in range(config.cycles):
        live = _draw_charge(rng, n_runs, p_minus)
        x, yr = x * c - y * s, x * s + y * c
        zeta = np.where(live, x * sa, 0.0)
        y = np.where(live, yr * ca, yr)
        out_cols.append(_draw_outcomes(rng, zeta))
        zeta_cols.append(zeta)
        live_cols.append(live)

    outcomes = np.column_stack(out_cols)
    live = np.column_stack(live_cols) if p_minus < 1.0 else None
    counts = _draw_photons(rng, outcomes, bright, dark, live, nv0_mean)
    return outcomes, np.column_stack(zeta_cols), counts, signs


def _classical_chunk(rng, n_runs, alpha, theta_step, length, modulated, phi_s,
                     bright, dark):
    k = np.arange(length)
    if modulated:
        zeta_row = np.sin(modulated_drive(k, alpha, phi_s)[0])
        zetas = np.broadcast_to(zeta_row, (n_runs, length)).copy()
    else:
        phase = rng.random(n_runs) * 2 * np.pi
        zetas = np.sin(alpha * np.sin(theta_step * k[None, :] + phase[:, None]))
    outcomes = _draw_outcomes(rng, zetas)
    counts = _draw_photons(rng, outcomes, bright, dark)
    return outcomes, zetas, counts, np.ones(n_runs, dtype=np.int8)


PREPOLARISED = ProtocolConfig(alpha=ALPHA, phi=PHI, cycles=10, prepolarized=True)
#: (config, p_minus, nv0_mean) of the quantum setups the chunk tests cover
QUANTUM_SETUPS = {"self-polarised": (CFG, 1.0, 30.0), "prepolarised": (PREPOLARISED, 1.0, 30.0),
                  "p_minus_0.7": (CFG, 0.7, 5.0)}
BATCH_ARRAYS = ("outcomes", "zetas", "counts", "signs")


def test_batch_is_concatenation_of_chunks():
    """Run i depends only on (seed, i // CHUNK_SIZE): a batch is its chunks'
    outputs stacked in order, each chunk drawn from its own `chunk_rng` by the
    chunk-by-chunk reference sampler above."""
    runs = 3 * CHUNK_SIZE + 17
    sizes = [CHUNK_SIZE] * 3 + [17]
    cases = []
    for seed, (cfg, p_minus, nv0_mean) in enumerate(QUANTUM_SETUPS.values(), start=7):
        batch = simulate_runs(cfg, runs=runs, seed=seed, p_minus=p_minus, bright=90.0,
                              dark=30.0, nv0_mean=nv0_mean)
        assert batch.first_lag == (1 if cfg.prepolarized else 0)
        cases.append((batch, [_simulate_chunk(chunk_rng(seed, i), n, cfg, p_minus, 90.0, 30.0,
                                              nv0_mean) for i, n in enumerate(sizes)]))
    for seed, modulated in ((12, False), (13, True)):
        batch = classical_runs(0.3, 0.5, length=40, runs=runs, seed=seed, modulated=modulated,
                               bright=90.0, dark=30.0)
        cases.append((batch, [_classical_chunk(chunk_rng(seed, i), n, 0.3, 0.5, 40, modulated,
                                               1.0, 90.0, 30.0) for i, n in enumerate(sizes)]))
    for batch, parts in cases:
        for k, name in enumerate(BATCH_ARRAYS):
            stacked = np.concatenate([part[k] for part in parts])
            assert np.array_equal(getattr(batch, name), stacked), name


@pytest.mark.parametrize("setup", sorted(QUANTUM_SETUPS))
def test_first_chunks_of_a_batch_are_the_smaller_batch(setup):
    """The first k chunks of a batch of 5 chunks plus 17 runs equal the
    batch of k chunks: sampling all runs at once couples no chunk to a later one."""
    cfg, p_minus, nv0_mean = QUANTUM_SETUPS[setup]
    photons = {"p_minus": p_minus, "bright": 90.0, "dark": 30.0, "nv0_mean": nv0_mean}
    big = simulate_runs(cfg, runs=5 * CHUNK_SIZE + 17, seed=23, **photons)
    for k in range(1, 6):
        small = simulate_runs(cfg, runs=k * CHUNK_SIZE, seed=23, **photons)
        for name in BATCH_ARRAYS:
            assert np.array_equal(getattr(big, name)[: k * CHUNK_SIZE], getattr(small, name)), \
                (k, name)


def test_simulate_runs_holds_no_second_copy_of_the_batch():
    """Outcomes, zetas and counts go straight into the batch's arrays.  At
    25 measurements a run the traced peak is about 1.15 times the batch;
    copying each block into the batch read 1.67, concatenating per-chunk
    counts 1.48 and stacking every per-chunk array about 2, so the bound
    sits between them."""
    cfg = ProtocolConfig(alpha=ALPHA, phi=PHI, cycles=24)
    tracemalloc.start()
    try:
        batch = simulate_runs(cfg, runs=20 * CHUNK_SIZE, seed=29, bright=90.0, dark=30.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(getattr(batch, name).nbytes for name in BATCH_ARRAYS)
    assert peak < 1.3 * size, (peak, size)


@pytest.mark.parametrize("setup", ["self-polarised", "p_minus_0.7", "classical", "long classical",
                                   "long modulated"])
def test_counts_are_the_batch_counts(setup):
    """`Sampler.counts` gives the counts of `Sampler.batch` bit for bit, over
    several blocks: of whole chunks, and of 32 runs inside a chunk.  At
    these levels they fit int16, which `counts` holds them in."""
    if setup in QUANTUM_SETUPS:
        cfg, p_minus, nv0_mean = QUANTUM_SETUPS[setup]
        sampler, photons = Sampler.quantum(cfg, p_minus), (90.0, 30.0, nv0_mean)
    else:
        length = 40 if setup == "classical" else 600
        sampler, photons = Sampler.classical(0.3, 0.5, length, setup == "long modulated"), (90.0, 30.0)
    runs = 2 * sampler.block + 17 if sampler.block >= CHUNK_SIZE else CHUNK_SIZE + 17
    counts = sampler.counts(runs, 31, *photons)
    assert counts.dtype == np.int16
    assert np.array_equal(counts, sampler.batch(runs, 31, *photons).counts)
    with pytest.raises(InvalidArgumentError, match="bright and dark"):
        sampler.counts(runs, 31, None, None)


#: the record dtypes, narrowest first
WIDTHS = [np.int16, np.int32, np.int64]


@pytest.mark.parametrize("bright,dtype", [(1200.0, np.int16), (40000.0, np.int32),
                                          (3e9, np.int64)])
def test_counts_widen_to_int64_beyond_int32(bright, dtype):
    """At the README levels the counts are int16; a bright level of 40,000
    puts counts above 2^15 - 1 in the first block, and one of 3e9 counts
    above 2^31 - 1: the record is the narrowest dtype that holds them from
    there on.  Either way the counts are `batch`'s, bit for bit."""
    for sampler in (Sampler.quantum(ProtocolConfig(alpha=ALPHA, phi=PHI, cycles=24)),
                    Sampler.classical(0.3, 0.5, 600)):
        runs = 2 * sampler.block + 17
        counts = sampler.counts(runs, 5, bright, 600.0)
        want = sampler.batch(runs, 5, bright, 600.0).counts
        assert want.dtype == np.int64
        assert counts.dtype == dtype
        assert np.array_equal(counts, want)
        narrower = WIDTHS[:WIDTHS.index(dtype)]
        assert all(counts.max() > np.iinfo(width).max for width in narrower)


def test_record_widens_once_keeping_the_rows_stored():
    """A count of 2^15 - 1 keeps the record int16.  The first block with a
    count above the record's dtype copies the rows stored before it, once,
    to the narrowest dtype that holds the block: int16 to int32 at 2^15,
    then to int64 at 2^31; later blocks go in as they are.  A block that
    holds 2^31 widens an int16 record straight to int64, so the traced
    peak of that append is the int64 copy alone (through int32 it would be
    1.5 times that)."""
    record = _Record((5, 4))
    record.append(np.arange(4))
    int16 = record.counts
    record.append(np.array([0, 2**15 - 1, 1, 2]))
    assert record.counts is int16 and int16.dtype == np.int16
    record.append(np.array([3, 2**15, 4, 5]))
    int32 = record.counts
    assert int32.dtype == np.int32
    record.append(np.array([6, 2**31, 7, 8]))
    assert record.counts.dtype == np.int64 and record.counts is not int32
    wide = record.counts
    record.append(np.array([5, 6, 7, 8]), top=9)
    assert record.counts is wide and record.stored == 20
    assert np.array_equal(record.counts, [[0, 1, 2, 3], [0, 2**15 - 1, 1, 2], [3, 2**15, 4, 5],
                                          [6, 2**31, 7, 8], [5, 6, 7, 8]])

    record = _Record((1000, 100))
    record.append(np.arange(99_000) % 1000)
    tracemalloc.start()
    try:
        record.append(np.full(1000, 2**31))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record.counts.dtype == np.int64 and record.stored == record.counts.size
    assert np.array_equal(record.counts.reshape(-1)[:99_000], np.arange(99_000) % 1000)
    assert peak < 1.1 * record.counts.nbytes, (peak, record.counts.nbytes)


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
    assert batch.outcomes.shape == (200, CFG.cycles + 1)
    assert batch.counts is None
    # column 0 is the polarising measurement itself
    assert np.array_equal(batch.outcomes[:, 0], batch.signs)
    assert np.all(batch.zetas[:, 0] == 0.0)
    assert set(np.unique(batch.signs)) <= {-1, 1}


def test_prepolarised_layout():
    cfg = ProtocolConfig(alpha=ALPHA, phi=PHI, cycles=10, prepolarized=True)
    batch = simulate_runs(cfg, runs=64, seed=1)
    assert batch.first_lag == 1
    assert batch.outcomes.shape == (64, 10)
    assert np.all(batch.signs == 1)
    # first recorded polarisation is deterministic: sin(a) cos(phi)
    assert np.allclose(batch.zetas[:, 0], np.sin(ALPHA) * np.cos(PHI), atol=1e-12)


def test_zeta_paths_follow_recurrence():
    """Each polarised run starts from `conditioned_update` and follows
    `recurrence_step`, exactly.  With charge draws a zeta of 0 marks a
    neutral cycle: it only precesses (the alpha = 0 step), and the next live
    cycle continues from the undamped state."""
    sa = np.sin(ALPHA)
    for p_minus in (1.0, 0.7):
        batch = simulate_runs(CFG, runs=200, seed=3, p_minus=p_minus)
        neutral = 0
        for r in np.flatnonzero(batch.signs):
            x, y = conditioned_update(0.0, 0.0, ALPHA, batch.signs[r])
            for n in range(1, CFG.cycles + 1):
                live = batch.zetas[r, n] != 0.0
                x, y = recurrence_step(x, y, ALPHA if live else 0.0, PHI)
                assert batch.zetas[r, n] == (x * sa if live else 0.0), (p_minus, r, n)
                neutral += not live
        # the p_minus 0.7 batch must exercise neutral cycles inside polarised runs
        assert (neutral > 0) == (p_minus < 1.0)


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
    with pytest.raises(InvalidArgumentError, match="runs must be >= 1"):
        simulate_runs(CFG, 0, 1)


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
