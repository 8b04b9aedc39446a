"""Vectorised multi-run simulation with reproducible chunk seeding.

Runs are partitioned into fixed chunks of `CHUNK_SIZE`; chunk ``c`` of a
simulation with master seed ``s`` always draws from
``SeedSequence(entropy=s, spawn_key=(c,))`` in a fixed order, so run i
depends only on (seed, i // CHUNK_SIZE) and a batch equals its chunks
sampled one after another and stacked.  `_run_chunked` samples in three
passes: every chunk draws its uniforms in the order its runs consume them
(`_quantum`: one call, cycle-major; `_classical`: the phases, then the
outcome uniforms) into one matrix over all runs; the recurrence then steps
all runs at once (`_cycle`), writing into the batch's arrays; last, each
chunk draws its photons from its own generator.  PCG64 spends one 64-bit
word per double, so one call for k n uniforms gives the numbers of k calls
for n, and elementwise IEEE arithmetic does not depend on the array width:
the streams are those of the chunk-by-chunk sampler.  Each kind of draw
has one helper: `_draw_outcomes` (the +-1 readout), `_draw_charge` (the
per-cycle charge state) and `_draw_photons` (the Poisson counts).  Do not
reorder the draws inside `_quantum`, `_cycle`, `_classical` or
`_run_chunked`: the draw order is part of the determinism contract.

The target spin follows the maps of `spintrack.protocol`: a self-polarised
run starts from `conditioned_update`, and every cycle is the outcome-averaged
`recurrence_step`; readout outcomes are drawn from the presented
polarisation zeta, and (optionally) photon counts from the bright/dark
Poisson model.  Conditioning on outcomes enters only through the
polarising measurement of each self-polarised run — the paper-level
correlators C_Sz(N) = E[s_0 s_N] refer to exactly that ensemble.

Charge interruption: with probability 1 - p_minus a cycle happens in the
neutral charge state — the alpha = 0 step, which only precesses, zero
presented polarisation, and photons drawn from a dark-like level.  A
neutral polarising measurement leaves the run unpolarised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily; load it at start-up)

from .errors import InvalidArgumentError
from .protocol import ProtocolConfig, conditioned_update, recurrence_step

__all__ = ["CHUNK_SIZE", "RunBatch", "chunk_rng", "modulated_drive", "simulate_runs",
           "classical_runs"]

CHUNK_SIZE = 256


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Deterministic generator for one chunk of runs."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))


@dataclass
class RunBatch:
    """Outcome-level result of a batch of simulated runs.

    outcomes  (runs, length) int8, +-1 readout results
    zetas     (runs, length) sensor polarisation presented to each readout
    counts    (runs, length) photon counts, or None if no readout model
    signs     (runs,) polarisation sign of each run (+1 when prepolarised,
              0 for runs whose polarising measurement was charge-neutral)
    first_lag lag carried by column 0: 0 when column 0 is the polarising
              measurement, 1 when the record starts at cycle 1
    """

    outcomes: np.ndarray
    zetas: np.ndarray
    counts: np.ndarray | None
    signs: np.ndarray
    first_lag: int


def _draw_outcomes(u, zetas) -> np.ndarray:
    """+-1 readout outcomes from uniforms u: +1 with probability (1 + zeta) / 2."""
    return np.where(u < (1.0 + zetas) / 2.0, np.int8(1), np.int8(-1))


def _draw_charge(rows, n_runs: int, p_minus: float) -> np.ndarray:
    """Charge state of one cycle per run, True when active, from the next row
    of uniforms in the iterator `rows`; no draw at p_minus 1."""
    if p_minus < 1.0:
        return next(rows) < p_minus
    return np.ones(n_runs, dtype=bool)


def _draw_photons(rng, outcomes, bright, dark, live=None, nv0_mean=None):
    """Poisson counts at the bright/dark level of each outcome, or at
    nv0_mean where `live` is False."""
    lam = np.where(outcomes == 1, bright, dark)
    if live is not None:
        lam = np.where(live, lam, nv0_mean)
    return rng.poisson(lam).astype(np.int64, copy=False)


def _cycle(x, y, rows, p_minus, config: ProtocolConfig):
    """One measurement cycle of every run: the charge draw, the
    `recurrence_step` (at alpha = 0 on neutral runs; a scalar alpha at
    p_minus 1 spares a cosine per run) and the outcome draw.
    Returns (x, y, zeta, outcome, live)."""
    live = _draw_charge(rows, x.size, p_minus)
    alpha = config.alpha if p_minus == 1.0 else np.where(live, config.alpha, 0.0)
    x, y = recurrence_step(x, y, alpha, config.phi)
    zeta = np.where(live, x * np.sin(config.alpha), 0.0)
    return x, y, zeta, _draw_outcomes(next(rows), zeta), live


def _quantum(chunks, runs, config: ProtocolConfig, p_minus):
    """(outcomes, zetas, live, signs) of every run.  Each chunk draws its
    uniforms cycle-major: the polarising outcome and charge, then the charge
    and the outcome of each cycle; `_cycle` then steps all runs at once."""
    length = config.cycles + (not config.prepolarized)
    charged = p_minus < 1.0
    u = np.empty((length * (1 + charged), runs))
    for rng, sl in chunks:
        u[:, sl] = rng.random((len(u), sl.stop - sl.start))
    rows = iter(u)

    outcomes = np.empty((runs, length), dtype=np.int8)
    zetas = np.empty((runs, length))
    live = np.empty((runs, length), dtype=bool) if charged else None
    if config.prepolarized:
        signs = np.ones(runs, dtype=np.int8)
        x, y = np.ones(runs), np.zeros(runs)
    else:
        zetas[:, 0] = 0.0
        outcomes[:, 0] = _draw_outcomes(next(rows), zetas[:, 0])
        live_0 = _draw_charge(rows, runs, p_minus)
        if charged:
            live[:, 0] = live_0
        signs = np.where(live_0, outcomes[:, 0], 0).astype(np.int8)
        x, y = conditioned_update(0.0, 0.0, config.alpha, signs)

    for j in range(length - config.cycles, length):
        x, y, zetas[:, j], outcomes[:, j], live_j = _cycle(x, y, rows, p_minus, config)
        if charged:
            live[:, j] = live_j
    return outcomes, zetas, live, signs


def modulated_drive(k: np.ndarray, alpha: float, phi_s: float):
    """Spin angle of the phase-modulated classical drive at measurement indices k.

    Returns (angle, d angle / d alpha) with
    angle_k = pi/2 sin(2 pi k / 8) + alpha cos(k phi_s pi / 4); the
    presented polarisation is sin(angle).
    """
    slope = np.cos(k * phi_s * np.pi / 4.0)
    return 0.5 * np.pi * np.sin(2 * np.pi * k / 8.0) + alpha * slope, slope


def _classical(chunks, runs, alpha, theta_step, length, modulated, phi_s):
    """(outcomes, zetas, live, signs) of every run.  Each chunk draws its
    uniforms run-major, straight into the arrays over all runs: one phase
    per run (unmodulated only), then the outcome uniforms of its runs."""
    phase = np.empty(runs)
    u = np.empty((runs, length))
    for rng, sl in chunks:
        if not modulated:
            rng.random(out=phase[sl])
        rng.random(out=u[sl])
    k = np.arange(length)
    if modulated:
        zeta_row = np.sin(modulated_drive(k, alpha, phi_s)[0])
        zetas = np.broadcast_to(zeta_row, (runs, length)).copy()
    else:
        phase = phase * 2 * np.pi
        zetas = np.sin(alpha * np.sin(theta_step * k[None, :] + phase[:, None]))
    return _draw_outcomes(u, zetas), zetas, None, np.ones(runs, dtype=np.int8)


def _run_chunked(sample, seed: int, runs: int, first_lag: int, bright, dark,
                 nv0_mean=None) -> RunBatch:
    """The batch of `runs` runs in chunks of CHUNK_SIZE, chunk i drawing from
    `chunk_rng(seed, i)`: `sample(chunks, runs)` draws every chunk's uniforms
    and returns (outcomes, zetas, live, signs) of all runs; then each chunk
    draws its photons from its own generator, after its uniforms."""
    if runs < 1:
        raise InvalidArgumentError("runs must be >= 1")
    if (bright is None) != (dark is None):
        raise InvalidArgumentError("bright and dark must be provided together")
    chunks = [(chunk_rng(seed, i), slice(start, min(start + CHUNK_SIZE, runs)))
              for i, start in enumerate(range(0, runs, CHUNK_SIZE))]
    outcomes, zetas, live, signs = sample(chunks, runs)
    counts = None
    if bright is not None:
        counts = np.empty(outcomes.shape, dtype=np.int64)
        for rng, sl in chunks:
            counts[sl] = _draw_photons(rng, outcomes[sl], bright, dark,
                                       None if live is None else live[sl], nv0_mean)
    return RunBatch(outcomes, zetas, counts, signs, first_lag)


def simulate_runs(
    config: ProtocolConfig,
    runs: int,
    seed: int,
    p_minus: float = 1.0,
    bright: float | None = None,
    dark: float | None = None,
    nv0_mean: float | None = None,
) -> RunBatch:
    """Simulate `runs` independent protocol runs (see module docstring).

    bright/dark are per-measurement mean photon counts conditioned on the
    +-1 outcome; leave them None to skip photon sampling.  nv0_mean is the
    photon level of charge-neutral measurements (defaults to `dark`).
    """
    if not (0.0 <= p_minus <= 1.0):
        raise InvalidArgumentError(f"p_minus must lie in [0, 1], got {p_minus}")
    if nv0_mean is None:
        nv0_mean = dark
    return _run_chunked(lambda chunks, n: _quantum(chunks, n, config, p_minus),
                        seed, runs, 1 if config.prepolarized else 0, bright, dark, nv0_mean)


def classical_runs(
    alpha: float,
    theta_step: float,
    length: int,
    runs: int,
    seed: int,
    modulated: bool = False,
    phi_s: float = 1.0,
    bright: float | None = None,
    dark: float | None = None,
) -> RunBatch:
    """Classical control: a spin driven by a coherent field, no back-action.

    Unmodulated, each run draws one uniform phase and presents
    zeta_k = sin(alpha sin(theta_step k + phase)); modulated, the
    deterministic phase-modulation pattern
    zeta_k = sin(pi/2 sin(2 pi k / 8) + alpha cos(k phi_s pi / 4)) is used
    instead (phi_s is the free sequence-phase parameter).  Outcomes and
    photons are sampled exactly as in the quantum engine.
    """
    if length < 1:
        raise InvalidArgumentError("length must be >= 1")
    return _run_chunked(
        lambda chunks, n: _classical(chunks, n, alpha, theta_step, length, modulated, phi_s),
        seed, runs, 0, bright, dark)
