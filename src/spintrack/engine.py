"""Vectorised multi-run simulation with reproducible chunk seeding.

Runs are partitioned into fixed chunks of `CHUNK_SIZE`; chunk ``c`` of a
simulation with master seed ``s`` always draws from
``SeedSequence(entropy=s, spawn_key=(c,))`` in a fixed order, and a batch
is the concatenation of its chunks, sampled one after another
(`_run_chunked`).  Each kind of draw has one helper, which both samplers
call where they make that draw: `_draw_outcomes` (the +-1 readout),
`_draw_charge` (the per-cycle charge state) and `_draw_photons` (the
Poisson counts).  Do not reorder the RNG calls inside `_simulate_chunk` /
`_classical_chunk` or these helpers: the draw order is part of the
determinism contract.

The target spin follows the outcome-averaged recurrence of
`spintrack.protocol`; readout outcomes are drawn from the presented
polarisation zeta, and (optionally) photon counts from the bright/dark
Poisson model.  Conditioning on outcomes enters only through the
polarising measurement of each self-polarised run — the paper-level
correlators C_Sz(N) = E[s_0 s_N] refer to exactly that ensemble.

Charge interruption: with probability 1 - p_minus a cycle happens in the
neutral charge state — no measurement back-action (the precession still
runs), zero presented polarisation, and photons drawn from a dark-like
level.  A neutral polarising measurement leaves the run unpolarised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily; load it at start-up)

from .errors import InvalidArgumentError
from .protocol import ProtocolConfig

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


def modulated_drive(k: np.ndarray, alpha: float, phi_s: float):
    """Spin angle of the phase-modulated classical drive at measurement indices k.

    Returns (angle, d angle / d alpha) with
    angle_k = pi/2 sin(2 pi k / 8) + alpha cos(k phi_s pi / 4); the
    presented polarisation is sin(angle).
    """
    slope = np.cos(k * phi_s * np.pi / 4.0)
    return 0.5 * np.pi * np.sin(2 * np.pi * k / 8.0) + alpha * slope, slope


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


def _run_chunked(sample, seed: int, runs: int, first_lag: int, bright, dark) -> RunBatch:
    """Stack `sample(chunk_rng(seed, i), n)` over the chunks of `runs` runs."""
    if runs < 1:
        raise InvalidArgumentError("runs must be >= 1")
    if (bright is None) != (dark is None):
        raise InvalidArgumentError("bright and dark must be provided together")
    parts = [sample(chunk_rng(seed, i), min(CHUNK_SIZE, runs - start))
             for i, start in enumerate(range(0, runs, CHUNK_SIZE))]
    outcomes, zetas, counts, signs = (
        None if arrays[0] is None else np.concatenate(arrays) for arrays in zip(*parts))
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
    return _run_chunked(
        lambda rng, n: _simulate_chunk(rng, n, config, p_minus, bright, dark, nv0_mean),
        seed, runs, 1 if config.prepolarized else 0, bright, dark)


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
        lambda rng, n: _classical_chunk(rng, n, alpha, theta_step, length, modulated, phi_s,
                                        bright, dark),
        seed, runs, 0, bright, dark)
