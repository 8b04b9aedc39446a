"""Vectorised multi-run simulation with reproducible chunk seeding.

Runs are partitioned into fixed chunks of `CHUNK_SIZE`; chunk ``c`` of a
simulation with master seed ``s`` always draws from
``SeedSequence(entropy=s, spawn_key=(c,))`` in a fixed order, and a batch
is the concatenation of its chunks, sampled one after another in this
process.  Do not reorder the RNG calls inside `_simulate_chunk` /
`_classical_chunk` without bumping CHUNK logic: the draw order is part of
the determinism contract.  The `workers` argument of the entry points is
accepted and ignored: a process pool made sampling slower, not faster.

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

from dataclasses import dataclass, field

import numpy as np

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
    meta: dict = field(default_factory=dict, repr=False)

    @property
    def runs(self) -> int:
        return self.outcomes.shape[0]

    @property
    def length(self) -> int:
        return self.outcomes.shape[1]


def _simulate_chunk(args):
    (seed, chunk_index, n_runs, alpha, phi, cycles, prepolarized,
     p_minus, bright, dark, nv0_mean) = args
    rng = chunk_rng(seed, chunk_index)
    sa, ca = np.sin(alpha), np.cos(alpha)
    c, s = np.cos(phi), np.sin(phi)
    charged = p_minus < 1.0

    out_cols, zeta_cols, live_cols = [], [], []
    if prepolarized:
        signs = np.ones(n_runs, dtype=np.int8)
        x = np.ones(n_runs)
        y = np.zeros(n_runs)
    else:
        s0 = np.where(rng.random(n_runs) < 0.5, 1, -1).astype(np.int8)
        live0 = rng.random(n_runs) < p_minus if charged else np.ones(n_runs, dtype=bool)
        signs = np.where(live0, s0, 0).astype(np.int8)
        x = np.where(live0, s0 * sa, 0.0)
        y = np.zeros(n_runs)
        out_cols.append(s0)
        zeta_cols.append(np.zeros(n_runs))
        live_cols.append(live0)

    for _ in range(cycles):
        live = rng.random(n_runs) < p_minus if charged else np.ones(n_runs, dtype=bool)
        x, yr = x * c - y * s, x * s + y * c
        zeta = np.where(live, x * sa, 0.0)
        y = np.where(live, yr * ca, yr)
        out_cols.append(np.where(rng.random(n_runs) < (1.0 + zeta) / 2.0, 1, -1).astype(np.int8))
        zeta_cols.append(zeta)
        live_cols.append(live)

    outcomes = np.column_stack(out_cols)
    zetas = np.column_stack(zeta_cols)
    counts = None
    if bright is not None:
        lam = np.where(outcomes == 1, bright, dark)
        if charged:
            lam = np.where(np.column_stack(live_cols), lam, nv0_mean)
        counts = rng.poisson(lam).astype(np.int64)
    return outcomes, zetas, counts, signs


def modulated_drive(k: np.ndarray, alpha: float, phi_s: float):
    """Spin angle of the phase-modulated classical drive at measurement indices k.

    Returns (angle, d angle / d alpha) with
    angle_k = pi/2 sin(2 pi k / 8) + alpha cos(k phi_s pi / 4); the
    presented polarisation is sin(angle).
    """
    slope = np.cos(k * phi_s * np.pi / 4.0)
    return 0.5 * np.pi * np.sin(2 * np.pi * k / 8.0) + alpha * slope, slope


def _classical_chunk(args):
    (seed, chunk_index, n_runs, alpha, theta_step, length,
     modulated, phi_s, bright, dark) = args
    rng = chunk_rng(seed, chunk_index)
    k = np.arange(length)
    if modulated:
        zeta_row = np.sin(modulated_drive(k, alpha, phi_s)[0])
        zetas = np.broadcast_to(zeta_row, (n_runs, length)).copy()
    else:
        phase = rng.random(n_runs) * 2 * np.pi
        zetas = np.sin(alpha * np.sin(theta_step * k[None, :] + phase[:, None]))
    outcomes = np.where(rng.random((n_runs, length)) < (1.0 + zetas) / 2.0, 1, -1).astype(np.int8)
    counts = None
    if bright is not None:
        counts = rng.poisson(np.where(outcomes == 1, bright, dark)).astype(np.int64)
    return outcomes, zetas, counts, np.ones(n_runs, dtype=np.int8)


def _run_chunked(sample_chunk, arg_builder, runs: int, first_lag: int,
                 meta: dict) -> RunBatch:
    if runs < 1:
        raise InvalidArgumentError("runs must be >= 1")
    n_chunks = (runs + CHUNK_SIZE - 1) // CHUNK_SIZE
    parts = [sample_chunk(arg_builder(i, min(CHUNK_SIZE, runs - i * CHUNK_SIZE)))
             for i in range(n_chunks)]

    def stack(i):
        return np.concatenate([p[i] for p in parts], axis=0)

    return RunBatch(outcomes=stack(0), zetas=stack(1),
                    counts=None if parts[0][2] is None else stack(2),
                    signs=stack(3), first_lag=first_lag, meta=meta)


def simulate_runs(
    config: ProtocolConfig,
    runs: int,
    seed: int,
    p_minus: float = 1.0,
    bright: float | None = None,
    dark: float | None = None,
    nv0_mean: float | None = None,
    workers: int = 1,
) -> RunBatch:
    """Simulate `runs` independent protocol runs (see module docstring).

    bright/dark are per-measurement mean photon counts conditioned on the
    +-1 outcome; leave them None to skip photon sampling.  nv0_mean is the
    photon level of charge-neutral measurements (defaults to `dark`).
    `workers` is accepted and ignored (see module docstring).
    """
    if not (0.0 <= p_minus <= 1.0):
        raise InvalidArgumentError(f"p_minus must lie in [0, 1], got {p_minus}")
    if (bright is None) != (dark is None):
        raise InvalidArgumentError("bright and dark must be provided together")
    if nv0_mean is None:
        nv0_mean = dark

    def build(i, size):
        return (seed, i, size, config.alpha, config.phi, config.cycles,
                config.prepolarized, p_minus, bright, dark, nv0_mean)

    return _run_chunked(_simulate_chunk, build, runs,
                        first_lag=1 if config.prepolarized else 0,
                        meta={"seed": seed, "p_minus": p_minus})


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
    workers: int = 1,
) -> RunBatch:
    """Classical control: a spin driven by a coherent field, no back-action.

    Unmodulated, each run draws one uniform phase and presents
    zeta_k = sin(alpha sin(theta_step k + phase)); modulated, the
    deterministic phase-modulation pattern
    zeta_k = sin(pi/2 sin(2 pi k / 8) + alpha cos(k phi_s pi / 4)) is used
    instead (phi_s is the free sequence-phase parameter).  Outcomes and
    photons are sampled exactly as in the quantum engine.  `workers` is
    accepted and ignored.
    """
    if length < 1:
        raise InvalidArgumentError("length must be >= 1")
    if (bright is None) != (dark is None):
        raise InvalidArgumentError("bright and dark must be provided together")

    def build(i, size):
        return (seed, i, size, alpha, theta_step, length, modulated, phi_s, bright, dark)

    return _run_chunked(_classical_chunk, build, runs,
                        first_lag=0, meta={"seed": seed, "modulated": modulated})
