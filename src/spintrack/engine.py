"""Vectorised multi-run simulation with reproducible chunk seeding.

Runs are partitioned into fixed chunks of `CHUNK_SIZE`; chunk ``c`` of a
simulation with master seed ``s`` always draws from
``SeedSequence(entropy=s, spawn_key=(c,))`` in a fixed order, so run i
depends only on (seed, i // CHUNK_SIZE) and a batch equals its chunks
sampled one after another and stacked.  A chunk's stream holds its
uniforms, in the order its runs consume them (quantum: one matrix,
cycle-major; classical: the phases, then the outcome uniforms run by run),
then its photons.  Each kind of draw has one helper: `_draw_outcomes` (the
+-1 readout), `_draw_charge` (the per-cycle charge state) and
`_draw_photons` (the Poisson counts).  Do not reorder the draws of
`_Quantum`, `_Classical` or `Sampler._sample`: the draw order is part of
the determinism contract.

`Sampler._sample` is one loop over blocks of about `_BLOCK` measurements:
whole chunks, whose recurrence the quantum sampler steps together, or,
for long classical runs, a power-of-two share of one chunk.  Each block
draws its uniforms, writes its outcomes and zetas straight into the rows
it is handed and draws its photons, so `Sampler.counts` holds the counts
and one block of scratch, never the uniforms, outcomes or zetas of the
whole batch.  PCG64 spends one 64-bit word per double, so a chunk's
photons start at a known word: each chunk draws them, in row order, from
a second generator advanced past its uniforms (`PCG64.advance`), and a
block may end inside a chunk.  One call for k n uniforms gives the
numbers of k calls for n, and elementwise IEEE arithmetic does not depend
on the array width: the streams are those of the chunk-by-chunk sampler.

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
from typing import NamedTuple

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily; load it at start-up)

from .errors import InvalidArgumentError
from .protocol import ProtocolConfig, conditioned_update, recurrence_step

__all__ = ["CHUNK_SIZE", "RunBatch", "Sampler", "chunk_rng", "modulated_drive",
           "simulate_runs", "classical_runs"]

CHUNK_SIZE = 256
#: measurements in a block of runs: 256 KiB per float64 array of the block
_BLOCK = 1 << 15


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


def _draw_charge(rows, p_minus: float) -> np.ndarray:
    """Charge state of one cycle per run, True when active, from the next row
    of uniforms in the iterator `rows`; drawn only when p_minus < 1."""
    return next(rows) < p_minus


def _draw_photons(rng, outcomes, bright, dark, live=None, nv0_mean=None):
    """Poisson counts at the bright/dark level of each outcome, or at
    nv0_mean where `live` is False."""
    lam = np.where(outcomes == 1, bright, dark)
    if live is not None:
        lam = np.where(live, lam, nv0_mean)
    return rng.poisson(lam).astype(np.int64, copy=False)


class _Chunk(NamedTuple):
    """One chunk in flight: the generator of its uniforms, the one of its
    photons (advanced past the uniforms), its rows among all runs and what
    its runs draw before their first block (the classical phases)."""

    draws: np.random.Generator
    photons: np.random.Generator
    rows: slice
    prefix: np.ndarray | None


class Sampler:
    """How one kind of run is drawn, a block of runs at a time (see the
    module docstring).  Build one with `Sampler.quantum` or
    `Sampler.classical`; `batch` keeps every array of a `RunBatch`,
    `counts` only the photon counts.  A subclass sets

    length     measurements per run
    first_lag  lag carried by column 0 (see `RunBatch`)
    uniforms   uniforms one run draws before its chunk's photons
    block      runs per block

    and defines `_prefix` and `_draw`.
    """

    length: int
    first_lag: int
    uniforms: int
    block: int

    @staticmethod
    def quantum(config: ProtocolConfig, p_minus: float = 1.0) -> Sampler:
        """The protocol runs of `simulate_runs`."""
        return _Quantum(config, p_minus)

    @staticmethod
    def classical(alpha: float, theta_step: float, length: int, modulated: bool = False,
                  phi_s: float = 1.0) -> Sampler:
        """The classically driven runs of `classical_runs`."""
        return _Classical(alpha, theta_step, length, modulated, phi_s)

    def batch(self, runs: int, seed: int, bright: float | None = None,
              dark: float | None = None, nv0_mean: float | None = None) -> RunBatch:
        """Every array of `runs` runs; photon counts only with bright and dark."""
        _check_runs(runs, bright, dark)
        outcomes = np.empty((runs, self.length), dtype=np.int8)
        zetas = np.empty((runs, self.length))
        signs, counts = self._sample(runs, seed, bright, dark, nv0_mean,
                                     lambda rows: (outcomes[rows], zetas[rows]))
        return RunBatch(outcomes, zetas, counts, signs, self.first_lag)

    def counts(self, runs: int, seed: int, bright: float, dark: float,
               nv0_mean: float | None = None) -> np.ndarray:
        """The (runs, length) int64 photon counts of `batch`, bit for bit,
        with one block of outcomes and zetas that every block overwrites."""
        if bright is None or dark is None:
            raise InvalidArgumentError("counts need bright and dark")
        _check_runs(runs, bright, dark)
        outcomes = np.empty((min(self.block, runs), self.length), dtype=np.int8)
        zetas = np.empty(outcomes.shape)
        return self._sample(runs, seed, bright, dark, nv0_mean,
                            lambda rows: (outcomes[:rows.stop - rows.start],
                                          zetas[:rows.stop - rows.start]))[1]

    def _sample(self, runs, seed, bright, dark, nv0_mean, dest):
        """The block loop: block `rows` writes its outcomes and zetas into
        the arrays `dest(rows)` returns, its signs and counts into the
        returned (signs, counts); counts is None without bright and dark.
        A block that starts a chunk opens it; a chunk's later blocks use
        the generators it opened with."""
        signs = np.empty(runs, dtype=np.int8)
        counts = None if bright is None else np.empty((runs, self.length), dtype=np.int64)
        nv0_mean = dark if nv0_mean is None else nv0_mean
        for start in range(0, runs, self.block):
            rows = slice(start, min(start + self.block, runs))
            if start % CHUNK_SIZE == 0:
                chunks = [self._open(seed, c, runs)
                          for c in range(start // CHUNK_SIZE, -(-rows.stop // CHUNK_SIZE))]
            pieces = []  # (chunk, its rows in the block, the same rows in the chunk)
            for ch in chunks:
                lo, hi = max(ch.rows.start, start), min(ch.rows.stop, rows.stop)
                pieces.append((ch, slice(lo - start, hi - start),
                               slice(lo - ch.rows.start, hi - ch.rows.start)))
            outcomes, zetas = dest(rows)
            live = self._draw(pieces, outcomes, zetas, signs[rows])
            if counts is not None:
                for ch, local, _ in pieces:
                    counts[rows][local] = _draw_photons(ch.photons, outcomes[local], bright, dark,
                                                        None if live is None else live[local],
                                                        nv0_mean)
        return signs, counts

    def _open(self, seed, c, runs) -> _Chunk:
        rows = slice(c * CHUNK_SIZE, min((c + 1) * CHUNK_SIZE, runs))
        n = rows.stop - rows.start
        photons = chunk_rng(seed, c)
        photons.bit_generator.advance(n * self.uniforms)
        draws = chunk_rng(seed, c)
        return _Chunk(draws, photons, rows, self._prefix(draws, n))

    def _prefix(self, draws, n):
        """What a chunk of n runs draws before its first block, or None."""
        return None

    def _draw(self, pieces, outcomes, zetas, signs):
        """Fill one block's outcomes, zetas and signs from the uniforms of
        its pieces; return its (rows, length) charge states, or None when
        every cycle is active."""
        raise NotImplementedError


def _check_runs(runs, bright, dark) -> None:
    if runs < 1:
        raise InvalidArgumentError("runs must be >= 1")
    if (bright is None) != (dark is None):
        raise InvalidArgumentError("bright and dark must be provided together")


def _block_runs(length: int) -> int:
    """Runs in a block of about `_BLOCK` measurements: whole chunks, or, for
    runs longer than `_BLOCK // CHUNK_SIZE`, a power of two dividing CHUNK_SIZE."""
    rows = max(1, _BLOCK // length)
    return rows - rows % CHUNK_SIZE if rows >= CHUNK_SIZE else 1 << (rows.bit_length() - 1)


class _Quantum(Sampler):
    """Each chunk draws its uniforms cycle-major: the polarising outcome
    and charge, then the charge and the outcome of each cycle; the
    recurrence then steps all runs of the block at once.  Its uniforms
    are one matrix per chunk, so a block holds whole chunks."""

    def __init__(self, config: ProtocolConfig, p_minus: float):
        if not (0.0 <= p_minus <= 1.0):
            raise InvalidArgumentError(f"p_minus must lie in [0, 1], got {p_minus}")
        self.config, self.p_minus = config, p_minus
        self.length = config.cycles + (not config.prepolarized)
        self.first_lag = 1 if config.prepolarized else 0
        self.uniforms = self.length * (1 + (p_minus < 1.0))
        self.block = max(CHUNK_SIZE, _block_runs(self.length))

    def _draw(self, pieces, outcomes, zetas, signs):
        config, p_minus = self.config, self.p_minus
        u = np.empty((self.uniforms, len(outcomes)))
        for ch, local, _ in pieces:
            u[:, local] = ch.draws.random((len(u), local.stop - local.start))
        rows = iter(u)
        live = np.empty(outcomes.shape, dtype=bool) if p_minus < 1.0 else None
        if config.prepolarized:
            signs[:] = 1
            x, y = np.ones(len(signs)), np.zeros(len(signs))
        else:
            zetas[:, 0] = 0.0
            outcomes[:, 0] = _draw_outcomes(next(rows), zetas[:, 0])
            signs[:] = outcomes[:, 0]
            if live is not None:
                live[:, 0] = _draw_charge(rows, p_minus)
                signs[~live[:, 0]] = 0
            x, y = conditioned_update(0.0, 0.0, config.alpha, signs)

        # a cycle at alpha 0 on neutral runs; at p_minus 1 a scalar alpha
        # spares a cosine per run
        sin_alpha = np.sin(config.alpha)
        for j in range(self.length - config.cycles, self.length):
            if live is None:
                x, y = recurrence_step(x, y, config.alpha, config.phi)
                np.multiply(x, sin_alpha, out=zetas[:, j])
            else:
                live[:, j] = _draw_charge(rows, p_minus)
                x, y = recurrence_step(x, y, np.where(live[:, j], config.alpha, 0.0), config.phi)
                zetas[:, j] = np.where(live[:, j], x * sin_alpha, 0.0)
            outcomes[:, j] = _draw_outcomes(next(rows), zetas[:, j])
        return live


def modulated_drive(k: np.ndarray, alpha: float, phi_s: float):
    """Spin angle of the phase-modulated classical drive at measurement indices k.

    Returns (angle, d angle / d alpha) with
    angle_k = pi/2 sin(2 pi k / 8) + alpha cos(k phi_s pi / 4); the
    presented polarisation is sin(angle).
    """
    slope = np.cos(k * phi_s * np.pi / 4.0)
    return 0.5 * np.pi * np.sin(2 * np.pi * k / 8.0) + alpha * slope, slope


class _Classical(Sampler):
    """Each chunk draws run-major: one phase per run (unmodulated only),
    when it opens, then the outcome uniforms of its runs in row order, so
    a block of long runs may hold part of a chunk."""

    def __init__(self, alpha, theta_step, length, modulated, phi_s):
        if length < 1:
            raise InvalidArgumentError("length must be >= 1")
        self.alpha, self.theta_step, self.modulated = alpha, theta_step, modulated
        self.length, self.first_lag = length, 0
        self.uniforms = length + (not modulated)
        self.block = _block_runs(length)
        self.k = np.arange(length)
        if modulated:
            self.zeta_row = np.sin(modulated_drive(self.k, alpha, phi_s)[0])

    def _prefix(self, draws, n):
        return None if self.modulated else draws.random(n) * 2 * np.pi

    def _draw(self, pieces, outcomes, zetas, signs):
        u = np.empty(outcomes.shape)
        for ch, local, _ in pieces:
            ch.draws.random(out=u[local])
        if self.modulated:
            zetas[:] = self.zeta_row
        else:  # sin(alpha sin(theta_step k + phase)), in place
            phase = np.concatenate([ch.prefix[within] for ch, _, within in pieces])
            np.add(self.theta_step * self.k, phase[:, None], out=zetas)
            np.sin(zetas, out=zetas)
            zetas *= self.alpha
            np.sin(zetas, out=zetas)
        outcomes[:] = _draw_outcomes(u, zetas)
        signs[:] = 1
        return None


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
    return Sampler.quantum(config, p_minus).batch(runs, seed, bright, dark, nv0_mean)


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
    return Sampler.classical(alpha, theta_step, length, modulated, phi_s).batch(
        runs, seed, bright, dark)
