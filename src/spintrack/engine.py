"""Vectorised multi-run simulation with reproducible chunk seeding.

Runs are partitioned into fixed chunks of `CHUNK_SIZE`; chunk ``c`` of a
simulation with master seed ``s`` always draws from
``SeedSequence(entropy=s, spawn_key=(c,))`` in a fixed order, so run i
depends only on (seed, i // CHUNK_SIZE) and a batch equals its chunks
sampled one after another and stacked.  A chunk's stream holds its
uniforms, in the order its runs consume them (quantum: one matrix,
cycle-major; classical: the phases, then the outcome uniforms run by run),
then its photons in row order.  Do not reorder the draws of the `_blocks`
generators or of `Sampler._sample`: the draw order is part of the
determinism contract.

Each kind's `_blocks` keeps that kind's draw order.  It draws a block of
about `_BLOCK` measurements at a time, writes its outcomes and zetas
straight into the rows it is handed and yields the generator each part of
the block draws its photons from, so `Sampler.counts` holds the counts and
one block of scratch, never the whole batch's uniforms, outcomes or zetas.
A quantum block is whole chunks, whose recurrence steps together; each
chunk's photons come from its own generator straight after its uniforms.
A classical block never crosses a chunk: it is the chunk or, for runs
longer than `_BLOCK // CHUNK_SIZE`, a power-of-two share of it; its
chunk's photons come from a second generator advanced past the chunk's
uniforms (PCG64 spends one 64-bit word per double).  One call for k n
uniforms gives the numbers of k calls for n, and elementwise IEEE
arithmetic does not depend on the array width: the streams are those of
the chunk-by-chunk sampler.

A photon record holds its counts as the narrowest of int16, int32 and
int64 that fits them: `_Record` is the one rule, which `Sampler.counts`
and `readout.PhotonTrace.from_csv` fill block by block, widening the
record the first time a block holds a count its dtype cannot.
`Sampler.batch` keeps int64 counts.  `Sampler.fill` hands each block's
counts to any sink with `_Record`'s `append`: `readout` streams them into
`trace.csv` that way, without holding the record.

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


def _draw_photons(rng, outcomes, bright, dark, live=None, nv0_mean=None):
    """Poisson counts at the bright/dark level of each outcome, or at
    nv0_mean where `live` is False."""
    lam = np.where(outcomes == 1, bright, dark)
    if live is not None:
        lam = np.where(live, lam, nv0_mean)
    return rng.poisson(lam).astype(np.int64, copy=False)


#: the record dtypes, narrowest first, each with its largest count
_WIDTHS = [(int(np.iinfo(dtype).max), dtype) for dtype in (np.int16, np.int32, np.int64)]


class _Record:
    """Photon counts of `shape` stored in row-major order, a block at a
    time, as the narrowest of int16, int32 and int64 that holds them: the
    first block with a count above the record's dtype copies the counts
    stored so far, once, to the narrowest dtype that holds that block.  A
    record built with a wider dtype starts there."""

    def __init__(self, shape, dtype=np.int16):
        self.counts = np.empty(shape, dtype=dtype)
        self.top = int(np.iinfo(dtype).max)
        self.stored = 0

    def append(self, values: np.ndarray, top: int | None = None) -> None:
        """Store the non-negative `values` after the counts so far; `top`,
        when given, bounds them from above and spares their max while it
        fits the record's dtype."""
        if top is None or top > self.top:
            top = int(values.max(initial=0))
        if top > self.top:
            self.top, dtype = next(width for width in _WIDTHS if top <= width[0])
            wide = np.empty(self.counts.shape, dtype=dtype)
            wide.reshape(-1)[:self.stored] = self.counts.reshape(-1)[:self.stored]
            self.counts = wide
        end = self.stored + values.size
        self.counts.reshape(-1)[self.stored:end] = values.reshape(-1)
        self.stored = end


class Sampler:
    """How one kind of run is drawn, a block of runs at a time (see the
    module docstring).  Build one with `Sampler.quantum` or
    `Sampler.classical`; `batch` keeps every array of a `RunBatch`,
    `counts` only the photon counts, and `fill` hands them to a sink a
    block at a time.  A subclass sets

    length     measurements per run
    first_lag  lag carried by column 0 (see `RunBatch`)
    block      runs per block

    and defines `_blocks`, which keeps its kind's draw order: a quantum
    chunk's photons come from its own generator, a classical chunk's from
    a second one advanced past its uniforms.
    """

    length: int
    first_lag: int
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
        """Every array of `runs` runs; int64 photon counts only with bright and dark."""
        _check_runs(runs, bright, dark)
        outcomes = np.empty((runs, self.length), dtype=np.int8)
        zetas = np.empty((runs, self.length))
        record = None if bright is None else _Record(outcomes.shape, np.int64)
        signs = self._sample(runs, seed, bright, dark, nv0_mean,
                             lambda rows: (outcomes[rows], zetas[rows]), record)
        return RunBatch(outcomes, zetas, None if record is None else record.counts, signs,
                        self.first_lag)

    def counts(self, runs: int, seed: int, bright: float, dark: float,
               nv0_mean: float | None = None) -> np.ndarray:
        """The (runs, length) photon counts of `batch`, bit for bit, in the
        narrowest dtype that holds them (`_Record`)."""
        _check_runs(runs, bright, dark)  # before the record is allocated
        return self.fill(_Record((runs, self.length)), runs, seed, bright, dark, nv0_mean).counts

    def fill(self, record, runs: int, seed: int, bright: float, dark: float,
             nv0_mean: float | None = None):
        """Append the photon counts of `batch` to `record` in row-major
        order, a part of a block at a time, and return it; `record` is a
        `_Record` or any sink with its `append(values)`.  One block of
        outcomes and zetas is held, which every block overwrites."""
        if bright is None or dark is None:
            raise InvalidArgumentError("counts need bright and dark")
        _check_runs(runs, bright, dark)
        outcomes = np.empty((min(self.block, runs), self.length), dtype=np.int8)
        zetas = np.empty(outcomes.shape)
        self._sample(runs, seed, bright, dark, nv0_mean,
                     lambda rows: (outcomes[:rows.stop - rows.start],
                                   zetas[:rows.stop - rows.start]), record)
        return record

    def _sample(self, runs, seed, bright, dark, nv0_mean, dest, record):
        """The signs of `runs` runs, each block's outcomes and zetas written
        into the arrays `dest(rows)` returns and its photons appended to
        `record` (None without bright and dark)."""
        signs = np.empty(runs, dtype=np.int8)
        nv0_mean = dark if nv0_mean is None else nv0_mean
        for outcomes, live, photons in self._blocks(runs, seed, signs, dest):
            if record is None:
                continue
            for rng, part in photons:
                record.append(_draw_photons(rng, outcomes[part], bright, dark,
                                            None if live is None else live[part], nv0_mean))
        return signs

    def _blocks(self, runs, seed, signs, dest):
        """Fill the outcomes and zetas of each block in `dest(rows)` and its
        `signs[rows]`; yield (outcomes, charge states or None when every
        cycle is active, [(photon generator, its rows of the block)]), the
        blocks in row order and each block's parts in order."""
        raise NotImplementedError


def _check_runs(runs, bright, dark) -> None:
    if runs < 1:
        raise InvalidArgumentError("runs must be >= 1")
    if (bright is None) != (dark is None):
        raise InvalidArgumentError("bright and dark must be provided together")


class _Quantum(Sampler):
    """Each chunk draws its uniforms cycle-major: the polarising outcome
    and charge, then the charge and the outcome of each cycle; then its
    photons.  A block holds whole chunks, whose recurrence steps together."""

    def __init__(self, config: ProtocolConfig, p_minus: float):
        if not (0.0 <= p_minus <= 1.0):
            raise InvalidArgumentError(f"p_minus must lie in [0, 1], got {p_minus}")
        self.config, self.p_minus = config, p_minus
        self.length = config.cycles + (not config.prepolarized)
        self.first_lag = 1 if config.prepolarized else 0
        self.block = max(1, _BLOCK // self.length // CHUNK_SIZE) * CHUNK_SIZE

    def _blocks(self, runs, seed, signs, dest):
        config, p_minus = self.config, self.p_minus
        uniforms = self.length * (1 + (p_minus < 1.0))
        sin_alpha = np.sin(config.alpha)
        for start in range(0, runs, self.block):
            rows = slice(start, min(start + self.block, runs))
            outcomes, zetas = dest(rows)
            sign = signs[rows]
            chunks = [(chunk_rng(seed, lo // CHUNK_SIZE),
                       slice(lo - start, min(lo + CHUNK_SIZE, rows.stop) - start))
                      for lo in range(start, rows.stop, CHUNK_SIZE)]
            u = np.empty((uniforms, len(sign)))
            for rng, part in chunks:
                u[:, part] = rng.random((uniforms, part.stop - part.start))
            draw = iter(u)
            live = np.empty(outcomes.shape, dtype=bool) if p_minus < 1.0 else None
            if config.prepolarized:
                sign[:] = 1
                x, y = np.ones(len(sign)), np.zeros(len(sign))
            else:
                zetas[:, 0] = 0.0
                outcomes[:, 0] = _draw_outcomes(next(draw), zetas[:, 0])
                sign[:] = outcomes[:, 0]
                if live is not None:
                    live[:, 0] = next(draw) < p_minus
                    sign[~live[:, 0]] = 0
                x, y = conditioned_update(0.0, 0.0, config.alpha, sign)
            # a cycle at alpha 0 on neutral runs; at p_minus 1 a scalar alpha
            # spares a cosine per run
            for j in range(self.length - config.cycles, self.length):
                if live is None:
                    x, y = recurrence_step(x, y, config.alpha, config.phi)
                    np.multiply(x, sin_alpha, out=zetas[:, j])
                else:
                    live[:, j] = next(draw) < p_minus
                    x, y = recurrence_step(x, y, np.where(live[:, j], config.alpha, 0.0),
                                           config.phi)
                    zetas[:, j] = np.where(live[:, j], x * sin_alpha, 0.0)
                outcomes[:, j] = _draw_outcomes(next(draw), zetas[:, j])
            del u, draw, x, y  # the photons are drawn without the block's scratch
            yield outcomes, live, chunks


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
    then the outcome uniforms of its runs in row order, then its photons.
    A block is the chunk, or a power-of-two share of it for long runs."""

    def __init__(self, alpha, theta_step, length, modulated, phi_s):
        if length < 1:
            raise InvalidArgumentError("length must be >= 1")
        self.alpha, self.theta_step, self.modulated = alpha, theta_step, modulated
        self.length, self.first_lag = length, 0
        self.block = min(CHUNK_SIZE, 1 << (max(1, _BLOCK // length).bit_length() - 1))
        self.k = np.arange(length)
        if modulated:
            self.zeta_row = np.sin(modulated_drive(self.k, alpha, phi_s)[0])

    def _blocks(self, runs, seed, signs, dest):
        signs[:] = 1
        for lo in range(0, runs, CHUNK_SIZE):
            hi = min(lo + CHUNK_SIZE, runs)
            draws = chunk_rng(seed, lo // CHUNK_SIZE)
            photons = chunk_rng(seed, lo // CHUNK_SIZE)
            photons.bit_generator.advance((hi - lo) * (self.length + (not self.modulated)))
            phase = None if self.modulated else draws.random(hi - lo) * 2 * np.pi
            for start in range(lo, hi, self.block):
                rows = slice(start, min(start + self.block, hi))
                outcomes, zetas = dest(rows)
                if self.modulated:
                    zetas[:] = self.zeta_row
                else:  # sin(alpha sin(theta_step k + phase)), in place
                    np.add(self.theta_step * self.k, phase[start - lo:rows.stop - lo, None],
                           out=zetas)
                    np.sin(zetas, out=zetas)
                    zetas *= self.alpha
                    np.sin(zetas, out=zetas)
                outcomes[:] = _draw_outcomes(draws.random(outcomes.shape), zetas)
                yield outcomes, None, [(photons, slice(None))]


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
