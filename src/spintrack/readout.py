"""Photon-counting readout models and experiment drivers.

Photon number conventions
-------------------------
``n_a`` and ``n_b`` are the mean photon counts of one *measurement* with
the sensor in the bright (+1) and dark (-1) state.  Two sampling modes
reflect how measurements are composed of repeated optical readouts:

* trace readout (drawn by `spintrack.engine` with each run's outcomes):
  the sensor is projected once per cycle and then read repeatedly without
  disturbing it, so the count is a single Poisson draw with mean n_a or
  n_b conditioned on the outcome — the record is bimodal, which is what
  carries the correlation signal;
* calibration readout (`modulation_trace`): every one of the
  ``repetitions`` readouts re-prepares and re-rotates the sensor, so one
  measurement sums `repetitions` independent projection+Poisson draws.
  The mean is unchanged but the bright/dark mixture variance shrinks by
  1/repetitions, which is what makes the photon-level calibration of
  (n_a, n_b) converge.

The mean count under sensor rotation by angle phi_k is

    n(k) = (n_a + n_b)/2 + (n_a - n_b)/2 * sin^2(phi_k/2 + phi_0)

with a small instrumental offset phi_0; `sweep_fraction` is the one
definition of the sin^2 term, which both `modulation_trace` and
`calibrate.fit_na_nb` evaluate.

Charge state: a fraction 1 - p_minus of the measurement pulses leaves the
sensor in its neutral charge state, drawn independently per pulse.  Those
measurements exert no back-action, contribute no spin signal, and emit
photons at a dark-like level (`nv0_mean`, default n_b).
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import engine
from .errors import InvalidArgumentError
from .protocol import ProtocolConfig

__all__ = [
    "ReadoutModel",
    "ChargeModel",
    "PhotonTrace",
    "ModulationTrace",
    "sweep_fraction",
    "modulation_trace",
    "run_quantum_experiment",
    "run_classical_experiment",
    "SWEEP_ANGLES_DEG",
]

#: sensor rotation angles of the calibration sweep, degrees, and the
#: samples taken at each
SWEEP_ANGLES_DEG = tuple(range(0, 361, 30))
SAMPLES_PER_ANGLE = 50
#: the sweep angle sampled ANCHOR_SAMPLES times instead of SAMPLES_PER_ANGLE
ANCHOR_ANGLE = 90
ANCHOR_SAMPLES = 500
_CSV_BLOCK_ROWS = 4096
_CSV_READ_BYTES = 1 << 20
_TRACE_KINDS = ("quantum", "classical", "classical-modulated")


@dataclass
class ReadoutModel:
    """Bright/dark photon statistics of the sensor readout."""

    n_a: float
    n_b: float
    phi_0: float = 0.0
    repetitions: int = 200

    def __post_init__(self):
        if not np.isfinite([self.n_a, self.n_b, self.phi_0]).all():
            raise InvalidArgumentError(f"n_a, n_b, phi_0 must be finite: {asdict(self)}")
        if self.n_b < 0 or self.n_a < self.n_b:
            # n_a == n_b is allowed so the degenerate-contrast path can be
            # exercised end to end; reconstruction rejects it downstream.
            raise InvalidArgumentError("need n_a >= n_b >= 0")
        if self.repetitions < 1:
            raise InvalidArgumentError("repetitions must be >= 1")

    @property
    def n_av(self) -> float:
        return (self.n_a + self.n_b) / 2.0

    @property
    def contrast(self) -> float:
        return self.n_a - self.n_b


@dataclass
class ChargeModel:
    """Per-pulse charge statistics: probability p_minus of the active state."""

    p_minus: float
    nv0_mean: float | None = None  # photon level of neutral measurements; None -> dark level

    def __post_init__(self):
        if not (0.0 <= self.p_minus <= 1.0):
            raise InvalidArgumentError(f"p_minus must lie in [0, 1], got {self.p_minus}")
        if self.nv0_mean is not None and not 0 <= self.nv0_mean < np.inf:
            raise InvalidArgumentError(f"nv0_mean must be finite and >= 0, got {self.nv0_mean}")


@dataclass
class PhotonTrace:
    r"""Photon counts of a multi-run experiment, shape (runs, length).

    `first_lag` is the lag carried by column 0 (0 when column 0 is the
    polarising measurement of each run, 1 when records start at cycle 1).

    CSV layout, byte for byte: ``# `` + the header as JSON with sorted keys
    + ``\n``, then ``index,count\r\n``, then one ``i,c\r\n`` row per count
    in row-major order, i = 0 .. runs * length - 1.  `from_csv` rejects a
    file that departs from it with an `InvalidArgumentError` naming the file.
    """

    counts: np.ndarray
    kind: str
    first_lag: int = 0
    meta: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.counts = np.atleast_2d(np.asarray(self.counts, dtype=np.int64))

    @property
    def runs(self) -> int:
        return self.counts.shape[0]

    @property
    def length(self) -> int:
        return self.counts.shape[1]

    def to_csv(self, path) -> None:
        header = {"kind": self.kind, "runs": self.runs, "length": self.length,
                  "first_lag": self.first_lag, "meta": self.meta}
        flat = self.counts.ravel()
        with open(path, "w", newline="") as fh:
            fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
            fh.write("index,count\r\n")
            # format a block of rows at a time: small blocks keep the
            # temporary strings (and peak memory) small
            for start in range(0, flat.size, _CSV_BLOCK_ROWS):
                block = flat[start:start + _CSV_BLOCK_ROWS]
                pairs = np.empty((block.size, 2), dtype=np.int64)
                pairs[:, 0] = np.arange(start, start + block.size)
                pairs[:, 1] = block
                fh.write(("%d,%d\r\n" * block.size) % tuple(pairs.ravel().tolist()))

    @classmethod
    def from_csv(cls, path) -> "PhotonTrace":
        with open(path, "rb") as fh:
            first = fh.readline()
            if not first.startswith(b"#"):
                raise InvalidArgumentError(f"{path}: missing JSON header line")
            try:
                header = json.loads(first[1:])
            except ValueError as exc:
                raise InvalidArgumentError(f"{path}: bad JSON header line: {exc}") from None
            if not _is_trace_header(header):
                raise InvalidArgumentError(
                    f"{path}: the header must hold exactly runs and length (ints >= 1), "
                    f"first_lag (0 or 1), kind (one of {', '.join(_TRACE_KINDS)}) and meta "
                    "(an object)")
            runs, length = header["runs"], header["length"]
            if first != b"# " + json.dumps(header, sort_keys=True).encode() + b"\n":
                raise InvalidArgumentError(f"{path}: header must be '# ' + sorted-key JSON + LF")
            if fh.readline() != b"index,count\r\n":
                raise InvalidArgumentError(f"{path}: second line must be 'index,count\\r\\n'")
            rows = np.empty((0, 2), dtype=np.int64)
            if fh.peek(1):
                # given the path, loadtxt parses in C-sized chunks: about twice
                # as fast as iterating over the lines of an open handle
                try:
                    rows = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2,
                                      comments=None, skiprows=2, encoding="latin1")
                except ValueError as exc:
                    raise InvalidArgumentError(f"{path}: {exc}") from None
            # count the line ends block by block, so the body is never held whole
            size = crlf = 0
            last = b""
            while block := fh.read(_CSV_READ_BYTES):
                size += len(block)
                crlf += block.count(b"\r\n") + (last == b"\r" and block[:1] == b"\n")
                last = block[-1:]
        if rows.shape[1] != 2:
            raise InvalidArgumentError(f"{path}: rows must have 2 fields, found {rows.shape[1]}")
        if len(rows) != runs * length:
            raise InvalidArgumentError(
                f"{path}: header promises {runs} x {length} = {runs * length} counts, "
                f"found {len(rows)} rows")
        if not np.array_equal(rows[:, 0], np.arange(len(rows))):
            raise InvalidArgumentError(f"{path}: the index column must run 0 .. {len(rows) - 1}")
        if rows[:, 1].min(initial=0) < 0:
            raise InvalidArgumentError(f"{path}: counts must be non-negative")
        # `to_csv` writes these values in exactly `canonical` bytes: digits, a
        # comma and a CRLF per row.  Any sign, space, leading zero, lone LF or
        # blank line adds a byte; with one CRLF per row and the last byte a LF,
        # an equal size leaves the written layout as the only one possible.
        canonical = _digits(rows[:, 0]) + _digits(rows[:, 1]) + 3 * len(rows)
        if size != canonical or crlf != len(rows) or (rows.size and last != b"\n"):
            raise InvalidArgumentError(
                f"{path}: every row must read 'i,c\\r\\n' in plain decimal digits")
        return cls(rows[:, 1].copy().reshape(runs, length), kind=header["kind"],
                   first_lag=header["first_lag"], meta=header["meta"])


def _is_trace_header(header) -> bool:
    """True for exactly the header `PhotonTrace.to_csv` writes."""
    return (isinstance(header, dict)
            and sorted(header) == ["first_lag", "kind", "length", "meta", "runs"]
            and all(type(header[k]) is int for k in ("runs", "length", "first_lag"))
            and min(header["runs"], header["length"]) >= 1 and header["first_lag"] in (0, 1)
            and header["kind"] in _TRACE_KINDS and isinstance(header["meta"], dict))


def _digits(values: np.ndarray) -> int:
    """Total number of decimal digits of non-negative integers, as `%d` writes them."""
    total, top, power = values.size, int(values.max(initial=0)), 10
    while power <= top:
        total += int(np.count_nonzero(values >= power))
        power *= 10
    return total


@dataclass
class ModulationTrace:
    """Calibration sweep samples: one row per measurement (angle, count)."""

    angles_deg: np.ndarray
    counts: np.ndarray
    meta: dict = field(default_factory=dict, repr=False)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("# " + json.dumps({"meta": self.meta}, sort_keys=True) + "\n")
            w = csv.writer(fh)
            w.writerow(["angle_deg", "count"])
            for a, cval in zip(self.angles_deg, self.counts):
                w.writerow([repr(float(a)), int(cval)])


def sweep_fraction(angle_deg, phi_0: float):
    """sin^2(phi/2 + phi_0) at sensor rotation angle(s) phi in degrees."""
    return np.sin(np.deg2rad(angle_deg) / 2.0 + phi_0) ** 2


def modulation_trace(model: ReadoutModel, rng: np.random.Generator) -> ModulationTrace:
    """Simulate the calibration sweep over the rotation angles SWEEP_ANGLES_DEG.

    The angles are sampled in that order, each SAMPLES_PER_ANGLE times
    (ANCHOR_SAMPLES times at ANCHOR_ANGLE); each measurement sums
    `model.repetitions` independently re-prepared readouts, see the
    module docstring.  The per-readout bright probability at angle phi
    is (1 + sweep_fraction(phi, phi_0)) / 2.
    """
    all_angles, all_counts = [], []
    reps = model.repetitions
    for ang in SWEEP_ANGLES_DEG:
        n = ANCHOR_SAMPLES if ang == ANCHOR_ANGLE else SAMPLES_PER_ANGLE
        p_bright = 0.5 * (1.0 + sweep_fraction(ang, model.phi_0))
        bright = rng.random((n, reps)) < p_bright
        lam = np.where(bright, model.n_a / reps, model.n_b / reps)
        counts = rng.poisson(lam).sum(axis=1)
        all_angles.append(np.full(n, float(ang)))
        all_counts.append(counts)
    return ModulationTrace(
        angles_deg=np.concatenate(all_angles),
        counts=np.concatenate(all_counts).astype(np.int64),
        meta={"model": asdict(model), "samples_per_angle": SAMPLES_PER_ANGLE,
              "anchor_angle": ANCHOR_ANGLE, "anchor_samples": ANCHOR_SAMPLES},
    )


def run_quantum_experiment(
    config: ProtocolConfig,
    model: ReadoutModel,
    runs: int,
    seed: int,
    charge: ChargeModel | None = None,
    workers: int = 1,
) -> PhotonTrace:
    """Simulate the full photon record of a multi-run protocol experiment.

    `workers` is accepted and ignored: sampling runs in one process.
    """
    p_minus = 1.0 if charge is None else charge.p_minus
    nv0 = None if charge is None else charge.nv0_mean
    batch = engine.simulate_runs(config, runs, seed, p_minus=p_minus,
                                 bright=model.n_a, dark=model.n_b, nv0_mean=nv0)
    meta = {
        "seed": seed,
        "protocol": asdict(config),
        "readout": asdict(model),
        "charge": None if charge is None else asdict(charge),
    }
    return PhotonTrace(batch.counts, kind="quantum", first_lag=batch.first_lag, meta=meta)


def run_classical_experiment(
    alpha: float,
    theta_step: float,
    measurements_per_run: int,
    model: ReadoutModel,
    runs: int,
    seed: int,
    modulated: bool = False,
    phi_s: float = 1.0,
    workers: int = 1,
) -> PhotonTrace:
    """Simulate the classical control experiment's photon record.

    theta_step is the field phase advance per measurement (omega * t_s).
    See `spintrack.engine.classical_runs` for the signal model; `workers`
    is accepted and ignored: sampling runs in one process.
    """
    batch = engine.classical_runs(alpha, theta_step, measurements_per_run, runs, seed,
                                  modulated=modulated, phi_s=phi_s,
                                  bright=model.n_a, dark=model.n_b)
    meta = {
        "seed": seed,
        "classical": {"alpha": alpha, "theta_step": theta_step,
                      "measurements_per_run": measurements_per_run,
                      "modulated": modulated, "phi_s": phi_s},
        "readout": asdict(model),
    }
    kind = "classical-modulated" if modulated else "classical"
    return PhotonTrace(batch.counts, kind=kind, first_lag=0, meta=meta)
