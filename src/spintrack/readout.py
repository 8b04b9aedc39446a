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
  measurement sums `repetitions` independent projection+Poisson draws:
  a binomial count k of bright readouts, then, as a sum of Poisson counts
  is Poisson, one count at mean (k n_a + (repetitions - k) n_b) / repetitions.
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

import json
import os
import sys
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
#: measurements in one sweep: 1,100, each summing `repetitions` readouts
SWEEP_SAMPLES = SAMPLES_PER_ANGLE * (len(SWEEP_ANGLES_DEG) - 1) + ANCHOR_SAMPLES
#: rows `_TraceWriter` encodes at a time: about 1 MiB of working arrays
_CSV_BLOCK_ROWS = 16384
#: body bytes `PhotonTrace.from_csv` decodes at a time: a block's per-row
#: arrays stay in cache, and its short-lived arrays stay small enough that
#: freeing them hands their memory back
_CSV_READ_BYTES = 1 << 16
#: the longest row `to_csv` writes: a 19-digit count and CRLF
_CSV_ROW_MAX = 19 + 2
#: the longest header line, LF included, that `to_csv` writes and `from_csv` reads
_CSV_HEADER_MAX = 1 << 16
_CSV_COLUMNS = b"count\r\n"
_TRACE_KINDS = ("quantum", "classical", "classical-modulated")
#: what `_is_trace_header` holds a header to
_HEADER_RULE = (f"the header must hold exactly runs and length (ints >= 1), first_lag (0 or 1), "
                f"kind (one of {', '.join(_TRACE_KINDS)}) and meta (an object)")
#: the largest mean numpy's Poisson sampler accepts (numpy's POISSON_LAM_MAX)
_POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10
#: the four ASCII digits of 0 .. 9999, zero-padded, as one uint32 each
_DIGIT_TABLE = (np.arange(10000, dtype=np.uint16)[:, None]
                // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10
                + ord("0")).astype(np.uint8).view(np.uint32).ravel()


@dataclass
class ReadoutModel:
    """Bright/dark photon statistics of the sensor readout."""

    n_a: float
    n_b: float
    phi_0: float = 0.0
    repetitions: int = 200

    def __post_init__(self):
        if not all(abs(v) <= sys.float_info.max for v in (self.n_a, self.n_b, self.phi_0)):
            raise InvalidArgumentError(f"n_a, n_b, phi_0 must be finite: {asdict(self)}")
        if self.n_b < 0 or self.n_a < self.n_b:
            # n_a == n_b is allowed so the degenerate-contrast path can be
            # exercised end to end; reconstruction rejects it downstream.
            raise InvalidArgumentError("need n_a >= n_b >= 0")
        if self.n_a > _POISSON_LAM_MAX:  # n_b <= n_a, so this bounds both
            raise InvalidArgumentError(f"n_a and n_b must not exceed numpy's Poisson limit "
                                       f"{_POISSON_LAM_MAX:.6g}, got n_a = {self.n_a}")
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
        if self.nv0_mean is not None and not 0 <= self.nv0_mean <= _POISSON_LAM_MAX:
            raise InvalidArgumentError(f"nv0_mean must lie in [0, {_POISSON_LAM_MAX:.6g}] "
                                       f"(numpy's Poisson limit), got {self.nv0_mean}")


@dataclass
class PhotonTrace:
    r"""Photon counts of a multi-run experiment, shape (runs, length).

    `first_lag` is the lag carried by column 0 (0 when column 0 is the
    polarising measurement of each run, 1 when records start at cycle 1).

    CSV layout, byte for byte: ``# `` + the header as JSON with sorted keys
    + ``\n``, then ``count\r\n``, then one ``c\r\n`` row per count in
    row-major order: what `csv.writer` writes for one column.  `from_csv`
    rejects a file that departs from it with an `InvalidArgumentError`
    naming the file.  Both directions work in numpy, a block at a time:
    `to_csv` builds the bytes of a block of rows, `from_csv` checks a block
    of bytes and decodes it into the counts, one digit position at a time
    by Horner's rule, each row's digits gathered back from its CR.

    `counts` keeps an int16, int32 or int64 array as given and holds any
    other input as int64.  The simulators and `from_csv` give the narrowest
    of int16, int32 and int64 that holds every count (`engine._Record`).
    `cli`'s trace command writes the same bytes without a `PhotonTrace`:
    `_TraceWriter` takes the sampler's counts a block at a time.
    """

    counts: np.ndarray
    kind: str
    first_lag: int = 0
    meta: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.dtype not in (np.int16, np.int32, np.int64):
            counts = counts.astype(np.int64)
        self.counts = np.atleast_2d(counts)

    @property
    def runs(self) -> int:
        return self.counts.shape[0]

    @property
    def length(self) -> int:
        return self.counts.shape[1]

    def to_csv(self, path) -> None:
        line = _header_line(self.kind, self.runs, self.length, self.first_lag, self.meta)
        with open(path, "wb") as fh:
            _TraceWriter(fh, line).append(self.counts)

    @classmethod
    def from_csv(cls, path) -> "PhotonTrace":
        with open(path, "rb") as fh:
            first = fh.readline(_CSV_HEADER_MAX)
            if len(first) == _CSV_HEADER_MAX and not first.endswith(b"\n"):
                raise InvalidArgumentError(
                    f"{path}: header line longer than {_CSV_HEADER_MAX} bytes")
            if not first.startswith(b"#"):
                raise InvalidArgumentError(f"{path}: missing JSON header line")
            try:
                header = json.loads(first[1:])
            except (ValueError, RecursionError) as exc:
                raise InvalidArgumentError(f"{path}: bad JSON header line: {exc}") from None
            if not _is_trace_header(header):
                raise InvalidArgumentError(f"{path}: {_HEADER_RULE}")
            runs, length = header["runs"], header["length"]
            if first != b"# " + json.dumps(header, sort_keys=True).encode() + b"\n":
                raise InvalidArgumentError(f"{path}: header must be '# ' + sorted-key JSON + LF")
            if fh.readline(len(_CSV_COLUMNS)) != _CSV_COLUMNS:
                raise InvalidArgumentError(f"{path}: second line must be 'count\\r\\n'")
            # each row takes at least 3 bytes, '0\r\n': a header promising more
            # rows than the rest of the file can hold is refused before the
            # counts are allocated
            n, body = runs * length, os.fstat(fh.fileno()).st_size - fh.tell()
            if body < 3 * n:
                raise InvalidArgumentError(
                    f"{path}: header promises {runs} x {length} = {n} counts, "
                    f"more than the {body} bytes of rows can hold")
            record = engine._Record(n)
            _decode_rows(fh, record, path)
        if record.stored != n:
            raise InvalidArgumentError(
                f"{path}: header promises {runs} x {length} = {n} counts, "
                f"found {record.stored} rows")
        return cls(record.counts.reshape(runs, length), kind=header["kind"],
                   first_lag=header["first_lag"], meta=header["meta"])


def _header_line(kind, runs, length, first_lag, meta) -> bytes:
    """The header line of a trace, LF included; a header that `from_csv`
    would refuse raises instead."""
    header = {"kind": kind, "runs": runs, "length": length, "first_lag": first_lag, "meta": meta}
    if not _is_trace_header(header):
        raise InvalidArgumentError(f"trace not written: {_HEADER_RULE}")
    line = ("# " + json.dumps(header, sort_keys=True) + "\n").encode()
    if len(line) > _CSV_HEADER_MAX:
        raise InvalidArgumentError(
            f"trace header is {len(line)} bytes, above the {_CSV_HEADER_MAX} `from_csv` reads")
    return line


class _TraceWriter:
    """The one `trace.csv` encoder: writes the header `line` and
    ``count\\r\\n`` to the open binary file `fh`, then the rows of each
    block of counts that `append` is handed, in row-major order."""

    def __init__(self, fh, line: bytes):
        fh.write(line + _CSV_COLUMNS)
        self.fh = fh

    def append(self, values: np.ndarray) -> None:
        """Write the rows of `values`, `_CSV_BLOCK_ROWS` at a time; a
        negative count raises before any row of `values` is written."""
        flat = values.reshape(-1)
        if flat.min(initial=0) < 0:
            raise InvalidArgumentError("counts must be non-negative")
        for start in range(0, flat.size, _CSV_BLOCK_ROWS):
            self.fh.write(_encode_rows(flat[start:start + _CSV_BLOCK_ROWS]))


def _is_trace_header(header) -> bool:
    """True for exactly the header `PhotonTrace.to_csv` writes."""
    return (isinstance(header, dict)
            and sorted(header) == ["first_lag", "kind", "length", "meta", "runs"]
            and all(type(header[k]) is int for k in ("runs", "length", "first_lag"))
            and min(header["runs"], header["length"]) >= 1 and header["first_lag"] in (0, 1)
            and header["kind"] in _TRACE_KINDS and isinstance(header["meta"], dict))


def _digits(values: np.ndarray) -> np.ndarray:
    """Number of decimal digits of each non-negative integer, as `%d` writes it."""
    digits, top, power = np.ones(values.shape, dtype=np.uint8), int(values.max(initial=0)), 10
    while power <= top:
        digits += values >= power
        power *= 10
    return digits


def _padded_digits(values: np.ndarray, digits: int) -> np.ndarray:
    """ASCII digits of non-negative `values` of at most `digits` digits, zero-padded
    to a multiple of 4: one uint8 row per value, one table lookup per base-10^4 limb."""
    limbs = np.empty((values.size, -(-digits // 4)), dtype=np.uint32)
    for j in range(limbs.shape[1] - 1, 0, -1):
        values, low = np.divmod(values, 10000)
        limbs[:, j] = _DIGIT_TABLE.take(low)
    # what is left is below 10^4: the first limb needs no division
    limbs[:, 0] = _DIGIT_TABLE.take(values)
    return limbs.view(np.uint8)


def _encode_rows(counts: np.ndarray) -> bytes:
    """The rows ``c\\r\\n`` of `counts`."""
    ndigits = _digits(counts)
    digits = _padded_digits(counts, int(ndigits.max()))
    width = digits.shape[1]
    # fixed-width rows: count, zero-padded | '\r\n'; numpy copies narrow rows
    # slowly, so the matrix is filled one column at a time
    columns = [*digits.T, ord("\r"), ord("\n")]
    rows = np.empty((counts.size, len(columns)), dtype=np.uint8)
    for j, column in enumerate(columns):
        rows[:, j] = column
    # keep[d] drops the padding zeros in front of a d-digit count; taking its
    # rows as whole items is 4x faster than the fancy index keep[ndigits]
    keep = np.ones((width + 1, len(columns)), dtype=bool)
    for d in range(1, width):
        keep[d, :width - d] = False
    mask = keep.view(np.dtype((np.void, len(columns)))).take(ndigits).view(bool)
    return rows.ravel()[mask].tobytes()


def _decode_rows(fh, record, path) -> None:
    """Decode the rows ``c\\r\\n`` left in `fh` into the `engine._Record`
    `record`, a block at a time (at most its size; one more row raises).
    A block's partial last row is carried to the front of the next."""
    buf = np.empty(_CSV_ROW_MAX + _CSV_READ_BYTES, dtype=np.uint8)
    free = memoryview(buf)
    carry = 0
    while got := fh.readinto(free[carry:carry + _CSV_READ_BYTES]):
        end = carry + got
        stop = _decode_block(buf[:end], record, path)
        carry = end - stop
        if carry >= _CSV_ROW_MAX:
            raise _malformed(path)
        buf[:carry] = buf[stop:end]
    if carry:
        raise _malformed(path)


def _decode_block(buf: np.ndarray, record, path) -> int:
    """Check the whole rows in `buf` and append them to `record`; returns
    the offset after the last.  Each row must be exactly what `to_csv`
    writes: a count of 1 to 19 digits without a leading zero and at most
    2^63 - 1, then CRLF."""
    # each row's CR sits right before its LF
    cr = np.flatnonzero(buf == ord("\n"))
    if not cr.size:
        return 0
    cr -= 1
    rows, stop = cr.size, int(cr[-1]) + 2
    size = record.counts.size
    if record.stored + rows > size:
        raise InvalidArgumentError(f"{path}: header promises {size} counts, found more rows")
    # a row starts after the LF before it, the first one at 0
    width = np.diff(cr, prepend=-2)
    width -= 2
    widest = int(width.max())
    # a CR where `to_csv` puts it, and no other non-digit besides the LFs:
    # then every other byte of the rows is a digit
    body = buf[:stop]
    if (width.min() < 1 or widest > 19
            or not (buf.take(cr) == ord("\r")).all()
            or body.size - np.count_nonzero((body - ord("0")) < 10) != 2 * rows
            or ((buf.take(cr - width) == ord("0")) & (width > 1)).any()):
        raise _malformed(path)
    # Horner's rule over digit j of each row, counted from its CR back, from
    # the widest row's first digit to the last; a row narrower than j + 1
    # digits takes a 0 there (its byte there belongs to a row before, or is
    # clipped to the block's first); `cr` steps forward to that digit
    values = np.zeros(rows, dtype=np.uint64)
    cr -= widest
    for j in range(widest - 1, -1, -1):
        digit = buf.take(cr, mode="clip") - ord("0")
        digit *= width > j
        values *= 10
        values += digit
        cr += 1
    if widest == 19 and values.max() > np.iinfo(np.int64).max:
        raise InvalidArgumentError(
            f"{path}: counts must be at most 2^63 - 1 = {np.iinfo(np.int64).max}")
    # fewer than 5 digits fit int16, so only wider rows need their max
    record.append(values.view(np.int64), top=10**widest - 1)
    return stop


def _malformed(path) -> InvalidArgumentError:
    return InvalidArgumentError(f"{path}: every row must read 'c\\r\\n', c in plain decimal digits")


@dataclass
class ModulationTrace:
    """Calibration sweep samples: one row per measurement (angle, count)."""

    angles_deg: np.ndarray
    counts: np.ndarray
    meta: dict = field(default_factory=dict, repr=False)

    def to_csv(self, path) -> None:
        # the bytes of csv.writer, which writes a float as its repr and an
        # int as its str
        with open(path, "w", newline="") as fh:
            fh.write("# " + json.dumps({"meta": self.meta}, sort_keys=True) + "\n"
                     + "angle_deg,count\r\n" + "".join(
                         f"{angle!r},{count}\r\n" for angle, count
                         in zip(np.asarray(self.angles_deg, dtype=float).tolist(),
                                np.asarray(self.counts, dtype=np.int64).tolist())))


def sweep_fraction(angle_deg, phi_0: float):
    """sin^2(phi/2 + phi_0) at sensor rotation angle(s) phi in degrees."""
    return np.sin(np.deg2rad(angle_deg) / 2.0 + phi_0) ** 2


def modulation_trace(model: ReadoutModel, rng: np.random.Generator) -> ModulationTrace:
    """Simulate the calibration sweep over the rotation angles SWEEP_ANGLES_DEG.

    The angles are sampled in that order, each SAMPLES_PER_ANGLE times
    (ANCHOR_SAMPLES times at ANCHOR_ANGLE); each measurement sums
    `model.repetitions` independently re-prepared readouts, see the
    module docstring.  The per-readout bright probability at angle phi
    is (1 + sweep_fraction(phi, phi_0)) / 2.  The sweep draws every
    measurement's bright readouts, then every count; a mean that rounds
    above n_a is held at n_a, within numpy's Poisson limit.
    """
    reps = model.repetitions
    angles = np.repeat(np.array(SWEEP_ANGLES_DEG, dtype=float),
                       [ANCHOR_SAMPLES if ang == ANCHOR_ANGLE else SAMPLES_PER_ANGLE
                        for ang in SWEEP_ANGLES_DEG])
    bright = rng.binomial(reps, 0.5 * (1.0 + sweep_fraction(angles, model.phi_0)))
    mean = np.minimum((bright * model.n_a + (reps - bright) * model.n_b) / reps, model.n_a)
    return ModulationTrace(
        angles_deg=angles,
        counts=rng.poisson(mean),
        meta={"model": asdict(model), "samples_per_angle": SAMPLES_PER_ANGLE,
              "anchor_angle": ANCHOR_ANGLE, "anchor_samples": ANCHOR_SAMPLES},
    )


@dataclass
class _Experiment:
    """A photon record yet to be drawn: its sampler, the arguments of
    `Sampler.counts` and its trace's kind and meta."""

    sampler: engine.Sampler
    draw: tuple
    kind: str
    meta: dict

    def trace(self) -> PhotonTrace:
        """The record, held whole."""
        return PhotonTrace(self.sampler.counts(*self.draw), kind=self.kind,
                           first_lag=self.sampler.first_lag, meta=self.meta)

    def to_csv(self, path) -> None:
        """The bytes of `trace().to_csv(path)`, written as the sampler draws
        each block: the record is never held."""
        line = _header_line(self.kind, self.draw[0], self.sampler.length, self.sampler.first_lag,
                            self.meta)
        with open(path, "wb") as fh:
            self.sampler.fill(_TraceWriter(fh, line), *self.draw)


def _quantum_experiment(config: ProtocolConfig, model: ReadoutModel, runs: int, seed: int,
                        charge: ChargeModel | None = None) -> _Experiment:
    """The record of `run_quantum_experiment`, yet to be drawn."""
    sampler = engine.Sampler.quantum(config, 1.0 if charge is None else charge.p_minus)
    meta = {
        "seed": seed,
        "protocol": asdict(config),
        "readout": asdict(model),
        "charge": None if charge is None else asdict(charge),
    }
    return _Experiment(sampler, (runs, seed, model.n_a, model.n_b,
                                 None if charge is None else charge.nv0_mean), "quantum", meta)


def _classical_experiment(alpha: float, theta_step: float, measurements_per_run: int,
                          model: ReadoutModel, runs: int, seed: int, modulated: bool = False,
                          phi_s: float = 1.0) -> _Experiment:
    """The record of `run_classical_experiment`, yet to be drawn."""
    sampler = engine.Sampler.classical(alpha, theta_step, measurements_per_run, modulated, phi_s)
    meta = {
        "seed": seed,
        "classical": {"alpha": alpha, "theta_step": theta_step,
                      "measurements_per_run": measurements_per_run,
                      "modulated": modulated, "phi_s": phi_s},
        "readout": asdict(model),
    }
    kind = "classical-modulated" if modulated else "classical"
    return _Experiment(sampler, (runs, seed, model.n_a, model.n_b), kind, meta)


def run_quantum_experiment(
    config: ProtocolConfig,
    model: ReadoutModel,
    runs: int,
    seed: int,
    charge: ChargeModel | None = None,
    workers: int = 1,
) -> PhotonTrace:
    """Simulate the full photon record of a multi-run protocol experiment:
    the counts of `engine.simulate_runs`, without its outcomes and zetas.

    `workers` is accepted and ignored: sampling runs in one process.
    """
    return _quantum_experiment(config, model, runs, seed, charge).trace()


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
    See `spintrack.engine.classical_runs` for the signal model, whose
    counts this is, without its outcomes and zetas; `workers` is accepted
    and ignored: sampling runs in one process.
    """
    return _classical_experiment(alpha, theta_step, measurements_per_run, model, runs, seed,
                                 modulated, phi_s).trace()
