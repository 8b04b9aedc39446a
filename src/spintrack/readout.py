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
#: bytes of float64 uniforms, and of Poisson means, `modulation_trace` draws
#: at a time: at 200 repetitions one angle's 500 samples are a single block
_SWEEP_BLOCK_BYTES = 1 << 22
#: rows `PhotonTrace.to_csv` encodes at a time: about 1 MiB of working arrays
_CSV_BLOCK_ROWS = 16384
#: body bytes `PhotonTrace.from_csv` decodes at a time: a block's per-row
#: arrays and 8-byte windows stay in cache, and its short-lived arrays stay
#: small enough that freeing them hands their memory back
_CSV_READ_BYTES = 1 << 16
#: the longest row `to_csv` writes: a 19-digit index and count, ',' and CRLF
_CSV_ROW_MAX = 19 + 1 + 19 + 2
#: zero bytes in front of each decoded block, so every 8-byte window a field
#: ends in starts inside the buffer
_CSV_PAD = 8
#: the longest header line, LF included, that `to_csv` writes and `from_csv` reads
_CSV_HEADER_MAX = 1 << 16
_CSV_COLUMNS = b"index,count\r\n"
_TRACE_KINDS = ("quantum", "classical", "classical-modulated")
#: the largest mean numpy's Poisson sampler accepts (numpy's POISSON_LAM_MAX)
_POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10
#: the four ASCII digits of 0 .. 9999, zero-padded, as one uint32 each
_DIGIT_TABLE = (np.arange(10000, dtype=np.uint16)[:, None]
                // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10
                + ord("0")).astype(np.uint8).view(np.uint32).ravel()
#: for a field of w = 0 .. 8 digits that ends an 8-byte little-endian window,
#: the mask keeping the low nibble of each of its bytes (the digit's value)
_FIELD_MASKS = np.array([0x0F0F0F0F0F0F0F0F & -(1 << 8 * (8 - w)) for w in range(9)],
                        dtype=np.uint64)
#: the least value of a w-digit field without a leading zero, w = 0 .. 19
_FIELD_FLOORS = np.array([0, 0] + [10**(w - 1) for w in range(2, 20)], dtype=np.uint64)


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
    + ``\n``, then ``index,count\r\n``, then one ``i,c\r\n`` row per count
    in row-major order, i = 0 .. runs * length - 1.  `from_csv` rejects a
    file that departs from it with an `InvalidArgumentError` naming the file.
    Both directions work in numpy, a block at a time: `to_csv` builds the
    bytes of a block of rows, `from_csv` checks and decodes a block of bytes
    (8-byte windows combined by integer arithmetic) into the counts.
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
        if flat.min(initial=0) < 0:
            raise InvalidArgumentError("counts must be non-negative")
        line = ("# " + json.dumps(header, sort_keys=True) + "\n").encode()
        if len(line) > _CSV_HEADER_MAX:
            raise InvalidArgumentError(
                f"trace header is {len(line)} bytes, above the {_CSV_HEADER_MAX} `from_csv` reads")
        with open(path, "wb") as fh:
            fh.write(line + _CSV_COLUMNS)
            start = 0
            while start < flat.size:
                # a block never crosses a power of 10, so its indices share one width
                stop = min(start + _CSV_BLOCK_ROWS, flat.size, 10 ** len(str(start)))
                fh.write(_encode_rows(start, flat[start:stop]))
                start = stop

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
                raise InvalidArgumentError(
                    f"{path}: the header must hold exactly runs and length (ints >= 1), "
                    f"first_lag (0 or 1), kind (one of {', '.join(_TRACE_KINDS)}) and meta "
                    "(an object)")
            runs, length = header["runs"], header["length"]
            if first != b"# " + json.dumps(header, sort_keys=True).encode() + b"\n":
                raise InvalidArgumentError(f"{path}: header must be '# ' + sorted-key JSON + LF")
            if fh.readline(len(_CSV_COLUMNS)) != _CSV_COLUMNS:
                raise InvalidArgumentError(f"{path}: second line must be 'index,count\\r\\n'")
            # each row takes at least its index digits and 4 bytes, 'i,0\r\n': a
            # header promising more rows than the rest of the file can hold is
            # refused before the counts are allocated
            n, body = runs * length, os.fstat(fh.fileno()).st_size - fh.tell()
            if body < _index_digits(n) + 4 * n:
                raise InvalidArgumentError(
                    f"{path}: header promises {runs} x {length} = {n} counts, "
                    f"more than the {body} bytes of rows can hold")
            counts = np.empty(n, dtype=np.int64)
            rows = _decode_rows(fh, counts, path)
        if rows != n:
            raise InvalidArgumentError(
                f"{path}: header promises {runs} x {length} = {n} counts, found {rows} rows")
        return cls(counts.reshape(runs, length), kind=header["kind"],
                   first_lag=header["first_lag"], meta=header["meta"])


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


def _index_digits(n: int) -> int:
    """Total decimal digits of the indices 0 .. n - 1, which `_digits` would
    sum: n, plus n - 10^d for each power 10^d < n (sum_d d (min(n, 10^d) - 10^(d-1)),
    the index 0 counted among the one-digit ones)."""
    total, power = n, 10
    while power < n:
        total += n - power
        power *= 10
    return total


def _padded_digits(values: np.ndarray, digits: int) -> np.ndarray:
    """ASCII digits of non-negative `values` of at most `digits` digits, zero-padded
    to a multiple of 4: one uint8 row per value, one table lookup per base-10^4 limb."""
    limbs = np.empty((values.size, -(-digits // 4)), dtype=np.uint32)
    for j in range(limbs.shape[1] - 1, -1, -1):
        values, low = np.divmod(values, 10000)
        limbs[:, j] = _DIGIT_TABLE.take(low)
    return limbs.view(np.uint8)


def _encode_rows(start: int, counts: np.ndarray) -> bytes:
    """The rows ``i,c\\r\\n`` for i = start .. start + counts.size - 1, all
    with as many index digits as `start`."""
    index_width = len(str(start))
    index = _padded_digits(np.arange(start, start + counts.size, dtype=np.int64), index_width)
    ndigits = _digits(counts)
    count = _padded_digits(counts, int(ndigits.max()))
    count_width = count.shape[1]
    # fixed-width rows: index | ',' | count, zero-padded | '\r\n'; numpy copies
    # narrow rows slowly, so the matrix is filled one column at a time
    columns = [*index.T[-index_width:], ord(","), *count.T, ord("\r"), ord("\n")]
    rows = np.empty((counts.size, len(columns)), dtype=np.uint8)
    for j, column in enumerate(columns):
        rows[:, j] = column
    # keep[d] drops the padding zeros in front of a d-digit count; taking its
    # rows as whole items is 4x faster than the fancy index keep[ndigits]
    keep = np.ones((count_width + 1, len(columns)), dtype=bool)
    for d in range(1, count_width):
        keep[d, index_width + 1:index_width + 1 + count_width - d] = False
    mask = keep.view(np.dtype((np.void, len(columns)))).take(ndigits).view(bool)
    return rows.ravel()[mask].tobytes()


def _decode_rows(fh, counts: np.ndarray, path) -> int:
    """Decode the rows ``i,c\\r\\n`` left in `fh` into `counts`, a block at a
    time, and return how many there were (at most ``counts.size``; one more
    raises).  A block's partial last row is carried to the front of the next."""
    buf = np.zeros(_CSV_PAD + _CSV_ROW_MAX + _CSV_READ_BYTES, dtype=np.uint8)
    # the 8-byte windows of a block, copied out of `buf` (see `_decode_block`)
    windows = np.empty(buf.size - 7, dtype=np.uint64)
    free = memoryview(buf)
    row = carry = 0
    while got := fh.readinto(free[_CSV_PAD + carry:_CSV_PAD + carry + _CSV_READ_BYTES]):
        end = _CSV_PAD + carry + got
        rows, stop = _decode_block(buf[:end], windows, counts, row, path)
        row += rows
        carry = end - stop
        if carry >= _CSV_ROW_MAX:
            raise _malformed(path)
        buf[_CSV_PAD:_CSV_PAD + carry] = buf[stop:end]
    if carry:
        raise _malformed(path)
    return row


def _decode_block(buf: np.ndarray, windows: np.ndarray, counts: np.ndarray, row: int,
                  path) -> tuple[int, int]:
    """Check the whole rows in ``buf[_CSV_PAD:]`` and decode them into
    ``counts[row:]``; returns their number and the offset after the last.
    Each row must be exactly what `to_csv` writes: its index, row + 0, 1, ...,
    in as many digits as it has, one ',', a count of 1 to 19 digits without
    a leading zero and at most 2^63 - 1, then CRLF."""
    lf = np.flatnonzero(buf[_CSV_PAD:] == ord("\n"))
    if not lf.size:
        return 0, _CSV_PAD
    lf += _CSV_PAD
    rows, stop = lf.size, int(lf[-1]) + 1
    if row + rows > counts.size:
        raise InvalidArgumentError(f"{path}: header promises {counts.size} counts, found more rows")
    # the index of row i takes as many digits as i has
    width = np.full(rows, len(str(row)), dtype=np.int64)
    power = 10 ** len(str(row))
    while power < row + rows:
        width[power - row:] += 1
        power *= 10
    # a row starts after the LF before it, the first one at the pad
    comma = np.empty(rows, dtype=np.int64)
    comma[0], comma[1:] = _CSV_PAD, lf[:-1] + 1
    comma += width
    cr = lf - 1
    count_width = cr - comma - 1
    widest = count_width.max()
    # a ',' and a CR where `to_csv` puts them, and no other non-digit besides
    # the LFs: then every other byte of the rows is a digit
    body = buf[_CSV_PAD:stop]
    if (count_width.min() < 1 or widest > 19
            or not (buf.take(comma) == ord(",")).all()
            or not (buf.take(cr) == ord("\r")).all()
            or body.size - np.count_nonzero((body - ord("0")) < 10) != 3 * rows):
        raise _malformed(path)
    # windows[j] holds the 8 bytes from j on, little-endian; `take` on the
    # strided view would copy all of it for each gather, so it is copied once
    np.copyto(windows[:stop - 7],
              np.ndarray((stop - 7,), dtype="<u8", buffer=buf, strides=(1,)))
    if not np.array_equal(_decode_fields(windows, comma, width),
                          np.arange(row, row + rows, dtype=np.uint64)):
        raise InvalidArgumentError(f"{path}: the index column must run 0 .. {counts.size - 1}")
    values = _decode_fields(windows, cr, count_width)
    # a count below the floor of its width has a leading zero
    if (values < _FIELD_FLOORS.take(count_width)).any():
        raise _malformed(path)
    if widest == 19 and values.max() > np.iinfo(np.int64).max:
        raise InvalidArgumentError(
            f"{path}: counts must be at most 2^63 - 1 = {np.iinfo(np.int64).max}")
    counts[row:row + rows] = values.view(np.int64)
    return rows, stop


def _malformed(path) -> InvalidArgumentError:
    return InvalidArgumentError(f"{path}: every row must read 'i,c\\r\\n' in plain decimal digits")


def _decode_fields(windows: np.ndarray, end: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The values, as uint64, of the decimal fields of `width` (1 .. 19) digits
    that end before the bytes `end`; ``windows[j]`` holds the 8 bytes from j on,
    little-endian.  The last 8 digits of each field are combined in three
    steps (SWAR): digit pairs, then fours, then the eight, one multiply each;
    wider fields add the digits in front of those, times 10^8."""
    value = windows.take(end - 8)
    value &= _FIELD_MASKS.take(width, mode="clip")
    value *= 10 << 8 | 1
    value >>= 8
    value &= 0x00FF00FF00FF00FF
    value *= 100 << 16 | 1
    value >>= 16
    value &= 0x0000FFFF0000FFFF
    value *= 10000 << 32 | 1
    value >>= 32
    if width.max() > 8:
        wide = np.flatnonzero(width > 8)
        value[wide] += _decode_fields(windows, end[wide] - 8, width[wide] - 8) * 10**8
    return value


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
    is (1 + sweep_fraction(phi, phi_0)) / 2.  Each angle draws all its
    uniforms, then all its Poisson counts, a block of rows at a time: the
    streams are those of drawing each whole matrix at once.
    """
    all_angles, all_counts = [], []
    reps = model.repetitions
    step = max(1, _SWEEP_BLOCK_BYTES // (8 * reps))
    for ang in SWEEP_ANGLES_DEG:
        n = ANCHOR_SAMPLES if ang == ANCHOR_ANGLE else SAMPLES_PER_ANGLE
        p_bright = 0.5 * (1.0 + sweep_fraction(ang, model.phi_0))
        bright = np.empty((n, reps), dtype=bool)
        for i in range(0, n, step):
            bright[i:i + step] = rng.random(bright[i:i + step].shape) < p_bright
        all_angles.append(np.full(n, float(ang)))
        all_counts += [rng.poisson(np.where(bright[i:i + step], model.n_a / reps,
                                            model.n_b / reps)).sum(axis=1)
                       for i in range(0, n, step)]
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
