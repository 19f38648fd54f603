"""Physical constants, materials, and geometry types shared by all modules,
the exact number-cell writers behind every CSV, JSON and SVG output, and
the exact reader of the CSV rows those writers produce.

Unit conventions used throughout the package:
  * SI units everywhere; spectra and rates are functions of angular
    frequency omega [rad/s] internally, Hz appears only at I/O boundaries.
  * Beam radii are 1/e^2 intensity radii.
All value types are immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

import codecs
import json
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# number format of every CSV cell and of every float rounded for JSON:
# 9 significant digits, "." decimal, locale-independent
_CSV_FLOAT = "%.8e"

class DomainError(ValueError):
    """Input outside the physical domain of an operation."""


class ConfigError(ValueError):
    """Invalid, missing, or inconsistent configuration."""


class ShapeError(ValueError):
    """Array arguments with incompatible shapes or grids."""


class FitError(RuntimeError):
    """A fit could not be performed on the given data."""


class InsufficientDataError(FitError):
    """Not enough usable samples or bins to fit."""


class DegenerateFitError(FitError):
    """Singular normal equations or otherwise degenerate fit."""


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _require_positive(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value <= 0.0:
        raise DomainError(f"{name} must be > 0, got {value!r}")
    return value


def _require_nonnegative(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value < 0.0:
        raise DomainError(f"{name} must be >= 0, got {value!r}")
    return value


@dataclass(frozen=True)
class Constants:
    """CODATA physical constants.

    k_B  Boltzmann constant [J/K]
    hbar reduced Planck constant [J s]
    c    speed of light [m/s]
    g    standard gravity [m/s^2]
    """

    k_B: float = 1.380649e-23
    hbar: float = 1.054571817e-34
    c: float = 2.99792458e8
    g: float = 9.80665


CONST = Constants()


@dataclass(frozen=True)
class Material:
    """Elastic, loss, and thermal properties of a fiber/mirror substance.

    The surface loss anchor ``surface_q_reference`` is a (Q, radius [m])
    pair: the surface-limited quality factor measured at that fiber
    radius, scaled linearly in radius elsewhere.  measured_q, when set,
    is used as the material Q instead of the loss-channel sum (a torsion
    ring-down gives it directly).  Thermal fields may be None for
    materials where the thermoelastic model is not needed.
    """

    name: str
    young_modulus: float            # E [Pa]
    shear_modulus: float            # G [Pa]
    density: float                  # rho [kg/m^3]
    poisson_ratio: float            # sigma, dimensionless
    bulk_loss_angle: float          # phi_mat, dimensionless
    surface_q_reference: tuple[float, float] | None = None  # (Q, r_ref [m])
    measured_q: float | None = None             # directly measured material Q
    thermal_expansion: float | None = None      # alpha [1/K]
    specific_heat: float | None = None          # C [J/(kg K)]
    thermal_conductivity: float | None = None   # kappa_th [W/(m K)]

    def __post_init__(self):
        _require_positive("young_modulus", self.young_modulus)
        _require_positive("shear_modulus", self.shear_modulus)
        _require_positive("density", self.density)
        _require_positive("bulk_loss_angle", self.bulk_loss_angle)
        sigma = _require_finite("poisson_ratio", self.poisson_ratio)
        if not 0.0 <= sigma < 0.5:
            raise DomainError(f"poisson_ratio must be in [0, 0.5), got {sigma}")
        if self.surface_q_reference is not None:
            q_ref, r_ref = self.surface_q_reference
            _require_positive("surface_q_reference Q", q_ref)
            _require_positive("surface_q_reference radius", r_ref)
        for attr in ("measured_q", "thermal_expansion", "specific_heat", "thermal_conductivity"):
            value = getattr(self, attr)
            if value is not None:
                _require_positive(attr, value)


# Handbook values for fused silica; the loss angle is set so that bulk
# plus surface loss at a 0.5 um fiber radius reproduces a material Q
# near 1.2e4.  These are configuration defaults, not measured truth.
FUSED_SILICA = Material(
    name="fused silica",
    young_modulus=72e9,
    shear_modulus=31e9,
    density=2200.0,
    poisson_ratio=0.17,
    bulk_loss_angle=3.3e-5,
    surface_q_reference=(2.0e4, 0.5e-6),
    thermal_expansion=5.5e-7,
    specific_heat=740.0,
    thermal_conductivity=1.38,
)


@dataclass(frozen=True)
class Fiber:
    """Suspension fiber: length [m], radius [m], and material."""

    length: float
    radius: float
    material: Material = FUSED_SILICA

    def __post_init__(self):
        _require_positive("length", self.length)
        _require_positive("radius", self.radius)
        if self.length / self.radius <= 100.0:
            warnings.warn(
                f"fiber aspect ratio l/r = {self.length / self.radius:.1f} <= 100; "
                "thin-fiber model may be inaccurate",
                stacklevel=3,  # past the dataclass __init__ to its caller
            )

    @property
    def cross_section(self) -> float:
        """Cross-sectional area pi r^2 [m^2]."""
        return math.pi * self.radius**2

    @property
    def linear_density(self) -> float:
        """Mass per unit length rho pi r^2 [kg/m]."""
        return self.material.density * self.cross_section


@dataclass(frozen=True)
class TestMass:
    """Suspended mirror: a disk of mass ``mass`` hanging from its rim.

    attachment_offset is the pivot-to-center-of-mass distance; it
    defaults to the disk radius (fiber welded at the rim).  beam_radius
    is the 1/e^2 intensity radius of the readout beam on the face.
    """

    mass: float                     # m [kg]
    disk_radius: float              # R [m]
    thickness: float                # h [m]
    substrate_loss_angle: float = 1e-6
    coating_loss_angle: float = 3e-5
    coating_thickness: float = 4.5e-6   # d [m]
    beam_radius: float = 184e-6         # w [m]
    attachment_offset: float | None = None  # b [m], default R
    density: float | None = None    # optional, for mass-consistency check

    def __post_init__(self):
        _require_positive("mass", self.mass)
        _require_positive("disk_radius", self.disk_radius)
        _require_positive("thickness", self.thickness)
        _require_positive("substrate_loss_angle", self.substrate_loss_angle)
        _require_nonnegative("coating_loss_angle", self.coating_loss_angle)
        _require_nonnegative("coating_thickness", self.coating_thickness)
        _require_positive("beam_radius", self.beam_radius)
        if self.attachment_offset is None:
            object.__setattr__(self, "attachment_offset", self.disk_radius)
        else:
            _require_positive("attachment_offset", self.attachment_offset)
        if self.density is not None:
            implied = self.density * math.pi * self.disk_radius**2 * self.thickness
            mismatch = abs(self.mass - implied) / self.mass
            if mismatch >= 0.2:
                warnings.warn(
                    f"mass {self.mass:.3g} kg differs from density*volume "
                    f"{implied:.3g} kg by {100 * mismatch:.0f}%",
                    stacklevel=3,  # past the dataclass __init__ to its caller
                )

    @property
    def pivot_moment_of_inertia(self) -> float:
        """Moment of inertia about the in-plane diameter axis through the pivot.

        I = m (R^2/4 + h^2/12) + m b^2 (parallel-axis from the CM diameter axis).
        """
        i_cm = self.mass * (self.disk_radius**2 / 4.0 + self.thickness**2 / 12.0)
        return i_cm + self.mass * self.attachment_offset**2

    @property
    def spin_moment_of_inertia(self) -> float:
        """Moment of inertia about the disk symmetry axis, m R^2 / 2."""
        return self.mass * self.disk_radius**2 / 2.0


@dataclass(frozen=True)
class Environment:
    """Thermal bath and residual-gas environment."""

    temperature: float = 300.0          # T [K]
    pressure: float = 0.0               # P [Pa]
    gas_molecular_mass: float = 4.8e-26  # [kg], air

    def __post_init__(self):
        _require_positive("temperature", self.temperature)
        _require_nonnegative("pressure", self.pressure)
        _require_positive("gas_molecular_mass", self.gas_molecular_mass)


def zero_point_motion(mass: float, omega: float) -> float:
    """RMS zero-point displacement sqrt(hbar / (2 m omega)) [m].

    Args:
        mass: oscillator mass [kg], > 0
        omega: resonance angular frequency [rad/s], > 0
    """
    _require_positive("mass", mass)
    _require_positive("omega", omega)
    return math.sqrt(CONST.hbar / (2.0 * mass * omega))


def thermal_decoherence_rate(temperature: float) -> float:
    """Thermal decoherence rate k_B T / hbar [rad/s]."""
    _require_positive("temperature", temperature)
    return CONST.k_B * temperature / CONST.hbar


# ---------------------------------------------------------------------------
# Exact number cells for the CSV, JSON and SVG writers, and back
# ---------------------------------------------------------------------------

# exact float64 powers of ten: 10^k is representable for k <= 22
_POW10 = np.array([float(10**k) for k in range(23)])
# ASCII "0000".."9999" and "e-99".."e+99" as 4-byte cells
_DIGIT_QUADS = np.frombuffer(
    "".join(f"{k:04d}" for k in range(10_000)).encode("ascii"), dtype="V4"
)
_EXPONENTS = np.frombuffer(
    "".join(f"e{k:+03d}" for k in range(-99, 100)).encode("ascii"), dtype="V4"
)
# "0.".."9." as 2-byte cells
_LEAD_DOTS = np.frombuffer(b"".join(b"%d." % k for k in range(10)), dtype="V2")
# widest JSON number cell: sign, 16 integer digits, ".", 1 digit
_JSON_FLOAT_WIDTH = 19


def _times_pow10(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """a * 10^k, correctly rounded, for integer |k| <= 22."""
    scale = _POW10[np.abs(k)]
    quotient = np.divide(a, scale)
    # the product goes into the scale's buffer; a masked copy is cheaper
    # than a masked divide
    product = np.multiply(a, scale, out=scale)
    np.copyto(product, quotient, where=k < 0)
    return product


def _sci_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ok, digits, e): _CSV_FLOAT % x is digits / 10^8 * 10^e where ok.

    With e = floor(log10|x|), the 9 significant digits are rint(m) for
    m = |x| 10^k, k = 8 - e.  The scale is two exact powers of ten,
    10^(k // 2) and then the rest, both within 10^±22 for |k| <= 44, so
    m is rounded at most twice: within 2.3e-7 of the true scaled value,
    since m < 2^30.  Not ok are the cells this cannot get right:
    near-ties of the last digit (rint may round the other way than the
    exact decimal expansion), a log10 off by one (rint(m) outside
    [1e8, 1e9)), zero, non-finite values, 3-digit exponents and scales
    beyond 10^44.
    """
    # each step writes over a buffer it no longer needs where it can, so
    # a chunk holds a few value-sized arrays at a time
    m = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):  # zero and non-finite are not ok
        e = np.log10(m)
        np.floor(e, out=e)
        # |e| < 100 and |8 - e| <= 44 for an integral e; NaN fails both
        ok = (e >= -36.0) & (e <= 52.0)
        bad = ~ok
        k = np.subtract(8.0, e)
        k[bad] = 0.0
        k = k.astype(np.intp)
        e[bad] = 0.0
        e = e.astype(np.int32)
        m = _times_pow10(m, k // 2)
        k -= k // 2
        m = _times_pow10(m, k)
        digits = np.rint(m)
        frac = np.floor(m)
        np.subtract(m, frac, out=frac)
        frac -= 0.5
        np.abs(frac, out=frac)
        ok &= (digits >= 1e8) & (digits < 1e9) & (frac > 1e-6)
    digits[~ok] = 1e8
    e[~ok] = 0
    return ok, digits.astype(np.int32), e


def _sci_spans(
    x: np.ndarray, end: bytes
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ok, high, low, e, span) of x: ok and e of _sci_digits(x), its digits
    after the leading one as two quads, and the unsigned cell d.dddddddde±dd then end."""
    ok, d, e = _sci_digits(x)
    # floor division by a scalar is several times faster than np.divmod
    upper = d // 10_000
    lead = upper // 10_000
    high, low = upper - lead * 10_000, d - upper * 10_000
    span = np.empty((x.size, 14 + len(end)), dtype=np.uint8)
    span[:, 0:2].view("V2")[:, 0] = _LEAD_DOTS[lead]
    span[:, 2:6].view("V4")[:, 0] = _DIGIT_QUADS[high]
    span[:, 6:10].view("V4")[:, 0] = _DIGIT_QUADS[low]
    span[:, 10:14].view("V4")[:, 0] = _EXPONENTS[e + 99]
    span[:, 14:] = np.frombuffer(end, dtype=np.uint8)
    return ok, high, low, e, span


def _put_exact(cells: np.ndarray, bad: np.ndarray, exact: list[str]) -> np.ndarray:
    """cells with rows bad set to the ASCII strings exact, NUL padded;
    widened when a string is longer than a row."""
    encoded = [s.encode("ascii") for s in exact]
    width = max(cells.shape[1], *map(len, encoded))
    cells = np.pad(cells, ((0, 0), (0, width - cells.shape[1])))
    cells[bad] = np.array(encoded, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return cells


class _CsvColumn(NamedTuple):
    """One column's values and their _CSV_FLOAT cells: ok, sign and span
    as _csv_rows lays them out."""

    x: np.ndarray
    ok: np.ndarray
    neg: np.ndarray
    span: np.ndarray


def _csv_column(values, end: bytes = b",") -> _CsvColumn:
    """The cells of values, each span ending in end: a column laid out
    once, for several _csv_rows calls that share it."""
    x = np.asarray(values, dtype=float)
    ok, *_, span = _sci_spans(x, end)
    return _CsvColumn(x, ok, x < 0.0, span)


def _csv_rows(columns, suffix: str) -> np.ndarray:
    """UTF-8 bytes of one row per index of the equal-length columns: the
    row's _CSV_FLOAT cells joined by "," and then suffix.

    A column is its values or, for any but the last, the _csv_column of
    them.  A plain cell is [-]d.dddddddde±dd.  Each column's cells are
    laid out once, dense and unsigned, ending in "," (the last column's
    in suffix), and copied to their computed byte offsets in the text as
    fixed-width spans, after a "-" where the cell is negative.  A row
    holding a cell _sci_digits cannot get right is formatted whole with
    Python's %; its plain spans land past the end and are cut off.
    """
    *head, last = columns
    cols = [c if isinstance(c, _CsvColumn) else _csv_column(c) for c in head]
    cols.append(_csv_column(last, suffix.encode("utf-8", "surrogatepass")))
    ok = cols[0].ok
    for c in cols[1:]:
        ok = ok & c.ok
    plain = sum(c.span.shape[1] + 1 for c in cols)  # widest plain row
    width = sum(c.neg + c.span.shape[1] for c in cols)
    slow = np.flatnonzero(~ok)
    exact = [
        (",".join(_CSV_FLOAT % v for v in row) + suffix).encode("utf-8", "surrogatepass")
        for row in zip(*(c.x[slow].tolist() for c in cols))
    ]
    width[slow] = lengths = [len(row) for row in exact]
    stop = np.cumsum(width)
    total = int(stop[-1]) if stop.size else 0
    out = np.empty(total + plain, dtype=np.uint8)
    at = np.subtract(stop, width, out=width)  # each row's first byte, in width's buffer
    at[slow] = total
    for c in cols:
        # a plain cell's first digit overwrites the 0
        out[at] = np.where(c.neg, np.uint8(ord("-")), np.uint8(0))
        at += c.neg
        w = c.span.shape[1]
        windows = np.ndarray((out.size - w + 1,), dtype=f"V{w}", buffer=out, strides=(1,))
        windows[at] = c.span.view(f"V{w}")[:, 0]
        at += w
    if slow.size:
        shift = np.repeat(stop[slow] - np.cumsum(lengths), lengths)
        out[shift + np.arange(shift.size)] = np.frombuffer(b"".join(exact), dtype=np.uint8)
    return out[:total]


def _csv_text(columns, suffix: str) -> str:
    """The text of _csv_rows(columns, suffix)."""
    return codecs.decode(_csv_rows(columns, suffix), "utf-8", "surrogatepass")


def _word(octets: bytes) -> np.uint64:
    """The 8 bytes as one little-endian word."""
    return np.uint64(int.from_bytes(octets, "little"))


# _csv_float_pairs reads a cell as two words from its first digit:
# head = d0 "." d1..d6 and tail = d7 d8 "e" sign x1 x2, then x3 or the
# cell's end.  Xor with the template leaves digit values in digit bytes
# and 0 in fixed bytes; adding 0x76 to a digit byte (0x7f to a fixed
# byte) sets its high bit iff it is out of range.  The bytes are ASCII,
# so no carry crosses a byte.
_HEAD, _HEAD_ADD = _word(b"0.000000"), _word(b"\x76\x7f\x76\x76\x76\x76\x76\x76")
_TAIL, _TAIL_ADD = _word(b"00e\0" b"00\0\0"), _word(b"\x76\x76\x7f\0\x76\x76\0\0")
_HEAD_HIGH, _TAIL_HIGH = _word(b"\x80" * 8), _word(b"\x80\x80\x80\0\x80\x80\0\0")


_LANES = _word(b"\xff\0\0\0\xff\0\0\0")  # bytes 0 and 4


def _eight_digits(v: np.ndarray) -> np.ndarray:
    """Values of 8 decimal digits, one per byte of each word, first digit lowest."""
    v = v * np.uint64(10) + (v >> np.uint64(8))  # 2-digit values in bytes 0, 2, 4, 6
    low, high = v & _LANES, (v >> np.uint64(16)) & _LANES
    # 4-digit values in the two halves; the high half then holds the 8-digit value
    v = low * np.uint64(100 + (1_000_000 << 32)) + high * np.uint64(1 + (10_000 << 32))
    return v >> np.uint64(32)


def _csv_float_pairs(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The two columns of rows of two _CSV_FLOAT cells, or None if a row is not one.

    The reading mirror of _csv_rows.  A canonical row is two cells
    [-]d.dddddddde±dd[d] joined by "," and ended by "\\n"; any other text
    (CRLF, spaces, "1_0", "nan", short cells, non-ASCII) gives None, and
    the caller takes a general parser.  A cell is its 9-digit integer
    times 10^k, k = exponent - 8; for |k| <= 22 that is one correctly
    rounded multiply or divide of exact operands (Clinger, PLDI 1990),
    so the value is float()'s, bit for bit.  Cells with larger |k| take
    float() one by one.  What it takes also decides trace_from_csv's
    time rule: only its rows have the known rounding of 9-digit cells.
    """
    if not text.isascii() or not text.endswith("\n"):
        return None
    raw = (text + "\0" * 16).encode("ascii")
    n = len(text)
    buf = np.frombuffer(raw, dtype=np.uint8)
    # 16 bytes from every position: the two words of a cell
    windows = np.ndarray((n + 1,), dtype="V16", buffer=raw, strides=(1,))
    ends = np.flatnonzero(buf[:n] == ord("\n"))
    start = np.concatenate(([0], ends[:-1] + 1))
    columns = []
    for sep in (",", "\n"):
        neg = buf[start] == ord("-")
        first = start + neg
        words = windows[first].view("<u8").reshape(-1, 2)
        head, tail = words[:, 0] ^ _HEAD, words[:, 1] ^ _TAIL
        tail_bytes = tail.view(np.uint8).reshape(-1, 8)
        sign, x3 = tail_bytes[:, 3], tail_bytes[:, 6]
        three = x3 - np.uint8(ord("0")) < 10  # a 3-digit exponent
        end = first + 14 + three
        if (
            (((head + _HEAD_ADD) & _HEAD_HIGH) | ((tail + _TAIL_ADD) & _TAIL_HIGH)).any()
            or not ((sign == ord("+")) | (sign == ord("-"))).all()
            or not (np.array_equal(end, ends) if sep == "\n" else (buf[end] == ord(sep)).all())
        ):
            return None
        sig = ((head & np.uint64(0xFF)) * np.uint64(10**8)
               + _eight_digits((head >> np.uint64(16)) | (tail << np.uint64(48))))
        values = sig.astype(float) * (1.0 - 2.0 * neg)
        # k + 22 mod 256, as 44 - sign is 1 for "+" and 255, that is -1, for "-"
        k22 = (tail_bytes[:, 4] * np.uint8(10) + tail_bytes[:, 5]) * (np.uint8(44) - sign)
        k22 += np.uint8(14)
        values = _times_pow10(values, np.minimum(k22, 44).astype(np.intp) - 22)
        slow = np.flatnonzero((k22 > 44) | three)
        if slow.size:
            cells = zip(start[slow].tolist(), end[slow].tolist())
            values[slow] = [float(raw[i:j]) for i, j in cells]
        columns.append(values)
        start = end + 1
    return tuple(columns)


# _json_float_bytes lays a cell out from the span of _sci_spans(x, _JSON_END):
# columns 0 and 2-9 the digits, 1 ".", 10-13 "e±dd", then "0" and NUL
_JSON_END, _SPAN_DOT, _SPAN_ZERO, _SPAN_NUL = b"0\0", 1, 14, 15
# trailing zeros of each 4-digit quad "0000".."9999"
_TRAILING_ZEROS = sum(np.arange(10_000) % 10**j == 0 for j in range(1, 5)).astype(np.int32)


def _json_sci_keep() -> np.ndarray:
    """0xFF on the span columns a scientific-notation JSON cell keeps, by
    significant digits - 1: the leading digit, "." and the digits after
    it when there are any, and "e±dd"."""
    col = np.arange(14)
    n = np.arange(1, 10)[:, None]
    keep = (col == 0) | ((col <= n) & (n > 1)) | (col >= 10)
    return np.where(keep, 0xFF, 0).astype(np.uint8)


def _json_fixed_layouts() -> np.ndarray:
    """Span column of each fixed-notation JSON cell column after the
    sign, by (decimal exponent + 4, significant digits - 1)."""
    e = np.arange(-4, 16)[:, None, None]
    n = np.arange(1, 10)[None, :, None]
    j = np.arange(_JSON_FLOAT_WIDTH - 1)
    # n_int integer digits, then "." and n_frac fraction digits (the
    # digits after them)
    n_int = np.where(e < 0, 1, e + 1)
    n_frac = np.maximum(n - 1 - e, 1)
    frac = j - n_int - 1  # position among the fraction digits
    # index of the digit shown: 0 is the leading one, those outside 0..8 are "0"
    digit = np.minimum(e, 0) + j - (j >= n_int)
    digit_col = np.where((digit < 0) | (digit > 8), _SPAN_ZERO, digit + (digit > 0))
    index = np.select(
        [j < n_int, frac < 0, frac < n_frac], [digit_col, _SPAN_DOT, digit_col], _SPAN_NUL
    )
    return index.astype(np.uint8)


_JSON_SCI_KEEP = _json_sci_keep()
_JSON_FIXED_LAYOUTS = _json_fixed_layouts()


def _json_float_bytes(values) -> np.ndarray:
    """Cells of json's float(_CSV_FLOAT % v) as ASCII rows, NUL padded.

    That is float.__repr__ of the 9-digit value: its significant digits
    with trailing zeros stripped, in fixed notation for decimal
    exponents -4..15 ("0.000123", "1234.5", "1000000000000000.0") and
    in scientific notation otherwise ("1.5e-18", "1e-05", "1e+16").  A
    scientific cell is its span with the stripped digits (and a lone
    digit's ".") set to NUL; a fixed cell is gathered from its span
    through _JSON_FIXED_LAYOUTS.  Cells _sci_digits cannot get right
    fall back to json.dumps.
    """
    x = np.asarray(values, dtype=float)
    ok, high, low, e, span = _sci_spans(x, _JSON_END)
    n = 9 - _TRAILING_ZEROS[low]  # significant digits
    n -= np.where(low == 0, _TRAILING_ZEROS[high], 0)
    cells = np.zeros((x.size, _JSON_FLOAT_WIDTH), dtype=np.uint8)
    cells[:, 0] = np.where(x < 0.0, ord("-"), 0)
    cells[:, 1:15] = span[:, :14] & _JSON_SCI_KEEP[n - 1]
    fixed = np.flatnonzero((e >= -4) & (e <= 15))
    # a flat take: np.take_along_axis is twice as slow here
    layout = _JSON_FIXED_LAYOUTS[e[fixed] + 4, n[fixed] - 1]
    cells[fixed, 1:] = span.ravel()[(fixed * span.shape[1])[:, None] + layout]
    bad = np.flatnonzero(~ok)
    if bad.size:
        exact = [json.dumps(float(_CSV_FLOAT % v)) for v in x[bad].tolist()]
        cells = _put_exact(cells, bad, exact)
    return cells


def _cell_rows(parts) -> str:
    """Text of rows laid out as parts, one row per value.

    A part is a NUL-padded cell matrix (its NULs are dropped) or a
    string without NUL repeated whole on every row.  Each row's piece of
    a part is copied as one fixed-width item.
    """
    n_rows = next(len(p) for p in parts if isinstance(p, np.ndarray))
    items = [
        p.view(f"V{p.shape[1]}")[:, 0] if isinstance(p, np.ndarray)
        else np.void(p.encode("utf-8", "surrogatepass"))
        for p in parts
    ]
    rows = np.empty((n_rows, sum(item.itemsize for item in items)), dtype=np.uint8)
    col = 0
    for item in items:
        if item.itemsize:  # not an empty string
            rows[:, col : col + item.itemsize].view(item.dtype)[:, 0] = item
        col += item.itemsize
    return rows.tobytes().translate(None, b"\0").decode("utf-8", "surrogatepass")
