"""odfkit's one file format: a header row of column names, then one row per point.

Fields are joined by "," and lines end in CRLF; floats are '%.17e', which reads
back to the same bits, and text is '%s', unquoted.  `write_rows` formats a block
of fields at a time into slots of whole 4-byte words, each holding a field and its
separator: a float's 28-byte slot is seven table lookups, four digits or an exponent
a word.  It deletes the NUL bytes a field leaves unused, so text may not hold a NUL.
`ScanDataset.from_csv` reads a scan back, and a fault in the file is one ValueError
that names the file.

The module loads no numpy: a table of Python values, from a process that has not
loaded it, is formatted row by row with Python's %, and each function that takes
arrays imports numpy itself.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import warnings
from typing import TYPE_CHECKING

from .core import Record

if TYPE_CHECKING:
    import numpy as np


def _freeze_arrays(obj, names):
    """Set the named fields to read-only float views (not copies), equal-length and finite."""
    import numpy as np

    arrays = [np.asarray(getattr(obj, name), dtype=float).view() for name in names]
    if len({len(arr) for arr in arrays}) > 1:
        raise ValueError(f"{', '.join(names)} must have equal lengths")
    for name, arr in zip(names, arrays):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)
    return arrays


class ScanDataset(Record):
    """A binomial P_up scan: abscissa / p_up / sigma triples plus provenance metadata.

    The abscissa is mu/2pi in Hz (thermometry), theta1 in rad (precession)
    or tau in s (gamma decay); p_up is a fraction in [0, 1] and sigma its
    standard error, > 0.
    """

    abscissa: np.ndarray
    p_up: np.ndarray
    sigma: np.ndarray
    meta: dict = {}  # copied for each record

    def __post_init__(self):
        import numpy as np

        _, p_up, sigma = _freeze_arrays(self, ("abscissa", "p_up", "sigma"))
        if np.any((p_up < 0) | (p_up > 1)):
            raise ValueError("p_up must lie in [0, 1]")
        if np.any(sigma <= 0):
            raise ValueError("sigma must be > 0 elementwise")

    def __len__(self):
        return len(self.abscissa)

    def to_csv(self, path):
        """Write header + rows; full-precision scientific notation."""
        write_rows(path, ["abscissa", "p_up", "sigma"], (self.abscissa, self.p_up, self.sigma))

    @classmethod
    def from_csv(cls, path):
        """Read a CSV written by to_csv; a malformed file is a ValueError naming it."""
        import numpy as np

        try:
            with open(path) as fh, warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: the error below
                width = len(fh.readline().split(","))
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            if len(data) == 0:
                raise ValueError("no data rows")
            if width < 3 or data.shape[1] != width:
                raise ValueError("every row must have as many fields as the header, at least 3")
            return cls(abscissa=data[:, 0], p_up=data[:, 1], sigma=data[:, 2])
        except ValueError as err:  # loadtxt's hint names an option odfkit does not have
            raise ValueError(f"{path}: {str(err).partition('; use `usecols`')[0]}") from None


class Series(Record):
    """Sample times t in s and the values there, plus provenance metadata.

    Drift is in degrees, path noise is in meters.
    """

    t: np.ndarray
    value: np.ndarray
    meta: dict = {}  # copied for each record

    def __post_init__(self):
        _freeze_arrays(self, ("t", "value"))

    def __len__(self):
        return len(self.t)

    def to_csv(self, path):
        """Write the t_s,value header + rows; full-precision scientific notation."""
        write_rows(path, ["t_s", "value"], (self.t, self.value))


# fields per write: 2048 rows at 4 float columns, 2730 at 3 and 4096 at 2.  A block's
# buffers stay under 1 MiB, since its unused bytes are deleted rather than masked
_BLOCK_FIELDS = 8192
_SLOT = 28  # bytes of a float field and its separator: seven "<u4" words
_POW10 = {}  # q -> 10**q as a double-double, filled on first use


def _pow10(q):
    """(hi, hi's high and low 26 bits, lo, e), 10**q = (hi + lo) 2**e to ~2**-106, from ints."""
    if q not in _POW10:
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        shift = 111 - num.bit_length() + den.bit_length()
        m = (num << shift) // den if shift >= 0 else num // (den << -shift)
        top = m.bit_length() - 1
        hi = math.ldexp(float(m), -top)
        hh = 134217729.0 * hi - (134217729.0 * hi - hi)  # Veltkamp split
        _POW10[q] = (hi, hh, hi - hh, math.ldexp(float(m - int(float(m))), -top), top - shift)
    return _POW10[q]


def _scaled(a, k):
    """a 10**(17 - k) = p + f + frac to ~1e-14, p integer-valued, f = floor(rest), 0 <= frac < 1.

    Dekker's exact product of frexp's mantissa and the double-double power of ten, then ldexp.
    """
    import numpy as np

    k_min = int(k.min())
    table = np.array([_pow10(17 - q) for q in range(k_min, int(k.max()) + 1)]).T
    hi, hh, hl, lo, e = table.take((k - k_min).astype(np.intp), axis=1)
    m, scale = np.frexp(a)
    np.add(scale, e, out=scale, casting="unsafe")  # e: a whole number held as a float
    mh = m * 134217729.0 - (m * 134217729.0 - m)  # Veltkamp split
    ml = m - mh
    p = m * hi
    r1 = np.ldexp(((mh * hh - p) + mh * hl + ml * hh) + ml * hl, scale)
    r2 = np.ldexp(m * lo, scale)
    f = np.floor(r1 + r2)
    return np.ldexp(p, scale), f, (r1 - f) + r2


def _decimal(x):
    """|x| rounded to (high 1e8 + low) 10**(k - 17), high of 10 digits and low of 8, exact floats.

    Also returns the indices left to Python: zeros, non-finite values, values within
    1e-6 of a tie (which rounds half-even) and those that round up to a power of ten.
    """
    import numpy as np

    a = np.abs(x)
    special = ~((a > 0.0) & (a < np.inf))  # zero, infinite or nan
    a[special] = 1.0
    k = np.floor(np.log10(a))
    p, f, frac = _scaled(a, k)
    off = np.flatnonzero(((p - 1e17) + f < 0.0) | ((p - 1e18) + f >= 0.0))  # log10 a decade off
    if off.size:
        k[off] += np.where(p[off] < 5e17, -1.0, 1.0)
        p[off], f[off], frac[off] = _scaled(a[off], k[off])
    f += np.floor(frac + 0.5)  # to nearest: ties are escaped
    high = np.floor(p / 1e8)  # an exact product and a Sterbenz difference, then a carry
    low = (p - high * 1e8) + f
    carry = np.floor(low / 1e8)
    high += carry
    low -= carry * 1e8
    return high, low, k, np.flatnonzero(special | (np.abs(frac - 0.5) < 1e-6) | (high >= 1e10))


@functools.cache
def _tables():
    """The read-only "<u4" word tables (digits, exp), built on the first float block.

    Word q < 10000 of digits is the four digits of q, and word 10000 + 10 d0 + d1 is
    [NUL, d0, '.', d1].  exp maps a separator to its table, whose row k + 330 is the
    words ['e', sign, hundreds or NUL, tens][ones, separator, NUL...] for k in -330..309.
    They are built from bytes (numpy shifts and ORs leave temporaries that raised the
    peak RSS), and on the first float block rather than at import (the build takes ~2 ms).
    """
    import numpy as np

    quads = bytes(itertools.chain.from_iterable(itertools.product(range(48, 58), repeat=4)))
    leads = b"".join(b"\0%d.%d" % divmod(q, 10) for q in range(100))
    exps = [b"e%+03d" % k for k in range(-330, 310)]
    exps = [e if len(e) == 5 else e[:2] + b"\0" + e[2:] for e in exps]
    return np.frombuffer(quads + leads, "<u4"), {
        sep: np.frombuffer(b"".join((e + sep).ljust(8, b"\0") for e in exps), "<u4").reshape(-1, 2)
        for sep in (b",", b"\r\n")}


def _format_floats(x, words, sep):
    """Write '%.17e' % v of each v in x, then sep, into the (n, 7) "<u4" slots words.

    Returns the indices of the fields left to Python (see `_decimal`).  Words 0-4 are
    one take from the digit table (see `_tables`): the leading word of floor(high / 1e8),
    with the sign ORed in, then the rest of high and then low, each split at 1e4 into
    two groups of four digits.  Words 5-6 are sep's exponent table's row for k.  A
    slot's unused bytes hold NUL: its sign for v >= 0, an exponent's hundreds digit
    when it has two digits, and the bytes after sep.
    """
    import numpy as np

    digits, exp = _tables()
    high, low, k, escape = _decimal(x)
    groups = np.empty((5, len(x)))  # d0 d1, then four-digit groups of high and of low
    np.floor(np.divide(high, 1e8, out=groups[0]), out=groups[0])
    np.subtract(high, 1e8 * groups[0], out=groups[2])
    groups[4] = low
    np.floor(np.divide(groups[2::2], 1e4, out=groups[1:4:2]), out=groups[1:4:2])
    groups[2::2] -= 1e4 * groups[1:4:2]
    groups[0] += 10000.0
    words[:, :5] = digits.take(groups.astype(np.intp), mode="clip").T  # high >= 1e10 escapes
    words[:, 5:] = exp[sep].take((k + 330.0).astype(np.intp), axis=0)
    np.bitwise_or(words[:, 0], ord("-"), out=words[:, 0], where=x < 0.0)
    return escape


def write_rows(path, header, columns):
    """The one CSV writer: header, then rows of %.17e floats and %s others; CRLF line ends.

    A block of _BLOCK_FIELDS fields is one byte matrix with a slot per field that
    holds the field and its separator.  The bytes a field leaves unused hold NUL, and
    one translate per block deletes them.  A float slot is _SLOT bytes, seven "<u4"
    words that `_format_floats` fills from its tables, and Python's % writes the fields
    it leaves.  A text column is one byte matrix of cells and separators, NUL-padded
    to whole words too, so every slot starts on a 4-byte boundary.  A process that
    has not loaded numpy holds no arrays: its columns are Python values, a column of
    floats among them, and Python's % writes every field, since loading numpy (60-95
    ms) costs more than the small tables such a process writes.  A header that does
    not name each column, columns of unequal length and text that holds a NUL are
    ValueErrors.
    """
    np = sys.modules.get("numpy")  # None: the columns hold Python values
    columns = [list(col) if np is None else np.asarray(col) for col in columns]
    if not columns or len(header) != len(columns):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    lengths = sorted({len(col) for col in columns})
    if len(lengths) > 1:
        raise ValueError(f"columns must have equal lengths, not {lengths}")
    n_rows = lengths[0]
    if np is None:
        text = [None if all(isinstance(v, float) for v in col) else ["%s" % v for v in col]
                for col in columns]
    else:
        text = [None if col.dtype.kind == "f" else ["%s" % v for v in col.tolist()]
                for col in columns]
    if any("\0" in v for cells in text if cells is not None for v in cells):
        raise ValueError("a text field holds a NUL character")
    seps = [b","] * (len(columns) - 1) + [b"\r\n"]
    block = max(1, _BLOCK_FIELDS // len(columns))
    with open(path, "w", newline="") as fh:
        encoding = fh.encoding
        fh.buffer.write((",".join(header) + "\r\n").encode(encoding))
        if np is None:
            cells = [["%.17e" % v for v in col] if strs is None else strs
                     for col, strs in zip(columns, text)]
            rows = "".join(",".join(row) + "\r\n" for row in zip(*cells))
            fh.buffer.write(rows.encode(encoding))
            return
        for j, cells in enumerate(text):
            if cells is not None:  # each cell and its separator, NUL-padded to whole words
                cells = [v.encode(encoding) + seps[j] for v in cells]
                width = (max(map(len, cells), default=1) + 3) // 4 * 4
                text[j] = np.array(cells, f"S{width}").view(np.uint8).reshape(n_rows, width)
        widths = [_SLOT if cells is None else cells.shape[1] for cells in text]
        starts = list(itertools.accumulate(widths, initial=0))
        out = np.empty((min(n_rows, block), starts[-1]), np.uint8)
        words = out.view("<u4")
        for start in range(0, n_rows, block):
            o = out[:n_rows - start]
            for col, cells, sep, s in zip(columns, text, seps, starts):
                if cells is not None:
                    o[:, s:s + cells.shape[1]] = cells[start:start + len(o)]
                    continue
                x = np.asarray(col[start:start + len(o)], float)
                rows = _format_floats(x, words[:len(o), s // 4:(s + _SLOT) // 4], sep)
                for i, v in zip(rows.tolist(), x[rows].tolist()):
                    field = (("%.17e" % v).encode(encoding) + sep).ljust(_SLOT, b"\0")
                    o[i, s:s + _SLOT] = np.frombuffer(field, np.uint8)
            fh.buffer.write(o.tobytes().translate(None, b"\0"))
