"""CSV and manifest emission.

Every CSV starts with '#'-prefixed metadata lines (tool version, full
run configuration, seed) followed by a header row and data rows.  Floats
are written with shortest round-trip repr, so a fixed configuration
yields byte-identical files.  Run-varying metadata (wall time) goes to
the sibling JSON manifest, keeping the CSVs diffable.

A table of at least ``_MIN_ROWS`` rows whose columns are all 1-D float
(up to float64) or integer arrays is written in blocks of
``_BLOCK_ROWS`` rows, each block laid out as bytes by numpy kernels and
written at once; its bytes equal the per-cell ``repr``/``str`` text.
The float columns of a block find their digits in one search over all
their cells, two columns at a time (``_PASS_COLUMNS``), so each numpy
call of the search pays its fixed cost once for both; each column then
takes its own slice of the results, its own width and its own ``repr``
cells.  Each column's kernel writes its cells straight into their
columns of one preallocated (rows x line width) byte matrix, beside the
separators, with NUL in every byte that its text does not fill; one
``bytes.translate`` per block strips the NULs (no byte of a text is
NUL) and leaves the rows.  The kernels work in place where they can:
the heap is trimmed after each block, so every page that a block's
peak holds is faulted in again by the next block.
Integers are cut into digits by repeated integer division.  A float
x with 1e-4 <= |x| < 1e15 gets ``repr``'s digits in positional layout:
x * 10^s, with s giving 17 significant digits, is formed exactly as a
double-double (Dekker's two-product on Veltkamp halves; numpy has no
fma) and rounded to an integer D.  Trailing digits of D are then
dropped while the rounded value stays strictly within half an ulp of
x; since that acceptance is upward-closed in the digit count, where it
stops is the shortest round-trip text, and the nearest candidate at
that length is the one ``repr`` prints.  A cell goes through ``repr``
when the kernel cannot decide it exactly: non-finite values and zero,
|x| outside [1e-4, 1e15) (which ``repr`` may write in exponent form),
exact powers of two (whose rounding interval is asymmetric), and any
candidate within a relative 2^-30 of the interval edge or of a
rounding tie.  So does every cell still undecided once a search is down
to ``_TAIL_CELLS`` of them.  Float32 and float16 cells are formatted
from their exact float64 value, and uint64 columns above 2^63 - 1 go
through ``str``.
Shorter tables, and tables with other columns (bool, str, object,
complex, longdouble), are written cell by cell through ``_fmt``, which
writes a longdouble cell as the ``repr`` of its float64 rounding.

Files are written to a temporary name in the same directory and renamed
into place (``_atomic_write``), so a reader never sees a partial file.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from pathlib import Path

import numpy as np

# Tables below this many rows keep the per-cell path: the kernels' fixed
# cost (about 0.35 ms for two float columns) is more than repr's there;
# the two break even at 300-400 rows.
_MIN_ROWS = 400
# Rows per block.  With one digit search per column, 8192 rows were 22%
# faster in-process on `portrait` CSVs but 9% slower in fresh processes
# (2 of 12 pairs won); with the merged search they won 12 of 14 fresh
# pairs (-14% CPU) at 1 MB more peak RSS, not yet weighed by the
# benchmark.  16384 raised the peak RSS of a 10^4-row `lyapunov` field
# by 2.8 MB.
_BLOCK_ROWS = 4096
# Float columns of a block share one digit search, this many at a time.
# Three at a time doubled the minor page faults of writing a 10^4-row
# `lyapunov` field (883 against 442 per call).
_PASS_COLUMNS = 2
# A digit search stops with this many undecided cells or fewer and hands
# them to repr: its last passes cost more than repr does for them.
_TAIL_CELLS = 48

_FIXED_LO, _FIXED_HI = 1e-4, 1e15  # |x| laid out here; repr's positional range runs to 1e16
_BAND = 2.0**-30  # relative band around an acceptance edge or tie that goes to repr
_FILLER = 0.1 + 0.2  # stands in for repr's cells; its 17 digits leave the loop at once
_MANTISSA = np.uint64((1 << 52) - 1)
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter
_MINUS = np.uint8(ord("-"))


def _ceil_decade(k: int) -> float:
    """The smallest double >= 10^k, from integers only."""
    if k >= 0:
        return float(10**k)
    t = 1 / 10**-k  # int / int is correctly rounded
    num, den = t.as_integer_ratio()
    return t if num * 10**-k >= den else float(np.nextafter(t, np.inf))


def _floor_log10_pow2(e: int) -> int:
    """floor(log10(2^e)), from integers only."""
    return len(str(2**e)) - 1 if e >= 0 else -len(str(2**-e))


_DEC0 = 5  # _DECADES[k + _DEC0] = the smallest double >= 10^k, k = -5..16
_DECADES = np.array([_ceil_decade(k) for k in range(-_DEC0, 17)])
_EXP0 = 1023 - 15  # biased exponents of [2^-15, 2^50) index _E10_LOW
_E10_LOW = np.array([_floor_log10_pow2(e) for e in range(-15, 50)], dtype=np.int64)
_POW10 = np.array([float(10**k) for k in range(21)])  # exact
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_POW10_INT = np.array([10**k for k in range(19)], dtype=np.int64)
_POW10_UINT = np.array([10**k for k in range(20)], dtype=np.uint64)
_DIGITS = np.arange(48, 58, dtype=np.uint8)  # ASCII "0".."9"
# the four ASCII digits of 0..9999 as one little-endian word each
_QUADS = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"), axis=-1).view("<u4").ravel()


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _column_text(a: np.ndarray):
    """Cell texts of one column, as ``_fmt`` writes them.

    Float (up to float64) and integer columns are formatted in one pass
    over ``a.tolist()``; other dtypes (bool, str, object, complex,
    longdouble) go through ``_fmt`` cell by cell, since ``tolist`` would
    turn numpy bools into Python bools, which ``_fmt`` writes as
    integers, and leave longdouble items numpy scalars, whose ``repr``
    names the type.
    """
    if a.ndim == 1 and a.dtype.kind == "f" and a.dtype.itemsize <= 8:
        return map(repr, a.tolist())
    if a.ndim == 1 and a.dtype.kind in "iu":
        return map(str, a.tolist())
    return map(_fmt, a)


def _kernel_column(a: np.ndarray) -> bool:
    """Whether the block kernels format column ``a``."""
    return a.ndim == 1 and (a.dtype.kind in "iu" or (a.dtype.kind == "f" and a.dtype.itemsize <= 8))


def _scaled(x, s):
    """x * 10^s = D + frac for integer D, with frac rounded once.

    The in-place steps and ``del`` keep the temporaries that are alive at
    once few, and with them the pages the next block faults in again."""
    xh = _SPLIT * x
    xh -= xh - x  # Veltkamp: xh + xl = x, halves of at most 26 bits
    xl = x - xh
    p, ph, pl = _POW10.take(s), _POW10_HI.take(s), _POW10_LO.take(s)
    hi = x * p
    lo = xh * ph
    lo -= hi
    lo += xh * pl
    lo += xl * ph
    lo += xl * pl  # Dekker: hi + lo = x * p exactly
    del xh, xl, p, ph, pl
    a = np.rint(hi)
    r = np.subtract(hi, a, out=hi)  # exact
    f = r + lo
    t = f - r
    lo -= t
    r -= f - t
    e = np.add(r, lo, out=r)  # Knuth: f + e = r + lo exactly
    b = np.rint(f)
    f -= b
    f += e
    D = a.astype(np.int64)
    D += b.astype(np.int64)
    return D, f


def _shortest(ax):
    """Shortest round-trip digits of positive doubles ax in [1e-4, 1e15)
    that are not powers of two: (D, s, slow) with repr's digits those of
    D * 10^-s, s >= 0; ``slow`` marks the cells left to ``repr``."""
    expo = (ax.view(np.uint64) >> np.uint64(52)).astype(np.int64)
    s = _E10_LOW.take(expo - _EXP0)
    s += ax >= _DECADES.take(s + (_DEC0 + 1))  # now floor(log10(ax)), exactly
    np.subtract(16, s, out=s)
    expo -= 53
    expo <<= 52
    h = expo.view(np.float64)  # half an ulp of ax
    h *= _POW10.take(s)  # exact
    D, frac = _scaled(ax, s)
    slow = np.abs(np.abs(frac) - 0.5) <= _BAND
    # Drop the last digit of q while q rounded (down, or up by one) stays
    # within h of x * 10^s = q * unit + rem + frac.
    rows = slice(None)
    q, fr, hc = D, frac, h
    rem = np.zeros_like(D)
    live = np.ones(D.size, dtype=bool)
    unit = 1
    for _ in range(18):  # D < 10^18, so unit stays within int64
        q10 = q // 10
        rem += (q - q10 * 10) * unit
        q = q10
        unit *= 10
        low = rem + fr
        high = (unit - rem) - fr
        near = np.minimum(low, high)
        unsure = live & ((np.abs(near - hc) <= _BAND * hc) | (np.abs(low - high) <= _BAND * unit))
        ok = live & (near < hc) & ~unsure
        slow[rows] |= unsure
        D[rows] = np.where(ok, q + (high < low), D[rows])
        s[rows] -= ok
        live = ok & (s[rows] > 0)
        left = np.count_nonzero(live)
        if left <= _TAIL_CELLS:
            slow[rows] |= live
            break
        if left < live.size // 4:
            keep = np.flatnonzero(live)
            rows = keep if isinstance(rows, slice) else rows[keep]
            q, rem, fr, hc, live = q[keep], rem[keep], fr[keep], hc[keep], live[keep]
    return D, s, slow


def _put_digits(out, v):
    """Write the digits of integers v >= 0 right-aligned into the uint8
    columns of ``out``, with leading zeros."""
    w = out.shape[1]
    while w >= 4:
        q = v // 10000
        out[:, w - 4 : w].view("<u4")[:, 0] = _QUADS.take(v - q * 10000)
        v = q
        w -= 4
    for k in range(w - 1, -1, -1):
        q = v // 10
        out[:, k] = v - q * 10 + 48
        v = q


def _blank_leading(out, v, table):
    """NUL over the leading zeros that ``_put_digits`` wrote for v into
    the uint8 columns of ``out``; ``table`` holds the powers of ten."""
    w = out.shape[1]
    for k in range(w - 1):  # one column at a time: a 2-D pass over short rows costs more
        out[:, k] *= (v >= table[w - 1 - k]).view(np.uint8)


def _texts(texts) -> np.ndarray:
    """ASCII cell texts as the rows of a NUL-padded uint8 matrix."""
    t = np.array([s.encode() for s in texts], dtype="S")
    return t.view(np.uint8).reshape(t.size, t.itemsize)


def _put_texts(chars, idx, t):
    """Overwrite the rows ``idx`` of a cell matrix with the NUL-padded texts ``t``."""
    if len(idx):
        chars[idx, t.shape[1] :] = 0
        chars[idx, : t.shape[1]] = t


def _float_cells(columns):
    """[(width, write)] of the repr text of equal-length float columns,
    their digits found in one pass over all their cells: ``write(chars)``
    lays one column's cells into a (cells x width) uint8 view, row by
    row, with NUL wherever no byte of the text goes."""
    x = np.concatenate(columns, dtype=np.float64)
    ax = np.abs(x)
    fast = (ax >= _FIXED_LO) & (ax < _FIXED_HI) & ((x.view(np.uint64) & _MANTISSA) != 0)
    np.copyto(ax, _FILLER, where=~fast)
    D, s, slow = _shortest(ax)
    del ax
    scale = _POW10_INT.take(np.minimum(s, 18))  # D < 10^18 <= 10^s beyond
    ip = D // scale
    fp = D - ip * scale
    back = ~fast | slow
    n = len(columns[0])
    return [_float_column(*(a[i : i + n] for a in (x, ip, fp, s, back))) for i in range(0, x.size, n)]


def _float_column(x, ip, fp, s, back):
    """(width, write) of one column of ``_float_cells``, with its own
    width and its own cells left to ``repr``."""
    wi = len(str(int(ip.max(initial=0))))
    wf = max(int(s.max(initial=0)), 1)
    back = np.flatnonzero(back)
    texts = _texts(map(repr, x[back].tolist()))

    def write(chars):
        chars[:, 0] = (x < 0) * _MINUS
        _put_digits(chars[:, 1 : wi + 1], ip)
        _blank_leading(chars[:, 1 : wi + 1], ip, _POW10_INT)
        chars[:, wi + 1] = ord(".")
        _put_digits(chars[:, wi + 2 : wi + wf + 2], fp)
        thr = np.arange(wf, 0, -1)
        thr[-1] = 0  # "x.0" for s = 0
        # row k of the table keeps k fraction digits; a row gather is
        # cheaper than comparing every cell with its threshold
        keep = (np.arange(wf + 1)[:, None] >= thr).view(np.uint8)
        chars[:, wi + 2 : wi + wf + 2] *= keep.take(s, axis=0)
        chars[:, wi + wf + 2 :] = 0
        _put_texts(chars, back, texts)

    return max(wi + wf + 2, texts.shape[1]), write


def _int_cells(v):
    """(width, write) of the str text of int64 or uint64 cells, as
    ``_float_column`` gives them."""
    if v.dtype == np.uint64 and v.size and v.max() > np.iinfo(np.int64).max:
        texts = _texts(map(str, v.tolist()))
        return texts.shape[1], lambda chars: _put_texts(chars, np.arange(v.size), texts)
    v = v.astype(np.int64)
    mag = v.view(np.uint64).copy()
    np.negative(mag, out=mag, where=v < 0)  # |v| modulo 2^64, right for -2^63 too
    w = len(str(int(mag.max(initial=0))))

    def write(chars):
        chars[:, 0] = (v < 0) * _MINUS
        _put_digits(chars[:, 1:], mag)
        _blank_leading(chars[:, 1:], mag, _POW10_UINT)

    return w + 1, write


def _block_bytes(arrays) -> bytes:
    """The CSV data rows of equal-length numeric column blocks: every
    column's cells, each followed by its separator, are written into one
    (rows x line width) matrix, NUL where a cell is shorter than its
    column, and the NULs are stripped once (no byte of a text is NUL)."""
    floats = [k for k, a in enumerate(arrays) if a.dtype.kind == "f"]
    cells = {}
    for i in range(0, len(floats), _PASS_COLUMNS):
        keys = floats[i : i + _PASS_COLUMNS]
        cells.update(zip(keys, _float_cells([arrays[k] for k in keys])))
    cells = [cells.get(k) or _int_cells(a) for k, a in enumerate(arrays)]
    chars = np.empty((arrays[0].shape[0], sum(w + 1 for w, _ in cells)), dtype=np.uint8)
    col = 0
    for w, write in cells:
        write(chars[:, col : col + w])
        chars[:, col + w] = ord(",")
        col += w + 1
    chars[:, -1] = ord("\n")
    raw = chars.tobytes()
    del chars, cells
    return raw.translate(None, b"\0")


def _atomic_write(path, chunks) -> Path:
    """Write the byte strings ``chunks`` to a temporary file beside
    ``path`` and rename it onto ``path``.  If anything fails, the
    temporary file is removed and ``path`` keeps what it held."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def write_csv(path, columns: dict, metadata: dict) -> Path:
    """Write named columns with a '#' metadata header; returns the path."""
    names = list(columns)
    arrays = [np.asarray(columns[k]) for k in names]
    n = arrays[0].shape[0]
    if any(a.shape[0] != n for a in arrays):
        raise ValueError("all columns must have equal length")
    lines = [f"# {key}: {value}" for key, value in metadata.items()]
    lines.append(",".join(names))
    blocked = n >= _MIN_ROWS and all(map(_kernel_column, arrays))
    if not blocked:
        lines.extend(map(",".join, zip(*map(_column_text, arrays))))
    head = ("\n".join(lines) + "\n").encode()
    starts = range(0, n, _BLOCK_ROWS) if blocked else ()
    blocks = (_block_bytes([a[i : i + _BLOCK_ROWS] for a in arrays]) for i in starts)
    return _atomic_write(path, itertools.chain([head], blocks))


def write_manifest(path, manifest: dict) -> Path:
    text = json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n"
    return _atomic_write(path, [text.encode()])


def read_csv(path) -> tuple[dict, dict]:
    """Read back a CSV written by write_csv: (metadata, columns)."""
    meta, header, rows = {}, None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path}: no header row")
    data = np.array(rows, dtype=object)
    columns = {}
    for k, name in enumerate(header):
        col = data[:, k] if rows else np.array([])
        try:
            columns[name] = col.astype(float)
        except ValueError:
            columns[name] = col
    return meta, columns
