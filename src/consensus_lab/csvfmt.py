"""Exact ``"%.17g"`` text for blocks of float64 values, formatted by numpy.

``format_rows`` turns a (rows, columns) float64 block into the bytes that
``(("%.17g," * (columns - 1) + "%.17g\\n") * rows) % tuple(values)`` gives,
byte for byte, without formatting one value at a time in Python.

Digits and exponent.  ``"%.17g"`` writes a finite nonzero x as the 17
digits D = round(S) of S = |x| * 10**(16 - E), 10**16 <= D < 10**17, and
the exponent E with _FLOOR[E] <= |x| < _FLOOR[E + 1].  _FLOOR[E], the
least double that prints with exponent E or more, is the first double at
or above (10**17 - 1/2) * 10**(E - 17), where rounding to 17 digits
reaches 10**E; no double equals that fraction.  The floor of ``log10``
may be one off next to a power of ten, and one comparison with each of
_FLOOR[E] and _FLOOR[E + 1] moves it onto E: the doubles nearest 1e-06
and 1e-14 both lie below their power of ten and have a log10 of exactly
-6 and -14, yet print as 9.9999999999999995e-07 and 1e-14.  With E so
decided, 10**16 - 1/20 < S < 10**17 - 1/2, so D has 17 digits and no
rounding carries into the exponent.

With |x| = f * 2**k, f in [0.5, 1) (``np.frexp``), S is computed as an
unevaluated sum hi + lo: f times the table entry 10**(16 - E) = (t + u) *
2**g, by Dekker's exact product for f * t, scaled by 2**(k + g).  The
table holds t, the nearest double in [1, 2), and u, the nearest double to
the rest, from exact integers: within 2**-106 relative.  The product adds
at most 2**-103.7, so |hi + lo - S| < 2**-46 while S < 2**56.5.  D = hi +
round(lo) is exact unless the fraction of S lies within 2**-40 of one half.

Fallback.  NaN, the infinities and a value whose S is within the error
bound of a tie are formatted by ``"%.17g" %`` one at a time and spliced in
by position; the rest of the block stays vectorised.  (An exact tie would
round right here too, since hi >= 2**53 is even and ``np.rint`` rounds
half to even, but within the bound a tie cannot be told from a near-tie.)
Both tables cover every finite double, subnormals included, and ±0.0
prints as ``0`` and ``-0``.

Assembly.  Each value gets a 32-byte record of four little-endian words:
the sign, the ``0.000`` of a small fixed-point value and the first digit in
bytes 0-7; the other 16 digits, with the decimal point inserted and
trailing zeros cleared, from byte 8 on (they end by byte 24); the exponent
in bytes 26-30 and the separator in byte 31.  The words are small-table
lookups (``np.take``), shifted and masked into place; unused bytes are NUL,
and one ``bytes.translate`` deletes them when the block is packed.
"""

from __future__ import annotations

import math

import numpy as np

# Values per format call of the trajectory writer.  A call costs about a
# hundred numpy calls plus its values, and its temporaries grow with the
# block.  Nanoseconds per value over a 13,430 x 34 block of rows (the
# widest dense benchmark run), best of 7, and the peak of one call's
# temporaries (tracemalloc), on a shared 2-vCPU x86-64 machine with
# numpy 2.4:
#
#     BLOCK        2**10   2**12   2**14
#     ns/value       286     197     170
#     peak MB       0.16    0.65    2.61
#
# 2**14 saves little more time and raises a run's peak RSS by megabytes.
# Nor is a block much above 2**12 faster: the 32-byte records of a
# 4,080-value block (120 rows of 34) stay just under glibc's 128 KiB mmap
# threshold, while those of 6,120 values or more are mapped afresh, and
# page-fault, on every call.
BLOCK = 2**12

# Decimal exponents of the tables.  Finite nonzero doubles have E, and
# the floor of their log10, in [-324, 308]; _FLOOR is also read one above.
_EMIN, _EMAX = -324, 309
_E = np.arange(_EMIN, _EMAX + 1)

# A fraction of S within this much of one half is a possible tie.
_TIE = 0.5 - 2.0**-40

_WORD = np.dtype("<u8")


def _split(a):
    """Veltkamp's split: a = hi + lo, each half exact in 26 bits."""
    c = a * 134217729.0
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, a_hi, a_lo, b, b_hi, b_lo):
    """Dekker's exact product: a * b = p + e."""
    p = a * b
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _powers():
    """10**(16 - E) = (t + u) * 2**g for every E, from exact integers: t
    the nearest double in [1, 2), u the nearest double to the rest.  Rows
    t, Veltkamp's halves of t and u; and g."""
    table = []
    for q in (16 - _E).tolist():
        # y = 10**q / 2**g as num / den in [1, 2); int / int rounds once.
        num, den = 10**max(q, 0), 10**max(-q, 0)
        g = num.bit_length() - den.bit_length()
        num, den = num << max(-g, 0), den << max(g, 0)
        if num < den:
            num, g = num << 1, g - 1
        t = num / den
        rest = (num << 52) - int(t * 2**52) * den  # (y - t) * den * 2**52
        table.append((t, rest / (den << 52), g))
    t, u, g = np.array(table).T
    return np.stack((t, *_split(t), u)), g.astype(np.int32)


def _floors():
    """The least double that "%.17g" prints with exponent E or more, for
    every E: the first at or above (10**17 - 1/2) * 10**(E - 17) = num / den,
    which no double equals; inf for _EMAX, above the largest double."""
    floors = []
    for e in range(_EMIN, _EMAX):
        num = (2 * 10**17 - 1) * 10**max(e - 17, 0)
        den = 2 * 10**max(17 - e, 0)
        x = num / den
        a, b = x.as_integer_ratio()
        floors.append(x if a * den > num * b else math.nextafter(x, math.inf))
    return np.array(floors + [math.inf])


_POW, _POW_G = _powers()
_FLOOR = _floors()


def _ascii(codes):
    return np.asarray(codes, dtype=np.uint8)


def _quads():
    """The four ASCII digits of 0..9999 as the low bytes of a little-endian
    word, and their count of trailing zeros (4 for 0000).  Built from
    uint8 columns: wide temporaries here would stay in the heap and raise
    peak RSS."""
    ten = np.arange(48, 58, dtype=np.uint8)
    quad = np.stack([np.tile(np.repeat(ten, 10**p), 10**(3 - p))
                     for p in (3, 2, 1, 0)], axis=1)
    zero = quad == 48
    return (quad.view("<u4").ravel().astype(_WORD),
            _ascii(zero[:, 3] * (1 + zero[:, 2] * (1 + zero[:, 1] * (1 + zero[:, 0])))))


_DIGITS4, _TZ4 = _quads()

# Per E: the digit after which the point goes (17: none), the digits that
# are never stripped, and the row of the lead table (0.000 of -4 <= E < 0).
_EXPO = (_E < -4) | (_E >= 17)
_FORM = np.stack((
    np.where(_EXPO, 1, np.where(_E < 0, 17, _E + 1)),
    np.where(_EXPO | (_E < 0), 1, _E + 1),
    np.where(_EXPO | (_E >= 0), 0, -_E) * 10,
)).astype(np.int8)

# Word 0 by (sign, lead row, first digit): the lead text ends at byte 6 and
# the first digit is byte 7.
_LEAD_TEXT = [(b"-" * neg + (b"0." + b"0" * (c - 1)) * (c > 0)).rjust(7, b"\0")
              for neg in (0, 1) for c in range(5)]
_LEAD = np.concatenate((
    np.broadcast_to(np.frombuffer(b"".join(_LEAD_TEXT), np.uint8)
                    .reshape(10, 1, 7), (10, 10, 7)),
    np.broadcast_to(_ascii(48 + np.arange(10)).reshape(1, 10, 1), (10, 10, 1)),
), axis=2).copy().view(_WORD).ravel()

# Words 1-3 hold digits 2-17 in bytes 8-23: digit i (from 1) sits at byte
# 6 + i, and the point after digit P at byte 7 + P.  By P: _LOW masks the
# bytes before the point (words 1-2), _DOT holds the point (words 1-3).
# _KEEP[:, m]: the bytes before 7 + m, for m digits and points kept.
_BYTE = np.arange(8, 32)
_LOW = _ascii((_BYTE[:16] < 7 + np.arange(18)[:, None]) * 255).view(_WORD).T.copy()
_DOT = _ascii((_BYTE == 7 + np.arange(18)[:, None]) * 46).view(_WORD).T.copy()
_KEEP = _ascii((_BYTE < 7 + np.arange(19)[:, None]) * 255).view(_WORD).T.copy()

# Bytes 26-31 (the top of word 3) by E: "e-308," and the like, or the comma
# alone for fixed-point values; the last column of a row swaps the comma
# for a newline.  The hundreds digit of a two-digit exponent is NUL, so it
# is dropped with the padding.
_ABS = np.abs(_E)
_SUFFIX = np.zeros((len(_E), 8), np.uint8)
_SUFFIX[:, 2] = ord("e") * _EXPO
_SUFFIX[:, 3] = np.where(_E < 0, ord("-"), ord("+")) * _EXPO
_SUFFIX[:, 4] = (48 + _ABS // 100) * (_EXPO & (_ABS >= 100))
_SUFFIX[:, 5] = (48 + _ABS // 10 % 10) * _EXPO
_SUFFIX[:, 6] = (48 + _ABS % 10) * _EXPO
_SUFFIX[:, 7] = ord(",")
_SUFFIX = _SUFFIX.view(_WORD).ravel()
_NEWLINE = np.uint64((ord(",") ^ ord("\n")) << 56)

_MAX = np.finfo(np.float64).max


def _scaled(f, k, e):
    """S = x * 10**(16 - E) as hi + lo, for x = f * 2**k and e = E - _EMIN,
    the column of E in the tables."""
    t_hi, t_hi_hi, t_hi_lo, t_lo = _POW.take(e, axis=1)
    p, err = _two_product(f, *_split(f), t_hi, t_hi_hi, t_hi_lo)
    shift = k + _POW_G.take(e)
    return np.ldexp(p, shift), np.ldexp(err + f * t_lo, shift)


def _decimal(v):
    """The 17 significant digits D of each value, its exponent E as
    e = E - _EMIN, and the values left to the per-value fallback (D is 0
    there and for ±0.0)."""
    x = np.abs(v)
    zero = x == 0.0
    odd = ~(x <= _MAX)  # NaN and the infinities
    np.copyto(x, 2.0, where=zero | odd)  # any finite value: D is 0 there
    e = np.floor(np.log10(x)).astype(np.intp) - _EMIN
    e += x >= _FLOOR.take(e + 1)
    e -= x < _FLOOR.take(e)
    hi, lo = _scaled(*np.frexp(x), e)
    r = np.rint(lo)
    d = hi.astype(np.int64) + r.astype(np.int64)
    fallback = odd | (np.abs(lo - r) > _TIE)
    np.copyto(d, 0, where=zero | fallback)
    return d, e, fallback


def _groups(d):
    """D as its first digit and four groups of four digits, (4, n)."""
    g = np.empty((4, len(d)), np.int64)
    top = d // 10**8
    bottom = d - top * 10**8
    head = top // 10**4
    first = head // 10**4
    np.subtract(head, first * 10**4, out=g[0])
    np.subtract(top, head * 10**4, out=g[1])
    np.floor_divide(bottom, 10**4, out=g[2])
    np.subtract(bottom, g[2] * 10**4, out=g[3])
    return first, g


def _significant(g):
    """How many of the 17 digits are left when trailing zeros go."""
    z = _TZ4.take(g)
    zg = z == 4
    return 17 - (z[3] + zg[3] * (z[2] + zg[2] * (z[1] + zg[1] * z[0])))


def _records(d, e, neg):
    """The (n, 4) word records of the values, commas for separators."""
    first, g = _groups(d)
    point_at, least, lead = _FORM.take(e, axis=1)
    kept = np.maximum(_significant(g), least)
    words = _DIGITS4.take(g[0::2]) | (_DIGITS4.take(g[1::2]) << 32)
    del g  # the block's temporaries peak below; keep them few
    rec = np.empty((len(d), 4), _WORD)
    rec[:, 0] = _LEAD.take(neg * 50 + lead + first)

    # Words 1-3: digits 2-17, the point inserted (the bytes from it on
    # move up by one), and everything after the kept digits cleared.
    body = words & _LOW.take(point_at, axis=1)
    words ^= body  # the bytes from the point on
    body |= words << 8
    dot = _DOT.take(point_at, axis=1)
    body |= dot[:2]
    body[1] |= words[0] >> 56
    keep = _KEEP.take(kept + (kept > point_at), axis=1)
    rec[:, 1:3] = (body & keep[:2]).T
    rec[:, 3] = ((words[1] >> 56) | dot[2]) & keep[2] | _SUFFIX.take(e)
    return rec


def format_rows(values: np.ndarray) -> np.ndarray:
    """The ``"%.17g"`` text of a 2-D float64 block as uint8: the values of
    a row joined by commas, each row ended by a newline."""
    rows, cols = values.shape
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    d, e, fallback = _decimal(v)
    rec = _records(d, e, np.signbit(v))
    rec[:, 3].reshape(rows, cols)[:, -1] ^= _NEWLINE

    text = rec.view(np.uint8)
    for i in np.flatnonzero(fallback):
        one = b"%.17g" % float(v[i])
        text[i] = 0
        text[i, :len(one)] = np.frombuffer(one, np.uint8)
        text[i, -1] = ord("\n") if i % cols == cols - 1 else ord(",")
    return np.frombuffer(text.tobytes().translate(None, b"\0"), np.uint8)
