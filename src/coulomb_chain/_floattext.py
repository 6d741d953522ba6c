"""Exact float64-to-text conversion of whole arrays, for the artifact writers.

``float_text_pair(values)`` returns, for every value of a float64 array,
the text of ``'%.17g' % v`` and that of ``repr(v)``, which the ``json``
encoder writes, from one pass; ``float_text_pair(values, fixed, shortest)``
skips the work of a side whose flag is False, so a one-sided call pays for
its side only.  It is the module's one entry point.  The fast path works on
a chunk of values at a time, in float64 and int64 only (Loitsch, Printing
floating-point numbers quickly and accurately, PLDI 2010, in its
certify-or-fall-back form):

  * it estimates E = floor(log10 |v|) and forms y = |v| 10**(16-E) as a
    double-double (hi, lo) with Dekker's exact two-product over Veltkamp
    halves (Dekker, Numer. Math. 18 (1971) 224) and a (hi, lo) table of
    10**k, moving E by one where y falls outside [1e16, 1e17);
  * it rounds y to the 17-digit integer, half to even, for ``%.17g``;
  * for ``repr`` it takes, from the same y, the fewest digits whose nearest
    decimal lies inside the half-ulp interval of v (Adams, Ryu: fast
    float-to-string conversion, PLDI 2018, also derives both from one
    scaled value); two steps, at 16 and 15 digits, decide it;
  * it lays the digits out through one template per (exponent, digit count,
    sign), by the formats' own rules: fixed notation for exponents
    -4 <= X < 17 (``%.17g``) or X < 16 (``repr``, which adds ``.0`` to a
    whole number), else ``d.ddde+XX``.  A pair lays out the ``%.17g`` rows
    of every value and the ``repr`` rows only where the digits, the
    exponent or the template differ, into the same rows once their
    ``%.17g`` texts are taken;
  * a zero takes the digits 0 and the exponent 0, so it is laid out as
    ``0`` or ``-0`` and ``0.0`` or ``-0.0`` by the same templates.

The double-double carries y to a relative error of about 2**-104, an
absolute 2**-47 below 2**57; where 10**k is a double (k = 0..22) it is
exact, and an exact tie rounds half to even on the fast path.  A value
whose text this cannot certify is formatted by Python itself, alone: inf
and nan, a nonzero |v| outside [1e-280, 1e280] (subnormals included), a
value within ``_TOL`` of a rounding boundary that is not known exactly (in
shortest mode every tie) and, in shortest mode, a value whose mantissa is a
power of two, where the half-ulp interval is lopsided.
"""

from __future__ import annotations

import functools

import numpy as np

_LO, _HI = 1e-280, 1e280  # certified magnitudes
_K_LO, _K_HI = 16 - 281, 16 + 281  # the exponents k of the 10**k table
_TOL = 2.0**-40  # rounding margin in units of y, above the error bound 2**-47
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_MANTISSA = np.uint64((1 << 52) - 1)
CHUNK = 8192  # values per pass, which keeps the temporaries in cache; a block of the writers
_WIDTH = 24  # the longest text: sign, 17 digits, point, e-XXX
_ALPHABET = b".-+e0123456789"  # a layout row holds 17 digits, these and a NUL
_COLUMNS = 17 + len(_ALPHABET) + 1
_KEY_X = 512  # offset that makes the exponent part of a template key non-negative


def float_text_pair(values: np.ndarray, fixed: bool = True,
                    shortest: bool = True) -> tuple[list[str], list[str]]:
    """The texts of ``'%.17g' % v`` and of ``repr(v)`` of every value, raveled, from one pass.

    Either list is empty when its flag, ``fixed`` or ``shortest``, is False.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    out = ([], [])
    for start in range(0, v.size, CHUNK):
        chunk = v[start : start + CHUNK]
        neg = np.signbit(chunk)
        (D, X, fast), short = _decimal(chunk, shortest)
        if fixed:
            digits, nsig = _digits(D)
            rows = _layout(digits, nsig, X, neg, False)
            out[0].extend(_strings(rows, chunk, fast, False))
        if shortest:
            Ds, Xs, fast_s = short
            if fixed:  # the repr rows are these, laid out again where they differ
                # a whole number, to which repr adds ".0" or, at X = 16, an exponent
                whole = (X >= 0) & (X <= 16) & (nsig <= X + 1)
                redo = np.flatnonzero((Ds != D) | (Xs != X) | whole)
            else:
                rows, redo = np.empty((chunk.size, _WIDTH), np.uint8), slice(None)
            rows[redo] = _layout(*_digits(Ds[redo]), Xs[redo], neg[redo], True)
            out[1].extend(_strings(rows, chunk, fast_s, True))
    return out


def _strings(rows: np.ndarray, values: np.ndarray, fast: np.ndarray, shortest: bool) -> list[str]:
    """The texts of the layout rows, with Python's own where ``fast`` is False."""
    texts = rows.astype(np.uint32).view(f"U{_WIDTH}").ravel().tolist()
    slow = np.flatnonzero(~fast)
    for i, text in zip(slow.tolist(), _exact_texts(values[slow].tolist(), shortest)):
        texts[i] = text
    return texts


def _exact_texts(values: list[float], shortest: bool) -> list[str]:
    """Python's own formatting, for the values the fast path does not certify."""
    return list(map(repr if shortest else "%.17g".__mod__, values))


def _decimal(v: np.ndarray, shortest: bool) -> tuple[tuple, tuple | None]:
    """(D, X, fast) of |v| rounded to 17 digits and, when ``shortest``, of its shortest digits.

    D in [1e16, 1e17) holds the digits and X the decimal exponent, D = X = 0
    for a zero; ``fast`` marks the values whose D and X are certified.  The
    trailing zeros of D are the digits the text drops.  Without
    ``shortest`` the second is None.
    """
    a = np.abs(v)
    zero = a == 0
    fast = (a >= _LO) & (a <= _HI)
    a[~fast] = 1.0
    E = np.floor(np.log10(a)).astype(np.int64)
    y, y_lo = _scaled(a, E)
    step = _decade_step(y, y_lo)
    off = np.flatnonzero(step)  # where log10 was off by one next to a power of ten
    E[off] += step[off]
    y[off], y_lo[off] = _scaled(a[off], E[off])
    fast[off] &= _decade_step(y[off], y_lo[off]) == 0

    # n = round(y), half to even: y is an even integer above 2**53, so only
    # y_lo is rounded, and y = n + frac exactly.
    r = np.rint(y_lo)
    frac = y_lo - r
    n = y.astype(np.int64) + r.astype(np.int64)
    tie = np.abs(frac) >= 0.5 - _TOL
    k = 16 - E - _K_LO
    # y is exact where 10**k is: a tie there is already rounded half to even
    inexact = np.take(_powers_of_ten()[:, 1], k) != 0
    fixed = _rounded(n, E, fast & ~(tie & inexact), zero)
    if not shortest:
        return fixed, None
    half_ulp = np.ldexp(np.take(_powers_of_ten()[:, 0], k), np.frexp(a)[1] - 54)
    fast &= (v.view(np.uint64) & _MANTISSA) != 0  # a power of two has a lopsided interval
    D = _shortest(n, frac, half_ulp, fast, tie)
    return fixed, _rounded(D, E, fast & ~tie, zero)


def _rounded(D: np.ndarray, E: np.ndarray, fast: np.ndarray,
             zero: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, X, fast) with a carry to 10**17 moved into the exponent and the zeros laid as 0."""
    carry = D == 10**17
    D = np.where(carry, 10**16, D)
    D[zero] = 0
    return D, E + carry, fast | zero


def _shortest(n: np.ndarray, frac: np.ndarray, half_ulp: np.ndarray, fast: np.ndarray,
              tie: np.ndarray) -> np.ndarray:
    """The shortest digits of y = n + frac within ``half_ulp``, scaled to 17 digits.

    Goes from 16 digits down while the nearest decimal at a step of
    p = 10**(17-digits) units stays inside the interval: for n = q p + rem
    it is q p at distance rem + frac or (q+1) p at p - rem - frac.  Clears
    ``fast`` where that is not certain, and ``tie`` where the 17-digit
    rounding is not used.  Two steps, p = 10 and 100, decide it: half_ulp
    is at most y 2**-53 < 11.2 units, so at most one multiple of 100 lies
    inside.  If one does, the nearest multiple of any larger p lies inside
    where it is that one, and over 100 - half_ulp > half_ulp + 77 away
    where it is not; the layout drops the trailing zeros that the further
    steps would.
    """
    D = n
    inside = fast.copy()
    for p in (10, 100):
        q, rem = np.divmod(n, p)
        d = (rem - p // 2) + frac  # > 0: round up
        up = d > 0
        dist = np.where(up, (p - rem) - frac, np.abs(rem + frac))
        unsure = inside & ((np.abs(dist - half_ulp) <= _TOL) | ((np.abs(d) <= _TOL) & (dist < half_ulp)))
        fast &= ~unsure
        inside &= (dist < half_ulp) & ~unsure
        tie &= ~inside
        D = np.where(inside, (q + up) * p, D)
    return D


def _decade_step(y: np.ndarray, y_lo: np.ndarray) -> np.ndarray:
    """-1 where y + y_lo < 1e16, +1 where it is >= 1e17, else 0."""
    low = (y < 1e16) | ((y == 1e16) & (y_lo < 0))
    high = (y > 1e17) | ((y == 1e17) & (y_lo >= 0))
    return high.astype(np.int64) - low


def _scaled(a: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y = a 10**(16-E) as a normalized double-double (hi, lo)."""
    hi, lo, hh, hl = np.take(_powers_of_ten(), 16 - E - _K_LO, axis=0).T
    ah, al = _split(a)
    p = a * hi
    e = ((ah * hh - p) + ah * hl + al * hh) + al * hl  # a hi - p, exactly
    t = e + a * lo
    y = p + t
    return y, t - (y - p)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp halves: a = hi + lo with 26-bit hi and lo, so their products are exact."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _powers_of_ten() -> np.ndarray:
    """Rows k = _K_LO.._K_HI of (hi, lo, hi's Veltkamp halves), hi + lo = 10**k to 2**-106.

    Built on first use from Python integers, whose conversions and true
    divisions round correctly; read-only, since every caller shares it.
    """
    hi, lo = [], []
    for k in range(_K_LO, _K_HI + 1):
        if k >= 0:
            hi.append(float(10**k))
            lo.append(float(10**k - int(hi[-1])))
        else:
            d = 10**-k
            hi.append(1 / d)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * d) / (den * d))  # 1/d - hi, rounded once
    table = np.array([hi, lo, *_split(np.array(hi))]).T.copy()
    table.setflags(write=False)
    return table


def _digits(D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A row of the 17 digits of D, the alphabet and a NUL for each value, and its digit count.

    The count is that of the digits left once trailing zeros are dropped.
    """
    rows = np.empty((D.size, _COLUMNS), np.uint8)
    lead, rest = np.divmod(D, 10**16)
    rows[:, 0] = lead + ord("0")
    halves = [half.astype(np.uint32) for half in np.divmod(rest, 10**8)]
    quads = np.stack([q for half in halves for q in np.divmod(half, np.uint32(10**4))], axis=1)
    quad_text, quad_zeros = _quads()
    rows[:, 1:17] = np.take(quad_text, quads).view(np.uint8)
    rows[:, 17:-1] = np.frombuffer(_ALPHABET, np.uint8)
    rows[:, -1] = 0
    zeros = np.take(quad_zeros, quads)
    trailing = zeros[:, 3].copy()
    for k in (2, 1, 0):  # while every quad to the right is 0000
        trailing += (trailing == 4 * (3 - k)) * zeros[:, k]
    return rows, 17 - trailing


def _layout(digits: np.ndarray, nsig: np.ndarray, X: np.ndarray, neg: np.ndarray,
            shortest: bool) -> np.ndarray:
    """The NUL-padded ASCII texts, one row each, of (-1)**neg D 10**(X-16), from D's digit rows."""
    # One template per distinct (X, nsig, sign), gathered for each row.
    key = ((X + _KEY_X) * 18 + nsig) * 2 + neg
    low = int(key.min(initial=_KEY_X * 36))  # the key of X = 0, and the low bound of no rows
    count = np.bincount(key - low)
    present = np.flatnonzero(count)
    lookup = np.zeros(count.size, np.intp)
    lookup[present] = np.arange(present.size)
    templates = b"".join(_template(k // 36 - _KEY_X, k // 2 % 18, k % 2, shortest)
                         for k in (present + low).tolist())
    templates = np.frombuffer(templates, np.uint8).reshape(-1, _WIDTH).astype(np.intp)
    index = np.take(templates, np.take(lookup, key - low), axis=0)
    index += np.arange(0, digits.size, _COLUMNS)[:, None]
    return np.take(digits, index)


@functools.cache
def _quads() -> tuple[np.ndarray, np.ndarray]:
    """For q = 0..9999: its four ASCII digits in one uint32, and its count of trailing zeros."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    zeros = np.argmax(digits[:, ::-1] != 0, axis=1)
    zeros[0] = 4
    return (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel(), zeros


@functools.cache
def _template(X: int, nsig: int, neg: int, shortest: bool) -> bytes:
    """The layout-row columns of the text of exponent X, nsig digits and sign, NUL-padded."""
    digit = list(range(17))
    char = {chr(c): 17 + i for i, c in enumerate(_ALPHABET)}
    cols = [char["-"]] if neg else []
    if -4 <= X < (16 if shortest else 17):
        if X < 0:
            cols += [char["0"], char["."]] + [char["0"]] * (-X - 1) + digit[:nsig]
        else:
            cols += digit[: X + 1]
            if nsig > X + 1:
                cols += [char["."]] + digit[X + 1 : nsig]
            elif shortest:
                cols += [char["."], char["0"]]
    else:
        cols += digit[:1]
        if nsig > 1:
            cols += [char["."]] + digit[1:nsig]
        cols += [char["e"], char["-" if X < 0 else "+"]] + [char[c] for c in "%02d" % abs(X)]
    return bytes(cols + [_COLUMNS - 1] * (_WIDTH - len(cols)))
