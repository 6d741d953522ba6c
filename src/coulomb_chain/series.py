"""Taylor coefficients of the particle velocities via truncated power series.

Starting from rest on the uniform lattice, each velocity expands as
v_i(t) = sum_{j>=1} c_{ij} t**j.  Writing u_i(t) for the displacement
integral of v_i and R_i = u_{i+1} - u_i for the perturbation of the gap to
the right neighbor, the equations of motion in integral form read

    v_i(t) = integral_0^t [ w_{i-1} - w_i + F(x_i(0) + u_i) ] dt,
    w_i = (delta + R_i)**(-2),           delta = L/N.

Because u and R carry no terms below order 2, the order-(j-1) coefficient of
the integrand involves velocity coefficients of order <= j-2 only, so the
table fills in strictly increasing order j = 1, 2, ..., j_max:

  * the gap series delta + R_i is inverted once (standard truncated
    reciprocal recurrence) and squared to get w_i;
  * the force term is composed through exp(i w u_i) per harmonic: with
    p = a cos + b sin and its quarter turn q = b cos - a sin at x_i(0),

        F(x_i(0) + u_i) = a0 + sum_h p_h Re E_h + q_h Im E_h,   E_h = exp(i w_h u_i),

    and E_h fills order by order with m E_m = i w sum_{k=1..m} k u_k E_{m-k}
    (Knuth, TAOCP vol. 2, section 4.7), starting from E_0 = 1;
  * c_{ij} = [w_{i-1} - w_i + F(x_i(0)+u_i)]_{j-1} / j.

Order 1 is F(x_i(0)), row 0 of the force jet whose trig pass also gives
the (p, q) rows.  Everything is stored pre-multiplied by scale**j (the
coefficient of tau**j in v_i(scale*tau)), which keeps magnitudes bounded
for large N.

Only structurally nonzero terms are computed.  From rest every even order
vanishes (the velocities are odd in t), so u, R, 1/(delta+R), w and every
E_h carry only even powers of t, and the loop runs c_{i1} = scale * F(x_i(0))
and then odd j only (even integrand order m = j - 1), each convolution over
the even rows of its band; the series keep row r for order m = 2r.  Even
columns of the table are the exact +0.0.  On a ring that runs on its own
points (below) the result is bit-identical to the dense loop over all
orders and all rows with the same projections (kept in the tests as the
reference): every sum keeps its ascending row order and only drops addends
that are exactly zero, and the factors 2 between t-orders and rows are
exact.

**Band limits.**  The exact order-j column is a trigonometric polynomial in
x_i(0) of degree B_j = ceil(j/2) K_max, K_max the top force harmonic:
products add degrees, and each t**2 adds K_max.  Energy above B_j is
rounding noise, which the delta**(-3) differences amplify from order to
order (Boyd, Chebyshev and Fourier Spectral Methods, 2nd ed., ch. 11), so
every computed column c_j, j >= 3, is projected to the modes <= B_j by an
``rfft``, wherever 2 B_j is below the ring's point count.  That leaves the
growth of noise inside the band, which is slower.  The true spectrum of a
column falls steeply with the mode number, so the top modes of the band
carry mostly noise, and that noise is what grows; on a proxy ring (below)
each column's spectrum is therefore also filtered as Krasny filtered a
vortex sheet (J. Fluid Mech. 167 (1986) 65): every mode whose modulus is
below tau = ``FILTER_LEVEL`` = 1e-15 times the ring's largest modulus at
that order is set to zero.  Mode 0, the mean current, is kept: it can lie
below the cut, about 5e-15 of the column maximum at order 61 on a
two-harmonic force at N = 2**16 and smaller at larger N, and is not noise.
On the sine force at J = 97 the root-test radius R_hat sqrt(N) then reads
0.806 to 1.665 for N = 2**8 .. 2**20, against 0.60 to 0.69 unfiltered, and
agrees with a 60-80-digit recursion to 1.1e-4.  Packed rings are not
filtered yet: they would need an ``rfft`` round trip at every order.

**Two kinds of ring.**  A ring with N <= 2 B_J (B_J the band of the top
order) runs on its own N points: such rings are packed side by side, the
differences are slices with one wrap column per ring, and a column is
projected only at the orders with 2 B_j < N.  Packed rings keep slice
differences because one ufunc call covers every packed ring: giving each
ring size its own ``rfft`` block costs three FFT calls per size and order,
and a prototype of that ran ``coefficient_profiles`` on a deep grid
(J = 96, N = 16..128) 2.6 times slower (12.4 ms against 4.8 ms).  A ring
with N > 2 B_J runs on a proxy grid of P points, the smallest power of two
above 2 B_J, where a band-limited column is fixed by its samples: the
force jet is taken at x_l = l L/P, and a shift by one lattice spacing
multiplies mode m by exp(i theta), theta = 2 pi m / N, so the forward
difference is the symbol
exp(i theta) - 1 = -2 sin(theta/2)**2 + i sin(theta) and the backward one
1 - exp(-i theta) = 2 sin(theta/2)**2 + i sin(theta) in ``rfft`` space.
A ring with 2 B_J < N <= P stays on the proxy grid, although it could run
on its own points, because the grid is the more accurate there: against a
50-digit recursion the worst column error of the sine force at N = 28,
J = 24 reads 8.4e-13 on the grid and 3.2e-12 on the ring's own points,
and the grid's is 2.3 to 2.9 times less at N = 64 (sine at J = 40, the
seed-7 forces at J = 29 and 19).
The proxy rings run as one block of P columns each, after the packed
rings, in the same per-order loop; each order takes one ``rfft`` of w
and the composed force, one ``irfft`` of the projected column and one of
the next gap.  Each kind of ring has one reading rule: a packed ring's
columns are views of the loop's rows, and a proxy ring's lattice values,
N == P included, are summed by ``_lattice`` from the spectrum of each
odd column, one column at a time, over its band, the n = B_j + 1 modes
0..B_j.  The rule holds for order 1 too, the force sample, whose modes
above B_1 = K_max are rounding noise: on the seed-7 and sine forces its
column-relative error against a 40-digit sample of the force reads
3.3e-16 to 5.5e-16 at N = 100, 1000 and 4096 and 2.5e-16 to 3.9e-16
at N == P.  As N > 2 B_J, no band reaches the Nyquist mode N/2.
``_lattice`` splits point i = l M + q into Q = 2**floor(log2 sqrt N)
blocks of M = ceil(N/Q) points (Bailey's four-step split), so a column
is one complex product of a (Q, n) phase table with the spectrum and one
real matrix product (Q, 2n) @ (2n, M) against a table of cos and -sin,
built once per ring.  Its values are those of the zero-padded
``irfft(X[:n] N/P, n=N)``, X the column's spectrum, to within 8 ulps of
the column maximum (a 40-digit sum of the same modes reads at most 4),
for any N, and do not change with the number of BLAS threads, which
split the product's output, not its sums.  ``coefficient_tables`` keeps
them and ``coefficient_profiles`` reduces each to its maximum and
minimum, which are exact and carry NaN and inf, so the profiles and the
overflow error are those of the tables bit for bit.

The loop's cost does not depend on N: the reciprocal and square take
O(W J**2) and the composition O(W K J**2) multiply-adds for W packed and
proxy columns and K harmonics, and it holds (2K+4) ceil(J/2) rows of W
for the series, plus O(K) more.  Each convolution is one ``np.einsum``
over two forward slices, written straight into its output row with no
product array: the reciprocal and E keep order r in row ceil(J/2)-1-r,
so the rows read forward give the reversed operand, and the square's
products are symmetric under k <-> r-k.  einsum adds the rounded
products in ascending row order, the order of ``np.add.reduce(axis=0)``
over the product array, so the tables keep their bits wherever multiply
and add are separate roundings (a test checks this on each numpy build).
Where every addend is a zero, einsum's sum reads +0.0 and the
reduction's could read -0.0; on a ring's own points, adding the composed
force, itself such an einsum, turns any -0.0 of a column into +0.0.
Outside it, a proxy ring costs 2 n N
multiply-adds per odd column in one matrix product, n = B_j + 1, and
O(B_J sqrt N) trig values once.

The one writer, ``table_texts``, returns the CSV or JSON artifact text of
a table, or both, formatting each value once: one call of the array kernel
``_floattext.float_text_pair`` gives the bytes of ``%.17g``, of
``float.__repr__`` or of both for all live columns of a table from one
pass, and ``table_csv`` and ``table_json`` lay those texts out.  A column
of +0.0 only, the structurally zero even orders, is printed as a literal
zero, and the pieces are joined once; at j_max = 9 the writing still costs
over twenty times the engine's own time.
A table takes its magnitude profile max_i |c_{ij}|, which every report
reads, in one reduction; ``evaluate_velocity`` sums the velocity series
with numpy's Horner ``polyval``.

A literal composition-sum evaluation of the same recursion
(``oracle_coefficients``) is kept as an independent cross-check for small
orders; it enumerates every ordered tuple (j_1..j_m) with
(j_1+1)+...+(j_m+1) = j-1 and is exponential in j.  Each order j_p's two
tuple-entry rows, the scaled gap s * nabla_plus(c_{., j_p}) / (j_p+1) and
the scaled displacement s * c_{., j_p} / (j_p+1), are built once, as soon
as the order is final, so a tuple costs one multiply per entry and, on the
gap side, one backward difference; the gap rows are held divided by a
power of two near their maximum, so a product of gaps overflows only where
its term does, and the table it returns rejects the first order that
overflows, as the engine's does.  The differences are those of a grid
function, indices mod N: the forward one, nabla_plus g(i) = g(i+1) - g(i),
is ``np.diff`` with the first entry appended, and the backward one,
nabla_minus g(i) = g(i) - g(i-1), subtracts one index gather, the same
bits as ``np.roll(g, -1) - g`` and ``g - np.roll(g, 1)``.  It does not
project.  Neither it nor its helpers, which sit beside it, are exported:
``ordered_compositions`` and ``force_grid``, the force jet F^(k)(x_i(0))
on the whole rest lattice.  The engine takes none of them: it runs its
own jet and differences on the points it runs on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from ._floattext import float_text_pair
from .errors import ConfigError
from .force import ForceSpec, force_jet
from .ring import RingConfig, initial_positions

__all__ = [
    "CoefficientProfile",
    "CoefficientTable",
    "coefficient_profiles",
    "coefficient_tables",
    "compute_coefficients",
    "evaluate_velocity",
    "table_texts",
]

#: Magnitude floor with two uses: radius fits treat tail coefficients below
#: it as exact zeros, and relative errors (``verify``'s oracle cross-check,
#: ``compare``'s velocity error) never divide by less than it.
TINY = 1e-300

#: Krasny filter level: after a proxy ring's column is cut to its band, each
#: mode but mode 0 whose modulus is below this fraction of the ring's
#: largest modulus at that order is set to zero.
FILTER_LEVEL = 1e-15

@dataclass(frozen=True, eq=False)
class CoefficientProfile:
    """Magnitude profile of the rescaled velocity coefficients of an N-particle ring.

    ``max_abs[j]`` = max_i |c_{ij}| * scale**j for j = 0..j_max, the one
    statistic the radius, exponent and bound reports read; ``j_max`` is read
    from its length.  Raises OverflowError at the first order that is not
    finite (the rescale is too large for this N and truncation depth).
    """

    N: int
    L: float
    scale: float
    max_abs: np.ndarray = field(repr=False)

    def __post_init__(self):
        finite = np.isfinite(self.max_abs)
        if not finite.all():
            raise OverflowError(
                f"coefficient overflow at order {int(np.argmin(finite))}: rescale "
                f"{self.scale} too large for N={self.N}, j_max={self.j_max}"
            )

    @property
    def j_max(self) -> int:
        return self.max_abs.size - 1

    def log_max_abs(self, j: int) -> float:
        """log(max_i |c_{ij}|) evaluated without leaving the log domain.

        Returns -inf when the stored column c_{ij} * scale**j is all 0.0:
        the order-j column vanishes identically, or its rescaled values
        underflowed.  A small explicit scale does the latter: on the sine
        force at N = 8, J_max = 12, scale = 1e-31 stores order 11 as 0.0.
        """
        m = float(self.max_abs[j])
        if m == 0.0:
            return -math.inf
        return math.log(m) - j * math.log(self.scale)


@dataclass(frozen=True, eq=False)
class CoefficientTable(CoefficientProfile):
    """Rescaled velocity coefficients for all particles up to order j_max.

    A profile plus its table: ``data[i, j]`` holds c_{ij} * scale**j for
    j = 0..j_max (column 0 is identically zero: the particles start at
    rest); ``N`` and ``j_max`` are read from its shape.  ``data`` may have
    any memory layout: the engine passes the transpose of its order-major
    array, whose columns ``data[:, j]`` are contiguous.  ``max_abs`` is
    taken once, at construction, and does not follow later writes to ``data``.
    """

    # The profile's fields, taken from ``data``; the constructor is (L, scale, data).
    N: int = field(init=False)
    max_abs: np.ndarray = field(init=False, repr=False)
    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[0] < 1 or self.data.shape[1] < 2:
            raise ConfigError(
                f"coefficient data must have shape (N >= 1, j_max+1 >= 2), got {self.data.shape}"
            )
        object.__setattr__(self, "N", self.data.shape[0])
        object.__setattr__(self, "max_abs", _magnitude(self.data.max(axis=0), self.data.min(axis=0)))
        super().__post_init__()


def _magnitude(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """max |c| from the column maxima and minima, without a copy of |c|.

    + 0.0 turns -0.0 into +0.0.  max and min carry NaN and inf through, so
    the profile's finiteness check sees every overflow.
    """
    return np.maximum(high, -low) + 0.0


def coefficient_tables(rings: Iterable[RingConfig]) -> Iterator[CoefficientTable]:
    """The coefficient table of each ring, in grid order.

    The rings share force and j_max (ConfigError otherwise) and run through
    one loop.  Raises OverflowError for the first ring whose table leaves
    double range, after the tables before it.
    """
    for ring, columns in _odd_columns(list(rings)):
        # Rescaled velocity coefficients, order-major; the even orders vanish from rest.
        c = np.zeros((ring.j_max + 1, ring.N))
        # Overflow runs on as inf/nan; CoefficientTable rejects the finished table.
        with np.errstate(over="ignore", invalid="ignore"):
            for row, column in zip(c[1::2], columns):
                row[:] = column
        yield CoefficientTable(L=ring.L, scale=ring.scale, data=c.T)


def coefficient_profiles(rings: Iterable[RingConfig]) -> list[CoefficientProfile]:
    """The magnitude profile of each ring's table, bit for bit, without its table.

    Each odd column is reduced to its maximum and minimum as soon as it is
    formed, so no more than one column of a ring is held.  Raises the
    OverflowError of ``coefficient_tables`` for the first ring that overflows.
    """
    profiles = []
    for ring, columns in _odd_columns(list(rings)):
        max_abs = np.zeros(ring.j_max + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            if isinstance(columns, np.ndarray):  # rows the loop holds reduce at once
                max_abs[1::2] = _magnitude(columns.max(axis=1), columns.min(axis=1))
            else:
                max_abs[1::2] = [_magnitude(column.max(), column.min()) for column in columns]
        profiles.append(CoefficientProfile(N=ring.N, L=ring.L, scale=ring.scale, max_abs=max_abs))
    return profiles


def compute_coefficients(config: RingConfig) -> CoefficientTable:
    """Fill the coefficient table order by order via series arithmetic.

    Raises OverflowError if any rescaled coefficient leaves double range
    (the rescale is too large for this N and truncation depth).
    """
    (table,) = coefficient_tables([config])
    return table


def _band(force: ForceSpec, j: int) -> int:
    """B_j = ceil(j/2) K_max: the top mode of the exact order-j column."""
    return (j + 1) // 2 * max((h.k for h in force.harmonics), default=0)


def _power_of_two(x: float) -> float:
    """The power of two 2**e with x < 2**e <= 2 x, for finite x > 0; 1.0 for x = 0.

    The exponent is clamped at 1023, the top of double range, so x >= 2**1023
    gives 2**1023 rather than an OverflowError.
    """
    return math.ldexp(1.0, min(math.frexp(x)[1], 1023))


def _project(column: np.ndarray, band: int) -> None:
    """Drop the modes above ``band`` of a periodic column, in place."""
    spectrum = np.fft.rfft(column)
    spectrum[band + 1 :] = 0.0
    np.fft.irfft(spectrum, n=column.size, out=column)


def _lattice(spectra: Iterable[np.ndarray], bands: list[int], N: int, P: int
             ) -> Iterator[np.ndarray]:
    """The N lattice values of each P-point ``rfft`` spectrum, up to its band, one at a time.

    The values are those of ``irfft(spectrum[:band+1] N/P, n=N)`` for every
    band below N/2, which a proxy ring's N > 2 B_J ensures; at N == P they
    are the grid values of the band-limited column.  Point i = l M + q of Q
    blocks of M points (Bailey's four-step split) is the sum over the modes
    m of Re(b_lm exp(2 pi i m q/N)), with b_lm = w_m/P X_m exp(2 pi i m l M/N)
    and w_m = 2 but for w_0 = 1, so a column is one complex product and one
    real product (Q, 2n) @ (2n, M) of (Re, Im) b against (cos, -sin) rows,
    n = band + 1.  Each phase 2 pi k/N takes k reduced to [-N/2, N/2) in
    integers.
    """
    Q = 1 << (N.bit_length() - 1) // 2  # 2**floor(log2 sqrt N)
    M = -(-N // Q)
    m = np.arange(max(bands) + 1)
    # The phases m q of the table's M columns, then m l M of the Q blocks.
    angle = m[:, None] * np.concatenate((np.arange(M), np.arange(0, Q * M, M)))
    angle = ((angle + N // 2) % N - N // 2) * (2 * np.pi / N)
    cos, sin = np.cos(angle), np.sin(angle)
    table = np.empty((2 * m.size, M))
    table[0::2], table[1::2] = cos[:, :M], -sin[:, :M]
    phase = np.empty((Q, m.size), complex)
    phase.real, phase.imag = cos[:, M:].T * (2 / P), sin[:, M:].T * (2 / P)
    phase[:, 0] /= 2
    del angle, cos, sin  # the generator holds on to the two tables only
    for spectrum, band in zip(spectra, bands):
        n = band + 1
        yield ((phase[:, :n] * spectrum[:n]).view(np.float64) @ table[: 2 * n]).ravel()[:N]


def _odd_columns(rings: list[RingConfig]) -> Iterator[tuple[RingConfig, Iterable[np.ndarray]]]:
    """Run the recursion for a grid in one loop; yield each ring with its odd columns.

    Yields ``(ring, columns)`` in grid order, where ``columns`` holds the
    lattice values of c_1, c_3, .. (rescaled): the (rows, N) view of the
    loop's rows for a packed ring, else one column at a time, summed from
    its spectrum by ``_lattice``, to be drawn before the next ring under
    the consumer's error state (overflow runs on as inf and nan).
    """
    if not rings:
        return
    force, J = rings[0].force, rings[0].j_max  # the force fixes L
    if any((ring.force, ring.j_max) != (force, J) for ring in rings):
        raise ConfigError("the rings of one grid must share force and j_max")
    # Rings of at most 2 B_J particles are packed on their own points; the
    # others take P-point blocks after them.  bands[r] is B_j, j = 2r + 1.
    bands = [_band(force, j) for j in range(1, J + 1, 2)]
    B = bands[-1]
    P = 1 << (2 * B).bit_length()
    packed = [ring for ring in rings if ring.N <= 2 * B]
    proxy = [ring for ring in rings if ring.N > 2 * B]
    sizes = np.array([ring.N for ring in packed] + [P] * len(proxy), dtype=int)
    R, Wl, width = len(proxy), int(sizes[: len(packed)].sum()), int(sizes.sum())
    last = np.cumsum(sizes[: len(packed)]) - 1  # each packed ring's last column
    first = last - sizes[: len(packed)] + 1
    x = np.concatenate([initial_positions(ring) for ring in packed]
                       + [np.arange(P) * (force.L / P) for _ in proxy])
    delta, s = (np.repeat([getattr(ring, name) for ring in packed + proxy], sizes)
                for name in ("delta", "scale"))
    neg_delta = -delta

    # Odd columns c_1, c_3, ..; the series gap, recip, u_terms and E keep row
    # r for t-order 2r, recip and E with order r in row rows-1-r, so each
    # convolution is one einsum over two forward slices, summed in ascending
    # row order straight into its output.  E holds (Re, Im) exp(i w_h u) per
    # harmonic and u_terms one row r * u_r, which einsum broadcasts over
    # every (harmonic, part).  The workspace is (2K+4) rows of W per order,
    # plus O(K) single rows.
    rows, K = (J + 1) // 2, len(force.harmonics)
    cols, gap, recip, u_terms = (np.empty((rows, width)) for _ in range(4))
    u = np.empty(width)
    pair = np.empty((2, width))  # w and the composed force of one order
    w, composed = pair
    turns, S = (np.empty((K, 2, width)) for _ in range(2))
    E = np.empty((rows, K, 2, width))
    # (Re, Im) of i w S is (-w Im S, w Re S): the pair swapped, times this.
    rotate = np.array([(-f, f) for f, _, _ in force._phases]).reshape(K, 2, 1)
    # E_h starts from a power of two near the harmonic's amplitude, and its
    # (p, q) rows are divided by it: no bit changes in normal range, and E_h
    # keeps the magnitude of the harmonic's share of the column, so a huge
    # amplitude under a tiny rescale does not push it into the subnormals.
    amp = np.array([_power_of_two(R) for _, _, R in force._phases])

    def block(a: np.ndarray) -> np.ndarray:
        """The (..., R, P) view of the proxy columns of ``a``."""
        return a[..., Wl:].reshape(a.shape[:-1] + (R, P))

    # Difference symbols of the proxy rings, the forward one times the
    # scale, and one spectrum per odd column.
    proxy_n, proxy_s = (np.array([getattr(ring, name) for ring in proxy], float).reshape(R, 1)
                        for name in ("N", "scale"))
    theta = 2.0 * np.pi * np.arange(P // 2 + 1 if R else 0) / proxy_n
    half = 2.0 * np.sin(0.5 * theta) ** 2
    forward = (np.sin(theta) * 1j - half) * proxy_s
    backward = np.sin(theta) * 1j + half
    spectra = np.empty((rows,) + theta.shape, complex)

    # Overflow runs on as inf/nan, which the consumers report; the error
    # state is not held across a yield.
    with np.errstate(over="ignore", invalid="ignore"):
        fk = force_jet(force, x, 0, turns=turns)
        turns /= amp[:, None, None]
        E[rows - 1, :, 0] = amp[:, None]  # amp exp(0)
        E[rows - 1, :, 1] = 0.0
        np.divide(1.0, delta, out=recip[rows - 1])
        # Order 1 is the force sample; w starts constant, so no interaction term.
        np.multiply(fk[0], s, out=cols[0])
        if R:
            np.fft.rfft(block(cols[0]), out=spectra[0])

        for j in range(3, J + 1, 2):
            m = j - 1  # integrand order being extracted
            r = m // 2
            # Newest velocity order read here is j-2; orders j-1 and j are
            # never touched, which is what makes the recursion well founded.
            np.multiply(cols[r - 1], s, out=u)
            u /= m
            if packed:
                np.subtract(u[1:Wl], u[: Wl - 1], out=gap[r, : Wl - 1])
                gap[r, last] = u[first] - u[last]  # each packed ring's own wrap
            if R:
                np.fft.irfft(spectra[r - 1] * (forward / m), n=P, out=block(gap[r]))
            np.multiply(u, r, out=u_terms[r])
            np.einsum("kn,kn->n", gap[1 : r + 1], recip[rows - r :], out=recip[rows - 1 - r])
            recip[rows - 1 - r] /= neg_delta
            # order m of (delta + R)**(-2); the products are symmetric in k <-> r-k
            tail = recip[rows - 1 - r :]
            np.einsum("kn,kn->n", tail[::-1], tail, out=w)
            # r E_r = i w sum_{k=1..r} (k u_k) E_{r-k}, in rows of t**2.
            np.einsum("rn,rhcn->hcn", u_terms[1 : r + 1], E[rows - r :], out=S)
            np.multiply(S[:, 1], rotate[:, 0] / r, out=E[rows - 1 - r, :, 0])
            np.multiply(S[:, 0], rotate[:, 1] / r, out=E[rows - 1 - r, :, 1])
            np.einsum("hcn,hcn->n", turns, E[rows - 1 - r], out=composed)

            # c_j = (s/j) (w_{i-1} - w_i + composed), projected to its band
            band = bands[r]
            if packed:
                out = cols[r, :Wl]
                np.subtract(w[: Wl - 1], w[1:Wl], out=out[1:])
                out[first] = w[last] - w[first]
                out += composed[:Wl]
                out *= s[:Wl] / j
                for ring, lo in zip(packed, first):
                    if 2 * band < ring.N:
                        _project(out[lo : lo + ring.N], band)
            if R:
                w_hat, composed_hat = np.fft.rfft(block(pair))
                spectra[r] = (composed_hat - backward * w_hat) * (proxy_s / j)
                spectra[r, :, band + 1 :] = 0.0
                modulus = np.abs(spectra[r])
                cut = modulus < FILTER_LEVEL * modulus.max(axis=1, keepdims=True)
                spectra[r, :, 1:][cut[:, 1:]] = 0.0  # mode 0, the current, stays
                np.fft.irfft(spectra[r], n=P, out=block(cols[r]))

    # The split keeps grid order, so each kind of ring draws its columns in turn:
    # views of the rows, or sums on the lattice over each order's band, which a
    # generator starts only when it is drawn.
    views = iter([cols[:, lo : lo + ring.N] for ring, lo in zip(packed, first)])
    sums = iter([_lattice(spectra[:, k], bands, ring.N, P) for k, ring in enumerate(proxy)])
    for ring in rings:
        yield ring, next(views if ring.N <= 2 * B else sums)


def ordered_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Yield ordered tuples of ``parts`` positive integers summing to ``total``."""
    if parts < 1 or total < parts:
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in ordered_compositions(total - first, parts - 1):
            yield (first,) + rest


def force_grid(config: RingConfig, k_max: int) -> np.ndarray:
    """The ring's force jet on its rest lattice: row k is F^(k)(i*L/N), for k = 0..k_max.

    One cos and one sin per harmonic and particle serve every row.
    """
    return force_jet(config.force, initial_positions(config), k_max)


def oracle_coefficients(config: RingConfig) -> CoefficientTable:
    """Slow literal evaluation of the coefficient recursion up to order config.j_max.

    For j >= 3,

        c_{ij} = - sum_m sum_{(j_1..j_m)} A  +  sum_k sum_{(j_1..j_k)} B,
        A = (1/j) d_m delta**(-2-m) nabla_minus( prod_p nabla_plus(c_{., j_p}) / (j_p+1) ),
        B = (1/j) F^(k)(x_i(0))/k! prod_p c_{i, j_p} / (j_p+1),
        d_m = (-1)**m (m+1),

    with the inner sums over ordered tuples satisfying
    (j_1+1)+...+(j_m+1) = j-1, which caps m and k at (j-1)//2.  Tuple
    enumeration grows exponentially, hence the hard limit j_max <= 9.

    The recursion runs on the rescaled coefficients c_{ij} * scale**j, so a
    force whose raw coefficients leave double range is checked as far as
    the engine's table reaches.  Each term then carries scale**(m+1) (A) or
    scale**(k+1) (B), applied the way the engine's displacement
    u = scale * c / (j_p+1) carries it: one factor of scale per tuple entry
    and one for the term, so no power of scale is formed on its own.  Each
    gap row is kept divided by 2**e, e the binary exponent of its largest
    entry, and a term's difference, times its prefactor, is multiplied back
    by 2 to the sum of its entries' exponents with ``np.ldexp``: exact in
    normal range, so no bit changes, while a product of large gaps whose
    term is finite no longer overflows on the way (a term that does
    overflow reads inf).  Raises OverflowError at the first order that
    leaves double range.
    """
    J, N, delta, s = config.j_max, config.N, config.delta, config.scale
    if J > 9:
        raise ConfigError(f"oracle enumeration is limited to j_max <= 9, got {J}")

    fk = force_grid(config, (J - 1) // 2)
    c = np.zeros((J + 1, N))
    c[1] = s * fk[0]
    gap = np.empty_like(c)  # gap[jp] = s * nabla_plus(c[jp]) / (jp + 1) / 2**expo[jp]
    expo = [0] * (J + 1)
    disp = np.empty_like(c)  # disp[jp] = s * c[jp] / (jp + 1)
    left = np.arange(N) - 1  # prod - prod[left] is nabla_minus(prod)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(3, J + 1):
            # Order j reads orders up to j - 2; the newest of them is final now.
            top = j - 2
            row = s * np.diff(c[top], append=c[top, :1]) / (top + 1)
            expo[top] = math.frexp(float(np.max(np.abs(row))))[1]
            gap[top] = np.ldexp(row, -expo[top])
            disp[top] = s * c[top] / (top + 1)
            acc = np.zeros(N)
            for m in range(1, (j - 1) // 2 + 1):
                d_m = (-1) ** m * (m + 1)
                pref = d_m * delta ** (-2.0 - m) * s / j
                for tup in ordered_compositions(j - 1 - m, m):
                    prod, e = gap[tup[0]].copy(), expo[tup[0]]
                    for jp in tup[1:]:
                        prod *= gap[jp]
                        e += expo[jp]
                    acc -= np.ldexp(pref * (prod - prod[left]), e)
            for k in range(1, (j - 1) // 2 + 1):
                f = fk[k] / math.factorial(k)
                # Each product starts from a power of two near max |f|, which
                # f is divided by: no bit changes in normal range, and a
                # product of tiny displacements stays out of the subnormals.
                seed = _power_of_two(float(np.max(np.abs(f))))
                f /= seed
                for tup in ordered_compositions(j - 1 - k, k):
                    prod = np.full(N, seed)
                    for jp in tup:
                        prod *= disp[jp]
                    acc += (s / j) * (f * prod)
            c[j] = acc
    # An overflowing product leaves its order's sum inf or NaN, which the table rejects.
    return CoefficientTable(L=config.L, scale=s, data=c.T)


def evaluate_velocity(table: CoefficientTable, t: float) -> np.ndarray:
    """All particle velocities at time t by Horner evaluation in tau = t/scale."""
    return np.polynomial.polynomial.polyval(t / table.scale, table.data.T)


def table_texts(table: CoefficientTable, force: ForceSpec,
                formats: Iterable[str]) -> dict[str, str]:
    """The artifact texts of ``formats``, any of "csv" and "json", keyed by format.

    One ``float_text_pair`` call formats the live columns, those holding a
    value other than +0.0 (read from the bits: ``max_abs`` folds -0.0 into
    +0.0 and does not follow later writes to ``data``), raveled i-major,
    once for both forms and only for the formats asked for; slice
    assignment spreads each over its order's places, and every other
    column, the structurally zero even orders, is the literal ``0`` or
    ``0.0`` throughout.  ``table_csv`` and ``table_json`` lay the texts
    out.  Raises ValueError on an unknown format.
    """
    formats = set(formats)
    if formats - {"csv", "json"}:
        raise ValueError(f"unknown table formats {sorted(formats - {'csv', 'json'})}")
    live = [j for j in range(1, table.j_max + 1) if table.data[:, j].view(np.uint64).any()]
    pair = float_text_pair(table.data[:, live], "csv" in formats, "json" in formats)
    texts = {}
    for fmt, formatted, zero in zip(("csv", "json"), pair, ("0", "0.0")):
        if fmt in formats:
            values = [zero] * (table.N * table.j_max)
            for k, j in enumerate(live):
                values[j - 1 :: table.j_max] = formatted[k :: len(live)]
            texts[fmt] = table_csv(table, values) if fmt == "csv" else table_json(table, force, values)
    return texts


def table_csv(table: CoefficientTable, values: list[str]) -> str:
    """CSV rendering, one row per (i, j), i-major, of the ``%.17g`` texts ``values``.

    A row is four pieces, the index, ``,j,``, the value's text and the
    constant tail, laid into one list by slice assignment and joined once.
    """
    J, N = table.j_max, table.N
    index = list(map(str, range(N)))
    pieces = [""] * (4 * N * J)
    for j in range(J):
        pieces[4 * j :: 4 * J] = index
    pieces[1::4] = [f",{j}," for j in range(1, J + 1)] * N
    pieces[2::4] = values
    pieces[3::4] = [f",{table.scale:.17g},{N},{table.L:.17g},{J}\n"] * (N * J)
    pieces[0] = "i,j,c_scaled,scale,N,L,J_max\n" + pieces[0]  # so the text is not copied again
    return "".join(pieces)


def table_json(table: CoefficientTable, force: ForceSpec, values: list[str]) -> str:
    """JSON artifact text: config header (with the force), rescale, and row-major coefficients.

    The bytes are those of ``json.dumps(payload, indent=2, sort_keys=True,
    allow_nan=False) + "\n"`` for the payload with keys ``config``, ``scale``
    and ``coefficients``.  Only the small header goes through ``json``; the
    coefficients are ``values``, the ``float.__repr__`` texts, the
    encoder's float form, joined once.  Raises ValueError on a non-finite
    value, as ``allow_nan=False`` does.
    """
    if not np.isfinite(table.data[:, 1:]).all():
        raise ValueError(f"coefficient table N={table.N}: non-finite values are not valid JSON")
    header = json.dumps(
        {"config": {"N": table.N, "L": table.L, "J_max": table.j_max, "force": force.to_json()},
         "scale": table.scale},
        indent=2, sort_keys=True, allow_nan=False,
    )
    items = ",\n    ".join(values)
    # "coefficients" sorts before "config" and "scale", so it opens the object.
    return f'{{\n  "coefficients": [\n    {items}\n  ],\n{header[2:]}\n'
