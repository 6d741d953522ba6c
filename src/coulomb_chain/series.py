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
  * the force term F(x_i(0) + u_i) is composed in one of two ways (below):
    from the table of powers u_i**k, or through exp(i w u_i) per harmonic;
  * c_{ij} = [w_{i-1} - w_i + F(x_i(0)+u_i)]_{j-1} / j.

The power table composes sum_k F^(k)(x_i(0))/k! * u_i**k with the exact
derivative coefficients, where only k <= (j_max-1)//2 can reach order
j_max - 1 since u starts at order 2.  The exponential composition writes
each harmonic at x_i(0) as p = a cos + b sin and its quarter turn
q = b cos - a sin, so that

    F(x_i(0) + u_i) = a0 + sum_h p_h Re E_h + q_h Im E_h,   E_h = exp(i w_h u_i),

and fills E_h order by order with m E_m = i w sum_{k=1..m} k u_k E_{m-k}
(Knuth, TAOCP vol. 2, section 4.7), starting from E_0 = 1.  Order 1 is
F(x_i(0)) either way, row 0 of the same force jet.  With R = (j_max-1)//2
and K harmonics, the power table takes R(R+1)(R+2)/6 multiply-adds per
column and the exponential K R (R+5); each walk takes the one with fewer,
and a tie keeps the power table.  The wide-N grid (j_max = 9, K = 2: 20
against 72) and the validate grid (24, 2: 286 against 352) keep the
power table, the deep-J grid (96, 3: 18424 against 7332) composes through
exp.  The two agree to rounding: within 8 eps column-relative on every
exponential-side config of the tests' dense-reference grid, where the
worst is 2.3 eps.

Everything is stored pre-multiplied by scale**j (the coefficient of tau**j
in v_i(scale*tau)), which keeps magnitudes bounded for large N.  The
particles of one slab (below) advance together one order at a time as
vectorized array rows.

Only structurally nonzero terms are computed.  From rest every even order
vanishes (the velocities are odd in t), so u, R, 1/(delta+R), w, every
u**k and every E_h carry only even powers of t, u starts at t**2 and u**k
at t**(2k).
The loop therefore runs c_{i1} = scale * F(x_i(0)) and then odd j only
(even integrand order m = j - 1), and each convolution takes the even rows
of its band: the reciprocal sums gap[2, 4, .., m] * recip[m-2, .., 0], the
square recip[0, 2, .., m] * recip[m, .., 0], u**k at order m sums
u[i] * (u**(k-1))[m-i] for i = 2, 4, .., m-2k+2 and k <= m/2, and E at
order m sums (i u_i) * E[m-i] for i = 2, 4, .., m.  Even columns of the
table are the exact +0.0.  The result is bit-identical to the dense loop
of its composition over all orders and all rows (both kept in the tests
as the reference): every sum keeps its ascending row order and only drops
addends that are exactly zero, which can at most flip the sign of a zero;
the factors 2 between t-orders and the rows below (i u_i against
(i/2) u_i, w/m against w/(m/2)) are exact; no series value is ever a
divisor, and the final (scale/j) * (interaction + composed) never yields
-0.0.

Those series rows are stored only for even m (row r holds order m = 2r),
so gap, recip, u and each power pow_u[k] or E hold (j_max+1)//2 rows, and
w is formed per order, since only its newest row is read.  The power
table keeps u as pow_u[1]; the exponential path keeps r * u_r in row r
once the gap has read u_r, and E as (rows, K, 2, width), the reduction
axis first, so one order is one broadcast multiply of the rows of r * u_r
by E's rows in reverse, one ``np.add.reduce`` over axis 0, one rotation
by i w / r (the pair reversed, times (-w, w) / r) and one ``einsum``
with the (p, q) rows.

One walk serves a grid of rings that share the force and j_max, in slabs
of at most 16384 columns, so the rows it sweeps once per order stay in
cache.  Rings of at most one slab are packed whole, side by side in grid
order, until the next would not fit.  Each shift subtracts slices across
the whole slab; one fancy-indexed assignment per shift then overwrites the
differences across two rings with every ring's wrap column,
gap[r, last] = u[r, first] - u[r, last] and c[j][first] = w[last] - w[first],
so each ring keeps its own wrap.  A slab of several rings takes one row
each of delta, -delta and scale, one value per column (a slab of one ring
broadcasts its own), which keeps the bits of every elementwise operation.
A larger ring walks alone, in slabs of 16384 particles.  Order j at
particle i reads order j-2 only at i-1..i+1 (the forward difference of u,
the backward difference of w), so the top order reaches H = (j_max-1)//2
particles to each side of order 1.  Each of its slabs is extended by a
halo of H particles on both sides, indices taken mod N, and the loop runs
unchanged on the extended slab with its cyclic shifts inside the slab:
the false wrap at the slab's ends moves in by one particle per odd order
and never reaches the central columns, which alone are kept (either
composition reads u at its own particle only).  A slab's force jet is
``force.force_jet`` at idx * delta, the bits of ``ring.initial_positions``,
one trig pass that also hands the exponential path its (p, q) rows, so
every table is bit-identical to one loop over its whole ring.  The power
composition at order m sums k <= m/2 only, since u**k is zero below order
2k.

Packing pays at deep j_max and small N, where numpy dispatch, not
arithmetic, sets the cost: about 26 numpy calls per order at j_max = 96,
1,200 per slab.  Six of them per order, 282 in all, compose the force
through exp; the u**k table would take 2,160 calls per slab.
At j_max = 96 and K = 3 one ring's profile takes about 3.4 ms at N = 2
and 5.3 ms at N = 128; the grid N = 16, 32, 64, 128 takes 8.8 ms as one
slab against 18 ms ring by ring, where the u**k table took 9.6, 15, 18
and 48 ms (medians of 30 runs in one process, pinned to one core of a
2-vCPU x86-64 host, numpy 2.4).  Of those 8.8 ms the broadcast multiply
of the exponential composition takes about 2.5.

Each call allocates one workspace, sized to the widest slab: the slab's
coefficient rows, recip, gap, w and one scratch for the products of a
convolution band; for the power table the force jet rows and pow_u, for
the exponential path row 0 of the jet, the rows of r * u_r, the (p, q)
rows, E and one order's addends of E and their sum.  All are
uninitialized, and every slab writes each row it reads before reading
it.  The products go into the scratches (``out=``) and the jet into its
rows, so the walk allocates only the jet's per-harmonic temporaries and a
slab's indices and parameter rows.  One slab walk feeds two grid
consumers.  ``coefficient_tables`` copies each slab's odd rows of a ring
into that ring's table, filled order-major with +0.0 in its even rows,
and hands ``CoefficientTable`` its transpose, a view, not a copy, as soon
as the ring's last slab is done;
``compute_coefficients`` is its one-ring case.  ``coefficient_profiles``
reduces each slab's odd rows to running column maxima and minima per ring
while they are in cache and keeps no table; max and min are exact and
carry NaN and inf, so its profiles and overflow error are those of the
tables bit for bit.

The reciprocal and square cost O(N * j_max**2).  The power table costs
O(N * j_max**3), about N * j_max**3 / 48 multiply-adds, and holds
O(j_max**2) rows per column; the exponential composition costs
O(N * K * j_max**2) and holds O(K * j_max) rows.  The halo adds 2H
particles per slab.  The force jet F^(k)(x_i(0)) for k = 0..(j_max-1)//2
costs one cos and one sin per harmonic and particle, plus
O(N * j_max * K) multiplies for K force harmonics; the exponential path
takes row 0 and the (p, q) rows of the same pass.  Peak memory of
``compute_coefficients`` is the table and the workspace (the table's
magnitude profile takes column maxima and minima, not a copy of |c|): at
N = 2**17 about 1.8 times the table's bytes for j_max = 9 and 2.2 times
for j_max = 24.  ``coefficient_profiles`` holds the workspace alone, which
does not grow with N: 8.5 MiB at j_max = 9 and 29 MiB at j_max = 24 for
any N above one slab, and 27.5 MiB at j_max = 96, K = 3 and N = 4096,
where the power table held 81.4 MiB (traced by ``tracemalloc``).

The writers ``table_csv`` and ``table_json`` return the artifact text and
cost one float format per value each (``%.17g`` and ``float.__repr__``),
except in a column of +0.0 only, the structurally zero even orders, which
they print as a literal zero; at j_max = 9 that is far more than the
engine's own time.  A table takes its magnitude profile max_i |c_{ij}|,
which every report reads, in one reduction; ``evaluate_velocity`` sums
the velocity series.

A literal composition-sum evaluation of the same recursion
(``oracle_coefficients``) is kept as an independent cross-check for small
orders; it enumerates every ordered tuple (j_1..j_m) with
(j_1+1)+...+(j_m+1) = j-1 and is exponential in j.  Each order j_p's two
tuple-entry rows, the scaled gap s * nabla_plus(c_{., j_p}) / (j_p+1) and
the scaled displacement s * c_{., j_p} / (j_p+1), are built once, as soon
as the order is final, so a tuple costs one multiply per entry, a
finiteness scan and, on the gap side, one backward difference.  At
j_max = 9 the three cross-check rings of the deep-J force take about
3.7 ms, where differencing per tuple entry took 9.9 ms (medians in one
process, one core of a 2-vCPU x86-64 host, numpy 2.4).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError
from .force import ForceSpec, force_jet
from .ring import RingConfig, force_grid, nabla_minus, nabla_plus

__all__ = [
    "CoefficientProfile",
    "CoefficientTable",
    "coefficient_profiles",
    "coefficient_tables",
    "compute_coefficients",
    "oracle_coefficients",
    "ordered_compositions",
    "evaluate_velocity",
    "table_csv",
    "table_json",
]

#: Magnitude floor with two uses: radius fits treat tail coefficients below
#: it as exact zeros, and relative errors (``verify``'s oracle cross-check,
#: ``compare``'s velocity error) never divide by less than it.
TINY = 1e-300

#: Particles per slab of the engine's slab walk, chosen by measurement:
#: at j_max = 9, 16384 beat 8192 and 32768.
_SLAB = 16384


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

        Returns -inf when the order-j column vanishes identically.
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
    any memory layout: the engines pass the transpose of their order-major
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
    """The coefficient table of each ring, in grid order, as soon as its last slab is done.

    The rings share force and j_max (ConfigError otherwise) and walk
    together through one workspace.  Raises OverflowError for the first ring
    whose table leaves double range, after the tables before it.
    """
    for ring, start, core in _slabs(list(rings)):
        if start == 0:
            c = np.empty((ring.j_max + 1, ring.N))  # rescaled velocity coefficients, order-major
            c[::2] = 0.0  # the even orders vanish from rest
        c[1::2, start : start + core.shape[1]] = core[1::2]
        if start + core.shape[1] == ring.N:
            # Overflow runs on as inf/nan; CoefficientTable rejects the finished table.
            yield CoefficientTable(L=ring.L, scale=ring.scale, data=c.T)


def coefficient_profiles(rings: Iterable[RingConfig]) -> list[CoefficientProfile]:
    """The magnitude profile of each ring's table, bit for bit, without its table.

    Each slab's odd orders are reduced to running column maxima and minima
    while they are in cache, so memory does not grow with N.  Raises the
    OverflowError of ``coefficient_tables`` for the first ring that overflows.
    """
    profiles = []
    for ring, start, core in _slabs(list(rings)):
        if start == 0:
            high = np.full((ring.j_max + 1) // 2, -np.inf)
            low = np.full_like(high, np.inf)
        np.maximum(high, core[1::2].max(axis=1), out=high)
        np.minimum(low, core[1::2].min(axis=1), out=low)
        if start + core.shape[1] == ring.N:
            max_abs = np.zeros(ring.j_max + 1)
            max_abs[1::2] = _magnitude(high, low)
            profiles.append(CoefficientProfile(N=ring.N, L=ring.L, scale=ring.scale, max_abs=max_abs))
    return profiles


def compute_coefficients(config: RingConfig) -> CoefficientTable:
    """Fill the coefficient table order by order via series arithmetic.

    Raises OverflowError if any rescaled coefficient leaves double range
    (the rescale is too large for this N and truncation depth).
    """
    (table,) = coefficient_tables([config])
    return table


def _slabs(rings: list[RingConfig]) -> Iterator[tuple[RingConfig, int, np.ndarray]]:
    """Run the recursion slab by slab in one workspace; yield each ring's columns of a slab.

    Yields ``(ring, start, core)`` in grid order: ``core`` is the
    (j_max+1, width) view of the coefficients of the ring's particles
    start..start+width-1, of which only the odd rows are written, and the
    next slab overwrites it.  Column l of a slab has neighbours l-1 and l+1,
    except at each ring's first and last column, which are each other's
    neighbours; in a haloed slab these are the slab's ends, so a column at
    distance h from them is exact up to order 2h+1.
    """
    if not rings:
        return
    force, J = rings[0].force, rings[0].j_max  # the force fixes L
    if any((ring.force, ring.j_max) != (force, J) for ring in rings):
        raise ConfigError("the rings of one grid must share force and j_max")
    # Rings of at most one slab are packed whole, in grid order, with no halo.
    # A larger ring walks alone: order j at particle i reads order j-2 only
    # at i-1..i+1, so the top order reaches (J-1)//2 particles to each side
    # of order 1, and each of its slabs takes that halo.
    slabs, pack = [], []  # (halo, [(ring, start, stop), ...])
    for ring in rings:
        if pack and sum(r.N for r, _, _ in pack) + ring.N > _SLAB:
            slabs.append((0, pack))
            pack = []
        if ring.N > _SLAB:
            slabs += [((J - 1) // 2, [(ring, start, min(start + _SLAB, ring.N))])
                      for start in range(0, ring.N, _SLAB)]
        else:
            pack.append((ring, 0, ring.N))
    slabs += [(0, pack)] if pack else []
    # Only k <= (J-1)//2 of the force Taylor data can contribute below order
    # J because u starts at t^2.  Only odd orders j (even integrand orders m)
    # are nonzero, and only even rows of the series are ever read, so gap,
    # recip, u and its powers or exponentials keep row r for series order
    # m = 2r.  The power table pow_u[k] = u**k holds u itself as row 1
    # (allocated at J <= 2 too, k_cap = 0); the exponential path keeps
    # r * u_r in u instead and E[r, h] = (Re, Im) exp(i w_h u) per harmonic.
    # The workspace is sized to the widest slab and every row of it is
    # written before it is read.
    k_cap, rows = (J - 1) // 2, (J + 1) // 2
    K = len(force.harmonics)
    exponential = _exponential_composition(J, K)
    width = max(sum(stop - start + 2 * halo for _, start, stop in pieces) for halo, pieces in slabs)
    workspace = (
        np.empty((J + 1, width)),  # the slab's coefficients, order-major
        np.empty((rows, width)),  # 1 / (delta + R)
        np.empty((rows, width)),  # R = forward difference of u over the ring
        np.empty((rows, width)),  # the products of one convolution
        np.empty(width),  # the newest order of w = (delta + R)**(-2)
    )
    if exponential:  # so k_cap >= 1
        workspace += (
            np.empty((1, width)),  # F(x_i(0))
            np.empty((rows, width)),  # r * u_r
            np.empty((K, 2, width)),  # (p, q) of each harmonic
            np.empty((rows, K, 2, width)),  # (Re, Im) exp(i w u) of each harmonic
            np.empty((k_cap + 1, K, 2, width)),  # one order's sum, then its addends
        )
        # (Re, Im) of i w S is (-w Im S, w Re S): the pair reversed, times this.
        freq = [2.0 * np.pi * h.k / force.L for h in force.harmonics]
        rotate = np.array([(-f, f) for f in freq]).reshape(K, 2, 1)
    else:
        workspace += (
            np.empty((k_cap + 1, width)),  # fk[k] = F^(k)(x_i(0))/k!
            np.empty((max(k_cap, 1) + 1, rows, width)),  # u**k
        )

    for halo, pieces in slabs:
        sizes = np.array([stop - start + 2 * halo for _, start, stop in pieces])
        last = np.cumsum(sizes) - 1  # each ring's last column in the slab
        first = last - sizes + 1
        # Particle indices.  Only a split ring's end slabs leave 0..N-1, and
        # only they pay for the integer modulo (about 80 us per 16384 particles).
        spans = [(np.arange(start - halo, stop + halo), ring.N) for ring, start, stop in pieces]
        idx = np.concatenate([i % n if i[0] < 0 or i[-1] >= n else i for i, n in spans])
        c, recip, gap, prod, w, fk, *rest = (a[..., : idx.size] for a in workspace)
        if exponential:
            u, turns, E, terms = rest
        else:
            (pow_u,) = rest
            u = pow_u[1]
        # Each column's ring parameters; a slab of one ring broadcasts its own.
        delta, s = (np.repeat(v, sizes) if len(pieces) > 1 else v for v in (
            np.array([ring.delta for ring, _, _ in pieces]),
            np.array([ring.scale for ring, _, _ in pieces])))
        neg_delta = -delta
        # Overflow runs on as inf/nan, which the consumers report; the error
        # state is not held across a yield.
        with np.errstate(over="ignore", invalid="ignore"):
            # Exact force Taylor data at the rest positions; idx * delta has
            # the bits of ``initial_positions``.
            if exponential:
                force_jet(force, idx * delta, 0, out=fk, turns=turns)
                E[0] = [[1.0], [0.0]]  # exp(0)
            else:
                force_jet(force, idx * delta, k_cap, out=fk)
                for k in range(2, k_cap + 1):
                    fk[k] /= math.factorial(k)
            np.divide(1.0, delta, out=recip[0])
            # Order 1 is the force sample; w starts constant, so no interaction term.
            np.multiply(fk[0], s, out=c[1])

            for j in range(3, J + 1, 2):
                m = j - 1  # integrand order being extracted
                r = m // 2
                # Newest velocity order read here is j-2; orders j-1 and j are
                # never touched, which is what makes the recursion well founded.
                np.multiply(c[m - 1], s, out=u[r])
                u[r] /= m
                np.subtract(u[r, 1:], u[r, :-1], out=gap[r, :-1])
                gap[r, last] = u[r, first] - u[r, last]  # each ring's own wrap
                np.multiply(gap[1 : r + 1], recip[r - 1 :: -1], out=prod[:r])
                np.add.reduce(prod[:r], axis=0, out=recip[r])
                recip[r] /= neg_delta
                np.multiply(recip[: r + 1], recip[r::-1], out=prod[: r + 1])
                np.add.reduce(prod[: r + 1], axis=0, out=w)  # order m of (delta + R)**(-2)
                # The order-m term of F(x_i(0) + u_i).
                if exponential:
                    # r E_r = i w sum_{k=1..r} (k u_k) E_{r-k}, in rows of t**2.
                    u[r] *= r
                    np.multiply(u[1 : r + 1, None, None], E[r - 1 :: -1], out=terms[1 : r + 1])
                    np.add.reduce(terms[1 : r + 1], axis=0, out=terms[0])
                    np.multiply(terms[0, :, ::-1], rotate / r, out=E[r])
                    composed = np.einsum("hcn,hcn->n", turns, E[r], out=prod[0])
                else:
                    for k in range(2, r + 1):
                        # u starts at order 2 and u**(k-1) at order 2k-2.
                        band = prod[: r - k + 1]
                        np.multiply(u[1 : r - k + 2], pow_u[k - 1, r - 1 : k - 2 : -1], out=band)
                        np.add.reduce(band, axis=0, out=pow_u[k, r])
                    # u**k is zero at order m for k > r.
                    composed = np.einsum("kn,kn->n", fk[1 : r + 1], pow_u[1 : r + 1, r], out=prod[0])

                # c_j = (s/j) (w_{i-1} - w_i + composed)
                out = c[j]
                np.subtract(w[:-1], w[1:], out=out[1:])
                out[first] = w[last] - w[first]
                out += composed
                out *= s / j
        for (ring, start, stop), lo in zip(pieces, first):
            yield ring, start, c[:, lo + halo : lo + halo + stop - start]


def _exponential_composition(j_max: int, harmonics: int) -> bool:
    """Whether ``_slabs`` composes the force through exp(i w u) rather than u**k.

    With R = (j_max-1)//2 and K harmonics, the exponential recurrence takes
    K R (R+5) multiply-adds per column and the power table R(R+1)(R+2)/6;
    the cheaper one wins, and a tie keeps the power table.
    """
    R = (j_max - 1) // 2
    return harmonics * R * (R + 5) < R * (R + 1) * (R + 2) // 6


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
    and one for the term, so no power of scale is formed on its own.
    Raises OverflowError at the first order that leaves double range.
    """
    J, N, delta, s = config.j_max, config.N, config.delta, config.scale
    if J > 9:
        raise ConfigError(f"oracle enumeration is limited to j_max <= 9, got {J}")

    def finite(values: np.ndarray, j: int) -> np.ndarray:
        if not np.isfinite(values).all():
            raise OverflowError(
                f"oracle_coefficients: coefficient overflow at order {j} for N={N}, j_max={J}"
            )
        return values

    fk = force_grid(config, (J - 1) // 2)
    c = np.zeros((J + 1, N))
    c[1] = s * fk[0]
    gap = np.empty_like(c)  # gap[jp] = s * nabla_plus(c[jp]) / (jp + 1)
    disp = np.empty_like(c)  # disp[jp] = s * c[jp] / (jp + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(3, J + 1):
            # Order j reads orders up to j - 2; the newest of them is final now.
            top = j - 2
            gap[top] = s * nabla_plus(c[top]) / (top + 1)
            disp[top] = s * c[top] / (top + 1)
            acc = np.zeros(N)
            for m in range(1, (j - 1) // 2 + 1):
                d_m = (-1) ** m * (m + 1)
                pref = d_m * delta ** (-2.0 - m) * s / j
                for tup in ordered_compositions(j - 1 - m, m):
                    prod = np.ones(N)
                    for jp in tup:
                        prod *= gap[jp]
                    acc -= pref * nabla_minus(finite(prod, j))
            for k in range(1, (j - 1) // 2 + 1):
                f = fk[k] / math.factorial(k)
                for tup in ordered_compositions(j - 1 - k, k):
                    prod = np.ones(N)
                    for jp in tup:
                        prod *= disp[jp]
                    acc += (s / j) * (f * prod)
            c[j] = finite(acc, j)
    return CoefficientTable(L=config.L, scale=s, data=c.T)


def evaluate_velocity(table: CoefficientTable, t: float) -> np.ndarray:
    """All particle velocities at time t by Horner evaluation in tau = t/scale."""
    tau = t / table.scale
    acc = np.zeros(table.N)
    for j in range(table.j_max, 0, -1):
        acc = acc * tau + table.data[:, j]
    return acc * tau


def _live_orders(table: CoefficientTable) -> list[int]:
    """The orders j >= 1 whose column holds a value other than +0.0, read from the bits.

    The writers print the other columns, the structurally zero even orders,
    as a literal zero and format no float for them.  ``max_abs`` cannot tell
    them: it folds -0.0 into +0.0 and does not follow later writes to ``data``.
    """
    return [j for j in range(1, table.j_max + 1) if table.data[:, j].view(np.uint64).any()]


def table_csv(table: CoefficientTable) -> str:
    """CSV rendering, one row per (i, j), i-major, 17 significant digits.

    One printf template spans the j_max lines of a particle and is applied
    to (i, c_i1, i, c_i2, ...), so the cost is one float format per value;
    a column of +0.0 only is the literal ``0`` in the template.
    """
    J, live = table.j_max, _live_orders(table)
    tail = f",{table.scale:.17g},{table.N},{table.L:.17g},{J}\n"
    row = "".join(f"%d,{j},{'%.17g' if j in live else '0'}{tail}" for j in range(1, J + 1))
    index = range(table.N)
    args = zip(*[arg for j in range(1, J + 1)
                 for arg in ((index, table.data[:, j].tolist()) if j in live else (index,))])
    return "i,j,c_scaled,scale,N,L,J_max\n" + "".join(map(row.__mod__, args))


def table_json(table: CoefficientTable, force: ForceSpec) -> str:
    """JSON artifact text: config header (with the force), rescale, and row-major coefficients.

    The bytes are those of ``json.dumps(payload, indent=2, sort_keys=True,
    allow_nan=False) + "\n"`` for the payload with keys ``config``, ``scale``
    and ``coefficients``.  Only the small header goes through ``json``; the
    coefficients take one ``float.__repr__`` each, the encoder's float form,
    through one template per particle in which a column of +0.0 only is the
    literal ``0.0``.  Raises ValueError on a non-finite value, as
    ``allow_nan=False`` does.
    """
    if not np.isfinite(table.data[:, 1:]).all():
        raise ValueError(f"coefficient table N={table.N}: non-finite values are not valid JSON")
    header = json.dumps(
        {"config": {"N": table.N, "L": table.L, "J_max": table.j_max, "force": force.to_json()},
         "scale": table.scale},
        indent=2, sort_keys=True, allow_nan=False,
    )
    live = _live_orders(table)
    row = ",\n    ".join("%r" if j in live else "0.0" for j in range(1, table.j_max + 1))
    columns = [table.data[:, j].tolist() for j in live]
    items = ",\n    ".join(map(row.__mod__, zip(*columns)) if columns else [row] * table.N)
    # "coefficients" sorts before "config" and "scale", so it opens the object.
    return f'{{\n  "coefficients": [\n    {items}\n  ],\n{header[2:]}\n'
