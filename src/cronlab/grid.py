"""Periodic-box sampled fields and the spectral calculus everything else builds on.

Conventions.  The box is [0, L)^n sampled at N points per axis, x_j = j*L/N.
The forward transform is the Riemann-sum approximation of
``f_hat(xi) = integral exp(-2 pi i x.xi) f(x) dx``, i.e. ``fftn(values) * dx**n``,
living on the frequency lattice xi in (1/L)*{-N/2, ..., N/2-1}^n (numpy fft
layout).  A lattice plane wave exp(2 pi i x.xi0) therefore maps to a single
coefficient of value L^n, and Plancherel holds exactly:

    sum |f|^2 dx^n  ==  sum |f_hat|^2 / L^n.

Multipliers.  ``apply_multiplier`` takes only a symbol of the grid's registry
(``GridSpec.symbol``), checked finite and Hermitian once, when it is built.
It forces the Nyquist rows (index N/2 along any axis), which are not closed
under negation, to zero.

Real fields.  A field made with ``real_valued=True`` holds float64 samples in
physical representation and, in frequency representation, the half spectrum
``rfftn(values) * dx**n`` (the last axis cut to N//2 + 1; the other half is its
conjugate mirror); its transforms are ``rfftn``/``irfftn``.  Only this module
knows that layout.  ``freq_values`` returns the whole lattice for every field;
``ScalarField.lattice`` and ``plancherel_l2`` serve code that works on the
stored spectrum.  A real field stays real through every multiplier (each is
Hermitian, m(-xi) = conj(m(xi)), as every real-kernel operator is), real +-
real and a real scalar factor; any other operation returns a complex field.

Transforms.  This module alone calls ``numpy.fft`` and writes a transform's
dx^n or 1/L^n.  Other modules reach a transform through ``to_frequency`` and
``to_physical``, or, for a spectrum carried by a few fixed modes, through the
pruned DFT ``_ModeKernel``, which reads its rows from ``GridSpec.dft_table``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, PreconditionError, StructuralError

PHYSICAL = "physical"
FREQUENCY = "frequency"

# relative magnitude below which a frequency coefficient counts as "not present"
SUPPORT_TOL = 1e-13


class Lattice(NamedTuple):
    """Frequency coordinates xi, |xi| of the lattice a field's spectrum is stored on."""

    xi: np.ndarray
    xi_norm: np.ndarray


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the periodic box: dimension n, points per axis N, side L."""

    n: int
    N: int
    L: float
    cell_volume: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 2 <= self.n <= 6:
            raise ParameterError(f"dimension n={self.n} outside the supported range 2..6")
        if self.N < 8 or self.N & (self.N - 1) != 0:
            raise ParameterError(f"N={self.N} must be a power of two >= 8")
        if not 0.0 < self.L < np.inf:
            raise ParameterError(f"box side L={self.L} must be positive and finite")
        try:
            volume = self.dx ** self.n
        except OverflowError:
            volume = np.inf
        if not 0.0 < volume < np.inf:
            raise ParameterError(f"box side L={self.L} gives a cell volume (L/N)^n "
                                 f"outside the float range")
        object.__setattr__(self, "cell_volume", volume)

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.n

    @property
    def num_points(self) -> int:
        return self.N ** self.n

    @property
    def nyquist(self) -> float:
        """Largest representable |xi_j| along one axis, (N/2 - 1)/L."""
        return (self.N // 2 - 1) / self.L

    @cached_property
    def freq_1d(self) -> np.ndarray:
        return np.fft.fftfreq(self.N, d=self.dx)  # integer modes / L

    @cached_property
    def xi(self) -> np.ndarray:
        """Frequency lattice coordinates, stacked: shape (n,) + shape."""
        axes = np.meshgrid(*([self.freq_1d] * self.n), indexing="ij")
        out = np.stack(axes)
        out.flags.writeable = False
        return out

    @cached_property
    def xi_norm(self) -> np.ndarray:
        out = np.sqrt((self.xi ** 2).sum(axis=0))
        out.flags.writeable = False
        return out

    @cached_property
    def x(self) -> np.ndarray:
        """Physical sample coordinates, stacked: shape (n,) + shape."""
        ax = np.arange(self.N) * self.dx
        out = np.stack(np.meshgrid(*([ax] * self.n), indexing="ij"))
        out.flags.writeable = False
        return out

    @cached_property
    def dft_table(self) -> np.ndarray:
        """E[k, j] = e^{2 pi i k j / N}, the exponent reduced mod N before scaling:
        the one table every few-mode transform on this grid reads its rows from."""
        k = np.arange(self.N)
        out = np.exp(2j * np.pi * (np.outer(k, k) % self.N) / self.N)
        out.flags.writeable = False
        return out

    # The grid's registry: each multiplier symbol and free flow built on this
    # grid, keyed by (kind, parameters), built on first use and kept as long as
    # the grid.  A symbol is checked to be a finite, Hermitian array of grid
    # shape once, when it is built, and held read-only; the entry is the symbol
    # array itself.

    @cached_property
    def _registry(self) -> dict:
        return {}

    def _registered(self, key, build):
        if key not in self._registry:
            self._registry[key] = build()
        return self._registry[key]

    def symbol(self, key, build) -> np.ndarray:
        """The registry symbol under ``key``; ``build()`` makes it on first use,
        as an array of grid shape in the dtype it is kept in."""
        return self._registered(key, lambda: _registry_symbol(self, build()))

    def free_flow(self, real_valued: bool, t: float) -> "FreeFlow":
        """The free flow over time t on the lattice of fields with ``real_valued``."""
        return self._registered(("free_flow", real_valued, t), lambda: FreeFlow(
            2.0 * np.pi * self._lattices[real_valued].xi_norm, t))

    @property
    def derivative_symbols(self) -> tuple:
        """Symbols 2 pi i xi_j of d/dx_j, one per axis."""
        return tuple(self.symbol(("derivative", j), lambda j=j: 2j * np.pi * self.xi[j] + 0j)
                     for j in range(self.n))

    @property
    def laplacian_symbol(self) -> np.ndarray:
        return self.symbol(("laplacian",), lambda: -4.0 * np.pi ** 2 * self.xi_norm ** 2 + 0j)

    @property
    def inverse_laplacian_symbol(self) -> np.ndarray:
        """-1/(4 pi^2 |xi|^2) with the zero mode mapped to zero."""
        return self.symbol(("inverse_laplacian",), lambda: -1.0 / np.where(
            self.xi_norm > 0, 4.0 * np.pi ** 2 * self.xi_norm ** 2, np.inf) + 0j)

    @property
    def dealias_symbol(self) -> np.ndarray:
        """2/3-rule truncation: 1 where every |mode| <= N // 3, else 0."""
        return self.symbol(("dealias",), lambda: np.all(
            np.abs(np.rint(self.xi * self.L)) <= self.N // 3, axis=0).astype(np.complex128))

    @cached_property
    def _lattices(self) -> dict:
        """real_valued -> the lattice (xi, |xi|) such a field stores its spectrum on; the
        half lattice is a view of the whole one's read-only arrays."""
        full = Lattice(self.xi, self.xi_norm)
        return {False: full, True: Lattice(*(a[..., :self.N // 2 + 1] for a in full))}

    @property
    def _half_shape(self) -> tuple:
        return self.shape[:-1] + (self.N // 2 + 1,)

    def _reflection(self, last: slice) -> tuple:
        """Index of -xi in the whole lattice for each xi whose last-axis index
        lies in ``last`` (all indices on the other axes)."""
        neg = (-np.arange(self.N)) % self.N
        return np.ix_(*([neg] * (self.n - 1) + [neg[last]]))

    def mode_index(self, mode) -> tuple:
        """Array index of the integer mode m (frequency m/L); negative m allowed."""
        if len(mode) != self.n:
            raise StructuralError(f"mode {mode} has wrong length for n={self.n}")
        idx = tuple(int(m) % self.N for m in mode)
        return idx

    def mode_frequency(self, mode) -> np.ndarray:
        return np.asarray(mode, dtype=float) / self.L


# ---------------------------------------------------------------------------
# transforms of spectra carried by a few modes

def _along(X: np.ndarray, axis: int, mat: np.ndarray) -> np.ndarray:
    """X with its axis ``axis`` (counted from the end) multiplied by mat (new, old).

    Leading axes only repeat the same matrix product, so a batched call
    computes each field exactly as a call on that field alone."""
    if axis == -1:
        return X @ mat.T
    a = X.ndim + axis
    Y = mat @ X.reshape((math.prod(X.shape[:a]), X.shape[a], -1))
    return Y.reshape(X.shape[:a] + (len(mat),) + X.shape[a + 1:])


class _ModeKernel:
    """The DFT between the grid and spectra carried by a fixed set of flat
    lattice indices, as a separable trigonometric sum (a pruned DFT: Sorensen
    & Burrus, IEEE Trans. Signal Process. 41, 1993).

    ``synthesize`` maps values v_m on the indices to the grid field
    sum_m v_m e^{2 pi i x.xi_m} / L^n, which is IFFT of the scattered spectrum
    over dx^n, with one small matrix product per axis over that axis's
    distinct indices.  ``analyze`` is its exact conjugate transpose: the
    forward DFT times dx^n, evaluated only at the indices.  Leading axes of
    the input batch several fields in one call.  ``lattice`` holds the
    coordinates of the indices, xi (n, M) and |xi| (M,), so symbols of xi
    are evaluated at these modes alone.  The per-axis
    matrices are rows of the grid's one table ``GridSpec.dft_table``, which
    every kernel on the grid shares; each call gathers the rows it needs.
    """

    def __init__(self, grid: GridSpec, index: np.ndarray):
        self.grid = grid
        self.index = index
        self.lattice = Lattice(grid.xi.reshape(grid.n, -1)[:, index],
                               grid.xi_norm.ravel()[index])
        per_axis = [np.unique(k, return_inverse=True)
                    for k in np.unravel_index(index, grid.shape)]
        self._rows = tuple(u for u, _ in per_axis)
        self._pos = (Ellipsis,) + tuple(p for _, p in per_axis)
        self._dense = tuple(len(u) for u in self._rows)
        # synthesis widens the axis with the most distinct indices first, so
        # the last product, the one onto the full grid, runs over the fewest
        self._order = tuple(sorted(range(-grid.n, 0), key=lambda axis: -self._dense[axis]))
        self._table = grid.dft_table

    def synthesize(self, vals) -> np.ndarray:
        vals = np.asarray(vals)
        X = np.zeros(vals.shape[:-1] + self._dense, dtype=np.complex128)
        X[self._pos] = vals / self.grid.L ** self.grid.n
        for axis in self._order:
            X = _along(X, axis, self._table[self._rows[axis]].T)
        return X

    def analyze(self, f) -> np.ndarray:
        X = np.asarray(f)
        for axis in reversed(self._order):
            X = _along(X, axis, np.conj(self._table[self._rows[axis]]))
        return X[self._pos] * self.grid.cell_volume


# ---------------------------------------------------------------------------
# sampled fields

def _unfold(grid: GridSpec, H: np.ndarray) -> np.ndarray:
    """The whole-lattice spectrum of a real field from its half spectrum H."""
    # F(xi) = conj(F(-xi)): last-axis indices N/2+1..N-1 mirror N/2-1..1
    return np.concatenate([H, np.conj(H[grid._reflection(slice(grid.N // 2 + 1, None))])],
                          axis=-1)


@dataclass(frozen=True, eq=False)
class ScalarField:
    """A sampled field on a GridSpec, in physical or frequency representation.

    A complex field stores complex128 values on the whole lattice.  A field
    with ``real_valued=True`` stores float64 samples (the imaginary part of
    complex input is dropped) or its half spectrum; in frequency
    representation it also accepts a whole-lattice conjugate-symmetric
    spectrum, of which it keeps the half.

    Fields are immutable values: the sample array is marked read-only at
    construction and every operation returns a new field.  A field keeps the
    array its first transform to the other representation computes, so it
    is transformed at most once each way; a new field starts without one,
    save the two ``mkg`` fields born with both representations (see the
    note above ``partial_derivative``).
    """

    grid: GridSpec
    values: np.ndarray
    rep: str = PHYSICAL
    real_valued: bool = False

    def __post_init__(self):
        if self.rep not in (PHYSICAL, FREQUENCY):
            raise StructuralError(f"unknown representation {self.rep!r}")
        grid = self.grid
        arr = np.asarray(self.values)
        expect = grid.shape
        if not self.real_valued:
            arr = np.asarray(arr, dtype=np.complex128)
        elif self.rep == PHYSICAL:
            arr = np.asarray(arr.real, dtype=np.float64)
        else:
            arr = np.asarray(arr, dtype=np.complex128)
            if arr.shape == grid.shape:
                arr = arr[..., :grid.N // 2 + 1]
            expect = grid._half_shape
        if arr.shape != expect:
            raise StructuralError(
                f"field shape {arr.shape} does not match grid shape {self.grid.shape}")
        if np.may_share_memory(arr, self.values):
            arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def with_values(self, values: np.ndarray) -> "ScalarField":
        """This field's grid and representation around ``values``, a
        fresh array in the layout this field stores.  The new field takes the
        array over: it is frozen, not copied."""
        if values.shape != self.values.shape or values.dtype != self.values.dtype:
            raise StructuralError(f"values {values.dtype}{values.shape} do not match the "
                                  f"field's layout {self.values.dtype}{self.values.shape}")
        return _wrap(self.grid, values, self.rep, self.real_valued)

    def in_frequency(self) -> "ScalarField":
        return self if self.rep == FREQUENCY else self._transformed(to_frequency, FREQUENCY)

    def in_physical(self) -> "ScalarField":
        return self if self.rep == PHYSICAL else self._transformed(to_physical, PHYSICAL)

    # the other representation's values, once a read has transformed them
    _other = None

    def _transformed(self, transform, rep: str) -> "ScalarField":
        """The field in ``rep``, transformed on the first read only.  The
        values are read-only, so an array kept here is the transform of them;
        the field keeps the array, not the field, so no reference cycle forms."""
        if self._other is None:
            object.__setattr__(self, "_other", transform(self).values)
        return _wrap(self.grid, self._other, rep, self.real_valued)

    @property
    def freq_values(self) -> np.ndarray:
        """Frequency values on the whole lattice; for a real field the mirrored
        half is filled in on every call."""
        F = self.in_frequency().values
        if not self.real_valued:
            return F
        F = _unfold(self.grid, F)
        F.flags.writeable = False
        return F

    @property
    def phys_values(self) -> np.ndarray:
        return self.in_physical().values

    @property
    def lattice(self) -> Lattice:
        """Coordinates of the frequency values this field stores."""
        return self.grid._lattices[self.real_valued]

    def as_complex(self) -> "ScalarField":
        """The same field stored as a complex one, in the same representation."""
        if not self.real_valued:
            return self
        vals = self.freq_values if self.rep == FREQUENCY else self.values
        return ScalarField(self.grid, vals, rep=self.rep)

    def mean(self) -> complex:
        return complex(self.phys_values.mean())

    def _combine(self, other, op) -> "ScalarField":
        other = _match(self, other)
        if self.real_valued and other.real_valued:
            return self.with_values(op(self.values, other.values))
        a, b = self.as_complex(), other.as_complex()
        return a.with_values(op(a.values, b.values))

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, scalar):
        f = self if np.isrealobj(scalar) else self.as_complex()
        return f.with_values(f.values * scalar)

    __rmul__ = __mul__


def _match(f: ScalarField, g: ScalarField) -> ScalarField:
    if not isinstance(g, ScalarField):
        raise StructuralError("expected a ScalarField operand")
    if g.grid != f.grid:
        raise StructuralError("fields live on different grids")
    return g.in_frequency() if f.rep == FREQUENCY else g.in_physical()


@dataclass(frozen=True, eq=False)
class VectorField:
    """n ScalarFields on one grid; divergence_free is a caller-checked certificate."""

    components: tuple
    divergence_free: bool = False

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise StructuralError("vector field needs at least one component")
        grid = comps[0].grid
        if len(comps) != grid.n:
            raise StructuralError(f"expected {grid.n} components, got {len(comps)}")
        for c in comps:
            if c.grid != grid:
                raise StructuralError("vector components live on different grids")
        object.__setattr__(self, "components", comps)

    @property
    def grid(self) -> GridSpec:
        return self.components[0].grid

    def in_frequency(self) -> "VectorField":
        return self.map(ScalarField.in_frequency, self.divergence_free)

    def in_physical(self) -> "VectorField":
        return self.map(ScalarField.in_physical, self.divergence_free)

    def map(self, fn, divergence_free=False) -> "VectorField":
        return VectorField(tuple(fn(c) for c in self.components), divergence_free=divergence_free)

    def __add__(self, other):
        return VectorField(tuple(a + b for a, b in zip(self.components, other.components)))

    def __mul__(self, scalar):
        return VectorField(tuple(c * scalar for c in self.components))

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# transforms

def _wrap(grid: GridSpec, values: np.ndarray, rep: str, real_valued: bool,
          kept: np.ndarray = None) -> ScalarField:
    """A field around an array just made in the layout the field stores: by
    this module, by a ``FreeFlow`` in ``mkg`` and ``harness``, or by a
    spectrum ``parametrix`` assembles.  It is neither checked nor copied.
    ``kept``, an array in the other representation's layout, is kept as the
    field's transform; only ``mkg`` passes one, for the two fields it makes
    from an exact source (see the note above ``partial_derivative``)."""
    f = object.__new__(ScalarField)
    values.flags.writeable = False
    for name, value in (("grid", grid), ("values", values), ("rep", rep),
                        ("real_valued", real_valued)):
        object.__setattr__(f, name, value)
    if kept is not None:
        kept.flags.writeable = False
        object.__setattr__(f, "_other", kept)
    return f


def to_frequency(f: ScalarField) -> ScalarField:
    """Riemann-sum Fourier transform: fftn(values) * dx^n (rfftn for a real field)."""
    if f.rep != PHYSICAL:
        raise StructuralError("to_frequency expects a physical-representation field")
    F = (np.fft.rfftn if f.real_valued else np.fft.fftn)(f.values)
    F *= f.grid.cell_volume
    return _wrap(f.grid, F, FREQUENCY, f.real_valued)


def to_physical(f: ScalarField) -> ScalarField:
    """Inverse transform: the Riemann synthesis sum with d(xi) = 1/L^n per mode."""
    if f.rep != FREQUENCY:
        raise StructuralError("to_physical expects a frequency-representation field")
    if f.real_valued:
        v = np.fft.irfftn(f.values)   # N is even: the last axis comes back at N
    else:
        v = np.fft.ifftn(f.values)
    v /= f.grid.cell_volume
    return _wrap(f.grid, v, PHYSICAL, f.real_valued)


# ---------------------------------------------------------------------------
# multipliers

def apply_multiplier(f: ScalarField, sym: np.ndarray) -> ScalarField:
    """f_hat -> m(xi) f_hat, Nyquist rows zeroed, for a symbol ``sym`` of the
    registry of f's grid; any other array raises StructuralError.  The registry
    checked sym Hermitian when it was built, so a real field takes its
    half-lattice part and stays real; a complex field takes the whole symbol."""
    grid = f.grid
    if not any(entry is sym for entry in grid._registry.values()):
        raise StructuralError("apply_multiplier takes only a symbol of the field's grid "
                              "registry (GridSpec.symbol)")
    f_hat = f.in_frequency()
    if f.real_valued:
        sym = sym[..., :grid.N // 2 + 1]   # read-only, as the symbol is
    G = sym * f_hat.values
    zero_nyquist(G)
    out = _wrap(grid, G, FREQUENCY, f.real_valued)
    return out if f.rep == FREQUENCY else to_physical(out)


def _is_hermitian(grid: GridSpec, sym: np.ndarray) -> bool:
    """Whether sym(-xi) = conj(sym(xi)) off the Nyquist rows, to SUPPORT_TOL
    of its peak; such a multiplier maps real fields to real fields."""
    half = sym[..., :grid.N // 2 + 1]
    defect = np.abs(sym[grid._reflection(slice(grid.N // 2 + 1))] - np.conj(half))
    zero_nyquist(defect)
    return bool(defect.max() <= SUPPORT_TOL * np.abs(half).max())


def zero_nyquist(F: np.ndarray) -> np.ndarray:
    """Set the Nyquist rows (index N/2 along any axis) of frequency data to zero,
    in place, and return F; whole or half lattice alike.  Every module drops
    those rows through this one function."""
    half = F.shape[0] // 2
    for axis in range(F.ndim):
        F[(slice(None),) * axis + (half,)] = 0.0
    return F


def drop_nyquist(f: ScalarField) -> ScalarField:
    """f with its Nyquist rows removed, in f's representation: the projection
    onto the subspace every multiplier maps into."""
    F = f.in_frequency().values.copy()
    zero_nyquist(F)
    out = _wrap(f.grid, F, FREQUENCY, f.real_valued)
    return out if f.rep == FREQUENCY else to_physical(out)


def _registry_symbol(grid: GridSpec, sym) -> np.ndarray:
    """sym, made read-only; it must be a finite, Hermitian array of grid shape."""
    if not isinstance(sym, np.ndarray) or sym.shape != grid.shape:
        raise StructuralError(f"a registry symbol must be an array of grid shape {grid.shape}")
    sym.flags.writeable = False   # so every half-lattice view of it is read-only too
    if not np.isfinite(sym).all() or not _is_hermitian(grid, sym):
        raise StructuralError("a registry symbol must be finite and Hermitian")
    return sym


# ---------------------------------------------------------------------------
# derivatives
#
# A field keeps the transform its first ``in_frequency``/``in_physical``
# read computes, so every later read (``phys_values``, ``freq_values``, each
# multiplier, derivative and Leray projection) wraps that array: each field
# is transformed at most once each way.  The field wrapped around the kept
# array keeps no link back, so ``to_physical(to_frequency(f))`` stays a
# genuine round trip, which moves the last bits of the samples.
#
# Two fields are born with both representations, each made by ``mkg`` from
# an exact source, and no other code makes one: the A0 of ``elliptic_a0``,
# whose spectrum is the solve's and whose samples are those of the iterate
# its residual certifies, and the phi of the MKG drift, whose samples are
# synthesized from the flowed spectrum it keeps.  Each pair is one field to
# within one transform's rounding: phi's samples are the transform of its
# spectrum bit for bit, and A0's samples are the transform of the spectrum
# without the balancing constant, that constant added in samples.

def partial_derivative(f: ScalarField, axis: int) -> ScalarField:
    return apply_multiplier(f, f.grid.derivative_symbols[axis])


def gradient(f: ScalarField) -> VectorField:
    """All first partials from one transform of f, each in f's representation."""
    f_hat = f.in_frequency()
    parts = tuple(partial_derivative(f_hat, j) for j in range(f.grid.n))
    return VectorField(parts if f.rep == FREQUENCY else tuple(d.in_physical() for d in parts))


def laplacian(f: ScalarField) -> ScalarField:
    return apply_multiplier(f, f.grid.laplacian_symbol)


def divergence(V: VectorField) -> ScalarField:
    acc = partial_derivative(V.components[0], 0)
    for j in range(1, V.grid.n):
        acc = acc + partial_derivative(V.components[j], j)
    return acc


def inverse_laplacian(f: ScalarField) -> ScalarField:
    """Delta^{-1} with the zero mode mapped to zero (zero-mean data expected)."""
    return apply_multiplier(f, f.grid.inverse_laplacian_symbol)


# ---------------------------------------------------------------------------
# the exact free wave flow

class FreeFlow:
    """The exact flow over time t of d_t^2 u = -rho^2 u, mode by mode, from
    (u0, u1) = (u, d_t u) at time 0: u(t) = cos(rho t) u0 + sin(rho t)/rho u1
    (t u1 where rho = 0) and d_t u(t) = -rho sin(rho t) u0 + cos(rho t) u1.
    cos and sin are evaluated once and serve every data pair."""

    def __init__(self, rho: np.ndarray, t: float):
        self.rho = rho
        self.c, self.s = np.cos(rho * t), np.sin(rho * t)
        self.sinc = np.where(rho > 0, self.s / np.where(rho > 0, rho, 1.0), t)

    def u(self, u0, u1) -> np.ndarray:
        return self.c * u0 + self.sinc * u1

    def u_t(self, u0, u1) -> np.ndarray:
        return -self.rho * self.s * u0 + self.c * u1


# ---------------------------------------------------------------------------
# norms and inner products

def _magnitude_norm(grid: GridSpec, v: np.ndarray, p) -> float:
    """(sum v^p dx^n)^{1/p} of the pointwise magnitudes v; max for p = inf."""
    if p == np.inf:
        return float(v.max())
    if not p >= 1:
        raise ParameterError(f"Lebesgue exponent p={p} must satisfy p >= 1")
    return float((np.sum(v ** p) * grid.cell_volume) ** (1.0 / p))


def lebesgue_norm(f: ScalarField, p) -> float:
    """(sum |f|^p dx^n)^{1/p}; max for p = inf."""
    return _magnitude_norm(f.grid, np.abs(f.phys_values), p)


def vector_lebesgue_norm(V: VectorField, p) -> float:
    """L^p norm of the pointwise euclidean magnitude of V."""
    return _magnitude_norm(V.grid, np.sqrt(sum(np.abs(c.phys_values) ** 2
                                               for c in V.components)), p)


def frequency_l2(grid: GridSpec, F: np.ndarray) -> float:
    """Plancherel L^2 norm of frequency values given on the whole lattice."""
    return float(np.sqrt(np.sum(np.abs(F) ** 2) / grid.L ** grid.n))


def _lattice_sum(f_hat: ScalarField, density: np.ndarray) -> float:
    """Sum over the whole lattice of a per-mode quantity given where f_hat
    stores its spectrum: on the half lattice each mode with last index in
    1..N/2-1 also stands for its mirror."""
    total = np.sum(density)
    if f_hat.real_valued:
        total += np.sum(density[..., 1:f_hat.grid.N // 2])
    return total


def plancherel_l2(f: ScalarField) -> float:
    """The L^2 norm of f from its frequency values; lebesgue_norm(f, 2) up to rounding."""
    f_hat = f.in_frequency()
    return float(np.sqrt(_lattice_sum(f_hat, np.abs(f_hat.values) ** 2) / f.grid.L ** f.grid.n))


def sobolev_norm(f: ScalarField, s: float, exclude_zero_mode: bool = False) -> float:
    """Homogeneous |2 pi xi|^s weighted L^2 norm (the zero mode carries no weight)."""
    grid = f.grid
    f_hat = f.in_frequency()
    F = f_hat.values
    scale = np.abs(F).max()
    if not exclude_zero_mode and scale > 0 and np.abs(F.flat[0]) > SUPPORT_TOL * scale:
        raise PreconditionError(
            "homogeneous Sobolev norm needs zero-mean data "
            "(or exclude_zero_mode=True)")
    with np.errstate(divide="ignore"):
        w = (2.0 * np.pi * f_hat.lattice.xi_norm) ** s
    w.flat[0] = 0.0
    return float(np.sqrt(_lattice_sum(f_hat, np.abs(w * F) ** 2) / grid.L ** grid.n))


def inner_product(f: ScalarField, g: ScalarField) -> complex:
    """<f, g> = sum f conj(g) dx^n."""
    if f.grid != g.grid:
        raise StructuralError("fields live on different grids")
    return complex(np.sum(f.phys_values * np.conj(g.phys_values)) * f.grid.cell_volume)


def relative_l2_difference(f: ScalarField, g: ScalarField) -> float:
    num = lebesgue_norm(f - g, 2)
    den = max(lebesgue_norm(f, 2), lebesgue_norm(g, 2))
    return num / den if den > 0 else 0.0


# ---------------------------------------------------------------------------
# constructors used throughout the tests and the harness

def constant_field(grid: GridSpec, value=1.0) -> ScalarField:
    return ScalarField(grid, np.full(grid.shape, value, dtype=np.complex128),
                       real_valued=float(np.imag(value)) == 0.0)


def zero_field(grid: GridSpec) -> ScalarField:
    return ScalarField(grid, np.zeros(grid.shape, dtype=np.complex128), real_valued=True)


def plane_wave(grid: GridSpec, mode) -> ScalarField:
    """exp(2 pi i x . xi0) for the lattice frequency xi0 = mode / L."""
    xi0 = grid.mode_frequency(mode)
    phase = np.tensordot(xi0, grid.x, axes=(0, 0))
    return ScalarField(grid, np.exp(2j * np.pi * phase))


def mode_field(grid: GridSpec, mode, coefficient=None) -> ScalarField:
    """Frequency-side delta: a single coefficient (default L^n, the plane-wave value)."""
    F = np.zeros(grid.shape, dtype=np.complex128)
    F[grid.mode_index(mode)] = grid.L ** grid.n if coefficient is None else coefficient
    return ScalarField(grid, F, rep=FREQUENCY)


def hermitianize(grid: GridSpec, F: np.ndarray) -> np.ndarray:
    """Project frequency data onto the conjugate-symmetric (real-field) part."""
    return 0.5 * (F + np.conj(F[grid._reflection(slice(None))]))
