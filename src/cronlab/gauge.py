"""Gauge-theoretic and microlocal operators: Leray projection, curvature, the
covariant gradient D_j phi (which the current and the MKG monitor share),
sector symbols about a direction, the inverse transverse Laplacian symbol,
null derivatives of closed-form free waves, and the divergence-free angular
gain measurement.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, PreconditionError
from . import grid as gr
from .grid import (GridSpec, ScalarField, VectorField, gradient, inverse_laplacian,
                   lebesgue_norm, partial_derivative)
from .lp import DEFAULT_BUMP

THETA_MAX = np.pi / 4  # admissible sector half-angles


def angle_to(grid: GridSpec, omega) -> np.ndarray:
    """Angle between each lattice frequency and omega (pi/2 at the zero mode)."""
    return _angle(grid, np.tensordot(np.asarray(omega, dtype=float), grid.xi, axes=(0, 0)))


def _angle(grid: GridSpec, dot: np.ndarray) -> np.ndarray:
    """arccos of omega.xi / |xi| from the dot product omega.xi already taken."""
    with np.errstate(invalid="ignore", divide="ignore"):
        c = dot / grid.xi_norm
    c = np.where(grid.xi_norm == 0, 0.0, np.clip(c, -1.0, 1.0))
    return np.arccos(c)


def greater_symbol(grid: GridSpec, omega, theta: float) -> np.ndarray:
    ang = angle_to(grid, omega)
    return (1.0 - DEFAULT_BUMP.eta(ang / theta)) * (1.0 - DEFAULT_BUMP.eta((np.pi - ang) / theta))


def sector_symbol(grid: GridSpec, omega, theta: float, mode: str = "greater") -> np.ndarray:
    """Smooth angular cutoff about +-omega (a unit vector) at opening theta.

    mode 'greater' keeps frequencies at angle >~ theta from both cones,
    'leq' is its exact complement, 'band' is greater(theta/2) - greater(theta).
    """
    nrm = float(np.linalg.norm(omega))
    if abs(nrm - 1.0) > 1e-14:
        raise ParameterError(f"direction must be unit length, |omega|={nrm}")
    if not 0.0 < theta <= THETA_MAX:
        raise ParameterError(f"sector angle theta={theta} outside (0, {THETA_MAX}]")
    if mode not in ("greater", "leq", "band"):
        raise ParameterError(f"unknown sector mode {mode!r}")
    g = greater_symbol(grid, omega, theta)
    if mode == "greater":
        return g
    if mode == "leq":
        return 1.0 - g
    return greater_symbol(grid, omega, theta / 2.0) - g


# ---------------------------------------------------------------------------
# Leray projection

def leray_project(V: VectorField, keep_mean: bool = False) -> VectorField:
    """A_k -> A_k - xi_k (xi.A)/|xi|^2 on the frequency side; output certified
    divergence free, and real when every component is.

    Constant (zero-mode) vector fields are already divergence free; by default
    their presence is a precondition error, with keep_mean=True they pass
    through unchanged (the system right-hand sides use that form).
    """
    comps = [c.in_frequency() for c in V.components]
    if not all(c.real_valued for c in comps):
        comps = [c.as_complex() for c in comps]
    if not keep_mean:
        for c in comps:
            scale = np.abs(c.values).max()
            if scale > 0 and np.abs(c.values.flat[0]) > gr.SUPPORT_TOL * scale:
                raise PreconditionError("Leray projection needs zero-mean components")
    xi, xi_norm = comps[0].lattice
    dot = sum(xi_j * c.values for xi_j, c in zip(xi, comps))
    with np.errstate(invalid="ignore", divide="ignore"):
        dot_over_sq = dot / xi_norm ** 2
    dot_over_sq = np.where(xi_norm == 0, 0.0, dot_over_sq)
    projected = VectorField(tuple(c.with_values(gr.zero_nyquist(c.values - xi_j * dot_over_sq))
                                  for c, xi_j in zip(comps, xi)), divergence_free=True)
    return projected if V.components[0].rep == gr.FREQUENCY else projected.in_physical()


# ---------------------------------------------------------------------------
# null frame operators

def transverse_inverse_symbol(grid: GridSpec, omega, theta_min: float) -> np.ndarray:
    """Symbol of the inverse transverse Laplacian, zero within theta_min of the axis."""
    dot = np.tensordot(np.asarray(omega, dtype=float), grid.xi, axes=(0, 0))
    ang = _angle(grid, dot)
    near_axis = np.minimum(ang, np.pi - ang) < theta_min
    with np.errstate(invalid="ignore", divide="ignore"):
        sym = -1.0 / (4.0 * np.pi ** 2 * (grid.xi_norm ** 2 - dot ** 2))
    return np.where(near_axis | (grid.xi_norm == 0), 0.0, sym).astype(np.complex128)


def null_derivative(F, omega, sign: int):
    """L_omega^s = omega . grad_x + s d_t applied to a closed-form free wave (an
    object with mul_symbol and dt, such as HalfWaveField), with the analytic
    time derivative."""
    if sign not in (+1, -1):
        raise ParameterError("sign must be +1 or -1")
    sym = 2j * np.pi * np.tensordot(np.asarray(omega, dtype=float), F.grid.xi, axes=(0, 0))
    return F.mul_symbol(sym) + F.dt() * float(sign)


# ---------------------------------------------------------------------------
# divergence-free angular gain

def coulomb_gain_ratios(B: VectorField, sectors) -> list:
    """max over lattice modes of |(Pi B)^(xi).omega| / (theta |(Pi B)^(xi)|) for
    each (omega, theta, sym) of ``sectors``, in order.

    Pi is the angular projection whose symbol ``sym`` the caller builds once
    with ``sector_symbol``.  That symbol is real and non-negative, so it cancels
    on the live modes (sym |B^| > 1e-14 of its max): r0 = |B^.omega| / |B^| is
    taken once per run of sectors about one direction.  B must carry a
    divergence-free certificate; 0/0 modes (never live) and the zero mode count as 0.
    """
    if not B.divergence_free:
        raise PreconditionError("coulomb_gain_ratios needs a divergence-free certificate")
    hats = [c.freq_values for c in B.in_frequency().components]
    mag = np.sqrt(sum(np.abs(h) ** 2 for h in hats))
    last, out = None, []
    for omega, theta, sym in sectors:
        if not np.array_equal(omega, last):
            with np.errstate(invalid="ignore", divide="ignore"):
                r0 = np.abs(sum(h * wj for h, wj in zip(hats, omega))) / mag
            r0.flat[0] = 0.0
            last = omega
        live_mag = sym * mag
        out.append(float(r0[live_mag > 1e-14 * live_mag.max()].max(initial=0.0) / theta))
    return out


# ---------------------------------------------------------------------------
# connection geometry: curvature and the covariant gradient

def curvature_from_gradients(grad_A0: VectorField, Asp_t: VectorField, grad_A: list) -> dict:
    """F_{alpha beta} = d_alpha A_beta - d_beta A_alpha as a dict over alpha < beta,
    from the first partials of A0 and of each A_k (``grad_A[k].components[j]``
    is d_j A_k).  Index 0 is time; F_{0j} = d_t A_j - d_j A0 uses the stored
    time derivatives."""
    n = Asp_t.grid.n
    F = {}
    for j in range(n):
        F[(0, j + 1)] = Asp_t.components[j] - grad_A0.components[j]
    for j in range(n):
        for k in range(j + 1, n):
            F[(j + 1, k + 1)] = grad_A[k].components[j] - grad_A[j].components[k]
    return F


def covariant_gradient(phi_samples: np.ndarray, grad_phi: VectorField,
                       Asp: VectorField) -> list:
    """Samples of D_j phi = d_j phi + i A_j phi, j = 1..n, from phi's samples,
    its first partials and the spatial connection.  The current and the MKG
    monitor both take D_j phi from here."""
    return [dphi.phys_values + 1j * a.phys_values * phi_samples
            for dphi, a in zip(grad_phi.components, Asp.components)]


# ---------------------------------------------------------------------------
# null-form structure of the spatial current

def _point_mul(a: ScalarField, b: np.ndarray) -> ScalarField:
    return ScalarField(a.grid, a.phys_values * b)


def current_from_gradient(phi: ScalarField, grad_phi: VectorField, Asp: VectorField) -> VectorField:
    """Im(phi conj(D_j phi)) componentwise (the spatial matter current), from
    the first partials of phi."""
    ph = phi.phys_values
    return VectorField(tuple(ScalarField(phi.grid, np.imag(ph * np.conj(cov)), real_valued=True)
                             for cov in covariant_gradient(ph, grad_phi, Asp)))


def null_form_check(phi: ScalarField, Asp: VectorField):
    """Relative L^2 residuals of the current decomposition

        -P Im(phi conj(D_j phi)) = i Delta^{-1} d_k (d_k phi conj(d_j phi)
                                   - d_j phi conj(d_k phi)) + P(A_j |phi|^2),

    returned for the |phi|^2 coupling and, for the record, for the literal
    phi^2 coupling (which does not close; both numbers are reported).  The sum
    over k is taken on spectra, with one inverse transform per component j.

    Both sides are compared on their mean-free parts: on the box the constant
    mode carries the conserved net current, which the homogeneous display
    (built from Delta^{-1} d_k) cannot see."""
    if not Asp.divergence_free:
        raise PreconditionError("null_form_check needs a divergence-free connection")
    grid = phi.grid

    def drop_mean(field: ScalarField) -> ScalarField:
        return field - gr.constant_field(grid, field.mean())

    grad_phi = gradient(phi)
    lhs = leray_project(current_from_gradient(phi, grad_phi, Asp), keep_mean=True) * (-1.0)
    lhs = lhs.map(drop_mean)

    derivs = [d.phys_values for d in grad_phi.components]
    absphi2 = np.abs(phi.phys_values) ** 2
    phisq = phi.phys_values ** 2

    comps = []
    for j in range(grid.n):
        acc = 0.0
        for k in range(grid.n):
            antis = ScalarField(grid, derivs[k] * np.conj(derivs[j])
                                - derivs[j] * np.conj(derivs[k])).in_frequency()
            acc = acc + partial_derivative(inverse_laplacian(antis), k).values
        comps.append(antis.with_values(acc * 1j).in_physical())
    grad_part = VectorField(tuple(comps))

    def rhs_with(coupling):
        coupling_part = leray_project(VectorField(tuple(
            _point_mul(Asp.components[j], coupling) for j in range(grid.n))), keep_mean=True)
        return (grad_part + coupling_part).map(drop_mean)

    def resid(rhs):
        num = np.sqrt(sum(lebesgue_norm(a - b, 2) ** 2
                          for a, b in zip(lhs.components, rhs.components)))
        den = max(np.sqrt(sum(lebesgue_norm(c, 2) ** 2 for c in lhs.components)), 1e-300)
        return num / den

    return resid(rhs_with(absphi2)), resid(rhs_with(phisq))
