"""The Coulomb-gauge Maxwell-Klein-Gordon system on the periodic box.

The full unknown is (A0, Aj, phi) with the constraint div A = 0.  The
dynamical fields (A, phi) evolve by their wave equations

    box A_j      = -P Im(phi conj(D_j phi))
    box'_A phi   = 2 i A0 d_t phi + i (d_t A0) phi + |A|^2 phi - A0^2 phi,
    box'_A       = box + 2 i A . grad,

while A0 is fixed by the matter field through the elliptic equation

    (Delta - |phi|^2) A0 = -Im(phi conj(phi_t))

and d_t A0 by the non-solenoidal part of the current; a state derives both
from its own fields.  The A0 solve is a fixed-point iteration that stops on
an a-posteriori bound of its relative residual, taken from the samples of
its last two iterates.  The bound is at least the residual a transform of
the last coupling would measure, so at that exit the solve returns the
bound as its residual and that transform is not made.  The remaining
Maxwell equations become monitored residuals.  Integration is a Strang
kick-drift-kick split: exact free-wave flow in Fourier space, which
re-projects A by Leray, and forcing kicks applied to the velocities with the
A0 phi_t coupling handled pointwise-implicitly; d_t A is re-projected at the
end of each step.  Quadratic nonlinear products are 2/3-rule dealiased.

A enters its equation linearly, so A, d_t A, A0 and d_t A0 are kept as half
spectra and go to samples only for the products (the current, D phi and the
phi_t forcing); phi and phi_t are kept as samples.  A field keeps each
transform it has computed, so every field is transformed at most once each
way.  Two fields are born with both representations, and they are the only
ones in the code base: the A0 of ``elliptic_a0``, the solve's spectrum with
the samples of the iterate its residual certifies, and the phi of
``_drift``, the samples synthesized from the flowed spectrum with that
spectrum.  Each pair is one field to within one transform's rounding (see
the note above ``grid.partial_derivative``), and neither is transformed
again: the kicks and the monitor read A0's samples, grad phi and the next
drift read phi's spectrum.  grad phi, the current, d_t A0 and A's forcing
depend on the positions (A, phi) alone; the kicks and the final d_t A
projection, which move only velocities, hand the ones their state has
derived to the state they return, so each is derived once per drifted
position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, ParameterError, PreconditionError
from . import grid as gr
from .grid import (FREQUENCY, PHYSICAL, GridSpec, ScalarField, VectorField, inner_product,
                   inverse_laplacian, laplacian, lebesgue_norm)
from .gauge import (covariant_gradient, current_from_gradient, curvature_from_gradients,
                    leray_project)


@dataclass(frozen=True, eq=False)
class ConnectionState:
    """The dynamical fields at one instant, with their time derivatives.

    ``make_compatible_data`` and ``step`` store A and d_t A as half spectra
    and phi and phi_t as samples, a drifted phi with the spectrum it was
    synthesized from.  A0 (a spectrum born with its certified samples), d_t
    A0 (a spectrum), grad phi, the current, A's forcing and the monitor's
    report are derived from these fields when first read and then kept, so
    every state, ``dataclasses.replace`` ones included, carries the A0 of
    its own (phi, phi_t).  Only ``step``'s velocity updates start a state
    with the position fields of the one they update."""

    t: float
    A_sp: VectorField
    A_sp_t: VectorField
    phi: ScalarField
    phi_t: ScalarField

    def __post_init__(self):
        if not self.A_sp.divergence_free or not self.A_sp_t.divergence_free:
            raise PreconditionError("spatial connection must carry a divergence-free "
                                    "certificate")

    @property
    def grid(self) -> GridSpec:
        return self.phi.grid

    @cached_property
    def A0(self) -> ScalarField:
        """The solution of the elliptic equation of this state's (phi, phi_t)."""
        return elliptic_a0(self.phi, self.phi_t)[0]

    @cached_property
    def A0_t(self) -> ScalarField:
        """d_t A0 = -Delta^{-1} div J, as a spectrum; the non-solenoidal part
        of the current determines d_t grad A0, inverted through the Laplacian."""
        return inverse_laplacian(gr.divergence(self.current.in_frequency())) * (-1.0)

    @cached_property
    def grad_phi(self) -> VectorField:
        """The first partials of phi, in phi's own representation."""
        return gr.gradient(self.phi)

    @cached_property
    def current(self) -> VectorField:
        """J_j = Im(phi conj(D_j phi)), the spatial matter current."""
        return current_from_gradient(self.phi, self.grad_phi, self.A_sp)

    @cached_property
    def forcing_A(self) -> VectorField:
        """The wave forcing of A as the system displays it: -P of the current,
        dealiased by the 2/3 rule and Leray projected (its constant mode,
        genuinely divergence free, passes through), as spectra."""
        return leray_project(VectorField(tuple(dealias(c) * (-1.0) for c in
                                               self.current.in_frequency().components)),
                             keep_mean=True)

    @cached_property
    def report(self) -> EnergyReport:
        """The energies and constraint residuals ``constraint_residuals``
        returns, taken once."""
        return _energy_report(self)


# the fields a state derives from its positions (A, phi) alone
_POSITION_FIELDS = ("grad_phi", "current", "A0_t", "forcing_A")


def _with_velocities(state: ConnectionState, **velocities) -> ConnectionState:
    """``state`` with new velocities (A_sp_t, phi_t), keeping the position
    fields it has derived.  A0 and the report depend on phi_t, so the new
    state derives them again."""
    new = replace(state, **velocities)
    new.__dict__.update((name, state.__dict__[name]) for name in _POSITION_FIELDS
                        if name in state.__dict__)
    return new


@dataclass(frozen=True)
class EnergyReport:
    total: float
    kinetic: float           # (1/2) integral |D phi|^2 over all spacetime indices
    curvature: float         # (1/4) integral |F|^2
    gauss_residual: float
    maxwell_residual: float  # non-solenoidal spatial Maxwell equations
    div_residual: float


def dealias(f: ScalarField) -> ScalarField:
    """2/3-rule truncation applied after nonlinear products."""
    return gr.apply_multiplier(f, f.grid.dealias_symbol)


def _field(grid, values, real=False) -> ScalarField:
    return ScalarField(grid, values, real_valued=real)


# ---------------------------------------------------------------------------
# the elliptic A0 solve

def _half_spectrum(grid: GridSpec, samples: np.ndarray) -> ScalarField:
    """P F of real samples: their half spectrum with the Nyquist rows removed,
    the subspace every multiplier maps into.  The A0 solve and the Gauss
    monitor build their spectra here."""
    return gr.drop_nyquist(_field(grid, samples, real=True).in_frequency())


def elliptic_a0(phi: ScalarField, phi_t: ScalarField):
    """Solve (Delta - |phi|^2) A0 = -Im(phi conj(phi_t)) by fixed-point iteration
    to a relative residual of 1e-10 within 200 iterations.

    The iteration runs on the Nyquist-free half spectrum the Gauss monitor
    measures on.  It inverts Delta on the mean-free part and balances the mean
    of the source against the |phi|^2 coupling (on the box, the constant mode
    of A0 absorbs any net charge, keeping the Gauss law exact).  The residual
    is taken by Plancherel.  The iteration raises ConvergenceError, with its
    residual history, once 10 steps pass without a new least residual.
    Returns (A0, relative_residual, iterations), A0 as the half spectrum of
    the mean-free part with the balancing constant c in its zero mode as
    c L^n, so no sample rounding enters Delta A0.  A0 is born with the
    samples of the returned iterate, the mean-free part's samples plus c,
    which the residual certifies; no transform makes them again.

    Before it transforms the coupling of iterate k, the iteration takes the
    a-posteriori bound

        rho_k = (max|phi|^2 ||a0_k - a0_{k-1}||_2
                 + u log2(N^n) (||S|| + max|phi|^2 ||a0_k||_2)) / ||S||

    on the samples a0_k of iterate k (balancing constant included, a0_0 = 0).
    Delta Delta^{-1} is the projection off the mean, so the mean-free part
    of iterate k's residual is that projection of P F(|phi|^2 (a0_{k-1} -
    a0_k)), whose L^2 norm neither P, the projection nor Plancherel raises.
    The balancing constant zeroes the zero mode up to the rounding of
    mean(|phi|^2 a0_k), at most u max|phi|^2 ||a0_k||_2, which the second
    term covers.  That term covers the rounding the measured residual
    carries, that of a length-N^n transform of its terms (u the unit
    roundoff; Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    section 24.1): once two iterates agree to the last bit, the first term
    can read 0 while the measured residual reads 1e-16.  So rho_k bounds the relative residual that the coupling
    transform would measure.  At rho_k <= 1e-10 the solve returns iterate k
    with rho_k as its residual and skips that transform, whose only reader
    would be the residual.  Otherwise it transforms the coupling, measures
    the residual, keeps it in the history and returns once it is at most
    1e-10.
    """
    grid = phi.grid
    ph, pt = phi.phys_values, phi_t.phys_values
    source = _half_spectrum(grid, -np.imag(ph * np.conj(pt)))
    src_scale = gr.plancherel_l2(source)
    if src_scale == 0.0:
        return source, 0.0, 0   # the zero spectrum
    absphi2 = np.abs(ph) ** 2
    mean_phi2, max_phi2 = absphi2.mean(), absphi2.max()
    source_mean = source.values.flat[0].real / grid.L ** grid.n
    l2 = lambda samples: math.sqrt(np.sum(samples ** 2) * grid.cell_volume)
    rounding = np.finfo(float).eps * math.log2(grid.num_points)
    rhs, history, prev = source, [], 0.0
    for it in range(1, 201):
        fluct = inverse_laplacian(rhs)
        a0 = fluct.phys_values
        # the constant mode balances the mean: mean(|phi|^2 A0) = -mean(S)
        bar = -(source_mean + (absphi2 * a0).mean()) / mean_phi2
        a0 = a0 + bar
        rel = (max_phi2 * l2(a0 - prev)
               + rounding * (src_scale + max_phi2 * l2(a0))) / src_scale
        if rel > 1e-10:
            # the coupling of the new iterate, which the next iteration reuses
            coupling = _half_spectrum(grid, absphi2 * a0)
            rel = gr.plancherel_l2(laplacian(fluct) - coupling - source) / src_scale
            history.append(rel)
        if rel <= 1e-10:
            A0 = fluct.values.copy()
            A0.flat[0] += bar * grid.L ** grid.n
            # the samples are those of iterate k, which rel certifies
            return gr._wrap(grid, A0, FREQUENCY, True, kept=a0), rel, it
        least = int(np.argmin(history))
        if it - 1 - least == 10:
            break
        rhs, prev = source + coupling, a0
    raise ConvergenceError(
        f"elliptic A0 iteration did not contract to 1e-10: least residual "
        f"{history[least]:.3e} at step {least + 1} of {it}", history=history)


# ---------------------------------------------------------------------------
# compatible data

def make_compatible_data(f: ScalarField, g: ScalarField, a: VectorField,
                         adot: VectorField) -> ConnectionState:
    """Assemble a constraint-satisfying state from raw (phi, phi_t, A, A_t) data.

    a/adot are Leray-projected in frequency, and the state derives A0 and
    d_t A0.  The velocity g is shifted by i lambda f (lambda real) to cancel
    the net charge Im<f, g>, which keeps the constant mode of A0 at the
    nonlinear (quadratic) scale.  The assembled state must meet the Gauss and Coulomb constraints to
    1e-8, or ConvergenceError is raised.
    """
    grid = f.grid
    Asp = leray_project(a.in_frequency())
    Asp_t = leray_project(adot.in_frequency())
    nf = lebesgue_norm(f, 2)
    if nf > 0:
        lam = float(np.imag(inner_product(f, g))) / nf ** 2
        g = g + ScalarField(grid, 1j * lam * f.phys_values)
    state = ConnectionState(t=0.0, A_sp=Asp, A_sp_t=Asp_t, phi=f, phi_t=g)
    rep = constraint_residuals(state)
    if rep.gauss_residual > 1e-8 or rep.div_residual > 1e-8:
        raise ConvergenceError(
            f"compatible data failed its self-check: gauss={rep.gauss_residual:.2e} "
            f"div={rep.div_residual:.2e}")
    return state


# ---------------------------------------------------------------------------
# right-hand sides

def _phi_acceleration_extras(state: ConnectionState) -> ScalarField:
    """Everything in phi_tt besides Delta phi and the implicit A0 phi_t term,
    dealiased: 2i A.grad phi - i (d_t A0) phi - |A|^2 phi + A0^2 phi."""
    grid = state.grid
    transport = np.zeros(grid.shape, dtype=np.complex128)
    for a, dphi in zip(state.A_sp.components, state.grad_phi.components):
        transport += a.phys_values.real * dphi.phys_values
    ph = state.phi.phys_values
    a0 = state.A0.phys_values.real
    a0t = state.A0_t.phys_values.real
    asq = sum(np.abs(c.phys_values.real) ** 2 for c in state.A_sp.components)
    vals = 2j * transport - 1j * a0t * ph - asq * ph + a0 ** 2 * ph
    return dealias(_field(grid, vals))


# ---------------------------------------------------------------------------
# the integrator

def stability_limit(grid: GridSpec) -> float:
    return 0.5 * grid.dx


def _kick(state: ConnectionState, h: float) -> ConnectionState:
    """Velocity kick over h; phi_t gets the lower-order terms with the
    A0 phi_t coupling solved pointwise implicitly.

    The wave-equation display box A = -P J together with box = -d_t^2 + Delta
    makes the acceleration A_tt = Delta A + P J, so the kick adds +P J."""
    Asp_t = VectorField(tuple(c - f * h for c, f in
                              zip(state.A_sp_t.components, state.forcing_A.components)),
                        divergence_free=True)
    extras = _phi_acceleration_extras(state)
    a0 = state.A0.phys_values.real
    new_phi_t = (state.phi_t.phys_values + h * extras.phys_values) / (1.0 + 2j * h * a0)
    return _with_velocities(state, A_sp_t=Asp_t, phi_t=_field(state.grid, new_phi_t))


def _drift(state: ConnectionState, h: float) -> ConnectionState:
    """Exact free-wave flow of (A, phi) for time h in Fourier space; the
    flow is real and even in xi, so real fields stay real.  A, re-projected
    by Leray, and d_t A come back as spectra, phi and phi_t as samples, phi
    with the flowed spectrum its samples are synthesized from."""
    def flow(u: ScalarField, v: ScalarField):
        u, v = u.in_frequency(), v.in_frequency()
        real = u.real_valued and v.real_valued
        if not real:
            u, v = u.as_complex(), v.as_complex()
        fl, U, V = state.grid.free_flow(real, h), u.values, v.values
        return (gr._wrap(state.grid, fl.u(U, V), FREQUENCY, real),
                gr._wrap(state.grid, fl.u_t(U, V), FREQUENCY, real))

    phi_hat, phi_t_hat = flow(state.phi, state.phi_t)
    # phi keeps the spectrum it is synthesized from, which grad phi and the
    # next drift read; nothing reads phi_t's
    phi = gr._wrap(state.grid, gr.to_physical(phi_hat).values, PHYSICAL,
                   phi_hat.real_valued, kept=phi_hat.values)
    phi_t = phi_t_hat.in_physical()
    comps, comps_t = zip(*(flow(u, v) for u, v in zip(state.A_sp.components,
                                                     state.A_sp_t.components)))
    return replace(state, t=state.t + h,
                   A_sp=leray_project(VectorField(comps), keep_mean=True),
                   A_sp_t=VectorField(comps_t, divergence_free=True),
                   phi=phi, phi_t=phi_t)


def step(state: ConnectionState, dt: float) -> ConnectionState:
    """One Strang kick-drift-kick step.  The drift, the only sub-step that
    moves A, re-projects A by Leray, and d_t A is re-projected at the end
    (both on spectra, so without a transform).  Each kick reads the A0 and
    d_t A0 of the state it kicks.  The kicks and the final projection move
    only velocities, so the states they return keep the grad phi, current,
    d_t A0 and A forcing of the state they start from: the second kick of
    one step and the first kick of the next read one forcing.  A0 depends
    on phi_t and is solved for every state."""
    grid = state.grid
    if dt > stability_limit(grid) * (1.0 + 1e-12):
        raise ParameterError(f"dt={dt} exceeds the stability bound {stability_limit(grid)}")
    s = _kick(_drift(_kick(state, dt / 2.0), dt), dt / 2.0)
    return _with_velocities(s, A_sp_t=leray_project(s.A_sp_t, keep_mean=True))


def evolve(state: ConnectionState, t_final: float, dt: float) -> ConnectionState:
    """Strang steps of dt > 0 from the state's time to t_final, which lies a
    whole number (at least one) of steps ahead."""
    if not (0.0 < dt < math.inf and math.isfinite(t_final)):
        raise ParameterError(f"time step dt={dt} must be positive and finite, "
                             f"and t_final={t_final} finite")
    steps = int(round((t_final - state.t) / dt))
    if steps < 1:
        raise ParameterError(f"t_final={t_final} is not a step dt={dt} past t={state.t}")
    if abs(state.t + steps * dt - t_final) > 1e-9:
        raise ParameterError("t_final must be an integer number of steps away")
    for _ in range(steps):
        state = step(state, dt)
    return state


# ---------------------------------------------------------------------------
# diagnostics

def constraint_residuals(state: ConnectionState) -> EnergyReport:
    """Energies plus the relative L2 residuals of the constraint equations,
    taken once per state (``make_compatible_data``'s self-check takes the
    report of the state it returns).

    Each field is transformed once.  The products (the kinetic term and the
    charge density) are formed in samples; the linear terms (the Maxwell and
    Coulomb residuals and the curvature energy) are taken on spectra, their
    norms by Plancherel.  grad phi, the current, A0 and d_t A0 are the
    state's own, shared with the step; the other groups of partials are
    dropped once used."""
    return state.report


def _energy_report(state: ConnectionState) -> EnergyReport:
    grid = state.grid
    vol = grid.cell_volume
    ph = state.phi.phys_values
    norm = gr.plancherel_l2

    # covariant kinetic energy over all indices, D_0 phi in samples as the kick
    # forms it and D_j phi from the function the current is built from
    d0 = state.phi_t.phys_values + 1j * state.A0.phys_values * ph
    kin = 0.5 * np.sum(np.abs(d0) ** 2) * vol
    for dj in covariant_gradient(ph, state.grad_phi, state.A_sp):
        kin += 0.5 * np.sum(np.abs(dj) ** 2) * vol

    # Gauss law: Delta A0 + Im(phi conj(D_0 phi)) = 0, on the Nyquist-free
    # subspace elliptic_a0 solves on, with Delta applied to A0's own spectrum
    rho_cov = _half_spectrum(grid, np.imag(ph * np.conj(d0)))
    lap_a0 = laplacian(state.A0)
    gauss_scale = max(norm(lap_a0), norm(rho_cov), 1e-300)
    gauss = norm(lap_a0 + rho_cov) / gauss_scale

    # non-solenoidal spatial Maxwell: grad(d_t A0) + (1 - P) Im(phi conj(D phi)) = 0
    J = state.current.in_frequency()
    nonsol = tuple(a - b for a, b in zip(J.components,
                                         leray_project(J, keep_mean=True).components))
    g_a0t = gr.gradient(state.A0_t).components
    m_num = math.sqrt(sum(norm(a + b) ** 2 for a, b in zip(g_a0t, nonsol)))
    m_scale = max(math.sqrt(sum(norm(a) ** 2 for a in g_a0t)),
                  math.sqrt(sum(norm(b) ** 2 for b in nonsol)), 1e-300)
    maxwell = m_num / m_scale
    del g_a0t, nonsol

    grad_A0 = gr.gradient(state.A0)
    grad_A = [gr.gradient(c) for c in state.A_sp.components]
    F = curvature_from_gradients(grad_A0, state.A_sp_t, grad_A)
    curv = 0.5 * sum(norm(v) ** 2 for v in F.values())
    del grad_A0, F

    # Coulomb constraint (div A summed in divergence()'s order)
    div_a = sum((grad_A[j].components[j] for j in range(1, grid.n)), grad_A[0].components[0])
    div_num = max(norm(div_a), norm(gr.divergence(state.A_sp_t)))
    div_scale = max(math.sqrt(sum(norm(d) ** 2 for g in grad_A for d in g.components)), 1e-300)
    divres = div_num / div_scale

    return EnergyReport(total=float(kin + curv), kinetic=float(kin), curvature=float(curv),
                        gauss_residual=float(gauss), maxwell_residual=float(maxwell),
                        div_residual=float(divres))
