"""Named mutants of the MKG, parametrix and grid kernels and the check each must fail.

Each mutant is monkeypatched in, so no production code changes; each check
passes on the code as it is and fails once its mutant is in place.  The
checks run at the smallest configs that show the defect.
"""

from typing import Callable, NamedTuple

import numpy as np
import pytest

import cronlab.grid as gr
import cronlab.lp as lp
import cronlab.mkg as mkg
import cronlab.parametrix as pmx
import test_mkg
import test_parametrix
from cronlab.errors import StructuralError
from cronlab.gauge import greater_symbol, leray_project
from cronlab.grid import GridSpec, VectorField
from cronlab.harness import ExperimentConfig, _lp_partition_identity, make_free_connection, run
from cronlab.lp import BandRange
from cronlab.random_fields import random_field, stream
from conftest import _divergence_free


# ---------------------------------------------------------------------------
# mutants: each returns the (owner, name, value) patches that install it

def _extras_without(term):
    """_phi_acceleration_extras less the dealiased term(state): with term = 2x
    the term x of the extras changes sign, with term = x it is dropped.  The
    extras test imported the function by name, so it is patched there too."""
    original = mkg._phi_acceleration_extras

    def mutant(state):
        return original(state) - mkg.dealias(mkg._field(state.grid, term(state)))
    return [(mkg, "_phi_acceleration_extras", mutant),
            (test_mkg, "_phi_acceleration_extras", mutant)]


def _transport(state):   # 2i A . grad phi
    return 2j * sum(a.phys_values * d.phys_values
                    for a, d in zip(state.A_sp.components, state.grad_phi.components))


def _twice_a0_squared_phi(state):   # 2 A0^2 phi
    return 2.0 * state.A0.phys_values ** 2 * state.phi.phys_values


def _stale_a0_samples():
    """elliptic_a0 returning A0's spectrum with the samples of iterate k - 1
    attached (the zero samples of iterate 0 where k <= 1)."""
    original = mkg.elliptic_a0

    def mutant(phi, phi_t):
        flucts = []

        def recording(rhs):
            flucts.append(gr.inverse_laplacian(rhs))
            return flucts[-1]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mkg, "inverse_laplacian", recording)
            A0, rel, it = original(phi, phi_t)
        g, ph = phi.grid, phi.phys_values
        stale = np.zeros(g.shape)
        if it > 1:   # iterate k - 1 with its balancing constant, as the solve forms it
            source = mkg._half_spectrum(g, -np.imag(ph * np.conj(phi_t.phys_values)))
            absphi2 = np.abs(ph) ** 2
            prev = flucts[-2].phys_values
            stale = prev - (source.values.flat[0].real / g.L ** g.n
                            + (absphi2 * prev).mean()) / absphi2.mean()
        return gr._wrap(g, A0.values.copy(), gr.FREQUENCY, True, kept=stale), rel, it
    return [(mkg, "elliptic_a0", mutant)]


def _doubled_sector_angle():
    """PhaseFamily._shared_multipliers with W built from the sectors of twice
    each band's opening angle theta_k.  The mutated W is memoized on the
    family's cache, so the check builds a fresh one."""
    original = pmx.PhaseFamily._shared_multipliers

    def mutant(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pmx, "greater_symbol",
                       lambda lat, w_dir, theta: greater_symbol(lat, w_dir, 2.0 * theta))
            return original(self)
    return [(pmx.PhaseFamily, "_shared_multipliers", mutant)]


def _unit_phase_rows():
    """PhaseFamily._build_table leaving every phase row at e^0 = 1; psi and
    its derivatives are kept."""
    original = pmx.PhaseFamily._build_table

    def mutant(self, t):
        original(self, t)
        self._phase[...] = 1.0
    return [(pmx.PhaseFamily, "_build_table", mutant)]


def _lie_step(state, dt):
    """mkg.step as Lie kick-drift splitting: one full kick, then the drift."""
    s = mkg._drift(mkg._kick(state, dt), dt)
    return mkg._with_velocities(s, A_sp_t=leray_project(s.A_sp_t, keep_mean=True))


def _leray_skipped():
    """mkg.leray_project returning its input as it is, certified divergence free."""
    return [(mkg, "leray_project",
             lambda V, keep_mean=False: VectorField(V.components, divergence_free=True))]


def _unprojected_forcing():
    """ConnectionState.forcing_A without its Leray projection: -dealias of the
    current's spectra, certified divergence free as it is.  A plain property,
    since a cached_property set on the class after it is made has no name."""
    def forcing(state):
        return VectorField(tuple(mkg.dealias(c) * (-1.0)
                                 for c in state.current.in_frequency().components),
                           divergence_free=True)
    return [(mkg.ConnectionState, "forcing_A", property(forcing))]


def _registry_unchecked():
    """grid._registry_symbol admitting every build as it is, so a symbol that
    is not Hermitian or not finite is kept."""
    return [(gr, "_registry_symbol", lambda grid, sym: sym)]


def _band_one_octave_up():
    """lp.band_symbol(grid, k) returning P_{k+1}."""
    original = lp.band_symbol
    return [(lp, "band_symbol", lambda grid, k: original(grid, k + 1))]


# ---------------------------------------------------------------------------
# checks: each raises AssertionError when it fails

def _integrator_order(tmp_path):
    # the order fit runs on its own 2-D grid; the 3-D part is cut to one step
    config = ExperimentConfig(experiment="mkg-evolve", n=2, N=16, t_max=0.05,
                              out_dir=str(tmp_path))
    records = {r.id: r for r in run(config)[0]}
    assert records["mkg.integrator_order"].passed, records["mkg.integrator_order"].value


def _div_drift(tmp_path):
    # 10 steps of the 3-D evolution; the order fit's 2-D run comes along
    config = ExperimentConfig(experiment="mkg-evolve", n=3, N=16, t_max=0.5,
                              out_dir=str(tmp_path))
    records = {r.id: r for r in run(config)[0]}
    assert records["mkg.div_drift"].passed, records["mkg.div_drift"].value


def _phi_extras_formula(tmp_path):
    test_mkg.test_phi_extras_match_the_written_out_formula()


def _a0_samples_certified(tmp_path):
    # draws of test_a0_samples_are_the_certified_iterate
    for n in (2, 3):
        g = GridSpec(n, 32 if n == 2 else 16, 8.0)
        lo, hi = 2.0 / g.L, g.N / (8.0 * g.L)
        rng = stream(0, 0)
        test_mkg._assert_a0_samples_are_certified(random_field(g, rng, lo, hi) * 0.1,
                                                  random_field(g, rng, lo, hi) * 0.1)


def _phase_defect_identity(tmp_path):
    # the identities suite's defect check (6 probe directions, 5 times,
    # eps = 1e-2) at (n, N) = (2, 64), seed 7, on a fresh cache, so no
    # multipliers memoized by another family are read
    grid = GridSpec(2, 64, 8.0)
    conn = make_free_connection(grid, BandRange(-3, -2), 1e-2, 7)
    dirs = stream(7, 600).standard_normal((6, grid.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    fam = pmx.PhaseFamily(conn, +1, 0.25, pmx.DirectionCache.of_directions(grid, dirs))
    defect = pmx.phase_defect(fam, np.linspace(0.0, 0.45 * grid.L / 2.0, 5))
    assert defect < 1e-10, defect


def _bucket_sum_formula(tmp_path):
    test_parametrix.test_apply_and_adjoint_match_bucket_sum_formula()


def _psi_formula(tmp_path):
    test_parametrix.test_psi_matches_full_grid_formula()


def _kick_divergence_free(tmp_path):
    test_mkg.test_kick_keeps_a_t_divergence_free(_divergence_free)


def _registry_keeps_real_fields_real(tmp_path):
    # an odd symbol, were it kept, would act on a real field's half spectrum
    # and give a real field that is not the product's
    g = GridSpec(2, 16, 4.0)
    f = random_field(g, stream(8, 2), real=True)
    try:
        odd = g.symbol(("odd",), lambda: 1.0 + g.xi[0])
    except StructuralError:
        return
    assert gr.relative_l2_difference(gr.apply_multiplier(f, odd),
                                     gr.apply_multiplier(f.as_complex(), odd)) <= 1e-13


def _lp_partition(tmp_path):
    # the identities suite's partition check at (n, N, L) = (2, 32, 8), seed 7
    defect = _lp_partition_identity(GridSpec(2, 32, 8.0), stream(7, 0))
    assert defect < 1e-10, defect


class Mutant(NamedTuple):
    id: str
    patches: Callable
    check: Callable


MUTANTS = [
    # 2i A.grad phi dropped from the phi forcing
    Mutant("C-transport-dropped", lambda: _extras_without(_transport), _integrator_order),
    # the sign of A0^2 phi flipped, which no suite gate resolves at the
    # suites' amplitudes
    Mutant("D-a0-squared-sign", lambda: _extras_without(_twice_a0_squared_phi),
           _phi_extras_formula),
    Mutant("stale-a0-samples", _stale_a0_samples, _a0_samples_certified),
    # W built from the sectors of 2 theta_k: the defect identity's right side
    # is built apart from W, so the two sides part
    Mutant("wrong-sector-angle", _doubled_sector_angle, _phase_defect_identity),
    # A: U without its phase factor, which no suite gate resolves
    Mutant("A-unit-phase-rows", _unit_phase_rows, _bucket_sum_formula),
    # B: psi = 0, so U is the free half-wave propagator
    Mutant("B-zero-phase", lambda: [(pmx, "_lift", lambda samples, i, sign, w_dir, xi_dot, W:
                                     np.zeros(np.shape(W), dtype=np.complex128))],
           _psi_formula),
    Mutant("lie-splitting", lambda: [(mkg, "step", _lie_step)], _integrator_order),
    Mutant("band-one-octave-up", _band_one_octave_up, _lp_partition),
    # the build-time check is the only guard that keeps real fields real
    Mutant("registry-unchecked", _registry_unchecked, _registry_keeps_real_fields_real),
    # every Leray projection in mkg skipped: A takes up the gradient part of its forcing
    Mutant("leray-skipped", _leray_skipped, _div_drift),
    # only the forcing's projection skipped: the drift and the end of step
    # project again, so no suite gate resolves it
    Mutant("forcing-unprojected", _unprojected_forcing, _kick_divergence_free),
]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_named_check_fails_on_its_mutant(monkeypatch, tmp_path, mutant):
    mutant.check(tmp_path / "code")
    for owner, name, value in mutant.patches():
        monkeypatch.setattr(owner, name, value)
    with pytest.raises(AssertionError):
        mutant.check(tmp_path / "mutant")
