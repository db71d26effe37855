"""Property checks the benchmark computes itself, apart from the suite's gates.

Each check takes the run's config and output directory and returns
(passed, detail).  Inner products, norms and reference propagators are
computed here with plain numpy; the program only supplies the object under
test.  No check compares against stored output.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from cronlab import parametrix as pmx
from cronlab.grid import GridSpec, ScalarField
from cronlab.harness import make_free_connection
from cronlab.lp import BandRange

ADJOINT_TOL = 1e-10
FREE_TOL = 1e-12
ENERGY_TOL = 1e-5


def _xi_norm(N: int, L: float) -> np.ndarray:
    freq = np.fft.fftfreq(N, d=L / N)
    kx, ky = np.meshgrid(freq, freq, indexing="ij")
    return np.sqrt(kx ** 2 + ky ** 2)


def check_parametrix(config, out_dir):
    """<U(t)h, f> = <h, U(t)*f> for an eps = 1e-2 connection, and the free
    operator equals the closed-form half-wave propagator, on the suites' own
    64^2 geometry with 90 direction buckets."""
    grid = GridSpec(2, 64, 8.0)
    band = BandRange(-3, -2)
    cut = pmx.AnnulusCutoff(rho=grid.N / (8.0 * grid.L)).validate(grid)
    cache = pmx.DirectionCache.build(grid, cut.modes(grid), policy="bucketed", eta_dir=0.1)
    rng = np.random.default_rng([config.seed, 9001])
    shape = grid.shape
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    t = 0.7
    dxn = (grid.L / grid.N) ** grid.n
    worst_adj = 0.0
    for sign in (+1, -1):
        conn = make_free_connection(grid, band, 1e-2, config.seed)
        op = pmx.WaveOperator(pmx.PhaseFamily(conn, sign, config.sigma, cache), cut)
        uh = np.asarray(op.apply(t, h).phys_values)
        ustar_f = np.asarray(op.apply_adjoint(t, ScalarField(grid, f)))
        lhs = np.vdot(f, uh) * dxn
        rhs = np.vdot(ustar_f, h) / grid.L ** grid.n
        scale = np.linalg.norm(uh) * np.linalg.norm(f) * dxn
        worst_adj = max(worst_adj, abs(lhs - rhs) / scale)

    zconn = pmx.FreeConnection.zero(grid, band)
    free = pmx.WaveOperator(pmx.PhaseFamily(zconn, +1, config.sigma, cache), cut)
    a = np.asarray(cut.symbol(grid))
    ref = np.fft.ifftn(a * np.exp(2j * np.pi * t * _xi_norm(grid.N, grid.L)) * h) / dxn
    got = np.asarray(free.apply(t, h).phys_values)
    free_err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
    passed = worst_adj <= ADJOINT_TOL and free_err <= FREE_TOL
    return passed, f"adjoint identity {worst_adj:.3g}, free propagator {free_err:.3g}"


def check_mkg(config, out_dir):
    """Every row of the evolution keeps its energy within 1e-5 of the initial
    energy, recomputed here from the CSV's energy columns."""
    path = os.path.join(out_dir, f"{config.experiment}.csv")
    with open(path, newline="") as fh:
        rows = [r for r in csv.DictReader(line for line in fh if not line.startswith("#"))]
    evolution = [r for r in rows if r["n"] == "3"]
    if not evolution:
        return False, "no evolution rows"
    worst = max(abs(float(r["lhs"]) / float(r["rhs"]) - 1.0) for r in evolution)
    return worst <= ENERGY_TOL, f"{len(evolution)} rows, worst energy ratio defect {worst:.3g}"


CHECKS = {
    "unitarity": check_parametrix,
    "parametrix-residual": check_parametrix,
    "mkg-evolve-3d": check_mkg,
}
