"""Reproducible experiment driver.

Every suite is a pure function of (config, seed): randomness comes from
Philox4x64-10 counter-based streams keyed (seed, stream_index), artifacts are
written with fixed formatting, and the machine summary excludes wall-clock
data, so a rerun with the same config and seed is byte-identical.

Suites: identities, lp-suite, coulomb-gain, mkg-evolve, parametrix-residual,
unitarity, dispersive, norms.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, fields, replace
from fractions import Fraction

import numpy as np

from .errors import ParameterError
from . import grid as gr
from .grid import GridSpec, ScalarField, VectorField, lebesgue_norm
from . import lp
from .lp import BandRange, SpacetimeField, besov_norm, besov_norms, fit_loglog
from . import gauge
from .gauge import coulomb_gain_ratios, leray_project, null_form_check
from . import mkg
from . import parametrix as pmx
from .exponents import exponents, sigma_window
from .random_fields import (flat_spectrum_field, packet_field, random_divergence_free,
                            random_field, stream)

CSV_VERSION = 1


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def _is_finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:      # an int beyond the float range
        return False


# the JSON type from_json accepts for each config field (null where the default is None)
_INT, _NUMBER = ("an integer", _is_int), ("a number", _is_number)
_STRING = ("a string", lambda v: isinstance(v, str))
_JSON_TYPES = {
    "experiment": _STRING, "n": _INT, "N": _INT, "L": _NUMBER, "sigma": _NUMBER,
    "eps_list": ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
    "seed": _INT, "t_max": _NUMBER, "t_samples": _INT, "out_dir": _STRING,
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int | None = None          # the suite's box applies when unset
    N: int | None = None
    L: float | None = None
    sigma: float = 0.25
    eps_list: tuple = (1e-1, 3e-2, 1e-2, 3e-3)
    seed: int = 7
    t_max: float | None = None
    t_samples: int = 5
    out_dir: str = "out"

    def validate(self) -> "ExperimentConfig":
        if self.experiment not in EXPERIMENTS:
            raise ParameterError(
                f"unknown experiment {self.experiment!r}; choose from {tuple(EXPERIMENTS)}")
        suite = SUITES[self.experiment]
        reads = suite.reads + ("experiment", "seed", "out_dir")
        unread = [f.name for f in fields(self)
                  if f.name not in reads and getattr(self, f.name) != f.default]
        if unread:
            raise ParameterError(f"suite {self.experiment!r} does not read {unread}; "
                                 "leave them unset")
        if len(self.eps_list) == 0:
            raise ParameterError("eps_list must not be empty")
        if not all(_is_finite(e) and e > 0 for e in self.eps_list):
            raise ParameterError("eps values must be positive and finite")
        # the suite fits its eps slopes in log-log, which needs two distinct abscissae
        if self.experiment == "parametrix-residual" and len(set(map(math.log, self.eps_list))) < 2:
            raise ParameterError(f"eps_list={list(self.eps_list)} needs at least two distinct "
                                 "values: parametrix-residual fits its eps slopes")
        if not 0.0 < self.sigma < 0.5:
            raise ParameterError(f"sigma={self.sigma} outside (0, 1/2)")
        if self.L is not None and not (_is_finite(self.L) and self.L > 0):
            raise ParameterError(f"box side L={self.L} must be positive and finite")
        if self.t_max is not None and not (_is_finite(self.t_max) and self.t_max > 0):
            raise ParameterError(f"t_max={self.t_max} must be positive and finite")
        L, reach = self.with_default_geometry().L, suite.reach
        if self.t_max is not None and not self.t_max + reach < L / 2.0:
            step = f" plus the Richardson step {reach}" if reach else ""
            raise ParameterError(f"time window t_max={self.t_max}{step} must stay below the "
                                 f"wrap limit L/2={L / 2.0}")
        if self.t_samples < 2:
            raise ParameterError("t_samples must be at least 2")
        if not 0 <= self.seed < 2 ** 64:
            raise ParameterError(f"seed={self.seed} outside 0..2^64-1 "
                                 "(it keys a Philox stream)")
        return self

    def with_default_geometry(self) -> "ExperimentConfig":
        """This config with each unset n, N and L from its suite's box; the
        hash and the artifacts still read the config as given."""
        preset = zip(("n", "N", "L"), SUITES[self.experiment].box)
        return replace(self, **{k: v for k, v in preset if getattr(self, k) is None})

    def config_hash(self) -> str:
        payload = {k: v for k, v in asdict(self).items() if k != "out_dir"}
        blob = json.dumps(payload, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParameterError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ParameterError(f"config file {path} must hold a JSON object, "
                                 f"not {type(raw).__name__}")
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = set(raw) - set(defaults)
        if unknown:
            raise ParameterError(f"unknown config fields: {sorted(unknown)}")
        if "experiment" not in raw:
            raise ParameterError(f"config file {path} names no experiment")
        for name, value in raw.items():
            kind, ok = _JSON_TYPES[name]
            if not (ok(value) or (value is None and defaults[name] is None)):
                raise ParameterError(f"config field {name!r} must be {kind}, got {value!r}")
        if "eps_list" in raw:
            raw["eps_list"] = tuple(raw["eps_list"])
        return cls(**raw)


@dataclass(frozen=True)
class AcceptanceRecord:
    id: str
    value: float
    lo: float
    hi: float
    passed: bool

    @classmethod
    def bounded(cls, rid, value, lo=-math.inf, hi=math.inf):
        ok = bool(lo <= value <= hi) and math.isfinite(value)
        return cls(id=rid, value=float(value), lo=float(lo), hi=float(hi), passed=ok)


@dataclass(frozen=True)
class ScanRow:
    experiment: str
    n: int
    N: int
    L: float
    param: float
    seed: int
    lhs: float
    rhs: float
    ratio: float


CSV_SCHEMA = ",".join(f.name for f in fields(ScanRow))


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


@contextmanager
def atomic_open(path):
    """A text file open for writing that replaces path when the block ends
    normally: the one way cronlab writes a file.  It goes through a temporary
    file in the target's directory, created with the directory if needed; if
    the block raises, path is left as it was and the temporary file is removed.
    The file gets the permissions a plain open would give it."""
    path = os.path.abspath(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_scan_csv(path, rows, config_hash: str) -> None:
    lines = [f"# cronlab scan v{CSV_VERSION} schema={CSV_SCHEMA} config={config_hash}",
             CSV_SCHEMA]
    for r in rows:
        lines.append(",".join(_fmt(v) for v in astuple(r)))
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# shared builders

def _complex_gaussian(seed: int, i: int, j: int, shape) -> np.ndarray:
    """Standard normal draws of stream(seed, i) plus 1j times those of stream(seed, j)."""
    return stream(seed, i).standard_normal(shape) + 1j * stream(seed, j).standard_normal(shape)


def _connection_data(grid: GridSpec, band: BandRange, seed: int, index: int):
    rng = stream(seed, index)
    lo, hi = band.annulus()
    a = random_divergence_free(grid, rng, lo, hi)
    adot = random_divergence_free(grid, rng, lo, hi)
    return a, adot


def _pair_data_norm(a: VectorField, adot: VectorField, band: BandRange) -> float:
    half = a.grid.n / 2.0
    acc = 0.0
    for c in a.components:
        for j in range(a.grid.n):
            acc += besov_norm(gr.partial_derivative(c, j), 2, half, 2, band,
                              allow_decreasing=True, exclude_zero_mode=True) ** 2
    for c in adot.components:
        acc += besov_norm(c, 2, half, 2, band, allow_decreasing=True,
                          exclude_zero_mode=True) ** 2
    return math.sqrt(acc)


def _free_connections(grid: GridSpec, band: BandRange, seed: int, index: int = 0):
    """eps -> a random divergence-free free-wave connection with data norm
    eps; the data are drawn and normalized once, and every eps scales them."""
    a, adot = _connection_data(grid, band, seed, index)
    scale = _pair_data_norm(a, adot, band)
    a_hat, ad_hat = (np.stack([c.freq_values for c in v.components]) for v in (a, adot))

    def at(eps: float) -> pmx.FreeConnection:
        factor = eps / scale if scale > 0 else 0.0
        return pmx.FreeConnection(grid, a_hat * factor, ad_hat * factor, band)
    return at


def make_free_connection(grid: GridSpec, band: BandRange, eps: float, seed: int,
                         index: int = 0) -> pmx.FreeConnection:
    """A random divergence-free free-wave connection with data norm eps."""
    return _free_connections(grid, band, seed, index)(eps)


# parametrix-residual's Richardson steps; the largest is its suite's reach past t_max
RICHARDSON_DTS = (0.1, 0.05, 0.025, 0.0125)


def _parametrix_setup(grid: GridSpec, seed, sigma, eta_dir=0.1):
    """Shared band / annulus / bucketed cache / connection draw (eps -> its connection)
    of the parametrix suites on ``grid``, and their wave operator (connection, sign) -> U."""
    band = BandRange(-3, -2)
    cut = pmx.AnnulusCutoff(rho=grid.N / (8.0 * grid.L)).validate(grid)
    cache = pmx.DirectionCache.build(grid, cut.modes(grid), policy="bucketed", eta_dir=eta_dir)

    def operator(conn: pmx.FreeConnection, sign: int) -> pmx.WaveOperator:
        return pmx.WaveOperator(pmx.PhaseFamily(conn, sign, sigma, cache), cut)
    return band, cut, cache, _free_connections(grid, band, seed), operator


# ---------------------------------------------------------------------------
# suite: identities (criterion 1)

def _leray_identity(grid: GridSpec, rng) -> float:
    """Leray: gradients annihilated, fixed point, idempotence, self-adjointness."""
    def l2(V):
        return math.sqrt(sum(lebesgue_norm(c, 2) ** 2 for c in V.components))

    gradchi = gr.gradient(random_field(grid, rng, 0.2, 1.0, real=True))
    r = l2(leray_project(gradchi)) / l2(gradchi)
    V = VectorField(tuple(random_field(grid, rng, 0.2, 1.0) for _ in range(grid.n)))
    PV = leray_project(V)
    r = max(r, max(gr.relative_l2_difference(x, y)
                   for x, y in zip(PV.components, leray_project(PV).components)))
    W = VectorField(tuple(random_field(grid, rng, 0.2, 1.0) for _ in range(grid.n)))
    ip1 = sum(gr.inner_product(x, y) for x, y in zip(PV.components, W.components))
    ip2 = sum(gr.inner_product(x, y) for x, y in zip(V.components,
                                                     leray_project(W).components))
    return max(r, abs(ip1 - ip2) / (l2(V) * l2(W)))


def _lp_partition_identity(grid: GridSpec, rng) -> float:
    """Littlewood-Paley partition on the representable annulus."""
    br = BandRange.widest(grid)
    f = lp.restrict_annulus(random_field(grid, rng), *br.annulus())
    total = sum((lp.project_band(f, k) for k in range(br.k_min + 1, br.k_max + 1)),
                lp.project_band(f, br.k_min))
    return gr.relative_l2_difference(total, f)


def _null_frame_identity(grid: GridSpec, rng) -> float:
    """Null frame decomposition of the box, box = -L^+ L^- + Delta_perp with
    L^+- = d_t +- omega.grad, on a free wave, worst of 20 directions.  -L^+ L^-
    is taken as (omega.grad - d_t)(omega.grad + d_t) on the wave's data
    (c0, c1) = (u, d_t u) at t = 0, where d_t maps the data to (c1, -rho^2 c0).
    The wave solves box u = 0, so the decomposition, flowed to t_test by one
    free flow, is compared with zero, relative to the wave's Laplacian there."""
    u0, u1 = (random_field(grid, rng, 0.2, 1.0).freq_values for _ in range(2))
    rho, t_test = 2.0 * np.pi * grid.xi_norm, 0.37 * grid.L / 8.0
    flow = gr.FreeFlow(rho, t_test)

    def l2_at_t_test(c0, c1) -> float:
        F = gr.zero_nyquist(flow.u(c0, c1))
        F.flat[0] = 0.0
        return lebesgue_norm(gr.to_physical(gr._wrap(grid, F, gr.FREQUENCY, False)), 2)

    def null_derivative(c0, c1, a, sign):
        """omega.grad + sign d_t, with a = 2 pi i omega.xi the symbol of omega.grad."""
        d0, d1 = c1, -rho ** 2 * c0
        if sign > 0:
            return a * c0 + d0, a * c1 + d1
        return a * c0 - d0, a * c1 - d1

    lap = -4.0 * np.pi ** 2 * grid.xi_norm ** 2
    scale = max(l2_at_t_test(lap * u0, lap * u1), 1e-300)
    r = 0.0
    for _ in range(20):
        wdir = rng.standard_normal(grid.n)
        wdir /= np.linalg.norm(wdir)
        dot = np.tensordot(wdir, grid.xi, axes=(0, 0))
        a = 2j * np.pi * dot
        c0, c1 = null_derivative(*null_derivative(u0, u1, a, +1), a, -1)
        perp = -4.0 * np.pi ** 2 * (grid.xi_norm ** 2 - dot ** 2)
        r = max(r, l2_at_t_test(c0 + perp * u0, c1 + perp * u1) / scale)
    return r


def _null_form_identity(grid: GridSpec, rng):
    """Null-form decomposition of the spatial current on alias-free bands:
    (|phi|^2 coupling residual, literal phi^2 coupling residual)."""
    hi_band = grid.N / (8.0 * grid.L)
    return null_form_check(random_field(grid, rng, 2.0 / grid.L, hi_band),
                           random_divergence_free(grid, rng, 2.0 / grid.L, hi_band))


def _phase_identities(grid: GridSpec, sigma: float, seed: int, idx: int) -> dict:
    """Phase machinery, worst over both signs: the defect identity, realness of
    psi, the split at a threshold angle and the adjoint.  The identities hold
    per direction and per coefficient, so probe directions and a mode
    subsample suffice (and keep the suite fast)."""
    conn = make_free_connection(grid, BandRange(-3, -2), 1e-2, seed, index=idx)
    cut = pmx.AnnulusCutoff(rho=grid.N / (8.0 * grid.L)).validate(grid)
    modes = cut.modes(grid)
    pick = stream(seed, 500 + idx).choice(len(modes), size=min(32, len(modes)),
                                          replace=False)
    sub_cache = pmx.DirectionCache.build(grid, modes[np.sort(pick)], policy="exact")
    probe_dirs = stream(seed, 600 + idx).standard_normal((6, grid.n))
    probe_dirs /= np.linalg.norm(probe_dirs, axis=1, keepdims=True)
    probe_cache = pmx.DirectionCache.of_directions(grid, probe_dirs)
    live = np.zeros(grid.shape, dtype=bool)
    live.ravel()[sub_cache.flat_index] = True
    h = _complex_gaussian(seed, 100 + idx, 200 + idx, grid.shape) * live
    fld = ScalarField(grid, _complex_gaussian(seed, 300 + idx, 400 + idx, grid.shape))
    times = np.linspace(0.0, 0.45 * grid.L / 2.0, 5)
    worst = dict.fromkeys(("phase_defect", "psi_real", "adjoint", "phase_split"), 0.0)
    for sign in (+1, -1):
        fam = pmx.PhaseFamily(conn, sign, sigma, probe_cache)
        worst["phase_defect"] = max(worst["phase_defect"], pmx.phase_defect(fam, times))
        worst["psi_real"] = max(worst["psi_real"], *(fam.imag_defect(t) for t in times))
        # threshold above the first dyadic piece so both halves carry weight
        theta_star = 4.01 * min(fam.thetas.values())
        fam_lo, fam_hi, part_defect = pmx.split_phase_at(fam, theta_star)
        psi_all = fam.psi(0.3, 0)
        r_split = float(np.sqrt(np.sum((fam_lo.psi(0.3, 0) + fam_hi.psi(0.3, 0) - psi_all) ** 2))
                        / max(np.sqrt(np.sum(psi_all ** 2)), 1e-300))
        worst["phase_split"] = max(worst["phase_split"], part_defect, r_split)

        op = pmx.WaveOperator(pmx.PhaseFamily(conn, sign, sigma, sub_cache),
                              cut, check_cover=False)
        lhs_ip = gr.inner_product(op.apply(0.3, h), fld)
        rhs_ip = np.sum(np.conj(np.where(live, op.apply_adjoint(0.3, fld), 0.0))
                        * np.where(live, h, 0.0)) / grid.L ** grid.n
        worst["adjoint"] = max(worst["adjoint"], abs(lhs_ip - rhs_ip) / max(abs(lhs_ip), 1e-300))
    return worst


def run_identities(config: ExperimentConfig):
    """One function per identity, so each check's fields die on return.  Each
    (n, N) row reports its own residuals, param 0..4 in the order of ``keys``."""
    seed, rows, results = config.seed, [], []
    keys = ("leray", "lp_partition", "box_null", "null_form", "phase_defect")
    for idx, (n, N) in enumerate([(2, 32), (2, 64), (3, 32), (3, 64)]):
        grid = GridSpec(n, N, 8.0)
        rng = stream(seed, idx)
        res = {"leray": _leray_identity(grid, rng),
               "lp_partition": _lp_partition_identity(grid, rng),
               "box_null": _null_frame_identity(grid, rng)}
        res["null_form"], res["null_form_literal_gap"] = _null_form_identity(grid, rng)
        res.update(_phase_identities(grid, config.sigma, seed, idx))
        results.append(res)
        for param, key in enumerate(keys):
            rhs = res["null_form_literal_gap"] if key == "null_form" else 1e-10
            rows.append(ScanRow("identities", n, N, grid.L, float(param), seed, res[key], rhs,
                                res[key] / max(rhs, 1e-300)))

    records = [AcceptanceRecord.bounded(f"identities.{key}", max(r[key] for r in results),
                                        hi=1e-10)
               for key in keys + ("psi_real", "adjoint", "phase_split")]
    gap = min(r["null_form_literal_gap"] for r in results)
    records.append(AcceptanceRecord.bounded("identities.null_form_literal_gap", gap, lo=1e-6))
    return records, rows


# ---------------------------------------------------------------------------
# suite: lp-suite (criteria 3 and 4)

def _commutator_scan(grid: GridSpec, br: BandRange, comm_ks, seed: int):
    """Commutator norms per scanned band k, normalized ratios and scan rows over
    12 draws, for the slope -1 in 2^k and the bounded-ratio gates.  f sits in
    the lowest band so every scanned shell is well separated from grad f; g
    reaches one band above the scan, capped at the grid's widest range."""
    smooth_band = BandRange(br.k_min, br.k_min)
    g_band = BandRange(br.k_min, min(max(comm_ks) + 1, br.k_max))
    norms_by_k = {k: [] for k in comm_ks}
    ratios, rows = [], []
    for s in range(12):
        f = flat_spectrum_field(grid, stream(seed, 2000 + s), smooth_band, real=True)
        g = flat_spectrum_field(grid, stream(seed, 3000 + s), g_band)
        scan = lp.commutator_ratios(f, g, comm_ks, np.inf, 2, 2)
        for k, (norm, ratio) in zip(comm_ks, scan):
            norms_by_k[k].append(norm)
            ratios.append(ratio)
            rows.append(ScanRow("lp-suite", grid.n, grid.N, grid.L, float(k), seed,
                                norm, 2.0 ** (-k), ratio))
    return norms_by_k, ratios, rows


def run_lp_suite(config: ExperimentConfig):
    records, rows = [], []
    seed = config.seed
    n, N, L = config.n, config.N, config.L
    grid = GridSpec(n, N, L)
    br = BandRange.widest(grid)
    ks = [k for k in range(br.k_min + 2, br.k_max + 1)]
    if len(ks) < 3:   # the Bernstein and commutator slopes are fits over the bands
        raise ParameterError(f"lp-suite needs at least 3 Bernstein bands; N={N}, L={L} "
                             f"leaves {len(ks)}")
    if 1000 + 97 * ks[0] < 0:   # band k's packet draws the Philox stream 1000 + 97 k
        raise ParameterError(f"lp-suite needs its lowest Bernstein band k >= -10 to key its "
                             f"packet stream; L={L} puts it at k={ks[0]}")

    # Bernstein over the band kernel: one packet per band serves every (p, q)
    pairs = [(2, 4), (2, np.inf), (1, 2)]
    by_pair = {pq: [] for pq in pairs}
    for k in ks:
        f = packet_field(grid, stream(seed, 1000 + 97 * k), k)
        for p, q in pairs:
            by_pair[p, q].append(lp.bernstein_ratio(f, k, p, q))
        del f   # one packet alive at a time
    for (p, q), ratios_by_k in by_pair.items():
        for k, v in zip(ks, ratios_by_k):
            rows.append(ScanRow("lp-suite", n, N, L, float(k), seed, v,
                                2.0 ** (n * k * ((0 if p == np.inf else 1 / p)
                                                 - (0 if q == np.inf else 1 / q))), v))
        spread = max(ratios_by_k) / min(ratios_by_k)
        slope = fit_loglog([2.0 ** k for k in ks], ratios_by_k)
        tag = f"p{p}_q{'inf' if q == np.inf else q}"
        records.append(AcceptanceRecord.bounded(f"bernstein.spread.{tag}", spread, hi=10.0))
        records.append(AcceptanceRecord.bounded(f"bernstein.slope.{tag}", slope,
                                                lo=-0.1, hi=0.1))

    comm_ks = ks[:4]
    norms_by_k, ratios, comm_rows = _commutator_scan(grid, br, comm_ks, seed)
    rows += comm_rows
    mean_norms = [float(np.mean(norms_by_k[k])) for k in comm_ks]
    slope = fit_loglog([2.0 ** k for k in comm_ks], mean_norms)
    records.append(AcceptanceRecord.bounded("commutator.slope", slope, lo=-1.15, hi=-0.85))
    records.append(AcceptanceRecord.bounded("commutator.ratio_max", max(ratios), hi=10.0))

    # embedding chain: l2 <= l1 Besov, Littlewood-Paley lower bound, p-upgrade
    emb = {"besov_l2_vs_l1": 0.0, "lp_lower": 0.0, "p_upgrade": 0.0}
    for s in range(20):
        f = flat_spectrum_field(grid, stream(seed, 4000 + s), br)
        b2, b1, b4, b3 = besov_norms(f, [(2, 4, 2), (2, 4, 1), (4, 4, 2), (3, 4, 2)], br)
        emb["besov_l2_vs_l1"] = max(emb["besov_l2_vs_l1"], b2 / b1)
        emb["lp_lower"] = max(emb["lp_lower"], lebesgue_norm(f, 4) / b4)
        emb["p_upgrade"] = max(emb["p_upgrade"], b3 / b2)
    records.append(AcceptanceRecord.bounded("embedding.besov_l2_vs_l1",
                                            emb["besov_l2_vs_l1"], hi=1.0 + 1e-12))
    records.append(AcceptanceRecord.bounded("embedding.littlewood_constant",
                                            emb["lp_lower"], hi=10.0))
    records.append(AcceptanceRecord.bounded("embedding.bernstein_upgrade_constant",
                                            emb["p_upgrade"], hi=10.0))
    return records, rows


# ---------------------------------------------------------------------------
# suite: coulomb-gain (criterion 2)

def run_coulomb_gain(config: ExperimentConfig):
    records, rows = [], []
    seed = config.seed
    n, N, L = config.n, config.N, config.L
    grid = GridSpec(n, N, L)
    thetas = [2.0 ** (-j) for j in range(2, 7)]
    dir_rng = stream(seed, 1)
    dirs = []
    for _ in range(20):
        v = dir_rng.standard_normal(n)
        dirs.append(v / np.linalg.norm(v))

    # every (direction, theta, mode) symbol is built once and serves all 50 fields
    sectors = [(w, theta, gauge.sector_symbol(grid, w, theta, mode))
               for w in dirs for theta in thetas for mode in ("leq", "band")]
    worst = 0.0
    for s in range(50):
        B = random_divergence_free(grid, stream(seed, 100 + s), 2.0 / L, grid.nyquist * 0.9)
        for (_, theta, _), ratio in zip(sectors, coulomb_gain_ratios(B, sectors)):
            worst = max(worst, ratio)
            rows.append(ScanRow("coulomb-gain", n, N, L, theta, seed, ratio, 4.0, ratio / 4.0))
    records.append(AcceptanceRecord.bounded("coulomb.per_mode_ratio", worst, hi=4.0))
    return records, rows


# ---------------------------------------------------------------------------
# suite: mkg-evolve (criterion 7)

def _mkg_data(grid: GridSpec, eps: float, seed: int):
    rng = stream(seed, 0)
    lo, hi = 2.0 / grid.L, grid.N / (8.0 * grid.L)
    f = random_field(grid, rng, lo, hi) * eps
    g = random_field(grid, rng, lo, hi) * eps
    a = random_divergence_free(grid, rng, lo, hi)
    adot = random_divergence_free(grid, rng, lo, hi)
    a = VectorField(tuple(c * eps for c in a.components), divergence_free=True)
    adot = VectorField(tuple(c * eps for c in adot.components), divergence_free=True)
    return mkg.make_compatible_data(f, g, a, adot)


def run_mkg_evolve(config: ExperimentConfig):
    records, rows = [], []
    seed = config.seed
    n, N, L = config.n, config.N, config.L
    if N < 16:   # the data shell [2/L, N/(8L)] holds the lattice modes 2 <= |m| <= N/8
        raise ParameterError(f"mkg-evolve needs N >= 16: at N={N} its data shell "
                             "[2/L, N/(8L)] holds no lattice mode")
    eps = config.eps_list[min(2, len(config.eps_list) - 1)]
    grid = GridSpec(n, N, L)
    t_final = config.t_max if config.t_max is not None else L / 4.0
    dt = min(0.05, mkg.stability_limit(grid))
    steps = int(round(t_final / dt))
    if steps < 1:
        raise ParameterError(f"t_max={t_final} rounds to zero steps of dt={dt}: "
                             "mkg-evolve would take no step")
    state = _mkg_data(grid, eps, seed)
    rep0 = mkg.constraint_residuals(state)
    drift = 0.0
    gauss = rep0.gauss_residual
    divres = rep0.div_residual
    s = state
    for i in range(steps):
        s = mkg.step(s, dt)
        rep = mkg.constraint_residuals(s)
        drift = max(drift, abs(rep.total - rep0.total) / rep0.total)
        gauss = max(gauss, rep.gauss_residual)
        divres = max(divres, rep.div_residual)
        rows.append(ScanRow("mkg-evolve", n, N, L, s.t, seed, rep.total, rep0.total,
                            rep.total / rep0.total))
    records.append(AcceptanceRecord.bounded("mkg.energy_drift", drift, hi=1e-5))
    records.append(AcceptanceRecord.bounded("mkg.gauss_residual", gauss, hi=1e-6))
    records.append(AcceptanceRecord.bounded("mkg.div_drift", divres, hi=1e-9))

    # integrator order by Richardson self-convergence at visible data size
    order_grid = GridSpec(2, 32, L)
    st2 = _mkg_data(order_grid, 0.1, seed)
    T = 1.0
    dts = [0.1, 0.05, 0.025]
    sols = [mkg.evolve(st2, T, d) for d in dts]
    diffs = [lebesgue_norm(sols[i].phi - sols[i + 1].phi, 2) for i in range(len(dts) - 1)]
    order = fit_loglog(dts[:-1], diffs)
    records.append(AcceptanceRecord.bounded("mkg.integrator_order", order, lo=1.8, hi=2.2))
    for d, e in zip(dts[:-1], diffs):
        rows.append(ScanRow("mkg-evolve", 2, 32, L, d, seed, e, d ** 2, e / d ** 2))

    # scaling-symmetry replay at lambda = 2
    lam = 2.0
    gl = GridSpec(2, 32, L * lam)

    def rescale(fld, power, real=False):
        return ScalarField(gl, fld.phys_values / lam ** power, real_valued=real)

    st_l = mkg.make_compatible_data(
        rescale(st2.phi, 1), rescale(st2.phi_t, 2),
        VectorField(tuple(rescale(c, 1, True) for c in st2.A_sp.components),
                    divergence_free=True),
        VectorField(tuple(rescale(c, 2, True) for c in st2.A_sp_t.components),
                    divergence_free=True))
    s_base = sols[dts.index(0.05)]
    s_scaled = mkg.evolve(st_l, lam * T, lam * 0.05)
    replay = gr.relative_l2_difference(
        ScalarField(order_grid, s_scaled.phi.phys_values * lam), s_base.phi)
    records.append(AcceptanceRecord.bounded("mkg.scaling_replay", replay, hi=1e-6))
    return records, rows


# ---------------------------------------------------------------------------
# suite: parametrix-residual (criterion 6 a, b)

def run_parametrix_residual(config: ExperimentConfig):
    records, rows = [], []
    seed = config.seed
    grid = GridSpec(config.n, config.N, config.L)
    band, cut, _, connections, operator = _parametrix_setup(grid, seed, config.sigma)
    h = _complex_gaussian(seed, 10, 11, grid.shape) * (cut.symbol(grid) > 0)
    tgrid = np.array([0.2, 0.5, 0.8]) * (config.t_max / 0.8 if config.t_max else 1.0)

    # (a) dual-path Richardson
    op = operator(connections(1e-2), +1)
    dts = RICHARDSON_DTS
    diffs = [float(np.mean(per_time)) for per_time in pmx.residual_check(op, h, tgrid, dts)]
    for d, e in zip(dts, diffs):
        rows.append(ScanRow("parametrix-residual", grid.n, grid.N, grid.L, d, seed,
                            e, d ** 2, e / d ** 2))
    del op                               # its phase table is not read again
    order = fit_loglog(dts, diffs)
    records.append(AcceptanceRecord.bounded("parametrix.dual_path_order", order,
                                            lo=1.8, hi=2.2))

    # (b) eps scans: residual N2 norm and data matching errors
    n2_vals, match_vals = [], []
    f = random_field(grid, stream(seed, 20), cut.rho, 2 * cut.rho)
    g2 = random_field(grid, stream(seed, 21), cut.rho, 2 * cut.rho)
    for eps in config.eps_list:
        ce = connections(eps)
        o1, o2 = operator(ce, +1), operator(ce, -1)
        n2_vals.append(pmx.amplitude_residual(o1, h, tgrid))
        m = pmx.match_data(o1, o2, f, g2)
        match_vals.append(m.position_error + m.velocity_error)
        rows.append(ScanRow("parametrix-residual", grid.n, grid.N, grid.L, eps, seed,
                            n2_vals[-1], match_vals[-1],
                            n2_vals[-1] / max(match_vals[-1], 1e-300)))
    del o1, o2
    records.append(AcceptanceRecord.bounded(
        "parametrix.residual_eps_slope", fit_loglog(config.eps_list, n2_vals), lo=0.5))
    records.append(AcceptanceRecord.bounded(
        "parametrix.match_eps_slope", fit_loglog(config.eps_list, match_vals), lo=0.5))

    # free case matches data exactly
    zconn = pmx.FreeConnection.zero(grid, band)
    mz = pmx.match_data(operator(zconn, +1), operator(zconn, -1), f, g2)
    records.append(AcceptanceRecord.bounded(
        "parametrix.free_match", mz.position_error + mz.velocity_error, hi=1e-12))
    return records, rows


# ---------------------------------------------------------------------------
# suite: unitarity (criterion 6 c)

def run_unitarity(config: ExperimentConfig):
    records, rows = [], []
    seed = config.seed
    grid = GridSpec(config.n, config.N, config.L)
    band, cut, _, connections, operator = _parametrix_setup(grid, seed, config.sigma)
    times = np.linspace(0.0, 0.45 * grid.L / 2.0, config.t_samples)
    h = _complex_gaussian(seed, 30, 31, grid.shape) * (cut.symbol(grid) > 0)

    free_norm = operator(pmx.FreeConnection.zero(grid, band), +1).operator_norm_at(
        float(times[1]), stream(seed, 32), tol=1e-12)
    records.append(AcceptanceRecord.bounded("unitarity.free_norm", abs(free_norm - 1.0),
                                            hi=1e-10))

    eps = config.eps_list[min(2, len(config.eps_list) - 1)]
    norm_excess = 0.0
    for sign in (+1, -1):
        op = operator(connections(eps), sign)
        rng = stream(seed, 33)
        for t in times:
            nrm = op.operator_norm_at(float(t), rng)
            norm_excess = max(norm_excess, nrm - 1.0)
            rows.append(ScanRow("unitarity", grid.n, grid.N, grid.L, float(t), seed,
                                nrm, 1.0 + 10.0 * eps, nrm / (1.0 + 10.0 * eps)))
    records.append(AcceptanceRecord.bounded("unitarity.norm_excess", norm_excess,
                                            hi=10.0 * eps))

    # derivative commutation defects scale with eps
    worst = 0.0
    for eps_i in config.eps_list:
        op = operator(connections(eps_i), +1)
        gd = op.gradient_commutation_defect(float(times[1]), h)
        td = op.time_commutation_defect(float(times[1]), h)
        worst = max(worst, gd / eps_i, td / eps_i)
        rows.append(ScanRow("unitarity", grid.n, grid.N, grid.L, eps_i, seed, gd, td,
                            gd / max(td, 1e-300)))
    records.append(AcceptanceRecord.bounded("unitarity.derivative_defect_over_eps",
                                            worst, hi=10.0))
    return records, rows


# ---------------------------------------------------------------------------
# suite: dispersive (criterion 5)

def _point_source(grid: GridSpec) -> ScalarField:
    vals = np.zeros(grid.shape)
    vals[(0,) * grid.n] = 1.0 / grid.cell_volume
    return ScalarField(grid, vals, real_valued=True)


def run_dispersive(config: ExperimentConfig):
    records, rows = [], []
    seed = config.seed

    # free decay, n = 3
    g3 = GridSpec(3, 128, 8.0)
    cut3 = pmx.AnnulusCutoff(rho=2.5).validate(g3)
    taus3 = np.geomspace(1.0, g3.L / 4.0, 9)
    scan3 = pmx.dispersive_scan(None, taus3, _point_source(g3), cutoff=cut3)
    records.append(AcceptanceRecord.bounded("dispersive.free_slope_n3", scan3.slope,
                                            lo=-1.15, hi=-0.85))
    for t, v in zip(scan3.taus, scan3.values):
        rows.append(ScanRow("dispersive", 3, 128, 8.0, t, seed, v, t ** (-1.0), v * t))
    del g3                               # frees its cached 128^3 frequency arrays

    # free decay, n = 2
    g2 = GridSpec(2, 512, 16.0)
    cut2 = pmx.AnnulusCutoff(rho=4.0).validate(g2)
    taus2 = np.geomspace(1.0, g2.L / 4.0, 9)
    scan2 = pmx.dispersive_scan(None, taus2, _point_source(g2), cutoff=cut2)
    records.append(AcceptanceRecord.bounded("dispersive.free_slope_n2", scan2.slope,
                                            lo=-0.65, hi=-0.35))
    for t, v in zip(scan2.taus, scan2.values):
        rows.append(ScanRow("dispersive", 2, 512, 16.0, t, seed, v, t ** (-0.5),
                            v * t ** 0.5))

    # perturbed decay vs free on the same grid (n = 2)
    gp = GridSpec(2, 256, 8.0)
    _, cutp, _, connections, operator = _parametrix_setup(gp, seed, config.sigma,
                                                          eta_dir=0.05)
    tausp = np.geomspace(1.0, gp.L / 4.0, 7)
    fp = _point_source(gp)
    free_scan = pmx.dispersive_scan(None, tausp, fp, cutoff=cutp)
    op = operator(connections(config.eps_list[min(2, len(config.eps_list) - 1)]), +1)
    pert_scan = pmx.dispersive_scan(op, tausp, fp)
    gap = abs(pert_scan.slope - free_scan.slope)
    records.append(AcceptanceRecord.bounded("dispersive.perturbed_slope_gap", gap, hi=0.15))
    for t, v, w in zip(pert_scan.taus, pert_scan.values, free_scan.values):
        rows.append(ScanRow("dispersive", 2, 256, 8.0, t, seed, v, w, v / w))

    # bucketing policy error (recorded, not gated tightly)
    bucket_err = pmx.bucketing_error(op, float(tausp[0]),
                                     cutp.symbol(gp) * (1.0 + 0j), subsample=48)
    records.append(AcceptanceRecord.bounded("dispersive.bucketing_error", bucket_err,
                                            hi=1e-2))
    return records, rows


# ---------------------------------------------------------------------------
# suite: norms (criterion 8 plus recorded constants)

def run_norms(config: ExperimentConfig):
    records, rows = [], []
    seed = config.seed

    exps = exponents(6, Fraction(0))
    ok_exp = (exps.p_star == Fraction(10, 3) and exps.p_sstar == Fraction(3)
              and exps.p_ssstar == Fraction(12, 5))
    lo_s, hi_s = sigma_window(6)
    ok_sigma = (lo_s == Fraction(7, 15) and hi_s == Fraction(1, 2))
    records.append(AcceptanceRecord.bounded("exponents.n6_values",
                                            0.0 if ok_exp else 1.0, hi=0.5))
    records.append(AcceptanceRecord.bounded("exponents.sigma_window",
                                            0.0 if ok_sigma else 1.0, hi=0.5))
    rows.append(ScanRow("norms", 6, 0, 0.0, 0.0, seed, float(exps.p_star),
                        float(exps.p_sstar), float(exps.p_ssstar)))

    # measured Besov <-> Sobolev equivalence constant (recorded)
    grid = GridSpec(2, 128, 1.0)
    br = BandRange.widest(grid)
    ratios = []
    for s in range(16):
        f = flat_spectrum_field(grid, stream(seed, 500 + s), br)
        b = besov_norm(f, 2, 4, 2, br)
        h = gr.sobolev_norm(f, grid.n / 2.0 - grid.n / 4.0)
        ratios.append(h / b)
        rows.append(ScanRow("norms", 2, 128, 1.0, float(s), seed, h, b, h / b))
    records.append(AcceptanceRecord.bounded("norms.besov_sobolev_ratio_max",
                                            max(ratios), lo=0.25, hi=4.0))
    records.append(AcceptanceRecord.bounded("norms.besov_sobolev_ratio_min",
                                            min(ratios), lo=0.25, hi=4.0))

    # spacetime product estimate measured at n = 4
    g4 = GridSpec(4, 16, 4.0)
    br4 = BandRange.widest(g4)
    rng = stream(seed, 600)
    times = np.linspace(0.0, 1.0, 3)
    fs = [flat_spectrum_field(g4, rng, br4) for _ in times]
    gs = [flat_spectrum_field(g4, rng, br4) for _ in times]
    F = SpacetimeField(times, tuple(fs))
    G = SpacetimeField(times, tuple(gs))
    ratio = lp.spacetime_product_ratio(F, G, p=2, q=2, band_range=br4)
    records.append(AcceptanceRecord.bounded("norms.spacetime_product_ratio", ratio,
                                            hi=100.0))
    rows.append(ScanRow("norms", 4, 16, 4.0, 0.0, seed, ratio, 100.0, ratio / 100.0))

    # decomposable surrogate: reduction for direction-independent families
    grid2 = GridSpec(2, 32, 8.0)
    _, cut, cache, connections, _ = _parametrix_setup(grid2, seed, config.sigma, eta_dir=0.2)
    theta = 0.6
    B = cache.num_buckets
    tgrid = np.linspace(0.0, 1.0, 3)
    base = random_field(grid2, stream(seed, 700), cut.rho, 2 * cut.rho)
    const_fields = [SpacetimeField(tgrid, tuple(base for _ in tgrid)) for _ in range(B)]
    vol = float(np.sum(cut.symbol(grid2) > 0) / grid2.L ** grid2.n)  # annulus measure
    val, tail = pmx.decomposable_surrogate(cache.directions, const_fields, theta, 2, 2,
                                           annulus_volume=vol)
    expect = theta ** ((1 - grid2.n) / 2.0) * math.sqrt(vol) * \
        lp.spacetime_norm(const_fields[0], 2, lambda s: lebesgue_norm(s, 2))
    rel = abs(val - expect) / expect
    records.append(AcceptanceRecord.bounded("norms.surrogate_reduction", rel, hi=1e-12))
    rows.append(ScanRow("norms", grid2.n, grid2.N, grid2.L, theta, seed, val, expect,
                        val / expect))

    # surrogate of the phase-derivative family scales with eps (L^inf_x family)
    fam = pmx.PhaseFamily(connections(1e-2), +1, config.sigma, cache)
    slices = [[] for _ in range(B)]      # time outer: one phase table per time
    for t in tgrid:
        for b in range(B):
            mag = np.sqrt(fam.psi_t(t, b) ** 2 + sum(g ** 2 for g in fam.grad(t, b)))
            slices[b].append(ScalarField(grid2, mag, real_valued=True))
    psi_fields = [SpacetimeField(tgrid, tuple(per_b)) for per_b in slices]
    val_psi, tail_psi = pmx.decomposable_surrogate(cache.directions, psi_fields, theta,
                                                   2, np.inf, annulus_volume=vol)
    records.append(AcceptanceRecord.bounded("norms.surrogate_phase_over_eps",
                                            val_psi / 1e-2, hi=20.0))
    rows.append(ScanRow("norms", grid2.n, grid2.N, grid2.L, 1e-2, seed, val_psi,
                        tail_psi, val_psi / 1e-2))
    return records, rows


EXPERIMENTS = {
    "identities": run_identities,
    "lp-suite": run_lp_suite,
    "coulomb-gain": run_coulomb_gain,
    "mkg-evolve": run_mkg_evolve,
    "parametrix-residual": run_parametrix_residual,
    "unitarity": run_unitarity,
    "dispersive": run_dispersive,
    "norms": run_norms,
}


@dataclass(frozen=True)
class Suite:
    """The harness's plumbing of one suite; its body is EXPERIMENTS[name]."""
    reads: tuple        # config fields besides experiment, seed, out_dir; validate rejects others
    record: str         # run times the suite into <record>.runtime_seconds, gated by budget (s)
    budget: float
    box: tuple = ()     # the (n, N, L) it runs on where the config leaves them unset
    reach: float = 0.0  # how far past t_max it steps; validate admits t_max + reach < L/2


SUITES = {
    "identities": Suite(("sigma",), "identities", 300.0),
    "lp-suite": Suite(("n", "N", "L"), "lp-suite", 240.0, (2, 512, 1.0)),
    "coulomb-gain": Suite(("n", "N", "L"), "coulomb", 120.0, (3, 32, 8.0)),
    "mkg-evolve": Suite(("n", "N", "L", "eps_list", "t_max"), "mkg", 600.0, (3, 32, 8.0)),
    "parametrix-residual": Suite(("sigma", "eps_list", "t_max"), "parametrix", 900.0,
                                 (2, 64, 8.0), max(RICHARDSON_DTS)),
    "unitarity": Suite(("sigma", "eps_list", "t_samples"), "unitarity", 600.0, (2, 64, 8.0)),
    "dispersive": Suite(("sigma", "eps_list"), "dispersive", 600.0),
    "norms": Suite(("sigma",), "norms", 120.0),
}


# ---------------------------------------------------------------------------
# run / report plumbing

def run(config: ExperimentConfig):
    """Execute the configured suite; write CSV, machine summary, and report.

    Returns (records, paths).  Exit-status handling lives in the CLI."""
    config = config.validate()
    out_dir = config.out_dir    # created by the first write, so a failed suite leaves none
    ancestor = os.path.abspath(out_dir)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise ParameterError(f"out_dir {out_dir!r} cannot be made: {ancestor} is not a directory")
    suite = SUITES[config.experiment]
    t0 = time.perf_counter()
    records, rows = EXPERIMENTS[config.experiment](config.with_default_geometry())
    records.append(AcceptanceRecord.bounded(f"{suite.record}.runtime_seconds",
                                            time.perf_counter() - t0, hi=suite.budget))
    chash = config.config_hash()
    csv_path = os.path.join(out_dir, f"{config.experiment}.csv")
    write_scan_csv(csv_path, rows, chash)
    summary_path = os.path.join(out_dir, "summary.json")
    with atomic_open(summary_path) as fh:
        fh.write(machine_summary(config, records))
    report_path = os.path.join(out_dir, "report.txt")
    with atomic_open(report_path) as fh:
        fh.write(report_text(records, chash))
    return records, {"csv": csv_path, "summary": summary_path, "report": report_path}


def machine_summary(config: ExperimentConfig, records) -> str:
    """Deterministic machine summary: stable ordering, no wall-clock data
    (runtime-budget records live in the human report only)."""
    payload = {
        "config_hash": config.config_hash(),
        "experiment": config.experiment,
        "records": [
            {"id": r.id, "value": _fmt(r.value), "lo": _fmt(r.lo), "hi": _fmt(r.hi),
             "passed": r.passed}
            for r in sorted(records, key=lambda r: r.id)
            if not r.id.endswith("runtime_seconds")
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def report_text(records, config_hash: str) -> str:
    ordered = sorted(records, key=lambda r: (r.passed, r.id))
    lines = [f"cronlab report  (config {config_hash})"]
    for r in ordered:
        status = "PASS" if r.passed else "FAIL"
        bound = []
        if math.isfinite(r.lo):
            bound.append(f">= {r.lo:g}")
        if math.isfinite(r.hi):
            bound.append(f"<= {r.hi:g}")
        lines.append(f"[{status}] {r.id}: {r.value:.6g}  ({' and '.join(bound) or 'recorded'})")
    n_fail = sum(1 for r in records if not r.passed)
    lines.append(f"{len(records) - n_fail}/{len(records)} criteria passed")
    return "\n".join(lines) + "\n"


def all_passed(records) -> bool:
    return all(r.passed for r in records)
