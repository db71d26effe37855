"""Acceptance gate: every numbered criterion runs at its stated tolerance and
prints one pass/fail line.  The suites come from the experiment harness with
their default (pinned) grids and the default seed.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import cronlab
import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__
from cronlab.cli import main as cli_main
from cronlab.harness import EXPERIMENTS, ExperimentConfig, all_passed, run
from cronlab.parametrix import PhaseFamily
from conftest import NO_AVX512, count_fft_calls

_RESULTS = {}
_GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_seed7.json").read_text())
_GOLDEN_SEED3 = json.loads((pathlib.Path(__file__).parent / "golden_seed3.json").read_text())


def _run_suite(name, tmp_path_factory, seed=7):
    """(records by id, artifact paths, numpy.fft calls, phase-table builds) of
    one run of the suite at its defaults and the given seed, run once per
    session."""
    if (name, seed) not in _RESULTS:
        out = tmp_path_factory.mktemp(f"acc_{name.replace('-', '_')}_seed{seed}")
        with pytest.MonkeyPatch.context() as mp:
            calls = count_fft_calls(mp)
            tables = []
            build = PhaseFamily._build_table

            def counted(family, t):
                tables.append(t)
                build(family, t)
            mp.setattr(PhaseFamily, "_build_table", counted)
            records, paths = run(ExperimentConfig(experiment=name, seed=seed, out_dir=str(out)))
        _RESULTS[name, seed] = ({r.id: r for r in records}, paths, sum(calls.values()),
                                len(tables))
    return _RESULTS[name, seed]


def _suite(name, tmp_path_factory):
    return _run_suite(name, tmp_path_factory)[0]


def _check(record, label):
    bound = []
    if np.isfinite(record.lo):
        bound.append(f">= {record.lo:g}")
    if np.isfinite(record.hi):
        bound.append(f"<= {record.hi:g}")
    status = "PASS" if record.passed else "FAIL"
    print(f"[{status}] {label}: {record.id} = {record.value:.6g} ({' and '.join(bound)})")
    assert record.passed, f"{label}: {record.id} = {record.value} violates {bound}"


# -- criterion 1: exact identities at n in {2,3}, N in {32,64}, <= 1e-10 ------

def test_criterion_1_exact_identities(tmp_path_factory):
    recs = _suite("identities", tmp_path_factory)
    for key in ("identities.leray", "identities.lp_partition", "identities.box_null",
                "identities.null_form", "identities.phase_defect", "identities.psi_real",
                "identities.adjoint", "identities.phase_split"):
        _check(recs[key], "criterion-1")
    _check(recs["identities.runtime_seconds"], "criterion-1 (<= 5 min)")


# -- criterion 2: divergence-free angular gain --------------------------------

def test_criterion_2_coulomb_gain(tmp_path_factory):
    recs = _suite("coulomb-gain", tmp_path_factory)
    _check(recs["coulomb.per_mode_ratio"], "criterion-2")
    _check(recs["coulomb.runtime_seconds"], "criterion-2 (<= 2 min)")


# -- criterion 3: commutator scaling -------------------------------------------

def test_criterion_3_commutator(tmp_path_factory):
    recs = _suite("lp-suite", tmp_path_factory)
    _check(recs["commutator.slope"], "criterion-3")
    _check(recs["commutator.ratio_max"], "criterion-3")


# -- criterion 4: Bernstein ratios ---------------------------------------------

def test_criterion_4_bernstein(tmp_path_factory):
    recs = _suite("lp-suite", tmp_path_factory)
    for tag in ("p2_q4", "p2_qinf", "p1_q2"):
        _check(recs[f"bernstein.spread.{tag}"], "criterion-4")
        _check(recs[f"bernstein.slope.{tag}"], "criterion-4")
    _check(recs["lp-suite.runtime_seconds"], "criterion-3/4 (<= budget)")


# -- criterion 5: dispersive decay ---------------------------------------------

def test_criterion_5_dispersive(tmp_path_factory):
    recs = _suite("dispersive", tmp_path_factory)
    _check(recs["dispersive.free_slope_n3"], "criterion-5")
    _check(recs["dispersive.free_slope_n2"], "criterion-5")
    _check(recs["dispersive.perturbed_slope_gap"], "criterion-5")
    _check(recs["dispersive.runtime_seconds"], "criterion-5 (<= 10 min)")


# -- criterion 6: parametrix accuracy -------------------------------------------

def test_criterion_6_parametrix(tmp_path_factory):
    recs = _suite("parametrix-residual", tmp_path_factory)
    _check(recs["parametrix.dual_path_order"], "criterion-6a")
    _check(recs["parametrix.residual_eps_slope"], "criterion-6b")
    _check(recs["parametrix.match_eps_slope"], "criterion-6b")
    _check(recs["parametrix.runtime_seconds"], "criterion-6 (<= 15 min)")
    urecs = _suite("unitarity", tmp_path_factory)
    _check(urecs["unitarity.norm_excess"], "criterion-6c")
    _check(urecs["unitarity.free_norm"], "criterion-6c")
    _check(urecs["unitarity.derivative_defect_over_eps"], "criterion-6c")
    _check(urecs["unitarity.runtime_seconds"], "criterion-6c (<= 10 min)")


# -- criterion 7: the gauge-wave evolution --------------------------------------

def test_criterion_7_mkg_evolution(tmp_path_factory):
    recs = _suite("mkg-evolve", tmp_path_factory)
    _check(recs["mkg.energy_drift"], "criterion-7")
    _check(recs["mkg.gauss_residual"], "criterion-7")
    _check(recs["mkg.div_drift"], "criterion-7")
    _check(recs["mkg.integrator_order"], "criterion-7")
    _check(recs["mkg.scaling_replay"], "criterion-7")
    _check(recs["mkg.runtime_seconds"], "criterion-7 (<= 10 min)")


# -- criterion 8: exponent bookkeeping in exact rationals ------------------------

def test_criterion_8_exponents(tmp_path_factory):
    recs = _suite("norms", tmp_path_factory)
    _check(recs["exponents.n6_values"], "criterion-8")
    _check(recs["exponents.sigma_window"], "criterion-8")
    _check(recs["norms.runtime_seconds"], "criterion-8 (fast)")


# -- criterion 9: determinism ----------------------------------------------------

def test_criterion_9_determinism(tmp_path_factory):
    outs = [tmp_path_factory.mktemp(f"det{i}") for i in range(2)]
    blobs = []
    for out in outs:
        _, paths = run(ExperimentConfig(experiment="norms", out_dir=str(out)))
        blobs.append((open(paths["csv"], "rb").read(),
                      open(paths["summary"], "rb").read()))
    ok = blobs[0] == blobs[1]
    print(f"[{'PASS' if ok else 'FAIL'}] criterion-9: rerun artifacts byte-identical")
    assert ok


# -- pinned artifacts: every suite's seed-7 summary and CSV, bit for bit ----------

def _skip_unless_pinned_numpy():
    """Bit-for-bit reproducibility is promised for a fixed numpy version only,
    so under another version the pins are skipped, not failed."""
    if np.__version__ != _GOLDEN["numpy"]:
        pytest.skip(f"pinned with numpy {_GOLDEN['numpy']}, running {np.__version__}")


def _check_digests(name, paths, golden):
    for key in ("summary", "csv"):
        path = pathlib.Path(paths[key])
        got = hashlib.sha256(path.read_bytes()).hexdigest()
        want = golden["sha256"][name][path.name]
        assert got == want, f"{name}: {path.name} has sha256 {got}, pinned {want}"


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_seed7_artifacts_match_golden_digests(tmp_path_factory, name):
    _skip_unless_pinned_numpy()
    paths = _run_suite(name, tmp_path_factory)[1]
    _check_digests(name, paths, _GOLDEN)


@pytest.mark.parametrize("name", sorted(_GOLDEN_SEED3["sha256"]))
def test_seed3_artifacts_match_golden_digests(tmp_path_factory, name):
    """A second seed for the five cheap suites: a moved bit that seed 7 happens
    not to show still fails here."""
    _skip_unless_pinned_numpy()
    paths = _run_suite(name, tmp_path_factory, seed=_GOLDEN_SEED3["seed"])[1]
    _check_digests(name, paths, _GOLDEN_SEED3)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_seed7_transform_count_matches_golden(tmp_path_factory, name):
    """The work of each suite, counted in the run the digests read: a
    transform added anywhere in a suite fails here."""
    _skip_unless_pinned_numpy()
    transforms = _run_suite(name, tmp_path_factory)[2]
    assert transforms == _GOLDEN["transforms"][name], \
        f"{name}: {transforms} numpy.fft calls, pinned {_GOLDEN['transforms'][name]}"


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_seed7_phase_table_count_matches_golden(tmp_path_factory, name):
    """The phase tables each suite builds, counted in the run the digests read:
    a table built where no row of it is read fails here."""
    _skip_unless_pinned_numpy()
    tables = _run_suite(name, tmp_path_factory)[3]
    assert tables == _GOLDEN["tables"][name], \
        f"{name}: {tables} phase tables built, pinned {_GOLDEN['tables'][name]}"


@pytest.mark.parametrize("suite, transforms", [("unitarity", 12), ("parametrix-residual", 26)])
def test_parametrix_suite_transform_count(tmp_path_factory, suite, transforms):
    """The seed-7 count of the work the suite's records read, and no more;
    checked under any numpy version, in the run the digests read."""
    records, _, calls, _ = _run_suite(suite, tmp_path_factory)
    assert all_passed(records.values())
    assert calls == transforms


# -- records that hold on any CPU ------------------------------------------------

CHEAP_SUITES = ("unitarity", "parametrix-residual", "norms")


@pytest.mark.skipif(not __cpu_features__["AVX512F"], reason="numpy reports no AVX-512")
def test_cheap_suites_hold_their_records_without_avx512(tmp_path_factory, capsys):
    """The seed-7 records of the cheap suites move by at most compare's bound
    when numpy and OpenBLAS take their AVX2 paths instead of AVX-512."""
    out = tmp_path_factory.mktemp("no_avx512")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cronlab.__file__)))
    env = {**os.environ, **NO_AVX512,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from cronlab.cli import main\n"
            "for name in sys.argv[2:]:\n"
            "    main(['run', '--experiment', name, '--seed', '7', '--out', sys.argv[1] + '/' + name])")
    subprocess.run([sys.executable, "-c", code, str(out), *CHEAP_SUITES],
                   env=env, capture_output=True, text=True, check=True)
    for name in CHEAP_SUITES:
        paths = _run_suite(name, tmp_path_factory)[1]
        here = os.path.dirname(paths["summary"])
        assert cli_main(["compare", here, str(out / name)]) == 0, capsys.readouterr().out
