import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from cronlab.cli import main as cli_main
from cronlab.errors import CronlabError, ParameterError
from cronlab.grid import GridSpec
from cronlab.harness import (EXPERIMENTS, RICHARDSON_DTS, SUITES, AcceptanceRecord,
                             ExperimentConfig, ScanRow, Suite, _null_frame_identity, all_passed,
                             machine_summary, report_text, run)
from cronlab.random_fields import stream


def test_config_validation():
    ExperimentConfig(experiment="norms").validate()
    with pytest.raises(ParameterError):
        ExperimentConfig(experiment="does-not-exist").validate()
    with pytest.raises(ParameterError, match="must not be empty"):
        ExperimentConfig(experiment="unitarity", eps_list=()).validate()
    with pytest.raises(ParameterError):
        ExperimentConfig(experiment="norms", sigma=0.7).validate()
    # no suite reads both n and sigma; norms reads sigma only
    with pytest.raises(ParameterError, match=r"'norms' does not read \['n'\]"):
        ExperimentConfig(experiment="norms", n=6, sigma=0.3).validate()
    with pytest.raises(ParameterError, match=r"'norms' does not read \['n'\]"):
        ExperimentConfig(experiment="norms", n=6, sigma=0.48).validate()
    with pytest.raises(ParameterError, match="wrap limit"):
        ExperimentConfig(experiment="mkg-evolve", L=8.0, t_max=5.0).validate()
    # an unset L is checked as the default box the suite runs on
    with pytest.raises(ParameterError, match=r"wrap limit L/2=4\.0"):
        ExperimentConfig(experiment="mkg-evolve", t_max=5.0).validate()
    # out-of-range numbers: no time window, non-finite values
    for t_max in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="t_max"):
            ExperimentConfig(experiment="mkg-evolve", t_max=t_max).validate()
    for eps in (math.inf, math.nan):
        with pytest.raises(ParameterError, match="eps values"):
            ExperimentConfig(experiment="unitarity", eps_list=(0.1, eps)).validate()
    for L in (math.inf, math.nan, 10 ** 400):
        with pytest.raises(ParameterError, match="box side"):
            ExperimentConfig(experiment="lp-suite", L=L).validate()
    for L in (math.inf, math.nan):
        with pytest.raises(ParameterError, match="box side"):
            GridSpec(2, 16, L)


def test_config_hash_ignores_out_dir():
    a = ExperimentConfig(experiment="norms", out_dir="x")
    b = ExperimentConfig(experiment="norms", out_dir="y")
    c = ExperimentConfig(experiment="norms", seed=8)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "norms", "seed": 11,
                                "eps_list": [0.1, 0.01]}))
    cfg = ExperimentConfig.from_json(path)
    assert cfg.seed == 11 and cfg.eps_list == (0.1, 0.01)
    path.write_text(json.dumps({"experiment": "norms", "bogus": 1}))
    with pytest.raises(ParameterError):
        ExperimentConfig.from_json(path)


@pytest.mark.parametrize("field, value", [
    ("k_range", [0, 3]), ("delta", 0.02), ("direction_cache", "exact"),
])
def test_removed_config_fields_are_rejected(tmp_path, monkeypatch, capsys, field, value):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "norms", field: value}))
    with pytest.raises(ParameterError, match="unknown config fields"):
        ExperimentConfig.from_json(path)
    assert cli_main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: unknown config fields")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, needle", [
    ("5", "JSON object"),
    ('["norms"]', "JSON object"),
    ('{"seed": 7}', "names no experiment"),
    ('{"experiment": "norms", "seed": "x"}', "'seed' must be an integer"),
    ('{"experiment": "norms", "seed": true}', "'seed' must be an integer"),
    ('{"experiment": "unitarity", "eps_list": 5}', "'eps_list' must be a list of numbers"),
    ('{"experiment": "unitarity", "eps_list": [0.1, "a"]}', "'eps_list' must be a list"),
    ('{"experiment": "norms", "sigma": "a"}', "'sigma' must be a number"),
    ('{"experiment": "unitarity", "t_samples": 2.5}', "'t_samples' must be an integer"),
    ('{"experiment": "lp-suite", "N": 256.0}', "'N' must be an integer"),
    ('{"experiment": 3}', "'experiment' must be a string"),
    ('{"experiment": "norms", "out_dir": 1}', "'out_dir' must be a string"),
])
def test_cli_rejects_wrongly_typed_config(tmp_path, monkeypatch, capsys, text, needle):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ParameterError, match=needle):
        ExperimentConfig.from_json(path)
    assert cli_main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err
    assert not (tmp_path / "out").exists()


def test_config_from_json_accepts_null_for_unset_geometry(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "mkg-evolve", "n": None, "L": 8, "t_max": None}))
    cfg = ExperimentConfig.from_json(path).validate()
    assert cfg.n is None and cfg.L == 8 and cfg.t_max is None


# the fields each suite reads besides experiment, seed and out_dir
READS = {
    "identities": {"sigma"},
    "norms": {"sigma"},
    "lp-suite": {"n", "N", "L"},
    "coulomb-gain": {"n", "N", "L"},
    "mkg-evolve": {"n", "N", "L", "eps_list", "t_max"},
    "parametrix-residual": {"sigma", "eps_list", "t_max"},
    "unitarity": {"sigma", "eps_list", "t_samples"},
    "dispersive": {"sigma", "eps_list"},
}
# a valid value other than the default for each optional field
SET_VALUES = {"n": 3, "N": 64, "L": 4.0, "sigma": 0.3, "eps_list": (0.1, 0.01),
              "t_max": 1.0, "t_samples": 3}


@pytest.mark.parametrize("suite, field", [
    (suite, field) for suite in READS for field in SET_VALUES if field not in READS[suite]])
def test_config_rejects_field_the_suite_does_not_read(suite, field):
    cfg = ExperimentConfig(experiment=suite, **{field: SET_VALUES[field]})
    with pytest.raises(ParameterError, match=f"suite '{suite}' does not read \\['{field}'\\]"):
        cfg.validate()


@pytest.mark.parametrize("suite, field", [
    (suite, field) for suite in READS for field in sorted(READS[suite])])
def test_config_accepts_field_the_suite_reads(suite, field):
    ExperimentConfig(experiment=suite, **{field: SET_VALUES[field]}).validate()


def test_record_bounds():
    r = AcceptanceRecord.bounded("x", 0.5, hi=1.0)
    assert r.passed
    assert not AcceptanceRecord.bounded("x", 2.0, hi=1.0).passed
    assert not AcceptanceRecord.bounded("x", float("nan"), hi=1.0).passed
    assert AcceptanceRecord.bounded("x", -0.2, lo=-1.0, hi=0.0).passed


def test_report_lists_failures_first():
    recs = [AcceptanceRecord.bounded("zz.ok", 0.0, hi=1.0),
            AcceptanceRecord.bounded("aa.bad", 2.0, hi=1.0)]
    text = report_text(recs, "deadbeef")
    lines = text.splitlines()
    assert "FAIL" in lines[1] and "aa.bad" in lines[1]
    assert "PASS" in lines[2]
    assert not all_passed(recs)


def test_machine_summary_is_deterministic_and_clockless():
    cfg = ExperimentConfig(experiment="norms")
    recs = [AcceptanceRecord("b", 1.0, 0.0, 2.0, True),
            AcceptanceRecord("b.runtime_seconds", 1.23, -math.inf, 600.0, True),
            AcceptanceRecord("a", 0.5, 0.0, 2.0, True)]
    s1 = machine_summary(cfg, recs)
    s2 = machine_summary(cfg, list(reversed(recs)))
    assert s1 == s2
    assert "seconds" not in s1 and "1.23" not in s1


def test_norms_run_writes_artifacts_and_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    recs1, paths1 = run(ExperimentConfig(experiment="norms", out_dir=str(out1)))
    recs2, paths2 = run(ExperimentConfig(experiment="norms", out_dir=str(out2)))
    assert all_passed(recs1)
    csv1 = open(paths1["csv"], "rb").read()
    csv2 = open(paths2["csv"], "rb").read()
    assert csv1 == csv2
    assert open(paths1["summary"], "rb").read() == open(paths2["summary"], "rb").read()
    header = csv1.decode().splitlines()
    assert header[0].startswith("# cronlab scan v1 schema=experiment,n,N,L,param,seed")
    assert header[1] == "experiment,n,N,L,param,seed,lhs,rhs,ratio"


def test_suite_tables_name_the_same_suites():
    assert list(EXPERIMENTS) == list(SUITES)
    # every field of every suite: what it reads, its runtime gate, its box and its reach
    assert SUITES == {
        "identities": Suite(("sigma",), "identities", 300.0, (), 0.0),
        "lp-suite": Suite(("n", "N", "L"), "lp-suite", 240.0, (2, 512, 1.0), 0.0),
        "coulomb-gain": Suite(("n", "N", "L"), "coulomb", 120.0, (3, 32, 8.0), 0.0),
        "mkg-evolve": Suite(("n", "N", "L", "eps_list", "t_max"), "mkg", 600.0,
                            (3, 32, 8.0), 0.0),
        "parametrix-residual": Suite(("sigma", "eps_list", "t_max"), "parametrix", 900.0,
                                     (2, 64, 8.0), 0.1),
        "unitarity": Suite(("sigma", "eps_list", "t_samples"), "unitarity", 600.0,
                           (2, 64, 8.0), 0.0),
        "dispersive": Suite(("sigma", "eps_list"), "dispersive", 600.0, (), 0.0),
        "norms": Suite(("sigma",), "norms", 120.0, (), 0.0)}
    assert SUITES["parametrix-residual"].reach == max(RICHARDSON_DTS)
    # a box for every suite whose L or t_max validate() checks
    for name, suite in SUITES.items():
        assert len(suite.box) == 3 or not {"L", "t_max"} & set(suite.reads), name


@pytest.mark.parametrize("given, seen", [({}, (3, 32, 8.0)), ({"N": 16}, (3, 16, 8.0))])
def test_run_fills_default_geometry_and_appends_runtime_record(tmp_path, monkeypatch,
                                                               given, seen):
    calls = []

    def stub(config):
        calls.append(config)
        return ([AcceptanceRecord.bounded("stub.value", 0.5, hi=1.0)],
                [ScanRow("coulomb-gain", config.n, config.N, config.L, 0.0, config.seed,
                         1.0, 2.0, 0.5)])
    monkeypatch.setitem(EXPERIMENTS, "coulomb-gain", stub)
    config = ExperimentConfig(experiment="coulomb-gain", out_dir=str(tmp_path), **given)
    records, paths = run(config)
    # the suite runs on the filled-in box; the artifacts still hash the config as given
    assert calls == [replace(config, **dict(zip(("n", "N", "L"), seen)))]
    assert calls[0].config_hash() != config.config_hash()
    header = open(paths["csv"]).readline().split()
    assert header[-1] == f"config={config.config_hash()}"
    # run times the suite and appends the record its table names
    assert [r.id for r in records] == ["stub.value", "coulomb.runtime_seconds"]
    runtime = records[-1]
    assert runtime.passed and runtime.value >= 0.0 and runtime.hi == 120.0
    summary = json.loads(open(paths["summary"]).read())
    assert summary["config_hash"] == config.config_hash()
    assert [r["id"] for r in summary["records"]] == ["stub.value"]
    assert "coulomb.runtime_seconds" in open(paths["report"]).read()


def test_run_gives_unitarity_its_parametrix_box(tmp_path, monkeypatch):
    calls = []

    def stub(config):
        calls.append(config)
        return ([AcceptanceRecord.bounded("stub.value", 0.5, hi=1.0)],
                [ScanRow("unitarity", config.n, config.N, config.L, 0.0, config.seed,
                         1.0, 2.0, 0.5)])
    monkeypatch.setitem(EXPERIMENTS, "unitarity", stub)
    config = ExperimentConfig(experiment="unitarity", t_samples=3, out_dir=str(tmp_path))
    records, paths = run(config)
    # the suite reads its grid from the filled-in box; the artifacts read the config as given
    assert calls == [replace(config, n=2, N=64, L=8.0)]
    header = open(paths["csv"]).readline().split()
    assert header[-1] == f"config={config.config_hash()}" != f"config={calls[0].config_hash()}"
    assert json.loads(open(paths["summary"]).read())["config_hash"] == config.config_hash()
    assert [r.id for r in records] == ["stub.value", "unitarity.runtime_seconds"]
    assert records[-1].hi == 600.0


def test_different_seed_changes_scan(tmp_path):
    _, p1 = run(ExperimentConfig(experiment="norms", out_dir=str(tmp_path / "a")))
    _, p2 = run(ExperimentConfig(experiment="norms", seed=99, out_dir=str(tmp_path / "b")))
    assert open(p1["csv"], "rb").read() != open(p2["csv"], "rb").read()


def test_cli_run_report_dump(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli_main(["run", "--experiment", "norms", "--out", str(out)])
    assert code == 0
    seen = capsys.readouterr().out
    assert "criteria passed" in seen
    code = cli_main(["report", str(out)])
    assert code == 0
    assert "exponents.n6_values" in capsys.readouterr().out


def test_cli_run_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "norms"}))
    code = cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--seed", "3"])
    assert code == 0
    payload = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert payload["experiment"] == "norms"


def test_cli_rejects_bad_experiment(capsys):
    code = cli_main(["run", "--experiment", "nope"])
    assert code == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_config_rejects_seed_outside_philox_key():
    with pytest.raises(ParameterError):
        ExperimentConfig(experiment="norms", seed=-1).validate()
    with pytest.raises(ParameterError):
        ExperimentConfig(experiment="norms", seed=2 ** 64).validate()
    ExperimentConfig(experiment="norms", seed=2 ** 64 - 1).validate()


BAD_CONFIGS = {
    "bad.json": '{"experiment": ',
    "inf_L.json": '{"experiment": "lp-suite", "L": Infinity}',
    "overflow_L.json": '{"experiment": "coulomb-gain", "L": 1e400}',   # parses as inf
    "zero_t_max.json": '{"experiment": "mkg-evolve", "t_max": 0.0}',
    "neg_t_max.json": '{"experiment": "parametrix-residual", "t_max": -1}',
    "nan_eps.json": '{"experiment": "unitarity", "eps_list": [0.1, NaN]}',
    "odd_N.json": '{"experiment": "lp-suite", "N": 7}',
    "two_bands.json": '{"experiment": "lp-suite", "N": 64}',
    "wrap_t_max.json": '{"experiment": "parametrix-residual", "t_max": 3.95}',
    "far_t_max.json": '{"experiment": "parametrix-residual", "t_max": 7.0}',
    "one_eps.json": '{"experiment": "parametrix-residual", "eps_list": [0.01]}',
    "repeated_eps.json": '{"experiment": "parametrix-residual", "eps_list": [0.01, 0.01]}',
    "empty_shell.json": '{"experiment": "mkg-evolve", "N": 8}',
    "wide_box.json": '{"experiment": "lp-suite", "N": 128, "L": 8192}',
    "huge_L.json": '{"experiment": "coulomb-gain", "L": 1e300}',   # (L/N)^3 overflows
    "short_t_max.json": '{"experiment": "mkg-evolve", "t_max": 0.02}',
    "not_utf8.json": b"\xff\xfe{",
    "under_file.json": '{"experiment": "unitarity", "out_dir": "bad.json/sub"}',
    "norms.json": '{"experiment": "norms"}',      # valid: bad only beside --experiment
}
BAD_SUMMARIES = {
    "list_summary": "[]",
    "no_hash": '{"experiment": "x"}',
    "bad_records": '{"experiment": "x", "config_hash": "h", "records": [1]}',
    "record_fields": '{"experiment": "x", "config_hash": "h", "records": [{"id": "a"}]}',
}
COMPARED_SUMMARIES = {
    "norms_run": '{"experiment": "norms", "config_hash": "h", '
                 '"records": [{"id": "a", "value": "1", "lo": "-inf", "hi": "2", "passed": true}]}',
    "unitarity_run": '{"experiment": "unitarity", "config_hash": "h", '
                     '"records": [{"id": "a", "value": "1", "lo": "-inf", "hi": "2", '
                     '"passed": true}]}',
    "text_bound": '{"experiment": "norms", "config_hash": "h", '
                  '"records": [{"id": "a", "value": "1", "lo": "low", "hi": "2", "passed": true}]}',
}
MISTYPED_SUMMARIES = {
    "passed_string": '{"experiment": "x", "config_hash": "h", '
                     '"records": [{"id": "a", "value": "1", "passed": "no"}]}',
    "value_number": '{"experiment": "x", "config_hash": "h", '
                    '"records": [{"id": "a", "value": 1.0, "passed": true}]}',
}


@pytest.mark.parametrize("argv, needle", [
    (["run", "--config", "missing.json"], "missing.json"),
    (["report", "missing_dir"], "missing_dir"),
    (["run", "--config", "bad.json"], "bad.json"),
    (["run", "--experiment", "norms", "--seed", "-1"], "seed=-1"),
    (["run", "--config", "inf_L.json"], "L=inf"),
    (["run", "--config", "zero_t_max.json"], "t_max=0.0"),
    (["run", "--config", "neg_t_max.json"], "t_max=-1"),
    (["run", "--config", "nan_eps.json"], "eps values"),
    (["run", "--config", "overflow_L.json"], "L=inf"),
] + [(["report", name], name) for name in BAD_SUMMARIES] + [
    (["run", "--config", "odd_N.json"], "N=7"),
    (["run", "--config", "wrap_t_max.json"], "wrap limit"),
    (["run", "--config", "two_bands.json"], "at least 3 Bernstein bands"),
    (["run", "--config", "one_eps.json"], "eps_list=[0.01] needs at least two distinct"),
    (["run", "--config", "repeated_eps.json"], "eps_list=[0.01, 0.01] needs at least two"),
    # parametrix-residual's fixed box: t_max plus the largest Richardson step must fit
    (["run", "--config", "wrap_t_max.json"], "t_max=3.95 plus the Richardson step 0.1"),
    (["run", "--config", "far_t_max.json"], "t_max=7.0 plus the Richardson step 0.1"),
    # configs validate() admits that the suite rejects before its first draw
    (["run", "--config", "empty_shell.json"], "N=8"),
    (["run", "--config", "wide_box.json"], "L=8192"),
    (["run", "--config", "huge_L.json"], "L=1e+300"),
    # mkg-evolve rounds t_max to whole steps of dt = 0.05; this one rounds to none
    (["run", "--config", "short_t_max.json"], "t_max=0.02 rounds to zero steps of dt=0.05"),
    (["run", "--config", "not_utf8.json"], "can't decode byte 0xff"),
    # an out_dir below a regular file is refused before the suite runs
    (["run", "--config", "under_file.json"], "bad.json is not a directory"),
] + [(["report", name], "needs a string id and value and a bool passed")
     for name in MISTYPED_SUMMARIES] + [
    (["compare", "norms_run", "missing_dir"], "missing_dir"),
    (["compare", "list_summary", "norms_run"], "list_summary/summary.json is not a cronlab"),
    (["compare", "norms_run", "unitarity_run"], "a run of norms with a run of unitarity"),
    (["compare", "norms_run", "text_bound"], "has lo 'low', not a number"),
    # run takes exactly one of --config and --experiment
    (["run", "--config", "norms.json", "--experiment", "unitarity"], "exactly one of --config"),
    (["run"], "exactly one of --config and --experiment"),
])
def test_cli_maps_bad_input_to_exit_2(tmp_path, monkeypatch, capsys, argv, needle):
    monkeypatch.chdir(tmp_path)
    for name, text in BAD_CONFIGS.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    for name, text in {**BAD_SUMMARIES, **MISTYPED_SUMMARIES, **COMPARED_SUMMARIES}.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "summary.json").write_text(text)
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err
    assert not (tmp_path / "out").exists()


def _summary(*records):
    return {"experiment": "norms", "config_hash": "h", "records": [
        {"id": rid, "value": value, "lo": "-inf", "hi": hi, "passed": passed}
        for rid, value, hi, passed in records]}


BASE_RECORDS = (("a", "1", "2", True), ("b", "1e-20", "1e-10", True))


@pytest.mark.parametrize("other, code", [
    (BASE_RECORDS, 0),
    # moves are measured against the larger of the values and the finite bounds
    ((("a", "1.00005", "2", True), ("b", "1e-20", "1e-10", True)), 0),      # 2.5e-5
    ((("a", "1", "2", True), ("b", "3e-20", "1e-10", True)), 0),            # 2e-10
    ((("a", "1.001", "2", True), ("b", "1e-20", "1e-10", True)), 1),        # 5e-4
    ((("a", "1", "2", True), ("b", "1e-20", "1e-10", False)), 1),          # verdict
    (BASE_RECORDS[:1], 1),                                                 # a record lost
    (BASE_RECORDS + (("c", "0", "1", True),), 1),                         # a record added
])
def test_cli_compare_accepts_only_moves_within_its_bound(tmp_path, capsys, other, code):
    for name, records in (("a", BASE_RECORDS), ("b", other)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "summary.json").write_text(json.dumps(_summary(*records)))
    assert cli_main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == code
    out = capsys.readouterr().out
    assert "a: 1 " in out and out.rstrip().endswith("same" if code == 0 else "differ")


def test_cli_compare_reads_two_runs_of_a_suite(tmp_path, capsys):
    for name in ("a", "b"):
        assert cli_main(["run", "--experiment", "norms", "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert cli_main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "norms.surrogate_reduction" in out
    assert "largest move 0.00e+00" in out


def test_coulomb_gain_builds_each_sector_symbol_once(tmp_path, monkeypatch):
    import cronlab.gauge as gauge_module
    calls = []
    original = gauge_module.sector_symbol

    def counted(grid, omega, theta, mode="greater"):
        calls.append((tuple(omega), theta, mode))
        return original(grid, omega, theta, mode)
    monkeypatch.setattr(gauge_module, "sector_symbol", counted)
    records, _ = run(ExperimentConfig(experiment="coulomb-gain", N=16, out_dir=str(tmp_path)))
    assert all_passed(records)
    # 20 directions x 5 angles x {leq, band}, each built once for all 50 fields
    assert len(calls) == 200 == len(set(calls))


def test_lp_suite_builds_one_packet_per_bernstein_band(tmp_path, monkeypatch):
    import cronlab.harness as harness_module
    calls = []
    original = harness_module.packet_field

    def counted(grid, rng, k):
        calls.append(k)
        return original(grid, rng, k)
    monkeypatch.setattr(harness_module, "packet_field", counted)
    records, _ = run(ExperimentConfig(experiment="lp-suite", N=128, out_dir=str(tmp_path)))
    # each band's kernel is measured once, for all three (p, q) pairs
    assert len(calls) == len(set(calls)) >= 2
    assert sum(r.id.startswith("bernstein.") for r in records) == 6


@pytest.mark.parametrize("suite", ["unitarity", "parametrix-residual"])
def test_parametrix_suite_draws_its_connection_once(tmp_path, monkeypatch, suite):
    import cronlab.harness as harness_module
    calls = []
    original = harness_module._connection_data

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(harness_module, "_connection_data", counted)
    records, _ = run(ExperimentConfig(experiment=suite, out_dir=str(tmp_path)))
    assert all_passed(records)
    # one draw serves every eps and both signs
    assert len(calls) == 1


def test_lp_suite_builds_each_cutoff_once_and_norms_l2_bands_by_plancherel(
        tmp_path, monkeypatch, count_transforms):
    from cronlab.lp import BandRange, BumpProfile
    bumps = []

    def counted(self, r, _original=BumpProfile.__call__):
        bumps.append(r)
        return _original(self, r)
    monkeypatch.setattr(BumpProfile, "__call__", counted)
    calls = count_transforms()
    config = ExperimentConfig(experiment="lp-suite", N=128, out_dir=str(tmp_path))
    records, _ = run(config)
    assert all_passed(records)
    # one grid: each band symbol of its range is two bumps, built once
    bands = BandRange.widest(GridSpec(2, 128, 1.0))
    assert len(bumps) == 2 * len(range(bands.k_min, bands.k_max + 1)) == 10
    # the seed-7 count: no inverse transform for an L^2 band norm, and one
    # per band piece for the p = 4 and p = 3 norms of the embedding chain
    assert sum(calls.values()) == 261


def test_unitarity_suite_calls_each_check_per_record(tmp_path, monkeypatch):
    from cronlab.parametrix import WaveOperator
    calls = {}
    for name in ("operator_norm_at", "gradient_commutation_defect", "time_commutation_defect"):
        def counted(*args, _original=getattr(WaveOperator, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(WaveOperator, name, counted)
    config = ExperimentConfig(experiment="unitarity", t_samples=3, eps_list=(3e-2, 1e-2),
                              out_dir=str(tmp_path))
    records, _ = run(config)
    assert all_passed(records)
    # the free norm, then one norm per time and sign; one defect of each kind per eps
    assert calls == {"operator_norm_at": 1 + 2 * config.t_samples,
                     "gradient_commutation_defect": len(config.eps_list),
                     "time_commutation_defect": len(config.eps_list)}


def test_lp_commutator_scan_below_default_grid():
    from cronlab.harness import _commutator_scan
    from cronlab.lp import BandRange
    grid = GridSpec(2, 256, 1.0)
    br = BandRange.widest(grid)
    comm_ks = list(range(br.k_min + 2, br.k_max + 1))[:4]
    assert max(comm_ks) == br.k_max          # the scan reaches the top band
    norms_by_k, ratios, rows = _commutator_scan(grid, br, comm_ks, 7)
    assert len(rows) == 12 * len(comm_ks) == len(ratios)
    assert all(len(v) == 12 and min(v) > 0 for v in norms_by_k.values())


# ---------------------------------------------------------------------------
# fuzzed config files: any JSON object ends in a CronlabError or a finite config

_JSON_LEAF = (st.none() | st.booleans() | st.integers() | st.floats()
              | st.text(max_size=6) | st.sampled_from(list(EXPERIMENTS)))
_JSON_VALUE = st.recursive(_JSON_LEAF, lambda inner: st.lists(inner, max_size=4), max_leaves=6)
# NaN, +-inf (drawn often on purpose), other floats and ints beyond the float range
_NUMBER = st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats() | st.integers()
_TYPED = {"n": st.integers(), "N": st.integers(), "L": _NUMBER, "sigma": _NUMBER,
          "eps_list": st.lists(_NUMBER, max_size=4), "seed": st.integers(), "t_max": _NUMBER,
          "t_samples": st.integers()}


@st.composite
def suite_configs(draw):
    """A suite with a drawn subset of the fields it reads, each of its JSON type."""
    name = draw(st.sampled_from(sorted(EXPERIMENTS)))
    keys = draw(st.lists(st.sampled_from(SUITES[name].reads + ("seed",)), unique=True))
    return {"experiment": name, **{key: draw(_TYPED[key]) for key in keys}}


_CONFIGS = (st.dictionaries(st.sampled_from([*_TYPED, "experiment", "out_dir", "bogus"]),
                            _JSON_VALUE, max_size=5)
            | suite_configs())


@settings(max_examples=300, deadline=None)
@given(_CONFIGS)
def test_config_fuzz_ends_in_error_or_finite_config(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(raw))     # NaN and Infinity spelled as json.load reads them
    try:
        cfg = ExperimentConfig.from_json(path).validate()
    except CronlabError:
        return
    for value in (cfg.L, cfg.sigma, cfg.t_max, *cfg.eps_list):
        assert value is None or math.isfinite(value)


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("given,expect", [(None, "1"), ("2", "2")])
def test_import_defaults_blas_to_one_thread_unless_set(given, expect):
    import os
    import subprocess
    import sys
    import cronlab
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    if given is not None:
        env.update(dict.fromkeys(_BLAS_VARS, given))
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cronlab.__file__))
    code = ("import sys, os, cronlab; assert 'numpy' in sys.modules; "
            f"print(*(os.environ[k] for k in {_BLAS_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == [expect] * len(_BLAS_VARS)


@pytest.mark.parametrize("config", [{"experiment": "unitarity"}, {"experiment": "norms"},
                                    {"experiment": "mkg-evolve", "N": 16}],
                         ids=lambda c: c["experiment"])
def test_suites_run_clear_of_floating_point_errors(tmp_path, config):
    # every overflow, invalid operation and division by zero these suites meet
    # is one they expect and silence locally with np.errstate; underflow is
    # gradual and harmless
    with np.errstate(all="raise", under="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        records, _ = run(ExperimentConfig(**config, out_dir=str(tmp_path)))
    assert all_passed(records)


@pytest.mark.parametrize("idx,n,N", [(0, 2, 32), (1, 3, 16)])
def test_free_wave_algebra_runs_clear_of_floating_point_errors(idx, n, N):
    # a free wave's operations carry the Nyquist rows and the zero mode of its
    # spectra until sample drops them; none of them may raise on the way
    with np.errstate(all="raise", under="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _null_frame_identity(GridSpec(n, N, 8.0), stream(7, idx)) < 1e-10
