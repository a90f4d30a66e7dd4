import argparse
import json
import math
import shutil
import warnings

import pytest

from dnls_hierarchy.algebra import GaussianRational
from dnls_hierarchy.cli import main, parse_gaussian_rational

GR = GaussianRational.of


class TestGaussianRationalFlag:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2", GR(2)),
            ("1/2", GR("1/2")),
            ("-3/2", GR("-3/2")),
            ("i", GR(0, 1)),
            ("-i", GR(0, -1)),
            ("2i", GR(0, 2)),
            ("1/2+3/4 i", GR("1/2", "3/4")),
            ("-1-2i", GR(-1, -2)),
            ("+i", GR(0, 1)),
            ("3/7+2/5i", GR("3/7", "2/5")),
            ("+2-i", GR(2, -1)),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_gaussian_rational(text) == expected

    def test_rejects_garbage(self):
        with pytest.raises(Exception):
            parse_gaussian_rational("one half")

    @pytest.mark.parametrize("text,message", [
        ("2+", "cannot parse"), ("2i3", "cannot parse"), ("", "cannot parse"),
        ("1/0i", "zero denominator"),
    ])
    def test_boundary_rejections(self, text, message):
        with pytest.raises(argparse.ArgumentTypeError, match=message):
            parse_gaussian_rational(text)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "derive" in capsys.readouterr().out


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["derive", "--n", "1", "--bogus"])
    assert exc.value.code == 2


def test_derive_latex_artifact(tmp_path, capsys):
    assert main(["derive", "--n", "3", "--alpha", "8", "--format", "latex",
                 "--out", str(tmp_path)]) == 0
    text = (tmp_path / "derive_n3.tex").read_text()
    assert text.startswith("iq_t-q_{xxxx} = ")
    out = capsys.readouterr().out
    assert '"verb": "derive"' in out


def test_gauge_json_has_empty_residual(tmp_path):
    assert main(["gauge", "--j", "1", "--format", "json", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "gauge_j1.json").read_text())
    assert payload["residual_bad_cubics"] == {}
    assert payload["gauged"]["linear"]["canonical"] is True


def test_check_subset_passes(tmp_path, capsys):
    code = main(["check", "--goldens", "--cubics", "--n-max", "5",
                 "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert report["all_pass"] is True
    out = capsys.readouterr().out
    assert "PASS reference table, gauged j=3" in out


def test_check_without_a_suite_flag_runs_every_suite(tmp_path, capsys):
    # No suite flag and --all select the same five suites: 3 structure,
    # 3 cubic, 9 golden, 2 cancellation and 1 probe rows, all passing.
    reports = []
    for extra in ([], ["--all"]):
        out = tmp_path / ("all" if extra else "none")
        assert main(["check", *extra, "--n-max", "3", "--j-max", "2", "--out", str(out)]) == 0
        reports.append(json.loads((out / "check_report.json").read_text()))
    assert reports[0] == reports[1]
    rows = reports[0]["results"]
    assert len(rows) == 18 and all(row["pass"] for row in rows)
    assert [row["check"] for row in rows[-3:]] == [
        "bad-cubic cancellation, j=1", "bad-cubic cancellation, j=2",
        "gauge continuity probe (s,p)=(0.6,4)",
    ]


def test_check_reports_a_structure_violation(tmp_path, capsys, monkeypatch):
    from dnls_hierarchy import cli
    from dnls_hierarchy.hierarchy import PropertyViolation

    def violated(n):
        raise PropertyViolation(4, None, "corrupted")

    monkeypatch.setattr(cli, "check_Y_properties", violated)
    assert main(["check", "--structure", "--n-max", "1", "--out", str(tmp_path)]) == 1
    assert "FAIL Y structure items 1-4, n=1: Y property 4: corrupted" in capsys.readouterr().out
    assert json.loads((tmp_path / "check_report.json").read_text())["all_pass"] is False


def test_check_structure_prints_the_single_factor_coefficient(tmp_path, capsys):
    assert main(["check", "--structure", "--n-max", "2", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS Y structure items 1-4, n=1: single-factor coefficient (1/4,0) = -(2i)^-(n+1)" in out
    assert "PASS Y structure items 1-4, n=2: single-factor coefficient (0,-1/8) = -(2i)^-(n+1)" in out
    assert "matches" not in out


def test_check_structure_fails_on_another_normalization(tmp_path, capsys, monkeypatch):
    from dataclasses import replace

    from dnls_hierarchy import cli

    real = cli.check_Y_properties
    monkeypatch.setattr(cli, "check_Y_properties",
                        lambda n: replace(real(n), matches_minus_n_plus_1_exponent=False))
    assert main(["check", "--structure", "--n-max", "1", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL Y structure items 1-4, n=1: single-factor coefficient (1/4,0) != -(2i)^-(n+1)" in out
    assert json.loads((tmp_path / "check_report.json").read_text())["all_pass"] is False


def test_check_reports_a_surviving_bad_cubic(tmp_path, capsys, monkeypatch):
    from dnls_hierarchy import gauge

    monkeypatch.setattr(gauge, "extract_bad_cubics", lambda eq: {0: 1})
    assert main(["check", "--cancellation", "--j-max", "2", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    for j in (1, 2):
        assert f"FAIL bad-cubic cancellation, j={j}: bad cubics survived gauging: {{0: 1}}" in out
    assert json.loads((tmp_path / "check_report.json").read_text())["all_pass"] is False


@pytest.mark.parametrize("argv", [
    ["gauge", "--j", "1"],
    ["export", "--n-max", "0", "--j-max", "1"],
    ["simulate", "--j", "1", "--equation", "gauged", "--grid", "64", "--dt", "0.001",
     "--t-end", "0.002"],
])
def test_a_surviving_bad_cubic_fails_the_run_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                                 argv):
    from dnls_hierarchy import gauge

    monkeypatch.setattr(gauge, "extract_bad_cubics", lambda eq: {0: 1})
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "bad cubics survived gauging: {0: 1}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["derive", "--n", "1"], ["check", "--cubics", "--n-max", "1"]])
def test_out_naming_a_file_is_a_usage_error(tmp_path, capsys, argv):
    taken = tmp_path / "taken"
    taken.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(taken)])
    assert exc.value.code == 2
    assert f"--out {taken}: " in capsys.readouterr().err
    assert taken.read_text() == ""


def test_simulate_writes_csv_and_snapshot(tmp_path):
    code = main([
        "simulate", "--j", "2", "--equation", "planewave", "--grid", "64",
        "--dt", "0.001", "--t-end", "0.01", "--monitor-stride", "5",
        "--out", str(tmp_path),
    ])
    assert code == 0
    csv = (tmp_path / "timeseries.csv").read_text()
    assert csv.splitlines()[0] == "time,mass,l2_error"
    assert (tmp_path / "final.bin").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert float(report["final_l2_error"]) < 1e-5


def test_simulate_monitors_always_record_the_mass(tmp_path):
    code = main([
        "simulate", "--j", "2", "--grid", "64", "--dt", "0.001", "--t-end", "0.01",
        "--monitors", "2,3", "--out", str(tmp_path),
    ])
    assert code == 0
    csv = (tmp_path / "timeseries.csv").read_text()
    assert csv.splitlines()[0] == "time,mass,re_I2,im_I2,re_I3,im_I3"


def test_simulate_repeated_monitor_repeats_its_columns(tmp_path):
    code = main([
        "simulate", "--j", "2", "--grid", "64", "--dt", "0.001", "--t-end", "0.01",
        "--monitors", "2,2,mass", "--out", str(tmp_path),
    ])
    assert code == 0
    lines = (tmp_path / "timeseries.csv").read_text().splitlines()
    assert lines[0] == "time,mass,re_I2,im_I2,re_I2,im_I2"
    assert len(lines) == 3 and all(r.split(",")[2:4] == r.split(",")[4:] for r in lines[1:])


def test_simulate_plane_wave_on_a_longer_period(tmp_path):
    # N = 3 on L = 4π is grid mode k = 6: periodic, so the exact wave is tracked.
    code = main([
        "simulate", "--j", "2", "--equation", "planewave", "--pw-N", "3",
        "--length", repr(4 * math.pi), "--grid", "64", "--dt", "0.001", "--t-end", "0.01",
        "--out", str(tmp_path),
    ])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert float(report["final_l2_error"]) < 1e-5


def test_simulate_gauged_equation(tmp_path):
    code = main([
        "simulate", "--j", "2", "--equation", "gauged", "--grid", "128",
        "--length", "100.0", "--dt", "0.001", "--t-end", "0.01",
        "--monitors", "mass", "--out", str(tmp_path),
    ])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert float(report["monitor_drift_abs"]["-1"]) < 1e-10
    assert float(report["linear_phase_per_step"]) > 0
    # The j = 2 gauged equation: 11 terms, 29 scheduled multiplies, 9 factors
    # pad 128 to 10 * 64 = 640, which is 5-smooth.
    assert report["evaluator"] == {"terms": 11, "multiplies": 29, "p": 640}


@pytest.mark.parametrize("n_list", ["16,32,64", "16,16,16,16", "16,16,32,64"])
def test_picard_with_fewer_than_four_distinct_frequencies_fails(tmp_path, capsys, n_list):
    out = tmp_path / "out"
    assert main(["picard", "--j", "2", "--N-list", n_list, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "fit failed: need at least 4 distinct" in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_blowup_is_reported_not_raised(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "simulate", "--j", "1", "--grid", "64", "--dt", "0.1", "--t-end", "0.3",
        "--amplitude", "1e200", "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    # The datum's mass already overflows, so the first record reports it.
    assert "non-finite monitor values at t = 0" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("equation,amplitude,message", [
    ("linear", "1e160", "non-finite monitor values at t = 0"),
    ("hierarchy", "1e120", "non-finite values at t = 0.3"),
])
def test_simulate_nonfinite_monitor_or_field_is_a_blowup(tmp_path, capsys, equation,
                                                         amplitude, message):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([
            "simulate", "--j", "1", "--equation", equation, "--grid", "64", "--dt", "0.1",
            "--t-end", "0.3", "--amplitude", amplitude, "--out", str(out),
        ])
    assert code == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_overflowing_linear_factors_are_a_blowup(tmp_path, capsys):
    # xi^(2j) overflows for j = 129 on a 64-point grid; the set-up warns nothing.
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--j", "129", "--equation", "planewave", "--grid", "64",
                     "--dt", "0.001", "--t-end", "0.002", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "non-finite values at t = 0.002" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags,code", [
    (["--width", "1e200"], 0),
    (["--length", "1e300"], 0),
    (["--width", "1e-300"], 1),
    (["--equation", "planewave", "--pw-s", "-400"], 1),
    (["--equation", "planewave", "--pw-a", "1e200"], 1),
])
def test_simulate_extreme_datum_runs_or_is_a_blowup(tmp_path, capsys, flags, code):
    # The datum's arithmetic may overflow; a non-finite datum is a blow-up at
    # t = 0, never a traceback or a warning.
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = main(["simulate", "--j", "1", "--grid", "64", "--dt", "0.001", "--t-end", "0.002",
                    *flags, "--out", str(out)])
    assert got == code
    err = capsys.readouterr().err
    if code:
        assert err.endswith("non-finite values at t = 0\n") and not out.exists()
    else:
        assert err == "" and (out / "final.bin").exists()


def test_norms_verb_reads_snapshot(tmp_path, capsys):
    main([
        "simulate", "--j", "2", "--equation", "linear", "--grid", "64",
        "--dt", "0.001", "--t-end", "0.01", "--out", str(tmp_path),
    ])
    capsys.readouterr()
    code = main([
        "norms", "--input", str(tmp_path / "final.bin"), "--s", "0.5",
        "--r", "2", "--p", "4", "--out", str(tmp_path),
    ])
    assert code == 0
    values = json.loads((tmp_path / "norms.json").read_text())
    assert "fourier_lebesgue(s=0.5,r=2.0)" in values
    assert "modulation(s=0.5,p=4.0)" in values


def test_norms_past_the_float_range_are_inf_without_a_warning(tmp_path, capsys):
    main(["simulate", "--j", "2", "--equation", "linear", "--grid", "64",
          "--dt", "0.001", "--t-end", "0.01", "--out", str(tmp_path)])
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        code = main(["norms", "--input", str(tmp_path / "final.bin"), "--s", "1e300",
                     "--r", "2", "--p", "4", "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    values = json.loads((tmp_path / "norms.json").read_text())
    assert values["fourier_lebesgue(s=1e+300,r=2.0)"] == "inf"
    assert values["modulation(s=1e+300,p=4.0)"] == "inf"


def test_picard_with_a_non_finite_norm_fails_without_a_warning(tmp_path, capsys):
    # <xi>^s overflows to inf, and the packets' N^-s amplitude underflows to 0.
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["picard", "--j", "2", "--s", "1e300", "--N-list", "16,32,64,128",
                     "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "fit failed: non-finite third-iterate norm\n"
    assert not out.exists()


@pytest.mark.parametrize("damage", ["missing", "garbage", "truncated"])
def test_norms_rejects_malformed_snapshot(tmp_path, capsys, damage):
    path = tmp_path / "final.bin"
    if damage == "garbage":
        path.write_bytes(bytes(range(20)))
    elif damage == "truncated":
        main(["simulate", "--j", "2", "--equation", "linear", "--grid", "64",
              "--dt", "0.001", "--t-end", "0.01", "--out", str(tmp_path)])
        path.write_bytes(path.read_bytes()[:-8])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["norms", "--input", str(path), "--r", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"cannot read snapshot {path}: ")
    assert not (tmp_path / "norms.json").exists()


def test_picard_verb(tmp_path):
    code = main(["picard", "--j", "2", "--s", "0.5", "--r", "2",
                 "--N-list", "16,32,64,128", "--out", str(tmp_path)])
    assert code == 0
    fit = json.loads((tmp_path / "picard_fit.json").read_text())
    assert abs(fit["slope"] - fit["predicted"]) < 0.15
    assert (tmp_path / "picard_norms.csv").read_text().startswith("N,norm")


def test_picard_near_r_one_fits(tmp_path):
    # At r = 1.005 the norm's exponent r' is 201: |u_hat|^r' underflows unless rescaled.
    assert main(["picard", "--j", "2", "--r", "1.005", "--out", str(tmp_path)]) == 0
    fit = json.loads((tmp_path / "picard_fit.json").read_text())
    assert all(v > 0 for v in fit["norms"])


def test_export_writes_all_formats(tmp_path):
    assert main(["export", "--n-max", "2", "--j-max", "1", "--format", "text",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "hierarchy_n2.txt").exists()
    assert (tmp_path / "gauged_j1.txt").exists()


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"formt": "latex"}))
    with pytest.raises(SystemExit) as exc:
        main(["derive", "--n", "1", "--config", str(cfg), "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "latex"}))
    out1 = tmp_path / "a"
    assert main(["derive", "--n", "1", "--config", str(cfg), "--out", str(out1)]) == 0
    assert (out1 / "derive_n1.tex").exists()
    out2 = tmp_path / "b"
    assert main(["derive", "--n", "1", "--config", str(cfg), "--format", "text",
                 "--out", str(out2)]) == 0
    assert (out2 / "derive_n1.txt").exists()
    assert not (out2 / "derive_n1.tex").exists()


@pytest.mark.parametrize("flags", [[], ["--j", "1"]])
def test_config_file_supplies_a_required_option(tmp_path, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"j": 1}))
    from_config, from_flag = tmp_path / "a", tmp_path / "b"
    assert main(["gauge", "--config", str(cfg), *flags, "--out", str(from_config)]) == 0
    assert main(["gauge", "--j", "1", "--out", str(from_flag)]) == 0
    assert (from_config / "gauge_j1.json").read_bytes() == (from_flag / "gauge_j1.json").read_bytes()


@pytest.mark.parametrize("verb", ["gauge", "derive"])
def test_required_option_missing_everywhere_is_usage_error(tmp_path, capsys, verb):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "text"}))
    for argv in ([verb, "--config", str(cfg)], [verb]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert ("--j" if verb == "gauge" else "--n") in capsys.readouterr().err
    assert not list(tmp_path.glob(f"{verb}_*"))


@pytest.mark.parametrize("argv,config,message", [
    (["derive", "--n", "1", "--alpha", "garbage"], None, "--alpha"),
    (["derive", "--n", "1", "--alpha", "1/0"], None, "--alpha"),
    (["derive", "--n", "1", "--alpha", "0"], None, "--alpha"),
    (["derive", "--n", "-1"], None, "--n"),
    (["gauge", "--j", "0"], None, "--j"),
    (["simulate", "--j", "2", "--grid", "100"], None, "grid size"),
    (["simulate", "--j", "2", "--config", "cfg.json"], '{"dealias": "none"}', "dealias"),
    (["resonance", "--j", "2", "--count", "0"], None, "--count"),
    (["derive", "--n", "1", "--config", "absent.json"], None, "cannot read config"),
    (["derive", "--n", "1", "--config", "cfg.json"], "{not json", "cannot read config"),
    (["derive", "--n", "1", "--alpha", "-1/2"], None, "expected one argument"),
    (["picard", "--j", "2", "--N-list", "16,a"], None, "--N-list"),
    (["picard", "--j", "2", "--N-list", "16,32,0,64"], None, "--N-list"),
    (["picard", "--j", "2", "--config", "cfg.json"], '{"n_list": [16, 32, 0, 64]}', "--N-list"),
    (["simulate", "--j", "2", "--monitors", "2,x"], None, "--monitors"),
    (["simulate", "--j", "2", "--monitors=-5"], None, "--monitors"),
    (["simulate", "--j", "2", "--config", "cfg.json"], '{"monitors": "mass,-5"}', "--monitors"),
    (["simulate", "--j", "2", "--pw-a", "xyz"], None, "--pw-a"),
    (["simulate", "--j", "2", "--equation", "planewave", "--config", "cfg.json"],
     '{"pw_a": "xyz"}', "--pw-a"),
    (["simulate", "--j", "2", "--equation", "planewave", "--pw-N", "0"], None, "--pw-N"),
    (["simulate", "--j", "2", "--equation", "planewave", "--config", "cfg.json"],
     '{"pw_n": 0}', "--pw-N"),
    (["derive", "--n", "1", "--config", "cfg.json"], '{"format": "pdf"}', "--format"),
    (["simulate", "--j", "1", "--config", "cfg.json"], '{"equation": "foo"}', "--equation"),
    (["check", "--config", "cfg.json"], '{"cubics": "false", "n_max": 1}', "--cubics"),
    (["check", "--config", "cfg.json"], '{"all": 1}', "--all"),
    (["picard", "--j", "2", "--r", "1"], None, "--r"),
    (["picard", "--j", "2", "--r", "0.5"], None, "--r"),
    (["picard", "--j", "2", "--config", "cfg.json"], '{"r": 1}', "--r"),
    (["norms", "--input", "final.bin", "--r", "1"], None, "--r"),
    (["norms", "--input", "final.bin", "--p", "0.5"], None, "--p"),
    (["resonance", "--j", "2", "--count", "5", "--seed", "-1"], None, "--seed"),
    (["picard", "--j", "3", "--s", "1", "--r", "2", "--N-list", "16,32,64,100000000"], None,
     "modes resolve the packet"),
    (["simulate", "--j", "1", "--dt", "nan"], None, "finite dt"),
    (["simulate", "--j", "1", "--t-end", "inf"], None, "finite t_end"),
    (["simulate", "--j", "1", "--width", "0"], None, "--width"),
    (["derive", "--config", "cfg.json"], '{"n": -1}', "--n"),
    (["gauge", "--config", "cfg.json"], '{"j": 0}', "--j"),
    (["resonance", "--j", "2", "--config", "cfg.json"], '{"count": 0}', "--count"),
    (["resonance", "--j", "2", "--config", "cfg.json"], '{"seed": -1}', "--seed"),
    (["derive", "--n", "1", "--config", "cfg.json"], '{"alpha": "0"}', "--alpha"),
    (["norms", "--input", "final.bin", "--config", "cfg.json"], '{"p": 0.5}', "--p"),
    (["simulate", "--j", "1", "--grid", "64", "--carrier", "1000"], None, "--carrier"),
    (["simulate", "--j", "1", "--grid", "64", "--carrier", "-32"], None, "--carrier"),
    (["simulate", "--j", "1", "--config", "cfg.json"], '{"carrier": 128}', "--carrier"),
    (["picard", "--j", "2", "--s", "nan"], None, "--s"),
    (["picard", "--j", "2", "--config", "cfg.json"], '{"s": NaN}', "--s"),
    (["norms", "--input", "final.bin", "--s", "inf"], None, "--s"),
    (["simulate", "--j", "1", "--amplitude", "inf"], None, "--amplitude"),
    (["simulate", "--j", "1", "--amplitude", "nan"], None, "--amplitude"),
    (["simulate", "--j", "2", "--equation", "planewave", "--pw-s", "-inf"], None, "--pw-s"),
    (["simulate", "--j", "2", "--equation", "planewave", "--pw-N", "100", "--grid", "64"], None,
     "--pw-N"),
    (["simulate", "--j", "2", "--equation", "planewave", "--pw-N", "32", "--grid", "64"], None,
     "--pw-N"),
    (["simulate", "--j", "2", "--equation", "planewave", "--length", "3"], None, "--pw-N"),
    (["check", "--cancellation", "--j-max", "-1"], None, "--j-max"),
    (["check", "--structure", "--n-max", "-1"], None, "--n-max"),
    (["check", "--config", "cfg.json"], '{"cubics": true, "n_max": -1}', "--n-max"),
    (["export", "--n-max", "-1", "--j-max", "1"], None, "--n-max"),
    (["export", "--n-max", "1", "--j-max", "-1"], None, "--j-max"),
    (["derive", "--n", "1", "--config", "cfg.json"], "[1, 2]", "is not a JSON object"),
    (["simulate", "--j", "2", "--monitor-stride", "0"], None, "monitor_stride must be >= 1"),
    (["simulate", "--j", "1", "--dt", "1e-320", "--t-end", "0.1"], None, "float range"),
    (["simulate", "--j", "1", "--dt", "1e-300", "--t-end", "1e10"], None, "float range"),
    (["derive", "--n", "600"], None, "packed-key limit"),
    (["gauge", "--j", "300"], None, "packed-key limit"),
    (["simulate", "--j", "300", "--grid", "16", "--dt", "0.001", "--t-end", "0.002"], None,
     "packed-key limit"),
    (["simulate", "--j", "1", "--grid", "16", "--dt", "0.001", "--t-end", "0.002",
      "--monitors", "1000"], None, "packed-key limit"),
    # A check that runs no row would pass having checked nothing.
    (["check", "--structure", "--n-max", "0"], None, "--n-max"),
    (["check", "--cubics", "--n-max", "0"], None, "--n-max"),
    (["check", "--cancellation", "--j-max", "0"], None, "--j-max"),
])
def test_usage_errors_exit_2_with_a_message(tmp_path, capsys, argv, config, message):
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
    argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_check_config_selects_suites(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cubics": True, "n_max": 3}))
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    items = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith(("PASS", "FAIL"))]
    assert items == [f"PASS bad-cubic closed form, n={n}" for n in (1, 2, 3)]


def _strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity, which RFC 8259 lacks."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv,code,non_finite", [
    (["resonance", "--j", "5000", "--count", "5"], 1,
     {"resonance.json": {"min_ratio": "nan", "median_ratio": "nan"}}),
    (["resonance", "--j", "1000", "--count", "1", "--seed", "1"], 1,
     {"resonance.json": {"count_kept": 0, "min_ratio": "nan", "median_ratio": "nan"}}),
    (["picard", "--j", "2", "--r", "inf"], 0, {"config": {"r": "inf"}, "picard_fit.json": {"r": "inf"}}),
    (["norms", "--input", "final.bin", "--r", "inf", "--p", "inf"], 0,
     {"config": {"r": "inf", "p": "inf"}}),
], ids=["resonance-nan", "resonance-none-kept", "picard-r-inf", "norms-r-p-inf"])
def test_every_json_written_is_strict(tmp_path, capsys, argv, code, non_finite):
    # A non-finite float is written as its repr string, as norms.json writes every norm.
    if argv[0] == "norms":
        main(["simulate", "--j", "2", "--equation", "linear", "--grid", "64",
              "--dt", "0.001", "--t-end", "0.01", "--out", str(tmp_path)])
        argv = [str(tmp_path / a) if a == "final.bin" else a for a in argv]
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == code
    payloads = {"config": _strict_json(capsys.readouterr().out.splitlines()[0])["config"]}
    payloads.update((p.name, _strict_json(p.read_text())) for p in out.glob("*.json"))
    for name, values in non_finite.items():
        assert {k: payloads[name][k] for k in values} == values


def test_finite_values_keep_their_json_bytes(tmp_path):
    assert main(["picard", "--j", "2", "--N-list", "16,32,64,128", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "picard_fit.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["derive", "--n", "3", "--alpha", "8"],
    ["gauge", "--j", "2", "--format", "latex"],
    ["export", "--n-max", "2", "--j-max", "1", "--format", "json"],
    ["simulate", "--j", "2", "--equation", "planewave", "--grid", "64", "--dt", "0.001",
     "--t-end", "0.01", "--monitors", "mass,2", "--monitor-stride", "5"],
    ["picard", "--j", "2", "--N-list", "16,32,64,128"],
    ["resonance", "--j", "2", "--count", "20000", "--seed", "9"],
    ["norms", "--input", "final.bin", "--s", "0.5", "--r", "2", "--p", "4"],
    ["picard", "--j", "2", "--r", "inf", "--N-list", "16,32,64,128"],
    ["norms", "--input", "final.bin", "--r", "inf", "--p", "inf"],
    ["derive", "--n", "3"],
    ["check", "--cubics", "--n-max", "2"],
])
def test_echoed_config_reproduces_the_run(tmp_path, capsys, argv):
    if argv[0] == "norms":
        main(["simulate", "--j", "2", "--equation", "linear", "--grid", "64",
              "--dt", "0.001", "--t-end", "0.01", "--out", str(tmp_path)])
        argv = [str(tmp_path / a) if a == "final.bin" else a for a in argv]
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    echo = json.loads(capsys.readouterr().out.splitlines()[0])["config"]
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    shutil.rmtree(out)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({k: v for k, v in echo.items() if k != "verb"}))
    assert main([argv[0], "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[0])["config"] == echo
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


@pytest.mark.parametrize("argv_tail", [
    ["resonance", "--j", "2", "--count", "20000", "--seed", "9"],
    ["derive", "--n", "4"],
])
def test_artifacts_are_byte_deterministic(tmp_path, argv_tail):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(argv_tail + ["--out", str(out_a)]) == 0
    assert main(argv_tail + ["--out", str(out_b)]) == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
