import math

import numpy as np
import pytest

import qss4.cli
from qss4.cli import (
    EXIT_ABORT,
    EXIT_CONFIG,
    ConfigError,
    ExperimentConfig,
    _parse_attack_flag,
    build_config,
    build_parser,
    fit_visibility,
    load_config_file,
    main,
    parse_angle,
    parse_bool,
)


def test_parse_angle():
    assert parse_angle("45deg") == pytest.approx(math.pi / 4)
    assert parse_angle("1.5rad") == 1.5
    assert parse_angle("-90deg") == pytest.approx(-math.pi / 2)
    with pytest.raises(ConfigError):
        parse_angle("0.5")
    with pytest.raises(ConfigError):
        parse_angle("fast")


def test_parse_bool():
    assert parse_bool("yes") and parse_bool("1") and parse_bool("true")
    assert not parse_bool("off")
    with pytest.raises(ConfigError):
        parse_bool("maybe")


def test_attack_flag_parsing():
    assert _parse_attack_flag("b") == {"attack_modes": "b"}
    assert _parse_attack_flag("bc:0.5") == {"attack_modes": "bc", "attack_fraction": 0.5}
    assert _parse_attack_flag("off") == {"attack_modes": ""}
    with pytest.raises(ConfigError):
        _parse_attack_flag("xyz")


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "seed = 9\n"
        "visibility = 0.9\n"
        "phi_b = 90deg\n"
        "first_event_only = false\n"
        "dealer = Claire\n"
        "target_bits = none\n"
    )
    values = load_config_file(path)
    assert values["seed"] == 9
    assert values["phi_b"] == pytest.approx(math.pi / 2)
    assert values["first_event_only"] is False
    assert values["dealer"] == "Claire"
    assert values["target_bits"] is None

    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config_file(bad)


def test_flag_overrides_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 9\nvisibility = 0.9\n")
    parser = build_parser()
    args = parser.parse_args(
        ["histogram", "--config", str(path), "--seed", "4", "--out-dir", str(tmp_path)]
    )
    cfg = build_config(args)
    assert cfg.seed == 4  # flag wins
    assert cfg.visibility == 0.9  # file wins over default


def test_histogram_outputs(tmp_path):
    code = main(
        ["histogram", "--seed", "1", "--samples", "20000", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    csv = (tmp_path / "histogram.csv").read_text().splitlines()
    assert csv[0] == "pattern,parity,p_analytic,count,p_sampled"
    rows = {line.split(",")[0]: line.split(",") for line in csv[1:]}
    assert float(rows["HHVV"][2]) == pytest.approx(1 / 3, abs=1e-9)
    assert float(rows["HHHH"][2]) == 0.0
    report = (tmp_path / "histogram_report.txt").read_text()
    assert "E_analytic=1" in report


def test_histogram_analytic_only(tmp_path):
    code = main(["histogram", "--samples", "0", "--out-dir", str(tmp_path)])
    assert code == 0
    assert "E_sampled=n/a" in (tmp_path / "histogram_report.txt").read_text()


def test_correlation_scan_recovers_visibility(tmp_path):
    code = main(
        [
            "correlation-scan",
            "--seed", "3",
            "--visibility", "0.9",
            "--samples", "3000",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    fit = dict(
        line.split("=", 1)
        for line in (tmp_path / "correlation_fit.txt").read_text().splitlines()
        if "=" in line
    )
    v_hat = float(fit["visibility_fit"])
    sigma = float(fit["visibility_fit_sigma"])
    assert abs(v_hat - 0.9) < 3 * sigma
    header = (tmp_path / "correlation_scan.csv").read_text().splitlines()[0]
    assert header == "phi_b,E_analytic,E_sampled,stderr"


def test_fit_visibility_degenerate():
    with pytest.raises(ValueError):
        fit_visibility(np.zeros(5), np.zeros(5), 100)


def test_qss_run_session(tmp_path):
    code = main(
        [
            "qss-run",
            "--seed", "5",
            "--target-bits", "400",
            "--rate", "3.0",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    report = (tmp_path / "session_report.txt").read_text()
    assert "verdict=proceed" in report
    assert "roundtrip=ok" in report
    assert (tmp_path / "key_transcript.txt").exists()
    assert (tmp_path / "dealer_key.hex").exists()
    assert (tmp_path / "access_key.hex").exists()
    assert (tmp_path / "ciphertext.hex").exists()
    assert (tmp_path / "wire_transcript.bin").exists()
    dealer = (tmp_path / "dealer_key.hex").read_text().splitlines()[1]
    access = (tmp_path / "access_key.hex").read_text().splitlines()[1]
    assert dealer == access


def test_qss_run_abort_exit_code(tmp_path):
    code = main(
        [
            "qss-run",
            "--seed", "6",
            "--target-bits", "300",
            "--rate", "3.0",
            "--attack", "b",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_ABORT
    assert "verdict=abort" in (tmp_path / "session_report.txt").read_text()


def test_qss_run_records_dump(tmp_path):
    records_path = tmp_path / "session.records"
    code = main(
        [
            "qss-run",
            "--seed", "8",
            "--windows", "2000",
            "--rate", "3.0",
            "--out-dir", str(tmp_path),
            "--dump-records", str(records_path),
        ]
    )
    assert code == 0
    from qss4.source import read_records

    records = read_records(records_path)
    assert len(records) == 2000


def test_bell_test_analytic(tmp_path):
    code = main(["bell-test", "--analytic", "--out-dir", str(tmp_path)])
    assert code == 0
    report = (tmp_path / "bell_report.txt").read_text()
    value = float(dict(l.split("=", 1) for l in report.splitlines() if "=" in l)["S"])
    assert value == pytest.approx(1.8856, abs=1e-3)


def test_bell_test_sampled(tmp_path):
    code = main(
        [
            "bell-test",
            "--seed", "9",
            "--windows", "12000",
            "--rate", "3.0",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    report = dict(
        l.split("=", 1)
        for l in (tmp_path / "bell_report.txt").read_text().splitlines()
        if "=" in l
    )
    assert float(report["S"]) > 1.5
    assert report["verdict"] == "proceed"


def test_config_errors_exit_code(tmp_path):
    assert main(["qss-run", "--mode", "qber", "--windows", "10", "--target-bits", "10",
                 "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert main(["bell-test", "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode = sideways\n")
    assert main(["qss-run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    for flag, value in (("--visibility", "1.5"), ("--rate", "-1"), ("--dealer", "Zed"),
                        ("--epsilon", "-3")):
        assert main(["qss-run", flag, value, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert main(["correlation-scan", "--scan-start", "90deg", "--scan-stop", "0deg",
                 "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert main(["correlation-scan", "--samples", "0", "--out-dir", str(tmp_path)]) == EXIT_CONFIG


def test_internal_value_error_is_not_a_config_error(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(qss4.cli, "run_key_pipeline", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["qss-run", "--seed", "5", "--target-bits", "400", "--rate", "3.0",
              "--out-dir", str(tmp_path)])
    assert "config error" not in capsys.readouterr().err


def test_experiment_config_defaults():
    cfg = ExperimentConfig()
    assert cfg.mode == "qber"
    assert cfg.scan_stop == pytest.approx(4 * math.pi)


def test_qss_run_bell_mode(tmp_path):
    code = main(
        [
            "qss-run",
            "--mode", "bell",
            "--seed", "14",
            "--windows", "30000",
            "--rate", "3.0",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    report = (tmp_path / "session_report.txt").read_text()
    assert "kind=bell" in report
    assert "verdict=proceed" in report
    assert "roundtrip=ok" in report


def test_bell_test_insufficient_coverage_exit_code(tmp_path):
    # far too few windows to populate all 16 setting combinations
    code = main(
        [
            "bell-test",
            "--seed", "4",
            "--windows", "40",
            "--rate", "3.0",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 4
