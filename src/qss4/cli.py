"""Command-line front end: histogram, correlation-scan, qss-run, bell-test.

Configuration is a flat key=value text file (``#`` starts a comment);
every CLI flag overrides its config key. Angles must carry an explicit
unit suffix ('deg' or 'rad') and are stored internally in radians. All
outputs are plain CSV/text files written under --out-dir; identical seed
and configuration reproduce them byte for byte.

Exit codes: 0 completed with a proceed verdict, 2 configuration error,
3 abort verdict, 4 insufficient statistics or failed convergence.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .adversary import AttackConfig
from .channel import MSG_CIPHERTEXT, PARTIES, ProtocolMessage
from .postproc import (
    KeyMaterial,
    PipelineResult,
    ReconciliationError,
    VernamPad,
    bits_to_hex,
    format_pipeline_report,
    run_key_pipeline,
    write_key_file,
)
from .protocol import (
    KEYING_PHASES,
    BELL_PHASES,
    InsufficientStatisticsError,
    Mode,
    ProtocolError,
    SessionResult,
    Thresholds,
    check_dealer,
    format_key_transcript,
    format_session_report,
    implied_qber,
    run_protocol,
)
from .quantum import (
    BellSetting,
    NoiseModel,
    PARITY_SIGN,
    PATTERNS,
    bell_S,
    correlation_analytic,
    correlation_from_distribution,
    make_psi4_minus,
    outcome_distribution,
)
from .source import SessionStreams, SourceConfig, write_records

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_INSUFFICIENT = 4


class ConfigError(Exception):
    pass


def parse_angle(text: str) -> float:
    """Angle with a mandatory unit suffix: '45deg' or '0.785rad'."""
    value = str(text).strip().lower()
    if value.endswith("deg"):
        return math.radians(float(value[:-3]))
    if value.endswith("rad"):
        return float(value[:-3])
    raise ConfigError(f"angle {text!r} needs a 'deg' or 'rad' suffix")


def parse_bool(text: str) -> bool:
    value = str(text).strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean {text!r}")


def _parse_optional_int(text: str) -> int | None:
    value = str(text).strip()
    return None if value in ("", "none") else int(value)


@dataclass
class ExperimentConfig:
    seed: int = 0
    mode: str = "qber"
    visibility: float = 1.0
    rate: float = 0.4
    window_seconds: float = 1.0
    first_event_only: bool = True
    detector_efficiency: float = 1.0
    windows: int | None = None
    target_bits: int | None = None
    sample_fraction: float = 0.10
    qber_threshold: float = 0.11
    bell_margin: float = 2.0
    attack_modes: str = ""
    attack_fraction: float = 1.0
    eve_bases: str = ""
    epsilon_exponent: int = 40
    dealer: str = "Alice"
    out_dir: str = "."
    samples: int = 100000
    phi_a: float = 0.0
    phi_b: float = 0.0
    phi_c: float = 0.0
    phi_d: float = 0.0
    scan_fixed: float = 0.0
    scan_start: float = 0.0
    scan_stop: float = 4 * math.pi
    scan_step: float = math.pi / 8
    message: str = "QSS demo"
    analytic: bool = False
    dump_records: str = ""


#: Config keys read as angles with a unit suffix (see :func:`parse_angle`).
_ANGLE_KEYS = frozenset(
    {"phi_a", "phi_b", "phi_c", "phi_d", "scan_fixed", "scan_start", "scan_stop", "scan_step"}
)
#: Parser of each annotation of an ExperimentConfig field.
_TYPE_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": parse_bool,
    "int | None": _parse_optional_int,
}
_KEY_PARSERS = {
    f.name: parse_angle if f.name in _ANGLE_KEYS else _TYPE_PARSERS[f.type]
    for f in fields(ExperimentConfig)
}


def load_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _KEY_PARSERS[key](value.strip())
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _parse_attack_flag(text: str) -> dict:
    """'b', 'bc', or 'b:0.5' -> attack_modes / attack_fraction overrides."""
    value = text.strip().lower()
    if value in ("", "off", "none"):
        return {"attack_modes": ""}
    modes, _, frac = value.partition(":")
    if any(ch not in "abcd" for ch in modes) or not modes:
        raise ConfigError(f"bad attack argument {text!r}: modes must be drawn from abcd")
    out = {"attack_modes": modes}
    if frac:
        out["attack_fraction"] = float(frac)
    return out


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if getattr(args, "config", None):
        cfg = replace(cfg, **load_config_file(args.config))
    overrides = {}
    for f in fields(ExperimentConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            overrides[f.name] = flag
    attack_flag = getattr(args, "attack", None)
    if attack_flag is not None:
        overrides.update(_parse_attack_flag(attack_flag))
    cfg = replace(cfg, **overrides)
    if cfg.mode not in ("qber", "bell"):
        raise ConfigError(f"mode must be qber or bell, got {cfg.mode!r}")
    for name in ("windows", "target_bits", "samples", "epsilon_exponent"):
        value = getattr(cfg, name)
        if value is not None and value < 0:
            raise ConfigError(f"{name} must be >= 0, got {value}")
    if cfg.windows is not None and cfg.target_bits is not None:
        raise ConfigError("give only one of windows / target_bits")
    # build each config object once to validate it: main maps only ConfigError
    # to exit 2, so a ValueError raised later is reported as the fault it is
    try:
        mode = Mode(cfg.mode)
        _source_from_config(cfg)
        _attack_from_config(cfg, mode)
        _thresholds_from_config(cfg)
        NoiseModel(visibility=cfg.visibility)
        check_dealer(cfg.dealer)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _keying_phases(mode: Mode) -> tuple[float, float]:
    return KEYING_PHASES if mode is Mode.QBER else BELL_PHASES


def _attack_from_config(cfg: ExperimentConfig, mode: Mode) -> AttackConfig | None:
    if not cfg.attack_modes:
        return None
    if cfg.eve_bases:
        bases = tuple(parse_angle(part) for part in cfg.eve_bases.split(","))
    else:
        bases = _keying_phases(mode)
    return AttackConfig(
        attacked_modes=tuple(cfg.attack_modes),
        eve_bases=bases,
        attack_fraction=cfg.attack_fraction,
    )


def _source_from_config(cfg: ExperimentConfig) -> SourceConfig:
    return SourceConfig(
        four_photon_rate=cfg.rate,
        window_seconds=cfg.window_seconds,
        first_event_only=cfg.first_event_only,
        detector_efficiency=cfg.detector_efficiency,
    )


def _thresholds_from_config(cfg: ExperimentConfig) -> Thresholds:
    return Thresholds(
        qber_abort_above=cfg.qber_threshold,
        bell_margin_sigmas=cfg.bell_margin,
        sample_fraction=cfg.sample_fraction,
    )


def _run_protocol(cfg: ExperimentConfig, mode: Mode, n_windows: int | None,
                  target_sifted_bits: int | None) -> SessionResult:
    """One ``run_protocol`` session with the physics and thresholds of ``cfg``."""
    return run_protocol(
        mode=mode,
        visibility=cfg.visibility,
        dealer=cfg.dealer,
        source_config=_source_from_config(cfg),
        attack=_attack_from_config(cfg, mode),
        n_windows=n_windows,
        target_sifted_bits=target_sifted_bits,
        thresholds=_thresholds_from_config(cfg),
        seed=cfg.seed,
    )


def _out_dir(cfg: ExperimentConfig) -> Path:
    path = Path(cfg.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _fmt(value: float) -> str:
    return format(value, ".12g")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_histogram(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    phis = (cfg.phi_a, cfg.phi_b, cfg.phi_c, cfg.phi_d)
    dist = outcome_distribution(
        make_psi4_minus(), phis, NoiseModel(visibility=cfg.visibility)
    )
    n = cfg.samples
    rng = np.random.default_rng(cfg.seed)
    counts = rng.multinomial(n, dist.probs) if n > 0 else np.zeros(16, dtype=np.int64)
    e_analytic = correlation_from_distribution(dist)
    lines = ["pattern,parity,p_analytic,count,p_sampled"]
    for i, name in enumerate(PATTERNS):
        p_sampled = counts[i] / n if n > 0 else 0.0
        lines.append(
            f"{name},{int(PARITY_SIGN[i] < 0)},{_fmt(dist.probs[i])},{counts[i]},{_fmt(p_sampled)}"
        )
    (out / "histogram.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    report = [
        "[histogram]",
        f"phi_a={_fmt(phis[0])}",
        f"phi_b={_fmt(phis[1])}",
        f"phi_c={_fmt(phis[2])}",
        f"phi_d={_fmt(phis[3])}",
        f"visibility={_fmt(cfg.visibility)}",
        f"samples={n}",
        f"E_analytic={_fmt(e_analytic)}",
    ]
    if n > 0:
        e_sampled = float(np.dot(counts, PARITY_SIGN) / n)
        stderr = math.sqrt(max(1.0 - e_sampled**2, 1.0 / n) / n)
        report += [f"E_sampled={_fmt(e_sampled)}", f"E_stderr={_fmt(stderr)}"]
    else:
        report += ["E_sampled=n/a", "E_stderr=n/a"]
    (out / "histogram_report.txt").write_text("\n".join(report) + "\n", encoding="utf-8")
    print(f"wrote {out / 'histogram.csv'} (E_analytic={e_analytic:.4f})")
    return EXIT_OK


def fit_visibility(
    analytic: np.ndarray, sampled: np.ndarray, n_per_point: int
) -> tuple[float, float]:
    """Least-squares amplitude of sampled vs the unit-visibility curve.

    Two stages: an unweighted fit pins the amplitude, then a refit with
    model-based binomial weights (decoupled from per-point sampling noise,
    which would otherwise bias the weighted estimate).
    """
    denom0 = float(np.sum(analytic**2))
    if denom0 <= 0.0:
        raise ValueError("degenerate scan: analytic curve is identically zero")
    v0 = float(np.sum(analytic * sampled) / denom0)
    var = np.maximum(1.0 - np.clip(v0 * analytic, -1.0, 1.0) ** 2, 1.0 / n_per_point)
    var = var / n_per_point
    weights = 1.0 / var
    denom = float(np.sum(weights * analytic**2))
    v_hat = float(np.sum(weights * analytic * sampled) / denom)
    return v_hat, math.sqrt(1.0 / denom)


def cmd_correlation_scan(cfg: ExperimentConfig) -> int:
    if cfg.scan_step <= 0:
        raise ConfigError("scan_step must be positive")
    if cfg.scan_stop < cfg.scan_start:
        raise ConfigError("scan_stop must not lie below scan_start")
    if cfg.samples < 1:
        raise ConfigError("correlation-scan needs samples >= 1")
    out = _out_dir(cfg)
    rng = np.random.default_rng(cfg.seed)
    state = make_psi4_minus()
    noise = NoiseModel(visibility=cfg.visibility)
    sweep = np.arange(cfg.scan_start, cfg.scan_stop + cfg.scan_step / 2, cfg.scan_step)
    fixed = cfg.scan_fixed
    pure = np.array([correlation_analytic(fixed, phi_b, fixed, fixed) for phi_b in sweep])
    scaled = cfg.visibility * pure
    sampled = np.zeros_like(pure)
    stderr = np.zeros_like(pure)
    n = cfg.samples
    for i, phi_b in enumerate(sweep):
        dist = outcome_distribution(state, (fixed, phi_b, fixed, fixed), noise)
        counts = rng.multinomial(n, dist.probs)
        sampled[i] = float(np.dot(counts, PARITY_SIGN) / n)
        stderr[i] = math.sqrt(max(1.0 - sampled[i] ** 2, 1.0 / n) / n)
    v_hat, v_sigma = fit_visibility(pure, sampled, n)

    lines = ["phi_b,E_analytic,E_sampled,stderr"]
    for i, phi_b in enumerate(sweep):
        lines.append(f"{_fmt(phi_b)},{_fmt(scaled[i])},{_fmt(sampled[i])},{_fmt(stderr[i])}")
    (out / "correlation_scan.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    report = [
        "[correlation_scan]",
        f"phi_fixed={_fmt(fixed)}",
        f"visibility_injected={_fmt(cfg.visibility)}",
        f"samples_per_point={n}",
        f"points={len(sweep)}",
        f"visibility_fit={_fmt(v_hat)}",
        f"visibility_fit_sigma={_fmt(v_sigma)}",
    ]
    (out / "correlation_fit.txt").write_text("\n".join(report) + "\n", encoding="utf-8")
    print(f"fitted visibility {v_hat:.4f} +/- {v_sigma:.4f} (injected {cfg.visibility})")
    return EXIT_OK


def _vernam_demo(result, pipeline: PipelineResult, cfg: ExperimentConfig, out: Path) -> list[str]:
    """Encrypt a demo message with the dealer's final key; access set decrypts."""
    lines = ["[vernam]"]
    if pipeline.final_length == 0:
        lines.append("status=skipped (no final key)")
        return lines
    message_bits = np.unpackbits(np.frombuffer(cfg.message.encode("utf-8"), dtype=np.uint8))
    usable = min(len(message_bits), pipeline.final_length)
    message_bits = message_bits[:usable]
    dealer_pad = VernamPad(pipeline.dealer_material.bits)
    cipher = dealer_pad.encrypt(message_bits)
    result.channel.broadcast(
        ProtocolMessage(
            MSG_CIPHERTEXT,
            sender=result.dealer,
            payload={"bits_hex": bits_to_hex(cipher), "length": int(len(cipher))},
        )
    )
    access_pad = VernamPad(pipeline.access_material.bits)
    decrypted = access_pad.decrypt(cipher)
    ok = bool(np.array_equal(decrypted, message_bits))
    write_key_file(
        out / "ciphertext.hex",
        KeyMaterial(stage="final", bits=cipher, leaked_bits=pipeline.reconcile_result.leaked_bits),
    )
    lines += [
        f"message_bits={usable}",
        f"roundtrip={'ok' if ok else 'FAILED'}",
    ]
    return lines


def cmd_qss_run(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    mode = Mode(cfg.mode)
    target = 2000 if cfg.windows is None and cfg.target_bits is None else cfg.target_bits
    result = _run_protocol(cfg, mode, cfg.windows, target)
    if cfg.dump_records:
        write_records(result.records, cfg.dump_records)

    report = format_session_report(result)
    if result.aborted:
        (out / "session_report.txt").write_text(report, encoding="utf-8")
        result.channel.dump_transcript(out / "wire_transcript.bin")
        print("session aborted: check failed "
              f"({result.check_report.kind}={result.check_report.estimate:.4f})")
        return EXIT_ABORT

    key = result.sifted_key
    pipeline = run_key_pipeline(
        key.bits[result.dealer],
        key.access_xor(result.dealer),
        qber_estimate=implied_qber(result.check_report),
        channel=result.channel,
        rng=SessionStreams.from_seed(cfg.seed).postproc,
        dealer=result.dealer,
        speaker=[p for p in PARTIES if p != result.dealer][0],
        epsilon_exponent=cfg.epsilon_exponent,
    )
    vernam_lines = _vernam_demo(result, pipeline, cfg, out)

    (out / "session_report.txt").write_text(
        report + format_pipeline_report(pipeline) + "\n".join(vernam_lines) + "\n",
        encoding="utf-8",
    )
    (out / "key_transcript.txt").write_text(
        format_key_transcript(key, dealer=result.dealer), encoding="utf-8"
    )
    write_key_file(out / "dealer_key.hex", pipeline.dealer_material)
    write_key_file(out / "access_key.hex", pipeline.access_material)
    result.channel.dump_transcript(out / "wire_transcript.bin")
    label = "QBER" if result.check_report.kind == "qber" else "S"
    print(
        f"session complete: {result.counts.key_after_check} sifted bits, "
        f"{pipeline.final_length} final bits, "
        f"{label} estimate {result.check_report.estimate:.4f}"
    )
    return EXIT_OK


def cmd_bell_test(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    setting = BellSetting.maximal_violation()
    s_max = bell_S(setting, correlation_analytic)
    prediction = cfg.visibility * s_max
    if cfg.analytic:
        report = [
            "[bell_test]",
            "mode=analytic",
            f"visibility={_fmt(cfg.visibility)}",
            f"S={_fmt(prediction)}",
            "stderr=0",
            "classical_bound=1",
            f"prediction={_fmt(prediction)}",
        ]
        (out / "bell_report.txt").write_text("\n".join(report) + "\n", encoding="utf-8")
        print(f"analytic Bell value S={prediction:.4f} (bound 1)")
        return EXIT_OK

    if cfg.windows is None and cfg.target_bits is None:
        raise ConfigError("bell-test needs windows or target_bits (or analytic=true)")
    result = _run_protocol(cfg, Mode.BELL, cfg.windows, cfg.target_bits)
    rep = result.check_report
    report = [
        "[bell_test]",
        "mode=sampled",
        f"visibility={_fmt(cfg.visibility)}",
        f"bell_pool={result.counts.bell_pool}",
        f"S={_fmt(rep.estimate)}",
        f"stderr={_fmt(rep.stderr)}",
        "classical_bound=1",
        f"threshold={_fmt(rep.threshold)}",
        f"prediction={_fmt(prediction)}",
        f"verdict={rep.verdict}",
    ]
    (out / "bell_report.txt").write_text("\n".join(report) + "\n", encoding="utf-8")
    print(f"S = {rep.estimate:.4f} +/- {rep.stderr:.4f} (prediction {prediction:.4f})")
    return EXIT_ABORT if result.aborted else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qss4",
        description="Four-party quantum secret sharing simulator",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--seed", type=int)
    common.add_argument("--mode", choices=("qber", "bell"))
    common.add_argument("--visibility", type=float)
    common.add_argument("--windows", type=int)
    common.add_argument("--target-bits", dest="target_bits", type=int)
    common.add_argument("--attack", help="attacked modes, e.g. 'b' or 'bc:0.5'")
    common.add_argument("--out-dir", dest="out_dir")
    common.add_argument("--rate", type=float)
    common.add_argument("--detector-efficiency", dest="detector_efficiency", type=float)
    common.add_argument("--samples", type=int)
    common.add_argument("--dealer", help="dealing party: Alice, Bob, Claire or David")

    sub = parser.add_subparsers(dest="command", required=True)

    p_hist = sub.add_parser("histogram", parents=[common], help="16-bin outcome table")
    for name in ("phi-a", "phi-b", "phi-c", "phi-d"):
        p_hist.add_argument(f"--{name}", dest=name.replace("-", "_"), type=parse_angle)
    p_hist.set_defaults(func=cmd_histogram)

    p_scan = sub.add_parser(
        "correlation-scan", parents=[common], help="sweep one analyzer and fit visibility"
    )
    p_scan.add_argument("--scan-fixed", dest="scan_fixed", type=parse_angle)
    p_scan.add_argument("--scan-start", dest="scan_start", type=parse_angle)
    p_scan.add_argument("--scan-stop", dest="scan_stop", type=parse_angle)
    p_scan.add_argument("--scan-step", dest="scan_step", type=parse_angle)
    p_scan.set_defaults(func=cmd_correlation_scan)

    p_run = sub.add_parser("qss-run", parents=[common], help="full protocol session")
    p_run.add_argument("--sample-fraction", dest="sample_fraction", type=float)
    p_run.add_argument("--qber-threshold", dest="qber_threshold", type=float)
    p_run.add_argument("--bell-margin", dest="bell_margin", type=float)
    p_run.add_argument("--epsilon", dest="epsilon_exponent", type=int)
    p_run.add_argument("--message")
    p_run.add_argument("--count-all-events", dest="first_event_only", action="store_false")
    p_run.add_argument("--dump-records", dest="dump_records")
    p_run.set_defaults(func=cmd_qss_run, first_event_only=None)

    p_bell = sub.add_parser("bell-test", parents=[common], help="Bell-mode session report")
    p_bell.add_argument("--bell-margin", dest="bell_margin", type=float)
    p_bell.add_argument("--analytic", action="store_true", default=None)
    p_bell.set_defaults(func=cmd_bell_test)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        return args.func(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InsufficientStatisticsError, ReconciliationError) as exc:
        print(f"insufficient statistics: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
