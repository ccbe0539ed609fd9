"""Seedable simulator and protocol engine for four-party quantum secret sharing."""

from .adversary import AttackConfig, expected_qber_under_attack
from .channel import Channel, ProtocolMessage, audit_outcome_hygiene, decode_wire, encode_wire
from .postproc import (
    KeyMaterial,
    ReconcileConfig,
    ToeplitzSeed,
    VernamPad,
    final_key_length,
    privacy_amplify,
    reconcile,
    run_key_pipeline,
)
from .protocol import (
    CheckReport,
    Mode,
    SiftedKey,
    Thresholds,
    bell_check,
    check_dealer,
    estimate_qber,
    party_schedules,
    reconstruct_dealer_bit,
    replay_protocol,
    run_protocol,
    semi_access_predictor,
    sift,
)
from .quantum import (
    BellSetting,
    NoiseModel,
    OutcomeDistribution,
    PureState,
    analyzer_eigenstate,
    bell_S,
    collapse_after_single_mode_measurement,
    correlation_analytic,
    correlation_from_distribution,
    make_psi4_minus,
    outcome_distribution,
    qber_from_visibility,
)
from .source import SessionData, SessionStreams, SourceConfig, run_session

__version__ = "0.1.0"
