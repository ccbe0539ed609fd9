"""Classical post-processing: reconciliation, privacy amplification, one-time pad.

Reconciliation runs between the dealer and the access set treated as one
logical party (the three non-dealers first combine their strings by XOR).
It is an iterative block-parity scheme: a first pass over blocks of
ceil(0.73 / QBER) bits, a second pass over doubled, permuted blocks, and
binary search on every mismatched block, with corrections cascading back
into earlier passes. Only the dealer ever transmits parity bits; the
access side sends range requests and acknowledgements, so the leakage
count is exactly the number of dealer parity bits on the channel. Each
round ends with a randomized parity verification; on mismatch further
doubled passes run until the configured budget is exhausted.

Privacy amplification is Toeplitz hashing over GF(2). The matrix for a
seed s of length n_in + n_out - 1 is T[i, j] = s[n_in - 1 + i - j], so the
product T @ key is a slice of the integer convolution of seed and key,
reduced mod 2. That convolution is computed with a real FFT in
O(n log n) and rounded back to integers; a residual check guards the
rounding.

The secure-length formula is an artifact convention (reported with every
key file): final = max(0, floor(n * (1 - 2*h2(qber))) - leaked_bits -
epsilon_exponent), budgeting the error-correction shortfall and the
eavesdropper's information with the harsher factor-two convention.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    MSG_HASH_SEED,
    MSG_PARITY,
    Channel,
    ProtocolMessage,
)

STAGES = ("sifted", "reconciled", "final")

FORMULA_ID = "2h2-leak-eps"
FORMULA_TEXT = "max(0, floor(n*(1 - 2*h2(qber))) - leaked_bits - epsilon_exponent)"
_KEY_FILE_FIELDS = frozenset({"stage", "length", "leaked", "formula"})


class ReconciliationError(RuntimeError):
    """Reconciliation failed to converge within the pass budget."""


class KeyReuseError(RuntimeError):
    """An attempt was made to reuse (or overrun) one-time-pad key bits."""


def _as_bits(bits, name: str = "bits") -> np.ndarray:
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError(f"{name} must contain only 0/1 values")
    return arr


@dataclass(frozen=True)
class KeyMaterial:
    """A key at one pipeline stage, with accumulated leakage."""

    stage: str
    bits: np.ndarray
    leaked_bits: int = 0

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.leaked_bits < 0:
            raise ValueError("leaked_bits must be >= 0")
        object.__setattr__(self, "bits", _as_bits(self.bits))

    def advanced(self, stage: str, bits, leaked_bits: int | None = None) -> "KeyMaterial":
        """Move forward one or more stages; never backwards."""
        if STAGES.index(stage) <= STAGES.index(self.stage):
            raise ValueError(f"stage may only advance ({self.stage} -> {stage})")
        return KeyMaterial(
            stage=stage,
            bits=bits,
            leaked_bits=self.leaked_bits if leaked_bits is None else leaked_bits,
        )


def binary_entropy(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def final_key_length(n: int, qber: float, leaked_bits: int, epsilon_exponent: int = 40) -> int:
    """Secure output length for n reconciled bits at the given error rate."""
    if not 0.0 <= qber < 0.5:
        raise ValueError("qber must lie in [0, 0.5)")
    usable = math.floor(n * (1.0 - 2.0 * binary_entropy(qber)))
    return max(0, usable - int(leaked_bits) - int(epsilon_exponent))


# ---------------------------------------------------------------------------
# reconciliation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReconcileConfig:
    block_factor: float = 0.73
    mandatory_passes: int = 2
    max_passes: int = 12
    verify_bits: int = 20

    def __post_init__(self) -> None:
        if self.block_factor <= 0:
            raise ValueError("block_factor must be positive")
        if not 1 <= self.mandatory_passes <= self.max_passes:
            raise ValueError("need 1 <= mandatory_passes <= max_passes")
        if self.verify_bits < 1:
            raise ValueError("verify_bits must be >= 1")

    def initial_block_size(self, n: int, qber_hint: float) -> int:
        if qber_hint <= 0.0:
            return n
        return max(2, min(n, math.ceil(self.block_factor / qber_hint)))


@dataclass
class ReconcileResult:
    dealer_bits: np.ndarray
    access_bits: np.ndarray
    leaked_bits: int
    passes_used: int
    verify_rounds: int
    corrected: int


class _Cascade:
    """Both ends of the parity exchange, with dealer-parity caching.

    Every dealer parity is either transmitted (counted as leakage, and
    emitted as a ParityExchange message when a channel is attached) or
    derived for free from previously transmitted ones: the sibling of a
    known range under a known parent, or the last block of a pass once
    the total parity is known.
    """

    def __init__(
        self,
        dealer_bits: np.ndarray,
        access_bits: np.ndarray,
        channel: Channel | None,
        dealer: str,
        speaker: str,
    ):
        self.d = dealer_bits.astype(np.uint8).copy()
        self.a = access_bits.astype(np.uint8).copy()
        self.n = len(self.d)
        self.channel = channel
        self.dealer = dealer
        self.speaker = speaker
        self.perms: list[np.ndarray] = []
        self.inv_perms: list[np.ndarray] = []
        self.block_sizes: list[int] = []
        self.cache: dict[tuple[int, int, int], int] = {}
        self.known_bits: dict[int, int] = {}
        self.total_parity: int | None = None
        self.verify_masks: np.ndarray | None = None
        self.verify_parities: np.ndarray | None = None
        self.leaked = 0
        self.corrected = 0

    # -- channel plumbing ---------------------------------------------------

    def _emit(self, sender: str, payload: dict) -> None:
        if self.channel is not None:
            self.channel.send(
                ProtocolMessage(MSG_PARITY, sender=sender, payload=payload),
                to=self.dealer if sender == self.speaker else self.speaker,
            )

    # -- parity services ----------------------------------------------------

    def _local_parity(self, bits: np.ndarray, p: int, lo: int, hi: int) -> int:
        if hi <= lo:
            return 0
        pos = self.perms[p][lo:hi]
        return int(np.bitwise_xor.reduce(bits[pos]))

    def access_parity(self, p: int, lo: int, hi: int) -> int:
        return self._local_parity(self.a, p, lo, hi)

    def _learn(self, p: int, lo: int, hi: int, value: int) -> None:
        """Record a dealer parity; single positions become globally known."""
        self.cache[(p, lo, hi)] = value
        if hi - lo == 1:
            self.known_bits[int(self.perms[p][lo])] = value

    def dealer_parity(self, p: int, lo: int, hi: int, batch: list | None = None) -> int:
        """Dealer-side parity of one permuted range; transmits on cache miss.

        Short ranges whose positions were all revealed before (in any
        pass) are derived by the access side instead of transmitted.
        """
        key = (p, lo, hi)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        if hi - lo <= 4:
            positions = [int(q) for q in self.perms[p][lo:hi]]
            if all(q in self.known_bits for q in positions):
                val = 0
                for q in positions:
                    val ^= self.known_bits[q]
                self._learn(p, lo, hi, val)
                return val
        val = self._local_parity(self.d, p, lo, hi)
        self._learn(p, lo, hi, val)
        self.leaked += 1
        if batch is not None:
            batch.append((p, lo, hi, val))
        else:
            self._emit(
                self.dealer,
                {"kind": "search_parity", "pass_index": p, "ranges": [[lo, hi]], "parities": [val]},
            )
        return val

    # -- passes ---------------------------------------------------------------

    def add_pass(self, block_size: int, perm_rng: np.random.Generator) -> int:
        p = len(self.perms)
        if p == 0:
            perm = np.arange(self.n)
        else:
            perm = perm_rng.permutation(self.n)
        inv = np.empty(self.n, dtype=np.int64)
        inv[perm] = np.arange(self.n)
        self.perms.append(perm)
        self.inv_perms.append(inv)
        self.block_sizes.append(int(block_size))
        return p

    def _blocks(self, p: int) -> list[tuple[int, int]]:
        k = self.block_sizes[p]
        return [(lo, min(lo + k, self.n)) for lo in range(0, self.n, k)]

    def scan_pass(self, p: int) -> list[tuple[int, int, int]]:
        """Transmit (or derive) all block parities of a pass; heap of mismatches."""
        blocks = self._blocks(p)
        batch: list = []
        known_xor = 0
        for i, (lo, hi) in enumerate(blocks):
            key = (p, lo, hi)
            if key in self.cache:
                known_xor ^= self.cache[key]
                continue
            last = i == len(blocks) - 1
            if last and self.total_parity is not None:
                # remaining block parity follows from the whole-string parity
                derived = self.total_parity ^ known_xor
                self._learn(p, lo, hi, derived)
                known_xor ^= derived
                continue
            known_xor ^= self.dealer_parity(p, lo, hi, batch=batch)
        if self.total_parity is None:
            self.total_parity = known_xor
        if batch:
            self._emit(
                self.dealer,
                {
                    "kind": "block_parities",
                    "pass_index": p,
                    "block_size": self.block_sizes[p],
                    "ranges": [[lo, hi] for (_, lo, hi, _) in batch],
                    "parities": [v for (_, _, _, v) in batch],
                },
            )
        queue: list[tuple[int, int, int]] = []
        for b, (lo, hi) in enumerate(blocks):
            if self.cache[(p, lo, hi)] != self.access_parity(p, lo, hi):
                heapq.heappush(queue, (self.block_sizes[p], p, b))
        return queue

    def binary_search(self, p: int, lo: int, hi: int) -> int:
        """Locate one erroneous position inside a mismatched range."""
        d_parent = self.cache[(p, lo, hi)]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            self._emit(
                self.speaker,
                {"kind": "search_request", "pass_index": p, "ranges": [[lo, mid]]},
            )
            d_left = self.dealer_parity(p, lo, mid)
            if (p, mid, hi) not in self.cache:
                self._learn(p, mid, hi, d_parent ^ d_left)
            if d_left != self.access_parity(p, lo, mid):
                hi = mid
                d_parent = d_left
            else:
                d_parent = d_parent ^ d_left
                lo = mid
        return int(self.perms[p][lo])

    def drain(self, queue: list) -> None:
        """Fix errors until all block parities of all passes agree.

        Smallest blocks are searched first: their searches are cheapest
        and their corrections often settle larger blocks for free.
        """
        while queue:
            _, p, b = heapq.heappop(queue)
            k = self.block_sizes[p]
            lo, hi = b * k, min((b + 1) * k, self.n)
            if self.cache[(p, lo, hi)] == self.access_parity(p, lo, hi):
                continue
            pos = self.binary_search(p, lo, hi)
            self.a[pos] ^= 1
            self.corrected += 1
            for p2 in range(len(self.perms)):
                slot = int(self.inv_perms[p2][pos])
                b2 = slot // self.block_sizes[p2]
                k2 = self.block_sizes[p2]
                lo2, hi2 = b2 * k2, min((b2 + 1) * k2, self.n)
                if self.cache[(p2, lo2, hi2)] != self.access_parity(p2, lo2, hi2):
                    heapq.heappush(queue, (k2, p2, b2))

    def verify(self, verify_bits: int, vrng_seed: int) -> bool:
        """Compare randomized subset parities.

        The masks and the dealer's parities over them are transmitted
        once; the dealer's side never changes, so after later correction
        passes the access side re-checks against the stored values for
        free.
        """
        if self.verify_masks is None:
            self._emit(self.speaker, {"kind": "verify_request", "verify_seed": vrng_seed})
            vrng = np.random.default_rng(vrng_seed)
            self.verify_masks = (vrng.random((verify_bits, self.n)) < 0.5).astype(np.uint8)
            self.verify_parities = (self.verify_masks @ self.d.astype(np.int64)) & 1
            self.leaked += verify_bits
            self._emit(
                self.dealer,
                {
                    "kind": "verify",
                    "verify_seed": vrng_seed,
                    "parities": [int(v) for v in self.verify_parities],
                },
            )
        a_par = (self.verify_masks @ self.a.astype(np.int64)) & 1
        ok = bool(np.array_equal(self.verify_parities, a_par))
        self._emit(self.speaker, {"kind": "verify_ack", "ok": ok})
        return ok


def reconcile(
    dealer_key,
    access_key,
    channel: Channel | None = None,
    config: ReconcileConfig | None = None,
    qber_hint: float = 0.05,
    *,
    rng: np.random.Generator,
    dealer: str = "Alice",
    speaker: str = "Bob",
) -> ReconcileResult:
    """Equalize the access set's combined string with the dealer's key.

    ``qber_hint`` sizes the first-pass blocks (use the check estimate).
    Raises ReconciliationError when verification still fails after
    ``config.max_passes`` passes.
    """
    d = _as_bits(dealer_key, "dealer_key")
    a = _as_bits(access_key, "access_key")
    if len(d) != len(a):
        raise ValueError(f"key lengths differ: {len(d)} vs {len(a)}")
    if len(d) == 0:
        raise ValueError("cannot reconcile empty keys")
    cfg = config or ReconcileConfig()
    n = len(d)
    k1 = cfg.initial_block_size(n, qber_hint)

    cas = _Cascade(d, a, channel, dealer, speaker)
    perm_seed = int(rng.integers(0, 2**31))
    perm_rng = np.random.default_rng(perm_seed)
    cas._emit(
        cas.speaker,
        {"kind": "setup", "perm_seed": perm_seed, "block_size": k1},
    )

    for p in range(cfg.mandatory_passes):
        cas.add_pass(min(n, k1 << p), perm_rng)
        cas.drain(cas.scan_pass(p))

    verify_rounds = 0
    verify_seed = int(rng.integers(0, 2**31))
    # recovery passes hunt the few surviving errors with large blocks:
    # cheap scans, and fresh permutations split surviving pairs eventually
    recovery_block = min(n, max(n // 4, 2))
    while True:
        verify_rounds += 1
        if cas.verify(cfg.verify_bits, verify_seed):
            break
        if len(cas.perms) >= cfg.max_passes:
            raise ReconciliationError(
                f"verification still failing after {len(cas.perms)} passes "
                f"({cas.leaked} bits leaked)"
            )
        p = cas.add_pass(recovery_block, perm_rng)
        cas.drain(cas.scan_pass(p))

    return ReconcileResult(
        dealer_bits=cas.d,
        access_bits=cas.a,
        leaked_bits=cas.leaked,
        passes_used=len(cas.perms),
        verify_rounds=verify_rounds,
        corrected=cas.corrected,
    )


# ---------------------------------------------------------------------------
# privacy amplification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToeplitzSeed:
    """Seed bits defining an n_out x n_in Toeplitz matrix over GF(2)."""

    bits: np.ndarray
    n_in: int
    n_out: int

    def __post_init__(self) -> None:
        bits = _as_bits(self.bits, "seed bits")
        if self.n_in < 1 or self.n_out < 0:
            raise ValueError("need n_in >= 1 and n_out >= 0")
        expected = self.n_in + self.n_out - 1 if self.n_out > 0 else 0
        if len(bits) != expected:
            raise ValueError(
                f"seed length {len(bits)} does not match n_in + n_out - 1 = {expected}"
            )
        bits = bits.copy()
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    @classmethod
    def random(cls, n_in: int, n_out: int, rng: np.random.Generator) -> "ToeplitzSeed":
        length = n_in + n_out - 1 if n_out > 0 else 0
        return cls(bits=rng.integers(0, 2, length, dtype=np.uint8), n_in=n_in, n_out=n_out)

    def matrix(self) -> np.ndarray:
        """Dense T with T[i, j] = bits[n_in - 1 + i - j]."""
        rows = np.arange(self.n_out)[:, None]
        cols = np.arange(self.n_in)[None, :]
        return self.bits[self.n_in - 1 + rows - cols].astype(np.uint8)


def privacy_amplify(key, seed: ToeplitzSeed) -> np.ndarray:
    """Compress a key with the Toeplitz hash: T @ key over GF(2).

    Computed as a slice of the integer convolution of seed and key, which
    equals the matrix product for the matrix convention in the module
    docstring. The convolution runs through ``rfft``/``irfft`` zero-padded
    to a power of two >= len(seed) + n_in - 1, so the slice cannot wrap;
    each entry is rounded to the nearest integer and reduced mod 2. The
    float error is far below one half (max |conv - rint(conv)| was 1.4e-12
    at 12k key bits and 1.2e-10 at 1e6); a residual of 0.25 or more raises
    ``RuntimeError`` rather than return a wrong bit. Deterministic in
    (key, seed).
    """
    bits = _as_bits(key, "key")
    n_out = seed.n_out
    if len(bits) != seed.n_in:
        raise ValueError(f"seed is {n_out}x{seed.n_in}, got key of {len(bits)}")
    if n_out == 0:
        return np.zeros(0, dtype=np.uint8)
    size = 1 << (len(seed.bits) + seed.n_in - 2).bit_length()
    spectrum = np.fft.rfft(seed.bits, size) * np.fft.rfft(bits, size)
    conv = np.fft.irfft(spectrum, size)[seed.n_in - 1 : seed.n_in - 1 + n_out]
    rounded = np.rint(conv)
    residual = float(np.max(np.abs(conv - rounded)))
    if residual >= 0.25:
        raise RuntimeError(f"FFT convolution residual {residual:.3g} is too large to round")
    return (rounded.astype(np.int64) & 1).astype(np.uint8)


# ---------------------------------------------------------------------------
# one-time pad
# ---------------------------------------------------------------------------


class VernamPad:
    """One-time-pad key with strict single-use enforcement.

    Both encryption and decryption consume key bits from the front; a pad
    object belongs to one side of the exchange.
    """

    def __init__(self, bits):
        self._bits = _as_bits(bits, "pad bits").copy()
        self._spent = 0

    @property
    def remaining(self) -> int:
        return len(self._bits) - self._spent

    @property
    def spent(self) -> int:
        return self._spent

    def _consume(self, length: int) -> np.ndarray:
        if length > self.remaining:
            raise KeyReuseError(
                f"pad has {self.remaining} unspent bits, refusing to cover {length}"
            )
        seg = self._bits[self._spent : self._spent + length]
        self._spent += length
        return seg

    def encrypt(self, message_bits) -> np.ndarray:
        m = _as_bits(message_bits, "message")
        return m ^ self._consume(len(m))

    def decrypt(self, cipher_bits) -> np.ndarray:
        c = _as_bits(cipher_bits, "ciphertext")
        return c ^ self._consume(len(c))


# ---------------------------------------------------------------------------
# hex key files and the end-to-end pipeline
# ---------------------------------------------------------------------------


def bits_to_hex(bits) -> str:
    arr = _as_bits(bits)
    if arr.size == 0:
        return ""
    return np.packbits(arr).tobytes().hex()


def hex_to_bits(hex_string: str, length: int) -> np.ndarray:
    """Inverse of ``bits_to_hex``: exactly ceil(length/8) bytes, zero padding bits."""
    if length < 0:
        raise ValueError(f"bit length must be >= 0, got {length}")
    n_chars = 2 * ((length + 7) // 8)
    if len(hex_string) != n_chars:
        raise ValueError(f"{length} bits take {n_chars} hex characters, got {len(hex_string)}")
    bits = np.unpackbits(np.frombuffer(bytes.fromhex(hex_string), dtype=np.uint8))
    if bits[length:].any():
        raise ValueError("padding bits after the last key bit are not zero")
    return bits[:length].copy()


def write_key_file(path, material: KeyMaterial, formula_id: str = FORMULA_ID) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"stage={material.stage} length={len(material.bits)} "
            f"leaked={material.leaked_bits} formula={formula_id}\n"
        )
        fh.write(bits_to_hex(material.bits) + "\n")


def read_key_file(path) -> KeyMaterial:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        hex_line = fh.readline().strip()
    parts = header.split()
    fields = dict(part.split("=", 1) for part in parts if "=" in part)
    # each field exactly once, as name=value
    if len(fields) != len(parts) or fields.keys() != _KEY_FILE_FIELDS:
        raise ValueError(f"key file header needs the fields {sorted(_KEY_FILE_FIELDS)}: {header!r}")
    return KeyMaterial(
        stage=fields["stage"],
        bits=hex_to_bits(hex_line, int(fields["length"])),
        leaked_bits=int(fields["leaked"]),
    )


@dataclass
class PipelineResult:
    dealer_material: KeyMaterial
    access_material: KeyMaterial
    reconcile_result: ReconcileResult
    final_length: int
    pa_seed: ToeplitzSeed | None
    keys_match: bool
    epsilon_exponent: int
    formula: str = FORMULA_TEXT


def run_key_pipeline(
    dealer_bits,
    access_bits,
    qber_estimate: float,
    channel: Channel | None = None,
    *,
    rng: np.random.Generator,
    dealer: str = "Alice",
    speaker: str = "Bob",
    epsilon_exponent: int = 40,
    reconcile_config: ReconcileConfig | None = None,
) -> PipelineResult:
    """Reconcile, size the secure key, and privacy amplify both sides.

    The hash seed is generated dealer-side and broadcast in the clear
    when a channel is attached (standard for universal hashing).
    """
    d = _as_bits(dealer_bits, "dealer_bits")
    qber_hint = qber_estimate if qber_estimate > 0 else 0.0
    rec = reconcile(
        d,
        access_bits,
        channel=channel,
        config=reconcile_config,
        qber_hint=qber_hint,
        rng=rng,
        dealer=dealer,
        speaker=speaker,
    )
    n = len(rec.dealer_bits)
    final_len = final_key_length(n, qber_estimate, rec.leaked_bits, epsilon_exponent)
    if final_len > 0:
        seed = ToeplitzSeed.random(n, final_len, rng)
        if channel is not None:
            channel.broadcast(
                ProtocolMessage(
                    MSG_HASH_SEED,
                    sender=dealer,
                    payload={
                        "bits_hex": bits_to_hex(seed.bits),
                        "n_in": seed.n_in,
                        "n_out": seed.n_out,
                    },
                )
            )
        dealer_final = privacy_amplify(rec.dealer_bits, seed)
        access_final = privacy_amplify(rec.access_bits, seed)
    else:
        seed = None
        dealer_final = np.zeros(0, dtype=np.uint8)
        access_final = np.zeros(0, dtype=np.uint8)

    base = KeyMaterial(stage="sifted", bits=d)
    dealer_rec = base.advanced("reconciled", rec.dealer_bits, leaked_bits=rec.leaked_bits)
    access_rec = base.advanced("reconciled", rec.access_bits, leaked_bits=rec.leaked_bits)
    return PipelineResult(
        dealer_material=dealer_rec.advanced("final", dealer_final),
        access_material=access_rec.advanced("final", access_final),
        reconcile_result=rec,
        final_length=final_len,
        pa_seed=seed,
        keys_match=bool(np.array_equal(dealer_final, access_final)),
        epsilon_exponent=epsilon_exponent,
    )


def format_pipeline_report(pipeline: PipelineResult) -> str:
    rec = pipeline.reconcile_result
    lines = [
        "[postproc]",
        f"reconciled_bits={len(rec.dealer_bits)}",
        f"corrected_errors={rec.corrected}",
        f"passes_used={rec.passes_used}",
        f"verify_rounds={rec.verify_rounds}",
        f"leaked_bits={rec.leaked_bits}",
        f"epsilon_exponent={pipeline.epsilon_exponent}",
        f"final_length_formula={pipeline.formula}",
        f"final_length={pipeline.final_length}",
        f"keys_match={'yes' if pipeline.keys_match else 'no'}",
    ]
    return "\n".join(lines) + "\n"
