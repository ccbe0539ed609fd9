"""Classical post-processing: reconciliation, privacy amplification, one-time pad.

Reconciliation runs between the dealer and the access set treated as one
logical party (the three non-dealers first combine their strings by XOR).
It is Cascade (Brassard and Salvail, EUROCRYPT 1993): a first pass over
blocks of ceil(0.73 / QBER) bits, a second pass over doubled, permuted
blocks, and binary search on every mismatched block, with corrections
cascading back into earlier passes. Only the dealer ever transmits parity
bits; the access side sends range requests and acknowledgements, so the
leakage count is exactly the number of dealer parity bits on the channel.
A randomized parity verification follows; while it fails, recovery passes
over permuted blocks of n/4 bits (single bits for keys under 8 bits) run
until the pass budget is exhausted. A pass that corrects more than n bits
can only be following parities that do not match the dealer's key, so it
raises ReconciliationError.

The binary searches run level-synchronously, as in the batched search of
Martinez-Mateo et al. ("Demystifying the information reconciliation
protocol Cascade", QIC 15, 2015). Every open search advances one bisection
level per round trip: one ``search_request`` from the access side lists
each range [lo, mid) whose parity must be transmitted, and one
``search_parity`` reply from the dealer carries those parities in request
order. The dealer answers from an XOR prefix of its key in each pass's
order, with no per-range call. Parities the access side can derive are
never requested: the sibling of a split range, a short range whose bits
are all known, and the last block of a pass once the whole-string parity
is known.

Which blocks search together is the one choice that moves the leak. Pass
0's blocks are disjoint and nothing cascades into them, so they all search
at once and leak exactly what one-at-a-time search leaks. In a later pass,
two mismatched blocks whose errors share a pass-0 block are both searched
when they search together; one at a time, the first one's correction
cascades into the smaller pass-0 block, whose search finds the second
error and settles the other block before anyone searches it. So a later
pass opens its mismatched blocks in eight waves, each settling before the
next opens. A correction opens a search at once only in a pass with
smaller blocks; a block of the current pass that it unsettles joins the
back of the queue. Against one-at-a-time search this leaks 0.5-0.7 % more
bits, and the median ParityExchange count falls from 2,939 to 312 at
10,800 bits, QBER 0.025, and from 37,072 to 274 at 90,000 bits, QBER 0.05
(seeds 1-5). Opening every block of a later pass at once would leak about
2.5 % more.

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

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    MSG_HASH_SEED,
    MSG_PARITY,
    Channel,
    ProtocolMessage,
    hex_to_bits,
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
        # min before ceil: a tiny hint makes the quotient inf, which ceil cannot take
        return max(2, math.ceil(min(n, self.block_factor / qber_hint)))


@dataclass
class ReconcileResult:
    dealer_bits: np.ndarray
    access_bits: np.ndarray
    leaked_bits: int
    passes_used: int
    verify_rounds: int
    corrected: int


#: A pass after the first opens its mismatched blocks in this many waves.
_WAVES = 8


@dataclass(slots=True)
class _Search:
    """One open bisection of block ``b`` of pass ``p``, narrowed to [lo, hi).

    ``parity`` is the dealer's parity over [lo, hi); the access side's
    parity there differs from it.
    """

    p: int
    b: int
    lo: int
    hi: int
    parity: int


class _Cascade:
    """Both ends of the parity exchange, with dealer-parity caching.

    Every dealer parity is either transmitted (counted as leakage, and
    emitted in a ParityExchange message when a channel is attached) or
    derived for free from previously transmitted ones: the sibling of a
    known range under a known parent, a short range whose bits are all
    known, or the last block of a pass once the total parity is known.
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
        # per pass: the access key in pass order and the dealer's block parities
        self.a_perm: list[np.ndarray] = []
        self.block_parities: list[np.ndarray] = []
        # the dealer's side: row p is the XOR prefix of its key in pass-p order
        self.d_prefix = np.zeros((0, self.n + 1), dtype=np.uint8)
        self.cache: dict[tuple[int, int, int], int] = {}
        self.known = np.zeros(self.n, dtype=bool)
        self.known_val = np.zeros(self.n, dtype=np.uint8)
        self.searches: dict[tuple[int, int], _Search] = {}
        # blocks of the current pass waiting for a wave
        self.queue: list[tuple[int, int]] = []
        self.total_parity: int | None = None
        self.verify_masks: np.ndarray | None = None
        self.verify_parities: np.ndarray | None = None
        self.leaked = 0
        self.corrected = 0
        self.correction_cap = 0

    # -- channel plumbing ---------------------------------------------------

    def _emit(self, sender: str, payload: dict) -> None:
        if self.channel is not None:
            self.channel.send(
                ProtocolMessage(MSG_PARITY, sender=sender, payload=payload),
                to=self.dealer if sender == self.speaker else self.speaker,
            )

    # -- parity services ----------------------------------------------------

    def _access_parity(self, p: int, lo: int, hi: int) -> int:
        return int(np.count_nonzero(self.a_perm[p][lo:hi])) & 1

    def _learn(self, p: int, lo: int, hi: int, value: int) -> None:
        """Record a dealer parity; single positions become globally known."""
        self.cache[(p, lo, hi)] = value
        if hi - lo == 1:
            q = self.perms[p][lo]
            self.known[q] = True
            self.known_val[q] = value

    def _derive(self, p: int, lo: int, hi: int) -> int | None:
        """The dealer's parity of a range if it is free, else None.

        Short ranges whose positions were all revealed before (in any
        pass) are derived by the access side instead of transmitted.
        """
        value = self.cache.get((p, lo, hi))
        if value is None and hi - lo <= 4:
            positions = self.perms[p][lo:hi]
            if self.known[positions].all():
                value = int(np.bitwise_xor.reduce(self.known_val[positions]))
                self._learn(p, lo, hi, value)
        return value

    def _exchange(self, asked: list[tuple[int, int, int, int, int]]) -> None:
        """One search round trip: the speaker lists the left halves that
        ``asked`` (p, lo, mid, hi, parent parity) still needs, and the
        dealer answers with their parities in request order.
        """
        ranges = np.array([entry[:3] for entry in asked], dtype=np.int64)
        self._emit(self.speaker, {"kind": "search_request", "ranges": ranges.tolist()})
        parities = self._dealer_parities(ranges).tolist()
        self.leaked += len(parities)
        self._emit(self.dealer, {"kind": "search_parity", "parities": parities})
        for (p, lo, mid, hi, parent), left in zip(asked, parities):
            self._learn(p, lo, mid, left)
            self._learn(p, mid, hi, parent ^ left)

    def _dealer_parities(self, ranges: np.ndarray) -> np.ndarray:
        """The dealer's parity of each requested ``[pass, lo, hi)``."""
        rows = ranges[:, 0]
        return self.d_prefix[rows, ranges[:, 2]] ^ self.d_prefix[rows, ranges[:, 1]]

    # -- passes ---------------------------------------------------------------

    def _block(self, p: int, b: int) -> tuple[int, int]:
        k = self.block_sizes[p]
        return b * k, min((b + 1) * k, self.n)

    def _disagrees(self, p: int, b: int) -> bool:
        return self.block_parities[p][b] != self._access_parity(p, *self._block(p, b))

    def run_pass(self, block_size: int, perm_rng: np.random.Generator) -> None:
        """Add a pass, scan its blocks and fix errors until every block of
        every pass agrees.

        The mismatched blocks wait in a queue and open in waves: all of
        them in pass 0, whose blocks are disjoint so nothing cascades, and
        an eighth of them (rounded up) at a time in a later pass. A wave
        settles before the next opens, so its corrections can fix a queued
        block before anyone searches it.

        A pass may correct at most n bits: honest parities correct only
        wrong bits, so more means a dealer reply that does not match its
        key, and the pass raises ReconciliationError instead of cascading
        forever.
        """
        p = len(self.perms)
        perm = np.arange(self.n) if p == 0 else perm_rng.permutation(self.n)
        inv = np.empty(self.n, dtype=np.int64)
        inv[perm] = np.arange(self.n)
        self.perms.append(perm)
        self.inv_perms.append(inv)
        self.block_sizes.append(int(block_size))
        self.a_perm.append(self.a[perm])
        self.correction_cap = self.corrected + self.n
        prefix = np.zeros(self.n + 1, dtype=np.uint8)
        np.bitwise_xor.accumulate(self.d[perm], out=prefix[1:])
        self.d_prefix = np.vstack([self.d_prefix, prefix])

        self.queue = [(p, b) for b in self._scan_pass(p).tolist()]
        wave = len(self.queue) if p == 0 else math.ceil(len(self.queue) / _WAVES)
        while self.queue:
            for p2, b in self.queue[:wave]:
                if (p2, b) not in self.searches and self._disagrees(p2, b):
                    self._open(p2, b)
            del self.queue[:wave]
            self._settle()

    def _scan_pass(self, p: int) -> np.ndarray:
        """Learn every block parity of pass ``p``; return the mismatched blocks.

        One ``block_parities`` message carries the transmitted parities.
        """
        perm = self.perms[p]
        k = self.block_sizes[p]
        starts = np.arange(0, self.n, k)
        ends = np.minimum(starts + k, self.n)
        sizes = ends - starts
        parities = np.bitwise_xor.reduceat(self.known_val[perm], starts)
        send = (sizes > 4) | (np.add.reduceat(self.known[perm], starts, dtype=np.int64) < sizes)
        if self.total_parity is not None:
            # the last block's parity follows from the whole-string parity
            send[-1] = False
        parities[send] = self.d_prefix[p, ends[send]] ^ self.d_prefix[p, starts[send]]
        if self.total_parity is None:
            self.total_parity = int(np.bitwise_xor.reduce(parities))
        else:
            parities[-1] = self.total_parity ^ np.bitwise_xor.reduce(parities[:-1])
        self.leaked += int(np.count_nonzero(send))
        if send.any():
            self._emit(
                self.dealer,
                {
                    "kind": "block_parities",
                    "pass_index": p,
                    "block_size": k,
                    "ranges": np.column_stack([starts[send], ends[send]]).tolist(),
                    "parities": parities[send].tolist(),
                },
            )
        single = perm[starts[sizes == 1]]
        self.known[single] = True
        self.known_val[single] = parities[sizes == 1]
        self.block_parities.append(parities)
        return np.flatnonzero(parities != np.bitwise_xor.reduceat(self.a_perm[p], starts))

    # -- the level-synchronous search -------------------------------------------

    def _open(self, p: int, b: int) -> _Search:
        lo, hi = self._block(p, b)
        search = self.searches[(p, b)] = _Search(p, b, lo, hi, int(self.block_parities[p][b]))
        return search

    def _advance(self, s: _Search) -> bool:
        """Bisect ``s`` while the parities it needs are free.

        True once ``s`` is down to one position, False when it waits for a
        transmitted parity of [lo, mid).
        """
        while s.hi - s.lo > 1:
            mid = (s.lo + s.hi) // 2
            left = self._derive(s.p, s.lo, mid)
            if left is None:
                return False
            self._learn(s.p, mid, s.hi, s.parity ^ left)
            if left != self._access_parity(s.p, s.lo, mid):
                s.hi, s.parity = mid, left
            else:
                s.lo, s.parity = mid, s.parity ^ left
        return True

    def _settle(self) -> None:
        """Advance every open search one bisection level per round trip
        until none is open; corrections open searches as they go.
        """
        while self.searches:
            live = list(self.searches.values())
            asked = []
            for s in live:  # grows with the searches that corrections open
                if self.searches.get((s.p, s.b)) is not s:
                    continue  # closed by a correction earlier in this round
                if self._advance(s):
                    del self.searches[(s.p, s.b)]
                    live.extend(self._correct(int(self.perms[s.p][s.lo])))
                else:
                    asked.append((s.p, s.lo, (s.lo + s.hi) // 2, s.hi, s.parity))
            if asked:
                self._exchange(asked)

    def _correct(self, pos: int) -> list[_Search]:
        """Flip the access bit at ``pos``; return the searches this opens.

        The block holding ``pos`` changes parity in every pass. An open
        search's block disagreed, so it now agrees and the search closes.
        Any other block that now disagrees opens a search at once if its
        pass has smaller blocks than the current pass, and otherwise joins
        the back of the current pass's queue.
        """
        self.a[pos] ^= 1
        self.corrected += 1
        if self.corrected > self.correction_cap:
            raise ReconciliationError(
                f"pass {len(self.perms) - 1} corrected more than all {self.n} bits"
            )
        opened = []
        for p, inv in enumerate(self.inv_perms):
            slot = int(inv[pos])
            self.a_perm[p][slot] ^= 1
            b = slot // self.block_sizes[p]
            if self.searches.pop((p, b), None) is not None or not self._disagrees(p, b):
                continue
            if self.block_sizes[p] < self.block_sizes[-1]:
                opened.append(self._open(p, b))
            else:
                self.queue.append((p, b))
        return opened

    def verify(self, verify_bits: int, vrng_seed: int) -> bool:
        """Compare randomized subset parities.

        The masks and the dealer's parities over them are transmitted
        once; the dealer's side never changes, so after later correction
        passes the access side re-checks against the stored values for
        free.
        """
        if self.verify_masks is None:
            self._emit(self.speaker, {"kind": "verify_request", "verify_seed": vrng_seed})
            self.verify_masks = _verify_masks(vrng_seed, verify_bits, self.n)
            self.verify_parities = _masked_parities(self.verify_masks, self.d)
            self.leaked += verify_bits
            self._emit(
                self.dealer,
                {
                    "kind": "verify",
                    "verify_seed": vrng_seed,
                    "parities": self.verify_parities.tolist(),
                },
            )
        ok = bool(np.array_equal(self.verify_parities, _masked_parities(self.verify_masks, self.a)))
        self._emit(self.speaker, {"kind": "verify_ack", "ok": ok})
        return ok


def _verify_masks(seed: int, rows: int, n: int) -> np.ndarray:
    """``rows`` random subsets of n positions, packed, one row per subset.

    Row i holds row i of ``default_rng(seed).random((rows, n)) < 0.5``,
    drawn one row at a time.
    """
    vrng = np.random.default_rng(seed)
    return np.stack([np.packbits(vrng.random(n) < 0.5) for _ in range(rows)])


def _masked_parities(masks: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Parity of ``bits`` over each packed mask row: (mask @ bits) & 1."""
    return np.bitwise_count(masks & np.packbits(bits)).sum(axis=1, dtype=np.int64) & 1


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
        cas.run_pass(min(n, k1 << p), perm_rng)

    verify_rounds = 0
    verify_seed = int(rng.integers(0, 2**31))
    # recovery passes hunt the few surviving errors with large blocks:
    # cheap scans, and fresh permutations split surviving pairs eventually;
    # below 8 bits they are single bits: both bits of a 2-bit key can be wrong
    recovery_block = max(n // 4, 1)
    while True:
        verify_rounds += 1
        if cas.verify(cfg.verify_bits, verify_seed):
            break
        if len(cas.perms) >= cfg.max_passes:
            raise ReconciliationError(
                f"verification still failing after {len(cas.perms)} passes "
                f"({cas.leaked} bits leaked)"
            )
        cas.run_pass(recovery_block, perm_rng)

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


def privacy_amplify(key, seed: ToeplitzSeed) -> np.ndarray:
    """Compress a key with the Toeplitz hash: T @ key over GF(2).

    Computed as a slice of the integer convolution of seed and key, which
    equals the matrix product for the matrix convention in the module
    docstring. The convolution runs through ``rfft``/``irfft`` zero-padded
    to a power of two >= len(seed). The linear convolution has
    len(seed) + n_in - 1 terms, so a term wraps only onto outputs below
    n_in - 1, which the slice ``[n_in - 1, n_in - 1 + n_out)`` skips;
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
    size = 1 << (len(seed.bits) - 1).bit_length()
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
