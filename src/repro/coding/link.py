"""Link framing: comma preambles, lock acquisition, loss-of-lock.

Two pieces:

:class:`LinkLockStateMachine` is the receiver's CDR-style lock
tracker — HUNT (no boundary) → ALIGN (comma found, confirming) →
LOCKED, dropping back to HUNT when code violations burst (the
signature of a slipped or broken stream, not of scattered channel
errors).

:class:`LinkCodec` is the whole TX/RX framing stack: optional
self-synchronizing scrambling, comma preamble + periodic comma
insertion, 8b10b encode on the way out; bit-slip alignment, decode,
lock tracking, payload extraction and descrambling on the way back.
Encoding is fully vectorized and accepts batched ``(channels,
n_bytes)`` payloads bit-identically to the per-row scalar path.
Decoding is vectorized per aligned segment, lock tracking included:
one array scan finds where the state machine locks and loses lock,
instead of stepping it symbol by symbol.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import List, Optional

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError
from repro.coding.align import BitSlipAligner
from repro.coding.code8b10b import (
    COMMA, SYMBOL_BITS, decode_stream, encode_stream,
)
from repro.coding.scrambler import DEFAULT_TAPS, Scrambler


class LinkState(enum.Enum):
    """Receiver lock states."""

    HUNT = "hunt"
    ALIGN = "align"
    LOCKED = "locked"


class LinkLockStateMachine:
    """Tracks symbol-stream health into a lock decision.

    Parameters
    ----------
    lock_commas:
        Comma sightings (violation-free since the last) required to
        declare LOCKED.
    loss_window / loss_violations:
        Sliding window (symbols) and the violation count within it
        that declares loss of lock — bursts unlock, isolated channel
        errors do not.
    """

    def __init__(self, lock_commas: int = 2, loss_window: int = 16,
                 loss_violations: int = 4):
        if lock_commas < 1:
            raise ConfigurationError("lock_commas must be >= 1")
        if loss_violations < 1 or loss_window < loss_violations:
            raise ConfigurationError(
                "need loss_window >= loss_violations >= 1"
            )
        self.lock_commas = int(lock_commas)
        self.loss_window = int(loss_window)
        self.loss_violations = int(loss_violations)
        self.state = LinkState.HUNT
        self.acquisitions = 0
        self.losses = 0
        self.symbols = 0
        #: Symbol count at the first transition into LOCKED.
        self.first_lock_symbols: Optional[int] = None
        self._commas_seen = 0
        self._recent: List[bool] = []

    @property
    def locked(self) -> bool:
        return self.state is LinkState.LOCKED

    def restart_hunt(self) -> None:
        """Force back to HUNT (the aligner lost the boundary)."""
        self.state = LinkState.HUNT
        self._commas_seen = 0
        self._recent = []

    def step(self, comma: bool, violation: bool) -> LinkState:
        """Advance one symbol; returns the state *after* it."""
        self.symbols += 1
        if self.state is LinkState.LOCKED:
            self._recent.append(bool(violation))
            if len(self._recent) > self.loss_window:
                self._recent.pop(0)
            if sum(self._recent) >= self.loss_violations:
                self.losses += 1
                self.restart_hunt()
            return self.state
        if violation:
            self._commas_seen = 0
            self.state = LinkState.HUNT
            return self.state
        if comma:
            self._commas_seen += 1
            self.state = LinkState.ALIGN
            if self._commas_seen >= self.lock_commas:
                self.state = LinkState.LOCKED
                self.acquisitions += 1
                self._recent = []
                if self.first_lock_symbols is None:
                    self.first_lock_symbols = self.symbols
        return self.state


def _lock_scan(commas: np.ndarray, violations: np.ndarray,
               lock_commas: int, loss_window: int,
               loss_violations: int):
    """Lock-track one aligned segment in array form.

    The exact equivalent of stepping a :class:`LinkLockStateMachine`
    that enters the segment in HUNT (as every segment does) over
    ``(commas, violations)`` until the receive loop would leave the
    segment. Returns ``(steps, lock, loss)``: the symbols stepped
    (the segment ends at the first symbol that leaves the machine in
    HUNT — a code violation before lock, or a loss of lock), and the
    indices of the locking and the lock-losing symbol, each ``None``
    if the segment has none.

    Before lock the machine's comma count is the commas since the
    last violation, so it locks at the first symbol where that
    count reaches *lock_commas* and sits in HUNT wherever it is 0.
    After lock, it loses lock at the first symbol whose trailing
    *loss_window* violations since the lock reach *loss_violations*.
    """
    n = len(commas)
    seen = np.cumsum(commas)
    seen -= np.maximum.accumulate(np.where(violations, seen, 0))
    hits = np.flatnonzero(seen >= lock_commas)
    lock = int(hits[0]) if len(hits) else n
    hunting = np.flatnonzero(seen[:lock] == 0)
    if len(hunting):
        return int(hunting[0]) + 1, None, None
    if lock == n:
        return n, None, None
    in_window = np.cumsum(violations[lock + 1:])
    in_window[loss_window:] = in_window[loss_window:] \
        - in_window[:-loss_window]
    hits = np.flatnonzero(in_window >= loss_violations)
    if len(hits) == 0:
        return n, lock, None
    loss = lock + 1 + int(hits[0])
    return loss + 1, lock, loss


@dataclasses.dataclass
class LinkStats:
    """Receiver-side accounting for one decoded frame."""

    symbols: int = 0
    commas: int = 0
    payload_symbols: int = 0
    code_violations: int = 0
    disparity_errors: int = 0
    lock_acquisitions: int = 0
    lock_losses: int = 0
    lock_time_symbols: Optional[int] = None
    slip_bits: int = 0
    discarded_bits: int = 0
    locked: bool = False

    @property
    def total_errors(self) -> int:
        return self.code_violations + self.disparity_errors


@dataclasses.dataclass
class DecodedFrame:
    """A recovered payload plus the link health alongside it."""

    payload: np.ndarray
    stats: LinkStats

    @property
    def clean(self) -> bool:
        return self.stats.total_errors == 0 and self.stats.locked


class LinkCodec:
    """The full coded-link framing stack (see module docstring).

    Parameters
    ----------
    scramble:
        Self-synchronously scramble payload bytes before encoding.
    n_preamble:
        Comma symbols opening every frame (>= ``lock_commas`` so a
        clean frame locks inside its own preamble).
    comma_period:
        Insert one comma every *comma_period* payload bytes (0 =
        preamble only); periodic commas bound relock time after a
        mid-frame loss.
    registry:
        Optional injected telemetry registry.
    """

    def __init__(self, scramble: bool = False, n_preamble: int = 4,
                 comma_period: int = 0, lock_commas: int = 2,
                 loss_window: int = 16, loss_violations: int = 4,
                 scrambler_taps=DEFAULT_TAPS, registry=None):
        if n_preamble < max(1, lock_commas):
            raise ConfigurationError(
                f"n_preamble must be >= lock_commas "
                f"({lock_commas}), got {n_preamble}"
            )
        if comma_period < 0:
            raise ConfigurationError("comma_period must be >= 0")
        self.scramble = bool(scramble)
        self.n_preamble = int(n_preamble)
        self.comma_period = int(comma_period)
        self.lock_commas = int(lock_commas)
        self.loss_window = int(loss_window)
        self.loss_violations = int(loss_violations)
        self.scrambler = Scrambler(scrambler_taps)
        self.telemetry = registry

    @classmethod
    def from_spec(cls, spec, registry=None) -> Optional["LinkCodec"]:
        """Normalize an ``encoding=`` argument into a codec.

        ``None`` passes through (raw NRZ), a :class:`LinkCodec` is
        used as-is, and the string modes are ``"8b10b"`` and
        ``"8b10b-scrambled"``.
        """
        if spec is None or isinstance(spec, cls):
            return spec
        if spec == "8b10b":
            return cls(scramble=False, registry=registry)
        if spec == "8b10b-scrambled":
            return cls(scramble=True, registry=registry)
        raise ConfigurationError(
            f"unknown encoding {spec!r}; use None, '8b10b', "
            f"'8b10b-scrambled', or a LinkCodec"
        )

    # -- frame geometry ---------------------------------------------------

    def n_commas(self, n_bytes: int) -> int:
        """Comma symbols a frame of *n_bytes* payload carries."""
        extra = 0 if self.comma_period == 0 \
            else (max(n_bytes - 1, 0)) // self.comma_period
        return self.n_preamble + extra

    def frame_symbols(self, n_bytes: int) -> int:
        """Total symbols in a frame of *n_bytes* payload."""
        return n_bytes + self.n_commas(n_bytes)

    def frame_bits(self, n_bytes: int) -> int:
        """Line bits in a frame of *n_bytes* payload."""
        return SYMBOL_BITS * self.frame_symbols(n_bytes)

    def overhead(self) -> float:
        """Line-rate overhead factor of the 8b10b expansion."""
        return SYMBOL_BITS / 8.0

    def _frame_symbol_layout(self, n_bytes: int):
        """(k_mask, payload_positions) for one frame's symbols."""
        n_sym = self.frame_symbols(n_bytes)
        k_mask = np.zeros(n_sym, dtype=bool)
        k_mask[:self.n_preamble] = True
        if self.comma_period > 0 and n_bytes > 1:
            # A comma lands before payload byte p for every full
            # comma_period bytes already emitted.
            payload_idx = np.arange(n_bytes)
            commas_before = payload_idx // self.comma_period
            positions = (self.n_preamble + payload_idx
                         + commas_before)
            k_mask[:] = True
            k_mask[positions] = False
        payload_positions = np.flatnonzero(~k_mask)
        return k_mask, payload_positions

    # -- transmit side ----------------------------------------------------

    def encode_frame(self, payload, rd: int = -1) -> np.ndarray:
        """Frame and encode *payload* bytes into serial line bits."""
        bits = self.encode_frame_batch(
            np.asarray(payload, dtype=np.uint8)[None, :], rd=rd)
        return bits[0]

    def encode_frame_batch(self, payloads, rd: int = -1) -> np.ndarray:
        """Batched :meth:`encode_frame` over ``(channels, n_bytes)``.

        Bit-identical per row to the scalar path: the comma layout,
        scrambler framing (fresh zero state per frame), and 8b10b
        disparity evolution are all per-row deterministic.
        """
        payloads = np.asarray(payloads, dtype=np.uint8)
        if payloads.ndim != 2:
            raise ConfigurationError(
                f"expected (channels, n_bytes), got shape "
                f"{payloads.shape}"
            )
        n_rows, n_bytes = payloads.shape
        tel = telemetry.resolve(self.telemetry)
        with tel.span("coding.encode_frame_batch"):
            if self.scramble:
                scrambled, _ = self.scrambler.scramble(
                    np.unpackbits(payloads, axis=-1))
                payloads = np.packbits(scrambled, axis=-1)
            k_mask, payload_positions = \
                self._frame_symbol_layout(n_bytes)
            symbols = np.full((n_rows, len(k_mask)), COMMA,
                              dtype=np.uint8)
            symbols[:, payload_positions] = payloads
            bits, _ = encode_stream(
                symbols, k=np.broadcast_to(k_mask, symbols.shape),
                rd=rd)
        tel.counter("coding.symbols_encoded").inc(symbols.size)
        tel.counter("coding.commas_inserted").inc(
            int(np.count_nonzero(k_mask)) * n_rows)
        return bits

    # -- receive side -----------------------------------------------------

    def decode_frame(self, bits, n_bytes: Optional[int] = None
                     ) -> DecodedFrame:
        """Align, decode, lock-track, and descramble one frame.

        Works from an arbitrary bit phase (leading garbage or a
        slipped stream): a bit-slip aligner hunts the comma, the
        lock state machine gates payload extraction, and a
        violation burst after lock, or any code violation before it,
        sends the whole pipeline back to the hunt — re-alignment
        included — exactly as a hardware receiver would. *n_bytes* optionally truncates the recovered payload
        (the transmit-side frame length, when known).

        Each aligned segment is decoded and lock-tracked in array
        form (:func:`_lock_scan`), with the same results as stepping
        :class:`LinkLockStateMachine` one symbol at a time.

        Raises
        ------
        ConfigurationError
            If *bits* is not a 1-D stream (use
            :meth:`decode_frame_batch` for a block).
        """
        bits = np.asarray(bits)
        if bits.ndim != 1:
            raise ConfigurationError(
                f"expected a 1-D bit stream, got shape {bits.shape}"
            )
        bits = bits.astype(np.uint8) & 1
        tel = telemetry.resolve(self.telemetry)
        with tel.span("coding.decode_frame"):
            stats, payload = self._receive(bits)
            if self.scramble and len(payload):
                descrambled, _ = self.scrambler.descramble(
                    np.unpackbits(payload))
                payload = np.packbits(descrambled)
        if n_bytes is not None:
            payload = payload[:n_bytes]
        stats.payload_symbols = len(payload)
        tel.counter("coding.symbols_decoded").inc(stats.symbols)
        tel.counter("coding.commas_seen").inc(stats.commas)
        tel.counter("coding.code_violations").inc(
            stats.code_violations)
        tel.counter("coding.disparity_errors").inc(
            stats.disparity_errors)
        tel.counter("coding.lock_acquisitions").inc(
            stats.lock_acquisitions)
        tel.counter("coding.lock_losses").inc(stats.lock_losses)
        return DecodedFrame(payload=payload, stats=stats)

    def _receive(self, bits: np.ndarray):
        """(stats, line payload) of a 1-D 0/1 stream, before
        descrambling."""
        stats = LinkStats()
        aligner = BitSlipAligner(confirm=1)
        payload_symbols: List[np.ndarray] = []
        pos = 0
        while pos + SYMBOL_BITS <= len(bits):
            alignment = aligner.find(bits, start=pos)
            if alignment is None:
                stats.discarded_bits += len(bits) - pos
                break
            stats.discarded_bits += alignment.position - pos
            stats.slip_bits += alignment.slip
            n_sym = (len(bits) - alignment.position) // SYMBOL_BITS
            decoded = decode_stream(
                bits[alignment.position:
                     alignment.position + n_sym * SYMBOL_BITS],
                rd=alignment.polarity)
            commas = decoded.k & (decoded.data == COMMA) \
                & ~decoded.violations
            steps, lock, loss = _lock_scan(
                commas, decoded.violations, self.lock_commas,
                self.loss_window, self.loss_violations)
            stats.code_violations += int(
                np.count_nonzero(decoded.violations[:steps]))
            stats.disparity_errors += int(
                np.count_nonzero(decoded.disparity_errors[:steps]))
            stats.commas += int(np.count_nonzero(commas[:steps]))
            if lock is not None:
                stats.lock_acquisitions += 1
                if stats.lock_time_symbols is None:
                    stats.lock_time_symbols = stats.symbols + lock + 1
                # Payload keeps its slot even through a violation
                # (the decoder outputs *something*), so downstream
                # byte alignment survives single corrupted symbols.
                end = n_sym if loss is None else loss
                data = decoded.data[lock + 1:end]
                payload_symbols.append(
                    data[~decoded.k[lock + 1:end]])
            stats.symbols += steps
            if loss is not None:
                stats.lock_losses += 1
            elif steps == n_sym:
                stats.locked = lock is not None
                break
            # Back in the hunt: resume one bit past the symbol that
            # sent it there, so a slipped boundary — or one a false
            # comma in leading garbage suggested — can be re-found
            # at a new phase.
            pos = alignment.position + steps * SYMBOL_BITS
        payload = (np.concatenate(payload_symbols)
                   if payload_symbols else np.zeros(0, dtype=np.uint8))
        return stats, payload

    def decode_frame_batch(self, bits, n_bytes: Optional[int] = None
                           ) -> List[DecodedFrame]:
        """Per-row :meth:`decode_frame` over a ``(channels, n)`` block.

        Each row aligns independently (real lanes slip
        independently); the symbol decode and the lock tracking
        inside each row are vectorized.
        """
        bits = np.asarray(bits)
        if bits.ndim != 2:
            raise ConfigurationError(
                f"expected (channels, n_bits), got shape {bits.shape}"
            )
        return [self.decode_frame(row, n_bytes=n_bytes)
                for row in bits]
