"""Reference implementation of the coded-link receive loop.

The test oracle for :meth:`repro.coding.LinkCodec.decode_frame`: the
receive loop in per-symbol form, built on the public streaming
:class:`~repro.coding.LinkLockStateMachine`. Each aligned
segment is decoded in one piece, then fed to the state machine one
symbol at a time; a symbol that leaves the machine in HUNT (a code
violation before lock, or a loss of lock) resumes the comma hunt one
bit past that symbol. Same arguments and return value as the codec
method, with the codec passed first.
"""

from typing import List, Optional

import numpy as np

from repro.coding import (
    COMMA, SYMBOL_BITS, BitSlipAligner, DecodedFrame, LinkLockStateMachine,
    LinkState, LinkStats, decode_stream,
)


def decode_frame(codec, bits, n_bytes: Optional[int] = None
                 ) -> DecodedFrame:
    """Align, decode, lock-track and descramble one frame, symbol by
    symbol."""
    bits = (np.asarray(bits).astype(np.uint8) & 1)
    stats = LinkStats()
    sm = LinkLockStateMachine(
        lock_commas=codec.lock_commas,
        loss_window=codec.loss_window,
        loss_violations=codec.loss_violations,
    )
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
        stop = alignment.position + n_sym * SYMBOL_BITS
        decoded = decode_stream(bits[alignment.position:stop],
                                rd=alignment.polarity)
        commas = decoded.k & (decoded.data == COMMA) \
            & ~decoded.violations
        resume_at = None
        for s in range(n_sym):
            state = sm.step(bool(commas[s]),
                            bool(decoded.violations[s]))
            stats.code_violations += int(decoded.violations[s])
            stats.disparity_errors += int(decoded.disparity_errors[s])
            if state is LinkState.LOCKED and not commas[s] \
                    and not decoded.k[s]:
                payload_symbols.append(decoded.data[s:s + 1])
            stats.commas += int(commas[s])
            if state is LinkState.HUNT:
                resume_at = alignment.position + (s + 1) * SYMBOL_BITS
                break
        stats.symbols = sm.symbols
        if resume_at is None:
            break
        pos = resume_at
    stats.lock_acquisitions = sm.acquisitions
    stats.lock_losses = sm.losses
    stats.lock_time_symbols = sm.first_lock_symbols
    stats.locked = sm.locked
    payload = (np.concatenate(payload_symbols)
               if payload_symbols else np.zeros(0, dtype=np.uint8))
    if codec.scramble and len(payload):
        descrambled, _ = codec.scrambler.descramble(np.unpackbits(payload))
        payload = np.packbits(descrambled)
    if n_bytes is not None:
        payload = payload[:n_bytes]
    stats.payload_symbols = len(payload)
    return DecodedFrame(payload=payload, stats=stats)


def decode_frame_batch(codec, bits, n_bytes: Optional[int] = None
                       ) -> List[DecodedFrame]:
    """:func:`decode_frame` over every row of a ``(channels, n)``
    block."""
    return [decode_frame(codec, row, n_bytes=n_bytes)
            for row in np.asarray(bits)]
