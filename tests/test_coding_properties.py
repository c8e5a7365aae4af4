"""Property-based tests (hypothesis) on the coded-link invariants.

Round-trip identity with and without scrambling, running disparity
confined to {-1, +1}, the max-run-length guarantee, bit-slip
recovery from every slip offset, scalar/batch bit-identity of the
framed encode, and the array lock scan of ``LinkCodec.decode_frame``
against the per-symbol state-machine loop of
``tests/_coding_reference.py`` on damaged streams.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.coding import (
    COMMA, SYMBOL_BITS,
    BitSlipAligner, LinkCodec, Scrambler,
    bits_to_symbols, decode_stream, encode_stream,
)
from tests import _coding_reference

payloads = st.lists(st.integers(0, 255), min_size=1, max_size=120)
disparities = st.sampled_from([-1, +1])


class TestRoundTrip:
    @given(data=payloads, rd=disparities)
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_identity(self, data, rd):
        arr = np.array(data, dtype=np.uint8)
        bits, rd_out = encode_stream(arr, rd=rd)
        res = decode_stream(bits, rd=rd)
        assert res.clean
        assert res.rd == rd_out
        np.testing.assert_array_equal(res.data, arr)
        assert not res.k.any()

    @given(data=payloads, seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_scrambled_roundtrip_identity(self, data, seed):
        arr = np.array(data, dtype=np.uint8)
        scr = Scrambler()
        state = np.random.default_rng(seed).integers(
            0, 2, size=scr.taps[1]).astype(np.uint8)
        bits = np.unpackbits(arr)
        line, _ = scr.scramble(bits, state=state)
        back, _ = scr.descramble(line, state=state)
        np.testing.assert_array_equal(back, bits)

    @given(data=payloads, scramble=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_frame_roundtrip(self, data, scramble):
        arr = np.array(data, dtype=np.uint8)
        codec = LinkCodec(scramble=scramble)
        frame = codec.decode_frame(codec.encode_frame(arr),
                                   n_bytes=len(arr))
        assert frame.clean
        np.testing.assert_array_equal(frame.payload, arr)


class TestLineInvariants:
    @given(data=payloads, rd=disparities)
    @settings(max_examples=60, deadline=None)
    def test_running_disparity_stays_unit(self, data, rd):
        # Walk the stream symbol by symbol; RD after every prefix
        # must be exactly -1 or +1.
        arr = np.array(data, dtype=np.uint8)
        for cut in range(1, len(arr) + 1):
            _, rd_out = encode_stream(arr[:cut], rd=rd)
            assert rd_out in (-1, +1)

    @given(data=st.lists(st.integers(0, 255), min_size=4,
                         max_size=200),
           rd=disparities)
    @settings(max_examples=60, deadline=None)
    def test_max_run_length_five(self, data, rd):
        arr = np.array(data, dtype=np.uint8)
        bits, _ = encode_stream(arr, rd=rd)
        run, longest = 1, 1
        for a, b in zip(bits[:-1], bits[1:]):
            run = run + 1 if a == b else 1
            longest = max(longest, run)
        assert longest <= 5

    @given(data=payloads, rd=disparities)
    @settings(max_examples=30, deadline=None)
    def test_line_is_dc_balanced(self, data, rd):
        arr = np.array(data, dtype=np.uint8)
        bits, rd_out = encode_stream(arr, rd=rd)
        # Cumulative imbalance equals the RD movement: entry rd to
        # exit rd_out over the whole stream.
        imbalance = 2 * int(bits.sum()) - bits.size
        assert imbalance == rd_out - rd


class TestBitSlipRecovery:
    @given(slip=st.integers(0, SYMBOL_BITS - 1),
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_aligner_recovers_every_offset(self, slip, seed):
        rng = np.random.default_rng(seed)
        payload = rng.integers(0, 256, size=40).astype(np.uint8)
        codec = LinkCodec(n_preamble=4)
        line = codec.encode_frame(payload)
        # Drop `slip` leading bits, as a serdes losing bit-lock
        # would; pad the tail so the frame stays complete.
        slipped = np.concatenate([
            line[slip:], rng.integers(0, 2, size=slip)
        ]).astype(np.uint8)
        aligner = BitSlipAligner()
        al = aligner.find(slipped)
        assert al is not None
        # Alignment lands on a comma boundary: the recovered word
        # stream starts with the comma symbol.
        words = aligner.aligned_words(slipped, al)
        first = int(bits_to_symbols(words[0].reshape(-1))[0])
        from repro.coding import COMMA_CODES
        assert first in COMMA_CODES

    @given(slip=st.integers(0, SYMBOL_BITS - 1),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_frame_decodes_after_slip(self, slip, seed):
        rng = np.random.default_rng(seed)
        payload = rng.integers(0, 256, size=32).astype(np.uint8)
        codec = LinkCodec()
        line = codec.encode_frame(payload)
        slipped = np.concatenate([
            rng.integers(0, 2, size=SYMBOL_BITS - slip), line
        ]).astype(np.uint8) if slip else line
        frame = codec.decode_frame(slipped, n_bytes=len(payload))
        assert frame.stats.locked
        np.testing.assert_array_equal(frame.payload, payload)

    def test_false_comma_in_prefix_rehunts(self):
        """Leading garbage that completes a comma with the first line
        bit pins a wrong boundary; the code violations that follow,
        before lock, send the receiver back to the comma hunt, and it
        locks on the true preamble."""
        codec = LinkCodec(comma_period=16)
        payload = np.arange(256).astype(np.uint8)
        line = codec.encode_frame(payload)
        prefix = np.array([0, 0, 1, 1, 1, 1, 1, 0, 1], dtype=np.uint8)
        bits = np.concatenate([prefix, line])
        assert BitSlipAligner().find(bits).position == 0
        frame = codec.decode_frame(bits, n_bytes=len(payload))
        assert frame.stats.locked
        assert frame.stats.lock_time_symbols < 2 * (codec.comma_period + 1)
        np.testing.assert_array_equal(frame.payload, payload)


class TestScalarBatchIdentity:
    @given(seed=st.integers(0, 2**16),
           n_rows=st.integers(1, 6),
           n_bytes=st.integers(1, 64),
           scramble=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_encode_frame_batch_bit_identical(self, seed, n_rows,
                                              n_bytes, scramble):
        rng = np.random.default_rng(seed)
        payloads = rng.integers(0, 256, size=(n_rows, n_bytes)) \
            .astype(np.uint8)
        codec = LinkCodec(scramble=scramble)
        batch = codec.encode_frame_batch(payloads)
        for row, payload in zip(batch, payloads):
            np.testing.assert_array_equal(
                row, codec.encode_frame(payload))

    @given(seed=st.integers(0, 2**16), n_rows=st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_decode_frame_batch_matches_scalar(self, seed, n_rows):
        rng = np.random.default_rng(seed)
        payloads = rng.integers(0, 256, size=(n_rows, 48)) \
            .astype(np.uint8)
        codec = LinkCodec(scramble=True)
        batch_bits = codec.encode_frame_batch(payloads)
        frames = codec.decode_frame_batch(batch_bits, n_bytes=48)
        for frame, payload in zip(frames, payloads):
            assert frame.clean
            np.testing.assert_array_equal(frame.payload, payload)


@st.composite
def lock_codecs(draw):
    """A codec over the whole lock/loss parameter space."""
    lock_commas = draw(st.integers(1, 4))
    loss_violations = draw(st.integers(1, 6))
    return LinkCodec(
        scramble=draw(st.booleans()),
        n_preamble=lock_commas + draw(st.integers(0, 3)),
        comma_period=draw(st.integers(0, 20)),
        lock_commas=lock_commas,
        loss_window=loss_violations + draw(st.integers(0, 20)),
        loss_violations=loss_violations,
    )


class TestLockScanMatchesStateMachine:
    """``decode_frame`` tracks lock with one array scan per aligned
    segment; stepping ``LinkLockStateMachine`` symbol by symbol must
    give the same stats and payload on every stream, however
    damaged."""

    @staticmethod
    def _check(codec, bits, n_bytes):
        got = codec.decode_frame(bits, n_bytes=n_bytes)
        want = _coding_reference.decode_frame(codec, bits,
                                              n_bytes=n_bytes)
        assert got.stats == want.stats
        assert got.payload.dtype == want.payload.dtype
        np.testing.assert_array_equal(got.payload, want.payload)
        return want

    @given(codec=lock_codecs(), seed=st.integers(0, 2**32 - 1),
           n_bytes=st.integers(1, 100),
           flips=st.integers(0, 6), burst=st.integers(0, 80),
           deletions=st.integers(0, 3), prefix=st.integers(0, 40),
           second=st.booleans(), truncate=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_damaged_stream(self, codec, seed, n_bytes, flips, burst,
                            deletions, prefix, second, truncate):
        rng = np.random.default_rng(seed)
        bits = codec.encode_frame(
            rng.integers(0, 256, n_bytes).astype(np.uint8))
        bits[rng.integers(0, len(bits), flips)] ^= 1
        at = int(rng.integers(0, len(bits)))
        bits[at:at + burst] ^= 1  # a violation burst: loses lock
        for _ in range(deletions):  # a slipped boundary
            bits = np.delete(bits, rng.integers(0, len(bits)))
        bits = np.concatenate([rng.integers(0, 2, prefix), bits])
        if second:
            tail = codec.encode_frame(rng.integers(
                0, 256, int(rng.integers(1, 60))).astype(np.uint8))
            bits = np.concatenate([
                bits, rng.integers(0, 2, int(rng.integers(0, 40))),
                tail])
        if truncate:
            bits = bits[:int(rng.integers(0, 3 * SYMBOL_BITS))]
        self._check(codec, bits.astype(np.uint8),
                    n_bytes if seed % 2 else None)

    @given(codec=lock_codecs(),
           bits=st.lists(st.integers(0, 1), max_size=3 * SYMBOL_BITS))
    @settings(max_examples=60, deadline=None)
    def test_empty_and_short_input(self, codec, bits):
        self._check(codec, np.array(bits, dtype=np.uint8), None)

    def test_damage_reaches_loss_and_relock(self):
        """The damaged-stream regime is not vacuous: a slip mid-frame
        loses lock and the trailing commas relock."""
        codec = LinkCodec(comma_period=8)
        payload = np.arange(200, dtype=np.uint8)
        bits = codec.encode_frame(payload)
        bits = np.delete(bits, [700, 701, 702])
        frame = self._check(codec, bits, None)
        assert frame.stats.lock_losses >= 1
        assert frame.stats.lock_acquisitions >= 2
        assert frame.stats.locked
