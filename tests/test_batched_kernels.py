"""The batched signal kernels against their reference oracle.

Each of the six kernels in :mod:`repro.signal._kernels` is compared,
bit for bit, with the plain implementation it replaced
(``tests/_kernel_reference.py``) over inputs that reach every branch:
integer and non-integer time grids, constant rows, samples exactly on
bin edges or thresholds, out-of-range values, multi-seed PRBS with
explicit block sizes. The module also pins the kernel caches: the
edge-template LRU under concurrency and the bound on the PRBS
block-matrix cache.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.crosstalk import CrosstalkMatrix, CouplingSpec
from repro.errors import ConfigurationError
from repro.signal import _kernels, prbs_bits_batch
from repro.signal._kernels import (
    coupling_mix,
    density_bin,
    eye_fold,
    prbs_blockwise,
    render_nrz_batch,
    sosfilt_batch,
)
from repro.signal.edges import EdgeShape
from repro.signal.prbs import PRBS_POLYNOMIALS, prbs_bits_scalar
from tests import _kernel_reference as ref


def _assert_same(got, want):
    """Tuples of arrays (or arrays) equal element for element."""
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
        return
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


# -- NRZ render -----------------------------------------------------------


class TestRenderNRZBatch:
    @given(seed=st.integers(0, 2 ** 31 - 1),
           n_rows=st.integers(1, 24),
           n_bits=st.integers(1, 40),
           ui=st.sampled_from([100.0, 400.0, 1000.0 / 3.0]),
           dt=st.sampled_from([1.0, 2.5, 0.75]),
           t20_80=st.sampled_from([0.0, 40.0, 72.0, 120.0]),
           shape=st.sampled_from(list(EdgeShape)),
           rj=st.sampled_from([0.0, 3.0]))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, seed, n_rows, n_bits, ui, dt,
                               t20_80, shape, rj):
        """Grouped-profile (integer grid) and flattened (jittered or
        fractional grid) renders both match the flattened oracle,
        including constant rows and edges whose window runs off
        either end of the record."""
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(n_rows, n_bits), dtype=np.int8)
        bits[rng.random(n_rows) < 0.3] = 1  # constant rows: no edges
        rows, change = np.nonzero(np.diff(bits, axis=1))
        times = (change + 1) * ui + rng.normal(0.0, rj, len(change))
        directions = np.where(bits[rows, change + 1] > 0, 1.0, -1.0)
        t_start = -ui
        n = int(round((n_bits + 2) * ui / dt)) + 1
        base = -0.4 + 0.8 * bits[:, 0].astype(np.float64)
        args = (n_rows, n, t_start, dt, base, 0.8, times, directions,
                rows, t20_80, shape)
        _assert_same(render_nrz_batch(*args), ref.render_nrz_batch(*args))


# -- channel filter and crosstalk -----------------------------------------


class TestFilterAndCoupling:
    @pytest.mark.parametrize("order,wn,n_imp", [
        (4, 0.05, 64), (4, 0.3, 200), (2, 0.9, 64), (6, 0.01, 1000),
    ])
    def test_sosfilt_matches_reference(self, order, wn, n_imp):
        values = np.random.default_rng(order).normal(size=(5, 700))
        want = ref.sosfilt_batch(values, order, wn, n_imp)
        for _ in range(2):  # cold, then memoized design
            _assert_same(sosfilt_batch(values, order, wn, n_imp), want)

    @pytest.mark.parametrize("n_rows,n_samples", [(6, 300), (3, 2),
                                                  (4, 0)])
    def test_coupling_mix_matches_reference(self, n_rows, n_samples):
        names = [f"ch{i}" for i in range(n_rows)]
        matrix = CrosstalkMatrix(
            names,
            adjacent=CouplingSpec(coupling=0.04, rise_scale_ps=60.0),
            next_adjacent=CouplingSpec(coupling=0.01,
                                       rise_scale_ps=0.01))
        values = np.random.default_rng(n_rows).normal(
            size=(n_rows, n_samples))
        key = ("test_coupling_mix", n_rows)
        want = ref.coupling_mix(values, 1.0, key,
                                lambda: matrix.coupling_weights())
        for _ in range(2):  # cold, then memoized weights
            got = coupling_mix(values, 1.0, key,
                               lambda: matrix.coupling_weights())
            _assert_same(got, want)
            assert got is not values


# -- eye fold and density binning -----------------------------------------


class TestEyeFold:
    @given(seed=st.integers(0, 2 ** 31 - 1), c=st.integers(0, 20),
           n=st.integers(0, 80))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, seed, c, n):
        """Rows of any length (including 0 and 1 sample), constant
        rows, and samples exactly on the threshold."""
        rng = np.random.default_rng(seed)
        values = np.round(rng.normal(size=(c, n)), 1)
        values[rng.random(c) < 0.2] = 0.5
        thresholds = np.round(rng.normal(size=c), 1)
        _assert_same(eye_fold(values, thresholds),
                     ref.eye_fold(values, thresholds))


class TestDensityBin:
    @given(seed=st.integers(0, 2 ** 31 - 1), c=st.integers(0, 20),
           n=st.integers(0, 80), nt=st.integers(1, 16),
           nv=st.integers(1, 16),
           v_lo=st.floats(-2.0, 0.0), v_span=st.floats(0.01, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, seed, c, n, nt, nv, v_lo, v_span):
        """Values exactly on every edge (the last edge folds into the
        last bin) and outside the range on both axes."""
        rng = np.random.default_rng(seed)
        t_edges = np.linspace(0.0, 400.0, nt + 1)
        v_edges = np.linspace(v_lo, v_lo + v_span, nv + 1)
        phases = rng.uniform(-20.0, 420.0, n)
        on_t = rng.random(n) < 0.25
        phases[on_t] = rng.choice(t_edges, on_t.sum())
        values = rng.uniform(v_lo - 0.3 * v_span,
                             v_lo + 1.3 * v_span, (c, n))
        on_v = rng.random((c, n)) < 0.25
        values[on_v] = rng.choice(v_edges, on_v.sum())
        values[rng.random((c, n)) < 0.05] = 1e300
        _assert_same(density_bin(phases, values, t_edges, v_edges),
                     ref.density_bin(phases, values, t_edges, v_edges))


# -- PRBS -----------------------------------------------------------------


class TestPRBSBlockwise:
    @given(order=st.sampled_from(sorted(PRBS_POLYNOMIALS)),
           length=st.integers(0, 600),
           seed_fracs=st.lists(st.integers(1, 10_000), max_size=6),
           block=st.one_of(st.none(), st.integers(1, 300)))
    @settings(max_examples=60, deadline=None)
    def test_multi_seed_matches_reference(self, order, length,
                                          seed_fracs, block):
        seeds = [1 + f % ((1 << order) - 1) for f in seed_fracs]
        tap_a, tap_b = PRBS_POLYNOMIALS[order]
        got = prbs_blockwise(order, length, seeds, tap_a, tap_b,
                             block=block)
        _assert_same(got, ref.prbs_blockwise(order, length, seeds,
                                             tap_a, tap_b, block=block))
        for row, seed in zip(got, seeds):
            _assert_same(row, prbs_bits_scalar(order, length, seed))

    def test_matrix_cache_bounded_over_lengths(self):
        """Default blocks are powers of two, so 1000 distinct lengths
        leave at most 14 cached matrix pairs per polynomial."""
        _kernels._prbs_matrix_cache.clear()
        lengths = range(1, 20_001, 20)
        for order in sorted(PRBS_POLYNOMIALS):
            for length in lengths:
                prbs_bits_batch(order, length, [1])
            entries = [k for k in _kernels._prbs_matrix_cache
                       if k[0] == order]
            assert len(entries) <= 14
        for length in (1, 23, 200, 257, 4097, 9000, 19_981):
            _assert_same(prbs_bits_batch(23, length, [1, 77])[1],
                         prbs_bits_scalar(23, length, 77))

    @pytest.mark.parametrize("order,length,block", [
        (7, 1, 7), (7, 9, 16), (15, 16, 16), (15, 17, 32),
        (23, 5000, 8192), (31, 20_000, 8192)])
    def test_default_block_is_clamped_power_of_two(self, order, length,
                                                   block):
        _kernels._prbs_matrix_cache.clear()
        tap_a, tap_b = PRBS_POLYNOMIALS[order]
        got = prbs_blockwise(order, length, 1, tap_a, tap_b)
        assert list(_kernels._prbs_matrix_cache) \
            == [(order, tap_a, tap_b, block)]
        _assert_same(got, prbs_bits_scalar(order, length, 1))

    def test_matrix_cache_never_exceeds_limit(self):
        """Explicit blocks are not rounded; the cache still stays
        bounded and results stay exact across the clear."""
        _kernels._prbs_matrix_cache.clear()
        tap_a, tap_b = PRBS_POLYNOMIALS[7]
        for block in range(7, 7 + 2 * _kernels._PRBS_CACHE_MAX):
            got = prbs_blockwise(7, 50, 3, tap_a, tap_b, block=block)
            assert len(_kernels._prbs_matrix_cache) \
                <= _kernels._PRBS_CACHE_MAX
            _assert_same(got, prbs_bits_scalar(7, 50, 3))

    def test_prbs_bits_batch_rows_match_serial(self):
        seeds = [1, 5, 130, (1 << 15) - 1]
        block = prbs_bits_batch(15, 200, seeds)
        assert block.shape == (4, 200)
        assert block.dtype == np.uint8
        for row, seed in zip(block, seeds):
            assert np.array_equal(row, prbs_bits_scalar(15, 200, seed))

    def test_prbs_bits_batch_empty_seeds(self):
        block = prbs_bits_batch(7, 100, [])
        assert block.shape == (0, 100)
        assert block.dtype == np.uint8

    def test_prbs_bits_batch_validates_like_serial(self):
        with pytest.raises(ConfigurationError, match="unsupported"):
            prbs_bits_batch(8, 10, [1])
        with pytest.raises(ConfigurationError, match="seed"):
            prbs_bits_batch(7, 10, [1, 0])
        with pytest.raises(ConfigurationError, match="seed"):
            prbs_bits_batch(7, 10, [1 << 7])


# -- caches under concurrency ---------------------------------------------


def test_template_cache_safe_under_concurrency():
    _kernels.clear_template_cache()
    errors = []

    def hammer(seed):
        rng = np.random.default_rng(seed)
        try:
            for i in range(200):
                t20_80 = float(rng.integers(20, 28))
                _kernels.edge_template(EdgeShape.ERF, t20_80, 25.0)
                if i % 50 == 17:
                    _kernels.clear_template_cache()
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(s,))
               for s in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert (_kernels.template_cache_size()
            <= _kernels._TEMPLATE_CACHE_MAX)
