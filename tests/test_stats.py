"""Statistics instruments against independent oracles."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tsforge import stats
from tsforge.stats import StatsError

from oracles import acf_reference


class TestMoments:
    def test_symmetric_data_zero_skew(self):
        m = stats.moments([-2, -1, 1, 2])
        assert m.skewness == pytest.approx(0.0, abs=1e-12)

    def test_normal_sample_kurtosis_near_three(self):
        rng = np.random.Generator(np.random.Philox(100))
        m = stats.moments(rng.standard_normal(1_000_000))
        assert 2.9 < m.kurtosis < 3.1

    def test_two_point_distribution_minimal_kurtosis(self):
        m = stats.moments([-1.0, -1.0, 1.0, 1.0])
        assert m.kurtosis == 1.0
        assert m.skewness == 0.0

    def test_table_fields(self):
        rng = np.random.Generator(np.random.Philox(4))
        x = rng.standard_normal(500)
        m = stats.moments(x)
        assert m.n == 500
        assert m.min <= m.q25 <= m.q50 <= m.q75 <= m.max
        assert m.std == pytest.approx(x.std(ddof=1))
        labels = [k for k, _ in m.rows()]
        assert labels == ["count", "mean", "std", "min", "25%", "50%", "75%", "max",
                          "skewness", "kurtosis"]

    def test_constant_series_has_no_shape(self):
        # NaN shape statistics, as scipy's skew and kurtosis give; the mean
        # of 0.1 or 0.7 repeated misses the value by an ulp, std is still 0
        for value, n in ((3.0, 4), (0.1, 7), (0.7, 100)):
            m = stats.moments(np.full(n, value))
            assert (m.n, m.std, m.min, m.max, m.q50) == (n, 0.0, value, value, value)
            assert math.isnan(m.skewness) and math.isnan(m.kurtosis)

    def test_too_short_rejected(self):
        with pytest.raises(StatsError):
            stats.moments([1.0, 2.0, 3.0])

    def test_affine_invariance(self):
        rng = np.random.Generator(np.random.Philox(5))
        x = rng.standard_t(df=5, size=5000)
        a = stats.moments(x)
        b = stats.moments(3.7 * x + 0.2)
        assert abs(a.skewness - b.skewness) < 1e-9
        assert abs(a.kurtosis - b.kurtosis) < 1e-9

    def test_self_concatenation_invariance(self):
        rng = np.random.Generator(np.random.Philox(6))
        x = rng.standard_normal(400)
        a = stats.moments(x)
        b = stats.moments(np.concatenate([x, x]))
        assert a.mean == pytest.approx(b.mean, rel=1e-12)
        assert a.skewness == pytest.approx(b.skewness, rel=1e-9)
        assert a.kurtosis == pytest.approx(b.kurtosis, rel=1e-9)

    def test_higher_moments_match_exact_sums(self):
        x = np.random.Generator(np.random.Philox(7)).standard_t(df=3, size=20_000)
        c = (x - math.fsum(x) / x.size).tolist()
        m2, m3, m4 = (math.fsum(v ** k for v in c) / x.size for k in (2, 3, 4))
        m = stats.moments(x)
        assert m.skewness == pytest.approx(m3 / m2 ** 1.5, rel=1e-12)
        assert m.kurtosis == pytest.approx(m4 / m2 ** 2, rel=1e-12)


class TestAcf:
    def test_lag_zero_is_one(self):
        rng = np.random.Generator(np.random.Philox(7))
        rep = stats.acf(rng.standard_normal(200), 10)
        assert rep.values[0] == pytest.approx(1.0)

    def test_alternating_series(self):
        x = np.tile([1.0, -1.0], 500)
        rep = stats.acf(x, 1)
        assert rep.values[1] == pytest.approx(-1.0, abs=2e-3)

    def test_matches_reference_transcription(self):
        rng = np.random.Generator(np.random.Philox(8))
        x = rng.standard_normal(300)
        rep = stats.acf(x, 20)
        np.testing.assert_allclose(rep.values, acf_reference(x, 20), rtol=1e-12)

    def test_white_noise_band_coverage(self):
        rng = np.random.Generator(np.random.Philox(16))
        x = rng.standard_normal(10_000)
        rep = stats.acf(x, 50)
        inside = np.mean(np.abs(rep.values[1:]) <= rep.band)
        assert inside >= 0.93

    def test_white_noise_outside_fraction_near_5pct(self):
        rng = np.random.Generator(np.random.Philox(16))
        x = rng.standard_normal(10_000)
        rep = stats.acf(x, 400)
        outside = np.mean(np.abs(rep.values[1:]) > rep.band)
        assert abs(outside - 0.05) <= 0.03

    def test_constant_rejected(self):
        with pytest.raises(StatsError):
            stats.acf(np.ones(50), 5)

    def test_max_lag_bound(self):
        with pytest.raises(StatsError):
            stats.acf(np.arange(10.0), 10)

    def test_affine_invariance(self):
        rng = np.random.Generator(np.random.Philox(11))
        x = rng.standard_normal(500)
        a = stats.acf(x, 20).values
        b = stats.acf(2.5 * x - 7.0, 20).values
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_window_rows_pool_one_mean_and_one_denominator(self):
        # a series is one row of itself, bit for bit
        rows = np.random.Generator(np.random.Philox(27)).standard_normal((7, 30))
        rep = stats.acf(rows, 12)
        np.testing.assert_allclose(rep.values, acf_reference(rows, 12), rtol=1e-12)
        assert rep.band == 1.96 / np.sqrt(7 * 30)
        assert stats.acf(rows[:1], 12).values.tobytes() == stats.acf(rows[0], 12).values.tobytes()
        with pytest.raises(StatsError, match="got 3 dimensions"):
            stats.acf(rows[:, :, None], 5)

    @pytest.mark.parametrize("phi", [0.3, 0.5])
    def test_ar1_lag_one_near_phi_in_windows_of_16(self, phi):
        # 2,000 rows of 16 from one AR(1) path: the pooled lag-1 ACF is
        # phi (L - 1) / L, within about 0.006 (one standard error), so within
        # 0.05 of phi. Each row's own mean would pull it down by about
        # (1 + phi) / L more: 0.317 at phi = 0.5, measured.
        rng = np.random.Generator(np.random.Philox(31))
        e = rng.standard_normal(16 * 2000)
        x = np.empty_like(e)
        x[0] = e[0]
        for t in range(1, e.size):
            x[t] = phi * x[t - 1] + e[t]
        rows = x.reshape(-1, 16)
        assert abs(stats.acf(rows, 3).values[1] - phi) < 0.05
        per_row = np.mean([acf_reference(r, 1)[1] for r in rows])
        assert abs(per_row - phi) > 0.08


class TestAcfAbsolute:
    def test_nonnegative_series_identical(self):
        rng = np.random.Generator(np.random.Philox(12))
        x = np.abs(rng.standard_normal(300))
        np.testing.assert_allclose(stats.acf(np.abs(x), 10).values,
                                   stats.acf(x, 10).values, rtol=1e-12)

    def test_two_regime_volatility_clustering(self):
        # alternating calm/wild blocks: |x| is strongly autocorrelated
        rng = np.random.Generator(np.random.Philox(13))
        blocks = []
        for i in range(40):
            sigma = 0.3 if i % 2 == 0 else 3.0
            blocks.append(rng.standard_normal(50) * sigma)
        x = np.concatenate(blocks)
        rep = stats.acf(np.abs(x), 10)
        assert np.all(rep.values[1:] > 0.0)

    def test_real_fixture_slow_decay(self, btc_prices):
        from tsforge.data import log_returns
        r = log_returns(btc_prices)
        rep = stats.acf(np.abs(r), 20)
        assert np.mean(rep.values[1:]) > 0.03


class TestQq:
    def test_self_reference_identity(self):
        rng = np.random.Generator(np.random.Philox(14))
        x = rng.standard_normal(500)
        rep = stats.qq_points(x, x)
        np.testing.assert_allclose(rep.theoretical, rep.sample, atol=1e-12)

    def test_normal_sample_close_to_line(self):
        rng = np.random.Generator(np.random.Philox(15))
        x = rng.standard_normal(100_000)
        rep = stats.qq_points(x, "normal")
        n = len(rep.sample)
        central = slice(int(0.01 * n), int(0.99 * n))
        line = rep.slope * rep.theoretical[central] + rep.intercept
        assert np.max(np.abs(rep.sample[central] - line)) < 0.1

    def test_student_t_fat_tail_signature(self):
        rng = np.random.Generator(np.random.Philox(16))
        x = rng.standard_t(df=3, size=50_000)
        rep = stats.qq_points(x, "normal")
        n = len(rep.sample)
        line = rep.slope * rep.theoretical + rep.intercept
        right = slice(int(0.999 * n), n)
        left = slice(0, max(1, int(0.001 * n)))
        assert np.mean(rep.sample[right] - line[right]) > 0.0
        assert np.mean(rep.sample[left] - line[left]) < 0.0

    def test_unequal_sizes_allowed(self):
        rng = np.random.Generator(np.random.Philox(17))
        rep = stats.qq_points(rng.standard_normal(500), rng.standard_normal(1200))
        assert len(rep.theoretical) == len(rep.sample) == 500

    def test_symmetry_up_to_axis_swap(self):
        rng = np.random.Generator(np.random.Philox(18))
        a = rng.standard_normal(400)
        b = rng.standard_normal(700) * 2.0
        ab = stats.qq_points(a, b)
        ba = stats.qq_points(b, a)
        np.testing.assert_allclose(ab.theoretical, ba.sample, atol=1e-12)
        np.testing.assert_allclose(ab.sample, ba.theoretical, atol=1e-12)

    def test_sample_quantiles_non_decreasing(self):
        rng = np.random.Generator(np.random.Philox(19))
        rep = stats.qq_points(rng.standard_normal(333), "normal")
        assert np.all(np.diff(rep.sample) >= 0)

    def test_normal_qq_and_compare_load_no_scipy(self):
        # numpy and the standard library are the only run-time dependencies
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        code = ("import sys\nimport numpy as np\nimport tsforge.cli\n"
                "from tsforge import stats\n"
                "x = np.random.default_rng(1).standard_normal(300)\n"
                "stats.qq_points(x, 'normal')\n"
                "stats.compare_distributions(x, x[:200].reshape(10, 20), max_lag=10)\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_normal_reference_strictly_increasing(self):
        # the precondition under which the quartile line takes _sorted_quantiles
        for n in [*range(10, 3000), 47_920]:
            theo = stats.qq_points(np.arange(n, dtype=np.float64), "normal").theoretical
            assert np.all(np.diff(theo) > 0), n

    def test_normal_reference_within_5_ulp_of_a_40_digit_reference(self):
        """The worst over every point of n = 10, 11, 1280, 2415 and 47,920 is
        4.75 ulp (scipy's ndtri: 4.36); 47,920 is checked at every 4th point,
        which holds that worst one. The reference is one Newton step on the
        normal cdf from the float64 value at 40 digits: from an error near
        1e-15, the step lands within about 1e-29."""
        mpmath = pytest.importorskip("mpmath")
        for n, step in ((10, 1), (11, 1), (1280, 1), (2415, 1), (47_920, 4)):
            theo = stats.qq_points(np.arange(n, dtype=np.float64), "normal").theoretical
            got, p = theo[::step].tolist(), stats._plotting_positions(n)[::step].tolist()
            with mpmath.workdps(40):
                ulps = []
                for g, q in zip(got, p):
                    x = mpmath.mpf(g)
                    exact = x - (mpmath.ncdf(x) - q) / mpmath.npdf(x)
                    ulps.append(float(abs(x - exact)) / np.spacing(abs(float(exact))))
            assert max(ulps) <= 5.0, n

    @settings(max_examples=200, deadline=None)
    @given(a=hnp.arrays(np.float64, st.integers(1, 80), elements=st.floats(-1e300, 1e300)),
           q=hnp.arrays(np.float64, st.integers(1, 20), elements=st.floats(0.0, 1.0)))
    @example(a=np.array([0.0, 0.0, 0.0, 0.0, -0.0, -0.0]), q=np.array([0.9]))
    def test_sorted_quantiles_equal_np_quantile_bit_for_bit(self, a, q):
        # -0.0 and +0.0 sort as equals, and np.quantile's partition moves them
        # in a way that depends on the host's sort, so the sign of a zero
        # quantile is not part of the contract: + 0.0 maps -0.0 alone to +0.0
        a = np.sort(a)
        assert (stats._sorted_quantiles(a, q) + 0.0).tobytes() == (np.quantile(a, q)
                                                                   + 0.0).tobytes()

    def test_sorted_quantiles_of_nan_are_nan_like_np_quantile(self):
        a, q = np.array([-1.0, 0.5, np.nan]), np.array([0.0, 0.3, 1.0])
        assert stats._sorted_quantiles(a, q).tobytes() == np.quantile(a, q).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(x=hnp.arrays(np.float64, st.integers(10, 300), elements=st.floats(-1e3, 1e3)),
           ref=st.just("normal") | hnp.arrays(np.float64, st.integers(10, 300),
                                              elements=st.floats(-1e3, 1e3)))
    @example(x=np.full(24, -0.0), ref=np.repeat([0.0, 1.0], 12))
    def test_reference_line_equals_np_quantile_bit_for_bit(self, x, ref):
        # the quartiles come from the report's quantiles without a partition,
        # which is exact because both sides are sorted; the sign of a zero is
        # not compared (see the test above)
        try:
            rep = stats.qq_points(x, ref)
        except StatsError:     # zero variance or equal reference quartiles
            reject()
        assert np.all(np.diff(rep.theoretical) >= 0) and np.all(np.diff(rep.sample) >= 0)
        tx, ty = (np.quantile(q, [0.25, 0.75]) for q in (rep.theoretical, rep.sample))
        slope = (ty[1] - ty[0]) / (tx[1] - tx[0])
        want = np.array([slope, ty[0] - slope * tx[0]])
        assert (np.array([rep.slope, rep.intercept]) + 0.0).tobytes() == (want + 0.0).tobytes()

    def test_degenerate_rejected(self):
        with pytest.raises(StatsError):
            stats.qq_points(np.ones(50), "normal")

    def test_subnormal_quartile_gap_rejected(self):
        # the slope overflows, so there is no finite reference line
        with pytest.raises(StatsError, match="degenerate reference quantiles"):
            stats.qq_points(np.arange(40.0), np.repeat([0.0, 5e-324], 20))
        with pytest.raises(StatsError):
            stats.qq_points(np.arange(5.0), "normal")


class TestHistogram:
    def test_uniform_data_equal_densities(self):
        rng = np.random.Generator(np.random.Philox(20))
        x = rng.uniform(0, 1, size=100_000)
        rep = stats.histogram({"u": x}, bins=10)
        np.testing.assert_allclose(rep.densities["u"], 1.0, atol=0.05)

    def test_single_bin_density(self):
        rep = stats.histogram({"x": np.array([0.0, 0.5, 1.0])}, bins=1)
        width = rep.edges[1] - rep.edges[0]
        assert rep.densities["x"][0] == pytest.approx(1.0 / width)

    def test_identical_datasets_identical_reports(self):
        rng = np.random.Generator(np.random.Philox(21))
        x = rng.standard_normal(1000)
        rep = stats.histogram({"a": x, "b": x.copy()}, bins=20)
        np.testing.assert_array_equal(rep.densities["a"], rep.densities["b"])

    def test_densities_integrate_to_one(self):
        rng = np.random.Generator(np.random.Philox(22))
        rep = stats.histogram({"a": rng.standard_normal(5000),
                               "b": rng.standard_t(df=3, size=3000)}, bins=40)
        widths = np.diff(rep.edges)
        for dens in rep.densities.values():
            assert np.sum(dens * widths) == pytest.approx(1.0, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(StatsError):
            stats.histogram({"a": np.array([])})


class TestCompare:
    def test_real_vs_real(self):
        rng = np.random.Generator(np.random.Philox(23))
        x = rng.standard_normal(2000) * 0.02
        rep = stats.compare_distributions(x, x.copy(), max_lag=20)
        assert rep.moments_real.skewness == pytest.approx(rep.moments_synthetic.skewness)
        np.testing.assert_allclose(rep.qq_synthetic_vs_real.theoretical,
                                   rep.qq_synthetic_vs_real.sample, atol=1e-12)

    def test_fixture_negative_skew_fat_tails(self, btc_prices):
        from tsforge.data import log_returns
        r = log_returns(btc_prices)
        rng = np.random.Generator(np.random.Philox(24))
        rep = stats.compare_distributions(r, rng.standard_normal(2000) * 0.02)
        assert rep.moments_real.skewness < 0.0
        assert rep.moments_real.kurtosis > 3.0

    def test_untrained_generator_robustness(self, btc_prices):
        from tsforge.data import log_returns
        from tsforge.gan import generate
        from tsforge.nn import ArchitectureSpec, init_params
        gen = init_params(ArchitectureSpec(noise_len=5, seq_len=20, features=1,
                                           lstm_units=4), "generator", 9)
        synth = generate(gen, 16, seed=1)[:, :, 0]
        r = log_returns(btc_prices)
        rep = stats.compare_distributions(r, synth, max_lag=30)
        assert len(rep.acf_synthetic.values) == 20  # capped at window length - 1 + 1

    def test_four_acfs_share_one_lag(self, btc_prices):
        # short synthetic windows cap every ACF, and the real series is cut
        # into rows of their length; each lag's sum does not depend on the
        # largest lag asked for
        from tsforge.data import log_returns
        r = log_returns(btc_prices)
        windows = np.random.Generator(np.random.Philox(26)).standard_normal((16, 20)) * 0.02
        rep = stats.compare_distributions(r, windows, max_lag=50)
        for got in (rep.acf_real, rep.acf_synthetic, rep.acf_abs_real, rep.acf_abs_synthetic):
            np.testing.assert_array_equal(got.lags, np.arange(20))
        real_rows = r[: r.size // 20 * 20].reshape(-1, 20)
        assert rep.acf_real.values.tobytes() == stats.acf(real_rows, 19).values.tobytes()
        assert (rep.acf_abs_real.values.tobytes()
                == stats.acf(np.abs(real_rows), 19).values.tobytes())
        assert rep.acf_real.band == 1.96 / np.sqrt(r.size // 20 * 20)
        short = stats.compare_distributions(windows, r, max_lag=50)   # either side caps
        assert len(short.acf_real.values) == len(short.acf_synthetic.values) == 20

    def test_batched_acf_pooling(self):
        rng = np.random.Generator(np.random.Philox(25))
        windows = rng.standard_normal((30, 40))
        rep = stats.compare_distributions(rng.standard_normal(500), windows, max_lag=10)
        np.testing.assert_allclose(rep.acf_synthetic.values, acf_reference(windows, 10),
                                   rtol=1e-12)
        # bit for bit the same over the strided rows of an F-ordered batch
        # (the layout gan.generate returns)
        for batch in (windows, np.asfortranarray(windows)):
            rep = stats.compare_distributions(rng.standard_normal(500), batch, max_lag=10)
            for got, absolute in ((rep.acf_synthetic, False), (rep.acf_abs_synthetic, True)):
                rows = np.abs(windows) if absolute else windows
                assert got.values.tobytes() == stats.acf(rows, 10).values.tobytes()

    @pytest.mark.parametrize("length", [16, 50])
    def test_the_data_own_windows_reproduce_the_real_columns(self, btc_prices, length):
        # a generator that returns the data's own windows (every 7th start)
        # scores the data's ACFs within 0.04 at lags 1-5 (measured worst:
        # 0.029, |r| at lag 3 and L = 16), where each window's own mean put
        # the |r| columns about 0.1 apart
        from tsforge.data import log_returns
        r = log_returns(btc_prices)
        starts = range(0, r.size - length + 1, 7)
        windows = np.stack([r[s:s + length] for s in starts])
        rep = stats.compare_distributions(r, windows, max_lag=5)
        np.testing.assert_allclose(rep.acf_synthetic.values, rep.acf_real.values, atol=0.04)
        np.testing.assert_allclose(rep.acf_abs_synthetic.values, rep.acf_abs_real.values,
                                   atol=0.04)

    def test_empty_rejected(self):
        with pytest.raises(StatsError):
            stats.compare_distributions(np.array([]), np.array([1.0]))

    def test_three_dimensional_windows_rejected(self):
        rng = np.random.Generator(np.random.Philox(28))
        windows = rng.standard_normal((16, 20, 1))
        with pytest.raises(StatsError, match="2-D window rows"):
            stats.compare_distributions(rng.standard_normal(500), windows, max_lag=10)
