"""Statistics instruments against independent oracles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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

    def test_constant_series_rejected(self):
        with pytest.raises(StatsError):
            stats.moments([3.0, 3.0, 3.0, 3.0])

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


class TestAcfAbsolute:
    def test_nonnegative_series_identical(self):
        rng = np.random.Generator(np.random.Philox(12))
        x = np.abs(rng.standard_normal(300))
        np.testing.assert_allclose(stats.acf_absolute(x, 10).values,
                                   stats.acf(x, 10).values, rtol=1e-12)

    def test_two_regime_volatility_clustering(self):
        # alternating calm/wild blocks: |x| is strongly autocorrelated
        rng = np.random.Generator(np.random.Philox(13))
        blocks = []
        for i in range(40):
            sigma = 0.3 if i % 2 == 0 else 3.0
            blocks.append(rng.standard_normal(50) * sigma)
        x = np.concatenate(blocks)
        rep = stats.acf_absolute(x, 10)
        assert np.all(rep.values[1:] > 0.0)

    def test_real_fixture_slow_decay(self, btc_prices):
        from tsforge.data import log_returns
        r = log_returns(btc_prices)
        rep = stats.acf_absolute(r, 20)
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

    def test_import_leaves_scipy_unloaded(self):
        # scipy.special is most of the import time; only the normal QQ reference needs it
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        code = ("import sys, tsforge\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_degenerate_rejected(self):
        with pytest.raises(StatsError):
            stats.qq_points(np.ones(50), "normal")
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

    def test_batched_acf_averaging(self):
        rng = np.random.Generator(np.random.Philox(25))
        windows = rng.standard_normal((30, 40))
        rep = stats.compare_distributions(rng.standard_normal(500), windows, max_lag=10)
        manual = np.mean([acf_reference(w, 10) for w in windows], axis=0)
        np.testing.assert_allclose(rep.acf_synthetic.values, manual, rtol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(StatsError):
            stats.compare_distributions(np.array([]), np.array([1.0]))
