"""Data pipeline: CSV loading, returns, windows, scaling, batching."""

import os
import re
import subprocess
import sys
from datetime import date, datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsforge import data
from tsforge.data import (DataError, PriceSeries, Scaler, build_dataset, fit_scale, load_csv,
                          log_returns, make_windows, returns_to_prices, sample_real_batch)

HEADER = "Date,Open,High,Low,Close,Adj Close,Volume"


def write_csv(path, rows):
    path.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")
    return path


def _fresh_interpreter(code: str) -> str:
    """stdout of ``code`` run by a new interpreter that imports this checkout's tsforge."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestLoadCsv:
    def test_basic_load(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", [
            "2020-01-01,1,1,1,100.0,100.0,5",
            "2020-01-02,1,1,1,101.0,101.0,5",
            "2020-01-03,1,1,1,99.5,99.5,5",
        ])
        series = load_csv(p)
        assert len(series) == 3
        assert series.dates[0] == date(2020, 1, 1)
        np.testing.assert_array_equal(series.closes, [100.0, 101.0, 99.5])

    def test_utf8_bom_before_the_header(self, btc_csv, btc_prices, tmp_path):
        # Excel's "CSV UTF-8" export starts with EF BB BF
        p = tmp_path / "excel.csv"
        p.write_bytes(b"\xef\xbb\xbf" + btc_csv.read_bytes())
        series = load_csv(p)
        assert series.dates == btc_prices.dates and series.dropped == btc_prices.dropped
        assert series.closes.tobytes() == btc_prices.closes.tobytes()

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    @pytest.mark.parametrize("rows", [1, 900], ids=["first_chunk", "later_chunk"])
    def test_undecodable_byte_names_its_offset(self, tmp_path, bom, rows):
        good = "".join(f"2020-01-{d % 28 + 1:02d},1,1,1,100.0,100.0,5\n" for d in range(rows))
        head = bom + (HEADER + "\n" + good).encode("utf-8")
        p = tmp_path / "latin1.csv"
        p.write_bytes(head + b"2021-01-01,1,1,1,99.5,99.5,\xa35\n")
        with pytest.raises(DataError, match=re.escape(f"{p}: byte {len(head) + 27} is not UTF-8")):
            load_csv(p)

    def test_null_close_dropped_and_counted(self, tmp_path, caplog):
        p = write_csv(tmp_path / "p.csv", [
            "2020-01-01,1,1,1,100.0,100.0,5",
            "2020-01-02,null,null,null,null,null,null",
            "2020-01-03,1,1,1,99.5,99.5,5",
        ])
        import logging
        with caplog.at_level(logging.WARNING):
            series = load_csv(p)
        assert len(series) == 2
        assert series.dropped == 1
        assert "dropped 1" in caplog.text

    def test_zero_close_dropped(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", [
            "2020-01-01,1,1,1,100.0,100.0,5",
            "2020-01-02,1,1,1,0,0,5",
            "2020-01-03,1,1,1,99.5,99.5,5",
        ])
        assert load_csv(p).dropped == 1

    def test_single_row_rejected(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", ["2020-01-01,1,1,1,100.0,100.0,5"])
        with pytest.raises(DataError):
            load_csv(p)

    def test_duplicate_dates_rejected(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", [
            "2020-01-01,1,1,1,100.0,100.0,5",
            "2020-01-01,1,1,1,101.0,101.0,5",
        ])
        with pytest.raises(DataError):
            load_csv(p)

    def test_rows_sorted_by_date(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", [
            "2020-01-03,1,1,1,99.5,99.5,5",
            "2020-01-01,1,1,1,100.0,100.0,5",
            "2020-01-02,1,1,1,101.0,101.0,5",
        ])
        series = load_csv(p)
        assert series.dates == sorted(series.dates)
        np.testing.assert_array_equal(series.closes, [100.0, 101.0, 99.5])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "nope.csv")

    def test_row_shorter_than_its_date_column_names_the_line(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("Open,Close,Date\n1,4,2020-01-01\n1,4\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{p}:3: bad date ''")):
            load_csv(p)

    def test_canonical_dates_leave_strptime_unloaded(self, btc_csv):
        out = _fresh_interpreter("import sys\nfrom tsforge.data import load_csv\n"
                                 f"load_csv({str(btc_csv)!r})\nprint('_strptime' in sys.modules)")
        assert out == "False"

    def test_setup_import_loads_no_other_tsforge_module(self):
        # the benchmark's set-up time is this import in a fresh interpreter
        out = _fresh_interpreter(
            "import sys\nfrom tsforge.data import build_dataset, load_csv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'tsforge'))")
        assert out == "['tsforge', 'tsforge.data']"

    def test_fixture_has_2416_points(self, btc_prices):
        assert len(btc_prices) == 2416
        assert btc_prices.dropped == 4
        assert btc_prices.dates[0] == date(2014, 9, 17)
        assert btc_prices.dates[-1] == date(2021, 5, 2)


class TestLogReturns:
    def test_flat_prices(self):
        p = PriceSeries([date(2020, 1, 1), date(2020, 1, 2)], np.array([100.0, 100.0]))
        np.testing.assert_array_equal(log_returns(p), [0.0])

    def test_ln_e(self):
        p = PriceSeries([date(2020, 1, 1), date(2020, 1, 2)], np.array([1.0, np.e]))
        assert log_returns(p)[0] == pytest.approx(1.0)

    def test_fixture_count(self, btc_prices):
        assert len(log_returns(btc_prices)) == 2415

    def test_nonfinite_rejected(self):
        p = PriceSeries([date(2020, 1, 1), date(2020, 1, 2)], np.array([1.0, np.inf]))
        with pytest.raises(DataError, match="finite"):
            log_returns(p)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


def _strptime_date(text):
    return datetime.strptime(text, "%Y-%m-%d").date()


# canonical dates, other forms strptime reads, forms only fromisoformat reads, and neither
DATE_GRID = [
    "2014-09-17", "2020-02-29", "0001-01-01", "9999-12-31", "2014-9-7", "2014-09- 7",
    "2014- 9-07", "2014-9-07", "2014-09-7", "20140917", "2014-W38-3", "2014W383", "2014-W38",
    "2019-02-29", "0000-01-01", "2014-13-01", "2014-00-10", "2014-09-31", "2014-09-00",
    "2014-09-1a", "+014-09-17", "-014-09-17", "2014/09/17", "2014-09-17T00:00", "14-09-17",
    "2014-09-170", "12345-01-01", "2014-09-17 ", " 2014-09-17", "2014--9-17", "2014-0x-17",
    "٢٠١٤-٠٩-١٧", "２０１４-０９-１７", "2014-09-1７", "", "-", "2014-09-17\x00",
]


class TestParseDate:
    """``_parse_date`` accepts, rejects and reads exactly what strptime does."""

    @pytest.mark.parametrize("text", DATE_GRID)
    def test_edge_grid_matches_strptime(self, text):
        got = _outcome(data._parse_date, text)
        assert got == _outcome(_strptime_date, text)
        assert got is ValueError or type(got) is date

    @settings(max_examples=400, deadline=None)
    @given(text=st.one_of(
        st.dates().map(date.isoformat),
        st.text(st.sampled_from("0123456789- WT+:/٣９"), max_size=12),
        st.text(max_size=12)))
    def test_any_text_matches_strptime(self, text):
        assert _outcome(data._parse_date, text) == _outcome(_strptime_date, text)


class TestWindows:
    def test_fixture_window_count(self, btc_prices):
        r = log_returns(btc_prices)
        assert make_windows(r, seq_len=50, stride=1).shape == (2366, 50)

    def test_exactly_one_window(self):
        r = np.arange(5.0)
        assert make_windows(r, seq_len=5).shape == (1, 5)

    def test_non_overlapping_partition(self):
        r = np.arange(20.0)
        w = make_windows(r, seq_len=5, stride=5)
        assert w.shape == (4, 5)
        np.testing.assert_array_equal(w.reshape(-1), np.arange(20.0))

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            make_windows(np.arange(3.0), seq_len=5)

    def test_windows_are_contiguous_slices(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=40)
        w = make_windows(vals, seq_len=7, stride=3)
        for i in range(w.shape[0]):
            np.testing.assert_array_equal(w[i], vals[i * 3: i * 3 + 7])

    def test_windows_are_an_owned_c_contiguous_copy(self):
        vals = np.arange(30.0)
        w = make_windows(vals, seq_len=4, stride=3)
        assert w.flags.c_contiguous and w.flags.owndata and w.flags.writeable
        w[0, 0] = -1.0
        assert vals[0] == 0.0

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(5, 200), seq=st.integers(1, 40), stride=st.integers(1, 10))
    def test_count_formula_fuzz(self, n, seq, stride):
        if n < seq:
            return
        r = np.arange(float(n))
        w = make_windows(r, seq_len=seq, stride=stride)
        assert w.shape[0] == (n - seq) // stride + 1


class TestScaling:
    def test_already_spanning_unchanged(self):
        w = np.array([[-1.0, 0.0, 1.0]])
        ds = fit_scale(w)
        np.testing.assert_allclose(ds.windows[:, :, 0], w, atol=1e-12)

    def test_constant_rejected(self):
        with pytest.raises(DataError):
            fit_scale(np.ones((3, 4)))

    def test_three_dimensional_windows_rejected(self):
        with pytest.raises(DataError, match="expected \\[n, seq_len\\] windows"):
            fit_scale(np.arange(12.0).reshape(4, 3, 1))

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(5, 8)) * 0.05
        ds = fit_scale(w)
        back = ds.scaler.inverse(ds.windows[:, :, 0])
        np.testing.assert_allclose(back, w, atol=1e-10)

    def test_minmax_output_range(self):
        rng = np.random.default_rng(4)
        ds = fit_scale(rng.normal(size=(10, 6)))
        assert ds.windows.min() >= -1.0 - 1e-12
        assert ds.windows.max() <= 1.0 + 1e-12

    def test_endpoints(self):
        w = np.array([[2.0, 4.0, 6.0]])
        scaler = fit_scale(w).scaler
        assert scaler.inverse(np.array(-1.0)) == pytest.approx(2.0)
        assert scaler.inverse(np.array(1.0)) == pytest.approx(6.0)
        assert scaler.inverse(np.array(0.0)) == pytest.approx(4.0)

    def test_affine_invariance_of_shape_statistics(self):
        from tsforge.stats import moments
        rng = np.random.default_rng(5)
        w = rng.standard_t(df=4, size=(20, 30)) * 0.02
        ds = fit_scale(w)
        m_raw = moments(w.reshape(-1))
        m_scaled = moments(ds.windows.reshape(-1))
        assert abs(m_raw.skewness - m_scaled.skewness) < 1e-9
        assert abs(m_raw.kurtosis - m_scaled.kurtosis) < 1e-9

    def test_scaler_dict_roundtrip(self):
        scaler = fit_scale(np.array([[1.0, 2.0, 3.0]])).scaler
        again = Scaler.from_dict(scaler.to_dict())
        assert again == scaler

    def test_scaler_reads_the_earlier_record(self):
        earlier = {"kind": "minmax_symmetric", "lo": 2.0, "hi": 6.0, "mean": 0.0, "std": 0.0}
        assert Scaler.from_dict(earlier) == Scaler(lo=2.0, hi=6.0)
        with pytest.raises(DataError, match="kind"):
            Scaler.from_dict({**earlier, "kind": "zscore"})

    @pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0), (np.nan, 1.0), (0.0, np.inf)])
    def test_scaler_needs_a_finite_increasing_range(self, lo, hi):
        with pytest.raises(DataError):
            Scaler(lo=lo, hi=hi)


class TestBatching:
    def test_shape(self, btc_dataset):
        rng = np.random.Generator(np.random.Philox(0))
        batch = sample_real_batch(btc_dataset, 32, rng)
        assert batch.shape == (32, 50, 1)

    def test_seed_determinism(self, btc_dataset):
        a = sample_real_batch(btc_dataset, 8, np.random.Generator(np.random.Philox(5)))
        b = sample_real_batch(btc_dataset, 8, np.random.Generator(np.random.Philox(5)))
        assert np.array_equal(a, b)

    def test_uniformity_multinomial(self):
        # 1e5 draws over 10 windows: each frequency within 3 sigma of uniform
        windows = np.arange(10.0)[:, None].repeat(4, axis=1)
        ds = fit_scale(windows)
        rng = np.random.Generator(np.random.Philox(7))
        draws = sample_real_batch(ds, 100_000, rng)[:, 0, 0]
        n, p = 100_000, 0.1
        sigma = np.sqrt(n * p * (1 - p))
        values, counts = np.unique(draws, return_counts=True)
        assert len(values) == 10
        assert np.all(np.abs(counts - n * p) <= 3 * sigma)


class TestPrices:
    def test_flat(self):
        np.testing.assert_allclose(returns_to_prices(np.zeros(2), 100.0),
                                   [100.0, 100.0, 100.0])

    def test_single_log_unit(self):
        np.testing.assert_allclose(returns_to_prices(np.array([1.0]), 1.0),
                                   [1.0, np.e])

    def test_roundtrip_with_log_returns(self):
        rng = np.random.default_rng(6)
        r = rng.normal(size=30) * 0.04
        path = returns_to_prices(r, 250.0)
        dates = [date(2020, 1, 1 + i) for i in range(len(path))]  # within Jan
        back = log_returns(PriceSeries(dates[:len(path)], path))
        np.testing.assert_allclose(back, r, atol=1e-10)

    def test_bad_p0(self):
        for p0 in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(DataError):
                returns_to_prices(np.zeros(3), p0)


def test_build_dataset_pipeline(btc_prices):
    ds = build_dataset(btc_prices, seq_len=50, stride=1)
    n_returns = len(btc_prices) - 1
    assert n_returns == 2415
    assert ds.windows.shape == (n_returns - 50 + 1, 50, 1) == (2366, 50, 1)
    assert ds.windows.min() >= -1.0 and ds.windows.max() <= 1.0
