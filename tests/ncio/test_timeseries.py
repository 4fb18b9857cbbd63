"""Time-slice to time-series conversion."""

import numpy as np
import pytest

from repro.check import sanitized
from repro.compressors import get_variant
from repro.ncio.format import HistoryFile, write_history
from repro.ncio.timeseries import TimeSeriesFile, convert_to_timeseries


@pytest.fixture(scope="module")
def history_paths(tmp_path_factory, ensemble, config):
    tmp = tmp_path_factory.mktemp("hist")
    paths = []
    for m in range(3):
        snap = ensemble.history_snapshot(m)
        paths.append(
            write_history(tmp / f"h{m}.nch", snap, nlev=config.nlev)
        )
    return paths


class TestConversion:
    def test_lossless_roundtrip(self, history_paths, tmp_path, ensemble):
        out = convert_to_timeseries(history_paths, tmp_path / "ts",
                                    variables=["U", "FSDSC"])
        assert set(out) == {"U", "FSDSC"}
        with TimeSeriesFile(out["U"]) as ts:
            assert ts.variable_name == "U"
            assert ts.n_steps() == 3
            for step in range(3):
                orig = ensemble.member_field("U", step)
                assert np.array_equal(ts.read_step(step), orig)

    def test_sanitized_inline_conversion_completes(self, history_paths,
                                                   tmp_path):
        # Inline, the sanitizer replays the first variable's conversion
        # and requires the same result.
        with sanitized():
            out = convert_to_timeseries(history_paths, tmp_path / "san",
                                        variables=["U", "FSDSC"],
                                        workers=0)
        assert set(out) == {"U", "FSDSC"}
        with TimeSeriesFile(out["U"]) as ts:
            assert ts.n_steps() == 3

    def test_time_axis_written(self, history_paths, tmp_path):
        out = convert_to_timeseries(history_paths, tmp_path / "ts2",
                                    variables=["PS"])
        with TimeSeriesFile(out["PS"]) as ts:
            time = ts.get("time")
            assert np.array_equal(time, [0.0, 1.0, 2.0])

    def test_lossy_plan_applied(self, history_paths, tmp_path, ensemble):
        plan = {"U": get_variant("fpzip-24")}
        out = convert_to_timeseries(history_paths, tmp_path / "ts3",
                                    plan=plan, variables=["U", "FSDSC"])
        with TimeSeriesFile(out["U"]) as ts:
            assert ts.info("U").codec == "lossy:fpzip-24"
            step = ts.read_step(1)
            orig = ensemble.member_field("U", 1)
            assert not np.array_equal(step, orig)  # lossy
            assert np.abs(step - orig).max() < np.abs(orig).max() * 2**-15
        with TimeSeriesFile(out["FSDSC"]) as ts:
            assert ts.info("FSDSC").codec == "zlib"  # default untouched

    def test_lossy_saves_space(self, history_paths, tmp_path):
        lossless = convert_to_timeseries(history_paths, tmp_path / "a",
                                         variables=["U"])
        lossy = convert_to_timeseries(
            history_paths, tmp_path / "b",
            plan={"U": get_variant("APAX-5")}, variables=["U"],
        )
        assert lossy["U"].stat().st_size < lossless["U"].stat().st_size

    def test_all_variables_default(self, history_paths, tmp_path, config):
        out = convert_to_timeseries(history_paths, tmp_path / "ts4")
        assert len(out) == config.n_variables

    def test_unknown_variable_rejected(self, history_paths, tmp_path):
        with pytest.raises(KeyError, match="not in history"):
            convert_to_timeseries(history_paths, tmp_path / "x",
                                  variables=["NOPE"])

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            convert_to_timeseries([], tmp_path / "x")


class TestTimeSeriesFile:
    def test_not_a_timeseries(self, history_paths):
        # A raw history file holds many variables.
        with pytest.raises(ValueError, match="not a time-series"):
            TimeSeriesFile(history_paths[0]).variable_name


class TestParallelConversion:
    def test_parallel_matches_serial(self, history_paths, tmp_path):
        plan = {"U": get_variant("fpzip-24")}
        serial = convert_to_timeseries(history_paths, tmp_path / "s",
                                       plan=plan, variables=["U", "PS"])
        parallel = convert_to_timeseries(history_paths, tmp_path / "p",
                                         plan=plan, variables=["U", "PS"],
                                         workers=2)
        for name in ("U", "PS"):
            with TimeSeriesFile(serial[name]) as a, \
                    TimeSeriesFile(parallel[name]) as b:
                assert np.array_equal(a.get(name), b.get(name))
