"""Command-line interface."""

import pytest

from repro.cli import build_parser, main

SCALE = ["--ne", "3", "--nlev", "5", "--members", "21"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9"])

    @pytest.mark.parametrize("flag", ["--backend", "--retries",
                                      "--task-timeout"])
    def test_retired_exec_flags_exit_2(self, flag, capsys):
        # The worker count picks the execution path; no flag names one.
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", flag, "process", "fpzip-24"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCommands:
    def test_variants(self, capsys):
        assert main(["variants"]) == 0
        out = capsys.readouterr().out
        assert "fpzip-24" in out and "APAX-5" in out

    def test_characterize(self, capsys):
        assert main(["characterize", "U", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "U" in out and "lossless CR" in out

    def test_verify_pass(self, capsys):
        code = main(["verify", "NetCDF-4", "U", "--no-bias", *SCALE])
        assert code == 0
        assert "NetCDF-4" in capsys.readouterr().out

    def test_verify_fail_exit_code(self, capsys):
        code = main(["verify", "fpzip-8", "U", "--no-bias", *SCALE])
        assert code == 1

    def test_verify_unknown_variant_exits_2(self, capsys):
        code = main(["verify", "fpzip24", "U", "--no-bias", *SCALE])
        assert code == 2
        out = capsys.readouterr().out
        assert "unknown variant" in out
        assert "did you mean" in out and "fpzip-24" in out

    def test_verify_modern_codec(self, capsys):
        code = main(["verify", "SZ-rel-1e-05", "U", "--no-bias", *SCALE])
        assert code == 0
        assert "SZ-rel-1e-05" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table", "1", *SCALE]) == 0
        assert "GRIB2 + jpeg2000" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table", "2", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "FSDSC" in out

    def test_hybrid(self, capsys):
        assert main(["hybrid", "fpzip", "--no-bias", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "avg CR" in out and "fpzip-" in out

    def test_hybrid_modern_families(self, capsys):
        assert main(["hybrid", "SZ", "--no-bias", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "avg CR" in out and "SZ-" in out
        assert main(["hybrid", "BitRound", "--no-bias", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "BR-" in out


class TestStreamCommand:
    def test_synthetic_serial(self, capsys):
        code = main(["stream", "LZMA", "--mb", "0.5",
                     "--chunk-mb", "0.125"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Streaming round trip" in out and "serial" in out
        assert "LZMA" in out and "synthetic 0.5 MiB" in out

    def test_unknown_variant_exits_2(self, capsys):
        code = main(["stream", "no-such-codec", "--mb", "0.25"])
        assert code == 2
        assert "unknown variant" in capsys.readouterr().err

    def test_file_requires_variable(self, capsys, tmp_path):
        code = main(["stream", "--file", str(tmp_path / "x.nch")])
        assert code == 2
        assert "--variable" in capsys.readouterr().err

    def test_streams_a_file_variable(self, capsys, tmp_path, rng):
        import numpy as np

        from repro.ncio.format import HistoryFileWriter

        path = tmp_path / "member.nch"
        data = (250 + rng.normal(size=(8, 512))).astype(np.float32)
        with HistoryFileWriter(path, compression="zlib") as w:
            w.put_var("T", data, dims=("lev", "ncol"))
        code = main(["stream", "LZMA", "--file", str(path),
                     "--variable", "T", "--chunk-mb", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"{path}:T" in out
        assert "LZMA" in out
