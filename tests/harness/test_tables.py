"""Table drivers (structure checks at test scale)."""

import numpy as np
import pytest

from repro.compressors import paper_variants
from repro.harness.experiments import ExperimentContext
from repro.harness.tables import (
    table1_properties,
    table2_characteristics,
    table3_nrmse,
    table4_enmax,
    table5_timings,
    table6_passes,
    table7_hybrid_summary,
    table8_hybrid_composition,
)


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext.test()


class TestTable1:
    def test_property_matrix(self):
        headers, rows = table1_properties()
        assert len(rows) == 4
        methods = [r[0] for r in rows]
        assert methods == ["GRIB2 + jpeg2000", "APAX", "fpzip", "ISABELA"]
        # Paper Table 1, spot checks: GRIB2 has special values, APAX not
        # freely available, fpzip lossless.
        grib2 = dict(zip(headers, rows[0]))
        assert grib2["special values"] == "Y"
        apax = dict(zip(headers, rows[1]))
        assert apax["freely avail."] == "N"
        assert apax["fixed CR"] == "Y"


class TestTable2(object):
    def test_rows(self, ctx):
        headers, rows = table2_characteristics(ctx)
        assert [r[0] for r in rows] == ["U", "FSDSC", "Z3", "CCN3"]
        for row in rows:
            rec = dict(zip(headers, row))
            assert rec["x_min"] < rec["x_max"]
            assert 0 < rec["CR"] <= 1.0


class TestTables3And4:
    def test_shape_and_ordering(self, ctx):
        for driver in (table3_nrmse, table4_enmax):
            headers, rows = driver(ctx)
            assert len(rows) == 9  # the nine lossy variants
            assert rows[0][0] == "GRIB2"
            assert all(len(r) == 5 for r in rows)

    def test_apax_error_grows_with_rate(self, ctx):
        _, rows = table3_nrmse(ctx)
        by_variant = {r[0]: r for r in rows}

        def err(cell):
            return float(cell.split()[0])

        for col in (1, 2, 3, 4):
            assert err(by_variant["APAX-2"][col]) < err(
                by_variant["APAX-5"][col]
            )

    def test_enmax_geq_nrmse(self, ctx):
        _, rows3 = table3_nrmse(ctx)
        _, rows4 = table4_enmax(ctx)
        for r3, r4 in zip(rows3, rows4):
            for c3, c4 in zip(r3[1:], r4[1:]):
                assert float(c4.split()[0]) >= float(c3.split()[0])


class TestTable5:
    def test_timings_positive(self, ctx):
        headers, rows = table5_timings(ctx, repeats=1)
        assert len(rows) == 9
        for row in rows:
            rec = dict(zip(headers, row))
            assert rec["U comp. (s)"] > 0
            assert rec["U reconst. (s)"] > 0
            assert 0 < rec["U CR"] <= 1.0


class TestTable6:
    def test_counts_bounded(self, ctx):
        headers, rows = table6_passes(
            ctx, run_bias=False, variants=["fpzip-24", "APAX-5"]
        )
        n = ctx.config.n_variables
        for row in rows:
            rec = dict(zip(headers, row))
            assert rec["n_vars"] == n
            for key in ("rho", "RMSZ ens.", "E_nmax ens.", "all"):
                assert 0 <= rec[key] <= n
            assert rec["all"] <= min(rec["rho"], rec["RMSZ ens."])

    def test_quality_ordering(self, ctx):
        _, rows = table6_passes(
            ctx, run_bias=False, variants=["fpzip-24", "fpzip-16"]
        )
        by = {r[0]: r for r in rows}
        assert by["fpzip-24"][5] >= by["fpzip-16"][5]  # "all" column

    def test_default_table_completes(self, ctx):
        # Bias on, every paper variant: APAX-5 flattens FSDSC's
        # reconstructed ensemble, which fails its bias test, not the run.
        headers, rows = table6_passes(ctx)
        by = {r[0]: dict(zip(headers, r)) for r in rows}
        assert set(by) == set(paper_variants())
        n = ctx.config.n_variables
        assert all(rec["n_vars"] == n for rec in by.values())
        assert by["APAX-5"]["bias"] < n


class TestTables7And8:
    def test_structure(self, ctx):
        headers, rows, hybrids = table7_hybrid_summary(ctx, run_bias=False)
        assert headers[-1] == "NC"
        labels = [r[0] for r in rows]
        assert labels == ["avg. CR", "best CR", "worst CR", "avg. rho",
                          "avg. nrmse", "avg. e_nmax"]
        # NC column: lossless -> avg rho 1, nrmse 0.
        nc = {r[0]: r[-1] for r in rows}
        assert nc["avg. rho"] == 1.0
        assert nc["avg. nrmse"] == 0.0

        headers8, rows8 = table8_hybrid_composition(hybrids)
        total = sum(r[2] for r in rows8 if r[0] == "fpzip")
        assert total == ctx.config.n_variables
