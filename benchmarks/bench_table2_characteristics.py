"""Table 2: characteristics of the featured variable datasets."""

from conftest import save_table

from repro.harness.tables import table2_characteristics


def test_table2(benchmark, ctx, results_dir):
    headers, rows = benchmark.pedantic(table2_characteristics, args=(ctx,),
                                       rounds=1, iterations=1)
    save_table(
        results_dir, "table2", headers, rows,
        title="Table 2: Characteristics of U, FSDSC, Z3, CCN3 "
              "(paper: U mean 6.39/std 12.2; CCN3 min 3.37e-5/max 1.24e3)",
    )

    rec = {r[0]: dict(zip(headers, r)) for r in rows}
    # Shape assertions vs the paper's Table 2.
    assert abs(rec["U"]["mean"] - 6.39) < 2.0
    assert 8 < rec["U"]["std"] < 18
    assert rec["CCN3"]["x_min"] < 1e-2 < 1e2 < rec["CCN3"]["x_max"]
    assert rec["Z3"]["std"] > 1e3
    # Z3 has the best (smallest) lossless CR of the four, as in the paper.
    assert rec["Z3"]["CR"] == min(r["CR"] for r in rec.values())
