"""Table 4: maximum relative pointwise error (and CR) per variant."""

from conftest import save_table

from repro.harness.tables import table3_nrmse, table4_enmax


def _err(cell: str) -> float:
    return float(cell.split()[0])


def test_table4(benchmark, ctx, results_dir):
    headers, rows = benchmark.pedantic(table4_enmax, args=(ctx,),
                                       rounds=1, iterations=1)
    save_table(
        results_dir, "table4", headers, rows,
        title="Table 4: e_nmax (CR) — paper shape: e_nmax "
              "roughly an order of magnitude above NRMSE",
    )

    # e_nmax >= NRMSE cell-by-cell, and they "roughly correlate"
    # (Section 5.2).
    _, rows3 = table3_nrmse(ctx)
    for r4, r3 in zip(rows, rows3):
        assert r4[0] == r3[0]
        for c4, c3 in zip(r4[1:], r3[1:]):
            assert _err(c4) >= _err(c3)
