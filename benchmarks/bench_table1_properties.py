"""Table 1: algorithm property matrix."""

from conftest import save_table

from repro.harness.tables import table1_properties


def test_table1(benchmark, results_dir):
    headers, rows = benchmark.pedantic(table1_properties, rounds=1,
                                       iterations=1)
    save_table(results_dir, "table1", headers, rows,
               title="Table 1: Algorithm properties")
    assert len(rows) == 4
