"""Table 6: number of acceptance-test passes per method over the full
170-variable catalog — the paper's central quantitative result.

Paper reference values (out of 170):

    method    rho  RMSZ  E_nmax  bias  all
    GRIB2     167  163   170     124   121
    APAX-2    170  170   170     146   146
    APAX-4    167  163   165     126   122
    APAX-5    130  152   160     111    85
    fpzip-24  170  164   170     167   163
    fpzip-16  122  129   138     126   113
    ISA-0.1   168  160   164     160   152
    ISA-0.5   140  154   145     161   123
    ISA-1.0    63  154   112     161    43

We assert the *shape*: the quality ordering within each family, fpzip-24
and APAX-2 near the top, fpzip-16/APAX-5/ISA-1.0 near the bottom.  Set
``REPRO_SKIP_BIAS=1`` to skip the (expensive) bias column.
"""

import os

from conftest import save_table

from repro.harness.tables import table6_passes


def test_table6(benchmark, ctx, results_dir, bench_workers):
    run_bias = os.environ.get("REPRO_SKIP_BIAS", "0") != "1"
    headers, rows = benchmark.pedantic(
        table6_passes, args=(ctx,),
        kwargs={"run_bias": run_bias, "workers": bench_workers},
        rounds=1, iterations=1,
    )
    save_table(
        results_dir, "table6", headers, rows,
        title=f"Table 6: passes out of {ctx.config.n_variables} variables "
              "(paper: fpzip-24 163 all, APAX-2 146, ISA-1.0 43)",
    )

    rec = {r[0]: dict(zip(headers, r)) for r in rows}
    n = ctx.config.n_variables

    # Quality ordering within families ("all" column).
    assert rec["APAX-2"]["all"] >= rec["APAX-4"]["all"] >= \
        rec["APAX-5"]["all"]
    assert rec["fpzip-24"]["all"] > rec["fpzip-16"]["all"]
    assert rec["ISA-0.1"]["all"] >= rec["ISA-0.5"]["all"] >= \
        rec["ISA-1.0"]["all"]

    # The top performers pass the great majority of variables.
    assert rec["fpzip-24"]["all"] > 0.7 * n
    assert rec["APAX-2"]["all"] > 0.7 * n
    # The most aggressive variants fail many variables.
    assert rec["ISA-1.0"]["all"] < 0.75 * n
    assert rec["APAX-5"]["all"] < rec["APAX-2"]["all"]

    # "all" is never above any individual test count.
    for r in rows:
        d = dict(zip(headers, r))
        assert d["all"] <= min(d["rho"], d["RMSZ ens."], d["E_nmax ens."])
