"""Table 5: compression/reconstruction timings and CRs for U (3D) and
FSDSC (2D).

This file uses pytest-benchmark properly: one calibrated benchmark per
(codec, direction, variable) plus a one-shot rendering of the paper's
combined table.  The combined table comes from ``table5_timings``, which
reads its numbers from the ``compressors.compress``/``.decompress``
spans the codecs emit into a private ``repro.obs`` aggregator rather
than timing around the calls itself.  The paper's shape: APAX is the
fastest method ("sometimes
by a couple orders of magnitude" vs ISABELA); ISABELA is the slowest
because of the per-window sort and fit; the 3-D variable costs more than
the 2-D one.
"""

import pytest
from conftest import save_table

from repro.compressors import get_variant, paper_variants
from repro.harness.tables import table5_timings

_VARIANTS = list(paper_variants())

@pytest.mark.parametrize("variant", _VARIANTS)
def test_compress_u(benchmark, ctx, variant):
    codec = get_variant(variant)
    field = ctx.member_field("U")
    benchmark.extra_info["cr"] = len(codec.compress(field)) / field.nbytes
    benchmark(codec.compress, field)


@pytest.mark.parametrize("variant", _VARIANTS)
def test_reconstruct_u(benchmark, ctx, variant):
    codec = get_variant(variant)
    blob = codec.compress(ctx.member_field("U"))
    benchmark(codec.decompress, blob)


@pytest.mark.parametrize("variant", ["APAX-2", "fpzip-24", "ISA-0.5"])
def test_compress_fsdsc(benchmark, ctx, variant):
    codec = get_variant(variant)
    benchmark(codec.compress, ctx.member_field("FSDSC"))


def test_table5_rendered(benchmark, ctx, results_dir):
    headers, rows = benchmark.pedantic(
        table5_timings, args=(ctx,), kwargs={"repeats": 3}, rounds=1,
        iterations=1,
    )
    save_table(
        results_dir, "table5", headers, rows,
        title="Table 5: timings (s) and CR for U (3D) and FSDSC (2D)",
    )

    rec = {r[0]: dict(zip(headers, r)) for r in rows}
    # APAX is the fastest compressor; ISABELA the slowest (paper Table 5).
    apax_best = min(rec[v]["U comp. (s)"] for v in
                    ("APAX-2", "APAX-4", "APAX-5"))
    isa_worst = max(rec[v]["U comp. (s)"] for v in
                    ("ISA-0.1", "ISA-0.5", "ISA-1.0"))
    assert apax_best < isa_worst
    # The 3-D variable takes longer than the 2-D one for every method.
    for v in _VARIANTS:
        assert rec[v]["U comp. (s)"] > rec[v]["FSDSC comp. (s)"]
