"""Every ``repro`` subcommand must point its ``--help`` at real docs.

The epilog is the discoverability seam between the CLI and the docs
tree: a subcommand without one (or pointing at a page that does not
exist) strands users at ``--help``.  This gate enumerates the live
subparser registry, so a newly added subcommand fails here until it
declares its docs page.
"""

import re
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent

EXPECTED_PAGES = {
    "characterize": "docs/architecture.md",
    "verify": "docs/architecture.md",
    "hybrid": "docs/architecture.md",
    "table": "docs/architecture.md",
    "summary": "docs/architecture.md",
    "check": "docs/architecture.md",
    "variants": "docs/compressors.md",
    "lint": "docs/static-analysis.md",
    "stats": "docs/observability.md",
    "store": "docs/caching.md",
    "stream": "docs/streaming.md",
}


def subcommands() -> dict:
    parser = build_parser()
    actions = [a for a in parser._actions
               if hasattr(a, "choices") and a.choices]
    assert len(actions) == 1, "expected exactly one subparsers action"
    return dict(actions[0].choices)


def test_every_subcommand_is_covered_by_this_gate():
    assert set(subcommands()) == set(EXPECTED_PAGES)


@pytest.mark.parametrize("name", sorted(EXPECTED_PAGES))
def test_subcommand_epilog_names_its_docs_page(name):
    sub = subcommands()[name]
    assert sub.epilog, f"`repro {name}` has no help epilog"
    match = re.search(r"docs/[\w-]+\.md", sub.epilog)
    assert match, (f"`repro {name}` epilog does not reference a docs "
                   f"page: {sub.epilog!r}")
    assert match.group(0) == EXPECTED_PAGES[name]


@pytest.mark.parametrize("page", sorted(set(EXPECTED_PAGES.values())))
def test_referenced_docs_pages_exist(page):
    assert (REPO_ROOT / page).is_file(), f"{page} does not exist"


@pytest.mark.parametrize("name", sorted(EXPECTED_PAGES))
def test_epilog_survives_help_rendering(name):
    # argparse's formatter can swallow epilogs under some formatter
    # classes; assert the docs pointer reaches the rendered help text.
    text = subcommands()[name].format_help()
    assert EXPECTED_PAGES[name] in text


def test_retired_bench_subcommand_is_unknown(capsys):
    # Timing regressions are gated by benchmarks/e2e (BENCHMARK.json)
    # alone; there is no second, record-based gate to invoke.
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["bench", "compare"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
