"""Every REP rule fires on its fixture and respects noqa suppression.

Fixture files live under ``fixtures/`` in subdirectories that mirror the
real package layout (``fixtures/compressors/...`` is linted as compressor
code — see :func:`repro.check.rules.effective_parts`).  Each fixture
contains known-bad lines plus at least one violation suppressed with
``# repro: noqa[REPxxx]``.
"""

from pathlib import Path

import pytest

from repro.check.engine import lint_file
from repro.check.rules import RULES, effective_parts, rules_by_id

FIXTURES = Path(__file__).parent / "fixtures"

#: (rule id, fixture path relative to fixtures/, expected finding count)
CASES = [
    ("REP001", "compressors/rep001_bad.py", 1),
    ("REP002", "rep002_bad.py", 1),
    ("REP003", "pvt/rep003_bad.py", 1),
    ("REP004", "parallel/rep004_bad.py", 1),
    ("REP005", "compressors/rep005_bad.py", 1),
    ("REP006", "rep006_bad.py", 2),
    ("REP007", "rep007_bad.py", 1),
    ("REP008", "pvt/rep008_bad.py", 2),
    ("REP009", "rep009_bad.py", 5),
    ("REP010", "repro/rep010_bad.py", 1),
    ("REP012", "parallel/rep012_bad.py", 2),
    ("REP015", "rep015_bad.py", 5),
    ("REP016", "rep016_bad.py", 3),
    ("REP017", "rep017_bad.py", 4),
    ("REP018", "stream/rep018_bad.py", 2),
    ("REP019", "parallel/rep019_bad.py", 3),
]


@pytest.mark.parametrize("rule_id,relpath,expected", CASES,
                         ids=[c[0] for c in CASES])
def test_rule_fires_on_fixture(rule_id, relpath, expected):
    path = FIXTURES / relpath
    findings = lint_file(path, select=[rule_id])
    assert [f.rule_id for f in findings] == [rule_id] * expected
    rule = rules_by_id()[rule_id]
    source_lines = path.read_text().splitlines()
    for finding in findings:
        assert finding.severity == rule.severity
        assert finding.fix_hint == rule.fix_hint
        # No finding may sit on a suppressed line.
        assert "noqa" not in source_lines[finding.line - 1]


@pytest.mark.parametrize("rule_id,relpath,expected", CASES,
                         ids=[c[0] for c in CASES])
def test_noqa_suppresses_sibling_violation(rule_id, relpath, expected):
    source_lines = (FIXTURES / relpath).read_text().splitlines()
    marker = f"repro: noqa[{rule_id}]"
    assert any(marker in line for line in source_lines), \
        f"fixture {relpath} must carry a suppressed {rule_id} violation"


def test_every_rule_has_a_fixture_case():
    assert {c[0] for c in CASES} == {rule.id for rule in RULES}


def test_clean_fixture_has_no_findings():
    assert lint_file(FIXTURES / "compressors" / "clean.py") == []


def test_file_level_noqa_suppresses_whole_file():
    assert lint_file(FIXTURES / "rep007_filelevel_noqa.py",
                     select=["REP007"]) == []


def test_scoping_silences_rules_outside_their_tree(tmp_path):
    # The same astype violation is only a finding in compressor code.
    source = (FIXTURES / "compressors" / "rep001_bad.py").read_text()
    elsewhere = tmp_path / "helpers.py"
    elsewhere.write_text(source)
    assert lint_file(elsewhere, select=["REP001"]) == []


def test_rep005_flags_mutable_state_outside_compressors(tmp_path):
    # Codecs, the synthesizer and registry-dispatched code all run in
    # workers, so the rule is no longer scoped to compressors/.
    module = tmp_path / "helpers.py"
    module.write_text("_memo = {}\n")
    (f, ) = lint_file(module, select=["REP005"])
    assert "module-level mutable dict '_memo'" in f.message


def test_rep005_exempts_all_caps_only_while_unmutated(tmp_path):
    module = tmp_path / "tables.py"
    module.write_text("TABLE = {}\nLIMITS = []\n\n\n"
                      "def grow(k):\n    TABLE[k] = k\n")
    (f, ) = lint_file(module, select=["REP005"])
    assert "'TABLE', mutated at line 6" in f.message


def test_rep006_flags_module_level_iterators(tmp_path):
    module = tmp_path / "pairs.py"
    module.write_text("PAIRS = zip('ab', 'cd')\nNAMES = list('ab')\n")
    (f, ) = lint_file(module, select=["REP006"])
    assert "zip() iterator 'PAIRS'" in f.message


@pytest.mark.parametrize("trusted", ["obs/sinks.py", "check/x.py",
                                     "testing/faults.py", "config.py"])
def test_process_safety_rules_trust_the_boundary(tmp_path, trusted):
    module = tmp_path / "fixtures" / trusted
    module.parent.mkdir(parents=True)
    module.write_text("import os\nimport threading\n\n_state = {}\n"
                      "_lock = threading.Lock()\nKNOB = os.getenv('X')\n")
    assert lint_file(module, select=["REP005", "REP015", "REP016"]) == []


def test_effective_parts_strips_through_fixtures():
    parts = effective_parts("tests/check/fixtures/compressors/x.py")
    assert parts == ("compressors", "x.py")
    assert effective_parts("src/repro/pvt/zscore.py") == \
        ("src", "repro", "pvt", "zscore.py")


def test_syntax_error_reports_rep000(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n")
    findings = lint_file(broken)
    assert len(findings) == 1
    assert findings[0].rule_id == "REP000"
    assert findings[0].severity == "error"


def test_rule_registry_is_well_formed():
    seen = rules_by_id()
    assert len(seen) == len(RULES)
    for rule in RULES:
        assert rule.id.startswith("REP") and len(rule.id) == 6
        assert rule.severity in ("error", "warning")
        assert rule.rationale and rule.fix_hint and rule.title
