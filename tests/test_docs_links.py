"""Every path referenced in README.md and docs/*.md must exist.

Documentation drift — a renamed module, a moved benchmark — shows up here
instead of in a confused reader.  The check extracts backticked tokens
and markdown link targets that look like repo paths and stats them from
the repo root; ``#anchor`` fragments are validated against the GitHub
slugs of the target document's headings.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    [REPO / "README.md", *(REPO / "docs").glob("*.md")],
    key=lambda p: p.name,
)

#: `token` mentions that look like files: contain a slash or end in a
#: known suffix.  Command lines, globs, URLs, and env-var assignments are
#: not path claims.
_BACKTICK = re.compile(r"`([^`\s]+)`")
_LINK = re.compile(r"\]\(([^)#]+)(?:#[^)]*)?\)")
_SUFFIXES = (".py", ".md", ".toml", ".cfg", ".ini")


def _candidate_paths(text: str) -> set[str]:
    found: set[str] = set()
    for token in _BACKTICK.findall(text):
        if "://" in token or token.startswith(("/", "~")):
            continue  # URLs/schemes and machine-local paths
        if any(ch in token for ch in "{}*$=<>()"):
            continue  # globs, placeholders, env assignments, call syntax
        if "/" in token or token.endswith(_SUFFIXES):
            found.add(token.rstrip("/"))
    for target in _LINK.findall(text):
        if "://" not in target:
            found.add(target.strip())
    return found


def _resolve(doc: Path, token: str) -> bool:
    # tokens are written repo-relative, package-relative (src/repro), or
    # benchmark-relative (docs/benchmarks.md lists bare script names);
    # relative links also resolve against the document's own directory.
    return any(
        (base / token).exists()
        for base in (REPO, REPO / "src" / "repro", REPO / "benchmarks",
                     doc.parent)
    )


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_referenced_paths_exist(doc):
    missing = sorted(
        token for token in _candidate_paths(doc.read_text())
        if not _resolve(doc, token)
    )
    assert not missing, (
        f"{doc.name} references paths that do not exist: {missing}"
    )


#: ``](#frag)`` or ``](file.md#frag)`` — the anchor-bearing links.
_ANCHOR_LINK = re.compile(r"\]\(([^)#]*)#([^)]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _github_slug(heading: str) -> str:
    """GitHub's anchor slug for a markdown heading."""
    text = heading.replace("`", "").strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _heading_slugs(doc: Path) -> set[str]:
    slugs: set[str] = set()
    for heading in _HEADING.findall(doc.read_text()):
        slug = _github_slug(heading)
        # Repeated headings get -1, -2, ... suffixes; accept the base
        # form only (our docs do not repeat heading titles).
        slugs.add(slug)
    return slugs


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_anchor_fragments_resolve(doc):
    broken = []
    for target, fragment in _ANCHOR_LINK.findall(doc.read_text()):
        target = target.strip()
        if "://" in target:
            continue  # external URL fragments are out of scope
        target_doc = doc if not target else (doc.parent / target)
        if not target_doc.exists():
            continue  # dangling file targets fail the path test above
        if fragment not in _heading_slugs(target_doc):
            broken.append(f"{target or doc.name}#{fragment}")
    assert not broken, (
        f"{doc.name} links to anchors with no matching heading: {broken}"
    )


def test_docs_are_linked_from_readme():
    readme = (REPO / "README.md").read_text()
    assert "docs/README.md" in readme
    assert "docs/architecture.md" in readme
    assert "docs/parallel.md" in readme
    assert "docs/static-analysis.md" in readme
    assert "docs/observability.md" in readme
    assert "docs/caching.md" in readme
    assert "docs/benchmarks.md" in readme


def test_docs_index_covers_every_page():
    index = (REPO / "docs" / "README.md").read_text()
    pages = sorted(p.name for p in (REPO / "docs").glob("*.md")
                   if p.name != "README.md")
    missing = [page for page in pages if f"({page})" not in index]
    assert not missing, f"docs/README.md does not link: {missing}"


# -- fenced bash blocks: commands and env vars must be real ------------------
#
# Docs rot fastest inside copy-pasteable examples: a renamed subcommand
# or env knob in a ```bash block silently strands readers.  Validate
# every `repro <sub>` invocation against the live argparse registry and
# every REPRO_* token against what the code actually reads.

_BASH_BLOCK = re.compile(r"```bash\s*\n(.*?)```", re.DOTALL)
#: `repro <sub>` where `repro` is a shell word (not part of a path,
#: module, or package name like src/repro or repro.cli).
_SUBCOMMAND = re.compile(r"(?<![\w/.\-])repro\s+([a-z][a-z0-9-]*)")
_CLI_MODULE = re.compile(r"python\s+-m\s+repro\.cli\s+([a-z][a-z0-9-]*)")
_ENV_TOKEN = re.compile(r"REPRO_[A-Z0-9_]+")
#: A source line that reads the environment: a repro.config accessor
#: (env_str / env_flag / env_int[_opt] / env_float_opt, public or
#: module-private) or a raw os.environ access.
_ENV_READ_LINE = re.compile(
    r"(?:_?env_(?:str|flag|int|int_opt|float_opt)\s*\(|os\.environ)")


def _known_subcommands() -> set[str]:
    from repro.cli import build_parser

    parser = build_parser()
    action = next(a for a in parser._actions
                  if getattr(a, "choices", None))
    return set(action.choices)


def _known_env_vars() -> set[str]:
    known: set[str] = set()
    for base in (REPO / "src", REPO / "benchmarks"):
        for py in base.rglob("*.py"):
            for line in py.read_text().splitlines():
                if _ENV_READ_LINE.search(line):
                    known.update(_ENV_TOKEN.findall(line))
    return known


def _bash_lines(doc: Path):
    for block in _BASH_BLOCK.findall(doc.read_text()):
        for line in block.splitlines():
            yield line.split("#", 1)[0]  # commands only, not comments


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_bash_blocks_invoke_real_subcommands(doc):
    known = _known_subcommands()
    bogus = []
    for line in _bash_lines(doc):
        for sub in (*_SUBCOMMAND.findall(line), *_CLI_MODULE.findall(line)):
            if sub not in known:
                bogus.append(f"repro {sub}")
    assert not bogus, (
        f"{doc.name} bash examples use unknown subcommands: {sorted(set(bogus))}; "
        f"known: {sorted(known)}"
    )


# -- coverage gates: the docs must name the whole public surface -------------
#
# The path/anchor/subcommand checks above stop the docs from referencing
# things that do not exist; these two stop the inverse rot — code that
# exists but that no document admits to.  Every top-level package under
# src/repro and every REPRO_* knob the code reads must appear somewhere
# in README.md or docs/.


def _all_docs_text() -> str:
    return "\n".join(doc.read_text() for doc in DOC_FILES)


def test_every_package_is_documented():
    text = _all_docs_text()
    packages = sorted(
        p.name for p in (REPO / "src" / "repro").iterdir()
        if p.is_dir() and (p / "__init__.py").exists()
    )
    assert packages, "package scan found nothing; the layout moved"
    missing = [
        pkg for pkg in packages
        if f"repro.{pkg}" not in text and f"{pkg}/" not in text
    ]
    assert not missing, (
        f"src/repro packages never mentioned in README.md or docs/: "
        f"{missing}"
    )


def test_every_env_var_is_documented():
    text = _all_docs_text()
    known = _known_env_vars()
    assert known, "env-var scan found nothing; the scan regex is broken"
    missing = sorted(var for var in known if var not in text)
    assert not missing, (
        f"REPRO_* env vars the code reads but no document names: "
        f"{missing}"
    )


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_bash_blocks_reference_real_env_vars(doc):
    known = _known_env_vars()
    assert known, "env-var scan found nothing; the scan regex is broken"
    bogus = sorted({
        token
        for line in _bash_lines(doc)
        for token in _ENV_TOKEN.findall(line)
        if token not in known
    })
    assert not bogus, (
        f"{doc.name} bash examples reference env vars the code never "
        f"reads: {bogus}"
    )


def _config_docstring() -> str:
    import repro.config

    return repro.config.__doc__ or ""


def test_documented_env_vars_are_read():
    # The inverse of the gate above: a knob deleted from the code must
    # not linger in an env table.  Prefix mentions such as REPRO_TRACE_*
    # name a family, not a knob.
    known = _known_env_vars()
    texts = {doc.name: doc.read_text() for doc in DOC_FILES}
    texts["repro/config.py docstring"] = _config_docstring()
    stale = sorted({
        f"{token} ({name})"
        for name, text in texts.items()
        for token in _ENV_TOKEN.findall(text)
        if not token.endswith("_") and token not in known
    })
    assert not stale, (
        f"documented REPRO_* env vars that nothing in src/ or "
        f"benchmarks/ reads: {stale}"
    )
