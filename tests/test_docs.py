"""Documentation integrity (PR 7): links resolve, the map is complete.

Two gates, both cheap and both merciless:

* every *relative* markdown link in the repo's docs points at a file
  that exists (anchors stripped; external ``http(s)``/``mailto`` links
  are out of scope — CI has no network);
* ``docs/ARCHITECTURE.md`` — the system map — mentions every package
  under ``src/repro/`` and every simulator doc links back to it, so a
  new subsystem cannot land without showing up on the map.
"""

import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: Markdown files whose links we hold to the resolve-or-fail standard.
#: ISSUE/SNIPPETS/PAPERS are driver-maintained scratch, not documentation.
DOC_FILES = sorted(
    p
    for p in list(REPO.glob("*.md")) + list((REPO / "docs").glob("*.md"))
    if p.name not in {"ISSUE.md", "SNIPPETS.md", "PAPERS.md", "PAPER.md"}
)

_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")


def _relative_links(path: pathlib.Path):
    for target in _LINK.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO)))
def test_relative_links_resolve(doc):
    missing = []
    for target in _relative_links(doc):
        resolved = (doc.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            missing.append(target)
    assert not missing, f"{doc.relative_to(REPO)}: dead link(s) {missing}"


def test_architecture_doc_exists():
    assert (REPO / "docs" / "ARCHITECTURE.md").is_file()


def test_architecture_mentions_every_package():
    """The module table must cover every ``repro.*`` package — a new
    subsystem that is not on the system map fails here."""
    text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
    packages = sorted(
        p.parent.name for p in SRC.glob("*/__init__.py")
    )
    assert packages, "no packages found under src/repro"
    missing = [
        pkg for pkg in packages
        if f"repro.{pkg}" not in text and f"`{pkg}/`" not in text
    ]
    assert not missing, f"ARCHITECTURE.md does not mention: {missing}"


def test_architecture_mentions_sharded_engine():
    """The ``repro.congest`` module table must name every module of the
    package, so a removed or added module shows up on the map.  The name is
    kept from an earlier check that asserted only the entries of the
    separator-sharded engine, which has since been removed."""
    text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
    modules = sorted(
        p.name for p in (SRC / "congest").glob("*.py") if p.name != "__init__.py"
    )
    assert modules, "no modules found under src/repro/congest"
    missing = [name for name in modules if f"`{name}`" not in text]
    assert not missing, f"ARCHITECTURE.md does not name: {missing}"


def test_every_doc_links_to_architecture():
    """The issue's cross-linking contract: every document under
    ``docs/`` (and the top-level README) points at the system map."""
    docs = sorted((REPO / "docs").glob("*.md")) + [REPO / "README.md"]
    for doc in docs:
        if doc.name == "ARCHITECTURE.md":
            continue
        assert "ARCHITECTURE.md" in doc.read_text(), (
            f"{doc.relative_to(REPO)} does not link to docs/ARCHITECTURE.md"
        )


def test_docs_index_lists_every_doc():
    index = REPO / "docs" / "README.md"
    assert index.is_file()
    text = index.read_text()
    for doc in (REPO / "docs").glob("*.md"):
        if doc.name == "README.md":
            continue
        assert doc.name in text, f"docs/README.md does not list {doc.name}"


def test_readme_documents_the_cli_surface():
    """The quickstart must exercise the current execution surface: the
    service and the three toolbox subcommands."""
    text = (REPO / "README.md").read_text()
    for needle in (
        "repro serve",
        "repro trace",
        "repro chaos",
        "repro experiment",
    ):
        assert needle in text, f"README.md quickstart lacks {needle!r}"
