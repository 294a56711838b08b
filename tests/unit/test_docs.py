"""The docs subsystem stays healthy: links resolve, snippets run.

Wraps ``scripts/check_docs.py`` so the fast tier (and CI's docs job)
fails whenever a rename strands a link in README/docs or a ``>>>``
snippet stops matching the code.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import check_docs  # noqa: E402


def test_doc_files_exist():
    names = {path.name for path in check_docs.doc_files()}
    assert {"README.md", "architecture.md", "algorithms.md", "scaling-guide.md"} <= names


def test_internal_links_resolve():
    failures = []
    for path in check_docs.doc_files():
        failures.extend(check_docs.check_links(path))
    assert not failures, "\n".join(failures)


def test_doc_snippets_run():
    failures = []
    for path in check_docs.doc_files():
        failures.extend(check_docs.check_doctests(path))
    assert not failures, "\n".join(failures)


def test_package_docstring_examples_run():
    failures = []
    for name in check_docs.DOCTEST_MODULES:
        failures.extend(check_docs.check_module_doctests(name))
    assert not failures, "\n".join(failures)


def test_link_checker_catches_breakage(tmp_path, monkeypatch):
    """The checker itself must flag a broken link (guards against the
    regexes silently matching nothing)."""
    bad = tmp_path / "bad.md"
    bad.write_text("see [missing](no/such/file.md) and `src/repro/nope.py`")
    failures = check_docs.check_links(bad)
    assert len(failures) == 2
