"""Docs layer acceptance: the files exist, are linked, and links resolve.

Mirrors the CI docs job locally (``python tools/check_links.py README.md
docs``) so a broken relative link fails the tier-1 suite before it fails CI,
and pins the cross-linking the docs satellite promised: both docs pages
exist, README links to them, and each links back to the other.
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_links  # noqa: E402 - needs the tools/ path above


def test_docs_exist_and_are_cross_linked():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert (REPO / "docs" / "architecture.md").exists()
    assert (REPO / "docs" / "operations.md").exists()
    assert "docs/architecture.md" in readme
    assert "docs/operations.md" in readme
    arch = (REPO / "docs" / "architecture.md").read_text(encoding="utf-8")
    ops = (REPO / "docs" / "operations.md").read_text(encoding="utf-8")
    assert "operations.md" in arch
    assert "architecture.md" in ops


def test_no_broken_relative_links():
    files = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))
    broken = [issue for md in files for issue in check_links.check_file(md)]
    assert not broken, "\n".join(broken)


def test_checker_flags_a_broken_link(tmp_path, monkeypatch):
    """The checker itself must fail on a dangling target (not silently pass)."""
    md = tmp_path / "page.md"
    md.write_text(
        "[ok](real.md) [dead](missing.md) [web](https://example.com) [anchor](#x)\n"
    )
    (tmp_path / "real.md").write_text("# Real\n")
    monkeypatch.setattr(check_links, "REPO_ROOT", tmp_path)
    broken = check_links.check_file(md)
    assert len(broken) == 1 and "missing.md" in broken[0]


def test_checker_skips_targets_outside_repo(tmp_path, monkeypatch):
    """The CI badge pattern: ../../actions/... resolves outside the repo."""
    md = tmp_path / "page.md"
    md.write_text("[badge](../../actions/workflows/ci.yml)\n")
    monkeypatch.setattr(check_links, "REPO_ROOT", tmp_path)
    assert check_links.check_file(md) == []


def test_glossary_covers_the_promised_fields():
    """operations.md must gloss every field the issue called out by name."""
    ops = (REPO / "docs" / "operations.md").read_text(encoding="utf-8")
    for field in (
        "construction_bytes",
        "plan_bank_hits",
        "p50",
        "p95",
        "p99",
        "shed",
        "degraded",
        "slo_attainment",
        "queue_capacity",
    ):
        assert field in ops, f"operations.md glossary is missing {field!r}"
