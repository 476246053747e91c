"""Local validation of the MkDocs site, without requiring mkdocs.

CI runs the real ``mkdocs build --strict``; this test keeps the common
failure modes (a nav entry pointing at a missing page, a dead relative
link, an API-reference identifier that no longer imports after a
refactor) catchable by the plain pytest suite in environments where
mkdocs is not installed.
"""

import importlib
import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

REPO_ROOT = Path(__file__).resolve().parent.parent
MKDOCS_YML = REPO_ROOT / "mkdocs.yml"
DOCS_DIR = REPO_ROOT / "docs"

#: ``[text](target)`` markdown links, excluding images.
LINK_PATTERN = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
#: mkdocstrings autodoc directives: ``::: dotted.path``.
AUTODOC_PATTERN = re.compile(r"^::: ([\w.]+)$", re.MULTILINE)


def load_config() -> dict:
    with open(MKDOCS_YML, encoding="utf-8") as handle:
        return yaml.safe_load(handle)


def nav_pages(nav) -> list[str]:
    """Flatten the (possibly nested) nav tree into page paths."""
    pages: list[str] = []
    for entry in nav:
        if isinstance(entry, str):
            pages.append(entry)
        elif isinstance(entry, dict):
            for value in entry.values():
                if isinstance(value, str):
                    pages.append(value)
                else:
                    pages.extend(nav_pages(value))
    return pages


def doc_pages() -> list[Path]:
    pages = sorted(DOCS_DIR.glob("*.md"))
    assert pages, "docs/ holds no markdown pages"
    return pages


def test_mkdocs_config_parses():
    config = load_config()
    assert config["site_name"]
    assert config["nav"], "mkdocs.yml must define a nav"


def test_nav_entries_exist():
    config = load_config()
    pages = nav_pages(config["nav"])
    assert "index.md" in pages
    for page in pages:
        assert (DOCS_DIR / page).is_file(), (
            f"mkdocs.yml nav references docs/{page}, which does not exist")


def test_every_docs_page_is_in_nav():
    """A page outside the nav silently disappears from the site."""
    config = load_config()
    in_nav = set(nav_pages(config["nav"]))
    for page in doc_pages():
        assert page.name in in_nav, (
            f"docs/{page.name} exists but is not reachable from the nav")


def test_relative_links_resolve():
    for page in doc_pages():
        text = page.read_text(encoding="utf-8")
        for target in LINK_PATTERN.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if not path:  # pure in-page anchor
                continue
            resolved = (page.parent / path).resolve()
            assert resolved.is_file(), (
                f"docs/{page.name} links to {target}, which does not "
                "resolve to a file")


def test_readme_docs_links_resolve():
    readme = REPO_ROOT / "README.md"
    text = readme.read_text(encoding="utf-8")
    targets = [target for target in LINK_PATTERN.findall(text)
               if target.startswith("docs/")]
    assert targets, "README should point at the docs site"
    for target in targets:
        assert (REPO_ROOT / target.split("#", 1)[0]).is_file(), (
            f"README links to {target}, which does not exist")


def test_api_reference_identifiers_import():
    """Every ``::: dotted.path`` in api.md must resolve to a real object."""
    text = (DOCS_DIR / "api.md").read_text(encoding="utf-8")
    identifiers = AUTODOC_PATTERN.findall(text)
    assert identifiers, "api.md holds no mkdocstrings directives"
    for identifier in identifiers:
        module_name, _, attribute = identifier.rpartition(".")
        module = importlib.import_module(module_name)
        assert hasattr(module, attribute), (
            f"api.md documents {identifier}, but {module_name} has no "
            f"attribute {attribute!r}")


def test_api_reference_covers_new_controller_surface():
    """The chunk-scheduling and service API must stay documented."""
    text = (DOCS_DIR / "api.md").read_text(encoding="utf-8")
    for identifier in ("ChunkTelemetry",
                      "ChunkScheduler", "VerificationService",
                      "run_service_sweep",
                      "ExperimentSettings", "run_campaigns",
                      "iter_campaigns"):
        assert identifier in text, f"api.md no longer documents {identifier}"
