"""Documentation is executable: snippets run, links resolve, API documented.

Four guarantees, enforced in CI by the docs job:

1. every fenced ``python`` code block in ``README.md`` and ``docs/*.md``
   executes without error (so the quickstart and the worked examples can be
   pasted verbatim);
2. every relative markdown link in those files, and every repository path a
   step of ``.github/workflows/ci.yml`` names, points at a path that exists
   in the repository;
3. every public name exported by the ``repro.engine`` package — and every
   public method those classes define — carries a docstring stating its
   contract;
4. every ``src/repro`` module longer than the repository's ~600-line
   guideline says why at its top.
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")],
    key=lambda path: path.name,
)

PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)
MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

CI_WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"
#: Repository paths named in the CI workflow: scripts under a directory
#: (``tests/…py``, ``.github/scripts/…``) and JSON files.  Names a step
#: generates (``counts-$workload-$run.json``) hold a ``$`` or ``{`` and do
#: not match.
CI_PATH = re.compile(
    r"(?<![\w${}./-])((?:[\w.-]+/)+[\w.-]+\.(?:py|sh)|\w[\w./-]*\.json)\b"
)
LINKING_FILES = [*DOC_FILES, CI_WORKFLOW]


def _python_blocks(path: Path) -> list[tuple[int, str]]:
    text = path.read_text()
    blocks = []
    for match in PYTHON_BLOCK.finditer(text):
        line = text[: match.start()].count("\n") + 1
        blocks.append((line, match.group(1)))
    return blocks


def _doc_file_ids(paths=DOC_FILES):
    return [path.relative_to(REPO_ROOT).as_posix() for path in paths]


# --------------------------------------------------------------------- #
# 1. snippets import and run
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("path", DOC_FILES, ids=_doc_file_ids())
def test_python_snippets_run(path):
    blocks = _python_blocks(path)
    for line, code in blocks:
        namespace = {"__name__": f"doc_snippet_{path.stem}_line{line}"}
        try:
            exec(compile(code, f"{path.name}:{line}", "exec"), namespace)
        except Exception as error:  # pragma: no cover - failure reporting
            pytest.fail(f"snippet at {path.name}:{line} failed: {error!r}")


def test_readme_has_runnable_snippets():
    assert _python_blocks(REPO_ROOT / "README.md"), "README lost its quickstart"
    assert _python_blocks(REPO_ROOT / "docs" / "api.md"), "api.md lost its example"


# --------------------------------------------------------------------- #
# 2. relative links resolve
# --------------------------------------------------------------------- #
def _relative_targets(path: Path) -> tuple[Path, list[str]]:
    """The paths ``path`` refers to, and the directory they are relative to."""
    text = path.read_text()
    if path == CI_WORKFLOW:
        return REPO_ROOT, CI_PATH.findall(text)  # steps run at the checkout root
    external = ("http://", "https://", "mailto:", "#")
    links = MARKDOWN_LINK.findall(text)
    return path.parent, [target for target in links if not target.startswith(external)]


@pytest.mark.parametrize("path", LINKING_FILES, ids=_doc_file_ids(LINKING_FILES))
def test_relative_links_resolve(path):
    base, targets = _relative_targets(path)
    broken = [
        target for target in targets if not (base / target.split("#")[0]).resolve().exists()
    ]
    assert not broken, f"broken relative links in {path.name}: {broken}"


# --------------------------------------------------------------------- #
# 3. the engine layer is fully documented
# --------------------------------------------------------------------- #
def _public_methods(cls):
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            yield name, member.fget
        elif inspect.isfunction(member):
            yield name, member


def test_engine_public_api_has_docstrings():
    import repro.engine as engine_pkg

    undocumented = []
    for export in engine_pkg.__all__:
        obj = getattr(engine_pkg, export)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue  # typing aliases (e.g. the QueryRequest union) hold no doc
        if not inspect.getdoc(obj):
            undocumented.append(export)
        if inspect.isclass(obj):
            for name, member in _public_methods(obj):
                if not inspect.getdoc(member):
                    undocumented.append(f"{export}.{name}")
    assert not undocumented, f"missing docstrings: {undocumented}"


def test_engine_modules_have_docstrings():
    import importlib

    for module_name in (
        "repro.engine",
        "repro.engine.candidates",
        "repro.engine.context",
        "repro.engine.engine",
        "repro.engine.executor",
        "repro.engine.requests",
        "repro.engine.scheduler",
        "repro.engine.service",
        "repro.uncertain.sharedmem",
    ):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} has no module docstring"


# --------------------------------------------------------------------- #
# 4. a module over the size guideline says why
# --------------------------------------------------------------------- #
MODULE_LINE_GUIDELINE = 600
SIZE_REASON = "longer than the repository's ~600-line guideline"


def test_oversized_modules_state_a_reason():
    unexplained = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        text = path.read_text()
        if text.count("\n") <= MODULE_LINE_GUIDELINE:
            continue
        docstring = " ".join((ast.get_docstring(ast.parse(text)) or "").split())
        if SIZE_REASON not in docstring:
            unexplained.append(path.relative_to(REPO_ROOT).as_posix())
    assert not unexplained, (
        f"modules over {MODULE_LINE_GUIDELINE} lines whose docstring does not "
        f"say why they are {SIZE_REASON!r}: {unexplained}"
    )
