"""The reference implementations stay independent of the package they check."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def imported_modules(source: str) -> list[str]:
    """Every module an import statement in `source` names; relative ones keep their dots."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
    return names


def test_imported_modules_sees_every_form():
    source = "import a.b\nfrom modleak import gaussian\nfrom . import x\nif x:\n    import modleak"
    assert imported_modules(source) == ["a.b", "modleak", ".", "modleak"]


def test_oracles_do_not_import_the_package():
    names = imported_modules(ORACLES.read_text(encoding="utf-8"))
    assert names, "no imports found: the parser did not read oracles.py"
    offending = [n for n in names if n.startswith(".") or n.split(".")[0] == "modleak"]
    assert offending == []
