"""No module of the package uses another module's private helpers.

A name with a leading underscore is private to its module: a sibling may
neither import it (``from .x import _y``) nor reach it through the module
(``x._y``).  There is no exception.
"""

import ast
from pathlib import Path

import pwmjel

PACKAGE = Path(pwmjel.__file__).parent
SIBLINGS = {p.stem for p in PACKAGE.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _sibling(module: str | None, level: int) -> str | None:
    """The sibling module an import names, or None."""
    if level == 1 and module in SIBLINGS:
        return module
    if level == 0 and module and module.startswith("pwmjel."):
        name = module.split(".", 1)[1]
        return name if name in SIBLINGS else None
    return None


def _uses(path: Path):
    """``(sibling, name)`` for each private name of a sibling that ``path`` uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {}  # local name -> sibling module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            sibling = _sibling(node.module, node.level)
            for alias in node.names:
                if sibling is not None and _private(alias.name):
                    yield sibling, alias.name
                # from . import x / from pwmjel import x binds module x
                package = (node.level, node.module) in ((1, None), (0, "pwmjel"))
                if package and alias.name in SIBLINGS:
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                sibling = _sibling(alias.name, 0)
                if sibling is not None and alias.asname:
                    modules[alias.asname] = sibling
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            yield modules[node.value.id], node.attr


def test_no_module_uses_a_siblings_private_helpers():
    found = {(path.stem, sibling, name)
             for path in sorted(PACKAGE.glob("*.py")) for sibling, name in _uses(path)}
    assert found == set()


def test_the_check_sees_both_forms_of_use(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from .el import _validate_points\nfrom . import el as kernel\n"
                   "from pwmjel import estimators\nkernel._not_converged\n"
                   "estimators._cached_weights\n")
    assert sorted(_uses(bad)) == [("el", "_not_converged"), ("el", "_validate_points"),
                                  ("estimators", "_cached_weights")]
