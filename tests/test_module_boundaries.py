"""Module boundaries: a package module reaches another one only through
its public names, and only `sets` reads the integer endpoint format
`Interval._ends`.  Names of the standard library, such as argparse's
`_actions`, are outside this check.  Within `covers`, a grid cover
answers `Cover`'s queries through `Cover`'s own bodies.  Only `engine`
orders a match's moves: `interactive` seats the human in its innings."""

import ast
from pathlib import Path

import intervalgames
from intervalgames.covers import GridCover

PACKAGE = Path(intervalgames.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def sources() -> list[tuple[str, ast.Module]]:
    return [
        (path.name, ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(PACKAGE.glob("*.py"))
    ]


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_names_from_other_modules(tree: ast.Module) -> list[str]:
    """`from .m import _x`, `from intervalgames.m import _x`, and `m._x`
    for a package module m imported by name."""
    found, module_names = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "intervalgames":
            continue
        for alias in node.names:
            if is_private(alias.name):
                found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
            elif node.module in (None, "intervalgames") and alias.name in MODULES:
                module_names.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_names
            and is_private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return found


def test_no_private_name_crosses_a_package_module():
    crossings = {
        name: found
        for name, tree in sources()
        if (found := private_names_from_other_modules(tree))
    }
    assert crossings == {}


def test_only_sets_reads_the_integer_endpoint_format():
    readers = {
        name: [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "_ends"]
        for name, tree in sources()
        if name != "sets.py"
    }
    assert {name: lines for name, lines in readers.items() if lines} == {}


def test_grid_cover_overrides_no_cover_query():
    """Every cover query is written once, on `Cover`, over the two
    questions each kind of cover answers (`_meeting`, `_holders`): the
    grid defines no public name but its members and their texts."""
    public = sorted(name for name in vars(GridCover) if not name.startswith("_"))
    assert public == ["member", "member_texts", "members"]


def test_interactive_referees_no_move_itself():
    """`cli.cmd_interactive` plays through `engine.innings`: it validates,
    asks for and shows no move itself."""
    tree = dict(sources())["cli.py"]
    body = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "cmd_interactive"
    )
    calls = set()
    for node in ast.walk(body):
        if isinstance(node, ast.Call):
            func = node.func
            calls.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    moves = {"validate_cover", "referee_step", "respond", "next_cover", "observe"}
    assert calls & moves == set()
