"""Every public module-level function of hermspec has a caller inside the package.

A function that only tests or the benchmark call is a second route to a number
the product computes another way; it moves to the tests or goes.  A name counts
as called when some module other than __init__.py reads it, as a name or as an
attribute; the re-export list in __init__.py does not count.
"""

import ast
import pathlib

import hermspec

# Entry points whose callers live outside src/, each with its reason.
OUTSIDE_CALLERS = {
    "cli.main": "the hermspec console script named in pyproject.toml",
    "spectral.jacobi_eigh": "perfbench binds it in hermspec.control and traces it by name",
}


def test_every_public_function_has_a_caller_in_src():
    defined, read = [], set()
    for path in sorted(pathlib.Path(hermspec.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        defined += [(f"{path.stem}.{node.name}", node.name) for node in tree.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    uncalled = [q for q, name in defined if name not in read and q not in OUTSIDE_CALLERS]
    assert uncalled == []
