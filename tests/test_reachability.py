"""Guard against library-only code.

A coarse scan of the syntax trees of `src/`: a top-level function or class
is reachable when its name is used in `cli.py`, in module-level code (not
a function or class body) of a module other than `__init__.py`, or in the
body of a reachable definition. Names are matched by identifier alone,
with attribute names counted as uses. A definition that no command reaches
is a second route to a verdict or a wrapper, and each one left doubles what
there is to test. So every unreachable definition is listed below with the
reason it stays.
"""

import ast
from pathlib import Path

import levy_transience

SRC = Path(levy_transience.__file__).parent

_CRITERION_5 = ("acceptance criterion 5: the three tail functionals and "
                "the identity T1 = T2/2 + T3/2")

# definition -> the reason it stays although no command reaches it
KEEP = {
    "modified_density": "acceptance criterion 8: verdicts are invariant "
                        "under a local change of the jump density",
    "tail_functionals": _CRITERION_5,
    "TailFunctionals": _CRITERION_5,
    "tail_mass": _CRITERION_5,
    "truncated_second_moment": _CRITERION_5,
    "integrated_tail": _CRITERION_5,
    "custom_model": "builds symbols and envelopes outside the families, "
                    "such as the oscillatory envelope that must stay "
                    "Inconclusive",
    "simulate_stable_like_path": "one Euler path: the Euler tests and the "
                                 "horizon-prefix check",
    "euler_terminal_states": "Euler terminal states: the Euler tests",
}


def _trees():
    return {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}


def _names(node):
    """Identifiers used in node: names, and the attribute part of a.b."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _unreachable():
    trees = _trees()
    roots = _names(trees["cli"])
    defs = {}
    for module, tree in trees.items():
        if module in ("cli", "__init__"):
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names(node)
    seen, todo = set(), [n for n in roots if n in defs]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += [n for node in defs[name] for n in _names(node)
                     if n in defs]
    return set(defs) - seen


def test_only_the_kept_definitions_are_unreachable_from_the_cli():
    unreachable = _unreachable()
    assert sorted(unreachable - set(KEEP)) == [], \
        "definitions no command reaches: wire each into a command, " \
        "delete it, or give it a reason here"
    assert sorted(set(KEEP) - unreachable) == [], \
        "kept entries that a command now reaches or that are gone"


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for module, tree in _trees().items():
        if module == "__init__":   # its imports are the public names
            continue
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{module}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0]
                           not in used]
    assert unused == []


def test_only_the_density_and_the_quadrature_integrate_variants():
    # how a variant of a radial density is integrated is the density's
    # question: other modules read its sweeps, not the quadrature sweeps
    machinery = {"tail_cumulative", "origin_cumulative", "jump_symbol_value"}
    found = {module: sorted(_names(tree) & machinery)
             for module, tree in _trees().items()
             if module not in ("densities", "quadrature")}
    assert {m: names for m, names in found.items() if names} == {}
