"""The public API is what the runs use: every public name of ``vanhove`` is
reachable, by name, from a run, from a reader of a written format, or
from the README's library example."""
import ast
import re
import types
from pathlib import Path

import vanhove

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vanhove"
ROOTS = [("harness", "run_experiment"), ("cli", "main"), ("wigner", "read_phase_field")]


def _references(node):
    """Every Name and Attribute node under ``node``, type annotations
    left out: a type named only in a signature is not a use."""
    skipped = set()
    for child in ast.walk(node):
        if id(child) in skipped:
            continue
        for annotation in (getattr(child, "annotation", None), getattr(child, "returns", None)):
            if annotation is not None:
                skipped.update(id(n) for n in ast.walk(annotation))
        if isinstance(child, (ast.Name, ast.Attribute)):
            yield child


def definitions():
    """{(module, name): the names that the top-level definition uses, each
    as a (module, name) key}, for every module of the package."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    graph = {}
    for module, tree in trees.items():
        names, modules, bodies = {}, {}, {}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    local = alias.asname or alias.name
                    if stmt.module:
                        names[local] = (stmt.module, alias.name)
                    else:
                        modules[local] = alias.name
            elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bodies[stmt.name] = stmt
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        bodies[target.id] = stmt
        names.update({name: (module, name) for name in bodies})
        for name, body in bodies.items():
            used = set()
            for ref in _references(body):
                if isinstance(ref, ast.Name) and ref.id in names:
                    used.add(names[ref.id])
                elif isinstance(ref, ast.Attribute) and getattr(ref.value, "id", None) in modules:
                    used.add((modules[ref.value.id], ref.attr))
            graph[(module, name)] = used
    return graph


def reachable(graph, roots):
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(graph.get(key, ()))
    return seen


def readme_names():
    readme = (ROOT / "README.md").read_text()
    [example] = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    return set(re.findall(r"\bvh\.(\w+)", example))


def public_names():
    return {name: value for name, value in vars(vanhove).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def key_of(value):
    return value.__module__.rpartition(".")[2], value.__name__


def test_every_public_name_is_reached_from_a_run_a_reader_or_the_readme():
    public = public_names()
    roots = ROOTS + [key_of(public[name]) for name in readme_names()]
    seen = reachable(definitions(), roots)
    unreached = sorted(name for name, value in public.items() if key_of(value) not in seen)
    assert unreached == []

