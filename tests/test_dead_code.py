"""Dead-code guard over ``src/foliations``, with the standard ``ast`` only.

Every name a module imports must be used in that module or listed in its
``__all__``, every module-level private name must be referenced from
another top-level statement of the package, and every private method,
property or cached property of a class must be referenced from outside its
own definition.  Every public module-level name, method or property must be
read from outside its own definition by the package, ``demos/`` or
``bench/`` (tests do not count), unless ``API`` lists it with the reason it
is kept.  The checks go by name: a member passes when any read attribute
shares its name.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import foliations

TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(Path(foliations.__file__).parent.glob("*.py"))}
CALLERS = [ast.parse(path.read_text(encoding="utf-8"))
           for folder in ("demos", "bench")
           for path in sorted((Path(__file__).resolve().parents[1] / folder).glob("*.py"))]

# public names that nothing outside the tests reads, and why they stay
API = {
    "algebra.GaussianRational.conjugate":
        "arithmetic of the public scalar type",
    "algebra.GaussianRational.norm2":
        "arithmetic of the public scalar type; the roots reference takes its "
        "Cauchy bound from it",
    "algebra.Poly.eval_complex":
        "the float evaluation the compiled code is checked against; bench/run.py "
        "reads its span 'algebra.Poly.eval_complex' by name",
    "algebra.ChartFunction.eval_complex":
        "the float evaluation the compiled code is checked against",
    "classify.is_nilpotent":
        "the nilpotency test that test_classify_sympy checks against sympy",
}


def _names(node: ast.AST, references: bool = False) -> set[str]:
    """Names ``node`` loads, string annotations included; with ``references``
    also the attributes it reads and the names it imports from modules."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif references and isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif references and isinstance(sub, ast.ImportFrom):
            out.update(a.name for a in sub.names)
        for ann in (getattr(sub, "annotation", None), getattr(sub, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                out |= _names(ast.parse(ann.value, mode="eval"))
    return out


def _defined(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def test_every_import_is_used():
    unused = []
    for module, tree in TREES.items():
        used = _names(tree) | {c.value for stmt in tree.body if "__all__" in _defined(stmt)
                               for c in ast.walk(stmt) if isinstance(c, ast.Constant)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                unused += [f"{module}: {a.name}" for a in node.names
                           if (a.asname or a.name).split(".")[0] not in used]
    assert unused == []


def test_every_private_name_is_referenced():
    statements = [stmt for tree in TREES.values() for stmt in tree.body]
    references = [_names(stmt, references=True) for stmt in statements]
    dead = [name for i, stmt in enumerate(statements) for name in _defined(stmt)
            if name.startswith("_") and not name.startswith("__")
            and not any(name in refs for j, refs in enumerate(references) if j != i)]
    assert dead == []


def _reads(node: ast.AST) -> Counter:
    """How often ``node`` loads each name or reads each attribute."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute)
                   or (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)))


def test_every_private_member_is_referenced():
    reads = sum((_reads(tree) for tree in TREES.values()), Counter())
    dead = [f"{module}: {cls.name}.{member.name}"
            for module, tree in TREES.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for member in cls.body
            if isinstance(member, ast.FunctionDef)
            and member.name.startswith("_") and not member.name.startswith("__")
            and reads[member.name] == _reads(member)[member.name]]
    assert dead == []


def _public_definitions():
    """``(qualified name, name, definition)`` for every public module-level
    name and every public method or property of a module-level class."""
    for module, tree in TREES.items():
        prefix = module.removesuffix(".py")
        for stmt in tree.body:
            for name in _defined(stmt):
                if not name.startswith("_"):
                    yield f"{prefix}.{name}", name, stmt
            if isinstance(stmt, ast.ClassDef):
                for member in stmt.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{prefix}.{stmt.name}.{member.name}", member.name, member


def test_every_public_name_is_read_outside_the_tests():
    reads = sum((_reads(tree) for tree in [*TREES.values(), *CALLERS]), Counter())
    found = {qualified for qualified, name, node in _public_definitions()
             if reads[name] == _reads(node)[name]}
    assert sorted(found - API.keys()) == []
    assert sorted(API.keys() - found) == []
