"""Dead-code guard over ``src/foliations``, with the standard ``ast`` only.

Every name a module imports must be used in that module or listed in its
``__all__``, every module-level private name must be referenced from
another top-level statement of the package, and every private method,
property or cached property of a class must be referenced from outside its
own definition.  Every public module-level name, method or property must be
read from outside its own definition by the package, ``demos/`` or
``bench/`` (tests do not count), unless ``API`` lists it with the reason it
is kept.  Every defaulted parameter of a public function or method, or of a
public class's ``__init__``, must be passed by some call there outside its
own definition, unless ``OPTIONS`` lists it with the reason it is kept, and
no public function takes ``**kwargs``.  The checks go by name: a member
passes when any read attribute shares its name, and an option when any call
of a function of that name passes it.  Dunder methods, which operators and
builtins reach without naming them, are left to ``tests/line_guard.py``:
a dunder that no test enters leaves its body's lines unexecuted.
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

# defaulted parameters that no call outside the tests passes, and why they stay
OPTIONS = {
    "corpus.sancho_sanz_field.alpha":
        "a parameter of the Sancho-Sanz family; tests build other members, "
        "such as (0, 1, 0)",
    "corpus.sancho_sanz_field.beta":
        "a parameter of the Sancho-Sanz family; tests build other members, "
        "such as (0, 1, 0)",
    "corpus.sancho_sanz_field.lam":
        "a parameter of the Sancho-Sanz family; tests build other members, "
        "such as (0, 1, 0)",
    "dynamics.lift_path.min_samples":
        "the golden and acceptance tests pin lifts taken at 256 samples",
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


def _defaulted(fn: ast.FunctionDef) -> list[str]:
    """The parameters of ``fn`` that have a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    return ([a.arg for a in positional[len(positional) - len(args.defaults):]]
            + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def _callables():
    """``(qualified name, called name, definition)`` for every public
    function and method, and for the ``__init__`` of every public class,
    which calls reach by the class name."""
    for qualified, name, node in _public_definitions():
        if isinstance(node, ast.FunctionDef):
            yield qualified, name, node
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and member.name == "__init__":
                    yield f"{qualified}.__init__", name, member


def _passed(call: ast.Call, fn: ast.FunctionDef) -> set[str]:
    """The parameters of ``fn`` that ``call`` passes: all of them when it
    spreads ``*`` or ``**``."""
    params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    if params[:1] in (["self"], ["cls"]):
        params = params[1:]
    if (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords)):
        return set(params) | {a.arg for a in fn.args.kwonlyargs}
    return set(params[:len(call.args)]) | {k.arg for k in call.keywords}


def test_every_option_is_set_outside_the_tests():
    calls = [(node, node.func.id if isinstance(node.func, ast.Name)
              else getattr(node.func, "attr", None))
             for tree in [*TREES.values(), *CALLERS] for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unset, spread = set(), []
    for qualified, name, fn in _callables():
        if fn.args.kwarg is not None:
            spread.append(f"{qualified}: **{fn.args.kwarg.arg}")
        own = set(map(id, ast.walk(fn)))
        passed = set().union(*(_passed(call, fn) for call, called in calls
                               if called == name and id(call) not in own))
        unset |= {f"{qualified}.{option}" for option in _defaulted(fn)
                  if option not in passed}
    assert sorted(unset - OPTIONS.keys()) + spread == []
    assert sorted(OPTIONS.keys() - unset) == []
