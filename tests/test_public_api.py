"""Every exported name has a caller, every member of an exported class a
reader, and every parameter default a caller that overrides it.

A name in a module's ``__all__`` must be used somewhere in ``src/exhaz``
outside its own definition, or in ``perfbench/``; a use is a name or an
attribute in the code (docstrings, comments and ``__all__`` strings do not
count).  Likewise every field, property and method of an exported class
must be read as an attribute (``obj.member``) in those files outside the
member's own definition; a constructor keyword is not a read, and a read
of any attribute with the member's name counts.  Dunder methods are
exempt.  And every parameter with a default, in every top-level function
and method of ``src/exhaz``, must be set by some call in those files
outside the function's own body, by keyword or by position; a call counts
when it names a function (or, for ``__init__``, the class) of that name.
A default nothing overrides is a setting no caller varies.  Exports,
members and defaults that are there for users rather than for other code
are on the allow-lists below, each with its reason.  Every exception class
of ``errors`` must be raised in ``src/exhaz`` or caught by name in an
``except`` clause there or in ``perfbench/``.
"""

import ast
import importlib
import math
import pkgutil
from pathlib import Path

import exhaz
from exhaz import errors

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "exhaz"
PERFBENCH = ROOT / "perfbench"

ALLOWED = {
    "net_survival": "paper-reported quantity: net survival exp(-H_E)",
    "excess_hazard": "paper-reported quantity: the excess hazard h_E",
    "excess_cum_hazard": "paper-reported quantity: the cumulative excess hazard H_E",
    "marginal_survival_m3": "paper-reported quantity: M3 marginal overall survival",
    "load_cohort": "user entry point: reads a cohort CSV",
    "run_study": "user entry point: runs a recovery study",
    "write_study_reports": "user entry point: writes a study's report files",
}

DEFAULTS_ALLOWED = {
    "marginal_survival_m3.advance_year": "must match the convention the cohort was prepared with",
    "confidence_intervals.level": "users choose the Wald level; the recovery study reports 95%",
    "calibrate_dropout_rate.pilot_n": "pilot size trades calibration precision for time",
    "run_study.table": "callers running several studies load their life table once",
    "run_study.jobs": "worker processes: a deployment setting, results do not depend on it",
    "load_cohort.transforms": "user input: centring and scaling of the covariate columns",
}

MEMBERS_ALLOWED = {
    "FitResult.notes": "fit diagnostics: box-bound, non-PD and convergence notes for the user",
    "FitResult.cov_transformed": "covariance for delta-method intervals of derived quantities",
    "FitResult.decrement": "fit diagnostic: the ll a Newton step would still gain at the estimate",
    "FitResult.min_eig": "fit diagnostic: the smallest eigenvalue of the information matrix",
}


def _definition_lines(tree: ast.Module, name: str) -> range | None:
    """Line span of the top-level statement that defines ``name``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = node.name == name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = any(isinstance(t, ast.Name) and t.id == name for t in targets)
        else:
            continue
        if defined:
            return range(node.lineno, node.end_lineno + 1)
    return None


def _uses(tree: ast.Module):
    """(name, line) of every name and attribute used in the code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _class_members(tree: ast.Module, name: str):
    """(member, line span) of each field, property and method of class ``name``."""
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name == name):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                member = item.name
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                member = item.target.id
            else:
                continue
            if not (member.startswith("__") and member.endswith("__")):
                yield member, range(item.lineno, item.end_lineno + 1)


def _attribute_reads(tree: ast.Module):
    """(attribute, line) of every attribute the code reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def _trees():
    return {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]
    }


def _exports():
    for info in pkgutil.iter_modules(exhaz.__path__):
        module = importlib.import_module(f"exhaz.{info.name}")
        for name in getattr(module, "__all__", ()):
            yield info.name, name


def _unused_exports():
    trees = _trees()
    unused = []
    for module, name in _exports():
        home = SRC / f"{module}.py"
        own = _definition_lines(trees[home], name)
        assert own is not None, f"{module}.__all__ lists {name!r}, which it does not define"
        used = any(
            used_name == name and not (path == home and line in own)
            for path, tree in trees.items()
            for used_name, line in _uses(tree)
        )
        if not used:
            unused.append(f"{module}.{name}")
    return unused


def test_every_export_has_a_caller_or_a_reason():
    unused = [n for n in _unused_exports() if n.rpartition(".")[2] not in ALLOWED]
    assert unused == [], f"exported but called nowhere in src/exhaz or perfbench: {unused}"


def test_allow_list_names_real_exports():
    exported = {name for _, name in _exports()}
    assert set(ALLOWED) <= exported, set(ALLOWED) - exported


def _unread_members():
    """``Class.member`` of every exported-class member that nothing reads.

    A read is matched by attribute name only, not by the receiver's type,
    so a member name shared by several exported classes counts as read for
    all of them once any one is read.  Thirteen names are shared, among
    them ``n``, ``seed``, ``time``, ``model`` and ``n_covariates``: an
    unread member behind such a name passes this check.
    """
    trees = _trees()
    reads = {path: list(_attribute_reads(tree)) for path, tree in trees.items()}
    unread = []
    for module, name in _exports():
        home = SRC / f"{module}.py"
        for member, own in _class_members(trees[home], name):
            read = any(
                attr == member and not (path == home and line in own)
                for path, attrs in reads.items()
                for attr, line in attrs
            )
            if not read:
                unread.append(f"{name}.{member}")
    return unread


def test_every_member_of_an_exported_class_is_read_or_has_a_reason():
    unread = [m for m in _unread_members() if m not in MEMBERS_ALLOWED]
    assert unread == [], f"members read nowhere in src/exhaz or perfbench: {unread}"


def test_member_allow_list_names_real_members():
    trees = _trees()
    members = {
        f"{name}.{member}"
        for module, name in _exports()
        for member, _ in _class_members(trees[SRC / f"{module}.py"], name)
    }
    assert set(MEMBERS_ALLOWED) <= members, set(MEMBERS_ALLOWED) - members


def _functions(tree: ast.Module):
    """(name a call uses, node, is_method) of every top-level function and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in item.decorator_list
                    )
                    name = node.name if item.name == "__init__" else item.name
                    yield name, item, not static


def _defaults(fn, is_method: bool):
    """(parameter, index among the positional arguments a call passes, or None)
    of each parameter with a default."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for j in range(first, len(positional)):
        yield positional[j].arg, j - is_method
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _calls(tree: ast.Module):
    """(callee name, line, positional count, keywords) of every call; a
    ``*args`` counts as any number of positional arguments and a ``**kwargs``
    as every keyword."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords}
        yield name, node.lineno, math.inf if starred else len(node.args), keywords


def _unset_defaults():
    trees = _trees()
    calls = {path: list(_calls(tree)) for path, tree in trees.items()}
    unset = []
    for path in sorted(SRC.glob("*.py")):
        for name, fn, is_method in _functions(trees[path]):
            own = range(fn.lineno, fn.end_lineno + 1)
            for param, j in _defaults(fn, is_method):
                set_somewhere = any(
                    callee == name
                    and not (where == path and line in own)
                    and (param in keywords or None in keywords or (j is not None and n_pos > j))
                    for where, found in calls.items()
                    for callee, line, n_pos, keywords in found
                )
                if not set_somewhere:
                    unset.append(f"{fn.name}.{param}")
    return unset


def test_every_default_is_overridden_by_a_caller_or_has_a_reason():
    unset = [d for d in _unset_defaults() if d not in DEFAULTS_ALLOWED]
    assert unset == [], f"defaults no call in src/exhaz or perfbench overrides: {unset}"


def test_default_allow_list_names_real_defaults():
    trees = _trees()
    defaults = {
        f"{fn.name}.{param}"
        for path in SRC.glob("*.py")
        for _, fn, is_method in _functions(trees[path])
        for param, _ in _defaults(fn, is_method)
    }
    assert set(DEFAULTS_ALLOWED) <= defaults, set(DEFAULTS_ALLOWED) - defaults


def _exception_names(node):
    """Names of the classes a ``raise`` or an ``except`` clause refers to."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return {name for elt in node.elts for name in _exception_names(elt)}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def test_every_error_class_is_raised_or_caught():
    used = set()
    for path, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and path.parent == SRC:
                used |= _exception_names(node.exc)
            elif isinstance(node, ast.ExceptHandler):
                used |= _exception_names(node.type)
    classes = [
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == errors.__name__
    ]
    assert classes and set(classes) - used == set(), set(classes) - used
