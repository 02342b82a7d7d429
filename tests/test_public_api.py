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
A default nothing overrides is a setting no caller varies.  So is a
dataclass field with a default (or a ``default_factory``) that its
constructor takes: it must be set, outside its own class, by a call of its
class or of ``dataclasses.replace`` that names it by keyword, or by a call
of its class that passes it by position, in ``src/exhaz``, ``perfbench/``
or ``tools/``.  Exports, members, defaults and fields that are there for
users rather than for other code are on the allow-lists below, each with
its reason.  Every exception class
of ``errors`` must be raised in ``src/exhaz`` or caught by name in an
``except`` clause there or in ``perfbench/``.  Every dataclass of
``src/exhaz`` with an array field derives from ``lifetable._Record``, the
one place that freezes fields and copies a record.  Every name a module of
``src/exhaz``, ``tools/`` or ``perfbench/`` imports must be used in that
module or listed in its ``__all__``, so a deletion leaves no import behind.
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
TOOLS = ROOT / "tools"

ALLOWED = {
    "net_survival": "paper-reported quantity: net survival exp(-H_E)",
    "excess_hazard": "paper-reported quantity: the excess hazard h_E",
    "excess_cum_hazard": "paper-reported quantity: the cumulative excess hazard H_E",
    "marginal_survival_m3": "paper-reported quantity: M3 marginal overall survival",
    "load_cohort": "user entry point: reads a cohort CSV",
    "load_life_table": "user entry point: reads a life-table CSV to pass to run_study",
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

FIELDS_ALLOWED = {
    "ScenarioConfig.seed": "the benchmark reads it as the base of each replicate's stream",
    "ScenarioConfig.gh": "the truth a study is scored against; a user studying another "
                         "excess hazard sets it",
}

MEMBERS_ALLOWED = {
    "FitResult.notes": "fit diagnostics: box-bound, non-PD and convergence notes for the user",
    "FitResult.cov_transformed": "covariance for delta-method intervals of derived quantities",
    "FitResult.decrement": "fit diagnostic: the ll a Newton step would still gain at the estimate",
    "FitResult.min_eig": "fit diagnostic: the smallest eigenvalue of the information matrix",
    "StudyMetrics.records": "one record per replicate, the fits behind the study's metrics",
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


def _is_dataclass(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list
    )


def _dataclass_fields(tree: ast.Module):
    """(class node, field, index among the constructor's positional
    arguments, whether it has a default) of each field a top-level
    dataclass's constructor takes; ``field(init=False)`` ones are skipped."""
    for node in tree.body:
        if not _is_dataclass(node):
            continue
        index = 0
        for item in node.body:
            if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
                continue
            value, has_default = item.value, item.value is not None
            if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
                options = {k.arg: k.value for k in value.keywords}
                init = options.get("init")
                if isinstance(init, ast.Constant) and init.value is False:
                    continue
                has_default = "default" in options or "default_factory" in options
            yield node, item.target.id, index, has_default
            index += 1


def _unset_fields():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py"), *TOOLS.glob("*.py")]
    }
    calls = {path: list(_calls(tree)) for path, tree in trees.items()}
    unset = []
    for path in sorted(SRC.glob("*.py")):
        for cls, name, j, has_default in _dataclass_fields(trees[path]):
            if not has_default:
                continue
            own = range(cls.lineno, cls.end_lineno + 1)
            set_somewhere = any(
                callee in (cls.name, "replace")
                and not (where == path and line in own)
                and (name in keywords or None in keywords or (callee == cls.name and n_pos > j))
                for where, found in calls.items()
                for callee, line, n_pos, keywords in found
            )
            if not set_somewhere:
                unset.append(f"{cls.name}.{name}")
    return unset


def test_every_field_default_is_set_by_a_caller_or_has_a_reason():
    unset = [f for f in _unset_fields() if f not in FIELDS_ALLOWED]
    assert unset == [], f"dataclass fields no call in src/exhaz, perfbench or tools sets: {unset}"


def test_field_allow_list_names_real_fields_with_defaults():
    fields = {
        f"{cls.name}.{name}"
        for path in SRC.glob("*.py")
        for cls, name, _, has_default in _dataclass_fields(ast.parse(path.read_text(encoding="utf-8")))
        if has_default
    }
    assert set(FIELDS_ALLOWED) <= fields, set(FIELDS_ALLOWED) - fields


def test_the_field_check_skips_init_false_fields_and_counts_positions():
    source = (
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    a: int\n"
        "    b: int = 0\n"
        "    memo: dict = field(default_factory=dict, init=False)\n"
        "    c: list = field(default_factory=list)\n"
        "    d: int = 1\n"
    )
    got = [(name, j, has_default) for _, name, j, has_default in _dataclass_fields(ast.parse(source))]
    assert got == [("a", 0, False), ("b", 1, True), ("c", 2, True), ("d", 3, True)]


ARRAY_RECORDS = ("LifeTable", "Cohort", "ParamLayout", "ModelParams", "PreparedCohort", "FitResult")


def test_every_array_record_freezes_and_copies_through_one_base():
    # a record that froze or copied itself could hand out writeable arrays,
    # or a copy that shares the original's caches
    bases, stray, reduces = {}, [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = [range(node.lineno, node.end_lineno + 1) for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "_Record"]
        for node in tree.body:
            if _is_dataclass(node) and any(
                isinstance(item, ast.AnnAssign) and "np.ndarray" in ast.unparse(item.annotation)
                for item in node.body
            ):
                bases[node.name] = [ast.unparse(base) for base in node.bases]
        for node in ast.walk(tree):
            reduce = isinstance(node, ast.FunctionDef) and node.name == "__reduce__"
            setattr_ = isinstance(node, ast.Attribute) and ast.unparse(node) == "object.__setattr__"
            reduces += reduce
            if (reduce or setattr_) and not any(node.lineno in lines for lines in own):
                stray.append(f"{path.name}:{node.lineno}")
    assert bases == {name: ["_Record"] for name in ARRAY_RECORDS}, bases
    assert stray == [] and reduces == 1, (stray, reduces)


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


def _unused_imports(source: str) -> list[str]:
    """``name (line N)`` of each name the module's imports bind that its code
    never uses and its ``__all__`` does not list; ``__future__`` is exempt."""
    tree = ast.parse(source)
    bound, exported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in used and name not in exported]


def test_every_import_is_used():
    unused = {
        str(path.relative_to(ROOT)): names
        for path in sorted([*SRC.glob("*.py"), *TOOLS.glob("*.py"), *PERFBENCH.glob("*.py")])
        if (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}, f"imported but never used: {unused}"


def test_the_import_check_names_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from numpy import array as arr, zeros\n"
        "__all__ = ['zeros']\n"
        "print(math.pi)\n"
    )
    assert _unused_imports(source) == ["os (line 3)", "arr (line 4)"]
