"""The REP rule set: repo-specific numeric-safety lint rules.

Each rule carries an ID, severity, rationale, and fix hint, and declares
which part of the tree it applies to via path scoping (so ``compressors``
rules do not fire on ``harness`` code and nothing fires on ``tests``).
Fixture files used by the rule tests live under a ``fixtures/`` directory;
path scoping treats everything *after* the last ``fixtures`` component as
the virtual location, so ``tests/check/fixtures/compressors/x.py`` is
linted as if it lived in a ``compressors`` package.

The process-safety and determinism rules (REP005, REP006, REP015,
REP016, REP017) flag their hazard anywhere outside the trusted paths
(``obs``, ``check``, ``testing`` and ``config.py``), whether or not a
worker provably reaches it: codecs, the field synthesizer and registry
dispatch all run inside workers through calls no static linker follows.

Adding a rule: write a ``check(tree, lines, path) -> [(line, col, msg)]``
function, construct a :class:`Rule` with a fresh ``REPxxx`` ID, and append
it to :data:`RULES`.  The engine, the noqa machinery, the CLI, and the
"lint src/ is clean" test gate pick it up automatically.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import PurePath
from typing import Callable, Sequence

__all__ = ["Rule", "RULES", "rules_by_id", "effective_parts"]

RawFinding = tuple[int, int, str]
Checker = Callable[[ast.AST, Sequence[str], str], list[RawFinding]]


@dataclass(frozen=True)
class Rule:
    """One lint rule: identity, scope, and checker."""

    id: str
    title: str
    severity: str  # "error" | "warning"
    rationale: str
    fix_hint: str
    applies: Callable[[tuple[str, ...]], bool]
    check: Checker


def effective_parts(path: str) -> tuple[str, ...]:
    """Path components used for rule scoping.

    Components after the last ``fixtures`` directory win, so test fixture
    trees mirror the real package layout.
    """
    parts = PurePath(path).parts
    if "fixtures" in parts:
        cut = len(parts) - 1 - parts[::-1].index("fixtures")
        parts = parts[cut + 1:]
    return parts


def _in(*names: str) -> Callable[[tuple[str, ...]], bool]:
    return lambda parts: any(n in parts for n in names)


def _not_tests(parts: tuple[str, ...]) -> bool:
    return "tests" not in parts


def _untrusted(parts: tuple[str, ...]) -> bool:
    """Outside the trusted boundary: ``obs`` owns clocks and its sinks,
    ``config.py`` owns environment reads, and ``check``/``testing`` are
    tooling that never runs inside a worker."""
    return (_not_tests(parts)
            and not any(p in parts for p in ("obs", "check", "testing"))
            and (not parts or parts[-1] != "config.py"))


# -- AST helpers -------------------------------------------------------------

def _attr_chain(node: ast.AST) -> str:
    """Dotted-name string for Name/Attribute chains (else '')."""
    out: list[str] = []
    while isinstance(node, ast.Attribute):
        out.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        out.append(node.id)
        return ".".join(reversed(out))
    return ""


def _import_map(tree: ast.AST) -> dict[str, str]:
    """Local name -> dotted target for every aliasing import in the file."""
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname, a.name) for a in node.names if a.asname)
        elif isinstance(node, ast.ImportFrom) and node.module \
                and not node.level:
            names.update((a.asname or a.name, f"{node.module}.{a.name}")
                         for a in node.names)
    return names


def _resolved(node: ast.AST, imports: dict[str, str]) -> str:
    """:func:`_attr_chain` with its root rewritten through ``imports``:
    ``environ.get`` becomes ``os.environ.get`` after ``from os import
    environ``."""
    chain = _attr_chain(node)
    root, dot, rest = chain.partition(".")
    target = imports.get(root)
    return chain if target is None else f"{target}{dot}{rest}"


def _module_assignments(
    tree: ast.AST,
) -> list[tuple[ast.stmt, str, ast.expr]]:
    """``(statement, name, value)`` for each module-level name binding.

    Dunder names (``__all__`` and friends) are interpreter protocol and
    left out.
    """
    out: list[tuple[ast.stmt, str, ast.expr]] = []
    if not isinstance(tree, ast.Module):
        return out
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and not (
                    target.id.startswith("__")
                    and target.id.endswith("__")):
                out.append((stmt, target.id, value))
    return out


def _nested_function_names(tree: ast.AST) -> set[str]:
    """Names of functions defined inside another function (unpicklable)."""
    nested: set[str] = set()

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            is_fn = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_fn and in_function:
                nested.add(child.name)
            visit(child, in_function or is_fn)

    visit(tree, False)
    return nested


# -- REP001 ------------------------------------------------------------------

_FLOAT_DTYPE_ATTRS = {"float16", "float32", "float64", "double", "single",
                      "half", "longdouble"}
_FLOAT_DTYPE_STRINGS = {"f2", "f4", "f8", "<f2", "<f4", "<f8", ">f4", ">f8",
                        "float16", "float32", "float64"}


def _is_float_dtype_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        if node.attr in _FLOAT_DTYPE_ATTRS:
            return True
        return node.attr == "dtype"  # e.g. values.dtype
    if isinstance(node, ast.Name):
        return node.id == "float" or "dtype" in node.id.lower()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value in _FLOAT_DTYPE_STRINGS
    return False


def _check_rep001(tree: ast.AST, lines: Sequence[str],
                  path: str) -> list[RawFinding]:
    found: list[RawFinding] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"):
            continue
        target: ast.AST | None = node.args[0] if node.args else None
        for kw in node.keywords:
            if kw.arg == "dtype":
                target = kw.value
        if target is None or not _is_float_dtype_expr(target):
            continue
        if any(kw.arg == "copy" for kw in node.keywords):
            continue
        found.append((
            node.lineno, node.col_offset,
            "float-dtype .astype(...) without an explicit copy= argument",
        ))
    return found


# -- REP002 ------------------------------------------------------------------

_RNG_FACTORIES = {"default_rng", "Generator", "SeedSequence", "MT19937",
                  "PCG64", "PCG64DXSM", "Philox", "SFC64", "RandomState"}


def _check_rep002(tree: ast.AST, lines: Sequence[str],
                  path: str) -> list[RawFinding]:
    found: list[RawFinding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        parts = chain.split(".")
        tail = parts[-1]
        is_np_random = len(parts) >= 2 and parts[-2] == "random" and \
            parts[0] in ("np", "numpy")
        if is_np_random and tail not in _RNG_FACTORIES:
            found.append((
                node.lineno, node.col_offset,
                f"legacy global-state RNG call np.random.{tail}(...)",
            ))
            continue
        if tail in _RNG_FACTORIES and (is_np_random or len(parts) == 1):
            seeded = bool(node.args) or any(
                kw.arg in ("seed", "bit_generator") for kw in node.keywords
            )
            if not seeded:
                found.append((
                    node.lineno, node.col_offset,
                    f"unseeded RNG construction {tail}()",
                ))
    return found


# -- REP003 ------------------------------------------------------------------

def _is_nonzero_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and node.value != 0.0)


def _check_rep003(tree: ast.AST, lines: Sequence[str],
                  path: str) -> list[RawFinding]:
    found: list[RawFinding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[i], operands[i + 1]
            if _is_nonzero_float_literal(left) or \
                    _is_nonzero_float_literal(right):
                found.append((
                    node.lineno, node.col_offset,
                    "exact ==/!= against a float literal in a "
                    "verification-metric module",
                ))
    return found


# -- REP004 ------------------------------------------------------------------

def _body_is_noop(body: Sequence[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or `...`
        return False
    return True


def _check_rep004(tree: ast.AST, lines: Sequence[str],
                  path: str) -> list[RawFinding]:
    found: list[RawFinding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            found.append((node.lineno, node.col_offset,
                          "bare except: hides every failure, including "
                          "KeyboardInterrupt, in a worker/harness path"))
            continue
        names = [node.type] if not isinstance(node.type, ast.Tuple) \
            else list(node.type.elts)
        broad = any(_attr_chain(n).split(".")[-1]
                    in ("Exception", "BaseException") for n in names)
        if broad and _body_is_noop(node.body):
            found.append((node.lineno, node.col_offset,
                          "broad exception silently swallowed "
                          "(except Exception: pass)"))
    return found


# -- REP005 ------------------------------------------------------------------

_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict",
                  "deque", "Counter"}
#: Method tails that mutate their receiver in place.
_MUTATOR_METHODS = {"append", "extend", "add", "update", "clear", "pop",
                    "popitem", "insert", "remove", "discard", "setdefault",
                    "move_to_end", "appendleft", "extendleft", "sort",
                    "reverse"}


def _mutable_literal_kind(node: ast.AST) -> str | None:
    if isinstance(node, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.Call):
        tail = _attr_chain(node.func).split(".")[-1]
        if tail in _MUTABLE_CALLS:
            return tail
    return None


def _root_name(node: ast.AST) -> str:
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else ""


def _mutations(tree: ast.AST) -> dict[str, int]:
    """Name -> first line where the file mutates what it names in place:
    a subscript store or ``del``, an augmented assignment, or a
    mutating method call."""
    lines: dict[str, list[int]] = {}

    def note(name: str, node: ast.AST) -> None:
        if name:
            lines.setdefault(name, []).append(node.lineno)

    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            stack = list(node.targets)
            while stack:
                target = stack.pop()
                if isinstance(target, (ast.Tuple, ast.List)):
                    stack.extend(target.elts)
                elif isinstance(target, ast.Subscript):
                    note(_root_name(target), node)
        elif isinstance(node, ast.AugAssign):
            note(_root_name(node.target), node)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATOR_METHODS:
            note(_root_name(node.func.value), node)
    return {name: min(found) for name, found in lines.items()}


def _check_rep005(tree: ast.AST, lines: Sequence[str],
                  path: str) -> list[RawFinding]:
    found: list[RawFinding] = []
    mutated = _mutations(tree)
    for stmt, name, value in _module_assignments(tree):
        kind = _mutable_literal_kind(value)
        if kind is None:
            continue
        if name.upper() == name and name not in mutated:
            continue  # never-mutated ALL_CAPS constant table
        where = (f", mutated at line {mutated[name]}" if name in mutated
                 else "")
        found.append((stmt.lineno, stmt.col_offset,
                      f"module-level mutable {kind} {name!r}{where}"))
    return found


# -- REP006 ------------------------------------------------------------------

#: Calls whose result is a live iterator: it does not pickle, and a
#: forked child that inherits one half-consumed sees different items.
_ITERATOR_CALLS = {"iter", "map", "filter", "zip"}


def _unpicklable_kind(value: ast.expr, imports: dict[str, str]) -> str:
    if isinstance(value, ast.Lambda):
        return "lambda"
    if isinstance(value, ast.GeneratorExp):
        return "generator expression"
    if isinstance(value, ast.Call):
        callee = _resolved(value.func, imports)
        if callee in _ITERATOR_CALLS:
            return f"{callee}() iterator"
    return ""


def _check_rep006(tree: ast.AST, lines: Sequence[str],
                  path: str) -> list[RawFinding]:
    found: list[RawFinding] = []
    imports = _import_map(tree)
    for stmt, name, value in _module_assignments(tree):
        kind = _unpicklable_kind(value, imports)
        if kind:
            found.append((stmt.lineno, stmt.col_offset,
                          f"module-level {kind} {name!r} does not survive "
                          "pickling into a process-pool task"))
    nested = _nested_function_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        chain = _attr_chain(node.func)
        tail = chain.split(".")[-1]
        if tail == "parallel_map" or tail == "submit":
            pool_like = True
        elif tail == "map" and "." in chain:
            base = chain.rsplit(".", 1)[0].lower()
            pool_like = "pool" in base or "executor" in base
        else:
            pool_like = False
        if not pool_like:
            continue
        fn_arg = node.args[0]
        if isinstance(fn_arg, ast.Lambda):
            found.append((node.lineno, node.col_offset,
                          f"lambda passed to {tail}(); process pools need "
                          "a picklable module-level callable"))
        elif isinstance(fn_arg, ast.Name) and fn_arg.id in nested:
            found.append((node.lineno, node.col_offset,
                          f"locally-defined function {fn_arg.id!r} passed "
                          f"to {tail}(); process pools need a picklable "
                          "module-level callable"))
    return found


# -- REP007 ------------------------------------------------------------------

#: CESM's fill value, the generic special-value threshold, and netCDF's
#: default float fill — all of which must come from repro.config.  This
#: tuple is the rule's own definition of the magic values, hence the
#: suppression: it is the one legitimate spelling outside config.py.
_MAGIC_FILLS = (
    1.0e35, 1.0e34, 9.96921e36,  # repro: noqa[REP007] the rule's own table
)


def _check_rep007(tree: ast.AST, lines: Sequence[str],
                  path: str) -> list[RawFinding]:
    found: list[RawFinding] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Constant)
                and isinstance(node.value, float)):
            continue
        if any(node.value == magic or node.value == -magic
               for magic in _MAGIC_FILLS):
            found.append((
                node.lineno, node.col_offset,
                f"magic fill/special value literal {node.value!r}",
            ))
    return found


# -- REP008 ------------------------------------------------------------------

_ARRAYISH_NAMES = {"data", "values", "ensemble", "field", "fields", "arr",
                   "array", "original", "reconstructed", "distribution"}
_CONTRACT_WORDS = ("array", "dtype", "shape", "float", "ndarray", "scalar",
                   "values", "field", "ensemble", "mask", "flat", "member",
                   "distribution", "vector", "matrix", "blob")


def _has_arrayish_arg(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    args = [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
    for arg in args:
        if arg.arg in ("self", "cls"):
            continue
        if arg.arg in _ARRAYISH_NAMES:
            return True
        if arg.annotation is not None:
            note = ast.unparse(arg.annotation)
            if "ndarray" in note or "ArrayLike" in note:
                return True
    return False


def _check_rep008(tree: ast.AST, lines: Sequence[str],
                  path: str) -> list[RawFinding]:
    found: list[RawFinding] = []

    def visit(node: ast.AST, depth: int) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if depth <= 1 and not child.name.startswith("_"):
                    doc = ast.get_docstring(child)
                    if not doc:
                        found.append((
                            child.lineno, child.col_offset,
                            f"public function {child.name!r} has no "
                            "docstring",
                        ))
                    elif _has_arrayish_arg(child) and not any(
                        word in doc.lower() for word in _CONTRACT_WORDS
                    ):
                        found.append((
                            child.lineno, child.col_offset,
                            f"public function {child.name!r} takes array "
                            "data but its docstring states no dtype/shape "
                            "contract",
                        ))
                visit(child, depth + 2)  # bodies of functions are nested
            elif isinstance(child, ast.ClassDef):
                visit(child, depth + 1)  # methods of top-level classes
            else:
                visit(child, depth)

    visit(tree, 0)
    return found


# -- REP009 ------------------------------------------------------------------

_CLOCK_NAMES = {
    "time", "perf_counter", "monotonic", "process_time",
    "time_ns", "perf_counter_ns", "monotonic_ns", "process_time_ns",
}


def _check_rep009(tree: ast.AST, lines: Sequence[str],
                  path: str) -> list[RawFinding]:
    found: list[RawFinding] = []
    from_imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            clocks = [a for a in node.names if a.name in _CLOCK_NAMES]
            if clocks:
                names = ", ".join(a.name for a in clocks)
                from_imported.update(a.asname or a.name for a in clocks)
                found.append((
                    node.lineno, node.col_offset,
                    f"ad-hoc clock import 'from time import {names}'",
                ))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        parts = chain.split(".")
        if len(parts) == 2 and parts[0] == "time" \
                and parts[1] in _CLOCK_NAMES:
            found.append((
                node.lineno, node.col_offset,
                f"ad-hoc wall-clock call {chain}()",
            ))
        elif len(parts) == 1 and parts[0] in from_imported:
            found.append((
                node.lineno, node.col_offset,
                f"ad-hoc wall-clock call {parts[0]}()",
            ))
    return found


# -- REP010 ------------------------------------------------------------------

def _check_rep010(tree: ast.AST, lines: Sequence[str],
                  path: str) -> list[RawFinding]:
    if not isinstance(tree, ast.Module):
        return []
    if ast.get_docstring(tree) is not None:
        return []
    return [(1, 0, "module has no docstring")]


# -- REP012 ------------------------------------------------------------------

def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body contains any ``raise`` statement.

    A nested function definition starts a new scope whose ``raise``
    executes later (if ever), so raises inside one do not count.
    """
    stack: list[ast.AST] = list(handler.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


def _check_rep012(tree: ast.AST, lines: Sequence[str],
                  path: str) -> list[RawFinding]:
    found: list[RawFinding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            continue  # bare except is REP004's finding; don't double-report
        names = [node.type] if not isinstance(node.type, ast.Tuple) \
            else list(node.type.elts)
        catches_base = any(_attr_chain(n).split(".")[-1] == "BaseException"
                           for n in names)
        if catches_base and not _handler_reraises(node):
            found.append((
                node.lineno, node.col_offset,
                "except BaseException without re-raise: KeyboardInterrupt/"
                "SystemExit would be folded into a task result",
            ))
    return found


# -- REP015 ------------------------------------------------------------------

#: Environment entry points; ``repro.config`` is their one sanctioned home.
_ENV_NAMES = {"os.environ", "os.getenv"}
#: ``random`` module functions that consult hidden global state.
_RANDOM_GLOBAL_FUNCS = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "vonmisesvariate", "paretovariate",
    "weibullvariate", "lognormvariate", "getrandbits",
}
_ENTROPY_CALLS = {"uuid.uuid1", "uuid.uuid4", "os.urandom"}


def _unreproducible_call(callee: str) -> bool:
    """Sources REP002 and REP009 do not see: the stdlib ``random``
    module's global state, today's date, and OS entropy."""
    parts = callee.split(".")
    return ((len(parts) == 2 and parts[0] == "random"
             and parts[1] in _RANDOM_GLOBAL_FUNCS)
            or (parts[0] == "datetime"
                and parts[-1] in ("now", "utcnow", "today"))
            or callee in _ENTROPY_CALLS or parts[0] == "secrets")


def _set_iterable(node: ast.expr, imports: dict[str, str]) -> str:
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call) and node.args \
            and _resolved(node.func, imports) in ("set", "frozenset"):
        return f"{_attr_chain(node.func)}(...)"
    return ""


def _check_rep015(tree: ast.AST, lines: Sequence[str],
                  path: str) -> list[RawFinding]:
    found: list[RawFinding] = []
    imports = _import_map(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = _resolved(node, imports)
            if name in _ENV_NAMES:
                found.append((node.lineno, node.col_offset,
                              f"environment read through {name} outside "
                              "repro.config"))
            continue
        if isinstance(node, ast.Call):
            callee = _resolved(node.func, imports)
            if _unreproducible_call(callee):
                found.append((node.lineno, node.col_offset,
                              f"nondeterministic source {callee}()"))
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            what = _set_iterable(node.iter, imports)
            if what:
                found.append((node.iter.lineno, node.iter.col_offset,
                              f"iteration over {what}: set order is "
                              "hash-randomized across processes"))
    return found


# -- REP016 ------------------------------------------------------------------

#: Constructors of resources that must not cross a fork/spawn boundary,
#: mapped to a human-readable kind.
_FORK_UNSAFE_CALLS = {
    "open": "open file handle",
    "io.open": "open file handle",
    "tempfile.NamedTemporaryFile": "open file handle",
    "tempfile.TemporaryFile": "open file handle",
    "threading.Lock": "lock",
    "threading.RLock": "lock",
    "threading.Condition": "condition variable",
    "threading.Event": "event",
    "threading.Barrier": "barrier",
    "threading.Semaphore": "semaphore",
    "threading.BoundedSemaphore": "semaphore",
    "multiprocessing.Lock": "lock",
    "multiprocessing.RLock": "lock",
    "socket.socket": "socket",
    "socket.create_connection": "socket",
    "sqlite3.connect": "sqlite3 connection",
    "subprocess.Popen": "subprocess handle",
}


def _check_rep016(tree: ast.AST, lines: Sequence[str],
                  path: str) -> list[RawFinding]:
    found: list[RawFinding] = []
    imports = _import_map(tree)
    for stmt, name, value in _module_assignments(tree):
        if not isinstance(value, ast.Call):
            continue
        kind = _FORK_UNSAFE_CALLS.get(_resolved(value.func, imports))
        if kind:
            found.append((stmt.lineno, stmt.col_offset,
                          f"module-level {kind} {name!r} is shared by "
                          "every forked worker"))
    return found


# -- REP017 ------------------------------------------------------------------

_DESTRUCTIVE_CALLS = {
    "os.remove": "os.remove()",
    "os.unlink": "os.unlink()",
    "os.rmdir": "os.rmdir()",
    "os.removedirs": "os.removedirs()",
    "os.rename": "os.rename() (use os.replace for atomic overwrite)",
    "shutil.rmtree": "shutil.rmtree()",
    "shutil.move": "shutil.move()",
}
#: Exceptions whose handler makes a repeated delete converge.
_MISSING_FILE_ERRORS = {"FileNotFoundError", "OSError"}


def _own_nodes(root: ast.AST) -> list[ast.AST]:
    """Nodes of ``root``'s own scope: nested function and class bodies
    are separate scopes and left out."""
    out: list[ast.AST] = []
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        out.append(node)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return out


def _catches_missing_file(exc_types: Sequence[ast.expr]) -> bool:
    return any(_attr_chain(t).split(".")[-1] in _MISSING_FILE_ERRORS
               for t in exc_types)


def _guarded_body(node: ast.AST) -> list[ast.stmt]:
    """The statements ``node`` runs under a missing-file guard, if any:
    a ``try`` whose handler catches FileNotFoundError/OSError, or a
    ``with contextlib.suppress(FileNotFoundError)`` block."""
    if isinstance(node, ast.Try):
        for handler in node.handlers:
            caught = handler.type
            types = caught.elts if isinstance(caught, ast.Tuple) \
                else [caught] if caught is not None else []
            if _catches_missing_file(types):
                return node.body
    elif isinstance(node, ast.With):
        for item in node.items:
            call = item.context_expr
            if isinstance(call, ast.Call) \
                    and _attr_chain(call.func).split(".")[-1] == "suppress" \
                    and _catches_missing_file(call.args):
                return node.body
    return []


def _raises_skipstore(fn: ast.AST) -> bool:
    for node in _own_nodes(fn):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if _attr_chain(exc).split(".")[-1] == "SkipStore":
                return True
    return False


def _open_mode(node: ast.Call) -> str:
    mode: ast.expr | None = node.args[1] if len(node.args) >= 2 else None
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return ""


def _effect(node: ast.Call, imports: dict[str, str]) -> str:
    """What makes the call non-idempotent under a re-run ('' if nothing)."""
    callee = _resolved(node.func, imports)
    if callee in _DESTRUCTIVE_CALLS:
        return _DESTRUCTIVE_CALLS[callee]
    mode = _open_mode(node) if callee in ("open", "io.open") else ""
    if "a" in mode:
        return f"open(..., {mode!r})"
    if isinstance(node.func, ast.Attribute) and node.func.attr == "unlink" \
            and not any(kw.arg == "missing_ok" for kw in node.keywords):
        return f"{ast.unparse(node.func)}() without missing_ok=True"
    return ""


def _check_rep017(tree: ast.AST, lines: Sequence[str],
                  path: str) -> list[RawFinding]:
    exempt: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and _raises_skipstore(node):
            exempt.update(id(n) for n in _own_nodes(node))
        for stmt in _guarded_body(node):
            exempt.update(id(n) for n in ast.walk(stmt))
    imports = _import_map(tree)
    found: list[RawFinding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in exempt:
            effect = _effect(node, imports)
            if effect:
                found.append((node.lineno, node.col_offset,
                              f"non-idempotent side effect {effect}: a "
                              "re-run re-executes it against already-"
                              "modified state"))
    return found


# -- REP019 ------------------------------------------------------------------

#: The repro.obs entry points whose first argument names a span/metric.
_OBS_NAME_FNS = {"span", "counter", "gauge", "traced"}
#: Static span/metric names: lowercase dot-namespaced ``subsystem.stage``.
_OBS_NAME_RE = re.compile(r"[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+")


def _check_rep019(tree: ast.AST, lines: Sequence[str],
                  path: str) -> list[RawFinding]:
    found: list[RawFinding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        parts = _attr_chain(node.func).split(".")
        if parts[-1] not in _OBS_NAME_FNS:
            continue
        if len(parts) > 1 and parts[-2] != "obs":
            continue
        arg = node.args[0]
        dynamic = (
            (isinstance(arg, ast.JoinedStr)
             and any(isinstance(v, ast.FormattedValue)
                     for v in arg.values))
            or isinstance(arg, ast.BinOp)
            or (isinstance(arg, ast.Call)
                and _attr_chain(arg.func).split(".")[-1] == "format")
        )
        if dynamic:
            found.append((
                arg.lineno, arg.col_offset,
                f"{parts[-1]}() name is built dynamically; put variable "
                "parts in labels/meta, not the name",
            ))
        elif isinstance(arg, ast.Constant) and isinstance(arg.value, str) \
                and not _OBS_NAME_RE.fullmatch(arg.value):
            found.append((
                arg.lineno, arg.col_offset,
                f"{parts[-1]}() name {arg.value!r} is not a lowercase "
                "dot-namespaced literal (subsystem.stage)",
            ))
    return found


# -- registry ----------------------------------------------------------------

RULES: tuple[Rule, ...] = (
    Rule(
        id="REP001",
        title="float astype without explicit copy semantics",
        severity="error",
        rationale="Silent float-dtype conversions inside codecs are how "
                  "precision changes sneak past the verification verdict; "
                  "an explicit copy= documents whether the call is an "
                  "identity pass-through or a true conversion (dtype/shape "
                  "framing belongs to base.Compressor).",
        fix_hint="pass copy=False (identity when dtypes already match) or "
                 "copy=True (deliberate conversion) explicitly",
        applies=_in("compressors"),
        check=_check_rep001,
    ),
    Rule(
        id="REP002",
        title="unseeded or global-state RNG",
        severity="error",
        rationale="Ensemble generation and member selection must be "
                  "reproducible; unseeded RNG makes PVT verdicts "
                  "unrepeatable across runs and machines.",
        fix_hint="use np.random.default_rng(seed) with a seed derived from "
                 "repro.config.ReproConfig.base_seed",
        applies=_not_tests,
        check=_check_rep002,
    ),
    Rule(
        id="REP003",
        title="exact float-literal equality in metric code",
        severity="error",
        rationale="The PVT/metric layer compares quantities that went "
                  "through lossy codecs and float reductions; exact "
                  "equality against a literal is a latent always-false "
                  "(or platform-dependent) branch.  Comparisons against "
                  "exactly 0.0 are exempt: the codebase clamps degenerate "
                  "spreads to literal zero as a sentinel.",
        fix_hint="use np.isclose(x, c, atol=...) or an explicit tolerance",
        applies=_in("pvt", "metrics"),
        check=_check_rep003,
    ),
    Rule(
        id="REP004",
        title="bare/swallowed exceptions in worker or harness paths",
        severity="error",
        rationale="A swallowed worker exception turns into a silently "
                  "wrong table or a hung pool; errors must propagate to "
                  "the caller as parallel_map promises.",
        fix_hint="catch the narrowest exception type and re-raise or "
                 "record it explicitly",
        applies=_in("parallel", "harness"),
        check=_check_rep004,
    ),
    Rule(
        id="REP005",
        title="module-level mutable state",
        severity="error",
        rationale="Pipeline modules are imported into worker processes; "
                  "a module-level dict/list/set is fork-copied and then "
                  "drifts per worker, so results depend on which process "
                  "ran a task and what ran there before.  Codecs, the "
                  "field synthesizer and registry-dispatched code all run "
                  "in workers, so the rule holds everywhere outside the "
                  "trusted obs/check/testing/config.py paths.",
        fix_hint="pass the state explicitly, use functools.lru_cache for "
                 "a per-process memo, or rename to ALL_CAPS if it is a "
                 "constant table the file never mutates",
        applies=_untrusted,
        check=_check_rep005,
    ),
    Rule(
        id="REP006",
        title="unpicklable callable or iterator crossing a process boundary",
        severity="error",
        rationale="Lambdas, nested functions, generators and live "
                  "iterators cannot be pickled: handed to a process pool "
                  "(or held in a module global that task code reads) they "
                  "die deep inside ProcessPoolExecutor with an opaque "
                  "traceback, or come back empty in the child, and only "
                  "on the parallel path.",
        fix_hint="move the task function to module level (see "
                 "repro.parallel.executor's early TypeError); define "
                 "module-level callables with def and materialize "
                 "iterators with list(...)",
        applies=_not_tests,
        check=_check_rep006,
    ),
    Rule(
        id="REP007",
        title="magic fill/special-value literal",
        severity="error",
        rationale="CESM's 1e35 fill and the 1e34 special-value threshold "
                  "must have exactly one definition; a drifted copy makes "
                  "one code path mask different points than another.",
        fix_hint="import FILL_VALUE / SPECIAL_THRESHOLD from repro.config",
        applies=lambda parts: _not_tests(parts)
        and (not parts or parts[-1] != "config.py"),
        check=_check_rep007,
    ),
    Rule(
        id="REP008",
        title="missing dtype/shape docstring contract",
        severity="warning",
        rationale="Public codec/PVT/streaming entry points form the "
                  "numeric contract surface; an undocumented array "
                  "parameter is where float64 ensembles silently meet "
                  "float32 expectations, and an undocumented streaming "
                  "function leaves its chunk ordering and cleanup "
                  "obligations to the implementation.",
        fix_hint="add a docstring stating the expected dtype and shape "
                 "((n_members, ...) etc.) of array parameters",
        applies=_in("compressors", "pvt", "stream"),
        check=_check_rep008,
    ),
    Rule(
        id="REP009",
        title="ad-hoc timing instead of repro.obs spans",
        severity="error",
        rationale="Hand-rolled time.time()/perf_counter() timing is "
                  "invisible to the observability layer: it cannot nest, "
                  "aggregate, or export, and it keeps running when "
                  "REPRO_TRACE=0 so every caller pays for it.  All timing "
                  "in src/ flows through repro.obs so `repro stats` and "
                  "the trace sinks see one consistent picture.",
        fix_hint="wrap the timed region in `with repro.obs.span(\"sub."
                 "stage\"):` (or @obs.traced) and read durations from the "
                 "aggregator; see docs/observability.md",
        applies=lambda parts: _not_tests(parts) and "obs" not in parts
        and "benchmarks" not in parts,
        check=_check_rep009,
    ),
    Rule(
        id="REP010",
        title="module without a docstring",
        severity="warning",
        rationale="The package map in docs/architecture.md is navigable "
                  "only because every module under src/repro states its "
                  "role; an undocumented module is where the next "
                  "subsystem quietly loses its seam.",
        fix_hint="open the module with a docstring summarizing what it "
                 "owns and which layer calls it",
        applies=_in("repro"),
        check=_check_rep010,
    ),
    Rule(
        id="REP012",
        title="swallowed BaseException in the execution subsystem",
        severity="error",
        rationale="The executor's whole failure contract is that every "
                  "misbehaving task becomes a structured TaskFailure — "
                  "built from `except Exception` capture.  A handler that "
                  "catches BaseException and does not re-raise also "
                  "captures KeyboardInterrupt, SystemExit, and the pool's "
                  "own shutdown signals, turning a Ctrl-C into a 'failed "
                  "task' and an unkillable map.",
        fix_hint="catch Exception (WorkerCrashError included) for task "
                 "capture; if BaseException must be intercepted for "
                 "cleanup, end the handler with a bare `raise`",
        applies=_in("parallel", "testing"),
        check=_check_rep012,
    ),
    Rule(
        id="REP015",
        title="nondeterministic source: raw environment read, set order, "
              "entropy",
        severity="error",
        rationale="A store key must identify one value forever and a "
                  "re-run task must recompute the same result.  An "
                  "os.environ read outside repro.config is a knob no "
                  "fingerprint records, and iterating a set visits items "
                  "in an order hash randomization changes per process; "
                  "the stdlib random module's global state, today's date "
                  "and OS entropy differ on every run.  (Clocks are "
                  "REP009's finding, unseeded numpy RNG REP002's.)",
        fix_hint="read knobs through the repro.config accessors "
                 "(env_str/env_flag/env_int_opt) at the call boundary; "
                 "iterate sorted(the_set); derive randomness from "
                 "ReproConfig.base_seed",
        applies=_untrusted,
        check=_check_rep015,
    ),
    Rule(
        id="REP016",
        title="module-level fork-unsafe resource",
        severity="error",
        rationale="An open file, lock, socket, sqlite connection or "
                  "subprocess handle created at import is duplicated by "
                  "fork and invalid after spawn: two processes share one "
                  "file offset, a lock copied while held never releases, "
                  "a socket is serviced twice.",
        fix_hint="create the resource inside the function or instance "
                 "that uses it (per process), or pass a path/address and "
                 "reconnect in the worker",
        applies=_untrusted,
        check=_check_rep016,
    ),
    Rule(
        id="REP017",
        title="non-idempotent filesystem side effect",
        severity="warning",
        rationale="The executor re-runs the tasks caught in flight "
                  "beside a pool crash: an "
                  "append-mode write doubles its records, a bare unlink "
                  "or rename raises on the second attempt, and an rmtree "
                  "can destroy state a concurrent task is using.  Effects "
                  "must converge under re-execution, or the function must "
                  "veto caching of partial results with SkipStore.",
        fix_hint="make the effect idempotent (os.replace, write_text, "
                 "unlink(missing_ok=True), a FileNotFoundError guard) or "
                 "raise SkipStore so partial results are never trusted",
        applies=_untrusted,
        check=_check_rep017,
    ),
    Rule(
        id="REP019",
        title="dynamic or non-namespaced span/metric name",
        severity="error",
        rationale="Span and metric names are aggregation keys: the stats "
                  "table, its per-codec breakdown, and the e2e benchmark's "
                  "per-layer metrics all group by them.  An f-string name "
                  "(`f\"job.{kind}\"`) explodes the key space per value "
                  "and splinters every quantile; a flat name loses the "
                  "subsystem prefix the docs and `--filter` select on.",
        fix_hint="use a static lowercase subsystem.stage literal and put "
                 "variable parts in labels (counter(...).add(kind=...)) "
                 "or span metadata",
        applies=lambda parts: _not_tests(parts) and "obs" not in parts
        and "benchmarks" not in parts,
        check=_check_rep019,
    ),
)


def rules_by_id() -> dict[str, Rule]:
    """Mapping from rule ID to rule."""
    return {rule.id: rule for rule in RULES}
