"""AST-based directionality linter (the static layer of ``repro.check``).

Analyzes every task construct in a source file — both ``@css_task``
decorated functions and ``#pragma css task`` annotated ones — and
cross-checks the parsed :class:`~repro.core.pragma.ParamSpec` list
against what the body actually does to each parameter.

The analysis is deliberately conservative in the direction of **zero
false positives**: a parameter passed into a call whose effects we
cannot see (``kernels.gemm(a, b, c)``, ``np.matmul(a, b, out=c)``) is
treated as *escaped* — it may have been read or written, so neither
``unwritten-output`` nor ``read-before-write`` fires for it.  Direct
evidence (a subscript assignment, an augmented assignment, a known
mutating method, a call into another task whose own pragma declares the
position written) is required before any ``error`` is reported.

Suppressions: a ``# css: ignore[rule, rule]`` comment on the offending
line silences those rules for that line; placed on the ``def`` line, a
decorator line, or any line of the pragma block (continuation lines
included) it silences them for the whole task; placed in the module
header or docstring it silences them for the whole file.  A bare
``# css: ignore`` silences everything.  Resolution is shared with
``repro.check.flow`` via :mod:`repro.check.suppress`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from ..compiler.translate import (
    CompileError,
    _WAIT_ON_RE,
    iter_sync_pragmas,
    iter_task_pragmas,
)
from ..core.pragma import ParsedPragma, PragmaError, parse_pragma
from ..core.task import Direction
from .findings import Finding
from .suppress import SuppressionIndex

__all__ = ["lint_source", "lint_file", "lint_paths", "TaskSite"]


# ---------------------------------------------------------------------------
# What we know about common callables and methods
# ---------------------------------------------------------------------------

#: Attribute reads that touch metadata, not array contents.
_METADATA_ATTRS = frozenset({
    "shape", "dtype", "ndim", "size", "itemsize", "nbytes", "strides",
    "flags", "base",
})

#: Methods known to read (or copy) but never mutate the receiver.
_PURE_METHODS = frozenset({
    "sum", "mean", "min", "max", "copy", "astype", "tolist", "tobytes",
    "item", "all", "any", "dot", "trace", "diagonal", "nonzero",
    "searchsorted", "argmax", "argmin", "argsort", "std", "var",
    "reshape", "ravel", "flatten", "view", "transpose", "conj", "round",
    "clip", "cumsum", "cumprod", "prod", "repeat", "take", "squeeze",
    "swapaxes", "get", "keys", "values", "items", "index", "count",
    "startswith", "endswith", "split", "join", "strip",
})

#: Methods known to mutate the receiver in place.
_MUTATOR_METHODS = frozenset({
    "sort", "fill", "put", "itemset", "partition", "resize", "setfield",
    "setflags", "append", "extend", "insert", "remove", "pop", "clear",
    "update", "add", "discard", "popitem", "setdefault", "reverse",
})

#: Builtins that read their arguments without retaining or mutating them.
_PURE_BUILTINS = frozenset({
    "len", "int", "float", "bool", "str", "abs", "min", "max", "sum",
    "range", "enumerate", "zip", "print", "isinstance", "repr", "round",
    "sorted", "list", "tuple", "dict", "set", "frozenset", "id", "type",
    "iter", "next", "reversed", "hash", "format", "divmod",
})


# ---------------------------------------------------------------------------
# Task discovery
# ---------------------------------------------------------------------------


@dataclass
class TaskSite:
    """One task construct found in a source file."""

    name: str
    node: ast.FunctionDef
    pragma: Optional[ParsedPragma]
    pragma_text: str
    #: line carrying the clause list (decorator or pragma comment).
    pragma_line: int
    #: literal ``constants={...}`` keys, or ``None`` when the constants
    #: argument exists but is not a literal (disables name checking).
    constants: Optional[frozenset[str]] = frozenset()
    #: extra lines (decorators, def, pragma) whose suppressions apply
    #: to every finding of this task.
    scope_lines: tuple[int, ...] = ()

    @property
    def param_names(self) -> tuple[str, ...]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        return tuple(names)


def _decorator_pragma(dec: ast.expr) -> Optional[tuple[str, Optional[frozenset[str]]]]:
    """``(pragma_text, constants)`` when *dec* is a css_task decorator."""

    if not isinstance(dec, ast.Call):
        return None
    func = dec.func
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    if name not in ("css_task", "__css_task__"):
        return None
    text = ""
    if dec.args:
        first = dec.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            text = first.value
        else:
            return None  # dynamic pragma string: cannot analyze
    constants: Optional[frozenset[str]] = frozenset()
    for kw in dec.keywords:
        if kw.arg != "constants":
            continue
        if isinstance(kw.value, ast.Constant) and kw.value.value is None:
            constants = frozenset()
        elif isinstance(kw.value, ast.Dict) and all(
            isinstance(k, ast.Constant) and isinstance(k.value, str)
            for k in kw.value.keys
        ):
            constants = frozenset(k.value for k in kw.value.keys)
        else:
            constants = None  # not a literal: unknown names allowed
    return text, constants


def _discover(
    tree: ast.Module, source: str, filename: str, findings: list[Finding]
) -> list[TaskSite]:
    sites: list[TaskSite] = []
    by_def_line: dict[int, ast.FunctionDef] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        by_def_line.setdefault(node.lineno, node)
        for dec in node.decorator_list:
            parsed = _decorator_pragma(dec)
            if parsed is None:
                continue
            text, constants = parsed
            scope = tuple(
                {d.lineno for d in node.decorator_list} | {node.lineno}
            )
            sites.append(
                _make_site(node, text, dec.lineno, constants, scope,
                           filename, findings)
            )
            break

    # ``#pragma css task`` comment constructs: the pragmas are comments,
    # so the module parsed as-is above; match each to the def it governs.
    try:
        for payload, pragma_line, def_line in iter_task_pragmas(source, filename):
            if def_line is None:
                findings.append(Finding(
                    filename, pragma_line, 1, "bad-pragma",
                    "'#pragma css task' is not followed by a function "
                    "definition at the same indentation",
                ))
                continue
            node = by_def_line.get(def_line)
            if node is None:
                continue
            # The whole pragma block scopes suppressions: continuation
            # lines and standalone comment lines between the pragma and
            # its def all belong to the construct.
            scope = tuple(range(pragma_line, def_line + 1))
            sites.append(
                _make_site(node, payload, pragma_line, frozenset(), scope,
                           filename, findings)
            )
    except CompileError as exc:
        findings.append(Finding(
            filename, getattr(exc, "lineno", 1) or 1, 1, "bad-pragma",
            str(exc),
        ))

    # Synchronisation pragmas get the same malformed-payload checks the
    # translator applies, so a broken `wait on(...)` or an argumented
    # `barrier` is a lint finding, not a surprise at translation time.
    try:
        for kind, payload, line in iter_sync_pragmas(source, filename):
            if kind == "barrier" and payload:
                findings.append(Finding(
                    filename, line, 1, "bad-pragma",
                    "'#pragma css barrier' takes no arguments",
                ))
            elif kind == "wait" and _WAIT_ON_RE.match(payload) is None:
                findings.append(Finding(
                    filename, line, 1, "bad-pragma",
                    "expected '#pragma css wait on(expression)'",
                ))
    except CompileError:
        pass  # dangling continuation: already reported above
    return sites


def _make_site(
    node: ast.FunctionDef,
    text: str,
    pragma_line: int,
    constants: Optional[frozenset[str]],
    scope: tuple[int, ...],
    filename: str,
    findings: list[Finding],
) -> TaskSite:
    pragma: Optional[ParsedPragma] = None
    try:
        pragma = parse_pragma(text)
    except PragmaError as exc:
        findings.append(Finding(
            filename, pragma_line, 1, "bad-pragma",
            f"invalid task pragma: {exc}", task=node.name,
        ))
    return TaskSite(
        name=node.name, node=node, pragma=pragma, pragma_text=text,
        pragma_line=pragma_line, constants=constants, scope_lines=scope,
    )


# ---------------------------------------------------------------------------
# Body analysis
# ---------------------------------------------------------------------------

# Event kinds, in the order they matter to the rules.
_READ = "read"
_WRITE = "write"
_ESCAPE = "escape"
_REBIND = "rebind"


@dataclass
class _Event:
    line: int
    col: int
    kind: str
    #: human extra ("via task 'foo'", "method sort()", ...)
    detail: str = ""


class _BodyScan(ast.NodeVisitor):
    """Collect per-parameter access events from one task body.

    ``known_tasks`` maps same-file task names to ``(pragma, arg_names)``
    so task-from-task calls can be checked against the callee's own
    declaration (they execute inline under the runtime, so the caller's
    clauses are the only protection the data has).
    """

    def __init__(
        self,
        func: ast.FunctionDef,
        params: Sequence[str],
        known_tasks: dict[str, tuple[ParsedPragma, tuple[str, ...]]],
    ):
        self.params = set(params)
        self.known_tasks = known_tasks
        self.events: dict[str, list[_Event]] = {p: [] for p in params}
        #: (line, col, root name, description) of global/closure mutations
        self.global_mutations: list[tuple[int, int, str, str]] = []
        #: (line, col, caller_param, callee, callee_param, callee_dir)
        self.task_arg_uses: list[tuple[int, int, str, str, str, Direction]] = []
        self._locals: set[str] = set(params)
        self._globals_declared: set[str] = set()
        self._handled: set[int] = set()
        self._collect_bindings(func)

    # -- pass 1: every name ever bound anywhere in the body is "local" --
    def _collect_bindings(self, func: ast.FunctionDef) -> None:
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                self._locals.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                self._globals_declared.update(node.names)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not func:
                    self._locals.add(node.name)
                args = node.args
                for a in (
                    args.posonlyargs + args.args + args.kwonlyargs
                    + ([args.vararg] if args.vararg else [])
                    + ([args.kwarg] if args.kwarg else [])
                ):
                    self._locals.add(a.arg)
            elif isinstance(node, ast.ClassDef):
                self._locals.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    self._locals.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(node, ast.ExceptHandler) and node.name:
                self._locals.add(node.name)
            elif isinstance(node, (ast.MatchAs, ast.MatchStar)) and node.name:
                # match-pattern captures bind without a Name/Store node
                self._locals.add(node.name)
            elif isinstance(node, ast.MatchMapping) and node.rest:
                self._locals.add(node.rest)
        self._locals -= self._globals_declared

    # -- helpers -------------------------------------------------------
    def _emit(self, name: str, node: ast.AST, kind: str, detail: str = "") -> None:
        if name in self.events:
            self.events[name].append(
                _Event(node.lineno, node.col_offset + 1, kind, detail)
            )

    @staticmethod
    def _root(node: ast.expr) -> tuple[Optional[ast.Name], list[str]]:
        """Peel subscripts/attributes down to the root name, if any."""

        attrs: list[str] = []
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            if isinstance(node, ast.Attribute):
                attrs.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            return node, attrs
        return None, attrs

    def _mutation_target(self, target: ast.expr, detail: str) -> None:
        """Record a write through a subscript/attribute target."""

        root, _attrs = self._root(target)
        if root is None:
            self.generic_visit(target)
            return
        self._handled.add(id(root))
        if root.id in self.params:
            self._emit(root.id, target, _WRITE, detail)
        elif root.id not in self._locals:
            self.global_mutations.append(
                (target.lineno, target.col_offset + 1, root.id, detail)
            )
        # visit index expressions for reads (a[i] reads i)
        node = target
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            if isinstance(node, ast.Subscript):
                self.visit(node.slice)
            node = node.value

    def _assign_target(self, target: ast.expr, detail: str) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, detail)
            return
        if isinstance(target, ast.Starred):
            self._assign_target(target.value, detail)
            return
        if isinstance(target, ast.Name):
            self._handled.add(id(target))
            if target.id in self.params:
                self._emit(target.id, target, _REBIND, detail)
            return
        self._mutation_target(target, detail)

    # -- statements ----------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._assign_target(target, "assignment")
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._assign_target(node.target, "assignment")
        if node.value is not None:
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        op = type(node.op).__name__
        if isinstance(target, ast.Name):
            self._handled.add(id(target))
            if target.id in self.params:
                # In-place operator semantics: mutates the argument
                # object for ndarrays/lists (the repo's idiomatic write).
                self._emit(target.id, target, _READ, "augmented assignment")
                self._emit(target.id, target, _WRITE, "augmented assignment")
            elif target.id in self._globals_declared:
                self.global_mutations.append(
                    (target.lineno, target.col_offset + 1, target.id,
                     f"augmented assignment ({op})")
                )
        else:
            root, _ = self._root(target)
            if root is not None and root.id in self.params:
                self._emit(root.id, target, _READ, "augmented assignment")
            self._mutation_target(target, f"augmented assignment ({op})")
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._handled.add(id(target))
                if target.id in self.params:
                    self._emit(target.id, target, _REBIND, "del")
            else:
                self._mutation_target(target, "del")

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        # Walrus target: a plain-Name rebind (the grammar allows no
        # subscript/attribute targets here).
        target = node.target
        if isinstance(target, ast.Name):
            self._handled.add(id(target))
            if target.id in self.params:
                self._emit(target.id, target, _REBIND, "walrus assignment")
        self.visit(node.value)

    def visit_For(self, node: ast.For) -> None:
        # `for a[i] in ...` / `for p, *rest in ...` assign through the
        # target exactly like an Assign statement does.
        self._assign_target(node.target, "for target")
        self.visit(node.iter)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    visit_AsyncFor = visit_For

    def visit_Match(self, node: ast.Match) -> None:
        self.visit(node.subject)
        for case in node.cases:
            for sub in ast.walk(case.pattern):
                name = None
                if isinstance(sub, (ast.MatchAs, ast.MatchStar)):
                    name = sub.name
                elif isinstance(sub, ast.MatchMapping):
                    name = sub.rest
                if name and name in self.params:
                    self._emit(name, sub, _REBIND, "match capture")
                elif isinstance(sub, ast.MatchValue):
                    self.visit(sub.value)
            if case.guard is not None:
                self.visit(case.guard)
            for stmt in case.body:
                self.visit(stmt)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        callee_task: Optional[str] = None
        pure_callee = False

        if isinstance(func, ast.Name):
            self._handled.add(id(func))
            if func.id in self.known_tasks:
                callee_task = func.id
            elif func.id in _PURE_BUILTINS:
                pure_callee = True
        elif isinstance(func, ast.Attribute):
            # receiver.method(...) — classify by method name when the
            # receiver is rooted at a parameter.
            root, attrs = self._root(func.value)
            method = func.attr
            if root is not None and root.id in self.params:
                self._handled.add(id(root))
                if method in _MUTATOR_METHODS:
                    self._emit(root.id, node, _WRITE, f"method {method}()")
                elif method in _PURE_METHODS:
                    self._emit(root.id, node, _READ, f"method {method}()")
                else:
                    self._emit(root.id, node, _ESCAPE, f"method {method}()")
            elif root is None:
                self.visit(func.value)

        # Arguments.
        callee_info = self.known_tasks.get(callee_task) if callee_task else None
        for pos, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                self.visit(arg.value)
                continue
            if isinstance(arg, ast.Name) and arg.id in self.params:
                self._handled.add(id(arg))
                self._classify_task_arg(node, arg, pos, callee_task,
                                        callee_info, pure_callee)
            else:
                self.visit(arg)
        for kw in node.keywords:
            if isinstance(kw.value, ast.Name) and kw.value.id in self.params:
                self._handled.add(id(kw.value))
                name = kw.value.id
                if pure_callee:
                    self._emit(name, kw.value, _READ, "call argument")
                else:
                    # out=c style keywords may be written.
                    self._emit(name, kw.value, _ESCAPE,
                               f"keyword argument {kw.arg or '**'}")
            else:
                self.visit(kw.value)

    def _classify_task_arg(
        self,
        call: ast.Call,
        arg: ast.Name,
        pos: int,
        callee_task: Optional[str],
        callee_info,
        pure_callee: bool,
    ) -> None:
        name = arg.id
        if callee_info is not None:
            pragma, callee_params = callee_info
            if pos < len(callee_params):
                callee_param = callee_params[pos]
                specs = pragma.specs_for(callee_param)
                direction = specs[0].direction if specs else None
                writes = any(s.direction.writes for s in specs)
                reads = any(s.direction.reads for s in specs)
                if direction is not None:
                    self.task_arg_uses.append((
                        arg.lineno, arg.col_offset + 1, name,
                        callee_task or "?", callee_param, direction,
                    ))
                if writes:
                    self._emit(name, arg, _WRITE,
                               f"passed to task '{callee_task}' "
                               f"parameter '{callee_param}' "
                               f"({'/'.join(sorted(s.direction.value for s in specs))})")
                    if reads:
                        self._emit(name, arg, _READ, "task argument")
                    return
                if reads:
                    self._emit(name, arg, _READ, "task argument")
                    return
            self._emit(name, arg, _ESCAPE, f"task '{callee_task}' argument")
            return
        if pure_callee:
            self._emit(name, arg, _READ, "call argument")
        else:
            self._emit(name, arg, _ESCAPE, "call argument")

    # -- reads ---------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._visit_access(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        self._visit_access(node)

    def _visit_access(self, node) -> None:
        """A read through an attribute/subscript chain: one read of its
        root parameter (none for metadata attributes only)."""

        if not isinstance(node.ctx, ast.Load):
            self.generic_visit(node)
            return
        root, attrs = self._root(node)
        if root is not None and id(root) not in self._handled:
            self._handled.add(id(root))
            if root.id in self.params and not (
                    attrs and all(a in _METADATA_ATTRS for a in attrs)):
                self._emit(root.id, node, _READ,
                           "subscript" if isinstance(node, ast.Subscript)
                           else f".{attrs[-1]}" if attrs else "")
        # still visit subscript indices inside the chain
        inner = node
        while isinstance(inner, (ast.Subscript, ast.Attribute)):
            if isinstance(inner, ast.Subscript):
                self.visit(inner.slice)
            inner = inner.value

    def visit_Name(self, node: ast.Name) -> None:
        if (
            isinstance(node.ctx, ast.Load)
            and node.id in self.params
            and id(node) not in self._handled
        ):
            self._handled.add(id(node))
            self._emit(node.id, node, _READ, "use")


# ---------------------------------------------------------------------------
# Rule evaluation
# ---------------------------------------------------------------------------


def _direction_sets(pragma: ParsedPragma) -> dict[str, set[Direction]]:
    out: dict[str, set[Direction]] = {}
    for spec in pragma.params:
        out.setdefault(spec.name, set()).add(spec.direction)
    return out


def _lint_task(
    site: TaskSite,
    filename: str,
    known_tasks: dict[str, tuple[ParsedPragma, tuple[str, ...]]],
    extra_constants: frozenset[str],
    findings: list[Finding],
) -> None:
    pragma = site.pragma
    if pragma is None:
        return  # bad-pragma already reported
    params = site.param_names
    param_set = set(params)
    t = site.name

    # bad-pragma: declared parameter absent from the signature.
    for spec in pragma.params:
        if spec.name not in param_set:
            findings.append(Finding(
                filename, site.pragma_line, 1, "bad-pragma",
                f"pragma declares parameter '{spec.name}' which is not in "
                f"the signature of '{t}'", task=t, param=spec.name,
            ))

    # unknown-region-name: names in dimension/region bound expressions.
    if site.constants is not None:
        known_names = param_set | site.constants | extra_constants
        for spec in pragma.params:
            used: set[str] = set()
            for dim in spec.dims:
                used |= dim.names()
            for region in spec.regions:
                if region.lower is not None:
                    used |= region.lower.names()
                if region.upper is not None:
                    used |= region.upper.names()
            for name in sorted(used - known_names):
                findings.append(Finding(
                    filename, site.pragma_line, 1, "unknown-region-name",
                    f"bound expression of parameter '{spec.name}' references "
                    f"'{name}', which is neither a parameter of '{t}' nor a "
                    f"known constant", task=t, param=spec.name,
                ))

    scan = _BodyScan(site.node, params, known_tasks)
    scan.visit(site.node)
    directions = _direction_sets(pragma)

    # global-mutation
    for line, col, name, detail in scan.global_mutations:
        findings.append(Finding(
            filename, line, col, "global-mutation",
            f"task '{t}' mutates global/closure object '{name}' "
            f"({detail}); this access is invisible to the dependency "
            f"analysis", task=t, param=name,
        ))

    # opaque-leak
    for line, col, caller_param, callee, callee_param, callee_dir in scan.task_arg_uses:
        dirs = directions.get(caller_param)
        if dirs == {Direction.OPAQUE} and callee_dir is not Direction.OPAQUE:
            findings.append(Finding(
                filename, line, col, "opaque-leak",
                f"task '{t}' passes opaque parameter '{caller_param}' to "
                f"task '{callee}' parameter '{callee_param}'; the inline "
                f"call's directionality gives it no protection", task=t,
                param=caller_param,
            ))

    for p in params:
        events = scan.events[p]
        # A rebound name no longer refers to the argument object (and a
        # conditional rebind makes later writes unprovable either way),
        # so the error rules only count writes before the first rebind.
        first_rebind = next(
            (i for i, ev in enumerate(events) if ev.kind == _REBIND), None
        )
        arg_writes = events if first_rebind is None else events[:first_rebind]
        dirs = directions.get(p)
        if dirs is None:
            # Undeclared: a by-value scalar to the runtime.  Reads are
            # fine; mutations race with every task touching the object.
            for ev in arg_writes:
                if ev.kind == _WRITE:
                    findings.append(Finding(
                        filename, ev.line, ev.col, "undeclared-mutation",
                        f"task '{t}' mutates parameter '{p}' "
                        f"({ev.detail}) but '{p}' appears in no "
                        f"directionality clause", task=t, param=p,
                    ))
            continue
        if dirs == {Direction.OPAQUE}:
            continue  # opaque objects deliberately bypass all analysis
        declared_reads = any(d.reads for d in dirs)
        declared_writes = any(d.writes for d in dirs)

        if not declared_writes:
            for ev in arg_writes:
                if ev.kind == _WRITE:
                    findings.append(Finding(
                        filename, ev.line, ev.col, "input-write",
                        f"task '{t}' writes to parameter '{p}' "
                        f"({ev.detail}) which is declared input-only",
                        task=t, param=p,
                    ))
        else:
            wrote = any(ev.kind in (_WRITE, _ESCAPE) for ev in events)
            if not wrote:
                findings.append(Finding(
                    filename, site.node.lineno, site.node.col_offset + 1,
                    "unwritten-output",
                    f"task '{t}' declares parameter '{p}' as "
                    f"{'/'.join(sorted(d.value for d in dirs))} but never "
                    f"writes it", task=t, param=p,
                ))
            if not declared_reads:
                for ev in events:
                    if ev.kind in (_WRITE, _ESCAPE, _REBIND):
                        break
                    if ev.kind == _READ:
                        findings.append(Finding(
                            filename, ev.line, ev.col, "read-before-write",
                            f"task '{t}' reads output-only parameter '{p}' "
                            f"before its first write; output storage may be "
                            f"a fresh renamed buffer with undefined "
                            f"contents", task=t, param=p,
                        ))
                        break


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def lint_source(
    source: str,
    filename: str = "<source>",
    constants: Iterable[str] = (),
) -> list[Finding]:
    """Lint one source text; returns (unsuppressed) findings."""

    findings: list[Finding] = []
    try:
        tree = ast.parse(source, filename)
    except SyntaxError as exc:
        return [Finding(
            filename, exc.lineno or 1, (exc.offset or 0) + 1, "bad-pragma",
            f"source does not parse: {exc.msg}",
        )]
    sites = _discover(tree, source, filename, findings)
    known_tasks = {
        s.name: (s.pragma, s.param_names)
        for s in sites if s.pragma is not None
    }
    extra = frozenset(constants)
    for site in sites:
        _lint_task(site, filename, known_tasks, extra, findings)

    # Apply suppressions (resolver shared with repro.check.flow).
    suppressions = SuppressionIndex.from_source(source, tree)
    scopes = {s.name: s.scope_lines + (s.pragma_line,) for s in sites}

    kept = [
        f for f in findings
        if not suppressions.is_suppressed(f.rule, f.line, scopes.get(f.task, ()))
    ]
    kept.sort(key=lambda f: (f.file, f.line, f.col, f.rule))
    return kept


def lint_file(path: str | Path, constants: Iterable[str] = ()) -> list[Finding]:
    path = Path(path)
    return lint_source(
        path.read_text(encoding="utf-8"), str(path), constants=constants
    )


def lint_paths(
    paths: Iterable[str | Path], constants: Iterable[str] = ()
) -> list[Finding]:
    """Lint files and directories (recursing into ``*.py``)."""

    findings: list[Finding] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            targets = sorted(
                p for p in entry.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        else:
            targets = [entry]
        for target in targets:
            findings.extend(lint_file(target, constants=constants))
    return findings
