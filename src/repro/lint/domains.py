"""Value-domain dataflow: every expression gets a representation domain.

Canonical mod-p integers, canonical mod-n scalars, lazily-unreduced
tower tuples, and raw proof bytes all coexist in the arithmetic core as
plain ints and bytes, distinguished by nothing but discipline.  This
pass machine-checks that discipline.  It is an *intraprocedural
abstract interpretation* over the AST: each expression
is assigned a value in the flat lattice of :mod:`repro.lint.domain_facts`
and the assignment is propagated through assignments, tuple unpacking,
arithmetic, calls, returns, and loop bodies (a two-pass fixpoint — the
lattice is flat, so two sweeps reach the fixed point of any loop body).

Facts come from two sources:

* the checked-in signature table in ``domain_facts.py`` for the public
  API surface (the ``jac_*`` kernels, ``fq2_raw``/the tower's raw-tuple
  combinators, the scalar-field NTT, wire ``seal``/``extract_proof``);
  and
* inline ``# domain:`` annotations for locals the inference cannot
  resolve::

      x = mystery()          # domain: raw-tuple
      def widen(a, b):       # domain: (canonical(p), canonical(p)) -> raw-tuple

Checks (all keyed ``domains:<check>:<file>:<scope>`` for the baseline):

* ``modulus-confusion``   — a mod-p value where mod-n is declared (or
  vice versa), including a ``canonical(n)`` scalar reduced ``% p``.
  A ``% n`` on a mod-p value is *not* flagged: ``r = point.x % n`` is
  ECDSA's legitimate domain transfer.
* ``raw-tuple-escape``    — a lazily-unreduced tower tuple crossing a
  canonical boundary or returned by a function outside
  ``field/extension.py`` that does not declare ``-> raw-tuple``.
* ``wire-escape``         — raw proof bytes produced, combined, or
  returned outside the sanctioned wire layers; subsumes (and replaces)
  hygiene's syntactic ``wire-bypass`` with real dataflow, including
  call/import aliasing.
* ``impure-pool-task``    — a function shipped to a worker pool
  (``pool.submit(...)``, directly or through the telemetry
  ``run_with_delta`` wrapper) that mutates state it does not own:
  worker mutations never travel back, which would silently break the
  serial-vs-workers byte-identity guarantee.  The telemetry delta
  protocol itself (``telemetry/``) is exempt.
* ``bad-annotation``      — a ``# domain:`` comment that does not parse
  (warning; a typo'd annotation must not silently disable a check).

Design principle: *only definite facts conflict.*  ``top``, ``bot`` and
``opaque`` never raise a finding, so unannotated code stays quiet and
every finding is rooted in two declared/inferred facts that disagree.

Known imprecision (accepted, documented): attribute stores are not
tracked; the analysis is intraprocedural, so facts do not flow through
calls to functions that have no declared signature.
"""

import ast
import io
import os
import re
import tokenize

from .domain_facts import (
    ATTR_DOMAINS,
    BOT,
    CANON_N,
    CANON_P,
    DOMAIN_NAMES,
    FACTS,
    MODULUS_N_ATTRS,
    MODULUS_N_NAMES,
    MODULUS_P_ATTRS,
    MODULUS_P_NAMES,
    NULLIFIER,
    OPAQUE,
    POOL_DELTA_WRAPPERS,
    POOL_SUBMIT_NAMES,
    PURITY_EXEMPT_PATHS,
    RAW,
    SPECIFIC,
    Sig,
    TOP,
    WIRE,
    WIRE_ALLOWED_PATHS,
    WIRE_PRIMITIVES,
    join,
)
from .report import Finding

#: domains that never conflict with anything
NEUTRAL = frozenset({BOT, TOP, OPAQUE})

#: module whose whole purpose is producing/consuming raw tower tuples
RAW_HOME = "field/extension.py"

#: method names that mutate their receiver in place (for the purity check)
_MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "update", "setdefault", "discard", "write",
})

_ANNOT_RE = re.compile(r"^#\s*domain:\s*(?P<spec>.+?)\s*$")


# -- annotations --------------------------------------------------------------


def parse_domain_token(token):
    """One annotation token -> lattice constant, or None if unknown."""
    return DOMAIN_NAMES.get(token.strip().lower())


def _split_top_level(text):
    """Split on commas not nested inside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def parse_annotation(spec):
    """Parse one ``# domain:`` spec.

    Returns ``("sig", Sig(params, ret))``, ``("value", domain)`` or
    ``None`` (malformed).
    """
    spec = spec.strip()
    if "->" in spec:
        left, _, right = spec.partition("->")
        left = left.strip()
        if not (left.startswith("(") and left.endswith(")")):
            return None
        ret = parse_domain_token(right)
        if ret is None:
            return None
        inner = left[1:-1].strip()
        params = []
        if inner:
            for tok in _split_top_level(inner):
                d = parse_domain_token(tok)
                if d is None:
                    return None
                params.append(d)
        return ("sig", Sig(tuple(params), ret))
    d = parse_domain_token(spec)
    return ("value", d) if d is not None else None


class ModuleAnnotations:
    """Per-line ``# domain:`` annotations of one source file."""

    def __init__(self, source):
        self.by_line = {}  # lineno -> parsed annotation tuple
        self.bad_lines = []  # linenos whose annotation failed to parse
        # real COMMENT tokens only: a docstring *describing* the syntax
        # must not register as an annotation
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            comments = [
                (tok.start[0], tok.string)
                for tok in tokens
                if tok.type == tokenize.COMMENT
            ]
        except tokenize.TokenizeError:
            comments = []
        for lineno, text in comments:
            m = _ANNOT_RE.match(text)
            if not m:
                continue
            parsed = parse_annotation(m.group("spec"))
            if parsed is None:
                self.bad_lines.append(lineno)
            else:
                self.by_line[lineno] = parsed

    def value_at(self, lineno):
        """The forced value domain annotated on this line, if any."""
        ann = self.by_line.get(lineno)
        return ann[1] if ann and ann[0] == "value" else None

    def for_def(self, node):
        """The Sig (or None) declared on a def's signature lines (the
        ``def`` line through the line before the first body statement, so
        multi-line signatures work)."""
        sig = None
        stop = node.body[0].lineno if node.body else node.lineno + 1
        for lineno in range(node.lineno, stop):
            ann = self.by_line.get(lineno)
            if ann is not None and ann[0] == "sig":
                sig = ann[1]
        return sig


# -- helpers ------------------------------------------------------------------


def _terminal_name(func):
    """The rightmost identifier of a call target (``a.b.c`` -> ``c``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _modulus_kind(node):
    """"p", "n", or None: does this expression *name* a known modulus?"""
    if isinstance(node, ast.Name):
        if node.id in MODULUS_P_NAMES:
            return "p"
        if node.id in MODULUS_N_NAMES:
            return "n"
    elif isinstance(node, ast.Attribute):
        if node.attr in MODULUS_P_ATTRS:
            return "p"
        if node.attr in MODULUS_N_ATTRS:
            return "n"
    return None


def _root_name(node):
    """The base Name of an attribute/subscript chain, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class _FuncState:
    """Mutable per-function interpretation state."""

    __slots__ = ("env", "scope", "declared_ret")

    def __init__(self, env, scope, declared_ret=None):
        self.env = env  # name -> domain
        self.scope = scope  # qualname for finding keys
        self.declared_ret = declared_ret


class _Analyzer:
    """Abstract interpretation of one source file."""

    def __init__(self, relpath, source, shipped_names=None):
        self.relpath = relpath
        self.tree = ast.parse(source, filename=relpath)
        self.annots = ModuleAnnotations(source)
        self.wire_exempt = relpath.startswith(WIRE_ALLOWED_PATHS)
        self.raw_home = relpath == RAW_HOME
        self.purity_exempt = relpath.startswith(PURITY_EXEMPT_PATHS)
        self.shipped_names = shipped_names if shipped_names is not None else set()
        self.import_aliases = {}  # local name -> imported original name
        self.local_sigs = {}  # function name -> Sig from def annotations
        self.module_env = {}
        self._findings = {}  # (check, where, lineno) -> Finding

    # -- findings ------------------------------------------------------------

    def _add(self, check, severity, node, scope, message):
        lineno = getattr(node, "lineno", 0)
        key = (check, scope, lineno)
        if key in self._findings:
            return
        self._findings[key] = Finding(
            "domains",
            check,
            severity,
            "%s:%s" % (self.relpath, scope),
            "%s:%d: %s" % (self.relpath, lineno, message),
        )

    def findings(self):
        return list(self._findings.values())

    def _classify_pair(self, a, b):
        """The check name a definite-domain disagreement falls under."""
        pair = {a, b}
        if pair & {WIRE, NULLIFIER}:
            return "wire-escape"
        if RAW in pair:
            return "raw-tuple-escape"
        if pair == {CANON_P, CANON_N}:
            return "modulus-confusion"
        return None

    def _check_pair(self, got, want, node, st, context):
        """Flag when two *specific* domains disagree."""
        if got == want or got not in SPECIFIC or want not in SPECIFIC:
            return
        check = self._classify_pair(got, want)
        if check is None or (check == "wire-escape" and self.wire_exempt):
            return
        self._add(
            check, "error", node, st.scope,
            "%s: got `%s` where `%s` is declared" % (context, got, want),
        )

    # -- analysis driver -----------------------------------------------------

    def run(self):
        for lineno in self.annots.bad_lines:
            self._add(
                "bad-annotation", "warning",
                type("L", (), {"lineno": lineno})(), "<module>",
                "unparseable `# domain:` annotation (it protects nothing)",
            )
        # pass 1: register local def-line signatures so call sites anywhere
        # in the file (including before the def) can use them
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sig = self.annots.for_def(node)
                if sig is not None:
                    self.local_sigs[node.name] = sig
        # pass 2: interpret the module body, collecting defs in order
        defs = []
        st = _FuncState(self.module_env, "<module>")
        for stmt in self.tree.body:
            self._collect_or_exec(stmt, st, defs, prefix="")
        # pass 3: interpret each function against the settled module env
        for qualname, func in defs:
            self._analyze_function(func, qualname)

    def _collect_or_exec(self, stmt, st, defs, prefix):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = prefix + stmt.name
            defs.append((qual, stmt))
            st.env[stmt.name] = OPAQUE
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                self._collect_or_exec(
                    sub, st, defs, prefix=prefix + stmt.name + "."
                )
            st.env[stmt.name] = OPAQUE
        else:
            self._exec_stmt(stmt, st)

    def _analyze_function(self, node, qualname):
        env = dict(self.module_env)
        sig = self.annots.for_def(node) or FACTS.get(node.name)
        st = _FuncState(
            env, qualname, declared_ret=sig.ret if sig is not None else None,
        )
        args = list(node.args.posonlyargs) + list(node.args.args)
        if args and args[0].arg in ("self", "cls"):
            args = args[1:]
        params = sig.params if sig is not None and sig.params is not None else ()
        for i, arg in enumerate(args):
            env[arg.arg] = params[i] if i < len(params) else TOP
        for arg in node.args.kwonlyargs:
            env[arg.arg] = TOP
        if node.args.vararg:
            env[node.args.vararg.arg] = TOP
        if node.args.kwarg:
            env[node.args.kwarg.arg] = TOP
        if node.name in self.shipped_names and not self.purity_exempt:
            self._check_purity(node, qualname)
        self._exec_block(node.body, st)

    # -- statements ----------------------------------------------------------

    def _exec_block(self, stmts, st):
        for stmt in stmts:
            self._exec_stmt(stmt, st)

    def _exec_stmt(self, stmt, st):
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._exec_assign(stmt, st)
        elif isinstance(stmt, ast.Return):
            self._exec_return(stmt, st)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, st)
        elif isinstance(stmt, (ast.If,)):
            self._exec_if(stmt, st)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._eval(stmt.iter, st)
            self._bind_target(stmt.target, self._eval(stmt.iter, st), st)
            for _ in range(2):  # flat lattice: two sweeps reach fixpoint
                self._exec_block(stmt.body, st)
            self._exec_block(stmt.orelse, st)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, st)
            for _ in range(2):
                self._exec_block(stmt.body, st)
            self._exec_block(stmt.orelse, st)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, st)
            for handler in stmt.handlers:
                if handler.name:
                    st.env[handler.name] = TOP
                self._exec_block(handler.body, st)
            self._exec_block(stmt.orelse, st)
            self._exec_block(stmt.finalbody, st)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr, st)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, TOP, st)
            self._exec_block(stmt.body, st)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # nested def: analyze with the enclosing env as its closure
            self._analyze_nested(stmt, st)
            st.env[stmt.name] = OPAQUE
        elif isinstance(stmt, ast.ClassDef):
            st.env[stmt.name] = OPAQUE
        elif isinstance(stmt, ast.ImportFrom):
            self._exec_import_from(stmt, st)
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                st.env[(alias.asname or alias.name).split(".")[0]] = TOP
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, st)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test, st)
        elif isinstance(stmt, ast.Delete):
            for t in stmt.targets:
                if isinstance(t, ast.Name):
                    st.env.pop(t.id, None)
        elif isinstance(stmt, ast.Global):
            for name in stmt.names:
                st.env.setdefault(name, self.module_env.get(name, TOP))
        # Pass / Break / Continue / Nonlocal: nothing to do

    def _analyze_nested(self, node, st):
        saved_env, saved_scope = st.env, st.scope
        saved_ret = st.declared_ret
        sig = self.annots.for_def(node)
        st.env = dict(saved_env)
        st.scope = "%s.%s" % (saved_scope, node.name)
        st.declared_ret = sig.ret if sig is not None else None
        params = sig.params if sig is not None and sig.params is not None else ()
        args = list(node.args.posonlyargs) + list(node.args.args)
        for i, arg in enumerate(args):
            st.env[arg.arg] = params[i] if i < len(params) else TOP
        self._exec_block(node.body, st)
        st.env, st.scope, st.declared_ret = saved_env, saved_scope, saved_ret

    def _exec_import_from(self, stmt, st):
        for alias in stmt.names:
            local = alias.asname or alias.name
            self.import_aliases[local] = alias.name
            st.env[local] = TOP
            if alias.name in WIRE_PRIMITIVES and not self.wire_exempt:
                self._add(
                    "wire-escape", "error", stmt, st.scope,
                    "import of wire primitive `%s` outside the wire layer; "
                    "produce/consume proof bytes through repro.wire"
                    % alias.name,
                )

    def _exec_assign(self, stmt, st):
        if isinstance(stmt, ast.AugAssign):
            value = self._combine(
                self._eval(stmt.target, st),
                self._eval(stmt.value, st),
                stmt, st, op=stmt.op,
            )
            targets = [stmt.target]
        else:
            value = TOP if stmt.value is None else self._eval(stmt.value, st)
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        forced = self.annots.value_at(stmt.lineno)
        if forced is not None:
            value = forced
        for target in targets:
            if (
                forced is None
                and isinstance(target, (ast.Tuple, ast.List))
                and isinstance(getattr(stmt, "value", None), ast.Tuple)
                and len(target.elts) == len(stmt.value.elts)
            ):
                for t, v in zip(target.elts, stmt.value.elts):
                    self._bind_target(t, self._eval(v, st), st)
            else:
                self._bind_target(target, value, st)

    def _bind_target(self, target, value, st):
        if isinstance(target, ast.Name):
            st.env[target.id] = value
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, value, st)
        elif isinstance(target, (ast.Tuple, ast.List)):
            # unpacking keeps the element domain: components of a raw
            # tuple are still unreduced wide ints, coordinates of a
            # canonical point are canonical, etc.
            for elt in target.elts:
                self._bind_target(elt, value, st)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self._eval(target.value, st)  # stores through objects untracked

    def _exec_return(self, stmt, st):
        value = TOP if stmt.value is None else self._eval(stmt.value, st)
        forced = self.annots.value_at(stmt.lineno)
        if forced is not None:
            value = forced
        if st.declared_ret is not None:
            self._check_pair(value, st.declared_ret, stmt, st, "return value")
        if value == RAW and st.declared_ret != RAW and not self.raw_home:
            self._add(
                "raw-tuple-escape", "error", stmt, st.scope,
                "unreduced tower tuple returned without boundary reduction "
                "(reduce each limb `% p`, or declare "
                "`# domain: (...) -> raw-tuple`)",
            )
        if value == WIRE and st.declared_ret != WIRE and not self.wire_exempt:
            self._add(
                "wire-escape", "error", stmt, st.scope,
                "raw proof bytes returned from outside the wire layer; "
                "seal into an envelope instead",
            )

    def _exec_if(self, stmt, st):
        self._eval(stmt.test, st)
        before = dict(st.env)
        self._exec_block(stmt.body, st)
        after_body = st.env
        st.env = dict(before)
        self._exec_block(stmt.orelse, st)
        after_else = st.env
        st.env = {
            name: join(after_body.get(name, BOT), after_else.get(name, BOT))
            for name in set(after_body) | set(after_else)
        }

    # -- expressions ---------------------------------------------------------

    def _eval(self, node, st):
        if isinstance(node, ast.Constant):
            return TOP
        if isinstance(node, ast.Name):
            return st.env.get(node.id, TOP)
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value, st)
            self._bind_target(node.target, value, st)
            return value
        if isinstance(node, ast.Attribute):
            self._eval(node.value, st)
            return ATTR_DOMAINS.get(node.attr, TOP)
        if isinstance(node, ast.Subscript):
            self._eval(node.slice, st)
            return self._eval(node.value, st)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            dom = BOT
            for elt in node.elts:
                dom = join(dom, self._eval(elt, st))
            return dom
        if isinstance(node, ast.Dict):
            for k in node.keys:
                if k is not None:
                    self._eval(k, st)
            for v in node.values:
                self._eval(v, st)
            return TOP
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node, st)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand, st)
        if isinstance(node, ast.BoolOp):
            dom = BOT
            for v in node.values:
                dom = join(dom, self._eval(v, st))
            return dom
        if isinstance(node, ast.IfExp):
            self._eval(node.test, st)
            return join(self._eval(node.body, st), self._eval(node.orelse, st))
        if isinstance(node, ast.Compare):
            self._eval(node.left, st)
            for comp in node.comparators:
                self._eval(comp, st)
            return TOP
        if isinstance(node, ast.Call):
            return self._eval_call(node, st)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comp(node, node.elt, st)
        if isinstance(node, ast.DictComp):
            self._eval_comp(node, node.value, st)
            return TOP
        if isinstance(node, ast.Starred):
            return self._eval(node.value, st)
        if isinstance(node, ast.Lambda):
            return OPAQUE
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            self._eval(node.value, st)
            return TOP
        if isinstance(node, ast.Yield):
            if node.value is not None:
                self._eval(node.value, st)
            return TOP
        if isinstance(node, ast.JoinedStr):
            for v in node.values:
                self._eval(v, st)
            return TOP
        if isinstance(node, ast.FormattedValue):
            self._eval(node.value, st)
            return TOP
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self._eval(part, st)
            return TOP
        return TOP

    def _eval_comp(self, node, elt, st):
        saved = dict(st.env)
        for gen in node.generators:
            src = self._eval(gen.iter, st)
            self._bind_target(gen.target, src, st)
            for cond in gen.ifs:
                self._eval(cond, st)
        dom = self._eval(elt, st)
        st.env = saved
        return dom

    def _eval_binop(self, node, st):
        left = self._eval(node.left, st)
        if isinstance(node.op, ast.Mod):
            kind = _modulus_kind(node.right)
            if kind == "p":
                if left == CANON_N:
                    self._add(
                        "modulus-confusion", "error", node, st.scope,
                        "mod-n scalar reduced `% p`; scalars live mod the "
                        "group order, not the base prime",
                    )
                return CANON_P
            if kind == "n":
                return CANON_N
        right = self._eval(node.right, st)
        return self._combine(left, right, node, st, op=node.op)

    def _combine(self, left, right, node, st, op=None):
        if (
            not self.wire_exempt
            and {left, right} & {WIRE, NULLIFIER}
            and left in SPECIFIC
            and right in SPECIFIC
        ):
            self._add(
                "wire-escape", "error", node, st.scope,
                "arithmetic on raw proof bytes outside the wire layer "
                "(hand-assembled envelopes bypass sealing and nullifiers)",
            )
            return WIRE if WIRE in (left, right) else NULLIFIER
        if left == right:
            return left
        if left in NEUTRAL:
            return right
        if right in NEUTRAL:
            return left
        check = self._classify_pair(left, right)
        if check is not None and not (check == "wire-escape" and self.wire_exempt):
            self._add(
                check, "error", node, st.scope,
                "mixed-domain arithmetic: `%s` with `%s`" % (left, right),
            )
        return TOP

    # -- calls ---------------------------------------------------------------

    def _eval_call(self, node, st):
        func = node.func
        arg_domains = [self._eval(a, st) for a in node.args]
        for kw in node.keywords:
            self._eval(kw.value, st)
        name = _terminal_name(func)
        if name is None:
            self._eval(func, st)
            return TOP
        name = self.import_aliases.get(name, name)
        # list.append-style mutation joins into the receiver's domain
        if name in _MUTATORS and isinstance(func, ast.Attribute):
            recv = func.value
            if isinstance(recv, ast.Name) and node.args:
                st.env[recv.id] = join(st.env.get(recv.id, BOT), arg_domains[0])
            return TOP
        if name == "pow" and len(node.args) == 3:
            kind = _modulus_kind(node.args[2])
            if kind == "p":
                return CANON_P
            if kind == "n":
                return CANON_N
            return TOP
        if name in WIRE_PRIMITIVES and not self.wire_exempt:
            self._add(
                "wire-escape", "error", node, st.scope,
                "call to wire primitive `%s()` outside the wire layer; "
                "produce/consume proof bytes through repro.wire" % name,
            )
        sig = self.local_sigs.get(name) or FACTS.get(name)
        if sig is None:
            return TOP
        if sig.params is not None:
            for i, (got, want) in enumerate(zip(arg_domains, sig.params)):
                self._check_pair(
                    got, want, node, st,
                    "argument %d of %s()" % (i + 1, name),
                )
        return sig.ret

    # -- worker-pool purity --------------------------------------------------

    def _check_purity(self, node, qualname):
        """A pool-shipped task must not mutate state it does not own:
        the worker's copy-on-write memory never merges back, so any such
        write diverges serial and parallel runs.  Telemetry metrics ride
        the sanctioned delta protocol instead."""
        local_names = set()
        for arg in (
            list(node.args.posonlyargs) + list(node.args.args)
            + list(node.args.kwonlyargs)
        ):
            local_names.add(arg.arg)
        for va in (node.args.vararg, node.args.kwarg):
            if va is not None:
                local_names.add(va.arg)
        declared_global = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Global):
                declared_global.update(sub.names)
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                local_names.add(sub.id)
        local_names -= declared_global
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                if sub.id in declared_global:
                    self._add(
                        "impure-pool-task", "error", sub, qualname,
                        "pool task `%s` assigns global `%s`; worker-side "
                        "writes never merge back (use the telemetry delta "
                        "protocol or return the value)" % (node.name, sub.id),
                    )
            elif isinstance(sub, (ast.Attribute, ast.Subscript)) and isinstance(
                sub.ctx, (ast.Store, ast.Del)
            ):
                root = _root_name(sub)
                if root is not None and root not in local_names:
                    self._add(
                        "impure-pool-task", "error", sub, qualname,
                        "pool task `%s` mutates non-local `%s`; worker-side "
                        "writes never merge back" % (node.name, root),
                    )
            elif isinstance(sub, ast.Call):
                name = _terminal_name(sub.func)
                if name in _MUTATORS and isinstance(sub.func, ast.Attribute):
                    root = _root_name(sub.func.value)
                    if root is not None and root not in local_names:
                        self._add(
                            "impure-pool-task", "error", sub, qualname,
                            "pool task `%s` calls `%s.%s(...)` on non-local "
                            "state; worker-side writes never merge back"
                            % (node.name, root, name),
                        )


# -- pool-shipment discovery --------------------------------------------------


def _shipped_names_in(tree):
    """Names of functions this file ships to a worker pool."""
    shipped = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _terminal_name(node.func) not in POOL_SUBMIT_NAMES or not node.args:
            continue
        task = node.args[0]
        if _terminal_name(task) in POOL_DELTA_WRAPPERS and len(node.args) > 1:
            task = node.args[1]
        name = _terminal_name(task)
        if name is not None:
            shipped.add(name)
    return shipped


# -- entry points -------------------------------------------------------------


def analyze_source(source, relpath, shipped_names=None):
    """Analyze one file's source text; returns a list of Finding.

    When ``shipped_names`` is None, pool-shipped task names are
    discovered from this source alone (tree runs pass the cross-file
    set instead, since tasks and their submit sites can live apart).
    """
    relpath = relpath.replace(os.sep, "/")
    if shipped_names is None:
        shipped_names = _shipped_names_in(ast.parse(source, filename=relpath))
    analyzer = _Analyzer(relpath, source, shipped_names)
    analyzer.run()
    return analyzer.findings()


def _walk_py(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames if d not in ("__pycache__", ".git")
        )
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                yield os.path.join(dirpath, fname)


def analyze_tree(root=None):
    """Analyze every ``.py`` file under the repro package (or ``root``).

    Two phases: first every file is parsed to discover which function
    names get shipped to worker pools (submit sites and task defs can
    live in different modules), then each file is interpreted with that
    shared set.
    """
    if root is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sources = []
    shipped = set()
    for path in _walk_py(root):
        relpath = os.path.relpath(path, root).replace(os.sep, "/")
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        sources.append((relpath, source))
        shipped |= _shipped_names_in(ast.parse(source, filename=relpath))
    findings = []
    for relpath, source in sources:
        findings.extend(analyze_source(source, relpath, shipped))
    return findings


def analyze_paths(paths):
    """Analyze explicit files or directories (fixtures, ad-hoc runs).

    Relative keys are the final two path components (``lint_fixtures/
    confuse_moduli.py``) so finding keys stay stable wherever the checkout
    lives.
    """
    files = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(_walk_py(path))
        else:
            files.append(path)
    findings = []
    shipped = set()
    sources = []
    for path in files:
        parts = os.path.abspath(path).replace(os.sep, "/").split("/")
        relpath = "/".join(parts[-2:])
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        sources.append((relpath, source))
        shipped |= _shipped_names_in(ast.parse(source, filename=relpath))
    for relpath, source in sources:
        findings.extend(analyze_source(source, relpath, shipped))
    return findings
