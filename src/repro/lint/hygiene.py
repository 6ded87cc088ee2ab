"""Crypto-hygiene linter: an ``ast`` pass over the ``repro`` source tree.

Repo rules enforced (each a check name, keyed per file + enclosing scope):

* ``random-module``    — the ``random`` module anywhere in the library;
  signing, setup, and rerandomization must use ``secrets`` (or the
  deterministic RFC 6979 path).  Severity: error inside the crypto paths
  (``sig/``, ``groth16/``, ``ca/``, ``field/``, ``ec/``, ``pairing/``,
  ``engine/``), warning elsewhere.
* ``digest-compare``   — ``==``/``!=`` where either operand's identifiers
  mention digest/hmac/mac/fingerprint material; byte comparisons of
  authenticators must go through ``hmac.compare_digest`` so timing does
  not leak match prefixes.  (``*_type`` / ``*_len`` / ``*_size`` names are
  exempt: those compare tags, not digests.)
* ``float-in-field``   — float literals, ``float()`` calls, or true
  division inside the exact-arithmetic layers (``field/``, ``ec/``,
  ``pairing/``): rounding has no place under a prime modulus.
* ``bare-except``      — ``except:`` with no exception class.
* ``mutable-default``  — ``def f(x=[])``-style defaults (lists, dicts,
  sets, or calls to their constructors).
* ``direct-time``      — ``time.time()`` / ``time.perf_counter()`` /
  ``time.monotonic()`` / ``time.process_time()`` calls (or the equivalent
  ``from time import ...`` names) outside ``telemetry/``; all clock reads
  must funnel through :mod:`repro.telemetry.clocks` so one injected clock
  makes traces, timelines, and benchmarks deterministic.  Severity:
  warning (baseline-gated like everything else).
* ``inv-in-loop``      — a modular-inverse call (``inv(...)`` /
  ``*.inv(...)``) lexically inside a ``for``/``while`` body.  One
  inversion costs hundreds of multiplications; a loop of them almost
  always wants Montgomery's batch-inversion trick
  (``PrimeField.batch_inverse``: ``3n`` multiplications + one inverse for
  the whole batch, as the MSM's batched-affine bucket accumulation does).
  Severity: error — loops whose trip count is provably tiny carry a
  baseline justification.
* ``wire-escape``      — importing or calling a raw proof wire primitive
  (``proof_to_bytes``, the ``g1``/``g2`` point codecs, the SAN
  ``encode_sans``/``collect_chars`` transport) outside the sanctioned layers
  (``wire/``, ``groth16/``, ``x509/san.py`` and its re-exporting
  ``__init__``).  Every other module must produce and consume proof
  bytes through the :mod:`repro.wire` envelope API, so sealing and the
  domain-bound nullifier cannot be sidestepped.  Severity: error.
* ``raw-tuple-escape`` — importing or calling a lazy-tower combinator
  (``_m2``, ``_xi2``, ``_m6``, ``_mulv6``, ``_add6``, ``_raw``,
  ``_from_raw``) outside ``field/extension.py``.  They return
  double-wide unreduced limb tuples that only the tower's boundary
  reducers may consume.  Severity: error.

All checks are static and syntactic, but alias-aware: ``import random
as r`` / ``from time import perf_counter as pc`` resolve through a
per-file alias map before the rules run, so renaming an import cannot
dodge them.  The alias map is file-flat (function-local imports share
it), which is acceptable for a codebase-local rule set — the point is
to stop the obvious write, not a determined adversary with commit
access.
"""

import ast
import os
import re

from .report import Finding

#: directories (relative to the repro package root) where randomness and
#: comparison hygiene are security-relevant
CRYPTO_PATHS = ("sig/", "groth16/", "ca/", "field/", "ec/", "pairing/", "engine/")

#: exact-arithmetic layers where floats are banned outright
FLOAT_PATHS = ("field/", "ec/", "pairing/")

#: identifier tokens that mark an authenticator-ish value
_DIGEST_TOKENS = {"digest", "hmac", "mac", "fingerprint"}

#: clock-reading functions of the ``time`` module (formatting helpers like
#: ``gmtime(epoch)``/``strftime`` are fine — they convert, they don't read)
_CLOCK_READS = {"time", "perf_counter", "monotonic", "process_time"}

#: modules whose own job is reading clocks
_CLOCK_EXEMPT_PATHS = ("telemetry/",)

#: trailing tokens that mark a *metadata* name, not the bytes themselves
_EXEMPT_TAILS = {"type", "types", "len", "length", "size", "id", "alg"}

#: raw proof wire primitives; everything else goes through repro.wire
WIRE_PRIMITIVES = frozenset({
    "proof_to_bytes", "proof_from_bytes",
    "g1_to_bytes", "g1_from_bytes", "g2_to_bytes", "g2_from_bytes",
    "encode_sans", "collect_chars",
})

#: layers allowed to touch the wire primitives directly
WIRE_ALLOWED_PATHS = ("wire/", "groth16/", "x509/san.py", "x509/__init__.py")

#: lazy-tower combinators returning unreduced limb tuples
RAW_COMBINATORS = frozenset({
    "_m2", "_xi2", "_m6", "_mulv6", "_add6", "_raw", "_from_raw",
})

#: the one module whose job is producing and consuming raw tower tuples
RAW_HOME = "field/extension.py"

_IDENT = re.compile(r"[A-Za-z]+")


def _tokens(identifier):
    """Lower-cased word tokens of a snake/camel identifier."""
    spaced = re.sub(r"([a-z0-9])([A-Z])", r"\1 \2", identifier)
    return [t.lower() for t in _IDENT.findall(spaced)]


_CONST_NAME = re.compile(r"[A-Z0-9_]+")


def _iter_digest_nodes(node):
    """Walk an expression, skipping ``len(...)`` subtrees (lengths are
    metadata, not the authenticator bytes)."""
    stack = [node]
    while stack:
        cur = stack.pop()
        if (
            isinstance(cur, ast.Call)
            and isinstance(cur.func, ast.Name)
            and cur.func.id == "len"
        ):
            continue
        stack.extend(ast.iter_child_nodes(cur))
        yield cur


def _mentions_digest(node):
    """True if any identifier in the expression names digest material.

    ALL_CAPS names are exempt: comparing against a module constant
    (``digest_type == DIGEST_SHA256``) selects an algorithm tag, it does
    not verify secret bytes.
    """
    for sub in _iter_digest_nodes(node):
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        if name is None or _CONST_NAME.fullmatch(name):
            continue
        toks = _tokens(name)
        if not toks or toks[-1] in _EXEMPT_TAILS:
            continue
        if any(t in _DIGEST_TOKENS for t in toks):
            return True
    return False


def _terminal_name(func):
    """The rightmost identifier of a call target (``a.b.c`` -> ``c``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_mutable_literal(node):
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("list", "dict", "set", "bytearray")
    return False


class _Scope(ast.NodeVisitor):
    """Tracks the enclosing class/function qualname for stable keys."""

    def __init__(self, relpath, findings):
        self.relpath = relpath
        self.findings = findings
        self.stack = []
        self.loop_depth = 0
        self.in_crypto = relpath.startswith(CRYPTO_PATHS)
        self.in_float_ban = relpath.startswith(FLOAT_PATHS)
        self.clock_exempt = relpath.startswith(_CLOCK_EXEMPT_PATHS)
        self.wire_exempt = relpath.startswith(WIRE_ALLOWED_PATHS)
        self.raw_home = relpath == RAW_HOME
        # alias resolution: `import random as r` / `from time import
        # perf_counter as pc` must not dodge the rules
        self.module_aliases = {}  # local name -> imported module name
        self.name_aliases = {}  # local name -> imported original name

    def _module_of(self, name):
        return self.module_aliases.get(name, name)

    def _name_of(self, name):
        return self.name_aliases.get(name, name)

    def scope(self):
        return ".".join(self.stack) if self.stack else "<module>"

    def add(self, check, severity, node, message):
        self.findings.append(
            Finding(
                "hygiene",
                check,
                severity,
                "%s:%s" % (self.relpath, self.scope()),
                "%s:%d: %s" % (self.relpath, getattr(node, "lineno", 0), message),
            )
        )

    # -- scope bookkeeping ---------------------------------------------------

    def _visit_scoped(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_ClassDef(self, node):
        self._visit_scoped(node)

    def _visit_loop(self, node):
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    def visit_For(self, node):
        self._visit_loop(node)

    def visit_AsyncFor(self, node):
        self._visit_loop(node)

    def visit_While(self, node):
        self._visit_loop(node)

    # comprehensions loop too: [f.inv(x) for x in xs] is the exact shape
    # batch_inverse replaces
    def visit_ListComp(self, node):
        self._visit_loop(node)

    def visit_SetComp(self, node):
        self._visit_loop(node)

    def visit_DictComp(self, node):
        self._visit_loop(node)

    def visit_GeneratorExp(self, node):
        self._visit_loop(node)

    def _visit_function(self, node):
        self._check_defaults(node)
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_FunctionDef(self, node):
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node):
        self._visit_function(node)

    # -- checks --------------------------------------------------------------

    def _random_severity(self):
        return "error" if self.in_crypto else "warning"

    def visit_Import(self, node):
        for alias in node.names:
            if alias.asname:
                self.module_aliases[alias.asname] = alias.name
            if alias.name == "random" or alias.name.startswith("random."):
                self.add(
                    "random-module", self._random_severity(), node,
                    "import of the non-cryptographic `random` module; use "
                    "`secrets` or RFC 6979 deterministic nonces",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        for alias in node.names:
            if alias.asname:
                self.name_aliases[alias.asname] = alias.name
        if node.module == "random":
            self.add(
                "random-module", self._random_severity(), node,
                "import from the non-cryptographic `random` module",
            )
        if node.module == "time" and not self.clock_exempt:
            for alias in node.names:
                if alias.name in _CLOCK_READS:
                    self.add(
                        "direct-time", "warning", node,
                        "`from time import %s` bypasses the telemetry clock; "
                        "use repro.telemetry.clocks" % alias.name,
                    )
        for alias in node.names:
            self._check_escape(alias.name, node, "import of")
        self.generic_visit(node)

    def _check_escape(self, name, node, what):
        """``wire-escape`` / ``raw-tuple-escape`` for one imported or
        called name (already resolved through the alias map)."""
        if name in WIRE_PRIMITIVES and not self.wire_exempt:
            self.add(
                "wire-escape", "error", node,
                "%s wire primitive `%s` outside the wire layer; "
                "produce/consume proof bytes through repro.wire" % (what, name),
            )
        if name in RAW_COMBINATORS and not self.raw_home:
            self.add(
                "raw-tuple-escape", "error", node,
                "%s lazy-tower combinator `%s` outside %s; its unreduced "
                "limb tuples must not leave the tower" % (what, name, RAW_HOME),
            )

    def visit_Attribute(self, node):
        if (
            isinstance(node.value, ast.Name)
            and self._module_of(node.value.id) == "random"
        ):
            self.add(
                "random-module", self._random_severity(), node,
                "`random.%s` is not cryptographically secure" % node.attr,
            )
        self.generic_visit(node)

    def visit_Compare(self, node):
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left] + list(node.comparators)
            if any(_mentions_digest(o) for o in operands):
                self.add(
                    "digest-compare", "error", node,
                    "`==` on digest/MAC material leaks timing; use "
                    "hmac.compare_digest",
                )
        self.generic_visit(node)

    def visit_ExceptHandler(self, node):
        if node.type is None:
            self.add(
                "bare-except", "error", node,
                "bare `except:` swallows SystemExit/KeyboardInterrupt and "
                "hides soundness bugs; name the exception",
            )
        self.generic_visit(node)

    def _check_defaults(self, node):
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for d in defaults:
            if _is_mutable_literal(d):
                self.add(
                    "mutable-default", "error", d,
                    "mutable default argument in %s(); defaults are shared "
                    "across calls" % node.name,
                )

    def visit_Constant(self, node):
        if self.in_float_ban and isinstance(node.value, float):
            self.add(
                "float-in-field", "error", node,
                "float literal %r in an exact-arithmetic layer" % node.value,
            )
        self.generic_visit(node)

    def visit_BinOp(self, node):
        if self.in_float_ban and isinstance(node.op, ast.Div):
            self.add(
                "float-in-field", "error", node,
                "true division `/` in an exact-arithmetic layer; use `//` "
                "or a modular inverse",
            )
        self.generic_visit(node)

    def visit_Call(self, node):
        if (
            self.in_float_ban
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            self.add(
                "float-in-field", "error", node,
                "float() conversion in an exact-arithmetic layer",
            )
        if (
            not self.clock_exempt
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and self._module_of(node.func.value.id) in ("time", "_time")
            and node.func.attr in _CLOCK_READS
        ):
            self.add(
                "direct-time", "warning", node,
                "direct `time.%s()` call; clock reads must go through "
                "repro.telemetry.clocks so injected clocks cover every "
                "timing site" % node.func.attr,
            )
        callee = _terminal_name(node.func)
        if isinstance(node.func, ast.Name):
            callee = self._name_of(callee)
        self._check_escape(callee, node, "call to")
        if callee == "inv" and self.loop_depth > 0:
            self.add(
                "inv-in-loop", "error", node,
                "modular inverse inside a loop; hoist into one "
                "PrimeField.batch_inverse call (3n mults + 1 inversion) "
                "unless the trip count is provably tiny",
            )
        self.generic_visit(node)


def lint_source(source, relpath):
    """Lint one file's source text; returns a list of Finding."""
    relpath = relpath.replace(os.sep, "/")
    tree = ast.parse(source, filename=relpath)
    findings = []
    _Scope(relpath, findings).visit(tree)
    return findings


def _walk_py(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames if d not in ("__pycache__", ".git")
        )
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                yield os.path.join(dirpath, fname)


def _lint_files(files):
    """Lint ``(relpath, path)`` pairs; returns a list of Finding."""
    findings = []
    for relpath, path in files:
        with open(path, "r", encoding="utf-8") as fh:
            findings.extend(lint_source(fh.read(), relpath))
    return findings


def lint_tree(root=None):
    """Lint every ``.py`` file under the repro package (or ``root``)."""
    if root is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return _lint_files(
        (os.path.relpath(path, root).replace(os.sep, "/"), path)
        for path in _walk_py(root)
    )


def lint_paths(paths):
    """Lint explicit files or directories (fixtures, ad-hoc runs).

    Keys use the final two path components (``lint_fixtures/
    leak_wire_bytes.py``), so they stay stable wherever the checkout
    lives.
    """
    files = []
    for path in paths:
        files.extend(_walk_py(path) if os.path.isdir(path) else [path])
    return _lint_files(
        ("/".join(os.path.abspath(p).replace(os.sep, "/").split("/")[-2:]), p)
        for p in files
    )
