"""Token-preserving rewriters — one per auto-fixable rule.

Each rewriter maps a finding onto *span edits* against the original
source: ``(line, col, end_line, end_col, replacement)`` with 1-based
lines and the ``ast`` byte column offsets.  Nothing is re-rendered
through an unparser — untouched tokens, comments, and formatting survive
byte-for-byte, which is what keeps a fixed tree diff-minimal and the fix
engine idempotent (once the trigger pattern is gone, the rule no longer
fires and the rewriter is never consulted again).

The fixable per-rule semantics:

* **SL104** — wrap the hash-ordered iterable in ``sorted(...)``.
* **SL201** — replace the magic literal (``10**6``, ``1048576``) with
  the named ``repro.units`` constant the finding suggests, importing
  ``units`` if the module does not bind it yet.
* **SL1002** — rewrite a non-atomic ``path.write_text(...)`` /
  ``path.write_bytes(...)`` into the sanctioned
  ``atomic_write_text(path, ...)`` / ``atomic_write_bytes(path, ...)``
  from :mod:`repro.core.atomic`, importing the helper if needed.
  Hand-rolled tmp+rename protocols are *not* rewritten — removing the
  surrounding ``os.replace`` scaffolding safely needs a human.

A rewriter returns ``None`` when it cannot prove the edit is safe (the
node moved, a hand-rolled protocol surrounds the write); the engine then
reports the finding as skipped rather than guessing.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Tuple

from repro.lint.context import is_setish
from repro.lint.findings import Finding
from repro.lint.rules.units import _POW_NAMES

__all__ = ["FIXABLE_RULES", "Edit", "apply_edits", "plan_edits"]

#: Rules ``repro lint --fix`` knows how to repair.
FIXABLE_RULES = ("SL104", "SL201", "SL1002")

#: (line, col, end_line, end_col, replacement) — a zero-width span
#: (line == end_line, col == end_col) is a pure insertion.
Edit = Tuple[int, int, int, int, str]

#: ``units.MB`` -> 10**6, inverted from the rule's suggestion table.
_NAME_TO_VALUE = {name: value for value, name in sorted(_POW_NAMES.items())}

_USE_RE = re.compile(r"; use (units\.[A-Za-z_]+)")


# -- edit application -------------------------------------------------------


def apply_edits(source: str, edits: List[Edit]) -> Optional[str]:
    """*source* with all *edits* applied, or None if any spans overlap.

    Offsets are resolved against the UTF-8 encoding (matching ``ast``
    column semantics) and applied back-to-front so earlier spans stay
    valid.  Coincident zero-width insertions are kept in plan order.
    """
    data = source.encode("utf-8")
    starts = [0]
    for raw_line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(raw_line))

    def pos(line: int, col: int) -> int:
        return starts[line - 1] + col

    spans = []
    for order, (line, col, end_line, end_col, text) in enumerate(edits):
        spans.append((pos(line, col), pos(end_line, end_col), order, text))
    spans.sort(key=lambda s: (s[0], s[1], s[2]))
    for (_, prev_end, _, _), (nxt_start, _, _, _) in zip(spans, spans[1:]):
        if nxt_start < prev_end:
            return None  # overlapping rewrites: refuse the whole file
    for start, end, _order, text in reversed(spans):
        data = data[:start] + text.encode("utf-8") + data[end:]
    return data.decode("utf-8")


def _span(node: ast.AST) -> Tuple[int, int, int, int]:
    return (node.lineno, node.col_offset, node.end_lineno, node.end_col_offset)


def _replace(node: ast.AST, text: str) -> Edit:
    line, col, end_line, end_col = _span(node)
    return (line, col, end_line, end_col, text)


def _insert(line: int, col: int, text: str) -> Edit:
    return (line, col, line, col, text)


# -- SL104: set iteration -> sorted(...) ------------------------------------


def _fix_set_iteration(tree: ast.Module, source: str,
                       finding: Finding) -> Optional[List[Edit]]:
    edits: List[Edit] = []
    for node in ast.walk(tree):
        iters: List[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                               ast.DictComp)):
            iters = [gen.iter for gen in node.generators]
        for it in iters:
            if it.lineno == finding.line and is_setish(it):
                edits.append(_insert(it.lineno, it.col_offset, "sorted("))
                edits.append(_insert(it.end_lineno, it.end_col_offset, ")"))
    return edits or None


# -- SL201: magic literal -> named units constant ---------------------------


def _units_bound(tree: ast.Module) -> bool:
    """True when module scope already binds the name ``units``."""
    for st in tree.body:
        if isinstance(st, ast.Import):
            for alias in st.names:
                bound = alias.asname or alias.name.split(".", 1)[0]
                if bound == "units":
                    return True
        elif isinstance(st, ast.ImportFrom):
            for alias in st.names:
                if (alias.asname or alias.name) == "units":
                    return True
    return False


def _import_insertion_line(tree: ast.Module) -> int:
    """Line *after* which ``from repro import units`` should be added."""
    line = 0
    body = tree.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        line = body[0].end_lineno  # module docstring
    for st in body:
        if isinstance(st, (ast.Import, ast.ImportFrom)):
            line = max(line, st.end_lineno)
    return line


def _literal_value(node: ast.expr) -> Optional[object]:
    """The numeric value of a literal or a literal ``x ** y``.

    ``ast.literal_eval`` rejects ``BinOp`` power expressions, so the one
    shape SL201 reports (``10 ** 6``) is folded by hand.
    """
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        base = _literal_value(node.left)
        exp = _literal_value(node.right)
        if isinstance(base, int) and isinstance(exp, int) and 0 <= exp < 64:
            return base ** exp
        return None
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, MemoryError):
        return None
    return value if isinstance(value, (int, float)) else None


def _fix_magic_literal(tree: ast.Module, source: str,
                       finding: Finding) -> Optional[List[Edit]]:
    match = _USE_RE.search(finding.message)
    if match is None:
        return None
    suggestion = match.group(1)
    value = _NAME_TO_VALUE.get(suggestion)
    if value is None:
        return None
    target: Optional[ast.expr] = None
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Constant, ast.BinOp)):
            continue
        if getattr(node, "lineno", None) != finding.line:
            continue
        if isinstance(node, ast.BinOp) and not isinstance(node.op, ast.Pow):
            continue
        if _literal_value(node) == value:
            # Prefer the widest matching node (the whole ``10 ** 6``,
            # not its ``10`` operand): BinOps are walked before leaves.
            target = node
            break
    if target is None:
        return None
    edits = [_replace(target, suggestion)]
    if not _units_bound(tree):
        after = _import_insertion_line(tree)
        edits.append(_insert(after + 1, 0, "from repro import units\n"))
    return edits


# -- SL1002: non-atomic write_text/write_bytes -> repro.core.atomic ---------


def _name_bound(tree: ast.Module, name: str) -> bool:
    """True when module scope already imports the given *name*."""
    for st in tree.body:
        if isinstance(st, ast.Import):
            for alias in st.names:
                if (alias.asname or alias.name.split(".", 1)[0]) == name:
                    return True
        elif isinstance(st, ast.ImportFrom):
            for alias in st.names:
                if (alias.asname or alias.name) == name:
                    return True
    return False


def _fix_atomic_write(tree: ast.Module, source: str,
                      finding: Finding) -> Optional[List[Edit]]:
    if "hand-rolls" in finding.message:
        # The tmp+os.replace scaffolding around the write would be left
        # behind (double-rename); migrating those needs a human.
        return None
    target: Optional[ast.Call] = None
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.lineno == finding.line \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("write_text", "write_bytes"):
            target = node
            break
    if target is None or not target.args:
        return None
    receiver = ast.get_source_segment(source, target.func.value)
    if receiver is None:
        return None
    helper = ("atomic_write_text" if target.func.attr == "write_text"
              else "atomic_write_bytes")
    first = target.args[0]
    edits = [_replace(target.func, helper),
             _insert(first.lineno, first.col_offset, f"{receiver}, ")]
    if not _name_bound(tree, helper):
        after = _import_insertion_line(tree)
        edits.append(_insert(
            after + 1, 0, f"from repro.core.atomic import {helper}\n"))
    return edits


# -- dispatch ---------------------------------------------------------------

_REWRITERS = {
    "SL104": _fix_set_iteration,
    "SL201": _fix_magic_literal,
    "SL1002": _fix_atomic_write,
}


def plan_edits(tree: ast.Module, source: str,
               finding: Finding) -> Optional[List[Edit]]:
    """Span edits repairing *finding*, or None when no safe fix exists."""
    rewriter = _REWRITERS.get(finding.rule)
    if rewriter is None:
        return None
    return rewriter(tree, source, finding)
