"""Loop unrolling (O3, source-to-source).

Rewrites counted loops of the canonical shape

    for (i = A; i < N; i++) body          (also <=, and i += 1)

into a 2x-unrolled main loop plus a remainder loop:

    { i = A;
      while ((i + 1) < N) { body; i++; body; i++; }
      while (i < N)       { body; i++; } }

Constraints: the induction variable is a scalar ``int``/``unsigned``
identifier, the body contains no ``break``/``continue``/``return`` and
never writes the induction variable or any identifier appearing in the
bound, and the bound expression is pure.  Innermost loops are rewritten
first (the walker recurses before transforming).
"""

from __future__ import annotations

import copy

from repro.lang import ast_nodes as ast
from repro.opt.inline import _copy_functions, _is_pure

MAX_BODY_STATEMENTS = 12


def _writes_name(stmt: ast.Stmt, names: set[str]) -> bool:
    """Does *stmt* assign to / increment any identifier in *names*?"""

    def expr_writes(expr: ast.Expr) -> bool:
        if isinstance(expr, ast.Assign):
            target = expr.target
            if isinstance(target, ast.Ident) and target.name in names:
                return True
            if isinstance(target, ast.ArrayRef) and expr_writes(target.index):
                return True
            return expr_writes(expr.value)
        if isinstance(expr, ast.IncDec):
            target = expr.target
            if isinstance(target, ast.Ident) and target.name in names:
                return True
            return False
        if isinstance(expr, ast.BinOp):
            return expr_writes(expr.left) or expr_writes(expr.right)
        if isinstance(expr, (ast.UnaryOp, ast.Cast)):
            return expr_writes(expr.operand)
        if isinstance(expr, ast.ArrayRef):
            return expr_writes(expr.index)
        if isinstance(expr, ast.Ternary):
            return expr_writes(expr.cond) or expr_writes(expr.then) or expr_writes(expr.other)
        if isinstance(expr, ast.Call):
            return any(expr_writes(arg) for arg in expr.args)
        return False

    if isinstance(stmt, ast.ExprStmt):
        return expr_writes(stmt.expr)
    if isinstance(stmt, ast.Decl):
        if stmt.name in names:
            return True
        if isinstance(stmt.init, ast.Expr):
            return expr_writes(stmt.init)
        return False
    if isinstance(stmt, ast.Block):
        return any(_writes_name(inner, names) for inner in stmt.stmts)
    if isinstance(stmt, ast.If):
        return (
            expr_writes(stmt.cond)
            or _writes_name(stmt.then, names)
            or (stmt.other is not None and _writes_name(stmt.other, names))
        )
    if isinstance(stmt, (ast.While, ast.DoWhile)):
        return expr_writes(stmt.cond) or _writes_name(stmt.body, names)
    if isinstance(stmt, ast.For):
        parts = [stmt.body]
        if stmt.init is not None:
            parts.append(stmt.init)
        inner = any(_writes_name(part, names) for part in parts)
        if stmt.cond is not None:
            inner = inner or expr_writes(stmt.cond)
        if stmt.step is not None:
            inner = inner or expr_writes(stmt.step)
        return inner
    return False


def _has_jumps(stmt: ast.Stmt, top: bool = True) -> bool:
    """break/continue/return anywhere in *stmt* (not descending into
    nested loops for break/continue, which re-bind)."""
    if isinstance(stmt, (ast.Break, ast.Continue, ast.Return)):
        return True
    if isinstance(stmt, ast.Block):
        return any(_has_jumps(inner, False) for inner in stmt.stmts)
    if isinstance(stmt, ast.If):
        if _has_jumps(stmt.then, False):
            return True
        return stmt.other is not None and _has_jumps(stmt.other, False)
    if isinstance(stmt, (ast.While, ast.DoWhile, ast.For)):
        # A nested loop captures break/continue but a return still escapes;
        # be conservative and refuse to unroll around nested loops with
        # returns inside.
        return _contains_return(stmt)
    return False


def _contains_return(stmt: ast.Stmt) -> bool:
    if isinstance(stmt, ast.Return):
        return True
    if isinstance(stmt, ast.Block):
        return any(_contains_return(inner) for inner in stmt.stmts)
    if isinstance(stmt, ast.If):
        if _contains_return(stmt.then):
            return True
        return stmt.other is not None and _contains_return(stmt.other)
    if isinstance(stmt, (ast.While, ast.DoWhile)):
        return _contains_return(stmt.body)
    if isinstance(stmt, ast.For):
        return _contains_return(stmt.body)
    return False


def _bound_names(expr: ast.Expr) -> set[str]:
    names: set[str] = set()
    if isinstance(expr, ast.Ident):
        names.add(expr.name)
    elif isinstance(expr, ast.BinOp):
        names |= _bound_names(expr.left)
        names |= _bound_names(expr.right)
    elif isinstance(expr, (ast.UnaryOp, ast.Cast)):
        names |= _bound_names(expr.operand)
    elif isinstance(expr, ast.ArrayRef):
        names.add(expr.base)
        names |= _bound_names(expr.index)
    return names


def _step_var(step: ast.Expr) -> str | None:
    """Induction variable name if the step is i++/++i/i += 1, else None."""
    if isinstance(step, ast.IncDec) and step.op == "++":
        if isinstance(step.target, ast.Ident):
            return step.target.name
    if isinstance(step, ast.Assign) and step.op == "+=":
        if isinstance(step.target, ast.Ident) and isinstance(step.value, ast.IntLit):
            if step.value.value == 1:
                return step.target.name
    return None


def _body_size(stmt: ast.Stmt) -> int:
    if isinstance(stmt, ast.Block):
        return sum(_body_size(inner) for inner in stmt.stmts)
    if isinstance(stmt, ast.If):
        size = 1 + _body_size(stmt.then)
        if stmt.other is not None:
            size += _body_size(stmt.other)
        return size
    if isinstance(stmt, (ast.While, ast.DoWhile, ast.For)):
        return 1 + _body_size(stmt.body)
    return 1


def _try_unroll(loop: ast.For) -> ast.Stmt | None:
    if loop.cond is None or loop.step is None or loop.body is None:
        return None
    var = _step_var(loop.step)
    if var is None:
        return None
    cond = loop.cond
    if not isinstance(cond, ast.BinOp) or cond.op not in ("<", "<="):
        return None
    if not (isinstance(cond.left, ast.Ident) and cond.left.name == var):
        return None
    bound = cond.right
    if not _is_pure(bound):
        return None
    if _body_size(loop.body) > MAX_BODY_STATEMENTS:
        return None
    if _has_jumps(loop.body):
        return None
    protected = {var} | _bound_names(bound)
    if _writes_name(loop.body, protected):
        return None

    def ident() -> ast.Ident:
        return ast.Ident(name=var)

    def incr() -> ast.ExprStmt:
        return ast.ExprStmt(expr=ast.IncDec(op="++", target=ident(), prefix=False))

    main_cond = ast.BinOp(
        op=cond.op,
        left=ast.BinOp(op="+", left=ident(), right=ast.IntLit(value=1)),
        right=copy.deepcopy(bound),
    )
    main_body = ast.Block(
        stmts=[
            copy.deepcopy(loop.body),
            incr(),
            copy.deepcopy(loop.body),
            incr(),
        ]
    )
    remainder_cond = ast.BinOp(op=cond.op, left=ident(), right=copy.deepcopy(bound))
    remainder_body = ast.Block(stmts=[copy.deepcopy(loop.body), incr()])
    stmts: list[ast.Stmt] = []
    if loop.init is not None:
        stmts.append(copy.deepcopy(loop.init))
    stmts.append(ast.While(cond=main_cond, body=main_body, line=loop.line))
    stmts.append(ast.While(cond=remainder_cond, body=remainder_body, line=loop.line))
    return ast.Block(stmts=stmts, line=loop.line)


class _Unroller:
    def __init__(self) -> None:
        self.count = 0

    def rewrite(self, stmt: ast.Stmt) -> ast.Stmt:
        if isinstance(stmt, ast.Block):
            stmt.stmts = [self.rewrite(inner) for inner in stmt.stmts]
            return stmt
        if isinstance(stmt, ast.If):
            stmt.then = self.rewrite(stmt.then)
            if stmt.other is not None:
                stmt.other = self.rewrite(stmt.other)
            return stmt
        if isinstance(stmt, ast.While):
            stmt.body = self.rewrite(stmt.body)
            return stmt
        if isinstance(stmt, ast.DoWhile):
            stmt.body = self.rewrite(stmt.body)
            return stmt
        if isinstance(stmt, ast.For):
            stmt.body = self.rewrite(stmt.body)
            unrolled = _try_unroll(stmt)
            if unrolled is not None:
                self.count += 1
                return unrolled
            return stmt
        return stmt


def unroll_loops(program: ast.Program) -> ast.Program:
    """Return a copy of *program* with eligible loops 2x-unrolled.

    Only the functions are copied; the copy shares *program*'s global
    declarations, which unrolling never rewrites.
    """
    clone = _copy_functions(program)
    unroller = _Unroller()
    for func in clone.functions:
        func.body = unroller.rewrite(func.body)
    return clone
