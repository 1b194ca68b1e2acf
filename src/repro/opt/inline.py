"""Function inlining (O3, source-to-source).

Inlines calls to *expression functions* — functions whose body is a single
``return expr;`` with scalar parameters and no calls — by substituting the
argument expressions into a copy of the returned expression.  Arguments
must be pure (no assignments, ++/--, or calls); non-trivial arguments are
only substituted when the parameter is used at most once.

Operating at the AST level mirrors how such abstraction-removal shows up
to the rest of *this* pipeline and keeps the transform trivially correct.
"""

from __future__ import annotations

import copy

from repro.lang import ast_nodes as ast

MAX_INLINE_USES = 4


def _is_pure(expr: ast.Expr) -> bool:
    if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.CharLit, ast.Ident)):
        return True
    if isinstance(expr, ast.ArrayRef):
        return _is_pure(expr.index)
    if isinstance(expr, ast.BinOp):
        return _is_pure(expr.left) and _is_pure(expr.right)
    if isinstance(expr, ast.UnaryOp):
        return _is_pure(expr.operand)
    if isinstance(expr, ast.Cast):
        return _is_pure(expr.operand)
    if isinstance(expr, ast.Ternary):
        return _is_pure(expr.cond) and _is_pure(expr.then) and _is_pure(expr.other)
    return False


def _is_trivial(expr: ast.Expr) -> bool:
    return isinstance(expr, (ast.IntLit, ast.FloatLit, ast.CharLit, ast.Ident))


def _count_ident_uses(expr: ast.Expr, name: str) -> int:
    count = 0
    if isinstance(expr, ast.Ident) and expr.name == name:
        return 1
    for child in _expr_children(expr):
        count += _count_ident_uses(child, name)
    return count


def _expr_children(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.BinOp):
        return [expr.left, expr.right]
    if isinstance(expr, ast.UnaryOp):
        return [expr.operand]
    if isinstance(expr, ast.Cast):
        return [expr.operand]
    if isinstance(expr, ast.ArrayRef):
        return [expr.index]
    if isinstance(expr, ast.Ternary):
        return [expr.cond, expr.then, expr.other]
    if isinstance(expr, ast.Call):
        return list(expr.args)
    if isinstance(expr, ast.Assign):
        return [expr.target, expr.value]
    if isinstance(expr, ast.IncDec):
        return [expr.target]
    return []


def _substitute(expr: ast.Expr, bindings: dict[str, ast.Expr]) -> ast.Expr:
    """Deep-copy *expr* with parameter identifiers replaced."""
    if isinstance(expr, ast.Ident) and expr.name in bindings:
        return copy.deepcopy(bindings[expr.name])
    clone = copy.copy(expr)
    if isinstance(expr, ast.BinOp):
        clone.left = _substitute(expr.left, bindings)
        clone.right = _substitute(expr.right, bindings)
    elif isinstance(expr, ast.UnaryOp):
        clone.operand = _substitute(expr.operand, bindings)
    elif isinstance(expr, ast.Cast):
        clone.operand = _substitute(expr.operand, bindings)
    elif isinstance(expr, ast.ArrayRef):
        clone.index = _substitute(expr.index, bindings)
    elif isinstance(expr, ast.Ternary):
        clone.cond = _substitute(expr.cond, bindings)
        clone.then = _substitute(expr.then, bindings)
        clone.other = _substitute(expr.other, bindings)
    elif isinstance(expr, ast.Call):
        clone.args = [_substitute(arg, bindings) for arg in expr.args]
    return clone


def _has_calls(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.Call):
        return True
    return any(_has_calls(child) for child in _expr_children(expr))


def _copy_functions(program: ast.Program) -> ast.Program:
    """*program* with deep-copied functions and shared globals."""
    return ast.Program(
        globals=list(program.globals),
        functions=copy.deepcopy(program.functions),
        line=program.line,
    )


def _find_candidates(program: ast.Program) -> dict[str, ast.FuncDecl]:
    """Expression functions eligible for inlining."""
    candidates: dict[str, ast.FuncDecl] = {}
    for func in program.functions:
        if func.name == "main" or func.return_type.is_void():
            continue
        if any(param.is_array for param in func.params):
            continue
        stmts = func.body.stmts
        if len(stmts) != 1 or not isinstance(stmts[0], ast.Return):
            continue
        expr = stmts[0].value
        if expr is None or _has_calls(expr) or not _is_pure(expr):
            continue
        candidates[func.name] = func
    return candidates


class _Inliner:
    def __init__(self, candidates: dict[str, ast.FuncDecl]):
        self.candidates = candidates
        self.count = 0

    def rewrite_expr(self, expr: ast.Expr) -> ast.Expr:
        # Rewrite children first so nested calls inline inside-out.
        if isinstance(expr, ast.BinOp):
            expr.left = self.rewrite_expr(expr.left)
            expr.right = self.rewrite_expr(expr.right)
        elif isinstance(expr, ast.UnaryOp):
            expr.operand = self.rewrite_expr(expr.operand)
        elif isinstance(expr, ast.Cast):
            expr.operand = self.rewrite_expr(expr.operand)
        elif isinstance(expr, ast.ArrayRef):
            expr.index = self.rewrite_expr(expr.index)
        elif isinstance(expr, ast.Ternary):
            expr.cond = self.rewrite_expr(expr.cond)
            expr.then = self.rewrite_expr(expr.then)
            expr.other = self.rewrite_expr(expr.other)
        elif isinstance(expr, ast.Assign):
            expr.value = self.rewrite_expr(expr.value)
            if isinstance(expr.target, ast.ArrayRef):
                expr.target.index = self.rewrite_expr(expr.target.index)
        elif isinstance(expr, ast.IncDec):
            pass
        elif isinstance(expr, ast.Call):
            expr.args = [self.rewrite_expr(arg) for arg in expr.args]
            inlined = self._try_inline(expr)
            if inlined is not None:
                return inlined
        return expr

    def _try_inline(self, call: ast.Call) -> ast.Expr | None:
        func = self.candidates.get(call.name)
        if func is None:
            return None
        body_expr = func.body.stmts[0].value
        bindings: dict[str, ast.Expr] = {}
        for param, arg in zip(func.params, call.args):
            if not _is_pure(arg):
                return None
            uses = _count_ident_uses(body_expr, param.name)
            if uses > 1 and not _is_trivial(arg):
                return None
            if uses > MAX_INLINE_USES:
                return None
            bindings[param.name] = arg
        self.count += 1
        result = _substitute(body_expr, bindings)
        if not func.return_type.is_float():
            return result
        return ast.Cast(target=func.return_type, operand=result, line=call.line)

    def rewrite_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.ExprStmt):
            stmt.expr = self.rewrite_expr(stmt.expr)
        elif isinstance(stmt, ast.Decl) and isinstance(stmt.init, ast.Expr):
            stmt.init = self.rewrite_expr(stmt.init)
        elif isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                self.rewrite_stmt(inner)
        elif isinstance(stmt, ast.If):
            stmt.cond = self.rewrite_expr(stmt.cond)
            self.rewrite_stmt(stmt.then)
            if stmt.other is not None:
                self.rewrite_stmt(stmt.other)
        elif isinstance(stmt, ast.While):
            stmt.cond = self.rewrite_expr(stmt.cond)
            self.rewrite_stmt(stmt.body)
        elif isinstance(stmt, ast.DoWhile):
            stmt.cond = self.rewrite_expr(stmt.cond)
            self.rewrite_stmt(stmt.body)
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self.rewrite_stmt(stmt.init)
            if stmt.cond is not None:
                stmt.cond = self.rewrite_expr(stmt.cond)
            if stmt.step is not None:
                stmt.step = self.rewrite_expr(stmt.step)
            self.rewrite_stmt(stmt.body)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            stmt.value = self.rewrite_expr(stmt.value)


def inline_small_functions(program: ast.Program) -> ast.Program:
    """Return a copy of *program* with expression functions inlined.

    Only the functions are copied; the copy shares *program*'s global
    declarations, which inlining never rewrites.
    """
    clone = _copy_functions(program)
    candidates = _find_candidates(clone)
    if not candidates:
        return clone
    inliner = _Inliner(candidates)
    for func in clone.functions:
        if func.name in candidates:
            continue  # don't rewrite the candidates themselves
        for stmt in func.body.stmts:
            inliner.rewrite_stmt(stmt)
    return clone
