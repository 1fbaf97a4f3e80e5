"""Small symbolic algebra over VASS expression trees.

The DAE compiler needs to turn implicit simultaneous statements
(``lhs == rhs``) into explicit signal-flow ("solvers", paper Section 4).
This module provides the required symbolic manipulation directly on the
VASS AST:

* constant folding and algebraic simplification;
* linear coefficient extraction — rewrite an expression as
  ``a * x + b`` with ``a`` and ``b`` free of ``x``;
* single-occurrence isolation by inverse-operation path walking (covers
  nonlinear forms such as ``log(x) + c == y``);
* :func:`solve_for` combining both strategies.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.diagnostics import CompileError
from repro.vass import ast_nodes as ast


# ---------------------------------------------------------------------------
# Constructors (location-free, used for synthesized expressions)
# ---------------------------------------------------------------------------


def num(value: float) -> ast.Expression:
    if float(value) == int(value) and abs(value) < 1e15:
        return ast.RealLiteral(value=float(value))
    return ast.RealLiteral(value=float(value))


def name(identifier: str) -> ast.Name:
    return ast.Name(identifier=identifier)


def add(left: ast.Expression, right: ast.Expression) -> ast.Expression:
    return simplify(ast.BinaryOp(operator="+", left=left, right=right))


def sub(left: ast.Expression, right: ast.Expression) -> ast.Expression:
    return simplify(ast.BinaryOp(operator="-", left=left, right=right))


def mul(left: ast.Expression, right: ast.Expression) -> ast.Expression:
    return simplify(ast.BinaryOp(operator="*", left=left, right=right))


def div(left: ast.Expression, right: ast.Expression) -> ast.Expression:
    return simplify(ast.BinaryOp(operator="/", left=left, right=right))


def neg(operand: ast.Expression) -> ast.Expression:
    return simplify(ast.UnaryOp(operator="-", operand=operand))


def call(fn: str, *args: ast.Expression) -> ast.Expression:
    return ast.FunctionCall(name=fn, arguments=list(args))


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def literal_value(expr: ast.Expression) -> Optional[float]:
    """The numeric value of a literal expression, or None."""
    if isinstance(expr, ast.RealLiteral):
        return expr.value
    if isinstance(expr, ast.IntegerLiteral):
        return float(expr.value)
    if isinstance(expr, ast.UnaryOp) and expr.operator == "-":
        inner = literal_value(expr.operand)
        return None if inner is None else -inner
    return None


def is_zero(expr: ast.Expression) -> bool:
    return literal_value(expr) == 0.0


def count_occurrences(expr: ast.Expression, target: str) -> int:
    """How many times ``target`` is referenced inside ``expr``."""
    return sum(
        1
        for node in ast.walk_expression(expr)
        if isinstance(node, ast.Name) and node.identifier == target
    )


def equal(left: ast.Expression, right: ast.Expression) -> bool:
    """Structural equality of two expressions."""
    return canonical(left) == canonical(right)


def canonical(expr: ast.Expression) -> str:
    """Canonical string for hashing/equality of expressions."""
    if isinstance(expr, ast.Name):
        return expr.identifier
    if isinstance(expr, ast.RealLiteral):
        return repr(expr.value)
    if isinstance(expr, ast.IntegerLiteral):
        return repr(float(expr.value))
    if isinstance(expr, ast.CharacterLiteral):
        return f"'{expr.value}'"
    if isinstance(expr, ast.BooleanLiteral):
        return "true" if expr.value else "false"
    if isinstance(expr, ast.UnaryOp):
        return f"({expr.operator} {canonical(expr.operand)})"
    if isinstance(expr, ast.BinaryOp):
        left, right = canonical(expr.left), canonical(expr.right)
        if expr.operator in ("+", "*") and right < left:
            left, right = right, left  # commutative normal form
        return f"({left} {expr.operator} {right})"
    if isinstance(expr, ast.FunctionCall):
        args = ",".join(canonical(a) for a in expr.arguments)
        return f"{expr.name}({args})"
    if isinstance(expr, ast.AttributeExpr):
        args = ",".join(canonical(a) for a in expr.arguments)
        return f"{canonical(expr.prefix)}'{expr.attribute}({args})"
    if isinstance(expr, ast.IndexedName):
        return f"{canonical(expr.prefix)}[{canonical(expr.index)}]"
    return repr(expr)


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------


def simplify(expr: ast.Expression) -> ast.Expression:
    """Constant-fold and apply identity simplifications (one pass, recursive)."""
    if isinstance(expr, ast.UnaryOp):
        operand = simplify(expr.operand)
        value = literal_value(operand)
        if expr.operator == "-":
            if value is not None:
                return num(-value)
            if isinstance(operand, ast.UnaryOp) and operand.operator == "-":
                return operand.operand  # --x -> x
            if isinstance(operand, ast.BinaryOp) and operand.operator in (
                "*",
                "/",
            ):
                # Fold the sign into a literal factor: -(k*x) -> (-k)*x.
                lv2 = literal_value(operand.left)
                rv2 = literal_value(operand.right)
                if lv2 is not None:
                    return simplify(
                        ast.BinaryOp(
                            operator=operand.operator,
                            left=num(-lv2),
                            right=operand.right,
                        )
                    )
                if rv2 is not None:
                    return simplify(
                        ast.BinaryOp(
                            operator=operand.operator,
                            left=operand.left,
                            right=num(-rv2),
                        )
                    )
            return ast.UnaryOp(operator="-", operand=operand)
        if expr.operator == "+":
            return operand
        if expr.operator == "abs" and value is not None:
            return num(abs(value))
        return ast.UnaryOp(operator=expr.operator, operand=operand)

    if isinstance(expr, ast.BinaryOp):
        left = simplify(expr.left)
        right = simplify(expr.right)
        lv, rv = literal_value(left), literal_value(right)
        op = expr.operator
        if lv is not None and rv is not None:
            if op == "+":
                return num(lv + rv)
            if op == "-":
                return num(lv - rv)
            if op == "*":
                return num(lv * rv)
            if op == "/" and rv != 0:
                return num(lv / rv)
            if op == "**":
                return num(lv ** rv)
        if op == "+":
            if lv == 0.0:
                return right
            if rv == 0.0:
                return left
        elif op == "-":
            if rv == 0.0:
                return left
            if lv == 0.0:
                return simplify(ast.UnaryOp(operator="-", operand=right))
            if equal(left, right):
                return num(0.0)
        elif op == "*":
            if lv == 0.0 or rv == 0.0:
                return num(0.0)
            if lv == 1.0:
                return right
            if rv == 1.0:
                return left
            if lv == -1.0:
                return simplify(ast.UnaryOp(operator="-", operand=right))
            if rv == -1.0:
                return simplify(ast.UnaryOp(operator="-", operand=left))
        elif op == "/":
            if lv == 0.0:
                return num(0.0)
            if rv == 1.0:
                return left
            if rv == -1.0:
                return simplify(ast.UnaryOp(operator="-", operand=left))
            if equal(left, right) and rv is None and lv is None:
                return num(1.0)
        elif op == "**":
            if rv == 1.0:
                return left
            if rv == 0.0:
                return num(1.0)
        return ast.BinaryOp(operator=op, left=left, right=right)

    if isinstance(expr, ast.FunctionCall):
        args = [simplify(a) for a in expr.arguments]
        # log(exp(x)) -> x, exp(log(x)) -> x
        if expr.name in ("log", "ln") and len(args) == 1:
            inner = args[0]
            if isinstance(inner, ast.FunctionCall) and inner.name == "exp":
                return inner.arguments[0]
        if expr.name == "exp" and len(args) == 1:
            inner = args[0]
            if isinstance(inner, ast.FunctionCall) and inner.name in ("log", "ln"):
                return inner.arguments[0]
        return ast.FunctionCall(name=expr.name, arguments=args)

    if isinstance(expr, ast.AttributeExpr):
        return ast.AttributeExpr(
            prefix=simplify(expr.prefix),
            attribute=expr.attribute,
            arguments=[simplify(a) for a in expr.arguments],
        )
    return expr


def substitute(
    expr: ast.Expression, target: str, replacement: ast.Expression
) -> ast.Expression:
    """Replace every reference to ``target`` with ``replacement``."""
    if isinstance(expr, ast.Name):
        return replacement if expr.identifier == target else expr
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(
            operator=expr.operator,
            operand=substitute(expr.operand, target, replacement),
        )
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(
            operator=expr.operator,
            left=substitute(expr.left, target, replacement),
            right=substitute(expr.right, target, replacement),
        )
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(
            name=expr.name,
            arguments=[substitute(a, target, replacement) for a in expr.arguments],
        )
    if isinstance(expr, ast.AttributeExpr):
        return ast.AttributeExpr(
            prefix=substitute(expr.prefix, target, replacement),
            attribute=expr.attribute,
            arguments=[substitute(a, target, replacement) for a in expr.arguments],
        )
    if isinstance(expr, ast.IndexedName):
        return ast.IndexedName(
            prefix=substitute(expr.prefix, target, replacement),
            index=substitute(expr.index, target, replacement),
        )
    return expr


# ---------------------------------------------------------------------------
# Linear extraction
# ---------------------------------------------------------------------------


class NonlinearError(CompileError):
    """Raised when an expression is not linear in the requested name."""


def collect_linear(
    expr: ast.Expression, target: str
) -> Tuple[ast.Expression, ast.Expression]:
    """Rewrite ``expr`` as ``a * target + b``; returns ``(a, b)``.

    ``a`` and ``b`` are free of ``target``.  Raises
    :class:`NonlinearError` when the expression is not linear in
    ``target`` (e.g. ``target`` under a nonlinear function, a product of
    ``target`` with itself, or ``target`` in a denominator).
    """
    if count_occurrences(expr, target) == 0:
        return num(0.0), expr
    if isinstance(expr, ast.Name) and expr.identifier == target:
        return num(1.0), num(0.0)
    if isinstance(expr, ast.UnaryOp):
        if expr.operator == "-":
            a, b = collect_linear(expr.operand, target)
            return neg(a), neg(b)
        if expr.operator == "+":
            return collect_linear(expr.operand, target)
        raise NonlinearError(
            f"{target!r} appears under nonlinear operator {expr.operator!r}"
        )
    if isinstance(expr, ast.BinaryOp):
        op = expr.operator
        if op == "+":
            la, lb = collect_linear(expr.left, target)
            ra, rb = collect_linear(expr.right, target)
            return add(la, ra), add(lb, rb)
        if op == "-":
            la, lb = collect_linear(expr.left, target)
            ra, rb = collect_linear(expr.right, target)
            return sub(la, ra), sub(lb, rb)
        if op == "*":
            left_has = count_occurrences(expr.left, target) > 0
            right_has = count_occurrences(expr.right, target) > 0
            if left_has and right_has:
                raise NonlinearError(
                    f"product of two factors both containing {target!r}"
                )
            if left_has:
                a, b = collect_linear(expr.left, target)
                return mul(a, expr.right), mul(b, expr.right)
            a, b = collect_linear(expr.right, target)
            return mul(expr.left, a), mul(expr.left, b)
        if op == "/":
            if count_occurrences(expr.right, target) > 0:
                raise NonlinearError(f"{target!r} appears in a denominator")
            a, b = collect_linear(expr.left, target)
            return div(a, expr.right), div(b, expr.right)
        raise NonlinearError(
            f"{target!r} appears under non-affine operator {op!r}"
        )
    raise NonlinearError(
        f"{target!r} appears inside a non-affine construct "
        f"{type(expr).__name__}"
    )


# ---------------------------------------------------------------------------
# Single-occurrence isolation (inverse-path walking)
# ---------------------------------------------------------------------------


def _invert_step(
    container: ast.Expression, target: str, rhs: ast.Expression
) -> Tuple[ast.Expression, ast.Expression]:
    """One inversion step: peel the outermost operation off ``container``.

    Given ``container(x...) == rhs`` with ``target`` on exactly one side
    of the container's children, return ``(child, new_rhs)`` such that
    ``child == new_rhs`` is equivalent.
    """
    if isinstance(container, ast.UnaryOp):
        if container.operator == "-":
            return container.operand, neg(rhs)
        if container.operator == "+":
            return container.operand, rhs
        raise CompileError(
            f"cannot invert unary operator {container.operator!r}"
        )
    if isinstance(container, ast.BinaryOp):
        op = container.operator
        in_left = count_occurrences(container.left, target) > 0
        if op == "+":
            if in_left:
                return container.left, sub(rhs, container.right)
            return container.right, sub(rhs, container.left)
        if op == "-":
            if in_left:
                return container.left, add(rhs, container.right)
            return container.right, sub(container.left, rhs)
        if op == "*":
            if in_left:
                return container.left, div(rhs, container.right)
            return container.right, div(rhs, container.left)
        if op == "/":
            if in_left:
                return container.left, mul(rhs, container.right)
            return container.right, div(container.left, rhs)
        if op == "**":
            if in_left:
                exponent = literal_value(container.right)
                if exponent is None or exponent == 0:
                    raise CompileError("cannot invert ** with symbolic exponent")
                return container.left, call(
                    "exp", div(call("log", rhs), container.right)
                )
            raise CompileError("cannot isolate a name in an exponent")
        raise CompileError(f"cannot invert operator {op!r}")
    if isinstance(container, ast.FunctionCall):
        if len(container.arguments) != 1:
            raise CompileError(
                f"cannot invert call of {container.name!r} with "
                f"{len(container.arguments)} arguments"
            )
        inner = container.arguments[0]
        inverses = {
            "log": "exp",
            "ln": "exp",
            "exp": "log",
        }
        if container.name in inverses:
            return inner, call(inverses[container.name], rhs)
        if container.name == "sqrt":
            return inner, mul(rhs, rhs)
        raise CompileError(f"cannot invert function {container.name!r}")
    raise CompileError(
        f"cannot invert construct {type(container).__name__}"
    )


def isolate(
    lhs: ast.Expression, rhs: ast.Expression, target: str
) -> ast.Expression:
    """Solve ``lhs == rhs`` for a ``target`` that occurs exactly once.

    Walks inverse operations down the path to the single occurrence of
    ``target``.  Raises :class:`CompileError` when the target occurs
    zero or multiple times, or when an operation on the path has no
    inverse.
    """
    on_left = count_occurrences(lhs, target)
    on_right = count_occurrences(rhs, target)
    if on_left + on_right != 1:
        raise CompileError(
            f"{target!r} must occur exactly once for isolation "
            f"(found {on_left + on_right})"
        )
    if on_right:
        lhs, rhs = rhs, lhs
    current, value = lhs, rhs
    for _ in range(200):
        if isinstance(current, ast.Name) and current.identifier == target:
            return simplify(value)
        current, value = _invert_step(current, target, value)
    raise CompileError(f"isolation of {target!r} did not converge")


# ---------------------------------------------------------------------------
# Equation solving
# ---------------------------------------------------------------------------


def solve_for(
    lhs: ast.Expression, rhs: ast.Expression, target: str
) -> ast.Expression:
    """Solve the equation ``lhs == rhs`` for ``target``.

    Tries linear coefficient extraction first (handles repeated affine
    occurrences), then single-occurrence inverse-path isolation (handles
    solitary nonlinear occurrences).  The returned expression is
    simplified and free of ``target``.
    """
    occurrences = count_occurrences(lhs, target) + count_occurrences(rhs, target)
    if occurrences == 0:
        raise CompileError(f"equation does not involve {target!r}")
    residual = simplify(ast.BinaryOp(operator="-", left=lhs, right=rhs))
    try:
        a, b = collect_linear(residual, target)
        a = simplify(a)
        if is_zero(a):
            raise NonlinearError(f"coefficient of {target!r} vanished")
        # a * x + b = 0  =>  x = -b / a
        solution = simplify(div(neg(b), a))
        return solution
    except NonlinearError:
        pass
    if occurrences == 1:
        return isolate(lhs, rhs, target)
    raise CompileError(
        f"cannot solve equation for {target!r}: nonlinear with "
        f"{occurrences} occurrences"
    )
