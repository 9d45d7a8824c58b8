"""Minimal symbolic kernel: expression trees over chart coordinates.

Supports parsing, exact differentiation, conservative simplification,
IEEE-double evaluation, and a seeded sampling oracle for expression
equality.  Equality of expressions is decided numerically on random
sample points, not by canonical forms.

Nodes are frozen, slotted dataclasses that compute their hash once.
Trees share subtrees by reference; simplify simplifies each node once
and prints each sort key once in the node's lifetime, through memos
kept in the node's slots.  The parser reads a chain of + and - or of * as one
flat Sum or Product, and rejects nesting deeper than MAX_NESTING.
Compiled code computes each distinct value once, however many node
objects hold it.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from functools import cache, cached_property
from types import CodeType, FunctionType
from typing import Iterable, Mapping, Sequence

SAMPLE_BOX = 2.0          # sample points drawn uniformly from [-2, 2] per coordinate
SAMPLE_REL_TOL = 1e-9
MAX_RESAMPLES = 10


class ExpressionError(Exception):
    """Base class for symbolic-kernel errors."""


class ParseError(ExpressionError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class EvaluationError(ExpressionError):
    """Missing assignment or numeric domain error; Compiled sets index and row."""

    index: int | None = None
    row: int | None = None


class SamplingError(ExpressionError):
    """Raised when an expression is undefined at every resampled point."""


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------

class Expression:
    """Base of the node classes: frozen, slotted dataclasses.

    Each node computes its hash once, into the _hash slot, the first time
    it is hashed.  The value is the dataclass's own, the hash of the tuple
    of the node's fields, so sets of nodes keep their order.
    """

    __slots__ = ("_hash", "_simplified", "_text")

    def __add__(self, other):
        return Sum((self, as_expression(other)))

    def __radd__(self, other):
        return Sum((as_expression(other), self))

    def __sub__(self, other):
        return Sum((self, -as_expression(other)))

    def __rsub__(self, other):
        return Sum((as_expression(other), -self))

    def __mul__(self, other):
        return Product((self, as_expression(other)))

    def __rmul__(self, other):
        return Product((as_expression(other), self))

    def __truediv__(self, other):
        return Quotient(self, as_expression(other))

    def __rtruediv__(self, other):
        return Quotient(as_expression(other), self)

    def __pow__(self, exponent):
        return Power(self, float(exponent))

    def __neg__(self):
        return Product((_MINUS_ONE, self))

    def __str__(self):
        return to_source(self)


def _hash_once(cls):
    """Keep the dataclass hash of cls, computed once per node into _hash."""
    fields_hash = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            value = fields_hash(self)
            object.__setattr__(self, "_hash", value)
            return value

    cls.__hash__ = __hash__
    return cls


@_hash_once
@dataclass(frozen=True, slots=True)
class Const(Expression):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@_hash_once
@dataclass(frozen=True, slots=True)
class Var(Expression):
    kind: str     # "x" or "y"
    index: int    # 1-based

    def __post_init__(self):
        if self.kind not in ("x", "y"):
            raise ValueError(f"variable kind must be 'x' or 'y', got {self.kind!r}")
        if self.index < 1:
            raise ValueError("variable index is 1-based")

    @property
    def name(self) -> str:
        return f"{self.kind}{self.index}"


@_hash_once
@dataclass(frozen=True, slots=True)
class Sum(Expression):
    terms: tuple


@_hash_once
@dataclass(frozen=True, slots=True)
class Product(Expression):
    factors: tuple


@_hash_once
@dataclass(frozen=True, slots=True)
class Quotient(Expression):
    numerator: Expression
    denominator: Expression


@_hash_once
@dataclass(frozen=True, slots=True)
class Power(Expression):
    base: Expression
    exponent: float

    def __post_init__(self):
        object.__setattr__(self, "exponent", float(self.exponent))


@_hash_once
@dataclass(frozen=True, slots=True)
class Call(Expression):
    func: str
    arg: Expression


ZERO = Const(0.0)
ONE = Const(1.0)
_MINUS_ONE = Const(-1.0)


def as_expression(value) -> Expression:
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot coerce {value!r} to an expression")


def is_zero(e: Expression) -> bool:
    return isinstance(e, Const) and e.value == 0.0


def _children(e: Expression) -> tuple:
    if isinstance(e, (Const, Var)):
        return ()
    if isinstance(e, (Sum, Product)):
        return e.terms if isinstance(e, Sum) else e.factors
    if isinstance(e, Quotient):
        return (e.numerator, e.denominator)
    if isinstance(e, (Power, Call)):
        return (e.base,) if isinstance(e, Power) else (e.arg,)
    raise TypeError(f"unknown node {type(e).__name__}")


def free_variables(e: Expression) -> frozenset[Var]:
    """The coordinates e reads; a node shared in the DAG is visited once, on an explicit stack."""
    found, seen, stack = set(), set(), [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Var):
            found.add(node)
        else:
            stack.extend(_children(node))
    return frozenset(found)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def _sum_of(terms: list) -> Expression:
    """The sum of terms: ZERO for none, the lone term for one."""
    if not terms:
        return ZERO
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


def differentiate(e: Expression, v: Var) -> Expression:
    """Exact symbolic partial derivative of e with respect to coordinate v."""
    return simplify(_diff(e, v))


def _diff(e: Expression, v: Var) -> Expression:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e == v else ZERO
    if isinstance(e, Sum):
        return _sum_of([d for d in (_diff(t, v) for t in e.terms) if not is_zero(d)])
    if isinstance(e, Product):
        derivatives = [_diff(f, v) for f in e.factors]
        return _sum_of([Product(e.factors[:i] + (d,) + e.factors[i + 1:])
                        for i, d in enumerate(derivatives) if not is_zero(d)])
    if isinstance(e, Quotient):
        n, d = e.numerator, e.denominator
        return Quotient(Sum((Product((_diff(n, v), d)), -Product((n, _diff(d, v))))),
                        Power(d, 2.0))
    if isinstance(e, Power):
        return Product((Const(e.exponent), Power(e.base, e.exponent - 1.0), _diff(e.base, v)))
    if isinstance(e, Call):
        inner = _diff(e.arg, v)
        if e.func == "sin":
            outer: Expression = Call("cos", e.arg)
        elif e.func == "cos":
            outer = -Call("sin", e.arg)
        elif e.func == "exp":
            outer = Call("exp", e.arg)
        elif e.func == "ln":
            outer = Quotient(ONE, e.arg)
        elif e.func == "sinh":
            outer = Call("cosh", e.arg)
        elif e.func == "cosh":
            outer = Call("sinh", e.arg)
        else:
            raise TypeError(f"unknown function {e.func!r}")
        return Product((outer, inner))
    raise TypeError(f"unknown node {type(e).__name__}")


# ---------------------------------------------------------------------------
# simplification
# ---------------------------------------------------------------------------

def simplify(e: Expression) -> Expression:
    """Constant folding, 0/1 identities, and like-term collection.

    The result is numerically equal to the input wherever the input is
    defined (dropping an annihilated factor may enlarge the domain, e.g.
    0 * ln(x1) simplifies to 0), and simplifying it again changes nothing.

    The memo is kept on the nodes, in slots, and dies with them: no table
    holds a node.  _simplified holds a node's result, or True in a node
    that simplify returned, which comes back as it is; _text holds the
    source that sorts a node among terms or factors.  So each node is
    simplified and printed once, however often it is shared or passed
    again.  No slot holds its own node, and pickle and deepcopy copy none.
    The writes are idempotent: threads simplifying one node write equal
    values.
    """
    # the dispatch inline: a dispatch function would count once more per
    # tree level against the recursion limit
    if isinstance(e, (Const, Var)):
        return e
    hit = getattr(e, "_simplified", None)
    if hit is not None:
        return e if hit is True else hit
    if isinstance(e, Sum):
        out = _simplify_sum(e)
    elif isinstance(e, Product):
        out = _simplify_product(e)
    elif isinstance(e, Quotient):
        out = _simplify_quotient(e)
    elif isinstance(e, Power):
        out = _simplify_power(e)
    elif isinstance(e, Call):
        arg = simplify(e.arg)
        out = _fold(Call(e.func, arg)) if isinstance(arg, Const) else Call(e.func, arg)
    else:
        raise TypeError(f"unknown node {type(e).__name__}")
    object.__setattr__(e, "_simplified", out)
    object.__setattr__(out, "_simplified", True)
    return out


def _sort_key(e: Expression):
    if isinstance(e, Var):
        return (0, e.kind, e.index, "")
    if isinstance(e, Power) and isinstance(e.base, Var):
        return (0, e.base.kind, e.base.index, _source(e))
    return (1, "", 0, _source(e))


def _source(e: Expression) -> str:
    text = getattr(e, "_text", None)
    if text is None:
        text = _print_node(e, _source)
        object.__setattr__(e, "_text", text)
    return text


def _simplify_sum(e: Sum) -> Expression:
    constant = 0.0
    collected: dict[Expression, float] = {}
    order: list[Expression] = []

    def absorb(term: Expression):
        nonlocal constant
        if isinstance(term, Sum):
            for t in term.terms:
                absorb(t)
            return
        coeff, residual = _split_coefficient(term)
        if residual is None:
            constant += coeff
            return
        if residual not in collected:
            collected[residual] = 0.0
            order.append(residual)
        collected[residual] += coeff

    for t in e.terms:
        absorb(simplify(t))

    terms = [_scale(c, r) for r in sorted(order, key=_sort_key)
             if (c := collected[r]) != 0.0]
    if constant != 0.0:
        terms.append(Const(constant))
    return _sum_of(terms)


def _simplify_product(e: Product) -> Expression:
    coeff = 1.0
    exponents: dict[Expression, float] = {}
    order: list[Expression] = []

    def absorb(factor: Expression):
        nonlocal coeff
        if isinstance(factor, Product):
            for f in factor.factors:
                absorb(f)
            return
        if isinstance(factor, Const):
            coeff *= factor.value
            return
        base, power = (factor.base, factor.exponent) if isinstance(factor, Power) else (factor, 1.0)
        if base not in exponents:
            exponents[base] = 0.0
            order.append(base)
        exponents[base] += power

    for f in e.factors:
        absorb(simplify(f))

    factors = []
    regroup = False
    for base in sorted(order, key=_sort_key):
        p = exponents[base]
        if p == 0.0:
            continue
        factor = base if p == 1.0 else _simplify_power(Power(base, p))
        if isinstance(factor, Const):   # a constant base's power that folds
            coeff *= factor.value
            continue
        factors.append(factor)
        # a factor b^k, or (b^k)^p merged into b^(k*p), joins b's other powers
        if isinstance(base, Power) and not (isinstance(factor, Power) and factor.base == base):
            regroup = True
    if regroup:
        return _simplify_product(Product((Const(coeff), *factors)))
    if coeff == 0.0:
        return ZERO
    if not factors:
        return Const(coeff)
    if coeff != 1.0:
        factors.insert(0, Const(coeff))
    if len(factors) == 1:
        return factors[0]
    return Product(tuple(factors))


def _simplify_quotient(e: Quotient) -> Expression:
    numerator = simplify(e.numerator)
    denominator = simplify(e.denominator)
    if isinstance(denominator, Const):
        if denominator.value == 0.0:
            return Quotient(numerator, denominator)  # left for evaluation to report
        return simplify(_scale_const_div(numerator, denominator.value))
    if is_zero(numerator):
        return ZERO
    if numerator == denominator:
        return ONE
    return Quotient(numerator, denominator)


def _simplify_power(e: Power) -> Expression:
    base = simplify(e.base)
    p = e.exponent
    if p == 0.0:
        return ONE
    if p == 1.0:
        return base
    if isinstance(base, Const):
        return _fold(Power(base, p))
    if isinstance(base, Power) and float(base.exponent).is_integer() and float(p).is_integer():
        return _simplify_power(Power(base.base, base.exponent * p))
    return Power(base, p)


def _fold(e: Expression) -> Expression:
    """A constant expression's value, or e itself where it is undefined."""
    try:
        return Const(evaluate(e, {}))
    except EvaluationError:
        return e


def _split_coefficient(e: Expression):
    """Split a simplified term into (numeric coefficient, residual factor)."""
    if isinstance(e, Const):
        return e.value, None
    if isinstance(e, Product) and e.factors and isinstance(e.factors[0], Const):
        rest = e.factors[1:]
        residual = rest[0] if len(rest) == 1 else Product(rest)
        return e.factors[0].value, residual
    return 1.0, e


def _scale(c: float, e: Expression | None) -> Expression:
    if e is None:
        return Const(c)
    if c == 0.0:
        return ZERO
    if c == 1.0:
        return e
    if isinstance(e, Product):
        return Product((Const(c),) + e.factors)
    return Product((Const(c), e))


def _scale_const_div(numerator: Expression, d: float) -> Expression:
    if isinstance(numerator, Const):
        return Const(numerator.value / d)
    return _scale(1.0 / d, numerator)


# ---------------------------------------------------------------------------
# evaluation: one code generator, run on a math or a numpy namespace
# ---------------------------------------------------------------------------

def _ln(v: float) -> float:
    if v <= 0.0:
        raise EvaluationError(f"ln of non-positive value {v}")
    return math.log(v)


def _fpow(b: float, p: float) -> float:
    """b^p for a non-integer p: defined for b > 0, and for b = 0 when p > 0."""
    if b < 0.0 or (b == 0.0 and p < 0.0):
        raise EvaluationError(f"non-integer exponent {p} is undefined at base {b}")
    return math.pow(b, p)


# What generated code's names mean on floats and, in _vector(), on numpy
# columns; where math raises, numpy gives inf or nan, which
# Compiled.columns then reports.
_SCALAR = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": _ln,
           "sinh": math.sinh, "cosh": math.cosh, "fpow": _fpow,
           "inf": math.inf, "nan": math.nan}


@cache
def _vector() -> dict:
    """_SCALAR's namespace on numpy columns, built on the first Compiled.columns call."""
    import numpy as np
    return {**_SCALAR, "sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log,
            "sinh": np.sinh, "cosh": np.cosh, "fpow": np.power}


_FUNCTIONS = ("sin", "cos", "exp", "ln", "sinh", "cosh")

# Operands per line of a long sum or product, and the nesting depth that
# starts a temporary: the Python compiler rejects deeply nested source.
_CHAIN = 32
_DEPTH = 32


def _detail(node: Expression):
    """What besides its type and children sets a node's value: exact bits for floats."""
    if isinstance(node, Const):
        return node.value.hex()
    if isinstance(node, Power):
        return node.exponent.hex()
    if isinstance(node, Var):
        return node.name
    return node.func if isinstance(node, Call) else None


class _Source:
    """Source of a function of the coordinates in names that returns exprs' values.

    Temporaries are keyed on value, not identity: each node gets a value
    number, interned from its type, its constant's bits, variable name,
    exponent or function name, and its children's value numbers, so
    equal subtrees built as distinct objects share one.  A constant is
    keyed on float.hex, which keeps -0.0 apart from 0.0.  A value used
    more than once, within one expression or across them, gets a
    temporary and is computed once; the rest is inline up to _DEPTH,
    which compiles in half the memory of one line per node.  Equal text
    computes equal floats, so sharing changes no bit.  Methods, not
    closures calling each other, whose cycle would hold the source until
    the garbage collector runs.
    """

    def __init__(self, exprs: Sequence[Expression], names: Sequence[str]):
        self.names = names
        self.lines: list[str] = []
        self.numbers: dict[int, int] = {}   # id(node) -> value number
        self.values: dict[tuple, int] = {}  # value key -> value number
        self.temps: dict[int, str] = {}
        self.uses: dict[int, int] = {}
        for e in exprs:
            self.count(e)
        self.results = [self.operand(e)[0] for e in exprs]

    def count(self, node: Expression) -> int:
        """node's value number, counting one more use of it.

        A value's children are counted on its first use only: when a new
        object turns out to hold a known value, its children's counts
        are taken back.
        """
        number = self.numbers.get(id(node))
        if number is None:
            below = []   # a loop, not a comprehension: one frame per tree level
            for child in _children(node):
                below.append(self.count(child))
            number = self.values.setdefault((type(node), _detail(node), *below), len(self.values))
            self.numbers[id(node)] = number
            if number in self.uses:
                for child in below:
                    self.uses[child] -= 1
        self.uses[number] = self.uses.get(number, 0) + 1
        return number

    def operand(self, node: Expression) -> tuple[str, int]:
        """Source text of node, and how deeply it nests."""
        if isinstance(node, Const):
            return f"({node.value!r})", 0
        if isinstance(node, Var):
            if node.name not in self.names:
                raise EvaluationError(f"missing assignment for {node.name}")
            return node.name, 0
        number = self.numbers[id(node)]
        if number in self.temps:
            return self.temps[number], 0
        parts = [self.operand(child) for child in _children(node)]
        if isinstance(node, (Sum, Product)) and len(parts) < 2:
            return parts[0] if parts else ("0.0" if isinstance(node, Sum) else "1.0", 0)
        texts = [text for text, _ in parts]
        depth = len(parts) + max(d for _, d in parts)
        op = " + " if isinstance(node, Sum) else " * "
        if isinstance(node, (Sum, Product)):
            text = op.join(texts[:_CHAIN])
        elif isinstance(node, Quotient):
            text = f"{texts[0]} / {texts[1]}"
        elif isinstance(node, Power):
            p = node.exponent
            text = f"{texts[0]} ** {int(p)}" if p.is_integer() else f"fpow({texts[0]}, {p!r})"
        elif node.func in _FUNCTIONS:
            text = f"{node.func}({texts[0]})"
        else:
            raise TypeError(f"unknown function {node.func!r}")
        if self.uses[number] == 1 and depth <= _DEPTH and len(texts) <= _CHAIN:
            return f"({text})", depth
        # a name is taken only after the children have theirs
        name = f"t{len(self.temps)}"
        self.lines.append(f"{name} = {text}")
        for i in range(_CHAIN, len(texts), _CHAIN):
            self.lines.append(f"{name} = {op.join([name, *texts[i:i + _CHAIN]])}")
        self.temps[number] = name
        return name, 0


def generated_function(source: str, filename: str, namespace: dict) -> FunctionType:
    """The function that source, one def statement, defines, with namespace as its globals."""
    module = compile(source, filename, "exec")
    return FunctionType(next(c for c in module.co_consts if isinstance(c, CodeType)), namespace)


def _code(exprs: Sequence[Expression], names: Sequence[str]) -> CodeType:
    """Code of a function of the coordinates in names that returns exprs' values as a list."""
    source = _Source(exprs, names)
    body = "".join(f"    {line}\n" for line in source.lines)
    return generated_function(
        f"def f({', '.join(names)}):\n{body}    return [{', '.join(source.results)}]\n",
        "<expression>", _SCALAR).__code__


def _reason(exc: Exception) -> str:
    if isinstance(exc, ZeroDivisionError):
        return "division by zero"
    return f"overflow: {exc}" if isinstance(exc, OverflowError) else str(exc)


def _lookup(values: Mapping, names: Sequence[str]) -> list:
    try:
        return [values[name] for name in names]
    except KeyError as exc:
        raise EvaluationError(f"missing assignment for {exc.args[0]}") from None


class Compiled:
    """Expressions compiled once, then evaluated at many points.

    The whole set compiles to one code object, whatever its size, which
    computes each distinct subexpression once: its temporaries are keyed
    on value (_Source), so equal subtrees built as distinct objects share
    one, and a -0.0 keeps its own text; unchecked(*values) runs it on
    floats with math and returns the list of values, with no checks.  A
    call, or at, runs it under the policy in docs/expression-grammar.md:
    an EvaluationError carries the failing expression's index and label.
    Each expression's own code object is compiled on first use, by
    columns (numpy columns, naming also the first failing row) and to
    name the expression when a call fails.  Only columns imports numpy;
    a call takes an ndarray through its tolist, not by naming numpy.
    exprs keeps the expressions, in order.  names orders a call's
    arguments; by default they are the variables read.
    """

    def __init__(self, exprs: Iterable[Expression], names: Sequence[str] | None = None,
                 labels: Sequence[str] | None = None):
        self.exprs = exprs = tuple(exprs)
        if names is None:
            names = sorted({v.name for e in exprs for v in free_variables(e)})
        self.names = tuple(names)
        self.labels = labels
        self.unchecked = FunctionType(_code(exprs, self.names), _SCALAR)

    @cached_property
    def _codes(self) -> list:
        """One code object per expression, in order; a set of one reuses its own."""
        if len(self.exprs) == 1:
            return [self.unchecked.__code__]
        codes = {}
        for e in self.exprs:   # one object listed twice compiles once
            if id(e) not in codes:
                codes[id(e)] = _code((e,), self.names)
        return [codes[id(e)] for e in self.exprs]

    def _error(self, index: int, reason: str, row: int | None = None) -> EvaluationError:
        label = "" if self.labels is None else f"{self.labels[index]}: "
        error = EvaluationError(label + reason)
        error.index, error.row = index, row
        return error

    def __call__(self, values: Sequence[float], count: int | None = None) -> list:
        """Values at the coordinates given in the order of names.

        With count, only the first count expressions are checked and
        returned, so a failure in a later one does not raise.
        """
        if hasattr(values, "tolist"):   # an ndarray, whose floats raise where numpy gives inf or nan
            values = values.tolist()
        try:
            out = self.unchecked(*values)[:count]
        except (ArithmeticError, ValueError, EvaluationError):
            out = self._each(values, count)
        if not all(map(math.isfinite, out)):
            index = next(i for i, v in enumerate(out) if not math.isfinite(v))
            raise self._error(index, f"non-finite value {out[index]}")
        return out

    def _each(self, values: Sequence[float], count: int | None = None) -> list:
        """The values one expression at a time, so a failure names the first that fails."""
        out = []
        try:
            for code in self._codes[:count]:
                out.append(FunctionType(code, _SCALAR)(*values)[0])
        except (ArithmeticError, ValueError, EvaluationError) as exc:
            raise self._error(len(out), _reason(exc)) from exc
        return out

    def at(self, point: Mapping[str, float], count: int | None = None) -> list:
        """Values at a coordinate assignment given as {name: value}; count as for a call."""
        return self([float(v) for v in _lookup(point, self.names)], count)

    def columns(self, columns: Mapping[str, np.ndarray]) -> list:
        """Values over parallel coordinate arrays, one array per expression."""
        import numpy as np
        args = _lookup(columns, self.names)
        out = []
        with np.errstate(all="ignore"):
            for index, code in enumerate(self._codes):
                try:
                    value = np.asarray(FunctionType(code, _vector())(*args)[0], dtype=float)
                except (ArithmeticError, ValueError) as exc:   # fails on every row
                    raise self._error(index, _reason(exc), 0) from exc
                bad = np.flatnonzero(~np.isfinite(value))
                if bad.size:
                    row = int(bad[0])
                    raise self._error(index, f"non-finite value at row {row}", row)
                out.append(value)
        return out


def evaluate(e: Expression, point: Mapping[str, float]) -> float:
    """Evaluate at {name: value}; compiles e, so repeated use wants a Compiled."""
    return Compiled((e,)).at(point)[0]


# ---------------------------------------------------------------------------
# sampling equality oracle
# ---------------------------------------------------------------------------

def sample_point(rng: random.Random, variables: Iterable[Var]) -> dict[str, float]:
    return {v.name: rng.uniform(-SAMPLE_BOX, SAMPLE_BOX)
            for v in sorted(variables, key=lambda v: (v.kind, v.index))}

def equal_on_samples(a: Expression, b: Expression, trials: int = 100,
                     seed: int = 0) -> bool:
    """Numeric equality oracle: |a-b| < 1e-9 * (1 + |a| + |b|) at seeded samples.

    Points are drawn uniformly from [-2, 2] per coordinate; a point where
    either side hits a domain error is redrawn, at most MAX_RESAMPLES times
    per trial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    variables = free_variables(a) | free_variables(b)
    pair = Compiled((a, b), [v.name for v in variables])
    for _ in range(trials):
        for attempt in range(MAX_RESAMPLES + 1):
            point = sample_point(rng, variables)
            try:
                va, vb = pair.at(point)
            except EvaluationError:
                if attempt == MAX_RESAMPLES:
                    raise SamplingError(
                        f"expressions undefined after {MAX_RESAMPLES} resamples") from None
                continue
            if abs(va - vb) >= SAMPLE_REL_TOL * (1.0 + abs(va) + abs(vb)):
                return False
            break
    return True


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC_SUM = 1
_PREC_MUL = 2
_PREC_NEG = 2.5
_PREC_POW = 3
_PREC_ATOM = 4


def _format_number(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _precedence(e: Expression) -> float:
    if isinstance(e, Const):
        return _PREC_ATOM if e.value >= 0.0 else _PREC_NEG
    if isinstance(e, (Var, Call)):
        return _PREC_ATOM
    if isinstance(e, Power):
        return _PREC_POW
    if isinstance(e, (Product, Quotient)):
        return _PREC_MUL
    return _PREC_SUM


def _print(e: Expression, parent_prec: float, text) -> str:
    s = _print_node(e, None) if text is None else text(e)
    if _precedence(e) < parent_prec:
        return f"({s})"
    return s


def _print_node(e: Expression, text) -> str:
    """Source of e, given text(child), the source of each child.

    With text None each child is printed afresh, one frame fewer per
    tree level than a text that recurses back here.
    """
    if isinstance(e, Const):
        return _format_number(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Sum):
        out = _print(e.terms[0], _PREC_SUM, text)
        for t in e.terms[1:]:
            s = _print(t, _PREC_SUM + 0.5, text)
            if s.startswith("-"):
                out += f" - {s[1:]}"
            else:
                out += f" + {s}"
        return out
    if isinstance(e, Product):
        factors = e.factors
        prefix = ""
        if factors and isinstance(factors[0], Const) and factors[0].value == -1.0 and len(factors) > 1:
            prefix = "-"
            factors = factors[1:]
        if len(factors) == 1:
            return prefix + _print(factors[0], _PREC_MUL, text)
        return prefix + "*".join(_print(f, _PREC_MUL, text) for f in factors)
    if isinstance(e, Quotient):
        return f"{_print(e.numerator, _PREC_MUL, text)}/{_print(e.denominator, _PREC_POW, text)}"
    if isinstance(e, Power):
        exp = _format_number(e.exponent)
        return f"{_print(e.base, _PREC_ATOM, text)}^{exp}"
    if isinstance(e, Call):
        return f"{e.func}({_print(e.arg, _PREC_SUM, text)})"
    raise TypeError(f"unknown node {type(e).__name__}")


def to_source(e: Expression) -> str:
    """Render an expression in the input grammar; parse(to_source(e)) == e in value."""
    return _print_node(e, None)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# Parentheses, function calls, signs, ^ and / nested deeper than this are
# a ParseError: each level costs the recursive parser, and every recursive
# pass over the tree after it, several stack frames.
MAX_NESTING = 150

_TOKEN_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_TOKEN_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_VAR_NAME = re.compile(r"^([xy])([1-9][0-9]*)$")


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(source):
        c = source[i]
        if c.isspace():
            i += 1
            continue
        m = _TOKEN_NUMBER.match(source, i)
        if m:
            tokens.append(("number", m.group(), i))
            i = m.end()
            continue
        m = _TOKEN_IDENT.match(source, i)
        if m:
            tokens.append(("ident", m.group(), i))
            i = m.end()
            continue
        if c in "+-*/^(),":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, chart):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.n = chart.n
        self.depth = 0

    def nest(self, offset: int):
        """Enter one nesting level: a parenthesis, a sign, a ^ or a /."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", offset)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Expression:
        e = self.sum()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def sum(self) -> Expression:
        terms = [self.term()]
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            terms.append(rhs if op == "+" else -rhs)
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self) -> Expression:
        # each / closes the product so far: a*b/c*d is ((a*b)/c)*d
        factors = [self.unary()]
        depth = self.depth
        while self.peek()[0] in ("*", "/"):
            op, _, offset = self.advance()
            if op == "/":
                self.nest(offset)
            rhs = self.unary()
            if op == "*":
                factors.append(rhs)
            else:
                factors = [Quotient(_product(factors), rhs)]
        self.depth = depth
        return _product(factors)

    def unary(self) -> Expression:
        # a loop, not a recursion, though each sign still nests the tree
        depth = self.depth
        signs = []
        while self.peek()[0] in ("-", "+"):
            sign, _, offset = self.advance()
            self.nest(offset)
            signs.append(sign)
        e = self.power()
        self.depth = depth
        for sign in reversed(signs):
            if sign == "-":
                e = -e
        return e

    def power(self) -> Expression:
        base = self.atom()
        if self.peek()[0] == "^":
            caret = self.advance()
            return Power(base, self.exponent(caret[2]))
        return base

    def exponent(self, caret_offset: int) -> float:
        # exponents must fold to a numeric constant; ^ binds tighter than
        # unary minus, but a sign directly after ^ belongs to the exponent
        sign = 1.0
        while self.peek()[0] == "-":
            self.advance()
            sign = -sign
        self.nest(caret_offset)
        folded = simplify(self.power())
        self.depth -= 1
        if not isinstance(folded, Const):
            raise ParseError("exponent must be a numeric constant", caret_offset)
        return sign * folded.value

    def atom(self) -> Expression:
        tok = self.advance()
        kind, text, offset = tok
        if kind == "number":
            return Const(float(text))
        if kind == "(":
            self.nest(offset)
            e = self.sum()
            self.expect(")")
            self.depth -= 1
            return e
        if kind == "ident":
            if self.peek()[0] == "(":
                # a call, parsed here: one stack frame less per nested call
                if text not in _FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", offset)
                self.advance()
                self.nest(offset)
                args = [self.sum()]
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.sum())
                self.expect(")")
                self.depth -= 1
                if len(args) != 1:
                    raise ParseError(f"{text} expects 1 argument, got {len(args)}", offset)
                return Call(text, args[0])
            m = _VAR_NAME.match(text)
            if m and int(m.group(2)) <= self.n:
                return Var(m.group(1), int(m.group(2)))
            if text in _FUNCTIONS:
                raise ParseError(f"function {text!r} requires an argument list", offset)
            raise ParseError(f"unknown identifier {text!r}", offset)
        raise ParseError(f"expected an expression, found {text!r}", offset)


def _product(factors: list) -> Expression:
    return factors[0] if len(factors) == 1 else Product(tuple(factors))


def parse(source: str, chart) -> Expression:
    """Parse infix source text over the chart's coordinates.

    The grammar is documented in docs/expression-grammar.md; chart only
    needs an ``n`` attribute bounding the coordinate indices.
    """
    return _Parser(source, chart).parse()
