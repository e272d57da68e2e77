"""A small declarative text format for three-variable exponential systems.

Grammar (line breaks are ordinary whitespace; '#' starts a comment running
to end of line; every statement ends with ';'):

    model      ::= statement+
    statement  ::= "var" IDENT "=" NUMBER ";"
                 | "d" IDENT "/dt" "=" NUMBER "*" IDENT ";"
                 | "role" ("labor" | "capital" | "output") IDENT ";"
    IDENT      ::= [A-Za-z][A-Za-z0-9_]*
    NUMBER     ::= decimal literal with optional sign, fraction, exponent,
                   finite as a float

Example:

    var L = 106.65;  dL/dt = 0.02549605 * L;  role labor L;
    var K = 100.70;  dK/dt = 0.06472564 * K;  role capital K;
    var Y = 106.08;  dY/dt = 0.03592651 * Y;  role output Y;

A file must declare exactly three variables, give each a rate equation that
references only the variable itself (the system is diagonal), and bind the
three roles to three distinct variables.  Parsing is total: any input either
yields a ModelSpec or raises a ModelSpecError subclass carrying a position.
Well-formed text is read by one statement pattern and all other text by the
token parser, so every result and error is the one the token parser gives.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from .core import DomainError, ExponentialModel, ProdfnError

ROLES = ("labor", "capital", "output")


class ModelSpecError(ProdfnError):
    """Base for model-text errors; carries a 1-based line and column when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class ModelSyntaxError(ModelSpecError):
    """Input does not match the grammar."""


class UnknownVariableError(ModelSpecError):
    """A rate equation or role names a variable that was never declared."""


class OffDiagonalRateError(ModelSpecError):
    """A rate equation references a variable other than the one it derives."""


class DuplicateDeclarationError(ModelSpecError):
    """A variable, rate equation, role, or role binding appears twice."""


class MissingRoleError(ModelSpecError):
    """One of the labor/capital/output roles was never declared."""


class MissingRateError(ModelSpecError):
    """A declared variable has no rate equation."""


class VariableCountError(ModelSpecError):
    """The model does not declare exactly three variables."""


@dataclass(frozen=True)
class VariableDef:
    """One declared variable: initial level and diagonal growth rate."""

    name: str
    rate: float
    init: float


@dataclass(frozen=True)
class ModelSpec:
    """Validated model file: three variables plus their role bindings."""

    variables: tuple[VariableDef, ...]
    labor_var: str
    capital_var: str
    output_var: str


_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_IDENT = r"[A-Za-z][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>{_NUMBER})
  | (?P<ident>{_IDENT})
  | (?P<sym>[=;*/])
    """,
    re.VERBOSE,
)

# One well-formed statement and the whitespace around it.
_STATEMENT_RE = re.compile(
    rf"\s*(?:var\s+(?P<var>{_IDENT})\s*=\s*(?P<init>{_NUMBER})\s*;"
    rf"|d(?P<d>{_IDENT})\s*/\s*dt\s*=\s*(?P<rate>{_NUMBER})\s*\*\s*(?P<rhs>{_IDENT})\s*;"
    rf"|role\s+(?P<role>labor|capital|output)\s+(?P<bound>{_IDENT})\s*;)\s*"
)


class _Token(NamedTuple):
    kind: str  # "ident" | "number" | "=" | ";" | "*" | "/" | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:
            break  # text[pos] starts no token
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "ws":  # the only lexeme that can hold a newline
            newlines = lexeme.count("\n")
            if newlines:
                line += newlines
                line_start = pos + lexeme.rindex("\n") + 1
        elif kind != "comment":
            tokens.append(_Token(lexeme if kind == "sym" else kind, lexeme, line, pos - line_start + 1))
        pos = m.end()
    if pos != len(text):
        raise ModelSyntaxError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            got = "end of input" if tok.kind == "eof" else repr(tok.text)
            raise ModelSyntaxError(f"expected {what}, got {got}", tok.line, tok.col)
        return tok

    def number(self) -> float:
        tok = self.expect("number", "a number")
        value = float(tok.text)
        if not math.isfinite(value):
            raise ModelSyntaxError(f"number {tok.text!r} overflows a float", tok.line, tok.col)
        return value


def _match_statements(text: str, inits: dict, rates: dict, roles: dict) -> bool:
    """Fill the dicts from well-formed text; False where the token parser must decide."""
    pos = 0
    while m := _STATEMENT_RE.match(text, pos):
        pos = m.end()
        name, init, d, rate, rhs, role, bound = m.groups()
        number = float(init or rate or 0.0)
        if not math.isfinite(number):
            return False
        if name is not None and name not in inits:
            inits[name] = number
        elif d is not None and rhs == d and d not in rates:
            rates[d] = number
        elif role is not None and role not in roles and bound not in roles.values():
            roles[role] = bound
        else:
            return False
    return pos == len(text)


def _parse_tokens(text: str, inits: dict, rates: dict, roles: dict) -> None:
    """Fill the dicts statement by statement; raise at the first syntax or statement error."""
    p = _Parser(_tokenize(text))
    while p.peek().kind != "eof":
        tok = p.expect("ident", "'var', 'role', or 'd<NAME>/dt'")
        if tok.text == "var":
            name_tok = p.expect("ident", "a variable name")
            p.expect("=", "'='")
            value = p.number()
            p.expect(";", "';'")
            if name_tok.text in inits:
                raise DuplicateDeclarationError(
                    f"variable {name_tok.text!r} declared twice", name_tok.line, name_tok.col
                )
            inits[name_tok.text] = value
        elif tok.text == "role":
            kind_tok = p.expect("ident", "'labor', 'capital' or 'output'")
            if kind_tok.text not in ROLES:
                raise ModelSyntaxError(
                    f"expected 'labor', 'capital' or 'output', got {kind_tok.text!r}",
                    kind_tok.line,
                    kind_tok.col,
                )
            var_tok = p.expect("ident", "a variable name")
            p.expect(";", "';'")
            if kind_tok.text in roles:
                raise DuplicateDeclarationError(
                    f"role {kind_tok.text!r} declared twice", kind_tok.line, kind_tok.col
                )
            bound = [role for role, name in roles.items() if name == var_tok.text]
            if bound:
                raise DuplicateDeclarationError(
                    f"variable {var_tok.text!r} bound to both {bound[0]!r} and {kind_tok.text!r}",
                    var_tok.line,
                    var_tok.col,
                )
            roles[kind_tok.text] = var_tok.text
        elif tok.text.startswith("d") and len(tok.text) > 1 and p.peek().kind == "/":
            name = tok.text[1:]
            p.next()  # '/'
            dt = p.expect("ident", "'dt'")
            if dt.text != "dt":
                raise ModelSyntaxError(f"expected 'dt', got {dt.text!r}", dt.line, dt.col)
            p.expect("=", "'='")
            value = p.number()
            p.expect("*", "'*'")
            rhs = p.expect("ident", "a variable name")
            p.expect(";", "';'")
            if rhs.text != name:
                raise OffDiagonalRateError(
                    f"d{name}/dt references {rhs.text!r}: only {name!r} itself is allowed",
                    rhs.line,
                    rhs.col,
                )
            if name in rates:
                raise DuplicateDeclarationError(
                    f"rate equation for {name!r} declared twice", tok.line, tok.col
                )
            rates[name] = value
        else:
            raise ModelSyntaxError(
                f"expected 'var', 'role', or 'd<NAME>/dt', got {tok.text!r}",
                tok.line,
                tok.col,
            )


def parse_model(text: str) -> ModelSpec:
    """Parse and validate model text, returning a ModelSpec.

    Raises a ModelSpecError subclass (never anything else) on invalid input,
    with the 1-based line/column where the problem was detected.
    """
    inits: dict[str, float] = {}
    rates: dict[str, float] = {}
    roles: dict[str, str] = {}
    if not _match_statements(text, inits, rates, roles):
        inits, rates, roles = {}, {}, {}
        _parse_tokens(text, inits, rates, roles)

    # cross-statement validation (statement order in the file is free)
    for name in rates:
        if name not in inits:
            raise UnknownVariableError(f"rate equation for undeclared variable {name!r}")
    for role, name in roles.items():
        if name not in inits:
            raise UnknownVariableError(f"role {role!r} names undeclared variable {name!r}")
    if len(inits) != 3:
        raise VariableCountError(f"exactly 3 variables required, got {len(inits)}")
    for name in inits:
        if name not in rates:
            raise MissingRateError(f"variable {name!r} has no rate equation")
    for role in ROLES:
        if role not in roles:
            raise MissingRoleError(f"missing role declaration for {role!r}")

    variables = tuple(VariableDef(name=n, rate=rates[n], init=v) for n, v in inits.items())
    return ModelSpec(variables, roles["labor"], roles["capital"], roles["output"])


def render(spec: ModelSpec) -> str:
    """Serialize a ModelSpec to canonical model text.

    Numbers are printed with repr, so parse_model(render(spec)) reproduces
    `spec` exactly, bit for bit.
    """
    lines = []
    for v in spec.variables:
        lines.append(f"var {v.name} = {v.init!r};")
        lines.append(f"d{v.name}/dt = {v.rate!r} * {v.name};")
    lines.append(f"role labor {spec.labor_var};")
    lines.append(f"role capital {spec.capital_var};")
    lines.append(f"role output {spec.output_var};")
    return "\n".join(lines) + "\n"


def to_model(spec: ModelSpec) -> ExponentialModel:
    """Map a ModelSpec onto an ExponentialModel (base year 0).

    Roles, not declaration order, decide which variable becomes L, K or Y.
    Initial levels must be positive so their logs exist; ExponentialModel
    rejects non-finite rates and logs.
    """
    by_name = {v.name: v for v in spec.variables}
    picked = [by_name[spec.labor_var], by_name[spec.capital_var], by_name[spec.output_var]]
    for v in picked:
        if not v.init > 0.0:
            raise DomainError(f"initial value of {v.name!r} must be positive, got {v.init!r}")
    lab, cap, out = picked
    return ExponentialModel(
        b1=lab.rate,
        b2=cap.rate,
        b3=out.rate,
        ln_L0=math.log(lab.init),
        ln_K0=math.log(cap.init),
        ln_Y0=math.log(out.init),
        base_year=0,
    )
