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

Comments are blanked to spaces, so every offset stays put, and one statement
pattern reads the text a statement at a time, checking each statement's rules
as it goes.  Errors are worked out only on failure: the whole text is then
tokenized, so a lexical error anywhere comes first, and a statement the
pattern rejects is walked token by token against its form to name the token
that breaks the grammar.
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


_NUMBER = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"  # ASCII digits: \d takes any Unicode digit
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

# One well-formed statement and the whitespace before it.  A rate name is any
# run of identifier characters, as the token grammar reads `d1/dt`.
_STATEMENT_RE = re.compile(
    rf"\s*(?:var\s+(?P<var>{_IDENT})\s*=\s*(?P<init>{_NUMBER})\s*;"
    rf"|d(?P<d>[A-Za-z0-9_]+)\s*/\s*dt\s*=\s*(?P<rate>{_NUMBER})\s*\*\s*(?P<rhs>{_IDENT})\s*;"
    rf"|role\s+(?P<role>labor|capital|output)\s+(?P<bound>{_IDENT})\s*;)"
)
_COMMENT_RE = re.compile(r"#[^\n]*")


class _Token(NamedTuple):
    kind: str  # "ident" | "number" | "=" | ";" | "*" | "/" | "eof"
    text: str
    line: int
    col: int
    pos: int  # offset in the text; the eof token's is len(text)


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
            tokens.append(_Token(lexeme if kind == "sym" else kind, lexeme, line, pos - line_start + 1, pos))
        pos = m.end()
    if pos != len(text):
        raise ModelSyntaxError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1, len(text)))
    return tokens


# The tokens after each statement form's first one: (kind, texts allowed or None, what is expected).
_NAME = ("ident", None, "a variable name")
_EQ, _NUM, _END = ("=", None, "'='"), ("number", None, "a number"), (";", None, "';'")
_FORMS = {
    "var": (_NAME, _EQ, _NUM, _END),
    "role": (("ident", ROLES, "'labor', 'capital' or 'output'"), _NAME, _END),
    "rate": (("/", None, "'/'"), ("ident", ("dt",), "'dt'"), _EQ, _NUM, ("*", None, "'*'"), _NAME, _END),
}


def _error(cls: type[ModelSpecError], message: str, text: str, pos: int) -> ModelSpecError:
    """`cls` at the line and column of the token at offset `pos`, unless a lexical error anywhere
    in the text comes first.  Every caller passes a token's start, and only `_tokenize` counts lines."""
    tok = next(tok for tok in _tokenize(text) if tok.pos >= pos)
    return cls(message, tok.line, tok.col)


def _syntax_error(text: str, pos: int) -> ModelSyntaxError:
    """The error of the statement at offset `pos`: its first token that breaks its form,
    or its number if that overflows a float.  A lexical error anywhere in the text
    is raised instead.  `_STATEMENT_RE` matches every statement that fits its form,
    so a statement it rejects always has such a token.
    """
    tokens = _tokenize(text)
    i = next(i for i, tok in enumerate(tokens) if tok.pos >= pos)
    head = tokens[i]
    if head.text in ("var", "role"):
        form = _FORMS[head.text]
    elif head.text.startswith("d") and len(head.text) > 1 and tokens[i + 1].kind == "/":
        form = _FORMS["rate"]
    else:
        message = f"expected 'var', 'role', or 'd<NAME>/dt', got {head.text!r}"
        return ModelSyntaxError(message, head.line, head.col)
    for tok, (kind, texts, what) in zip(tokens[i + 1 :], form):
        if tok.kind != kind or (texts and tok.text not in texts):
            got = "end of input" if tok.kind == "eof" else repr(tok.text)
            return ModelSyntaxError(f"expected {what}, got {got}", tok.line, tok.col)
        if kind == "number" and not math.isfinite(float(tok.text)):
            return ModelSyntaxError(f"number {tok.text!r} overflows a float", tok.line, tok.col)


# What a statement declares, by the statement's last group: what an error calls it, the group naming it, and the
# offset of the error from that group's start (a rate equation is reported at the 'd' of d<NAME>)
_DECLARES = {"init": ("variable", "var", 0), "rhs": ("rate equation for", "d", -1), "bound": ("role", "role", 0)}


def parse_model(text: str) -> ModelSpec:
    """Parse and validate model text, returning a ModelSpec.

    Raises a ModelSpecError subclass (never anything else) on invalid input,
    with the 1-based line/column where the problem was detected.
    """
    inits: dict[str, float] = {}
    rates: dict[str, float] = {}
    roles: dict[str, str] = {}
    # a comment becomes spaces, so every offset stays where it was
    blanked = _COMMENT_RE.sub(lambda m: " " * len(m.group()), text) if "#" in text else text
    pos, end = 0, len(blanked.rstrip())
    while pos < end:
        m = _STATEMENT_RE.match(blanked, pos)
        if m is None:
            raise _syntax_error(text, pos)
        name, init, d, rate, rhs, role, bound = m.groups()
        number = float(init or rate or 0.0)
        if not math.isfinite(number):
            raise _syntax_error(text, pos)
        pos = m.end()
        if name is not None:
            table, key, value = inits, name, number
        elif d is not None:
            if rhs != d:
                message = f"d{d}/dt references {rhs!r}: only {d!r} itself is allowed"
                raise _error(OffDiagonalRateError, message, text, m.start("rhs"))
            table, key, value = rates, d, number
        else:
            for other, taken in roles.items():
                if taken == bound and role not in roles:  # a role declared twice is reported first, below
                    message = f"variable {bound!r} bound to both {other!r} and {role!r}"
                    raise _error(DuplicateDeclarationError, message, text, m.start("bound"))
            table, key, value = roles, role, bound
        if key in table:
            what, group, shift = _DECLARES[m.lastgroup]
            raise _error(DuplicateDeclarationError, f"{what} {key!r} declared twice", text, m.start(group) + shift)
        table[key] = value
    return _spec(inits, rates, roles)


def _spec(inits: dict[str, float], rates: dict[str, float], roles: dict[str, str]) -> ModelSpec:
    """Check what no single statement decides; statement order in the file is free."""
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
