import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prodfn import (
    DomainError,
    DuplicateDeclarationError,
    MissingRateError,
    MissingRoleError,
    ModelSpec,
    ModelSpecError,
    ModelSyntaxError,
    OffDiagonalRateError,
    UnknownVariableError,
    VariableCountError,
    VariableDef,
    parse_model,
    render,
    to_model,
)
from prodfn import modelspec
from prodfn.modelspec import ROLES, _Token, _tokenize

DSL_DIR = Path(__file__).parent / "data" / "dsl"

GOLDEN_ERRORS = {
    "e_badchar.mdl": ModelSyntaxError,
    "e_eof.mdl": ModelSyntaxError,
    "e_unknown_rate.mdl": UnknownVariableError,
    "e_offdiag.mdl": OffDiagonalRateError,
    "e_dup_var.mdl": DuplicateDeclarationError,
    "e_dup_role.mdl": DuplicateDeclarationError,
    "e_missing_role.mdl": MissingRoleError,
    "e_two_vars.mdl": VariableCountError,
}


def read(name):
    return (DSL_DIR / name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# golden files: valid models


def test_golden_example_file():
    spec = parse_model(read("v_example.mdl"))
    assert [v.name for v in spec.variables] == ["L", "K", "Y"]
    assert [v.rate for v in spec.variables] == [0.02549605, 0.06472564, 0.03592651]
    assert [v.init for v in spec.variables] == [106.65, 100.70, 106.08]
    assert (spec.labor_var, spec.capital_var, spec.output_var) == ("L", "K", "Y")


def test_golden_flat_file_accepts_zero_rate():
    spec = parse_model(read("v_flat.mdl"))
    assert all(v.rate == 0.0 for v in spec.variables)
    m = to_model(spec)
    assert (m.b1, m.b2, m.b3) == (0.0, 0.0, 0.0)
    assert (m.ln_L0, m.ln_K0, m.ln_Y0) == (0.0, 0.0, 0.0)


def test_golden_reordered_file():
    spec = parse_model(read("v_reordered.mdl"))
    assert spec == ModelSpec(
        variables=(
            VariableDef(name="lab", rate=0.02, init=10.0),
            VariableDef(name="cap", rate=0.06, init=20.0),
            VariableDef(name="prod", rate=0.04, init=30.0),
        ),
        labor_var="lab",
        capital_var="cap",
        output_var="prod",
    )


def test_golden_number_forms():
    spec = parse_model(read("v_numbers.mdl"))
    assert [v.init for v in spec.variables] == [0.5, 100.0, 3.25]
    assert [v.rate for v in spec.variables] == [-0.02, 0.025, 0.01]


# ---------------------------------------------------------------------------
# golden files: each error kind


@pytest.mark.parametrize("name,exc", sorted(GOLDEN_ERRORS.items()))
def test_golden_error_files(name, exc):
    with pytest.raises(exc):
        parse_model(read(name))


def test_golden_badchar_position():
    with pytest.raises(ModelSyntaxError) as ei:
        parse_model(read("e_badchar.mdl"))
    assert ei.value.line == 2
    assert ei.value.col == 7


def test_golden_offdiag_position():
    text = read("e_offdiag.mdl")
    with pytest.raises(OffDiagonalRateError) as ei:
        parse_model(text)
    assert ei.value.line == 1
    assert ei.value.col == text.splitlines()[0].index("* K") + 3


# ---------------------------------------------------------------------------
# further error kinds (inline sources)


def test_missing_rate_equation():
    with pytest.raises(MissingRateError, match="'K'"):
        parse_model(
            "var L = 1; dL/dt = 0.1 * L; role labor L;"
            "var K = 2; role capital K;"
            "var Y = 3; dY/dt = 0.1 * Y; role output Y;"
        )


def test_duplicate_rate_equation():
    with pytest.raises(DuplicateDeclarationError, match="rate equation"):
        parse_model(
            "var L = 1; dL/dt = 0.1 * L; dL/dt = 0.2 * L; role labor L;"
            "var K = 2; dK/dt = 0.1 * K; role capital K;"
            "var Y = 3; dY/dt = 0.1 * Y; role output Y;"
        )


def test_role_for_undeclared_variable():
    with pytest.raises(UnknownVariableError, match="'Z'"):
        parse_model(
            "var L = 1; dL/dt = 0.1 * L; role labor Z;"
            "var K = 2; dK/dt = 0.1 * K; role capital K;"
            "var Y = 3; dY/dt = 0.1 * Y; role output Y;"
        )


def test_variable_bound_to_two_roles():
    with pytest.raises(DuplicateDeclarationError, match="bound to both"):
        parse_model(
            "var L = 1; dL/dt = 0.1 * L; role labor L; role output L;"
            "var K = 2; dK/dt = 0.1 * K; role capital K;"
            "var Y = 3; dY/dt = 0.1 * Y;"
        )


def test_a_role_declared_twice_is_reported_before_a_variable_bound_twice():
    # the third role statement repeats 'labor' and binds 'K', which 'capital' already holds
    with pytest.raises(DuplicateDeclarationError) as ei:
        parse_model(
            "var L = 1; dL/dt = 0.1 * L; var K = 2; dK/dt = 0.1 * K; role labor L; role capital K; role labor K;"
        )
    assert str(ei.value) == "line 1, col 92: role 'labor' declared twice"


def test_an_off_diagonal_rate_is_reported_before_a_rate_declared_twice():
    with pytest.raises(OffDiagonalRateError) as ei:
        parse_model("var L = 1; dL/dt = 0.1 * L; dL/dt = 0.2 * K;")
    assert (ei.value.line, ei.value.col) == (1, 43)
    assert "references 'K'" in str(ei.value)


def test_unknown_role_keyword():
    with pytest.raises(ModelSyntaxError, match="'land'"):
        parse_model("var L = 1; dL/dt = 0.1 * L; role land L;")


def test_derivative_without_name():
    with pytest.raises(ModelSyntaxError):
        parse_model("var L = 1; d/dt = 0.1 * L; role labor L;")


def test_derivative_requires_dt():
    with pytest.raises(ModelSyntaxError, match="'dt'"):
        parse_model("var L = 1; dL/ds = 0.1 * L;")


# ---------------------------------------------------------------------------
# render / to_model


def test_render_parse_identity_on_example():
    spec = parse_model(read("v_example.mdl"))
    assert parse_model(render(spec)) == spec


# the grammar has no reserved words: names like 'dt', 'dx' or 'var' are legal
names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,8}", fullmatch=True)
numbers = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)
positives = st.floats(min_value=1e-6, max_value=1e9)


@given(
    trio=st.lists(names, min_size=3, max_size=3, unique=True),
    rates=st.lists(numbers, min_size=3, max_size=3),
    inits=st.lists(positives, min_size=3, max_size=3),
)
@settings(max_examples=200)
def test_render_parse_identity(trio, rates, inits):
    spec = ModelSpec(
        variables=tuple(
            VariableDef(name=n, rate=r, init=i) for n, r, i in zip(trio, rates, inits)
        ),
        labor_var=trio[0],
        capital_var=trio[1],
        output_var=trio[2],
    )
    assert parse_model(render(spec)) == spec


literals = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e400", "-1e999", "1.7976931348623159e308", "1.7976931348623157e308", "1e-400", "-0.0"]),
)


@given(trio=st.lists(names, min_size=3, max_size=3, unique=True), lits=st.lists(literals, min_size=6, max_size=6))
@settings(max_examples=300)
def test_parsed_spec_renders_back_or_an_overflowing_literal_is_named(trio, lits):
    lines = [
        (f"var {n} = ", lits[i], f"; d{n}/dt = ", lits[i + 3], f" * {n}; role {role} {n};")
        for i, (n, role) in enumerate(zip(trio, ROLES))
    ]
    text = "".join("".join(parts) + "\n" for parts in lines)
    try:
        spec = parse_model(text)
    except ModelSyntaxError as exc:
        line, lit, col = next(
            (i + 1, parts[k], len("".join(parts[:k])) + 1)
            for i, parts in enumerate(lines)
            for k in (1, 3)
            if not math.isfinite(float(parts[k]))
        )
        assert str(exc) == f"line {line}, col {col}: number {lit!r} overflows a float"
        assert _outcome(_token_path, text) == _outcome(parse_model, text)
    else:
        assert all(math.isfinite(float(lit)) for lit in lits)
        assert parse_model(render(spec)) == spec


def test_to_model_unit_inits():
    spec = parse_model(read("v_flat.mdl"))
    m = to_model(spec)
    assert (m.ln_L0, m.ln_K0, m.ln_Y0) == (0.0, 0.0, 0.0)
    assert m.base_year == 0


def test_to_model_matches_reference_fit(cd1928):
    text = (
        f"var L = {math.exp(4.66953290)!r}; dL/dt = 0.02549605 * L; role labor L;"
        f"var K = {math.exp(4.61213588)!r}; dK/dt = 0.06472564 * K; role capital K;"
        f"var Y = {math.exp(4.66415363)!r}; dY/dt = 0.03592651 * Y; role output Y;"
    )
    m = to_model(parse_model(text))
    assert m.b1 == cd1928.b1 and m.b2 == cd1928.b2 and m.b3 == cd1928.b3
    assert m.ln_L0 == pytest.approx(cd1928.ln_L0, abs=1e-9)
    assert m.ln_K0 == pytest.approx(cd1928.ln_K0, abs=1e-9)
    assert m.ln_Y0 == pytest.approx(cd1928.ln_Y0, abs=1e-9)


def test_to_model_statement_order_irrelevant():
    ordered = parse_model(read("v_example.mdl"))
    # same content with the statements shuffled
    shuffled = parse_model(
        "role output Y; role capital K;\n"
        "dY/dt = 0.03592651 * Y;\n"
        "var K = 100.70; var Y = 106.08; var L = 106.65;\n"
        "dL/dt = 0.02549605 * L; dK/dt = 0.06472564 * K;\n"
        "role labor L;\n"
    )
    assert to_model(shuffled) == to_model(ordered)


def test_to_model_rejects_nonpositive_init():
    spec = parse_model(
        "var L = -1; dL/dt = 0.1 * L; role labor L;"
        "var K = 2; dK/dt = 0.1 * K; role capital K;"
        "var Y = 3; dY/dt = 0.1 * Y; role output Y;"
    )
    with pytest.raises(DomainError, match="'L'"):
        to_model(spec)


def test_to_model_round_trip_bit_identical():
    spec = parse_model(read("v_numbers.mdl"))
    assert to_model(parse_model(render(spec))) == to_model(spec)


# ---------------------------------------------------------------------------
# totality


@given(st.binary(max_size=300))
@settings(max_examples=500)
def test_parse_never_crashes(data):
    try:
        spec = parse_model(data.decode("latin-1"))
    except ModelSpecError as exc:
        assert isinstance(exc, ModelSpecError)
    else:
        assert isinstance(spec, ModelSpec)


@given(st.text(max_size=300))
@settings(max_examples=500)
def test_parse_never_crashes_on_text(text):
    try:
        parse_model(text)
    except ModelSpecError:
        pass


# ---------------------------------------------------------------------------
# positions on multi-line text: comments, tabs, blank lines, CRLF


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        (
            "# header comment\n\tvar L = 1;\r\n\n  var K = 2; @\n",
            "line 4, col 14: unexpected character '@'",
            4,
            14,
        ),
        ("var L = 1;\n$var K = 2;", "line 2, col 1: unexpected character '$'", 2, 1),
        ("var L = 1; # ok\nvar K = 2;!\nvar Y = 3;", "line 2, col 11: unexpected character '!'", 2, 11),
        ("var L = 1;\r\nvar K = 2;\r\n%", "line 3, col 1: unexpected character '%'", 3, 1),
        ("\t\t&", "line 1, col 3: unexpected character '&'", 1, 3),
        ("# é in a comment\r\nvar é = 1;", "line 2, col 5: unexpected character 'é'", 2, 5),
        (
            "var L = 1;\n\n\n\t\t# c\r\n   role\tlabor\r\n L ; role capital K;\n!",
            "line 7, col 1: unexpected character '!'",
            7,
            1,
        ),
        ("var L = 1; # c\r\n\tvar K 2;", "line 2, col 8: expected '=', got '2'", 2, 8),
        ("var L = 1\n# no semicolon\n", "line 3, col 1: expected ';', got end of input", 3, 1),
        ("var L = 1 # c", "line 1, col 14: expected ';', got end of input", 1, 14),
        ("var L = 1e400;", "line 1, col 9: number '1e400' overflows a float", 1, 9),
        # a NUMBER holds ASCII digits only, although float() reads any Unicode decimal digit
        ("var L = ١٠٦.65;", "line 1, col 9: unexpected character '١'", 1, 9),
        ("var L = 1;\ndL/dt = 0.0٢ * L;", "line 2, col 12: unexpected character '٢'", 2, 12),
        ("var L = 1;\r\n  dL/dt = -1e999 * L;", "line 2, col 11: number '-1e999' overflows a float", 2, 11),
    ],
)
def test_error_positions_on_multiline_text(text, message, line, col):
    with pytest.raises(ModelSyntaxError) as ei:
        parse_model(text)
    assert str(ei.value) == message
    assert (ei.value.line, ei.value.col) == (line, col)


def test_tokens_carry_line_and_column():
    text = "# c\r\n\tvar L = -1.5e+2;\r\n\n dL/dt = .5 * L; # end"
    assert [(t.kind, t.text, t.line, t.col) for t in _tokenize(text)] == [
        ("ident", "var", 2, 2),
        ("ident", "L", 2, 6),
        ("=", "=", 2, 8),
        ("number", "-1.5e+2", 2, 10),
        (";", ";", 2, 17),
        ("ident", "dL", 4, 2),
        ("/", "/", 4, 4),
        ("ident", "dt", 4, 5),
        ("=", "=", 4, 8),
        ("number", ".5", 4, 10),
        ("*", "*", 4, 13),
        ("ident", "L", 4, 15),
        (";", ";", 4, 16),
        ("eof", "", 4, 23),
    ]


# ---------------------------------------------------------------------------
# the statement pattern and the token parser give the same results


def _outcome(parse, text):
    try:
        return parse(text)
    except ModelSpecError as exc:
        return type(exc), str(exc), exc.line, exc.col


# The token parser that read all model text before the statement pattern did,
# kept unchanged as the reference for the differential tests below.


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


def _token_path(text):
    inits, rates, roles = {}, {}, {}
    _parse_tokens(text, inits, rates, roles)
    return modelspec._spec(inits, rates, roles)


# "1" is no variable name, yet the token grammar reads `d1/dt` as the rate of "1"
soup_names = st.sampled_from(["L", "K", "Y", "X1", "a_b", "var", "dt", "labor", "1"])
soup_numbers = st.sampled_from(["106.65", "-2", "+.5", "1.", "1e3", ".5E-2", "0", "1e400", "007", "١٠٦.65"])
soup_comments = ["# c\n", " #x # y\n"]  # a comment can fall between any two tokens
soup_ws = st.sampled_from(["", "", " ", "  ", "\t", "\n", "\r\n", "\n\n", " \t\r\n", *soup_comments])
soup_sep = st.sampled_from([" ", "\t", "\n", "\r\n", "  ", *soup_comments])


@st.composite
def soup_statement(draw, name):
    def ws():
        return draw(soup_ws)

    kind = draw(st.sampled_from(["var", "rate", "role", "comment"]))
    if kind == "var":
        return f"var{draw(soup_sep)}{name}{ws()}={ws()}{draw(soup_numbers)}{ws()};"
    if kind == "rate":
        rhs = draw(st.one_of(st.just(name), soup_names))  # sometimes off-diagonal
        return f"d{name}{ws()}/{ws()}dt{ws()}={ws()}{draw(soup_numbers)}{ws()}*{ws()}{rhs}{ws()};"
    if kind == "role":
        role = draw(st.sampled_from([*ROLES, "labour"]))
        return f"role{draw(soup_sep)}{role}{draw(soup_sep)}{name}{ws()};"
    return "# note; var X = 1;" + draw(st.sampled_from(["\n", "\r\n", ""]))


@st.composite
def statement_soups(draw):
    trio = draw(st.lists(soup_names, min_size=3, max_size=3, unique=True))
    stmts = [
        s
        for name, role in zip(trio, ROLES)
        for s in (
            f"var {name} = {draw(soup_numbers)};",
            f"d{name}/dt = {draw(soup_numbers)} * {name};",
            f"role {role} {name};",
        )
    ]
    stmts = draw(st.permutations(stmts))
    dropped = draw(st.sets(st.integers(0, len(stmts) - 1), max_size=2))  # missing roles, rates
    stmts = [s for i, s in enumerate(stmts) if i not in dropped]
    for _ in range(draw(st.integers(0, 2))):  # duplicates and stray statements
        extra = draw(st.one_of(st.sampled_from(stmts or ["var L = 1;"]), soup_statement(draw(soup_names))))
        stmts.insert(draw(st.integers(0, len(stmts))), extra)
    text = draw(soup_ws) + "".join(s + draw(soup_ws) for s in stmts)
    for _ in range(draw(st.integers(0, 2))):  # single-character edits
        i = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(list("vardt/=*;#+-.eE019 \t\n\rLKYz_é")))
        edit = draw(st.sampled_from(["delete", "insert", "replace"]))
        text = text[:i] + ("" if edit == "delete" else ch) + text[i + (edit != "insert") :]
    return text


@given(statement_soups())
@example("d1/dt = 1 * X1;")  # the token grammar reads a rate name `1` from `d1`
@example("var L = 1;\nvar L = 2; # c\n@")  # a lexical error anywhere comes before a statement error
@example("var L = 1e400 # c\n; var L = 2;")  # an overflowing literal is named before the statement ends
@example("role labor L;\nrole output\tL;")  # a variable bound to two roles
@settings(max_examples=400)
def test_statement_pattern_agrees_with_the_token_parser(text):
    assert _outcome(parse_model, text) == _outcome(_token_path, text)


def test_well_formed_text_does_not_reach_the_token_parser(monkeypatch):
    def no_tokens(text):
        raise AssertionError("token parser reached")

    spec = parse_model(read("v_example.mdl"))
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Model text format", 1)[1].split("```\n")[1]
    monkeypatch.setattr(modelspec, "_tokenize", no_tokens)
    assert parse_model(render(spec)) == spec
    assert parse_model(example) == spec
    assert parse_model("# a comment\n" + render(spec).replace(" = ", " = # c #\n")) == spec
