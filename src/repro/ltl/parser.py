"""A small operator-precedence parser for LTL formulas.

Grammar (operators listed from lowest to highest precedence)::

    formula   := until ( ('->' | '<->') until )*
    until     := or ( ('U' | 'R') or )*        (right associative)
    or        := and ( '|' and )*
    and       := unary ( '&' unary )*
    unary     := '!' unary | 'X' unary | 'G' unary | 'F' unary | atom
    atom      := 'true' | 'false' | identifier | '(' formula ')'

Identifiers may contain letters, digits, underscores and dots, so service
proposition names such as ``open_ShipItem`` parse directly.

The parser keeps its operators and operands on explicit stacks, so no nesting
of the input text can exhaust the Python stack, and it rejects formulas nested
deeper than :data:`MAX_FORMULA_DEPTH` operators.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from repro.ltl.syntax import (
    And,
    Finally,
    Formula,
    Globally,
    Implies,
    LFalse,
    LTrue,
    Next,
    Not,
    Or,
    Prop,
    Release,
    Until,
)


class LTLParseError(ValueError):
    """Raised on malformed LTL input."""


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow><->|->)|(?P<op>[!&|()])|(?P<word>[A-Za-z_][A-Za-z0-9_.]*))"
)

_RESERVED = {"U", "R", "X", "G", "F", "true", "false"}


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if not match or match.end() == position:
            remainder = text[position:].strip()
            if not remainder:
                break
            raise LTLParseError(f"unexpected input at {remainder[:20]!r}")
        tokens.append(match.group("arrow") or match.group("op") or match.group("word"))
        position = match.end()
    return tokens


#: The deepest operator nesting ``parse_ltl`` accepts.  An atom has depth 0
#: and each operator adds one, so ``X X p`` has depth 2.  The formula's own
#: methods and the Büchi translation recurse once or more per level, so this
#: bound keeps every formula that parses within Python's recursion limit.
MAX_FORMULA_DEPTH = 100

# Binary operators: (precedence, right associative).  Unary operators bind
# tighter than all of them.
_BINARY = {
    "->": (1, False),
    "<->": (1, False),
    "U": (2, True),
    "R": (2, True),
    "|": (3, False),
    "&": (4, False),
}
_UNARY = {"!": Not, "X": Next, "G": Globally, "F": Finally}
_CONSTANTS = {"true": LTrue, "false": LFalse}


def _apply(operator: str, operands: List[Tuple[Formula, int]]) -> None:
    """Replace the top operand(s) by *operator* applied to them, with its depth."""
    if operator in _UNARY:
        operand, depth = operands.pop()
        formula, depth = _UNARY[operator](operand), depth + 1
    else:
        right, right_depth = operands.pop()
        left, left_depth = operands.pop()
        depth = max(left_depth, right_depth) + 1
        if operator == "->":
            formula = Implies(left, right)
        elif operator == "<->":
            formula, depth = And(Implies(left, right), Implies(right, left)), depth + 1
        else:
            formula = {"U": Until, "R": Release, "|": Or, "&": And}[operator](left, right)
    if depth > MAX_FORMULA_DEPTH:
        raise LTLParseError(f"formula nested deeper than {MAX_FORMULA_DEPTH} operators")
    operands.append((formula, depth))


def parse_ltl(text: str) -> Formula:
    """Parse an LTL formula from its textual representation.

    >>> parse_ltl("G (p -> F q)")
    Globally(operand=Implies(left=Prop(name='p'), right=Finally(operand=Prop(name='q'))))
    """
    # Operator precedence (shunting-yard) with explicit stacks, so that no
    # nesting of operators or parentheses can exhaust the Python stack.
    operands: List[Tuple[Formula, int]] = []
    operators: List[str] = []  # pending operators and open parentheses
    open_parentheses = 0
    expect_operand = True
    for token in _tokenize(text):
        if expect_operand:
            if token in _UNARY or token == "(":
                operators.append(token)
                open_parentheses += token == "("
            elif token in _CONSTANTS:
                operands.append((_CONSTANTS[token](), 0))
                expect_operand = False
            elif token in _RESERVED or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.]*", token):
                raise LTLParseError(f"unexpected token {token!r}")
            else:
                operands.append((Prop(token), 0))
                expect_operand = False
        elif token in _BINARY:
            precedence, right_associative = _BINARY[token]
            while operators and operators[-1] != "(":
                top = operators[-1]
                if top in _BINARY:
                    top_precedence = _BINARY[top][0]
                    if top_precedence < precedence or (
                        top_precedence == precedence and right_associative
                    ):
                        break
                _apply(operators.pop(), operands)
            operators.append(token)
            expect_operand = True
        elif token == ")" and open_parentheses:
            while operators[-1] != "(":
                _apply(operators.pop(), operands)
            operators.pop()
            open_parentheses -= 1
        else:
            raise LTLParseError(f"trailing input starting at {token!r}")
    if expect_operand or open_parentheses:
        raise LTLParseError("unexpected end of formula")
    while operators:
        _apply(operators.pop(), operands)
    return operands[0][0]
