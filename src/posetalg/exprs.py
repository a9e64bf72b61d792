"""Term expression grammar for the CLI.

Atoms are ``x(name)``, constants ``0`` and ``1``; operators ``!`` (complement),
``&`` (meet), ``|`` (join) with precedence ! > & > |, plus parentheses.
Names may themselves contain balanced parentheses (e.g. ``x((0,1))``).  The
parser loops over each run of ``|`` or ``&`` operands and recurses only on
``(`` and ``!``; ``to_elem`` recurses on every node.  Nesting past the
recursion limit raises ParseError in either.

Parsed expressions are plain tuples:
    ("var", name) | ("const", bool) | ("not", e) | ("and", a, b) | ("or", a, b)
"""

from __future__ import annotations

from . import algebra
from .errors import ParseError


def tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "!&|()01":
            tokens.append(c)
            i += 1
            continue
        if c == "x" and i + 1 < n and text[i + 1] == "(":
            depth = 1
            j = i + 2
            while j < n and depth:
                if text[j] == "(":
                    depth += 1
                elif text[j] == ")":
                    depth -= 1
                j += 1
            if depth:
                raise ParseError(f"unterminated atom at offset {i}")
            tokens.append(("var", text[i + 2 : j - 1]))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r} at offset {i}")
    return tokens


def _parse(tokens, i):
    """(tree, index of the next token) of the expression at ``tokens[i]``.

    ``tokens`` ends in None.  The outer loop folds the ``|`` operands and the
    inner one the ``&`` operands of each, left-deep; an operand that is no
    name goes to ``_unary``, the one place that recurses.
    """
    node = None
    while True:
        term = None
        while True:
            operand = tokens[i]
            if operand.__class__ is tuple:  # ("var", name)
                i += 1
            else:
                operand, i = _unary(tokens, i)
            term = operand if term is None else ("and", term, operand)
            if tokens[i] != "&":
                break
            i += 1
        node = term if node is None else ("or", node, term)
        if tokens[i] != "|":
            return node, i
        i += 1


def _unary(tokens, i):
    """(tree, next index) of the negation, parenthesis or atom at ``tokens[i]``."""
    tok = tokens[i]
    if tok == "!":
        node, i = _unary(tokens, i + 1)
        return ("not", node), i
    if tok == "(":
        node, i = _parse(tokens, i + 1)
        if tokens[i] != ")":
            raise ParseError("expected ')'")
        return node, i + 1
    if tok in ("0", "1"):
        return ("const", tok == "1"), i + 1
    if isinstance(tok, tuple) and tok[0] == "var":
        return tok, i + 1
    raise ParseError(f"unexpected token {tok!r}")


def parse(text):
    """Expression tree of ``text``; ParseError on bad or too deeply nested input."""
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    tokens.append(None)
    try:
        node, i = _parse(tokens, 0)
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if tokens[i] is not None:
        raise ParseError(f"trailing input from token {tokens[i]!r}")
    return node


def to_elem(poset, node):
    """Evaluate an expression tree in the symbolic algebra.

    One pass collects the union support of the tree's variables; a second
    evaluates the tree as ``&``/``|``/``^`` on the bit columns of that
    support, so no intermediate element is built.  A node that is no tuple
    of one of the shapes in the module docstring, or a tree too deep to
    evaluate, raises ParseError."""
    try:
        support = _support(poset, node)
        cols, full = algebra._columns(poset, support)
        truth = _eval(poset, cols, full, node)
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    return algebra.AlgebraElem(poset, support, truth)


def _support(poset, node):
    # a node is a tuple of one of the module docstring's shapes, unpacked
    # whole, so a short, long or non-tuple node raises here
    size = len(node) if node.__class__ is tuple else 0
    if size == 3:
        kind, a, b = node
        if kind == "and" or kind == "or":
            return _support(poset, a) | _support(poset, b)
    elif size == 2:
        kind, a = node
        if kind == "var":
            # one dict lookup for a str name; Poset.id for the rest and misses
            i = poset._ids.get(a) if a.__class__ is str else None
            return 1 << (poset.id(a) if i is None else i)
        if kind == "not":
            return _support(poset, a)
        if kind == "const":
            return 0
    raise ParseError(f"bad node {node!r}")


def _eval(poset, cols, full, node):
    # _support has already rejected any other node shape and unknown name
    kind = node[0]
    if kind == "var":
        return cols[poset._ids[node[1]] if node[1].__class__ is str else poset.id(node[1])]
    if kind == "const":
        return full if node[1] else 0
    if kind == "not":
        return _eval(poset, cols, full, node[1]) ^ full
    if kind == "and":
        return _eval(poset, cols, full, node[1]) & _eval(poset, cols, full, node[2])
    return _eval(poset, cols, full, node[1]) | _eval(poset, cols, full, node[2])
