"""Parsing and canonical printing of the expression grammars.

sum      := ["+"|"-"] term (("+"|"-") term)*        (also the bare "0")
term     := [rational "*"] basis
rational := ["+"|"-"] int ["/" uint]
basis    := atom ("@" atom)*                        ("@" builds tensor terms)

Atoms depend on the kind: graphs follow
``graph := "|" | "(" graph ("v"|"o") graph ")"``, permutations are written
"[3,1,2]" (empty: "[]"), and words are bare strings over {T, L} with "1" for
the empty word.  An int or uint is a run of decimal digits
(``str.isdecimal``, exactly the digits ``int`` reads; not "²").
Whitespace is ignored everywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .freemodule import LinComb
from .loopgraphs import LEAF, LoopGraph
from .permutations import Permutation
from .subalgebras import Word

KINDS = ("graph-sum", "word", "permutation")


class ParseError(ValueError):
    def __init__(self, offset: int, message: str):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset
        self.reason = message


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ParseError(self.pos, message)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    # --- numbers ---

    def _digits(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            self.error("expected digits")
        return int(self.text[start:self.pos])

    def try_rational(self) -> int | Fraction | None:
        """Parse ["+"|"-"] int ["/" uint] if the input starts with one; else None.
        Only a written division gives a Fraction."""
        save = self.pos
        sign = 1
        ch = self.peek()
        if ch in ("+", "-"):
            sign = -1 if ch == "-" else 1
            self.pos += 1
        if not self.peek().isdecimal():
            self.pos = save
            return None
        num = self._digits()
        if self.peek() == "/":
            self.pos += 1
            den = self._digits()
            if den == 0:
                self.error("zero denominator")
            return Fraction(sign * num, den)
        return sign * num

    # --- atoms ---

    def parse_graph(self) -> LoopGraph:
        # Iterative, so that nesting depth is not bounded by the recursion
        # limit.  Each open vertex holds None until its left branch is read,
        # then (left branch, looped).
        open_vertices = []
        while True:
            ch = self.peek()
            if ch == "(":
                self.pos += 1
                open_vertices.append(None)
                continue
            if ch != "|":
                self.error("expected '|' or '('")
            self.pos += 1
            node = LEAF
            while open_vertices and open_vertices[-1] is not None:
                left, looped = open_vertices.pop()
                self.expect(")")
                node = LoopGraph(left, node, looped)
            if not open_vertices:
                return node
            mark = self.peek()
            if mark not in ("v", "o"):
                self.error("expected 'v' or 'o'")
            self.pos += 1
            open_vertices[-1] = (node, mark == "o")

    def parse_permutation(self) -> Permutation:
        self.expect("[")
        if self.peek() == "]":
            self.pos += 1
            return Permutation()
        word = [self._digits()]
        while self.peek() == ",":
            self.pos += 1
            word.append(self._digits())
        self.expect("]")
        here = self.pos
        try:
            return Permutation(tuple(word))
        except ValueError as e:
            raise ParseError(here, str(e)) from None

    def parse_word(self) -> Word:
        ch = self.peek()
        if ch == "1":
            self.pos += 1
            return Word("")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "TL":
            self.pos += 1
        if self.pos == start:
            self.error("expected a word over {T, L}")
        try:
            return Word(self.text[start:self.pos])
        except ValueError as e:
            raise ParseError(start, str(e)) from None

    def parse_atom(self, kind: str):
        if kind == "graph-sum":
            return self.parse_graph()
        if kind == "permutation":
            return self.parse_permutation()
        return self.parse_word()

    def parse_basis(self, kind: str):
        first = self.parse_atom(kind)
        if self.peek() != "@":
            return first
        factors = [first]
        while self.peek() == "@":
            self.pos += 1
            factors.append(self.parse_atom(kind))
        return tuple(factors)

    # --- sums ---

    def parse_term(self, kind: str):
        save = self.pos
        coeff = self.try_rational()
        if coeff is not None and self.peek() == "*":
            self.pos += 1
            return self.parse_basis(kind), coeff
        self.pos = save
        if self.peek() == "0":
            # A bare zero stands for the empty sum.
            if self._digits() != 0:
                self.error("expected '*' after a coefficient")
            return None, 0
        return self.parse_basis(kind), 1

    def parse_sum(self, kind: str) -> LinComb:
        # A sign is optional before the first term and required before each
        # later one.
        terms = []
        ch = self.peek()
        while True:
            if ch in ("+", "-"):
                self.pos += 1
            basis, coeff = self.parse_term(kind)
            if basis is not None:
                terms.append((basis, -coeff if ch == "-" else coeff))
            ch = self.peek()
            if ch not in ("+", "-"):
                return LinComb(terms)


def parse(text: str, kind: str) -> LinComb:
    """Parse a sum in the given grammar, one of KINDS; errors carry the
    failing offset."""
    if kind not in KINDS:
        raise ValueError(f"unknown expression kind {kind!r} (expected one of {KINDS})")
    p = _Parser(text)
    value = p.parse_sum(kind)
    if not p.at_end():
        p.error("unexpected trailing input")
    return value
