"""Alternating-time mu-calculus formulas.

Formulas are in negation normal form: negation only appears on atoms.  The
concrete syntax is

    true | false | p | ~p | f & g | f | g | [{1,2}] f | <{1,2}> f
         | X | mu X. f | nu X. f | (f)

where atoms start with a lowercase letter, variables with an uppercase one,
``&`` binds tighter than ``|``, and modalities and fixpoint binders extend
maximally to the right.  The parser rejects formulas nested deeper than
``MAX_DEPTH`` levels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import FormulaError, ParseError


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class NegAtom:
    name: str


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Enforce:
    """[C] f: the coalition has a joint move forcing f everywhere."""

    coalition: tuple[int, ...]
    arg: "Formula"


@dataclass(frozen=True)
class Allows:
    """<C> f: the coalition cannot avoid f; every joint move allows it."""

    coalition: tuple[int, ...]
    arg: "Formula"


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Mu:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Nu:
    var: str
    body: "Formula"


Formula = Top | Bot | Atom | NegAtom | And | Or | Enforce | Allows | Var | Mu | Nu

_PREFIX = (Enforce, Allows, Mu, Nu)


def _children(f: Formula) -> tuple:
    """Direct subformulas, left to right."""
    if isinstance(f, (And, Or)):
        return (f.left, f.right)
    if isinstance(f, (Enforce, Allows)):
        return (f.arg,)
    if isinstance(f, (Mu, Nu)):
        return (f.body,)
    return ()


def _subterms(f: Formula):
    """Every subterm occurrence in preorder, left subtree first, walked on an
    explicit stack, so a tree of any depth is safe to walk."""
    stack = [f]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(reversed(_children(t)))


def free_vars(f: Formula) -> frozenset[str]:
    """Variables with an occurrence outside every binder of their name.
    Trees deeper than MAX_DEPTH raise FormulaError."""
    _check_depth(f)
    return _free_vars(f)


def _free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Var):
        return frozenset((f.name,))
    free = frozenset().union(*map(_free_vars, _children(f)))
    return free - {f.var} if isinstance(f, (Mu, Nu)) else free


def _check_depth(f: Formula) -> None:
    """Reject a tree with a root-to-leaf path of more than MAX_DEPTH nodes.
    The walk goes one level at a time without recursion, so a tree of any
    depth is safe to check, and it stops at level MAX_DEPTH + 1."""
    level = [f]
    for _ in range(MAX_DEPTH):
        level = [child for t in level for child in _children(t)]
        if not level:
            return
    raise FormulaError(f"formula nests deeper than {MAX_DEPTH} levels")


def validate_formula(f: Formula) -> None:
    """Reject formulas nested deeper than MAX_DEPTH, and open or unclean
    ones (every variable bound at most once)."""
    free = free_vars(f)
    if free:
        raise FormulaError(f"unbound variable {sorted(free)[0]}")
    seen: set[str] = set()
    for t in _subterms(f):
        if isinstance(t, (Enforce, Allows)):
            if any(a < 1 for a in t.coalition):
                raise FormulaError(f"agent ids must be positive: {t.coalition}")
            if tuple(sorted(set(t.coalition))) != t.coalition:
                raise FormulaError(f"coalition not strictly ascending: {t.coalition}")
        elif isinstance(t, (Mu, Nu)):
            if t.var in seen:
                raise FormulaError(f"variable {t.var} bound twice")
            seen.add(t.var)


def connective_count(f: Formula) -> int:
    """Number of connectives; leaves contribute nothing."""
    return sum(1 for t in _subterms(f) if _children(t))


def syntactic_size(f: Formula) -> int:
    """Connectives plus leaves."""
    return sum(1 for _ in _subterms(f))


def coalitions_in(f: Formula) -> set[tuple[int, ...]]:
    """All coalitions mentioned by modalities, for restricted conversion."""
    return {t.coalition for t in _subterms(f) if isinstance(t, (Enforce, Allows))}


def format_coalition(coalition: tuple[int, ...]) -> str:
    return "{" + ",".join(str(a) for a in coalition) + "}"


def format_formula(f: Formula) -> str:
    """Render text that parses back to the same tree.

    Binary nodes carry their own parentheses; a prefix form only needs them
    when it sits left of a binary operator, where it would otherwise swallow
    the rest of the line.  Trees deeper than MAX_DEPTH raise FormulaError.
    """
    _check_depth(f)
    return _format(f)


def _format(f: Formula) -> str:
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, NegAtom):
        return "~" + f.name
    if isinstance(f, Var):
        return f.name
    if isinstance(f, (And, Or)):
        op = "&" if isinstance(f, And) else "|"
        left = _format(f.left)
        if isinstance(f.left, _PREFIX):
            left = "(" + left + ")"
        return f"({left} {op} {_format(f.right)})"
    if isinstance(f, Enforce):
        return f"[{format_coalition(f.coalition)}] {_format(f.arg)}"
    if isinstance(f, Allows):
        return f"<{format_coalition(f.coalition)}> {_format(f.arg)}"
    if isinstance(f, Mu):
        return f"mu {f.var}. {_format(f.body)}"
    return f"nu {f.var}. {_format(f.body)}"


_KEYWORDS = {"true", "false", "mu", "nu"}
_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|\d+|[&|~\[\]<>{}(),.]")
_SPACE = re.compile(r"[ \t\r\n]*")


MAX_DEPTH = 100
"""Deepest formula the parser accepts: no path from the root of the syntax
tree to a leaf passes more than MAX_DEPTH nodes, where each pair of
parentheses counts as one more level.  Deeper input raises ParseError, and
validate_formula, build_closure, format_formula, free_vars and
fixpoint_priorities reject deeper trees built in code with FormulaError.  The
limit keeps the recursive parser and the recursive passes over the tree (free
variables, priorities, closure building, formatting) well inside Python's
recursion limit; the counting walks and coalitions_in use no recursion and
answer at any depth."""


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, int]] = []  # (lexeme, offset)
        pos = 0
        while True:
            pos = _SPACE.match(text, pos).end()
            if pos >= len(text):
                break
            m = _TOKEN.match(text, pos)
            if not m:
                raise ParseError(f"unexpected character {text[pos]!r}", *self._linecol(pos))
            self.tokens.append((m.group(), pos))
            pos = m.end()
        self.i = 0
        self.open = 0  # modalities, binders and parentheses being parsed

    def _linecol(self, offset: int) -> tuple[int, int]:
        line = self.text.count("\n", 0, offset) + 1
        col = offset - (self.text.rfind("\n", 0, offset) + 1) + 1
        return line, col

    def _fail(self, message: str) -> None:
        offset = self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)
        raise ParseError(message, *self._linecol(offset))

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def take(self) -> str:
        if self.i >= len(self.tokens):
            self._fail("unexpected end of input")
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def expect(self, lexeme: str) -> None:
        if self.peek() != lexeme:
            self._fail(f"expected {lexeme!r}")
        self.i += 1

    def _enter(self) -> None:
        """Open a modality, binder or parenthesis: each adds one level to
        every path through it, so more than MAX_DEPTH open at once already
        exceed the limit."""
        self.open += 1
        if self.open > MAX_DEPTH:
            self._fail(f"formula nests deeper than {MAX_DEPTH} levels")

    def _deeper(self, depth: int) -> int:
        """Depth of one more level over a subformula of the given depth."""
        if depth >= MAX_DEPTH:
            self._fail(f"formula nests deeper than {MAX_DEPTH} levels")
        return depth + 1

    # Every method returns the parsed subformula and its depth.

    def formula(self) -> tuple[Formula, int]:
        left, depth = self.conjunction()
        while self.peek() == "|":
            self.i += 1
            right, right_depth = self.conjunction()
            left, depth = Or(left, right), self._deeper(max(depth, right_depth))
        return left, depth

    def conjunction(self) -> tuple[Formula, int]:
        left, depth = self.prefixed()
        while self.peek() == "&":
            self.i += 1
            right, right_depth = self.prefixed()
            left, depth = And(left, right), self._deeper(max(depth, right_depth))
        return left, depth

    def prefixed(self) -> tuple[Formula, int]:
        tok = self.peek()
        if tok in ("[", "<"):
            self._enter()
            self.i += 1
            coalition = self.coalition()
            self.expect("]" if tok == "[" else ">")
            arg, depth = self.formula()
            self.open -= 1
            modality = Enforce if tok == "[" else Allows
            return modality(coalition, arg), self._deeper(depth)
        if tok in ("mu", "nu"):
            self._enter()
            self.i += 1
            var = self.take()
            if not var[0].isupper():
                self._fail("fixpoint variable must start uppercase")
            self.expect(".")
            body, depth = self.formula()
            self.open -= 1
            binder = Mu if tok == "mu" else Nu
            return binder(var, body), self._deeper(depth)
        return self.atomic()

    def atomic(self) -> tuple[Formula, int]:
        tok = self.peek()
        if tok is None:
            self._fail("unexpected end of input")
        if tok == "(":
            self._enter()
            self.i += 1
            inner, depth = self.formula()
            self.expect(")")
            self.open -= 1
            return inner, self._deeper(depth)
        if tok == "~":
            self.i += 1
            name = self.take()
            if not name[0].islower() or name in _KEYWORDS:
                self._fail("negation applies to an atom")
            return NegAtom(name), 1
        if tok == "true":
            self.i += 1
            return Top(), 1
        if tok == "false":
            self.i += 1
            return Bot(), 1
        if tok[0].isupper():
            self.i += 1
            return Var(tok), 1
        if tok[0].islower() and tok not in _KEYWORDS:
            self.i += 1
            return Atom(tok), 1
        self._fail(f"unexpected token {tok!r}")

    def coalition(self) -> tuple[int, ...]:
        self.expect("{")
        agents: list[int] = []
        if self.peek() != "}":
            while True:
                tok = self.take()
                if not tok.isdigit():
                    self._fail("agent id expected")
                agents.append(int(tok))
                if self.peek() != ",":
                    break
                self.i += 1
        self.expect("}")
        return tuple(sorted(set(agents)))


def parse_formula(text: str) -> Formula:
    """Parse a closed, clean formula; raise ParseError/FormulaError otherwise."""
    parser = _Parser(text)
    f, _ = parser.formula()
    if parser.i < len(parser.tokens):
        parser._fail("trailing input after formula")
    validate_formula(f)
    return f


def fixpoint_priorities(f: Formula) -> dict[str, int]:
    """Priority per binder: the least value of the right parity (even for nu,
    odd for mu) that dominates every fixpoint subformula still mentioning the
    binder's variable.  Cleanness makes the variable name a valid key.
    Trees deeper than MAX_DEPTH raise FormulaError."""
    _check_depth(f)
    priorities: dict[str, int] = {}

    def walk(t: Formula) -> tuple[frozenset[str], list[tuple[int, frozenset[str]]]]:
        if isinstance(t, Var):
            return frozenset((t.name,)), []
        free, below = frozenset(), []  # (priority, free variables) per binder below
        for child in _children(t):
            child_free, child_below = walk(child)
            free, below = free | child_free, below + child_below
        if isinstance(t, (Mu, Nu)):
            dominated = max((p for p, fv in below if t.var in fv), default=0)
            want_odd = isinstance(t, Mu)
            prio = dominated if dominated % 2 == int(want_odd) else dominated + 1
            priorities[t.var] = prio
            free = free - {t.var}
            below = below + [(prio, free)]
        return free, below

    walk(f)
    return priorities


@dataclass(frozen=True)
class ClosureNode:
    """One closure member: its kind and data, its children's node ids, and
    the source subterm it was built from.  The label text is rendered from
    that subterm when first read."""

    kind: str  # top bot atom negatom and or enforce allows mu nu
    atom: str | None
    coalition: tuple[int, ...] | None
    children: tuple[int, ...]
    priority: int
    term: Formula

    @cached_property
    def label(self) -> str:
        return format_formula(self.term)


@dataclass(frozen=True)
class ClosureGraph:
    """Closure members as a graph: the syntax tree with every variable
    occurrence replaced by an edge back to its binder, and identical
    non-binder subterms shared.  Node count never exceeds the syntactic
    size of the source formula."""

    nodes: tuple[ClosureNode, ...]
    root: int
    max_priority: int

    def __len__(self) -> int:
        return len(self.nodes)

    def unfold(self, node_id: int) -> int:
        """Body of a fixpoint node; unfolding re-enters through the binder."""
        node = self.nodes[node_id]
        if node.kind not in ("mu", "nu"):
            raise FormulaError(f"node {node_id} ({node.label}) is not a fixpoint")
        return node.children[0]


def build_closure(f: Formula) -> ClosureGraph:
    validate_formula(f)
    priorities = fixpoint_priorities(f)
    records: list[list] = []  # kind, atom, coalition, children, priority, term
    shared: dict[tuple, int] = {}

    def node(t: Formula, kind: str, atom=None, coalition=None, children=()) -> int:
        key = (kind, atom, coalition, children)
        if key not in shared:
            shared[key] = len(records)
            records.append([kind, atom, coalition, children, 0, t])
        return shared[key]

    def go(t: Formula, env: dict[str, int]) -> int:
        if isinstance(t, Var):
            return env[t.name]
        if isinstance(t, Top):
            return node(t, "top")
        if isinstance(t, Bot):
            return node(t, "bot")
        if isinstance(t, Atom):
            return node(t, "atom", t.name)
        if isinstance(t, NegAtom):
            return node(t, "negatom", t.name)
        if isinstance(t, (And, Or)):
            kind = "and" if isinstance(t, And) else "or"
            return node(t, kind, children=(go(t.left, env), go(t.right, env)))
        if isinstance(t, (Enforce, Allows)):
            kind = "enforce" if isinstance(t, Enforce) else "allows"
            return node(t, kind, coalition=t.coalition, children=(go(t.arg, env),))
        # fixpoints are never shared: a clean formula binds each variable once
        nid = len(records)
        records.append(["mu" if isinstance(t, Mu) else "nu", None, None, (), priorities[t.var], t])
        records[nid][3] = (go(t.body, {**env, t.var: nid}),)
        return nid

    root = go(f, {})
    nodes = tuple(ClosureNode(*record) for record in records)
    return ClosureGraph(nodes=nodes, root=root, max_priority=max(n.priority for n in nodes))
