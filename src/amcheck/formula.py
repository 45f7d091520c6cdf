"""Alternating-time mu-calculus formulas.

Formulas are in negation normal form: negation only appears on atoms.  The
concrete syntax is

    true | false | p | ~p | f & g | f | g | [{1,2}] f | <{1,2}> f
         | X | mu X. f | nu X. f | (f)

where atoms start with a lowercase letter, variables with an uppercase one,
``&`` binds tighter than ``|``, and modalities and fixpoint binders extend
maximally to the right.  The parser rejects formulas nested deeper than
``MAX_DEPTH`` levels.

Reading a formula is one scan of its text and two walks of its tree.  The
text is split into tokens by regular expressions, with no Python work per
token, and a recursive descent builds the tree; ``parse_formula`` then checks
the tree and ``build_closure`` numbers its closure.  Both run the same
depth-bounded walk (``_scan``), the one place that computes free variables,
binder priorities and the first defect, so ``validate_formula``,
``free_vars`` and ``fixpoint_priorities`` answer from it as well.
"""

from __future__ import annotations

import itertools
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


MAX_DEPTH = 100
"""Deepest formula the parser accepts: no path from the root of the syntax
tree to a leaf passes more than MAX_DEPTH nodes, and no leaf of the text sits
inside more than MAX_DEPTH - 1 pairs of parentheses (parentheses build no
node).  Deeper input raises ParseError, and validate_formula, build_closure,
format_formula, free_vars and fixpoint_priorities reject deeper trees built in
code with FormulaError.  The limit keeps the recursive parser and the
recursive walks over the tree (checking and closure building, formatting)
well inside Python's recursion limit; the counting walks and coalitions_in
use no recursion and answer at any depth."""

_TOO_DEEP = f"formula nests deeper than {MAX_DEPTH} levels"
_NO_VARS: frozenset[str] = frozenset()


@dataclass
class _Scan:
    """What the one walk over a tree found; see _scan."""

    free: frozenset[str]
    priorities: dict[str, int]
    defect: str | None
    records: list[list]
    root: int


def _coalition_defect(coalition) -> str | None:
    if coalition and min(coalition) < 1:
        return f"agent ids must be positive: {coalition}"
    if tuple(sorted(set(coalition))) != coalition:
        return f"coalition not strictly ascending: {coalition}"
    return None


def _scan(f: Formula, closure: bool = False) -> _Scan:
    """The one walk behind validate_formula, free_vars, fixpoint_priorities
    and build_closure.  It visits every subterm occurrence once, children
    left to right, and raises FormulaError on reaching level MAX_DEPTH + 1,
    so its recursion stays bounded.  It finds

    - the free variables: those with an occurrence outside every binder of
      their name;
    - the priority of each binder's variable (see fixpoint_priorities);
    - the first defect other than a free variable, in preorder: a coalition
      with an agent below 1 or not strictly ascending, or a variable bound a
      second time anywhere in the tree;
    - with ``closure``, the closure records (kind, atom, coalition,
      children, priority, term) in node-id order, and the root's id (see
      build_closure).  A variable without a binder in scope points at id -1.
    """
    records: list[list] = []
    shared: dict[tuple, int] = {}
    env: dict[str, int] = {}  # variable -> node id of the binder in scope
    bound: set[str] = set()  # variables bound so far
    # variable -> highest priority of a finished binder the variable is free
    # in; a binder resets its own variable's entry while it walks its body.
    need: dict[str, int] = {}
    priorities: dict[str, int] = {}
    defect: str | None = None

    def node(key: tuple, t: Formula) -> int:
        if not closure:
            return 0
        nid = shared.get(key)
        if nid is None:
            nid = shared[key] = len(records)
            records.append([*key, 0, t])
        return nid

    def visit(t: Formula, depth: int) -> tuple[frozenset[str], int]:
        nonlocal defect
        if depth > MAX_DEPTH:
            raise FormulaError(_TOO_DEEP)
        cls = type(t)
        if cls is Var:
            return frozenset((t.name,)), env.get(t.name, -1)
        if cls is Atom:
            return _NO_VARS, node(("atom", t.name, None, ()), t)
        if cls is And or cls is Or:
            left_free, left = visit(t.left, depth + 1)
            right_free, right = visit(t.right, depth + 1)
            free = left_free | right_free if left_free and right_free else left_free or right_free
            return free, node(("and" if cls is And else "or", None, None, (left, right)), t)
        if cls is Enforce or cls is Allows:
            coalition = t.coalition
            problem = _coalition_defect(coalition)
            if problem:
                defect = defect or problem
                coalition = None  # the key must hash; the walk's caller raises anyway
            free, arg = visit(t.arg, depth + 1)
            return free, node(("enforce" if cls is Enforce else "allows", None, coalition, (arg,)), t)
        if cls is Mu or cls is Nu:
            # fixpoints are never shared: a clean formula binds each variable once
            x = t.var
            if x in bound:
                defect = defect or f"variable {x} bound twice"
            bound.add(x)
            nid = len(records)
            records.append(None)
            outer_binder, outer_need = env.get(x), need.get(x, 0)
            env[x], need[x] = nid, 0
            body_free, body = visit(t.body, depth + 1)
            dominated = need[x]
            need[x] = max(outer_need, dominated)
            if outer_binder is None:
                del env[x]
            else:
                env[x] = outer_binder
            priority = dominated if dominated % 2 == (cls is Mu) else dominated + 1
            priorities[x] = priority
            free = body_free - {x} if x in body_free else body_free
            for v in free:
                if need.get(v, 0) < priority:
                    need[v] = priority
            records[nid] = ["mu" if cls is Mu else "nu", None, None, (body,), priority, t]
            return free, nid
        if cls is NegAtom:
            return _NO_VARS, node(("negatom", t.name, None, ()), t)
        if cls is Top:
            return _NO_VARS, node(("top", None, None, ()), t)
        if cls is Bot:
            return _NO_VARS, node(("bot", None, None, ()), t)
        raise TypeError(f"not a formula: {t!r}")

    free, root = visit(f, 1)
    return _Scan(free, priorities, defect, records, root)


def _checked_scan(f: Formula, closure: bool = False) -> _Scan:
    scan = _scan(f, closure)
    if scan.free:
        raise FormulaError(f"unbound variable {min(scan.free)}")
    if scan.defect:
        raise FormulaError(scan.defect)
    return scan


def free_vars(f: Formula) -> frozenset[str]:
    """Variables with an occurrence outside every binder of their name.
    Trees deeper than MAX_DEPTH raise FormulaError."""
    return _scan(f).free


def validate_formula(f: Formula) -> None:
    """Reject, in this order of precedence, formulas nested deeper than
    MAX_DEPTH, open ones (naming the least unbound variable), and ones with
    a coalition not of positive agents in strictly ascending order or a
    variable bound twice (naming the first such defect in preorder)."""
    _checked_scan(f)


def fixpoint_priorities(f: Formula) -> dict[str, int]:
    """Priority per binder: the least value of the right parity (even for nu,
    odd for mu) that dominates every fixpoint subformula still mentioning the
    binder's variable.  Cleanness makes the variable name a valid key.
    Trees deeper than MAX_DEPTH raise FormulaError."""
    return _scan(f).priorities


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
    the rest of the line.  So each node above a leaf opens at most one pair,
    and a tree within MAX_DEPTH prints within the parser's limit on open
    parentheses.  Trees deeper than MAX_DEPTH raise FormulaError.
    """
    return _format(f, 1)


def _format(f: Formula, depth: int) -> str:
    if depth > MAX_DEPTH:
        raise FormulaError(_TOO_DEEP)
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
    depth += 1
    if isinstance(f, (And, Or)):
        op = "&" if isinstance(f, And) else "|"
        left = _format(f.left, depth)
        if isinstance(f.left, _PREFIX):
            left = "(" + left + ")"
        return f"({left} {op} {_format(f.right, depth)})"
    if isinstance(f, Enforce):
        return f"[{format_coalition(f.coalition)}] {_format(f.arg, depth)}"
    if isinstance(f, Allows):
        return f"<{format_coalition(f.coalition)}> {_format(f.arg, depth)}"
    if isinstance(f, Mu):
        return f"mu {f.var}. {_format(f.body, depth)}"
    return f"nu {f.var}. {_format(f.body, depth)}"


_KEYWORDS = {"true", "false", "mu", "nu"}
_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|\d+|[&|~\[\]<>{}(),.]")
# Whitespace and tokens from the start of the text; a match stops at the
# first character that can neither be skipped nor start a token.
_TOKENS_AND_SPACE = re.compile(rf"(?:[ \t\r\n]+|{_TOKEN.pattern})*")


class _Parser:
    """Recursive descent over the token texts.  The token list ends in None,
    so reading the current token needs no bounds check; token offsets are
    only worked out when an error needs a position."""

    def __init__(self, text: str):
        self.text = text
        end = _TOKENS_AND_SPACE.match(text).end()
        if end < len(text):
            raise ParseError(f"unexpected character {text[end]!r}", *self._linecol(end))
        self.tokens: list[str | None] = _TOKEN.findall(text)
        self.count = len(self.tokens)
        self.tokens.append(None)
        self.i = 0
        self.parens = 0  # parentheses being parsed
        self.prefixes = 0  # modalities and binders being parsed

    def _linecol(self, offset: int) -> tuple[int, int]:
        line = self.text.count("\n", 0, offset) + 1
        col = offset - (self.text.rfind("\n", 0, offset) + 1) + 1
        return line, col

    def _fail(self, message: str) -> None:
        if self.i < self.count:
            offset = next(itertools.islice(_TOKEN.finditer(self.text), self.i, None)).start()
        else:
            offset = len(self.text)
        raise ParseError(message, *self._linecol(offset))

    def take(self) -> str:
        tok = self.tokens[self.i]
        if tok is None:
            self._fail("unexpected end of input")
        self.i += 1
        return tok

    def expect(self, lexeme: str) -> None:
        if self.tokens[self.i] != lexeme:
            self._fail(f"expected {lexeme!r}")
        self.i += 1

    def _check_open(self, count: int) -> None:
        """Check a count of parentheses, or of modalities and binders, open at
        once.  At least a leaf lies inside them, so MAX_DEPTH of either kind
        already exceed the limit; failing before the inside is parsed keeps
        the parser's recursion bounded."""
        if count >= MAX_DEPTH:
            self._fail(_TOO_DEEP)

    def _deeper(self, depth: int) -> int:
        """Depth of one more level over a subformula of the given depth."""
        if depth >= MAX_DEPTH:
            self._fail(_TOO_DEEP)
        return depth + 1

    # Both methods return the parsed subformula and its depth.

    def formula(self) -> tuple[Formula, int]:
        """A disjunction of conjunctions of units, both operators associating
        to the left.  Each node is built, and its depth checked, on reaching
        the token after its right operand."""
        tokens = self.tokens
        disjunction = disjunction_depth = None  # the disjuncts before f
        f, depth = self.unit()
        while True:
            tok = tokens[self.i]
            if tok == "&":
                self.i += 1
                right, right_depth = self.unit()
                f, depth = And(f, right), self._deeper(max(depth, right_depth))
                continue
            if disjunction is not None:
                f, depth = Or(disjunction, f), self._deeper(max(disjunction_depth, depth))
            if tok != "|":
                return f, depth
            self.i += 1
            disjunction, disjunction_depth = f, depth
            f, depth = self.unit()

    def unit(self) -> tuple[Formula, int]:
        """A modality, binder, parenthesized formula, literal or variable."""
        tok = self.tokens[self.i]
        if tok is None:
            self._fail("unexpected end of input")
        first = tok[0]
        if first.islower() and tok not in _KEYWORDS:
            self.i += 1
            return Atom(tok), 1
        if first.isupper():
            self.i += 1
            return Var(tok), 1
        if tok == "[" or tok == "<":
            self.prefixes += 1
            self._check_open(self.prefixes)
            self.i += 1
            coalition = self.coalition()
            self.expect("]" if tok == "[" else ">")
            arg, depth = self.formula()
            self.prefixes -= 1
            modality = Enforce if tok == "[" else Allows
            return modality(coalition, arg), self._deeper(depth)
        if tok == "mu" or tok == "nu":
            self.prefixes += 1
            self._check_open(self.prefixes)
            self.i += 1
            var = self.take()
            if not var[0].isupper():
                self._fail("fixpoint variable must start uppercase")
            self.expect(".")
            body, depth = self.formula()
            self.prefixes -= 1
            binder = Mu if tok == "mu" else Nu
            return binder(var, body), self._deeper(depth)
        if tok == "(":
            self.parens += 1
            self._check_open(self.parens)
            self.i += 1
            inner, depth = self.formula()
            self.expect(")")
            self.parens -= 1
            return inner, depth
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
        self._fail(f"unexpected token {tok!r}")

    def coalition(self) -> tuple[int, ...]:
        self.expect("{")
        agents: list[int] = []
        if self.tokens[self.i] != "}":
            while True:
                tok = self.tokens[self.i] or ""  # read before taking, so errors point at it
                if not tok.isdigit():
                    self._fail("agent id expected")
                try:
                    agents.append(int(tok))
                except ValueError:  # more digits than int() reads
                    self._fail("agent id has too many digits")
                self.i += 1
                if self.tokens[self.i] != ",":
                    break
                self.i += 1
        self.expect("}")
        return tuple(sorted(set(agents)))


def parse_formula(text: str) -> Formula:
    """Parse a closed, clean formula; raise ParseError/FormulaError otherwise."""
    parser = _Parser(text)
    f, _ = parser.formula()
    if parser.i < parser.count:
        parser._fail("trailing input after formula")
    validate_formula(f)
    return f


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


def build_closure(f: Formula) -> ClosureGraph:
    """The closure of a formula that validate_formula accepts, raising what
    it raises otherwise.  Non-binder nodes are numbered after their children
    and a binder before its body, so every non-binder's children come first."""
    scan = _checked_scan(f, closure=True)
    nodes = tuple(ClosureNode(*record) for record in scan.records)
    return ClosureGraph(nodes=nodes, root=scan.root, max_priority=max(scan.priorities.values(), default=0))
