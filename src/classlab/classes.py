"""Group-class calculus: class expressions, membership, duals, audits.

A class expression denotes an isomorphism-closed collection of finite groups
as a decidable predicate.  The dual of a class C contains the groups none of
whose proper normal subgroups has quotient in C; the associated class of C
contains the groups built by iterated extensions with C-quotients.  Audits
check the closure properties (subgroups, quotients, extensions, fibered
products) relative to a finite catalog, and every such verdict is explicitly
catalog-relative.

Each operator of the expression language is one row of `_OPS`: the
converters that read and check its arguments, and its membership rule.  An
expression is a tree of one node type, `ClassExpr(op, *args)`; the parser
walks the table, and `ClassEval` evaluates a node by its row's rule.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .config import DEFAULT_CAPS, Caps
from .errors import CapExceeded, InvalidInput, ParseError
from .perm import PermGroup
from .structure import (
    IsoTypes,
    is_abelian,
    is_cyclic,
    is_nilpotent,
    is_p_group,
    is_simple,
    is_solvable,
    lattice_quotient,
    normal_subgroups,
    radical_factorization,
    subgroup_classes,
    subgroups,
    _is_prime,
    _prime_factors,
)
from .universe import Catalog, alternating, parse_group_spec


# ---------------------------------------------------------------------------
# Expression nodes


class ClassExpr:
    """One node of a class expression: an operator of `_OPS` and its
    arguments, already converted (primes, counts, group specs, nodes).

    The canonical text is computed once, when the node is built, and it is
    the node's identity: expressions are equal, and hash alike, exactly when
    their texts are, so `pi(3,2)` is `pi(2,3)`.  The text re-parses to an
    equal node, and `ClassEval` keys its memo by it.
    """

    __slots__ = ("op", "args", "_text")

    def __init__(self, op: str, *args):
        if op not in _OPS:
            raise InvalidInput(f"unknown class operator {op!r}")
        if op in ("pi", "set"):  # a set of primes or specs: one order, no repeats
            args = tuple(sorted(set(args)))
        self.op = op
        self.args = args
        self._text = f"{op}({','.join(map(str, args))})" if args else op

    def text(self) -> str:
        return self._text

    __str__ = text

    def __repr__(self) -> str:
        return f"ClassExpr({self._text!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, ClassExpr) and other._text == self._text

    def __hash__(self) -> int:
        return hash(self._text)


# ---------------------------------------------------------------------------
# Grammar: a name, then its arguments, each read by its row's converter


def parse_class_expr(text: str) -> ClassExpr:
    """Parse the class grammar, e.g. ``dual(union(set(C4,Q8),p(2)))``.

    Names are case-insensitive; `fnr` is read as `dual(solvable)`.  Text
    nested more than MAX_NESTING parentheses deep is refused, so parsing and
    evaluation stay far inside the interpreter's recursion limit.
    """
    m = re.match(r"\s*(\w*)\s*", text)
    name, pos = m.group(1).lower(), m.end()
    if not name:
        raise ParseError(f"expected a class name at position {pos} in {text!r}")
    args: list[str] = []
    if text.startswith("(", pos):
        args, pos = _split_args(text, pos)
    if text[pos:].strip():
        raise ParseError(f"trailing input {text[pos:]!r} in class expression")
    if name == "fnr":  # dual(solvable), by definition
        if args:
            raise ParseError("fnr takes no arguments")
        return ClassExpr("dual", ClassExpr("solvable"))
    if name not in _OPS:
        raise ParseError(f"unknown class name {name!r}")
    convs = _OPS[name][0]
    if convs[-1:] == (...,):  # one or more arguments, all read alike
        convs = convs[:1] * max(len(args), 1)
    if len(args) != len(convs):
        raise ParseError(f"{name} takes {len(convs)} argument(s), not {len(args)}")
    return ClassExpr(name, *(conv(a.strip()) for conv, a in zip(convs, args)))


# The deepest parenthesis nesting a class expression may have; a fixed bound
# with no flag.  Both `dual` and `hat` nested this deep evaluate on S5.
MAX_NESTING = 100

# The largest k of an iterated dual `dualn(C,k)`; a fixed bound with no flag.
MAX_DUAL_DEPTH = 5


def _split_args(text: str, pos: int) -> tuple[list[str], int]:
    """The top-level arguments of the parenthesis at `pos`, and the position
    after its closing parenthesis."""
    depth = 0
    args: list[str] = []
    buf: list[str] = []
    for i in range(pos, len(text)):
        ch = text[i]
        if ch == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise ParseError(f"class expression nests deeper than {MAX_NESTING} "
                                 f"parentheses")
            if depth > 1:
                buf.append(ch)
        elif ch == ")":
            depth -= 1
            if depth == 0:
                args.append("".join(buf))
                return args, i + 1
            buf.append(ch)
        elif ch == "," and depth == 1:
            args.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    raise ParseError(f"unbalanced parentheses in {text!r}")


def _int(arg: str) -> int:
    try:
        return int(arg)
    except ValueError:
        raise ParseError(f"non-integer argument {arg!r}") from None


def _prime(arg: str) -> int:
    p = _int(arg)
    if not _is_prime(p):
        raise ParseError(f"{p} is not prime")
    return p


def _positive(arg: str) -> int:
    n = _int(arg)
    if n < 1:
        raise ParseError(f"argument {n} needs n >= 1")
    return n


def _count(arg: str) -> int:
    k = _int(arg)
    if k < 0:
        raise ParseError(f"iteration count {k} needs k >= 0")
    return k


def _spec(arg: str) -> str:
    spec = arg if arg.lower().startswith("perm") else arg.upper()
    parse_group_spec(spec)
    return spec


# ---------------------------------------------------------------------------
# Evaluation


@dataclass
class AuditReport:
    """Outcome of one closure-property audit, relative to a catalog."""

    property_name: str
    class_text: str
    holds: bool
    counterexamples: list[dict]
    skipped: list[dict] = field(default_factory=list)
    domain: str = ""

    def to_json_dict(self) -> dict:
        return {
            "property": self.property_name,
            "class": self.class_text,
            "holds": self.holds,
            "counterexamples": self.counterexamples,
            "skipped": self.skipped,
            "domain": self.domain,
        }


class ClassEval:
    """Membership evaluator: verdicts memoized per isomorphism type.

    Groups are canonicalized to iso-type ids by an `IsoTypes` registry, and
    membership is evaluated on the registry's representative of the id (the
    first group seen of that type; classes are isomorphism-closed), so the
    lattice and quotients cached on it serve every copy.  `member_trace`,
    `dual_witness` and `hat_series` still read witnesses and series off the
    queried group itself.  The evaluator keeps only verdicts and the groups
    of its `set(...)` specs; lattices and quotients stay cached on their
    groups.
    """

    def __init__(self, caps: Caps = DEFAULT_CAPS):
        self.caps = caps
        self.types = IsoTypes(caps)
        self._memo: dict[tuple, bool] = {}
        self._finite_sets: dict[tuple[str, ...], list[PermGroup]] = {}

    def canon_id(self, G: PermGroup) -> int:
        return self.types.id_of(G)

    # -- membership ------------------------------------------------------

    def member(self, C: ClassExpr, G: PermGroup) -> bool:
        gid = self.canon_id(G)
        key = (C.text(), gid)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        value = _OPS[C.op][1](self, self.types.reps[gid], *C.args)
        self._memo[key] = value
        return value

    def _in_finite_set(self, G: PermGroup, *specs: str) -> bool:
        groups = self._finite_sets.get(specs)
        if groups is None:
            groups = self._finite_sets[specs] = [parse_group_spec(s) for s in specs]
        return any(G.order() == M.order() and self.canon_id(G) == self.canon_id(M)
                   for M in groups)

    def _alt_ge(self, G: PermGroup, n: int) -> bool:
        """A_m for some m >= n, or the trivial group."""
        order = G.order()
        if order == 1:
            return True
        m = max(n, 3)
        while True:
            alt_order = math.factorial(m) // 2
            if alt_order > order:
                return False
            if alt_order == order:
                return self.canon_id(G) == self.canon_id(alternating(m))
            m += 1

    def dual_witness(self, C: ClassExpr, G: PermGroup) -> PermGroup | None:
        """The least proper normal subgroup with quotient in C, else None.

        G is in the dual of C exactly when this returns None.
        """
        n = G.order()
        for idx, N in enumerate(normal_subgroups(G, self.caps).members):
            if N.order() == n:
                continue
            if self.member(C, lattice_quotient(G, idx, self.caps)):
                return N
        return None

    def hat_series(self, C: ClassExpr, G: PermGroup,
                   _above: int | None = None) -> list[PermGroup] | None:
        """An ascending subnormal chain from 1 to G with every step-quotient in C."""
        assert _above is None or G.order() < _above, "series recursion must descend"
        if G.order() == 1:
            return [G]
        hat_key = (ClassExpr("hat", C).text(), self.canon_id(G))
        if self._memo.get(hat_key) is False:
            return None
        for idx, N in enumerate(normal_subgroups(G, self.caps).members):
            if N.order() == G.order():
                continue
            if not self.member(C, lattice_quotient(G, idx, self.caps)):
                continue
            below = self.hat_series(C, N, G.order())
            if below is not None:
                self._memo[hat_key] = True
                return below + [G]
        self._memo[hat_key] = False
        return None

    # -- bidual characterizations ---------------------------------------

    def bidual_member_maxnormal(self, C: ClassExpr, G: PermGroup) -> bool:
        """True iff every maximal-normal quotient lies in C (vacuous for 1)."""
        if G.order() == 1:
            return True
        for idx, flag in enumerate(normal_subgroups(G, self.caps).maximal):
            if flag and not self.member(C, lattice_quotient(G, idx, self.caps)):
                return False
        return True

    def bidual_member_radical(self, C: ClassExpr, G: PermGroup) -> bool:
        """True iff every simple factor of the radical factorization lies in C."""
        if G.order() == 1:
            raise InvalidInput("the radical route needs a nontrivial group")
        fac = radical_factorization(G, self.caps)
        return all(self.member(C, Q) for Q in fac.quotients)

    def dual_chain_member(self, C: ClassExpr, G: PermGroup, k: int) -> bool:
        return self.member(ClassExpr("dualn", C, k), G)

    def _dual_iter(self, G: PermGroup, C: ClassExpr, k: int) -> bool:
        if k > MAX_DUAL_DEPTH:
            raise CapExceeded(f"dual-iteration depth {k} exceeds configured depth "
                              f"{MAX_DUAL_DEPTH}")
        for _ in range(k):
            C = ClassExpr("dual", C)
        return self.member(C, G)

    # -- tracing ---------------------------------------------------------

    def member_trace(self, C: ClassExpr, G: PermGroup) -> tuple[bool, dict]:
        """Membership plus an explanation: the failing normal subgroup for a
        dual, or the found series for an associated class."""
        value = self.member(C, G)
        trace: dict = {}
        if C.op == "dual" and not value:
            witness = self.dual_witness(C.args[0], G)
            assert witness is not None
            idx = normal_subgroups(G, self.caps).members.index(witness)
            Q = lattice_quotient(G, idx, self.caps)
            trace = {
                "witness_normal_order": witness.order(),
                "witness_normal_gens": witness.gen_strings(),
                "quotient_order": Q.order(),
            }
        elif C.op == "hat" and value:
            series = self.hat_series(C.args[0], G)
            assert series is not None
            trace = {"series_orders": [S.order() for S in series],
                     "series_gens": [S.gen_strings() for S in series]}
        return value, trace


# ---------------------------------------------------------------------------
# Operators: name -> (argument converters, membership rule)
#
# The parser reads each argument text with its converter, which checks it;
# `...` after a converter takes one or more arguments read alike.  The rule
# decides `G in op(*args)` as `rule(ev, G, *args)`, with `ev` the evaluator.

_OPS = {
    "trivial": ((), lambda ev, G: G.order() == 1),
    "all": ((), lambda ev, G: True),
    "abelian": ((), lambda ev, G: is_abelian(G)),
    "cyclic": ((), lambda ev, G: is_cyclic(G, ev.caps)),
    "nilpotent": ((), lambda ev, G: is_nilpotent(G)),
    "solvable": ((), lambda ev, G: is_solvable(G)),
    "simple": ((), lambda ev, G: is_simple(G, ev.caps)),
    "p": ((_prime,), lambda ev, G, p: is_p_group(G, p)),
    "pi": ((_prime, ...),
           lambda ev, G, *primes: all(q in primes for q in _prime_factors(G.order()))),
    "le": ((_positive,), lambda ev, G, n: G.order() <= n),
    "altge": ((_positive,), ClassEval._alt_ge),
    "set": ((_spec, ...), ClassEval._in_finite_set),
    "union": ((parse_class_expr, parse_class_expr),
              lambda ev, G, a, b: ev.member(a, G) or ev.member(b, G)),
    "inter": ((parse_class_expr, parse_class_expr),
              lambda ev, G, a, b: ev.member(a, G) and ev.member(b, G)),
    "dual": ((parse_class_expr,), lambda ev, G, a: ev.dual_witness(a, G) is None),
    "hat": ((parse_class_expr,), lambda ev, G, a: ev.hat_series(a, G) is not None),
    "dualn": ((parse_class_expr, _count), ClassEval._dual_iter),
}


# ---------------------------------------------------------------------------
# Audits


def audit_property(C: ClassExpr, catalog: Catalog, which: str,
                   ev: ClassEval | None = None) -> AuditReport:
    """Check one closure property of C over every catalog member.

    C0: members' subgroups stay in C.  C1: members' quotients stay in C.
    C2: an extension of a C-group by a C-group (both factors drawn from the
    catalog member's own normal structure) is in C.  C3: if two quotients
    G/H1, G/H2 are in C then so is G/(H1 ∩ H2).
    """
    if which not in ("C0", "C1", "C2", "C3"):
        raise InvalidInput(f"unknown closure property {which!r}")
    ev = ev if ev is not None else ClassEval()
    counterexamples: list[dict] = []
    skipped: list[dict] = []

    for entry in catalog.entries:
        G = entry.group
        try:
            if which == "C0":
                if not ev.member(C, G):
                    continue
                # Conjugates are isomorphic, so the first member of each
                # class decides for the whole class.
                subs = subgroups(G, caps=ev.caps)
                first = subgroup_classes(G, ev.caps)
                verdicts: list[bool] = []
                for pos, S in enumerate(subs):
                    verdicts.append(ev.member(C, S) if first[pos] == pos
                                    else verdicts[first[pos]])
                    if not verdicts[pos]:
                        counterexamples.append({
                            "group": entry.name,
                            "subgroup_order": S.order(),
                            "subgroup_gens": S.gen_strings(),
                        })
            elif which == "C1":
                if not ev.member(C, G):
                    continue
                for idx, N in enumerate(normal_subgroups(G, ev.caps).members):
                    Q = lattice_quotient(G, idx, ev.caps)
                    if not ev.member(C, Q):
                        counterexamples.append({
                            "group": entry.name,
                            "normal_order": N.order(),
                            "quotient_order": Q.order(),
                        })
            elif which == "C2":
                for idx, N in enumerate(normal_subgroups(G, ev.caps).members):
                    if not ev.member(C, N):
                        continue
                    Q = lattice_quotient(G, idx, ev.caps)
                    if ev.member(C, Q) and not ev.member(C, G):
                        counterexamples.append({
                            "group": entry.name,
                            "normal_order": N.order(),
                            "quotient_order": Q.order(),
                        })
            else:
                lat = normal_subgroups(G, ev.caps)
                in_c = [idx for idx in range(len(lat.members))
                        if ev.member(C, lattice_quotient(G, idx, ev.caps))]
                for pos, i in enumerate(in_c):
                    for j in in_c[pos:]:
                        meet = lat.meet(i, j)
                        if not ev.member(C, lattice_quotient(G, meet, ev.caps)):
                            counterexamples.append({
                                "group": entry.name,
                                "h1_order": lat.members[i].order(),
                                "h2_order": lat.members[j].order(),
                                "meet_order": lat.members[meet].order(),
                                "meet_quotient_order":
                                    lattice_quotient(G, meet, ev.caps).order(),
                            })
        except CapExceeded as exc:
            skipped.append({"group": entry.name, "reason": str(exc)})

    return AuditReport(
        property_name=which,
        class_text=C.text(),
        holds=not counterexamples,
        counterexamples=counterexamples,
        skipped=skipped,
        domain=f"catalog of {len(catalog)} groups "
               f"(sym_degree={catalog.provenance.get('sym_degree')})",
    )


_FLAG_RULES = {
    "pre_formation": ("C1",),
    "formation": ("C1", "C3"),
    "extensive_formation": ("C1", "C2", "C3"),
    "pre_variety": ("C0", "C1"),
    "extensive_variety": ("C0", "C1", "C2", "C3"),
}


def classify(C: ClassExpr, catalog: Catalog,
             ev: ClassEval | None = None) -> dict:
    """Taxonomy flags for C over the catalog, with the underlying audit reports."""
    ev = ev if ev is not None else ClassEval()
    reports = {which: audit_property(C, catalog, which, ev)
               for which in ("C0", "C1", "C2", "C3")}
    flags = {flag: all(reports[w].holds for w in needs)
             for flag, needs in _FLAG_RULES.items()}
    return {"class": C.text(), "flags": flags, "reports": reports}
