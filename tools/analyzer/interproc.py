"""Interprocedural model: cross-TU call graph + lock acquisition-order
graph for the SA008/SA009 rules.

Built once per analyzer run from every TU's facts (the same two-pass
`RepoContext` flow the per-access rules use — pass 1 parses all TUs,
pass 2 runs rules), so cycles that only close across translation units
are visible. The model is frontend-agnostic: function spans come from
the shared `facts.scan_structure` scanner, and call resolution prefers
the libclang frontend's semantic `Call.callee_qual` when present,
falling back to qualified-name heuristics (receiver declaration types,
receiver-name/class-name affinity, own-class methods, repo-unique
names) for the lite frontend. A receiver's declared type comes from the
TU's declarations or, for a member of the caller's class, from the
class body; a receiver whose declared type is known never resolves to
another class's method. Resolution is deliberately
under-approximate: an ambiguous callee resolves to nothing rather than
to everything, so the lock graph never grows edges from guesses.

Lock graph semantics (lockdep-style):
  - Nodes are mutexes qualified by owning class (`WordRing::mu_`);
    a mutex held in a vector is one node — per-element ordering inside
    one vector is out of scope.
  - An edge A -> B means "B was (or may be) acquired while A was held":
    lexically (guard B declared inside guard A's scope) or through a
    call chain (A held at a call whose transitive callee closure
    blocks on B).
  - try_to_lock / defer_lock acquisitions never form edge
    *destinations* (a failed try returns instead of blocking) but do
    act as sources once held.
  - condition_variable waits are release points: `wait`/`wait_for`/
    `wait_until` calls never propagate held sets into callees, and
    wait predicates are lambdas, which always detach (a lambda body is
    its own function span — deferred callbacks do not run under the
    caller's locks; the canonical empty-critical-section notify idiom
    therefore contributes no edges).
  - `// trng-analyzer: lock-order(a, b)` adds a declared edge a -> b,
    so one observed reverse acquisition closes a cycle even before a
    second code path exists.

Cycles are strongly connected components of the edge set; every
*observed* edge inside an SCC is reported at its acquisition site (so a
cross-TU cycle fires once in each participating TU), falling back to
the declared-annotation sites for a purely declared contradiction.
"""

from __future__ import annotations

import dataclasses
import re

from . import facts

_WAITISH = {"wait", "wait_for", "wait_until", "notify_one", "notify_all"}

# A mutex-typed member declaration inside a class span. The lazy middle
# cannot cross statement or call punctuation, so guard locals inside
# inline method bodies (`std::lock_guard<std::mutex> lk(mu_);`) and
# mutex reference parameters never match; members do, plain
# (WordRing's `mutable std::mutex mu_;`) or wrapped in a container.
_MUTEX_MEMBER_RE = re.compile(r"\bmutex\b[^;{}()=]*?\s(\w+)\s*;")

_NONBLOCKING_ACQ_RE = re.compile(r"\btry_to_lock\b|\bdefer_lock\b")

# A one-line trailing-underscore member declaration inside a class span
# (`std::vector<SessionHandle> sessions_;`, `WordRing ring_{64};`): the
# type text, then the member name, then `;`, `=`, `{` or `[`.
_MEMBER_DECL_RE = re.compile(
    r"\s*(?:(?:mutable|static|const|constexpr|inline)\s+)*"
    r"([A-Za-z_][\w:]*(?:<[^;{}()]*>)?[\s*&]+)(\w+_)\s*[;={\[]")
# Statement keywords the declaration pattern would otherwise read as a
# type (`return head_;`).
_NOT_A_TYPE = {"return", "delete", "throw", "else", "case", "goto",
               "co_return", "co_yield", "new", "sizeof"}


def _camel_suffixes(cls: str) -> set[str]:
    """The class name's trailing CamelCase words, lowercased and joined:
    `WordRing` -> {"ring", "wordring"}."""
    words = re.findall(r"[A-Z][a-z0-9]*|[a-z0-9]+", cls)
    return {"".join(words[i:]).lower() for i in range(len(words))}


def _receiver_forms(tail: str) -> set[str]:
    """The receiver name's trailing snake_case words, joined, with and
    without a plural `s`: `shard_rings_` -> {"rings", "ring",
    "shardrings", "shardring"}."""
    words = [w for w in tail.rstrip("_").lower().split("_") if w]
    forms = {"".join(words[i:]) for i in range(len(words))}
    return forms | {f[:-1] for f in forms if len(f) > 1 and f.endswith("s")}


@dataclasses.dataclass(frozen=True)
class LockEdge:
    src: str             # qualified mutex held
    dst: str             # qualified mutex acquired under it
    rel: str             # TU of the acquisition site ("" for declared)
    line: int
    via: str | None      # callee qual when the edge crosses a call
    declared: bool


class _Func:
    """A FuncDef plus its attributed facts. `res_cls` is the class
    context used for receiver-less call resolution: the FuncDef's own
    class, or — for lambdas and anonymous spans, whose bodies run with
    the enclosing method's `this` captured — the enclosing function's
    class."""

    __slots__ = ("rel", "fd", "guards", "calls", "atomic_ops", "tu",
                 "res_cls")

    def __init__(self, tu, fd):
        self.tu = tu
        self.rel = str(tu.rel)
        self.fd = fd
        self.guards = []
        self.calls = []
        self.atomic_ops = []
        self.res_cls = fd.cls

    @property
    def qual(self):
        return self.fd.qual

    @property
    def cls(self):
        return self.fd.cls


def _innermost(funcs, line):
    best = None
    for f in funcs:
        fd = f.fd
        if fd.start_line <= line <= fd.end_line:
            if best is None or (fd.end_line - fd.start_line) < \
                    (best.fd.end_line - best.fd.start_line):
                best = f
    return best


class Model:
    """Repo-wide interprocedural model; build once, query per rule."""

    def __init__(self, tus):
        self.tus = list(tus)
        self.funcs: list[_Func] = []
        self.by_qual: dict[str, list[_Func]] = {}
        self.by_name: dict[str, list[_Func]] = {}
        self.lambda_by_tu_name: dict[tuple[str, str], list[_Func]] = {}
        self.mutex_members: dict[str, set[str]] = {}
        self.class_names: set[str] = set()
        self._decl_types: dict[str, dict[str, str]] = {}
        self._member_types: dict[tuple[str, str], str] = {}
        self._stripped_lines: dict[str, list[str]] = {}
        self._blocking_closure: dict[int, frozenset] = {}
        self._build()
        self.edges: list[LockEdge] = []
        self._build_edges()
        self._sa008: dict[str, list[tuple[int, str]]] | None = None

    # ------------------------------------------------------------ build

    def _build(self):
        for tu in self.tus:
            rel = str(tu.rel)
            self._decl_types[rel] = tu.decl_types()
            self._stripped_lines[rel] = tu.stripped.splitlines()
            for cs in tu.classes:
                self.class_names.add(cs.name)
            self._scan_mutex_members(tu)
            self._scan_member_types(tu)
            per_tu = []
            for fd in tu.funcs:
                f = _Func(tu, fd)
                self.funcs.append(f)
                per_tu.append(f)
                if fd.kind == "fn" and fd.name:
                    self.by_qual.setdefault(fd.qual, []).append(f)
                    self.by_name.setdefault(fd.name, []).append(f)
                elif fd.kind == "lambda" and fd.name:
                    self.lambda_by_tu_name.setdefault(
                        (rel, fd.name), []).append(f)
            for g in tu.guards:
                f = _innermost(per_tu, g.line)
                if f is not None:
                    f.guards.append(g)
            for c in tu.calls:
                f = _innermost(per_tu, c.line)
                if f is not None:
                    f.calls.append(c)
            for op in tu.atomic_ops:
                f = _innermost(per_tu, op.line)
                if f is not None:
                    f.atomic_ops.append(op)
            # Lambda class context: innermost enclosing named function.
            named = [f for f in per_tu if f.fd.kind == "fn"]
            for f in per_tu:
                if f.fd.kind == "fn":
                    continue
                encl = None
                for g in named:
                    if g.fd.start_line <= f.fd.start_line and \
                            f.fd.end_line <= g.fd.end_line:
                        if encl is None or \
                                (g.fd.end_line - g.fd.start_line) < \
                                (encl.fd.end_line - encl.fd.start_line):
                            encl = g
                if encl is not None:
                    f.res_cls = encl.fd.cls

    def _scan_mutex_members(self, tu):
        text = tu.stripped
        spans = []
        for cs in tu.classes:
            spans.append(cs)
        for m in _MUTEX_MEMBER_RE.finditer(text):
            line = facts.line_of(text, m.start())
            owner = None
            for cs in spans:
                if cs.start_line <= line <= cs.end_line:
                    if owner is None or (cs.end_line - cs.start_line) < \
                            (owner.end_line - owner.start_line):
                        owner = cs
            if owner is not None:
                self.mutex_members.setdefault(
                    m.group(1), set()).add(owner.name)

    def _scan_member_types(self, tu):
        """Records (class, member) -> declared type text for one-line
        member declarations; the innermost class span owns each line."""
        lines = tu.stripped.splitlines()
        owner_of: dict[int, object] = {}
        for cs in tu.classes:
            for line in range(cs.start_line, cs.end_line + 1):
                owner = owner_of.get(line)
                if owner is None or (cs.end_line - cs.start_line) < \
                        (owner.end_line - owner.start_line):
                    owner_of[line] = cs
        for line, cs in owner_of.items():
            if not 1 <= line <= len(lines):
                continue
            m = _MEMBER_DECL_RE.match(lines[line - 1])
            if m and m.group(1).split()[0] not in _NOT_A_TYPE:
                self._member_types[(cs.name, m.group(2))] = \
                    m.group(1).strip()

    # ---------------------------------------------------- qualification

    def qualify_mutex(self, expr: str, cls: str | None,
                      rel: str | None) -> str | None:
        """Qualified lock-graph node for a mutex expression: the owning
        class is (in priority order) the enclosing function's class when
        it declares the member, the receiver base's declared type, or
        the repo-unique owner; a never-declared name stays bare."""
        if not expr:
            return None
        if "::" in expr and "(" not in expr:
            return expr.strip()
        e = expr.strip().lstrip("*&").strip()
        tail = facts.tail_name(e)
        if tail is None:
            return None
        owners = self.mutex_members.get(tail, set())
        if cls and cls in owners:
            return f"{cls}::{tail}"
        base = facts.head_name(e)
        if base and base != tail and rel is not None:
            t = self._decl_types.get(rel, {}).get(base, "")
            for owner in owners:
                if owner in t:
                    return f"{owner}::{tail}"
        if len(owners) == 1:
            return f"{next(iter(owners))}::{tail}"
        return tail

    def _nonblocking(self, rel: str, line: int) -> bool:
        lines = self._stripped_lines.get(rel, [])
        if 1 <= line <= len(lines):
            return bool(_NONBLOCKING_ACQ_RE.search(lines[line - 1]))
        return False

    # ------------------------------------------------------- resolution

    def resolve(self, call, caller: _Func) -> list[_Func]:
        if call.callee in _WAITISH:
            return []
        if call.callee_qual is not None:
            return self.by_qual.get(call.callee_qual, [])
        name = call.callee
        lam = self.lambda_by_tu_name.get((caller.rel, name))
        if lam:
            return lam
        cands = self.by_name.get(name, [])
        if not cands:
            return []
        if len(cands) == 1:
            f = cands[0]
            if f.cls is None:
                return cands
            if call.recv is not None:
                # `sessions_.push_back` must not resolve to the repo's
                # only `push_back` when `sessions_` is declared a vector.
                t = self._root_receiver_type(call, caller)
                if t and "auto" not in t and f.cls not in t:
                    return []
                return cands
            # Receiver-less call to a unique *method*: only an own-class
            # call qualifies — `::close(fd)` (POSIX) must not resolve to
            # `WordRing::close` just because the name is repo-unique.
            return cands if caller.res_cls == f.cls else []
        if call.recv:
            base = facts.head_name(call.recv)
            tail = facts.tail_name(call.recv)
            if base:
                t = self._declared_type(base, caller)
                typed = [f for f in cands if f.cls and f.cls in t]
                if typed and len({f.cls for f in typed}) == 1:
                    return typed
            known = self._root_receiver_type(call, caller)
            if known and "auto" not in known:
                return []  # declared as none of the candidates' classes
            if tail:
                # The receiver's trailing words name its type's trailing
                # words: `ring_` and `shard_ring_` are a `WordRing`, but
                # `words_` is not.
                forms = _receiver_forms(tail)
                affine = [f for f in cands if f.cls and
                          forms & _camel_suffixes(f.cls)]
                if affine and len({f.cls for f in affine}) == 1:
                    return affine
            return []
        own = [f for f in cands if f.cls and f.cls == caller.res_cls]
        return own

    def _declared_type(self, name: str, caller: _Func) -> str:
        """Declared type text of `name` as the caller sees it: a TU-local
        declaration, else a member of the caller's class; "" if unknown."""
        t = self._decl_types.get(caller.rel, {}).get(name)
        if t is None and caller.res_cls:
            t = self._member_types.get((caller.res_cls, name))
        return t or ""

    def _root_receiver_type(self, call, caller: _Func) -> str:
        """Declared type of a receiver that is a plain (possibly
        subscripted) name; "" for member chains, whose last link's type
        the root's declaration does not give."""
        base = facts.head_name(call.recv)
        if not base or base != facts.tail_name(call.recv):
            return ""
        return self._declared_type(base, caller)

    # ------------------------------------------------------- lock graph

    def blocking_closure(self, f: _Func, _stack=None) -> frozenset:
        """Qualified mutexes a call into f may block on, transitively."""
        key = id(f)
        memo = self._blocking_closure
        if key in memo:
            return memo[key]
        stack = _stack if _stack is not None else set()
        if key in stack:
            return frozenset()
        stack.add(key)
        acc = set()
        for g in f.guards:
            if self._nonblocking(f.rel, g.line):
                continue
            q = self.qualify_mutex(g.mutex, f.res_cls, f.rel)
            if q:
                acc.add(q)
        for c in f.calls:
            for t in self.resolve(c, f):
                acc |= self.blocking_closure(t, stack)
        stack.discard(key)
        memo[key] = frozenset(acc)
        return memo[key]

    def _build_edges(self):
        seen = set()

        def add(src, dst, rel, line, via, declared):
            if src == dst:
                return
            key = (src, dst, rel, line, declared)
            if key in seen:
                return
            seen.add(key)
            self.edges.append(LockEdge(
                src=src, dst=dst, rel=rel, line=line, via=via,
                declared=declared))

        for f in self.funcs:
            quals = {}
            for g in f.guards:
                quals[id(g)] = self.qualify_mutex(g.mutex, f.res_cls, f.rel)
            # Lexical nesting: guard g2 acquired inside g1's scope.
            for g1 in f.guards:
                q1 = quals[id(g1)]
                if q1 is None:
                    continue
                for g2 in f.guards:
                    if g2 is g1 or self._nonblocking(f.rel, g2.line):
                        continue
                    q2 = quals[id(g2)]
                    if q2 is None:
                        continue
                    if g1.line < g2.line <= g1.scope_end_line:
                        add(q1, q2, f.rel, g2.line, None, False)
            # Call propagation: held guards x callee blocking closure.
            for c in f.calls:
                targets = self.resolve(c, f)
                if not targets:
                    continue
                held = [g for g in f.guards
                        if g.line <= c.line <= g.scope_end_line]
                if not held:
                    continue
                for t in targets:
                    for q2 in self.blocking_closure(t):
                        for g in held:
                            q1 = quals[id(g)]
                            if q1 is not None:
                                add(q1, q2, f.rel, c.line, t.qual, False)

        for tu in self.tus:
            rel = str(tu.rel)
            for ann in tu.lock_order_annots:
                cls = None
                for cs in tu.classes:
                    if cs.start_line <= ann.line <= cs.end_line:
                        if cls is None or (cs.end_line - cs.start_line) < \
                                (cls.end_line - cls.start_line):
                            cls = cs
                cname = cls.name if cls else None

                def qual_ann(name):
                    if "::" in name:
                        return name
                    if cname and cname in self.mutex_members.get(
                            name, set()):
                        return f"{cname}::{name}"
                    owners = self.mutex_members.get(name, set())
                    if len(owners) == 1:
                        return f"{next(iter(owners))}::{name}"
                    return name

                add(qual_ann(ann.first), qual_ann(ann.second),
                    rel, ann.line, None, True)

    # ------------------------------------------------------------ cycles

    def _sccs(self):
        nodes = sorted({e.src for e in self.edges} |
                       {e.dst for e in self.edges})
        adj = {n: set() for n in nodes}
        for e in self.edges:
            adj[e.src].add(e.dst)
        index = {}
        low = {}
        on_stack = set()
        stack = []
        sccs = []
        counter = [0]

        for root in nodes:
            if root in index:
                continue
            work = [(root, iter(sorted(adj[root])))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for nxt in it:
                    if nxt not in index:
                        index[nxt] = low[nxt] = counter[0]
                        counter[0] += 1
                        stack.append(nxt)
                        on_stack.add(nxt)
                        work.append((nxt, iter(sorted(adj[nxt]))))
                        advanced = True
                        break
                    if nxt in on_stack:
                        low[node] = min(low[node], index[nxt])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.add(w)
                        if w == node:
                            break
                    sccs.append(comp)
        return sccs

    def sa008_findings(self) -> dict[str, list[tuple[int, str]]]:
        """rel -> [(line, message)] for every lock-order cycle."""
        if self._sa008 is not None:
            return self._sa008
        out: dict[str, list[tuple[int, str]]] = {}
        declared_pairs = {(e.src, e.dst) for e in self.edges if e.declared}
        for scc in self._sccs():
            if len(scc) < 2:
                continue
            scc_edges = [e for e in self.edges
                         if e.src in scc and e.dst in scc]
            observed = [e for e in scc_edges if not e.declared]
            cyc = " <-> ".join(sorted(scc))
            for e in (observed or scc_edges):
                detail = f"acquires {e.dst} while holding {e.src}"
                if e.via:
                    detail += f" (through call into {e.via})"
                if e.declared:
                    detail = (f"declared lock-order({e.src}, {e.dst}) "
                              f"conflicts with another declaration")
                msg = (f"lock-order cycle [{cyc}]: {detail}; some thread "
                       f"interleaving can deadlock")
                if (e.dst, e.src) in declared_pairs and not e.declared:
                    msg += (f"; contradicts declared "
                            f"lock-order({e.dst}, {e.src})")
                out.setdefault(e.rel, []).append((e.line, msg))
        self._sa008 = out
        return out

    # --------------------------------------------------------------- dot

    def to_dot(self) -> str:
        """Graphviz rendering of the acquisition-order graph; declared
        edges are dashed. Structural format (one edge per line) is
        pinned by selftest.py so CI artifacts stay parseable."""
        lines = ["digraph lock_order {"]
        for n in sorted({e.src for e in self.edges} |
                        {e.dst for e in self.edges}):
            lines.append(f'  "{n}";')
        for e in sorted(self.edges, key=lambda e: (e.src, e.dst, e.rel,
                                                   e.line)):
            attrs = [f'label="{e.rel}:{e.line}"']
            if e.declared:
                attrs.append("style=dashed")
            lines.append(f'  "{e.src}" -> "{e.dst}" '
                         f'[{", ".join(attrs)}];')
        lines.append("}")
        return "\n".join(lines) + "\n"
