"""Commutative-monoid presentations as vector rewrite systems.

A presentation lives on an ordered generator list; elements are vectors of
nonnegative integer coefficients.  Each rewritable generator i carries one
rule: remove a single unit at position i, add a fixed replacement vector.
Two nonzero elements are equal in the quotient monoid exactly when some
forward rewrites lead them to a common vector, which is what the bounded
breadth-first search below looks for.  A search can therefore prove
equality (with replayable traces) but can refute it only when both
reachability closures are complete.  Two checks refute without a search,
and ``settle_without_search`` runs both before any search: a weight
functional that separates the two sides, and the lattice of the rules that
can fire from them.  ``decide_equivalent`` is the search alone.

The search is plain Python on int tuples.  ``expand_frontier`` fires one
level in (parent, rule) order, building each child from its rule's sparse
change and dropping it if already seen, and stops at the state cap.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .certificates import WeightCertificate, gamma
from .errors import (
    InternalInvariantViolation,
    LengthMismatchError,
    OutOfRangeError,
    ZeroElementError,
)
from .graphs import Graph, IncidenceMatrix, incidence
from .lattice import separating_functional

Vector = tuple[int, ...]

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not-equivalent"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class RewriteSystem:
    """One-rule-per-generator commutative rewrite system.

    Rule k rewrites generator k: it removes one unit there and adds
    ``rule_add[k]``, which is always nonzero.  Generators past the last
    rule are never rewritten.
    """

    generators: tuple[str, ...]
    rule_add: tuple[Vector, ...]

    def __post_init__(self):
        width = len(self.generators)
        if len(self.rule_add) > width or any(
            len(add) != width for add in self.rule_add
        ):
            raise ValueError("rule arrays inconsistent with generator count")
        if not all(min(add) >= 0 and any(add) for add in self.rule_add):
            raise ValueError("replacement vectors must be nonnegative and nonzero")

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    @property
    def num_rules(self) -> int:
        return len(self.rule_add)

    def rules(self) -> Iterable[tuple[int, Vector]]:
        """Yield (k, rule_add[k]) per rule; rule k rewrites generator k."""
        return enumerate(self.rule_add)

    def fire(self, vec: Sequence[int], k: int) -> Vector:
        """vec after one firing of rule k; the caller checks vec[k] >= 1."""
        out = [c + a for c, a in zip(vec, self.rule_add[k])]
        out[k] -= 1
        return tuple(out)

    def relation_rows(self) -> list[list[int]]:
        """Row e_k - add_k per rule: the change one firing of rule k undoes."""
        rows = [[-a for a in add] for add in self.rule_add]
        for k, row in enumerate(rows):
            row[k] += 1
        return rows


# States are Python ints, so no sum overflows; 2**62 stays the documented
# range of a total and of max_total_coefficient, and a larger one raises
# OutOfRangeError.
COEFF_LIMIT = 2**62


@dataclass(frozen=True)
class SearchBounds:
    """Caps for the breadth-first closure search; all positive."""

    max_states: int = 100_000
    max_total_coefficient: int = 64
    max_depth: int = 64

    def __post_init__(self):
        for name in ("max_states", "max_total_coefficient", "max_depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.max_total_coefficient > COEFF_LIMIT:
            raise OutOfRangeError(
                f"max_total_coefficient must be at most 2**62, got "
                f"{self.max_total_coefficient}"
            )


@dataclass(frozen=True)
class ReductionTrace:
    """A forward rewrite sequence: each step fires one rule.

    Steps record the generator index fired and the resulting vector, so a
    trace can be replayed and checked independently of how it was found.
    """

    start: Vector
    steps: tuple[tuple[int, Vector], ...]

    @property
    def end(self) -> Vector:
        return self.steps[-1][1] if self.steps else self.start

    def rule_counts(self) -> Counter[int]:
        """How often each generator's rule fired along the trace."""
        return Counter(gen for gen, _ in self.steps)

    def replay(self, rs: RewriteSystem) -> Vector:
        """Re-apply every step, raising ValueError on any illegal step."""
        current = tuple(self.start)
        if len(current) != rs.num_generators:
            raise ValueError("trace start has wrong length")
        for gen, result in self.steps:
            if gen not in range(rs.num_rules):
                raise ValueError(f"no rule for generator index {gen}")
            if current[gen] < 1:
                raise ValueError(f"rule at generator {gen} not applicable")
            current = rs.fire(current, gen)
            if current != tuple(result):
                raise ValueError("recorded step does not match replay")
        return current


@dataclass(frozen=True)
class Closure:
    """Reachable set of one element, and the levels expanded to reach it."""

    elements: frozenset[Vector]
    truncated: bool
    depth: int = 0


@dataclass(frozen=True)
class LatticeSeparation:
    """Evidence that a - b lies outside the lattice of the rules that can fire.

    ``generators`` lists, in generator order, the indices reachable from the
    supports of a and b through the rules; ``functional`` gives an integer
    weight per listed generator.  The functional vanishes modulo
    ``modulus`` (0 meaning exactly) on the relation row of every rule at a
    listed generator, and takes different values on a and b.
    """

    generators: tuple[int, ...]
    functional: tuple[int, ...]
    modulus: int


@dataclass(frozen=True)
class EquivalenceOutcome:
    status: str
    descendant: Vector | None = None
    trace_a: ReductionTrace | None = None
    trace_b: ReductionTrace | None = None
    reason: str | None = None
    gamma_values: tuple | None = None
    lattice: LatticeSeparation | None = None


@dataclass(frozen=True)
class ScalarWitness:
    """Evidence that m copies and m' copies of base rewrite together."""

    base: Vector
    m: int
    m_prime: int
    descendant: Vector
    trace_a: ReductionTrace
    trace_b: ReductionTrace


def as_vector(elem: Sequence[int], rs: RewriteSystem) -> Vector:
    vec = tuple(int(c) for c in elem)
    if len(vec) != rs.num_generators:
        raise LengthMismatchError(
            f"element has length {len(vec)}, presentation has "
            f"{rs.num_generators} generators"
        )
    if any(c < 0 for c in vec):
        raise ValueError("coefficients must be nonnegative")
    if sum(vec) > COEFF_LIMIT:
        raise OutOfRangeError(
            f"total coefficient {sum(vec)} exceeds the search limit 2**62"
        )
    return vec


def scale(elem: Sequence[int], m: int) -> Vector:
    return tuple(int(c) * m for c in elem)


def monoid_presentation(matrix: IncidenceMatrix) -> RewriteSystem:
    """Graph-monoid presentation: one rule per regular vertex.

    Generators follow the matrix's vertex order; the rule at a regular
    index rewrites a unit there into that vertex's incidence row.
    """
    return RewriteSystem(
        generators=matrix.order, rule_add=matrix.entries[: matrix.num_regular]
    )


def cohn_presentation(graph: Graph) -> RewriteSystem:
    """Marker presentation on vertices plus one q-generator per regular.

    The rule at a regular vertex v rewrites a unit at v into the ranges of
    v's outgoing edges plus one unit at q_v; the q-generators are never
    rewritten, so they count how often each rule fired.
    """
    matrix = incidence(graph)
    t = matrix.num_regular
    generators = matrix.order + tuple(f"q_{v}" for v in matrix.order[:t])
    add = tuple(
        row + (0,) * k + (1,) + (0,) * (t - 1 - k)
        for k, row in enumerate(matrix.entries[:t])
    )
    return RewriteSystem(generators=generators, rule_add=add)


class _Level(list):
    """The states first seen in one breadth-first level, in firing order.

    ``shape`` is ``(len(self),)``: perfbench's tracer counts a level's
    states by ``shape[0]``, and the property stays until it uses ``len()``.
    """

    @property
    def shape(self) -> tuple[int]:
        return (len(self),)


def _rule_deltas(rs: RewriteSystem) -> list[tuple[int, int, tuple]]:
    """(k, grow, delta) per rule k: delta lists the nonzero (index, change)
    entries of one firing, its own unit already removed, and grow is the
    change it makes to a total."""
    out = []
    for k, add in rs.rules():
        change = list(add)
        change[k] -= 1
        delta = tuple((i, c) for i, c in enumerate(change) if c)
        out.append((k, sum(change), delta))
    return out


def expand_frontier(frontier, rules, max_total, seen, max_states):
    """Fire one breadth-first level in (parent, rule) order.

    ``rules`` comes from ``_rule_deltas``.  A firing whose total would
    exceed max_total is pruned and counted.  ``seen`` maps every state
    found so far to its id, and a child not in it gets the next id; once
    ``seen`` holds max_states states, the next new child stops the level
    and is not kept.  Returns (children, parents, fired, pruned, capped):
    children[j], a ``_Level``, is new, from firing rule fired[j] on
    frontier[parents[j]]; capped tells whether the cap stopped the level.
    """
    children = _Level()
    parents: list[int] = []
    fired: list[int] = []
    pruned = 0
    for p, vec in enumerate(frontier):
        room = max_total - sum(vec)
        for k, grow, delta in rules:
            if not vec[k]:
                continue
            if grow > room:
                pruned += 1
                continue
            child = list(vec)
            for i, c in delta:
                child[i] += c
            child = tuple(child)
            if child in seen:
                continue
            if len(seen) >= max_states:
                return children, parents, fired, pruned, True
            seen[child] = len(seen)
            children.append(child)
            parents.append(p)
            fired.append(k)
    return children, parents, fired, pruned, False


class _Side:
    """Breadth-first closure of one element, grown level by level."""

    def __init__(self, root: Vector):
        self.vectors: list[Vector] = [root]
        self.parent: list[int] = [-1]
        self.fired: list[int] = [-1]
        self.seen: dict[Vector, int] = {root: 0}
        self.frontier = range(1)
        self.depth = 0
        self.truncated = False
        self.capped = False

    def can_expand(self, bounds: SearchBounds) -> bool:
        if not self.frontier or self.capped:
            return False
        if self.depth >= bounds.max_depth:
            self.truncated = True
            return False
        return True

    @property
    def complete(self) -> bool:
        return not self.truncated and not self.frontier

    def expand(self, rules, bounds: SearchBounds) -> range:
        """Expand one level; returns the ids of the states first seen here."""
        ids = self.frontier
        children, parents, fired, pruned, capped = expand_frontier(
            self.vectors[ids.start : ids.stop], rules,
            bounds.max_total_coefficient, self.seen, bounds.max_states,
        )
        new_ids = range(len(self.vectors), len(self.vectors) + len(children))
        self.vectors.extend(children)
        self.parent.extend(ids[p] for p in parents)
        self.fired.extend(fired)
        self.truncated = self.truncated or capped or pruned > 0
        self.capped = capped
        self.frontier = range(0) if capped else new_ids
        self.depth += 1
        return new_ids

    def trace_to(self, node: int) -> ReductionTrace:
        chain: list[int] = []
        cur = node
        while cur != 0:
            chain.append(cur)
            cur = self.parent[cur]
        chain.reverse()
        steps = tuple((self.fired[i], self.vectors[i]) for i in chain)
        return ReductionTrace(start=self.vectors[0], steps=steps)


def forward_closure(
    elem: Sequence[int], rs: RewriteSystem, bounds: SearchBounds | None = None
) -> Closure:
    """All vectors reachable from elem by forward rewriting, within bounds.

    States whose total coefficient would exceed the bound are pruned, and
    the search stops at the state or depth caps; any of these sets the
    truncated flag.
    """
    bounds = bounds or SearchBounds()
    side = _Side(as_vector(elem, rs))
    rules = _rule_deltas(rs)
    while side.can_expand(bounds):
        side.expand(rules, bounds)
    return Closure(frozenset(side.vectors), side.truncated, side.depth)


def _nonzero_pair(
    a: Sequence[int], b: Sequence[int], rs: RewriteSystem
) -> tuple[Vector, Vector]:
    va = as_vector(a, rs)
    vb = as_vector(b, rs)
    if not any(va) or not any(vb):
        raise ZeroElementError("equivalence search requires nonzero elements")
    return va, vb


def _identical(vec: Vector) -> EquivalenceOutcome:
    """A vector is equivalent to itself, with empty traces."""
    empty = ReductionTrace(start=vec, steps=())
    return EquivalenceOutcome(
        status=EQUIVALENT, descendant=vec, trace_a=empty, trace_b=empty
    )


def _reachable(
    va: Vector, vb: Vector, adds: dict[int, Vector]
) -> tuple[int, ...]:
    """Generators reachable from supp(a) | supp(b) through the rules."""
    seen = {i for vec in (va, vb) for i, c in enumerate(vec) if c}
    todo = list(seen)
    while todo:
        for i, c in enumerate(adds.get(todo.pop(), ())):
            if c and i not in seen:
                seen.add(i)
                todo.append(i)
    return tuple(sorted(seen))


def settle_without_search(
    a: Sequence[int],
    b: Sequence[int],
    rs: RewriteSystem,
    invariant: WeightCertificate | None = None,
) -> EquivalenceOutcome | None:
    """Decide a pair of nonzero elements by the checks that need no search.

    In order: equal vectors are equivalent; the weight functional, when
    supplied, separates by its values (gamma-separation); then the
    restricted lattice.  Only rules at the generators H reachable from
    supp(a) | supp(b) can ever fire, and firing rule k subtracts its
    relation row e_k - add_k, so a common descendant forces a - b into the
    Z-span of those rows.  When a - b is outside it, the outcome is
    not-equivalent with reason lattice-separation and a functional that
    proves it.  Returns None when only a search can decide.
    """
    va, vb = _nonzero_pair(a, b, rs)
    if va == vb:
        return _identical(va)
    if invariant is not None:
        ga = gamma(invariant, va)
        gb = gamma(invariant, vb)
        if ga != gb:
            return EquivalenceOutcome(
                status=NOT_EQUIVALENT,
                reason="gamma-separation",
                gamma_values=(ga, gb),
            )
    adds = dict(rs.rules())
    held = _reachable(va, vb, adds)
    rows = [
        [int(i == gen) - add[i] for i in held]
        for gen, add in adds.items()
        if gen in held
    ]
    found = separating_functional(rows, [va[i] - vb[i] for i in held])
    if found is None:
        return None
    functional, modulus = found
    return EquivalenceOutcome(
        status=NOT_EQUIVALENT,
        reason="lattice-separation",
        lattice=LatticeSeparation(held, functional, modulus),
    )


def check_lattice_separation(
    a: Sequence[int],
    b: Sequence[int],
    rs: RewriteSystem,
    evidence: LatticeSeparation,
) -> bool:
    """Re-verify lattice-separation evidence from a, b and the rules alone.

    The reachable generators are recomputed as a fixed point over the
    rules, one round over all of them at a time, independently of how the
    evidence was found.
    """
    held = [x > 0 or y > 0 for x, y in zip(a, b)]
    while True:
        grown = list(held)
        for k, add in rs.rules():
            if held[k]:
                grown = [g or c > 0 for g, c in zip(grown, add)]
        if grown == held:
            break
        held = grown
    gens = [i for i, h in enumerate(held) if h]
    d = evidence.modulus
    if (
        tuple(gens) != evidence.generators
        or len(evidence.functional) != len(gens)
        or d < 0
    ):
        return False
    weights = dict(zip(gens, evidence.functional))

    def value(vec) -> int:
        total = sum(w * int(vec[i]) for i, w in weights.items())
        return total % d if d else total

    for k, row in enumerate(rs.relation_rows()):
        if k in weights and value(row) != 0:
            return False
    return value(a) != value(b)


def decide_equivalent(
    a: Sequence[int],
    b: Sequence[int],
    rs: RewriteSystem,
    bounds: SearchBounds | None = None,
) -> EquivalenceOutcome:
    """Decide whether two nonzero elements are equal in the quotient monoid.

    The two reachability closures grow alternately, one breadth-first level
    at a time, intersecting after every level.  Possible outcomes:

    - equivalent: a common descendant was reached from both sides; the
      returned traces replay to it.
    - not-equivalent: both closures are complete within bounds and
      disjoint.
    - unknown: the search was truncated without finding a common vector.

    Equal vectors are equivalent at once.  The weight and lattice checks of
    ``settle_without_search`` are not run here; callers that want them call
    that first.
    """
    bounds = bounds or SearchBounds()
    va, vb = _nonzero_pair(a, b, rs)
    if va == vb:
        return _identical(va)

    side_a = _Side(va)
    side_b = _Side(vb)
    rules = _rule_deltas(rs)

    while True:
        progressed = False
        for side, other in ((side_a, side_b), (side_b, side_a)):
            if not side.can_expand(bounds):
                continue
            new_ids = side.expand(rules, bounds)
            progressed = True
            hits = [n for n in new_ids if side.vectors[n] in other.seen]
            if hits:
                common = min(side.vectors[n] for n in hits)
                return EquivalenceOutcome(
                    status=EQUIVALENT,
                    descendant=common,
                    trace_a=side_a.trace_to(side_a.seen[common]),
                    trace_b=side_b.trace_to(side_b.seen[common]),
                )
        if not progressed:
            break

    if side_a.complete and side_b.complete:
        return EquivalenceOutcome(
            status=NOT_EQUIVALENT, reason="disjoint-closures"
        )
    return EquivalenceOutcome(status=UNKNOWN)


def find_scalar_witness(
    x: Sequence[int],
    rs: RewriteSystem,
    bounds: SearchBounds | None = None,
    step: int = 1,
) -> ScalarWitness | None:
    """Least pair m < m' with m*x equivalent to m'*x within bounds, or None.

    Only pairs with step | m' - m are tried.  Passing the order of [x] in
    K0 loses nothing: m*x ~ m'*x forces (m' - m)[x] = 0 there.  The sides
    of decide_equivalent grow independently, so it joins m*x and m'*x
    exactly when their forward closures meet; each closure is computed
    once, and only the least pair that meets is searched, for its traces.

    No firing lowers a total, so m' <= max_total_coefficient // |x|.  With
    grow the largest change a rule makes to a total, a closure of m*x that
    expands L levels stays within total m*|x| + L*grow, so m' <= m +
    L*grow // |x|.  If also m >= L, every state it expands holds all of
    supp(x), so while (m+j)*|x| + L*grow is within the cap (nothing is
    pruned) the closure of (m+j)*x is it shifted by j*x.  Two such shifts
    meet exactly when an earlier pair does, so the closures computed do
    not grow with max_total_coefficient.
    """
    if step < 1:
        raise OutOfRangeError(f"step must be positive, got {step}")
    bounds = bounds or SearchBounds()
    vec = as_vector(x, rs)
    if not any(vec):
        raise ZeroElementError("witness search requires a nonzero element")
    total = sum(vec)
    cap = bounds.max_total_coefficient
    grow = max((sum(add) - 1 for add in rs.rule_add), default=0)
    closures: dict[int, Closure] = {}
    base, base_m = None, 0  # the first closure of m*x with m >= its depth

    def shifted(m: int) -> bool:
        return base is not None and base_m < m <= (cap - base.depth * grow) // total

    def closure(m: int) -> Closure:
        nonlocal base, base_m
        if m not in closures:
            if shifted(m):
                shift = scale(vec, m - base_m)
                moved = (tuple(c + s for c, s in zip(v, shift)) for v in base.elements)
                closures[m] = replace(base, elements=frozenset(moved))
            else:
                closures[m] = forward_closure(scale(vec, m), rs, bounds)
                if base is None and m >= closures[m].depth:
                    base, base_m = closures[m], m
        return closures[m]

    m, top = 1, cap // total
    while m < top:
        here = closure(m)
        reach = min(top, m + here.depth * grow // total)
        for m_prime in range(m + step, reach + 1, step):
            if m > base_m and shifted(m_prime):
                continue  # both closures are shifts of an earlier pair's
            if here.elements.isdisjoint(closure(m_prime).elements):
                continue
            out = decide_equivalent(scale(vec, m), scale(vec, m_prime), rs, bounds)
            if out.status != EQUIVALENT:
                raise InternalInvariantViolation("closures meet but do not join")
            return ScalarWitness(
                vec, m, m_prime, out.descendant, out.trace_a, out.trace_b
            )
        m += 1
        if base is not None and m > base_m:
            # Past the base only pairs whose m' is pruned are left.
            rise = base.depth * grow
            m = max(m, (cap - rise) // total + 1 - rise // total)
        closures = {k: c for k, c in closures.items() if k >= m}
    return None


def fire_greedily(
    start: Sequence[int], counts: Sequence[int], rs: RewriteSystem
) -> ReductionTrace | None:
    """Fire rule k exactly counts[k] times from start, or None if stuck.

    Each step fires the lowest-numbered rule that still owes firings and
    whose generator is present.  A rule consumes only its own generator,
    so firing one rule never disables another: if this order gets stuck,
    every order does.
    """
    owed = list(counts)
    current = tuple(start)
    steps = []
    while any(owed):
        for k in range(rs.num_rules):
            if owed[k] and current[k]:
                break
        else:
            return None
        owed[k] -= 1
        current = rs.fire(current, k)
        steps.append((k, current))
    return ReductionTrace(start=tuple(start), steps=tuple(steps))


@dataclass(frozen=True)
class Construction:
    """A scalar witness built from a torsion relation, or the bounds it broke.

    ``needs`` pairs each broken bound (``max_total_coefficient`` or
    ``max_depth``) with the value the witness needs; it is empty exactly
    when ``witness`` is set.
    """

    witness: ScalarWitness | None
    needs: tuple[tuple[str, int], ...] = ()


def construct_scalar_witness(
    rs: RewriteSystem,
    order: int,
    relation: Sequence[int],
    bounds: SearchBounds | None = None,
) -> Construction:
    """The witness rho ~ (1+order)*rho from order*rho = sum_k relation[k]*r_k.

    r_k is the relation row of rule k (a unit at its generator minus its
    replacement), so firing rule k subtracts r_k.  Firing rule k
    max(0, -relation[k]) times from rho and max(0, relation[k]) times from
    (1+order)*rho ends both sides at the same vector z, and z >= rho: at
    the generator of a rule with relation[k] < 0 the relation puts z at
    1 + order plus an inflow, and elsewhere firings only add.  Both starts
    hold every generator and z >= 0, so both firings complete (a stuck
    firing raises InternalInvariantViolation).  As order divides m' - m for
    every equivalent pair, (1, 1+order) is the least one.

    No firing lowers a total, so both traces peak at z, whose total is
    |(1+order)*rho| plus (|add_k| - 1) for each firing of rule k from
    (1+order)*rho.  The peak and the longer trace's length are checked
    against max_total_coefficient and max_depth before anything fires;
    every broken bound is returned with the value it needs, and the
    witness only when none breaks.
    """
    if len(relation) != rs.num_rules:
        raise LengthMismatchError(
            f"relation has length {len(relation)}, presentation has "
            f"{rs.num_rules} rules"
        )
    bounds = bounds or SearchBounds()
    fire_a = [max(0, -c) for c in relation]
    fire_b = [max(0, c) for c in relation]
    rho = (1,) * rs.num_generators
    peak = (1 + order) * len(rho) + sum(
        count * (sum(add) - 1) for count, add in zip(fire_b, rs.rule_add)
    )
    depth = max(sum(fire_a), sum(fire_b))
    needs = []
    if peak > bounds.max_total_coefficient:
        needs.append(("max_total_coefficient", peak))
    if depth > bounds.max_depth:
        needs.append(("max_depth", depth))
    if needs:
        return Construction(witness=None, needs=tuple(needs))
    trace_a = fire_greedily(rho, fire_a, rs)
    trace_b = fire_greedily(scale(rho, 1 + order), fire_b, rs)
    if trace_a is None or trace_b is None:
        raise InternalInvariantViolation(
            "the torsion relation cannot be fired from rho and (1+order)*rho"
        )
    if trace_a.end != trace_b.end:
        raise InternalInvariantViolation(
            "the torsion relation does not join rho and (1+order)*rho"
        )
    if sum(trace_a.end) != peak:
        raise InternalInvariantViolation(
            "the fired witness does not end at the total its relation gives"
        )
    return Construction(
        witness=ScalarWitness(
            base=rho,
            m=1,
            m_prime=1 + order,
            descendant=trace_a.end,
            trace_a=trace_a,
            trace_b=trace_b,
        )
    )
