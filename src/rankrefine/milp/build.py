"""Compile a refinement search into a mixed-integer linear program.

The encoding follows the provenance of the ranked, predicate-free universe:

* one binary per (predicate, attribute value) deciding whether that value
  satisfies the refined predicate; a numeric predicate's selected values
  form a monotone chain over its sorted domain (an upper set for ``>=``/``>``,
  a lower set for ``<=``/``<``, at most one value for ``=``), and no row
  holds a constant or a data value,
* one binary per encoded tuple for output membership (with DISTINCT handled
  by excluding the selected better-ranked tuples of its key); for each tuple
  that needs top-k membership binaries,
  a running count of the selected tuples up to it, set from the previous
  such tuple's count by one row, so the position rows grow linearly with
  the encoded tuples; per-constraint deficits feeding one deviation row,
* a distance objective: for ``pred``, each numeric predicate's distance
  telescoped along its chain (the incremental formulation of Vielma, Ahmed
  & Nemhauser, 2010) over the constant each selection maps to, the one the
  exhaustive search tries for it (``oracle.selections``); for ``jaccard``,
  the retained count of the original top-k*; for ``kendall``, the exact
  distance in closed form.

Optional optimizations: relevancy pruning, which drops every tuple that k*
better-ranked tuples dominate (any refinement selecting it selects them, so
it can never reach a top-k* position; see ``ModelBuilder.relevancy_prune``),
sharing one membership binary across a lineage class, and dropping the rows
that force a top-k binary to 1 when every constraint is a lower bound (sound
only for the predicate-space objective).  Pruning leaves every predicate's
domain whole: indicators and selections cover the values of pruned tuples
too.

The whole model depends on the request only through its constraints, its
distance, the build options and epsilon.  The prepared instance keeps the
last ``KEPT_MODELS`` built models, keyed by those four.  ``build_model``
checks the request on the instance ``engine.run`` hands it, answers a request
that repeats a key with the kept result itself, and builds and keeps the rest.
A build result belongs to the database: it is read-only, and nothing writes
to it after its build.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import attrgetter

from ..annotate import AnnotatedTuple, Instance, preparation
# not called here; kept importable because perfbench's traced run wraps them
from ..annotate import annotate, filter_annotated, joined_relation  # noqa: F401
from ..constraints import LOWER, ConstraintSet
from ..data import Database, format_number
from ..distances import JACCARD, PRED, DistanceKind, check_request
from ..errors import InternalConsistencyError
from ..oracle import selections
from ..query import Query, Refinement
from .model import BINARY, CONTINUOUS, MILPModel, Solution

_UPPER_OPS = (">=", ">")  # selected values form an upper set of the domain
_LOWER_OPS = ("<=", "<")  # ... a lower set; "=" selects at most one value


@dataclass(frozen=True)
class BuildOptions:
    relevancy_prune: bool = False
    merge_lineage: bool = False
    relax_single_sense: bool = False


@dataclass
class NumericFamily:
    attr: str
    op: str
    original: Fraction
    domain: list[Fraction]  # sorted values of the instance's lineage classes
    indicators: dict[Fraction, int]  # value -> column
    # selection (positions in domain) -> its constant (``oracle.selections``)
    constants: dict[range, Fraction]
    # the ``pred`` distance along the chain: the empty selection's cost and,
    # per domain value, what switching its indicator on adds; left empty when
    # the original constant is not positive, which that distance rejects
    empty_cost: float = 0.0
    cost_steps: list[float] = field(default_factory=list)


@dataclass
class CatFamily:
    attr: str
    domain: list[str]  # sorted values of the instance's lineage classes
    original: frozenset[str]
    kept: frozenset[str]  # original values absent from the domain
    indicators: dict[str, int]  # value -> column


@dataclass
class BuildResult:
    model: MILPModel
    num_families: dict[tuple[str, str], NumericFamily]
    cat_families: dict[str, CatFamily]
    stats: dict = field(default_factory=dict)
    refinements: dict = field(default_factory=dict)  # see ``extract_refinement``


class ModelBuilder:
    def __init__(
        self,
        query: Query,
        db: Database,
        constraints: ConstraintSet,
        epsilon: Fraction,
        kind: DistanceKind,
        options: BuildOptions | None = None,
        instance: Instance | None = None,
    ):
        self.query = query
        self.constraints = constraints
        self.epsilon = Fraction(epsilon)
        self.kind = kind
        self.options = options or BuildOptions()
        self.model = MILPModel()
        self.k_star = constraints.k_star

        instance = preparation(query, db) if instance is None else instance
        # not under DISTINCT, where merging made 3,000-row solves 17-44% slower
        self.merged = self.options.merge_lineage and not instance.key_attrs
        self.original_topk = instance.original_ranking[: self.k_star]
        self.instance = instance
        self.encoded: list[AnnotatedTuple] = []  # set by build

        self.num_families: dict[tuple[str, str], NumericFamily] = {}
        self.cat_families: dict[str, CatFamily] = {}
        self.r_col: dict[int, int] = {}  # tid -> membership column (shared when merged)
        self.l_col: dict[tuple[int, int], int] = {}  # (tid, k) -> top-k membership column
        self.p_col: dict[int, int] = {}  # tid -> running-count column
        # per constraint, the encoded tuples in its group (base-rank order)
        self.members: list[list[AnnotatedTuple]] = []

    # -- column/row helpers ------------------------------------------------

    def _binary(self, *label) -> int:
        return self.model.add_column(BINARY, 0, 1, *label)

    def _row(self, coeffs: dict[int, float], sense: str, rhs, *label) -> None:
        self.model.add_row(coeffs, coeffs.values(), sense, rhs, *label)

    # -- optimization passes ---------------------------------------------

    def relevancy_prune(self) -> None:
        """Drop tuples that can never occupy a top-k* position.

        Selection is monotone: a refinement that selects tuple t selects
        every tuple u that dominates t, that is, whose value is at least
        t's on each ``>=``/``>`` attribute, at most t's on each
        ``<=``/``<`` attribute, and equal on every ``=`` and categorical
        one.  So t is dropped when the better-ranked tuples dominating it
        carry at least k* DISTINCT keys other than its own (each tuple is
        its own key without DISTINCT): whenever t is selected, k* tuples of
        other keys head the output before it.  Every tuple that can reach a
        top-k* position is kept, and so is every tuple ranked before it in
        the output, which keeps the position rows exact up to k*.  The
        better-ranked tuples of a kept tuple's key (its ``prev`` chain) are
        kept too, so the dedup rows stay complete.

        The count runs in one walk over base-rank order.  Lineage classes
        are grouped by their values on every attribute but one one-sided
        numeric attribute, the axis; each group keeps a sorted list of its
        keys' most dominating axis positions seen so far, one per key, and
        counts those up to a tuple's position by bisection.  An attribute
        with operators on both sides, an ``=`` one and any one-sided
        attribute after the axis are matched on equality.
        That finds fewer dominators than there are, never more, and all of
        them when at most one attribute is one-sided.  The walk merges the
        lineage classes and leaves a class at its first dropped member: its
        later members drop too, and for any tuple they dominate, the dropped
        member and its dominators count at least as many keys.
        """
        instance, k_star = self.instance, self.k_star
        sides: dict[str, set[str]] = {}
        for p in self.query.numeric_preds:
            side = "up" if p.op in _UPPER_OPS else "lo" if p.op in _LOWER_OPS else "eq"
            sides.setdefault(p.attribute, set()).add(side)
        one_sided = sorted(a for a, s in sides.items() if s in ({"up"}, {"lo"}))
        axis = one_sided[0] if one_sided else None
        group_attrs = [p.attribute for p in self.query.cat_preds]
        group_attrs += [a for a in sorted(sides) if a != axis]
        # per lineage class: its group and its axis position, numbered so
        # that a dominating value has a position no larger
        place: list[tuple[tuple, int]] = []
        if axis is not None:
            index = {v: i for i, v in enumerate(instance.domain(axis))}
            sign = -1 if sides[axis] == {"up"} else 1
        for members in instance.classes:
            t = members[0]
            q = 0 if axis is None else sign * index[t[axis]]
            place.append((tuple(t[a] for a in group_attrs), q))

        least: dict[tuple, list[int]] = {}  # group -> its keys' least positions, sorted
        best: dict[tuple, int] = {}  # (group, key) -> its least position
        keep: dict[int, AnnotatedTuple] = {}
        # the next member of each class still walked, by base rank; a class
        # leaves the walk when a member drops
        heap = [(members[0].base_rank, cls, 0) for cls, members in enumerate(instance.classes)]
        heapify(heap)
        while heap:
            _, cls, n = heappop(heap)
            members = instance.classes[cls]
            at = members[n]
            group, q = place[cls]
            positions = least.setdefault(group, [])
            key = (group, at.key)
            own = best.get(key)
            # keys at positions up to q, less the tuple's own
            dominators = bisect_right(positions, q) - (own is not None and own <= q)
            if dominators < k_star:
                keep[at.tid] = at
                if n + 1 < len(members):
                    heappush(heap, (members[n + 1].base_rank, cls, n + 1))
            if own is None or q < own:
                best[key] = q
                if own is not None:
                    del positions[bisect_left(positions, own)]
                insort(positions, q)
        for at in list(keep.values()):
            prev = at.prev
            while prev is not None and prev.tid not in keep:
                keep[prev.tid] = prev
                prev = prev.prev
        self.encoded = sorted(keep.values(), key=attrgetter("base_rank"))

    # -- predicate encoding ----------------------------------------------

    def gen_numeric_bound_exprs(self) -> None:
        for p in sorted(self.query.numeric_preds, key=lambda p: (p.attribute, p.op)):
            # the values of every lineage class, pruned or not
            values = self.instance.domain(p.attribute)
            cols = [self._binary("A", p.attribute, _OP_CODE[p.op], format_number(v))
                    for v in values]
            fam = NumericFamily(p.attribute, p.op, p.constant, values, dict(zip(values, cols)),
                                selections(p.op, values, p.constant))
            if p.op == "=":
                self._row(dict.fromkeys(cols, 1), "<=", 1, "eq_one", p.attribute)
            else:
                # a selected value implies its outer neighbour is selected
                if p.op in _LOWER_OPS:
                    cols.reverse()
                names = self.model.col_names
                for inner, outer in zip(cols, cols[1:]):
                    self._row({inner: 1, outer: -1}, "<=", 0, "chain", names[inner])
            if p.constant > 0:
                self._pred_cost_steps(fam)
            self.num_families[(p.attribute, p.op)] = fam

    @staticmethod
    def _pred_cost_steps(fam: NumericFamily) -> None:
        """|C - c0| / c0 of the selection's constant, telescoped along the
        chain: the empty selection's cost plus, per indicator, the exact cost
        step that switching it on adds."""
        cost = {sel: abs(c - fam.original) / fam.original
                for sel, c in fam.constants.items()}
        m = len(fam.domain)
        fam.empty_cost = float(cost[range(0)])
        for i in range(m):
            # the selections just before and after position i switches on
            if fam.op in _UPPER_OPS:
                before, after = range(i + 1, m), range(i, m)
            elif fam.op in _LOWER_OPS:
                before, after = range(i), range(i + 1)
            else:
                before, after = range(0), range(i, i + 1)
            fam.cost_steps.append(float(cost[after] - cost[before]))

    def gen_categorical_vars(self) -> None:
        for p in sorted(self.query.cat_preds, key=lambda p: p.attribute):
            values = self.instance.domain(p.attribute)
            kept = frozenset(p.values) - set(values)
            fam = CatFamily(p.attribute, values, frozenset(p.values), kept, {})
            for v in values:
                fam.indicators[v] = self._binary("A", p.attribute, v)
            if not kept and values:
                # a refined value set must stay non-empty
                self._row(dict.fromkeys(fam.indicators.values(), 1), ">=", 1,
                          "nonempty", p.attribute)
            self.cat_families[p.attribute] = fam

    def _atom_cols(self, at: AnnotatedTuple) -> list[int]:
        """Indicator columns whose conjunction selects this tuple."""
        out = []
        for p in self.query.numeric_preds:
            fam = self.num_families[(p.attribute, p.op)]
            out.append(fam.indicators[at[p.attribute]])
        for p in self.query.cat_preds:
            fam = self.cat_families[p.attribute]
            out.append(fam.indicators[at[p.attribute]])
        return out

    # -- membership, rank, top-k ------------------------------------------

    def gen_selection_exprs(self) -> None:
        """Membership columns and their selection rows, one per lineage class
        when merged and one per tuple otherwise, each where its class or
        tuple first appears in base-rank order."""
        by_class: dict[int, int] = {}  # lineage class -> column, when merged
        by_key: dict = {}  # key -> its tuples' columns so far, when not merged
        for at in self.encoded:
            tid = at.tid
            if self.merged:
                # a class's first member dominates the rest, so pruning
                # keeps it whenever it keeps any of them
                cls = at.lineage_class
                if cls not in by_class:
                    by_class[cls] = self._binary("r", "cls", cls)
                    self._selection_rows(by_class[cls], self._atom_cols(at), [])
                self.r_col[tid] = by_class[cls]
                continue
            # shadow tuples rank better, so theirs are made already; when
            # each tuple's prev is, its whole prev chain is
            if at.prev is not None and at.prev.tid not in self.r_col:
                raise InternalConsistencyError(f"tuple {tid} has pruned shadow tuples")
            shadows = by_key.setdefault(at.key, [])
            self.r_col[tid] = self._binary("r", tid)
            self._selection_rows(self.r_col[tid], self._atom_cols(at), shadows)
            shadows.append(self.r_col[tid])

    def _selection_rows(self, r: int, atoms: list[int], shadows: list[int]) -> None:
        """r = 1 iff every atom indicator is 1 and no shadow tuple is selected."""
        n, s = len(atoms), len(shadows)
        up: dict[int, float] = {r: n + s}
        lo: dict[int, float] = {r: 1}
        for a in atoms:
            up[a] = up.get(a, 0) - 1
            lo[a] = lo.get(a, 0) - 1
        for sh in shadows:
            up[sh] = up.get(sh, 0) + 1
            lo[sh] = lo.get(sh, 0) + 1
        name = self.model.col_names[r]
        # r=1 -> all atoms hold and no shadow selected
        self._row(up, "<=", s, "sel_up", name)
        # all atoms hold and no shadow selected -> r=1
        self._row(lo, ">=", 1 - n, "sel_lo", name)

    def _needed_ks(self) -> dict[int, list[int]]:
        """tid -> sorted list of k values needing a top-k membership binary;
        both outcome objectives read l(t, k*) only on the original top-k*."""
        needed: dict[int, set[int]] = {}
        for c, members in zip(self.constraints, self.members):
            for at in members:
                needed.setdefault(at.tid, set()).add(c.k)
        if self.kind.name != PRED:
            for tid in self.original_topk:
                needed.setdefault(tid, set()).add(self.k_star)
        return {tid: sorted(ks) for tid, ks in needed.items()}

    def gen_position_exprs(self) -> None:
        """P_t counts the selected tuples up to each t that needs a top-k
        binary: one row adds the membership columns since the previous such
        tuple to its count, O(n) entries in all.  l(t, k) = [r_t and P_t <= k]."""
        n_enc = len(self.encoded)
        # with only lower bounds a top-k binary at 0 only adds deficit, so
        # the ``pred`` optimum needs no row forcing it to 1
        lo_rows = not (self.options.relax_single_sense and self.kind.name == PRED
                       and all(c.sense == LOWER for c in self.constraints))
        needed = self._needed_ks()
        count: dict[int, float] = {}  # the running count's new terms
        for at in self.encoded:  # base-rank order
            tid = at.tid
            rcol = self.r_col[tid]
            count[rcol] = count.get(rcol, 0.0) - 1.0
            if tid not in needed:
                continue
            p = self.p_col[tid] = self.model.add_column(CONTINUOUS, 0, n_enc, "P", tid)
            self._row({p: 1.0, **count}, "=", 0, "pos", tid)
            count = {p: -1.0}
            for k in needed[tid]:
                lcol = self._binary("l", tid, k)
                self.l_col[(tid, k)] = lcol
                name = self.model.col_names[lcol]
                if k < n_enc:  # l=1 -> P <= k, which always holds otherwise
                    self._row({p: 1, lcol: n_enc - k}, "<=", n_enc, "top_up", name)
                if lo_rows:  # r=1 and l=0 -> P >= k + 1 (counts are integral)
                    self._row({p: 1, rcol: -(k + 1), lcol: k + 1}, ">=", 0, "top_lo", name)
                self._row({lcol: 1, rcol: -1}, "<=", 0, "top_sel", name)

    def gen_size_topk_deficit_deviation(self) -> None:
        # the refined output must be at least k* long for top-k* to exist
        sum_r: dict[int, float] = {}
        for at in self.encoded:
            rcol = self.r_col[at.tid]
            sum_r[rcol] = sum_r.get(rcol, 0) + 1
        self._row(sum_r, ">=", self.k_star, "size")

        e_cols = []
        for i, (c, members) in enumerate(zip(self.constraints, self.members)):
            e = self.model.add_column(CONTINUOUS, 0, c.k, "E", i)
            e_cols.append(e)
            coeffs = {e: 1.0}
            for at in members:
                lcol = self.l_col[(at.tid, c.k)]
                coeffs[lcol] = coeffs.get(lcol, 0.0) + c.sign
            # lower: E >= n - sum(l);  upper: E >= sum(l) - n
            self._row(coeffs, ">=", c.sign * c.n, "deficit", i)

        # sum_c E_c / (n_c * |C|) <= eps, scaled to integer coefficients
        den = math.lcm(*(c.n for c in self.constraints))
        scale = den * self.epsilon.denominator
        self.model.add_row(e_cols, [scale // c.n for c in self.constraints], "<=",
                           self.epsilon.numerator * den * len(self.constraints), "deviation")

    # -- objectives --------------------------------------------------------

    def gen_objective(self) -> None:
        if self.kind.name == PRED:
            self._objective_pred()
        elif self.kind.name == JACCARD:
            self._objective_jaccard()
        else:
            self._objective_kendall()

    def _objective_pred(self) -> None:
        model = self.model
        for fam in self.num_families.values():
            model.objective_constant += fam.empty_cost
            for v, step in zip(fam.domain, fam.cost_steps):
                model.col_cost[fam.indicators[v]] = step

        for attr, fam in sorted(self.cat_families.items()):
            self._objective_jaccard_cat(attr, fam)

    def _objective_jaccard_cat(self, attr: str, fam: CatFamily) -> None:
        """Jaccard distance of the refined value set from the original one,
        via a Charnes-Cooper substitution w = 1 / |original ∪ refined| and
        products z_v = w * A_v linearized over w's bounds."""
        r_set = fam.original
        union_ub = len(r_set | set(fam.domain))
        w_lo, w_hi = 1.0 / union_ub, 1.0 / len(r_set)
        model = self.model
        w = model.add_column(CONTINUOUS, w_lo, w_hi, "w", attr)
        outside = [v for v in fam.domain if v not in r_set]
        inside = [v for v in fam.domain if v in r_set]
        z: dict[str, int] = {}
        for v in outside + inside:
            a = fam.indicators[v]
            zv = model.add_column(CONTINUOUS, 0, w_hi, "z", attr, v)
            z[v] = zv
            name = model.col_names[zv]
            self._row({zv: 1, a: -w_hi}, "<=", 0, "gl1", name)
            self._row({zv: 1, a: -w_lo}, ">=", 0, "gl2", name)
            self._row({zv: 1, w: -1, a: -w_lo}, "<=", -w_lo, "gl3", name)
            self._row({zv: 1, w: -1, a: -w_hi}, ">=", -w_hi, "gl4", name)
        # w * |original ∪ refined| = 1
        coeffs = {w: float(len(r_set))}
        for v in outside:
            coeffs[z[v]] = 1.0
        self._row(coeffs, "=", 1, "cc_norm", attr)
        # distance = 1 - |original ∩ refined| * w
        model.objective_constant += 1.0
        model.col_cost[w] -= len(fam.kept)
        for v in inside:
            model.col_cost[z[v]] -= 1.0

    def _objective_jaccard(self) -> None:
        # the Jaccard distance 1 - I / (2k* - I) strictly decreases in the
        # retained count I = sum of l(t, k*) over the original top-k*, so
        # maximizing I finds the exact minimizer
        for tid in self.original_topk:
            self.model.col_cost[self.l_col[(tid, self.k_star)]] -= 1.0
        self.model.objective_constant += float(self.k_star)

    def _objective_kendall(self) -> None:
        """Fagin top-k Kendall distance against the original top-k* list, in
        closed form.  Retained tuples keep their relative order, so with R
        the retained original top-k* tuples u (l_u = 1) and pos1(u), P_u
        their original and refined positions, the departed x retained pairs
        number sum_R (pos1(u) - 1) - C(|R|, 2), the entered x retained ones
        sum_R (P_u - 1) - C(|R|, 2) and the departed x entered ones
        (k* - |R|)^2.  The |R|^2 terms cancel: the distance is
        k*^2 + sum_u l_u (pos1(u) - 2k* - 1) + sum_u w_u, where one row,
        w_u >= P_u - n (1 - l_u), pins w_u to l_u P_u under minimization."""
        k, n = self.k_star, len(self.encoded)
        model = self.model
        model.objective_constant += float(k * k)
        for pos1, tid in enumerate(self.original_topk, 1):
            lcol = self.l_col[(tid, k)]
            model.col_cost[lcol] += pos1 - 2 * k - 1
            w = model.add_column(CONTINUOUS, 0, k, "w", tid)
            model.col_cost[w] = 1.0
            self._row({w: 1, self.p_col[tid]: -1, lcol: -n}, ">=", -n, "kd", tid)

    # -- orchestration ------------------------------------------------------

    def build(self) -> BuildResult:
        if self.options.relevancy_prune:
            self.relevancy_prune()
        else:
            self.encoded = list(self.instance.annotated)
        self.gen_numeric_bound_exprs()
        self.gen_categorical_vars()
        self.gen_selection_exprs()
        self.members = [[at for at in self.encoded if c.contains(at)]
                        for c in self.constraints]
        self.gen_position_exprs()
        self.gen_size_topk_deficit_deviation()
        self.gen_objective()
        model = self.model
        families = Counter(_ROW_FAMILY[label[0]] for label in model.row_labels)
        return BuildResult(
            model=model,
            num_families=self.num_families,
            cat_families=self.cat_families,
            stats={
                "variables": len(model.col_names),
                "rows": len(model.row_lower),
                "binaries": model.col_kinds.count(BINARY),
                "nnz": len(model.row_index),
                "rows_by_family": {f: families[f] for f in ROW_FAMILIES},
                "encoded_tuples": len(self.encoded),
                "pruned_tuples": len(self.instance) - len(self.encoded),
                "lineage_classes": len({at.lineage_class for at in self.encoded}),
            },
        )


# the most built models a prepared instance keeps (see ``build_model``);
# perfbench's request cycles hold at most six keys
KEPT_MODELS = 16
KEPT_REFINEMENTS = 64  # the most a built model keeps (see ``extract_refinement``)

_OP_CODE = {"<": "lt", "<=": "le", "=": "eq", ">": "gt", ">=": "ge"}

# model_stats["rows_by_family"]: each row family and the row labels in it
ROW_FAMILIES = {
    "indicator": ("eq_one", "chain", "nonempty"),
    "selection": ("sel_up", "sel_lo"),
    "position": ("pos",),
    "topk": ("top_up", "top_lo", "top_sel", "size"),
    "deviation": ("deficit", "deviation"),
    "objective": ("gl1", "gl2", "gl3", "gl4", "cc_norm", "kd"),
}
_ROW_FAMILY = {label: family for family, labels in ROW_FAMILIES.items() for label in labels}


def build_model(
    query: Query,
    db: Database,
    constraints: ConstraintSet,
    epsilon: Fraction,
    kind: DistanceKind,
    options: BuildOptions | None = None,
    instance: Instance | None = None,
) -> BuildResult:
    """Check the request and compile the search over ``query``'s prepared
    instance in ``db``, which a caller that holds it passes as ``instance``.

    The instance keeps the last :data:`KEPT_MODELS` results, by the whole
    request: constraints, distance, options and epsilon.  A request that
    repeats one gets the kept result itself, unchanged since its build.
    The result is the database's and is read-only.  A build that raises
    keeps nothing."""
    instance = preparation(query, db) if instance is None else instance
    check_request(query, kind, epsilon, constraints.k_star, instance.original_ranking)
    options = options or BuildOptions()
    models = instance.models
    # the set keeps its hash, and ``Fraction`` and ``DistanceKind`` would hash in Python
    key = (constraints, kind.name, options, epsilon.as_integer_ratio())
    built = models.pop(key, None)  # put back last, as the most recently used
    if built is None:
        built = ModelBuilder(query, db, constraints, epsilon, kind, options, instance).build()
        if len(models) == KEPT_MODELS:
            del models[next(iter(models))]  # the least recently used
    models[key] = built
    return built


def extract_refinement(result: BuildResult, solution: Solution) -> Refinement:
    """Read the indicator pattern out of a solved model and look up, for
    every numeric predicate, the constant its selection maps to.  Equal
    patterns of one model share one read-only refinement, which the model
    keeps by pattern, up to :data:`KEPT_REFINEMENTS` of them."""
    def selected(col: int) -> bool:
        return round(solution.values[col]) == 1

    families = [*result.num_families.values(), *result.cat_families.values()]
    pattern = tuple(selected(col) for fam in families for col in fam.indicators.values())
    known = result.refinements.get(pattern)
    if known is not None:
        return known
    numeric: dict[tuple[str, str], Fraction] = {}
    for pred, fam in result.num_families.items():
        on = [i for i, v in enumerate(fam.domain) if selected(fam.indicators[v])]
        sel = range(on[0], on[-1] + 1) if on else range(0)
        if len(sel) != len(on) or sel not in fam.constants:
            raise InternalConsistencyError(
                f"selected values {[fam.domain[i] for i in on]} of predicate {pred} "
                "match no refined constant")
        numeric[pred] = fam.constants[sel]
    cats: dict[str, frozenset[str]] = {}
    for attr, fam in result.cat_families.items():
        chosen = {v for v, col in fam.indicators.items() if selected(col)}
        cats[attr] = frozenset(chosen) | fam.kept
        if not cats[attr]:
            raise InternalConsistencyError(f"empty refined value set on {attr!r}")
    ref = Refinement(numeric_constants=numeric, cat_values=cats)
    if len(result.refinements) < KEPT_REFINEMENTS:
        result.refinements[pattern] = ref
    return ref
