"""Compile a refinement search into a mixed-integer linear program.

The encoding follows the provenance of the ranked, predicate-free universe:

* one binary per (predicate, attribute value) deciding whether that value
  satisfies the refined predicate; a numeric predicate's selected values
  form a monotone chain over its sorted domain (an upper set for ``>=``/``>``,
  a lower set for ``<=``/``<``, at most one value for ``=``), and no row
  holds a constant or a data value,
* one binary per encoded tuple for output membership (with DISTINCT handled
  through shadow sets), a continuous refined-rank variable, top-k membership
  binaries, and per-constraint deficit variables feeding a single deviation
  budget row,
* a distance objective (predicate-space, or a top-k outcome surrogate).  A
  numeric predicate's distance telescopes along its chain (the incremental
  formulation of Vielma, Ahmed & Nemhauser, 2010) over the constant that
  each selection maps to: the candidate closest to the original one.

Optional optimizations: relevancy pruning of tuples that can never reach the
top-k* positions, sharing one membership binary across a lineage class, and
dropping one side of the rank-equality rows when every constraint has the
same sense (sound only for the predicate-space objective).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter

from ..annotate import AnnotatedTuple, prepared
# not called here; kept importable because perfbench's traced run wraps them
from ..annotate import annotate, filter_annotated, joined_relation  # noqa: F401
from ..constraints import LOWER, ConstraintSet
from ..data import Database, format_number
from ..distances import JACCARD, KENDALL, PRED, DistanceKind
from ..errors import BuildError, InternalConsistencyError, PreconditionError
from ..oracle import numeric_candidates
from ..query import Query, Refinement
from .model import BINARY, CONTINUOUS, MILPModel, Row, Solution, Variable

_UPPER_OPS = (">=", ">")  # selected values form an upper set of the domain
_LOWER_OPS = ("<=", "<")  # ... a lower set; "=" selects at most one value


@dataclass
class BuildOptions:
    relevancy_prune: bool = False
    merge_lineage: bool = False
    relax_single_sense: bool = False


@dataclass
class NumericFamily:
    attr: str
    op: str
    original: Fraction
    domain: list[Fraction]  # sorted values among encoded tuples
    indicators: dict[Fraction, str]  # value -> variable name
    # selection (positions in domain) -> candidate constant closest to the
    # original among those that select exactly these values
    constants: dict[range, Fraction]


def _selection(op: str, domain: list[Fraction], c: Fraction) -> range:
    """Positions of the ``domain`` values that satisfy ``value op c``."""
    if op == ">=":
        return range(bisect_left(domain, c), len(domain))
    if op == ">":
        return range(bisect_right(domain, c), len(domain))
    if op == "<=":
        return range(bisect_right(domain, c))
    if op == "<":
        return range(bisect_left(domain, c))
    i = bisect_left(domain, c)
    return range(i, i + 1) if domain[i:i + 1] == [c] else range(0)


@dataclass
class CatFamily:
    attr: str
    domain: list[str]  # sorted values among encoded tuples
    original: frozenset[str]
    kept: frozenset[str]  # original values absent from the encoded domain
    indicators: dict[str, str]  # value -> variable name


@dataclass
class BuildResult:
    model: MILPModel
    encoded: list[AnnotatedTuple]  # base-rank order
    num_families: dict[tuple[str, str], NumericFamily]
    cat_families: dict[str, CatFamily]
    r_name: dict[int, str]  # tid -> membership variable (shared when merged)
    l_name: dict[tuple[int, int], str]  # (tid, k) -> variable
    original_topk: list[int]  # top-k* tids of the unrefined query
    stats: dict = field(default_factory=dict)


class _Namer:
    def __init__(self):
        self.used: set[str] = set()

    def fresh(self, *parts) -> str:
        raw = "_".join(str(p) for p in parts)
        # an ASCII identifier is already its own sanitized form
        base = raw if raw.isascii() and raw.isidentifier() else (
            re.sub(r"[^0-9A-Za-z_]", "_", raw) or "x")
        name, i = base, 1
        while name in self.used:
            i += 1
            name = f"{base}_{i}"
        self.used.add(name)
        return name


class ModelBuilder:
    def __init__(
        self,
        query: Query,
        db: Database,
        constraints: ConstraintSet,
        epsilon: Fraction,
        kind: DistanceKind,
        options: BuildOptions | None = None,
    ):
        if epsilon < 0:
            raise PreconditionError("epsilon must be non-negative")
        self.query = query
        self.constraints = constraints
        self.epsilon = Fraction(epsilon)
        self.kind = kind
        self.options = options or BuildOptions()
        self.model = MILPModel()
        self.namer = _Namer()
        self.k_star = constraints.k_star

        instance = prepared(query, db)
        self.key_attrs = instance.key_attrs
        original_ranking = instance.original_ranking
        self.original_topk = original_ranking[: self.k_star]
        if kind.name in (JACCARD, KENDALL) and len(original_ranking) < self.k_star:
            raise PreconditionError(
                "outcome distances need the original query to return at least "
                f"k*={self.k_star} tuples, got {len(original_ranking)}"
            )

        self.instance = instance
        self.encoded: list[AnnotatedTuple] = list(instance.annotated)

        self.num_families: dict[tuple[str, str], NumericFamily] = {}
        self.cat_families: dict[str, CatFamily] = {}
        self.r_name: dict[int, str] = {}
        self.l_name: dict[tuple[int, int], str] = {}
        self.e_names: list[tuple] = []  # (constraint, var name)

    # -- variable/row helpers ------------------------------------------------

    def _var(self, name: str, kind: str, lb: float = 0.0, ub: float = 1.0) -> str:
        self.model.variables.append(Variable(name, kind, float(lb), float(ub)))
        return name

    def _row(self, name: str, coeffs: dict[str, float], sense: str, rhs) -> None:
        self.model.rows.append(Row(name, {k: float(v) for k, v in coeffs.items()},
                                   sense, float(rhs)))

    # -- optimization passes ---------------------------------------------

    def relevancy_prune(self) -> None:
        """Drop tuples that can never occupy a top-k* position.

        A tuple is droppable when at least k* better-ranked tuples share its
        lineage (so any refinement selecting it also selects them above it);
        each lineage class therefore keeps a prefix of its members.  With
        DISTINCT, better-ranked classmates are counted by distinct DISTINCT
        keys, and shadow tuples of kept tuples are kept too so the dedup rows
        stay complete.
        """
        k_star = self.k_star
        keep: dict[int, AnnotatedTuple] = {}
        for members in self.instance.classes:  # each in base-rank order
            if not self.key_attrs:
                keep.update((at.tuple.tid, at) for at in members[:k_star])
                continue
            keys: set[tuple] = set()
            for at in members:
                key = tuple(at.tuple[a] for a in self.key_attrs)
                if len(keys) - (key in keys) < k_star:
                    keep[at.tuple.tid] = at
                keys.add(key)
                if len(keys) > k_star:
                    break  # every later classmate has k* other keys above it
        if self.key_attrs:
            by_id = self.instance.annotated_by_id
            for at in list(keep.values()):
                keep.update((tid, by_id[tid]) for tid in at.shadow)
        self.encoded = sorted(keep.values(), key=attrgetter("base_rank"))

    # -- predicate encoding ----------------------------------------------

    def gen_numeric_bound_exprs(self) -> None:
        for p in sorted(self.query.numeric_preds, key=lambda p: (p.attribute, p.op)):
            values = sorted({at.tuple[p.attribute] for at in self.encoded})
            if not values:
                raise BuildError(f"no encoded values for numeric predicate on {p.attribute!r}")
            names = [self._var(self.namer.fresh("A", p.attribute, _OP_CODE[p.op],
                                                format_number(v)), BINARY)
                     for v in values]
            fam = NumericFamily(p.attribute, p.op, p.constant, values,
                                dict(zip(values, names)), {})
            if p.op == "=":
                self._row(self.namer.fresh("eq_one", p.attribute),
                          {a: 1 for a in names}, "<=", 1)
            else:
                # a selected value implies its outer neighbour is selected
                if p.op in _LOWER_OPS:
                    names.reverse()
                for inner, outer in zip(names, names[1:]):
                    self._row(self.namer.fresh("chain", inner), {inner: 1, outer: -1}, "<=", 0)
            # pruning keeps a tuple of every lineage class, so these are the
            # oracle's candidates; ascending, so the smaller of two equally
            # close constants wins
            for c in numeric_candidates(values, p.constant):
                sel = _selection(p.op, values, c)
                best = fam.constants.get(sel)
                if best is None or abs(c - p.constant) < abs(best - p.constant):
                    fam.constants[sel] = c
            self.num_families[(p.attribute, p.op)] = fam

    def gen_categorical_vars(self) -> None:
        for p in sorted(self.query.cat_preds, key=lambda p: p.attribute):
            values = sorted({at.tuple[p.attribute] for at in self.encoded})
            kept = frozenset(p.values) - set(values)
            fam = CatFamily(p.attribute, values, frozenset(p.values), kept, {})
            for v in values:
                fam.indicators[v] = self._var(self.namer.fresh("A", p.attribute, v), BINARY)
            if not kept and values:
                # a refined value set must stay non-empty
                self._row(self.namer.fresh("nonempty", p.attribute),
                          {name: 1 for name in fam.indicators.values()}, ">=", 1)
            self.cat_families[p.attribute] = fam

    def _atom_vars(self, at: AnnotatedTuple) -> list[str]:
        """Indicator variables whose conjunction selects this tuple."""
        out = []
        for p in self.query.numeric_preds:
            fam = self.num_families[(p.attribute, p.op)]
            out.append(fam.indicators[at.tuple[p.attribute]])
        for p in self.query.cat_preds:
            fam = self.cat_families[p.attribute]
            out.append(fam.indicators[at.tuple[p.attribute]])
        return out

    # -- membership, rank, top-k ------------------------------------------

    def gen_selection_exprs(self) -> None:
        merged = self.options.merge_lineage and not self.key_attrs
        if merged:
            class_var: dict[int, str] = {}
            class_rep: dict[int, AnnotatedTuple] = {}
            for at in self.encoded:
                if at.lineage_class not in class_var:
                    class_var[at.lineage_class] = self._var(
                        self.namer.fresh("r", "cls", at.lineage_class), BINARY)
                    class_rep[at.lineage_class] = at
                self.r_name[at.tuple.tid] = class_var[at.lineage_class]
            for cls, at in class_rep.items():
                self._selection_rows(class_var[cls], self._atom_vars(at), [])
        else:
            encoded_tids = {at.tuple.tid for at in self.encoded}
            for at in self.encoded:
                self.r_name[at.tuple.tid] = self._var(
                    self.namer.fresh("r", at.tuple.tid), BINARY)
            for at in self.encoded:
                shadows = [self.r_name[t] for t in at.shadow if t in encoded_tids]
                if len(shadows) != len(at.shadow):
                    raise InternalConsistencyError(
                        f"tuple {at.tuple.tid} has pruned shadow tuples")
                self._selection_rows(self.r_name[at.tuple.tid],
                                     self._atom_vars(at), shadows)

    def _selection_rows(self, r: str, atoms: list[str], shadows: list[str]) -> None:
        """r = 1 iff every atom indicator is 1 and no shadow tuple is selected."""
        n, s = len(atoms), len(shadows)
        up: dict[str, float] = {r: n + s}
        lo: dict[str, float] = {r: 1}
        for a in atoms:
            up[a] = up.get(a, 0) - 1
            lo[a] = lo.get(a, 0) - 1
        for sh in shadows:
            up[sh] = up.get(sh, 0) + 1
            lo[sh] = lo.get(sh, 0) + 1
        # r=1 -> all atoms hold and no shadow selected
        self._row(self.namer.fresh("sel_up", r), up, "<=", s)
        # all atoms hold and no shadow selected -> r=1
        self._row(self.namer.fresh("sel_lo", r), lo, ">=", 1 - n)

    def _needed_ks(self) -> dict[int, list[int]]:
        """tid -> sorted list of k values needing a top-k membership binary."""
        needed: dict[int, set[int]] = {}
        by_tid = {at.tuple.tid: at for at in self.encoded}
        for c in self.constraints:
            for at in self.encoded:
                if c.contains(at.tuple):
                    needed.setdefault(at.tuple.tid, set()).add(c.k)
        if self.kind.name in (JACCARD, KENDALL):
            for tid in by_tid:
                needed.setdefault(tid, set()).add(self.k_star)
        return {tid: sorted(ks) for tid, ks in needed.items()}

    def gen_position_exprs(self) -> None:
        n_enc = len(self.encoded)
        senses = {c.sense for c in self.constraints}
        relax = (self.options.relax_single_sense and len(senses) == 1
                 and self.kind.name == PRED)
        needed = self._needed_ks()
        prefix: dict[str, float] = {}
        for at in self.encoded:  # base-rank order
            rvar = self.r_name[at.tuple.tid]
            prefix[rvar] = prefix.get(rvar, 0) + 1
            tid = at.tuple.tid
            if tid not in needed:
                continue
            s = self._var(self.namer.fresh("s", tid), CONTINUOUS, 1, 2 * n_enc)
            lo_rows = not relax or senses == {LOWER}
            up_rows = not relax or senses != {LOWER}
            if lo_rows:
                # s >= (number of selected tuples ranked at or before t)
                coeffs = {s: 1.0, **{k: -v for k, v in prefix.items()}}
                self._row(self.namer.fresh("pos_lo", tid), coeffs, ">=", 0)
                # unselected tuples sit beyond every meaningful position
                self._row(self.namer.fresh("pos_out", tid),
                          {s: 1, rvar: n_enc + 1}, ">=", n_enc + 1)
            if up_rows:
                coeffs = {s: 1.0, **{k: -v for k, v in prefix.items()}}
                coeffs[rvar] = coeffs.get(rvar, 0.0) + 2 * n_enc
                self._row(self.namer.fresh("pos_up", tid), coeffs, "<=", 2 * n_enc)
            for k in needed[tid]:
                lvar = self._var(self.namer.fresh("l", tid, k), BINARY)
                self.l_name[(tid, k)] = lvar
                # l=1 -> s <= k ; l=0 -> s >= k + 1 (positions are integral)
                self._row(self.namer.fresh("top_up", lvar),
                          {s: 1, lvar: 2 * n_enc}, "<=", k + 2 * n_enc)
                self._row(self.namer.fresh("top_lo", lvar),
                          {s: 1, lvar: 2 * n_enc}, ">=", k + 1)
                self._row(self.namer.fresh("top_sel", lvar),
                          {lvar: 1, rvar: -1}, "<=", 0)

    def gen_size_topk_deficit_deviation(self) -> None:
        # the refined output must be at least k* long for top-k* to exist
        sum_r: dict[str, float] = {}
        for at in self.encoded:
            rvar = self.r_name[at.tuple.tid]
            sum_r[rvar] = sum_r.get(rvar, 0) + 1
        self._row(self.namer.fresh("size"), sum_r, ">=", self.k_star)

        for i, c in enumerate(self.constraints):
            members = [self.l_name[(at.tuple.tid, c.k)]
                       for at in self.encoded if c.contains(at.tuple)]
            e = self._var(self.namer.fresh("E", i), CONTINUOUS, 0, c.k)
            self.e_names.append((c, e))
            coeffs = {e: 1.0}
            for lv in members:
                coeffs[lv] = coeffs.get(lv, 0.0) + c.sign
            # lower: E >= n - sum(l);  upper: E >= sum(l) - n
            self._row(self.namer.fresh("deficit", i), coeffs, ">=", c.sign * c.n)

        # deviation budget, scaled to integer coefficients:
        #   sum_c E_c / (n_c * |C|) <= eps
        den = math.lcm(*(c.n for c, _ in self.e_names))
        eps = self.epsilon
        scale = den * eps.denominator
        coeffs = {e: scale // c.n for c, e in self.e_names}
        self._row(self.namer.fresh("deviation"), coeffs, "<=",
                  eps.numerator * den * len(self.constraints))

    # -- objectives --------------------------------------------------------

    def gen_objective(self) -> None:
        if self.kind.name == PRED:
            self._objective_pred()
        elif self.kind.name == JACCARD:
            self._objective_jaccard()
        else:
            self._objective_kendall()

    def _objective_pred(self) -> None:
        for (attr, op), fam in self.num_families.items():
            if fam.original <= 0:
                raise PreconditionError(
                    f"predicate distance needs a positive original constant on "
                    f"{attr!r} {op}")
            self._objective_pred_numeric(fam)

        for attr, fam in sorted(self.cat_families.items()):
            self._objective_jaccard_cat(attr, fam)

    def _objective_pred_numeric(self, fam: NumericFamily) -> None:
        """|C - c0| / c0 of the selection's constant, telescoped along the
        chain: the empty selection's cost plus, per indicator, the exact cost
        step that switching it on adds."""
        cost = {sel: abs(c - fam.original) / fam.original
                for sel, c in fam.constants.items()}
        m = len(fam.domain)
        self.model.objective_constant += float(cost[range(0)])
        for i, v in enumerate(fam.domain):
            # the selections just before and after position i switches on
            if fam.op in _UPPER_OPS:
                before, after = range(i + 1, m), range(i, m)
            elif fam.op in _LOWER_OPS:
                before, after = range(i), range(i + 1)
            else:
                before, after = range(0), range(i, i + 1)
            self.model.objective[fam.indicators[v]] = float(cost[after] - cost[before])

    def _objective_jaccard_cat(self, attr: str, fam: CatFamily) -> None:
        """Jaccard distance of the refined value set from the original one,
        via a Charnes-Cooper substitution w = 1 / |original ∪ refined| and
        products z_v = w * A_v linearized over w's bounds."""
        r_set = fam.original
        union_ub = len(r_set | set(fam.domain))
        w_lo, w_hi = 1.0 / union_ub, 1.0 / len(r_set)
        w = self._var(self.namer.fresh("w", attr), CONTINUOUS, w_lo, w_hi)
        outside = [v for v in fam.domain if v not in r_set]
        inside = [v for v in fam.domain if v in r_set]
        z: dict[str, str] = {}
        for v in outside + inside:
            a = fam.indicators[v]
            zv = self._var(self.namer.fresh("z", attr, v), CONTINUOUS, 0, w_hi)
            z[v] = zv
            self._row(self.namer.fresh("gl1", zv), {zv: 1, a: -w_hi}, "<=", 0)
            self._row(self.namer.fresh("gl2", zv), {zv: 1, a: -w_lo}, ">=", 0)
            self._row(self.namer.fresh("gl3", zv), {zv: 1, w: -1, a: -w_lo}, "<=", -w_lo)
            self._row(self.namer.fresh("gl4", zv), {zv: 1, w: -1, a: -w_hi}, ">=", -w_hi)
        # w * |original ∪ refined| = 1
        coeffs = {w: float(len(r_set))}
        for v in outside:
            coeffs[z[v]] = 1.0
        self._row(self.namer.fresh("cc_norm", attr), coeffs, "=", 1)
        # distance = 1 - |original ∩ refined| * w
        self.model.objective_constant += 1.0
        self.model.objective[w] = self.model.objective.get(w, 0.0) - len(fam.kept)
        for v in inside:
            self.model.objective[z[v]] = self.model.objective.get(z[v], 0.0) - 1.0

    def _objective_jaccard(self) -> None:
        # |topk ∩ topk'| = sum of l at k* over the original top-k* tuples; the
        # Jaccard distance 1 - I / (2k* - I) is strictly decreasing in that
        # retained count I, so maximizing it finds the exact minimizer
        # (the distance itself is recomputed exactly downstream)
        t1 = set(self.original_topk)
        for at in self.encoded:
            if at.tuple.tid in t1:
                lv = self.l_name[(at.tuple.tid, self.k_star)]
                self.model.objective[lv] = self.model.objective.get(lv, 0.0) - 1.0
        self.model.objective_constant += float(self.k_star)

    def _objective_kendall(self) -> None:
        """Fagin top-k Kendall distance against the original top-k* list.

        Retained tuples keep their relative order, so only three pair classes
        cost anything: (departed, retained-below-it originally),
        (entered, retained-below-it in the refined list), and
        (departed, entered).
        """
        k, m = self.k_star, len(self.encoded) + 1
        t1 = set(self.original_topk)
        in_t1 = [at for at in self.encoded if at.tuple.tid in t1]
        out_t1 = [at for at in self.encoded if at.tuple.tid not in t1]
        entrants = {self.l_name[(at.tuple.tid, k)]: 1.0 for at in out_t1}

        def emit(prefix: str, tid: int, active_low: bool,
                 count: dict[str, float]) -> None:
            """Objective term v = (count expression) gated on l_{tid, k*}.

            active_low=True charges the count when the tuple departed
            (l = 0), active_low=False when it entered (l = 1).  Minimization
            pins v to the gated count, so only lower-bound rows are needed:
                v >= count - m * l        (departures)
                v >= count - m * (1 - l)  (entrants)
            """
            lv = self.l_name[(tid, k)]
            v = self._var(self.namer.fresh(prefix, tid), CONTINUOUS, 0, k)
            coeffs = {v: 1.0}
            for name, c in count.items():
                coeffs[name] = coeffs.get(name, 0.0) - c
            if active_low:
                coeffs[lv] = coeffs.get(lv, 0.0) + m
                rhs = 0.0
            else:
                coeffs[lv] = coeffs.get(lv, 0.0) - m
                rhs = -m
            self._row(self.namer.fresh(f"{prefix}_lo", tid), coeffs, ">=", rhs)
            self.model.objective[v] = self.model.objective.get(v, 0.0) + 1.0

        for at in in_t1:
            tid = at.tuple.tid
            below = {self.l_name[(o.tuple.tid, k)]: 1.0
                     for o in in_t1 if o.base_rank > at.base_rank}
            if below:
                # departed-tuple discordances with retained tuples below it
                emit("c2d", tid, True, below)
            if entrants:
                # departed x entered pairs, attributed to the departed tuple
                emit("c3", tid, True, dict(entrants))
        for at in out_t1:
            tid = at.tuple.tid
            below = {self.l_name[(o.tuple.tid, k)]: 1.0
                     for o in in_t1 if o.base_rank > at.base_rank}
            if below:
                # entered-tuple discordances with retained tuples below it
                emit("c2e", tid, False, below)

    # -- orchestration ------------------------------------------------------

    def build(self) -> BuildResult:
        if self.options.relevancy_prune:
            self.relevancy_prune()
        if not self.encoded:
            raise BuildError("no tuples to encode")
        self.gen_numeric_bound_exprs()
        self.gen_categorical_vars()
        self.gen_selection_exprs()
        self.gen_position_exprs()
        self.gen_size_topk_deficit_deviation()
        self.gen_objective()
        self.model.validate()
        return BuildResult(
            model=self.model,
            encoded=self.encoded,
            num_families=self.num_families,
            cat_families=self.cat_families,
            r_name=self.r_name,
            l_name=self.l_name,
            original_topk=list(self.original_topk),
            stats={
                "variables": len(self.model.variables),
                "rows": len(self.model.rows),
                "binaries": len(self.model.binaries),
                "encoded_tuples": len(self.encoded),
                "pruned_tuples": len(self.instance) - len(self.encoded),
                "lineage_classes": len({at.lineage_class for at in self.encoded}),
            },
        )


_OP_CODE = {"<": "lt", "<=": "le", "=": "eq", ">": "gt", ">=": "ge"}


def build_model(
    query: Query,
    db: Database,
    constraints: ConstraintSet,
    epsilon: Fraction,
    kind: DistanceKind,
    options: BuildOptions | None = None,
) -> BuildResult:
    """Compile the search over ``query``'s prepared instance in ``db``."""
    return ModelBuilder(query, db, constraints, epsilon, kind, options).build()


def extract_refinement(result: BuildResult, solution: Solution) -> Refinement:
    """Read the indicator pattern out of a solved model and look up, for
    every numeric predicate, the constant its selection maps to."""
    numeric: dict[tuple[str, str], Fraction] = {}
    for pred, fam in result.num_families.items():
        on = [i for i, v in enumerate(fam.domain)
              if round(solution.value(fam.indicators[v])) == 1]
        sel = range(on[0], on[-1] + 1) if on else range(0)
        if len(sel) != len(on) or sel not in fam.constants:
            raise InternalConsistencyError(
                f"selected values {[fam.domain[i] for i in on]} of predicate {pred} "
                "match no refined constant")
        numeric[pred] = fam.constants[sel]
    cats: dict[str, frozenset[str]] = {}
    for attr, fam in result.cat_families.items():
        chosen = {v for v, name in fam.indicators.items()
                  if round(solution.value(name)) == 1}
        cats[attr] = frozenset(chosen) | fam.kept
        if not cats[attr]:
            raise InternalConsistencyError(f"empty refined value set on {attr!r}")
    return Refinement(numeric_constants=numeric, cat_values=cats)
