"""Vectorised binding-matrix kernels over the compiled θ-subsumption plane.

PR 5 compiled every subsumption problem down to flat integers —
:class:`~repro.logic.compiled.CompiledGeneral` slots, signature-grouped
:class:`~repro.logic.compiled.CompiledSpecific` rows, per-argument-position
``{term id → row bitmask}`` prefilter tables — but the search itself still
walks those structures one candidate row at a time in the interpreter.  This
module re-expresses the *pruning* half of the problem as dense numpy
arithmetic (the ``MarginalBinding`` variable → object candidacy-matrix shape):

* each unbound slot of the general clause carries a boolean **domain row**
  over the specific clause's term universe — together the rows form the
  ``[n_slots, n_terms]`` binding matrix;
* each goal carries a boolean **row mask** over its signature group's
  candidate rows, seeded from the existing per-position bitmask prefilter
  tables (constants and already-bound slots) plus vectorised repeated-slot
  equality;
* an **arc-consistency sweep** alternates the two until fixpoint: a goal's
  surviving rows are those whose argument values all lie in the current slot
  domains (a fancy-indexed gather), and a slot's surviving domain is the
  intersection of the per-position support sets of the goals it appears in
  (a vectorised scatter).

The sweep never *solves* the NP-hard matching problem — it computes a sound
over-approximation of it.  Its products are the **unsatisfiability
certificate** (if any goal's row mask or any slot's domain row empties, no
witness substitution extending the given binding exists, so the caller can
refute without entering ``CompiledSearch``) and the **pruned candidate
rows** (:func:`prune`): rows the fixpoint eliminated can appear in no
witness, so budget-bound ``retained_generalization`` retries skip the
doomed subtrees rooted at them instead of burning ``max_steps`` proving
them hopeless one backtrack at a time.

Soundness (why a fired certificate can never disagree with the search): the
constraints the sweep enforces — signature match, constant-position
equality, bound-slot consistency, repeated-slot equality within a row, slot
values drawn from candidate-row values — are all *necessary* conditions of
:meth:`CompiledSearch.match_candidate`.  Repair conditions, comparison
literals and Definition 4.4 connectivity are deliberately ignored: each only
ever removes witnesses, so ignoring them keeps the relaxation satisfiable
whenever the real problem is.  Arc-consistency preserves every solution of
the relaxation (a solution row survives every mask it is checked against, so
its slot values always remain supported).  Hence *certificate ⇒ no witness*,
while the converse is intentionally open — an inconclusive sweep simply
falls through to the exact search, whose verdicts, witnesses and retained
lists are therefore byte-identical with kernels on or off.

numpy is optional at import time: without it :data:`HAS_NUMPY` is false and
:func:`refutes` degrades to a constant ``False`` (the exact search runs, as
before PR 7).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

try:  # pragma: no cover - exercised only on numpy-free interpreters
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

if TYPE_CHECKING:
    from .compiled import CompiledGeneral, CompiledSpecific

__all__ = ["HAS_NUMPY", "binding_matrix", "prune", "refutes", "specific_plane"]

HAS_NUMPY = np is not None


def _bitmask_rows(mask: int, nrows: int) -> "np.ndarray":
    """Decode one prefilter bitmask (bit ``i`` = row ``i``) to a boolean row mask."""
    data = mask.to_bytes((nrows + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little", count=nrows)
    return bits.astype(bool)


class SpecificPlane:
    """The numpy face of one :class:`~repro.logic.compiled.CompiledSpecific`.

    ``universe`` is the sorted array of every term id appearing in a
    candidate row — the term axis of the binding matrix.  ``local_rows``
    re-expresses each signature group's candidate rows as indexes into that
    universe, so domain membership is a single fancy-indexed gather.  The
    plane is pure (derived from immutable compiled data), so a lazy build
    racing across caller threads sharing a session at worst recomputes it.
    """

    __slots__ = ("universe", "local_rows", "n_terms", "rep", "_partners")

    def __init__(self, cs: "CompiledSpecific") -> None:
        blocks: dict[int, "np.ndarray"] = {}
        for sig, group in cs.groups.items():
            arity = len(group.pos_masks)
            if arity == 0:
                blocks[sig] = np.empty((group.nrows, 0), dtype=np.int64)
            else:
                block = cs.rows[group.base : group.base + group.nrows]
                blocks[sig] = np.array(block, dtype=np.int64)
        parts = [block.ravel() for block in blocks.values() if block.size]
        self.universe: "np.ndarray" = (
            np.unique(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
        )
        self.n_terms: int = int(self.universe.size)
        # Every row value is in the universe by construction, so searchsorted
        # is an exact id → universe-index translation.
        self.local_rows: dict[int, "np.ndarray"] = {
            sig: np.searchsorted(self.universe, block) for sig, block in blocks.items()
        }
        collapse = cs.collapse_ids
        # Collapse representative of each universe term — the id space
        # check_comparisons compares in (it collapse-maps both sides first).
        self.rep: "np.ndarray" = (
            np.array([collapse.get(int(t), int(t)) for t in self.universe], dtype=np.int64)
            if self.n_terms
            else np.empty(0, dtype=np.int64)
        )
        self._partners: "dict[int, np.ndarray] | None" = None

    def partners(self, cs: "CompiledSpecific") -> "dict[int, np.ndarray]":
        """``{collapsed id → array of similar collapsed ids}`` from ``cs.similar``."""
        table = self._partners
        if table is None:
            raw: dict[int, list[int]] = {}
            for a, b in cs.similar:
                raw.setdefault(a, []).append(b)
                raw.setdefault(b, []).append(a)
            table = {key: np.array(vals, dtype=np.int64) for key, vals in raw.items()}
            self._partners = table
        return table


def specific_plane(cs: "CompiledSpecific") -> SpecificPlane:
    """The cached :class:`SpecificPlane` of *cs*, built on first use.

    Cached on the compiled form itself (``cs.np_plane``) so every checker and
    caller thread sharing the session's :class:`ClauseCompiler` shares one
    plane per ground clause.
    """
    plane = cs.np_plane
    if plane is None:
        plane = SpecificPlane(cs)
        cs.np_plane = plane
    return plane  # type: ignore[return-value]


def _condition_filter(
    cg: "CompiledGeneral",
    cs: "CompiledSpecific",
    goal,
    base: int,
    binding: Sequence[int],
    ok: "np.ndarray",
) -> "np.ndarray":
    """Drop candidate rows whose decidable repair conditions fail.

    Matching a candidate row forces every slot appearing in the goal's
    argument positions to that row's value, so any condition triple whose
    sides are all constants, seed-bound slots, or row-bound slots is decided
    the instant the row is chosen — :meth:`CompiledSearch.match_candidate`
    would evaluate it to exactly the same verdict.  Filtering those rows
    here is therefore *exact*, not a relaxation; triples with a genuinely
    unbound side (or a specific-clause variable, which the search's
    ``substitute`` treats as unbound) are skipped, which only keeps rows.
    This is what refutes the dirty-scenario retries whose slot domains stay
    arc-consistent: their burn comes from repair rows that match
    structurally but carry the wrong condition.
    """
    slot_pos: dict[int, int] = {}
    for pos, code in enumerate(goal.codes):
        if code < 0 and ~code not in slot_pos:
            slot_pos[~code] = pos
    rows = cs.rows
    conds = cs.conds
    is_var = cs.terms.is_var
    for local in np.nonzero(ok)[0]:
        gidx = base + int(local)
        row = rows[gidx]
        keys = conds[gidx] or frozenset()
        for op, left, right in goal.cond:
            decided = []
            for code in (left, right):
                if code >= 0:
                    decided.append(code)
                    continue
                slot = ~code
                value = binding[slot]
                if value < 0:
                    pos = slot_pos.get(slot)
                    if pos is None:
                        break
                    value = row[pos]
                if is_var(value):
                    break
                decided.append(value)
            if len(decided) < 2:
                continue
            lo, hi = decided
            if lo > hi:
                lo, hi = hi, lo
            if (op, lo, hi) not in keys:
                ok[local] = False
                break
    return ok


def _comparison_plan(
    cs: "CompiledSpecific",
    plane: SpecificPlane,
    binding: Sequence[int],
    dom: "dict[int, np.ndarray]",
    comp_triples: Sequence[tuple[int, int, int]],
) -> "tuple[list[tuple[int, int]], list[tuple[int, int]]] | None":
    """Fold comparison triples into the sweep: seed filters plus slot edges.

    ``check_comparisons`` runs at the search's leaf, where every slot of the
    searched goals is bound, so for triples whose sides are constants,
    seed-bound slots, or domain slots its EQ/SIM verdicts over collapsed ids
    are *necessary* conditions the sweep may enforce.  Triples touching a
    slot no searched goal binds are skipped (the leaf check sees them with
    an unbound side and its semantics differ); inequality triples prune
    nothing useful and are skipped too.  Returns the slot–slot EQ and SIM
    edges for the fixpoint after applying the constant-side filters, or
    ``None`` when a ground triple (or an emptied domain) refutes outright.
    """
    from .compiled import _EQ, _SIM, _pair

    rep = plane.rep
    collapse = cs.collapse_ids
    eq_edges: list[tuple[int, int]] = []
    sim_edges: list[tuple[int, int]] = []
    for kind, left, right in comp_triples:
        if kind != _EQ and kind != _SIM:
            continue
        sides: list[tuple[bool, int]] = []  # (is_slot, slot | collapsed id)
        usable = True
        for code in (left, right):
            value = code if code >= 0 else binding[~code]
            if value >= 0:
                sides.append((False, collapse.get(value, value)))
            elif ~code in dom:
                sides.append((True, ~code))
            else:
                usable = False
                break
        if not usable:
            continue
        (l_slot, l_val), (r_slot, r_val) = sides
        if not l_slot and not r_slot:
            if l_val == r_val:
                continue
            if kind == _EQ or _pair(l_val, r_val) not in cs.similar:
                return None
        elif l_slot and r_slot:
            if l_val == r_val:
                continue  # same slot: both sides collapse identically
            (eq_edges if kind == _EQ else sim_edges).append((l_val, r_val))
        else:
            slot, const = (l_val, r_val) if l_slot else (r_val, l_val)
            if kind == _EQ:
                narrowed = dom[slot] & (rep == const)
            else:
                similar_to = plane.partners(cs).get(const)
                allowed = rep == const
                if similar_to is not None:
                    allowed |= np.isin(rep, similar_to)
                narrowed = dom[slot] & allowed
            if not narrowed.any():
                return None
            dom[slot] = narrowed
    return eq_edges, sim_edges


def _sweep(
    cg: "CompiledGeneral",
    cs: "CompiledSpecific",
    binding: Sequence[int],
    goal_idxs: Sequence[int],
    condition_subset: bool = True,
    comp_triples: Sequence[tuple[int, int, int]] = (),
) -> "tuple[dict[int, np.ndarray], list] | None":
    """Arc-consistency fixpoint over *goal_idxs* extending *binding*.

    Returns the final ``{slot → domain row}`` map for the unbound slots the
    goals mention together with the per-goal sweep plans (for
    :func:`prune`'s surviving-row extraction), or ``None`` when some goal or
    slot emptied — the unsatisfiability certificate.
    """
    plane = specific_plane(cs)
    goals = cg.goals
    dom: dict[int, "np.ndarray"] = {}
    # (goal idx, group base, static row mask, local rows, [(position, slot), ...]).
    plans: list[tuple[int, int, "np.ndarray", "np.ndarray", list[tuple[int, int]]]] = []
    for g in goal_idxs:
        goal = goals[g]
        group = cs.groups.get(goal.sig)
        if group is None:
            return None  # no candidate rows at all: trivially refuted
        # Seed from the per-position bitmask prefilter tables: constants and
        # already-bound slots narrow the row set exactly as candidate_mask()
        # would before the backtracking search touches a row.
        mask = group.full_mask
        for pos, code in enumerate(goal.codes):
            value = code if code >= 0 else binding[~code]
            if value < 0:
                continue
            mask &= group.pos_masks[pos].get(value, 0)
            if not mask:
                return None
        rows = plane.local_rows[goal.sig]
        ok = _bitmask_rows(mask, group.nrows)
        first_pos: dict[int, int] = {}
        unbound: list[tuple[int, int]] = []
        for pos, code in enumerate(goal.codes):
            if code >= 0 or binding[~code] >= 0:
                continue
            slot = ~code
            seen = first_pos.get(slot)
            if seen is None:
                first_pos[slot] = pos
                unbound.append((pos, slot))
                if slot not in dom:
                    dom[slot] = np.ones(plane.n_terms, dtype=bool)
            else:
                # A repeated slot must take one value across its positions.
                ok &= rows[:, pos] == rows[:, seen]
        if goal.cond is not None and condition_subset and ok.any():
            # condition_subset=False compares the *whole* applied condition
            # set for equality, which row-local evaluation cannot decide —
            # the filter stays subset-mode only.
            ok = _condition_filter(cg, cs, goal, group.base, binding, ok)
        if not ok.any():
            return None
        plans.append((g, group.base, ok, rows, unbound))

    eq_edges: list[tuple[int, int]] = []
    sim_edges: list[tuple[int, int]] = []
    if comp_triples:
        edges = _comparison_plan(cs, plane, binding, dom, comp_triples)
        if edges is None:
            return None
        eq_edges, sim_edges = edges

    rep = plane.rep
    partners = plane.partners(cs) if sim_edges else {}
    changed = True
    while changed:
        changed = False
        for _, _, static_ok, rows, unbound in plans:
            ok = static_ok
            for pos, slot in unbound:
                ok = ok & dom[slot][rows[:, pos]]
            if not ok.any():
                return None
            for pos, slot in unbound:
                support = np.zeros(plane.n_terms, dtype=bool)
                support[rows[ok, pos]] = True
                narrowed = dom[slot] & support
                if not narrowed.any():
                    return None
                if (narrowed != dom[slot]).any():
                    dom[slot] = narrowed
                    changed = True
        for x, y in eq_edges:
            # collapse(value of x) == collapse(value of y): each domain keeps
            # only values whose representative the other side still supports.
            for a, b in ((x, y), (y, x)):
                narrowed = dom[a] & np.isin(rep, rep[dom[b]])
                if not narrowed.any():
                    return None
                if (narrowed != dom[a]).any():
                    dom[a] = narrowed
                    changed = True
        for x, y in sim_edges:
            # Similarity passes on equal representatives or a cs.similar pair.
            for a, b in ((x, y), (y, x)):
                reps_b = np.unique(rep[dom[b]])
                supported = [reps_b]
                for r in reps_b:
                    partner = partners.get(int(r))
                    if partner is not None:
                        supported.append(partner)
                narrowed = dom[a] & np.isin(rep, np.concatenate(supported))
                if not narrowed.any():
                    return None
                if (narrowed != dom[a]).any():
                    dom[a] = narrowed
                    changed = True
    return dom, plans


def refutes(
    cg: "CompiledGeneral",
    cs: "CompiledSpecific",
    binding: Sequence[int],
    goal_idxs: Sequence[int],
    condition_subset: bool = True,
    comp_triples: Sequence[tuple[int, int, int]] = (),
) -> bool:
    """True only when provably **no** witness maps *goal_idxs* extending *binding*.

    The certificate: arc-consistency emptied a goal's candidate rows or a
    slot's domain.  ``False`` is always inconclusive — the caller must run
    the exact search.  Without numpy this is constantly inconclusive.
    *condition_subset* must mirror the search's own condition semantics (the
    repair-condition row filter only applies in subset mode), and
    *comp_triples* the comparison triples the search will enforce at its
    leaves.
    """
    if np is None or not goal_idxs:
        return False
    return _sweep(cg, cs, binding, goal_idxs, condition_subset, comp_triples) is None


def prune(
    cg: "CompiledGeneral",
    cs: "CompiledSpecific",
    binding: Sequence[int],
    goal_idxs: Sequence[int],
    condition_subset: bool = True,
    comp_triples: Sequence[tuple[int, int, int]] = (),
) -> "dict[int, frozenset[int]] | None":
    """Arc-consistent candidate rows per goal, or ``None`` when refuted.

    ``None`` is :func:`refutes`'s certificate.  Otherwise each searched goal
    maps to the **global row indexes** that survived the sweep — a sound
    over-approximation of the rows that can appear in *any* witness
    extending *binding*, so :class:`~repro.logic.compiled.CompiledSearch`
    may skip the others (``allowed_rows``) without losing a solution.  The
    search keeps selecting goals by its own unpruned candidate counts, so
    the DFS visit order over the surviving rows — and with it the first
    witness found — is unchanged; pruning only removes subtrees that end in
    failure, which is how budget-bound retries stop burning ``max_steps``
    on provably doomed branches.  An empty *goal_idxs* (or no numpy) yields
    an empty map: nothing to prune, nothing refuted.
    """
    if np is None or not goal_idxs:
        return {}
    swept = _sweep(cg, cs, binding, goal_idxs, condition_subset, comp_triples)
    if swept is None:
        return None
    dom, plans = swept
    allowed: dict[int, frozenset[int]] = {}
    for g, base, static_ok, rows, unbound in plans:
        ok = static_ok
        for pos, slot in unbound:
            ok = ok & dom[slot][rows[:, pos]]
        if not ok.all():
            allowed[g] = frozenset((base + np.nonzero(ok)[0]).tolist())
    return allowed


def binding_matrix(
    cg: "CompiledGeneral",
    cs: "CompiledSpecific",
    binding: Sequence[int] | None = None,
    goal_idxs: Sequence[int] | None = None,
    condition_subset: bool = True,
) -> "tuple[np.ndarray, np.ndarray] | None":
    """The post-sweep ``[n_slots, n_terms]`` binding matrix, or ``None`` if refuted.

    Row *s* marks which universe terms slot *s* may still bind to: bound
    slots are one-hot (all-zero when bound outside the candidate-row
    universe), swept slots carry their arc-consistent domain, and slots the
    considered goals never mention stay all-true (unconstrained).  Returns
    the matrix together with the universe (term-id axis labels).  This is
    the introspection/testing face of :func:`refutes`; the hot paths call
    :func:`refutes` directly and never materialise the full matrix.
    """
    if np is None:
        return None
    if binding is None:
        binding = [-1] * cg.nslots
    if goal_idxs is None:
        goal_idxs = cg.all_goal_idxs
    swept = _sweep(cg, cs, binding, goal_idxs, condition_subset)
    if swept is None:
        return None
    dom, _ = swept
    plane = specific_plane(cs)
    matrix = np.ones((cg.nslots, plane.n_terms), dtype=bool)
    for slot in range(cg.nslots):
        bound = binding[slot]
        if bound >= 0:
            row = np.zeros(plane.n_terms, dtype=bool)
            at = int(np.searchsorted(plane.universe, bound))
            if at < plane.n_terms and plane.universe[at] == bound:
                row[at] = True
            matrix[slot] = row
        elif slot in dom:
            matrix[slot] = dom[slot]
    return matrix, plane.universe
