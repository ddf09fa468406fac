"""The GIL-free process fan-out: wire fidelity, delta sync, backend identity.

The process backend (:mod:`repro.core.fanout`) re-proves coverage in worker
processes from shipped wire forms over an :class:`InternerView` — so the
whole correctness story reduces to three invariants, each pinned here:

* **wire fidelity** — a compiled form round-tripped through
  ``general_to_wire``/``specific_to_wire`` and rebuilt over a flags-only
  view yields the *same verdict* as the parent checker, for random clause
  pairs over the full extended language (Hypothesis);
* **delta sync** — interner growth after worker spawn (new candidate
  clauses compiled mid-fit intern fresh terms) reaches workers as
  ``snapshot_flags`` deltas, never as a desynchronised view;
* **backend identity** — ``batch_covers`` verdicts are equal across
  ``serial``/``process`` on a real learning session, and the process
  backend stays serial loudly (one ``seed-failure``
  :class:`~repro.core.supervision.FanoutFault`) when workers cannot be
  spawned.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DLearnConfig
from repro.core.fanout import ProcessFanout, _START_METHOD_ENV, checker_params
from repro.core.session import LearningSession
from repro.core.supervision import FanoutFault
from repro.data.registry import generate
from repro.data.synthetic import ScenarioSpec
from repro.logic import (
    ClauseCompiler,
    Comparison,
    ComparisonOp,
    Condition,
    Constant,
    HornClause,
    Variable,
    equality_literal,
    inequality_literal,
    relation_literal,
    repair_literal,
    similarity_literal,
)
from repro.logic.compiled import (
    InternerView,
    general_from_wire,
    general_to_wire,
    specific_from_wire,
    specific_to_wire,
)
from repro.logic.subsumption import SubsumptionChecker

X, Y = Variable("x"), Variable("y")


# --------------------------------------------------------------------- #
# plumbing units
# --------------------------------------------------------------------- #
class TestBackendConfig:
    def test_rejects_unknown_backend(self):
        for backend in ("gevent", "thread"):
            with pytest.raises(ValueError, match="parallel_backend"):
                DLearnConfig(parallel_backend=backend)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_accepts_the_two_backends(self, backend):
        assert DLearnConfig(parallel_backend=backend).parallel_backend == backend

    def test_default_backend_is_serial(self):
        assert DLearnConfig().parallel_backend == "serial"


class TestInternerView:
    def test_extend_applies_deltas_and_is_idempotent(self):
        view = InternerView()
        view.extend(0, 3, bytes([1, 0, 1]))
        assert len(view) == 3
        assert view.is_var(0) and not view.is_var(1) and view.is_var(2)
        view.extend(0, 3, bytes([1, 0, 1]))  # resent delta: no-op
        assert len(view) == 3
        view.extend(1, 5, bytes([0, 1, 0, 0]))  # overlapping delta: suffix only
        assert len(view) == 5
        assert not view.is_var(3) and not view.is_var(4)

    def test_gap_in_deltas_raises_instead_of_misindexing(self):
        view = InternerView()
        view.extend(0, 2, bytes([1, 0]))
        with pytest.raises(ValueError, match="gap"):
            view.extend(4, 6, bytes([0, 0]))

    def test_term_surface_is_refused_loudly(self):
        view = InternerView()
        with pytest.raises(TypeError):
            view.intern(Constant("a"))
        with pytest.raises(TypeError):
            view.term_of(0)


# --------------------------------------------------------------------- #
# wire fidelity: worker-side verdicts == parent verdicts (Hypothesis)
# --------------------------------------------------------------------- #
_VARS = [Variable(f"v{i}") for i in range(5)]
_CONSTS = [Constant(v) for v in ("a", "b", "c", 1)]
_PREDICATES = ["r", "s", "t3"]


def _terms(ground: bool):
    return st.sampled_from(_CONSTS) if ground else st.sampled_from(_VARS + _CONSTS)


def _literals(ground: bool):
    term = _terms(ground)
    relation = st.builds(
        lambda p, ts: relation_literal(p, *ts),
        st.sampled_from(_PREDICATES),
        st.tuples(term, term),
    )
    comparison = st.builds(
        lambda kind, left, right: kind(left, right),
        st.sampled_from([equality_literal, similarity_literal, inequality_literal]),
        term,
        term,
    )
    repair = st.builds(
        lambda target, repl, op, cl, cr: repair_literal(
            target, repl, Condition.of(Comparison(op, cl, cr)), provenance="md:m:0"
        ),
        term,
        term,
        st.sampled_from([ComparisonOp.SIM, ComparisonOp.EQ, ComparisonOp.NEQ]),
        term,
        term,
    )
    return st.one_of(relation, relation, comparison, repair)


def _clauses(ground: bool, min_body: int, max_body: int):
    return st.builds(
        lambda h, body: HornClause(relation_literal("h", *h), tuple(body)),
        st.tuples(_terms(ground), _terms(ground)),
        st.lists(_literals(ground), min_size=min_body, max_size=max_body),
    )


CLAUSE_PAIRS = st.tuples(
    _clauses(ground=False, min_body=1, max_body=5),
    st.booleans().flatmap(lambda g: _clauses(ground=g, min_body=2, max_body=8)),
)


def _worker_side(compiler: ClauseCompiler, parent: SubsumptionChecker):
    """A worker-process double: fresh checker over a flags-only view."""
    view = InternerView()
    view.extend(*compiler.terms.snapshot_flags(0))
    return SubsumptionChecker(**checker_params(parent)), view


class TestWireFidelity:
    @settings(max_examples=150, deadline=None)
    @given(CLAUSE_PAIRS)
    def test_roundtripped_forms_reproduce_parent_verdicts(self, pair):
        general, specific = pair
        compiler = ClauseCompiler()
        parent = SubsumptionChecker(compiler=compiler)
        result = parent.subsumes(general, specific)
        # Compile (interning every term) strictly before snapshotting, like
        # ProcessFanout.dispatch builds wires before taking the delta.
        g_wire = general_to_wire(compiler.compile_general(general))
        s_wire = specific_to_wire(compiler.compile_specific(parent.prepare(specific)))
        worker, view = _worker_side(compiler, parent)
        verdict = worker.subsumes_pair(
            general_from_wire(g_wire, view), specific_from_wire(s_wire, view)
        )
        assert verdict == result.subsumes
        if verdict:
            # Witness decoding is parent-only by design: whenever a worker
            # says True, the parent can still produce the substitution.
            assert result.theta is not None

    @settings(max_examples=60, deadline=None)
    @given(CLAUSE_PAIRS)
    def test_wire_forms_are_plain_data(self, pair):
        """Nothing boxed crosses the boundary: ints, strings, tuples, frozensets."""
        general, specific = pair
        compiler = ClauseCompiler()
        parent = SubsumptionChecker(compiler=compiler)
        g_wire = general_to_wire(compiler.compile_general(general))
        s_wire = specific_to_wire(compiler.compile_specific(parent.prepare(specific)))

        def assert_plain(value):
            if isinstance(value, (tuple, list, frozenset, set)):
                for element in value:
                    assert_plain(element)
            elif isinstance(value, dict):
                for key, element in value.items():
                    assert_plain(key)
                    assert_plain(element)
            else:
                assert value is None or isinstance(value, (int, str, bool, bytes)), repr(value)

        assert_plain(g_wire)
        assert_plain(s_wire)


# --------------------------------------------------------------------- #
# delta sync: interner growth after worker spawn
# --------------------------------------------------------------------- #
class _Prepared:
    """Minimal stand-in for a prepared clause (dispatch only reads .clause)."""

    def __init__(self, clause: HornClause):
        self.clause = clause


class TestDeltaSync:
    def test_terms_interned_after_spawn_reach_workers(self):
        compiler = ClauseCompiler()
        checker = SubsumptionChecker(compiler=compiler)

        def build_general(prepared):
            return (general_to_wire(compiler.compile_general(prepared.clause)), None, None, False)

        def build_ground(prepared):
            return (
                specific_to_wire(compiler.compile_specific(checker.prepare(prepared.clause))),
                None,
                None,
                False,
            )

        general = HornClause(relation_literal("h", X), (relation_literal("r", X, Y),))
        a, b = Constant("a"), Constant("b")
        first = HornClause(relation_literal("h", a), (relation_literal("r", a, b),))
        fanout = ProcessFanout(compiler.terms, checker_params(checker), n_jobs=1)
        try:
            verdicts = fanout.dispatch(
                [(_Prepared(general), _Prepared(first), True)], build_general, build_ground
            )
            assert verdicts == [True]
            watermark = compiler.terms.watermark()

            # Mid-fit growth: clauses over constants the workers have never
            # seen are compiled only now, inside the dispatch's builders.
            c, d, e = Constant("c99"), Constant("d99"), Constant("e99")
            covered = HornClause(relation_literal("h", c), (relation_literal("r", c, d),))
            uncovered = HornClause(relation_literal("h", c), (relation_literal("s", d, e),))
            verdicts = fanout.dispatch(
                [
                    (_Prepared(general), _Prepared(covered), True),
                    (_Prepared(general), _Prepared(uncovered), True),
                ],
                build_general,
                build_ground,
            )
            assert verdicts == [True, False]
            assert compiler.terms.watermark() > watermark  # growth actually happened
            assert fanout._watermarks == [compiler.terms.watermark()]  # and was synced
        finally:
            fanout.close()


class TestRoutingReset:
    def test_reset_routing_rehomes_grounds_with_identical_verdicts(self):
        compiler = ClauseCompiler()
        checker = SubsumptionChecker(compiler=compiler)

        def build_general(prepared):
            return (general_to_wire(compiler.compile_general(prepared.clause)), None, None, False)

        def build_ground(prepared):
            return (
                specific_to_wire(compiler.compile_specific(checker.prepare(prepared.clause))),
                None,
                None,
                False,
            )

        general = HornClause(relation_literal("h", X), (relation_literal("r", X, Y),))
        grounds = [
            HornClause(
                relation_literal("h", Constant(f"g{i}")),
                (relation_literal("r", Constant(f"g{i}"), Constant("b")),),
            )
            for i in range(4)
        ]
        pairs = [(_Prepared(general), _Prepared(ground), True) for ground in grounds]
        fanout = ProcessFanout(compiler.terms, checker_params(checker), n_jobs=2)
        try:
            first = fanout.dispatch(pairs, build_general, build_ground)
            assert first == [True] * 4
            before = dict(fanout._route)
            assert sorted(before) == [0, 1, 2, 3]  # all four grounds pinned

            fanout.reset_routing()
            assert fanout._route == {}  # the pinning is gone...
            assert fanout._next_worker == 0  # ...and the round-robin restarts

            # Re-dispatch in a different order: grounds rehome round-robin
            # from scratch, rebuilt wires re-ship on demand, and the verdicts
            # cannot move (they are routing-independent by construction).
            second = fanout.dispatch(list(reversed(pairs)), build_general, build_ground)
            assert second == [True] * 4
            after = dict(fanout._route)
            assert sorted(after) == [0, 1, 2, 3]
            # The reversed dispatch order pins handle 3 first, so the
            # rebalance demonstrably produced a different assignment.
            assert after != before
        finally:
            fanout.close()


# --------------------------------------------------------------------- #
# backend identity on a real learning session
# --------------------------------------------------------------------- #
_SPEC = ScenarioSpec(
    n_entities=30,
    n_positives=6,
    n_negatives=10,
    seed=7,
    string_variant_intensity=0.5,
    md_drift=0.5,
    cfd_violation_rate=0.25,
    null_rate=0.05,
    duplicate_rate=0.1,
)

_CONFIG = DLearnConfig(
    iterations=2,
    sample_size=6,
    top_k_matches=2,
    generalization_sample=3,
    max_clauses=3,
    min_clause_positive_coverage=2,
    min_clause_precision=0.55,
    seed=0,
)


@pytest.fixture(scope="module")
def dataset():
    return generate("synthetic", spec=_SPEC)


def _backend_verdicts(dataset, backend: str, jobs: int) -> list[tuple[bool, ...]]:
    problem = dataset.problem()
    session = LearningSession(problem, _CONFIG.but(parallel_backend=backend, n_jobs=jobs))
    examples = problem.examples.all()
    positives = list(problem.examples.positives)
    candidates = []
    for seed_example in positives[:2]:
        bottom = session.builder.build(seed_example, ground=False)
        candidates.append(bottom.prune_disconnected().prune_dangling_restrictions())
    try:
        return [tuple(session.engine.batch_covers(c, examples)) for c in candidates]
    finally:
        session.preparation.close()


class TestBackendIdentity:
    def test_process_equals_serial(self, dataset, recwarn):
        serial = _backend_verdicts(dataset, "serial", 1)
        process = _backend_verdicts(dataset, "process", 2)
        assert serial == process
        # The process path must have run for real — no silent fallback.
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]

    def test_single_job_process_backend_stays_on_calling_thread(self, dataset):
        problem = dataset.problem()
        session = LearningSession(problem, _CONFIG.but(parallel_backend="process", n_jobs=1))
        examples = problem.examples.all()
        clause = session.builder.build(list(problem.examples.positives)[0], ground=False)
        assert session.engine.batch_covers(clause, examples)
        assert session.engine._fanout is None  # no pool was ever spawned

    def test_unspawnable_workers_fall_back_to_serial_loudly(self, dataset, monkeypatch):
        monkeypatch.setenv(_START_METHOD_ENV, "not-a-start-method")
        serial = _backend_verdicts(dataset, "serial", 1)
        with pytest.warns(FanoutFault) as captured:
            degraded = _backend_verdicts(dataset, "process", 2)
        faults = [w.message for w in captured.list if isinstance(w.message, FanoutFault)]
        assert [(fault.kind, fault.pool) for fault in faults] == [("seed-failure", "coverage")]
        assert degraded == serial

    def test_process_pool_start_method_override_is_honoured(self, monkeypatch):
        monkeypatch.delenv(_START_METHOD_ENV, raising=False)
        from repro.core.fanout import _start_method

        assert _start_method() in ("fork", "spawn")
        monkeypatch.setenv(_START_METHOD_ENV, "spawn")
        assert _start_method() == "spawn"

    def test_effective_cpus_do_not_limit_correctness(self, dataset):
        """Even oversubscribed (more workers than cores) verdicts stay identical."""
        jobs = max(4, (os.cpu_count() or 1) * 2)
        assert _backend_verdicts(dataset, "process", jobs) == _backend_verdicts(
            dataset, "serial", 1
        )
