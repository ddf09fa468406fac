"""Chaos suite: injected faults must recover to bit-identical results.

The supervision layer's claim (ISSUE: supervised fault-tolerant fan-out) is
that a worker killed -9 mid-dispatch, a chunk delayed past its deadline, a
corrupted wire payload and a dropped interner delta are all *recoverable*:
the worker respawns from pure wire state, replays its registration log, the
lost chunk is re-dispatched, and verdicts / relevant tuples / learned
definitions are exactly what a fault-free run produces.  Every test here
drives a real process pool through :mod:`repro.testing.chaos` and compares
against the serial oracle.

The fault policy (``recover``, demoting to serial / the unsharded chase once
the budget is spent, or ``raise``) and the demotion-closes-the-pool leak fix
are pinned at the coverage and saturation integration points; spawn
start-method coverage keeps the recovery path honest under the pickle-everything
regime CI's Linux ``fork`` default never exercises.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core import DLearn, DLearnConfig, FrontierChase, LearningSession
from repro.core.fanout import ProcessFanout, SaturationFanout, SerialShardScatter, checker_params
from repro.core.problem import Example
from repro.core.supervision import DeadlinePolicy, FanoutFault, FanoutFaultError, FaultPolicy
from repro.db.sharding import RelationShard, ShardedInstance
from repro.logic import ClauseCompiler, Constant, HornClause, Variable, relation_literal
from repro.logic.subsumption import SubsumptionChecker
from repro.testing.chaos import ChaosInjector, ChaosSpec

ALL_EXAMPLES = [
    Example(("m1",), True),
    Example(("m2",), True),
    Example(("m3",), False),
    Example(("m4",), False),
]

#: Far above any healthy movie-problem chunk, far below test patience.
_DEADLINES = DeadlinePolicy(dispatch_timeout=20.0, backoff=2.0, max_retries=2)
#: Trips the 1-second deadline used by the delay tests.
_SHORT_DEADLINES = DeadlinePolicy(dispatch_timeout=1.0, backoff=3.0, max_retries=2)


def _coverage_run(problem, config) -> tuple[list[tuple[bool, ...]], "LearningSession"]:
    """Candidate-clause verdict tuples over every example, plus the session."""
    session = LearningSession(problem, config)
    examples = problem.examples.all()
    candidates = [
        session.builder.build(seed, ground=False)
        .prune_disconnected()
        .prune_dangling_restrictions()
        for seed in list(problem.examples.positives)[:2]
    ]
    verdicts = [tuple(session.engine.batch_covers(clause, examples)) for clause in candidates]
    return verdicts, session


def _serial_oracle(problem, config) -> list[tuple[bool, ...]]:
    verdicts, session = _coverage_run(
        problem, config.but(parallel_backend="serial", n_jobs=1, chaos=None)
    )
    session.preparation.close()
    return verdicts


# --------------------------------------------------------------------- #
# coverage plane: every fault kind recovers to identical verdicts
# --------------------------------------------------------------------- #
class TestCoverageRecoveryIdentity:
    @pytest.fixture
    def process_config(self, fast_config) -> DLearnConfig:
        return fast_config.but(
            parallel_backend="process", n_jobs=2, deadline_policy=_DEADLINES
        )

    def test_killed_worker_recovers_bit_identically(self, movie_problem, process_config):
        oracle = _serial_oracle(movie_problem, process_config)
        config = process_config.but(chaos=ChaosSpec(kill_at=(0,)))
        with pytest.warns(FanoutFault) as captured:
            verdicts, session = _coverage_run(movie_problem, config)
        try:
            assert verdicts == oracle
            stats = session.fault_stats()["coverage"]
            assert stats is not None
            assert stats["faults"]["crash"] == 1
            assert stats["recoveries"] == 1 and stats["retries"] == 1
            assert stats["demotions"] == 0  # recovered, not demoted
            assert session.engine._fanout is not None  # still on the process plane
            kinds = {w.message.kind for w in captured.list if isinstance(w.message, FanoutFault)}
            assert "crash" in kinds
        finally:
            session.preparation.close()

    def test_delayed_chunk_past_deadline_recovers_bit_identically(
        self, movie_problem, process_config
    ):
        oracle = _serial_oracle(movie_problem, process_config)
        config = process_config.but(
            deadline_policy=_SHORT_DEADLINES,
            chaos=ChaosSpec(delay_at=(0,), delay_seconds=6.0),
        )
        with pytest.warns(FanoutFault):
            verdicts, session = _coverage_run(movie_problem, config)
        try:
            assert verdicts == oracle
            stats = session.fault_stats()["coverage"]
            assert stats["faults"]["timeout"] >= 1
            assert stats["recoveries"] >= 1
            assert session.engine._fanout is not None
        finally:
            session.preparation.close()

    def test_corrupt_wire_is_a_recoverable_desync(self, movie_problem, process_config):
        oracle = _serial_oracle(movie_problem, process_config)
        config = process_config.but(chaos=ChaosSpec(corrupt_wire_at=(0,)))
        with pytest.warns(FanoutFault):
            verdicts, session = _coverage_run(movie_problem, config)
        try:
            assert verdicts == oracle
            stats = session.fault_stats()["coverage"]
            assert stats["faults"]["desync"] >= 1
            assert stats["recoveries"] >= 1
        finally:
            session.preparation.close()

    def test_dropped_interner_delta_is_a_recoverable_desync(
        self, movie_problem, process_config
    ):
        # The candidate clauses intern fresh terms after the pool is seeded,
        # so the first dispatch genuinely carries a delta to drop.
        oracle = _serial_oracle(movie_problem, process_config)
        config = process_config.but(chaos=ChaosSpec(drop_delta_at=(0,)))
        with pytest.warns(FanoutFault):
            verdicts, session = _coverage_run(movie_problem, config)
        try:
            assert verdicts == oracle
            stats = session.fault_stats()["coverage"]
            assert stats["faults"]["desync"] >= 1
            assert stats["recoveries"] >= 1
        finally:
            session.preparation.close()

    def test_routing_survives_recovery(self, movie_problem, process_config):
        config = process_config.but(chaos=ChaosSpec(kill_at=(0,)))
        with pytest.warns(FanoutFault):
            _, session = _coverage_run(movie_problem, config)
        try:
            fanout = session.engine._fanout
            assert fanout is not None
            assert sorted(fanout._route) == [0, 1, 2, 3]  # pinning untouched
        finally:
            session.preparation.close()


# --------------------------------------------------------------------- #
# acceptance: kill -9 and a deadline miss mid-fit, on the process plane
# --------------------------------------------------------------------- #
class TestFitUnderChaos:
    def test_fit_with_kill_and_delay_completes_on_the_process_plane(
        self, movie_problem, fast_config
    ):
        serial_model = DLearn(fast_config.but(parallel_backend="serial")).fit(movie_problem)
        config = fast_config.but(
            parallel_backend="process",
            n_jobs=2,
            deadline_policy=_SHORT_DEADLINES,
            chaos=ChaosSpec(kill_at=(1,), delay_at=(3,), delay_seconds=6.0),
        )
        session = LearningSession(movie_problem, config)
        with pytest.warns(FanoutFault):
            model = DLearn(config).fit(movie_problem, session=session)
        try:
            assert model.clauses == serial_model.clauses  # bit-identical learning
            stats = session.fault_stats()["coverage"]
            assert stats is not None
            assert stats["faults"]["crash"] >= 1
            assert stats["faults"]["timeout"] >= 1
            assert stats["recoveries"] >= 2
            assert stats["demotions"] == 0
            assert session.engine._fanout is not None  # never left the process plane
        finally:
            session.preparation.close()


# --------------------------------------------------------------------- #
# the fault policy at the coverage integration point
# --------------------------------------------------------------------- #
class TestCoverageLadder:
    def _faulting_config(self, fast_config, **policy) -> DLearnConfig:
        return fast_config.but(
            parallel_backend="process",
            n_jobs=2,
            deadline_policy=_DEADLINES,
            chaos=ChaosSpec(kill_at=(0,)),
            fault_policy=FaultPolicy(**policy),
        )

    def test_raise_mode_propagates_the_terminal_fault(self, movie_problem, fast_config):
        config = self._faulting_config(fast_config, mode="raise")
        session = LearningSession(movie_problem, config)
        try:
            clause = session.builder.build(
                list(movie_problem.examples.positives)[0], ground=False
            )
            with pytest.raises(FanoutFaultError) as excinfo:
                session.engine.batch_covers(clause, movie_problem.examples.all())
            assert excinfo.value.kind == "crash"
            assert excinfo.value.pool == "coverage"
        finally:
            session.preparation.close()

    def test_exhausted_recovery_budget_demotes(self, movie_problem, fast_config):
        oracle = _serial_oracle(movie_problem, fast_config)
        config = fast_config.but(
            parallel_backend="process",
            n_jobs=2,
            deadline_policy=_DEADLINES,
            chaos=ChaosSpec(kill_at=(0,)),
            fault_policy=FaultPolicy(mode="recover", max_recoveries=0),
        )
        with pytest.warns(FanoutFault, match="falling back") as captured:
            verdicts, session = _coverage_run(movie_problem, config)
        try:
            assert verdicts == oracle
            stats = session.fault_stats()["coverage"]
            assert stats["recoveries"] == 0 and stats["demotions"] == 1
            # The leak fix: the demoted pool — attached, with a healthy
            # sibling worker — is closed and detached, not abandoned.
            assert session.engine._fanout is None
            demotions = [
                w.message for w in captured.list
                if isinstance(w.message, FanoutFault) and "demoted" in str(w.message)
            ]
            assert len(demotions) == 1
            assert demotions[0].kind == "crash"
            assert "serial coverage" in str(demotions[0])
        finally:
            session.preparation.close()

    def test_preparation_rebuilds_a_demoted_pool_on_demand(self, movie_problem, fast_config):
        config = self._faulting_config(fast_config, mode="recover", max_recoveries=0)
        session = LearningSession(movie_problem, config)
        try:
            broken = session.engine._fanout
            clause = session.builder.build(
                list(movie_problem.examples.positives)[0], ground=False
            )
            with pytest.warns(FanoutFault):
                session.engine.batch_covers(clause, movie_problem.examples.all())
            assert broken._closed
            rebuilt = session.preparation.process_fanout(
                session.engine.checker,
                config.n_jobs,
                fault_policy=config.fault_policy,
                deadline_policy=config.deadline_policy,
                chaos=config.chaos,
            )
            assert rebuilt is not broken and not rebuilt._closed
            rebuilt.close()
        finally:
            session.preparation.close()


# --------------------------------------------------------------------- #
# saturation plane: shard scatter chaos and its fault policy
# --------------------------------------------------------------------- #
def _make_chase(problem, config) -> FrontierChase:
    indexes = problem.build_similarity_indexes(
        top_k=config.top_k_matches, threshold=config.similarity_threshold
    )
    return FrontierChase(problem, config, indexes)


def _assert_same_relevant(left, right):
    assert [t.values for t in left.tuples] == [t.values for t in right.tuples]
    assert [t.relation for t in left.tuples] == [t.relation for t in right.tuples]
    assert left.similarity_evidence == right.similarity_evidence


class TestSaturationRecoveryIdentity:
    def test_killed_shard_worker_recovers_bit_identically(self, movie_problem, fast_config):
        chase = _make_chase(movie_problem, fast_config)
        scatter = SaturationFanout(
            ShardedInstance(movie_problem.database, 2),
            deadline_policy=_DEADLINES,
            chaos=ChaosInjector(ChaosSpec(kill_at=(0,))),
        )
        try:
            chase.attach_shard_scatter(scatter)
            reference = _make_chase(movie_problem, fast_config)
            with pytest.warns(FanoutFault):
                results = chase.relevant_many(ALL_EXAMPLES)
            for relevant, example in zip(results, ALL_EXAMPLES):
                _assert_same_relevant(relevant, reference.relevant_serial(example))
            assert chase._shard_scatter is scatter  # recovered, not detached
            counters = chase.fault_counters
            assert counters.faults["crash"] == 1 and counters.recoveries == 1
        finally:
            scatter.close()

    def test_delayed_shard_depth_recovers_bit_identically(self, movie_problem, fast_config):
        chase = _make_chase(movie_problem, fast_config)
        scatter = SaturationFanout(
            ShardedInstance(movie_problem.database, 2),
            deadline_policy=_SHORT_DEADLINES,
            chaos=ChaosInjector(ChaosSpec(delay_at=(1,), delay_seconds=6.0)),
        )
        try:
            chase.attach_shard_scatter(scatter)
            reference = _make_chase(movie_problem, fast_config)
            with pytest.warns(FanoutFault):
                results = chase.relevant_many(ALL_EXAMPLES)
            for relevant, example in zip(results, ALL_EXAMPLES):
                _assert_same_relevant(relevant, reference.relevant_serial(example))
            assert chase.fault_counters.faults["timeout"] >= 1
        finally:
            scatter.close()

    def test_supervised_desync_is_recovered_not_propagated(self, movie_problem, fast_config):
        """A supervised scatter repairs a lost delta by full re-seed.

        (The *unsupervised* desync-propagates pin lives in
        ``test_shard_chase.py`` — protocol bugs on a plane nobody supervises
        must still surface.)
        """
        chase = _make_chase(movie_problem, fast_config)
        sharded = ShardedInstance(movie_problem.database, 2)
        scatter = SaturationFanout(
            sharded,
            deadline_policy=_DEADLINES,
            chaos=ChaosInjector(ChaosSpec(corrupt_wire_at=(0, 1), drop_delta_at=(2, 3))),
        )
        try:
            chase.attach_shard_scatter(scatter)
            reference = _make_chase(movie_problem, fast_config)
            # Corrupt/drop ordinals only bite when a depth actually ships
            # resets or deltas; over a static database the first depths ship
            # neither, so this run must above all stay *identical* — and
            # warning-free when nothing fired, loud when something did.
            with warnings.catch_warnings(record=True) as captured:
                warnings.simplefilter("always")
                results = chase.relevant_many(ALL_EXAMPLES)
            for relevant, example in zip(results, ALL_EXAMPLES):
                _assert_same_relevant(relevant, reference.relevant_serial(example))
            assert all(
                isinstance(w.message, FanoutFault)
                for w in captured
                if issubclass(w.category, RuntimeWarning)
            )
        finally:
            scatter.close()

    def test_terminal_fault_demotes_to_the_unsharded_chase(self, movie_problem, fast_config):
        chase = _make_chase(
            movie_problem, fast_config.but(fault_policy=FaultPolicy(max_recoveries=0))
        )
        scatter = SaturationFanout(
            ShardedInstance(movie_problem.database, 2),
            fault_policy=FaultPolicy(max_recoveries=0),
            deadline_policy=_DEADLINES,
            chaos=ChaosInjector(ChaosSpec(kill_at=(0,))),
        )
        chase.attach_shard_scatter(scatter)
        reference = _make_chase(movie_problem, fast_config)
        with pytest.warns(FanoutFault, match="falling back"):
            results = chase.relevant_many(ALL_EXAMPLES)
        for relevant, example in zip(results, ALL_EXAMPLES):
            _assert_same_relevant(relevant, reference.relevant_serial(example))
        assert chase._shard_scatter is None  # detached...
        assert scatter._closed  # ...and closed, healthy shard worker included
        assert chase.fault_counters.demotions == 1

    def test_raise_mode_propagates_from_the_chase(self, movie_problem, fast_config):
        chase = _make_chase(movie_problem, fast_config.but(fault_policy=FaultPolicy(mode="raise")))
        scatter = SaturationFanout(
            ShardedInstance(movie_problem.database, 2),
            fault_policy=FaultPolicy(mode="raise"),
            deadline_policy=_DEADLINES,
            chaos=ChaosInjector(ChaosSpec(kill_at=(0,))),
        )
        try:
            chase.attach_shard_scatter(scatter)
            with pytest.raises(FanoutFaultError) as excinfo:
                chase.relevant_many(ALL_EXAMPLES)
            assert excinfo.value.pool == "saturation"
        finally:
            scatter.close()


# --------------------------------------------------------------------- #
# spawn start method: recovery must survive the pickle-everything regime
# --------------------------------------------------------------------- #
X, Y = Variable("x"), Variable("y")


class _Prepared:
    def __init__(self, clause: HornClause):
        self.clause = clause


class TestSpawnStartMethod:
    def test_coverage_recovery_after_respawn_under_spawn(self):
        from repro.logic.compiled import general_to_wire, specific_to_wire

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
        ground = HornClause(relation_literal("h", a), (relation_literal("r", a, b),))
        fanout = ProcessFanout(
            compiler.terms,
            checker_params(checker),
            n_jobs=1,
            start_method="spawn",
            deadline_policy=_DEADLINES,
            chaos=ChaosInjector(ChaosSpec(kill_at=(0,))),
        )
        try:
            with pytest.warns(FanoutFault):
                verdicts = fanout.dispatch(
                    [(_Prepared(general), _Prepared(ground), True)], build_general, build_ground
                )
            assert verdicts == [True]
            assert fanout.supervisor.counters.recoveries == 1
            # The respawned worker holds the replayed registrations: a second
            # dispatch over the same handles ships nothing new and agrees.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                again = fanout.dispatch(
                    [(_Prepared(general), _Prepared(ground), True)], build_general, build_ground
                )
            assert again == [True]
        finally:
            fanout.close()

    def test_saturation_recovery_after_respawn_under_spawn(self, movie_problem):
        sharded = ShardedInstance(movie_problem.database, 2)
        scatter = SaturationFanout(
            sharded,
            start_method="spawn",
            deadline_policy=_DEADLINES,
            chaos=ChaosInjector(ChaosSpec(kill_at=(0,))),
        )
        oracle = SerialShardScatter(ShardedInstance(movie_problem.database, 2))
        names = tuple(sorted(rel.schema.name for rel in movie_problem.database))
        frontier = tuple(sorted(movie_problem.database.intern_values(("m1", "m2"))))
        try:
            with pytest.warns(FanoutFault):
                membership, equality = scatter.depth_tables(names, frontier, ())
            assert (membership, equality) == oracle.depth_tables(names, frontier, ())
            assert scatter.supervisor.counters.recoveries == 1
        finally:
            scatter.close()
            oracle.close()


# --------------------------------------------------------------------- #
# lifecycle edges
# --------------------------------------------------------------------- #
class TestLifecycle:
    def test_process_fanout_close_is_idempotent_and_dispatch_after_close_raises(self):
        compiler = ClauseCompiler()
        checker = SubsumptionChecker(compiler=compiler)
        fanout = ProcessFanout(compiler.terms, checker_params(checker), n_jobs=1)
        fanout.close()
        fanout.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            fanout.dispatch([], lambda p: None, lambda p: None)

    def test_saturation_fanout_close_is_idempotent_and_depth_after_close_raises(
        self, movie_problem
    ):
        scatter = SaturationFanout(ShardedInstance(movie_problem.database, 2))
        scatter.close()
        scatter.close()
        with pytest.raises(RuntimeError, match="closed"):
            scatter.depth_tables((), (), ())

    def test_fault_stats_are_none_without_supervised_pools(self, movie_problem, fast_config):
        session = LearningSession(movie_problem, fast_config)
        try:
            assert session.fault_stats() == {"coverage": None, "saturation": None}
        finally:
            session.preparation.close()


# --------------------------------------------------------------------- #
# corrupt wire validation at the sharding layer
# --------------------------------------------------------------------- #
class TestShardWireValidation:
    def test_wrong_shape_is_rejected(self):
        with pytest.raises(ValueError, match="corrupt shard wire"):
            RelationShard.from_wire(("__chaos_corrupt_wire__",))

    def test_malformed_header_is_rejected(self):
        with pytest.raises(ValueError, match="header"):
            RelationShard.from_wire((42, "not-an-index", (), b""))

    def test_disagreeing_column_lengths_are_rejected(self, movie_problem):
        sharded = ShardedInstance(movie_problem.database, 2)
        shard = sharded.shard_relations()["movies"].shards[0]
        assert len(shard) > 0
        name, index, columns, global_rows = shard.to_wire()
        truncated = tuple(column[:-8] for column in columns)
        with pytest.raises(ValueError, match="column lengths"):
            RelationShard.from_wire((name, index, truncated, global_rows))

    def test_roundtrip_of_a_healthy_wire_still_works(self, movie_problem):
        sharded = ShardedInstance(movie_problem.database, 2)
        shard = sharded.shard_relations()["movies"].shards[0]
        rebuilt = RelationShard.from_wire(shard.to_wire())
        assert len(rebuilt) == len(shard)
        assert rebuilt.id_rows() == shard.id_rows()
