"""Verdict-cache invalidation on database mutation, and the kernel wiring.

The session-level verdict cache memoises (candidate, ground clause) proofs;
before this fix it survived in-place delta mutation of an
:class:`~repro.db.overlay.OverlayInstance` (a repair inserting tuples mutates
the overlay's ``_added`` delta in place), serving verdicts computed against
database state that no longer exists.  The coverage engine now stamps the
database (:meth:`mutation_stamp`) and drops every derived cache — ground
clauses, verdicts, saturation results, probe tables — when the stamp moves.

The wiring tests pin where ``DLearnConfig.vectorized_kernels`` reaches: only
the session checker's arc-consistency certificate.  The chase resolves every
depth through the probe cache's insert-time indexes whatever the switch
says, and flipping it never changes what is learned or predicted.
"""

from __future__ import annotations

import pytest

from repro.core import (
    BottomClauseBuilder,
    CoverageEngine,
    DLearn,
    DLearnConfig,
    Example,
    ExampleSet,
    LearningProblem,
    LearningSession,
)
from repro.db import (
    AttributeType,
    DatabaseInstance,
    DatabaseSchema,
    OverlayInstance,
    RelationSchema,
    Sampler,
)
from repro.logic.subsumption import SubsumptionChecker

POS_E1 = Example(("e1",), True)
NEG_E2 = Example(("e2",), False)


def tag_problem(database: DatabaseInstance) -> LearningProblem:
    """p(id) over r(id, v): e1 is tagged "good", e2 is (initially) untagged."""
    return LearningProblem(
        database=database,
        target=RelationSchema.of("p", [("id", AttributeType.STRING)]),
        examples=ExampleSet.of(positives=[("e1",)], negatives=[("e2",)]),
        constant_attributes=frozenset({("r", "v")}),
    )


def tag_database(*, overlay: bool) -> DatabaseInstance:
    schema = DatabaseSchema.of(
        RelationSchema.of("r", [("id", AttributeType.STRING), ("v", AttributeType.STRING)])
    )
    database = DatabaseInstance(schema)
    database.insert("r", ("e1", "good"))
    return OverlayInstance.over(database) if overlay else database


def tag_engine(problem: LearningProblem) -> CoverageEngine:
    config = DLearnConfig(iterations=1, sample_size=4, top_k_matches=2, generalization_sample=2)
    builder = BottomClauseBuilder(problem, config, {}, Sampler(0))
    return CoverageEngine(builder, config, SubsumptionChecker())


class TestMutationStamp:
    def test_plain_instance_stamp_moves_on_insert_only(self):
        database = tag_database(overlay=False)
        stamp = database.mutation_stamp()
        list(database.relation("r").tuples())  # reads leave the stamp alone
        assert database.mutation_stamp() == stamp
        database.insert("r", ("e3", "bad"))
        assert database.mutation_stamp() != stamp

    def test_overlay_stamp_moves_on_in_place_delta_insert(self):
        overlay = tag_database(overlay=True)
        stamp = overlay.mutation_stamp()
        assert overlay.mutation_stamp() == stamp
        # OverlayInstance.insert wraps the base relation in place and appends
        # to the overlay's _added delta; the base row count never changes, so
        # the stamp must witness the delta composition itself.
        overlay.insert("r", ("e2", "good"))
        assert len(overlay.base.relation("r")) == 1
        assert overlay.mutation_stamp() != stamp


class TestVerdictCacheInvalidation:
    @pytest.mark.parametrize("overlay", [True, False], ids=["overlay", "plain"])
    def test_repair_insert_flips_the_cached_verdict(self, overlay):
        database = tag_database(overlay=overlay)
        engine = tag_engine(tag_problem(database))
        candidate = engine.builder.build(POS_E1, ground=False)
        # Settle the verdicts: e1 is covered, the untagged e2 is not.
        assert engine.batch_covers(candidate, [POS_E1, NEG_E2]) == [True, False]
        # The repair: tag e2 like e1 (an in-place delta mutation when the
        # database is an overlay).  Every derived cache is now stale.
        database.insert("r", ("e2", "good"))
        assert engine.batch_covers(candidate, [POS_E1, NEG_E2]) == [True, True]

    def test_unmutated_database_keeps_the_caches(self, movie_problem, fast_config):
        session = LearningSession(movie_problem, fast_config)
        engine = session.engine
        prepared = engine.prepared_ground(POS_M1 := Example(("m1",), True))
        assert engine.prepared_ground(POS_M1) is prepared  # cache hit, no stamp move


class TestVectorizedWiring:
    @pytest.mark.parametrize("overlay", [False, True], ids=["plain", "overlay"])
    def test_switch_reaches_only_the_checker(
        self, movie_problem, fast_config, monkeypatch, overlay
    ):
        from repro.core.saturation import DatabaseProbeCache
        from repro.logic.kernels import HAS_NUMPY

        if overlay:
            movie_problem = movie_problem.with_database(OverlayInstance.over(movie_problem.database))
        calls: list[bool] = []
        any_rows_table = DatabaseProbeCache.any_rows_table

        def counted(self, relation, keys):
            calls.append(True)
            return any_rows_table(self, relation, keys)

        monkeypatch.setattr(DatabaseProbeCache, "any_rows_table", counted)
        examples = [Example((f"m{i}",), True) for i in range(1, 5)]
        relevant, probe_calls = {}, {}
        for switch in (True, False):
            calls.clear()
            session = LearningSession(movie_problem, fast_config.but(vectorized_kernels=switch))
            assert session.engine.checker.vectorized_kernels == (switch and HAS_NUMPY)
            relevant[switch] = [
                [t.values for t in result.tuples] for result in session.chase.relevant_many(examples)
            ]
            probe_calls[switch] = len(calls)
        assert relevant[True] == relevant[False]
        assert probe_calls[True] == probe_calls[False] > 0

    def test_vectorized_switch_does_not_change_what_is_learned(self, movie_problem, fast_config):
        on = DLearn(fast_config.but(vectorized_kernels=True)).fit(movie_problem)
        off = DLearn(fast_config.but(vectorized_kernels=False)).fit(movie_problem)
        assert [str(clause) for clause in on.clauses] == [str(clause) for clause in off.clauses]
        examples = [Example((f"m{i}",), True) for i in range(1, 5)]
        assert on.predict(examples) == off.predict(examples)
