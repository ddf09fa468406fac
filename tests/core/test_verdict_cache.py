"""Session-level verdict cache and compiled-engine wiring of the coverage engine.

The covering loop re-scores surviving candidate clauses against the full
example set round after round; the verdict cache must serve settled
(candidate, ground clause, label semantics) triples without re-proving them,
must key the two label semantics separately, and must reset with
``clear_cache``.  The wiring tests pin the session-level sharing contracts:
one :class:`~repro.logic.compiled.ClauseCompiler` per engine and its checker,
and the ``compiled_subsumption`` config switch routing the whole engine
through the reference checker.
"""

from __future__ import annotations

import pytest

from repro.core import BottomClauseBuilder, CoverageEngine, Example
from repro.db import Sampler
from repro.logic.subsumption import SubsumptionChecker

POS_M1 = Example(("m1",), True)
POS_M2 = Example(("m2",), True)
NEG_M3 = Example(("m3",), False)


def make_engine(problem, config) -> CoverageEngine:
    indexes = problem.build_similarity_indexes(
        top_k=config.top_k_matches, threshold=config.similarity_threshold
    )
    builder = BottomClauseBuilder(problem, config, indexes, Sampler(0))
    return CoverageEngine(builder, config, SubsumptionChecker())


@pytest.fixture
def engine(movie_problem, fast_config) -> CoverageEngine:
    return make_engine(movie_problem, fast_config)


@pytest.fixture
def candidate(engine) -> object:
    return engine.builder.build(POS_M1, ground=False)


class TestVerdictCache:
    def test_settled_pairs_are_not_reproved(self, engine, candidate, monkeypatch):
        proofs = []
        original = engine._prove_ground

        def counting(general, ground, *, positive):
            proofs.append((general.clause, ground.clause, positive))
            return original(general, ground, positive=positive)

        monkeypatch.setattr(engine, "_prove_ground", counting)
        first = engine.batch_covers(candidate, [POS_M1, POS_M2, NEG_M3])
        proved_once = len(proofs)
        assert proved_once == 3
        # Re-scoring the same clause (another generalisation round) hits the
        # cache for every pair.
        assert engine.batch_covers(candidate, [POS_M1, POS_M2, NEG_M3]) == first
        assert len(proofs) == proved_once

    def test_label_semantics_are_keyed_separately(self, engine, candidate):
        as_positive = Example(("m1",), True)
        as_negative = Example(("m1",), False)
        engine.covers(candidate, as_positive)
        engine.covers(candidate, as_negative)
        flags = {key[2] for key in engine._verdict_cache}
        assert flags == {True, False}

    def test_cached_verdicts_match_serial_reference(self, engine, candidate):
        examples = [POS_M1, POS_M2, NEG_M3]
        batched = engine.batch_covers(candidate, examples)
        twice = engine.batch_covers(candidate, examples)
        serial = [engine.covers_serial(candidate, example) for example in examples]
        assert batched == twice == serial

    def test_clear_cache_resets_verdicts(self, engine, candidate):
        engine.covers(candidate, POS_M1)
        assert engine._verdict_cache
        engine.clear_cache()
        assert not engine._verdict_cache


class TestCompiledWiring:
    def test_reference_mode_produces_identical_verdicts(self, movie_problem, fast_config):
        compiled_engine = make_engine(movie_problem, fast_config)
        reference_engine = make_engine(movie_problem, fast_config.but(compiled_subsumption=False))
        assert compiled_engine.compiler is compiled_engine.checker.compiler
        assert not reference_engine.checker.use_compiled
        examples = [POS_M1, POS_M2, NEG_M3]
        candidate = compiled_engine.builder.build(POS_M1, ground=False)
        assert compiled_engine.batch_covers(candidate, examples) == reference_engine.batch_covers(
            candidate, examples
        )

    def test_session_shares_preparation_compiler(self, movie_problem, fast_config):
        from repro.core import LearningSession

        session = LearningSession(movie_problem, fast_config)
        assert session.engine.compiler is session.preparation.compiler
        evaluation = session.for_examples(session.problem.examples)
        assert evaluation.engine.compiler is session.preparation.compiler
