"""Workload inputs (generated from the seed) and the closed-loop drivers that time them.

Every workload runs over a fixed suite of *worlds*: synthetic dirty-data
scenarios generated from the world seeds ``0 .. n-1``, each loaded,
prepared, learned from and queried on its own, the way the paper evaluates
a fixed set of datasets with fixed folds.  The run's ``--seed`` draws the
order of the requests: the serving workloads' request streams and the
order in which each cross-validation fold's test tuples are asked.  Neither
the worlds nor the folds are drawn from the run seed, because learning cost
depends so heavily on them that no affordable number of them per run keeps
the spread between runs inside the metric bounds: a few folds of some
splits search for seconds where the rest take a tenth of a second, and with
seed-drawn splits ``fit_s`` spread 0.46 of its median over ten seeds.
One client issues each request only after the previous one returned (a
closed loop).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import random
import re
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

from repro.constraints.cfds import ConditionalFunctionalDependency
from repro.constraints.mds import MatchingDependency
from repro.core.config import DLearnConfig
from repro.core.dlearn import DLearn, LearnedModel
from repro.core.problem import Example, ExampleSet, LearningProblem
from repro.core.session import DatabasePreparation, LearningSession
from repro.data.synthetic import ScenarioSpec, generate
from repro.db.instance import DatabaseInstance
from repro.db.overlay import OverlayInstance
from repro.db.schema import DatabaseSchema, RelationSchema
from repro.evaluation.cross_validation import stratified_folds

from harness import OpCounter, digest
from spans import Tracer

#: Learner settings of every workload: the CFD-heavy bench grid's search
#: settings with a two-hop chase.  With a three-hop chase single fold fits on
#: the CFD-heavy world range from 0.2 s to 9 s depending on the world, a tail
#: no run length that fits the benchmark's time budget averages out.
CONFIG = DLearnConfig(
    iterations=2,
    sample_size=8,
    top_k_matches=3,
    generalization_sample=4,
    max_clauses=4,
    min_clause_positive_coverage=2,
    min_clause_precision=0.55,
    seed=0,
)
#: cv-process: the same learner on the process plane with 2 workers and 2 shards.
PROCESS_CONFIG = CONFIG.but(parallel_backend="process", n_jobs=2, shard_count=2)

#: The CFD-heavy scenario of the cross-validation workloads.
CV_SPEC = ScenarioSpec(
    n_entities=60,
    string_variant_intensity=0.6,
    md_drift=0.7,
    cfd_violation_rate=0.25,
    n_positives=12,
    n_negatives=24,
)
#: The serving scenario: a two-link join path to the flags and two payload rows per entity;
#: 36% of the entities are positive, so the 40 held-out tuples hold both classes.
SERVE_SPEC = ScenarioSpec(
    n_entities=80,
    p_category=0.6,
    p_flag=0.6,
    n_satellites=1,
    fanout=2,
    join_depth=2,
    string_variant_intensity=0.3,
    md_drift=0.3,
    cfd_violation_rate=0.1,
    n_positives=100,
    n_negatives=100,
)
FOLDS = 5
CV_REPEATS = 3
TRAIN_POSITIVES, TRAIN_NEGATIVES = 12, 28
#: Timed requests per run at least: a p95 needs 200 for ten samples beyond it.
MIN_REQUESTS = 210
#: Timed requests per world.  Serve-stream spends a large share of the run
#: on requests so that they sample the host's speed at many moments; churn
#: needs a non-empty delta before each of its requests.
REQUESTS_PER_WORLD = {"serve-stream": 300, "churn": 80}
REQUEST_SIZE = 2
#: Entities whose source-B rows the churn workload holds back and inserts as deltas.
CHURN_HELD_ENTITIES = 30
#: Churn requests per world checked against a fresh session over the materialised overlay
#: (each check rebuilds every similarity index from scratch).
CHURN_CHECKS_PER_WORLD = 3

#: Worlds per run: the run length in seconds over one world's cost on a 2-vCPU virtual machine.
SECONDS_PER_WORLD = {"cv-search": 4.3, "cv-process": 6.0, "serve-stream": 4.5, "churn": 6.0}
MIN_WORLDS = 3
WORKLOADS = tuple(SECONDS_PER_WORLD)

_ENTITY_KEY = re.compile(r"(\d{5})d?$")


@dataclass(frozen=True)
class World:
    """The generated inputs of one world: rows to load, constraints, examples, requests, deltas.

    ``examples`` are all labelled examples (cross-validation) or the training
    examples (serving); ``requests`` are the timed requests after the untimed
    ``warmup`` pass; ``deltas`` the churn rows inserted before each request.
    """

    seed: int
    order_seed: int
    schema: DatabaseSchema
    target: RelationSchema
    mds: tuple[MatchingDependency, ...]
    cfds: tuple[ConditionalFunctionalDependency, ...]
    constant_attributes: frozenset[tuple[str, str]]
    rows: dict[str, list[tuple]]
    examples: ExampleSet
    requests: list[list[Example]] = field(default_factory=list)
    warmup: list[list[Example]] = field(default_factory=list)
    deltas: list[list[tuple[str, tuple]]] = field(default_factory=list)

    def load(self, *, overlay: bool = False) -> DatabaseInstance:
        database = DatabaseInstance(self.schema)
        for name, rows in self.rows.items():
            database.insert_many(name, rows)
        return OverlayInstance.over(database) if overlay else database

    def problem(self, database: DatabaseInstance, examples: ExampleSet) -> LearningProblem:
        return LearningProblem(
            database=database,
            target=self.target,
            examples=examples,
            mds=list(self.mds),
            cfds=list(self.cfds),
            constant_attributes=self.constant_attributes,
        )

    def fingerprint(self) -> str:
        def batch(examples: Sequence[Example]) -> str:
            return repr([(example.values, example.positive) for example in examples])

        parts = [repr((self.seed, self.order_seed)), repr(self.schema), repr(self.target), repr(self.mds), repr(self.cfds)]
        parts += [repr(sorted(self.constant_attributes))]
        parts += [f"{name}:{rows!r}" for name, rows in self.rows.items()]
        parts += [batch(self.examples.positives), batch(self.examples.negatives)]
        parts += [batch(request) for request in self.warmup + self.requests]
        parts += [repr(delta) for delta in self.deltas]
        return digest(parts)


def _entity_of(key: object) -> int:
    return int(_ENTITY_KEY.search(str(key)).group(1))


def _world(spec: ScenarioSpec, seed: int, order_seed: int) -> World:
    scenario = generate(spec.but(seed=seed))
    rows = {relation.schema.name: [tuple(t.values) for t in relation] for relation in scenario.database}
    return World(
        seed=seed,
        order_seed=order_seed,
        schema=scenario.database.schema,
        target=scenario.target,
        mds=tuple(scenario.mds),
        cfds=tuple(scenario.cfds),
        constant_attributes=scenario.constant_attributes,
        rows=rows,
        examples=scenario.examples,
    )


def _hold_back(rows: dict[str, list[tuple]], held_from: int) -> list[tuple[str, tuple]]:
    """Remove the source-B rows of entities ``>= held_from`` from *rows*; return them in entity order."""
    held: list[tuple[int, str, tuple]] = []
    for name in rows:
        if not name.startswith("syn_b_"):
            continue
        kept = []
        for row in rows[name]:
            entity = _entity_of(row[0])
            if entity >= held_from:
                held.append((entity, name, row))
            else:
                kept.append(row)
        rows[name] = kept
    held.sort(key=lambda item: item[0])  # stable: relation and row order kept within an entity
    return [(name, row) for _, name, row in held]


def _serving_world(workload: str, seed: int, order_seed: int, request_count: int) -> World:
    world = _world(SERVE_SPEC, seed, order_seed)
    examples = world.examples
    # The served model is learned from a sample fixed by the world; the run
    # seed orders the requests.
    rng = random.Random(seed)
    held_from = SERVE_SPEC.n_entities - CHURN_HELD_ENTITIES if workload == "churn" else SERVE_SPEC.n_entities
    held_rows = _hold_back(world.rows, held_from) if workload == "churn" else []

    def trainable(example: Example) -> bool:
        return _entity_of(example.values[0]) < held_from

    positives = [e for e in examples.positives if trainable(e)]
    negatives = [e for e in examples.negatives if trainable(e)]
    rng.shuffle(positives)
    rng.shuffle(negatives)
    train = ExampleSet(positives=positives[:TRAIN_POSITIVES], negatives=negatives[:TRAIN_NEGATIVES])
    chosen = {example.values for example in train.all()}
    held_out = [example for example in examples.all() if example.values not in chosen]

    rng = random.Random(order_seed)
    warmup = [held_out[i : i + REQUEST_SIZE] for i in range(0, len(held_out), REQUEST_SIZE)]
    seen = {frozenset(example.values for example in request) for request in warmup}
    requests: list[list[Example]] = []
    while len(requests) < request_count:  # distinct value sets: every request misses the session memo
        request = rng.sample(held_out, REQUEST_SIZE)
        key = frozenset(example.values for example in request)
        if key not in seen:
            seen.add(key)
            requests.append(request)
    n = len(held_rows)
    deltas = [held_rows[i * n // request_count : (i + 1) * n // request_count] for i in range(request_count)] if n else []
    return World(
        seed=world.seed,
        order_seed=order_seed,
        schema=world.schema,
        target=world.target,
        mds=world.mds,
        cfds=world.cfds,
        constant_attributes=world.constant_attributes,
        rows=world.rows,
        examples=train,
        requests=requests,
        warmup=warmup,
        deltas=deltas,
    )


def generate_inputs(workload: str, seed: int, seconds: float) -> list[World]:
    """Every world of one run; the same (workload, seed, seconds) gives byte-identical inputs.

    The run holds ``seconds / SECONDS_PER_WORLD`` worlds (at least
    ``MIN_WORLDS``), more when that many would serve fewer than
    ``MIN_REQUESTS`` timed requests.  cv-search and cv-process share their
    inputs, so their learned definitions can be compared on the same seed.
    """
    if workload not in SECONDS_PER_WORLD:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    worlds = max(MIN_WORLDS, round(seconds / SECONDS_PER_WORLD[workload]))
    if workload in ("cv-search", "cv-process"):
        result: list[World] = []
        requests = 0
        index = 0
        while len(result) < worlds or requests < MIN_REQUESTS:
            world = _world(CV_SPEC, index, seed * 100 + index)
            result.append(world)
            requests += len(world.examples.all()) * CV_REPEATS  # every test example is one request per split
            index += 1
        return result
    per_world = max(REQUESTS_PER_WORLD[workload], -(-MIN_REQUESTS // worlds))
    return [_serving_world(workload, index, seed * 100 + index, per_world) for index in range(worlds)]


# --------------------------------------------------------------------------- #
# timed drivers
# --------------------------------------------------------------------------- #
@dataclass
class Measurements:
    """Timed samples per operation kind (``setup``, ``fit``, ``cv``, ``request``, ``write``) on both clocks.

    ``cpu`` is the CPU time of the benchmark process and its worker
    processes (``cpu_since``), ``wall`` the wall-clock time.
    """

    cpu: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    wall: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    predictions: list[bool] = field(default_factory=list)
    labels: list[bool] = field(default_factory=list)
    definitions: list[str] = field(default_factory=list)
    faults: dict[str, int] = field(default_factory=lambda: {"total_faults": 0, "recoveries": 0, "demotions": 0})
    checked: int = 0
    ops: OpCounter = field(default_factory=OpCounter)

    def extend(self, other: "Measurements") -> None:
        """Append *other*'s samples, outputs and counts (a later part of the same run)."""
        for mine, theirs in ((self.cpu, other.cpu), (self.wall, other.wall)):
            for kind, values in theirs.items():
                mine[kind].extend(values)
        self.predictions += other.predictions
        self.labels += other.labels
        self.definitions += other.definitions
        for key in self.faults:
            self.faults[key] += other.faults[key]
        self.checked += other.checked
        self.ops.attempted += other.ops.attempted
        self.ops.failed += other.ops.failed
        self.ops.failures += other.ops.failures


def cpu_times() -> dict[int, float]:
    """CPU seconds so far of this process (key 0) and of each live child process (key: its pid).

    A process's CPU clock leaves out the time the hypervisor ran another
    tenant on its virtual CPU (steal) and the time it waited for a CPU.
    A child's clock is read through its Linux process CPU clock id
    (``clock_getcpuclockid``); a child that has ended is left out.
    """
    times = {0: time.process_time()}
    for child in multiprocessing.active_children():
        with contextlib.suppress(OSError):
            times[child.pid] = time.clock_gettime(((~child.pid) << 3) | 2)
    return times


def cpu_since(before: dict[int, float]) -> float:
    """CPU seconds this process and its children used since *before* (a child born since counts from 0)."""
    return sum(now - before.get(pid, 0.0) for pid, now in cpu_times().items())


@contextlib.contextmanager
def _timed(m: Measurements, kind: str, tracer: Tracer | None, *, root: bool = True):
    """Time one operation on the wall clock and the CPU clock of the process tree; a root span when traced."""
    with tracer.span(kind) if tracer is not None and root else contextlib.nullcontext():
        wall, cpu = time.perf_counter(), cpu_times()
        try:
            yield
        finally:
            m.cpu[kind].append(cpu_since(cpu))
            m.wall[kind].append(time.perf_counter() - wall)


def _setup(world: World, config: DLearnConfig, m: Measurements, tracer: Tracer | None, *, overlay: bool = False):
    """Load the rows into a fresh instance, then open the preparation and the session (timed as setup_s)."""
    with _timed(m, "setup", tracer):
        problem = world.problem(world.load(overlay=overlay), world.examples)
        preparation = DatabasePreparation.from_problem(problem)
        session = LearningSession(problem, config, preparation=preparation)
    return problem, preparation, session


def _expected(engine, model: LearnedModel, examples: Sequence[Example]) -> list[bool]:
    if not model.definition:
        return [False] * len(examples)
    return engine.batch_predicts_positive(model.definition.clauses, list(examples))


def _add_faults(m: Measurements, model: LearnedModel) -> None:
    # Pools are shared per preparation and their counters are cumulative, so
    # the last session of a world reports the world's totals.
    for stats in model.session.fault_stats().values():
        if stats is not None:
            for key in m.faults:
                m.faults[key] += stats[key]


def _definition_digest(models: Sequence[LearnedModel]) -> str:
    return digest(f"{index}:{clause}" for index, model in enumerate(models) for clause in model.definition.clauses)


def run_cv(worlds: Sequence[World], config: DLearnConfig, tracer: Tracer | None = None, *, identity: bool = False) -> Measurements:
    """Repeated 5-fold CV per world; each test example is predicted as its own request.

    ``CV_REPEATS`` splits per world, fixed by the world's seed, give more
    fold fits per run than more worlds would for the same time (a world's
    set-up and its reference engine cost as much as a whole CV loop).  The
    run seed orders each fold's requests.  Predictions are checked, untimed,
    against an engine built by ``LearnedModel.fresh_engine_for``.  With *identity*, the folds of world 0's first
    split are re-learned with the serial ``CONFIG`` and the definitions must
    be bit-identical.
    """
    m = Measurements()
    for world in worlds:
        problem, preparation, _ = _setup(world, config, m, tracer)
        try:
            splits = [
                list(stratified_folds(world.examples, FOLDS, seed=world.seed * CV_REPEATS + repeat))
                for repeat in range(CV_REPEATS)
            ]
            order = random.Random(world.order_seed)
            served: list[tuple[LearnedModel, list[Example], list[bool]]] = []
            for folds in splits:
                with _timed(m, "cv", tracer, root=False):
                    for fold in folds:
                        with _timed(m, "fit", tracer):
                            model = DLearn(config).fit(problem.with_examples(fold.train), preparation=preparation)
                        m.ops.record(True)
                        test = list(fold.test.all())
                        order.shuffle(test)
                        answers = []
                        for example in test:
                            with _timed(m, "request", tracer):
                                answers.append(model.predict([example])[0])
                        served.append((model, test, answers))
            _add_faults(m, served[-1][0])

            reference = served[0][0].fresh_engine_for(world.examples.all())
            for model, test, answers in served:
                for example, got, want in zip(test, answers, _expected(reference, model, test)):
                    m.ops.record(got == want, f"world {world.seed}: {example} served {got}, fresh engine {want}")
                    m.predictions.append(got)
                    m.labels.append(example.positive)
                m.checked += len(test)
            world_digest = _definition_digest([model for model, _, _ in served])
            m.definitions.append(world_digest)
            if identity and world.seed == 0:  # the suite's first world
                replay = world.problem(world.load(), world.examples)
                replay_preparation = DatabasePreparation.from_problem(replay)
                replayed = [
                    DLearn(CONFIG).fit(replay.with_examples(fold.train), preparation=replay_preparation)
                    for fold in splits[0]
                ]
                m.ops.record(
                    _definition_digest(replayed) == _definition_digest([model for model, _, _ in served[:FOLDS]]),
                    f"world {world.seed}: definitions differ from the serial learner's",
                )
        finally:
            preparation.close()
    return m


def _fresh_verdicts(problem: LearningProblem, config: DLearnConfig, model: LearnedModel, request: list[Example]) -> list[bool]:
    """Verdicts of a fresh session over the materialised overlay: the churn reference."""
    examples = ExampleSet(
        positives=[e for e in request if e.positive], negatives=[e for e in request if e.negative]
    )
    reference_problem = LearningProblem(
        database=problem.database.materialize(),
        target=problem.target,
        examples=examples,
        mds=problem.mds,
        cfds=problem.cfds,
        constant_attributes=problem.constant_attributes,
    )
    session = LearningSession(reference_problem, config)
    try:
        return _expected(session.engine, model, request)
    finally:
        session.preparation.close()


def run_serving(worlds: Sequence[World], config: DLearnConfig, tracer: Tracer | None = None, *, churn: bool = False) -> Measurements:
    """Learn once per world, warm up untimed, then answer the timed requests.

    With *churn* the world's rows load into an overlay and one delta is
    inserted before each request; a seeded subset of requests is checked
    against a fresh session over ``overlay.materialize()``.  Serve-stream
    checks every request against ``LearnedModel.fresh_engine_for``.
    """
    m = Measurements()
    for world in worlds:
        problem, preparation, session = _setup(world, config, m, tracer, overlay=churn)
        try:
            with _timed(m, "fit", tracer):
                model = DLearn(config).fit(problem, session=session)
            m.ops.record(True)
            for request in world.warmup:
                model.predict(request)
            checked = (
                set(random.Random(world.order_seed).sample(range(len(world.requests)), CHURN_CHECKS_PER_WORLD))
                if churn
                else set()
            )
            answers: list[list[bool]] = []
            for index, request in enumerate(world.requests):
                if churn:
                    with _timed(m, "write", tracer):
                        for name, row in world.deltas[index]:
                            problem.database.insert(name, row)
                    m.ops.record(True)
                with _timed(m, "request", tracer):
                    got = model.predict(request)
                answers.append(got)
                if churn:
                    if index in checked:
                        want = _fresh_verdicts(problem, config, model, request)
                        m.checked += 1
                        m.ops.record(got == want, f"world {world.seed} request {index}: served {got}, fresh {want}")
                    else:
                        m.ops.record(True)
            _add_faults(m, model)
            if not churn:
                pooled = list(dict.fromkeys(example for request in world.requests for example in request))
                reference = model.fresh_engine_for(pooled)
                for request, got in zip(world.requests, answers):
                    want = _expected(reference, model, request)
                    m.checked += 1
                    m.ops.record(got == want, f"world {world.seed}: {request} served {got}, fresh engine {want}")
            for request, got in zip(world.requests, answers):
                m.predictions.extend(got)
                m.labels.extend(example.positive for example in request)
        finally:
            preparation.close()
    return m


def run_workload(workload: str, worlds: Sequence[World], tracer: Tracer | None = None) -> Measurements:
    if workload == "cv-search":
        return run_cv(worlds, CONFIG, tracer)
    if workload == "cv-process":
        return run_cv(worlds, PROCESS_CONFIG, tracer, identity=True)
    return run_serving(worlds, CONFIG, tracer, churn=workload == "churn")
