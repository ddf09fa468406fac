"""Serial vs batched coverage testing on the bundled IMDB+OMDB learning task.

Coverage testing dominates DLearn's runtime: every candidate clause of every
generalisation round is θ-subsumption-checked against the prepared ground
bottom clause of every training example.  The batched engine
(:meth:`repro.core.coverage.CoverageEngine.covered_counts` /
``batch_covers``) prepares the general side of each check once per clause and
memoises the MD projection and CFD-variant expansion of every clause it
meets; the serial reference path (``covered_counts_serial``) re-derives all
of that per (clause, example) pair, which is what the engine did before
batching.

This script measures both paths on the same realistic workload — the
candidate clauses an actual generalisation search produces on the IMDB+OMDB
dataset with CFD violations injected — verifies that every (clause, example)
coverage verdict is identical in both modes, and reports the speedup.

Run it directly (pytest does not collect it):

    PYTHONPATH=src python benchmarks/bench_coverage_batch.py            # full size
    PYTHONPATH=src python benchmarks/bench_coverage_batch.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_coverage_batch.py --min-speedup 1.5

Both paths run on the calling thread; ``bench_parallel_fanout.py`` measures
the process pool.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

if __package__ in (None, ""):  # running as a script: make src/ importable
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.core import BottomClauseBuilder, CoverageEngine, DLearnConfig
from repro.data.registry import generate
from repro.db import Sampler
from repro.logic import HornClause, SubsumptionChecker


def build_workload(quick: bool):
    """The learning task plus a realistic candidate-clause population."""
    scale = 1 if quick else 2
    dataset = generate(
        "imdb_omdb_3mds",
        n_movies=90 * scale,
        n_positives=10 * scale,
        n_negatives=20 * scale,
        seed=7,
    ).with_cfd_violations(0.15, seed=0)
    config = DLearnConfig(
        iterations=3,
        sample_size=6,
        top_k_matches=3,
        generalization_sample=4,
        min_clause_positive_coverage=2,
        min_clause_precision=0.55,
        seed=0,
    )
    problem = dataset.problem()
    indexes = problem.build_similarity_indexes(
        top_k=config.top_k_matches, threshold=config.similarity_threshold
    )
    builder = BottomClauseBuilder(problem, config, indexes, Sampler(config.seed))
    engine = CoverageEngine(builder, config, SubsumptionChecker())

    positives = list(problem.examples.positives)
    negatives = list(problem.examples.negatives)

    # Candidate clauses with the shapes the generalisation search produces:
    # the bottom clause of a few seeds plus progressively generalised
    # truncations of it (dropping late-derived literals is exactly what ARMG
    # does to blocking literals, at a fraction of the construction cost).
    n_seeds = 3 if quick else 4
    candidates = []
    seen = set()
    for seed_example in positives[:n_seeds]:
        bottom = builder.build(seed_example, ground=False)
        truncated = [
            HornClause(bottom.head, bottom.body[: max(1, int(len(bottom.body) * keep))])
            .prune_disconnected()
            .prune_dangling_restrictions()
            for keep in (1.0, 0.6, 0.35, 0.2)
        ]
        for candidate in truncated:
            if candidate.body and candidate not in seen:
                seen.add(candidate)
                candidates.append(candidate)
    return engine, candidates, positives, negatives


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized smoke run")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="exit non-zero when the batched path is not at least this much faster",
    )
    args = parser.parse_args(argv)

    print(f"building workload ({'quick' if args.quick else 'full'})...", flush=True)
    engine, candidates, positives, negatives = build_workload(args.quick)
    examples = positives + negatives
    print(
        f"{len(candidates)} candidate clauses x {len(examples)} examples "
        f"({len(positives)} positive / {len(negatives)} negative)"
    )

    # Warm the per-example ground-clause cache outside the timed regions: both
    # paths share it (the engine always cached ground bottom clauses), and
    # building them measures bottom-clause construction, not coverage.
    for example in examples:
        engine.prepared_ground(example)

    started = time.perf_counter()
    serial_counts = [
        engine.covered_counts_serial(clause, positives, negatives) for clause in candidates
    ]
    serial_seconds = time.perf_counter() - started

    engine.clear_cache()  # drop clause-level caches; re-warm grounds outside the timer
    for example in examples:
        engine.prepared_ground(example)

    started = time.perf_counter()
    batched_counts = [engine.covered_counts(clause, positives, negatives) for clause in candidates]
    batched_seconds = time.perf_counter() - started

    # Per-(clause, example) verdict comparison, outside both timed regions.
    serial_verdicts = [
        [engine.covers_serial(clause, example) for example in examples] for clause in candidates
    ]
    batched_verdicts = [engine.batch_covers(clause, examples) for clause in candidates]
    mismatches = sum(
        1
        for serial_row, batched_row in zip(serial_verdicts, batched_verdicts)
        for serial_flag, batched_flag in zip(serial_row, batched_row)
        if serial_flag != batched_flag
    )
    checks = len(candidates) * len(examples)
    speedup = serial_seconds / batched_seconds if batched_seconds else float("inf")

    print(f"serial  : {serial_seconds:8.3f}s  ({checks} coverage checks)")
    print(f"batched : {batched_seconds:8.3f}s")
    print(f"speedup : {speedup:8.2f}x")
    print(f"verdicts: {'identical' if mismatches == 0 else f'{mismatches} MISMATCHES'}")

    if serial_counts != batched_counts or mismatches:
        print("FAIL: serial and batched coverage disagree", file=sys.stderr)
        return 1
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x below required {args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
