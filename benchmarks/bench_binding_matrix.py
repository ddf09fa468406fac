"""Vectorised binding-matrix kernels vs the plain compiled engine, phase by phase.

PR 5's compiled integer plane made individual θ-subsumption steps cheap, but
``retained_generalization`` still *burns its whole step budget* on doomed
backtracking retries: a blocked literal's retry explores an exponential
neighbourhood before the budget valve concedes.  The numpy compute plane
(:mod:`repro.logic.kernels`) seeds a ``[n_slots, n_terms]`` binding matrix
from the compiled bitmask prefilters, runs arc-consistency sweeps to a
fixpoint and, whenever a slot's candidate row empties, refutes the search
with an **unsat certificate** — no backtracking, no budget burn.

This benchmark pits ``DLearnConfig.vectorized_kernels=True`` (the default)
against the switched-off plain compiled stack on a CFD-heavy synthetic cell
and a Figure-1-style IMDB+OMDB workload:

* ``retained``   — budget-bound ``retained_generalization`` of full bottom
  clauses against cross-example grounds: the doomed-retry hot path.  The
  certificate must short-circuit at least 90% of the searches that exhaust
  their budget in the plain engine (measured via ``SearchStats``).
* ``fit``        — the covering-loop fit plus test-set prediction.

The switch does not reach the chase (it always probes the insert-time hash
indexes), so there is no saturation phase: both modes would time the same
code.

The two stacks must be **observationally identical**: equal coverage
verdicts, equal retained-literal lists, byte-identical learned definitions
and equal predictions — the run fails otherwise.  Results are printed and,
with ``--output``, written as JSON (``BENCH_kernels.json``) so CI can record
the perf trajectory and enforce the retained-path floor.

Run it directly (pytest does not collect it):

    PYTHONPATH=src python benchmarks/bench_binding_matrix.py            # full grid
    PYTHONPATH=src python benchmarks/bench_binding_matrix.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_binding_matrix.py --min-retained-speedup 1.3
    PYTHONPATH=src python benchmarks/bench_binding_matrix.py --output BENCH_kernels.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

if __package__ in (None, ""):  # running as a script: make src/ importable
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.core import DLearn, DLearnConfig, DatabasePreparation
from repro.data.registry import generate
from repro.data.synthetic import ScenarioSpec
from repro.evaluation.cross_validation import train_test_split
from repro.logic import HornClause
from repro.logic.subsumption import SubsumptionChecker

MODES = ("plain", "kernels")
PHASES = ("retained", "fit")

#: Step budget of the retained phase — small enough that a doomed retry
#: visibly exhausts it in the plain engine, large enough that every
#: *satisfiable* search completes (so both engines stay observationally
#: identical; see the compiled-bench docstring on the budget valve).
RETAINED_BUDGET = 5_000


def _cfd_heavy_config() -> DLearnConfig:
    return DLearnConfig(
        iterations=3,
        sample_size=8,
        top_k_matches=3,
        generalization_sample=4,
        max_clauses=4,
        min_clause_positive_coverage=2,
        min_clause_precision=0.55,
        seed=0,
    )


def _figure1_config() -> DLearnConfig:
    return DLearnConfig(
        iterations=2,
        sample_size=5,
        top_k_matches=2,
        generalization_sample=3,
        max_clauses=3,
        min_clause_positive_coverage=2,
        min_clause_precision=0.55,
        seed=0,
    )


#: The cell the ``--min-short-circuit`` gate reads: the canonical CFD-heavy
#: cell, carried in both the quick and the full grid.
GATE_CELL = "cfd-heavy-80"


def _grid(quick: bool) -> list[tuple[str, object, DLearnConfig]]:
    #: The CFD-heavy cell of the dirty-scenario grid: a high violation rate
    #: floods bottom clauses with repair-literal groups, which is exactly
    #: what makes cross-example retained searches blocked-literal-dense.
    #: The heavy matching-dependency drift breaks similarity chains across
    #: examples, so the doomed cross-example retries carry unsatisfiable
    #: similarity comparisons — the burn profile the arc-consistency
    #: certificate (which sweeps comparison edges too) short-circuits.
    cfd_heavy = dict(
        string_variant_intensity=0.6,
        md_drift=0.7,
        cfd_violation_rate=0.25,
        null_rate=0.05,
        duplicate_rate=0.1,
        n_positives=10,
        n_negatives=20,
        seed=7,
    )
    cells: list[tuple[str, object, DLearnConfig]] = []
    for entities in (80,) if quick else (80, 120):
        cells.append(
            (
                f"cfd-heavy-{entities}",
                generate("synthetic", spec=ScenarioSpec(n_entities=entities, **cfd_heavy)),
                _cfd_heavy_config(),
            )
        )
    if not quick:
        figure1 = generate("imdb_omdb_3mds", n_movies=140, n_positives=12, n_negatives=24, seed=7)
        cells.append(("imdb_omdb-fig1", figure1, _figure1_config()))
    return cells


def _mode_config(config: DLearnConfig, mode: str) -> DLearnConfig:
    return config.but(vectorized_kernels=(mode == "kernels"))


def _candidate_clauses(session, positives, n_seeds: int = 3) -> list[HornClause]:
    """Full bottom clauses plus ARMG-like truncations.

    Unlike the compiled-engine bench, the *untruncated* clauses stay in: the
    doomed retries they trigger against cross-example grounds are the budget
    burn the certificate exists to eliminate.
    """
    candidates: list[HornClause] = []
    seen: set[HornClause] = set()
    for seed_example in positives[:n_seeds]:
        bottom = session.builder.build(seed_example, ground=False)
        for keep in (1.0, 0.6, 0.35, 0.2):
            candidate = (
                HornClause(bottom.head, bottom.body[: max(1, int(len(bottom.body) * keep))])
                .prune_disconnected()
                .prune_dangling_restrictions()
            )
            if candidate.body and candidate not in seen:
                seen.add(candidate)
                candidates.append(candidate)
    return candidates


class _Cell:
    """One workload cell, measured with the kernels on and off."""

    def __init__(self, label: str, dataset, config: DLearnConfig):
        self.label = label
        self.dataset = dataset
        self.config = config
        self.train, test = train_test_split(dataset.examples, test_fraction=0.25, seed=0)
        self.test_examples = test.all()
        self._preparations = {
            mode: DatabasePreparation.from_problem(dataset.problem()) for mode in MODES
        }

    def _session(self, mode: str, examples=None):
        problem = self.dataset.problem(examples=examples) if examples is not None else self.dataset.problem()
        config = _mode_config(self.config, mode)
        return DLearn(config).session(problem, preparation=self._preparations[mode])

    # ------------------------------------------------------------------ #
    def run_once(self) -> dict[str, dict]:
        results: dict[str, dict] = {}
        for mode in MODES:
            session = self._session(mode)
            engine = session.engine
            positives = list(session.problem.examples.positives)
            examples = session.problem.examples.all()

            grounds = engine.prepared_grounds(examples)
            candidates = _candidate_clauses(session, positives)
            verdicts = [tuple(engine.batch_covers(candidate, examples)) for candidate in candidates]

            # Retained phase: budget-bound searches on a dedicated checker so
            # the stats isolate exactly this phase.  Clause compilation is
            # shared with the session through the preparation's compiler.
            checker = SubsumptionChecker(
                compiler=session.preparation.compiler,
                max_steps=RETAINED_BUDGET,
                vectorized_kernels=(mode == "kernels"),
            )
            pairs = [
                (candidate, ground)
                for candidate in candidates
                for ground in grounds[: min(len(grounds), 8)]
            ]
            for candidate, ground in pairs:  # warm: compile outside the timed region
                checker.retained_generalization(candidate, ground)
            checker.stats.reset()
            started = time.perf_counter()
            retained = [
                tuple(checker.retained_generalization(candidate, ground))
                for candidate, ground in pairs
            ]
            retained_seconds = time.perf_counter() - started
            stats = checker.stats

            fit_session = self._session(mode, examples=self.train)
            fit_session.warm_saturation(self.train.all())
            started = time.perf_counter()
            model = DLearn(_mode_config(self.config, mode)).fit(
                fit_session.problem, session=fit_session
            )
            predictions = model.predict(self.test_examples)
            fit_seconds = time.perf_counter() - started

            results[mode] = {
                "retained_seconds": retained_seconds,
                "fit_seconds": fit_seconds,
                "verdicts": verdicts,
                "retained": [[str(lit) for lit in kept] for kept in retained],
                "definition": [str(clause) for clause in model.clauses],
                "predictions": predictions,
                "certificates": stats.certificates,
                "retries": stats.retries,
                "retry_exhausted": stats.retry_exhausted,
                "candidates": len(candidates),
                "examples": len(examples),
            }
        return results

    def measure(self, repetitions: int) -> dict:
        results: dict[str, dict] = {}
        for _ in range(repetitions):
            attempt = self.run_once()
            for mode, outcome in attempt.items():
                kept = results.get(mode)
                if kept is None:
                    results[mode] = outcome
                else:
                    for phase in ("retained_seconds", "fit_seconds"):
                        kept[phase] = min(kept[phase], outcome[phase])

        plain, kernels = results["plain"], results["kernels"]
        identical = {
            "verdicts": plain["verdicts"] == kernels["verdicts"],
            "retained": plain["retained"] == kernels["retained"],
            "definitions": plain["definition"] == kernels["definition"],
            "predictions": plain["predictions"] == kernels["predictions"],
        }
        exhausted_plain = plain["retry_exhausted"]
        short_circuit = (
            1.0 - kernels["retry_exhausted"] / exhausted_plain if exhausted_plain else 1.0
        )
        cell = {
            "cell": self.label,
            "candidates": kernels["candidates"],
            "examples": kernels["examples"],
            "clauses": len(kernels["definition"]),
            "retries": kernels["retries"],
            "certificates": kernels["certificates"],
            "exhausted_plain": exhausted_plain,
            "exhausted_kernels": kernels["retry_exhausted"],
            "short_circuit": round(short_circuit, 4),
            **{f"identical_{key}": value for key, value in identical.items()},
        }
        for phase in PHASES:
            plain_s = plain[f"{phase}_seconds"]
            kernels_s = kernels[f"{phase}_seconds"]
            cell[f"{phase}_speedup"] = round(plain_s / kernels_s, 3) if kernels_s else float("inf")
        for mode in MODES:
            cell[mode] = {
                f"{phase}_seconds": round(results[mode][f"{phase}_seconds"], 4)
                for phase in PHASES
            }
        return cell


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized smoke run")
    parser.add_argument("--repetitions", type=int, default=2,
                        help="timing repetitions; the minimum is reported")
    parser.add_argument("--min-retained-speedup", type=float, default=None,
                        help="exit non-zero when the aggregate retained-path speedup falls below this")
    parser.add_argument("--min-short-circuit", type=float, default=0.9,
                        help="required fraction of plain-engine budget-exhausted retained "
                             f"searches the certificate must short-circuit on {GATE_CELL}")
    parser.add_argument("--output", default=None, help="write the results as JSON to this path")
    args = parser.parse_args(argv)

    header = (
        f"{'cell':<16} {'cands':>6} {'exhausted':>10} {'shortcut':>9} "
        f"{'retain_x':>9} {'fit_x':>7} {'identical':>10}"
    )
    print(header)
    print("-" * len(header))
    cells = []
    for label, dataset, config in _grid(args.quick):
        cell = _Cell(label, dataset, config).measure(args.repetitions)
        cells.append(cell)
        identical = all(value for key, value in cell.items() if key.startswith("identical_"))
        print(
            f"{cell['cell']:<16} {cell['candidates']:>6} "
            f"{cell['exhausted_plain']:>4} -> {cell['exhausted_kernels']:>3} "
            f"{cell['short_circuit']:>8.0%} "
            f"{cell['retained_speedup']:>8.2f}x {cell['fit_speedup']:>6.2f}x "
            f"{'yes' if identical else 'NO':>10}"
        )

    aggregates = {}
    for phase in PHASES:
        plain = sum(cell["plain"][f"{phase}_seconds"] for cell in cells)
        kernels = sum(cell["kernels"][f"{phase}_seconds"] for cell in cells)
        aggregates[f"{phase}_speedup"] = round(plain / kernels, 3) if kernels else float("inf")
    all_identical = all(
        value for cell in cells for key, value in cell.items() if key.startswith("identical_")
    )
    # The certificate gate reads the canonical CFD-heavy cell (present in
    # both quick and full grids) — the burn profile the sweep is built for.
    # The other cells record the trajectory: their rare exhausted retries
    # are arc-consistent, so no certificate can fire on them.
    gate_cells = [cell for cell in cells if cell["cell"] == GATE_CELL]
    min_short_circuit = min((cell["short_circuit"] for cell in gate_cells), default=1.0)
    print(f"aggregate retained speedup   : {aggregates['retained_speedup']:.2f}x")
    print(f"aggregate fit-path speedup   : {aggregates['fit_speedup']:.2f}x")
    print(f"CFD-heavy short-circuit      : {min_short_circuit:.0%}")
    print(f"observationally identical    : {'yes' if all_identical else 'NO'}")

    if args.output:
        payload = {
            "benchmark": "binding_matrix_kernels",
            "mode": "quick" if args.quick else "full",
            "cells": cells,
            **{f"aggregate_{key}": value for key, value in aggregates.items()},
            "cfd_short_circuit": min_short_circuit,
            "all_identical": all_identical,
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")

    if not all_identical:
        print("FAIL: kernels-on and kernels-off engines disagree on verdicts, retained "
              "lists, definitions or predictions", file=sys.stderr)
        return 1
    if min_short_circuit < args.min_short_circuit:
        print(f"FAIL: certificate short-circuits {min_short_circuit:.0%} of budget-exhausted "
              f"retained searches, below the required {args.min_short_circuit:.0%}", file=sys.stderr)
        return 1
    if args.min_retained_speedup is not None and aggregates["retained_speedup"] < args.min_retained_speedup:
        print(f"FAIL: retained-path speedup {aggregates['retained_speedup']:.2f}x below required "
              f"{args.min_retained_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
