"""Benchmark workloads and their corpus set-up.

An experiment is one in-process `sevpredict run` call on one synthetic
corpus from `synth_corpus`, so every layer, ingest and report writes
included, does work on every workload. The cost of one corpus depends on
its random cluster geometry (tree depth, how many pseudo-labels clear
gamma), so where that varies a run times a suite of corpora and reports
the mean per corpus; one corpus per run would make the run-to-run spread a
property of the seed rather than of the program.

Run as a script, this module is the set-up step: it imports sevpredict,
generates the workload's corpora, writes them as CSV files and prints the
CLOCK_MONOTONIC time at which it finished, so that the parent can time the
whole step, interpreter start included.

    python3 perfbench/workloads.py --workload holdout_deep --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    class_counts: tuple[int, int, int, int, int]  # severity order, high_severity first
    unlabelled: int
    features: int
    separation: float
    corpora: int  # corpora per suite; their seeds derive from the run's --seed
    cli_args: tuple[str, ...]  # flags after `sevpredict run CSV --seed S --out DIR`

    @property
    def folds(self) -> int:
        """Scored reports per corpus: the --folds value, or 1 for a holdout run."""
        args = list(self.cli_args)
        return int(args[args.index("--folds") + 1]) if "--folds" in args else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="holdout_deep",
            why="default config, unbounded trees: three deep exact-CART fits carry most of the time",
            class_counts=(15, 30, 60, 60, 150),
            unlabelled=75,
            features=20,
            separation=1.0,
            corpora=12,
            cli_args=(),
        ),
        Workload(
            name="adasyn_imbalanced",
            why="large imbalanced pool, depth-1 trees: the ADASYN neighbour search carries the time, cart is bypassed",
            class_counts=(400, 800, 1200, 1600, 4000),
            unlabelled=200,
            features=4,
            separation=1.0,
            corpora=1,  # ADASYN's cost depends on the pool size, hardly on the seed
            cli_args=("--max-depth", "1"),
        ),
        Workload(
            name="selftrain_cli",
            why="3-fold CLI run on a big unlabelled pool: self-training iterates, many shallow fits, routing and ingest",
            class_counts=(10, 20, 40, 40, 90),
            unlabelled=3000,
            features=10,
            # Left free, the number of self-training iterations ranges from 1 to 11
            # per fold with the corpus seed; well-separated clusters and a cap of
            # 3 make nearly every fold iterate exactly 3 times.
            separation=3.0,
            corpora=8,
            cli_args=(
                "--folds", "3", "--max-depth", "2", "--gamma", "0.9", "--beta", "0",
                "--max-iterations", "3", "--table",
            ),
        ),
    )
}


def corpus_seeds(workload: Workload, seed: int) -> list[int]:
    """Seeds of the suite: the run's seed first, then steps of 1000."""
    return [seed + 1000 * k for k in range(workload.corpora)]


def csv_name(k: int) -> str:
    return f"c{k:02d}.csv"


def write_corpora(workload: Workload, seed: int, out: Path) -> None:
    """Generate the workload's corpora and write one CSV each into out."""
    from sevpredict import save_corpus, synth_corpus
    from sevpredict.severity import SEVERITY_ORDER

    out.mkdir(parents=True, exist_ok=True)
    counts = dict(zip(SEVERITY_ORDER, workload.class_counts))
    for k, corpus_seed in enumerate(corpus_seeds(workload, seed)):
        corpus = synth_corpus(
            counts, workload.features, workload.separation, workload.unlabelled, corpus_seed
        )
        save_corpus(corpus, out / csv_name(k))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    write_corpora(WORKLOADS[args.workload], args.seed, args.out)
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
