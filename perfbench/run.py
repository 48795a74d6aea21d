#!/usr/bin/env python3
"""sevpredict benchmark: time per experiment, end to end and per layer.

    python3 perfbench/run.py --workload holdout_deep --seed 1 --seconds 36 --trace 0

One process runs one workload with BLAS thread pools pinned to one thread,
so peak_rss_mb is that workload's own. Set-up (imports, corpus generation
and CSV writes) runs in fresh child processes, several times; the process
then makes in-process `sevpredict run` calls, one per corpus of the
workload's suite, round after round until --seconds have passed. Every
call's reports are checked against the corpus and against the first call
on the same corpus (see checks.py).

--trace 0 prints the end-to-end metrics of untraced rounds. --trace 1
alternates untraced and traced rounds and prints the per-layer metrics of
the traced ones (see spans.py), with trace.overhead_s, the traced minus the
untraced time per experiment. Metric names and units come from
BENCHMARK.json. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter, process_time

from checks import CheckFailed, check_run, read_truth
from spans import Tracer
from workloads import ROOT, SRC, WORKLOADS, Workload, corpus_seeds, csv_name

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


def set_up(workload: Workload, seed: int, work: Path) -> tuple[list[float], list[Path]]:
    """Time SETUP_REPEATS fresh set-up processes; each must write identical CSVs.

    Each child reports when it finished on the system-wide monotonic clock;
    waiting on the child with a timeout would poll and round the time.
    """
    script = Path(__file__).with_name("workloads.py")
    times, first = [], None
    for i in range(SETUP_REPEATS):
        out = work / f"setup{i}"
        argv = [sys.executable, str(script), "--workload", workload.name, "--seed", str(seed), "--out", str(out)]
        started = monotonic()
        child = subprocess.run(argv, check=True, timeout=SETUP_TIMEOUT_S, capture_output=True, text=True)
        times.append(float(child.stdout.split()[-1]) - started)
        paths = [out / csv_name(k) for k in range(workload.corpora)]
        if first is None:
            first = paths
        elif any(a.read_bytes() != b.read_bytes() for a, b in zip(first, paths)):
            raise CheckFailed("set-up wrote different corpora for the same seed")
    return times, first


def call_cli(cli, argv: list[str], out: Path, tracer: Tracer | None) -> tuple[float, float]:
    """One in-process `sevpredict run`; returns (wall, cpu) seconds."""
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        wall, cpu = perf_counter(), process_time()
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.span("cli"):
                code = cli.main(argv)
        wall, cpu = perf_counter() - wall, process_time() - cpu
    if code != 0:
        raise CheckFailed(f"sevpredict {' '.join(argv)} exited with {code}")
    return wall, cpu


def check_calls(tracer: Tracer, workload: Workload, out: Path) -> None:
    """Fail loudly when a layer records fewer or more calls than the run implies.

    A function that a module starts calling under a name spans.py does not
    patch shows up here as zero calls.
    """
    calls, folds = tracer.calls, workload.folds
    iterations = tracer.counts["selftrain.iterations"]
    entry, split = ("run_experiment", "stratified_split") if folds == 1 else ("run_kfold", "stratified_kfold")
    exact = {
        "load_corpus": 1,
        entry: 1,
        split: 1,
        "self_train": folds,
        "pseudo_label_risk": iterations,
        "full_report": 2 * folds,
        "report_to_json": len(list(out.glob("report_*.json"))),
    }
    # today's pipeline makes one fit per self-training iteration plus two per
    # fold, and one ADASYN call per arm; removing duplicated work may lower them
    at_most = {"fit_tree": 2 * folds + iterations, "adasyn_balance": 2 * folds}
    for name, want in exact.items():
        if calls[name] != want:
            raise CheckFailed(f"traced {calls[name]} {name} calls, expected {want}: is a wrapper missing?")
    for name, most in at_most.items():
        if not 1 <= calls[name] <= most:
            raise CheckFailed(f"traced {calls[name]} {name} calls, expected 1 to {most}: is a wrapper missing?")
    if not sum(span.route_calls for span in tracer.spans):
        raise CheckFailed("traced no predict_label/predict_confidence calls: is a wrapper missing?")


def round_layers(per_call: list[dict]) -> dict[str, float]:
    """Mean per experiment over one round; accept_ratio as a ratio of sums."""
    n = len(per_call)
    mean = {name: sum(m[name] for m in per_call) / n for name in per_call[0]}
    scored = sum(m["selftrain.scored"] for m in per_call)
    mean["selftrain.accept_ratio"] = sum(m["selftrain.accepted"] for m in per_call) / scored if scored else 0.0
    return mean


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"  q1 {q1:.4f}  q3 {q3:.4f}"


def main() -> int:
    parser = argparse.ArgumentParser(description="sevpredict benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="corpus seed of the suite's first corpus")
    parser.add_argument("--pipeline-seed", type=int, default=7, help="seed passed to sevpredict run")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # before numpy loads, here and in set-up

    if not (SRC / "sevpredict" / "__init__.py").is_file():
        print(f"error: no sevpredict sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_times, csvs = set_up(workload, args.seed, work)

    sys.path.insert(0, str(SRC))
    import numpy
    import sevpredict
    from sevpredict import cli

    if not Path(sevpredict.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported sevpredict from {sevpredict.__file__}, not {SRC}", file=sys.stderr)
        return 2

    truths = [read_truth(path) for path in csvs]
    digests: list[str | None] = [None] * len(csvs)
    tracer = Tracer()
    rounds: dict[bool, list[tuple[float, float]]] = {False: [], True: []}  # traced -> (wall, cpu) per experiment
    layer_rounds: list[dict[str, float]] = []
    spans_out: list[list[dict]] = []
    attempted = failed = 0

    started = perf_counter()
    round_index = 0
    # stop before a round that would, at the mean round time so far, end past --seconds
    while round_index < 1 + args.trace or (perf_counter() - started) * (round_index + 1) / round_index <= args.seconds:
        traced = bool(args.trace) and round_index % 2 == 1
        round_index += 1
        walls, cpus, per_call = [], [], []
        for k, csv_path in enumerate(csvs):
            attempted += 1
            out = work / "out" / str(k)
            argv = ["run", str(csv_path), "--seed", str(args.pipeline_seed), "--out", str(out), *workload.cli_args]
            try:
                tracer.reset()
                with tracer.installed() if traced else contextlib.nullcontext():
                    wall, cpu = call_cli(cli, argv, out, tracer if traced else None)
                digest = check_run(out, truths[k], workload.folds)
                if digests[k] is None:
                    digests[k] = digest
                elif digest != digests[k]:
                    raise CheckFailed(f"corpus {k}: report bytes differ from the first run ({'traced' if traced else 'untraced'})")
                if traced:
                    check_calls(tracer, workload, out)
                    layers = tracer.layer_metrics()
                    layers["cli.bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
                    per_call.append(layers)
                    spans_out.append([span.as_dict() for span in tracer.spans])
                walls.append(wall)
                cpus.append(cpu)
            except Exception:
                failed += 1
                traceback.print_exc()
        if len(walls) == len(csvs):
            rounds[traced].append((sum(walls) / len(walls), sum(cpus) / len(cpus)))
            if traced:
                layer_rounds.append(round_layers(per_call))

    untraced = rounds[False]
    samples: dict[str, list[float]] = {}
    if args.trace:
        for name in units:
            if name != "trace.overhead_s":
                samples[name] = [r[name] for r in layer_rounds]
        if untraced and rounds[True]:
            samples["trace.overhead_s"] = [
                statistics.median(w for w, _ in rounds[True]) - statistics.median(w for w, _ in untraced)
            ]
        (work / "spans.json").write_text(json.dumps(spans_out))
    else:
        samples["experiment_s"] = [w for w, _ in untraced]
        samples["cpu_s"] = [c for _, c in untraced]
        samples["setup_s"] = setup_times
        samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]

    correct = failed == 0 and all(name in samples and samples[name] for name in units)
    suite_sha1 = hashlib.sha1("".join(d or "-" for d in digests).encode()).hexdigest()
    n_exp = len(csvs)
    print(f"workload {workload.name}: {workload.why}")
    print(f"seeds: corpus {corpus_seeds(workload, args.seed)}, pipeline {args.pipeline_seed}")
    print(
        f"python {platform.python_version()}  numpy {numpy.__version__}  nproc {os.cpu_count()}"
        f"  affinity {len(os.sched_getaffinity(0))}  " + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    )
    print(f"report sha1 {suite_sha1}  ({n_exp} corpora; per corpus: {' '.join(d[:12] if d else '-' for d in digests)})")
    print(f"rounds: {len(untraced)} untraced, {len(rounds[True])} traced, {n_exp} experiments each")
    for name, unit in units.items():
        values = samples.get(name, [])
        shown = f"{statistics.median(values):.6g}" if values else "missing"
        print(f"  {name:<26} {shown:>12} {unit:<6} n={len(values)}{quartiles(values)}")
    print(f"  {'failed_frac':<26} {failed / max(attempted, 1):>12.6g} {'ratio':<6} ({failed} of {attempted} experiments)")

    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in units.items()
        if samples.get(name)
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
