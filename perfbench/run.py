#!/usr/bin/env python3
"""Benchmark for wsadist, run against the sources in ./src.

    python3 perfbench/run.py --workload detect-mixed --seed 1 --seconds 36 --trace 0

Makes the workload's inputs from the seed (perfbench/corpus.py), runs
every leg of it in passes until --seconds have gone by, checks the
outputs, and prints a metadata line and then, as the last line of
stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
times at reference machine speed (perfbench/speed.py); with --trace 1
the per-layer ones of a traced pass (perfbench/tracing.py).
perfbench/README.md defines every metric.

Legs, the same on every workload, on that workload's corpus, in pass order:
  detect_lib  detect_tables() on each document, in this process
  pairs_ws    levenshtein_ws_agnostic() on each pair, unit and appendix-a models
  pairs_std   levenshtein_standard() on the same
  dist_lib    wsadist.cli.main(["dist", "--files", ...]), ws-agnostic and standard
  detect_cli  `wsadist detect --format json` on each document, fresh process
  dist_cli    the same dist command in a fresh process
  setup       (--trace 0 only) a tiny input through the workload's entry
              point, fresh process
One process runs everything, on one thread and one CPU; fresh processes
run one at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

import corpus as corpora
from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
PINNED = Path(__file__).resolve().parent / "pinned_digests.json"
NPROC = len(os.sched_getaffinity(0))

MIN_PASSES = 2
# An untraced pass repeats a leg's items until the leg has run this long.
# A fresh process's time scatters most from one run of it to the next,
# so those legs get the most samples; rates over many items (the pairs
# legs) need the fewest.
FRESH_QUANTUM_S = 2.0
LEG_QUANTUM_S = 1.0
SHORT_QUANTUM_S = 0.3
IMPORT_REPS = 5
FIXED_COST_BATCHES = 15
FIXED_COST_CALLS = 200
MAX_TRACED_PASSES = 20
CHILD_TIMEOUT_S = 60
DIST_MODES = ("ws-agnostic", "standard")
MIN_ROWS = 3      # DetectConfig defaults, which every detect leg uses
THRESHOLD = 0.5
DIST_SAMPLES = 10  # dist output lines recomputed directly per mode

# What the installed `wsadist` console script runs.
CLI_MAIN = "import sys; from wsadist.cli import main; sys.exit(main())"
PAIR_MAIN = ("import sys; from wsadist import appendix_model, levenshtein_ws_agnostic; "
             "print(levenshtein_ws_agnostic(sys.argv[1], sys.argv[2], appendix_model()))")
IMPORT_MAIN = ("import time; t = time.perf_counter(); import wsadist.cli; "
               "print(time.perf_counter() - t)")

TINY_DOC = ["Item\tQty\tPrice", "Apples\t12\t$1.20", "Pears\t7\t", "Plums\t30\t$0.95"]
TINY_LEFT = ["alpha 1", "", "gamma  3"]
TINY_RIGHT = ["alpha 2", "beta", "gamma  3  "]


class OperationFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def child(argv, env) -> subprocess.CompletedProcess:
    """Run ``python argv`` in a fresh process and wait for it to end."""
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)


def fresh(argv, env) -> str:
    """The stdout of ``child(argv)``, or OperationFailed."""
    proc = child(argv, env)
    if proc.returncode:
        raise OperationFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return proc.stdout


def in_process(main, argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code:
        raise OperationFailed(f"exit {code}")
    return buf.getvalue()


@dataclass
class Api:
    """The entry points the legs call; the traced pass swaps in wrappers."""
    detect_tables: object
    DetectConfig: object
    appendix_model: object
    levenshtein_ws_agnostic: object
    levenshtein_standard: object
    cli_main: object


def plain_api() -> Api:
    import wsadist
    import wsadist.cli
    return Api(wsadist.detect_tables, wsadist.DetectConfig, wsadist.appendix_model,
               wsadist.levenshtein_ws_agnostic, wsadist.levenshtein_standard,
               wsadist.cli.main)


def traced_api(tracer, api: Api) -> Api:
    return Api(tracer.wrap(api.detect_tables), api.DetectConfig,
               tracer.wrap(api.appendix_model), tracer.wrap(api.levenshtein_ws_agnostic),
               tracer.wrap(api.levenshtein_standard), tracer.wrap(api.cli_main))


@dataclass
class Leg:
    name: str
    items: list            # (work, fn(api) -> output)
    in_process: bool
    quantum: float = LEG_QUANTUM_S
    times: list = field(init=False)
    outputs: list = field(init=False)

    def __post_init__(self):
        self.times = [[] for _ in self.items]
        self.outputs = [None for _ in self.items]

    def medians(self, speed=None):
        """(work, median time) of each item that ran; times at reference
        speed when ``speed`` is given."""
        def scale(t0, dt):
            return speed.factor(t0, dt, not self.in_process) if speed else 1.0
        done = [(work, statistics.median(dt * scale(t0, dt) for t0, dt in t))
                for (work, _), t in zip(self.items, self.times) if t]
        if not done:
            raise OperationFailed(f"every operation of leg {self.name} failed")
        return done

    def rate(self, speed=None):
        done = self.medians(speed)
        return sum(w for w, _ in done) / sum(t for _, t in done)

    def mean_time(self, speed=None):
        return statistics.fmean(t for _, t in self.medians(speed))


class Run:
    def __init__(self, speed: Speed | None = None):
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []    # failed operations
        self.problems: list[str] = []  # wrong outputs

    def op(self, leg: Leg, k: int, api: Api, tracer=None):
        """Run item ``k`` of ``leg`` once and time it; its output, or
        None when it failed."""
        self.attempted += 1
        if tracer is not None:
            tracer.op = self.attempted
        speed = self.speed
        if speed is not None:
            speed.before(fresh=not leg.in_process)
        t0 = perf_counter()
        busy = speed.busy if speed else 0.0
        try:
            out = leg.items[k][1](api)
        except Exception as exc:  # a failed operation is counted; the workload goes on
            self.failed += 1
            self.errors.append(f"{leg.name}[{k}]: {exc!r}"[:400])
            return None
        # less the calibration chunks the timer ran meanwhile
        leg.times[k].append((t0, perf_counter() - t0 - ((speed.busy - busy) if speed else 0.0)))
        if leg.outputs[k] is None:
            leg.outputs[k] = out
        return out

    def run_pass(self, legs, api, tracer=None, repeat=False, t_end=None) -> float:
        """Every item of every leg once.  With ``repeat``, each leg's items
        again until that leg has run its ``quantum`` in this pass, so that
        legs of short items collect as many samples as legs of long ones;
        no further leg starts after ``t_end``."""
        t0 = perf_counter()
        for leg in legs:
            t_leg = perf_counter()
            if t_end is not None and t_leg >= t_end:
                break
            while True:
                for k in range(len(leg.items)):
                    self.op(leg, k, api, tracer)
                if not repeat or perf_counter() - t_leg >= leg.quantum:
                    break
        return perf_counter() - t0


def write_lines(path: Path, lines) -> str:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def build_legs(corpus: corpora.Corpus, models: dict, workdir: Path, env) -> list[Leg]:
    doc_paths = [write_lines(workdir / f"doc{k}.txt", doc) for k, doc in enumerate(corpus.docs)]
    left = write_lines(workdir / "left.txt", corpus.files[0])
    right = write_lines(workdir / "right.txt", corpus.files[1])
    file_lines = max(map(len, corpus.files))

    def detect_lib(doc, api):
        return api.detect_tables(doc, api.DetectConfig(model=api.appendix_model()))

    def pair(fn_name, a, b, model, api):
        return getattr(api, fn_name)(a, b, model)

    def dist_argv(mode):
        return ["dist", "--files", "--mode", mode, "--format", "json", left, right]

    def pairs_leg(name, fn_name):
        return Leg(name, [(len(a) * len(b), partial(pair, fn_name, a, b, model))
                          for a, b in corpus.pairs for model in models.values()], True,
                   SHORT_QUANTUM_S)

    # The fresh-process legs come last, next to each other and to the
    # set-up leg, so that the reference processes run for any of them
    # count for the others too (speed.PROC_WINDOW_S).
    return [
        Leg("detect_lib", [(len(doc), partial(detect_lib, doc)) for doc in corpus.docs], True),
        pairs_leg("pairs_ws", "levenshtein_ws_agnostic"),
        pairs_leg("pairs_std", "levenshtein_standard"),
        Leg("dist_lib", [(file_lines, lambda api, m=m: in_process(api.cli_main, dist_argv(m)))
                         for m in DIST_MODES], True),
        Leg("detect_cli", [(len(doc), lambda api, p=p: fresh(["-c", CLI_MAIN, "detect", "--format", "json", p], env))
                           for doc, p in zip(corpus.docs, doc_paths)], False, FRESH_QUANTUM_S),
        Leg("dist_cli", [(file_lines, lambda api, m=m: fresh(["-c", CLI_MAIN, *dist_argv(m)], env))
                         for m in DIST_MODES], False, FRESH_QUANTUM_S),
    ]


def setup_argv(workload: str, workdir: Path) -> list[str]:
    """A tiny input through the workload's own entry point."""
    if workload == "pairs-long":
        return ["-c", PAIR_MAIN, "Aaa 99,9", "Aaa  9"]
    if workload == "detect-mixed":
        return ["-c", CLI_MAIN, "detect", "--format", "json",
                write_lines(workdir / "tiny.txt", TINY_DOC)]
    return ["-c", CLI_MAIN, "dist", "--files", "--format", "json",
            write_lines(workdir / "tiny_left.txt", TINY_LEFT),
            write_lines(workdir / "tiny_right.txt", TINY_RIGHT)]


def setup_expected(argv, plain: Api, models) -> str:
    """What the set-up command must print, computed in this process."""
    if argv[1] == PAIR_MAIN:
        return f"{plain.levenshtein_ws_agnostic(*argv[2:], models['appendix-a'])}\n"
    return in_process(plain.cli_main, argv[2:])


def warm_up(api: Api, models, workdir: Path):
    """First calls outside the timing, so lazy set-up is not timed."""
    for model in models.values():
        api.levenshtein_ws_agnostic("Aa 9", "Aa  99", model)
        api.levenshtein_standard("Aa 9", "Aa  99", model)
    api.detect_tables(TINY_DOC)
    in_process(api.cli_main, ["dist", "--files", "--format", "json",
                              write_lines(workdir / "warm_left.txt", TINY_LEFT),
                              write_lines(workdir / "warm_right.txt", TINY_RIGHT)])


def fixed_us_per_call(api: Api, model) -> float:
    """Median cost of a 1x1 distance, the part of a call that does not
    depend on the input size."""
    per_call = []
    for _ in range(FIXED_COST_BATCHES):
        t0 = perf_counter()
        for _ in range(FIXED_COST_CALLS):
            api.levenshtein_ws_agnostic("a", "b", model)
        per_call.append((perf_counter() - t0) / FIXED_COST_CALLS)
    return statistics.median(per_call) * 1e6


# --- output checks -----------------------------------------------------

def region_tuples(regions):
    return [(r.start_line, r.end_line, r.score) for r in regions]


def region_digest(per_doc) -> str:
    canon = [[[s, e, round(score, 12)] for s, e, score in doc] for doc in per_doc]
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()[:16]


def region_problems(regions, n_lines, where) -> list[str]:
    problems = []
    prev_end = -1
    for start, end, score in regions:
        if not prev_end < start <= end < n_lines:
            problems.append(f"{where}: region {start}-{end} not sorted, disjoint and inside the document")
        if end - start + 1 < MIN_ROWS:
            problems.append(f"{where}: region {start}-{end} shorter than {MIN_ROWS} rows")
        if not 0.0 <= score <= 1.0:
            problems.append(f"{where}: region {start}-{end} score {score} outside [0, 1]")
        prev_end = end
    return problems


def check_outputs(workload, seed, corpus, legs, models, plain: Api, run: Run):
    """Add what is wrong with the outputs to ``run.problems``; return the
    region digest.  Operations that failed have no output to check;
    they are already counted as failed."""
    import wsadist

    legs = {leg.name: leg for leg in legs}
    problems = run.problems

    per_doc = []
    for k, doc in enumerate(corpus.docs):
        lib, cli = legs["detect_lib"].outputs[k], legs["detect_cli"].outputs[k]
        if lib is None:
            continue
        got = region_tuples(lib)
        per_doc.append(got)
        problems += region_problems(got, len(doc), f"doc {k}")
        if cli is not None:
            cli_regions = [(r["start_line"], r["end_line"], r["score"])
                           for r in json.loads(cli)["regions"]]
            if cli_regions != got:
                problems.append(f"doc {k}: CLI regions {cli_regions} != library regions {got}")
    digest = region_digest(per_doc) if len(per_doc) == len(corpus.docs) else None
    pinned = json.loads(PINNED.read_text()).get(workload, {}).get(str(seed))
    if pinned is not None and digest is not None and digest != pinned:
        problems.append(f"region digest {digest} != {pinned} pinned for seed {seed}")

    for k, (ws, std) in enumerate(zip(legs["pairs_ws"].outputs, legs["pairs_std"].outputs)):
        if ws is not None and std is not None and ws > std:
            problems.append(f"pair item {k}: ws-agnostic {ws} > standard {std}")

    for a, b in corpus.oracle_pairs:
        for name, model in models.items():
            ws = plain.levenshtein_ws_agnostic(a, b, model)
            expected = {"naive oracle": wsadist.ws_agnostic_naive(a, b, model)}
            if name == "unit":
                expected["recursive oracle"] = wsadist.ws_agnostic_recursive_unit(a, b)
            for oracle, value in expected.items():
                if ws != value:
                    problems.append(f"{a!r} vs {b!r} ({name}): ws-agnostic {ws} != {oracle} {value}")
            std = plain.levenshtein_standard(a, b, model)
            classical = wsadist.ws_agnostic_naive(a, b, model, pad_limit=0)
            if std != classical:
                problems.append(f"{a!r} vs {b!r} ({name}): standard {std} != unpadded oracle {classical}")

    left, right = corpus.files
    n = max(len(left), len(right))
    sample = random.Random(f"check:{workload}:{seed}").sample(range(n), min(DIST_SAMPLES, n))
    model = models["appendix-a"]
    direct = {"ws-agnostic": plain.levenshtein_ws_agnostic, "standard": plain.levenshtein_standard}
    for k, mode in enumerate(DIST_MODES):
        lib, cli = legs["dist_lib"].outputs[k], legs["dist_cli"].outputs[k]
        if lib is None:
            continue
        if cli is not None and cli != lib:
            problems.append(f"dist {mode}: fresh-process output differs from cli.main's")
        doc = json.loads(lib)
        costs = [p["cost"] for p in doc["pairs"]]
        if [p["line"] for p in doc["pairs"]] != list(range(n)):
            problems.append(f"dist {mode}: lines {len(costs)} reported, {n} expected")
            continue
        if doc["total"] != sum(costs):
            problems.append(f"dist {mode}: total {doc['total']} != sum of line costs {sum(costs)}")
        for i in sample:
            a = corpora.shape((left[i] if i < len(left) else "").expandtabs(corpora.TAB_WIDTH))
            b = corpora.shape((right[i] if i < len(right) else "").expandtabs(corpora.TAB_WIDTH))
            want = direct[mode](a, b, model)
            if costs[i] != want:
                problems.append(f"dist {mode}: line {i} cost {costs[i]} != direct {want}")
    return digest


def probe_size_limit(probe, workdir: Path, env) -> dict:
    """A document with one adjacent pair over the default max_cells.
    Outside the measured operations: the program's answer is recorded,
    not counted, so the workload itself has no failing operation."""
    path = write_lines(workdir / "probe.txt", probe)
    try:
        proc = child(["-c", CLI_MAIN, "detect", "--format", "json", path], env)
    except subprocess.TimeoutExpired:
        return {"exit": None, "timeout_s": CHILD_TIMEOUT_S}
    return {"exit": proc.returncode, "stderr": proc.stderr.strip()[-200:],
            "regions": json.loads(proc.stdout)["regions"] if proc.returncode == 0 else None}


# --- metadata ----------------------------------------------------------

def kernel_backend() -> str:
    import wsadist
    if hasattr(wsadist, "kernel_backend"):
        return str(wsadist.kernel_backend())
    return "numba" if importlib.util.find_spec("numba") else "interpreted"


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def metadata(args, run: Run, **extra) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "kernel_backend": kernel_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": NPROC, "src_lines": src_line_count(),
        "failed_frac": run.failed / max(run.attempted, 1), "errors": run.errors[:10],
        **extra,
    }


# --- the two kinds of run ----------------------------------------------

def end_to_end(args, legs, models, plain, run, workdir, env):
    # set-up runs as one more leg, so that its samples spread over the
    # whole run like the others' rather than bunching at its start
    argv = setup_argv(args.workload, workdir)
    setup = Leg("setup", [(1, lambda api: fresh(argv, env))], False)
    warm_up(plain, models, workdir)
    passes = 0
    t_end = perf_counter() + args.seconds
    with run.speed:
        while passes < MIN_PASSES or perf_counter() < t_end:
            run.run_pass(legs + [setup], plain, repeat=True,
                         t_end=t_end if passes >= MIN_PASSES else None)
            passes += 1
        run.speed.before(fresh=True)  # a reference after the last operation
    expected = setup_expected(argv, plain, models)
    if setup.outputs[0] is not None and setup.outputs[0] != expected:
        run.problems.append(f"set-up printed {setup.outputs[0]!r}, expected {expected!r}")
    legs_by = {leg.name: leg for leg in legs}
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    def times(speed):
        return {
            "setup_s": setup.mean_time(speed),
            "detect_lines_per_s": legs_by["detect_lib"].rate(speed),
            "detect_cli_s": legs_by["detect_cli"].mean_time(speed),
            "ws_cells_per_s": legs_by["pairs_ws"].rate(speed),
            "std_cells_per_s": legs_by["pairs_std"].rate(speed),
            "dist_files_lines_per_s": legs_by["dist_lib"].rate(speed),
            "dist_files_cli_s": legs_by["dist_cli"].mean_time(speed),
        }

    speed = run.speed
    metrics = {**times(speed), "peak_rss_mb": peak_kb / 1024}
    return metrics, {"passes": passes, "wall_clock": times(None), "calibration": speed.summary()}


def per_layer(args, legs, models, plain, run, workdir, env):
    from tracing import Tracer, layer_figures

    imports = Leg("cli_import", [(1, lambda api: float(fresh(["-c", IMPORT_MAIN], env)))], False)
    import_s = [s for s in (run.op(imports, 0, plain) for _ in range(IMPORT_REPS)) if s is not None]
    warm_up(plain, models, workdir)
    fixed_us = fixed_us_per_call(plain, models["appendix-a"])
    # the fresh-process legs cannot be traced from here; one pass gives
    # their outputs to the checks
    run.run_pass([leg for leg in legs if not leg.in_process], plain)

    tracer = Tracer()
    traced = traced_api(tracer, plain)
    local = [leg for leg in legs if leg.in_process]
    loading_ops = sum(len(leg.items) for leg in local if leg.name in ("detect_lib", "dist_lib"))
    walls = {"plain": [], "traced": []}
    figures = []
    t_end = perf_counter() + args.seconds
    while len(figures) < MAX_TRACED_PASSES and (len(figures) < MIN_PASSES or perf_counter() < t_end):
        walls["plain"].append(run.run_pass(local, plain))
        first = len(tracer.spans)
        tracer.install()
        try:
            walls["traced"].append(run.run_pass(local, traced, tracer))
        finally:
            tracer.uninstall()
        figures.append(layer_figures(tracer.spans, first, loading_ops, THRESHOLD))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.jsonl"
    tracer.write(spans_path)

    metrics = {name: statistics.median(f[name] for f in figures) for name in figures[0]}
    metrics["cli.import_s"] = statistics.median(import_s)
    metrics["distance.fixed_us_per_call"] = fixed_us
    metrics["trace.overhead_frac"] = (statistics.median(walls["traced"])
                                      / statistics.median(walls["plain"]) - 1)
    return metrics, {"traced_passes": len(figures), "spans": len(tracer.spans),
                     "spans_file": str(spans_path.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpora.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "wsadist" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} has no src/wsadist package or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    env = child_env()
    # one CPU for this process and the children it waits for, so the
    # calibration chunks time the CPU the operations run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    corpus = corpora.WORKLOADS[args.workload](args.seed)
    plain = plain_api()
    import wsadist
    models = {"unit": wsadist.unit_model(), "appendix-a": wsadist.appendix_model()}
    run = Run(None if args.trace else Speed(env, ROOT))
    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        legs = build_legs(corpus, models, workdir, env)
        measure = per_layer if args.trace else end_to_end
        metrics, extra = measure(args, legs, models, plain, run, workdir, env)
        digest = check_outputs(args.workload, args.seed, corpus, legs, models, plain, run)
        if corpus.probe is not None:
            extra["known_defect_probe"] = probe_size_limit(corpus.probe, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    extra.update(digest=digest, problems=run.problems[:20],
                 legs={leg.name: {"items": len(leg.items), "work": sum(w for w, _ in leg.items),
                                  "samples": sum(map(len, leg.times))}
                       for leg in legs})
    print(json.dumps({"meta": metadata(args, run, **extra)}))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
