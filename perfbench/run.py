"""Benchmark for bidopt: solve, certify and replay bidding plans on one workload.

Run from the repository root, which holds ``src/bidopt``:

    python3 perfbench/run.py --workload mixed-pipeline --seed 1 --seconds 45 --trace 0

Each pass solves every instance of the workload, rechecks the plan's
certificate and replays the plan through the simulator; passes repeat until
the next one would end after ``--seconds``.  Every output is checked by
``checks.py``, which does not use bidopt.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of
``layers.py`` with ``--trace 1``.  README.md describes the workloads.
"""
import os
import time

START = time.perf_counter()
# numpy and scipy each load their own OpenBLAS; one thread per pool keeps the
# process on a single compute thread (HiGHS runs serially) on a two-core host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

sys.path.insert(0, str(SRC))
try:
    import bidopt
    import bidopt.cli
except ImportError as exc:
    sys.exit(f"perfbench: cannot import bidopt from {SRC}: {exc}")
if SRC not in Path(bidopt.__file__).resolve().parents:
    sys.exit(f"perfbench: bidopt was imported from {bidopt.__file__}, not from {SRC}")
IMPORT_S = time.perf_counter() - START

import numpy as np  # noqa: E402

from checks import Problem, check_plan, check_replay  # noqa: E402
from layers import METRICS as LAYER_METRICS, Tracer  # noqa: E402
from workloads import REPLAY_SEED, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
# certify takes milliseconds, so each plan is rechecked several times per pass
CERTIFY_REPEATS = 5
# every instance is timed at least this often in a run
MIN_PASSES = 3
OPS_PER_ATTEMPT = 2 + CERTIFY_REPEATS
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "solve_worst_s": "s",
    "certify_s": "s",
    "replay_arrivals_per_s": "arrivals/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


class Case:
    """One instance: its document, its checker view and its step times."""

    def __init__(self, name, inst, workdir: Path | None):
        self.name = name
        self.inst = inst
        self.doc = inst.to_json()
        self.path = None
        if workdir is not None:
            self.path = workdir / f"{name}.json"
            self.path.write_text(json.dumps(self.doc))

    def prepare(self, arrivals: float) -> None:
        """Benchmark-side views, built outside the timed set-up."""
        self.problem = Problem.from_json(self.doc)
        self.arrivals = arrivals
        self.horizon = arrivals / float(self.problem.rates.sum())
        self.times = {"solve": [], "certify": [], "replay": []}

    def mean(self, step: str) -> float:
        # the host's speed switches between levels every few seconds: a median
        # of such samples jumps between levels from run to run, while the mean
        # follows the share of time spent at each
        return statistics.fmean(self.times[step])


def set_up(workload, workdir: Path | None) -> list:
    """Instance generation (with fit_empirical) and the instance documents."""
    return [Case(name, inst, workdir) for name, inst in workload.build()]


def _cli(argv: list) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return bidopt.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            return exc.code if isinstance(exc.code, int) else 1


class Steps:
    """Times the solve, certify and replay steps, with a span each when traced."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.times = {"solve": [], "certify": [], "replay": []}

    @contextlib.contextmanager
    def __call__(self, name: str):
        span = self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()
        with span:
            start = time.perf_counter()
            yield
            self.times[name].append(time.perf_counter() - start)


def run_case(workload, case: Case, workdir: Path | None, step: Steps) -> dict:
    """Solve, certify and replay one instance; returns the three step outputs."""
    tol = workload.tol
    if workload.cli:
        plan_path = workdir / f"{case.name}.plan.json"
        sim_path = workdir / f"{case.name}.sim.json"
        with step("solve"):
            rc = _cli(["solve", "--input", str(case.path), "--output", str(plan_path)])
        if rc != 0:
            raise RuntimeError(f"bidopt solve exited {rc}")
        plan = json.loads(plan_path.read_text())["solution"]
        certified = []
        for _ in range(CERTIFY_REPEATS):
            with step("certify"):
                certified.append(_cli(["certify", "--input", str(plan_path), "--tol", repr(tol)]) == 0)
        with step("replay"):
            rc = _cli(["simulate", "--input", str(plan_path), "--seed", str(REPLAY_SEED),
                       "--horizon", repr(case.horizon), "--output", str(sim_path)])
        if rc != 0:
            raise RuntimeError(f"bidopt simulate exited {rc}")
        return {"plan": plan, "certified": certified, "sim": json.loads(sim_path.read_text())}

    inst = case.inst
    with step("solve"):
        sol = bidopt.solve(inst, certify_tol=tol)
    plan = bidopt.solution_to_json(inst, sol)
    certified = []
    for _ in range(CERTIFY_REPEATS):
        with step("certify"):
            stored = bidopt.solution_from_json(inst, plan)
            certified.append(bidopt.certify(inst, stored.primal, stored.dual, tol=tol).passed)
    with step("replay"):
        sim = bidopt.simulate(inst, bidopt.policy_from_primal(inst, sol.primal), case.horizon, seed=REPLAY_SEED)
    return {"plan": plan, "certified": certified, "sim": sim.to_json()}


def attempt(workload, case: Case, workdir: Path | None, tracer) -> int:
    """Run and check one instance's operations (OPS_PER_ATTEMPT); returns how many failed."""
    step = Steps(tracer)
    try:
        out = run_case(workload, case, workdir, step)
    except Exception:
        print(f"perfbench: {case.name}: the pipeline raised", file=sys.stderr)
        traceback.print_exc()
        return OPS_PER_ATTEMPT
    plan = check_plan(case.problem, out["plan"], workload.tol)
    replay = check_replay(case.problem, out["sim"], plan.spend)
    bad = {"solve": int(not plan.passed), "certify": out["certified"].count(False), "replay": int(replay > 1.0)}
    if any(bad.values()):
        print(f"perfbench: {case.name}: failed {bad}: {plan}, replay {replay:.3g}", file=sys.stderr)
    for name, seconds in step.times.items():
        case.times[name].extend(seconds)
    return sum(bad.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="orders the instances within a pass")
    parser.add_argument("--seconds", type=float, required=True, help="measurement time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from wrapped calls")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}" if workload.cli else None
    setup_times, setup_layers, pass_layers = [], [], []
    attempted = failed = 0
    try:
        if workdir is not None:
            workdir.mkdir()
        if tracer is not None:
            tracer.install()
        for _ in range(SETUP_REPEATS):
            if tracer is not None:
                tracer.reset()
            t = time.perf_counter()
            cases = set_up(workload, workdir)
            setup_times.append(time.perf_counter() - t)
            if tracer is not None:
                setup_layers.append(tracer.metrics())
        for case in cases:
            case.prepare(workload.arrivals)
        order = np.random.default_rng(args.seed).permutation(len(cases))
        cases = [cases[k] for k in order]
        started = time.perf_counter()
        passes = 0
        while True:
            gc.collect()
            if tracer is not None:
                tracer.reset()
            t = time.perf_counter()
            for case in cases:
                attempted += OPS_PER_ATTEMPT
                failed += attempt(workload, case, workdir, tracer)
            now = time.perf_counter()
            passes += 1
            if tracer is not None:
                pass_layers.append(tracer.metrics())
            if passes >= MIN_PASSES and now - started + (now - t) > args.seconds:
                break
        timed = [c for c in cases if c.times["solve"]]
        if not timed:
            sys.exit("perfbench: no instance completed its steps")
    finally:
        if tracer is not None:
            tracer.remove()
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench: {passes} passes", file=sys.stderr)
    for case in timed:
        print(f"perfbench: {case.name}: " + ", ".join(
            f"{name} {' '.join(f'{t:.4g}' for t in ts)}" for name, ts in case.times.items()), file=sys.stderr)
    if tracer is None:
        values = {
            "setup_s": IMPORT_S + statistics.fmean(setup_times),
            "solve_s": sum(c.mean("solve") for c in timed),
            "solve_worst_s": max(c.mean("solve") for c in timed),
            "certify_s": sum(c.mean("certify") for c in timed),
            "replay_arrivals_per_s": sum(c.arrivals for c in timed) / sum(c.mean("replay") for c in timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        # set-up layers (fit_empirical) per set-up plus the other layers per pass
        metrics = {
            name: {"value": statistics.fmean(s[name] for s in setup_layers)
                   + statistics.fmean(p[name] for p in pass_layers), "unit": layer_unit(name)}
            for name in LAYER_METRICS
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        detail = {"import_s": IMPORT_S, "setup_s": setup_times, "setup_layers": setup_layers,
                  "pass_layers": pass_layers, "case_times": {c.name: c.times for c in cases},
                  "spans": [list(s) for s in tracer.spans if s is not None]}
        (OUT / f"trace-{stem}.json").write_text(json.dumps(detail) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
