"""Benchmark of the qtomo CLI pipeline: simulate -> JSONL -> reconstruct, and validate.

    python3 bench/run.py --workload homodyne-fock --seed 11 --seconds 40 --trace 0

Each operation is one invocation of the CLI (``python -m qtomo.cli`` with the
checkout's ``src`` on the path).  A round is the workload's fixed sequence of
operations; rounds repeat for ``--seconds`` (at least two, alternating
``QTOMO_WORKERS`` between 1 and 2 so the results can be compared).  Every
output is checked against truths computed apart from the program
(``truth.py``).

``--trace 0`` runs each operation as its own process, one at a time, and
reports the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` calls
``qtomo.cli.main`` in this process, alternating rounds without and with
timing spans around the public functions of each module (``spans.py``), and
reports the per-layer metrics.  The last line of stdout is one JSON object;
a fuller record goes to ``bench/results/BENCH_<workload>[_trace].json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# One BLAS thread, in this process and in every CLI child (they inherit the
# environment). The sampler's refined path makes a matrix product per record;
# with a thread per core each one is split over both cores and waits for the
# slower, which ties its time to the load on either. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import truth  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_ROUNDS = 2
# a run must end within 180 s; stop starting operations well before that
RUN_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    mode: str
    count: int = 0
    # (target config, observable id) per reconstruct call
    targets: tuple = ()
    # seed -> (state file text, {observable id: truth})
    state: Callable[[int], tuple[str, dict]] | None = None


def _coherent(seed: int):
    p = truth.coherent_populations(1.0, 24)
    truths = {"rho[0,0]": float(p[0]), "photon-number": float(np.arange(p.size) @ p)}
    return truth.state_document("n_max", 24, truth.coherent_state(1.0, 24)), truths


def _fock(seed: int):
    truths = {"rho[5,5]": 1.0, "photon-number": 5.0}
    return truth.state_document("n_max", 16, truth.fock_state(5, 16)), truths


def _spin_j1(seed: int):
    rho = truth.random_pure_spin_state(seed)
    truths = {name: float(np.trace(op @ rho).real) for name, op in truth.spin1_matrices().items()}
    return truth.state_document("two_j", 2, rho), truths


# homodyne-coherent is not in BENCHMARK.json and runs by hand only (README)
WORKLOADS = {
    w.name: w
    for w in (
        Workload("homodyne-coherent", 11, "simulate-homodyne", 50_000,
                 (({"type": "matrix-element", "n": 0, "l": 0}, "rho[0,0]"),
                  ({"type": "photon-number"}, "photon-number")), _coherent),
        Workload("homodyne-fock", 11, "simulate-homodyne", 10_000,
                 (({"type": "matrix-element", "n": 5, "l": 0}, "rho[5,5]"),
                  ({"type": "photon-number"}, "photon-number")), _fock),
        Workload("spin-j1", 19, "simulate-spin", 100_000,
                 (({"type": "spin-operator", "name": "Jz", "two_j": 2}, "Jz"),
                  ({"type": "spin-operator", "name": "Jx", "two_j": 2}, "Jx")), _spin_j1),
        Workload("validate", 2024, "validate"),
    )
}


@dataclass
class Plan:
    """Files and CLI invocations of one round, for one workload and seed."""

    workload: Workload
    work: Path
    argvs: list[list[str]]
    truths: dict = field(default_factory=dict)

    @property
    def records(self) -> Path:
        return self.work / "records.jsonl"

    @property
    def report(self) -> Path:
        return self.work / "validate.json"


def prepare(workload: Workload, seed: int, work: Path) -> Plan:
    work.mkdir(parents=True, exist_ok=True)
    if workload.state is None:
        plan = Plan(workload, work, [])
        plan.argvs.append(["validate", "--seed", str(seed), "--output", str(plan.report)])
        return plan
    state_text, truths = workload.state(seed)
    plan = Plan(workload, work, [], truths)
    (work / "state.json").write_text(state_text, encoding="utf-8")
    base = {"seed": seed, "count": workload.count, "state_path": str(work / "state.json"),
            "records_path": str(plan.records)}

    def add(mode: str, cfg: dict) -> None:
        path = work / f"config_{len(plan.argvs)}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        plan.argvs.append([mode, "--config", str(path)])

    add(workload.mode, base)
    for i, (target, _) in enumerate(workload.targets):
        add("reconstruct", dict(base, target=target, output_path=str(work / f"result_{i}.json")))
    return plan


@dataclass
class Op:
    argv: list[str]
    exit: int
    wall_s: float
    rss_mb: float = 0.0
    stdout: str = ""


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run_cli(argv: list[str], env: dict, work: Path, timeout: float) -> Op:
    """One CLI process; its own peak RSS comes from wait4 on that child alone."""
    with open(work / "stdout.txt", "w+b") as out, open(work / "stderr.txt", "w+b") as err:
        previous = signal.signal(signal.SIGALRM, _alarm)
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "qtomo.cli", *argv], env=env,
                                stdout=out, stderr=err)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.1))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        if proc.returncode != 0:
            sys.stderr.write(f"qtomo {' '.join(argv)} exited {proc.returncode}: "
                             f"{err.read().decode(errors='replace')[-2000:]}\n")
        return Op(argv, proc.returncode, wall, usage.ru_maxrss / 1024.0,
                  out.read().decode(errors="replace"))


def run_in_process(argv: list[str], workers: int) -> Op:
    """``qtomo.cli.main`` in this process, stdout captured; any exception fails the op."""
    from qtomo import cli

    previous = os.environ.get("QTOMO_WORKERS")
    os.environ["QTOMO_WORKERS"] = str(workers)
    buffer = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = -1
    finally:
        wall = time.perf_counter() - start
        if previous is None:
            del os.environ["QTOMO_WORKERS"]
        else:
            os.environ["QTOMO_WORKERS"] = previous
    return Op(argv, code, wall, stdout=buffer.getvalue())


class Checker:
    """Checks each round's outputs; record files are parsed once, then must repeat."""

    def __init__(self, plan: Plan):
        self.plan = plan
        self.problems: list[str] = []
        self.records_digest = None
        self.record_lines = 0
        self.first_results: dict[int, dict] = {}

    def round(self, ops: list[Op]) -> None:
        try:
            self._round(ops)
        except (ValueError, KeyError, TypeError) as exc:  # malformed output is wrong output
            self.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")

    def _round(self, ops: list[Op]) -> None:
        plan = self.plan
        if plan.workload.state is None:
            if ops[0].exit == 0:
                report = json.loads(plan.report.read_text(encoding="utf-8"))
                self.problems += truth.check_validation(report, ops[0].exit, ops[0].stdout)
            return
        if ops[0].exit != 0:
            return
        data = plan.records.read_bytes()
        digest = hash(data)  # equal bytes hash equally within this process
        if self.records_digest is None:
            lines = data.splitlines()
            self.record_lines = len(lines)
            if self.record_lines != plan.workload.count:
                self.problems.append(f"{self.record_lines} record lines, {plan.workload.count} asked")
            if plan.workload.mode == "simulate-spin":
                self.problems += truth.check_spin_records(lines, 2)
            else:
                self.problems += truth.check_homodyne_records(lines)
            self.records_digest = digest
        elif digest != self.records_digest:
            self.problems.append("records differ between rounds with the same seed")
        for i, ((_, observable), op) in enumerate(zip(plan.workload.targets, ops[1:])):
            if op.exit != 0:
                continue
            result = json.loads(op.stdout)
            self.problems += truth.check_estimate(result, observable, plan.truths[observable],
                                                  self.record_lines)
            if i in self.first_results:
                self.problems += truth.check_agreement(self.first_results[i], result)
            else:
                self.first_results[i] = result


@dataclass
class Round:
    ops: list[Op]
    tracer: object = None

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)


def run_rounds(one_round: Callable[[int], Round], seconds: float, deadline: float,
               min_rounds: int = 2) -> list[Round]:
    """Whole rounds for ``seconds`` (at least ``min_rounds``); a round is not
    started when the last one's duration says it would end past ``seconds``."""
    rounds = []
    start = last = time.perf_counter()
    while True:
        rounds.append(one_round(len(rounds)))
        now = time.perf_counter()
        took, last = now - last, now
        if now + took > deadline:
            break
        if len(rounds) >= min_rounds and now - start + took > seconds:
            break
    return rounds


def measure_untraced(plan: Plan, seconds: float, deadline: float):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    checker = Checker(plan)

    def cli(argv, workers=1):
        env["QTOMO_WORKERS"] = str(workers)
        return run_cli(argv, env, plan.work, deadline - time.perf_counter())

    # the first start compiles bytecode; users pay that once, not per run
    setup_ops = [cli(["--help"])]

    def one_round(r):
        # one cold start per round, so setup_s samples the whole run and not
        # only its first seconds, whose host speed may differ from the rest
        setup_ops.append(cli(["--help"]))
        plan.records.unlink(missing_ok=True)
        ops = [cli(argv, 1 + r % 2) for argv in plan.argvs]
        checker.round(ops)
        return Round(ops)

    rounds = run_rounds(one_round, seconds, deadline)
    for op in setup_ops:
        if op.exit == 0 and "usage: qtomo" not in op.stdout:
            checker.problems.append("qtomo --help printed no usage")
    per_round = []
    for rnd in rounds:
        ops = rnd.ops
        m = {"pipeline_s": rnd.wall_s, "peak_rss_mb": max(op.rss_mb for op in ops)}
        if plan.workload.state is None:
            m["validate_s"] = ops[0].wall_s
        else:
            m["simulate_s"] = ops[0].wall_s
            m["reconstruct_s"] = sum(op.wall_s for op in ops[1:])
            m["records_per_s"] = plan.workload.count / rnd.wall_s
        per_round.append(m)
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    metrics["setup_s"] = statistics.median(op.wall_s for op in setup_ops[1:])
    ops = setup_ops + [op for rnd in rounds for op in rnd.ops]
    return metrics, ops, checker, {"rounds": per_round,
                                   "setup_s": [op.wall_s for op in setup_ops[1:]]}


def layer_metric(totals: dict, name: str) -> float:
    """``<span>.<field>``: s and self_s summed over calls, calls, or items per span second."""
    span, fieldname = name.rsplit(".", 1)
    agg = totals.get(span, {"s": 0.0, "self_s": 0.0, "calls": 0, "items": 0})
    if fieldname.endswith("_per_s"):
        return agg["items"] / agg["s"] if agg["s"] > 0 else 0.0
    return agg[fieldname]


def measure_traced(plan: Plan, seconds: float, deadline: float, names: list[str]):
    import spans

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    checker = Checker(plan)

    # round 0 warms this process up and is only checked; then untraced and
    # traced rounds alternate, and their difference is the tracing overhead
    def one_round(r):
        plan.records.unlink(missing_ok=True)
        tracer = spans.Tracer() if r and r % 2 == 0 else None
        with spans.installed(tracer) if tracer else contextlib.nullcontext():
            ops = [run_in_process(argv, 1 + r % 2) for argv in plan.argvs]
        checker.round(ops)
        return Round(ops, tracer)

    rounds = run_rounds(one_round, seconds, deadline, min_rounds=3)
    traced = [rnd for rnd in rounds if rnd.tracer]
    untraced = rounds[1::2]
    per_round = [{name: layer_metric(rnd.tracer.totals(), name)
                  for name in names if name != "trace.overhead_s"} for rnd in traced]
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                   - statistics.median(r.wall_s for r in untraced))
    ops = [op for rnd in rounds for op in rnd.ops]
    return metrics, ops, checker, {"rounds": per_round}


def host() -> dict:
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own, see README)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (SRC / "qtomo" / "cli.py").is_file():
        sys.stderr.write(f"bench: no qtomo sources under {SRC}; run from a full checkout\n")
        return 2
    # turn SIGTERM into SystemExit, so run_cli kills its child before exiting
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = config["run_seconds"] if args.seconds is None else args.seconds
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in config[kind]}

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    plan = prepare(workload, seed, BENCH / "work" / workload.name)
    if args.trace:
        metrics, ops, checker, detail = measure_traced(plan, seconds, deadline, list(units))
    else:
        metrics, ops, checker, detail = measure_untraced(plan, seconds, deadline)

    failed = sum(op.exit != 0 for op in ops)
    print(f"{workload.name} seed {seed} trace {args.trace}: {len(ops)} operations attempted, "
          f"{failed} failed")
    for problem in checker.problems:
        print(f"  WRONG: {problem}")
    for name in sorted(metrics):
        print(f"  {name:48s} {metrics[name]:14.6g} {units.get(name, _unit(name))}")
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    suffix = "_trace" if args.trace else ""
    (results / f"BENCH_{workload.name}{suffix}.json").write_text(json.dumps(
        {"workload": workload.name, "seed": seed, "trace": args.trace, "seconds": seconds,
         "host": host(), "attempted": len(ops), "failed": failed, "problems": checker.problems,
         "metrics": metrics, "detail": detail}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not checker.problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def _unit(name: str) -> str:
    return {"records_per_s": "1/s", "peak_rss_mb": "MB"}.get(name, "s")


if __name__ == "__main__":
    raise SystemExit(main())
