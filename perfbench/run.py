"""End-to-end and per-layer benchmark of the McVerSi reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload gp-sweep --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
(``runs_per_s``, ``setup_s``, ``peak_rss_mb``, ``success_rate``);
``--trace 1`` reports the per-layer metrics instead.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Two tool modes wrap it:

* ``--steady N`` runs N untraced runs on consecutive seeds and prints each
  end-to-end metric's median, quartiles and spread against its bound;
* ``--selfcheck`` runs the traced run twice on one seed and once on the
  next, and checks that the exact counters repeat and that the seed
  reaches the inputs.

Set-up is everything from this file's first statement to the first
timed round: imports, input generation and one untimed warm-up.  It is
measured in this process and in fresh set-up-only processes run after
the timed phase; ``setup_s`` is their median.  The timed phase runs whole
cycles of rounds (one sweep each) until ``--seconds`` have passed.

Times are normalised for the host's speed.  The shared virtual CPUs this
runs on slow down by tens of percent for seconds to minutes at a time;
:mod:`calibrate` times a fixed loop between rounds and every quarter
second while a round runs in a helper thread, and each run reads as if
that loop had taken :data:`calibrate.REFERENCE_SECONDS`.  Every thread
is pinned to one CPU, so the loop samples the CPU the workload uses.
``runs_per_s`` is the test-runs of all rounds over their wall time,
calibration excluded, times the run's slowdown factor; ``setup_s``
divides each set-up by the factor measured right after it.  The raw
figures are printed beside them.

In the traced run, whole cycles alternate untraced and traced, so
``trace.overhead`` compares neighbouring cycles, and per-layer values
are per traced cycle.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "tests", "data", "bridge")
WORK = os.path.join(ROOT, ".perfbench_work")

CPUS = os.sched_getaffinity(0)
PINNED_CPU = min(CPUS)

#: Fresh set-up-only processes per untraced run, besides the run itself.
SETUP_PROBES = 3
#: Calibration samples taken right after each set-up.
SETUP_CALIBRATIONS = 8
#: Calibration samples taken between timed rounds, and the period of the
#: samples taken while a round runs.
CALIBRATIONS_BETWEEN_ROUNDS = 1
SAMPLE_INTERVAL = 0.25
CHILD_TIMEOUT = 170.0


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _child_env(workdir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = workdir
    return env


def _run_child(arguments: list[str], workdir: str,
               timeout: float = CHILD_TIMEOUT) -> dict:
    """Run this script with *arguments*; its last stdout line, parsed."""
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *arguments],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT,
        env=_child_env(workdir), check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"child {' '.join(arguments)} exited "
            f"{completed.returncode}: {completed.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(seed: int) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.consistency.checker import resolve_backend_name

    return {"nproc": len(CPUS),
            "pinned_cpu": PINNED_CPU,
            "python": platform.python_version(),
            "numpy": numpy_version,
            "checker_backend": resolve_backend_name("auto"),
            "seed": seed,
            "git_commit": _git_commit()}


def timed_round(workload, position: int, calibration) -> tuple:
    """Run one round in a helper thread, sampling the host meanwhile.

    Returns the round and its wall seconds without the calibration time.
    """
    outcome: dict = {}

    def target() -> None:
        try:
            outcome["round"] = workload.round(position)
        except BaseException as error:  # re-raised on the main thread
            outcome["error"] = error

    thread = threading.Thread(target=target, name="perfbench-round")
    spent = calibration.spent
    started = time.perf_counter()
    thread.start()
    while True:
        thread.join(SAMPLE_INTERVAL)
        if not thread.is_alive():
            break
        calibration()
    seconds = time.perf_counter() - started - (calibration.spent - spent)
    if "error" in outcome:
        raise outcome["error"]
    return outcome["round"], seconds


# ----------------------------------------------------------------------
# Per-layer metrics from the traced cycles


def _cycle_metrics(stats: dict, seconds: float) -> dict:
    """Every per-layer metric but ``trace.overhead``, for one cycle."""
    from tracer import WAIT_LAYERS

    calls, self_s, counters = (stats["calls"], stats["self_s"],
                               stats["counters"])
    events = counters.get("sim.events", 0)
    lookups = calls.get("consistency.memo", 0)
    hits = counters.get("consistency.memo.hits", 0)
    attributed = sum(value for layer, value in self_s.items()
                     if layer not in WAIT_LAYERS)
    return {
        "sim.calls": calls.get("sim", 0),
        "sim.self_s": self_s.get("sim", 0.0),
        "sim.share": self_s.get("sim", 0.0) / seconds,
        "sim.events": events,
        "sim.messages": counters.get("sim.messages", 0),
        "sim.ticks": counters.get("sim.ticks", 0),
        "sim.ns_per_event": (self_s.get("sim", 0.0) * 1e9 / events
                             if events else 0.0),
        "sim.deadlocks": counters.get("sim.deadlocks", 0),
        "sim.protocol_errors": counters.get("sim.protocol_errors", 0),
        "core.calls": calls.get("core", 0),
        "core.self_s": self_s.get("core", 0.0),
        "consistency.execution.calls": calls.get("consistency.execution", 0),
        "consistency.execution.self_s":
            self_s.get("consistency.execution", 0.0),
        "consistency.signature.calls": calls.get("consistency.signature", 0),
        "consistency.signature.self_s":
            self_s.get("consistency.signature", 0.0),
        "consistency.memo.lookups": lookups,
        "consistency.memo.hits": hits,
        "consistency.memo.hit_ratio": hits / lookups if lookups else 0.0,
        "consistency.checker.calls": calls.get("consistency.checker", 0),
        "consistency.checker.self_s": self_s.get("consistency.checker", 0.0),
        "consistency.checker.failed":
            counters.get("consistency.checker.failed", 0),
        "bridge.ingest.calls": calls.get("bridge.ingest", 0),
        "bridge.ingest.self_s": self_s.get("bridge.ingest", 0.0),
        "bridge.ingest.bytes": counters.get("bridge.ingest.bytes", 0),
        "harness.parallel.chunks": calls.get("harness.parallel.chunk", 0),
        "harness.parallel.ckpt_bytes":
            counters.get("harness.parallel.ckpt_bytes", 0),
        "harness.parallel.ckpt_s": self_s.get("harness.parallel.ckpt", 0.0),
        "harness.parallel.sched_s": self_s.get("harness.parallel.sched", 0.0),
        "harness.wire.frames": counters.get("harness.wire.frames", 0),
        "harness.wire.bytes": counters.get("harness.wire.bytes", 0),
        "harness.wire.send_s": self_s.get("harness.wire.send", 0.0),
        "harness.service.wait_s": stats["worker_wait_s"],
        "harness.store.commits": calls.get("harness.store", 0),
        "harness.store.self_s": self_s.get("harness.store", 0.0),
        "trace.attributed_share": attributed / seconds,
        "trace.cycle_s": seconds,
    }


def layer_metrics(tracer, traced: list, untraced: list) -> tuple[dict, list]:
    """Per-cycle per-layer metrics, and each traced cycle's own values.

    *traced* and *untraced* are lists of cycles, each a list of
    ``(round index, Round, seconds, traced, host factor)``.
    """
    per_cycle = []
    for cycle in traced:
        stats = tracer.round_stats({entry[0] for entry in cycle})
        seconds = sum(entry[2] for entry in cycle)
        per_cycle.append((_cycle_metrics(stats, seconds), stats["calls"]))
    metrics = {}
    for name in per_cycle[0][0]:
        samples = [values[name] for values, _ in per_cycle]
        # Exact counts stay whole numbers; times are averaged per cycle.
        metrics[name] = (samples[0] if all(sample == samples[0]
                                           for sample in samples)
                         else statistics.fmean(samples))

    def rate(cycles: list) -> float:
        # At the host speed each round saw (see ``factor`` in _run_in).
        rounds = [entry for cycle in cycles for entry in cycle]
        return (sum(result.runs for _, result, _, _, _ in rounds)
                / sum(seconds / factor
                      for _, _, seconds, _, factor in rounds))

    metrics["trace.overhead"] = rate(traced) / rate(untraced)
    return metrics, per_cycle


def trace_problems(workload: str, per_cycle: list) -> list[str]:
    """Hook-liveness and exact-repeat violations of the traced cycles."""
    expected = _load_json(os.path.join(HERE, "layers.json"))["workloads"][
        workload]
    problems = []
    for number, (values, calls) in enumerate(per_cycle):
        for layer in expected["live"]:
            if not calls.get(layer):
                problems.append(f"traced cycle {number}: layer {layer} "
                                "recorded no calls (hook not reached)")
        for layer in expected["zero"]:
            if calls.get(layer):
                problems.append(f"traced cycle {number}: layer {layer} "
                                f"recorded {calls[layer]} calls, expected 0")
    first = per_cycle[0][0]
    for values, _ in per_cycle[1:]:
        for name in expected["exact"]:
            if values[name] != first[name]:
                problems.append(f"{name} differs between traced cycles: "
                                f"{first[name]} vs {values[name]}")
    return problems


# ----------------------------------------------------------------------
# One benchmark run


def run(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")) \
            or not os.path.isdir(FIXTURES):
        print(f"perfbench: {SRC}/repro and {FIXTURES} are required; run "
              "from a full checkout", file=sys.stderr)
        return 2
    # One CPU for every thread.  The virtual CPUs slow down independently
    # of each other, so the calibration loop on the main thread must run
    # on the CPU the workload's threads run on.
    os.sched_setaffinity(0, {PINNED_CPU})
    spec = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # Keep every temporary file the program makes inside the checkout.
    os.environ["TMPDIR"] = workdir
    sys.path.insert(0, SRC)
    try:
        return _run_in(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # other runs still use it
            os.rmdir(WORK)


def _run_in(args: argparse.Namespace, spec: dict, workdir: str) -> int:
    import tempfile

    import calibrate
    import workloads

    tempfile.tempdir = None
    workload = workloads.make(args.workload, args.seed, workdir, FIXTURES)
    workload.warm_up()
    setup_raw = time.perf_counter() - _STARTED
    calibration = calibrate.Calibration()
    for _ in range(SETUP_CALIBRATIONS):
        calibration()
    setup_s = setup_raw / calibration.slowdown()
    if args.probe_setup:
        print(json.dumps({"setup_s": setup_s, "raw_s": setup_raw}))
        return 0

    tracer = hooks_class = None
    if args.trace:
        from tracer import Hooks, Tracer

        tracer, hooks_class = Tracer(), Hooks
    cycle = workload.cycle
    rounds = []              # (index, Round, seconds, traced, factor)
    calibration.samples.clear()
    started = time.perf_counter()
    index = 0
    while True:
        first_sample = len(calibration.samples)
        for _ in range(CALIBRATIONS_BETWEEN_ROUNDS):
            calibration()
        # Whole cycles alternate untraced and traced in the traced run.
        traced = bool(args.trace) and (index // cycle) % 2 == 1
        hooks = hooks_class(tracer) if traced else None
        if traced:
            tracer.round = index
        try:
            result, seconds = timed_round(workload, index % cycle,
                                          calibration)
        finally:
            if hooks is not None:
                tracer.round = None
                hooks.uninstall()
        # Traced and untraced cycles are compared at the host speed each
        # saw, from the samples taken before and during the round.
        factor = (statistics.fmean(calibration.samples[first_sample:])
                  / calibrate.REFERENCE_SECONDS)
        rounds.append((index, result, seconds, traced, factor))
        index += 1
        if index % cycle == 0 \
                and time.perf_counter() - started >= args.seconds \
                and (not args.trace or index >= 2 * cycle):
            break
    for _ in range(CALIBRATIONS_BETWEEN_ROUNDS):
        calibration()
    wall = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    slowdown = calibration.slowdown()

    reference = workload.reference([entry[1] for entry in rounds[:cycle]])
    attempted = failed = 0
    for index, result, *_ in rounds:
        expected = reference[index % cycle]
        attempted += len(result.views)
        if len(result.views) != len(expected):
            failed += len(result.views)
            continue
        failed += sum(1 for op, view in enumerate(result.views)
                      if op in result.bad or view != expected[op])
    runs = sum(entry[1].runs for entry in rounds)
    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} operations failed their "
                        "output check")

    if args.trace:
        cycles = [rounds[at:at + cycle] for at in range(0, len(rounds), cycle)]
        traced_cycles = [entries for entries in cycles if entries[0][3]]
        untraced_cycles = [entries for entries in cycles
                           if not entries[0][3]]
        metrics, per_cycle = layer_metrics(tracer, traced_cycles,
                                           untraced_cycles)
        problems += trace_problems(args.workload, per_cycle)
        declared = spec["per_layer"]
    else:
        setups = [{"setup_s": setup_s, "raw_s": setup_raw}]
        for _ in range(SETUP_PROBES):
            setups.append(_run_child(
                ["--workload", args.workload, "--seed", str(args.seed),
                 "--probe-setup"], workdir))
        raw_rate = runs / sum(seconds for _, _, seconds, _, _ in rounds)
        metrics = {"runs_per_s": raw_rate * slowdown,
                   "setup_s": statistics.median(entry["setup_s"]
                                                for entry in setups),
                   "peak_rss_mb": peak_rss_mb,
                   "success_rate": 1.0 - failed / attempted}
        declared = spec["end_to_end"]
        raw_setup = statistics.median(entry["raw_s"] for entry in setups)
        print(f"raw (not normalised): runs_per_s {raw_rate:.6g} 1/s, "
              f"setup_s {raw_setup:.6g} s")

    print("fingerprint " + json.dumps(fingerprint(args.seed)))
    print(f"workload {args.workload}: {len(rounds)} rounds, {runs} "
          f"test-runs, {attempted} operations in {wall:.3f} s; host "
          f"slowdown {slowdown:.4f} over {len(calibration.samples)} "
          "calibration samples")
    for problem in problems:
        print(f"problem: {problem}")
    units = {entry["name"]: entry["unit"] for entry in declared}
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0 if not problems else 1


# ----------------------------------------------------------------------
# Tool modes


def _child_args(workload: str, seed: int, seconds: int,
                trace: int) -> list[str]:
    return ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def steady(args: argparse.Namespace) -> int:
    """N untraced runs on consecutive seeds: median, quartiles, spread."""
    bounds = {entry["name"]: entry["bound"] for entry in
              _load_json(os.path.join(ROOT, "BENCHMARK.json"))["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    os.makedirs(WORK, exist_ok=True)
    all_correct = True
    for offset in range(args.steady):
        result = _run_child(
            _child_args(args.workload, args.seed + offset, args.seconds, 0),
            WORK, timeout=CHILD_TIMEOUT + 60)
        all_correct &= result["correct"]
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"run {offset + 1}/{args.steady} seed {args.seed + offset}: "
              + ", ".join(f"{name}={values[name][-1]:.5g}"
                          for name in bounds), flush=True)
    ok = all_correct
    for name, bound in bounds.items():
        q1, median, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / median
        steady_enough = spread <= bound / 3
        if name != "setup_s":
            ok &= steady_enough
        print(f"{args.workload} {name}: median {median:.5g} q1 {q1:.5g} "
              f"q3 {q3:.5g} spread {spread:.4f} bound {bound} "
              f"({'within' if steady_enough else 'OVER'} bound/3)")
    print(json.dumps({"workload": args.workload, "runs": args.steady,
                      "correct": all_correct, "steady": ok}))
    return 0 if ok else 1


def selfcheck(args: argparse.Namespace) -> int:
    """Exact counters repeat for one seed and change with the seed."""
    exact = _load_json(os.path.join(HERE, "layers.json"))["workloads"][
        args.workload]["exact"]
    os.makedirs(WORK, exist_ok=True)
    runs = [_run_child(_child_args(args.workload, seed, args.seconds, 1),
                       WORK, timeout=CHILD_TIMEOUT + 60)
            for seed in (args.seed, args.seed, args.seed + 1)]
    counts = [{name: run_result["metrics"][name]["value"] for name in exact}
              for run_result in runs]
    repeat = counts[0] == counts[1]
    seeded = counts[0] != counts[2]
    correct = all(run_result["correct"] for run_result in runs)
    for name in exact:
        print(f"{args.workload} {name}: seed {args.seed} -> "
              f"{counts[0][name]}, {counts[1][name]}; seed "
              f"{args.seed + 1} -> {counts[2][name]}")
    shares = runs[0]["metrics"]
    print(f"{args.workload} trace.overhead "
          f"{shares['trace.overhead']['value']:.4f}, attributed share "
          f"{shares['trace.attributed_share']['value']:.4f}, sim share "
          f"{shares['sim.share']['value']:.4f}")
    print(json.dumps({"workload": args.workload, "correct": correct,
                      "repeat": repeat, "seed_changes_counts": seeded}))
    return 0 if correct and repeat and seeded else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("gp-sweep", "replay", "service"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--steady", type=int, metavar="N",
                      help="run N untraced runs and report their spread")
    mode.add_argument("--selfcheck", action="store_true",
                      help="check that exact counters repeat per seed")
    mode.add_argument("--probe-setup", action="store_true",
                      help=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.steady:
        return steady(args)
    if args.selfcheck:
        return selfcheck(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
