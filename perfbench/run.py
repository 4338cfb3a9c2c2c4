"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-figs --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs one untraced pass and then one traced pass of the same
seed, checks that both give the same output digest, and reports the
per-layer metrics.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the exit code is 1 when a correctness check failed and 2 when the
program's sources are missing.
"""

import time

#: As near to process start as the script can see.
PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, Iterable, List, Optional, Tuple  # noqa: E402

from clock import StepClock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: Both times are in seconds at nominal machine speed (see clock.py).
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

#: Set-ups made per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: A pass still running after this many times ``--seconds`` stops and
#: counts as failed (a scale phase that never converges).
PASS_LIMIT = 1.5

#: Seconds after process start by which every pass has stopped, so the
#: command exits within the 180 s a run is given.
RUN_LIMIT_S = 160.0


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-figs", "scale-protocol",
                                 "churn-exhaust"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring budget: passes repeat while the "
                             "next one is expected to fit; a scale pass "
                             "stops and fails after PASS_LIMIT times this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """One named workload: how to set it up and how to run one pass."""

    def __init__(self, name: str, seed: int) -> None:
        import workloads as w

        self.name = name
        self.seed = seed
        self._w = w

    def setup(self) -> Any:
        w = self._w
        if self.name == "scale-protocol":
            return w.scale_setups(self.seed)
        if self.name == "paper-figs":
            return w.paper_cells(self.seed)
        return w.churn_cells(self.seed)

    def run(self, prepared: Any, limit_s: float = math.inf) -> Any:
        """One pass.  A scale pass stops once it has run ``limit_s``
        seconds, or at RUN_LIMIT_S after process start; a ScenarioRunner
        cell cannot be stopped midway, and none has been seen to run
        away."""
        if self.name == "scale-protocol":
            deadline = min(time.perf_counter() + limit_s,
                           PROCESS_START + RUN_LIMIT_S)
            return self._w.run_scales(prepared, deadline)
        return self._w.run_cells(prepared)


def _timed_setups(workload: Workload, repeats: int
                  ) -> Tuple[Any, List[float], List[float]]:
    """Set the workload up ``repeats`` times; keep the last set-up.

    Returns (set-up, normalized set-up seconds each, bulk_configure
    seconds each).
    """
    prepared: Any = None
    clock = StepClock()
    bootstraps: List[float] = []
    for k in range(repeats):
        prepared = None  # free the last set-up before timing the next
        gc.collect()
        prepared = clock.time(str(k), workload.setup)
        bootstraps.append(sum(getattr(item, "bootstrap_s", 0.0)
                              for item in prepared))
    return prepared, list(clock.nominal.values()), bootstraps


def _measure(workload: Workload, seconds: float, one_pass: bool,
             import_s: float) -> Tuple[List[Any], Dict[str, float]]:
    """Untraced passes while the next is expected to fit in ``seconds``.

    At least one pass runs (only one when ``one_pass``), and none after
    a pass with a correctness finding.  Every pass of a run makes the
    same steps; ``wall_s`` sums, over the steps, each step's median over
    the passes.  A pass fills most of ``--seconds`` (see workloads.py):
    more scenarios in one pass steady the figure more than more passes
    of fewer.  ``peak_rss_mb`` is read after the first pass, so it does not depend
    on how many passes fit.
    """
    prepared, setups, bootstraps = _timed_setups(workload, SETUP_REPEATS)
    passes = []
    peak_rss_mb = 0.0
    while True:
        done = workload.run(prepared, PASS_LIMIT * seconds)
        passes.append(done)
        peak_rss_mb = peak_rss_mb or _peak_rss_mb()
        spent = sum(p.wall_s for p in passes)
        if one_pass or done.problems or spent + done.wall_s > seconds:
            break
        prepared = None  # a pass consumes its set-up; free it first
        prepared, more, more_boot = _timed_setups(workload, 1)
        setups += more
        bootstraps += more_boot
    first = passes[0]

    def median_sum(steps: Iterable[str], nominal: bool = False) -> float:
        return sum(statistics.median(
            (p.nominal if nominal else p.steps)[step]
            for p in passes if step in p.steps) for step in steps)

    numbers = {
        "peak_rss_mb": peak_rss_mb,
        "setup_s": import_s + statistics.median(setups),
        "wall_s": median_sum(first.steps, nominal=True),
        "wall_raw_s": median_sum(first.steps),
        "experiments.bootstrap_s": statistics.median(bootstraps),
        "alloc_fail_frac": (first.alloc_failed / first.entering
                            if first.entering else 0.0),
    }
    if first.phases:
        import workloads

        for phase in workloads.SCALE_PHASES:
            numbers[phase + "_s"] = median_sum(
                step for step in first.steps if step.endswith("/" + phase))
    return passes, numbers


def _traced_pass(workload: Workload, untraced: Dict[str, float]
                 ) -> Tuple[Any, Dict[str, float], int]:
    """One traced pass; returns (pass, per-layer metrics, span count).

    The untraced pass of the same seed has finished, so only RUN_LIMIT_S
    bounds this one: tracing makes a pass up to 1.7 times slower.
    """
    import layers
    from tracer import Tracer, fold

    gc.collect()
    with Tracer() as tracer:
        done = workload.run(workload.setup())
    OUT.mkdir(exist_ok=True)
    tracer.log.dump(str(OUT / f"spans-{workload.name}.bin"))
    numbers = dict(untraced, traced_wall_s=sum(done.nominal.values()))
    metrics = layers.per_layer(fold(tracer.log), done.counts, tracer.sends,
                               tracer.sends_delivered, numbers)
    return done, metrics, len(tracer.log)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: the program's sources ({SRC / 'repro'}) are "
              f"missing; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    clock = StepClock()
    # layers imports the tracer and, through it, the program.
    layers = clock.time("import", lambda: importlib.import_module("layers"))
    import_s = clock.nominal["import"]

    workload = Workload(args.workload, args.seed)
    passes, numbers = _measure(workload, args.seconds, bool(args.trace),
                               import_s)
    untraced = passes[0]
    problems: List[str] = []
    for done in passes:
        problems += done.problems
    digests = {done.digest for done in passes}
    if len(digests) > 1:
        problems.append(f"passes of one seed gave different digests: "
                        f"{sorted(digests)}")
    attempted = sum(done.operations for done in passes)

    if args.trace and not problems:
        traced, metrics, spans = _traced_pass(workload, numbers)
        attempted += traced.operations
        problems += traced.problems
        if traced.digest != untraced.digest:
            problems.append("the traced pass changed the outputs: digest "
                            f"{traced.digest} != untraced {untraced.digest}")
        units = layers.UNITS
        print(f"spans: {spans}")
    else:
        metrics = {name: numbers[name] for name, _ in END_TO_END}
        units = dict(END_TO_END)

    print(f"digest: {untraced.digest}")
    print(f"passes: {len(passes)}")
    print(f"duplicate (network, address) pairs: {untraced.duplicates}")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": min(attempted, len(problems)),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
