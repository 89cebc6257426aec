"""Benchmark of the cmdreason harness: one workload per invocation.

    python3 bench/run.py --workload cold_http --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the harness is imported from its
``src/``.  The workload sets up, then runs whole rounds until their timed
parts add up to ``--seconds``.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it spends half the time on untraced rounds and
half on traced ones, and reports the per-layer metrics and the tracing
overhead.  Every round's artifacts go through the independent checker.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
The metrics' names and units are those that ``BENCHMARK.json`` lists.
See README.md in this directory.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cold_http", "warm_replay", "grid_latency")
# Per-layer counts that must repeat exactly from round to round.
EXACT_COUNTS = (
    "backend.key_calls_per_cmd", "harness.files_written", "backend.requests_sent",
    "parser.bracket", "parser.step_fallback", "parser.failed",
)


def cpu_ticks() -> tuple[int, int] | None:
    """(stolen, total) CPU ticks of the machine so far, from /proc/stat where it exists."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(t) for t in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_rounds(workload, seconds: float, rounds: list, on_round=None) -> None:
    """Append whole rounds until their timed parts add up to seconds.

    Rounds that fail at once time almost nothing, so the loop also stops
    after three times seconds of wall time.
    """
    spent = 0.0
    first = len(rounds)
    deadline = time.perf_counter() + 3 * seconds
    while len(rounds) == first or (spent < seconds and time.perf_counter() < deadline):
        gc.collect()
        rnd = workload.round(len(rounds))
        rounds.append(rnd)
        spent += rnd.wall_s
        if on_round is not None:
            on_round(rnd)


def declared_units(section: str) -> dict[str, str]:
    """Name -> unit of each metric that BENCHMARK.json lists under section."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def end_to_end(rounds: list, setup_times: list[float]) -> dict[str, float]:
    ok = [r for r in rounds if not r.failed] or rounds
    return {
        "cmd_per_s": statistics.median(r.commands / r.wall_s for r in ok),
        "setup_s": statistics.median(setup_times),
        # through set-up and the first round: later rounds repeat it, and the
        # allocator's fragmentation would make the peak creep with their number
        "peak_rss_mb": rounds[0].peak_rss_bytes / 1e6,
        "disk_mb": statistics.median(r.disk_bytes for r in ok) / 1e6,
    }


def per_layer(workload, seconds: float, rounds: list, errors: list[str]) -> dict[str, float]:
    run_rounds(workload, seconds / 2, rounds)
    plain = list(rounds)
    tracer = spans.Tracer()
    layers: list[dict[str, float]] = []

    def measure(rnd) -> None:
        numbers = spans.layer_metrics(tracer.spans, rnd.start_ns, rnd.end_ns, rnd.commands)
        numbers["backend.requests_sent"] = rnd.requests
        numbers["backend.in_flight_mean"] = rnd.in_flight_mean()
        numbers["harness.underfilled_s"] = rnd.underfilled_s()
        numbers["harness.files_written"] = rnd.files
        layers.append(numbers)
        tracer.spans.clear()

    tracer.install()
    try:
        run_rounds(workload, seconds / 2, rounds, on_round=measure)
    finally:
        tracer.uninstall()
    if tracer.absent:
        print("absent (reported as 0): " + ", ".join(tracer.absent))
    # files and requests are known for the untraced rounds too: a grid run has
    # only one round of each kind
    counted = [
        {"backend.requests_sent": r.requests, "harness.files_written": r.files} for r in plain
    ] + layers
    for name in EXACT_COUNTS:
        seen = {numbers[name] for numbers in counted if name in numbers}
        if len(seen) > 1:
            errors.append(f"{name} differs between rounds: {sorted(seen)}")

    def wall_per_cmd(rs) -> float:
        return statistics.median(r.wall_s / r.commands for r in rs)

    values = {name: statistics.median(n[name] for n in layers) for name in layers[0]}
    values["harness.cpu_ms_per_cmd"] = statistics.median(r.cpu_s / r.commands for r in plain) * 1e3
    traced = rounds[len(plain):]
    values["trace.overhead_pct"] = (wall_per_cmd(traced) / wall_per_cmd(plain) - 1) * 100
    return values


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "cmdreason" / "__init__.py").is_file():
        print(f"error: {SRC} holds no cmdreason sources; run from a source checkout",
              file=sys.stderr)
        return 2
    units = declared_units("per_layer" if args.trace else "end_to_end")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    work = HERE / ".work" / f"run-{os.getpid()}"
    # nothing may fall back to the default cache directory of the checkout
    os.environ["CMDREASON_CACHE_DIR"] = str(work / "default-cache")
    from workloads import MAX_IN_FLIGHT, WORKLOADS

    ticks_before = cpu_ticks()
    workload = WORKLOADS[args.workload](args.seed, work)
    setup_times: list[float] = []
    rounds: list = []
    errors: list[str] = []
    try:
        for i in range(workload.n_setups):
            if i:
                workload.teardown()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        workload.check_setup()
        if args.trace:
            values = per_layer(workload, args.seconds, rounds, errors)
        else:
            run_rounds(workload, args.seconds, rounds)
            values = end_to_end(rounds, setup_times)
    finally:
        workload.teardown()
        try:
            work.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass

    errors += workload.errors + [e for r in rounds for e in r.errors]
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: BENCHMARK.json lists metrics the benchmark does not measure: {missing}",
              file=sys.stderr)
        return 2
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    attempted = sum(r.commands for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} commands attempted, "
          f"{failed} failed, checks {'passed' if not errors else 'FAILED'}")
    print("  round cmd/s: " + " ".join(f"{r.commands / r.wall_s:.1f}" for r in rounds))
    print("  set-up s: " + " ".join(f"{t:.3f}" for t in setup_times))
    ticks_after = cpu_ticks()
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        # time the hypervisor ran other guests on the machine's CPUs
        stolen = (ticks_after[0] - ticks_before[0]) / (ticks_after[1] - ticks_before[1])
        print(f"  CPU steal during the run: {stolen:.1%}")
    if rounds and rounds[0].delay_s:
        print(f"  ideal wall per round (summed stub delay / {MAX_IN_FLIGHT}): "
              f"{rounds[0].delay_s / MAX_IN_FLIGHT:.2f} s; measured median "
              f"{statistics.median(r.wall_s for r in rounds):.2f} s")
    for name, unit in units.items():
        print(f"  {args.workload} {name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
