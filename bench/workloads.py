"""The three benchmark workloads, driven through cmdreason's public API.

Each workload sets up (dataset, stub endpoint and, for ``warm_replay``, a
filled cache) and then runs rounds.  A round is one whole ``run`` or
``ablate`` into fresh directories; the benchmark times only the call into
the harness, and checks the round's artifacts after the clock stops.
"""
from __future__ import annotations

import http.client
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checker
import stubgen
from cmdreason import (
    AblationGrid,
    BackendConfig,
    CmdReasonError,
    ExperimentSpec,
    ExplanationMode,
    ResponseCache,
    default_template,
    run_ablation,
    run_experiment,
)
from cmdreason.harness import build_backend

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODEL = "bench-stub"
MAX_IN_FLIGHT = 2  # the load comes from one process on a 2-core machine
RUN_COMMANDS = 1000  # cold_http and warm_replay dataset size
RUN_SHOTS = 3
GRID_COMMANDS = 60  # positions per grid cell
GRID_PAIRS = 3  # commands that appear twice in a row at the start of the grid dataset
GRID_SHOTS = (0, 1, 2, 3, 4)


def backend_config(url: str) -> BackendConfig:
    return BackendConfig(endpoint_url=url, model_name=MODEL, max_in_flight=MAX_IN_FLIGHT)


def run_once(dataset: str, url: str, out: Path, cache: Path):
    """One stepwise 3-shot run of dataset against url, with its own cache."""
    spec = ExperimentSpec(
        dataset,
        default_template().config(ExplanationMode.STEPWISE, RUN_SHOTS),
        backend_config(url),
        str(out),
    )
    return run_experiment(spec, build_backend(spec.backend_config, cache=ResponseCache(cache)))


@dataclass
class Round:
    """One timed call into the harness and what the checks found."""

    start_ns: int
    end_ns: int
    cpu_s: float
    commands: int
    failed: int = 0
    requests: int = 0
    delay_s: float = 0.0  # summed stub delay of the requests sent
    level_s: list[float] = field(default_factory=list)  # seconds at each stub concurrency
    disk_bytes: int = 0
    files: int = 0
    peak_rss_bytes: int = 0  # of this process, from its start to the end of the round
    errors: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    def in_flight_mean(self) -> float:
        """Time-mean number of requests the stub was serving at once."""
        return sum(level * s for level, s in enumerate(self.level_s)) / sum(self.level_s)

    def underfilled_s(self) -> float:
        """Seconds in which the stub served fewer than MAX_IN_FLIGHT requests."""
        return sum(self.level_s[:MAX_IN_FLIGHT])


class Stub:
    """The stub endpoint in its own process."""

    def __init__(self, seed: int, delay: bool) -> None:
        command = [sys.executable, "-B", str(HERE / "stub.py"), "--seed", str(seed)]
        if delay:
            command.append("--delay")
        self._proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self._proc.stdout.readline()
        if not line.strip():
            self.close()
            raise RuntimeError("stub endpoint did not start")
        self.port = int(line)
        self.url = f"http://127.0.0.1:{self.port}/v1"

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def measure(self, rnd: Round, before: dict) -> None:
        """Store in rnd what the stub saw since the stats before."""
        after = self.stats()
        rnd.requests = after["requests"] - before["requests"]
        rnd.delay_s = after["delay_s"] - before["delay_s"]
        old = before["level_s"] + [0.0] * (len(after["level_s"]) - len(before["level_s"]))
        rnd.level_s = [a - b for a, b in zip(after["level_s"], old)]

    def close(self) -> None:
        self._proc.stdin.close()  # the stub serves until its stdin closes
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def disk_bytes(*paths: Path) -> int:
    """Allocated bytes of the trees at paths, as du counts them."""
    total = 0
    for path in paths:
        for dirpath, _, filenames in os.walk(path):
            total += os.stat(dirpath).st_blocks * 512
            total += sum(os.stat(os.path.join(dirpath, f)).st_blocks * 512 for f in filenames)
    return total


def count_files(path: Path) -> int:
    return sum(len(filenames) for _, _, filenames in os.walk(path))


class Workload:
    """Set-up, rounds and tear-down of one workload."""

    n_setups = 9

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.stub: Stub | None = None
        self.errors: list[str] = []
        self._self_tested = False

    def setup(self) -> None:
        raise NotImplementedError

    def check_setup(self) -> None:
        """Checks on the final set-up, made outside the set-up timer."""

    def round(self, index: int) -> Round:
        raise NotImplementedError

    def teardown(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None
        shutil.rmtree(self.work, ignore_errors=True)

    def _dataset(self, salt: str, n: int, pairs: int = 0) -> list[tuple[str, str, str]]:
        self.work.mkdir(parents=True, exist_ok=True)
        rows = stubgen.make_dataset(self.seed, salt, n, pairs)
        self.dataset_path = self.work / "dataset.tsv"
        stubgen.write_dataset(self.dataset_path, rows)
        return rows

    def _timed(self, call, commands: int, out: Path, cache: Path) -> tuple[Round, object]:
        """Time call(), then record what the stub saw and what the call left on disk.

        A CmdReasonError from the call fails all its commands and is returned.
        """
        before = self.stub.stats()
        cpu = time.process_time()
        start = time.perf_counter_ns()
        try:
            result = call()
        except CmdReasonError as exc:
            result = exc
        rnd = Round(start, time.perf_counter_ns(), time.process_time() - cpu, commands)
        rnd.peak_rss_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        self.stub.measure(rnd, before)
        if isinstance(result, CmdReasonError):
            rnd.failed = commands
            rnd.errors.append(f"harness call failed: {result}")
        rnd.disk_bytes = disk_bytes(out, cache)
        rnd.files = count_files(out)
        return rnd, result

    def _check_dir(self, out: Path, expected: checker.Expected) -> list[str]:
        """Check one run directory; the first that passes also gets the self-test."""
        try:
            records, report = checker.read_run(out)
        except (OSError, ValueError) as exc:
            return [f"{out}: unreadable artifacts: {exc}"]
        errors = checker.check_records(records, expected) + checker.check_report(
            report, expected, MODEL
        )
        if not errors and not self._self_tested:
            self._self_tested = True
            errors = checker.self_test(records, report, expected, MODEL)
        return errors


class ColdHttp(Workload):
    """Distinct commands, empty cache, stub without delay: every command is sent."""

    def setup(self) -> None:
        self.rows = self._dataset("c", RUN_COMMANDS)
        self.stub = Stub(self.seed, delay=False)

    def check_setup(self) -> None:
        self.expected = checker.expect(self.seed, self.rows, 2 + 2 * RUN_SHOTS)
        self.distinct = len({text for _, text, _ in self.rows})

    def _run(self, out: Path, cache: Path):
        return run_once(str(self.dataset_path), self.stub.url, out, cache)

    def round(self, index: int) -> Round:
        out, cache = self.work / f"out{index}", self.work / f"cache{index}"
        rnd, _ = self._timed(lambda: self._run(out, cache), len(self.rows), out, cache)
        if not rnd.failed:
            rnd.errors += self._check_dir(out, self.expected)
            if rnd.requests != self.distinct:
                rnd.errors.append(f"sent {rnd.requests} requests for {self.distinct} transcripts")
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(cache, ignore_errors=True)
        return rnd


class WarmReplay(ColdHttp):
    """The cold_http dataset and spec, replayed from a cache filled in set-up.

    The fill runs in a child process, so that this process's peak memory
    covers only the replay.
    """

    n_setups = 3

    def setup(self) -> None:
        super().setup()
        self.cache = self.work / "cache"
        self.fill = self.work / "fill"
        subprocess.run(
            [sys.executable, "-B", __file__,
             str(self.dataset_path), self.stub.url, str(self.fill), str(self.cache)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            check=True,
        )

    def check_setup(self) -> None:
        super().check_setup()
        self.errors += self._check_dir(self.fill, self.expected)
        self.reference = {
            name: (self.fill / name).read_bytes() for name in ("records.jsonl", "report.json")
        }

    def round(self, index: int) -> Round:
        out = self.work / f"out{index}"
        rnd, _ = self._timed(lambda: self._run(out, self.cache), len(self.rows), out, self.cache)
        if not rnd.failed:
            for name, data in self.reference.items():
                if (out / name).read_bytes() != data:
                    rnd.errors.append(f"{name} differs from the set-up run's")
            if rnd.requests:
                rnd.errors.append(f"replay sent {rnd.requests} requests")
        shutil.rmtree(out, ignore_errors=True)
        return rnd


class GridLatency(Workload):
    """The 3 modes x 5 shot counts grid against a stub with heavy-tailed delays."""

    def setup(self) -> None:
        self.rows = self._dataset("g", GRID_COMMANDS, GRID_PAIRS)
        self.stub = Stub(self.seed, delay=True)

    def check_setup(self) -> None:
        self.expected = {k: checker.expect(self.seed, self.rows, 2 + 2 * k) for k in GRID_SHOTS}
        self.distinct = len({text for _, text, _ in self.rows})

    def round(self, index: int) -> Round:
        out, cache = self.work / f"grid{index}", self.work / f"cache{index}"
        template = default_template()
        base = ExperimentSpec(
            str(self.dataset_path),
            template.config(ExplanationMode.STEPWISE, len(template.shots)),
            backend_config(self.stub.url),
            str(out),
        )
        grid = AblationGrid(base, tuple(ExplanationMode), GRID_SHOTS)
        commands = len(grid.cells()) * len(self.rows)
        rnd, cells = self._timed(
            lambda: run_ablation(grid, build_backend(base.backend_config, cache=ResponseCache(cache))),
            commands, out, cache,
        )
        if not rnd.failed:
            for cell in cells:
                if cell.error is not None:
                    rnd.failed += len(self.rows)
                    rnd.errors.append(f"cell {cell.mode.value}/{cell.shot_count}: {cell.error}")
                else:
                    rnd.errors += self._check_dir(cell.output_dir, self.expected[cell.shot_count])
            rows = json.loads((out / "ablation.json").read_text(encoding="utf-8"))
            rnd.errors += checker.check_ablation(
                rows, [(m.value, k, self.expected[k]) for m, k in grid.cells()]
            )
            if not len(grid.cells()) * self.distinct <= rnd.requests <= commands:
                rnd.errors.append(f"sent {rnd.requests} requests for {commands} commands")
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(cache, ignore_errors=True)
        return rnd


WORKLOADS = {"cold_http": ColdHttp, "warm_replay": WarmReplay, "grid_latency": GridLatency}


if __name__ == "__main__":
    # fill a cache: python3 workloads.py DATASET URL OUT CACHE, with src/ on PYTHONPATH
    run_once(sys.argv[1], sys.argv[2], Path(sys.argv[3]), Path(sys.argv[4]))
