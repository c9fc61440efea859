"""Benchmark of twinbeam: four workloads, end-to-end metrics or per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload phase_space --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (``--workload all`` prints one such line per
workload, each with its ``workload`` name).  With ``--trace 0`` the metrics
are the end-to-end ones, measured in fresh child processes; with
``--trace 1`` they are the per-layer ones of a traced child.  The program
under test is imported from the checkout's ``src`` directory, never from an
installed copy.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# BLAS threads are pinned in this process too, before NumPy is imported.
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(SINGLE_THREAD)

# On Linux a child's ru_maxrss starts from the RSS high-water mark of the
# process that spawned it, which exec folds in.  So this process loads no
# NumPy and keeps no table: CLI output is hashed as it arrives, the first
# table goes to a file, and a worker checks it after the last invocation.
import inputs as workload_inputs  # noqa: E402
from runstats import SpreadProbes, slow_quarter  # noqa: E402

WORKLOADS = ("teleport_csv", "oracle_check", "phase_space", "monte_carlo")
CLI_WORKLOADS = ("teleport_csv", "oracle_check")
CLI = [sys.executable, "-m", "twinbeam.cli"]
E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "first_result_s": "s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
# Every child must end before the run's own limit of 180 s.
RUN_LIMIT_S = 170.0


class ChildError(RuntimeError):
    """A child process failed to run to completion."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONNOUSERSITE="1", **SINGLE_THREAD)
    env.pop("PYTHONHOME", None)
    return env


@dataclass
class Child:
    start: float  # monotonic time of the spawn
    end: float  # monotonic time at which wait4 returned
    stderr: str
    code: int
    rss_mb: float  # this child's own peak RSS, from wait4


def run_child(argv: list[str], stdin: bytes, deadline: float, on_output=None) -> Child:
    """Run one child to its end, passing each piece of its stdout to
    ``on_output(arrival time, bytes)`` as it arrives."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=child_env(), cwd=ROOT,
    )
    proc.stdin.write(stdin)
    proc.stdin.close()
    err = []
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ, on_output)
        sel.register(proc.stderr, selectors.EVENT_READ, err)
        while sel.get_map():
            timeout = deadline - time.monotonic()
            events = sel.select(timeout) if timeout > 0 else []
            if not events:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise ChildError(f"{argv[1:3]} did not finish in time")
            for key, _ in events:
                data = os.read(key.fd, 1 << 20)
                if not data:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
                elif key.data is err:
                    err.append(data)
                elif on_output is not None:
                    on_output(time.monotonic(), data)
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(t0, end, b"".join(err).decode(errors="replace"), proc.returncode, usage.ru_maxrss / 1024.0)


def run_worker(request: dict, deadline: float):
    argv = [sys.executable, str(HERE / "work.py")]
    out = []
    child = run_child(argv, json.dumps(request).encode(), deadline, lambda _, data: out.append(data))
    if child.code != 0:
        raise ChildError(f"worker {request['mode']} exited {child.code}:\n{child.stderr}")
    return child, json.loads(b"".join(out).decode().strip().splitlines()[-1])


class TableReader:
    """One CLI invocation's stdout: hashed, the arrival of the first row byte
    noted, and copied to ``copy_to`` if that is given."""

    def __init__(self, copy_to: Path | None):
        self.digest = hashlib.sha256()
        self.in_header = True
        self.first_row = None
        self.last = None
        self.copy = open(copy_to, "wb") if copy_to else None

    def __call__(self, arrival: float, data: bytes) -> None:
        self.digest.update(data)
        if self.copy:
            self.copy.write(data)
        if self.in_header:
            newline = data.find(b"\n")
            self.in_header = newline < 0
            data = data[newline + 1:]
        if self.first_row is None and not self.in_header and data:
            self.first_row = arrival
        self.last = arrival

    def close(self) -> None:
        if self.copy:
            self.copy.close()


def measure_cli(workload: str, inputs: dict, seconds: float, deadline: float) -> dict:
    """Whole CLI invocations until their time from spawn to last byte reaches ``seconds``.

    Only the first table is kept, in a file; a worker checks it after the
    last invocation, and every later table must hash the same.  A set-up
    probe is the CLI on the first point of its grid, from spawn to exit.
    """
    argv = CLI + inputs["argv"]
    setup_argv = CLI + inputs["setup_argv"]

    def setup_probe() -> float:
        child = run_child(setup_argv, b"", deadline)
        if child.code != 0:
            raise ChildError(f"twinbeam {setup_argv[3]} exited {child.code}: {child.stderr.strip()[-300:]}")
        return child.end - child.start

    OUT.mkdir(exist_ok=True)
    table = OUT / f"table-{workload}.csv"
    probes = SpreadProbes(setup_probe)
    busy, errors, digests = 0.0, [], set()
    first_row, latency, rss = [], [], []
    while busy < seconds:
        probes.due(busy / seconds)
        reader = TableReader(table if not latency else None)
        try:
            child = run_child(argv, b"", deadline, reader)
        finally:
            reader.close()
        if child.code != 0:
            errors.append(f"twinbeam {inputs['argv'][0]} exited {child.code}: {child.stderr.strip()[-300:]}")
        last = (reader.last or child.end) - child.start
        if reader.first_row is not None:
            first_row.append(reader.first_row - child.start)
        digests.add(reader.digest.digest())
        busy += last
        latency.append(last)
        rss.append(child.rss_mb)
    probes.due(1.0)
    if len(digests) > 1:
        errors.append("a repeated call printed a different table")
    _, res = run_worker({"mode": "check", "workload": workload, "inputs": inputs, "table": str(table)}, deadline)
    table.unlink()
    rows = res["attempted"]
    return {
        "attempted": max(rows, 1) * len(latency),
        "failed": 0,
        "errors": errors + res["errors"],
        "setup_s": statistics.median(probes.results),
        "items_per_s": rows / slow_quarter(latency),
        "first_result_s": slow_quarter(first_row or latency),
        "op_ms_p50": slow_quarter(latency) * 1e3,
        "peak_rss_mb": statistics.median(rss),
    }


def measure_in_process(workload: str, inputs: dict, seconds: float, deadline: float) -> dict:
    request = {"mode": "measure", "workload": workload, "inputs": inputs, "seconds": seconds}
    child, res = run_worker(request, deadline)
    return {**res, "peak_rss_mb": child.rss_mb}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    inputs = workload_inputs.make(workload, seed)
    if trace:
        path = OUT / f"trace-{workload}-{seed}.json"
        request = {"mode": "trace", "workload": workload, "inputs": inputs, "seconds": seconds,
                   "trace_path": str(path)}
        _, res = run_worker(request, deadline)
        metrics = res["metrics"]
    else:
        measure = measure_cli if workload in CLI_WORKLOADS else measure_in_process
        res = measure(workload, inputs, seconds, deadline)
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    for line in res["errors"][:20]:
        print(f"{workload}: check failed: {line}", file=sys.stderr)
    return {
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "twinbeam" / "__init__.py").is_file():
        print(f"error: no twinbeam sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    for name, result in zip(names, results):
        line = json.dumps(result if len(names) == 1 else {"workload": name, **result})
        with open(OUT / f"result-{name}-{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
