"""Worker process of the benchmark: set-up probes, timed rounds, traced rounds.

run.py starts this file in a fresh interpreter, with BLAS pinned to one
thread and the checkout's ``src`` first on PYTHONPATH, and sends one JSON
request on stdin: ``{"mode", "workload", "inputs", "seconds", "trace_path", "table"}``.
The worker answers with one JSON object on its last line of stdout.

* ``probe``: import twinbeam, build the workload's objects and, for the
  in-process workloads, run one operation; report monotonic timestamps.
* ``measure``: in-process workloads only; run whole rounds until their busy
  time reaches ``seconds``, checking every output, with set-up probes
  spread over the run.
* ``trace``: like ``measure``, with spans recorded around each call into
  twinbeam; the CLI workloads replay the CLI's public functions in-process.
  Reports the per-layer metrics and writes the spans to ``trace_path``.
* ``check``: CLI workloads only; check the table that run.py saved from the
  first invocation, at ``table``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import inputs as workload_inputs
import reference
from runstats import SpreadProbes, slow_quarter

SRC = Path(__file__).resolve().parent.parent / "src"

import twinbeam  # noqa: E402
from twinbeam import (  # noqa: E402
    DoubleHomodyneSetting,
    HomodyneSetting,
    LossChannel,
    TeleportConfig,
    UnphysicalStateError,
    coherent,
    condition_fock,
    condition_homodyne,
    decompose_single_mode,
    displace,
    double_homodyne_condition,
    eta_threshold,
    evolve,
    fidelity_coherent,
    gauss_hermite_grid,
    moments_fock,
    overlap,
    remote_prep,
    sample_double_homodyne,
    sample_homodyne,
    teleport_monte_carlo,
    twb,
    twb_fock,
    wigner_eval,
)
from twinbeam import cli  # noqa: E402

# Per-layer metric -> (span or counter name, unit).  Times are medians per call.
LAYERS = {
    "cli.sweep_s": ("cli.run_teleport_sweep", "s"),
    "cli.format_s": ("cli.rows_to_csv", "s"),
    "cli.write_s": ("cli.write", "s"),
    "cli.bytes": ("cli.bytes", "bytes"),
    "cli.oracle_s": ("cli.run_oracle_check", "s"),
    "protocols.teleport_row_us": ("protocols.teleport_row", "us"),
    "protocols.remote_prep_us": ("protocols.remote_prep", "us"),
    "protocols.monte_carlo_s": ("protocols.teleport_monte_carlo", "s"),
    "protocols.mc_samples": ("protocols.mc_samples", "count"),
    "gaussian.twb_us": ("gaussian.twb", "us"),
    "gaussian.displace_us": ("gaussian.displace", "us"),
    "gaussian.overlap_us": ("gaussian.overlap", "us"),
    "gaussian.wigner_eval_us": ("gaussian.wigner_eval", "us"),
    "gaussian.decompose_us": ("gaussian.decompose_single_mode", "us"),
    "channels.evolve_us": ("channels.evolve", "us"),
    "measurement.condition_homodyne_us": ("measurement.condition_homodyne", "us"),
    "measurement.double_homodyne_us": ("measurement.double_homodyne_condition", "us"),
    "measurement.sample_homodyne_s": ("measurement.sample_homodyne", "s"),
    "measurement.sample_double_homodyne_s": ("measurement.sample_double_homodyne", "s"),
    "fock.twb_fock_us": ("fock.twb_fock", "us"),
    "fock.condition_fock_us": ("fock.condition_fock", "us"),
    "fock.moments_fock_us": ("fock.moments_fock", "us"),
}
_SCALE = {"s": 1.0, "us": 1e6}


class Tracer:
    """Spans (name, start, end, parent index) kept in memory, plus counters.

    A disabled tracer hands out one shared no-op context, so the timed
    rounds run the same code with and without tracing.
    """

    _NULL = nullcontext()

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.counters: dict = defaultdict(list)
        self._open = [-1]

    def span(self, name: str):
        return _Span(self, name) if self.enabled else self._NULL

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counters[name].append(value)

    def durations(self) -> dict:
        out = defaultdict(list)
        for name, start, end, _ in self.spans:
            out[name].append(end - start)
        return out


class _Span:
    __slots__ = ("tracer", "name", "index", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr._open.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr._open.pop()
        tr.spans[self.index] = (self.name, self.start, end, tr._open[-1])
        return False


class Workload:
    """Whole rounds of one workload's operations, with their checks."""

    def __init__(self, inputs: dict, tr: Tracer):
        self.inputs = inputs
        self.tr = tr
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.busy = 0.0
        self.latencies: list[float] = []
        self.errors: list[str] = []

    def first_op(self) -> None:
        raise NotImplementedError

    def round(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need every round of the run."""


class PhaseSpace(Workload):
    """Per-record conditioning: teleportation records and the remote-prep ladder."""

    def __init__(self, inputs, tr):
        super().__init__(inputs, tr)
        self.resources = []
        n = workload_inputs.RECORD_GRID
        for spec in inputs["resources"]:
            beam = _damped_twin_beam(spec, tr)
            z = complex(*spec["z"])
            s, _, _ = reference.teleport_record_model(spec["r"], spec["gamma_t"], spec["M"], spec["eta"])
            half = workload_inputs.RECORD_REACH * math.sqrt(s)
            axis = np.linspace(-half, half, n)
            self.resources.append(
                {
                    "spec": spec,
                    "beam": beam,
                    "input": coherent(z),
                    "setting": DoubleHomodyneSetting(coherent(z), spec["eta"]),
                    "records": (-z + axis[:, None] + 1j * axis[None, :]).ravel().tolist(),
                    "step": float(axis[1] - axis[0]),
                }
            )
        self.ladder_setting = HomodyneSetting(0, 0.0, workload_inputs.LADDER_ETA)
        self.ladder = [(r, workload_inputs.ladder_records(r)) for r in workload_inputs.LADDER_R]

    def _record(self, res, alpha):
        tr = self.tr
        with tr.span("measurement.double_homodyne_condition"):
            out = double_homodyne_condition(res["beam"], res["setting"], alpha)
        with tr.span("gaussian.displace"):
            corrected = displace(out.state, 0, -alpha)
        with tr.span("gaussian.overlap"):
            fid = overlap(corrected, res["input"])
        return out.probability_density, fid

    def first_op(self):
        """The first teleportation result: one resource's grid of records."""
        res = self.resources[0]
        for alpha in res["records"]:
            self._record(res, alpha)

    def round(self):
        for res in self.resources:
            dens, fid = [], []
            for alpha in res["records"]:
                t0 = time.perf_counter()
                p, f = self._record(res, alpha)
                dt = time.perf_counter() - t0
                dens.append(p)
                fid.append(f)
                self.latencies.append(dt)
                self.busy += dt
            n = len(res["records"])
            self.attempted += n
            self.items += n
            self.errors += reference.check_teleport_records(
                res["spec"], res["records"], dens, fid, res["step"]
            )
        for r, xs in self.ladder:
            self._rung(r, xs)

    def _rung(self, r, xs):
        tr = self.tr
        eta = workload_inputs.LADDER_ETA
        t0 = time.perf_counter()
        with tr.span("gaussian.twb"):
            beam = twb(r)
        self.busy += time.perf_counter() - t0
        got = defaultdict(list)
        ok_xs, heralded = [], None
        for i, x in enumerate(xs):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                with tr.span("measurement.condition_homodyne"):
                    out = condition_homodyne(beam, self.ladder_setting, x)
            except UnphysicalStateError:
                self.failed += 1
                self.busy += time.perf_counter() - t0
                continue
            with tr.span("gaussian.decompose_single_mode"):
                dec = decompose_single_mode(out.state)
            with tr.span("protocols.remote_prep"):
                rp = remote_prep(r, eta, x)
            dt = time.perf_counter() - t0
            self.latencies.append(dt)
            self.busy += dt
            self.items += 1
            ok_xs.append(x)
            if i == workload_inputs.LADDER_WIGNER_INDEX:
                heralded = out.state
            got["mean"].append(out.state.mean)
            got["cov"].append(out.state.cov)
            got["density"].append(out.probability_density)
            got["displacement"].append(dec.displacement)
            got["squeeze_r"].append(dec.squeeze_r)
            got["phase"].append(dec.squeeze_phase)
            got["n_th"].append(dec.n_th)
            for key, value in (
                ("rp_a", rp.a_x_eta),
                ("rp_sigma1", rp.sigma1_sq),
                ("rp_sigma2", rp.sigma2_sq),
                ("rp_n_th", rp.n_th),
                ("rp_r", rp.r_squeeze),
                ("rp_density", rp.outcome_density),
            ):
                got[key].append(value)
        if ok_xs:
            self.errors += reference.check_ladder(r, eta, np.array(ok_xs), got)
        if heralded is not None:
            self._wigner_grid(r, eta, xs[workload_inputs.LADDER_WIGNER_INDEX], heralded)

    def _wigner_grid(self, r, eta, x, state):
        a, s1, s2, _ = reference.remote_prep_moments(r, eta, x)
        n = workload_inputs.WIGNER_GRID
        reach = workload_inputs.RECORD_REACH
        xs = float(a) + np.linspace(-reach, reach, n) * math.sqrt(s1)
        ys = np.linspace(-reach, reach, n) * math.sqrt(s2)
        points = [(px, py) for px in xs.tolist() for py in ys.tolist()]
        values = []
        tr = self.tr
        t0 = time.perf_counter()
        for point in points:
            with tr.span("gaussian.wigner_eval"):
                values.append(wigner_eval(state, point))
        self.busy += time.perf_counter() - t0
        cell = float(xs[1] - xs[0]) * float(ys[1] - ys[0])
        self.errors += reference.check_grid_sum(f"Wigner function at r={r:g}", values, cell)


class MonteCarlo(Workload):
    """Batched draws: teleport_monte_carlo and the two record samplers."""

    def __init__(self, inputs, tr):
        super().__init__(inputs, tr)
        self.next_seed = inputs["seed_base"]
        self.resources = []
        for spec in inputs["resources"]:
            z = complex(*spec["z"])
            self.resources.append(
                {
                    "spec": spec,
                    "z": z,
                    "beam": _damped_twin_beam(spec, tr),
                    "setting": DoubleHomodyneSetting(coherent(z), spec["eta"]),
                    "homodyne": HomodyneSetting(0, 0.0, spec["eta"]),
                    "config": TeleportConfig(spec["r"], spec["gamma_t"], spec["M"], spec["eta"]),
                    "estimates": [],
                }
            )

    def _seed(self) -> int:
        self.next_seed += 1
        return self.next_seed

    def _timed(self, name, fn, *args):
        t0 = time.perf_counter()
        with self.tr.span(name):
            out = fn(*args)
        dt = time.perf_counter() - t0
        self.busy += dt
        self.attempted += 1
        self.items += workload_inputs.MC_SAMPLES
        return out, dt

    def first_op(self):
        res = self.resources[0]
        teleport_monte_carlo(res["z"], res["config"], workload_inputs.MC_SAMPLES, self.inputs["seed_base"])

    def round(self):
        n = workload_inputs.MC_SAMPLES
        for res in self.resources:
            spec = res["spec"]
            for _ in range(workload_inputs.MC_SEEDS_PER_ROUND):
                est, dt = self._timed(
                    "protocols.teleport_monte_carlo", teleport_monte_carlo, res["z"], res["config"], n, self._seed()
                )
                self.tr.count("protocols.mc_samples", n)
                self.latencies.append(dt)
                res["estimates"].append(est)
                self.errors += reference.check_mc_estimate(spec, est, n)
            alpha, _ = self._timed(
                "measurement.sample_double_homodyne",
                sample_double_homodyne, res["beam"], res["setting"], self._seed(), n,
            )
            s, _, _ = reference.teleport_record_model(spec["r"], spec["gamma_t"], spec["M"], spec["eta"])
            self.errors += reference.check_sample_moments("double-homodyne x", alpha.real, -res["z"].real, s)
            self.errors += reference.check_sample_moments("double-homodyne y", alpha.imag, -res["z"].imag, s)
            x, _ = self._timed(
                "measurement.sample_homodyne", sample_homodyne, res["beam"], res["homodyne"], self._seed(), n
            )
            var = reference.arm_variance(spec["r"], spec["gamma_t"], spec["M"]) + (1.0 - spec["eta"]) / (
                4.0 * spec["eta"]
            )
            self.errors += reference.check_sample_moments("homodyne", x, 0.0, var)

    def finish(self):
        for res in self.resources:
            self.errors += reference.check_mc_spread(res["spec"], res["estimates"], workload_inputs.MC_SAMPLES)


class TableReplay(Workload):
    """A CLI workload's phases called in-process (traced runs), and its table check."""

    def __init__(self, inputs, tr, check):
        super().__init__(inputs, tr)
        self.tables = reference.RepeatedTable(check, inputs["grid"])

    def first_op(self):
        pass

    def check_table(self, text: str) -> None:
        rows, errors = self.tables(text)
        self.attempted += rows
        self.items += rows
        self.errors += errors


class TeleportReplay(TableReplay):
    """The teleport CLI: sweep, format and write, then the closed forms per row."""

    def __init__(self, inputs, tr):
        super().__init__(inputs, tr, reference.check_teleport_csv)

    def round(self):
        tr, grid = self.tr, self.inputs["grid"]
        spec = cli.SweepSpec(
            r=tuple(grid["r"]),
            gamma_t=tuple(grid["gamma_t"]),
            thermal_photons=tuple(grid["M"]),
            eta=tuple(grid["eta"]),
        )
        t0 = time.perf_counter()
        with tr.span("cli.run_teleport_sweep"):
            rows = cli.run_teleport_sweep(spec)
        with tr.span("cli.rows_to_csv"):
            text = cli.rows_to_csv(rows, cli.TELEPORT_COLUMNS)
        del rows
        busy = time.perf_counter() - t0
        with _stdout_pipe() as out:
            t0 = time.perf_counter()
            with tr.span("cli.write"):
                out.write(text)
                out.flush()
            self.busy += busy + time.perf_counter() - t0
        tr.count("cli.bytes", len(text.encode(sys.stdout.encoding)))
        self.check_table(text)
        # one row in 100 again, to time the closed forms behind each row
        cells = [
            (r, g, m, e) for r in grid["r"] for g in grid["gamma_t"] for m in grid["M"] for e in grid["eta"]
        ][::100]
        for r, g, m, e in cells:
            with tr.span("protocols.teleport_row"):
                fidelity_coherent(TeleportConfig(r, g, m, e))
                eta_threshold(r, g, m)


class OracleReplay(TableReplay):
    """The oracle-check CLI's phases, then its Gaussian and Fock calls one by one."""

    def __init__(self, inputs, tr):
        super().__init__(inputs, tr, reference.check_oracle_csv)

    def round(self):
        tr, grid = self.tr, self.inputs["grid"]
        cutoff, nodes = workload_inputs.ORACLE_CUTOFF, workload_inputs.ORACLE_NODES
        t0 = time.perf_counter()
        with tr.span("cli.run_oracle_check"):
            rows = cli.run_oracle_check(grid["lam"], grid["eta"], grid["x"], cutoff=cutoff, nodes=nodes)
        with tr.span("cli.rows_to_csv"):
            text = cli.rows_to_csv(rows, cli.ORACLE_COLUMNS)
        self.busy += time.perf_counter() - t0
        self.check_table(text)
        quad = gauss_hermite_grid(nodes)
        for lam in grid["lam"]:
            r = math.atanh(lam)
            with tr.span("gaussian.twb"):
                beam = twb(r)
            with tr.span("fock.twb_fock"):
                fock_beam = twb_fock(lam, cutoff)
            for eta in grid["eta"]:
                setting = HomodyneSetting(0, 0.0, eta)
                for x in grid["x"]:
                    with tr.span("measurement.condition_homodyne"):
                        condition_homodyne(beam, setting, x)
                    with tr.span("fock.condition_fock"):
                        _, rho = condition_fock(fock_beam, x, eta, quad)
                    with tr.span("fock.moments_fock"):
                        moments_fock(rho)
                    with tr.span("protocols.remote_prep"):
                        remote_prep(r, eta, x)


WORKLOADS = {
    "teleport_csv": TeleportReplay,
    "oracle_check": OracleReplay,
    "phase_space": PhaseSpace,
    "monte_carlo": MonteCarlo,
}


def _damped_twin_beam(spec: dict, tr: Tracer):
    with tr.span("gaussian.twb"):
        beam = twb(spec["r"])
    with tr.span("channels.evolve"):
        return evolve(beam, LossChannel(spec["gamma_t"], spec["M"]))


@contextmanager
def _stdout_pipe():
    """A text stream made as the CLI's stdout is on a pipe, with the
    interpreter's encoding and buffering; a thread drains the pipe."""
    read_fd, write_fd = os.pipe()
    drain = threading.Thread(target=_drain, args=(read_fd,))
    drain.start()
    try:
        with open(write_fd, "w", encoding=sys.stdout.encoding, errors=sys.stdout.errors) as out:
            yield out
    finally:
        drain.join()


def _drain(fd: int) -> None:
    with open(fd, "rb") as fh:
        while fh.read(1 << 20):
            pass


def _census(tr: Tracer) -> None:
    """Fixed small calls into every layer that the workload's rounds left unmeasured.

    Every traced run reports every per-layer metric; for a layer the
    workload does not use, the figure comes from these calls instead.
    """
    seen = set(tr.durations()) | set(tr.counters)
    beam = twb(0.7)
    probe = coherent(0.1)
    state = condition_homodyne(beam, HomodyneSetting(0, 0.0, 0.8), 0.3).state
    setting = DoubleHomodyneSetting(coherent(0.2 + 0.1j), 0.9)
    config = TeleportConfig(0.7, 0.2, 0.1, 0.9)
    fock_beam = twb_fock(0.6, 20)
    quad = gauss_hermite_grid(8)
    rho = condition_fock(fock_beam, 0.3, 0.8, quad)[1]
    small = cli.SweepSpec(r=(0.5, 1.0), gamma_t=(0.0, 0.3), thermal_photons=(0.0, 0.5), eta=(0.8, 1.0))
    rows = cli.run_teleport_sweep(small)
    text = cli.rows_to_csv(rows, cli.TELEPORT_COLUMNS)
    calls = {
        "cli.run_teleport_sweep": lambda: cli.run_teleport_sweep(small),
        "cli.rows_to_csv": lambda: cli.rows_to_csv(rows, cli.TELEPORT_COLUMNS),
        "cli.write": lambda: (out.write(text), out.flush()),
        "cli.run_oracle_check": lambda: cli.run_oracle_check([0.5], [0.8], [0.3], cutoff=30, nodes=8),
        "protocols.teleport_row": lambda: (fidelity_coherent(TeleportConfig(0.7, 0.2, 0.1, 0.9)),
                                           eta_threshold(0.7, 0.2, 0.1)),
        "protocols.remote_prep": lambda: remote_prep(0.7, 0.8, 0.3),
        "protocols.teleport_monte_carlo": lambda: teleport_monte_carlo(0.2 + 0.1j, config, 10_000, 1),
        "gaussian.twb": lambda: twb(0.7),
        "gaussian.displace": lambda: displace(state, 0, 0.1 + 0.2j),
        "gaussian.overlap": lambda: overlap(state, probe),
        "gaussian.wigner_eval": lambda: wigner_eval(state, (0.1, 0.2)),
        "gaussian.decompose_single_mode": lambda: decompose_single_mode(state),
        "channels.evolve": lambda: evolve(beam, LossChannel(0.2, 0.1)),
        "measurement.condition_homodyne": lambda: condition_homodyne(beam, HomodyneSetting(0, 0.0, 0.8), 0.3),
        "measurement.double_homodyne_condition": lambda: double_homodyne_condition(beam, setting, 0.3 + 0.1j),
        "measurement.sample_homodyne": lambda: sample_homodyne(beam, HomodyneSetting(0, 0.0, 0.8), 1, 10_000),
        "measurement.sample_double_homodyne": lambda: sample_double_homodyne(beam, setting, 1, 10_000),
        "fock.twb_fock": lambda: twb_fock(0.6, 20),
        "fock.condition_fock": lambda: condition_fock(fock_beam, 0.3, 0.8, quad),
        "fock.moments_fock": lambda: moments_fock(rho),
    }
    with _stdout_pipe() as out:
        for name, call in calls.items():
            if name not in seen:
                for _ in range(5):
                    with tr.span(name):
                        call()
    if "cli.bytes" not in seen:
        tr.count("cli.bytes", len(text.encode(sys.stdout.encoding)))
    if "protocols.mc_samples" not in seen:
        tr.count("protocols.mc_samples", 5 * 10_000)


def _layer_metrics(tr: Tracer) -> dict:
    durations = tr.durations()
    metrics = {}
    for metric, (name, unit) in LAYERS.items():
        if unit in _SCALE:
            value = statistics.median(durations[name]) * _SCALE[unit]
        elif unit == "bytes":  # per table
            value = statistics.median(tr.counters[name])
        else:  # a total over the run
            value = sum(tr.counters[name])
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def _write_trace(path: str, workload: str, tr: Tracer, items_per_s: float) -> None:
    names = sorted({s[0] for s in tr.spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = tr.spans[0][1] if tr.spans else 0.0
    payload = {
        "workload": workload,
        "items_per_s": items_per_s,
        "names": names,
        # [name index, start us, duration us, parent span index or -1]
        "spans": [
            [index[n], round((s - t0) * 1e6, 3), round((e - s) * 1e6, 3), p] for n, s, e, p in tr.spans
        ],
    }
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))


def _probe(request: dict) -> tuple[float, float]:
    """A fresh worker that imports twinbeam, builds the workload and runs its
    first operation: seconds from spawn to ready, and to the first result."""
    probe = json.dumps({"mode": "probe", "workload": request["workload"], "inputs": request["inputs"]})
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, __file__], input=probe, capture_output=True, text=True, check=True, timeout=60
    )
    res = json.loads(out.stdout.strip().splitlines()[-1])
    return res["ready"] - t0, res["first"] - t0


def main() -> int:
    request = json.loads(sys.stdin.read())
    if Path(twinbeam.__file__).resolve().parent.parent != SRC:
        print(f"error: twinbeam imported from {twinbeam.__file__}, not {SRC}", file=sys.stderr)
        return 2
    mode, workload = request["mode"], request["workload"]
    tr = Tracer(enabled=mode == "trace")
    wl = WORKLOADS[workload](request["inputs"], tr)
    if mode == "check":  # a table that run.py kept from the CLI
        wl.check_table(Path(request["table"]).read_text(encoding=sys.stdout.encoding))
        print(json.dumps({"attempted": wl.attempted, "errors": wl.errors}))
        return 0
    if mode == "probe":
        ready = time.monotonic()
        wl.first_op()
        print(json.dumps({"ready": ready, "first": time.monotonic()}))
        return 0
    seconds = request["seconds"]
    probes = SpreadProbes(lambda: _probe(request)) if mode == "measure" else None
    per_item, op_p50 = [], []  # per round: busy seconds per item, median operation latency
    while wl.busy < seconds:
        if probes:
            probes.due(wl.busy / seconds)
        busy, items, ops = wl.busy, wl.items, len(wl.latencies)
        with tr.span("bench.round"):
            wl.round()
        per_item.append((wl.busy - busy) / (wl.items - items))
        if len(wl.latencies) > ops:
            op_p50.append(statistics.median(wl.latencies[ops:]))
    wl.finish()
    result = {
        "attempted": wl.attempted,
        "failed": wl.failed,
        "errors": wl.errors,
        "items_per_s": 1.0 / slow_quarter(per_item),
    }
    if probes:
        probes.due(1.0)
        setup, first = zip(*probes.results)
        result["setup_s"] = statistics.median(setup)
        result["first_result_s"] = slow_quarter(first)
        result["op_ms_p50"] = slow_quarter(op_p50) * 1e3
    if mode == "trace":
        _census(tr)
        result["metrics"] = _layer_metrics(tr)
        _write_trace(request["trace_path"], workload, tr, result["items_per_s"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
