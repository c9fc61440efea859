"""CLI: grids, table formatting, spec files, exit codes."""

import errno
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twinbeam import (
    HomodyneSetting,
    TeleportConfig,
    condition_fock,
    condition_homodyne,
    eta_threshold,
    fidelity_coherent,
    gauss_hermite_grid,
    moments_fock,
    photon_number,
    remote_prep,
    squeezing_from_photon_number,
    twb,
    twb_fock,
)
from twinbeam import cli
from twinbeam.cli import (
    ConfigurationError,
    ORACLE_BLOCK,
    ORACLE_COLUMNS,
    REMOTE_PREP_COLUMNS,
    SweepSpec,
    TELEPORT_COLUMNS,
    Table,
    _parse_range,
    main,
    rows_to_csv,
    rows_to_json,
    run_oracle_check,
    run_remote_prep_sweep,
    run_teleport_sweep,
)


class TestRangeParsing:
    def test_forms(self):
        assert _parse_range("0.5", "--r") == (0.5,)
        assert _parse_range("0.1,0.2,0.4", "--r") == (0.1, 0.2, 0.4)
        assert _parse_range("0:1:5", "--r") == (0.0, 0.25, 0.5, 0.75, 1.0)

    @pytest.mark.parametrize("bad", ["", "a", "1:2", "1:2:0", "0:1:x", "1;2"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            _parse_range(bad, "--r")


class TestSweepSpec:
    def test_requires_exactly_one_of_r_or_n(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(r=(0.5,), n=(1.0,))
        with pytest.raises(ConfigurationError):
            SweepSpec()

    def test_derives_the_missing_column(self):
        by_n = run_remote_prep_sweep(SweepSpec(n=(1.0,))).rows()
        assert by_n[0]["N"] == 1.0
        assert by_n[0]["r"] == pytest.approx(squeezing_from_photon_number(1.0), rel=1e-15)
        by_r = run_remote_prep_sweep(SweepSpec(r=(0.5,))).rows()
        assert by_r[0]["r"] == 0.5
        assert by_r[0]["N"] == pytest.approx(2.0 * math.sinh(0.5) ** 2, rel=1e-15)


class TestRemotePrepSweep:
    def test_grid_and_values(self):
        spec = SweepSpec(n=(1.0,), eta=(0.8, 0.9, 1.0), x=(0.5,))
        rows = run_remote_prep_sweep(spec).rows()
        assert len(rows) == 3
        assert all(tuple(row.keys()) == REMOTE_PREP_COLUMNS for row in rows)
        res = remote_prep(squeezing_from_photon_number(1.0), 0.8, 0.5)
        assert rows[0]["a_x_eta"] == pytest.approx(res.a_x_eta, abs=1e-15)
        assert rows[0]["sigma1_sq"] == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert rows[0]["is_squeezed"] is True

    def test_iteration_order(self):
        spec = SweepSpec(r=(0.1, 0.2), eta=(0.7, 1.0), x=(0.0,))
        rows = run_remote_prep_sweep(spec).rows()
        assert [(row["r"], row["eta"]) for row in rows] == [
            (0.1, 0.7),
            (0.1, 1.0),
            (0.2, 0.7),
            (0.2, 1.0),
        ]

    def test_columns_keep_their_axes(self):
        table = run_remote_prep_sweep(SweepSpec(r=(0.1, 0.2), eta=(0.7, 0.8, 1.0), x=(0.0, 1.0, 2.0, 3.0)))
        shapes = {name: column.shape for name, column in table.columns.items()}
        assert table.shape == (2, 3, 4)
        assert shapes["r"] == shapes["N"] == shapes["sigma2_sq"] == (2, 1, 1)
        for name in ("sigma1_sq", "n_th", "r_squeeze", "is_squeezed"):
            assert shapes[name] == (2, 3, 1)
        assert shapes["a_x_eta"] == shapes["density"] == (2, 3, 4)


class TestTeleportSweep:
    def test_values_and_literals(self):
        spec = SweepSpec(
            r=(0.0, math.log(2.0)),
            gamma_t=(0.0, 0.3),
            thermal_photons=(1.0,),
            eta=(0.8,),
        )
        rows = run_teleport_sweep(spec).rows()
        assert len(rows) == 4
        assert all(tuple(row.keys()) == TELEPORT_COLUMNS for row in rows)
        lossy_vacuum = rows[1]
        assert lossy_vacuum["eta_threshold"] == "impossible"
        assert lossy_vacuum["beats_classical"] is False
        ideal = rows[2]
        assert ideal["kappa_sq"] == pytest.approx(0.5, abs=1e-15)
        assert ideal["fidelity"] == pytest.approx(1.0 / 1.5, abs=1e-15)
        assert ideal["eta_threshold"] == pytest.approx(1.0 / 1.75, abs=1e-15)
        assert ideal["beats_classical"] is True


class TestOracleCheckRun:
    def test_default_grid_passes(self):
        rows = run_oracle_check((0.3, 1.0 / math.sqrt(3.0), 0.8), (0.6, 0.8, 1.0), (-1.0, 0.0, 0.7)).rows()
        assert len(rows) == 27
        assert all(row["pass"] for row in rows)
        assert all(tuple(row.keys()) == ORACLE_COLUMNS for row in rows)

    def test_leakage_is_configuration_error(self):
        with pytest.raises(ConfigurationError) as err:
            run_oracle_check((0.8,), (1.0,), (0.0,), cutoff=5)
        assert "0.0687" in str(err.value)

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            run_oracle_check((1.0,), (1.0,), (0.0,))
        with pytest.raises(ConfigurationError):
            run_oracle_check((), (1.0,), (0.0,))

    def test_coarse_nodes_fail_tolerances(self):
        rows = run_oracle_check((0.3,), (0.6,), (0.7,), nodes=2).rows()
        assert not rows[0]["pass"]

    def test_records_past_one_block_equal_single_records(self):
        xs = np.linspace(-2.0, 2.0, 2 * ORACLE_BLOCK + 3).tolist()
        table = run_oracle_check((0.3, 0.5), (0.7, 1.0), xs, cutoff=30, nodes=12)
        for i, x in enumerate(xs):
            one = run_oracle_check((0.3, 0.5), (0.7, 1.0), (x,), cutoff=30, nodes=12)
            for name in ORACLE_COLUMNS:
                got = np.broadcast_to(table.columns[name], table.shape)[..., i]
                want = np.broadcast_to(one.columns[name], one.shape)[..., 0]
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


class TestGateEdges:
    """oracle-check's gates at their edges, with their documented values
    written out: a tolerance or bound loosened 100x, or the cutoff cap moved
    by one, fails here."""

    @pytest.mark.parametrize("column, tol", [("max_moment_err", 1e-5), ("purity_err", 1e-4), ("density_err", 1e-6)])
    def test_an_error_past_one_tolerance_fails_the_row(self, column, tol, monkeypatch):
        # one number-basis figure moved by 5 tol puts that column's error in
        # (tol, 100 tol); the point's other errors stay ~1e-15
        shift = dict.fromkeys(("max_moment_err", "purity_err", "density_err"), 0.0) | {column: 5.0 * tol}

        def shifted_condition(*args):
            density, rows = condition_fock(*args)
            return density + shift["density_err"], rows

        def shifted_moments(rows):
            m = moments_fock(rows)
            return m._replace(mean_x=m.mean_x + shift["max_moment_err"], purity=m.purity + shift["purity_err"])

        monkeypatch.setattr(cli, "condition_fock", shifted_condition)
        monkeypatch.setattr(cli, "moments_fock", shifted_moments)
        (row,) = run_oracle_check((0.3,), (0.8,), (0.7,)).rows()
        assert tol < row[column] < 100.0 * tol
        assert all(row[name] < 1e-12 for name in shift if name != column)
        assert not row["pass"]

    @pytest.mark.parametrize("scale, code", [(1.0 + 1e-4, 1), (1.0 + 1e-6, 0)])
    def test_engine_noise_perturbation(self, scale, code, monkeypatch, capsys):
        # the engine's homodyne noise off by 1e-4 moves the default grid's
        # errors to ~1.6e-5 (moments) and ~1e-5 (density); off by 1e-6, ~100x less
        noise = HomodyneSetting.noise_variance
        monkeypatch.setattr(HomodyneSetting, "noise_variance", property(lambda s: noise.fget(s) * scale))
        assert main(["oracle-check"]) == code

    def test_leakage_bound(self, capsys):
        # lam^(2 (cutoff + 1)) against the bound 1e-6, at cutoff 20
        edge = 1e-6 ** (1.0 / 42.0)
        argv = ["oracle-check", "--eta", "1,0.8", "--x", "0,0.7", "--cutoff", "20", "--lam"]
        assert main([*argv, repr(edge * (1.0 + 1e-9))]) == 2
        assert "bound is 1e-06" in capsys.readouterr().err
        assert main([*argv, repr(edge * (1.0 - 1e-9))]) == 0

    def test_cutoff_cap(self, capsys):
        argv = ["oracle-check", "--lam", "0.5", "--eta", "1", "--x", "0", "--cutoff"]
        assert main([*argv, "127"]) == 0
        assert main([*argv, "128"]) == 2
        assert "cutoff must lie in [0, 127]" in capsys.readouterr().err


class TestFormatting:
    def test_csv_17_digits_round_trip(self):
        table = Table((1,), {"a": np.array([0.1]), "flag": np.array([True]), "word": np.array(["impossible"], dtype=object)})
        text = rows_to_csv(table, ("a", "flag", "word"))
        lines = text.splitlines()
        assert lines[0] == "a,flag,word"
        cell, flag, word = lines[1].split(",")
        assert cell == "0.10000000000000001"
        assert float(cell) == 0.1
        assert flag == "true" and word == "impossible"

    def test_json_round_trip(self):
        table = Table((1,), {"a": np.array([1.0 / 3.0]), "flag": np.array([False]), "word": np.array(["impossible"], dtype=object)})
        parsed = json.loads(rows_to_json(table))
        assert parsed[0]["a"] == 1.0 / 3.0
        assert parsed[0]["flag"] is False
        assert parsed[0]["word"] == "impossible"

    def test_json_equals_the_dumped_rows(self):
        # every kind of cell, columns of several shapes, and keys that need escaping
        table = Table(
            (2, 3),
            {
                "eta_threshold": np.array([[0.25], ["impossible"]], dtype=object),
                "flag": np.array([[True, False, True]]),
                "odd": np.array([math.inf, -math.inf, math.nan]),
                '100% "q"': np.array(1.0 / 3.0),
                "none": np.array(False),
                "a": np.array([[0.1], [-0.0]]),
            },
        )
        assert rows_to_json(table) == json.dumps(table.rows(), indent=2) + "\n"
        assert rows_to_json(Table((0, 2), {"a": np.zeros((0, 1))})) == "[]\n"


def _mixed_table(shape) -> Table:
    """Columns of every shape that broadcasts to ``shape`` (full grid,
    leading axis only, inner axes only, 0-d) and every kind of cell."""
    rng = np.random.default_rng(len(shape) + sum(shape))
    full = rng.normal(size=shape)
    full.flat[:4] = [-0.0, math.nan, math.inf, -math.inf][: full.size]
    lead = np.array(rng.normal(size=shape[:1]), dtype=object).reshape(shape[:1] + (1,) * (len(shape) - 1))
    lead[::2] = "impossible"
    return Table(
        shape,
        {
            "full": full,
            "lead": lead,
            "inner": np.asarray(rng.normal(size=shape[1:])),
            "flag": full > 0,
            "zero_d": np.array(1.0 / 3.0),
            '100% "q"': np.array(False),
        },
    )


class TestStreamedTables:
    """Tables written block by block are the tables formatted row by row,
    however many blocks a grid spans."""

    @pytest.mark.parametrize("block", [1, 3, 7, 4096])
    @pytest.mark.parametrize("shape", [(2, 3), (5, 4, 3), (1, 6, 2, 3), (1, 1, 9), (4,), (3, 0, 2), (0, 4)])
    def test_blocks_join_to_the_row_by_row_tables(self, shape, block, monkeypatch):
        monkeypatch.setattr(cli, "TABLE_BLOCK", block)
        table = _mixed_table(shape)
        rows = table.rows()
        assert rows_to_csv(table, list(table.columns)) == _csv(rows, list(table.columns))
        assert rows_to_csv(table, ["inner", "lead"]) == _csv(rows, ["inner", "lead"])
        assert rows_to_json(table) == json.dumps(rows, indent=2) + "\n"

    @pytest.mark.parametrize("block", [1, 3])
    def test_zero_dimensional_table_is_one_row(self, block, monkeypatch):
        monkeypatch.setattr(cli, "TABLE_BLOCK", block)
        table = Table((), {"a": np.array(-0.0), "b": np.array(True)})
        assert rows_to_csv(table, ("a", "b")) == "a,b\n-0,true\n"
        assert rows_to_json(table) == json.dumps(table.rows(), indent=2) + "\n"

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_and_out_file_agree(self, block, fmt, tmp_path, capsys, monkeypatch):
        argv = ["teleport", "--r", "1:0:3", "--gamma-t", "0,0.3,2", "--M", "0,1", "--eta", "0.6,1", "--format", fmt]
        assert main(argv) == 0
        whole = capsys.readouterr().out
        monkeypatch.setattr(cli, "TABLE_BLOCK", block)
        assert main(argv) == 0
        assert capsys.readouterr().out == whole
        assert main(argv + ["--out", str(tmp_path / "table")]) == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "table").read_text() == whole

    def test_oracle_failure_still_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "TABLE_BLOCK", 1)
        argv = ["oracle-check", "--lam", "0.3", "--eta", "0.6", "--x", "-1,0.7", "--nodes", "2"]
        assert main(argv) == 1
        assert capsys.readouterr().out.splitlines()[2].endswith("false")

    def test_closed_pipe_exits_141_quietly(self, unbuffered=""):
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
        argv = ["teleport", "--r", "0:2:100", "--gamma-t", "0:1:50", "--eta", "0.5:1:4"]  # ~3 MB of CSV
        proc = subprocess.Popen(
            [sys.executable, "-m", "twinbeam.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == (",".join(TELEPORT_COLUMNS) + "\n").encode()
        proc.stdout.close()  # the reader goes away, as `| head -n 1` does
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert (proc.returncode, err) == (141, b"")

    def test_closed_pipe_exits_141_quietly_unbuffered(self):
        # a raw stdout: each short write goes on where it stopped
        self.test_closed_pipe_exits_141_quietly(unbuffered="1")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_full_stdout_exits_two_with_one_line(self, fmt):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        argv = ["teleport", "--r", "0:2:100", "--gamma-t", "0:1:50", "--format", fmt]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "twinbeam.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        err = proc.stderr.decode()
        assert proc.returncode == 2
        assert err.startswith("error: cannot write stdout: [Errno 28]")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestTwoWriters:
    """A table of more than one block, written to a descriptor, is written
    by this process and a child, each formatting every other block."""

    ARGV = ["teleport", "--r", "0:1:6", "--gamma-t", "0:1:40", "--eta", "0.5:1:50"]  # 3 blocks

    @pytest.mark.parametrize("to", ["stdout", "out"])
    @pytest.mark.parametrize("failing", ["child", "parent"])
    def test_a_failing_writer_ends_the_run(self, failing, to, tmp_path, capfd, monkeypatch):
        # a block of the child fails to format, or any block of the parent after the first to write
        parent, format_cells, write_all = os.getpid(), cli._format_cells, cli._write_all

        def format_in_parent(values, as_json=False):
            if os.getpid() != parent:
                raise RuntimeError("a block of the child fails")
            return format_cells(values, as_json)

        def fail_after_the_header_in_parent(fd, text):
            if os.getpid() == parent and not text.startswith("r,"):
                raise OSError(errno.ENOSPC, "a block of the parent fails")
            write_all(fd, text)

        if failing == "child":
            monkeypatch.setattr(cli, "_format_cells", format_in_parent)
        else:
            monkeypatch.setattr(cli, "_write_all", fail_after_the_header_in_parent)
        argv = self.ARGV + (["--out", str(tmp_path / "table")] if to == "out" else [])
        assert main(argv) == 2
        err = capfd.readouterr().err
        assert err.count("\n") == 1 and f"a block of the {failing} fails" in err
        with pytest.raises(ChildProcessError):  # the child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_the_parent_formats_before_it_waits(self, tmp_path, monkeypatch):
        # after the fork the parent makes its next block (piece 2 of 4) and only
        # then waits for its turn, so the two writers format at once
        parent, events = os.getpid(), []
        format_cells, read, fork = cli._format_cells, os.read, os.fork

        def record(event, call):
            def recorded(*args):
                if os.getpid() == parent:
                    events.append(event)
                return call(*args)
            return recorded

        monkeypatch.setattr(cli, "_format_cells", record("format", format_cells))
        monkeypatch.setattr(os, "read", record("read", read))
        monkeypatch.setattr(os, "fork", record("fork", fork))
        assert main(self.ARGV + ["--out", str(tmp_path / "table")]) == 0
        after = events[events.index("fork") + 1 :]
        assert "format" in after and after.index("format") < after.index("read"), after

    def test_one_writer_otherwise(self, tmp_path, capsys, monkeypatch):
        # an in-memory stdout, a table of one block, or no os.fork: no child
        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)
        assert main(self.ARGV) == 0
        whole = capsys.readouterr().out
        assert main(["teleport", "--r", "0:1:4096", "--out", str(tmp_path / "one")]) == 0
        assert (tmp_path / "one").read_text().count("\n") == cli.TABLE_BLOCK + 1
        monkeypatch.delattr(os, "fork")
        assert main(self.ARGV + ["--out", str(tmp_path / "table")]) == 0
        assert (tmp_path / "table").read_text() == whole


class TestTableMemory:
    """The CLI formats and writes a block at a time, so the memory it
    holds does not grow with the rows it prints."""

    BOUND = 8e6  # bytes; one 4096-row block of cell text takes ~2 MB

    @staticmethod
    def _peak(argv, monkeypatch) -> float:
        with open(os.devnull, "w") as sink, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def test_peak_is_bounded_and_flat_in_rows(self, monkeypatch):
        tail = ["--gamma-t", "0:1:25", "--M", "0,0.5", "--eta", "0.5:1:20"]  # 1000 rows per r
        by_r = self._peak(["teleport", "--r", "0:2:50", *tail], monkeypatch)
        one_r = self._peak(["teleport", "--r", "0.7", "--gamma-t", "0:1:1250", *tail[2:]], monkeypatch)
        half = self._peak(["teleport", "--r", "0:2:25", *tail], monkeypatch)
        assert max(by_r, one_r) < self.BOUND, (by_r, one_r)
        # 25k more rows add their table columns (~15 bytes a row), not their text (~500)
        assert by_r - half < 1e6, (half, by_r)


class TestMain:
    def test_remote_prep_stdout(self, capsys):
        code = main(["remote-prep", "--N", "1", "--eta", "0.8:1.0:3", "--x", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(REMOTE_PREP_COLUMNS)
        assert len(lines) == 4
        first = dict(zip(REMOTE_PREP_COLUMNS, lines[1].split(",")))
        assert float(first["sigma1_sq"]) == pytest.approx(1.0 / 6.0, abs=1e-16)
        assert first["is_squeezed"] == "true"

    def test_byte_identical_runs(self, capsys):
        argv = ["teleport", "--r", "0:1:4", "--gamma-t", "0,0.5", "--M", "0.3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_json_format_flag(self, capsys):
        code = main(["teleport", "--r", "0.5", "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["eta_threshold"] == pytest.approx(
            1.0 / (2.0 - math.exp(-1.0)), rel=1e-15
        )

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code = main(["remote-prep", "--r", "0.4", "--x", "0", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith(",".join(REMOTE_PREP_COLUMNS))

    def test_spec_file_with_flag_override(self, tmp_path, capsys):
        spec = tmp_path / "sweep.json"
        spec.write_text(
            json.dumps(
                {
                    "N": {"start": 1.0, "stop": 5.0, "count": 2},
                    "eta": [0.9],
                    "x": 0.5,
                    "format": "json",
                }
            )
        )
        code = main(["remote-prep", "--spec", str(spec)])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["N"] for row in rows] == [1.0, 5.0]

        code = main(["remote-prep", "--spec", str(spec), "--eta", "1.0", "--format", "csv"])
        assert code == 0
        text = capsys.readouterr().out
        assert text.startswith("r,")  # flag flipped the format back to csv
        assert ",1," in text.splitlines()[1]

    def test_oracle_check_default_passes(self, capsys):
        code = main(["oracle-check"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.strip().splitlines()) == 28
        assert out.strip().splitlines()[1].endswith("true")

    def test_oracle_check_failure_exit_code(self, capsys):
        code = main(["oracle-check", "--lam", "0.3", "--eta", "0.6", "--x", "0.7", "--nodes", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.strip().splitlines()[1].endswith("false")

    @pytest.mark.parametrize(
        "argv",
        [
            ["remote-prep", "--r", "0.5", "--N", "1"],  # both given
            ["remote-prep", "--x", "0"],  # neither given
            ["teleport", "--r", "0:1"],  # malformed range
            ["oracle-check", "--lam", "0.8", "--cutoff", "5"],  # leakage
            ["teleport", "--r", "0.5", "--eta", "1.5"],  # invalid eta
            ["teleport", "--r", "nan"],  # non-finite squeezing
            ["teleport", "--r", "0.5", "--M", "inf"],  # non-finite bath
            ["remote-prep", "--r", "400"],  # photon number overflows
            ["teleport", "--r", "0.5,nan"],  # every value of each axis is checked
            ["teleport", "--r", "0.5", "--gamma-t", "0,-1"],
            ["teleport", "--r", "0.5", "--M", "0,inf"],
            ["teleport", "--r", "0.5", "--eta", "0.9,0"],
            ["remote-prep", "--r", "1", "--x", "nan"],  # non-finite record
            ["remote-prep", "--r", "0.5,300", "--x", "0,1"],  # the closed forms overflow at one point
            ["remote-prep", "--r", "0.5,400", "--x", "0,1"],
            ["teleport", "--r", "0.5", "--seed", "5"],  # --seed is gone
            ["teleport", "--r", "0.3", "--M", "1e308", "--gamma-t", "0,0.1"],  # 2M + 1 overflows
            ["teleport", "--r", "0.3", "--eta", "5e-324"],  # (1 - eta)/eta overflows
            ["remote-prep", "--r", "0.5", "--eta", "5e-324"],  # not a density of 0.0
            ["oracle-check", "--cutoff", "30.9"],  # not an integer
            ["teleport", "--r", "0.5", "--format", "xml"],
            ["teleport", "--r", "0:inf:3"],  # a range's span must be finite
            ["oracle-check", "--lam", "0.5", "--eta", "1", "--x", "1e200"],  # no number-basis density
        ],
    )
    def test_usage_errors_exit_two(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error" in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize(
        "text, message",
        [("0:inf:3", "a range needs a finite span"), ("0:1:0", "a range needs a count of at least 1")],
    )
    def test_range_errors_keep_their_message(self, text, message, capsys):
        assert main(["teleport", "--r", text]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("x", ["nan", "inf", "0.5,-inf"])
    def test_oracle_names_a_non_finite_record(self, x, capsys):
        assert main(["oracle-check", "--lam", "0.5", "--eta", "0.8", f"--x={x}"]) == 2
        assert "error: x must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("values", ["-1,0,0.7", "-2:2:50", "-1"])
    def test_negative_grid_values(self, values, capsys):
        assert main(["remote-prep", "--r", "1", "--x", values]) == 0
        separate = capsys.readouterr().out
        assert main(["remote-prep", "--r", "1", f"--x={values}"]) == 0
        assert separate == capsys.readouterr().out
        first_x = values.replace(":", ",").split(",")[0]
        assert float(separate.splitlines()[1].split(",")[3]) == float(first_x)

    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unwritable_out(self, tmp_path, capsys):
        target = tmp_path / "missing" / "table.csv"
        assert main(["teleport", "--r", "0.5", "--out", str(target)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_bad_spec_file(self, tmp_path, capsys, monkeypatch):
        broken = tmp_path / "broken.json"
        broken.write_text("[1, 2, 3]")
        assert main(["remote-prep", "--spec", str(broken)]) == 2
        missing = tmp_path / "missing.json"
        assert main(["remote-prep", "--spec", str(missing)]) == 2
        # each file would give a table if its one bad entry were ignored or coerced
        monkeypatch.chdir(tmp_path)
        base = {"teleport": ["--r", "0.5"], "oracle-check": ["--lam", "0.3", "--eta", "1", "--x", "0"]}
        for command, payload in [
            ("teleport", {"gamma-t": 0.3}),  # a flag is --gamma-t, its key gamma_t
            ("teleport", {"seed": 5}),
            ("teleport", {"spec": "other.json"}),
            ("oracle-check", {"cutoff": 30.9}),
            ("oracle-check", {"cutoff": 40.0}),  # as --cutoff 40.0
            ("oracle-check", {"nodes": True}),
            ("teleport", {"format": "xml"}),
            ("teleport", {"out": 5}),
            ("teleport", {"eta": None}),
            ("teleport", {"eta": [0.9, "1"]}),
            ("teleport", {"eta": {"start": 0.5, "stop": 1, "count": 2.0}}),
        ]:
            broken.write_text(json.dumps(payload))
            assert main([command, *base[command], "--spec", str(broken)]) == 2, payload
            assert "error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [broken]

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("teleport", {"r": [0.5, 10**400]}),
            ("teleport", {"r": {"start": 10**400, "stop": 1, "count": 2}}),
            ("oracle-check", {"lam": 10**400}),
        ],
    )
    def test_spec_integer_too_large_for_a_float_exits_two(self, command, payload, tmp_path, capsys):
        # a usage error, not an OverflowError: for oracle-check, exit 1 means a failed row
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(payload))
        assert main([command, "--spec", str(spec)]) == 2
        flag = "--" + next(iter(payload))
        assert capsys.readouterr().err == f"error: {flag} expects numbers within float range\n"


def _csv(rows, columns) -> str:
    """CSV of rows built one by one, the same format as the CLI's tables."""

    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        return v if isinstance(v, str) else f"{v:.17g}"

    return "\n".join([",".join(columns)] + [",".join(cell(row[c]) for c in columns) for row in rows]) + "\n"


def _cli_tables(argv, capsys) -> tuple[str, str]:
    assert main(argv) == 0
    csv = capsys.readouterr().out
    assert main(argv + ["--format", "json"]) == 0
    return csv, capsys.readouterr().out


def _teleport_rows(rs, gammas, ms, etas) -> list[dict]:
    rows = []
    for r in rs:
        for g in gammas:
            for m in ms:
                for eta in etas:
                    config = TeleportConfig(r, g, m, eta)
                    fid = fidelity_coherent(config)
                    rows.append(
                        {
                            "r": r,
                            "gamma_t": g,
                            "M": m,
                            "eta": eta,
                            "kappa_sq": config.kappa_sq,
                            "fidelity": fid,
                            "eta_threshold": eta_threshold(r, g, m),
                            "beats_classical": fid > 0.5,
                        }
                    )
    return rows


def _flag(values) -> str:
    return "=" + ",".join(repr(v) for v in values)


class TestTablesMatchScalarCalls:
    """CLI tables equal, byte for byte, tables built row by row from the
    scalar library functions.  Many irregular r and gamma_t values make
    each exponential of the broadcast sweep count: one taken with a
    function that is not correctly rounded changes some cells."""

    def test_teleport_by_r(self, capsys):
        rng = random.Random(3)
        rs = [-0.0] + [rng.uniform(0.0, 3.0) for _ in range(63)]
        gammas = [0.0, 0.3] + [rng.uniform(0.0, 2.0) for _ in range(30)]
        ms, etas = [0.0, 1.0], [1.0, 0.6]
        argv = ["teleport", "--r" + _flag(rs), "--gamma-t" + _flag(gammas), "--M" + _flag(ms), "--eta" + _flag(etas)]
        csv, text = _cli_tables(argv, capsys)
        rows = _teleport_rows(rs, gammas, ms, etas)
        # r = -0, gamma_t = 0.3, M = 1: no efficiency beats 1/2
        assert [row["eta_threshold"] for row in rows[6:8]] == ["impossible"] * 2
        assert csv.splitlines()[1].startswith("-0,0,0,1,")
        assert csv == _csv(rows, TELEPORT_COLUMNS)
        assert text == json.dumps(rows, indent=2) + "\n"

    def test_teleport_by_photon_number(self, capsys):
        ns = [0.0, 0.37, 1.0, 5.5, 1e300]
        gammas, ms, etas = [0.0, 0.45], [0.0, 0.2], [0.7, 1.0]
        argv = ["teleport", "--N" + _flag(ns), "--gamma-t" + _flag(gammas), "--M" + _flag(ms), "--eta" + _flag(etas)]
        csv, text = _cli_tables(argv, capsys)
        rows = _teleport_rows([squeezing_from_photon_number(n) for n in ns], gammas, ms, etas)
        assert csv == _csv(rows, TELEPORT_COLUMNS)
        assert text == json.dumps(rows, indent=2) + "\n"

    def test_teleport_strong_squeezing(self, capsys):
        # the teleport table has no N column, so an r whose photon number
        # overflows is still a valid row
        assert main(["teleport", "--r", "400", "--gamma-t", "0.2", "--eta", "0.9"]) == 0
        row = dict(zip(TELEPORT_COLUMNS, capsys.readouterr().out.splitlines()[1].split(",")))
        config = TeleportConfig(r=400.0, gamma_t=0.2, eta=0.9)
        assert float(row["kappa_sq"]) == config.kappa_sq
        assert float(row["fidelity"]) == fidelity_coherent(config)

    def test_remote_prep(self, capsys):
        rs, etas, xs = [0.0, 0.31, 1.7], [0.5, 0.83, 1.0], [-1.3, 0.0, 0.7]
        argv = ["remote-prep", "--r" + _flag(rs), "--eta" + _flag(etas), "--x" + _flag(xs)]
        csv, text = _cli_tables(argv, capsys)
        rows = []
        for r in rs:
            for eta in etas:
                for x in xs:
                    res = remote_prep(r, eta, x)
                    rows.append(
                        {
                            "r": r,
                            "N": photon_number(r),
                            "eta": eta,
                            "x": x,
                            "a_x_eta": res.a_x_eta,
                            "sigma1_sq": res.sigma1_sq,
                            "sigma2_sq": res.sigma2_sq,
                            "n_th": res.n_th,
                            "r_squeeze": res.r_squeeze,
                            "is_squeezed": res.is_squeezed,
                            "density": res.outcome_density,
                        }
                    )
        assert csv == _csv(rows, REMOTE_PREP_COLUMNS)
        assert text == json.dumps(rows, indent=2) + "\n"

    def test_oracle_check(self, capsys):
        lams, etas, xs = [0.3, 0.55], [0.7, 1.0], [-1.0, 0.4]
        argv = ["oracle-check", "--lam" + _flag(lams), "--eta" + _flag(etas), "--x" + _flag(xs), "--cutoff", "30", "--nodes", "12"]
        csv, text = _cli_tables(argv, capsys)
        grid = gauss_hermite_grid(12)
        rows = []
        for lam in lams:
            r = math.atanh(lam)
            for eta in etas:
                for x in xs:
                    outcome = condition_homodyne(twb(r), HomodyneSetting(0, 0.0, eta), x)
                    mean, cov = outcome.state.mean, outcome.state.cov
                    density, rho = condition_fock(twb_fock(lam, 30), x, eta, grid)
                    fm = moments_fock(rho)
                    moment_err = float(
                        max(
                            abs(fm.mean_x - mean[0]),
                            abs(fm.mean_y - mean[1]),
                            abs(fm.var_x - cov[0, 0]),
                            abs(fm.var_y - cov[1, 1]),
                            abs(fm.cov_xy - cov[0, 1]),
                        )
                    )
                    purity_err = abs(fm.purity - 1.0 / (2.0 * remote_prep(r, eta, x).n_th + 1.0))
                    density_err = abs(density - outcome.probability_density)
                    rows.append(
                        {
                            "lam": lam,
                            "eta": eta,
                            "x": x,
                            "max_moment_err": moment_err,
                            "purity_err": purity_err,
                            "density_err": density_err,
                            "pass": bool(moment_err <= 1e-5 and purity_err <= 1e-4 and density_err <= 1e-6),
                        }
                    )
        assert csv == _csv(rows, ORACLE_COLUMNS)
        assert text == json.dumps(rows, indent=2) + "\n"

    def test_empty_axis_gives_header_only(self, tmp_path, capsys):
        spec = tmp_path / "empty.json"
        spec.write_text(json.dumps({"r": [], "M": [0.5]}))
        assert main(["teleport", "--spec", str(spec)]) == 0
        assert capsys.readouterr().out == ",".join(TELEPORT_COLUMNS) + "\n"
        assert main(["remote-prep", "--spec", str(spec), "--format", "json"]) == 0
        assert capsys.readouterr().out == "[]\n"


class TestTablesMatchScalarCallsInSmallBlocks(TestTablesMatchScalarCalls):
    """The same tables, written in blocks of a few rows each."""

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        monkeypatch.setattr(cli, "TABLE_BLOCK", 7)


# Grid bounds each parameter is valid within; lam keeps cutoff 20 under the leakage bound.
_BOUNDS = {
    "r": (0.0, 2.0),
    "N": (0.0, 4.0),
    "eta": (0.05, 1.0),
    "x": (-2.0, 2.0),
    "gamma_t": (0.0, 2.0),
    "M": (0.0, 2.0),
    "lam": (0.0, 0.6),
}
_AXES = {
    "remote-prep": ("eta", "x"),
    "teleport": ("eta", "gamma_t", "M"),
    "oracle-check": ("eta", "x"),
}


@st.composite
def _axis(draw, name):
    """One grid as (spec-file value, flag text), the value in a form drawn
    from range text, list, range object and number."""
    values = st.floats(*_BOUNDS[name])
    form = draw(st.sampled_from(["text", "list", "object", "number"]))
    if form == "number":
        value = draw(values)
        return value, repr(value)
    if form == "list" or draw(st.booleans()):
        value = draw(st.lists(values, min_size=1, max_size=3))
        text = ",".join(map(repr, value))
    else:
        value = {"start": draw(values), "stop": draw(values), "count": draw(st.integers(1, 3))}
        text = "{start!r}:{stop!r}:{count}".format(**value)
    return (text if form == "text" else value), text


@st.composite
def _parameters(draw, command):
    """Spec-file entries and the equivalent flag texts, by parameter name."""
    names = ["lam" if command == "oracle-check" else draw(st.sampled_from(["r", "N"]))]
    names += [name for name in _AXES[command] if draw(st.booleans())]
    drawn = {name: draw(_axis(name)) for name in names}
    if command == "oracle-check":
        for name, low, high in (("cutoff", 20, 30), ("nodes", 2, 8)):
            count = draw(st.integers(low, high))
            drawn[name] = (draw(st.sampled_from([count, str(count)])), str(count))
    return drawn


def _flags(command, drawn) -> list[str]:
    return [command] + [f"--{name.replace('_', '-')}={text}" for name, (_, text) in drawn.items()]


class TestSpecFileEqualsFlags:
    """A spec file is the same input as the flags that spell it: every
    value passes the same converter, whichever source it came from."""

    @pytest.mark.parametrize("command", list(_AXES))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_same_tables_and_flags_override(self, command, data, tmp_path, capsys):
        drawn = data.draw(_parameters(command))
        name = data.draw(st.sampled_from([name for name in drawn if name in _BOUNDS]))
        override = {name: data.draw(_axis(name))}
        spec = tmp_path / "spec.json"

        def run(argv):
            code = main(argv)
            return code, capsys.readouterr().out

        for fmt in ("csv", "json"):
            spec.write_text(json.dumps({**{k: v for k, (v, _) in drawn.items()}, "format": fmt}))
            by_flags = run(_flags(command, drawn) + ["--format", fmt])
            assert by_flags[0] in ((0, 1) if command == "oracle-check" else (0,))
            assert run([command, "--spec", str(spec)]) == by_flags
            overridden = run(_flags(command, {**drawn, **override}) + ["--format", fmt])
            assert run(_flags(command, override) + ["--spec", str(spec)]) == overridden
