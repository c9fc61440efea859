"""Golden outputs: CLI tables and Monte Carlo estimates pinned bit for bit.

Every refactor must leave the tables byte-identical (the determinism
contract in ``cli.py``) and the Monte Carlo estimates unchanged to the
last bit.  Each argv runs in process through ``cli.main`` in CSV and in
JSON, and its output is held to a SHA-256 digest, also when written
through ``--out`` (two processes write a table of more than one block)
and, for one table, through a pipe to a subprocess.  ``oracle-check``'s
error columns are differences of rounded numbers, so only its grid and
verdict columns are pinned and the errors are bounded.  Both samplers'
first draws are pinned to the last bit as well.

A change that moves a digest updates it in the same diff and says in
CHANGES.md which table and columns moved, by how much and why.
"""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from twinbeam import (
    DoubleHomodyneSetting,
    HomodyneSetting,
    LossChannel,
    TeleportConfig,
    coherent,
    evolve,
    sample_double_homodyne,
    sample_homodyne,
    teleport_monte_carlo,
    twb,
)
from twinbeam import cli
from twinbeam.cli import main

# name: (argv, CSV digest, JSON digest); {tmp} is a per-test directory
TABLES = {
    # the README examples
    "readme-remote-prep": (
        ["remote-prep", "--N", "1", "--eta", "0.5:1.0:6", "--x", "0.5"],
        "ab0e999705b15456b393ca4f680fd4e7d25ef314be0385824434aba2a51bb1af",
        "82c006e35bab3498910178f5b1c31110f8dc05efd8fe0ce48bdfe60bf1cece6e",
    ),
    "readme-teleport-out": (
        ["teleport", "--r", "0:2:9", "--gamma-t", "0,0.3", "--M", "0.5", "--out", "{tmp}/sweep"],
        "af3319af7be4881ea05a6dc9199aa602de2e5217f568e29290200c73ab28ec35",
        "adb0c707f9f1b73fb04aeee205dc1ecf3fe9884468ae9388be48642c0f857083",
    ),
    "readme-spec": (
        ["teleport", "--spec", "{tmp}/params.json", "--eta", "0.85"],
        "877432715f479ef5457563781c44828a45502444f03b99aea323bace66546bfc",
        "6e10caf192bbe546168886c54970d3f6251aa9f6fcbbb62c3e86866b58c709f8",
    ),
    # CI's console-script check
    "ci-teleport": (
        ["teleport", "--r", "0.5"],
        "dd5320d306da836140e4a228301e7c606c8c1c15810b7c4e04ee907b97a74893",
        "c6f7c4a9aefb16fbb4d5148400e7d1f108dcc2b60091cb1b667d20fc4d0397fa",
    ),
    # bath occupations at and next to zero
    "teleport-m-edge": (
        ["teleport", "--r", "0,0.5,3", "--gamma-t", "0,0.2,5", "--M", "0,1e-9,0.01,1"],
        "0a965d85d2d28e25c9541782b5c44a46b4fcae89d80a1b85fb212f3648007131",
        "572c943db39844ee4a9db4f8a1d5e1f604ebf9a0e4109c704e0344ba7c8c2f46",
    ),
    # 20k rows each, stratified: zero, tiny, moderate and strong squeezing,
    # damping and bath, and efficiencies from 0.01 to 1
    "teleport-20k": (
        [
            "teleport",
            "--r", "0,1e-6,0.25,0.5,1,2,4,8,12,20",
            "--gamma-t", "0,1e-6,0.1,0.5,1,2,5,10",
            "--M", "0,1e-9,0.5,3,100",
            "--eta", "0.01:1:50",
        ],
        "15055c498bf23e8e56d3b9025a0242b969e1bfbaca0cebdd50fe67c0fd33a03a",
        "d0fcb1b528c5cabb6214e294b23941d8d060bfb710c714a947c58d4188444859",
    ),
    "remote-prep-20k": (
        [
            "remote-prep",
            "--r", "0,1e-8,0.05,0.3,1,2,5,10,20,50",
            "--eta", "0.02:1:50",
            "--x", "-4:4:40",
        ],
        "8f4a3d3ab8321704549940e770361b28d83c96bca0c6e95af6f4b96ce3d2852b",
        "0dbf08e191ad0dabf9e160f2a83b0f6e32f91247ad92995388c14046ca08370c",
    ),
}

# oracle-check: digests of the lam, eta, x and pass columns, and the
# largest error the default grid may show in each error column
ORACLE_KEYS = ("lam", "eta", "x", "pass")
ORACLE_DIGESTS = {
    "csv": "315ada1a73ac8d328a1f7dd64ded2d06baa958761bb5a1481a3d743be78ac185",
    "json": "3c1b3e1d7f5a2ef1dfc5f25703a1e7ff15b1a43e8ea632aa11d08f6709cae7ba",
}
# (the default grid shows 1.4e-7, 3.2e-9 and 5.6e-10)
ORACLE_ERROR_BOUNDS = {"max_moment_err": 3e-7, "purity_err": 1e-8, "density_err": 1e-9}

# float.hex of teleport_monte_carlo(z, config, n, seed); 40000 records
# cross a block boundary
ESTIMATES = [
    (0.3 - 0.2j, TeleportConfig(0.9, 0.3, 0.2, 0.8), 4000, 3, "0x1.27dc42923551dp-1"),
    (0.3 - 0.2j, TeleportConfig(0.9, 0.3, 0.2, 0.8), 4000, 901, "0x1.2896a8df94510p-1"),
    (1.5j, TeleportConfig(0.4), 40000, 3, "0x1.612484b32b3f5p-1"),
    (1.5j, TeleportConfig(0.4), 40000, 901, "0x1.6222350f35638p-1"),
    (-2.0, TeleportConfig(2.0, 1.0, 0.0, 0.6), 4000, 3, "0x1.bcc8c92c1dea1p-2"),
    (-2.0, TeleportConfig(2.0, 1.0, 0.0, 0.6), 4000, 901, "0x1.bd41a0789f321p-2"),
]


def _output(argv, fmt, tmp_path, capsys) -> str:
    """What ``twinbeam argv --format fmt`` writes, to stdout or ``--out``."""
    (tmp_path / "params.json").write_text(
        json.dumps({"r": "0:2:9", "M": [0.0, 0.5], "format": "json"})
    )
    argv = [arg.format(tmp=tmp_path) for arg in argv] + ["--format", fmt]
    assert main(argv) == 0
    text = capsys.readouterr().out
    if "--out" in argv:
        assert text == ""
        text = (tmp_path / "sweep").read_text()
    return text


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", TABLES)
def test_table(name, tmp_path, capsys):
    argv, csv_digest, json_digest = TABLES[name]
    assert _digest(_output(argv, "csv", tmp_path, capsys)) == csv_digest
    assert _digest(_output(argv, "json", tmp_path, capsys)) == json_digest


@pytest.mark.parametrize("name", TABLES)
def test_table_through_out_file(name, tmp_path, capsys):
    # a file descriptor: a table of more blocks than one is written by two processes
    argv, csv_digest, json_digest = TABLES[name]
    argv = argv if "--out" in argv else argv + ["--out", "{tmp}/sweep"]
    assert _digest(_output(argv, "csv", tmp_path, capsys)) == csv_digest
    assert _digest(_output(argv, "json", tmp_path, capsys)) == json_digest


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_through_a_pipe(fmt):
    argv, *digests = TABLES["teleport-20k"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "twinbeam.cli", *argv, "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, timeout=60, check=True,
    )
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == digests[fmt == "json"]


def test_short_writes_go_on(tmp_path, capsys, monkeypatch):
    # a descriptor may take less than it is given, as an unbuffered stdout's can
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:1000]))
    argv, csv_digest, _ = TABLES["teleport-20k"]
    assert _digest(_output(argv + ["--out", "{tmp}/sweep"], "csv", tmp_path, capsys)) == csv_digest


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_oracle_check(fmt, tmp_path, capsys):
    text = _output(["oracle-check"], fmt, tmp_path, capsys)
    rows = list(csv.DictReader(io.StringIO(text))) if fmt == "csv" else json.loads(text)
    assert len(rows) == 27
    pinned = json.dumps([[row[key] for key in ORACLE_KEYS] for row in rows])
    assert _digest(pinned) == ORACLE_DIGESTS[fmt]
    for column, bound in ORACLE_ERROR_BOUNDS.items():
        assert max(float(row[column]) for row in rows) <= bound, column


@pytest.mark.parametrize(
    "z, config, n_samples, seed, pinned",
    ESTIMATES,
    ids=[f"config{i // 2}-seed{case[3]}" for i, case in enumerate(ESTIMATES)],
)
def test_estimate(z, config, n_samples, seed, pinned):
    assert float.hex(teleport_monte_carlo(z, config, n_samples, seed)) == pinned


# float.hex of the first draws of both samplers from one lossy twin beam:
# seed -> (one homodyne record, three; one double-homodyne record, three),
# a complex record as its (real, imaginary) pair
DRAWS = {
    3: (
        "0x1.3e756659e3c62p-1",
        ["0x1.3e756659e3c62p-1", "0x1.a28f1b898cba4p-6", "-0x1.e392db530bcc7p-1"],
        ("-0x1.19c4e97dcb1b0p-2", "0x1.e183b9018368ap-2"),
        [
            ("-0x1.19c4e97dcb1b0p-2", "0x1.e183b9018368ap-2"),
            ("-0x1.0ce20dae0a162p+1", "-0x1.a35e7416bbd0cp-3"),
            ("0x1.4d54408a96640p-3", "-0x1.3d7ce4cd49060p-2"),
        ],
    ),
    901: (
        "0x1.3b37c30a12088p-1",
        ["0x1.3b37c30a12088p-1", "0x1.ddac365464126p-5", "-0x1.c1952b7393283p+0"],
        ("-0x1.21528c2db0a8ep-2", "0x1.ba6b06dbda8a8p-2"),
        [
            ("-0x1.21528c2db0a8ep-2", "0x1.ba6b06dbda8a8p-2"),
            ("-0x1.85f5db0f8c3bcp+1", "-0x1.2a9d16c3fb7fep-1"),
            ("-0x1.845c5c4575734p+0", "0x1.8ee489df23f32p-3"),
        ],
    ),
}


def _hex(record) -> tuple[str, str]:
    record = complex(record)
    return float.hex(record.real), float.hex(record.imag)


@pytest.mark.parametrize("seed", DRAWS)
def test_sampler_draws(seed):
    state = evolve(twb(0.8), LossChannel(0.1, 0.2))
    homodyne = HomodyneSetting(0, 0.3, 0.8)
    double = DoubleHomodyneSetting(coherent(1.0 - 0.5j), 0.9)
    x, xs, alpha, alphas = DRAWS[seed]
    assert float.hex(sample_homodyne(state, homodyne, seed)) == x
    assert [float.hex(v) for v in sample_homodyne(state, homodyne, seed, 3)] == xs
    assert _hex(sample_double_homodyne(state, double, seed)) == alpha
    assert [_hex(v) for v in sample_double_homodyne(state, double, seed, 3)] == alphas
