"""Mutation runner: every mutant listed here must fail the tests it names.

    python tests/mutants.py [pytest options]

A mutant is one exact piece of text in one file and its replacement.
For each, ``src``, ``tests``, ``pyproject.toml`` and ``README.md`` are
copied into a fresh temporary directory, the text is replaced there, and
pytest runs the mutant's named tests in the copy with the given options
(CI passes ``-x`` and a fixed ``--hypothesis-seed``).  The working tree
is never written.  The run fails when a mutant's text does not occur
exactly once, when a mutant survives (its tests pass), or when pytest
ends in any other way than failed tests (a collection error, a timeout).
The unmutated copy runs every named test first and must pass, so a kill
is the mutant's own.

Exact equivalents, such as another block size, are not listed: no test
can kill them.  Only the standard library and pytest are used.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    text: str  # must occur exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


GOLDEN = "tests/test_golden.py::test_table"
RECORD_COVARIANCE = "tests/test_measurement.py::TestDoubleHomodyne::test_record_covariance"
BAD_SPEC_FILE = "tests/test_cli.py::TestMain::test_bad_spec_file"

MUTANTS = (
    Mutant(
        "the two table writers' offsets swapped",
        "src/twinbeam/cli.py",
        "islice(pieces, 1 if pid else 0, None, 2)",
        "islice(pieces, 0 if pid else 1, None, 2)",
        ("tests/test_golden.py::test_table_through_out_file",),
    ),
    Mutant(
        "a writer's text made after it takes the turn",
        "src/twinbeam/cli.py",
        "                text = piece()  # made before the turn, so the two writers make text at once\n"
        "                if turn and not os.read(turn[0], 1):\n"
        "                    break  # the other writer stopped, and says why\n"
        "                write(text)\n",
        "                if turn and not os.read(turn[0], 1):\n"
        "                    break\n"
        "                write(piece())\n",
        ("tests/test_cli.py::TestTwoWriters::test_the_parent_formats_before_it_waits",),
    ),
    Mutant(
        "a spec range object's missing keys unchecked",
        "src/twinbeam/cli.py",
        "        if missing:\n"
        "            raise ConfigurationError(f\"{flag} range object lacks {sorted(missing)}\")\n",
        "",
        (BAD_SPEC_FILE,),
    ),
    Mutant(
        "a spec file's JSON error reported in JSON's own words",
        "src/twinbeam/cli.py",
        "    except json.JSONDecodeError as exc:\n"
        "        raise ConfigurationError(f\"spec file is not valid JSON: {exc}\") from None\n",
        "",
        (BAD_SPEC_FILE,),
    ),
    Mutant(
        "CSV floats to 16 digits",
        "src/twinbeam/cli.py",
        '"%.17g".__mod__',
        '"%.16g".__mod__',
        (GOLDEN,),
    ),
    Mutant(
        "the coherent fidelity as 1 - k/(1 + k)",
        "src/twinbeam/protocols.py",
        "return 1.0 / (1.0 + config.kappa_sq)",
        "return 1.0 - config.kappa_sq / (1.0 + config.kappa_sq)",
        (GOLDEN,),
    ),
    Mutant(
        "kappa^2's e^{-2r} as e^{-r}",
        "src/twinbeam/protocols.py",
        "elementwise(math.exp, -2.0 * r)\n",
        "elementwise(math.exp, -r)\n",
        ("tests/test_protocols.py::TestTeleportConfig::test_kappa_frozen",),
    ),
    Mutant(
        "the twin beam's cross-term sign",
        "src/twinbeam/gaussian.py",
        "factor[2, 0], factor[3, 1] = cross, -cross",
        "factor[2, 0], factor[3, 1] = cross, cross",
        ("tests/test_gaussian.py::TestConstructors::test_twb_cov_entries",),
    ),
    Mutant(
        "the homodyne record noise as (1 - eta)/(2 eta)",
        "src/twinbeam/measurement.py",
        "return (1.0 - self.efficiency) / (4.0 * self.efficiency)",
        "return (1.0 - self.efficiency) / (2.0 * self.efficiency)",
        ("tests/test_measurement.py::TestHomodyneSetting::test_noise_variance",),
    ),
    Mutant(
        "sigma_1^2 with eta for 1 - eta",
        "src/twinbeam/protocols.py",
        "sigma1 = 0.25 * (1.0 + n * (1.0 - eta))",
        "sigma1 = 0.25 * (1.0 + n * eta)",
        ("tests/test_protocols.py::TestRemotePrep::test_frozen_example",
         "tests/test_measurement.py::TestStrongSqueezing::test_conditioning_matches_remote_prep"),
    ),
    Mutant(
        "the double-homodyne excess noise delta^2 for delta^2 / 2",
        "src/twinbeam/measurement.py",
        "math.sqrt(0.5 * self.delta_sq)",
        "math.sqrt(self.delta_sq)",
        (RECORD_COVARIANCE, "tests/test_measurement.py::TestTextbookConditioning::test_double_homodyne"),
    ),
    Mutant(
        "the double-homodyne records' cross term dropped",
        "src/twinbeam/measurement.py",
        "        y += s_factor[1, 0] * x\n",
        "",
        (RECORD_COVARIANCE,),
    ),
    Mutant(
        "the double-homodyne records' x scaled before y takes its term",
        "src/twinbeam/measurement.py",
        "        y *= s_factor[1, 1]\n        y += s_factor[1, 0] * x\n        x *= s_factor[0, 0]\n",
        "        x *= s_factor[0, 0]\n        y *= s_factor[1, 1]\n        y += s_factor[1, 0] * x\n",
        (RECORD_COVARIANCE,),
    ),
    Mutant(
        "the kept update reused for any state factor",
        "src/twinbeam/measurement.py",
        "if memo is None or memo[0] is not factor:",
        "if memo is None:",
        ("tests/test_measurement.py::TestReusedUpdate::test_alternating_states_match_fresh_settings",),
    ),
    Mutant(
        "the Kalman update's conditional factor 1e-9 too large",
        "src/twinbeam/measurement.py",
        "post[:m, :m], post[m:, m:]\n",
        "post[:m, :m], post[m:, m:] * (1 + 1e-9)\n",
        ("tests/test_measurement.py::TestTextbookConditioning::test_a_perturbed_model_disagrees",),
    ),
    Mutant(
        "the Fock oracle's density floor lowered to zero",
        "src/twinbeam/fock.py",
        "if (density < 1e-300).any():",
        "if (density <= 0.0).any():",
        ("tests/test_fock.py::TestConditionFock::test_density_floor_sits_at_1e_300",),
    ),
    Mutant(
        "the decomposition's n_th clamp removed",
        "src/twinbeam/gaussian.py",
        "n_th = max(0.0, 2.0 * s_min * s_max - 0.5)",
        "n_th = 2.0 * s_min * s_max - 0.5",
        ("tests/test_gaussian.py::TestDecomposition::test_reconstruction_idempotent",),
    ),
    Mutant(
        "the oscillator recurrence's sqrt(p) as sqrt(p + 1)",
        "src/twinbeam/fock.py",
        "math.sqrt(p) * out[p - 1]",
        "math.sqrt(p + 1.0) * out[p - 1]",
        ("tests/test_fock.py::TestWavefunction::test_explicit_low_orders",),
    ),
    Mutant(
        "the physicality rounding allowance 10x looser",
        "src/twinbeam/gaussian.py",
        "PHYSICALITY_ROUNDING = 8.0",
        "PHYSICALITY_ROUNDING = 80.0",
        ("tests/test_gaussian.py::TestSymplectic::test_tolerance_edge",),
    ),
    Mutant(
        "the physicality rounding allowance 2x tighter",
        "src/twinbeam/gaussian.py",
        "PHYSICALITY_ROUNDING = 8.0",
        "PHYSICALITY_ROUNDING = 4.0",
        ("tests/test_gaussian.py::TestSymplectic::test_tolerance_edge",),
    ),
    Mutant(
        "a printed README figure off in its last digit",
        "README.md",
        ">>> round(fidelity_coherent(config), 6)   # 1/(1 + kappa^2)\n0.551062\n",
        ">>> round(fidelity_coherent(config), 6)   # 1/(1 + kappa^2)\n0.551063\n",
        ("tests/test_readme.py",),
    ),
    *(
        Mutant(f"oracle-check's {name} 100x looser", "src/twinbeam/cli.py", f"{name} = {value}\n",
               f"{name} = 100 * {value}\n", (f"tests/test_cli.py::TestGateEdges::{test}",))
        for name, value, test in (
            ("MOMENT_TOL", "1e-5", "test_an_error_past_one_tolerance_fails_the_row"),
            ("PURITY_TOL", "1e-4", "test_an_error_past_one_tolerance_fails_the_row"),
            ("DENSITY_TOL", "1e-6", "test_an_error_past_one_tolerance_fails_the_row"),
            ("LEAKAGE_BOUND", "1e-6", "test_leakage_bound"),
        )
    ),
    *(
        Mutant(f"the cutoff cap moved to {cap}", "src/twinbeam/fock.py", "MAX_CUTOFF = 127\n",
               f"MAX_CUTOFF = {cap}\n", ("tests/test_cli.py::TestGateEdges::test_cutoff_cap",))
        for cap in (126, 128)
    ),
)


def _copy(into: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=skip)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, into)


def _pytest(copy: Path, tests, options) -> tuple[int, str]:
    """pytest's exit code on ``tests`` in ``copy`` and its last line."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *options, *tests]
    try:
        proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True, timeout=300)
    except subprocess.TimeoutExpired:
        return -1, "timed out after 300 s"
    lines = proc.stdout.strip().splitlines() or [proc.stderr.strip()]
    return proc.returncode, lines[-1]


def _run(mutant: Mutant | None, tests, options) -> tuple[int, str]:
    with tempfile.TemporaryDirectory(prefix="twinbeam-mutant-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        if mutant is not None:
            source = copy / mutant.path
            text = source.read_text()
            count = text.count(mutant.text)
            if count != 1:
                return -1, f"its text occurs {count} times in {mutant.path}"
            source.write_text(text.replace(mutant.text, mutant.replacement))
        return _pytest(copy, tests, options)


def main(options) -> int:
    tests = list(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
    code, last = _run(None, tests, options)
    print(f"unmutated: {last}", flush=True)
    if code != 0:
        print("the unmutated copy must pass every named test")
        return 1
    failures = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        code, last = _run(mutant, mutant.tests, options)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, "ERROR")
        failures += verdict != "killed"
        print(f"{verdict:8} {mutant.name} ({time.perf_counter() - start:.1f} s): {last}", flush=True)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return int(failures > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
