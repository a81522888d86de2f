"""Smoke tests for the scripts in scripts/, run as subprocesses the way the
README runs them."""

import os
import re
import subprocess
import sys
from pathlib import Path

from sandpiles.closed_form import sandpile_group

ROOT = Path(__file__).resolve().parents[1]


ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=120,
    )


def test_quotient_witness_finds_the_small_pairs():
    # Enumeration confirms the quotients over F_4 and F_9.
    done = run_script("quotient_witness.py", "--p-max", "3", "--r-max", "2", "--k-max", "2")
    assert done.returncode == 0, done.stderr
    assert "non-isomorphic pairs: [(4, 4), (3, 9), (9, 9)]" in done.stdout
    assert "enumeration confirms" in done.stdout


def test_quotient_witness_scans_mixed_moduli():
    # n = 6 = 2 * 3 over F_4: the smallest witness whose modulus is not a
    # power of the characteristic.
    done = run_script(
        "quotient_witness.py", "--p-max", "2", "--r-max", "2", "--k-max", "1", "--n-max", "6"
    )
    assert done.returncode == 0, done.stderr
    assert re.search(r"^n=6 +q=4 +order=96 +DIFFER \[enumeration confirms\]$", done.stdout, re.MULTILINE)
    assert "non-isomorphic pairs: [(4, 4), (6, 4)]" in done.stdout


def test_group_tables_check_passes():
    done = run_script(
        "group_tables.py", "--n-max", "6", "--d-max", "3", "--family", "both", "--check"
    )
    assert done.returncode == 0, done.stderr
    assert "kautz" in done.stdout and "de_bruijn" in done.stdout


def test_group_tables_ends_quietly_when_the_reader_closes_early():
    # About 80 KB of table: more than the pipe holds, so the script is still
    # writing when the reader goes away after one line.
    args = ("--n-max", "40", "--d-max", "8", "--family", "both")
    with subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "group_tables.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=ENV,
    ) as proc:
        assert proc.stdout.readline().startswith("family")
        proc.stdout.close()
        proc.wait(timeout=120)
        stderr = proc.stderr.read()
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr


def test_quotient_witness_ends_quietly_when_the_reader_closes_early():
    # About 100 KB of report: more than the pipe holds, so the script is
    # still writing when the reader goes away after one line.
    args = ("--p-max", "11", "--r-max", "3", "--k-max", "3", "--brute-cap", "1")
    with subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "quotient_witness.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=ENV,
    ) as proc:
        assert proc.stdout.readline().startswith("n=")
        proc.stdout.close()
        proc.wait(timeout=120)
        stderr = proc.stderr.read()
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr


def test_quotient_witness_prints_orders_past_the_int_string_limit(long_int_strings):
    # |S(2401, 2401)| has 8110 digits, past Python's default 4300-digit limit
    # on int-to-str conversion; the script lifts it for its process.
    done = run_script(
        "quotient_witness.py", "--p-max", "7", "--r-max", "4", "--k-max", "4", "--brute-cap", "1"
    )
    assert done.returncode == 0, done.stderr
    found = re.search(r"^n=2401 q=2401 order=(\d+) ", done.stdout, re.MULTILINE)
    assert found is not None
    assert int(found.group(1)) == sandpile_group(2401, 2401).order
