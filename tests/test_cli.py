import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sandpiles import circulant, cli, verify
from sandpiles.abelian import from_cyclic_orders
from sandpiles.verify import VerificationFailure


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def test_no_arguments_is_usage_error(capsys):
    assert cli.run([]) == 2
    assert cli.run(["frobnicate"]) == 2


def test_db_document(capsys):
    code, doc, err = run_cli(capsys, "db", "4", "3")
    assert code == 0
    assert doc["command"] == "db"
    assert doc["family"] == "de_bruijn"
    assert (doc["n"], doc["d"]) == (4, 3)
    assert doc["sandpile"] == {"invariant_factors": ["4"], "order": "4"}
    assert doc["sand_dune"] == {"invariant_factors": ["2", "8"], "order": "16"}
    assert doc["spanning_trees"] == "4"
    assert doc["agrees"] is True
    assert doc["method"] == "closed_form+snf"
    assert isinstance(doc["elapsed_ms"], int)


def test_kautz_document(capsys):
    code, doc, err = run_cli(capsys, "kautz", "3", "2")
    assert code == 0
    assert doc["family"] == "kautz"
    assert doc["sandpile"]["invariant_factors"] == ["3"]
    assert doc["agrees"] is True


def test_root_option(capsys):
    for root in ("0", "1", "3"):
        code, doc, _ = run_cli(capsys, "db", "6", "2", "--root", root)
        assert code == 0 and doc["agrees"] is True


def test_consecutive_matches_db(capsys):
    _, doc_db, _ = run_cli(capsys, "db", "6", "2")
    code, doc, _ = run_cli(capsys, "consecutive", "2", "6", "2", "0")
    assert code == 0
    assert doc["method"] == "snf"
    assert doc["sandpile"] == doc_db["sandpile"]


def test_consecutive_rejects_degenerate_multiplier(capsys):
    code, doc, err = run_cli(capsys, "consecutive", "2", "4", "8", "0")
    assert code == 2
    assert doc is None
    assert "error:" in err


def test_snf_file(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n2 4\n4 2\n")
    code, doc, _ = run_cli(capsys, "snf", str(path))
    assert code == 0
    assert doc["invariant_factors"] == ["2", "6"]
    assert (doc["rows"], doc["cols"], doc["rank"]) == (2, 2, 2)


def test_snf_missing_and_malformed_files(tmp_path, capsys):
    code, doc, err = run_cli(capsys, "snf", str(tmp_path / "absent.txt"))
    assert code == 2 and doc is None and "error:" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 2\n")
    code, doc, err = run_cli(capsys, "snf", str(bad))
    assert code == 2 and doc is None and "error:" in err


def test_circulant_routes(capsys):
    code, doc, err = run_cli(capsys, "circulant", "--n", "4", "--q", "3", "--restricted")
    assert code == 0
    assert doc["method"] == "closed_form"
    assert doc["group"]["invariant_factors"] == ["2", "8"]
    code, doc, _ = run_cli(
        capsys, "circulant", "--n", "4", "--q", "4", "--restricted", "--mod-x"
    )
    assert code == 0
    assert doc["method"] == "closed_form"
    code, doc, _ = run_cli(
        capsys, "circulant", "--n", "4", "--q", "3", "--restricted", "--brute"
    )
    assert code == 0
    assert doc["method"] == "brute"
    assert doc["group"]["invariant_factors"] == ["2", "8"]


def test_circulant_full_group_and_fallback(capsys):
    # Full group carries the F_q^* factor on top of the restricted one.
    code, doc, _ = run_cli(capsys, "circulant", "--n", "3", "--q", "4")
    assert code == 0
    restricted = from_cyclic_orders([3, 3])  # C'(3, 4): two fixed cosets
    assert doc["group"]["order"] == str(restricted.order * 3)
    # Mixed modulus over a proper extension: the quotient has a closed form
    # too, and enumeration agrees with it.
    code, doc, err = run_cli(
        capsys, "circulant", "--n", "6", "--q", "4", "--restricted", "--mod-x"
    )
    assert code == 0
    assert doc["method"] == "closed_form"
    assert "enumerating" not in err
    code, brute, _ = run_cli(
        capsys, "circulant", "--n", "6", "--q", "4", "--restricted", "--mod-x", "--brute"
    )
    assert code == 0 and brute["method"] == "brute"
    assert doc["group"] == brute["group"]


def test_circulant_quotient_beyond_the_enumeration_cap(capsys):
    # 4^3072 ring elements: no enumeration could serve this quotient.
    code, quotient, err = run_cli(capsys, "circulant", "--n", "3072", "--q", "4", "--mod-x")
    assert code == 0, err
    assert quotient["method"] == "closed_form"
    code, full, _ = run_cli(capsys, "circulant", "--n", "3072", "--q", "4")
    assert code == 0
    assert int(quotient["group"]["order"]) * 3072 == int(full["group"]["order"])


def test_circulant_closed_refusal_and_cap(capsys):
    code, doc, err = run_cli(
        capsys, "circulant", "--n", "6", "--q", "4", "--mod-x", "--brute", "--cap", "64"
    )
    assert code == 2 and doc is None and "64" in err
    code, _, _ = run_cli(capsys, "circulant", "--n", "4", "--q", "6")
    assert code == 2


def test_circulant_refuses_rings_beyond_physical_memory(capsys, monkeypatch):
    # 9^9 enumerated elements, the ring's C', at 36 B each outweigh 8 GB.
    monkeypatch.setattr(circulant, "_physical_memory_bytes", lambda: 8 * 10**9)
    code, doc, err = run_cli(
        capsys, "circulant", "--n", "10", "--q", "9", "--brute", "--cap", "4000000000"
    )
    assert code == 2 and doc is None and "error:" in err and "MB" in err


def test_circulant_refuses_wide_characteristic_two_rings(capsys, monkeypatch):
    monkeypatch.setattr(circulant, "_physical_memory_bytes", lambda: None)
    code, doc, err = run_cli(
        capsys, "circulant", "--n", "33", "--q", "2", "--brute", "--cap", str(1 << 40)
    )
    assert code == 2 and doc is None and "2n - 1 <= 64" in err


_small = st.integers(1, 12)
_nonpositive = st.integers(-5, 0)
_flags = st.sampled_from([[], ["--restricted"], ["--mod-x"], ["--restricted", "--mod-x"]])
_routes = st.sampled_from([[], ["--brute"]])


@st.composite
def _bad_family(draw):
    """db/kautz with n <= 0, |d| < 2, d < 0 or a root outside 0..n-1."""
    command = draw(st.sampled_from(["db", "kautz"]))
    n, d, root = draw(_small), draw(st.integers(2, 9)), 0
    fault = draw(st.sampled_from(["n", "small_d", "negative_d", "root"]))
    if fault == "n":
        n = draw(_nonpositive)
    elif fault == "small_d":
        d = draw(st.integers(-1, 1))
    elif fault == "negative_d":
        d = draw(st.integers(-9, -2))
    else:
        root = draw(st.one_of(st.integers(-5, -1), st.integers(n, n + 5)))
    return [command, str(n), str(d), "--root", str(root)]


@st.composite
def _bad_consecutive(draw):
    """consecutive with n <= 0, d < 0, a multiplier = 0 mod n or a bad root."""
    d, n, r, root = draw(st.integers(0, 4)), draw(_small), draw(st.integers(-3, 3)), 0
    q = draw(st.integers(1, 3 * n))
    if q % n == 0:
        q += 1
    fault = draw(st.sampled_from(["n", "d", "multiplier", "root"]))
    if fault == "n":
        n = draw(_nonpositive)
    elif fault == "d":
        d = draw(st.integers(-5, -1))
    elif fault == "multiplier":
        q = n * draw(st.integers(-3, 3))
    else:
        root = draw(st.one_of(st.integers(-5, -1), st.integers(n, n + 5)))
    return ["consecutive", str(d), str(n), str(q), str(r), "--root", str(root)]


@st.composite
def _bad_circulant(draw):
    """circulant with n <= 0 or a q that is not a prime power."""
    n, q = draw(_small), draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    if draw(st.booleans()):
        n = draw(_nonpositive)
    else:
        q = draw(st.sampled_from([-4, 0, 1, 6, 10, 12, 15, 36, 100]))
    return ["circulant", "--n", str(n), "--q", str(q)] + draw(_flags) + draw(_routes)


@given(st.one_of(_bad_family(), _bad_consecutive(), _bad_circulant()))
def test_out_of_range_arguments_exit_two(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code == 2, argv
    assert out.getvalue() == ""
    assert "error:" in err.getvalue()
    assert "Traceback" not in err.getvalue()
    if argv[0] == "circulant":
        assert "enumerating" not in err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["db", "3000", "1"],
        ["kautz", "3000", "1"],
        ["db", "3000", "2", "--root", "3000"],
        ["consecutive", "2", "3000", "2", "0", "--root", "5000"],
    ],
)
def test_family_refuses_before_building_the_digraph(capsys, monkeypatch, argv):
    def build(*args):
        raise RuntimeError("the digraph was built for arguments that are refused")

    monkeypatch.setattr(cli, "de_bruijn", build)
    monkeypatch.setattr(cli, "kautz", build)
    monkeypatch.setattr(cli, "build_consecutive_d", build)
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize(
    "argv", [["db", "130", "3"], ["kautz", "130", "3"], ["consecutive", "3", "130", "2", "1"]]
)
def test_dense_oracles_beyond_physical_memory_are_refused(capsys, monkeypatch, argv):
    # 130^2 vertex pairs at 64 B each outweigh 1 MB.
    monkeypatch.setattr(circulant, "_physical_memory_bytes", lambda: 10**6)
    code, doc, err = run_cli(capsys, *argv)
    assert code == 2 and doc is None and "error:" in err and "MB" in err
    monkeypatch.setattr(circulant, "_physical_memory_bytes", lambda: None)
    code, doc, _ = run_cli(capsys, *argv)
    assert code == 0 and doc is not None


def test_family_disagreement_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "sandpile_group", lambda n, d: from_cyclic_orders([999]))
    code, doc, err = run_cli(capsys, "db", "4", "3")
    assert code == 1
    assert doc["agrees"] is False
    assert "disagreement" in err


def test_circulant_quotient_disagreement_exits_one(capsys, monkeypatch):
    # Over a prime q with q | n the closed --mod-x route is compared with
    # S(n, q), plus the Z_{q-1} of constants unless --restricted.
    for q in ("2", "3"):
        for flags in ([], ["--restricted"]):
            code, _, err = run_cli(capsys, "circulant", "--n", "12", "--q", q, "--mod-x", *flags)
            assert code == 0 and err == ""
    monkeypatch.setattr(cli, "sandpile_group", lambda n, d: from_cyclic_orders([999]))
    for flags in ([], ["--restricted"]):
        code, doc, err = run_cli(capsys, "circulant", "--n", "12", "--q", "2", "--mod-x", *flags)
        assert code == 1 and doc is None
        assert "internal disagreement" in err
    code, doc, _ = run_cli(capsys, "circulant", "--n", "12", "--q", "2")
    assert code == 0 and doc is not None


def test_verify_small_sweep(capsys):
    code, doc, err = run_cli(
        capsys,
        "verify",
        "--n-max", "6",
        "--d-max", "3",
        "--q-max", "3",
        "--brute-cap", "1024",
    )
    assert code == 0
    assert doc["passed"] is True
    assert doc["total_comparisons"] == sum(doc["checks"].values()) > 0
    assert doc["seconds"].keys() == doc["checks"].keys()
    assert all(s >= 0 for s in doc["seconds"].values())
    assert err  # progress chatter goes to stderr, not into the JSON


def test_verify_checks_both_coset_groups_against_the_walk():
    # One comparison each for Sigma(m, d) and S(m, d) per coprime pair:
    # m in {1, 3, 5} for d = +-2 and m in {1, 2, 4, 5} for d = +-3.
    assert verify.check_coprime_cosets(6, 3) == 2 * (2 * 3 + 2 * 4)


def test_verify_failure_path(capsys, monkeypatch):
    def explode(config, progress=None):
        raise VerificationFailure("synthetic mismatch for the failure path")

    monkeypatch.setattr(cli, "run_all", explode)
    code, doc, err = run_cli(capsys, "verify", "--n-max", "4")
    assert code == 1
    assert doc["passed"] is False
    assert "synthetic mismatch" in doc["failure"]
    assert "verification failed" in err


def test_documents_are_deterministic(capsys):
    _, first, _ = run_cli(capsys, "db", "8", "3")
    _, second, _ = run_cli(capsys, "db", "8", "3")
    first.pop("elapsed_ms")
    second.pop("elapsed_ms")
    assert first == second


def test_stdout_is_exactly_one_json_document(capsys):
    code = cli.run(["circulant", "--n", "9", "--q", "3", "--restricted"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)  # would fail if anything else leaked to stdout
    assert doc["group"]["invariant_factors"] == ["3", "3", "3", "3", "9", "9"]


def test_main_ends_quietly_when_the_reader_closes_early():
    # About 80 KB of document: more than the pipe holds, so the command is
    # still writing when the reader goes away after one line.
    src = Path(__file__).resolve().parents[1] / "src"
    with subprocess.Popen(
        [sys.executable, "-m", "sandpiles", "circulant", "--n", "13824", "--q", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ) as proc:
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        proc.wait(timeout=120)
        stderr = proc.stderr.read()
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr


def test_main_prints_orders_past_the_int_string_limit(long_int_strings):
    # |C'(16384, 2)| has 4932 digits, past Python's default 4300-digit limit
    # on int-to-str conversion; the entry point lifts it for its process.
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "sandpiles", "circulant", "--n", "16384", "--q", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    group, _ = circulant.unit_group_closed(16384, 2)
    assert int(json.loads(done.stdout)["group"]["order"]) == group.order
