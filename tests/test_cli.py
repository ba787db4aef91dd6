import hashlib
import json
import pathlib
import re
import subprocess
import sys
import time

import pytest

from affhecke import cli, complexes
from affhecke.rings import EXPONENT_LIMIT, RingElement

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "affhecke.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=cwd,
    )


def test_build_f_counts(tmp_path):
    out = tmp_path / "f2.json"
    result = run_cli("build-f", "--n", "2", "--out", str(out))
    assert result.returncode == 0
    data = json.loads(out.read_text())
    assert len(data["summands"]) == 4
    out4 = tmp_path / "f4.json"
    result = run_cli("build-f", "--n", "4", "--out", str(out4))
    assert result.returncode == 0
    assert len(json.loads(out4.read_text())["summands"]) == 32


def test_build_f_rejects_n1(tmp_path):
    result = run_cli("build-f", "--n", "1", "--out", str(tmp_path / "x.json"))
    assert result.returncode != 0
    assert "n must be at least 2" in result.stderr


def test_round_trip_check(tmp_path):
    out = tmp_path / "f3.json"
    assert run_cli("build-f", "--n", "3", "--out", str(out)).returncode == 0
    result = run_cli("check-file", str(out))
    assert result.returncode == 0
    assert "PASS" in result.stdout


def test_round_trip_bimodule(tmp_path):
    out = tmp_path / "f2b.json"
    r = run_cli("build-f", "--n", "2", "--backend", "bimodule", "--out", str(out))
    assert r.returncode == 0
    result = run_cli("check-file", str(out))
    assert result.returncode == 0
    assert "PASS" in result.stdout


def test_flatten_command():
    result = run_cli("flatten", "--n", "3", "--word", "w")
    assert result.returncode == 0
    assert result.stdout.strip() == "f1 f2"
    bad = run_cli("flatten", "--n", "3", "--word", "zz")
    assert bad.returncode != 0


def test_hecke_command():
    result = run_cli("hecke", "--n", "2", "--expr", "b1*b1")
    assert result.returncode == 0
    assert "(v + v^-1) b(w^0 | 2 1)" in result.stdout


def test_hecke_refuses_parentheses():
    # the grammar is sums of products; "b1*(b1+b2)" used to evaluate b1*b1+b2
    result = run_cli("hecke", "--n", "2", "--expr", "b1*(b1+b2)")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("parse error: parentheses")


@pytest.mark.parametrize("args", [
    ("kl", "--n", "2", "--word", " ".join("01" * 7 + "0")),
    ("hecke", "--n", "2", "--expr", "*".join("b0 b1".split() * 7 + ["b0"])),
])
def test_kl_and_hecke_refuse_past_the_length_cap(args):
    result = run_cli(*args)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: length 15 exceeds cap 14\n"


def test_kl_command():
    result = run_cli("kl", "--n", "3", "--word", "0 1 0")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 6  # the six-element interval below sts
    assert lines[-1].endswith(": 1")


# The exact output of the kl and hecke commands, pinned byte for byte.
KL_N3_010 = (
    "(0, 1 2 3) : v^3\n"
    "(0, 0 2 4) : v^2\n"
    "(0, 2 1 3) : v^2\n"
    "(0, 0 1 5) : v\n"
    "(0, 2 0 4) : v\n"
    "(0, 1 0 5) : 1\n"
)

KL_N4_1021 = (
    "(0, 1 2 3 4) : v^4 + v^2\n"
    "(0, 0 2 3 5) : v^3\n"
    "(0, 1 3 2 4) : v^3\n"
    "(0, 2 1 3 4) : v^3 + v\n"
    "(0, 0 1 3 6) : v^2\n"
    "(0, 0 3 2 5) : v^2\n"
    "(0, 2 0 3 5) : v^2\n"
    "(0, 2 3 1 4) : v^2\n"
    "(0, 3 1 2 4) : v^2\n"
    "(0, 0 3 1 6) : v\n"
    "(0, 1 0 3 6) : v\n"
    "(0, 3 0 2 5) : v\n"
    "(0, 3 2 1 4) : v\n"
    "(0, 3 0 1 6) : 1\n"
)

HECKE_N2_B1B1 = (
    "standard basis:\n"
    "(0, 1 2) : v^2 + 1\n"
    "(0, 2 1) : v + v^-1\n"
    "kazhdan-lusztig basis:\n"
    "(v + v^-1) b(w^0 | 2 1)\n"
)

HECKE_N2_B1_MINUS_B2 = (
    "standard basis:\n"
    "(0, 0 3) : -1\n"
    "(0, 2 1) : 1\n"
    "kazhdan-lusztig basis:\n"
    "(1) b(w^0 | 2 1) + (-1) b(w^0 | 0 3)\n"
)
HECKE_N2_B2_MINUS_B1 = (
    "standard basis:\n"
    "(0, 0 3) : 1\n"
    "(0, 2 1) : -1\n"
    "kazhdan-lusztig basis:\n"
    "(-1) b(w^0 | 2 1) + (1) b(w^0 | 0 3)\n"
)
HECKE_N2_MINUS_B1 = (
    "standard basis:\n"
    "(0, 1 2) : -v\n"
    "(0, 2 1) : -1\n"
    "kazhdan-lusztig basis:\n"
    "(-1) b(w^0 | 2 1)\n"
)
HECKE_N2_MINUS_V = (
    "standard basis:\n"
    "(0, 1 2) : -v\n"
    "kazhdan-lusztig basis:\n"
    "(-v) b(w^0 | 1 2)\n"
)
HECKE_N2_WINV_B1_MINUS_VINV_H0 = (
    "standard basis:\n"
    "(-1, 1 2) : v\n"
    "(0, 0 3) : -v^-1\n"
    "(-1, 2 1) : 1\n"
    "kazhdan-lusztig basis:\n"
    "(1) b(w^-1 | 2 1) + (-v^-1) b(w^0 | 0 3) + (1) b(w^0 | 1 2)\n"
)
HECKE_N3_W_B1_B2_MINUS_B0_W = (
    "standard basis:\n"
    "(1, 1 2 3) : v^2 - v\n"
    "(1, 1 3 2) : v - 1\n"
    "(1, 2 1 3) : v\n"
    "(1, 2 3 1) : 1\n"
    "kazhdan-lusztig basis:\n"
    "(1) b(w^1 | 2 3 1) + (-1) b(w^1 | 1 3 2)\n"
)


def test_kl_and_hecke_output_pinned():
    for args, expected in (
        (("kl", "--n", "3", "--word", "0 1 0"), KL_N3_010),
        (("kl", "--n", "4", "--word", "1 0 2 1"), KL_N4_1021),
        (("hecke", "--n", "2", "--expr", "b1*b1"), HECKE_N2_B1B1),
        (("hecke", "--n", "2", "--expr", "b1 - b2"), HECKE_N2_B1_MINUS_B2),
        (("hecke", "--n", "2", "--expr", "b1-b2"), HECKE_N2_B1_MINUS_B2),
        (("hecke", "--n", "2", "--expr", "b2 - b1"), HECKE_N2_B2_MINUS_B1),
        (("hecke", "--n", "2", "--expr=-b1+b2"), HECKE_N2_B2_MINUS_B1),
        # "w-" and "v-1" stay single tokens when nothing separates the minus
        (("hecke", "--n", "2", "--expr", "w- * b1 - v-1 * h0"), HECKE_N2_WINV_B1_MINUS_VINV_H0),
        (("hecke", "--n", "2", "--expr", "w-*b1-v-1*h0"), HECKE_N2_WINV_B1_MINUS_VINV_H0),
        # a "-" that starts an integer after a space, * or + signs that integer
        (("hecke", "--n", "2", "--expr", "b1 * -1"), HECKE_N2_MINUS_B1),
        (("hecke", "--n", "2", "--expr", "b1*-1"), HECKE_N2_MINUS_B1),
        (("hecke", "--n", "2", "--expr", "v -1"), HECKE_N2_MINUS_V),
        # omega on both sides, and right factors b_s and omega
        (("hecke", "--n", "3", "--expr", "w * b1 * b2 - b0 * w"), HECKE_N3_W_B1_B2_MINUS_B0_W),
    ):
        result = run_cli(*args)
        assert result.returncode == 0
        assert result.stdout == expected


# The bimodule serialization of F at n = 3 and its check-file verdict,
# pinned byte for byte.
F3_BIMODULE_SHA256 = "be601fcd6118404b012f7d0ef6075721441d2cb5ca3d1e06ca9cce33a4b6e142"
F3_BIMODULE_CHECK = "d^2 divisible by delta: PASS (5 mu entries)\n"


def test_bimodule_output_pinned(tmp_path):
    out = tmp_path / "f.json"
    result = run_cli("build-f", "--n", "3", "--backend", "bimodule", "--out", str(out))
    assert result.returncode == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == F3_BIMODULE_SHA256
    check = run_cli("check-file", str(out))
    assert check.returncode == 0
    assert check.stdout == F3_BIMODULE_CHECK


def test_check_file_requires_n(tmp_path):
    out = tmp_path / "f3.json"
    assert run_cli("build-f", "--n", "3", "--out", str(out)).returncode == 0
    data = json.loads(out.read_text())
    del data["n"]
    out.write_text(json.dumps(data))
    result = run_cli("check-file", str(out))
    assert result.returncode == 1
    assert result.stdout == 'FAIL: missing field "n"\n'


def test_verify_suite_and_certificate(tmp_path):
    cert = tmp_path / "certs.jsonl"
    result = run_cli(
        "verify", "--suite", "descent", "--n", "3", "--cert", str(cert)
    )
    assert result.returncode == 0
    record = json.loads(cert.read_text().splitlines()[0])
    assert record["verdict"] == "pass"
    # append-only: run again, two lines
    run_cli("verify", "--suite", "descent", "--n", "3", "--cert", str(cert))
    assert len(cert.read_text().splitlines()) == 2


def test_verify_d2_exact_at_n5(tmp_path):
    result = run_cli(
        "verify", "--suite", "d2", "--n", "5", "--cert", str(tmp_path / "c.jsonl")
    )
    assert result.returncode == 0
    assert "PASS: bimodule d^2 = mu.delta at n=5" in result.stdout
    assert "2/2 cases pass" in result.stdout


def test_verify_d2_exact_at_n6(tmp_path):
    result = run_cli(
        "verify", "--suite", "d2", "--n", "6", "--cert", str(tmp_path / "c.jsonl")
    )
    assert result.returncode == 0
    assert "PASS: bimodule d^2 = mu.delta at n=6" in result.stdout
    assert "2/2 cases pass" in result.stdout


@pytest.mark.parametrize("factor", ("x1", -1))
def test_verify_d2_fails_on_a_perturbed_entry(tmp_path, monkeypatch, capsys, factor):
    # d^2 = mu.delta is the one exact d^2 case: one entry of F times x_1 (an
    # inhomogeneous d^2) or times -1 (d^2 nonzero at delta = 0) must fail it
    build_F = complexes.build_F

    def perturbed(n, backend="sign"):
        f = build_F(n, backend)
        if backend == "bimodule":
            key = min(f.diff)
            by = RingElement.x(n, 1) if factor == "x1" else factor
            f.diff[key] = f.diff[key].scale(by)
        return f

    monkeypatch.setattr(complexes, "build_F", perturbed)
    cert = tmp_path / "c.jsonl"
    assert cli.main(["verify", "--suite", "d2", "--n", "3", "--cert", str(cert)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL: ValueError: ") and "PASS" not in out
    assert json.loads(cert.read_text())["verdict"].startswith("fail: ValueError")


def test_build_f_bimodule_cap(tmp_path):
    result = run_cli(
        "build-f", "--n", "7", "--backend", "bimodule", "--out", str(tmp_path / "x.json")
    )
    assert result.returncode == 2
    assert "capped at n <= 6" in result.stderr


def test_verify_ge_props(tmp_path):
    result = run_cli(
        "verify", "--suite", "ge-props", "--n", "2", "--count", "15",
        "--cert", str(tmp_path / "c.jsonl"),
    )
    assert result.returncode == 0
    assert "5/5 cases pass" in result.stdout


def test_deterministic_output(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("build-f", "--n", "3", "--out", str(a))
    run_cli("build-f", "--n", "3", "--out", str(b))
    assert a.read_text() == b.read_text()
    r1 = run_cli("verify", "--suite", "ge-props", "--n", "2", "--count", "10",
                 "--cert", str(tmp_path / "c1.jsonl"))
    r2 = run_cli("verify", "--suite", "ge-props", "--n", "2", "--count", "10",
                 "--cert", str(tmp_path / "c2.jsonl"))
    assert r1.stdout == r2.stdout


def test_verify_phi_n2_refuses_other_n(tmp_path):
    cert = tmp_path / "c.jsonl"
    result = run_cli("verify", "--suite", "phi-n2", "--n", "3", "--cert", str(cert))
    assert result.returncode == 1
    assert result.stdout == "FAIL: ValueError: phi-n2 checks n = 2 only, got n=3\n"
    record = json.loads(cert.read_text())
    assert record["n"] == 3 and record["verdict"].startswith("fail: ValueError")
    result = run_cli("verify", "--suite", "phi-n2", "--n", "2", "--cert", str(cert))
    assert result.returncode == 0
    assert result.stdout.endswith("suite phi-n2: 4/4 cases pass\n")


def test_verify_phi_n2_defaults_to_n2(tmp_path):
    cert = tmp_path / "c.jsonl"
    result = run_cli("verify", "--suite", "phi-n2", "--cert", str(cert))
    assert result.returncode == 0
    assert result.stdout.endswith("suite phi-n2: 4/4 cases pass\n")
    assert json.loads(cert.read_text())["n"] == 2
    # the other suites keep n = 3
    result = run_cli("verify", "--suite", "descent", "--cert", str(cert))
    assert result.returncode == 0
    assert json.loads(cert.read_text().splitlines()[1])["n"] == 3


def test_verify_suites_match_table_and_readme():
    # the --suite choices of the parser, the SUITES table and the README list
    # of suites are one list
    help_text = run_cli("verify", "--help").stdout
    choices = re.search(r"--suite \{([^}]*)\}", help_text).group(1).split(",")
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if "# suites:" in line)
    listed = [lines[start].split("# suites:")[1]]
    for line in lines[start + 1:]:
        if not line.lstrip().startswith("#"):
            break
        listed.append(line.lstrip()[1:])
    readme = [name.strip() for name in ",".join(listed).split(",") if name.strip()]
    assert choices == list(cli.SUITES) == readme


@pytest.mark.parametrize(
    "args, reason",
    (
        (("--suite", "tensorbi", "--n", "0"), "n must be at least 2"),
        (("--suite", "crossover", "--n", "0"), "n must be at least 2"),
        (("--suite", "descent", "--n", "0"), "n must be at least 2"),
        (("--suite", "descent", "--n", "1"), "n must be at least 2"),
        (("--suite", "ge-props", "--count", "0"), "count must be at least 2, got 0"),
        (("--suite", "ge-props", "--count", "1"), "count must be at least 2, got 1"),
        (("--suite", "d2", "--n", "1"), "n must be at least 2"),
        (("--suite", "phi-n2", "--n", "3"), "phi-n2 checks n = 2 only, got n=3"),
    ),
)
def test_verify_refuses_inputs_that_check_nothing(tmp_path, capsys, args, reason):
    cert = tmp_path / "c.jsonl"
    assert cli.main(["verify", *args, "--cert", str(cert)]) == 1
    # a refused input prints its FAIL line, naming it a ValueError, and no traceback
    assert capsys.readouterr() == (f"FAIL: ValueError: {reason}\n", "")
    assert json.loads(cert.read_text())["verdict"] == f"fail: ValueError: {reason}"


def test_verify_exception_is_a_verdict(tmp_path):
    cert = tmp_path / "c.jsonl"
    result = run_cli("verify", "--suite", "wakimoto", "--n", "0", "--cert", str(cert))
    assert result.returncode == 1
    assert result.stdout == "FAIL: ValueError: n must be at least 2\n"
    assert result.stderr == ""
    record = json.loads(cert.read_text())
    assert record["verdict"] == "fail: ValueError: n must be at least 2"


def test_verify_fault_keeps_its_traceback(tmp_path, monkeypatch, capsys):
    def broken(n, args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.SUITES, "descent", (3, broken))
    cert = tmp_path / "c.jsonl"
    assert cli.main(["verify", "--suite", "descent", "--cert", str(cert)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "FAIL: RuntimeError: boom\n"
    assert captured.err.startswith("Traceback (most recent call last):")
    assert captured.err.endswith("RuntimeError: boom\n")
    assert json.loads(cert.read_text())["verdict"] == "fail: RuntimeError: boom"


def test_verify_internal_value_error_keeps_its_traceback(tmp_path, monkeypatch, capsys):
    # a ValueError raised by an internal check is a fault, not a refused input
    def broken(n, args):
        raise ValueError("composition mismatch")

    monkeypatch.setitem(cli.SUITES, "descent", (3, broken))
    cert = tmp_path / "c.jsonl"
    assert cli.main(["verify", "--suite", "descent", "--cert", str(cert)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "FAIL: ValueError: composition mismatch\n"
    assert captured.err.startswith("Traceback (most recent call last):")
    assert captured.err.endswith("ValueError: composition mismatch\n")
    assert json.loads(cert.read_text())["verdict"] == "fail: ValueError: composition mismatch"


def test_hecke_refuses_terms_written_together():
    # "v-1" and "w-" are terms, so "v-10" and "w-b1" would be a product with
    # no space; they are refused, as they were before "-" split terms
    for expr, tok in (("v-10", "0"), ("w-b1", "b1"), ("v-1v", "v")):
        result = run_cli("hecke", "--n", "2", f"--expr={expr}")
        assert result.returncode == 2
        assert result.stdout == ""
        assert f"no space or operator before {tok!r}" in result.stderr


def test_check_file_fault_keeps_its_traceback(tmp_path):
    # a file without summands fails inside from_json with a KeyError, which
    # is not a refused input: its traceback stays
    bare = tmp_path / "bare.json"
    bare.write_text('{"n": 3, "backend": "sign"}')
    result = run_cli("check-file", str(bare))
    assert result.returncode == 1
    assert result.stdout == "FAIL: KeyError: 'summands'\n"
    assert "Traceback (most recent call last):" in result.stderr


def test_check_file_requires_every_diagonal(tmp_path):
    out = tmp_path / "f3.json"
    assert run_cli("build-f", "--n", "3", "--out", str(out)).returncode == 0
    result = run_cli("check-file", str(out))
    assert result.returncode == 0
    assert result.stdout == "sign-level d^2 on the loaded data: PASS\n"
    data = json.loads(out.read_text())
    data["diff"] = []
    out.write_text(json.dumps(data))
    result = run_cli("check-file", str(out))
    assert result.returncode == 1
    assert result.stdout == "sign-level d^2 on the loaded data: FAIL\n"


def test_check_file_compares_bimodule_mu_with_monodromy_map(tmp_path):
    # an emptied differential has d^2 = 0, so mu = 0 misses every identity
    # B_X(k) -> B_X(k + 2) of monodromy_map
    out = tmp_path / "f3.json"
    assert run_cli("build-f", "--n", "3", "--backend", "bimodule", "--out", str(out)).returncode == 0
    data = json.loads(out.read_text())
    data["diff"] = []
    out.write_text(json.dumps(data))
    result = run_cli("check-file", str(out))
    assert result.returncode == 1
    assert result.stdout == "FAIL: mu differs from monodromy_map (0 mu entries)\n"


def test_check_file_truncated_is_a_verdict(tmp_path):
    for backend in ("sign", "bimodule"):
        out = tmp_path / f"f3_{backend}.json"
        assert run_cli("build-f", "--n", "3", "--backend", backend, "--out", str(out)).returncode == 0
        text = out.read_text()
        out.write_text(text[: len(text) // 2])
        result = run_cli("check-file", str(out))
        assert result.returncode == 1
        assert result.stdout.startswith("FAIL: JSONDecodeError: "), result.stdout
        assert result.stdout.count("\n") == 1
        assert result.stderr == ""


def test_check_file_exponent_out_of_range_is_a_verdict(tmp_path):
    out = tmp_path / "f2_bimodule.json"
    assert run_cli("build-f", "--n", "2", "--backend", "bimodule", "--out", str(out)).returncode == 0
    data = json.loads(out.read_text())
    data["diff"][0]["morphism"]["matrix"][0][0] = "x1^40000"
    out.write_text(json.dumps(data))
    result = run_cli("check-file", str(out))
    assert result.returncode == 1
    assert result.stdout == (
        "FAIL: ValueError: exponent 40000 of monomial (40000, 0, 0) is outside "
        f"0..{EXPONENT_LIMIT - 1}\n"
    )
    assert result.stderr == ""


def test_check_file_dangling_summand_is_a_verdict(tmp_path):
    for backend in ("sign", "bimodule"):
        out = tmp_path / f"f3_{backend}.json"
        assert run_cli("build-f", "--n", "3", "--backend", backend, "--out", str(out)).returncode == 0
        data = json.loads(out.read_text())
        ids = {s["id"] for s in data["summands"]}
        entry = data["diff"][0]
        entry["to"] = max(ids) + 1
        out.write_text(json.dumps(data))
        result = run_cli("check-file", str(out))
        assert result.returncode == 1
        assert result.stdout == (
            f"FAIL: ValueError: differential entry {entry['from']}->{entry['to']} "
            "names no summand\n"
        )
        assert result.stderr == ""


@pytest.fixture(scope="module")
def f3_files(tmp_path_factory):
    """The sign and bimodule serializations of F_3, by backend."""
    out = {}
    for backend in ("sign", "bimodule"):
        path = tmp_path_factory.mktemp(backend) / "f3.json"
        assert run_cli("build-f", "--n", "3", "--backend", backend, "--out", str(path)).returncode == 0
        out[backend] = json.loads(path.read_text())
    return out


def cut_to_one_summand(data):
    return dict(data, summands=data["summands"][:1], diff=[])


def without_backend(data):
    return {k: v for k, v in data.items() if k != "backend"}


def shifted_summand(data):
    summands = [dict(s) for s in data["summands"]]
    summands[0]["shift"] += 2
    return dict(data, summands=summands)


def large_n(data):
    # F_40 would have 40 * 2^39 summands: the count fails before P_40 is
    # enumerated
    return dict(data, n=40)


def n_as_text(data):
    return dict(data, n="3")


def n_of_one(data):
    return dict(data, n=1)


def matrix_file(data):
    # a one-summand complex over Q[d] has d^2 = 0 and no diagonal, so the
    # sign-level criterion alone would pass it
    summand = {"id": 0, "label": 1, "shift": 0, "degree": 0}
    return {"n": 3, "backend": "matrix", "summands": [summand], "diff": []}


# each tampered F_3 file and the one line check-file prints for it
TAMPERED = (
    ("sign", cut_to_one_summand, "FAIL: summands differ from F_3 (1 loaded, 12 expected)"),
    ("bimodule", cut_to_one_summand, "FAIL: summands differ from F_3 (1 loaded, 12 expected)"),
    ("sign", shifted_summand, "FAIL: summands differ from F_3 (12 loaded, 12 expected)"),
    ("bimodule", large_n, "FAIL: summands differ from F_40 (12 loaded, 21990232555520 expected)"),
    ("sign", matrix_file, "FAIL: check-file reads sign and bimodule files, not backend 'matrix'"),
    ("bimodule", without_backend, 'FAIL: missing field "backend"'),
    ("sign", n_as_text, "FAIL: n must be an int of at least 2"),
    ("bimodule", n_of_one, "FAIL: n must be an int of at least 2"),
)


@pytest.mark.parametrize(
    "backend, tamper, line", TAMPERED, ids=[f"{b}-{t.__name__}" for b, t, _ in TAMPERED]
)
def test_check_file_rejects_tampered_file(tmp_path, f3_files, backend, tamper, line):
    out = tmp_path / "f3.json"
    out.write_text(json.dumps(tamper(f3_files[backend])))
    result = run_cli("check-file", str(out))
    assert result.returncode == 1
    assert result.stdout == line + "\n"


def test_check_file_cells_that_parse_to_zero_are_zero_cells(tmp_path, f3_files):
    # "x1 - x1" and "0*x1" parse to 0: the loaded matrices store no cell for
    # them, and the verdict is the one of the file with "0"
    data = json.loads(json.dumps(f3_files["bimodule"]))
    zeros = 0
    for entry in data["diff"]:
        for row in entry["morphism"]["matrix"]:
            for c, text in enumerate(row):
                if text == "0":
                    row[c] = ("x1 - x1", "0*x1")[zeros % 2]
                    zeros += 1
    assert zeros >= 40
    plain, rewritten = tmp_path / "plain.json", tmp_path / "rewritten.json"
    plain.write_text(json.dumps(f3_files["bimodule"]))
    rewritten.write_text(json.dumps(data))
    expected = run_cli("check-file", str(plain))
    result = run_cli("check-file", str(rewritten))
    assert expected.returncode == 0
    assert (result.returncode, result.stdout) == (expected.returncode, expected.stdout)


def test_check_file_matrix_of_the_wrong_shape_is_a_verdict(tmp_path, f3_files):
    data = json.loads(json.dumps(f3_files["bimodule"]))
    morphism = data["diff"][0]["morphism"]
    morphism["matrix"][0].append("0")
    out = tmp_path / "f3.json"
    out.write_text(json.dumps(data))
    result = run_cli("check-file", str(out))
    assert result.returncode == 1
    src, tgt = tuple(morphism["src"]), tuple(morphism["tgt"])
    assert result.stdout == (
        f"FAIL: ValueError: a morphism {src} -> {tgt} has a "
        f"{2 ** len(tgt)} x {2 ** len(src)} matrix\n"
    )
    assert result.stderr == ""


@pytest.mark.parametrize("n", (20_000, 10**6))
def test_check_file_refuses_a_huge_n_by_its_summand_count(tmp_path, capsys, n):
    # decoding the one entry over n would pack each term in time quadratic
    # in n, and n 2^(n-1) has too many digits for str: the count comes first
    # and is written as n*2^(n-1)
    summands = [
        {"id": 0, "label": [1], "shift": 0, "degree": 0},
        {"id": 1, "label": [], "shift": 3, "degree": 1},
    ]
    morphism = {"src": [1], "tgt": [], "matrix": [["x1 + x2", "0"]]}
    data = {
        "n": n, "backend": "bimodule", "summands": summands,
        "diff": [{"from": 0, "to": 1, "morphism": morphism}],
    }
    out = tmp_path / "huge.json"
    out.write_text(json.dumps(data))
    start = time.perf_counter()
    assert cli.main(["check-file", str(out)]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == (
        f"FAIL: summands differ from F_{n} (2 loaded, {n}*2^{n - 1} expected)\n"
    )
