"""End-to-end CLI behavior: subcommands, exit codes, and file round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pifam.cli
from pifam import CertificateError
from pifam.cli import main
from pifam.construct import MAX_BLOCKS
from pifam.setsys import MAX_EVENTS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gmax_prime(capsys):
    code, out, _ = run(capsys, "gmax", "--n", "3")
    assert code == 0
    assert "g(3) = 2" in out
    assert "f(3) = 3" in out


def test_gmax_json_schema(capsys):
    code, out, _ = run(capsys, "gmax", "--n", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"n", "g", "f", "optimal", "method", "nodes_explored", "witness"}
    assert payload["g"] == 4 and payload["f"] == 5 and payload["optimal"]
    assert sorted(payload["witness"]) == ["events", "n"]
    assert [1, 2, 3, 4] in payload["witness"]["events"]


def test_gmax_search_method(capsys):
    code, out, _ = run(capsys, "gmax", "--n", "9", "--method", "search", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["g"] == 8
    assert payload["method"] == "search-exhaustive"


def test_gmax_squarefree_by_the_size_bound(capsys):
    code, out, _ = run(capsys, "gmax", "--n", "30", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["g"], payload["f"], payload["optimal"]) == (4, 5, True)
    assert payload["method"] == "construction-plus-size-bound"
    assert payload["witness"]["events"][0] == list(range(2, 31, 2))


def test_gmax_capacity_exit(capsys):
    code, _, err = run(capsys, "gmax", "--n", "18")
    assert code == 2
    assert "error:" in err


def test_gmax_flag_errors(capsys):
    assert run(capsys, "gmax")[0] == 1
    assert run(capsys, "gmax", "--n", "four")[0] == 1
    assert run(capsys, "gmax", "--n", "4", "--method", "magic")[0] == 1
    assert run(capsys, "nonsense")[0] == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_hadamard_text_file(tmp_path, capsys):
    out_file = tmp_path / "h8.txt"
    code, _, _ = run(capsys, "hadamard", "--order", "8", "--method", "sylvester",
                     "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 8 and all(len(line) == 8 for line in lines)
    assert set("".join(lines)) == {"+", "-"}


def test_hadamard_unsupported_order(capsys):
    code, _, err = run(capsys, "hadamard", "--order", "6")
    assert code == 2
    assert "supported orders" in err


@pytest.mark.parametrize("order", ["0", "-4"])
def test_hadamard_order_below_one_exits_one(capsys, order):
    code, out, err = run(capsys, "hadamard", "--order", order)
    assert (code, out) == (1, "")
    assert err == f"error: Hadamard order must be at least 1, got {order}\n"


def test_hadamard_paley_stdout(capsys):
    code, out, _ = run(capsys, "hadamard", "--order", "12", "--method", "paley")
    assert code == 0
    assert len(out.strip().splitlines()) == 12


def test_design_pipeline_round_trip(tmp_path, capsys):
    design_file = tmp_path / "d8.json"
    code, _, _ = run(capsys, "design", "from-hadamard", "--order", "8",
                     "--out", str(design_file))
    assert code == 0
    data = json.loads(design_file.read_text())
    assert (data["v"], data["k"], data["lambda"]) == (7, 3, 1)

    code, out, _ = run(capsys, "design", "check", str(design_file))
    assert code == 0
    assert "PASS" in out
    assert "symmetric (b = v): yes" in out


def test_design_check_catches_corruption(tmp_path, capsys):
    design_file = tmp_path / "bad.json"
    design_file.write_text(json.dumps(
        {"v": 3, "k": 2, "lambda": 1, "blocks": [[1, 2], [1, 3]]}
    ))
    code, out, _ = run(capsys, "design", "check", str(design_file))
    assert code == 1
    assert "FAIL" in out and "pair {2,3}" in out


def test_design_check_reports_unequal_block_meets(tmp_path, capsys):
    # sizes and the pair {1,2} pass, but the two blocks meet in a point
    design_file = tmp_path / "meets.json"
    design_file.write_text(json.dumps({"v": 2, "k": 1, "lambda": 0, "blocks": [[1], [1]]}))
    code, out, _ = run(capsys, "design", "check", str(design_file))
    assert code == 1
    assert out.splitlines()[-2:] == [
        "pairwise block intersections: NOT all equal lambda",
        "FAIL: blocks 1 and 2 meet in 1 points, expected lambda=0",
    ]


def test_design_check_malformed_json(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "design", "check", str(bad))
    assert code == 1
    assert "error:" in err


def test_design_missing_file(capsys):
    code, _, err = run(capsys, "design", "check", "no-such-file.json")
    assert code == 1


def test_projective_plane_command(tmp_path, capsys):
    plane_file = tmp_path / "pg2.json"
    code, _, _ = run(capsys, "design", "projective-plane", "--q", "2",
                     "--out", str(plane_file))
    assert code == 0
    data = json.loads(plane_file.read_text())
    assert data["v"] == 7 and len(data["blocks"]) == 7
    assert run(capsys, "design", "check", str(plane_file))[0] == 0
    assert run(capsys, "design", "projective-plane", "--q", "4")[0] == 1
    assert run(capsys, "design", "projective-plane", "--q", "11")[0] == 2


def test_family_pipeline_from_design(tmp_path, capsys):
    plane_file = tmp_path / "fano.json"
    run(capsys, "design", "projective-plane", "--q", "2", "--out", str(plane_file))

    family_file = tmp_path / "g9.json"
    code, out, _ = run(capsys, "family", "from-design", str(plane_file),
                       "--out", str(family_file))
    assert code == 0
    assert "n = r^2/lambda = 9" in out
    data = json.loads(family_file.read_text())
    assert data["n"] == 9 and len(data["events"]) == 8

    code, out, _ = run(capsys, "family", "verify", str(family_file))
    assert code == 0
    assert "PASS" in out

    code, out, _ = run(capsys, "family", "gram", str(family_file))
    assert code == 0
    report = json.loads(out)
    assert report == {"gram_ok": True, "rank": 8, "t": 8, "n": 9,
                      "full_column_rank": True}


def test_family_from_design_hypothesis_failure(tmp_path, capsys):
    design_file = tmp_path / "bad-params.json"
    design_file.write_text(json.dumps({
        "v": 4, "k": 3, "lambda": 2,
        "blocks": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]],
    }))
    code, _, err = run(capsys, "family", "from-design", str(design_file))
    assert code == 1
    assert "r^2/lambda = 3^2/2" in err


@pytest.mark.parametrize("data", [
    {"v": 3, "k": 3, "lambda": 2, "blocks": [[1, 2, 3], [1, 2, 3]]},
    {"v": 2, "k": 2, "lambda": 1, "blocks": [[1, 2]]},
])
def test_family_from_design_refuses_a_trivial_design(tmp_path, capsys, data):
    design_file = tmp_path / "trivial.json"
    design_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "family", "from-design", str(design_file))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "2 <= k < v" in err


def test_family_from_hadamard_and_matrix_import(tmp_path, capsys):
    matrix_file = tmp_path / "h12.txt"
    run(capsys, "hadamard", "--order", "12", "--out", str(matrix_file))

    family_file = tmp_path / "f12.json"
    code, _, _ = run(capsys, "family", "from-hadamard", "--matrix", str(matrix_file),
                     "--out", str(family_file))
    assert code == 0
    data = json.loads(family_file.read_text())
    assert data["n"] == 12 and len(data["events"]) == 12
    assert run(capsys, "family", "verify", str(family_file))[0] == 0


def test_matrix_json_import(tmp_path, capsys):
    matrix_file = tmp_path / "h8.json"
    code, _, _ = run(capsys, "hadamard", "--order", "8", "--format", "json",
                     "--out", str(matrix_file))
    assert code == 0
    code, out, _ = run(capsys, "design", "from-hadamard", "--matrix", str(matrix_file))
    assert code == 0
    assert json.loads(out)["v"] == 7


def test_corrupt_matrix_import(tmp_path, capsys):
    matrix_file = tmp_path / "h.txt"
    matrix_file.write_text("++\n+(\n")
    code, _, err = run(capsys, "family", "from-hadamard", "--matrix", str(matrix_file))
    assert code == 1
    json_file = tmp_path / "h.json"  # read like design and family files, name in the error
    json_file.write_text("[[1, 1], [1,")
    code, _, err = run(capsys, "family", "from-hadamard", "--matrix", str(json_file))
    assert code == 1
    assert err.startswith(f"error: {json_file} is not valid JSON: ")
    for content in b"[\xff]", b"+\xff":  # not UTF-8, as JSON or as matrix text
        matrix_file.write_bytes(content)
        code, out, err = run(capsys, "family", "from-hadamard", "--matrix", str(matrix_file))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {matrix_file} ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["family", "verify"],
    ["family", "gram"],
    ["family", "from-design"],
    ["design", "check"],
    ["family", "from-hadamard", "--matrix"],
], ids="-".join)
def test_deeply_nested_json_is_an_input_error(tmp_path, capsys, argv):
    # json's decoder recurses per level and raises RecursionError, not a decode
    # error; an integer past 4300 digits and undecodable bytes raise ValueErrors
    bad = {"deep.json": b"[" * 100_000 + b"]" * 100_000, "digits.json": b"[" + b"9" * 5000 + b"]"}
    if argv[-1] != "--matrix":  # a matrix file is decoded before its JSON check
        bad["latin1.json"] = b"\xff"
    for name, content in bad.items():
        path = tmp_path / name
        path.write_bytes(content)
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path} is not valid JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, code", [
    (["hadamard", "--order"], 2),
    (["johnson", "--r", "3", "--s", "1", "--n"], 2),
    (["conjecture", "--max"], 1),
    (["design", "projective-plane", "--q"], 2),
], ids=["order", "johnson-n", "sweep-max", "plane-q"])
def test_a_huge_command_line_value_is_quoted_in_one_short_line(capsys, argv, code):
    got, out, err = run(capsys, *argv, "9" * 4000)
    assert (got, out) == (code, "")
    assert err.count("\n") == 1 and len(err.encode()) <= 200


@pytest.mark.parametrize("argv, data", [
    (["family", "verify"], {"n": 4, "events": [[1] * 100_000]}),
    (["design", "check"], {"v": 7, "k": 3, "lambda": 1, "blocks": [[1] * 100_000]}),
    (["family", "gram"], {"n": 4, "events": [["x" * 100_000]]}),
    (["family", "from-hadamard", "--matrix"], [["x" * 100_000]]),
    (["family", "verify"], b"[" + b"9" * 5000 + b"]"),  # past Python's int digit limit
], ids=["repeated-point", "repeated-block-point", "long-point", "long-entry", "long-integer"])
def test_a_bad_value_is_quoted_in_one_short_line(tmp_path, monkeypatch, capsys, argv, data):
    monkeypatch.chdir(tmp_path)
    path = Path("b" * 55 + ".json")  # a 60-character path, quoted in a file error
    path.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and len(err.encode()) <= 200


def test_family_verify_names_failing_pairs(tmp_path, capsys):
    family_file = tmp_path / "bad-family.json"
    family_file.write_text(json.dumps({"n": 2, "events": [[1], [2]]}))
    code, out, _ = run(capsys, "family", "verify", str(family_file))
    assert code == 1
    assert "FAIL" in out
    assert "{1} vs {2}" in out


def test_family_verify_flags_empty_event(tmp_path, capsys):
    family_file = tmp_path / "empty-event.json"
    family_file.write_text(json.dumps({"n": 2, "events": [[], [1, 2]]}))
    code, out, _ = run(capsys, "family", "verify", str(family_file))
    assert code == 1
    assert "empty" in out


def test_certificate_failure_exits_one(monkeypatch, capsys):
    def broken(n, method):
        raise CertificateError("witness fails adjacency: 1 vs 2")

    monkeypatch.setattr(pifam.search, "g_exact", broken)
    code, out, err = run(capsys, "gmax", "--n", "4")
    assert code == 1 and out == ""
    assert err == "error: witness fails adjacency: 1 vs 2\n"


def test_out_of_memory_exits_two(monkeypatch, capsys):
    def exhausted(n, r, s):
        raise MemoryError

    monkeypatch.setattr(pifam.search, "johnson_omega", exhausted)
    code, out, err = run(capsys, "johnson", "--n", "30", "--r", "6", "--s", "1")
    assert code == 2 and out == ""
    assert err == "error: out of memory\n"


def test_family_gram_rejects_empty_event(tmp_path, capsys):
    family_file = tmp_path / "empty-event.json"
    family_file.write_text(json.dumps({"n": 2, "events": [[], [1, 2]]}))
    code, _, err = run(capsys, "family", "gram", str(family_file))
    assert code == 1
    assert "nonempty" in err


def test_johnson_command(capsys):
    code, out, _ = run(capsys, "johnson", "--n", "4", "--r", "2", "--s", "1")
    assert code == 0
    assert "omega(4,2,1) = 3" in out
    assert "f(4) >= 5" in out

    code, out, _ = run(capsys, "johnson", "--n", "8", "--r", "4", "--s", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 7 and payload["f_lower_bound"] == 9
    assert set(payload) == {"n", "r", "s", "f_lower_bound", "size", "optimal",
                            "witness", "nodes_explored", "method"}


def test_johnson_no_bound_without_hypothesis(capsys):
    code, out, _ = run(capsys, "johnson", "--n", "6", "--r", "3", "--s", "1")
    assert code == 0
    assert "omega(6,3,1) = 4" in out
    assert "implies" not in out


def test_johnson_errors(capsys):
    assert run(capsys, "johnson", "--n", "4", "--r", "4", "--s", "1")[0] == 1
    assert run(capsys, "johnson", "--n", "60", "--r", "30", "--s", "15")[0] == 2


def test_johnson_size_limit_exits_two_without_the_full_count(capsys):
    # C(20000, 10000) has over 6000 digits, past Python's int-to-str limit
    code, _, err = run(capsys, "johnson", "--n", "20000", "--r", "10000", "--s", "1")
    assert code == 2
    assert err == "error: C(20000,10000) vertices exceed the 1048576 limit\n"


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_one_without_a_message(unbuffered):
    # a reader that is gone before the first write, as `| head -1` can be;
    # buffered stdout fails at the flush, unbuffered at the first print,
    # except that argparse itself drops a failed unbuffered --help write
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
           "PYTHONPATH": str(Path(pifam.cli.__file__).resolve().parents[1])}
    help_code = 0 if unbuffered else 1
    for argv, code in ((["johnson", "--n", "9", "--r", "3", "--s", "1"], 1),
                       (["--help"], help_code), (["gmax", "--help"], help_code)):
        proc = subprocess.Popen([sys.executable, "-m", "pifam.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (argv, proc.returncode, err) == (argv, code, b"")


def test_conjecture_table(capsys):
    code, out, _ = run(capsys, "conjecture", "--max", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # header + three rows
    assert all("HOLDS" in line for line in lines[1:])

    code, out, _ = run(capsys, "conjecture", "--max", "64")
    assert code == 0
    assert "OPEN" in out


def test_written_families_reload_identically(tmp_path, capsys):
    # round-trip: what the CLI writes, the CLI reads back without loss
    first = tmp_path / "a.json"
    run(capsys, "family", "from-hadamard", "--order", "8", "--out", str(first))
    reloaded = json.loads(first.read_text())
    code, out, _ = run(capsys, "family", "gram", str(first))
    assert code == 0
    assert json.loads(out)["t"] == len(reloaded["events"])


def test_oversized_matrix_file_exits_two(tmp_path, capsys):
    # 65 rows are refused by count, before the orthogonality check
    text_file = tmp_path / "h65.txt"
    text_file.write_text(("+" * 65 + "\n") * 65)
    json_file = tmp_path / "h65.json"
    json_file.write_text(json.dumps([[1] * 65] * 65))
    for path in (text_file, json_file):
        code, _, err = run(capsys, "design", "from-hadamard", "--matrix", str(path))
        assert code == 2
        assert "64 rows" in err


def test_non_integer_matrix_entries_exit_one(tmp_path, capsys):
    # JSON 1.0 and true compare equal to 1 but are not +1/-1 integers
    sylvester4 = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    floats = tmp_path / "h4.json"
    floats.write_text(json.dumps([[float(x) for x in row] for row in sylvester4]))
    boolean = tmp_path / "h1.json"
    boolean.write_text("[[true]]")
    for path, entry in ((floats, "1.0"), (boolean, "True")):
        code, out, err = run(capsys, "design", "from-hadamard", "--matrix", str(path))
        assert code == 1 and out == ""
        assert err == f"error: entry {entry} is not +1 or -1\n"


def test_oversized_design_file_exits_two(tmp_path, capsys):
    design_file = tmp_path / "d64.json"
    design_file.write_text(json.dumps({"v": 64, "k": 2, "lambda": 1, "blocks": [[1, 64]]}))
    code, _, err = run(capsys, "design", "check", str(design_file))
    assert code == 2
    assert "v=64" in err


def test_oversized_family_file_exits_two(tmp_path, capsys):
    family_file = tmp_path / "f64.json"
    family_file.write_text(json.dumps({"n": 64, "events": [[1, 64]]}))
    code, _, err = run(capsys, "family", "verify", str(family_file))
    assert code == 2
    assert "n=64" in err


def test_oversized_block_list_exits_two(tmp_path, capsys):
    # refused by count before any block is parsed; at the limit the blocks
    # are parsed and the bad point 0 is an input error (exit 1)
    design_file = tmp_path / "many.json"
    design_file.write_text(json.dumps(
        {"v": 7, "k": 3, "lambda": 1, "blocks": [[0]] * (MAX_BLOCKS + 1)}))
    code, _, err = run(capsys, "design", "check", str(design_file))
    assert code == 2
    assert f"{MAX_BLOCKS + 1} blocks" in err
    design_file.write_text(json.dumps(
        {"v": 7, "k": 3, "lambda": 1, "blocks": [[0]] * MAX_BLOCKS}))
    code, _, err = run(capsys, "design", "check", str(design_file))
    assert code == 1


def test_oversized_event_list_exits_two(tmp_path, capsys):
    # refused by count before any event is parsed; at the limit the events
    # are parsed and the bad point 0 is an input error (exit 1)
    family_file = tmp_path / "many.json"
    family_file.write_text(json.dumps({"n": 7, "events": [[0]] * (MAX_EVENTS + 1)}))
    code, _, err = run(capsys, "family", "verify", str(family_file))
    assert code == 2
    assert f"{MAX_EVENTS + 1} events" in err
    family_file.write_text(json.dumps({"n": 7, "events": [[0]] * MAX_EVENTS}))
    code, _, err = run(capsys, "family", "verify", str(family_file))
    assert code == 1
