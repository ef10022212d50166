import json
import os
import random
import subprocess
import sys

import pytest

import splitkit
from splitkit import classify, cli, harness, parse_graph6, write_graph6
from splitkit.cli import main
from splitkit.graphs import ENUM_MAX_ORDER

from graphgen import random_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify


def test_classify_inline_graph6(capsys):
    code, out, err = run_cli(capsys, "classify", "--inline", "Bw")
    assert code == 0 and err == ""
    assert out.startswith("Bw: split=yes balanced=no pseudo_split=yes ng=yes")
    assert "omega=3" in out and "chi=3" in out
    assert "witnesses=[unbalanced=(0,1)]" in out


def test_classify_inline_multiple_lines(capsys):
    code, out, _ = run_cli(capsys, "classify", "--inline", "Bw\nA_")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("Bw:") and lines[1].startswith("A_:")


def test_classify_inline_edge_list(capsys):
    code, out, _ = run_cli(capsys, "classify", "--inline", "4 4\n0 1\n0 2\n1 2\n0 3")
    assert code == 0
    assert out.startswith("edge-list: split=yes balanced=no")


def test_classify_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "--format", "json", "--inline", "Bw")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["input"] == "Bw"
    assert payload[0]["is_split"] is True
    assert payload[0]["ks"] == {"k": [0, 1, 2], "s": []}
    assert payload[0]["witnesses"] == [{"label": "unbalanced", "edge": [0, 1]}]


def test_classify_json_file_matches_json_dumps(tmp_path, capsys):
    rng = random.Random(6021)
    lines = [write_graph6(random_graph(rng, rng.randint(6, 12))) for _ in range(300)]
    path = tmp_path / "graphs.g6"
    path.write_text("\n".join(lines) + "\n")
    payload = [{"input": ln, **classify(parse_graph6(ln)).to_dict()} for ln in lines]
    code, out, _ = run_cli(capsys, "classify", "--format", "json", "--file", str(path))
    assert code == 0
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_classify_empty_input(capsys):
    assert run_cli(capsys, "classify", "--format", "json", "--inline", "\n") == (0, "[]\n", "")
    assert run_cli(capsys, "classify", "--inline", "\n") == (0, "", "")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_classify_error_after_valid_lines_prints_nothing(capsys, fmt):
    # an order-13 graph is past the exact colouring; the lines before it classify
    text = "Bw\nA_\nL" + "?" * 13
    code, out, err = run_cli(capsys, "classify", "--format", fmt, "--inline", text)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_classify_from_file(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_text("A_\n")
    code, out, _ = run_cli(capsys, "classify", "--file", str(path))
    assert code == 0 and out.startswith("A_:")


def test_classify_missing_file(capsys):
    code, _, err = run_cli(capsys, "classify", "--file", "/no/such/file")
    assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "argv", [("classify",), ("verify", "--theorem", "LEMMA1")], ids=["classify", "verify"]
)
def test_file_not_utf8(tmp_path, capsys, argv):
    data = random.Random(2107).randbytes(200)
    with pytest.raises(UnicodeDecodeError):
        data.decode("utf-8")
    path = tmp_path / "noise.bin"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, *argv, "--file", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: line ") and "not UTF-8" in err


@pytest.mark.parametrize(
    "data, line",
    [(b"Bw\nA_\nB\xffw\n", 3), (b"Bw\rA_\rB\xffw\r", 3), (b"Bw\r\nA_\r\nB\xffw\r\n", 3)],
    ids=["lf", "cr", "crlf"],
)
def test_file_not_utf8_names_its_line(tmp_path, capsys, data, line):
    path = tmp_path / "bad.g6"
    path.write_bytes(data)
    for argv in (("classify",), ("verify", "--theorem", "THM_NG")):
        code, out, err = run_cli(capsys, *argv, "--file", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: line {line}: not UTF-8")


@pytest.mark.parametrize(
    "text, line",
    [("A_\x0cA_\n", 1), ("A_\x0cA~\nBw\n", 1), ("Bw\r\nA_\u2028A_\rBw\n", 2)],
)
def test_classify_and_verify_split_lines_alike(tmp_path, capsys, text, line):
    # only \n, \r\n and \r end a line; \f, \u2028 and the like are bytes of it
    path = tmp_path / "corpus.g6"
    path.write_bytes(text.encode())
    errors = []
    for argv in (("classify",), ("verify", "--theorem", "LEMMA1")):
        code, out, err = run_cli(capsys, *argv, "--file", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: line {line}: byte outside graph6 range")
        errors.append(err)
    assert errors[0] == errors[1]


@pytest.mark.parametrize("text", ["!!", "A", "3 9\n0 1"])
def test_classify_bad_input(capsys, text):
    code, _, err = run_cli(capsys, "classify", "--inline", text)
    assert code == 1 and err.startswith("error:")


def test_classify_reports_corpus_line(capsys):
    code, _, err = run_cli(capsys, "classify", "--inline", "Bw\nA")
    assert code == 1 and "line 2" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_single_theorem_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "THM_NG", "--max-n", "5")
    assert code == 0
    assert "THM_NG" in out and "PASS" in out


def test_verify_single_theorem_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "PROP4", "--max-n", "8", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["theorem"] == "PROP4"
    assert payload["graphs_checked"] == 5
    assert payload["verdict"] == "PASS"


def test_verify_all_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "all", "--max-n", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["theorem"] for r in payload] == [
        "PROP1", "PROP2", "PROP3", "PROP4", "PROP5", "LEMMA1", "LEMMA2",
        "THM_SPLIT_FORBIDDEN", "THM_2K2_CLAW", "THM_CONTRACTION",
        "THM_KS_CASES", "THM_UNBALANCED", "THM_PSEUDO", "THM_NG",
    ]
    assert all(r["verdict"] == "PASS" for r in payload)


def test_verify_max_n_over_cap(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--theorem", "PROP1", "--max-n", str(ENUM_MAX_ORDER + 1)
    )
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("theorem", harness.THEOREM_IDS)
def test_verify_at_the_default_order(capsys, theorem):
    # every row sweeps to the default --max-n, whatever its reach in verify_all
    code, out, err = run_cli(capsys, "verify", "--theorem", theorem)
    assert code == 0 and err == ""
    assert out.rstrip().endswith("PASS")


def test_verify_corpus_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "corpus.g6"
    path.write_text("A?\n")  # two isolated vertices
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "THM_UNBALANCED", "--file", str(path)
    )
    assert code == 1
    assert "FAIL" in out
    assert "counterexample A?: unbalanced=True but witness=None" in out


def test_verify_corpus_order_too_large(tmp_path, capsys):
    path = tmp_path / "corpus.g6"
    path.write_text("L" + "?" * 13 + "\n")  # edgeless graph of order 13
    code, _, err = run_cli(
        capsys, "verify", "--theorem", "THM_NG", "--file", str(path)
    )
    assert code == 1 and err.startswith("error:")


def test_verify_missing_file(capsys):
    for theorem in ("LEMMA1", "all"):
        code, _, err = run_cli(
            capsys, "verify", "--theorem", theorem, "--file", "/no/such/file"
        )
        assert code == 1 and err.startswith("error:")


def test_verify_all_parses_the_corpus_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "corpus.g6"
    path.write_text("Bw\nA_\n")
    calls = []

    def counting(parse):
        def wrapper(lines):
            calls.append(1)
            return parse(lines)

        return wrapper

    monkeypatch.setattr(cli, "parse_graph6_lines", counting(cli.parse_graph6_lines))
    code, out, _ = run_cli(capsys, "verify", "--theorem", "all", "--file", str(path))
    assert code == 0 and out.count("PASS") == len(harness.THEOREM_IDS)
    assert len(calls) == 1


def test_verify_corpus_malformed(tmp_path, capsys):
    path = tmp_path / "corpus.g6"
    path.write_text("Bw\nnot-graph6\n")
    code, _, err = run_cli(
        capsys, "verify", "--theorem", "THM_NG", "--file", str(path)
    )
    assert code == 1 and "line 2" in err


def test_verify_jobs_flag_changes_nothing(capsys):
    code1, out1, _ = run_cli(
        capsys, "verify", "--theorem", "LEMMA2", "--max-n", "7",
        "--jobs", "1", "--format", "json",
    )
    code2, out2, _ = run_cli(
        capsys, "verify", "--theorem", "LEMMA2", "--max-n", "7",
        "--jobs", "2", "--format", "json",
    )
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    for d in (a, b):
        for key in ("enumerate_ms", "check_ms", "elapsed_ms"):
            d.pop(key)
    assert a == b


# ---------------------------------------------------------------------------
# census


def test_census_text(capsys):
    code, out, _ = run_cli(capsys, "census", "--max-n", "4")
    assert code == 0
    assert "H1(l=2):1" in out


def test_census_json(capsys):
    code, out, _ = run_cli(capsys, "census", "--max-n", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[3]["connected"] == 6
    assert rows[3]["exceptional"] == {"H1(l=2)": 1}


def test_census_max_n_over_cap(capsys):
    code, _, err = run_cli(capsys, "census", "--max-n", str(ENUM_MAX_ORDER + 1))
    assert code == 2 and err.startswith("error:")


# ---------------------------------------------------------------------------
# argument errors and the installed entry point


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["verify"],  # --theorem is required
        ["verify", "--theorem", "NOPE"],
        ["classify"],  # needs --inline or --file
        ["classify", "--inline", "Bw", "--file", "x"],
        ["classify", "--inline", "Bw", "--jobs", "2"],  # classify takes no --jobs
        ["census", "--max-n", "3", "--jobs", "-5"],
        ["verify", "--theorem", "PROP4", "--max-n", "5", "--jobs", "0"],
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


def test_module_entry_point():
    # the child imports the same splitkit package as this process, from a
    # checkout or an installed copy alike
    home = os.path.dirname(os.path.dirname(splitkit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [home, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "splitkit.cli", "classify", "--inline", "A_"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("A_:")


def test_cli_import_loads_neither_dataclasses_nor_multiprocessing():
    # a classify or --jobs 1 call starts no pool; harness itself stays
    # imported, since tools that wrap it read it from sys.modules
    home = os.path.dirname(os.path.dirname(splitkit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [home, env.get("PYTHONPATH")]))

    def modules_after(statement):
        code = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        return set(proc.stdout.split())

    bare = modules_after("pass")
    loaded = modules_after("import splitkit.cli")
    assert "splitkit.harness" in loaded
    assert not {"dataclasses", "multiprocessing"} & (loaded - bare)
