import json
import os

import pytest

from propcalc.cli import run

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_normalize_prints_normal_form(capsys):
    assert run(["normalize", "delta ; mu(1/2)"]) == 0
    assert capsys.readouterr().out.strip() == "surj n=1 m=1 : 1/1"


def test_eval_diagonal_anchor(capsys):
    assert run(["eval", "--d", "1", "--term", "delta", "--point", "1/4"]) == 0
    assert capsys.readouterr().out.strip() == "(0), (1/2)"


def test_parse_and_export(capsys):
    assert run(["parse", "delta ; (eps | id)"]) == 0
    out = capsys.readouterr().out
    assert "(1,1)" in out
    assert run(["export", "delta", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["inputs"] == 1 and doc["outputs"] == 2
    assert run(["export", "delta", "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_compose(capsys):
    assert run(["compose", "delta", "delta | id"]) == 0
    assert capsys.readouterr().out.strip() == "surj n=1 m=3 : 1/1 2/1 3/1"


def test_act(capsys):
    assert run(["act", "--term", "delta", "--face", "0,1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "[0] (x) [0,1] + [0,1] (x) [1]"


def test_sq_on_projective_plane(capsys):
    rc = run(["sq", "--k", "1",
              "--complex", os.path.join(DATA, "rp2.sc"),
              "--cocycle", os.path.join(DATA, "rp2_h1.cc")])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out and out != "0"
    # the printed cochain is a nonzero two-cocycle
    from propcalc.complexes import (cochain_from_text, is_coboundary,
                                    is_cocycle, rp2)
    result = cochain_from_text(out)
    K = rp2()
    assert is_cocycle(K, result) and not is_coboundary(K, result)


def test_cup_files(capsys):
    rc = run(["cup", "--i", "1",
              "--complex", os.path.join(DATA, "rp2.sc"),
              "--a", os.path.join(DATA, "rp2_h1.cc"),
              "--b", os.path.join(DATA, "rp2_h1.cc")])
    assert rc == 0


def test_surface_text_and_json(capsys):
    assert run(["surface", "delta"]) == 0
    out = capsys.readouterr().out
    assert "genus 0" in out and "boundary circles 3" in out
    assert run(["surface", "delta", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["genus"] == 0 and doc["boundary"] == 3


def test_parse_error_exit_code(capsys):
    assert run(["normalize", "delta ; (mu(1/2) | id)"]) == 1
    assert run(["parse", "frobenius"]) == 1
    assert run(["normalize", "mu(3/2)"]) == 1


def test_verify_subcommand(capsys):
    assert run(["verify", "--only", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "criterion 2 PASS" in out


def test_verify_reproducible(capsys):
    run(["verify", "--only", "2", "--seed", "9"])
    first = capsys.readouterr().out
    run(["verify", "--only", "2", "--seed", "9"])
    second = capsys.readouterr().out
    assert _strip_times(first) == _strip_times(second)


def _strip_times(text):
    import re
    return re.sub(r"\[\s*[\d.]+s\]", "[]", re.sub(r", [\d.]+s,", ",", text))


def test_normalize_idempotent_under_reparsing(capsys):
    run(["normalize", "delta ; (delta | id)"])
    out1 = capsys.readouterr().out.strip()
    assert out1 == "surj n=1 m=3 : 1/1 2/1 3/1"


# --- bad input ends at exit code 1 --------------------------------------------

@pytest.mark.parametrize("face", ["", ",", "0,a", "-1,2", "2,0,0", "0,0,1", "1,0"],
                         ids=["empty", "comma", "non-integer", "negative",
                              "unsorted-repeated", "repeated", "unsorted"])
def test_act_rejects_bad_faces(capsys, face):
    assert run(["act", "--term", "delta", "--face=" + face]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _sq(cocycle, complex_=os.path.join(DATA, "rp2.sc")):
    return run(["sq", "--k", "0", "--complex", complex_, "--cocycle", cocycle])


def test_missing_files_exit_1(capsys, tmp_path):
    missing = str(tmp_path / "missing.cc")
    assert _sq(missing) == 1
    assert _sq(os.path.join(DATA, "rp2_h1.cc"), complex_=missing) == 1
    assert run(["cup", "--i", "1", "--complex", os.path.join(DATA, "rp2.sc"),
                "--a", os.path.join(DATA, "rp2_h1.cc"), "--b", missing]) == 1
    assert _sq(str(tmp_path)) == 1  # a directory cannot be read
    assert "error: cannot read" in capsys.readouterr().err


def test_non_integer_tokens_in_files_exit_1(capsys, tmp_path):
    bad_cc = tmp_path / "bad.cc"
    bad_cc.write_text("1 2\n2 x\n")
    assert _sq(str(bad_cc)) == 1
    bad_sc = tmp_path / "bad.sc"
    bad_sc.write_text("1 2 3\n1 q 4\n")
    assert _sq(os.path.join(DATA, "rp2_h1.cc"), complex_=str(bad_sc)) == 1
    assert capsys.readouterr().err.count("must be integers") == 2


def test_cochain_face_outside_the_complex_exit_1(capsys, tmp_path):
    stray = tmp_path / "stray.cc"
    stray.write_text("1 9\n")
    assert _sq(str(stray)) == 1
    assert "1 9 is not a simplex" in capsys.readouterr().err
    assert run(["cup", "--i", "0", "--complex", os.path.join(DATA, "rp2.sc"),
                "--a", os.path.join(DATA, "rp2_h1.cc"), "--b", str(stray)]) == 1


@pytest.mark.parametrize("text", ["sigma[]", "sigma[,]", "sigma[1,]",
                                  "(" * 2000 + "id" + ")" * 2000],
                         ids=["empty-list", "comma", "trailing-comma", "deep-nesting"])
def test_malformed_terms_exit_1(capsys, text):
    assert run(["parse", text]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("only", ["a", "12", "0", "2,x", "2,10"])
def test_verify_rejects_unknown_criteria(capsys, only):
    assert run(["verify", "--only", only]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""  # no suite ran
