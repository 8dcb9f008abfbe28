import csv
import hashlib
import io
import json
import time

import pytest

from parahoric import cli
from parahoric.cli import main
from parahoric.padics import CertificationError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_slopes_gsp4_siegel_example(capsys):
    code, out, _ = run(
        capsys, "slopes", "--group", "GSp4", "--Q", "siegel",
        "--weight", "k1=5,k2=2", "--vals", "1",
    )
    assert code == 0
    assert "noncritical" in out
    assert "3" in out  # h_crit = k2 + 1


def test_slopes_readme_named_weight_output_is_pinned(capsys):
    code, out, _ = run(
        capsys, "slopes", "--group", "GSp4", "--Q", "siegel",
        "--weight", "k1=5,k2=2", "--vals", "1",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3c04598de461121c39ac55811c3c286fbedd14e6b0c80588ceff78b00d91186b")


@pytest.mark.parametrize("weight, message", [
    ("k2=2,k1=5", "weight entry k2=2 is entry 1; k<i> names the i-th entry"),
    ("k1=5,k1=2", "weight name k1 repeats"),
    ("k1=5,k9=2", "weight entry k9=2 is entry 2; k<i> names the i-th entry"),
])
def test_slopes_misnamed_weight_is_usage_error(capsys, weight, message):
    """A named entry k<i> is read only as the i-th entry, never by position
    alone."""
    code, out, err = run(
        capsys, "slopes", "--group", "GSp4", "--Q", "siegel",
        "--weight", weight, "--vals", "1",
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_slopes_gl3_borel_json(capsys):
    code, out, _ = run(
        capsys, "slopes", "--group", "GL3", "--Q", "borel",
        "--weight", "2,1,0", "--vals", "0,0", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["noncritical"] is True
    assert [s["h_crit"] for s in payload["steps"]] == [2, 2]
    assert payload["precision"] == "exact"


def test_slopes_failing_verdict_exits_one(capsys):
    code, out, _ = run(
        capsys, "slopes", "--group", "GL2", "--Q", "borel",
        "--weight", "3,0", "--vals", "4",
    )
    assert code == 1
    assert "critical" in out


def test_slopes_missing_vals_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["slopes", "--group", "GL3", "--Q", "borel", "--weight", "2,1,0"])
    assert exc.value.code == 2


def test_slopes_bad_weight_is_usage_error(capsys):
    code, _, err = run(
        capsys, "slopes", "--group", "GL3", "--Q", "borel",
        "--weight", "0,1,0", "--vals", "0,0",
    )
    assert code == 2
    assert "dominant" in err


def test_bgg_check_example(capsys):
    code, out, _ = run(
        capsys, "bgg-check", "--group", "GL2", "--k", "3", "--d", "8",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_kernel"] == 4
    assert payload["pass"] is True


@pytest.mark.parametrize("argv", [
    ("--group", "GL1", "--k", "2", "--d", "2"),
    ("--i", "5", "--k", "2", "--d", "2"),
    ("--group", "GL3", "--i", "-1", "--k", "2", "--d", "2"),
    ("--k", "2", "--d", "-1"),
])
def test_bgg_check_bad_input_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "bgg-check", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("--group", "GL3", "--k", "2", "--weight", "5,1,0", "--d", "3"),
    ("--group", "GL3", "--d", "3"),
])
def test_bgg_check_requires_one_weight_choice(argv):
    """--k and --weight form one required mutually exclusive group: both
    flags, or neither, is a usage error, not a silently dropped --weight."""
    with pytest.raises(SystemExit) as exc:
        main(["bgg-check", *argv])
    assert exc.value.code == 2


def test_lift_ordinary_example(capsys):
    code, out, _ = run(
        capsys, "lift", "--N", "11", "--p", "3", "--k", "0", "--M", "6",
        "--eigenvalue-choice", "ordinary",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert payload["specialization_check"] is True
    ev = payload["eigenvalue"]
    assert (ev["value"] ** 2 + ev["value"] + 3) % 3 ** ev["precision"] == 0
    assert payload["stabilization"]["norm"] == 3  # v(norm) = k + 1


def test_lift_critical_choice_rejected(capsys):
    code, out, _ = run(
        capsys, "lift", "--N", "11", "--p", "3", "--k", "0", "--M", "6",
        "--eigenvalue-choice", "slope:1",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["converged"] is False
    assert "noncritical" in payload["error"]


def test_lift_failure_csv_parses_as_field_value_rows(capsys):
    """A failed lift prints CSV when CSV is asked for, as a converged one does."""
    code, out, _ = run(
        capsys, "lift", "--N", "11", "--p", "3", "--k", "0", "--M", "4",
        "--eigenvalue-choice", "slope:1", "--format", "csv",
    )
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[:2] == [["field", "value"], ["converged", "False"]]
    assert len(rows) == 3 and rows[2][0] == "error" and "noncritical" in rows[2][1]


@pytest.mark.parametrize("N, p, k, message", [
    (8, 3, 2, "folded non-identity triangle"),
    (7, 3, 2, "level 21 has elliptic points"),
    (12, 7, 0, "folded non-identity triangle"),
])
def test_lift_unsupported_level_is_usage_error(capsys, N, p, k, message):
    """A level the solved presentation does not cover is a usage error, as
    for charpoly: exit 2 with empty stdout, found before the eigensymbol
    search, so well within a second."""
    t0 = time.perf_counter()
    code, out, err = run(capsys, "lift", "--N", str(N), "--p", str(p), "--k", str(k),
                         "--M", "6")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_lift_critical_slope_fails_before_the_search(capsys):
    """slope:k+1 fails the noncritical precondition before any eigensymbol
    search: exit 1 with the lift's error payload, well within a second."""
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "lift", "--N", "11", "--p", "3", "--k", "2", "--M", "6",
                       "--eigenvalue-choice", "slope:3")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert json.loads(out) == {
        "converged": False,
        "error": "noncritical-slope precondition failed: v_p(a_p) = 3 >= k + 1 = 3",
    }


def test_lift_env_precision(capsys, monkeypatch):
    monkeypatch.setenv("PARAHORIC_PRECISION", "5")
    code, out, _ = run(capsys, "lift", "--N", "11", "--p", "3", "--k", "0")
    assert code == 0
    assert json.loads(out)["M"] == 5


def test_charpoly_csv_deterministic(capsys):
    args = ("charpoly", "--N", "11", "--p", "3", "--k", "0", "--M", "6",
            "--xdeg", "6")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "record,index,value,precision,certified"
    assert any(line.startswith("slope,") for line in lines)


def test_charpoly_requires_weight_choice():
    with pytest.raises(SystemExit) as exc:
        main(["charpoly", "--N", "11", "--p", "3", "--M", "6"])
    assert exc.value.code == 2


def test_charpoly_family_layers(capsys):
    code, out, _ = run(
        capsys, "charpoly", "--N", "11", "--p", "3", "--disc-center", "0",
        "--M", "5", "--xdeg", "4", "--T", "2",
    )
    assert code == 0
    assert "1.1" in out  # w-layer coefficient rows present


@pytest.mark.parametrize("argv, name", [
    (("--k", "0", "--xdeg", "-3"), "xdeg"),
    (("--k", "0", "--xdeg", "0"), "xdeg"),
    (("--disc-center", "0", "--T", "0"), "T"),
    (("--k", "0", "--M", "0"), "M"),
])
def test_charpoly_nonpositive_size_is_usage_error(capsys, argv, name):
    code, out, err = run(capsys, "charpoly", "--N", "11", "--p", "3", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {name} must be at least 1")


@pytest.mark.parametrize("argv, code, message", [
    (("lift", "--k", "0", "--M", "0"), 2, "M must be at least k + 2 = 2, got 0"),
    (("lift", "--k", "0", "--M", "1"), 2, "M must be at least k + 2 = 2, got 1"),
    (("lift", "--k", "-2", "--M", "6"), 2, "k must be at least 0, got -2"),
    (("charpoly", "--k", "-1", "--M", "4", "--xdeg", "2"), 2, "k must be at least 0, got -1"),
    (("charpoly", "--disc-center", "-1", "--M", "4", "--xdeg", "2"), 2,
     "k must be at least 0, got -1"),
    (("lift", "--k", "1", "--M", "4"), 1, "the weight-1 symbol space of level 33 is zero"),
    (("lift", "--k", "0", "--M", "6", "--eigenvalue-choice", "slope:-1"), 2,
     "slope must be 0 or k + 1 = 1, got -1"),
    (("lift", "--k", "0", "--M", "6", "--eigenvalue-choice", "slope:2"), 2,
     "slope must be 0 or k + 1 = 1, got 2"),
    (("lift", "--k", "2", "--M", "6", "--eigenvalue-choice", "slope:1"), 2,
     "slope must be 0 or k + 1 = 3, got 1"),
])
def test_lift_and_charpoly_bad_input(capsys, argv, code, message):
    """Usage errors exit 2 with empty stdout; a space with no eigensymbol is
    a checked failure (exit 1) with the lift's error payload. The search
    lifts ordinary p-stabilizations, of slope 0 or k + 1, so another slope is
    rejected before the classical space is built."""
    cmd, *rest = argv
    got, out, err = run(capsys, cmd, "--N", "11", "--p", "3", *rest, "--format", "json")
    assert got == code
    if code == 2:
        assert out == ""
        assert err == f"error: {message}\n"
    else:
        assert json.loads(out) == {"converged": False, "error": message}


@pytest.mark.parametrize("argv, message", [
    (("--group", "GL2", "--Q", "borel", "--weight", "1", "--vals", "1/0"),
     "valuations '1/0' have a zero denominator"),
    (("--group", '{"name":"x","rank":1,"simple_roots":3,"coroots":[[1]]}', "--Q", "borel",
      "--weight", "1", "--vals", "0"),
     "simple_roots must be a list of integer vectors"),
    # affine A1: Cartan matrix [[2, -2], [-2, 2]], whose determinant is 0
    (("--group", '{"name":"affine-A1","rank":3,"simple_roots":[[1,-1,0],[-1,1,1]],'
                 '"coroots":[[1,-1,0],[-1,1,0]]}', "--Q", "borel", "--weight", "0",
      "--vals", "0,0"),
     "the Cartan matrix [[2, -2], [-2, 2]] is not of finite type"),
])
def test_slopes_bad_input_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, "slopes", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_certification_error_exits_one(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise CertificationError("x")

    monkeypatch.setattr(cli, "charpoly_up", broken)
    code, out, err = run(capsys, "charpoly", "--N", "11", "--p", "3", "--k", "0", "--M", "4")
    assert (code, out, err) == (1, "", "error: x\n")


@pytest.mark.parametrize("argv, digest", [
    (("--group", "GL2", "--k", "16", "--d", "16"),
     "d3ba0145ee74717ec3670c8ee1b4c510d062944aa73f3b4f1933b5c9c73f98dc"),
    (("--group", "GL3", "--weight", "16,0,0", "--i", "0", "--d", "4"),
     "cd68d29e7faa177719b15e4c44d052bac71b3288327a158c8f790d235c3e373f"),
], ids=["GL2-k16", "GL3-16,0,0"])
def test_bgg_check_weight_16_matches_golden_digest(capsys, argv, digest):
    """Weight 16 passes (dimensions 17 and 35): random Levi samples, block
    matrices with entries in [-3, 3], could not span the GL(2) module of
    weight (16, 0), and the lowering operators do."""
    code, out, _ = run(capsys, "bgg-check", *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout, recorded from the exact Fraction-based kernels: a change
# that only makes the engine faster must leave these bytes unchanged
GOLDEN_JSON = [
    (("charpoly", "--N", "11", "--p", "3", "--k", "0", "--M", "6", "--xdeg", "6"),
     "04d104652e5f2c8a0b8e47ab12db7770f561fa2f2811d5a97451cb4772c54c97"),
    (("charpoly", "--N", "11", "--p", "3", "--disc-center", "0", "--M", "6", "--T", "2",
      "--xdeg", "4"),
     "83f9b9b7f6f7f4d2b164168f5a244945ca382b8b0041179c5e29b13c083a120d"),
    (("lift", "--N", "11", "--p", "3", "--k", "0", "--M", "8"),
     "9614e90c9cf434000cb910cef7f29353ae0ec6be54a49fcda375de7e20c39813"),
    # p = 2 runs through the R_T engine at T = 1, with no logarithm
    (("charpoly", "--N", "3", "--p", "2", "--k", "0", "--M", "6", "--xdeg", "4"),
     "7d143c4f6d9cefb62beb588f53b09f51f008f843afa8a57c5c5ba6e1c215aba2"),
    # k > 0 routes the tail-consistency defect into a sink; the fix of the
    # k > 0 spectrum (ROADMAP item 4) will change this digest on purpose
    (("charpoly", "--N", "11", "--p", "3", "--k", "2", "--M", "5", "--xdeg", "6"),
     "0ed4f822e88dfc536c3a14c81879ace947d3ee530f26d83c39cd725b917f2c9f"),
    # exact BGG checks, recorded before row reduction moved to integer rows
    (("bgg-check", "--group", "GL3", "--weight", "2,1,0", "--i", "1", "--d", "6"),
     "9fffc36de6789c30f19f0b24fbde1003f0d690e4fb013e32c7b0590f761ca2d3"),
    (("bgg-check", "--group", "GL2", "--k", "5", "--d", "9"),
     "b46bc532c6401f9deeaa25fb43f740958837cb7606db8b485db39c77b50669ea"),
    # recorded before the model matrix was built on packed column bundles
    (("charpoly", "--N", "11", "--p", "3", "--disc-center", "0", "--M", "6", "--T", "3",
      "--xdeg", "4"),
     "431d4e23c9bbad700d6a7cb5790b4fbbf8e3c6ef16bf72dc8ad46e7b6482102e"),
    (("lift", "--N", "11", "--p", "5", "--k", "0", "--M", "6"),
     "4880a42b0f7a01190bda6bee2503be79aa0dcc941e7e1dc6b725ff9e2d8a065d"),
    (("charpoly", "--N", "11", "--p", "5", "--k", "2", "--M", "5", "--xdeg", "6"),
     "6802560cd4d40f342639312629204da0926c0f6f081e4c0b8022eb4926a8be7f"),
]


# csv rows, recorded before the two spectral records shared one row writer
GOLDEN_CSV = [
    (("charpoly", "--N", "11", "--p", "3", "--k", "0", "--M", "6", "--xdeg", "6"),
     "dff7a358c50fb629b7e756feb21a55737b6014be4864bcb69b72e76cd1237b0f"),
    (("charpoly", "--N", "11", "--p", "3", "--disc-center", "0", "--M", "6", "--T", "2",
      "--xdeg", "4"),
     "dc053e2c7a15fa1f472634539d20ffe1c64b03d71cf0718667972db7084d1e95"),
]


# a k > 0 lift (3 x 3 classical moment matrices), recorded before the
# classical operators moved to integer arithmetic; listed after the CSV
# digests so that the ids of the cases above stay as they are
GOLDEN_JSON_K2 = [
    (("lift", "--N", "5", "--p", "3", "--k", "2", "--M", "8"),
     "bc626a5059d3c61256cabae7825b4781c7febb5d1775f09a5cd7395b5c916f0d"),
]


# long series whose representative budget, not the truncation bound, sets
# some precisions, recorded before the power traces moved from U mod p^Kbig
# to U/p^E mod p^Kt
GOLDEN_JSON_BUDGET = [
    (("charpoly", "--N", "3", "--p", "2", "--k", "0", "--M", "4", "--xdeg", "40"),
     "8b056873c6f2df74fddcd11e584c0b8809aae2dc7a7d446c7c519108904b72ca"),
    (("charpoly", "--N", "2", "--p", "3", "--disc-center", "0", "--M", "4", "--T", "4",
      "--xdeg", "20"),
     "f3a977c8c4543f74c9dd28f3d6c1c4a89eb12832ba4175bedb2845439572f159"),
]


# larger BGG checks, recorded before theta became a power of one derivation
# matrix and the constraint rows became sparse: GL(4), and GL(3) past the
# degree the bgg benchmark reaches
GOLDEN_JSON_BGG = [
    (("bgg-check", "--group", "GL4", "--weight", "2,1,0,0", "--i", "0", "--d", "6"),
     "c641473b391a61ff51305ca4b748804ec7e60f78e70d05526a99ca71258bf99e"),
    (("bgg-check", "--group", "GL3", "--weight", "2,1,0", "--i", "0", "--d", "10"),
     "2f0d1fefb147defde1f6c77c6cd8f684e5da99c8e9eafd9993fed2b258aacf7f"),
]


@pytest.mark.parametrize(
    "argv, digest, fmt",
    [(a, d, "json") for a, d in GOLDEN_JSON] + [(a, d, "csv") for a, d in GOLDEN_CSV]
    + [(a, d, "json") for a, d in GOLDEN_JSON_K2 + GOLDEN_JSON_BUDGET + GOLDEN_JSON_BGG],
)
def test_cli_json_matches_golden_digest(capsys, argv, digest, fmt):
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_catalog_lists_builtins(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    names = [g["name"] for g in payload["groups"]]
    assert "GL2" in names and "GSp4" in names
    assert "custom_schema" in payload


def test_custom_group_json_file(tmp_path, capsys):
    f = tmp_path / "datum.json"
    f.write_text(json.dumps({
        "name": "A1-doubled", "rank": 1,
        "simple_roots": [[2]], "coroots": [[1]],
    }))
    code, out, _ = run(
        capsys, "slopes", "--group", str(f), "--Q", "borel",
        "--weight", "3", "--vals", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["steps"][0]["h_crit"] == 8
