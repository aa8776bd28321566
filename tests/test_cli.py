import hashlib
import json
from pathlib import Path

import pytest

from greencorr.cli import Config, run
from greencorr.errors import InputError

S3_CONFIG = {
    "p": 2,
    "degree": 3,
    "generators_G": ["(0 1)", "(0 1 2)"],
    "generators_H": ["(0 1)"],
    "generators_D": ["(0 1)"],
    "options": {"seed": 0, "format": "json"},
}

DEGENERATE_CONFIG = {
    "p": 2,
    "degree": 3,
    "generators_G": ["(0 1)", "(0 1 2)"],
    "generators_H": ["(0 1)", "(0 1 2)"],
    "generators_D": ["(0 1)", "(0 1 2)"],
    "options": {"seed": 0},
}


@pytest.fixture()
def s3_config(tmp_path):
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(S3_CONFIG))
    return str(path)


@pytest.fixture()
def degenerate_config(tmp_path):
    path = tmp_path / "deg.json"
    path.write_text(json.dumps(DEGENERATE_CONFIG))
    return str(path)


def test_config_parsing_and_validation(tmp_path):
    cfg = Config.from_dict(S3_CONFIG)
    sc = cfg.scenario()
    assert sc.G.order == 6 and sc.H.order == 2 and sc.D.order == 2
    bad = dict(S3_CONFIG, p=6)
    with pytest.raises(InputError):
        Config.from_dict(bad).scenario()
    # image-tuple notation is accepted too
    alt = dict(S3_CONFIG, generators_G=[[1, 0, 2], [1, 2, 0]])
    assert Config.from_dict(alt).scenario().G.order == 6
    # chain violation
    bad2 = dict(S3_CONFIG, generators_D=["(0 1 2)"])
    with pytest.raises(InputError):
        Config.from_dict(bad2).scenario()


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["families", "--scenario", str(path)]) == 2
    missing = tmp_path / "missing.json"
    assert run(["families", "--scenario", str(missing)]) == 2


def test_families_command(s3_config, tmp_path, capsys):
    out = tmp_path / "reports"
    code = run(["families", "--scenario", s3_config, "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "families.json").read_text())
    assert doc["X_classes"] == [1]
    assert doc["normalizer_condition"] is True
    tsv = (out / "families_families.tsv").read_text()
    assert tsv.splitlines()[0] == "family\tcoset_rep\tsubgroup_order\tsubgroup_generators"
    assert any(line.startswith("X\t") for line in tsv.splitlines()[1:])


def test_families_s3_one_x_class(s3_config, capsys):
    code = run(["families", "--scenario", s3_config])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["X"]) == 1
    assert doc["X"][0]["subgroup_order"] == 1


def test_isocomma_command(s3_config, capsys):
    code = run(["isocomma", "--scenario", s3_config, "--left", "H",
                "--right", "D"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["objects"] == 6
    assert sorted(c["aut_order"] for c in doc["components"]) == [1, 2]


def test_partial_command(s3_config, capsys):
    code = run(["partial", "--scenario", s3_config])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdicts"]["geography"] is True
    assert doc["verdicts"]["factorization_strict"] is True
    assert doc["verdicts"]["boundary_matches_families"] is True
    assert len(doc["boundaries"]["dd"]["components"]) == 1


def test_decompose_golden_regular_s3(s3_config, capsys):
    # golden values frozen from the exhaustive idempotent oracle (see
    # test_decompose.test_regular_s3_gf2_golden)
    code = run(["decompose", "--scenario", s3_config,
                "--module", "regular", "--group", "G"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dims_multiset"] == [2, 2, 2]
    mults = sorted(s["multiplicity"] for s in doc["summands"])
    assert mults == [1, 2]


def test_vertex_command(s3_config, capsys):
    code = run(["vertex", "--scenario", s3_config,
                "--module", "trivial", "--group", "G"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertex_order"] == 2  # Sylow 2-subgroup of S3


def test_correspond_command(s3_config, capsys):
    code = run(["correspond", "--scenario", s3_config])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["pairs"]) == 1
    assert doc["pairs"][0]["dim_n"] == 1 and doc["pairs"][0]["dim_m"] == 1


def test_verify_command_and_files(s3_config, tmp_path, capsys):
    out = tmp_path / "verify_out"
    code = run(["verify", "--scenario", s3_config, "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "verify.json").read_text())
    assert doc["all_pass"] is True
    assert doc["schema_version"] == "1"
    ff = (out / "verify_ff_table.tsv").read_text()
    assert ff.splitlines()[0] == "n1\tn2\tqdim_H\tqdim_G\tequal"
    assert len(ff.splitlines()) == 2


def test_verify_degenerate_exit_zero(degenerate_config, capsys):
    code = run(["verify", "--scenario", degenerate_config])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["family_orders"]["X"] == []
    assert doc["all_pass"] is True


def test_byte_identical_reports(s3_config, tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert run(["verify", "--scenario", s3_config, "--out", str(out1)]) == 0
    assert run(["verify", "--scenario", s3_config, "--out", str(out2)]) == 0
    assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()
    assert (out1 / "verify_ff_table.tsv").read_bytes() == \
        (out2 / "verify_ff_table.tsv").read_bytes()
    # the shipped configs keep their recorded reports
    root = Path(__file__).resolve().parent.parent / "configs"
    recorded = {
        "s3_c2_c2": "82ebd42615a704e801d402f5f0e223d7",
        "degenerate_s3": "ae9a062ab5f7b1d46aaf7a5cc6017997",
        "s4_d8_c4": "60117dcd2de2eb1bb9ed65084ca1baef",
        "s4_d8_d8": "d51671e6b9edbcb116d96f2155172a33",
        "a5_a4_v4": "d3a5d757b8336a3ad0ccb2523798a905",
    }
    for name, md5 in recorded.items():
        out = tmp_path / name
        assert run(["verify", "--scenario", str(root / f"{name}.json"),
                    "--seed", "0", "--out", str(out)]) == 0
        assert hashlib.md5((out / "verify.json").read_bytes()).hexdigest() \
            == md5, name


def test_report_json_roundtrip(s3_config, tmp_path):
    out = tmp_path / "rt"
    run(["verify", "--scenario", s3_config, "--out", str(out)])
    text = (out / "verify.json").read_text()
    doc = json.loads(text)
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == text


def test_module_file_input(s3_config, tmp_path, capsys):
    from greencorr.catalog import symmetric
    from greencorr.modules import module_to_json, regular_module

    M = regular_module(symmetric(3), 2)
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module_to_json(M)))
    code = run(["decompose", "--scenario", s3_config,
                "--module", str(path), "--group", "G"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dims_multiset"] == [2, 2, 2]


def _write_bad_module(tmp_path, kind):
    from greencorr.catalog import symmetric
    from greencorr.modules import module_to_json, trivial_module

    path = tmp_path / "module.json"
    # wrong_p: a GF(3) module against the GF(2) scenario
    doc = module_to_json(trivial_module(symmetric(3), 3 if kind == "wrong_p" else 2))
    if kind == "directory":
        path.mkdir()
    elif kind == "malformed_json":
        path.write_text("{not json")
    else:
        if kind == "no_group_ref":
            del doc["group_ref"]
        path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("kind", ["malformed_json", "no_group_ref",
                                  "directory", "wrong_p"])
def test_bad_module_file_exits_2(kind, s3_config, tmp_path, capsys):
    path = _write_bad_module(tmp_path, kind)
    code = run(["decompose", "--scenario", s3_config,
                "--module", str(path), "--group", "G"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert "schema 1" in capsys.readouterr().out


def test_shipped_configs_parse_and_run(capsys):
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "configs"
    for name in ("s3_c2_c2", "s4_d8_c4", "s4_d8_d8", "a5_a4_v4",
                 "degenerate_s3"):
        path = root / f"{name}.json"
        assert path.exists(), name
        Config.from_file(str(path)).scenario()
    # the cheap commands run end to end on the S3 config
    cfg = str(root / "s3_c2_c2.json")
    assert run(["families", "--scenario", cfg]) == 0
    capsys.readouterr()
    assert run(["partial", "--scenario", cfg]) == 0
    capsys.readouterr()


def test_config_rejects_generator_outside_group(tmp_path):
    # G is the cyclic group but H asks for a transposition
    bad = {
        "p": 2,
        "degree": 3,
        "generators_G": ["(0 1 2)"],
        "generators_H": ["(0 1)"],
        "generators_D": ["(0 1)"],
    }
    with pytest.raises(InputError):
        Config.from_dict(bad).scenario()
