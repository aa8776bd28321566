import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from greencorr.cli import Config, run
from greencorr.errors import InputError

ROOT = Path(__file__).resolve().parent.parent

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


def test_verify_builds_its_scenario_once_through_config(s3_config, tmp_path,
                                                       monkeypatch, capsys):
    # the benchmark's verify job marks the end of set-up by wrapping
    # Config.scenario, so run must build its Scenario there, once
    build = Config.scenario
    calls = []

    def counting(cfg):
        calls.append(cfg)
        return build(cfg)

    monkeypatch.setattr(Config, "scenario", counting)
    assert run(["verify", "--scenario", s3_config,
                "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    # the chain is checked once, by Scenario.build
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(S3_CONFIG, generators_D=["(0 1 2)"])))
    capsys.readouterr()
    assert run(["verify", "--scenario", str(bad)]) == 2
    assert "chain violation" in capsys.readouterr().err


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


def test_partial_command_fails_a_non_strict_factorization(s3_config, capsys,
                                                         monkeypatch):
    # only the factorization meets the shifted projection: the boundary
    # splits of the report read partial too
    import greencorr.cli as cli_module
    from greencorr.boundary import tricky_factorization
    from test_boundary import shifted_first_projection

    def shifted_factorization(i, j):
        with pytest.MonkeyPatch.context() as mp:
            shifted_first_projection(mp)
            return tricky_factorization(i, j)

    monkeypatch.setattr(cli_module, "tricky_factorization",
                        shifted_factorization)
    assert run(["partial", "--scenario", s3_config]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdicts"]["factorization_strict"] is False
    assert doc["verdicts"]["geography"] is True


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


# the shipped configs keep their recorded reports: the md5s of verify.json
# and of verify_ff_table.tsv
VERIFY_REPORTS = {
        "s3_c2_c2": ("82ebd42615a704e801d402f5f0e223d7",
                     "b9fb5ba84ae296cd04237a6c7a34ede2"),
        "degenerate_s3": ("ae9a062ab5f7b1d46aaf7a5cc6017997",
                          "ae33d8e73f94f3af10e22ac940cca4fa"),
        "s4_d8_c4": ("60117dcd2de2eb1bb9ed65084ca1baef",
                     "cbb2948d856def03c0cb52a28f19cdc4"),
        "s4_d8_d8": ("d51671e6b9edbcb116d96f2155172a33",
                     "1a0a403aa9385d56830990732d7727b0"),
        "a5_a4_v4": ("d3a5d757b8336a3ad0ccb2523798a905",
                     "47622fd1c0b159495790cf3ecf029d8a"),
        # the stretch chain S5 >= S4 >= D8 at p = 2
        "s5_s4_d8": ("5cc1271ffa6f93019cb89bcc0f82194c",
                     "b7b03c16885fecf58d46905750364890"),
        # S4 >= S3 >= S3 at p = 3, whose D is not a p-group
        "s4_s3_s3_p3": ("b5f7a49da3227c4d656fb9ce583098c6",
                        "bf9c7f3eedc4d5ee9c3c42ae2a13c302"),
        # S3 >= S3 >= C2 at p = 2: H = G, so its projective classes are
        # eligible.  A catalog that decomposed kS3 named P(k) d2#1 and the
        # simple projective d2#2, and wrote 6dbdbaaf... and ae33d8e7...
        "s3_s3_c2": ("1903e2cb58261146feb3ded7cda97028",
                     "04f4fcf2dbe5feb8cda0e72a88fd23e7"),
}


def verify_md5s(config: Path, out: Path, *flags: str) -> tuple[str, str]:
    assert run(["verify", "--scenario", str(config), *flags,
                "--out", str(out)]) == 0
    return tuple(hashlib.md5((out / f).read_bytes()).hexdigest()
                 for f in ("verify.json", "verify_ff_table.tsv"))


def test_byte_identical_reports(s3_config, tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert run(["verify", "--scenario", s3_config, "--out", str(out1)]) == 0
    assert run(["verify", "--scenario", s3_config, "--out", str(out2)]) == 0
    assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()
    assert (out1 / "verify_ff_table.tsv").read_bytes() == \
        (out2 / "verify_ff_table.tsv").read_bytes()
    for name, md5s in VERIFY_REPORTS.items():
        assert verify_md5s(ROOT / "configs" / f"{name}.json", tmp_path / name,
                           "--seed", "0") == md5s, name


@pytest.mark.parametrize("name", ["s3_c2_c2", "s4_d8_c4"])
def test_the_seed_changes_no_report(name, tmp_path):
    # the seed is validated and ignored, from the flag and from the config
    config = ROOT / "configs" / f"{name}.json"
    assert verify_md5s(config, tmp_path / "flag", "--seed", "12345") == \
        VERIFY_REPORTS[name]
    doc = json.loads(config.read_text())
    doc["options"] = dict(doc.get("options", {}), seed=7)
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps(doc))
    assert verify_md5s(seeded, tmp_path / "option") == VERIFY_REPORTS[name]


@pytest.mark.parametrize("path", [
    "configs/s3_c2_c2.json", "configs/degenerate_s3.json",
    "configs/s4_d8_c4.json", "configs/s4_d8_d8.json", "configs/a5_a4_v4.json",
    "perfbench/configs/d8_v4_c2.json"])
def test_correspond_names_its_pairs_as_verify_does(path, tmp_path, capsys):
    # both commands name an H-module by its catalog position, and agree on
    # each pair's dimensions and round trip
    assert run(["correspond", "--scenario", str(ROOT / path)]) == 0
    pairs = json.loads(capsys.readouterr().out)["pairs"]
    verify_md5s(ROOT / path, tmp_path)
    verified = json.loads((tmp_path / "verify.json").read_text())
    keys = ("n", "dim_n", "dim_m", "round_trip")
    assert pairs == [{k: pair[k] for k in keys}
                     for pair in verified["correspondence_pairs"]]


GROUPOID_REPORTS = {
    # config: md5 of the stdout of families, partial, isocomma H/D, isocomma D/D
    "s3_c2_c2": ("922af67a9ce6c9868771e2e3a915daa4",
                 "6d1309c457639dc861927502dc62fe8f",
                 "da2902dfc270431a66b69aec9bc7143a",
                 "87a93ce454a58ca18e51620b48aa7876"),
    "degenerate_s3": ("23987edd001a93c0f661aa581b4ef15c",
                      "226501fe43eec44b3776530331869e5f",
                      "69408ec16768f955419458b56a91db19",
                      "217a7d25bee5805597e407edb5be7ef7"),
    "s4_d8_c4": ("e3d35b524e270074ad4e654ede3beb03",
                 "e7dc75e1bc6d1ac62d17433e2f403d13",
                 "07c8966b6b7a47b77a7121c00d8ca909",
                 "37942be33d3cb9b19b3f9e43bea0139e"),
    "s4_d8_d8": ("08ee58693b6153c5acd8589f556f2134",
                 "1c23783f0fb2712622200ead3b323695",
                 "dffacd552f6b5c7b8434b8f86fcebb5f",
                 "da41e3a4fda6844f3c35cce3f6789895"),
    "a5_a4_v4": ("977b352655d20eefc4a54c11c02a4cc5",
                 "891a6a212f48b111f89b70006b85bb4d",
                 "6c4a180b7372ef34cf41b457730cbb22",
                 "458dc23b6f498cca71d2b159ff6ee600"),
}


@pytest.mark.parametrize("name", sorted(GROUPOID_REPORTS))
def test_byte_identical_groupoid_reports(name, capsys):
    # the shipped configs keep their recorded families, partial and
    # isocomma reports on standard output
    path = str(Path(__file__).resolve().parent.parent / "configs" / f"{name}.json")
    commands = (["families"], ["partial"],
                ["isocomma", "--left", "H", "--right", "D"],
                ["isocomma", "--left", "D", "--right", "D"])
    for command, md5 in zip(commands, GROUPOID_REPORTS[name]):
        assert run([*command, "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert hashlib.md5(out.encode()).hexdigest() == md5, (name, command)


# S4 >= C4 >= <(0 2)(1 3)> at p = 2: every D-object of the catalog is an
# X-object, so no H-module is eligible and the verify passes vacuously
EMPTY_ELIGIBLE_CONFIG = {
    "p": 2,
    "degree": 4,
    "generators_G": ["(0 1 2 3)", "(0 1)"],
    "generators_H": ["(0 1 2 3)"],
    "generators_D": ["(0 2)(1 3)"],
    "options": {"seed": 0},
}
EMPTY_ELIGIBLE_MD5 = "25485c2f21d10b724e31e4b15fa4635c"  # verify.json
EMPTY_ELIGIBLE_NOTE = ("note: no H-module of the catalog is eligible (a "
                       "D-object and not an X-object), so verify checks no "
                       "pair\n")


def test_an_empty_eligible_set_is_said_on_stderr(s3_config, tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(EMPTY_ELIGIBLE_CONFIG))
    out = tmp_path / "empty"
    assert run(["verify", "--scenario", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == EMPTY_ELIGIBLE_NOTE
    report = (out / "verify.json").read_bytes()
    assert hashlib.md5(report).hexdigest() == EMPTY_ELIGIBLE_MD5
    doc = json.loads(report)
    assert doc["all_pass"] and doc["correspondence_pairs"] == doc["ff_table"] == []
    # a verify that checks pairs says nothing
    assert run(["verify", "--scenario", s3_config, "--out", str(tmp_path / "s3")]) == 0
    assert capsys.readouterr().err == ""


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
        path.write_text(json.dumps(dict(doc, **BAD_MODULE_FIELDS.get(kind, {}))))
    return path


# p must be prime: p = 0 divided by zero in numpy before the error line, and
# p = 1 and p = -3 failed later under another name
NON_PRIME_P = {"p_zero": 0, "p_one": 1, "p_negative": -3, "p_composite": 4}

# numbers must be JSON integers: int() would read p = 2.9 as 2, dim 1.0 as 1
# and degree 3.0 as 3, and the 1.7 in the last entry of the last action as 1;
# an entry past int64 overflows numpy; the two actions of the last file do
# not satisfy the relations of S3, since (0 1 2) has order 3 and
# [[1, 1], [0, 1]] order 2
BAD_MODULE_FIELDS = {
    **{kind: {"p": p} for kind, p in NON_PRIME_P.items()},
    "p_float": {"p": 2.9},
    "dim_float": {"dim": 1.0},
    "degree_float": {"group_ref": {"degree": 3.0,
                                   "generators": [[1, 0, 2], [1, 2, 0]]}},
    "entry_float": {"action": {"0": [1], "1": [1.7]}},
    "entry_past_int64": {"action": {"0": [1], "1": [2 ** 64 + 1]}},
    "not_a_representation": {"dim": 2, "action": {"0": [1, 1, 0, 1],
                                                  "1": [1, 1, 0, 1]}},
}


@pytest.mark.parametrize("kind", ["malformed_json", "no_group_ref",
                                  "directory", "wrong_p", *BAD_MODULE_FIELDS])
def test_bad_module_file_exits_2(kind, s3_config, tmp_path, capsys):
    path = _write_bad_module(tmp_path, kind)
    for command in ("decompose", "vertex"):
        code = run([command, "--scenario", s3_config,
                    "--module", str(path), "--group", "G"])
        assert code == 2, command
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""
        if kind in NON_PRIME_P:
            assert f"{NON_PRIME_P[kind]} is not prime" in captured.err


@pytest.mark.parametrize("p", [1_000_003, 67_108_859, 2 ** 31 - 1])
def test_module_file_prime_past_exact_products_exits_2(p, tmp_path, capsys):
    # the C3 module loads below the int64 bound of its relation check, and
    # only then is compared with the scenario over GF(2), so no large-p
    # decomposition runs; at 2^31 - 1 loading refuses p as too large
    from oracles import conjugated_c3_module_doc

    config = tmp_path / "c3.json"
    config.write_text(json.dumps({
        "p": 2, "degree": 3, "generators_G": ["(0 1 2)"],
        "generators_H": ["(0 1 2)"], "generators_D": ["(0 1 2)"]}))
    path = tmp_path / "module.json"
    path.write_text(json.dumps(conjugated_c3_module_doc(p)))
    code = run(["decompose", "--scenario", str(config),
                "--module", str(path), "--group", "G"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    if p < 2 ** 31 - 1:
        assert f"module file is over GF({p})" in err
    else:
        assert "too large for exact products" in err


# trial division took about 90 s to settle the first two (10^18 + 3, and the
# product of two primes near 10^9), and would take days on the third, past
# the bound of the Miller-Rabin test
LARGE_P = {"prime": (10 ** 18 + 3, 0, ""),
           "semiprime": (999999937 * 999999929, 2, "is not prime"),
           "past_the_bound": (3317044064679887385961981, 2, "too large")}


@pytest.mark.parametrize("kind", LARGE_P)
def test_families_settles_a_large_p_at_once(kind, tmp_path):
    p, code, message = LARGE_P[kind]
    path = tmp_path / "big_p.json"
    path.write_text(json.dumps(dict(S3_CONFIG, p=p)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "greencorr.cli", "families", "--scenario",
         str(path), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=10)
    assert done.returncode == code, done.stderr
    assert message in done.stderr


def test_verify_with_too_large_p_exits_2(tmp_path, capsys):
    # products mod p are exact only while inner length * (p - 1)^2 < 2^53;
    # a larger p is refused with an error line, not a traceback
    path = tmp_path / "big_p.json"
    path.write_text(json.dumps(dict(S3_CONFIG, p=2147483647)))
    assert run(["verify", "--scenario", str(path),
                "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "2147483647" in err


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert "schema 1" in capsys.readouterr().out


def test_shipped_configs_parse_and_run(capsys):
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "configs"
    for name in ("s3_c2_c2", "s4_d8_c4", "s4_d8_d8", "a5_a4_v4",
                 "degenerate_s3", "s5_s4_d8"):
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


MALFORMED_CONFIGS = {
    "options_null": dict(S3_CONFIG, options=None),
    "options_list": dict(S3_CONFIG, options=[{"seed": 0}]),
    "top_level_array": [S3_CONFIG],
    "generator_int": dict(S3_CONFIG, generators_G=[5]),
    "generator_letters": dict(S3_CONFIG, generators_G=[["a", "b", "c"]]),
    "cycle_letters": dict(S3_CONFIG, generators_H=["(a b)"]),
    "negative_degree": dict(S3_CONFIG, degree=-1, generators_G=[],
                            generators_H=[], generators_D=[]),
    # numbers must be JSON integers: int() would read these as p = 2, p = 1,
    # p = 3, degree 3, seed 1 and the images (1, 0, 2)
    "p_float": dict(S3_CONFIG, p=2.9),
    "p_true": dict(S3_CONFIG, p=True),
    "p_string": dict(S3_CONFIG, p="3"),
    "degree_float": dict(S3_CONFIG, degree=3.5),
    "seed_float": dict(S3_CONFIG, options={"seed": 1.5}),
    "generator_float_image": dict(S3_CONFIG, generators_G=[[1.5, 0, 2], "(0 1 2)"]),
    # generator fields must be JSON arrays: list() would read "e" as the
    # cycle string "e", "" as no generators and {"(0 1)": 1} as ["(0 1)"]
    "generators_string": dict(S3_CONFIG, generators_D="e"),
    "generators_empty_string": dict(S3_CONFIG, generators_D=""),
    "generators_object": dict(S3_CONFIG, generators_D={"(0 1)": 1}),
    # out must be a string or null, as --out would give it
    "out_int": dict(S3_CONFIG, options={"out": 5}),
    "out_true": dict(S3_CONFIG, options={"out": True}),
    "out_object": dict(S3_CONFIG, options={"out": {"dir": "x"}}),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_CONFIGS))
def test_malformed_config_exits_2(kind, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED_CONFIGS[kind]))
    assert run(["verify", "--scenario", str(path),
                "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["options", "flag"])
def test_unwritable_out_exits_2(kind, tmp_path, capsys):
    # a report directory under a regular file cannot be made
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "out")
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(dict(S3_CONFIG, options={"out": out})
                               if kind == "options" else S3_CONFIG))
    argv = ["verify", "--scenario", str(path)]
    assert run(argv if kind == "options" else argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_verify_on_degree_above_255(tmp_path):
    # a point of a degree-300 group does not fit in one byte of the group's
    # fingerprint; two commuting transpositions generate C2 x C2
    path = tmp_path / "deg300.json"
    path.write_text(json.dumps(dict(
        S3_CONFIG, degree=300, generators_G=["(0 1)", "(2 299)"],
        generators_H=["(0 1)"], generators_D=["(0 1)"])))
    out = tmp_path / "out"
    assert run(["verify", "--scenario", str(path), "--out", str(out)]) == 0
    doc = json.loads((out / "verify.json").read_text())
    assert doc["all_pass"] is True
