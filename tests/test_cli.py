import csv
import json
import subprocess
import sys

import pytest

from hyperforge.bundle import _digest, canonical_json
from hyperforge.cli import export_report, main, run_command

from conftest import PHASED_TARGETS_JSON, TARGETS_JSON


@pytest.fixture()
def targets_file(tmp_path):
    path = tmp_path / "targets.json"
    path.write_text(json.dumps(TARGETS_JSON))
    return str(path)


def test_spaces_list():
    code, payload = run_command(["spaces", "list"])
    assert code == 0 and len(payload["spaces"]) == 7


class TestCriteriaCommands:
    def test_hypercyclicity_witness(self):
        code, payload = run_command(
            ["criteria", "hc", "--space", "l1", "--weight", "const:2", "--count", "5",
             "--horizon-n", "3"]
        )
        assert code == 0
        assert payload["hypercyclicity"]["p"] == [1, 2, 3, 4, 5]

    def test_negative_count_is_config_invalid(self):
        code, payload = run_command(["criteria", "hc", "--space", "l1", "--count", "-1"])
        assert code == 1 and payload["error"] == "config_invalid"

    def test_contracting_weight_reports_search_exhausted(self):
        code, payload = run_command(
            ["criteria", "hc", "--space", "l1", "--weight", "const:0.5", "--count", "3",
             "--horizon-n", "3"]
        )
        assert code == 1 and payload["error"] == "search_exhausted"

    def test_mixing(self):
        code, payload = run_command(
            ["criteria", "mixing", "--space", "entire_cauchy", "--weight", "maclane",
             "--horizon-n", "60", "--horizon-q", "2"]
        )
        assert code == 0 and payload["mixing"]["thresholds"]["2"] == 10

    def test_property_b_rejection_names_the_condition(self):
        code, payload = run_command(["criteria", "prop-b", "--space", "omega_cauchy"])
        assert code == 1
        assert payload["error"] == "property_b_unavailable"
        assert "does not satisfy condition (i)" in payload["message"]

    def test_bad_space_is_a_distinct_code(self):
        code, payload = run_command(["criteria", "hc", "--space", "nope"])
        assert code == 1 and payload["error"] == "space_unknown"

    def test_bad_weight_is_a_distinct_code(self):
        code, payload = run_command(["criteria", "hc", "--space", "l1", "--weight", "const:x"])
        assert code == 1 and payload["error"] == "weight_invalid"


class TestBuildAndVerify:
    def test_coordinatewise_build_and_reports(self, targets_file, tmp_path):
        out = str(tmp_path / "g.json")
        code, payload = run_command(
            ["build", "coord", "--space", "l1", "--weight", "const:2",
             "--targets", targets_file, "--rounds", "12", "--out", out]
        )
        assert code == 0 and len(payload["rounds"]) == 12
        assert all(
            c["pass"] for rd in payload["rounds"] for c in rd["checks"].values()
        )
        code, rep = run_command(["verify", "power", "--bundle", out, "--power", "2"])
        assert code == 0 and rep["summary"]["pass"]
        code, rep = run_command(["verify", "certificates", "--bundle", out])
        assert code == 0

    def test_element_verification_via_parser(self, targets_file, tmp_path):
        out = str(tmp_path / "g3.json")
        code, _ = run_command(
            ["build", "algebrable-coord", "--space", "l1", "--weight", "const:2",
             "--targets", targets_file, "--rounds", "12", "--K", "3", "--out", out]
        )
        assert code == 0
        code, rep = run_command(
            ["verify", "element", "--bundle", out, "--element", "x1^2 + 0.3*x1^3"]
        )
        assert code == 0 and rep["summary"]["pass"]
        code, rep = run_command(["verify", "zero-products", "--bundle", out])
        assert code == 0 and rep["summary"]["pass"]

    def test_constant_element_is_a_semantic_error(self, targets_file, tmp_path):
        out = str(tmp_path / "g.json")
        run_command(
            ["build", "coord", "--space", "l1", "--weight", "const:2",
             "--targets", targets_file, "--rounds", "4", "--out", out]
        )
        code, payload = run_command(
            ["verify", "element", "--bundle", out, "--element", "1 + x1"]
        )
        assert code == 1 and payload["error"] == "semantic_error"

    def test_cauchy_build_expansion(self, targets_file, tmp_path):
        out = str(tmp_path / "c.json")
        code, _ = run_command(
            ["build", "cauchy", "--space", "l1", "--weight", "const:2",
             "--targets", targets_file, "--rounds", "6", "--out", out]
        )
        assert code == 0
        code, rep = run_command(
            ["verify", "expansion", "--bundle", out, "--element", "x1^2 + x1"]
        )
        assert code == 0 and rep["agree"]

    def test_lambda_build_and_element(self, targets_file, tmp_path):
        out = str(tmp_path / "ca.json")
        code, _ = run_command(
            ["build", "algebrable-cauchy", "--space", "l1", "--weight", "const:2",
             "--targets", targets_file, "--rounds", "8", "--K", "2", "--out", out]
        )
        assert code == 0
        code, rep = run_command(
            ["verify", "element", "--bundle", out, "--element", "x1*x2 + x1"]
        )
        assert code == 0 and rep["summary"]["pass"]

    def test_missing_bundle_file(self):
        code, payload = run_command(["verify", "power", "--bundle", "/nonexistent.json"])
        assert code == 1 and payload["error"] == "bundle_invalid"

    @pytest.mark.parametrize("damage", ["no_weight", "round_without_checks"])
    def test_malformed_bundle_is_bundle_invalid(self, damage, targets_file, tmp_path, capsys):
        out = tmp_path / "g.json"
        run_command(
            ["build", "coord", "--space", "l1", "--weight", "const:2",
             "--targets", targets_file, "--rounds", "3", "--out", str(out)]
        )
        doc = json.loads(out.read_text())
        if damage == "no_weight":
            del doc["weight"]
        else:
            del doc["rounds"][1]["checks"]
        out.write_text(json.dumps(doc))
        argv = ["verify", "certificates", "--bundle", str(out)]
        code, payload = run_command(argv)
        assert code == 1 and payload["error"] == "bundle_invalid"
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "bundle_invalid"

    def test_build_determinism(self, targets_file, tmp_path):
        args = ["build", "coord", "--space", "l1", "--weight", "const:2",
                "--targets", targets_file, "--rounds", "8"]
        _, p1 = run_command(args)
        _, p2 = run_command(args)
        assert canonical_json(p1) == canonical_json(p2)

    def test_main_prints_json(self, capsys, targets_file):
        rc = main(["criteria", "hc", "--space", "l1", "--weight", "const:2",
                   "--count", "3", "--horizon-n", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert json.loads(out)["hypercyclicity"]["p"] == [1, 2, 3]


class TestReportExport:
    def test_csv_rows_match_checked_rounds(self, targets_file, tmp_path):
        out = str(tmp_path / "g.json")
        run_command(
            ["build", "coord", "--space", "l1", "--weight", "const:2",
             "--targets", targets_file, "--rounds", "8", "--out", out]
        )
        rep_path = str(tmp_path / "r.json")
        csv_path = str(tmp_path / "r.csv")
        code, rep = run_command(
            ["verify", "power", "--bundle", out, "--power", "1",
             "--out", rep_path, "--csv", csv_path]
        )
        assert code == 0
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "distance", "bound", "ratio"]
        assert len(rows) - 1 == rep["summary"]["rounds_checked"]
        reread = json.loads(open(rep_path).read())
        assert canonical_json(reread) == canonical_json(rep)

    def test_empty_report_gives_header_only_csv(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        export_report({"rounds": []}, None, csv_path=path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows == [["round", "distance", "bound", "ratio"]]

    def test_json_roundtrip_identical(self, tmp_path):
        report = {"rounds": [{"round": 1, "distance": 0.5, "bound": 1.0, "ratio": 0.5}]}
        path = str(tmp_path / "rep.json")
        export_report(report, path)
        back = json.loads(open(path).read())
        assert canonical_json(back) == canonical_json(report)
        export_report(back, path)
        assert json.loads(open(path).read()) == back


def test_out_of_range_values_map_to_config_errors(tmp_path, targets_file):
    out = str(tmp_path / "g.json")
    run_command(
        ["build", "coord", "--space", "l1", "--weight", "const:2",
         "--targets", targets_file, "--rounds", "3", "--out", out]
    )
    code, payload = run_command(["verify", "power", "--bundle", out, "--power", "0"])
    assert code == 1 and payload["error"] == "config_invalid"


@pytest.fixture(scope="module")
def readme_ca(tmp_path_factory):
    """The README algebrable-cauchy bundle, as its document."""
    tmp = tmp_path_factory.mktemp("ca")
    targets = tmp / "targets.json"
    targets.write_text(json.dumps(TARGETS_JSON))
    out = tmp / "ca.json"
    code, _ = run_command(
        ["build", "algebrable-cauchy", "--space", "l1", "--weight", "const:2",
         "--targets", str(targets), "--rounds", "8", "--K", "2", "--out", str(out)]
    )
    assert code == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("damage", ["zeroed_id", "tampered_value", "missing_id"])
def test_tampered_bundle_is_bundle_invalid(damage, readme_ca, tmp_path, capsys):
    doc = json.loads(json.dumps(readme_ca))
    if damage == "zeroed_id":
        doc["bundle_id"] = "0" * 16
    elif damage == "tampered_value":
        doc["rounds"][0]["checks"]["C1"]["value_log2"] = -999.0
    else:
        del doc["bundle_id"]
    path = tmp_path / "ca.json"
    path.write_text(json.dumps(doc))
    argv = ["verify", "certificates", "--bundle", str(path)]
    code, payload = run_command(argv)
    assert code == 1 and payload["error"] == "bundle_invalid"
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "bundle_invalid"


def _write_with_id(doc, path):
    """Write ``doc`` with its bundle_id recomputed over the edited document."""
    doc = {k: v for k, v in doc.items() if k != "bundle_id"}
    doc["bundle_id"] = _digest(doc)
    path.write_text(json.dumps(doc))
    return doc["bundle_id"]


def _drop_value_log2(check):
    del check["value_log2"]


# edits to one stored certificate value of the README ca.json, each followed by
# a recomputed bundle_id: (check, edit, the failure revalidation lists for round 1)
CA_VALUE_EDITS = {
    "C1": ("C1", lambda c: c.update(value_log2=-999.0), "C1_value"),
    "C1_none": ("C1", _drop_value_log2, "C1_value"),
    "C1_text": ("C1", lambda c: c.update(value_log2="-60"), "C1_value"),
    "C3_none": ("C3", lambda c: c.update(value_log2=-80.0), "C3_value"),
    "F1": ("F1", lambda c: c.update(value_log2=c["value_log2"] * (1 + 1e-6)), "F1_value"),
    "C2_residual": ("C2_residual", lambda c: c.update(value=1e-6), "C2_residual_value"),
    "F3": ("F3", lambda c: c.update(value_log2=-20.0), "F3_value"),
    "F4_none": ("F4", lambda c: c.update(value_log2=-60.0), "F4_value"),
}


@pytest.mark.parametrize("case", list(CA_VALUE_EDITS))
def test_edited_certificate_value_fails_revalidation(case, readme_ca, tmp_path, capsys):
    name, edit, failure = CA_VALUE_EDITS[case]
    doc = json.loads(json.dumps(readme_ca))
    edit(doc["rounds"][0]["checks"][name])
    path = tmp_path / "ca.json"
    bundle_id = _write_with_id(doc, path)
    argv = ["verify", "certificates", "--bundle", str(path)]
    code, payload = run_command(argv)
    assert code == 1 and not payload["summary"]["pass"]
    assert payload["bundle_id"] == bundle_id
    assert payload["rounds"][0]["failed"] == [failure]
    assert all(not rd["failed"] for rd in payload["rounds"][1:])
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["rounds"][0]["failed"] == [failure]


def test_edited_a2_value_fails_revalidation(targets_file, tmp_path):
    out = tmp_path / "g3.json"
    code, _ = run_command(
        ["build", "algebrable-coord", "--space", "l1", "--weight", "const:2",
         "--targets", targets_file, "--rounds", "12", "--K", "3", "--out", str(out)]
    )
    assert code == 0
    argv = ["verify", "certificates", "--bundle", str(out)]
    code, payload = run_command(argv)
    assert code == 0 and payload["bundle_id"] == "5e5c3e37137c5580"
    doc = json.loads(out.read_text())
    doc["rounds"][4]["checks"]["A2"]["value_log2"] -= 0.5
    _write_with_id(doc, out)
    code, payload = run_command(argv)
    assert code == 1
    assert [rd["failed"] for rd in payload["rounds"]] == [["A2_value"] if r == 5 else [] for r in range(1, 13)]


def test_reports_on_a_saved_bundle_print_the_built_id(tmp_path):
    # a phased target whose coefficients move in the last digit when decoded
    # and re-encoded: every report on the saved file must still name its id
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps(PHASED_TARGETS_JSON))
    out = str(tmp_path / "c.json")
    code, built = run_command(
        ["build", "cauchy", "--space", "entire_cauchy", "--weight", "maclane",
         "--targets", str(targets), "--rounds", "6", "--out", out]
    )
    assert code == 0 and built["bundle_id"] == "9bbd262b0d4c3a3a"
    for argv in (["verify", "power", "--bundle", out, "--power", "1"],
                 ["verify", "certificates", "--bundle", out]):
        code, payload = run_command(argv)
        assert code == 0 and payload["bundle_id"] == built["bundle_id"], argv


def test_untouched_bundle_passes_the_id_check(readme_ca, tmp_path):
    path = tmp_path / "ca.json"
    path.write_text(json.dumps(readme_ca))
    code, payload = run_command(["verify", "certificates", "--bundle", str(path)])
    assert code == 0 and payload["summary"]["pass"]

@pytest.mark.parametrize(
    "doc",
    [[{"nope": 1}], [5], [{"coeffs": [[0]]}], [{"coeffs": [[0, "x", 1.0]]}], [{"coeffs": 3}]],
    ids=["no_coeffs", "not_an_object", "short_entry", "bad_number", "coeffs_not_a_list"],
)
def test_malformed_targets_are_config_errors(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    argv = ["build", "coord", "--space", "l1", "--weight", "const:2",
            "--targets", str(path), "--rounds", "2"]
    code, payload = run_command(argv)
    assert code == 1 and payload["error"] == "config_invalid"
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "config_invalid"


# bundle ids of the README builds; any change to the search or to the bundle
# bytes shows here
README_BUNDLE_IDS = [
    (["coord", "--space", "l1", "--weight", "const:2", "--rounds", "12"],
     "74a7bfe76f7316e2"),
    (["algebrable-coord", "--space", "l1", "--weight", "const:2", "--rounds", "12", "--K", "3"],
     "5e5c3e37137c5580"),
    (["cauchy", "--space", "entire_cauchy", "--weight", "maclane", "--rounds", "8"],
     "fad6f6dcb0f45d02"),
    (["algebrable-cauchy", "--space", "l1", "--weight", "const:2", "--rounds", "8", "--K", "2"],
     "1785e5e5716db747"),
]


@pytest.mark.parametrize(
    "args,bundle_id", README_BUNDLE_IDS, ids=["coord", "algebrable-coord", "cauchy", "algebrable-cauchy"]
)
def test_readme_builds_keep_their_bundle_ids(args, bundle_id, targets_file):
    code, payload = run_command(["build", *args, "--targets", targets_file])
    assert code == 0 and payload["bundle_id"] == bundle_id


def test_import_leaves_scipy_special_unloaded():
    probe = "import sys, hyperforge, hyperforge.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.fixture(scope="module")
def readme_pk(tmp_path_factory):
    """The README `criteria hc` witness (l1, const:2, 16 entries), as its document."""
    out = tmp_path_factory.mktemp("pk") / "pk.json"
    code, _ = run_command(
        ["criteria", "hc", "--space", "l1", "--weight", "const:2", "--count", "16", "--out", str(out)]
    )
    assert code == 0
    return json.loads(out.read_text())


def _damaged_witness(doc, damage):
    doc = json.loads(json.dumps(doc))
    wit = doc["hypercyclicity"]
    if damage == "no_p":
        del wit["p"]
    elif damage == "a_list":
        return wit["p"]
    elif damage == "reversed_p":
        wit["p"].reverse()
    elif damage == "value_past_slack":
        wit["value_log"][3] += 1e-6
    elif damage == "short_array":
        wit["tol_log"].pop()
    elif damage == "bad_horizon":
        wit["horizon_q"] = 0
    return doc


@pytest.mark.parametrize(
    "damage", ["no_p", "a_list", "reversed_p", "value_past_slack", "short_array", "bad_horizon"]
)
def test_malformed_witness_is_config_invalid(damage, readme_pk, targets_file, tmp_path, capsys):
    path = tmp_path / "pk.json"
    path.write_text(json.dumps(_damaged_witness(readme_pk, damage)))
    argv = ["build", "coord", "--space", "l1", "--weight", "const:2",
            "--targets", targets_file, "--rounds", "3", "--pk-witness", str(path)]
    code, payload = run_command(argv)
    assert code == 1 and payload["error"] == "config_invalid"
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "config_invalid"


def test_witness_for_another_weight_is_config_invalid(readme_pk, targets_file, tmp_path):
    path = tmp_path / "pk.json"
    path.write_text(json.dumps(readme_pk))
    code, payload = run_command(
        ["build", "coord", "--space", "l1", "--weight", "const:3",
         "--targets", targets_file, "--rounds", "3", "--pk-witness", str(path)]
    )
    assert code == 1 and payload["error"] == "config_invalid"


def test_good_witness_file_builds(readme_pk, targets_file, tmp_path):
    # the 16-entry witness is extended by the scan, and the build matches
    # the one that scans its own witness
    path = tmp_path / "pk.json"
    path.write_text(json.dumps(readme_pk))
    argv = ["build", "coord", "--space", "l1", "--weight", "const:2", "--targets", targets_file,
            "--rounds", "6"]
    code, payload = run_command([*argv, "--pk-witness", str(path)])
    assert code == 0 and payload["bundle_id"] == run_command(argv)[1]["bundle_id"]
