import csv
import json
import math
import subprocess
import sys
import time

import pytest

from hyperforge.bundle import _digest, canonical_json
from hyperforge.cli import export_report, main, run_command

from conftest import GROWTH_TAMPERS, PHASED_TARGETS_JSON, TARGETS_JSON, tamper_growth


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

    def test_count_past_the_limit_is_config_invalid_before_any_scan(self, monkeypatch, capsys):
        # a witness of 20M entries would print and write some 900 MB of JSON
        import hyperforge.criteria

        def no_scan(*args, **kwargs):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(hyperforge.criteria, "find_pk_witness", no_scan)
        argv = ["criteria", "hc", "--space", "l1", "--weight", "const:2", "--count", "20000000"]
        code, payload = run_command(argv)
        assert code == 1 and payload["error"] == "config_invalid"
        assert payload["details"] == {"count": 20000000, "max": 1000000}
        assert main(argv[:-1] + ["1000001"]) == 1
        out = capsys.readouterr()
        assert json.loads(out.out)["details"] == {"count": 1000001, "max": 1000000} and out.err == ""

    def test_error_object_is_strict_json(self, monkeypatch, capsys):
        # the budget ends the scan before any per-index margin is taken, so
        # the best margin is +inf, which JSON has no number for
        def no_constant(name):
            raise ValueError(f"non-JSON constant {name}")

        monkeypatch.setenv("HYPERFORGE_BUDGET", "1024")
        argv = ["criteria", "hc", "--space", "l1", "--weight", "const:2", "--count", "5000",
                "--horizon-q", "1", "--horizon-n", "8"]
        assert main(argv) == 1
        payload = json.loads(capsys.readouterr().out, parse_constant=no_constant)
        assert payload["error"] == "search_exhausted" and payload["details"]["best_margin_log"] is None

    def test_contracting_weight_reports_search_exhausted(self):
        code, payload = run_command(
            ["criteria", "hc", "--space", "l1", "--weight", "const:0.5", "--count", "3",
             "--horizon-n", "3"]
        )
        assert code == 1 and payload["error"] == "search_exhausted"

    @pytest.mark.parametrize(
        "check,space_id",
        [("mixing", "entire_cauchy"), ("hc", "l1"), ("prop-a", "entire_hadamard"), ("prop-b", "l1")],
    )
    def test_horizon_past_the_search_budget_is_search_exhausted(self, check, space_id, monkeypatch, capsys):
        # a horizon past the budget ends before any array of that size exists
        import tracemalloc

        monkeypatch.delenv("HYPERFORGE_BUDGET", raising=False)
        argv = ["criteria", check, "--space", space_id, "--weight", "maclane", "--horizon-n", "300000000"]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr()
        payload = json.loads(out.out)
        assert code == 1 and payload["error"] == "search_exhausted" and out.err == ""
        assert payload["details"] == {"horizon_n": 300000000, "budget": 50000000}
        assert peak < 1 << 20, peak

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

    def test_property_b_horizon_past_the_pair_budget(self):
        # condition (ii) would compare 8001^2 pairs, past the default budget
        code, payload = run_command(["criteria", "prop-b", "--space", "l1", "--horizon-n", "8000"])
        assert code == 1 and payload["error"] == "search_exhausted"
        assert payload["details"] == {"horizon_n": 8000, "budget": 50_000_000}

    @pytest.mark.parametrize("argv", [
        ["prop-b", "--horizon-n", "-1"],
        ["prop-b", "--horizon-n", "-2"],
        ["prop-b", "--r-max", "0"],
        ["prop-b", "--M-max", "-3"],
        ["prop-b", "--m-max", "0"],
        ["prop-a", "--horizon-n", "-1"],
        ["prop-a", "--r-max", "-1"],
        ["mixing", "--horizon-n", "-1"],
        ["mixing", "--horizon-q", "0"],
        ["mixing", "--tol", "nan"],
        ["mixing", "--tol", "inf"],
    ], ids=lambda argv: " ".join(argv))
    def test_parameter_out_of_range_is_config_invalid(self, argv, capsys):
        space = "l1" if argv[0] == "prop-b" else "l_p:2"
        assert main(["criteria", *argv, "--space", space]) == 1
        out, err = capsys.readouterr()
        payload = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))
        assert payload["error"] == "config_invalid" and "Traceback" not in err

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


# edits to the stored certificates of one round of the README ca.json, each
# followed by a recomputed bundle_id: (round, edit of the round's checks, the
# failures revalidation lists for that round).  Editing the C1 bound also flags
# C3: the C1 bound is the round's record of eps, and C3 shares it.
CA_VALUE_EDITS = {
    "C1": (1, lambda c: c["C1"].update(value_log2=-999.0), ["C1_value"]),
    "C1_none": (1, lambda c: c["C1"].pop("value_log2"), ["C1_value"]),
    "C1_text": (1, lambda c: c["C1"].update(value_log2="-60"), ["C1_value"]),
    "C3_none": (1, lambda c: c["C3"].update(value_log2=-80.0), ["C3_value"]),
    "F1": (1, lambda c: c["F1"].update(value_log2=c["F1"]["value_log2"] * (1 + 1e-6)), ["F1_value"]),
    # a stored value passes only when it is the recomputed one bit for bit
    "C1_one_ulp": (1, lambda c: c["C1"].update(value_log2=math.nextafter(c["C1"]["value_log2"], -math.inf)),
                   ["C1_value"]),
    "C2_residual": (1, lambda c: c["C2_residual"].update(value=1e-6), ["C2_residual_value"]),
    "F3": (1, lambda c: c["F3"].update(value_log2=-20.0), ["F3_value"]),
    "F3_decoded_value": (1, lambda c: c["F3"].update(value=1e-3), ["F3_value"]),
    "F4_none": (1, lambda c: c["F4"].update(value_log2=-60.0), ["F4_value"]),
    "window_dropped": (4, lambda c: c.pop("window"), ["window_value"]),
    "window_failing": (4, lambda c: c["window"].update({"pass": False}), ["window_value"]),
    # the decoded value of a log-domain certificate, above its own bound
    "C1_decoded_value": (4, lambda c: c["C1"].update(value=0.4), ["C1_value"]),
    "F2": (4, lambda c: c["F2"].update(value=10.0), ["F2_value"]),
    "separation": (4, lambda c: c["separation"].update(value=60.0), ["separation_value"]),
    "C1_bound": (4, lambda c: c["C1"].update(bound_log2=-17.0), ["C1_value", "C3_value"]),
    # 2^5000 overflows a float: the recomputed bound is inf, not a traceback
    "C1_bound_huge": (4, lambda c: c["C1"].update(bound_log2=5000.0), ["C1_value", "C3_value"]),
    # without a stored eps, C1 and C3 cannot pass
    "C1_dropped": (4, lambda c: c.pop("C1"), ["C1", "C1_value", "C3", "C3_value"]),
}


@pytest.mark.parametrize("case", list(CA_VALUE_EDITS))
def test_edited_certificate_value_fails_revalidation(case, readme_ca, tmp_path, capsys):
    r, edit, failures = CA_VALUE_EDITS[case]
    doc = json.loads(json.dumps(readme_ca))
    edit(doc["rounds"][r - 1]["checks"])
    path = tmp_path / "ca.json"
    bundle_id = _write_with_id(doc, path)
    argv = ["verify", "certificates", "--bundle", str(path)]
    code, payload = run_command(argv)
    assert code == 1 and not payload["summary"]["pass"]
    assert payload["bundle_id"] == bundle_id
    assert [rd["failed"] for rd in payload["rounds"]] == [failures if rd == r else [] for rd in range(1, 9)]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["rounds"][r - 1]["failed"] == failures


@pytest.mark.parametrize("r", [20, 0, 7])
def test_misnumbered_round_is_bundle_invalid(r, readme_ca, tmp_path):
    # revalidation reads rounds 1..r-1 as the prefix of round r
    doc = json.loads(json.dumps(readme_ca))
    doc["rounds"][7]["r"] = r
    path = tmp_path / "ca.json"
    _write_with_id(doc, path)
    code, payload = run_command(["verify", "certificates", "--bundle", str(path)])
    assert code == 1 and payload["error"] == "bundle_invalid"


@pytest.mark.parametrize("m", [2, 12])
def test_round_off_the_pairing_rule_is_bundle_invalid(m, readme_c, tmp_path):
    # round 1 is (m, l) = (1, 1); a degree-12 round would make the reports
    # form twelfth powers before they could notice
    doc = json.loads(json.dumps(readme_c))
    doc["rounds"][0]["m"] = m
    path = tmp_path / "c.json"
    _write_with_id(doc, path)
    start = time.perf_counter()
    for argv in (["verify", "certificates"], ["verify", "power", "--power", str(m)]):
        code, payload = run_command([*argv, "--bundle", str(path)])
        assert code == 1 and payload["error"] == "bundle_invalid", argv
    assert time.perf_counter() - start < 5.0


def test_lambda_column_off_the_matrix_is_bundle_invalid(readme_ca, tmp_path):
    # 5 is no entry of the |lambda| <= 1 grid the matrix cycles
    doc = json.loads(json.dumps(readme_ca))
    for rd in doc["rounds"]:
        rd["lambda_column"] = [[5.0, 0.0], [5.0, 0.0]]
    path = tmp_path / "ca.json"
    _write_with_id(doc, path)
    for argv in (["verify", "certificates"], ["verify", "element", "--element", "x1*x2 + x1"]):
        code, payload = run_command([*argv, "--bundle", str(path)])
        assert code == 1 and payload["error"] == "bundle_invalid", argv


def test_lambda_denominator_past_the_limit_stops_before_enumerating(targets_file):
    # the (2q + 1)^2 grid points of every q <= 100 are not walked: the count
    # of entries passes the limit within the first denominators
    start = time.perf_counter()
    code, payload = run_command(
        ["build", "algebrable-cauchy", "--space", "l1", "--weight", "const:2", "--targets", targets_file,
         "--rounds", "2", "--K", "2", "--lambda-denom", "100"]
    )
    assert code == 1 and payload["error"] == "config_invalid"
    assert time.perf_counter() - start < 1.0


@pytest.fixture(scope="module")
def readme_g3(tmp_path_factory):
    """The README algebrable-coord bundle (K = 3), as its document."""
    tmp = tmp_path_factory.mktemp("g3")
    targets = tmp / "targets.json"
    targets.write_text(json.dumps(TARGETS_JSON))
    out = tmp / "g3.json"
    code, _ = run_command(
        ["build", "algebrable-coord", "--space", "l1", "--weight", "const:2",
         "--targets", str(targets), "--rounds", "12", "--K", "3", "--out", str(out)]
    )
    assert code == 0
    code, payload = run_command(["verify", "certificates", "--bundle", str(out)])
    assert code == 0 and payload["bundle_id"] == "5e5c3e37137c5580"
    return json.loads(out.read_text())


# edits to the stored checks of round 5 of the README g3.json: (edit, failures)
G3_EDITS = {
    "A2_value": (lambda c: c["A2"].update(value_log2=c["A2"]["value_log2"] - 0.5), ["A2_value"]),
    "A3_dropped": (lambda c: c.pop("A3"), ["A3_value"]),
    "A3_failing": (lambda c: c["A3"].update({"pass": False}), ["A3_value"]),
    "extra_failing_check": (
        lambda c: c.update(Z={"value": 1.0, "bound": 0.0, "pass": False, "op": "lt"}), ["Z_value"]
    ),
}


@pytest.mark.parametrize("case", list(G3_EDITS))
def test_edited_a2_value_fails_revalidation(case, readme_g3, tmp_path):
    edit, failures = G3_EDITS[case]
    doc = json.loads(json.dumps(readme_g3))
    edit(doc["rounds"][4]["checks"])
    out = tmp_path / "g3.json"
    _write_with_id(doc, out)
    code, payload = run_command(["verify", "certificates", "--bundle", str(out)])
    assert code == 1
    assert [rd["failed"] for rd in payload["rounds"]] == [failures if r == 5 else [] for r in range(1, 13)]


def test_reports_on_a_saved_bundle_print_the_built_id(tmp_path):
    # a phased target whose [re, im] coefficients would not all decode back
    # to themselves: every report on the saved file must still name its id
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps(PHASED_TARGETS_JSON))
    out = str(tmp_path / "c.json")
    code, built = run_command(
        ["build", "cauchy", "--space", "entire_cauchy", "--weight", "maclane",
         "--targets", str(targets), "--rounds", "6", "--out", out]
    )
    assert code == 0 and built["bundle_id"] == "59d2a87dc656420e"
    for argv in (["verify", "power", "--bundle", out, "--power", "1"],
                 ["verify", "certificates", "--bundle", out]):
        code, payload = run_command(argv)
        assert code == 0 and payload["bundle_id"] == built["bundle_id"], argv


@pytest.mark.parametrize("argv,note", [
    (["verify", "power", "--power", "50"], "no round of degree 50 within the built range 1..8"),
    (["verify", "element", "--element", "x1^50"], "no applicable round within the built range"),
], ids=["power", "element"])
def test_report_of_an_unbuilt_degree_forms_no_power(argv, note, targets_file, tmp_path):
    # the README c.json has no round of degree 50, so x^50 is never formed
    out = str(tmp_path / "c.json")
    code, _ = run_command(["build", "cauchy", "--space", "entire_cauchy", "--weight", "maclane",
                           "--targets", targets_file, "--rounds", "8", "--out", out])
    assert code == 0
    start = time.perf_counter()
    code, payload = run_command([*argv, "--bundle", out])
    elapsed = time.perf_counter() - start
    assert code == 0 and payload["rounds"] == [] and payload["summary"]["notes"] == [note]
    assert elapsed < 1.0, elapsed


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


@pytest.mark.parametrize("construction", ["coord", "cauchy"])
def test_infinite_target_coefficient_is_config_invalid(construction, tmp_path):
    path = tmp_path / "targets.json"
    path.write_text('[{"coeffs": [[0, 1e400, 0.0]]}]')  # 1e400 parses as inf
    code, payload = run_command(["build", construction, "--space", "l1", "--weight", "const:2",
                                 "--targets", str(path), "--rounds", "2"])
    assert code == 1 and payload["error"] == "config_invalid"
    assert "finite" in payload["message"]


# target files whose entries once loaded as a different index or value than
# the file holds: each built a bundle whose stored targets were [[1, 1.0, 0.0]]
@pytest.mark.parametrize("text", [
    '[{"coeffs": [[1.5, 1.0, 0.0]]}]',
    '[{"coeffs": [[true, 1.0, 0.0]]}]',
    '[{"coeffs": [[0, NaN, 0.0], [1, 1.0, 0.0]]}]',
], ids=["float_index", "bool_index", "nan_part"])
def test_target_entry_that_differs_from_what_is_certified_is_config_invalid(text, tmp_path, capsys):
    path = tmp_path / "targets.json"
    path.write_text(text)
    argv = ["build", "coord", "--space", "l1", "--weight", "const:2", "--targets", str(path), "--rounds", "2"]
    code, payload = run_command(argv)
    assert code == 1 and payload["error"] == "config_invalid"
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == "config_invalid"
    assert "Traceback" not in err


def test_bundle_block_index_that_is_not_an_integer_is_bundle_invalid(readme_g3, tmp_path):
    doc = json.loads(json.dumps(readme_g3))
    doc["rounds"][0]["block"]["coeffs"][0][0] = 1.5
    path = tmp_path / "g3.json"
    _write_with_id(doc, path)
    code, payload = run_command(["verify", "certificates", "--bundle", str(path)])
    assert code == 1 and payload["error"] == "bundle_invalid"


# integer fields of the README g3.json and ca.json written as a float, a bool
# or out of range, each followed by a recomputed bundle_id: (bundle, edit)
INTEGER_FIELD_EDITS = {
    "r": ("g3", lambda d: d["rounds"][0].update(r=1.0)),
    "m": ("g3", lambda d: d["rounds"][2].update(m=2.0)),
    "m_true": ("g3", lambda d: d["rounds"][0].update(m=True)),
    "l": ("g3", lambda d: d["rounds"][1].update(l=2.0)),
    "a_r": ("g3", lambda d: d["rounds"][3].update(a_r=float(d["rounds"][3]["a_r"]))),
    "partition_K": ("g3", lambda d: d.update(partition_K=3.0)),
    "partition_K_zero": ("g3", lambda d: d.update(partition_K=0)),
    "cauchy_a_r": ("ca", lambda d: d["rounds"][1].update(a_r=float(d["rounds"][1]["a_r"]))),
    "eta": ("ca", lambda d: d["rounds"][1].update(eta=float(d["rounds"][1]["eta"]))),
    "gamma": ("ca", lambda d: d["rounds"][1].update(gamma=float(d["rounds"][1]["gamma"]))),
    "rho": ("ca", lambda d: d["rounds"][1].update(rho=float(d["rounds"][1]["rho"]))),
    "nu": ("ca", lambda d: d["rounds"][0].update(nu=1.0)),
    "l_max": ("ca", lambda d: d["lambda"].update(l_max=2.0)),
    "denom_max": ("ca", lambda d: d["lambda"].update(denom_max=True)),
}


@pytest.mark.parametrize("case", list(INTEGER_FIELD_EDITS))
def test_integer_field_that_is_not_an_integer_is_bundle_invalid(case, readme_g3, readme_ca, tmp_path, capsys):
    which, edit = INTEGER_FIELD_EDITS[case]
    doc = json.loads(json.dumps(readme_g3 if which == "g3" else readme_ca))
    edit(doc)
    path = tmp_path / f"{which}.json"
    _write_with_id(doc, path)
    reports = ([["zero-products"], ["power"], ["element", "--element", "x1"]] if which == "g3" else
               [["power"], ["element", "--element", "x1*x2 + x1"], ["expansion", "--element", "x1*x2 + x1"]])
    for report in [["certificates"], *reports]:
        assert main(["verify", *report, "--bundle", str(path)]) == 1, report
        out, err = capsys.readouterr()
        assert json.loads(out)["error"] == "bundle_invalid" and "Traceback" not in err, report


@pytest.mark.parametrize("element", ["1e400*x1", "1e400i*x1 + x1^2"])
def test_non_finite_element_coefficient_is_a_semantic_error(element, readme_g3, tmp_path, capsys):
    path = tmp_path / "g3.json"
    path.write_text(json.dumps(readme_g3))
    assert main(["verify", "element", "--bundle", str(path), "--element", element]) == 1
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["error"] == "semantic_error" and "rounds" not in payload
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def readme_c(tmp_path_factory):
    """The README cauchy bundle (entire_cauchy, maclane, 8 rounds), as its document."""
    tmp = tmp_path_factory.mktemp("c")
    targets = tmp / "targets.json"
    targets.write_text(json.dumps(TARGETS_JSON))
    out = tmp / "c.json"
    code, _ = run_command(["build", "cauchy", "--space", "entire_cauchy", "--weight", "maclane",
                           "--targets", str(targets), "--rounds", "8", "--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("bundle,element", [("g3", "1e-320*x1 + x1^2"), ("c", "1e-320*x1^2 + x1")])
def test_subnormal_pivot_is_element_invalid(bundle, element, readme_g3, readme_c, tmp_path, capsys):
    # dividing by the subnormal pivot (the lowest diagonal coefficient of a
    # coordinatewise element, the top one of a Cauchy element) overflows the
    # other coefficient, and an infinite bound would pass vacuously
    path = tmp_path / f"{bundle}.json"
    path.write_text(json.dumps(readme_g3 if bundle == "g3" else readme_c))
    assert main(["verify", "element", "--bundle", str(path), "--element", element]) == 1
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["error"] == "element_invalid" and "rounds" not in payload
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "table",
    ["[[2.0]]", "[1, 2]", '[["a", 0]]', "[[2.0, 0.0], null]", '[{"re": 2}]', "not json"],
    ids=["short_pair", "numbers", "string_entry", "null_entry", "object_entry", "not_json"],
)
def test_malformed_weight_table_is_weight_invalid(table, tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(table)
    assert main(["criteria", "mixing", "--space", "l1", "--weight", f"table:{path}"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == "weight_invalid"
    assert "Traceback" not in err


# bundle ids of the README builds; any change to the search or to the bundle
# bytes shows here
README_BUNDLE_IDS = [
    (["coord", "--space", "l1", "--weight", "const:2", "--rounds", "12"],
     "74a7bfe76f7316e2"),
    (["algebrable-coord", "--space", "l1", "--weight", "const:2", "--rounds", "12", "--K", "3"],
     "5e5c3e37137c5580"),
    (["cauchy", "--space", "entire_cauchy", "--weight", "maclane", "--rounds", "8"],
     "83967ddd36a7f5bb"),
    (["algebrable-cauchy", "--space", "l1", "--weight", "const:2", "--rounds", "8", "--K", "2"],
     "1785e5e5716db747"),
]


@pytest.mark.parametrize(
    "args,bundle_id", README_BUNDLE_IDS, ids=["coord", "algebrable-coord", "cauchy", "algebrable-cauchy"]
)
def test_readme_builds_keep_their_bundle_ids(args, bundle_id, targets_file, tmp_path):
    out = str(tmp_path / "b.json")
    code, payload = run_command(["build", *args, "--targets", targets_file, "--out", out])
    assert code == 0 and payload["bundle_id"] == bundle_id
    code, payload = run_command(["verify", "certificates", "--bundle", out])
    assert code == 0 and payload["summary"]["pass"]


def test_import_leaves_scipy_special_unloaded(targets_file):
    # nor does any maclane command load scipy, which the package does not need
    probe = f"""
import sys, hyperforge, hyperforge.cli
print('scipy.special' in sys.modules)
from hyperforge.cli import run_command
for argv in (["criteria", "mixing", "--space", "entire_cauchy", "--weight", "maclane"],
             ["build", "cauchy", "--space", "entire_cauchy", "--weight", "maclane",
              "--targets", {targets_file!r}, "--rounds", "3"]):
    assert run_command(argv)[0] == 0, argv
print('scipy' in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]


def test_closed_stdout_exits_1_without_a_traceback():
    # 0.9 MB of JSON, far past a pipe's buffer, so the write meets the closed
    # pipe whatever the reader managed to take first
    argv = [sys.executable, "-m", "hyperforge", "criteria", "hc", "--space", "l1",
            "--weight", "const:2", "--count", "20000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(150)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head.startswith(b'{"hypercyclicity":')
    assert err == b""


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
    elif damage == "value_one_ulp":  # the last value, which no tolerance in the file repeats
        wit["value_log"][-1] = math.nextafter(wit["value_log"][-1], -math.inf)
    elif damage == "short_array":
        wit["tol_log"].pop()
    elif damage == "bad_horizon":
        wit["horizon_q"] = 0
    elif damage == "p_past_int64":
        wit["p"][-1] = 10**30
    elif damage == "p_float":
        wit["p"][0] = 1.9
    elif damage == "p_bool":
        wit["p"][0] = True
    return doc


@pytest.mark.parametrize(
    "damage", ["no_p", "a_list", "reversed_p", "value_past_slack", "short_array", "bad_horizon", "p_past_int64",
               "p_float", "p_bool", "value_one_ulp"]
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


def test_witness_past_the_weight_table_is_config_invalid(targets_file, tmp_path, capsys):
    # the witness is scanned on a longer table with the same entries; its
    # later windows run past the end of the build's table
    for name, length in (("long.json", 100), ("short.json", 20)):
        (tmp_path / name).write_text(json.dumps([[2.0, 0.0]] * length))
    path = tmp_path / "pk.json"
    code, _ = run_command(["criteria", "hc", "--space", "l1", "--weight", f"table:{tmp_path / 'long.json'}",
                           "--count", "16", "--horizon-n", "8", "--out", str(path)])
    assert code == 0
    argv = ["build", "coord", "--space", "l1", "--weight", f"table:{tmp_path / 'short.json'}",
            "--targets", targets_file, "--rounds", "3", "--pk-witness", str(path)]
    code, payload = run_command(argv)
    assert code == 1 and payload["error"] == "config_invalid"
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "config_invalid"


@pytest.mark.parametrize("how", GROWTH_TAMPERS)
def test_witness_with_growth_thresholds_off_the_rule_is_config_invalid(how, targets_file, tmp_path):
    path = tmp_path / "pk.json"
    code, _ = run_command(["criteria", "hc", "--space", "l1", "--weight", "const:2",
                           "--count", "16", "--growth", "--out", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    tamper_growth(doc["hypercyclicity"], how)
    path.write_text(json.dumps(doc))
    code, payload = run_command(["build", "coord", "--space", "l1", "--weight", "const:2",
                                 "--targets", targets_file, "--rounds", "3", "--pk-witness", str(path)])
    assert code == 1 and payload["error"] == "config_invalid"
    assert "does not validate" in payload["message"], payload["message"]


def test_witness_with_indices_below_one_is_config_invalid(targets_file, tmp_path):
    # a `criteria hc` witness with every p lowered by 3 starts at p_1 = -2;
    # validation rejects it before reading any weight, for a table weight too
    table = tmp_path / "w.json"
    table.write_text(json.dumps([[2.0, 0.0]] * 100))
    for weight in (f"table:{table}", "const:2"):
        path = tmp_path / "pk.json"
        code, _ = run_command(["criteria", "hc", "--space", "l1", "--weight", weight,
                               "--count", "16", "--horizon-n", "8", "--out", str(path)])
        assert code == 0
        doc = json.loads(path.read_text())
        wit = doc.get("hypercyclicity", doc)
        wit["p"] = [p - 3 for p in wit["p"]]
        path.write_text(json.dumps(doc))
        code, payload = run_command(["build", "coord", "--space", "l1", "--weight", weight,
                                     "--targets", targets_file, "--rounds", "3", "--pk-witness", str(path)])
        assert code == 1 and payload["error"] == "config_invalid"
        assert "does not validate" in payload["message"], payload["message"]


def test_value_claim_past_a_sampled_check_is_config_invalid(targets_file, tmp_path):
    # a 40,000-entry witness whose third value claim is raised by 0.35, with
    # the next tolerance moved to match: the tolerance rule and every claimed
    # inequality still hold, so only a check of that very entry (which a
    # check sampling every fourth entry from k = 1 skips) catches it
    path = tmp_path / "pk.json"
    code, _ = run_command(["criteria", "hc", "--space", "l1", "--weight", "const:2",
                           "--count", "40000", "--out", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    wit = doc["hypercyclicity"]
    wit["value_log"][2] += 0.35
    wit["tol_log"][3] = wit["value_log"][2]
    assert wit["value_log"][3] < wit["tol_log"][3] and wit["value_log"][2] < wit["tol_log"][2]
    path.write_text(json.dumps(doc))
    code, payload = run_command(["build", "coord", "--space", "l1", "--weight", "const:2",
                                 "--targets", targets_file, "--rounds", "3", "--pk-witness", str(path)])
    assert code == 1 and payload["error"] == "config_invalid"
    assert "does not validate" in payload["message"], payload["message"]
