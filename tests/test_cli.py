"""CLI surface: subcommands, flags, exit codes, output files."""

import json
import re

import pytest

from vcsim.cli import _apply_overrides, main
from vcsim.scenario import case_study_scenario, load_scenario, save_scenario, scenario_from_dict


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    save_scenario(case_study_scenario(mode="scor", seed=9, horizon_hours=24.0), path)
    return path


class TestValidate:
    def test_valid_scenario_exits_zero(self, scenario_file, capsys):
        assert main(["validate", str(scenario_file)]) == 0
        assert "valid:" in capsys.readouterr().out

    def test_broken_scenario_exits_one(self, tmp_path, capsys):
        scenario = case_study_scenario()
        data = scenario.to_dict()
        data["satisfaction"]["forgetting_factor"] = 2.0
        import yaml

        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "forgetting-factor-out-of-range" in capsys.readouterr().err

    def test_the_printed_digest_is_the_digest_of_the_run(self, scenario_file, tmp_path, capsys):
        assert main(["validate", str(scenario_file)]) == 0
        printed = capsys.readouterr().out.split("digest=")[1].split()[0]
        assert main(["run", str(scenario_file), "--out", str(tmp_path / "out")]) == 0
        kpi = json.loads((tmp_path / "out" / "kpi.json").read_text(encoding="utf-8"))
        assert printed == kpi["scenario_digest"]

    def test_missing_file_exits_three(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.yaml")]) == 3

    def test_a_file_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        path = tmp_path / "latin1.yaml"
        path.write_bytes("name: café\n".encode("latin-1"))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[parse]") and "latin1.yaml" in err

    def test_a_price_of_an_item_outside_the_catalog_exits_one(self, tmp_path, capsys):
        import yaml

        assert main(["demo", "--out", str(tmp_path)]) == 0
        data = yaml.safe_load((tmp_path / "vcor.yaml").read_text(encoding="utf-8"))
        data["prices"]["retailer"]["P9"] = 10.0
        path = tmp_path / "retailer-price-p9.yaml"
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        capsys.readouterr()
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[item-kind-not-used-by-role]: prices.retailer.P9 is never read")
        assert "Traceback" not in err


class TestRun:
    def test_run_writes_artifacts(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(scenario_file), "--out", str(out)]) == 0
        for name in (
            "trace.jsonl",
            "ledger.jsonl",
            "costs.jsonl",
            "satisfaction.jsonl",
            "kpi.json",
            "delivery_times.csv",
        ):
            assert (out / name).exists(), name
        assert "artifacts written" in capsys.readouterr().out

    def test_the_printed_event_count_is_the_record_count_of_the_trace(
        self, scenario_file, tmp_path, capsys
    ):
        out = tmp_path / "out"
        assert main(["run", str(scenario_file), "--out", str(out)]) == 0
        printed = re.search(r"\bevents=(\d+) ", capsys.readouterr().out)
        records = len((out / "trace.jsonl").read_text().splitlines()) - 1  # the header
        assert printed and int(printed.group(1)) == records > 0

    def test_flag_overrides_change_the_run(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert main(
            [
                "run", str(scenario_file),
                "--seed", "123",
                "--horizon", "12",
                "--mode", "vcor",
                "--out", str(out),
            ]
        ) == 0
        kpi = json.loads((out / "kpi.json").read_text())
        assert kpi["seed"] == 123
        assert kpi["mode"] == "vcor"
        assert kpi["period_hours"] == 12.0

    def test_reruns_are_byte_identical(self, scenario_file, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["run", str(scenario_file), "--out", str(out)]) == 0
        for name in ("trace.jsonl", "ledger.jsonl", "kpi.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_a_reorder_policy_for_an_item_not_stocked_exits_one(self, tmp_path, capsys):
        import yaml

        data = case_study_scenario().to_dict()
        data["firm"]["raw_reorder"]["R9"] = {"point": 100.0, "up_to": 250.0}
        path = tmp_path / "firm-raw-reorder-r9.yaml"
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[item-not-stocked]: firm.raw_reorder.R9 is never read")
        assert "Traceback" not in err


def round_trip_overrides(scenario, seed, horizon, mode):
    """The overrides as a rebuild from the document, the way they were once applied."""
    data = scenario.to_dict()
    if seed is not None:
        data["seed"] = seed
    if horizon is not None:
        data["horizon_hours"] = horizon
    if mode is not None:
        data["mode"] = mode
        data.pop("processes")
    return scenario_from_dict(data)


@pytest.mark.parametrize(
    "seed,horizon,mode",
    [(7, None, None), (None, 12.0, None), (None, None, "scor"), (None, None, "vcor"),
     (0, 2880.0, "vcor"), (None, None, None)],
    ids=repr,
)
def test_overrides_match_a_rebuild_from_the_document(tmp_path, capsys, seed, horizon, mode):
    assert main(["demo", "--out", str(tmp_path)]) == 0
    for name in ("scor", "vcor"):
        scenario = load_scenario(tmp_path / f"{name}.yaml")
        overridden = _apply_overrides(scenario, seed, horizon, mode)
        expected = round_trip_overrides(scenario, seed, horizon, mode)
        assert overridden.to_dict() == expected.to_dict()
        assert overridden.digests() == expected.digests()


class TestDemoAndCompare:
    def test_demo_emits_scenario_pair(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert main(["demo", "--out", str(out), "--seed", "11"]) == 0
        assert (out / "scor.yaml").exists()
        assert (out / "vcor.yaml").exists()
        assert (out / "demand.csv").exists()
        # the emitted pair validates and references the demand file
        assert main(["validate", str(out / "scor.yaml")]) == 0
        assert main(["validate", str(out / "vcor.yaml")]) == 0

    def test_full_pipeline_run_run_compare(self, tmp_path, capsys):
        demo = tmp_path / "demo"
        assert main(["demo", "--out", str(demo), "--horizon", "24"]) == 0
        scor_out, vcor_out = tmp_path / "scor-run", tmp_path / "vcor-run"
        assert main(["run", str(demo / "scor.yaml"), "--out", str(scor_out)]) == 0
        assert main(["run", str(demo / "vcor.yaml"), "--out", str(vcor_out)]) == 0
        cmp_out = tmp_path / "cmp"
        assert main(
            ["compare", str(scor_out), str(vcor_out), "--out", str(cmp_out)]
        ) == 0
        comparison = json.loads((cmp_out / "comparison.json").read_text())
        assert "retailer" in comparison["actors"]
        rows = comparison["actors"]["retailer"]
        assert {"scor", "vcor", "delta", "ratio"} <= set(rows["mean_delivery_time"])
        assert (cmp_out / "comparison.csv").exists()

    def test_scor_vs_scor_has_zero_deltas(self, tmp_path):
        demo = tmp_path / "demo"
        main(["demo", "--out", str(demo), "--horizon", "24"])
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", str(demo / "scor.yaml"), "--out", str(out_a)])
        main(["run", str(demo / "scor.yaml"), "--out", str(out_b)])
        cmp_out = tmp_path / "cmp"
        assert main(["compare", str(out_a), str(out_b), "--out", str(cmp_out)]) == 0
        comparison = json.loads((cmp_out / "comparison.json").read_text())
        for rows in comparison["actors"].values():
            for row in rows.values():
                if row["delta"] is not None:
                    assert row["delta"] == 0

    def test_topology_mismatch_exits_one(self, tmp_path):
        demo = tmp_path / "demo"
        main(["demo", "--out", str(demo), "--horizon", "24"])
        out_a = tmp_path / "a"
        main(["run", str(demo / "scor.yaml"), "--out", str(out_a)])
        out_c = tmp_path / "c"
        main(["run", str(demo / "vcor.yaml"), "--seed", "999", "--out", str(out_c)])
        assert main(["compare", str(out_a), str(out_c)]) == 1

    def test_compare_missing_dir_exits_three(self, tmp_path):
        assert main(["compare", str(tmp_path / "x"), str(tmp_path / "y")]) == 3

    @pytest.mark.parametrize("text", ["{}", "[]"])
    def test_a_kpi_file_that_is_not_a_report_exits_one(self, tmp_path, capsys, text):
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "kpi.json").write_text(text, encoding="utf-8")
        assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        err = capsys.readouterr().err
        assert "error[parse]" in err and "kpi.json" in err

    def test_a_kpi_file_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "kpi.json").write_bytes(b"\xff\xfe{}")
        assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        err = capsys.readouterr().err
        assert "error[parse]" in err and "kpi.json: not UTF-8 text" in err

    def test_a_missing_kpi_file_exits_three(self, tmp_path, capsys):
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
        assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 3
        assert "error[io]: cannot read KPI report" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path,value",
        [
            ("actors.retailer.sri", [1]),
            ("actors.retailer.delivered_count", "7"),
            ("actors.firm.costs", {"holding": None}),
            ("actors.firm", []),
            ("census", {"Open": 1.5}),
            ("seed", None),
        ],
        ids=repr,
    )
    def test_a_report_value_of_the_wrong_type_exits_one(self, tmp_path, capsys, path, value):
        from vcsim.simulation import run_scenario

        report = run_scenario(case_study_scenario(mode="scor", seed=9, horizon_hours=24.0)).report
        good = report.to_dict()
        bad = json.loads(report.to_json())
        *parents, last = path.split(".")
        node = bad
        for key in parents:
            node = node[key]
        node[last] = value
        for name, data in (("a", good), ("b", bad)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "kpi.json").write_text(json.dumps(data), encoding="utf-8")
        assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        err = capsys.readouterr().err
        assert "error[parse]" in err and "kpi.json" in err

    def test_compare_reads_a_kpi_file_that_still_holds_the_record_lists(self, tmp_path):
        # kpi.json once repeated satisfaction.jsonl and delivery_times.csv in
        # the lists "satisfaction" and actors.*.delivery_series; such a file
        # still loads, its extra keys ignored
        from vcsim.simulation import run_scenario

        for mode in ("scor", "vcor"):
            artifacts = run_scenario(case_study_scenario(mode=mode, seed=9, horizon_hours=24.0))
            old = artifacts.report.to_dict()
            old["satisfaction"] = [e._asdict() for e in artifacts.satisfaction]
            for name, series in artifacts.delivery_series.items():
                old["actors"][name]["delivery_series"] = [list(row) for row in series]
            assert old["satisfaction"] and old["actors"]["retailer"]["delivery_series"]
            texts = {"old": json.dumps(old, indent=2), "new": artifacts.report.to_json()}
            for form, text in texts.items():
                (tmp_path / form / mode).mkdir(parents=True)
                (tmp_path / form / mode / "kpi.json").write_text(text, encoding="utf-8")
        for form in ("old", "new"):
            runs = [str(tmp_path / form / mode) for mode in ("scor", "vcor")]
            assert main(["compare", *runs, "--out", str(tmp_path / f"{form}-cmp")]) == 0
        for name in ("comparison.json", "comparison.csv"):
            old_cmp, new_cmp = tmp_path / "old-cmp" / name, tmp_path / "new-cmp" / name
            assert old_cmp.read_bytes() == new_cmp.read_bytes()
