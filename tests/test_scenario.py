"""Scenario loading, validation codes, the reference profile, round trips."""

import pytest

from vcsim.scenario import (
    Scenario,
    ScenarioError,
    case_study_scenario,
    demand_table_csv,
    load_demand_table,
    load_scenario,
    save_scenario,
    scenario_from_dict,
)


class TestCaseStudyProfile:
    def test_reference_values(self):
        sc = case_study_scenario()
        assert sc.firm.fgi == {1: 500.0, 2: 500.0, 3: 300.0}
        assert sc.firm.raw_stock_kg == {1: 200.0, 2: 200.0, 3: 200.0}
        assert sc.firm.capacity_boxes_per_day == 185.0
        assert (sc.firm.deliver_every, sc.firm.source_every, sc.firm.make_every) == (
            2.5,
            3.0,
            3.0,
        )
        assert (sc.retailer.deliver_every, sc.retailer.source_every) == (2.0, 2.5)
        assert sc.retailer.stock[1] == 0.0 and sc.retailer.stock[2] == 0.0
        for supplier in sc.suppliers:
            assert (supplier.deliver_every, supplier.source_every) == (4.0, 4.0)
            for rid in supplier.raws:
                assert supplier.stock_kg[rid] == 500.0

    def test_raw_coverage_and_designated_sources(self):
        sc = case_study_scenario()
        produced = {r for s in sc.suppliers for r in s.raws}
        assert produced == {1, 2, 3}
        assert sc.raw_sources == {1: "supplier2", 2: "supplier2", 3: "supplier3"}

    def test_demand_table_values(self):
        sc = case_study_scenario()
        assert sc.demand.boxes_for("customer1", 2, 6) == 850.0
        assert sc.demand.boxes_for("customer1", 1, 1) == 250.0
        for month in range(1, 13):
            assert sc.demand.boxes_for("customer2", 2, month) == 0.0
        assert sc.demand.products_of("customer2") == [1, 3]

    def test_scor_mode_disables_every_process(self):
        sc = case_study_scenario(mode="scor")
        assert not any(sc.processes.values())

    def test_vcor_mode_enables_every_process(self):
        sc = case_study_scenario(mode="vcor")
        assert all(sc.processes.values())

    def test_modes_share_topology_digest(self):
        scor = case_study_scenario(mode="scor", seed=5)
        vcor = case_study_scenario(mode="vcor", seed=5)
        assert scor.topology_digest() == vcor.topology_digest()
        assert scor.digest() != vcor.digest()

    def test_seed_changes_digest(self):
        assert (
            case_study_scenario(seed=1).digest() != case_study_scenario(seed=2).digest()
        )


class TestValidationCodes:
    def test_forgetting_factor_out_of_range(self):
        data = case_study_scenario().to_dict()
        data["satisfaction"]["forgetting_factor"] = 1.5
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(data)
        assert err.value.code == "forgetting-factor-out-of-range"

    def test_scor_with_support_on_is_inconsistent(self):
        data = case_study_scenario().to_dict()
        data["mode"] = "scor"
        data["processes"]["support"] = True
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(data)
        assert err.value.code == "mode-toggle-conflict"

    def test_reorder_point_must_be_below_up_to(self):
        data = case_study_scenario().to_dict()
        data["retailer"]["reorder"]["P1"] = {"point": 500.0, "up_to": 500.0}
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(data)
        assert err.value.code == "reorder-point-not-below-up-to"

    def test_unknown_raw_in_recipe(self):
        data = case_study_scenario().to_dict()
        data["catalog"]["bom"]["P1"] = {"R9": 1.0}
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(data)
        assert err.value.code == "unknown-raw"

    def test_uncovered_raw_rejected(self):
        data = case_study_scenario().to_dict()
        data["catalog"]["raws"] = [1, 2, 3, 4]
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(data)
        assert err.value.code == "raw-not-covered"

    def test_unsupported_schema_version(self):
        data = case_study_scenario().to_dict()
        data["schema"] = 99
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(data)
        assert err.value.code == "schema-version"

    def test_bad_lot_size(self):
        data = case_study_scenario().to_dict()
        data["customers"][0]["lot_size"] = 0
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(data)
        assert err.value.code == "bad-lot-size"

    def test_demand_for_unknown_customer(self):
        data = case_study_scenario().to_dict()
        data["demand"]["rows"].append(
            {"customer": "ghost", "product": 1, "monthly": [1.0] * 12}
        )
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(data)
        assert err.value.code == "unknown-customer"


class TestFiles:
    def test_yaml_round_trip(self, tmp_path):
        sc = case_study_scenario(mode="vcor", seed=11)
        path = tmp_path / "scenario.yaml"
        save_scenario(sc, path)
        loaded = load_scenario(path)
        assert loaded.to_dict() == sc.to_dict()
        assert loaded.digest() == sc.digest()

    def test_demand_csv_round_trip(self, tmp_path):
        sc = case_study_scenario()
        path = tmp_path / "demand.csv"
        path.write_text(demand_table_csv(sc.demand), encoding="utf-8")
        table = load_demand_table(path)
        assert table.rows == sc.demand.rows

    def test_demand_csv_dashes_mean_zero(self, tmp_path):
        path = tmp_path / "demand.csv"
        header = "customer,product," + ",".join(f"m{i}" for i in range(1, 13))
        path.write_text(header + "\nc1,1," + ",".join(["-"] * 12) + "\n")
        table = load_demand_table(path)
        assert table.boxes_for("c1", 1, 6) == 0.0

    def test_demand_csv_missing_column_is_a_parse_error(self, tmp_path):
        path = tmp_path / "demand.csv"
        header = "customer,product," + ",".join(f"m{i}" for i in range(1, 12))
        path.write_text(header + "\n")
        with pytest.raises(ScenarioError) as err:
            load_demand_table(path)
        assert err.value.code == "parse"

    def test_demand_file_reference_resolves_relative_to_scenario(self, tmp_path):
        sc = case_study_scenario()
        (tmp_path / "demand.csv").write_text(
            demand_table_csv(sc.demand), encoding="utf-8"
        )
        data = sc.to_dict()
        data["demand"] = {"file": "demand.csv"}
        path = tmp_path / "scenario.yaml"
        import yaml

        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        loaded = load_scenario(path)
        assert loaded.demand.rows == sc.demand.rows

    def test_missing_file_is_an_io_error(self, tmp_path):
        with pytest.raises(ScenarioError) as err:
            load_scenario(tmp_path / "nope.yaml")
        assert err.value.code == "io"

    def test_unparseable_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("mode: [unclosed\n")
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.code == "parse"


CASE_DOC = case_study_scenario("vcor", 1, 48).to_dict()
MAPPING_SECTIONS = (
    "processes",
    "catalog",
    "suppliers",
    "raw_sources",
    "firm",
    "retailer",
    "upstream",
    "demand",
    "prices",
    "costs",
    "satisfaction",
    "support",
    "market",
    "innovation",
    "sell",
)


@pytest.mark.parametrize("bad", [5, "x", [1], None], ids=repr)
@pytest.mark.parametrize("key", list(CASE_DOC))
def test_wrong_section_type_gives_scenario_or_scenario_error(key, bad):
    try:
        result = scenario_from_dict({**CASE_DOC, key: bad})
    except ScenarioError:
        return
    assert isinstance(result, Scenario)


@pytest.mark.parametrize("bad", [5, "x", [1]], ids=repr)
@pytest.mark.parametrize("key", MAPPING_SECTIONS)
def test_wrong_section_type_is_a_parse_error(key, bad):
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({**CASE_DOC, key: bad})
    assert err.value.code == "parse"
