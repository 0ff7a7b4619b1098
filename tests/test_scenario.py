"""Scenario loading, validation codes, the reference profile, round trips."""

import copy
import inspect
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import vcsim
from vcsim.cli import main
from vcsim.scenario import (
    MODES,
    DemandTable,
    LeadTime,
    SatisfactionParams,
    Scenario,
    ScenarioError,
    _LOADER,
    _REFERENCED,
    _case_study,
    _check_references,
    _declarations,
    _loader_for,
    case_study_scenario,
    demand_table_csv,
    load_demand_table,
    load_scenario,
    save_scenario,
    scenario_from_dict,
)
from vcsim.satisfaction import SatisfactionParams as SatisfactionParamsOfTheModel
from vcsim.simulation import run_scenario


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
        assert sc.demand.rows[("customer1", 2)][5] == 850.0
        assert sc.demand.rows[("customer1", 1)][0] == 250.0
        assert sc.demand.rows[("customer2", 2)] == (0.0,) * 12
        assert sc.demand.products_by_customer() == {"customer1": [1, 2], "customer2": [1, 3]}

    def test_scor_mode_disables_every_process(self):
        sc = case_study_scenario(mode="scor")
        assert not any(sc.processes.values())

    def test_vcor_mode_enables_every_process(self):
        sc = case_study_scenario(mode="vcor")
        assert all(sc.processes.values())

    def test_modes_share_topology_digest(self):
        scor = case_study_scenario(mode="scor", seed=5)
        vcor = case_study_scenario(mode="vcor", seed=5)
        assert scor.digests()[1] == vcor.digests()[1]
        assert scor.digests()[0] != vcor.digests()[0]

    def test_seed_changes_digest(self):
        assert (
            case_study_scenario(seed=1).digests()[0] != case_study_scenario(seed=2).digests()[0]
        )

    @pytest.mark.parametrize("mode", ["scor", "vcor"])
    @pytest.mark.parametrize("name", ["case", "caf\u00e9 \"quoted\"", ""])
    def test_digests_hash_the_compact_sorted_json(self, mode, name):
        import hashlib
        import json

        sc = replace(case_study_scenario(mode=mode, seed=11), name=name)

        def oracle(d):
            blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
            return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

        d = sc.to_dict()
        shared = {k: v for k, v in d.items() if k not in
                  ("mode", "processes", "support", "market", "innovation", "sell", "name")}
        assert sc.digests() == (oracle(d), oracle(shared))


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
        assert loaded.digests() == sc.digests()

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
        assert table.rows[("c1", 1)] == (0.0,) * 12

    def test_demand_csv_missing_column_is_a_parse_error(self, tmp_path):
        path = tmp_path / "demand.csv"
        header = "customer,product," + ",".join(f"m{i}" for i in range(1, 12))
        path.write_text(header + "\n")
        with pytest.raises(ScenarioError) as err:
            load_demand_table(path)
        assert err.value.code == "parse"

    def test_demand_csv_cells_are_read_with_their_whitespace_stripped(self, tmp_path):
        path = tmp_path / "demand.csv"
        header = "customer,product," + ",".join(f"m{i}" for i in range(1, 13))
        path.write_text(header + "\n c1 , 1 ," + ",".join([" 2.5 "] * 11 + [" - "]) + "\n")
        table = load_demand_table(path)
        assert table.rows == {("c1", 1): (2.5,) * 11 + (0.0,)}

    @pytest.mark.parametrize(
        "cell,message",
        [
            ("x", "not a number: 'x'"),
            ("inf", "not a finite number: inf"),
            # float() reads these, but demand_table_csv never writes them
            ("2_50", "not a number: '2_50'"),
            ("\u0662\u0665\u0660", "not a number: '\u0662\u0665\u0660'"),
        ],
    )
    def test_demand_csv_cell_that_is_no_finite_number_is_a_parse_error(
        self, tmp_path, cell, message
    ):
        path = tmp_path / "demand.csv"
        header = "customer,product," + ",".join(f"m{i}" for i in range(1, 13))
        path.write_text(
            header + "\nc1,1," + ",".join(["1.5"] * 11 + [cell]) + "\n", encoding="utf-8"
        )
        with pytest.raises(ScenarioError) as err:
            load_demand_table(path)
        assert err.value.code == "parse"
        assert str(err.value) == f"{path}:2: {message}"

    # 01 and 00 are ASCII digits, but they do not format back to themselves:
    # demand_table_csv writes 1 and 0, as Item.parse reads P1 and not P01;
    # 5000 digits are more than int converts
    @pytest.mark.parametrize(
        "cell",
        ["1_0", "\u0661", "+1", "1.0", "-", "", "01", "00", pytest.param("1" * 5000, id="1*5000")],
    )
    def test_demand_csv_product_that_is_not_ascii_digits_is_a_parse_error(self, tmp_path, cell):
        path = tmp_path / "demand.csv"
        header = "customer,product," + ",".join(f"m{i}" for i in range(1, 13))
        path.write_text(header + f"\nc1,{cell}," + ",".join(["1"] * 12) + "\n", encoding="utf-8")
        with pytest.raises(ScenarioError) as err:
            load_demand_table(path)
        assert err.value.code == "parse"
        assert str(err.value) == f"{path}:2: not an integer: {cell!r}"

    @pytest.mark.parametrize("cell,pid", [("0", 0), ("10", 10)])
    def test_demand_csv_product_reads_as_demand_table_csv_writes_it(self, tmp_path, cell, pid):
        path = tmp_path / "demand.csv"
        header = "customer,product," + ",".join(f"m{i}" for i in range(1, 13))
        path.write_text(header + f"\nc1,{cell}," + ",".join(["1"] * 12) + "\n", encoding="utf-8")
        assert load_demand_table(path).rows == {("c1", pid): (1.0,) * 12}

    def test_demand_csv_second_row_for_a_pair_is_bad_demand_row(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text(
            demand_table_csv(case_study_scenario().demand) + "customer1,1," + ",".join(["1"] * 12)
        )
        with pytest.raises(ScenarioError) as err:
            load_demand_table(path)
        assert err.value.code == "bad-demand-row"
        assert str(err.value) == f"{path}:8: a second row for customer1/P1"

    def test_demand_file_reference_resolves_relative_to_scenario(self, tmp_path):
        sc = case_study_scenario()
        (tmp_path / "demand.csv").write_text(
            demand_table_csv(sc.demand), encoding="utf-8"
        )
        data = sc.to_dict()
        data["demand"] = {"file": "demand.csv"}
        path = tmp_path / "scenario.yaml"
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


PIN_DOC = case_study_scenario("vcor").to_dict()
NO_SUCH_DEMAND_FILE = str(Path(__file__).parent / "no-such-demand.csv")

# (path to one leaf of PIN_DOC, value put there, expected error code); a
# path may name a key the document lacks, which the mutation adds
CODE_CASES = [
    ("schema", 2, "schema-version"),
    ("customers.0.lot_size", "x", "parse"),
    ("mode", ["vcor"], "parse"),
    ("customers.0.arrivals", 5, "parse"),
    ("firm.production_mode.P1", True, "parse"),
    ("firm.capacity_boxes_per_day", "x", "parse"),
    ("demand", {"file": NO_SUCH_DEMAND_FILE}, "io"),
    ("firm.fgi.X1", 5.0, "bad-item-code"),
    ("retailer.stock.R1", 5.0, "wrong-item-kind"),
    ("firm.raw_stock_kg.P1", 5.0, "wrong-item-kind"),
    ("support.defect_probability.R1", 0.1, "wrong-item-kind"),
    ("mode", "lean", "bad-mode"),
    ("seed", -1, "bad-seed"),
    ("horizon_hours", -1.0, "bad-horizon"),
    ("processes.testing", True, "unknown-process"),
    ("mode", "scor", "mode-toggle-conflict"),
    ("catalog.products", [], "empty-catalog"),
    ("catalog.raws", [], "empty-catalog"),
    ("catalog.bom.P9", {"R1": 1.0}, "unknown-product"),
    ("catalog.bom.P1", {"R9": 1.0}, "unknown-raw"),
    ("catalog.bom.P1.R1", 0.0, "bad-bom-quantity"),
    ("catalog.products", [1, 2, 3, 4], "missing-recipe"),
    ("suppliers.0.raws", [9], "unknown-raw"),
    ("suppliers.0.reorder.R1", {"point": 500.0, "up_to": 50.0}, "reorder-point-not-below-up-to"),
    ("suppliers.0.frequencies.deliver", 0.0, "bad-frequency"),
    ("suppliers.0.lead_time.hours", -1.0, "bad-lead-time"),
    ("catalog.raws", [1, 2, 3, 4], "raw-not-covered"),
    ("raw_sources.R1", "ghost", "raw-source-not-supplier"),
    ("raw_sources.R1", "supplier3", "raw-source-not-producer"),
    ("raw_sources.R9", "supplier1", "unknown-raw"),
    ("firm.capacity_boxes_per_day", 0.0, "bad-capacity"),
    ("firm.production_mode.P1", "make-to-wish", "bad-production-mode"),
    ("firm.raw_reorder.R1", {"point": 250.0, "up_to": 250.0}, "reorder-point-not-below-up-to"),
    ("firm.frequencies.make", 0.0, "bad-frequency"),
    ("firm.lead_time", {"kind": "gamma"}, "bad-lead-time"),
    ("retailer.reorder.P1", {"point": 500.0, "up_to": 500.0}, "reorder-point-not-below-up-to"),
    ("retailer.frequencies.source", -2.0, "bad-frequency"),
    ("retailer.lead_time", {"kind": "uniform", "low": 3.0, "high": 1.0}, "bad-lead-time"),
    ("upstream.frequencies.deliver", 0.0, "bad-frequency"),
    ("upstream.lead_time.hours", -0.5, "bad-lead-time"),
    ("customers", [], "no-customers"),
    ("customers.0.lot_size", 0.0, "bad-lot-size"),
    ("customers.0.arrivals", "bursty", "bad-arrival-mode"),
    ("demand.rows.0.customer", "ghost", "unknown-customer"),
    ("demand.rows.0.product", 9, "unknown-product"),
    ("demand.rows.0.monthly", [1.0] * 11, "bad-demand-row"),
    ("demand.rows.0.monthly.3", -1.0, "bad-demand-row"),
    ("satisfaction.forgetting_factor", 1.5, "forgetting-factor-out-of-range"),
    ("satisfaction.price_weight", 0.0, "price-weight-not-positive"),
    ("satisfaction.initial_vote", 10.5, "bad-initial-vote"),
    ("support.defect_probability.P1", 1.5, "bad-defect-probability"),
    ("support.education_decay", 0.0, "bad-education-decay"),
    ("support.handling_hours", -1.0, "bad-handling-time"),
    ("support.max_defective_fraction", 0.0, "bad-defective-fraction"),
    ("market.frequency_hours", 0.0, "bad-frequency"),
    ("innovation.delay_hours", -1.0, "bad-innovation-delay"),
    ("sell.capacity_fraction", 1.5, "bad-capacity-fraction"),
    ("sell.frequency_hours", 0.0, "bad-frequency"),
    ("sell.order_interval_hours", 0.0, "bad-frequency"),
    ("sell.prospects.0.product", 9, "unknown-product"),
    ("sell.prospects.0.boxes_per_day", 0.0, "bad-prospect-rate"),
    ("prices.upstream", {}, "missing-price"),
    ("prices.supplier2.R2", None, "missing-price"),
    ("catalog.bom.R1", {"R1": 1.0}, "wrong-item-kind"),
    ("catalog.bom.P1.P1", 1.0, "wrong-item-kind"),
    ("raw_sources.P1", "supplier2", "wrong-item-kind"),
    ("firm.production_mode.R1", "make-to-order", "wrong-item-kind"),
    ("innovation.bom_override", {"P1": 1.0}, "wrong-item-kind"),
    ("innovation.bom_override", {"R1": 0.0}, "bad-bom-quantity"),
    ("innovation.bom_override", {"R9": 1.0}, "unknown-raw"),
    ("prices.retailer.X1", 10.0, "bad-item-code"),
    ("costs.holding_per_unit_hour.firm.Q1", 0.1, "bad-item-code"),
    # an item code is written as the program writes it, so no two keys name one item
    ("prices.firm.P01", 99.0, "bad-item-code"),
    ("retailer.reorder. P1", {"point": 1.0, "up_to": 2.0}, "bad-item-code"),
    ("firm.fgi.P²", 5.0, "bad-item-code"),
    ("prices.retailer.P1", "x", "parse"),
    ("prices.firm.P2", -1.0, "negative-price"),
    ("costs.holding_per_unit_hour.retailer.P1", [1], "parse"),
    ("costs.holding_per_unit_hour.retailer.P1", -0.5, "negative-holding-cost"),
    ("horizon_hours", math.inf, "parse"),
    ("market.vote_threshold", math.nan, "parse"),
    ("retailer.lead_time.hours", -math.inf, "parse"),
    ("demand.rows.0.monthly.0", math.inf, "parse"),
    ("satisfaction.initial_vote", math.nan, "parse"),
    ("firm.fgi.P1", -1.0, "negative-stock"),
    ("firm.raw_stock_kg.R2", -0.5, "negative-stock"),
    ("retailer.stock.P3", -1.0, "negative-stock"),
    ("suppliers.1.stock_kg.R2", -500.0, "negative-stock"),
    ("prices.retailer.R1", 2.0, "item-kind-not-used-by-role"),
    ("prices.supplier1.P1", 2.0, "item-kind-not-used-by-role"),
    ("prices.ghost", {"P1": 2.0}, "item-kind-not-used-by-role"),
    ("costs.holding_per_unit_hour.upstream", {"R1": 0.1}, "item-kind-not-used-by-role"),
    ("costs.holding_per_unit_hour.customer1", {"R1": 0.1}, "item-kind-not-used-by-role"),
    # a price is of a catalog item, and a run holds only what it can stock:
    # what an actor stocks, a customer's demanded products, a prospect's product
    ("prices.retailer.P9", 10.0, "item-kind-not-used-by-role"),
    ("costs.holding_per_unit_hour.firm.P9", 0.1, "item-kind-not-used-by-role"),
    ("costs.holding_per_unit_hour.supplier1.R2", 0.1, "item-kind-not-used-by-role"),
    ("costs.holding_per_unit_hour.customer1", {"P3": 0.1}, "item-kind-not-used-by-role"),
    ("costs.holding_per_unit_hour.prospect1", {"P2": 0.1}, "item-kind-not-used-by-role"),
    # an actor starts with and reorders only what it stocks; a supplier its raws
    ("suppliers.0.stock_kg.R3", 10.0, "item-not-stocked"),
    ("suppliers.0.reorder.R2", {"point": 1.0, "up_to": 2.0}, "item-not-stocked"),
    ("firm.fgi.P9", 5.0, "item-not-stocked"),
    ("firm.raw_stock_kg.R9", 5.0, "item-not-stocked"),
    ("firm.raw_reorder.R9", {"point": 1.0, "up_to": 2.0}, "item-not-stocked"),
    ("retailer.stock.P9", 5.0, "item-not-stocked"),
    ("retailer.reorder.P9", {"point": 1.0, "up_to": 2.0}, "item-not-stocked"),
    # and a per-product map reads only catalog products
    ("firm.production_mode.P9", "make-to-order", "unknown-product"),
    ("support.defect_probability.P9", 0.1, "unknown-product"),
    # every actor name is unique across the roles
    ("suppliers.0.name", "supplier2", "duplicate-actor-name"),
    ("customers.1.name", "retailer", "duplicate-actor-name"),
    ("sell.prospects.0.name", "customer1", "duplicate-actor-name"),
    # an integer field takes only a YAML int that is not a bool
    ("seed", 1.5, "parse"),
    ("seed", "3", "parse"),
    ("seed", True, "parse"),
    ("catalog.products", [1.7, 2, 3], "parse"),
    ("sell.prospects.1.priority", 2.9, "parse"),
    ("demand.rows.0.product", 1.9, "parse"),
    # a value of the wrong type anywhere in a section
    ("customers.1.name", [1], "parse"),
    ("firm.fgi.P1", "x", "parse"),
    ("suppliers", [5], "parse"),
    # a lead time or a reorder policy that is no mapping, or lacks a key
    ("firm.lead_time", "x", "parse"),
    ("suppliers.0.lead_time", 5, "parse"),
    ("retailer.lead_time", [1], "parse"),
    ("upstream.lead_time", "x", "parse"),
    ("firm.raw_reorder.R1", 5, "parse"),
    ("retailer.reorder.P1", [1], "parse"),
    ("firm.raw_reorder.R1.up_to", None, "parse"),
    ("suppliers.0.reorder.R1.point", None, "parse"),
    ("demand.rows.0.customer", None, "parse"),
    ("firm.lead_time.kind", 5, "parse"),
]
# a float field takes only a YAML int or float that is not a bool; these
# paths have parse cases above, so their ids also name the value
FLOAT_TYPE_CASES = [
    ("horizon_hours", "48", "parse"),
    ("horizon_hours", True, "parse"),
    ("prices.retailer.P1", True, "parse"),
]


def mutated(doc: dict, path: str, value) -> dict:
    """A deep copy of ``doc`` with the leaf at dotted ``path`` set to ``value``.

    ``None`` as the value removes the leaf instead.
    """
    doc = copy.deepcopy(doc)
    *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]
    node = doc
    for key in parents:
        node = node[key]
    if value is None:
        del node[last]
    else:
        node[last] = value
    return doc


@pytest.mark.parametrize(
    "path,value,code",
    CODE_CASES + FLOAT_TYPE_CASES,
    ids=[f"{code}:{path}" for path, _, code in CODE_CASES]
    + [f"{code}:{path}={value!r}" for path, value, code in FLOAT_TYPE_CASES],
)
def test_each_defect_gives_its_error_code(path, value, code):
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(mutated(PIN_DOC, path, value))
    assert err.value.code == code


README_CODES = re.search(
    r"The codes a\s+scenario document can produce are:(.*?)\n\n",
    (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8"),
    re.DOTALL,
)


def test_readme_lists_every_pinned_error_code():
    assert README_CODES is not None
    assert set(re.findall(r"`([a-z-]+)`", README_CODES.group(1))) == {c for _, _, c in CODE_CASES}


def test_the_satisfaction_weights_are_declared_in_their_class_like_every_spec():
    declared = [attr for attr, *_ in _declarations(SatisfactionParams)]
    assert declared == [f.name for f in fields(SatisfactionParams)]
    assert declared == list(PIN_DOC["satisfaction"])  # the document's key order
    assert SatisfactionParamsOfTheModel is SatisfactionParams


# the value an absent key reads as, at its path in the parsed document
ABSENT_KEY_DEFAULTS = {
    "name": "unnamed",
    "seed": 0,
    "horizon_hours": 48.0,
    "processes": {p: True for p in PIN_DOC["processes"]},  # from mode: vcor
    "suppliers.0.raws": [],
    "suppliers.0.stock_kg": {},
    "suppliers.0.reorder": {},
    "suppliers.0.frequencies.deliver": 4.0,
    "suppliers.0.frequencies.source": 4.0,
    "suppliers.0.lead_time": {"kind": "fixed", "hours": 1.5},
    "suppliers.0.lead_time.kind": "fixed",
    "suppliers.0.lead_time.hours": 0.0,  # a lead time given without hours
    "firm.name": "firm",
    "firm.fgi": {},
    "firm.raw_stock_kg": {},
    "firm.raw_reorder": {},
    "firm.production_mode": {},
    "firm.capacity_boxes_per_day": 185.0,
    "firm.frequencies.deliver": 2.5,
    "firm.frequencies.source": 3.0,
    "firm.frequencies.make": 3.0,
    "firm.lead_time": {"kind": "fixed", "hours": 2.0},
    "retailer.name": "retailer",
    "retailer.stock": {},
    "retailer.reorder": {},
    "retailer.frequencies.deliver": 2.0,
    "retailer.frequencies.source": 2.5,
    "retailer.lead_time": {"kind": "fixed", "hours": 1.5},
    "customers.0.lot_size": 1.0,
    "customers.0.arrivals": "deterministic",
    "upstream.name": "upstream",
    "upstream.frequencies.deliver": 4.0,
    "upstream.lead_time": {"kind": "fixed", "hours": 2.0},
    "demand.rows": [],
    "costs.holding_per_unit_hour": {},
    "costs.production_per_box": 0.0,
    "costs.support_per_ticket": 0.0,
    "satisfaction.initial_vote": 8.0,
    "satisfaction.forgetting_factor": 0.3,
    "satisfaction.support_weight": 0.5,
    "satisfaction.price_weight": 0.05,
    "satisfaction.delay_weight": -0.05,
    "satisfaction.quality_weight": 0.02,
    "satisfaction.peer_weight": 0.1,
    "support.defect_probability": {},
    "support.education_decay": 0.9,
    "support.handling_hours": 2.3,
    "support.max_defective_fraction": 0.25,
    "market.vote_threshold": 6.0,
    "market.frequency_hours": 6.0,
    "innovation.delay_hours": 8.0,
    "innovation.technology_cost": 500.0,
    "innovation.bom_override": None,
    "sell.capacity_fraction": 0.5,
    "sell.frequency_hours": 12.0,
    "sell.order_interval_hours": 6.0,
    "sell.prospects": [],
}


def leaf(doc: dict, path: str):
    for key in path.split("."):
        doc = doc[int(key) if key.isdigit() else key]
    return doc


@pytest.mark.parametrize("path,expected", ABSENT_KEY_DEFAULTS.items(), ids=list(ABSENT_KEY_DEFAULTS))
def test_an_absent_key_reads_as_its_default(path, expected):
    doc = mutated(PIN_DOC, path, None)
    if path == "suppliers.0.raws":  # a supplier without raws stocks, reorders and holds none
        doc = mutated(mutated(doc, "suppliers.0.stock_kg.R1", None), "suppliers.0.reorder.R1", None)
        doc = mutated(doc, "costs.holding_per_unit_hour.supplier1", None)
    parsed = scenario_from_dict(doc).to_dict()
    assert leaf(parsed, path) == expected
    assert type(leaf(parsed, path)) is type(expected)


def test_numbers_read_as_before():
    # lead times, prices and holding costs keep an int as written; other
    # numbers become floats, so existing documents keep their digests
    doc = mutated(PIN_DOC, "prices.retailer.P1", 10)
    doc = mutated(doc, "costs.holding_per_unit_hour.firm.R1", 0)
    doc = mutated(doc, "upstream.lead_time.hours", 2)
    doc = mutated(doc, "firm.fgi.P1", 500)
    parsed = scenario_from_dict(doc).to_dict()
    assert [type(leaf(parsed, path)) for path in (
        "prices.retailer.P1",
        "costs.holding_per_unit_hour.firm.R1",
        "upstream.lead_time.hours",
        "firm.fgi.P1",
    )] == [int, int, int, float]


def document_paths(node, prefix=()):
    """Every path into ``node``: keys of mappings, indices of lists."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from document_paths(child, prefix + (key,))


DOC_PATHS = list(document_paths(PIN_DOC))
ITEM_KEY_PATHS = [p for p in DOC_PATHS if re.fullmatch(r"[PR]\d+", str(p[-1]))]
ODD_VALUES = [-1, 0, math.nan, math.inf, "x", None, [1], {}]


@st.composite
def odd_documents(draw) -> dict:
    """The case-study document with one node replaced, or one item code's kind swapped."""
    doc = copy.deepcopy(PIN_DOC)
    swap = draw(st.booleans())
    *parents, last = draw(st.sampled_from(ITEM_KEY_PATHS if swap else DOC_PATHS))
    node = doc
    for key in parents:
        node = node[key]
    if swap:
        node[{"P": "R", "R": "P"}[last[0]] + last[1:]] = node.pop(last)
    else:
        node[last] = draw(st.sampled_from(ODD_VALUES))
    return doc


@settings(max_examples=300, deadline=None)
@given(odd_documents())
def test_an_odd_document_is_rejected_or_runs(doc):
    try:
        scenario = scenario_from_dict(doc)
    except ScenarioError:
        return
    run_scenario(replace(scenario, horizon_hours=min(scenario.horizon_hours, 24.0)))


def test_an_infinite_horizon_built_in_code_is_bad_horizon():
    # a document cannot carry one (``.inf`` is a parse error), but code can,
    # and the run would never end
    for horizon in (math.inf, math.nan):
        with pytest.raises(ScenarioError) as err:
            case_study_scenario("scor", 1, horizon)
        assert err.value.code == "bad-horizon"


@pytest.mark.parametrize(
    "spec,changes,code",
    [
        ("firm", {"make_every": math.inf}, "bad-frequency"),
        ("firm", {"capacity_boxes_per_day": math.inf}, "bad-capacity"),
        ("sell", {"order_interval_hours": math.inf}, "bad-frequency"),
        ("retailer", {"lead_time": LeadTime(hours=math.inf)}, "bad-lead-time"),
        ("retailer", {"lead_time": LeadTime("uniform", low=0.0, high=math.inf)}, "bad-lead-time"),
        ("support", {"handling_hours": math.inf}, "bad-handling-time"),
        ("innovation", {"delay_hours": math.inf}, "bad-innovation-delay"),
    ],
    ids=["frequency", "capacity", "order-interval", "lead-time", "uniform-lead-time", "handling",
         "delay"],
)
def test_an_infinite_time_or_capacity_built_in_code_is_rejected(spec, changes, code):
    # like the horizon: the engine schedules no event at infinity, and
    # production counts its capacity in whole boxes
    sc = case_study_scenario("vcor")
    with pytest.raises(ScenarioError) as err:
        replace(sc, **{spec: replace(getattr(sc, spec), **changes)})
    assert err.value.code == code


# -- an immutable scenario, validated when built -------------------------------


def init_fields(scenario: Scenario) -> dict:
    return {f.name: getattr(scenario, f.name) for f in fields(scenario) if f.init}


# defects expressible both as a field and as a document key of the same name
FIELD_DEFECTS = [
    ({"seed": -1}, "bad-seed"),
    ({"horizon_hours": -1.0}, "bad-horizon"),
    ({"mode": "x"}, "bad-mode"),
    ({"mode": "scor"}, "mode-toggle-conflict"),  # the VCOR toggles stay on
    ({"customers": []}, "no-customers"),
]


def build_by(route: str, changes: dict, tmp_path: Path) -> Scenario:
    base = case_study_scenario("vcor", 3, 24.0)
    if route == "constructor":
        return Scenario(**{**init_fields(base), **changes})
    if route == "replace":
        return replace(base, **changes)
    data = {**base.to_dict(), **changes}
    if route == "scenario_from_dict":
        return scenario_from_dict(data)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return load_scenario(path)


@pytest.mark.parametrize("changes,code", FIELD_DEFECTS, ids=[c for _, c in FIELD_DEFECTS])
@pytest.mark.parametrize(
    "route", ["constructor", "replace", "scenario_from_dict", "load_scenario"]
)
def test_no_route_builds_an_invalid_scenario(route, changes, code, tmp_path):
    with pytest.raises(ScenarioError) as err:
        build_by(route, changes, tmp_path)
    assert err.value.code == code


@pytest.mark.parametrize(
    "args,code",
    [(("x", 1, 48.0), "bad-mode"), (("scor", -1, 48.0), "bad-seed"),
     (("vcor", 1, -48.0), "bad-horizon")],
    ids=["bad-mode", "bad-seed", "bad-horizon"],
)
def test_case_study_scenario_builds_no_invalid_scenario(args, code):
    with pytest.raises(ScenarioError) as err:
        case_study_scenario(*args)
    assert err.value.code == code


@pytest.mark.parametrize(
    "target,attr",
    [
        (lambda sc: sc, "seed"),
        (lambda sc: sc, "processes"),
        (lambda sc: sc.firm, "name"),
        (lambda sc: sc.customers[0], "lot_size"),
        (lambda sc: sc.satisfaction, "initial_vote"),
        (lambda sc: sc.demand, "rows"),
    ],
    ids=["seed", "processes", "firm.name", "customers.0.lot_size", "satisfaction.initial_vote",
         "demand.rows"],
)
def test_a_scenario_and_its_specs_are_frozen(target, attr):
    obj = target(case_study_scenario("vcor"))
    with pytest.raises(FrozenInstanceError):
        setattr(obj, attr, getattr(obj, attr))


def test_absent_processes_follow_the_mode_on_every_route():
    for mode in MODES:
        sc = case_study_scenario(mode)
        built = Scenario(**{**init_fields(sc), "processes": None})
        assert built.processes == sc.processes
        assert replace(sc, processes=None).processes == sc.processes
    scor = case_study_scenario("scor")
    assert all(replace(scor, mode="vcor", processes=None).processes.values())


# (mode, seed, horizon, digests) of the case study as a full build of every
# spec made them, before the scenarios were derived from one template per
# mode; an int horizon keeps a digest of its own
CASE_STUDY_DIGESTS = [
    ("scor", 0, 48.0, ("bfed031cc2def53f", "b6230cd75169c1d4")),
    ("scor", 1, 0.5, ("7242d1487c8b789f", "82ae01e778789f16")),
    ("scor", 42, 48, ("c543a53c75358e1a", "3c10b096320c3dbe")),
    ("scor", 42, 48.0, ("221b4d72cdd18607", "d24750fa9edc5a36")),
    ("scor", 977, 2880.0, ("c83f634c21939e47", "88b189664152f971")),
    ("vcor", 0, 48.0, ("494e76949f95aff0", "b6230cd75169c1d4")),
    ("vcor", 1, 0.5, ("1d56b09814643bcf", "82ae01e778789f16")),
    ("vcor", 42, 48, ("275498c033bcb24d", "3c10b096320c3dbe")),
    ("vcor", 42, 48.0, ("0d3cbe91c892ac0a", "d24750fa9edc5a36")),
    ("vcor", 977, 2880.0, ("7768bd878bdd1cb4", "88b189664152f971")),
]


@pytest.mark.parametrize(
    "mode,seed,horizon,digests",
    CASE_STUDY_DIGESTS,
    ids=[f"{mode}-{seed}-{horizon!r}" for mode, seed, horizon, _ in CASE_STUDY_DIGESTS],
)
def test_a_derived_case_study_equals_a_fresh_build(mode, seed, horizon, digests):
    derived = case_study_scenario(mode, seed, horizon)
    fresh = Scenario(**{**init_fields(_case_study.__wrapped__(mode)),
                        "seed": seed, "horizon_hours": horizon})
    assert derived == fresh
    assert derived.to_dict() == fresh.to_dict()
    assert derived.digests() == fresh.digests() == digests
    assert type(derived.horizon_hours) is type(horizon)
    # every value of a rebuild from the document is new to the memo; the
    # rebuild's horizon is a float, so an int horizon has other digests
    rebuilt = scenario_from_dict(derived.to_dict())
    assert rebuilt == derived
    if type(horizon) is float:
        assert rebuilt.digests() == digests


def test_a_seed_sweep_checks_and_encodes_only_its_seeds(monkeypatch):
    for mode in MODES:
        case_study_scenario(mode).digests()
    references, checked, encoded = [], set(), set()
    at, encode = vcsim.scenario._at, vcsim.scenario._ENCODE
    monkeypatch.setattr(vcsim.scenario, "_check_references", lambda *v: references.append(v))
    monkeypatch.setattr(vcsim.scenario, "_at", lambda k, fn, v: checked.add(k) or at(k, fn, v))
    monkeypatch.setattr(vcsim.scenario, "_ENCODE", lambda v: encoded.add(type(v)) or encode(v))
    for seed in range(2000):
        for mode in MODES:
            case_study_scenario(mode, seed).digests()
    # no shared value, such as the firm, is checked or encoded again
    assert references == []
    assert checked == {"seed"} and encoded == {int}


def test_a_variant_and_a_later_derivation_from_its_template_give_fresh_digests():
    template = case_study_scenario("vcor", 5)
    template.digests()
    variant = replace(template, firm=replace(template.firm, capacity_boxes_per_day=150.0))
    assert variant.digests() == scenario_from_dict(variant.to_dict()).digests()
    derived = replace(template, seed=6)
    assert derived.digests() == scenario_from_dict(derived.to_dict()).digests()
    assert derived.digests()[1] != variant.digests()[1]
    # the record is no part of the document, the repr or equality
    assert "_record" not in derived.to_dict() and "_record" not in repr(derived)
    assert derived == scenario_from_dict(derived.to_dict())


def record_terms(scenario: Scenario) -> dict:
    """(holding cost per unit-hour, unit value) of each stock record of a run."""
    records = run_scenario(scenario).inventories
    return {key: (r.unit_holding_cost, r.unit_value) for key, r in records.items()}


def test_a_stock_record_takes_its_terms_from_the_scenario():
    template = case_study_scenario("vcor")
    terms = record_terms(template)
    # the firm prices no raw: it values R1 at the price of its source, supplier2
    assert terms["firm", "R1"] == (0.001, 2.0)
    assert terms["retailer", "P1"] == (0.004, 10.0)
    assert terms["customer1", "P1"] == (0.0, 0.0)  # made at the first delivery
    prices = {**template.prices, "supplier2": {**template.prices["supplier2"], "R1": 3.0}}
    variant = replace(template, prices=prices)
    terms = record_terms(variant)
    assert terms["firm", "R1"] == (0.001, 3.0) and terms["supplier1", "R1"] == (0.0008, 2.0)
    # every record the run made has its terms from the scenario's table,
    # which is derived: no parameter, document key, repr or assignment sets it
    assert terms.items() <= variant.holdings.items()
    assert "holdings" not in variant.to_dict() and "holdings" not in repr(variant)
    with pytest.raises(FrozenInstanceError):
        variant.holdings = {}
    with pytest.raises(TypeError):
        Scenario(holdings={})


@pytest.mark.parametrize("variant_first", [True, False], ids=["variant-first", "template-first"])
def test_each_run_holds_its_stock_at_its_own_costs(variant_first):
    # a derived scenario shares its template's record of checked values, which
    # holds the table of whichever of the two was validated last
    template = case_study_scenario("vcor")
    costs = {**template.holding_costs, "retailer": {"P1": 0.5, "P2": 0.5, "P3": 0.5}}
    builds = [lambda: replace(template, holding_costs=costs),
              lambda: case_study_scenario("vcor", 7)]
    for scenario in [build() for build in (builds if variant_first else builds[::-1])]:
        cost = scenario.holding_costs["retailer"]["P1"]
        assert record_terms(scenario)["retailer", "P1"] == (cost, 10.0)


def test_a_supplier_may_price_a_raw_it_does_not_produce():
    # the built-in case study prices every raw at every supplier, so a price
    # key is checked by its kind only: an exact rule would change its digests
    scenario = scenario_from_dict(PIN_DOC)
    assert 3 not in scenario.suppliers[0].raws and scenario.prices["supplier1"]["R3"] == 2.0


def test_a_value_that_fails_its_check_is_never_remembered():
    template = case_study_scenario("vcor")
    prices = {**template.prices, "retailer": {**template.prices["retailer"], "P1": -1.0}}
    for _ in range(2):
        with pytest.raises(ScenarioError) as err:
            replace(template, prices=prices)
        assert err.value.code == "negative-price"


# per field that ``_check_references`` reads: the mode of the template, a
# new value of that field alone that breaks a cross-reference, and its code
REFERENCE_BREAKS = {
    "mode": ("vcor", lambda t: "scor", "mode-toggle-conflict"),
    "processes": ("scor", lambda t: {**t.processes, "support": True}, "mode-toggle-conflict"),
    "products": ("vcor", lambda t: (1, 2, 3, 4), "missing-recipe"),
    "raws": ("vcor", lambda t: (1, 2, 3, 4), "raw-not-covered"),
    "bom": ("vcor", lambda t: {**t.bom, 9: {1: 1.0}}, "unknown-product"),
    "suppliers": (
        "vcor", lambda t: [replace(t.suppliers[0], raws=(9,)), *t.suppliers[1:]], "unknown-raw"
    ),
    "raw_sources": (
        "vcor", lambda t: {**t.raw_sources, 1: "supplier3"}, "raw-source-not-producer"
    ),
    "firm": ("vcor", lambda t: replace(t.firm, name="ghost"), "missing-price"),
    "retailer": ("vcor", lambda t: replace(t.retailer, name=t.firm.name), "duplicate-actor-name"),
    "customers": (
        "vcor",
        lambda t: [replace(t.customers[0], name="ghost"), *t.customers[1:]],
        "unknown-customer",
    ),
    "upstream": ("vcor", lambda t: replace(t.upstream, name="ghost"), "missing-price"),
    "demand": (
        "vcor",
        lambda t: DemandTable({**t.demand.rows, ("ghost", 1): (1.0,) * 12}),
        "unknown-customer",
    ),
    "prices": ("vcor", lambda t: {**t.prices, "upstream": {}}, "missing-price"),
    "holding_costs": (
        "vcor",
        lambda t: {**t.holding_costs, "retailer": {"R1": 0.1}},
        "item-kind-not-used-by-role",
    ),
    "support": (
        "vcor",
        lambda t: replace(t.support, defect_probability={**t.support.defect_probability, 9: 0.1}),
        "unknown-product",
    ),
    "innovation": ("vcor", lambda t: replace(t.innovation, bom_override={9: 1.0}), "unknown-raw"),
    "sell": (
        "vcor",
        lambda t: replace(t.sell, prospects=(replace(t.sell.prospects[0], product=9),)),
        "unknown-product",
    ),
}


def test_every_field_the_reference_checks_read_has_a_breaking_case():
    assert list(REFERENCE_BREAKS) == list(inspect.signature(_check_references).parameters)


@pytest.mark.parametrize("attr", list(REFERENCE_BREAKS))
def test_a_derived_scenario_that_breaks_a_reference_is_rejected(attr):
    mode, new_value, code = REFERENCE_BREAKS[attr]
    template = case_study_scenario(mode, 3)
    # the template's verdict is recorded, so only the values can tell the change
    passed = template._record["<references>"]
    assert all(a is b for a, b in zip(passed, _REFERENCED(template), strict=True))
    with pytest.raises(ScenarioError) as err:
        replace(template, **{attr: new_value(template)})
    assert err.value.code == code


def test_the_reference_checks_run_once_per_template_and_on_every_failure(monkeypatch):
    calls = []

    def counted(*values):
        calls.append(values)
        return _check_references(*values)

    monkeypatch.setattr(vcsim.scenario, "_check_references", counted)
    for mode in MODES:
        monkeypatch.delitem(_case_study(mode)._record, "<references>")
    for seed in range(1000, 1050):
        case_study_scenario(MODES[seed % 2], seed)
    assert len(calls) == len(MODES)
    template = case_study_scenario("vcor", 7)
    for failures in (1, 2):
        with pytest.raises(ScenarioError) as err:
            replace(template, products=(1, 2, 3, 4))
        assert err.value.code == "missing-recipe"
        assert len(calls) == len(MODES) + failures


def test_replace_gives_the_digests_of_the_new_values():
    sc = case_study_scenario("vcor", 5)
    assert replace(sc) == sc and replace(sc).digests() == sc.digests()
    assert replace(sc, seed=6).digests() == case_study_scenario("vcor", 6).digests()
    assert replace(sc, seed=6).digests() != sc.digests()


def test_a_long_run_leaves_the_shared_template_unchanged():
    template = _case_study("vcor")
    before = template.to_dict(), template.digests()
    run_scenario(case_study_scenario("vcor", 42, 2880.0))
    assert (template.to_dict(), template.digests()) == before


# a check formats the document path of its value only when it fails
PATH_MESSAGES = [
    ("customers.0.lot_size", 0, "customers.0.lot_size: 0.0 is not within (0, inf]"),
    (
        "retailer.reorder.P1",
        {"point": 500.0, "up_to": 500.0},
        "retailer.reorder.P1: ReorderPolicy(point=500.0, up_to=500.0) is not point < up_to",
    ),
    ("prices.retailer.P1", -1.0, "prices.retailer.P1: -1.0 is not >= 0"),
    (
        "sell.prospects.1.boxes_per_day",
        0,
        "sell.prospects.1.boxes_per_day: 0.0 is not within (0, inf]",
    ),
    (
        "satisfaction.forgetting_factor",
        1.5,
        "satisfaction.forgetting_factor: 1.5 is not within (0, 1)",
    ),
    (
        "suppliers.0.stock_kg.R3",
        10.0,
        "suppliers.0.stock_kg.R3 is never read: 'supplier1' stocks no R3",
    ),
    (
        "suppliers.0.reorder.R2",
        {"point": 1.0, "up_to": 2.0},
        "suppliers.0.reorder.R2 is never read: 'supplier1' stocks no R2",
    ),
    ("firm.fgi.P9", 5.0, "firm.fgi.P9 is never read: 'firm' stocks no P9"),
    ("firm.raw_stock_kg.R9", 5.0, "firm.raw_stock_kg.R9 is never read: 'firm' stocks no R9"),
    (
        "firm.raw_reorder.R9",
        {"point": 1.0, "up_to": 2.0},
        "firm.raw_reorder.R9 is never read: 'firm' stocks no R9",
    ),
    ("retailer.stock.P9", 5.0, "retailer.stock.P9 is never read: 'retailer' stocks no P9"),
    (
        "retailer.reorder.P9",
        {"point": 1.0, "up_to": 2.0},
        "retailer.reorder.P9 is never read: 'retailer' stocks no P9",
    ),
    (
        "firm.production_mode.P9",
        "make-to-order",
        "firm.production_mode.P9 is never read: the catalog has no P9",
    ),
    (
        "support.defect_probability.P9",
        0.1,
        "support.defect_probability.P9 is never read: the catalog has no P9",
    ),
    ("prices.retailer.P9", 10.0, "prices.retailer.P9 is never read: 'retailer' trades no P9"),
    (
        "costs.holding_per_unit_hour.firm.P9",
        0.1,
        "costs.holding_per_unit_hour.firm.P9 is never read: 'firm' holds no P9",
    ),
]


@pytest.mark.parametrize("path,value,message", PATH_MESSAGES, ids=[c[0] for c in PATH_MESSAGES])
def test_a_failed_check_names_the_full_document_path(path, value, message):
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(mutated(PIN_DOC, path, value))
    assert str(err.value) == message


# a value that fails to load names its document path the same way
LOAD_MESSAGES = [
    ("customers.1.name", [1], "customers.1.name: not a string: [1]"),
    ("firm.fgi.P1", "x", "firm.fgi.P1: not a number: 'x'"),
    ("suppliers", [5], "suppliers.0: not a mapping: 5"),
    ("seed", True, "seed: not an integer: True"),
    ("catalog.products", [1.7, 2, 3], "catalog.products.0: not an integer: 1.7"),
    ("demand.rows.3.product", 1.9, "demand.rows.3.product: not an integer: 1.9"),
    ("firm.frequencies", 5, "firm.frequencies: not a mapping: 5"),
    ("retailer.stock.R1", 5.0, "retailer.stock.R1: expected a product code, got R1"),
    ("prices.retailer.X1", 10.0, "prices.retailer.X1: bad item code: 'X1'"),
    ("prices.firm.P01", 99.0, "prices.firm.P01: bad item code: 'P01'"),
    ("retailer.stock. P1", 5.0, "retailer.stock. P1: bad item code: ' P1'"),
    ("firm.fgi.P²", 5.0, "firm.fgi.P²: bad item code: 'P²'"),
    ("firm.lead_time", "x", "firm.lead_time: not a mapping: 'x'"),
    ("retailer.lead_time.hours", "x", "retailer.lead_time.hours: not a number: 'x'"),
    ("firm.raw_reorder.R1", 5, "firm.raw_reorder.R1: not a mapping: 5"),
    ("firm.raw_reorder.R1.up_to", None, "firm.raw_reorder.R1: missing key 'up_to'"),
    ("retailer.reorder.P1.point", "x", "retailer.reorder.P1.point: not a number: 'x'"),
    ("demand.rows.0.monthly", None, "demand.rows.0: missing key 'monthly'"),
    ("demand.rows.0.customer", [1], "demand.rows.0.customer: not a string: [1]"),
    ("firm.fgi", [], "firm.fgi: not a mapping: []"),
    ("innovation.bom_override", 0, "innovation.bom_override: not a mapping: 0"),
    ("mode", ["vcor"], "mode: not a string: ['vcor']"),
    ("customers.0.arrivals", 5, "customers.0.arrivals: not a string: 5"),
    ("firm.production_mode.P1", True, "firm.production_mode.P1: not a string: True"),
    ("firm.lead_time.kind", 5, "firm.lead_time.kind: not a string: 5"),
    # a key that no declaration reads is an error at its mapping, not a typo dropped
    ("horizon_hour", 2880, "unknown key 'horizon_hour'"),
    ("catalog.product", [1], "catalog: unknown key 'product'"),
    ("firm.frequencies.mak", 3.0, "firm.frequencies: unknown key 'mak'"),
    ("support.handling_hour", 2.3, "support: unknown key 'handling_hour'"),
    ("firm.raw_reorder.R1.upto", 250.0, "firm.raw_reorder.R1: unknown key 'upto'"),
    ("sell.prospects.0.prio", 1, "sell.prospects.0: unknown key 'prio'"),
    ("demand.rows.0.monthy", [1.0] * 12, "demand.rows.0: unknown key 'monthy'"),
    ("demand.file", "demand.csv", "demand: unknown key 'rows'"),
    # a lead time reads only the keys of its kind
    ("suppliers.0.lead_time.kind", "uniform", "suppliers.0.lead_time: unknown key 'hours'"),
    (
        "retailer.lead_time",
        {"kind": "exponential", "low": 1, "high": 5},
        "retailer.lead_time: unknown key 'low'",
    ),
]


@pytest.mark.parametrize("path,value,message", LOAD_MESSAGES, ids=[c[0] for c in LOAD_MESSAGES])
def test_a_value_that_fails_to_load_names_its_document_path(path, value, message):
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(mutated(PIN_DOC, path, value))
    assert str(err.value) == message


# every key a document must give, each missing one named with its mapping's path
REQUIRED_KEYS = {
    "suppliers.0.name",
    "suppliers.0.reorder.R1.point",
    "suppliers.0.reorder.R1.up_to",
    "firm.raw_reorder.R1.point",
    "firm.raw_reorder.R1.up_to",
    "retailer.reorder.P1.point",
    "retailer.reorder.P1.up_to",
    "customers.0.name",
    "demand.rows.0.customer",
    "demand.rows.0.product",
    "demand.rows.0.monthly",
    "sell.prospects.0.name",
    "sell.prospects.0.priority",
    "sell.prospects.0.product",
    "sell.prospects.0.boxes_per_day",
}


def test_a_missing_key_reads_as_its_default_or_is_a_parse_error_at_its_mapping():
    # each key of the document, in the first entry of each list and item map
    paths = [
        ".".join(map(str, p))
        for p in DOC_PATHS
        if isinstance(p[-1], str)
        and all(k == 0 for k in p if isinstance(k, int))
        and all(k in ("P1", "R1") for k in p if re.fullmatch(r"[PR]\d+", str(k)))
    ]
    missing = {}
    for path in paths:
        try:
            scenario_from_dict(mutated(PIN_DOC, path, None))
        except ScenarioError as err:
            if err.code == "parse":
                missing[path] = str(err)
    assert missing == {
        path: "{}: missing key {!r}".format(*path.rsplit(".", 1)) for path in REQUIRED_KEYS
    }


@pytest.mark.parametrize("value", ["false", [1], 1], ids=repr)
def test_a_process_toggle_that_is_no_boolean_is_a_parse_error(value):
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(mutated(PIN_DOC, "processes.market", value))
    assert err.value.code == "parse"
    assert str(err.value) == f"processes.market: not a boolean: {value!r}"


@pytest.mark.parametrize("base_dir", [None, Path(".")], ids=["no-base-dir", "base-dir"])
def test_a_demand_file_that_is_no_string_is_a_parse_error(base_dir):
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({**PIN_DOC, "demand": {"file": 5}}, base_dir=base_dir)
    assert err.value.code == "parse"
    assert str(err.value) == "demand.file: not a string: 5"


def test_a_second_inline_demand_row_for_a_pair_is_bad_demand_row():
    doc = copy.deepcopy(PIN_DOC)
    doc["demand"]["rows"].append({"customer": "customer1", "product": 1, "monthly": [1.0] * 12})
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.code == "bad-demand-row"
    assert str(err.value) == "demand.rows.6: a second row for customer1/P1"


# -- reading files: encoding and the YAML loader ------------------------------


@pytest.mark.parametrize(
    "old,new",
    [
        ("name: case-study-vcor", "name: [1]"),
        ("name: case-study-vcor", "name: {a: 1}"),
        ("name: case-study-vcor", "name: &a [*a]"),
        ("- name: customer1", "- name: [1]"),
        ("R1: supplier2", "R1: [1]"),
    ],
    ids=["list", "mapping", "recursive-alias", "customer-name", "raw-source"],
)
def test_a_name_that_is_not_a_string_is_a_parse_error(tmp_path, old, new):
    text = yaml.safe_dump(case_study_scenario("vcor").to_dict(), sort_keys=False)
    assert text.count(old) == 1
    path = tmp_path / "scenario.yaml"
    path.write_text(text.replace(old, new), encoding="utf-8")
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert err.value.code == "parse"


def test_a_scenario_file_that_is_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "latin1.yaml"
    path.write_bytes("name: café\n".encode("latin-1"))
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert err.value.code == "parse"
    assert str(path) in str(err.value)


def test_a_demand_table_that_is_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "demand.csv"
    text = demand_table_csv(case_study_scenario().demand).replace("customer1", "café")
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(ScenarioError) as err:
        load_demand_table(path)
    assert err.value.code == "parse"
    assert str(path) in str(err.value)


@pytest.mark.parametrize(
    "text",
    ["seed: 2001-13-01\n", "seed: !!int ''\n", "seed: !!float x\n", "name: !!bool x\n",
     "name: !!timestamp x\n"],
    ids=repr,
)
def test_a_scalar_its_tag_cannot_build_is_a_parse_error(tmp_path, text):
    path = tmp_path / "scenario.yaml"
    path.write_text("schema: 1\n" + text, encoding="utf-8")
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert err.value.code == "parse"


def test_the_loader_is_libyaml_where_pyyaml_has_it():
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert _LOADER is expected


def written_documents(directory: Path) -> list[Path]:
    """Every YAML document the package writes: both modes, both demand forms, the demo."""
    paths = []
    for mode in MODES:
        for demand_file in (None, f"{mode}-demand.csv"):
            path = directory / f"{mode}-{'file' if demand_file else 'inline'}.yaml"
            save_scenario(case_study_scenario(mode, 11, 480.0), path, demand_file=demand_file)
            paths.append(path)
    assert main(["demo", "--out", str(directory / "demo")]) == 0
    return paths + sorted((directory / "demo").glob("*.yaml"))


def test_every_written_document_loads_alike_with_both_loaders(tmp_path, capsys):
    for path in written_documents(tmp_path):
        text = path.read_text(encoding="utf-8")
        assert _loader_for(text) is _LOADER, path
        assert yaml.load(text, Loader=_LOADER) == yaml.load(text, Loader=yaml.SafeLoader), path


def test_a_document_nested_too_deep_is_a_parse_error(tmp_path):
    """Nesting that would overflow libyaml's C recursion is read by the pure-Python loader.

    In a subprocess, since a stack overflow there would end the test run.
    """
    depth = 30_000  # past where libyaml's composer crashed on Linux
    base = yaml.safe_dump(CASE_DOC, sort_keys=False)
    paths = [tmp_path / "flow.yaml", tmp_path / "block.yaml"]
    paths[0].write_text(base + "x: " + "[" * depth + "]" * depth + "\n", encoding="utf-8")
    paths[1].write_text(base + "x:\n" + "- " * depth + "y\n", encoding="utf-8")
    script = (
        "import sys\n"
        "from vcsim.scenario import ScenarioError, load_scenario\n"
        "for path in sys.argv[1:]:\n"
        "    try:\n"
        "        load_scenario(path)\n"
        "    except ScenarioError as exc:\n"
        "        print(exc.code)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(vcsim.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", script, *map(str, paths)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    assert out.split() == ["parse"] * len(paths)


def test_the_pure_python_loader_gives_the_same_scenarios(tmp_path, capsys):
    """Where PyYAML lacks libyaml, ``load_scenario`` falls back and reads the same scenarios."""
    paths = written_documents(tmp_path)
    script = (
        "import json, sys\n"
        "sys.modules['yaml._yaml'] = None  # as if PyYAML were built without libyaml\n"
        "import yaml\n"
        "from vcsim.scenario import _LOADER, load_scenario\n"
        "assert not yaml.__with_libyaml__ and _LOADER is yaml.SafeLoader\n"
        "for path in sys.argv[1:]:\n"
        "    sc = load_scenario(path)\n"
        "    print(json.dumps([sc.to_dict(), sc.digests()], sort_keys=True))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(vcsim.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", script, *map(str, paths)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    expected = [
        json.dumps([sc.to_dict(), sc.digests()], sort_keys=True)
        for sc in map(load_scenario, paths)
    ]
    assert out.splitlines() == expected


def read_or_none(text: str, loader):
    try:
        return yaml.load(text, Loader=loader)
    except yaml.YAMLError:
        return None


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize(
    "text,pure,libyaml",  # what each loader reads; None: it rejects the text
    [
        ("name: a\tb\n", None, {"name": "a\tb"}),
        ("name: !\n", {"name": None}, {"name": ""}),
        ("a: 1\n\ufeffb: 2\n", {"a": 1, "\ufeffb": 2}, None),
        ("a: 1\n\ufeff# note\nb: 2\n", None, {"a": 1, "b": 2}),
    ],
    ids=["tab-in-plain-scalar", "bare-tag", "bom-before-key", "bom-before-comment"],
)
def test_the_loaders_differ_as_the_readme_says(text, pure, libyaml):
    assert read_or_none(text, yaml.SafeLoader) == pure
    assert read_or_none(text, yaml.CSafeLoader) == libyaml


YAML_EDIT_CHARS = ":-[]{},#&*!|>'\"%@`?\t\n .0123456789PRabxe\u00e9\ufeff"


@st.composite
def edited_case_study_texts(draw) -> tuple[str, bool]:
    """The case-study YAML, either mode, demand inline or in a CSV, with 1-4 text edits."""
    mode = draw(st.sampled_from(MODES))
    demand_file = draw(st.booleans())
    text = CASE_STUDY_TEXTS[mode, demand_file]
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 4))
        new = draw(st.text(st.sampled_from(YAML_EDIT_CHARS), max_size=4))
        text = text[:at] + new + text[at + cut:]
    return text, demand_file


def _case_study_texts() -> dict:
    texts = {}
    for mode in MODES:
        sc = case_study_scenario(mode, 11, 48.0)
        texts[mode, False] = yaml.safe_dump(sc.to_dict(), sort_keys=False)
        texts[mode, True] = yaml.safe_dump(
            {**sc.to_dict(), "demand": {"file": "demand.csv"}}, sort_keys=False
        )
    return texts


CASE_STUDY_TEXTS = _case_study_texts()


@settings(max_examples=300, deadline=None)
@given(edited_case_study_texts())
def test_an_edited_document_loads_or_is_a_scenario_error(tmp_path_factory, edited):
    text, demand_file = edited
    directory = tmp_path_factory.getbasetemp() / "edited"
    if not directory.exists():
        directory.mkdir()
        (directory / "demand.csv").write_text(
            demand_table_csv(case_study_scenario().demand), encoding="utf-8"
        )
    path = directory / ("inline.yaml", "csv.yaml")[demand_file]
    path.unlink(missing_ok=True)  # a new file: truncating one just written can cost ~30 ms
    path.write_text(text, encoding="utf-8")
    try:
        assert isinstance(load_scenario(path), Scenario)
    except ScenarioError:
        pass
