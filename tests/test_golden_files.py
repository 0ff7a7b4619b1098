"""Frozen artifact-file regression: exports must stay byte-stable.

The files under tests/goldens/micro were produced by the micro scenario of
test_golden and committed. Any change to the serialization formats, the
event schedule, or the provenance headers shows up here as a byte diff.
"""

import hashlib
import json
from pathlib import Path

import pytest
import yaml

from vcsim.cli import main
from vcsim.ledger import Ledger
from vcsim.scenario import case_study_scenario
from vcsim.simulation import run_scenario

from test_golden import micro_scenario

GOLDEN_DIR = Path(__file__).parent / "goldens" / "micro"
ARTIFACT_FILES = [
    "trace.jsonl",
    "ledger.jsonl",
    "costs.jsonl",
    "satisfaction.jsonl",
    "kpi.json",
    "delivery_times.csv",
]


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("micro-run")
    run_scenario(micro_scenario(), out_dir=out)
    return out


@pytest.mark.parametrize("name", ARTIFACT_FILES)
def test_artifact_file_matches_committed_golden(fresh_run, name):
    produced = (fresh_run / name).read_bytes()
    expected = (GOLDEN_DIR / name).read_bytes()
    assert produced == expected, f"{name} drifted from the committed golden"


def test_committed_ledger_replays_and_exports_byte_for_byte():
    text = (GOLDEN_DIR / "ledger.jsonl").read_text(encoding="utf-8")
    header, _, body = text.partition("\n")
    assert json.loads(header)["record"] == "header"
    exported = Ledger.from_lines(text.splitlines()).export_lines()
    assert "".join(line + "\n" for line in exported) == body


# sha256 of the case study's VCOR artifacts at 480 h, seed 42; float sums in
# the simulation and the report fold left to right, so these hold on every
# supported Python, not only on the one that wrote them
CASE_STUDY_VCOR_480_SHA256 = {
    "trace.jsonl": "d39015a20959e9c5f790f363f2bbe18ee4777318d150cc2be9008442e5b3fa7f",
    "ledger.jsonl": "c457505b6882b3e3dc7b5234de077a75921c183aa9462d405025b482340d7819",
    "costs.jsonl": "67ff3397ccab459829757e03ec0d7addd4bbd0476c1047c2d0f382cbcdc48ae8",
    "satisfaction.jsonl": "909453378ee4000ccf24bee24bbb58b2cba504f2549018c9a37bdffa1b46a3c7",
    "kpi.json": "879f7d2194b600272092f6401fc3e53926fb700dfbeffe15ffe1e672648f9cdc",
    "delivery_times.csv": "4d49988e26af1f2ed7c10b7668ef1ff66f53ff1420b41aef3ce3a92a02aeadb9",
}


# the same at seed 42 for SCOR at 480 h, and for both modes at 48 h, the
# horizon of the benchmark's pairs
CASE_STUDY_SCOR_480_SHA256 = {
    "trace.jsonl": "6417ad9c3e5010308c6f28f76d2a65b25471a941cc5de8c47bb95248f2824a6d",
    "ledger.jsonl": "59c1c96fc8da0c3f5b8a40684709f93a933ed43143fd71c48e0ca532432a055c",
    "costs.jsonl": "332171969fb2211d48bf272a12c442716f30c839676cc5f11c1bc9216ead6e7d",
    "satisfaction.jsonl": "67e8b4975d5084e881c17ed9d0ac7054bb7bb956d3c5179fa06f3dcae3aeda23",
    "kpi.json": "a1e3f4158c37439ad3567661b6b7e49673bd5a3ab6966671707d86836a8efa15",
    "delivery_times.csv": "fed02dbf891ea8045a172ea7756c0b1f89b6c1d6db1461e9ac93ca5e76f8b7ea",
}
CASE_STUDY_SCOR_48_SHA256 = {
    "trace.jsonl": "94d1a4a2de84055f4dccefdf13a931c8289450cc339812bd592323b259127ded",
    "ledger.jsonl": "7a771bde7e69f98018527efea63b7a3c5c321f88520f8da8f65f37dc5892ad8b",
    "costs.jsonl": "6f853d4a20ae830661ec645387b487fdbebb356c7cc0fdeb3a653b5171bc905f",
    "satisfaction.jsonl": "89aee2763f715a2c6f1a03003141cee3f8a1294509cd62479e427da1087eeb26",
    "kpi.json": "715798001290934f5a0cabd1064f2d24174cd3fa797c6d17a4ed0d281722c85c",
    "delivery_times.csv": "78cf75af84e4ddf6c90233040d612c49d4f3dccc7e4278966f23381830cd52d1",
}
CASE_STUDY_VCOR_48_SHA256 = {
    "trace.jsonl": "410fd78c504576ead27a8ed198848492ca06714b56b7da85100b2c252aa24318",
    "ledger.jsonl": "1f081298c3b495f83e6adca87cc58c64af454902bfde40f5fcbccfb41e16019c",
    "costs.jsonl": "b2ec33adc74a1175d120023316757d2b4e45fbc4c57f4f5316fed9f8e7b8d021",
    "satisfaction.jsonl": "36c1997c053df7d96ef436b0f38a03526c0ca9b4556db5974bf37968cf92a0e2",
    "kpi.json": "1bc7e6e9024c8c4511310ca1af62bac6b92bdf0b35801a7283147e76ec242784",
    "delivery_times.csv": "7b9db9629a8e12ec7343967dd7a66fc7c3604500c7bc85a320bf885d71ccdcf6",
}


def _case_study_digests(out_dir, mode, horizon_hours):
    run_scenario(
        case_study_scenario(mode=mode, seed=42, horizon_hours=horizon_hours), out_dir=out_dir
    )
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ARTIFACT_FILES
    }


def test_case_study_artifacts_match_their_pinned_digests(tmp_path):
    assert _case_study_digests(tmp_path, "vcor", 480.0) == CASE_STUDY_VCOR_480_SHA256


@pytest.mark.parametrize(
    "mode, horizon_hours, pinned",
    [
        ("scor", 480.0, CASE_STUDY_SCOR_480_SHA256),
        ("scor", 48.0, CASE_STUDY_SCOR_48_SHA256),
        ("vcor", 48.0, CASE_STUDY_VCOR_48_SHA256),
    ],
    ids=["scor-480", "scor-48", "vcor-48"],
)
def test_more_case_study_artifacts_match_their_pinned_digests(
    tmp_path, mode, horizon_hours, pinned
):
    assert _case_study_digests(tmp_path, mode, horizon_hours) == pinned


# sha256 of the case study's scenario documents, ``to_dict()`` dumped as
# ``save_scenario`` dumps it, and of the files ``vcsim demo`` writes at its
# defaults; a spec declared in another field order would reorder the keys
CASE_STUDY_DOCUMENT_SHA256 = {
    "scor": "a2aa804c73d7ded8a741321d5a48ca60524dc8965d70838abbd9bd959ca93005",
    "vcor": "d174aa6ea2ab894d079857251fafbaf24cfa06fd644788026ef3fad2366d3685",
}
DEMO_FILES_SHA256 = {
    "demand.csv": "0fbce3d548f23f9ec55fb68b5515273dc14e923b72950d4a754e6094af5c8fee",
    "scor.yaml": "7074e0386e18ce42c4c338f43abaf8c9a8035a8bf2961aca507a687b453e1b55",
    "vcor.yaml": "f514a70b0d948580b1c7462757c1c809e1f085ee6b03ce935c6d176566c4d068",
}


@pytest.mark.parametrize("mode", sorted(CASE_STUDY_DOCUMENT_SHA256))
def test_case_study_document_matches_its_pinned_digest(mode):
    text = yaml.safe_dump(case_study_scenario(mode).to_dict(), sort_keys=False)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CASE_STUDY_DOCUMENT_SHA256[mode]


def test_demo_files_match_their_pinned_digests(tmp_path):
    assert main(["demo", "--out", str(tmp_path)]) == 0
    assert {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()
    } == DEMO_FILES_SHA256
