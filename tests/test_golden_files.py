"""Frozen artifact-file regression: exports must stay byte-stable.

The files under tests/goldens/micro were produced by the micro scenario of
test_golden and committed. Any change to the serialization formats, the
event schedule, or the provenance headers shows up here as a byte diff.
"""

import hashlib
from pathlib import Path

import pytest

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


# sha256 of the case study's VCOR artifacts at 480 h, seed 42; float sums in
# the simulation and the report fold left to right, so these hold on every
# supported Python, not only on the one that wrote them
CASE_STUDY_VCOR_480_SHA256 = {
    "trace.jsonl": "d39015a20959e9c5f790f363f2bbe18ee4777318d150cc2be9008442e5b3fa7f",
    "ledger.jsonl": "c457505b6882b3e3dc7b5234de077a75921c183aa9462d405025b482340d7819",
    "costs.jsonl": "67ff3397ccab459829757e03ec0d7addd4bbd0476c1047c2d0f382cbcdc48ae8",
    "satisfaction.jsonl": "909453378ee4000ccf24bee24bbb58b2cba504f2549018c9a37bdffa1b46a3c7",
    "kpi.json": "d9024d26e4c390acd67dd897bc42d5b373ff51cfbc536b5ca81eca0d51fa6b79",
    "delivery_times.csv": "4d49988e26af1f2ed7c10b7668ef1ff66f53ff1420b41aef3ce3a92a02aeadb9",
}


def test_case_study_artifacts_match_their_pinned_digests(tmp_path):
    run_scenario(case_study_scenario(mode="vcor", seed=42, horizon_hours=480.0), out_dir=tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ARTIFACT_FILES
    }
    assert digests == CASE_STUDY_VCOR_480_SHA256
