"""Byte-identity corpus: the artifact bytes of many small runs, pinned by hash.

``tests/goldens/corpus.sha256`` holds one line per run: the draw's index,
its mode, the horizon, then the sha256 of each artifact file in
``ARTIFACT_FILES`` order. The runs are the 200 randomized scenarios of the
conservation suite (``test_acceptance._random_scenario``) at their own
24-48 h horizons, and the first ``LONG_RUNS`` of them again at 480 h, long
enough that production carries a fraction of capacity across activations
and backlogs clear and refill. Each run's ``ledger.jsonl`` must also replay
through ``Ledger.from_lines`` and export as written. A slice of the runs is
repeated in two subprocesses under other string hash seeds than this
process's.

The manifest changes only with a deliberate change of model behaviour, as
the goldens do. To rewrite it after one::

    PYTHONPATH=src python tests/test_corpus.py
"""

from __future__ import annotations

import functools
import hashlib
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import vcsim
from vcsim.ledger import Ledger, LedgerError
from vcsim.simulation import run_scenario

from test_acceptance import _random_scenario
from test_golden_files import ARTIFACT_FILES

MANIFEST = Path(__file__).parent / "goldens" / "corpus.sha256"
DRAWS = 200
LONG_RUNS = 20
LONG_HORIZON = 480.0
# the first 10 draws, and the first 2 of them at 480 h
HASH_SEED_RUNS = [(i, None) for i in range(10)] + [(i, LONG_HORIZON) for i in range(2)]


def corpus_runs() -> list[tuple[int, float | None]]:
    """(draw index, horizon override or None) of every run, in manifest order."""
    return [(i, None) for i in range(DRAWS)] + [(i, LONG_HORIZON) for i in range(LONG_RUNS)]


def manifest_line(index: int, horizon: float | None, out_dir: Path) -> str:
    """Run one draw into ``out_dir`` and return its manifest line."""
    scenario = _random_scenario(index)
    if horizon is not None:
        scenario = replace(scenario, horizon_hours=horizon)
    run_scenario(scenario, out_dir=out_dir)
    digests = [
        hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in ARTIFACT_FILES
    ]
    return " ".join([str(index), scenario.mode, repr(scenario.horizon_hours), *digests])


@functools.cache
def pinned() -> dict[tuple[int, float | None], str]:
    """The manifest's line of every run."""
    lines = [
        line for line in MANIFEST.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    return dict(zip(corpus_runs(), lines, strict=True))


def _replay_fault(ledger_file: Path) -> str | None:
    """Why ``ledger_file`` does not replay and export as written, or None."""
    lines = ledger_file.read_text(encoding="utf-8").splitlines()
    try:
        exported = Ledger.from_lines(lines).export_lines()
    except LedgerError as exc:
        return f"ledger.jsonl does not replay: {exc}"
    return None if exported == lines[1:] else "ledger.jsonl exports other lines"


def _differing(runs: list[tuple[int, float | None]], out_dir: Path) -> list[str]:
    """The runs whose line differs from the manifest's, each with the files
    that differ, and the runs whose ledger does not replay as written."""
    differing = []
    for run in runs:
        line, expected = manifest_line(*run, out_dir).split(), pinned()[run].split()
        if line != expected:
            files = [
                name for name, got, want in zip(ARTIFACT_FILES, line[3:], expected[3:])
                if got != want
            ]
            differing.append(f"{' '.join(line[:3])}: {', '.join(files) or 'mode or horizon'}")
        fault = _replay_fault(out_dir / "ledger.jsonl")
        if fault:
            differing.append(f"{' '.join(line[:3])}: {fault}")
    return differing


def test_draws_at_their_own_horizons_match_manifest(tmp_path):
    assert _differing(corpus_runs()[:DRAWS], tmp_path) == []


def test_first_draws_at_480_h_match_manifest(tmp_path):
    assert _differing(corpus_runs()[DRAWS:], tmp_path) == []


def test_a_slice_matches_manifest_under_other_hash_seeds():
    # str hashes are salted per process (CI's runs each get a random salt),
    # so iterating a set or a dict keyed by hash must not reach the bytes
    script = (
        "import tempfile\n"
        "from pathlib import Path\n"
        "from test_corpus import HASH_SEED_RUNS, manifest_line\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    for run in HASH_SEED_RUNS:\n"
        "        print(manifest_line(*run, Path(tmp)))\n"
    )
    path = os.pathsep.join([str(Path(vcsim.__file__).parents[1]), str(Path(__file__).parent)])
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("1", "2")
    ]
    # both read to the end before any assertion, so that neither outlives the test
    results = [(p.communicate(timeout=120)[0].splitlines(), p.returncode) for p in procs]
    expected = [pinned()[run] for run in HASH_SEED_RUNS]
    assert results == [(expected, 0), (expected, 0)]


if __name__ == "__main__":
    header = "# index mode horizon_hours " + " ".join(f"sha256({name})" for name in ARTIFACT_FILES)
    with tempfile.TemporaryDirectory() as tmp:
        body = [manifest_line(i, h, Path(tmp)) for i, h in corpus_runs()]
    MANIFEST.write_text("\n".join([header, *body]) + "\n", encoding="utf-8")
