"""Golden records: every shipped config, run at its own seed, writes the
same bytes as when these hashes were taken.

A refactor of the run path must leave them unchanged; a change that
alters results on purpose updates the hashes and says why.  ``meta.json``
holds wall time and the output directory, so it is not compared.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from tomolab.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    "estimate_wrong_prior": {
        "covariance.csv": "545e20c27b82ce1a640ae676e7284c039fe00e5b6961ef46470ef1a92153ee3f",
        "record.json": "2fa66b970e63fcef555e0566b30f9dbc6084fb9e5d5043ab637ab5b2ee5ec13c",
        "steps.csv": "82b5dcd88142fa51573300ed81062f130913fb62a52c8e36d9ae4d113e9aec4a",
    },
    "qpt_hadamard_mix": {
        "covariance.csv": "d74e638035e119f2a3b9bc1b1eb972ad64ccde79fb574982976d462df9b7ca88",
        "record.json": "ebdd736f072274b2d95ff86c05ca664765d0ea54770af885b67df0814390070e",
        "steps.csv": "d8b687e8c68bbd3be63cd7236cd351b8d890761cafc43c39d3a08977bf44a2d1",
    },
    "risk_qutrit_matched": {
        "record.json": "1375130307a33ed58682b2730a36c477f3c91cbebb77e83e84aa4c909929f465",
        "risk_curve.csv": "d1f05a2b1d7276cb70a161156284ca06558f541e80bcd89be96da5dc002d66d4",
        "trials_loss.csv": "ff5333745964ca00193628cbfcd5d9f3a59a4d007a48864e2019262fd67449a7",
    },
    "sample_ginibre_qutrit": {
        "samples.csv": "3f0ef10d6d7408445d240c2256ab1ae40e73dd997e8702b6debecb7257277943",
    },
    "track_two_tone": {
        "covariance.csv": "7d255a3a2e7be803de6bcb949006eb4f77b9698718d24bb78e861309bd6971cf",
        "record.json": "f45745d520175959dca88ac9ec707a70db82efd0f41a31364e4b4d0ad8f66177",
        "steps.csv": "ce478586b1ddc454ed6684a02c45bb46cf75bfdc6f33ba60462bd1bffb49a4a4",
    },
}


@pytest.mark.parametrize("name, threads", [
    ("estimate_wrong_prior", "1"),
    ("qpt_hadamard_mix", "1"),
    ("risk_qutrit_matched", "1"),
    ("risk_qutrit_matched", "2"),
    ("sample_ginibre_qutrit", "1"),
    ("track_two_tone", "1"),
])
def test_shipped_config_outputs(name, threads, tmp_path, monkeypatch):
    monkeypatch.setenv("TOMOLAB_THREADS", threads)
    path = CONFIGS / f"{name}.json"
    mode = json.loads(path.read_text(encoding="utf-8"))["mode"]
    assert main([mode, "--config", str(path), "--out", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir() if p.name != "meta.json"}
    assert written == GOLDEN[name]
