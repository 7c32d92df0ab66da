"""Committed `cdhom verify --suite rep` reports, re-run and compared byte for byte.

Each file under reference_reports/ is the JSON report of one model with its
`environment` block left out, since that block names the installed versions.
A change that moves any residual, parameter or note of the rep suite shows
here.  To rewrite the files after a deliberate change of the reports, run

    PYTHONPATH=src python tests/test_reference_reports.py
"""

import json
from pathlib import Path

import pytest

from cdhom.verify import RunConfig, run_suite

REFERENCE_DIR = Path(__file__).resolve().parent / "reference_reports"

# File stem -> (lambda, m, mu).
MODELS = {
    "rep_1_1": (1.0, 1, (1.0, 1.0)),
    "rep_1.6_2": (1.6, 2, (1.0,) * 3),
    "rep_3.7_6": (3.7, 6, (1.0,) * 7),
    "rep_5_8": (5.0, 8, (1.0,) * 9),
    "rep_8_12": (8.0, 12, (1.0,) * 13),
    "rep_1_1_mu_1e-8_1e8": (1.0, 1, (1e-8, 1e8)),
}


def rep_report(lam: float, m: int, mu: tuple[float, ...]) -> str:
    """The JSON that `cdhom verify --suite rep` writes for the model, without its environment block."""
    payload = json.loads(run_suite(RunConfig(lam=lam, m=m, mu=mu), "rep").to_json())
    del payload["environment"]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("stem", sorted(MODELS))
def test_rep_report_matches_its_reference(stem):
    expected = (REFERENCE_DIR / f"{stem}.json").read_text(encoding="utf-8")
    assert rep_report(*MODELS[stem]) == expected


if __name__ == "__main__":
    REFERENCE_DIR.mkdir(exist_ok=True)
    for stem, model in MODELS.items():
        (REFERENCE_DIR / f"{stem}.json").write_text(rep_report(*model), encoding="utf-8")
