"""Committed `cdhom verify` reports of the rep, shift and operator suites, re-run and compared byte for byte.

Each file under reference_reports/ is the JSON report of one suite at one model,
named <suite>_<model>.json, with its `environment` block left out, since that
block names the installed versions.  A change that moves any residual,
parameter or note of these suites shows here.  To rewrite the files after a
deliberate change of the reports, run

    PYTHONPATH=src python tests/test_reference_reports.py
"""

import json
from pathlib import Path

import pytest

from cdhom.verify import RunConfig, run_suite

REFERENCE_DIR = Path(__file__).resolve().parent / "reference_reports"
SUITES = ("rep", "shift", "operator")

# Model name in the file stem -> (lambda, m, mu).
MODELS = {
    "1_1": (1.0, 1, (1.0, 1.0)),
    "1.6_2": (1.6, 2, (1.0,) * 3),
    "3.7_6": (3.7, 6, (1.0,) * 7),
    "5_8": (5.0, 8, (1.0,) * 9),
    "8_12": (8.0, 12, (1.0,) * 13),
    "1_1_mu_1e-8_1e8": (1.0, 1, (1e-8, 1e8)),
}
STEMS = {f"{suite}_{model}": (suite, MODELS[model]) for suite in SUITES for model in MODELS}


def suite_report(suite: str, lam: float, m: int, mu: tuple[float, ...]) -> str:
    """The JSON that `cdhom verify --suite <suite>` writes for the model, without its environment block."""
    payload = json.loads(run_suite(RunConfig(lam=lam, m=m, mu=mu), suite).to_json())
    del payload["environment"]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _report_and_reference(stem: str) -> tuple[str, str]:
    suite, model = STEMS[stem]
    return suite_report(suite, *model), (REFERENCE_DIR / f"{stem}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("stem", sorted(s for s in STEMS if s.startswith("rep_")))
def test_rep_report_matches_its_reference(stem):
    got, expected = _report_and_reference(stem)
    assert got == expected


@pytest.mark.parametrize("stem", sorted(s for s in STEMS if s.startswith("shift_")))
def test_shift_report_matches_its_reference(stem):
    got, expected = _report_and_reference(stem)
    assert got == expected


@pytest.mark.parametrize("stem", sorted(s for s in STEMS if s.startswith("operator_")))
def test_operator_report_matches_its_reference(stem):
    got, expected = _report_and_reference(stem)
    assert got == expected


if __name__ == "__main__":
    REFERENCE_DIR.mkdir(exist_ok=True)
    for stem, (suite, model) in STEMS.items():
        (REFERENCE_DIR / f"{stem}.json").write_text(suite_report(suite, *model), encoding="utf-8")
