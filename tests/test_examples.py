"""Smoke tests: every shipped example must run to completion.

Examples are documentation that executes; a release where they crash is
broken regardless of the test suite. Each is run in-process via runpy with
stdout captured.
"""

import runpy
import sys
from pathlib import Path

import pytest

from repro.datasets import concepts
from repro.datasets.concepts import DOMAINS

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_is_populated():
    assert len(EXAMPLES) >= 3  # the deliverable floor
    assert "quickstart.py" in EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} produced no output"
    # an example that registers a domain removes it again
    assert sorted(concepts._SPECS) == sorted(DOMAINS)


def test_custom_domain_unregisters_its_spec_on_error():
    example = runpy.run_path(str(EXAMPLES_DIR / "custom_domain.py"))
    spec = example["RESTAURANT"]
    with pytest.raises(RuntimeError):
        with example["registered"](spec):
            assert concepts.domain_spec("restaurant") is spec
            raise RuntimeError("the body fails")
    assert sorted(concepts._SPECS) == sorted(DOMAINS)


def test_quickstart_reports_improvement(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "WebIQ raised F-1" in out
    assert "Surface+Deep success" in out
