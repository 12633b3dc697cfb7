"""The public-API examples run as-is (the sub-second ones: each drives
``Resolver``, ``ModuleContext``, ``SimDriver`` or the live transport
the way a library user would).  ``caa_survey``, ``nameserver_consistency``
and ``mass_scan`` take 9-27 s each and are left to be run by hand."""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "script",
    ["quickstart", "exposed_lookup_chain", "open_resolver_survey", "live_loopback", "zonefile_server"],
)
def test_example_runs(script, monkeypatch, capsys):
    path = EXAMPLES / f"{script}.py"
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
