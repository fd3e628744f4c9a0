import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oddwalk.check import run_checks, suite_names
from oddwalk.errors import ParseError


def test_suite_names_order():
    assert suite_names() == ("graph-core", "gadget", "homset", "dichotomy",
                             "lc", "equiv")


def test_run_checks_default_is_clean():
    report = run_checks()
    assert set(report) == {"formatVersion", "seed", "oracle", "suites", "ok"}
    assert report["ok"] is True
    assert report["seed"] == 0 and report["oracle"] is False
    assert [s["name"] for s in report["suites"]] == list(suite_names())
    for suite in report["suites"]:
        assert suite["ok"] is True
        assert suite["trials"] > 0
        assert suite["failures"] == []


def test_run_checks_with_seed_and_oracle():
    base = run_checks(seed=7)
    cross = run_checks(seed=7, oracle=True)
    assert base["ok"] is True and cross["ok"] is True
    assert cross["seed"] == 7 and cross["oracle"] is True
    # the oracle flag adds checks but never flips a verdict
    for b, c in zip(base["suites"], cross["suites"]):
        assert b["name"] == c["name"]
        assert b["ok"] == c["ok"]
        assert c["trials"] >= b["trials"]


def test_run_checks_is_repeatable():
    first = run_checks(seed=3, only=["gadget"])
    second = run_checks(seed=3, only=["gadget"])
    assert first == second


def test_run_checks_only_filter_keeps_canonical_order():
    report = run_checks(only=["homset"])
    assert [s["name"] for s in report["suites"]] == ["homset"]
    report = run_checks(only=["lc", "gadget"])
    assert [s["name"] for s in report["suites"]] == ["gadget", "lc"]


def test_run_checks_rejects_unknown_suite():
    with pytest.raises(ParseError):
        run_checks(only=["nope"])


# sha256 of `oddwalk check` stdout, keyed by the argv after `oddwalk`; CI
# compares the installed console script against the same file
DIGESTS = json.loads((Path(__file__).with_name("check_digests.json"))
                     .read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", sorted(DIGESTS))
def test_check_stdout_matches_golden_digest(argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "oddwalk.cli", *argv.split()],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[argv]
