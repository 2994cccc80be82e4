"""Smoke test of the replay-digest script, tools/digest.py, on one case.

Most committed hashes in DIGESTS.json pin one machine's libm and numpy
build, so they are not compared here; replay on any machine is criterion 12.
This checks that the script runs, that a case replays, that its case list
and DIGESTS.json name the same entries, and that ``--check`` picks cases by
name or prefix.  The ``scenario/<name>`` hashes are JSON of ``to_dict`` and
depend on neither libm nor numpy, so they are compared with DIGESTS.json:
the encoding of every committed scenario stays as it was.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _digest_module():
    spec = importlib.util.spec_from_file_location("digest", ROOT / "tools" / "digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_script_replays_one_case():
    digest = _digest_module()
    case = "run/open/hpf/lossy/seed1"
    entries = digest.compute([case])
    assert sorted(entries) == [case + "/" + part for part in ("collision", "csv", "outcome", "trace")]
    assert all(len(h) == 64 for h in entries.values())
    assert digest.compute([case]) == entries
    committed = json.loads((ROOT / "DIGESTS.json").read_text())
    cases = digest.cases()
    assert set(entries) <= set(committed)
    assert all(any(e == c or e.startswith(c + "/") for c in cases) for e in committed)
    assert all(any(e == c or e.startswith(c + "/") for e in committed) for c in cases)


def test_check_takes_case_names_and_prefixes(capsys):
    digest = _digest_module()
    digest.main(["--check", "scenario/open", "scenario/reversal"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines[:-1]] == ["scenario/open", "scenario/reversal"]
    assert all(line.split()[0] in ("same", "differs") for line in lines[:-1])
    assert lines[-1].endswith(" of 2 entries differ")
    digest.main(["--check", "scenario"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].endswith(" of %d entries differ" % len(list((ROOT / "scenarios").glob("*.json"))))
    with pytest.raises(SystemExit):
        digest.main(["--check", "run/nowhere"])
    assert "no case named or under: run/nowhere" in capsys.readouterr().err


def test_scenario_digests_match_the_committed_ones():
    digest = _digest_module()
    names = [name for name in digest.cases() if name.startswith("scenario/")]
    assert len(names) == len(list((ROOT / "scenarios").glob("*.json")))
    committed = json.loads((ROOT / "DIGESTS.json").read_text())
    assert digest.compute(names) == {name: committed[name] for name in names}
