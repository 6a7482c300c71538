"""README's scorer params table against the registry: each row is its
scorer's params-class defaults less the seed, as json.dumps writes them,
and every scorer has exactly one row."""

import dataclasses
import json
import re
from pathlib import Path

from cmrec.features import SCORERS

README = Path(__file__).resolve().parents[1] / "README.md"
ROW = re.compile(r"^\| `(\w+)` \| `(\{.*\})` \|$", re.MULTILINE)


def test_params_table_matches_the_registry():
    rows = ROW.findall(README.read_text(encoding="utf-8"))
    assert sorted(name for name, _ in rows) == sorted(SCORERS)
    for name, text in rows:
        defaults = dataclasses.asdict(SCORERS[name].params())
        defaults.pop("seed", None)
        # the exact text, field order included, so that a 1 written for a
        # 1.0 default differs
        assert text == json.dumps(defaults), name
