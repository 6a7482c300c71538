"""scripts/src_stats.py: the src/ line count and option counts."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "src_stats.py"


def load_script():
    spec = importlib.util.spec_from_file_location("src_stats", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''\
import dataclasses
import os
from dataclasses import dataclass
from typing import ClassVar


def f(a, b=1, *args, c, d=2, **kw):
    return os.environ.get("X"), os.getenv("Y")


@dataclass(frozen=True)
class Config:
    x: int
    y: str = "y"
    z: ClassVar[int] = 0

    def method(self, p, q=None):
        def inner(self):
            return self
        return inner


@dataclasses.dataclass
class Other:
    w: float


class Plain:
    v: int

    @classmethod
    def make(cls):
        parser.add_argument("--flag")
        parser.sub.add_argument("--other", default=1)
'''


def test_counts_of_a_sample_tree(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "top.py").write_text("def g(x):\n    pass\n", encoding="utf-8")
    assert load_script().stats(tmp_path) == {
        "src_lines": len(SAMPLE.splitlines()) + 2,
        # f: a, b, args, c, d, kw; method: p, q; inner: self (not a
        # method); make: none; g: x
        "function_params": 10,
        "params_with_defaults": 3,
        "dataclass_fields": 3,
        "add_argument_calls": 2,
        "environment_reads": 2,
    }


def test_the_script_prints_the_counts_of_src():
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                         text=True, check=True).stdout
    printed = dict(line.split(": ") for line in out.splitlines())
    assert list(printed) == ["src_lines", "function_params",
                             "params_with_defaults", "dataclass_fields",
                             "add_argument_calls", "environment_reads"]
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in (ROOT / "src").rglob("*.py"))
    assert int(printed["src_lines"]) == lines
    assert all(int(count) >= 0 for count in printed.values())
