"""scripts/diff_workspaces.py: byte-level comparison of two directory trees."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "diff_workspaces.py"
spec = importlib.util.spec_from_file_location("diff_workspaces", SCRIPT)
diff_workspaces = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diff_workspaces)


def tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text)
    return root


def test_identical_trees_exit_0(tmp_path, capsys):
    files = {"snapshot/meta.json": b"{}\n", "t1/kept.txt": b"a\nb\n"}
    a, b = tree(tmp_path / "a", files), tree(tmp_path / "b", files)
    assert diff_workspaces.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == ""


def test_every_difference_listed_and_exit_1(tmp_path, capsys):
    a = tree(tmp_path / "a", {"same.txt": b"x", "t1/model.json": b"1",
                              "only_a.txt": b"a"})
    b = tree(tmp_path / "b", {"same.txt": b"x", "t1/model.json": b"2",
                              "t2/only_b.txt": b"b"})
    assert diff_workspaces.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"only in {a}: only_a.txt",
        f"only in {b}: t2/only_b.txt",
        "differs: t1/model.json",
    ]
