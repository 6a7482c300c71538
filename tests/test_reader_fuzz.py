"""The reader contract under mutation: for any bytes, a reader returns what
a slow line-by-line oracle of its format returns, or raises a DataError
naming the file. Valid files shaped like the golden run's are mutated by
byte flips, truncation, inserted CR, NUL, tab and LF bytes, and lines
repeated, deleted or swapped.

The oracles split lines as the readers do: CRLF and a lone CR become LF,
and only LF splits a line (no str.splitlines, which also splits on form
feeds, NEL and the Unicode separators)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmrec import data, selection
from cmrec.util import DataError

FUZZ = settings(derandomize=True, deadline=None, max_examples=200)

RUN = ("userId\titemIds\n"
       + "".join(f"t1U{u:04d}\t" + "\t".join(f"I{(7 * u + c) % 40:04d}"
                                            for c in range(5)) + "\n"
                 for u in range(6))).encode()
KEPT = "\n".join(["item_cf__a3f129cd__s1-s2-t1-t2",
                  "item_cf__a3f129cd__s1-s2-t1-t2__missing",
                  "swing__bf21a9e8__t1-t2", "stat__user_count",
                  "word2vec__9392684a__t1-t2__max"]).encode() + b"\n"

INSERTS = {"cr": b"\r", "nul": b"\0", "tab": b"\t", "lf": b"\n"}
MUTATION = st.tuples(
    st.sampled_from(["flip", "truncate", *INSERTS, "repeat", "delete", "swap"]),
    st.integers(0, 2 ** 16), st.integers(0, 2 ** 16), st.integers(0, 255))


def mutate(payload: bytes, mutations) -> bytes:
    for kind, i, j, byte in mutations:
        pos = i % (len(payload) + 1)
        if kind == "flip" and payload:
            pos = i % len(payload)
            payload = payload[:pos] + bytes([byte]) + payload[pos + 1:]
        elif kind == "truncate":
            payload = payload[:pos]
        elif kind in INSERTS:
            payload = payload[:pos] + INSERTS[kind] + payload[pos:]
        elif kind in ("repeat", "delete", "swap"):
            lines = payload.split(b"\n")
            k, m = i % len(lines), j % len(lines)
            if kind == "repeat":
                lines.insert(k, lines[k])
            elif kind == "delete":
                del lines[k]
            else:
                lines[k], lines[m] = lines[m], lines[k]
            payload = b"\n".join(lines)
    return payload


def oracle_lines(payload: bytes) -> list[str] | None:
    """Every line of the text, or None when it is not UTF-8 or holds a
    NUL."""
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if "\0" in text:
        return None
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def run_oracle(payload: bytes):
    """(users, candidate lists) of a run file, line by line after the
    header; None where the format rejects the file."""
    lines = oracle_lines(payload)
    if lines is None:
        return None
    users, lists = [], []
    for line in lines[1:]:
        if not line:
            continue
        user, *candidates = line.split("\t")
        if (not candidates or "" in (user, *candidates) or user in users
                or len(set(candidates)) < len(candidates)):
            return None
        users.append(user)
        lists.append(candidates)
    return users, lists


def kept_oracle(payload: bytes):
    """The names of a kept-feature list, one per nonblank line; None where
    the list is empty or repeats a name."""
    lines = oracle_lines(payload)
    if lines is None:
        return None
    names = [line for line in lines if line]
    return names if names and len(set(names)) == len(names) else None


def check(read, oracle, path, payload):
    path.write_bytes(payload)
    want = oracle(payload)
    if want is None:
        with pytest.raises(DataError) as err:
            read(path)
        assert str(path) in str(err.value)
    else:
        assert read(path) == want


def read_run(path):
    run = data.load_run(path)
    return run.users.tolist(), run.candidate_lists()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_the_seeds_parse_and_mutations_reach_both_outcomes():
    assert run_oracle(RUN)[0] == [f"t1U{u:04d}" for u in range(6)]
    assert kept_oracle(KEPT)[-1] == "word2vec__9392684a__t1-t2__max"
    for oracle, seed in ((run_oracle, RUN), (kept_oracle, KEPT)):
        assert oracle(mutate(seed, [("nul", 3, 0, 0)])) is None
        assert oracle(mutate(seed, [("repeat", 2, 0, 0)])) is None
        assert oracle(mutate(seed, [("delete", 2, 0, 0)])) is not None


@FUZZ
@given(st.lists(MUTATION, max_size=4))
def test_load_run_agrees_with_the_oracle_or_names_the_file(fuzz_dir,
                                                          mutations):
    check(read_run, run_oracle, fuzz_dir / "t1_valid_run.tsv",
          mutate(RUN, mutations))


@FUZZ
@given(st.lists(MUTATION, max_size=4))
def test_read_kept_agrees_with_the_oracle_or_names_the_file(fuzz_dir,
                                                           mutations):
    check(selection.read_kept, kept_oracle, fuzz_dir / "kept.txt",
          mutate(KEPT, mutations))
