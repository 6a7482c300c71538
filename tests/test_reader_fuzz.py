"""The reader contract under mutation: for any bytes, a reader returns what
a slow line-by-line oracle of its format returns, or raises a DataError
naming the file. A JSON reader (a workspace file's read_artifact, and
load_config) returns an object that holds every value of the document, or
raises a StageError or ConfigError naming the file. Valid files shaped
like the golden run's are mutated by byte flips, truncation, inserted CR,
NUL, tab and LF bytes, and lines repeated, deleted or swapped.

The oracles split lines as the readers do: CRLF and a lone CR become LF,
and only LF splits a line (no str.splitlines, which also splits on form
feeds, NEL and the Unicode separators).

A feature table's stored copy (consecutive .npy arrays) is mutated the
same way; read_table returns what a frombuffer oracle of its arrays
returns, or None."""

import dataclasses
import functools
import io
import json
import math
from collections.abc import Mapping
from tokenize import TokenError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmrec import data, embeddings, evaluation, features, selection
from cmrec.config import load_config
from cmrec.features import Catalog, FeatureTable, PlanEntry
from cmrec.pipeline import (Evaluation, PrerankInputs, PrerankRecord,
                            SnapshotEncoders, SnapshotMeta)
from cmrec.util import ConfigError, DataError, StageError, read_artifact

from test_config import FULL
from test_evaluation import run_lists

FUZZ = settings(derandomize=True, deadline=None, max_examples=200)
# half the examples for each of the six JSON readers keeps every fuzz test
# of this file under 10 s together
JSON_FUZZ = settings(FUZZ, max_examples=100)

RUN = ("userId\titemIds\n"
       + "".join(f"t1U{u:04d}\t" + "\t".join(f"I{(7 * u + c) % 40:04d}"
                                            for c in range(5)) + "\n"
                 for u in range(6))).encode()
KEPT = "\n".join(["item_cf__a3f129cd__s1-s2-t1-t2",
                  "item_cf__a3f129cd__s1-s2-t1-t2__missing",
                  "swing__bf21a9e8__t1-t2", "stat__user_count",
                  "word2vec__9392684a__t1-t2__max"]).encode() + b"\n"

RANKED = "".join(f"t1U{u:04d}\tI{(7 * u + c) % 40:04d}\t{1 - c / 7:.6f}\n"
                 for u in range(4) for c in range(3)).encode()
QRELS = ("userId\titemId\trating\n"
         + "".join(f"t1U{u:04d}\tI{(3 * u + c) % 40:04d}\t5.0\n"
                   for u in range(5) for c in range(u % 2 + 1))).encode()

MARKET = ("userId\titemId\trating\n"
          + "".join(f"s1U{u:04d}\tI{(5 * u + c) % 40:04d}\t{(u + c) % 5 + 1}"
                    f"{'.0' if c % 2 else ''}\n"
                    for u in range(4) for c in range(2))).encode()
VECTORS = "".join(f"I{k:04d}\t{(k % 3) - 1.5!r}\t{k / 8!r}\t-0.0\n"
                  for k in range(5)).encode()


def json_bytes(doc) -> bytes:
    """doc laid out as a workspace JSON file (util.write_json)."""
    return (json.dumps(doc, indent=2, sort_keys=True,
                       default=dataclasses.asdict) + "\n").encode()


DIGEST = "0123456789abcdef" * 4


def artifact(cls):
    """read_artifact of cls, as a function of the path."""
    return functools.partial(read_artifact, cls)


# file name -> (reader, a valid document): workspace JSON files, a config
JSON_READERS = {
    "meta.json": (artifact(SnapshotMeta), SnapshotMeta(
        ("s1", "s2", "t1", "t2"), ("t1", "t2"),
        ("train", "train_5core", "valid_qrel", "test_qrel"))),
    "encoders.json": (artifact(SnapshotEncoders), SnapshotEncoders(
        ("s1U0000", "t1U0000", "t1U0001"), ("I0000", "I0001", "I0002"))),
    "prerank.inputs.json": (artifact(PrerankRecord), PrerankRecord(
        2, PrerankInputs(
            {"meta.json": DIGEST, "rows_user.npy": DIGEST[::-1],
             "runs/t1_valid_run.tsv": DIGEST},
            (PlanEntry("item_cf", {"top_k": 30}, ("s1", "t1", "t2"), True),
             PlanEntry("node2vec_dfs", {"dim": 4, "seed": 123456789},
                       ("t1", "t2"), False)), True, None),
        {"features_valid.tsv": DIGEST, "prerank_failures.json": DIGEST})),
    "evaluation.json": (artifact(Evaluation), Evaluation(
        "t1", 0.3249, 100, "t1/test_ranked.tsv")),
    "features_valid.catalog.json": (artifact(Catalog), Catalog(
        ("item_cf__a3f129cd__s1-t1", "item_cf__a3f129cd__s1-t1__missing",
         "stat__user_count"), True,
        {"item_cf__a3f129cd__s1-t1": {
            "kind": "scorer", "scorer": "item_cf", "params": {"top_k": 30},
            "combination": ["s1", "t1"], "excludes_target_valid": True},
         "item_cf__a3f129cd__s1-t1__missing": {"kind": "missing_indicator"},
         "stat__user_count": {"kind": "statistic", "splits": ["train"]}})),
    "config.json": (load_config, FULL),
}

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


def ranked_oracle(payload: bytes):
    """(user, [(item, score), ...]) of a ranked run file, users in order
    of first appearance, items in file order; None where a nonblank line
    has not exactly three fields, an empty id, a score float() rejects or
    the user and item of an earlier line."""
    lines = oracle_lines(payload)
    if lines is None:
        return None
    run: dict[str, list] = {}
    for line in lines:
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3 or "" in fields[:2]:
            return None
        try:
            score = float(fields[2])
        except ValueError:
            return None
        ranked = run.setdefault(fields[0], [])
        if fields[1] in [item for item, _ in ranked]:
            return None
        ranked.append((fields[1], score))
    return list(run.items())


def qrels_oracle(payload: bytes):
    """(user, {items}) of a qrels file, users in order of their first
    line, after a first line whose first field is userId; None where a
    nonblank line has no second field or an empty id. A repeated line
    adds nothing."""
    lines = oracle_lines(payload)
    if lines is None:
        return None
    if lines[0].split("\t")[0] == "userId":
        lines = lines[1:]
    qrels: dict[str, set] = {}
    for line in lines:
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) < 2 or "" in fields[:2]:
            return None
        qrels.setdefault(fields[0], set()).add(fields[1])
    return list(qrels.items())


def market_oracle(payload: bytes):
    """(users, items, ratings, malformed line numbers) of a market file's
    lines after the header: a nonblank line that is not three fields or
    has an empty id is malformed; None where the file is rejected, by a
    rating float() does not take or that lies outside [1, 5]."""
    lines = oracle_lines(payload)
    if lines is None:
        return None
    users, items, ratings, malformed = [], [], [], []
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3 or "" in fields[:2]:
            malformed.append(number)
            continue
        try:
            rating = float(fields[2])
        except ValueError:
            return None
        if not 1.0 <= rating <= 5.0:
            return None
        users.append(fields[0])
        items.append(fields[1])
        ratings.append(rating)
    return users, items, ratings, malformed


def vectors_oracle(payload: bytes):
    """{id: [values]} of an embedding file, one nonblank line per id;
    None where the file has no line, a line has no value or an empty id,
    a value float() does not take or that is not finite, a line's width
    differs from the first's or an id repeats."""
    lines = oracle_lines(payload)
    if lines is None:
        return None
    vectors: dict[str, list] = {}
    for line in lines:
        if not line:
            continue
        key, *fields = line.split("\t")
        if not fields or not key or key in vectors:
            return None
        try:
            values = [float(field) for field in fields]
        except ValueError:
            return None
        if not all(map(math.isfinite, values)) or (
                vectors and len(values) != len(next(iter(vectors.values())))):
            return None
        vectors[key] = values
    return vectors or None


# a stored table: its header, users, items, labels and values arrays
STORED = FeatureTable(("t1U0000", "t1U0000", "t1U0001", "t1U0002"),
                      ("I0001", "I0007", "I0001", "I0012"),
                      ("item_cf__a3f129cd__s1-t1", "stat__user_count"),
                      np.array([[0.25, 3.0], [-0.0, 3.0], [1e-300, 1.0],
                                [-7.5, 2.0]]),
                      np.array([1, 0, 0, 1], dtype=np.int8))


def stored_oracle(payload: bytes, key: str):
    """(header, users, items, labels, values) of a stored table copy as
    lists (values as raw bytes and shape): after a key array holding key,
    1-D string header, users and items, 1-D int8 labels and 2-D float64
    values, each taken with frombuffer after its .npy header, the last
    ending the file; labels None unless the third header name is label.
    None where a header is not one np.lib.format writes for a C-order
    array (version 1.0, its dict rendered from the shape and dtype that
    numpy's parser reads, then spaces and a newline), an array is of
    another kind or runs past the end, bytes follow, the key differs or
    the arrays make no FeatureTable."""
    fh, arrays = io.BytesIO(payload), []
    try:
        for char, ndim in [("U", 1)] * 4 + [("b", 1), ("d", 2)]:
            if np.lib.format.read_magic(fh) != (1, 0):
                return None
            start = fh.tell()
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            text = payload[start + 2:fh.tell()].decode("latin1")
            written = (f"{{'descr': {np.lib.format.dtype_to_descr(dtype)!r}, "
                       f"'fortran_order': False, 'shape': {shape!r}, }}")
            count = math.prod(shape)
            if (fortran or text[:-1].rstrip(" ") != written
                    or not text.endswith("\n") or dtype.char != char
                    or len(shape) != ndim or min(shape) < 0
                    or fh.tell() + count * dtype.itemsize > len(payload)):
                return None
            arrays.append(np.frombuffer(payload, dtype, count, fh.tell())
                          .reshape(shape))
            fh.seek(count * dtype.itemsize, io.SEEK_CUR)
    except (ValueError, SyntaxError, TokenError):  # numpy's parser refuses
        return None
    stored_key, header, users, items, labels, values = arrays
    if fh.tell() != len(payload) or stored_key.tolist() != [key]:
        return None
    labeled = header.tolist()[2:3] == ["label"]
    try:
        table = FeatureTable(users, items, tuple(header.tolist()[2 + labeled:]),
                             values, labels if labeled else None)
    except ValueError:
        return None
    return table_lists(table)


def table_lists(table):
    return (list(table.columns), table.users.tolist(), table.items.tolist(),
            None if table.labels is None else table.labels.tolist(),
            table.values.tobytes(), table.values.shape)


def json_oracle(payload: bytes):
    """The JSON document of a file; None where it is not UTF-8 JSON."""
    try:
        return json.loads(payload.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError and JSONDecodeError
        return None


def holds(doc, got) -> bool:
    """Whether got, the fields of what a reader returned, holds every value
    of the JSON document doc: a list as a list or tuple, an object as a
    mapping with at least its keys (a config fills in defaults), NaN as
    NaN."""
    if isinstance(doc, dict):
        return isinstance(got, Mapping) and all(
            key in got and holds(value, got[key]) for key, value in doc.items())
    if isinstance(doc, list):
        return (isinstance(got, (list, tuple)) and len(got) == len(doc)
                and all(map(holds, doc, got)))
    kinds = {type(doc), type(got)}
    return (len(kinds) == 1 or kinds == {int, float}) and (
        doc == got or doc != doc and got != got)


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


def read_ranked(path):
    return run_lists(*evaluation.read_run_file(path))


def read_qrels(path):
    return list(evaluation.read_qrels(path).items())


def read_market(path):
    """load_market of the market directory holding path as its train.tsv,
    beside an empty train_5core.tsv, in market_oracle's shape."""
    (path.parent / "train_5core.tsv").write_bytes(b"userId\titemId\trating\n")
    columns, report = data.load_market(path.parent, "s1")
    malformed = [int(line.rsplit(":", 1)[1])
                 for line in report["malformed_lines"]]
    assert report["malformed"] == len(malformed) <= 20
    assert columns["split"].tolist() == [0] * len(columns["rating"])
    return (columns["user"].tolist(), columns["item"].tolist(),
            columns["rating"].tolist(), malformed)


def read_vectors(path):
    return {key: vec.tolist()
            for key, vec in embeddings.read_embedding_tsv(path).items()}


def test_the_seeds_parse_and_mutations_reach_both_outcomes():
    assert run_oracle(RUN)[0] == [f"t1U{u:04d}" for u in range(6)]
    assert kept_oracle(KEPT)[-1] == "word2vec__9392684a__t1-t2__max"
    assert ranked_oracle(RANKED)[3] == (
        "t1U0003", [("I0021", 1.0), ("I0022", 0.857143), ("I0023", 0.714286)])
    assert qrels_oracle(QRELS)[:2] == [("t1U0000", {"I0000"}),
                                       ("t1U0001", {"I0003", "I0004"})]
    assert market_oracle(MARKET)[2][:3] == [1.0, 2.0, 2.0]
    assert vectors_oracle(VECTORS)["I0004"] == [-0.5, 0.5, -0.0]
    for oracle, seed in ((run_oracle, RUN), (kept_oracle, KEPT),
                         (ranked_oracle, RANKED), (qrels_oracle, QRELS),
                         (market_oracle, MARKET), (vectors_oracle, VECTORS)):
        assert oracle(mutate(seed, [("nul", 3, 0, 0)])) is None
        assert oracle(mutate(seed, [("delete", 2, 0, 0)])) is not None
        repeated = oracle(mutate(seed, [("repeat", 2, 0, 0)]))
        if seed is MARKET:  # a market file may repeat a line
            assert len(repeated[0]) == len(oracle(seed)[0]) + 1
        else:
            assert repeated == (oracle(seed) if seed is QRELS else None)
    assert market_oracle(mutate(MARKET, [("tab", 30, 0, 0)]))[3] == [2]


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


@FUZZ
@given(st.lists(MUTATION, max_size=4))
def test_read_run_file_agrees_with_the_oracle_or_names_the_file(fuzz_dir,
                                                               mutations):
    check(read_ranked, ranked_oracle, fuzz_dir / "ranked.tsv",
          mutate(RANKED, mutations))


@FUZZ
@given(st.lists(MUTATION, max_size=4))
def test_read_qrels_agrees_with_the_oracle_or_names_the_file(fuzz_dir,
                                                            mutations):
    check(read_qrels, qrels_oracle, fuzz_dir / "qrels.tsv",
          mutate(QRELS, mutations))


@FUZZ
@given(st.lists(MUTATION, max_size=4))
def test_load_market_agrees_with_the_oracle_or_names_the_file(fuzz_dir,
                                                             mutations):
    market = fuzz_dir / "s1"
    market.mkdir(exist_ok=True)
    check(read_market, market_oracle, market / "train.tsv",
          mutate(MARKET, mutations))


@FUZZ
@given(st.lists(MUTATION, max_size=4))
def test_read_embedding_tsv_agrees_with_the_oracle_or_names_the_file(
        fuzz_dir, mutations):
    check(read_vectors, vectors_oracle, fuzz_dir / "vectors.tsv",
          mutate(VECTORS, mutations))


@pytest.fixture(scope="module")
def stored_copy(tmp_path_factory):
    """(TSV path, sha256, cache dir, stored bytes) of STORED as write_table
    leaves it."""
    root = tmp_path_factory.mktemp("stored")
    tsv, cache = root / "features_valid.tsv", root / "cache"
    digest, _ = features.write_table(STORED, tsv, root / "catalog.json", {},
                                     cache)
    (path,) = cache.iterdir()
    return tsv, digest, cache, path.read_bytes()


def read_stored(stored_copy, payload):
    """read_table of the stored copy's bytes replaced by payload, as lists;
    None when it reads no table."""
    tsv, digest, cache, _ = stored_copy
    (path,) = cache.iterdir()
    path.write_bytes(payload)
    table = features.read_table(tsv, digest, cache)
    return None if table is None else table_lists(table)


def test_the_stored_seed_reads_and_mutations_reach_both_outcomes(stored_copy):
    _, digest, _, payload = stored_copy
    want = stored_oracle(payload, digest)
    assert want == table_lists(STORED) == read_stored(stored_copy, payload)
    assert stored_oracle(payload[:-1], digest) is None
    assert stored_oracle(payload + b"\0", digest) is None
    nan = mutate(payload, [("flip", len(payload) - 2, 0, 0xf8),
                           ("flip", len(payload) - 1, 0, 0x7f)])
    assert stored_oracle(nan, digest) is None  # the last value made NaN
    # a flip in a user id leaves a table with another id
    at = payload.index("t1U0002".encode("utf-32-le"))
    other = stored_oracle(mutate(payload, [("flip", at, 0, ord("x"))]), digest)
    assert other[1] == ["t1U0000", "t1U0000", "t1U0001", "x1U0002"]


@FUZZ
@given(st.lists(MUTATION, max_size=4))
def test_read_table_agrees_with_the_oracle_or_reads_none(stored_copy,
                                                        mutations):
    _, digest, _, payload = stored_copy
    payload = mutate(payload, mutations)
    assert read_stored(stored_copy, payload) == stored_oracle(payload, digest)


def test_the_json_seeds_parse_and_mutations_reach_both_outcomes(fuzz_dir):
    for name, (read, seed) in JSON_READERS.items():
        path = fuzz_dir / name
        path.write_bytes(json_bytes(seed))
        got = dataclasses.asdict(read(path))
        assert holds(json_oracle(json_bytes(seed)), got)
        assert not holds({**json_oracle(json_bytes(seed)), "x": 1}, got)
        path.write_bytes(mutate(json_bytes(seed), [("nul", 3, 0, 0)]))
        with pytest.raises((ConfigError, StageError)):
            read(path)


@JSON_FUZZ
@pytest.mark.parametrize("name", JSON_READERS)
@given(mutations=st.lists(MUTATION, max_size=4))
def test_a_json_reader_returns_the_document_or_names_the_file(
        fuzz_dir, name, mutations):
    read, seed = JSON_READERS[name]
    path = fuzz_dir / name
    payload = mutate(json_bytes(seed), mutations)
    path.write_bytes(payload)
    try:
        got = read(path)
    except (ConfigError, StageError) as exc:
        assert str(path) in str(exc)
    else:
        doc = json_oracle(payload)
        assert doc is not None and holds(doc, dataclasses.asdict(got))
