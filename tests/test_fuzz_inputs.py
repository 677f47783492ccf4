"""Fuzzing every file the command line reads, through cli.main.

CoNLL corpora and logits files are built line by line from small fragment
alphabets (tags, tabs, spaces, carriage returns, a BOM, NUL, whitespace-only
lines, nan, 1e400, bad headers, bytes that are not UTF-8). Model files are
valid files with one mutation: a deleted key, a value of another JSON type,
or a non-finite, huge-integer, deeply nested or string number.

A run must exit 0, or exit 1 with exactly one stderr line that starts
"error:"; an exception that escapes cli.main fails the test. Every mutated
model file breaks an invariant of the format, so its run must exit 1. The
generators lean towards valid lines so that a real share of the corpus and
logits runs succeeds, and each test checks that share.

The library's gold paths are fuzzed the same way, without the command line:
each entry point that takes a gold path must accept a usable one and refuse
any other with the error it owes, naming the sentence. So are the parts of
a crf.TokenBatch: the engine must score a well-formed one as the
enumeration oracle does, and both must refuse any other with one ValueError.
"""

import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcrf.cli import main
from mcrf.crf import (
    TokenBatch,
    TransitionMatrix,
    brute_force_loss_and_gradients,
    loss_and_gradients,
    nll_loss,
    path_score,
)
from mcrf.data import LabeledSentence, ModelState, save_model
from mcrf.encoder import EncoderWeights, Vocabulary
from mcrf.errors import McrfError
from mcrf.masking import MaskSpec, masked_nll
from mcrf.postproc import extract_segments
from mcrf.schemes import Scheme, build_tagset, first_violation, validate_gold_paths
from mcrf.training import TrainConfig, train

FUZZ_SETTINGS = settings(max_examples=80, derandomize=True, deadline=None, database=None)

TAGSET = build_tagset(Scheme.BIO, ["LOC"])  # what --scheme bio --types 1 builds
HEADER = f"d={TAGSET.size}\ttags={','.join(TAGSET.tags)}"

NOT_UTF8 = [b"\xff", b"\xc3(", b"\x80", b"\xed\xa0\x80"]
BOM = "\ufeff"
SEPARATORS = ["", " ", "\t", "\r", " \t\r", "\x0b"]
LINE_ENDS = ["\n", "\n", "\n", "\r\n"]
TOKENS = ["w", "x1", BOM + "w", "a\x00b", "nan", "1e400"]
COLUMN_SEPARATORS = ["\t", " ", "\t\t", "", "\x00"]
TAG_FRAGMENTS = ["O", "B-LOC", "I-LOC", "B-XYZ", "b-loc", "", "O\x00", "I-LOC\r"]
FIELDS = ["0", "1.5", "-2", "nan", "1e400", "-inf", "1e-400", "", " ", "x", "0\x00", BOM + "1"]
BAD_HEADERS = [
    "", BOM + HEADER, "d=x\ttags=O,B-LOC,I-LOC", "d=3 tags=O,B-LOC,I-LOC",
    "d=2\ttags=O,B-LOC", "d=3\ttags=O,I-LOC,B-LOC", "d=3\ttags=O,B-LOC,I-LOC\t",
]
HUGE_INT = "1" + "0" * 5000  # over the 4300 digits Python turns into an int
DEEP = "[" * 200_000 + "]" * 200_000


def _run(argv: list[str]) -> int:
    """cli.main(argv)'s exit code, after checking its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == [], lines
    else:
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), (code, lines)
    return code


def _file(draw, lines: list[str]) -> bytes:
    """The lines joined with drawn line ends, maybe without the last one,
    maybe with a BOM in front and maybe with bytes that are not UTF-8."""
    text = "".join(line + draw(st.sampled_from(LINE_ENDS)) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.integers(0, 9)) == 9:
        text = BOM + text
    data = text.encode("utf-8")
    if draw(st.integers(0, 5)) == 5:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    return data


fragment_row = st.builds(
    lambda token, sep, tag: token + sep + tag,
    st.sampled_from(TOKENS), st.sampled_from(COLUMN_SEPARATORS), st.sampled_from(TAG_FRAGMENTS),
)
conll_line = st.one_of(
    st.sampled_from(["w\tO", "w\tO", "w\tB-LOC", "x1 B-LOC"]),
    st.sampled_from(SEPARATORS),
    fragment_row,
)


@st.composite
def conll_files(draw) -> bytes:
    return _file(draw, draw(st.lists(conll_line, max_size=10)))


@st.composite
def logits_and_corpus(draw) -> tuple[bytes, bytes]:
    """A logits file and its companion corpus, laid out line for line: each
    logits row is a corpus row and each separator the same separator, so
    the two agree on their sentences unless a fragment breaks a row."""
    layout = draw(st.lists(st.one_of(st.just(None), st.sampled_from(SEPARATORS)), max_size=10))
    rows = []
    for sep in layout:
        if sep is not None:
            rows.append(sep)
        elif draw(st.integers(0, 5)) == 5:
            rows.append("\t".join(draw(st.lists(st.sampled_from(FIELDS), min_size=1, max_size=4))))
        else:
            rows.append("\t".join(draw(st.sampled_from(["0", "1.5", "-2"])) for _ in TAGSET.tags))
    header = draw(st.sampled_from(BAD_HEADERS)) if draw(st.integers(0, 4)) == 4 else HEADER
    corpus = [""] + [sep if sep is not None else "w\tO" for sep in layout]  # "" faces the header
    return _file(draw, [header, *rows]), "\n".join(corpus).encode("utf-8")


def _model_state() -> ModelState:
    rng = np.random.default_rng(0)
    vocab = Vocabulary.from_tokens(["w", "x1"])
    return ModelState(
        tagset=TAGSET, mode="crf", mask_value=-1e4, enforce_start=True,
        trans=TransitionMatrix(rng.normal(size=(3, 3)), rng.normal(size=3)),
        encoder=EncoderWeights.init(vocab.size, 2, TAGSET.size, rng), vocab=vocab,
    )


NUMERIC_FIELDS = [
    ("mask_value",), ("transitions",), ("start",),
    ("encoder", "embedding_dim"), ("encoder", "embeddings"), ("encoder", "projection"),
    ("encoder", "bias"),
]
OTHER_FIELDS = [
    ("format",), ("scheme",), ("entity_types",), ("tags",), ("mode",), ("enforce_start",),
    ("encoder",), ("vocabulary",),
]
# values of another JSON type than each field's
TYPE_SWAPS = {str: [0, [], None], list: ["x", 0, {}], bool: ["true", 0, None], dict: [[], "x"]}
# what replaces one number of the file; "@..." marks raw JSON text
BAD_NUMBERS = {
    "Infinity": "@Infinity", "NaN": "@NaN", "1e400": "@1e400", "5001-digit-int": "@" + HUGE_INT,
    "401-digit-int": 10**400, "deep": "@" + DEEP, "null": None, "object": {}, "array": [],
}


@st.composite
def model_mutations(draw, doc: dict, mutation: str) -> str:
    """The JSON text of doc after one mutation that makes it invalid:
    "delete" a key, "swap" a value for one of another type, write a number
    as a "string", or put one of BAD_NUMBERS in place of a number."""
    doc = json.loads(json.dumps(doc))
    if mutation == "delete":
        *parents, key = draw(st.sampled_from(NUMERIC_FIELDS + OTHER_FIELDS))
        del (doc["encoder"] if parents else doc)[key]
        return json.dumps(doc)
    if mutation == "swap":
        (key,) = draw(st.sampled_from(OTHER_FIELDS))
        doc[key] = draw(st.sampled_from(TYPE_SWAPS[type(doc[key])]))
        return json.dumps(doc)
    *parents, key = draw(st.sampled_from(NUMERIC_FIELDS))
    holder = doc["encoder"] if parents else doc
    while isinstance(holder[key], list):  # descend to one number of the array
        holder, key = holder[key], draw(st.integers(0, len(holder[key]) - 1))
    value = json.dumps(holder[key]) if mutation == "string" else BAD_NUMBERS[mutation]
    if isinstance(value, str) and value.startswith("@"):
        holder[key] = "@@RAW@@"
        return json.dumps(doc).replace('"@@RAW@@"', value[1:])
    holder[key] = value
    return json.dumps(doc)


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz-model")
    path = str(root / "model.json")
    save_model(path, _model_state())
    return path


def test_corpus_files(model, tmp_path):
    """Fuzzed corpora through predict --data and eval --gold/--pred."""
    gold, pred, out = tmp_path / "gold.conll", tmp_path / "pred.conll", tmp_path / "out.conll"
    codes = []

    @FUZZ_SETTINGS
    @given(conll_files(), st.one_of(st.none(), conll_files()))
    def run(gold_bytes, pred_bytes):
        gold.write_bytes(gold_bytes)
        pred.write_bytes(gold_bytes if pred_bytes is None else pred_bytes)
        codes.append(_run(["predict", "--model", model, "--data", str(gold), "--out", str(out)]))
        codes.append(_run(["eval", "--gold", str(gold), "--pred", str(pred),
                           "--scheme", "bio", "--types", "1"]))

    run()
    assert codes.count(0) >= len(codes) // 3, (codes.count(0), len(codes))


def test_logits_files(model, tmp_path):
    """Fuzzed logits files through predict --emissions, each with a
    companion corpus of the same layout."""
    corpus, logits, out = tmp_path / "in.conll", tmp_path / "in.logits", tmp_path / "out.conll"
    codes = []

    @FUZZ_SETTINGS
    @given(logits_and_corpus())
    def run(files):
        logits.write_bytes(files[0])
        corpus.write_bytes(files[1])
        codes.append(_run(["predict", "--model", model, "--data", str(corpus),
                           "--emissions", str(logits), "--out", str(out)]))

    run()
    assert codes.count(0) >= len(codes) // 3, (codes.count(0), len(codes))


@pytest.mark.parametrize("mutation", ["delete", "swap", "string", *BAD_NUMBERS])
def test_model_files(model, tmp_path, mutation):
    """Mutated model files through predict --model: each is an error line."""
    corpus, mutated = tmp_path / "in.conll", tmp_path / "model.json"
    corpus.write_text("w\tO\nx1\tB-LOC\n\nw\tO\n")
    doc = json.loads(open(model, encoding="utf-8").read())

    @settings(FUZZ_SETTINGS, max_examples=15)
    @given(model_mutations(doc, mutation))
    def run(text):
        mutated.write_text(text, encoding="utf-8")
        assert _run(["predict", "--model", str(mutated), "--data", str(corpus),
                     "--out", str(tmp_path / "out.conll")]) == 1

    run()


@pytest.mark.parametrize("where", ["logits", "transition", "start and bias"])
def test_huge_finite_scores(model, tmp_path, where):
    """Finite scores whose path sums leave the float range, through predict:
    the decode's refusal ended in a bare ValueError traceback, after an
    overflow RuntimeWarning (an error in these tests). It is one error line
    that names the files the scores came from."""
    corpus, mutated, logits = tmp_path / "in.conll", tmp_path / "model.json", tmp_path / "in.logits"
    corpus.write_text("w\tO\nx1\tB-LOC\nw\tO\n\nw\tO\n")
    doc = json.loads(open(model, encoding="utf-8").read())
    argv = ["predict", "--model", str(mutated), "--data", str(corpus),
            "--out", str(tmp_path / "out.conll")]
    sources = str(mutated)
    if where == "logits":
        logits.write_text("\n".join([HEADER, *["1e308\t0\t0"] * 3, "", "1e308\t0\t0", ""]))
        argv += ["--emissions", str(logits)]
        sources += f" and {logits}"
    elif where == "transition":
        doc["transitions"][0][0] = 1e308  # O -> O, twice in sentence 1
    else:
        doc["start"] = doc["encoder"]["bias"] = [1e308] * TAGSET.size
    mutated.write_text(json.dumps(doc), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(argv) == 1
    assert err.getvalue() == (
        f"error: {sources}: sentence 1: a path score is inf, "
        "need finite emissions and transition scores\n"
    )


# Library gold paths. Every entry point that takes a gold path must refuse an
# unusable one with the error it owes, naming the sentence, and accept a
# usable one: a nonempty flat sequence of integer tags (Python ints or numpy
# integers, never bools) in [0, d).
GOLD_TAGSET = build_tagset(Scheme.BIO, ["PER"])  # O, B-PER, I-PER
D = GOLD_TAGSET.size
HUGE_TAGS = [-(2**63), 2**63, 2**64 - 1, 2**70]
TAG_DTYPES = [np.int64, np.int32, np.uint8, np.uint64, np.float64, np.bool_]
TAG_PATH_ERRORS = (
    r"^(empty path|not a sequence of tags|non-integer tag index|tag index -?\d+ out of range)"
)
SCALAR_PATHS = [
    0, 1, -1, D, None, 0.0, True, np.True_, np.int64(0), np.uint8(1),
    np.array(0), np.array(2, dtype=np.uint8), np.array(1.0),
]


def _length(path) -> int:
    """len(path), and 0 for a scalar path (None and 0-d arrays too)."""
    return len(path) if isinstance(path, list) or np.ndim(path) else 0


def _usable(path) -> bool:
    """Whether path is a usable gold path, decided from the values alone."""
    if isinstance(path, np.ndarray):
        return (path.ndim == 1 and len(path) > 0 and path.dtype.kind in "iu"
                and all(0 <= int(t) < D for t in path))
    return isinstance(path, list) and len(path) > 0 and all(
        isinstance(t, (int, np.integer)) and not isinstance(t, bool) and 0 <= t < D for t in path
    )


in_range = st.integers(0, D - 1)
ODD_TAGS = [
    -1, -3, D, D + 2, *HUGE_TAGS, np.int64(1), np.uint8(2), 0.0, 1.0, 0.5, np.float64(1.0),
    True, False, np.True_, np.False_,
]


@st.composite
def gold_paths(draw):
    """A gold path of one of many shapes and types, usable or not: tags in
    range, maybe with one or two of ODD_TAGS among them, all bools, an
    array of any of TAG_DTYPES, a nested list, an empty path, or one of
    SCALAR_PATHS."""
    kind = draw(st.sampled_from(
        ["list", "list", "odd", "odd", "bools", "array", "array", "nested", "empty", "scalar",
         "scalar"]
    ))
    if kind == "scalar":
        return draw(st.sampled_from(SCALAR_PATHS))
    values = draw(st.lists(in_range, min_size=1, max_size=5))
    if kind in ("odd", "array"):
        for _ in range(draw(st.integers(1 if kind == "odd" else 0, 2))):
            values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(ODD_TAGS))
    if kind in ("list", "odd"):
        return values
    if kind == "bools":
        return draw(st.lists(st.booleans(), min_size=1, max_size=5))
    if kind == "array":
        dtype = draw(st.sampled_from(TAG_DTYPES))
        if dtype == np.float64:
            return np.array([float(v) for v in values], dtype=np.float64)
        # wrapped to 64 bits, then cast as numpy casts: -1 becomes 255 as uint8
        return np.array([int(v) % 2**64 for v in values], dtype=np.uint64).astype(dtype)
    if kind == "nested":
        return [values, draw(st.lists(in_range, min_size=1, max_size=5))]
    return draw(st.sampled_from([[], np.array([], dtype=np.int64)]))


def _entry_points(path, usable: bool) -> bool:
    """Call every library entry point on path and check each refusal;
    returns whether the path is legal under the scheme."""
    T = max(_length(path), 1)
    emissions = np.zeros((T, D))
    trans = TransitionMatrix.zeros(D)
    first = (np.zeros((1, D)), [0])  # a usable first sentence, so the bad one is sentence 2
    try:
        legal = first_violation(GOLD_TAGSET, path) is None
    except ValueError as exc:
        legal = False
        assert not usable, path
        assert re.match(TAG_PATH_ERRORS, str(exc)), exc
        with pytest.raises(ValueError, match=TAG_PATH_ERRORS):
            extract_segments(path, GOLD_TAGSET)
    else:
        assert usable, path
        extract_segments(path, GOLD_TAGSET)
    for call in (
        lambda: validate_gold_paths(GOLD_TAGSET, [[0], path]),
        lambda: masked_nll([first, (emissions, path)], trans, GOLD_TAGSET,
                           MaskSpec(GOLD_TAGSET.rules)),
    ):
        if legal:
            call()
        else:
            with pytest.raises(McrfError, match=r"^sentence 2\b"):
                call()
    if _length(path):
        train_sentences = [LabeledSentence(["x"], [0]), LabeledSentence(["x"] * T, path)]
        config = TrainConfig(batch_size=2, max_epochs=0, max_iterations=1, eval_every=1,
                             embedding_dim=2)
        if legal:
            train(train_sentences, train_sentences[:1], config, GOLD_TAGSET)
        else:
            with pytest.raises(McrfError, match=r"^train sentence 2\b"):
                train(train_sentences, train_sentences[:1], config, GOLD_TAGSET)
    for call, k in (
        (lambda: path_score(emissions, trans, path), 1),
        (lambda: nll_loss([first, (emissions, path)], trans), 2),
        (lambda: loss_and_gradients([first, (emissions, path)], trans), 2),
    ):
        if usable:
            call()
        else:
            with pytest.raises(ValueError, match=rf"^sentence {k}\b"):
                call()
    return legal


def test_library_gold_paths():
    """Fuzzed gold paths into first_violation, extract_segments,
    validate_gold_paths, masked_nll, train, path_score, nll_loss and
    loss_and_gradients."""
    outcomes = []
    scalars = []

    @settings(FUZZ_SETTINGS, max_examples=200)
    @given(gold_paths())
    def run(path):
        usable = _usable(path)
        outcomes.append((usable, _entry_points(path, usable)))
        scalars.append(not isinstance(path, list) and np.ndim(path) == 0)

    run()
    # unusable, usable but illegal, and legal paths each take a real share
    counts = [outcomes.count(kind) for kind in ((False, False), (True, False), (True, True))]
    assert min(counts) >= 10, counts
    assert sum(scalars) >= 5, sum(scalars)


# Library token batches. A crf.TokenBatch is (N, d) float emissions, (B,)
# integer lengths >= 1 that sum to N, and (N,) integer tags in [0, d). The
# engine must score a batch that is all of these, as the enumeration oracle
# does, and the engine and the oracle must refuse any other with one
# ValueError. Lengths whose int64 sum wraps to exactly N crashed numpy, so
# that case runs in a child process in test_crf.py; here sums wrap to N +- 1.
BATCH_FAULTS = [
    "scalar lengths", "2-d lengths", "float lengths", "bool lengths", "unsigned lengths",
    "huge unsigned length", "zero length", "negative length", "lengths off by one",
    "wrapping lengths", "2-d tags", "bool tags", "float tags", "negative tag", "tag >= d",
    "1-d emissions", "wrong width", "numeric string emissions", "text emissions",
]
VALID_BATCH_FAULTS = {None, "unsigned lengths", "numeric string emissions"}
BATCH_TRANS = TransitionMatrix(np.arange(D * D).reshape(D, D) / 10.0, np.arange(D) / 5.0)


@st.composite
def token_batches(draw):
    """(fault, emissions, lengths, tags) of a batch over D tags: valid, or
    with one fault of BATCH_FAULTS."""
    lengths = np.array(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    n = int(lengths.sum())
    tags = np.array(draw(st.lists(in_range, min_size=n, max_size=n)))
    emissions = (np.arange(n * D) % 5).reshape(n, D) * 0.5
    fault = draw(st.sampled_from([None] * 6 + BATCH_FAULTS))
    k, j = draw(st.integers(0, len(lengths) - 1)), draw(st.integers(0, n - 1))
    if fault == "scalar lengths":
        lengths = draw(st.sampled_from([n, np.int64(n), np.array(n)]))
    elif fault == "2-d lengths":
        lengths = lengths[None] if draw(st.booleans()) else lengths[:, None]
    elif fault == "float lengths":
        lengths = lengths.astype(np.float64)
    elif fault == "bool lengths":
        lengths = lengths.astype(bool)
    elif fault == "unsigned lengths":
        lengths = lengths.astype(draw(st.sampled_from([np.uint8, np.uint16, np.uint32, np.uint64])))
    elif fault == "huge unsigned length":
        big = draw(st.sampled_from([2**63, 2**64 - 1]))
        lengths = np.array([*lengths.tolist(), big], dtype=np.uint64)
    elif fault in ("zero length", "negative length", "lengths off by one"):
        change = {"zero length": [-lengths[k]], "negative length": [-lengths[k] - 1, -(2**62)],
                  "lengths off by one": [-1, 1]}[fault]
        lengths[k] += draw(st.sampled_from(change))
    elif fault == "wrapping lengths":
        lengths = np.append(lengths, [2**63 - 1, 2**63 - 1, draw(st.sampled_from([1, 3]))])
    elif fault == "2-d tags":
        tags = tags[None]
    elif fault == "bool tags":
        tags = tags.astype(bool)
    elif fault == "float tags":
        tags = tags.astype(np.float64)
    elif fault in ("negative tag", "tag >= d"):
        tags[j] = -1 if fault == "negative tag" else D
    elif fault == "1-d emissions":
        emissions = emissions.ravel()
    elif fault == "wrong width":
        emissions = emissions[:, :-1] if draw(st.booleans()) else np.hstack([emissions] * 2)
    elif fault == "numeric string emissions":
        emissions = emissions.astype(str)
    elif fault == "text emissions":
        emissions = np.full((n, D), "x")
    return fault, emissions, lengths, tags


def _batch_call(fn, emissions, lengths, tags):
    """fn on the TokenBatch of the parts, or the message of its ValueError."""
    try:
        return fn(TokenBatch(emissions, lengths, tags), BATCH_TRANS)
    except ValueError as exc:
        return str(exc)


def test_library_token_batches():
    """Fuzzed TokenBatch parts into nll_loss, loss_and_gradients and
    brute_force_loss_and_gradients."""
    drawn = []

    @settings(FUZZ_SETTINGS, max_examples=200)
    @given(token_batches())
    def run(case):
        fault, *parts = case
        drawn.append(fault)
        nll, engine, oracle = (
            _batch_call(fn, *parts)
            for fn in (nll_loss, loss_and_gradients, brute_force_loss_and_gradients)
        )
        if fault in VALID_BATCH_FAULTS:
            assert nll == engine[0] == pytest.approx(oracle[0], abs=1e-12), (fault, nll, oracle)
            np.testing.assert_allclose(engine[1].emissions, np.vstack(oracle[1].emissions),
                                       atol=1e-12)
            np.testing.assert_allclose(engine[1].transitions, oracle[1].transitions, atol=1e-12)
        else:
            assert isinstance(nll, str) and nll == engine == oracle, (fault, nll, engine, oracle)

    run()
    assert set(drawn) == {None, *BATCH_FAULTS}
