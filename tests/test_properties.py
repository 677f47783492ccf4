"""Property tests over random BIO/BIOES tagsets: constrained decoding of one
sentence and of a corpus against the restricted enumeration oracle, the
batched Viterbi engine on ragged corpora and against the dense recursion over
all d^2 moves, the repair rules, and the batched forward-backward engine on
ragged batches.

Scores are integer-valued so that the dynamic program and the enumeration
sum every path exactly; with decimal scores the two can order a near-tie
differently. Magnitudes reach 1e5, far beyond what c = -1e4 separates.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_viterbi

from mcrf import crf
from mcrf.crf import (
    TransitionMatrix,
    brute_force_best,
    brute_force_loss_and_gradients,
    loss_and_gradients,
    nll_loss,
    viterbi_batch,
)
from mcrf.masking import MaskSpec, apply_mask, constrained_viterbi, decode, guard_threshold
from mcrf.postproc import extract_segments, keeps, repair_tags
from mcrf.schemes import (
    Scheme,
    build_tagset,
    canonical_run,
    first_violation,
)

PROPERTY_SETTINGS = settings(max_examples=150, derandomize=True, deadline=None)
MAX_PATHS = 2500


@st.composite
def tagsets(draw):
    scheme = draw(st.sampled_from([Scheme.BIO, Scheme.BIOES]))
    types = ["LOC", "ORG", "PER"][: draw(st.integers(1, 3))]
    return build_tagset(scheme, types)


def _scores(draw, shape, bound):
    values = draw(st.lists(st.integers(-bound, bound), min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    return np.array(values, dtype=np.float64).reshape(shape)


@st.composite
def corpora(draw, max_sentences, max_length=7):
    """(tagset, emissions list, trans, spec), each sentence small enough to
    enumerate."""
    tagset = draw(tagsets())
    d = tagset.size
    t_max = max(t for t in range(1, max_length + 1) if d**t <= MAX_PATHS)
    lengths = draw(st.lists(st.integers(1, t_max), min_size=1, max_size=max_sentences))
    bounds = st.sampled_from([1, 3, 100, 100_000])
    emissions = [_scores(draw, (T, d), draw(bounds)) for T in lengths]
    bound = draw(bounds)
    trans = TransitionMatrix(_scores(draw, (d, d), bound), _scores(draw, (d,), bound))
    spec = MaskSpec(
        rules=tagset.rules,
        mask_value=draw(st.sampled_from([-1.0, -1e4, -1e9])),
        enforce_start=draw(st.booleans()),
    )
    return tagset, emissions, trans, spec


@st.composite
def paths(draw):
    """Any tag path, legal or not."""
    tagset = draw(tagsets())
    path = draw(st.lists(st.integers(0, tagset.size - 1), min_size=1, max_size=12))
    return tagset, path


@st.composite
def legal_paths(draw):
    """A legal path that also closes every chunk (BIOES has no end rule in
    first_violation, but extraction counts an unclosed run as illegal):
    a sequence of O tags and whole entities."""
    tagset = draw(tagsets())
    pieces = draw(st.lists(
        st.one_of(st.none(), st.tuples(st.sampled_from(tagset.entity_types), st.integers(1, 4))),
        min_size=1, max_size=8,
    ))
    path = []
    for piece in pieces:
        path += [tagset.index_of("O")] if piece is None else canonical_run(tagset, *piece)
    return tagset, path


@PROPERTY_SETTINGS
@given(corpora(max_sentences=1))
def test_constrained_viterbi_is_the_restricted_oracle_argmax(corpus):
    tagset, [emissions], trans, spec = corpus
    path = constrained_viterbi(emissions, trans, spec)
    oracle, _ = brute_force_best(emissions, trans, rules=spec.rules)
    assert path == oracle
    assert first_violation(tagset, path, enforce_start=spec.enforce_start) is None


@PROPERTY_SETTINGS
@given(corpora(max_sentences=3))
def test_decode_gives_each_sentence_its_restricted_oracle_argmax(corpus):
    """decode reads the rules, not the mask, so this holds where one
    sentence would need a deeper mask than another."""
    _, emissions, trans, spec = corpus
    oracle = [brute_force_best(em, trans, rules=spec.rules)[0] for em in emissions]
    assert decode(emissions, trans, spec) == oracle


@PROPERTY_SETTINGS
@given(corpora(max_sentences=6, max_length=5), st.booleans())
def test_batched_viterbi_gives_each_sentence_its_oracle_argmax(corpus, masked):
    """Ragged corpora with integer scores, so ties occur: each path, in input
    order, is the oracle's lexicographically first argmax, whether the
    corpus runs as one chunk or one sentence per chunk."""
    _, emissions, trans, spec = corpus
    spec = spec if masked else None  # without a spec, decode is viterbi_batch
    oracle = [brute_force_best(em, trans, rules=spec and spec.rules)[0] for em in emissions]
    for cells in (crf._DECODE_CELLS, 1):
        with mock.patch.object(crf, "_DECODE_CELLS", cells):
            assert decode(emissions, trans, spec) == oracle


@PROPERTY_SETTINGS
@given(corpora(max_sentences=6, max_length=5), st.booleans())
def test_legal_moves_engine_returns_the_dense_recursion_path(corpus, masked):
    """With rules, the engine on the guarded masked matrix returns the path
    of the dense recursion over all d^2 moves of that matrix, which is the
    restricted oracle's; without rules, the dense recursion's on trans. Both
    as one chunk and one sentence per chunk."""
    _, emissions, trans, spec = corpus
    rules, seen = None, trans
    if masked:
        rules = spec.rules
        guard = guard_threshold(emissions, trans, spec)
        seen = apply_mask(trans, replace(spec, mask_value=min(spec.mask_value, guard)))
    dense = [dense_viterbi(em, seen.scores, seen.start) for em in emissions]
    if masked:
        assert dense == [brute_force_best(em, trans, rules=rules)[0] for em in emissions]
    for cells in (crf._DECODE_CELLS, 1):
        with mock.patch.object(crf, "_DECODE_CELLS", cells):
            assert viterbi_batch(emissions, seen, rules) == dense


@PROPERTY_SETTINGS
@given(corpora(max_sentences=4, max_length=5))
def test_nan_in_every_masked_entry_gives_the_same_paths(corpus):
    """The engine never reads an illegal entry: with rules it returns the
    restricted oracle's paths from a matrix whose masked entries are NaN,
    with no mask applied, and so does decode."""
    _, emissions, trans, spec = corpus
    oracle = [brute_force_best(em, trans, rules=spec.rules)[0] for em in emissions]
    poisoned = trans.copy()
    poisoned.table[spec.rules.table(trans.num_tags)] = np.nan
    assert viterbi_batch(emissions, poisoned, spec.rules) == oracle
    assert decode(emissions, poisoned, spec) == oracle


@PROPERTY_SETTINGS
@given(paths(), st.sampled_from(["retain", "discard"]))
def test_repaired_path_has_exactly_the_kept_segments(tagged, strategy):
    """Scoring a repair reads the kept segments off the raw extraction
    instead of extracting the repaired path again; this is why it may."""
    tagset, path = tagged
    kept = [s for s in extract_segments(path, tagset) if keeps(s.legal, strategy)]
    repaired = extract_segments(repair_tags(path, tagset, strategy), tagset)
    assert [s.span for s in repaired] == [s.span for s in kept]


@PROPERTY_SETTINGS
@given(paths(), st.sampled_from(["retain", "discard"]))
def test_repair_always_returns_a_legal_path(tagged, strategy):
    tagset, path = tagged
    repaired = repair_tags(path, tagset, strategy)
    assert len(repaired) == len(path)
    assert first_violation(tagset, repaired) is None
    assert all(seg.legal for seg in extract_segments(repaired, tagset))


@PROPERTY_SETTINGS
@given(legal_paths())
def test_retain_leaves_a_legal_path_unchanged(tagged):
    tagset, path = tagged
    assert first_violation(tagset, path) is None
    assert repair_tags(path, tagset, "retain") == path


@st.composite
def ragged_batches(draw):
    """(batch, trans): 1-4 sentences of mixed lengths with any gold paths,
    the transitions unmasked or masked at c in {-1, -1e4}. Scores up to 1000
    reach the engine's log-space fallback."""
    tagset = draw(tagsets())
    d = tagset.size
    t_max = max(t for t in range(1, 8) if d**t <= MAX_PATHS)
    bounds = st.sampled_from([1, 3, 100, 1000])
    batch = []
    for T in draw(st.lists(st.integers(1, t_max), min_size=1, max_size=4)):
        gold = draw(st.lists(st.integers(0, d - 1), min_size=T, max_size=T))
        batch.append((_scores(draw, (T, d), draw(bounds)), gold))
    bound = draw(bounds)
    trans = TransitionMatrix(_scores(draw, (d, d), bound), _scores(draw, (d,), bound))
    mask_value = draw(st.sampled_from([None, -1.0, -1e4]))
    if mask_value is not None:
        trans = apply_mask(trans, MaskSpec(rules=tagset.rules, mask_value=mask_value))
    return batch, trans


def _close(got, want) -> bool:
    """Within 1e-9, relative to the magnitude where that exceeds one."""
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want))))


@PROPERTY_SETTINGS
@given(ragged_batches())
def test_ragged_batch_equals_its_sentences_and_the_oracle(case):
    batch, trans = case
    n = len(batch)
    loss, grads = loss_and_gradients(batch, trans)
    singles = [loss_and_gradients([pair], trans) for pair in batch]
    oracle_loss, oracle = brute_force_loss_and_gradients(batch, trans)
    for value in (loss, nll_loss(batch, trans), np.mean([nll_loss([p], trans) for p in batch])):
        assert _close(value, oracle_loss)
    assert _close(loss, np.mean([single_loss for single_loss, _ in singles]))
    for k, (_, single) in enumerate(singles):
        assert _close(grads.emissions[k], single.emissions[0] / n)
        assert _close(grads.emissions[k], oracle.emissions[k])
    for name in ("transitions", "start"):
        assert _close(getattr(grads, name), np.mean([getattr(s, name) for _, s in singles], axis=0))
        assert _close(getattr(grads, name), getattr(oracle, name))
