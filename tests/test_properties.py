"""Property tests over random BIO/BIOES tagsets: constrained decoding of one
sentence and of a corpus against the restricted enumeration oracle, and the
repair rules.

Scores are integer-valued so that the dynamic program and the enumeration
sum every path exactly; with decimal scores the two can order a near-tie
differently. Magnitudes reach 1e5, far beyond what c = -1e4 separates.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mcrf.crf import TransitionMatrix, brute_force_best
from mcrf.masking import MaskSpec, constrained_viterbi, decode
from mcrf.postproc import extract_segments, repair_tags
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
def corpora(draw, max_sentences):
    """(tagset, emissions list, trans, spec), each sentence small enough to
    enumerate."""
    tagset = draw(tagsets())
    d = tagset.size
    t_max = max(t for t in range(1, 8) if d**t <= MAX_PATHS)
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
    """One mask serves the corpus even where one sentence needs it deeper
    than another."""
    _, emissions, trans, spec = corpus
    oracle = [brute_force_best(em, trans, rules=spec.rules)[0] for em in emissions]
    assert decode(emissions, trans, spec) == oracle


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
