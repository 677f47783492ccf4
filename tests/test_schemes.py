"""Tag scheme construction, transition legality, and rule-set derivation."""

import numpy as np
import pytest

from mcrf.errors import ConfigurationError, DataError
from mcrf.schemes import (
    Scheme,
    TransitionRuleSet,
    build_tagset,
    canonical_run,
    corpus_violation,
    first_violation,
    illegal_transition_set,
    validate_gold_paths,
)


def reference_bio_legal(tags, i, j):
    """Independent statement of the BIO rule: I-X needs B-X or I-X before it."""
    target = tags[j]
    if not target.startswith("I-"):
        return True
    typ = target[2:]
    return tags[i] in (f"B-{typ}", f"I-{typ}")


def reference_bioes_legal(tags, i, j):
    """Independent statement of the BIOES adjacency table."""
    src, dst = tags[i], tags[j]
    if dst[0] in "IE":
        return src[0] in "BI" and src[2:] == dst[2:]
    # O, B-*, S-* may only follow a closed position.
    return src == "O" or src[0] in "ES"


def reference_start_legal(tags, j):
    """Independent statement of the start rule: a sentence cannot open
    inside a chunk, on I-X, or on a chunk's end, E-X."""
    return tags[j][0] not in "IE"


def legal_pair(ts, i, j):
    return not ts.rules.table(ts.size)[i, j]


def legal_start(ts, j):
    return not ts.rules.table(ts.size)[ts.size, j]


class TestBuildTagset:
    def test_bio_three_types_exact_order(self):
        ts = build_tagset(Scheme.BIO, ["LOC", "ORG", "PER"])
        assert ts.tags == ("O", "B-LOC", "I-LOC", "B-ORG", "I-ORG", "B-PER", "I-PER")
        assert ts.size == 7

    def test_bioes_single_type_exact_order(self):
        ts = build_tagset(Scheme.BIOES, ["PER"])
        assert ts.tags == ("O", "B-PER", "I-PER", "E-PER", "S-PER")

    def test_outside_is_always_index_zero(self):
        for scheme in (Scheme.BIO, Scheme.BIOES):
            ts = build_tagset(scheme, ["A", "B"])
            assert ts.tag_of(0) == "O"
            assert ts.index_of("O") == 0

    def test_index_round_trip(self):
        ts = build_tagset(Scheme.BIOES, ["LOC", "MISC"])
        for i, tag in enumerate(ts.tags):
            assert ts.index_of(tag) == i
            assert ts.tag_of(i) == tag

    def test_empty_type_list_rejected(self):
        with pytest.raises(ConfigurationError):
            build_tagset(Scheme.BIO, [])

    def test_duplicate_type_rejected(self):
        with pytest.raises(ConfigurationError):
            build_tagset(Scheme.BIO, ["LOC", "LOC"])

    def test_type_name_with_separator_rejected(self):
        with pytest.raises(ConfigurationError):
            build_tagset(Scheme.BIO, ["LO-C"])

    def test_unknown_tag_lookup_raises(self):
        ts = build_tagset(Scheme.BIO, ["LOC"])
        with pytest.raises(ValueError, match="unknown tag"):
            ts.index_of("B-ORG")


class TestDecompose:
    def test_table_matches_the_tag_names(self):
        for scheme in (Scheme.BIO, Scheme.BIOES):
            ts = build_tagset(scheme, ["LOC", "ORG"])
            for i, tag in enumerate(ts.tags):
                prefix, _, etype = tag.partition("-")
                assert ts.parts[i] == (prefix, etype or None)
            for bad in (-1, ts.size):
                with pytest.raises(ValueError, match=f"tag index {bad} out of range"):
                    ts.tag_of(bad)

    def test_outside(self):
        ts = build_tagset(Scheme.BIO, ["LOC"])
        assert ts.parts[0] == ("O", None)

    def test_prefixed(self):
        ts = build_tagset(Scheme.BIOES, ["ORG"])
        assert ts.parts[ts.index_of("E-ORG")] == ("E", "ORG")
        assert ts.parts[ts.index_of("S-ORG")] == ("S", "ORG")


class TestLegality:
    def test_bio_spot_checks(self):
        ts = build_tagset(Scheme.BIO, ["LOC", "ORG"])
        idx = ts.index_of
        assert not legal_pair(ts, idx("O"), idx("I-LOC"))
        assert legal_pair(ts, idx("B-LOC"), idx("I-LOC"))
        assert legal_pair(ts, idx("I-LOC"), idx("I-LOC"))
        assert not legal_pair(ts, idx("B-LOC"), idx("I-ORG"))
        assert not legal_pair(ts, idx("I-ORG"), idx("I-LOC"))
        assert legal_pair(ts, idx("I-ORG"), idx("B-LOC"))

    def test_bioes_spot_checks(self):
        ts = build_tagset(Scheme.BIOES, ["LOC", "ORG"])
        idx = ts.index_of
        assert legal_pair(ts, idx("B-LOC"), idx("E-LOC"))
        assert legal_pair(ts, idx("B-LOC"), idx("I-LOC"))
        assert not legal_pair(ts, idx("B-LOC"), idx("O"))
        assert not legal_pair(ts, idx("B-LOC"), idx("B-ORG"))
        assert not legal_pair(ts, idx("I-LOC"), idx("E-ORG"))
        assert legal_pair(ts, idx("E-LOC"), idx("B-ORG"))
        assert legal_pair(ts, idx("S-ORG"), idx("S-LOC"))
        assert not legal_pair(ts, idx("O"), idx("I-ORG"))
        assert not legal_pair(ts, idx("O"), idx("E-ORG"))

    def test_bio_matches_reference_rule_everywhere(self):
        ts = build_tagset(Scheme.BIO, ["A", "B", "C", "D"])
        for i in range(ts.size):
            for j in range(ts.size):
                assert legal_pair(ts, i, j) == reference_bio_legal(ts.tags, i, j)

    def test_bioes_matches_reference_rule_everywhere(self):
        ts = build_tagset(Scheme.BIOES, ["A", "B", "C"])
        for i in range(ts.size):
            for j in range(ts.size):
                assert legal_pair(ts, i, j) == reference_bioes_legal(ts.tags, i, j)

    def test_start_legality(self):
        bio = build_tagset(Scheme.BIO, ["LOC", "ORG"])
        assert legal_start(bio, bio.index_of("O"))
        assert legal_start(bio, bio.index_of("B-ORG"))
        assert not legal_start(bio, bio.index_of("I-ORG"))
        bioes = build_tagset(Scheme.BIOES, ["LOC"])
        assert legal_start(bioes, bioes.index_of("S-LOC"))
        assert not legal_start(bioes, bioes.index_of("I-LOC"))
        assert not legal_start(bioes, bioes.index_of("E-LOC"))


class TestRuleSet:
    def test_bio_count_follows_closed_form(self):
        """|omega| for BIO with k types is k + 2k(k-1), checked for k=1..6."""
        for k in range(1, 7):
            ts = build_tagset(Scheme.BIO, [f"T{i}" for i in range(k)])
            rules = illegal_transition_set(ts)
            assert len(rules.omega) == k + 2 * k * (k - 1)
            assert len(rules.illegal_starts) == k

    def test_bio_three_types_has_fifteen_pairs(self):
        ts = build_tagset(Scheme.BIO, ["LOC", "ORG", "PER"])
        assert len(illegal_transition_set(ts).omega) == 15

    def test_bioes_single_type_has_twelve_pairs(self):
        ts = build_tagset(Scheme.BIOES, ["PER"])
        rules = illegal_transition_set(ts)
        assert len(rules.omega) == 12
        starts = {ts.tag_of(i) for i in rules.illegal_starts}
        assert starts == {"I-PER", "E-PER"}

    def test_omega_partitions_pairs_with_legality(self):
        """Every ordered pair is either legal by the string-level reference
        rule or a member of omega, never both, and the compiled tables agree
        entry by entry, for BIO and BIOES with 1 to 10 entity types (d up to
        41); so is every start tag."""
        for scheme in (Scheme.BIO, Scheme.BIOES):
            for k in range(1, 11):
                ts = build_tagset(scheme, [f"T{i}" for i in range(k)])
                rules = illegal_transition_set(ts)
                illegal = rules.table(ts.size)
                assert illegal.shape == (ts.size + 1, ts.size)
                illegal_pair, illegal_start = illegal[:-1], illegal[-1]
                reference = reference_bio_legal if scheme is Scheme.BIO else reference_bioes_legal
                for i in range(ts.size):
                    for j in range(ts.size):
                        legal = reference(ts.tags, i, j)
                        assert ((i, j) in rules.omega) != legal
                        assert bool(illegal_pair[i, j]) != legal
                for j in range(ts.size):
                    legal = reference_start_legal(ts.tags, j)
                    assert (j in rules.illegal_starts) != legal
                    assert bool(illegal_start[j]) != legal

    def test_tables_reject_out_of_range_indices(self):
        rules = illegal_transition_set(build_tagset(Scheme.BIO, ["LOC", "PER"]))
        with pytest.raises(ValueError):
            rules.table(4)
        starts_only = TransitionRuleSet(frozenset(), frozenset({3}))
        with pytest.raises(ValueError):
            starts_only.table(3)
        assert not starts_only.table(4)[:4].any()

    @pytest.mark.parametrize("scheme", [Scheme.BIO, Scheme.BIOES])
    def test_one_read_only_table_with_the_starts_as_row_d(self, scheme):
        """Rows :d are omega and row d the illegal starts, the layout of
        TransitionMatrix.table; the decoder's moves are its legal cells
        above row d."""
        ts = build_tagset(scheme, ["LOC", "PER"])
        d = ts.size
        table = ts.rules.table(d)
        assert table.shape == (d + 1, d) and table.dtype == bool
        assert set(zip(*np.nonzero(table[:d]))) == ts.rules.omega
        assert set(np.flatnonzero(table[d]).tolist()) == ts.rules.illegal_starts
        assert np.array_equal(ts.rules.moves(d)[0], np.flatnonzero(~table[:d]))
        assert ts.rules.table(d) is table and not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = True

    def test_compiled_form_leaves_equality_and_hashing_to_the_sets(self):
        ts = build_tagset(Scheme.BIOES, ["LOC"])
        a, b = illegal_transition_set(ts), illegal_transition_set(ts)
        assert a == b and hash(a) == hash(b)
        assert a != a.without_start_rules()

    def test_without_start_rules(self):
        ts = build_tagset(Scheme.BIO, ["LOC"])
        rules = illegal_transition_set(ts).without_start_rules()
        assert rules.illegal_starts == frozenset()
        assert len(rules.omega) == 1

    def test_moves_are_the_legal_pairs_in_row_major_order(self):
        for scheme, k, count in ((Scheme.BIO, 3, 34), (Scheme.BIOES, 10, 481)):
            ts = build_tagset(scheme, [f"T{i}" for i in range(k)])
            d = ts.size
            cells, successors, firsts = ts.rules.moves(d)
            assert cells.size == count
            assert np.array_equal(cells, np.flatnonzero(~ts.rules.table(d)[:d]))
            assert np.array_equal(successors, cells % d)
            assert np.array_equal(cells[firsts] // d, np.arange(d))
            assert ts.rules.moves(d) is ts.rules.moves(d)

    def test_tagset_builds_its_rule_set_once(self):
        ts = build_tagset(Scheme.BIOES, ["LOC", "ORG"])
        assert ts.rules is ts.rules
        assert ts.rules == illegal_transition_set(ts)


class TestCanonicalRun:
    def test_runs_by_scheme_and_length(self):
        bio = build_tagset(Scheme.BIO, ["LOC"])
        bioes = build_tagset(Scheme.BIOES, ["LOC"])
        expected = {
            (bio, 1): ["B-LOC"],
            (bio, 3): ["B-LOC", "I-LOC", "I-LOC"],
            (bioes, 1): ["S-LOC"],
            (bioes, 2): ["B-LOC", "E-LOC"],
            (bioes, 4): ["B-LOC", "I-LOC", "I-LOC", "E-LOC"],
        }
        for (ts, n), tags in expected.items():
            run = canonical_run(ts, "LOC", n)
            assert [ts.tag_of(i) for i in run] == tags
            assert first_violation(ts, run) is None


class TestFirstViolation:
    def test_legal_path_has_none(self):
        ts = build_tagset(Scheme.BIO, ["LOC"])
        path = [ts.index_of(t) for t in ("O", "B-LOC", "I-LOC", "O")]
        assert first_violation(ts, path) is None

    def test_illegal_start_reported_at_position_zero(self):
        ts = build_tagset(Scheme.BIO, ["LOC"])
        hit = first_violation(ts, [ts.index_of("I-LOC"), 0])
        assert hit is not None and hit[0] == 0

    def test_start_rule_ignored_when_disabled(self):
        ts = build_tagset(Scheme.BIO, ["LOC"])
        assert first_violation(ts, [ts.index_of("I-LOC")], enforce_start=False) is None

    def test_earliest_violation_wins(self):
        ts = build_tagset(Scheme.BIO, ["LOC", "ORG"])
        idx = ts.index_of
        path = [idx("O"), idx("I-LOC"), idx("B-ORG"), idx("I-LOC")]
        pos, rule = first_violation(ts, path)
        assert pos == 1
        assert rule == "O -> I-LOC is not a legal transition"

    def test_start_violation_message_names_the_tag(self):
        ts = build_tagset(Scheme.BIOES, ["PER"])
        pos, rule = first_violation(ts, [ts.index_of("E-PER")])
        assert pos == 0
        assert rule == "E-PER cannot start a sentence"

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_out_of_range_index_raises(self, scheme):
        ts = build_tagset(scheme, ["PER"])
        for bad in (-1, ts.size):
            for path in ([bad], [0, bad], [0, 0, bad]):
                with pytest.raises(ValueError, match=f"tag index {bad} out of range"):
                    first_violation(ts, path)

    def test_non_integer_index_raises(self):
        """A float tag would index the rule tables as numpy's bare IndexError,
        and a bool one as numpy's ambiguous truth value."""
        ts = build_tagset(Scheme.BIO, ["PER"])
        for path in ([0.7, 1.9], [0, 1.0], np.array([0.0, 1.0]), [0, "1"],
                     [True, False], [False, True], [0, True], np.array([True, False])):
            with pytest.raises(ValueError, match="non-integer tag index"):
                first_violation(ts, path)
        assert first_violation(ts, np.array([0, 1])) is None


class TestCorpusViolation:
    """One gather over a corpus finds its first illegal path and words it:
    (sentence, position, rule), the first path's own first_violation."""

    @staticmethod
    def reference(ts, paths, enforce_start):
        """The first illegality by the string-level rules, path by path."""
        legal = reference_bio_legal if ts.scheme is Scheme.BIO else reference_bioes_legal
        for k, path in enumerate(paths):
            if enforce_start and not reference_start_legal(ts.tags, path[0]):
                return k, 0, f"{ts.tags[path[0]]} cannot start a sentence"
            for t in range(1, len(path)):
                if not legal(ts.tags, path[t - 1], path[t]):
                    rule = f"{ts.tags[path[t - 1]]} -> {ts.tags[path[t]]} is not a legal transition"
                    return k, t, rule
        return None

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("enforce_start", [True, False])
    def test_random_corpora_match_the_first_illegal_path(self, scheme, enforce_start):
        ts = build_tagset(scheme, ["A", "B"])
        rng = np.random.default_rng(3)
        found = 0
        for _ in range(300):
            paths = []
            for _ in range(int(rng.integers(1, 7))):
                if rng.random() < 0.8:  # a legal path, or nearly one
                    path = canonical_run(ts, "A", int(rng.integers(1, 5))) + [0]
                else:
                    path = [int(v) for v in rng.integers(0, ts.size, size=int(rng.integers(1, 6)))]
                paths.append(path)
            hit = corpus_violation(ts, paths, enforce_start)
            assert hit == self.reference(ts, paths, enforce_start)
            per_path = (first_violation(ts, path, enforce_start) for path in paths)
            first = next(((k, *v) for k, v in enumerate(per_path) if v is not None), None)
            assert hit == first
            found += hit is not None
        assert 50 < found < 250  # both kinds of corpus were drawn

    def test_a_legal_and_an_empty_corpus(self):
        ts = build_tagset(Scheme.BIOES, ["PER"])
        assert corpus_violation(ts, [[0], [4, 1, 3]]) is None
        assert corpus_violation(ts, []) is None


class TestValidateGoldPaths:
    """corpus_violation finds and words the first bad sentence in one pass,
    so each message is the sentence's own; a corpus that holds an unusable
    path is read path by path, so whichever comes first is named."""

    BIO1 = build_tagset(Scheme.BIO, ["PER"])

    @pytest.mark.parametrize("bad, message", [
        ([], "dev sentence 2: empty path"),
        ([0, 0.5], "dev sentence 2: non-integer tag index "
                   "('float' object cannot be interpreted as an integer)"),
        ([0, 5], "dev sentence 2: tag index 5 out of range [0, 3)"),
        (7, "dev sentence 2: not a sequence of tags (int)"),
        ([0, 2], "dev sentence 2, position 2: illegal gold path "
                 "(O -> I-PER is not a legal transition)"),
        ([2], "dev sentence 2, position 1: illegal gold path (I-PER cannot start a sentence)"),
    ])
    def test_messages(self, bad, message):
        for paths in ([[0, 1], bad, [0]], ([0, 1], bad, [0, 5])):
            with pytest.raises(DataError) as err:
                validate_gold_paths(self.BIO1, iter(paths), name="dev ")
            assert str(err.value) == message

    def test_first_bad_sentence_in_order_wins(self):
        illegal, unusable = [0, 2], [0, 9]
        with pytest.raises(DataError, match=r"^sentence 2, position 2: illegal gold path"):
            validate_gold_paths(self.BIO1, [[0], illegal, [1], unusable])
        with pytest.raises(DataError, match=r"^sentence 2: tag index 9 out of range"):
            validate_gold_paths(self.BIO1, [[0], unusable, [1], illegal])
        for enforce_start in (True, False):  # a later position, before and after an unusable path
            late = [0, 1, 1, 0, 2]
            with pytest.raises(DataError, match=r"^sentence 3, position 5: illegal gold path"):
                validate_gold_paths(self.BIO1, [[0], [1], late, [0.5], [2]], enforce_start)
            with pytest.raises(DataError, match=r"^sentence 2: non-integer tag index"):
                validate_gold_paths(self.BIO1, [[0], [0.5], late], enforce_start)
        with pytest.raises(DataError, match=r"^sentence 2, position 1: illegal gold path "
                                            r"\(I-PER cannot start a sentence\)"):
            validate_gold_paths(self.BIO1, [[0], [2, 2], [7]])
        with pytest.raises(DataError, match=r"^sentence 3: tag index 7 out of range"):
            validate_gold_paths(self.BIO1, [[0], [2, 2], [7]], enforce_start=False)

    def test_start_rule_only_when_enforced(self):
        validate_gold_paths(self.BIO1, [[0], [2, 2]], enforce_start=False)
        validate_gold_paths(self.BIO1, [])
