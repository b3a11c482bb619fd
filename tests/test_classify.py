"""Configurations, the twelve patterns, and the zero-one predicates."""

import concurrent.futures
import random
from itertools import permutations as it_perms

import pytest

from zeroone.classify import (
    MULTIPLICITOUS_PATTERNS,
    avoids_multiplicitous,
    find_configuration,
    has_configuration,
    survey,
    witness_pattern,
    zero_one_status,
    _avoider_class,
    _deletion_tables,
    _pool_size,
    _sieve_avoids,
    _survey_votes,
)
from zeroone.orthodontia import _StateTable, _engine, _rothe_key, is_multiplicity_free
from zeroone.perms import (
    Permutation,
    all_permutations,
    one_step_pattern,
    parse_permutation,
    rothe_diagram,
)
from zeroone.poly import _zero_one_supports

from pattern_scan import scan_table
from straightening import emptied, straighten


def test_twelve_patterns_listed():
    assert len(MULTIPLICITOUS_PATTERNS) == 12
    assert {p.n for p in MULTIPLICITOUS_PATTERNS} == {5, 6}


def test_configuration_instances_verify_their_definitions():
    for p in MULTIPLICITOUS_PATTERNS:
        inst = find_configuration(p)
        assert inst is not None
        d = rothe_diagram(p)
        if inst.kind == "A":
            r1, c1, r2, c2, r3 = inst.indices
            assert 1 <= r3 < r1 < r2 and 1 < c1 < c2
            assert (r1, c1) in d and (r2, c2) in d and (r1, c2) not in d
            assert p[r3] < c1
        else:
            r1, c1, r2, c2, r3, r4 = inst.indices
            assert r3 < r1 < r2 and r4 != r3 and c1 < c2
            assert (r1, c1) in d and (r1, c2) in d
            if inst.kind == "B":
                assert (r2, c2) in d
                assert p[r3] < c1 and p[r4] < c2 and r4 < r1
            else:
                assert (r2, c1) in d and 2 < c1
                assert r4 < r3 and p[r3] < c1 and p[r4] < c1


def test_find_configuration_spec_example():
    inst = find_configuration(parse_permutation("13254"))
    assert inst.kind == "A"
    assert inst.indices == (2, 2, 4, 4, 1)


def test_find_configuration_absent_for_identity():
    assert find_configuration(Permutation((1, 2, 3, 4, 5))) is None


def definitional_configuration(w):
    """Least configuration instance by scanning the definitions index by index.

    Boxes come straight from i < (w^-1)_j and j < w_i; kinds go A, B, B' and
    index tuples in lexicographic order.
    """
    n = w.n
    inv = w.inverse()
    boxes = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if j < w[i] and i < inv[j]]
    box_set = set(boxes)
    for r1, c1 in boxes:
        for r2, c2 in boxes:
            if r2 <= r1 or c2 <= c1 or (r1, c2) in box_set:
                continue
            for r3 in range(1, r1):
                if w[r3] < c1:
                    return "A", (r1, c1, r2, c2, r3)
    for r1, c1 in boxes:
        for r2 in range(r1 + 1, n + 1):
            for c2 in range(c1 + 1, n + 1):
                if (r1, c2) not in box_set or (r2, c2) not in box_set:
                    continue
                for r3 in range(1, r1):
                    if w[r3] >= c1:
                        continue
                    for r4 in range(1, r1):
                        if r4 != r3 and w[r4] < c2:
                            return "B", (r1, c1, r2, c2, r3, r4)
    for r1, c1 in boxes:
        for r2 in range(r1 + 1, n + 1):
            if (r2, c1) not in box_set:
                continue
            for c2 in range(c1 + 1, n + 1):
                if (r1, c2) not in box_set:
                    continue
                for r3 in range(1, r1):
                    if w[r3] >= c1:
                        continue
                    for r4 in range(1, r3):
                        if w[r4] < c1:
                            return "B'", (r1, c1, r2, c2, r3, r4)
    return None


def test_configuration_scanner_matches_definition():
    for n in range(1, 8):
        for w in all_permutations(n):
            inst = find_configuration(w)
            witness = None if inst is None else (inst.kind, inst.indices)
            assert witness == definitional_configuration(w)
            assert has_configuration(w.entries) == (witness is not None)


def test_configuration_scanner_matches_definition_beyond_S7():
    rng = random.Random(29)
    kinds = set()
    for _ in range(300):
        n = rng.randint(9, 14)
        entries = rng.sample(range(1, n + 1), n)
        # sorting a random window mixes avoiders and every kind into the sample
        a = rng.randrange(n)
        b = rng.randrange(a, n + 1)
        entries[a:b] = sorted(entries[a:b])
        w = Permutation(tuple(entries))
        inst = find_configuration(w)
        witness = None if inst is None else (inst.kind, inst.indices)
        assert witness == definitional_configuration(w), w
        assert has_configuration(w.entries) == (witness is not None)
        kinds.add(witness and witness[0])
    assert kinds == {"A", "B", "B'", None}


def state_key(w):
    """The state table's key of D(w): the packed diagram, interval columns emptied."""
    return next(_engine(_rothe_key(w), w.n))[3]


def multiplicity_free_by_definition(steps):
    """Every letter that repeats in i has all its impacts equal to one singleton
    column; steps are the engine's (letter, impact mask) pairs after step 0."""
    impacts = {}
    for letter, imp in steps:
        impacts.setdefault(letter, []).append(imp)
    return all(len(imps) == 1 or len(set(imps)) == 1 and imps[0].bit_count() == 1
               for imps in impacts.values())


def test_multfree_early_exit_matches_trace_and_patterns():
    for n in range(1, 9):
        # the twelve patterns by their definition; on S_8, criterion 4's survey
        # compares the sieve's pattern vote with multiplicity-freeness
        witnesses = scan_table(n, MULTIPLICITOUS_PATTERNS) if n <= 7 else None
        states = _StateTable(n)  # the survey's vote, one table over S_n in survey order
        for w in all_permutations(n):
            free = is_multiplicity_free(w)
            # one walk gives the reference its steps and the table its key (see `state_key`)
            (_, _, _, key), *steps = _engine(_rothe_key(w), n)
            assert free == multiplicity_free_by_definition([(a, imp) for a, imp, _, _ in steps]), w
            assert states.vote(key) == free, w
            if witnesses is not None:
                assert free == (witnesses[w] is None), w


def test_avoids_multiplicitous_examples():
    assert not avoids_multiplicitous(parse_permutation("12543"))
    assert avoids_multiplicitous(parse_permutation("457812693"))
    for w in all_permutations(4):
        assert avoids_multiplicitous(w)


def test_witness_and_avoidance_match_the_scan():
    # the matcher against the definition: first pattern in list order, least realization
    for n in range(1, 8):
        for w, expected in scan_table(n, MULTIPLICITOUS_PATTERNS).items():
            assert witness_pattern(w) == expected, w
            assert avoids_multiplicitous(w) == (expected is None), w


def test_witness_pattern():
    w = parse_permutation("12543")
    pattern, realization = witness_pattern(w)
    assert pattern.entries == (1, 2, 5, 4, 3)
    assert realization == (1, 2, 3, 4, 5)
    assert witness_pattern(Permutation((1, 2, 3, 4, 5, 6))) is None


def test_zero_one_status_examples():
    good = zero_one_status(parse_permutation("31542"), include_expansion=True)
    assert good.verdict() and good.agree()
    assert good.by_expansion and good.by_patterns
    assert good.by_configurations and good.by_multiplicity_free

    bad = zero_one_status(parse_permutation("12543"), include_expansion=True)
    assert not bad.verdict() and bad.agree()
    assert bad.computed() == [False, False, False, False]
    assert good.witness is None and bad.witness == (parse_permutation("12543"), (1, 2, 3, 4, 5))

    fast = zero_one_status(parse_permutation("12543"))
    assert fast.by_expansion is None
    assert len(fast.computed()) == 3


def test_zero_one_status_reports_a_disagreement(monkeypatch):
    import zeroone.classify as classify_mod

    # a forged witness makes the pattern vote "not zero-one"
    monkeypatch.setattr(classify_mod, "witness_pattern", lambda w: (w, (1, 2, 3, 4, 5)))
    status = zero_one_status(Permutation((1, 2, 3, 4, 5)))
    assert not status.agree()


def test_predicates_agree_exhaustively_S6():
    for w in all_permutations(6):
        assert zero_one_status(w).agree()


def test_configuration_free_iff_pattern_avoiding_S6():
    for n in (5, 6):
        for w in all_permutations(n):
            assert (find_configuration(w) is None) == avoids_multiplicitous(w)


def test_survey_counts():
    assert survey(1).zero_one == 1
    assert survey(4) == survey(4, workers=2)
    assert survey(4).zero_one == 24
    pinned = survey(5)
    assert (pinned.total, pinned.zero_one, pinned.disagreements) == (120, 115, 0)
    assert survey(6).zero_one == 605
    assert survey(6) == survey(6, workers=2)
    assert survey(6, methods="all", workers=2) == survey(6, methods="all")


def test_sieve_matches_pattern_scan():
    for n in range(1, 8):
        table = scan_table(n, MULTIPLICITOUS_PATTERNS)
        brute = {w.entries for w, witness in table.items() if witness is None}
        assert {tuple(b) for b in _avoider_class(n)} == brute
    for p in MULTIPLICITOUS_PATTERNS:
        below = _avoider_class(p.n - 1)
        assert all(bytes(one_step_pattern(p, k).entries) in below for k in range(1, p.n + 1))
        assert not _sieve_avoids(bytes(p.entries), below, _deletion_tables(p.n))


def test_sieve_deletes_at_most_seven_positions():
    # a pattern has at most six entries, so deleting positions 1..min(n, 7)
    # finds every occurrence: the class equals a sieve that deletes every position
    patterns, level = {bytes(p.entries) for p in MULTIPLICITOUS_PATTERNS}, {b""}
    for m in range(1, 9):
        top, tables = bytes((m,)), _deletion_tables(m)
        children = (e[:k] + top + e[k:] for e in level for k in range(m))
        level = {e for e in children
                 if e not in patterns and all(e.translate(*tables[x]) in level for x in e)}
        assert _avoider_class(m) == level, m
    assert len(level) == 19038


def test_survey_blocks_split_by_first_entry():
    # n <= 2 takes the short path, n >= 3 the pairs of leaves; S_0 has no first entry
    for n in range(1, 9):
        blocks = [e for first in range(1, n + 1) for e, _ in _survey_votes(n, first)]
        assert blocks == [e for e, _ in _survey_votes(n)]


def test_survey_odometer_runs_in_lexicographic_order():
    for n in range(9):
        perms = [bytes(e) for e in it_perms(range(1, n + 1))]
        assert [e for e, _ in _survey_votes(n)] == perms
        for first in range(1, n + 1):
            block = [e for e, _ in _survey_votes(n, first)]
            assert block == [e for e in perms if e[0] == first]


def test_survey_odometer_votes_match_the_predicates():
    # the S_0 leaf deletes nothing, so its sieve reads no avoider set
    before = _avoider_class.cache_info()
    assert list(_survey_votes(0)) == [(b"", (True, True, True))]
    assert _avoider_class.cache_info() == before
    # the prefix-incremental votes against each predicate on the whole permutation
    for n in range(1, 8):
        below, tables = _avoider_class(n - 1), _deletion_tables(n)
        for e, votes in _survey_votes(n):
            w = Permutation(tuple(e))
            expected = (
                _sieve_avoids(e, below, tables),
                not has_configuration(w.entries),
                is_multiplicity_free(w),
            )
            assert votes == expected, w


def test_survey_odometer_looks_up_the_state_keys(monkeypatch):
    import zeroone.classify as classify_mod

    keys = []

    class Recorded(_StateTable):
        def __init__(self, n):  # seeds no state, so every leaf's lookup misses and calls vote
            super().__init__(n)
            self.clear()

        def vote(self, key):  # records the key only, so a wrong key cannot hide behind a crash
            keys.append(key)
            return True

    monkeypatch.setattr(classify_mod, "_StateTable", Recorded)
    for n in range(1, 8):
        keys.clear()
        perms = [e for e, _ in _survey_votes(n)]
        assert keys == [state_key(Permutation(tuple(e))) for e in perms]


def test_survey_pool_clamped(monkeypatch):
    import zeroone.classify as classify_mod

    monkeypatch.setattr(classify_mod.os, "cpu_count", lambda: 4)
    assert _pool_size(10**6, 8) == 4
    assert _pool_size(3, 8) == 3
    assert _pool_size(10**6, 2) == 2
    assert _pool_size(10**6, 0) == 1
    monkeypatch.setattr(classify_mod.os, "cpu_count", lambda: None)
    assert _pool_size(10**6, 8) == 1

    started = []

    class InProcessPool:
        """One worker in this process: runs every block in order."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *blocks):
            return map(fn, *blocks)

    monkeypatch.setattr(classify_mod.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    assert survey(5, workers=10**6) == survey(5)
    assert started == [3]

    # the avoider class is built once per worker, not once per block
    classify_mod._avoider_class.cache_clear()
    s = survey(2, workers=2)
    assert started[-1] == 2 and classify_mod._avoider_class.cache_info().misses == 1
    assert s == survey(2)

    # but each block gets a state table of its own, and an in-process survey one in all
    tables = []

    class Counted(_StateTable):
        def __init__(self, n):
            super().__init__(n)
            tables.append(n)

    monkeypatch.setattr(classify_mod, "_StateTable", Counted)
    pooled = survey(5, workers=2)
    assert tables == [5] * 5  # one per first entry
    tables.clear()
    assert survey(5) == pooled and tables == [5]


def flip_configuration_vote(monkeypatch, flipped):
    """Make the survey's configuration vote wrong on the entries in flipped."""
    import zeroone.classify as classify_mod

    real = classify_mod._survey_votes

    def flipped_votes(*args):
        for e, (pattern, configuration, multfree) in real(*args):
            yield e, (pattern, configuration != (tuple(e) in flipped), multfree)

    monkeypatch.setattr(classify_mod, "_survey_votes", flipped_votes)


def test_survey_names_its_first_disagreement(monkeypatch):
    flip_configuration_vote(monkeypatch, {(2, 1, 5, 4, 3), (1, 3, 2, 5, 4)})
    for methods in ("fast", "all"):
        s = survey(5, methods=methods)
        assert (s.total, s.zero_one, s.disagreements) == (120, 115, 2)
        # the least in lexicographic order, for both methods
        assert str(s.disagreement) == "13254"
    assert survey(4).disagreement is None


class BackwardsPool:
    """Runs the blocks in process and hands their results back last first."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *blocks):
        return reversed(list(map(fn, *blocks)))


def test_survey_blocks_merge_to_the_least_disagreement(monkeypatch):
    import zeroone.classify as classify_mod

    monkeypatch.setattr(classify_mod.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BackwardsPool)
    flip_configuration_vote(monkeypatch, {(4, 1, 2, 3, 5), (2, 1, 5, 4, 3), (2, 5, 1, 3, 4)})
    s = survey(5, workers=2)
    assert s == survey(5)
    assert s.disagreements == 3 and str(s.disagreement) == "21543"


def test_pooled_blocks_get_only_their_own_zero_ones(monkeypatch):
    # a pool pickles each block's arguments; the whole zero-one set would be
    # 656200 entries per block at S_10
    import zeroone.classify as classify_mod

    real, handed = classify_mod._survey_block, {}

    def recorded(n, zero_ones, first):
        handed[first] = zero_ones
        return real(n, zero_ones, first)

    monkeypatch.setattr(classify_mod.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BackwardsPool)
    monkeypatch.setattr(classify_mod, "_survey_block", recorded)
    pooled = survey(6, methods="all", workers=2)
    monkeypatch.undo()
    zero_ones = {e for e, support in _zero_one_supports(6) if support is not None}
    assert sorted(handed) == [1, 2, 3, 4, 5, 6]
    for first, share in handed.items():
        assert share == {e for e in zero_ones if e[0] == first}, first
    assert pooled == survey(6, methods="all")
    assert (pooled.zero_one, pooled.disagreements) == (605, 0)


def test_survey_steps_each_state_once(monkeypatch):
    import zeroone.orthodontia as orthodontia_mod

    real, letters = orthodontia_mod._step, []

    def counted(*args):
        step = real(*args)
        letters.append(step[0])
        return step

    monkeypatch.setattr(orthodontia_mod, "_step", counted)
    for methods in ("fast", "all"):
        letters.clear()
        assert survey(7, methods=methods).zero_one == 3343
        # S_7 reaches 1956 states with interval columns emptied, the empty one seeded
        assert len(letters) == 1955 and all(letters)


def test_survey_state_table_cap(monkeypatch):
    import zeroone.classify as classify_mod

    uncapped = {methods: survey(6, methods=methods) for methods in ("fast", "all")}
    # S_6 has 265 states; past the cap the forward walk answers and nothing is
    # stored; at 40 the walk that reaches the cap in the fast survey is 5 steps long
    for cap in (40, 50):
        tables = []

        class Capped(_StateTable):
            CAP = cap

            def __init__(self, n):
                super().__init__(n)
                tables.append(self)

        monkeypatch.setattr(classify_mod, "_StateTable", Capped)
        for methods, summary in uncapped.items():
            assert survey(6, methods=methods) == summary
        assert [len(t) for t in tables] == [cap, cap]


def reference_state_table(n):
    """The state table of S_n from the reference straightening: every state of
    every D(w) (a stage with its interval columns emptied, packed n + 1 bits a
    column) with the summary of the chain from it to the empty diagram, or
    None if a letter repeats in that chain with impacts not all one column."""
    width, table = n + 1, {0: 0}

    def pack(cols):
        return sum(sum(1 << r - 1 for r in col) << j * width for j, col in enumerate(cols))

    for w in all_permutations(n):
        steps = straighten(w)
        for r, (_, _, stage) in enumerate(steps):
            chain = [(a, imp) for a, imp, _ in steps[r + 1:]]
            summary = 0
            for a in {a for a, _ in chain}:
                impacts = {imp for b, imp in chain if b == a}
                (imp, *others) = impacts
                if others or (len(imp) > 1 and [b for b, _ in chain].count(a) > 1):
                    summary = None
                    break
                summary |= (sum(1 << c - 1 for c in imp) << 1 | 1) << (a - 1) * width
            table[pack(emptied(stage))] = summary
    return table


def test_survey_state_table_matches_the_reference(monkeypatch):
    import zeroone.classify as classify_mod

    tables = []

    class Kept(_StateTable):
        def __init__(self, n):
            super().__init__(n)
            tables.append(self)

    monkeypatch.setattr(classify_mod, "_StateTable", Kept)
    for n in range(1, 8):
        tables.clear()
        survey(n)
        assert tables[0] == reference_state_table(n), n


def test_survey_all_methods_small():
    s = survey(5, methods="all")
    assert s.zero_one == 115
    assert s.disagreements == 0


def test_survey_limits():
    # the survey's own guards; the size cap is the command line's (test_survey_output)
    with pytest.raises(ValueError, match="must be nonnegative"):
        survey(-1)
    with pytest.raises(ValueError):
        survey(3, methods="bogus")
    for workers in (0, -4):
        with pytest.raises(ValueError, match="workers must be positive"):
            survey(3, workers=workers)
    assert survey(3, methods="all").total == 6


def test_survey_refuses_sizes_beyond_a_byte():
    # the sieve holds permutations as bytes; the refusal comes before any work
    for methods in ("fast", "all"):
        with pytest.raises(ValueError, match="at most 255"):
            survey(256, methods=methods)


def test_pattern_closure_one_step_S5(schubert_table_5):
    from zeroone.perms import one_step_pattern
    from zeroone.poly import is_zero_one, schubert_classic

    for entries, f in schubert_table_5.items():
        if not is_zero_one(f):
            continue
        w = Permutation(entries)
        for k in range(1, 6):
            assert is_zero_one(schubert_classic(one_step_pattern(w, k)))
