import math
import operator
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herdvote import voting
from herdvote.voting import (
    Decision,
    VoteTally,
    consensus_options,
    consensus_probability,
    decide,
    decision_probabilities,
    enumerate_fragmentation_probability,
    fragmentation_probability,
)

X_GRID = (0.34, 0.35, 0.37, 0.41, 0.45, 0.47, 0.499)


# -- decide -------------------------------------------------------------------

def test_decide_clear_majorities():
    rng = np.random.default_rng(0)
    assert decide(VoteTally(3, 1, 1), 0.40, rng) == Decision.BUY
    assert decide(VoteTally(1, 3, 1), 0.40, rng) == Decision.SELL
    assert decide(VoteTally(1, 1, 3), 0.40, rng) == Decision.MERGE
    assert decide(VoteTally(1, 1, 1), 0.40, rng) == Decision.FRAGMENT


def test_decide_count_equal_to_threshold_wins():
    # T = 0.4 * 5 = 2.0 exactly; a strict-max count of 2 meets ">= T"
    rng = np.random.default_rng(0)
    assert decide(VoteTally(2, 1, 2), 0.40, rng) in (Decision.BUY, Decision.MERGE)
    assert decide(VoteTally(2, 0, 1), 0.40, rng) == Decision.BUY


def test_decide_tie_is_fair():
    rng = np.random.default_rng(2024)
    n = 100_000
    outcomes = np.array([decide(VoteTally(2, 2, 0), 0.40, rng) for _ in range(n)])
    n_buy = int(np.sum(outcomes == Decision.BUY))
    assert set(np.unique(outcomes)) == {Decision.BUY, Decision.SELL}
    sigma = math.sqrt(n * 0.25)
    assert abs(n_buy - n / 2) < 3 * sigma


def test_decide_three_way_tie():
    # possible only when x <= 1/3 lets the shared maximum clear the threshold
    rng = np.random.default_rng(5)
    outcomes = {decide(VoteTally(2, 2, 2), 0.30, rng) for _ in range(200)}
    assert outcomes == {Decision.BUY, Decision.SELL, Decision.MERGE}


ALL_TALLIES = [VoteTally(b, s, size - b - s) for size in range(1, 31)
               for b in range(size + 1) for s in range(size + 1 - b)]


# x = k / n puts the threshold of a size-n group on the integer k, where a
# count equal to T must clear it
THRESHOLD_ON_A_COUNT = st.integers(2, 30).flatmap(
    lambda n: st.integers(1, n - 1).map(lambda k: k / n))


@settings(max_examples=60, deadline=None)
@given(x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | THRESHOLD_ON_A_COUNT)
def test_decide_classifies_every_small_tally(x):
    """Every tally of at most 30 votes, classified from its definition: it
    fragments when all three counts fall below T, else the options holding
    the maximum are the tied set.  A single option is returned without
    drawing; on a tie the result lies in the tied set."""
    rng = np.random.default_rng(17)
    options = (Decision.BUY, Decision.SELL, Decision.MERGE)
    for tally in ALL_TALLIES:
        threshold = x * sum(tally)
        if all(count < threshold for count in tally):
            expected = {Decision.FRAGMENT}
        else:
            expected = {o for o, count in zip(options, tally) if count == max(tally)}
        before = rng.bit_generator.state
        result = decide(tally, x, rng)
        assert result in expected, (tally, x)
        if len(expected) == 1:
            assert rng.bit_generator.state == before, (tally, x)


def test_decide_is_total_on_random_tallies():
    rng = np.random.default_rng(9)
    for _ in range(2000):
        s = int(rng.integers(1, 40))
        votes = rng.multinomial(s, [1 / 3, 1 / 3, 1 / 3])
        x = float(rng.uniform(0.05, 0.95))
        assert decide(VoteTally(*votes), x, rng) in list(Decision)


def test_decide_buy_sell_relabel_symmetry():
    """Swapping the buy and sell counts swaps the decision (untied tallies)."""
    rng = np.random.default_rng(11)
    swap = {Decision.BUY: Decision.SELL, Decision.SELL: Decision.BUY,
            Decision.MERGE: Decision.MERGE, Decision.FRAGMENT: Decision.FRAGMENT}
    checked = 0
    for _ in range(800):
        s = int(rng.integers(1, 30))
        b, sc, w = (int(v) for v in rng.multinomial(s, [1 / 3, 1 / 3, 1 / 3]))
        x = float(rng.uniform(0.34, 0.49))
        if [b, sc, w].count(max(b, sc, w)) > 1:
            continue  # tie-breaking is random; only the distribution is symmetric
        d1 = decide(VoteTally(b, sc, w), x, rng)
        d2 = decide(VoteTally(sc, b, w), x, rng)
        assert d2 == swap[d1]
        checked += 1
    assert checked > 300


def test_consensus_options_are_the_tied_maximum_that_clears_the_threshold():
    assert consensus_options((3, 1, 1), 0.40) == (0,)
    assert consensus_options((1, 1, 3), 0.40) == (2,)
    assert consensus_options((2, 2, 0), 0.40) == (0, 1)
    assert consensus_options((2, 2, 2), 0.30) == (0, 1, 2)
    assert consensus_options((1, 1, 1), 0.40) == ()


def test_tallies_with_no_option_weigh_the_fragmentation_count():
    """The fragment condition, stated twice: over every tally of s <= 12
    votes, the multinomial weight of the tallies with no option equals the
    count of the 3^s vote assignments that fragment, at each x of the
    `validate` grid."""
    for x in X_GRID:
        for s in range(1, 13):
            weight = sum(math.comb(s, b) * math.comb(s - b, sc)
                         for b in range(s + 1) for sc in range(s + 1 - b)
                         if consensus_options((b, sc, s - b - sc), x) == ())
            assert weight == voting.fragmentation_count(s, x), (s, x)


# -- fragmentation probability -------------------------------------------------

def test_fragmentation_probability_known_values():
    assert fragmentation_probability(1, 0.47) == 0.0
    assert fragmentation_probability(2, 0.40) == 0.0
    assert fragmentation_probability(3, 0.40) == pytest.approx(2 / 9, abs=1e-15)
    assert fragmentation_probability(6, 0.40) == pytest.approx(90 / 729, abs=1e-15)


def test_enumeration_oracle_known_values():
    assert enumerate_fragmentation_probability(3, 0.40) == Fraction(6, 27)
    assert enumerate_fragmentation_probability(1, 0.41) == 0
    assert enumerate_fragmentation_probability(2, 0.40) == 0


def test_enumeration_oracle_limits():
    with pytest.raises(ValueError):
        enumerate_fragmentation_probability(15, 0.4)
    with pytest.raises(ValueError):
        enumerate_fragmentation_probability(0, 0.4)
    with pytest.raises(ValueError):
        fragmentation_probability(0, 0.4)


@pytest.mark.parametrize("x", [0.35, 0.37, 0.41, 0.45, 0.47])
def test_fragmentation_probability_matches_enumeration(x):
    for s in range(1, 13):
        exact = float(enumerate_fragmentation_probability(s, x))
        assert fragmentation_probability(s, x) == pytest.approx(exact, abs=1e-12)


def test_large_size_path_matches_integer_sum():
    """Above size 64 both probabilities match a multinomial count summed in
    exact integers, within 1e-13 relative, whichever of them is small."""

    def reference(s, x):
        """Vote assignments with every count <= ub, from rows of Pascal's
        triangle: two[n] counts the B/S strings of n votes, W takes the rest."""
        ub = math.ceil(x * s) - 1
        row, two = [1], []
        for n in range(s + 1):
            two.append(sum(row[max(0, n - ub):ub + 1]))
            if n < s:
                row = [1, *map(operator.add, row, row[1:]), 1]
        return sum(row[w] * two[s - w] for w in range(min(ub, s) + 1))

    points = [(s, x) for s in (65, 80, 101, 150) for x in (0.35, 0.41, 0.47)]
    points += [(s, x) for s in (65, 100, 400, 1000) for x in (0.34, 0.36, 0.41, 0.47)]
    # 3 ub = s: p_frg is the single term with B = S = W, of order 1/s
    points += [(201, 0.334), (300, 0.334), (999, 0.334)]
    for s, x in points:
        count, total = reference(s, x), 3**s
        p_frg, consensus = float(Fraction(count, total)), float(Fraction(total - count, total))
        assert fragmentation_probability(s, x) == pytest.approx(p_frg, rel=1e-13, abs=0.0)
        assert consensus_probability(s, x) == pytest.approx(consensus, rel=1e-13, abs=0.0)


def test_large_size_values_are_pinned():
    """Every size is computed with NumPy and the standard library alone."""
    script = """
import sys
from herdvote import voting
print(repr(voting.fragmentation_probability(64, 0.41)))
print(repr(voting.fragmentation_probability(65, 0.41)))
assert "scipy" not in sys.modules
"""
    src = os.path.dirname(os.path.dirname(voting.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert float(result.stdout.split()[1]) == fragmentation_probability(65, 0.41)

    # exact values (big-integer counts over 3^s), rounded once
    assert fragmentation_probability(65, 0.41) == pytest.approx(0.6921005825196854, rel=1e-14)
    assert fragmentation_probability(400, 0.41) == pytest.approx(0.9975786336582595, rel=1e-14)
    assert consensus_probability(65, 0.41) == pytest.approx(0.3078994174803157, rel=1e-14)
    assert consensus_probability(400, 0.41) == pytest.approx(0.002421366341740469, rel=1e-14)


@pytest.mark.parametrize("n, k, d", [(400, 164, 3), (1000, 400, 3), (1000, 470, 3),
                                     (10_000, 4100, 3), (5000, 2600, 2), (10_000, 5000, 2)])
def test_binomial_terms_keep_relative_precision(n, k, d):
    """A few ulps per unit of the log-probability, where a difference of
    log-factorials loses up to 1e-11 relative at n = 10^4."""
    exact = Fraction(math.comb(n, k) * (d - 1) ** (n - k), d**n)
    value = float(voting._binom_pmf(np.array([k]), np.array([n]), d)[0])
    tolerance = 8 * 2.0**-52 * (1.0 - math.log(float(exact)))
    assert value == pytest.approx(float(exact), rel=tolerance, abs=0.0)


def test_probability_table_equals_the_scalar_lookups():
    sizes = np.r_[1:130, 399:402, 997:1001]  # one pass, rows of unequal lengths
    for x in (0.34, 0.36, 0.41, 0.47, 0.6):
        p_frg, consensus = voting.probability_table(sizes, x)
        assert p_frg.tolist() == [fragmentation_probability(int(s), x) for s in sizes]
        assert consensus.tolist() == [consensus_probability(int(s), x) for s in sizes]
        impossible = 3 * (np.ceil(x * sizes) - 1) < sizes
        assert np.all(p_frg[impossible] == 0.0) and np.all(consensus[impossible] == 1.0)
    with pytest.raises(ValueError):
        voting.probability_table([3, 0], 0.41)


def test_probability_table_refuses_sizes_that_are_not_integers():
    """Once truncated to 2 and 3; a float array is refused whole."""
    with pytest.raises(ValueError, match=r"integers >= 1, got \[2.7, 3.2\]"):
        voting.probability_table([2.7, 3.2], 0.41)
    with pytest.raises(ValueError, match=r"integers >= 1, got \[0, -4\]"):
        voting.probability_table(np.array([3, 0, -4]), 0.41)
    p_frg, consensus = voting.probability_table([], 0.41)
    assert p_frg.shape == consensus.shape == (0,)


def test_scalar_lookups_refuse_sizes_that_are_not_integers():
    for size in (2.5, 3.0, 100.5):
        with pytest.raises(TypeError):
            fragmentation_probability(size, 0.41)
    assert fragmentation_probability(np.int64(70), 0.41) == fragmentation_probability(70, 0.41)


@pytest.mark.parametrize("x", [1.5, math.nan, math.inf, 1.0 + 1e-12, 0.0, -0.2],
                         ids=["1.5", "nan", "inf", "just_above_1", "0", "negative"])
def test_lookups_refuse_x_outside_the_unit_interval(x):
    """Above 1 no count meets T: the sums once indexed past their tables
    (an IndexError at 1.5, NaN and inf) or warned (just above 1)."""
    for size in (5, 100):
        for lookup in (fragmentation_probability, consensus_probability,
                       decision_probabilities, voting.decision_cdf):
            with pytest.raises(ValueError, match=r"x must be in \(0, 1\]"):
                lookup(size, x)
        with pytest.raises(ValueError, match=r"x must be in \(0, 1\]"):
            voting.probability_table([size], x)


def test_unanimity_is_the_x_one_limit():
    """At x = 1 a group trades or merges only on a unanimous vote."""
    sizes = np.arange(1, 200)
    p_frg, consensus = voting.probability_table(sizes, 1.0)
    unanimous = [3.0 ** (1 - s) for s in sizes.tolist()]
    assert consensus.tolist() == pytest.approx(unanimous, rel=1e-12, abs=0.0)
    assert p_frg.tolist() == [fragmentation_probability(int(s), 1) for s in sizes]
    for s in range(1, 10):
        assert fragmentation_probability(s, 1.0) == float(enumerate_fragmentation_probability(s, 1.0))


def test_can_fragment_agrees_with_the_table_form():
    """`can_fragment` and `probability_table`'s array form of the same test
    agree on every size up to 3000: p_frg is nonzero exactly where a group
    can fragment.  At x = (k + 0.9)/(3k + 1) a whole population of 3k + 1
    cannot fragment, and one of 3k + 2 can."""
    sizes = np.arange(1, 3001)
    one_group = {3 * k + 1: (k + 0.9) / (3 * k + 1) for k in (1, 21, 30, 333, 999)}
    for x in (*X_GRID, 0.6, 0.95, *one_group.values()):
        p_frg, _ = voting.probability_table(sizes, x)
        assert (p_frg > 0).tolist() == [voting.can_fragment(s, x) for s in sizes.tolist()]
    for n, x in one_group.items():
        assert not voting.can_fragment(n, x) and voting.can_fragment(n + 1, x)
    assert not voting.can_fragment(1, 0.05)  # one vote always clears T = x < 1


def test_both_direct_sums_add_to_one():
    for s, x in ((100, 0.37), (1000, 0.35), (10_000, 0.34)):  # both sums above 0.02
        p_frg, consensus = voting.summed_both_ways(s, x)
        assert p_frg + consensus == pytest.approx(1.0, abs=1e-14)
        assert p_frg == pytest.approx(fragmentation_probability(s, x), rel=1e-13)
        assert consensus == pytest.approx(consensus_probability(s, x), rel=1e-13)
    for s, x in ((64, 0.41), (100, 0.33), (100, 0.52)):
        with pytest.raises(ValueError):
            voting.summed_both_ways(s, x)


def test_no_overflow_at_extreme_sizes():
    for s in (10_000, 100_000):
        for x in (0.34, 0.41, 0.47, 0.499):
            p = fragmentation_probability(s, x)
            assert 0.0 <= p <= 1.0
    assert fragmentation_probability(100_000, 0.47) > 0.999999


def test_exponential_cutoff_of_trade_probability():
    """1 - p_frg decays (asymptotically) exponentially in the group size."""
    x = 0.47
    sizes = np.arange(100, 1001, 50)
    log_survive = np.array([math.log(consensus_probability(int(s), x)) for s in sizes])
    assert np.all(np.diff(log_survive) < 0)
    slope, intercept = np.polyfit(sizes, log_survive, 1)
    assert slope < 0
    fitted = slope * sizes + intercept
    ss_res = float(np.sum((log_survive - fitted) ** 2))
    ss_tot = float(np.sum((log_survive - log_survive.mean()) ** 2))
    assert 1.0 - ss_res / ss_tot > 0.99


def test_consensus_probability_complements_fragmentation():
    for s in (1, 2, 3, 10, 64, 65, 120, 500):
        for x in X_GRID:
            total = consensus_probability(s, x) + fragmentation_probability(s, x)
            assert total == pytest.approx(1.0, abs=1e-12)
    # deep in the cutoff the direct complement would be unrepresentable
    deep = consensus_probability(1000, 0.47)
    assert 0.0 < deep < 1e-15


# -- decision probabilities ------------------------------------------------------

def test_decision_probabilities_known_values():
    assert decision_probabilities(1, 0.41) == (0.0, 1 / 3, 1 / 3, 1 / 3)
    probs = decision_probabilities(3, 0.40)
    assert probs.fragment == pytest.approx(2 / 9, abs=1e-15)
    assert probs.buy == pytest.approx(7 / 27, abs=1e-15)
    assert probs.buy == probs.sell == probs.merge


def test_fill_cdfs_fills_one_size_up_to_64_and_a_window_above():
    """Up to 64 only the asked size is filled; above, every unfilled size
    from s to min(2s, N) in one table pass, a filled one left as it is.
    Each filled CDF is `decision_cdf`'s, in Python floats."""
    x, cdf = 0.41, [None] * 201  # N = 200
    assert voting.fill_cdfs(cdf, 64, x) == voting.decision_cdf(64, x)
    assert [s for s, c in enumerate(cdf) if c] == [64]
    cdf[70] = kept = (0.0, 0.0, 1.0)
    assert voting.fill_cdfs(cdf, 65, x) == voting.decision_cdf(65, x)
    assert [s for s, c in enumerate(cdf) if c] == list(range(64, 131)) and cdf[70] is kept
    voting.fill_cdfs(cdf, 150, x)  # the window stops at N
    assert [s for s, c in enumerate(cdf) if c] == [*range(64, 131), *range(150, 201)]
    cdf[70] = None
    assert all(c == voting.decision_cdf(s, x) for s, c in enumerate(cdf) if c)
    assert {type(v) for c in cdf if c for v in c} == {float}


def test_shares_split_consensus_at_every_size():
    for x in (0.34, 0.41, 0.47):
        for s in (1, 2, 20, 64, 65, 400, 1000):
            q = consensus_probability(s, x)
            p_frg = fragmentation_probability(s, x)
            assert decision_probabilities(s, x) == (p_frg, q / 3.0, q / 3.0, q / 3.0)
            assert voting.decision_cdf(s, x) == (q / 3.0, 2.0 * q / 3.0, q)
    # where p_frg is 0, on both sides of 64, the CDF ends at exactly 1.0
    for s, x in ((1, 0.47), (2, 0.41), (64, 0.3), (500, 0.3)):
        assert fragmentation_probability(s, x) == 0.0 and voting.decision_cdf(s, x)[2] == 1.0
    # deep in the cutoff the merge share stays a positive, accurate third
    assert decision_probabilities(1000, 0.47).merge == pytest.approx(
        8.101021595684863e-19 / 3, rel=1e-13)


def test_decision_probabilities_complete():
    for s in (1, 2, 3, 7, 20, 64, 65, 100, 1000, 10_000):
        for x in X_GRID:
            probs = decision_probabilities(s, x)
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)
            assert all(0.0 <= p <= 1.0 for p in probs)


def test_decision_probabilities_match_monte_carlo():
    rng = np.random.default_rng(31337)
    s, x = 6, 0.41  # p_frg(6, 0.41) = 90/729 > 0
    n = 200_000
    counts = np.zeros(4)
    for _ in range(n):
        votes = rng.multinomial(s, [1 / 3, 1 / 3, 1 / 3])
        counts[decide(VoteTally(*(int(v) for v in votes)), x, rng)] += 1
    probs = decision_probabilities(s, x)
    expected = np.array([probs.buy, probs.sell, probs.merge, probs.fragment]) * n
    sigma = np.sqrt(expected * (1 - expected / n))
    assert np.all(np.abs(counts - expected) < 3.5 * sigma)
    assert sigma.min() > 0
