"""Dendrite model: points, induced map, path metric, structural checks."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gehman.coding import PeriodicStream, dist, shift
from gehman.dendrite import (
    NEVER,
    ROOT,
    Branch,
    DendriteModel,
    End,
    Interior,
    Root,
    accepted_words,
    apply_f,
    emit_graph,
    f_invariance_check,
    family_model,
    full_binary_model,
    interior,
    no_isolated_points_check,
    path_dist,
    steps_to_root,
    word_set_model,
)
from gehman.family import x_stream

words = st.text("01", min_size=1, max_size=8)
params = st.fractions(min_value=Fraction(1, 64), max_value=Fraction(63, 64))

FULL = full_binary_model()


class TestPoints:
    def test_interior_factory_normalizes_vertices(self):
        assert interior("101", Fraction(1, 3)) == Interior("101", Fraction(1, 3))
        assert interior("101", 1) == Branch("101")
        assert interior("101", 0) == Branch("10")
        assert interior("0", 0) is ROOT
        assert interior("0", "1/2") == Interior("0", Fraction(1, 2))

    def test_interior_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            interior("01", 2)
        with pytest.raises(ValueError):
            Interior("01", Fraction(0))
        with pytest.raises(ValueError):
            Interior("01", Fraction(1))

    def test_address_validation(self):
        with pytest.raises(ValueError):
            Branch("")
        with pytest.raises(ValueError):
            Branch("012")
        with pytest.raises(ValueError):
            interior("", Fraction(1, 2))


class TestApplyF:
    def test_interior_orbit_to_root(self):
        p = Interior("101", Fraction(1, 3))
        p1 = apply_f(FULL, p)
        assert p1 == Interior("01", Fraction(1, 3))
        p2 = apply_f(FULL, p1)
        assert p2 == Interior("1", Fraction(1, 3))
        assert apply_f(FULL, p2) is ROOT

    def test_vertex_steps(self):
        assert apply_f(FULL, Branch("10")) == Branch("0")
        assert apply_f(FULL, Branch("0")) is ROOT
        assert apply_f(FULL, ROOT) is ROOT

    def test_end_points_shift(self):
        x = x_stream("000")
        image = apply_f(FULL, End(x))
        assert isinstance(image, End)
        assert image.stream.word(1000) == shift(x, 1).word(1000)

    def test_long_orbit_keeps_no_per_word_state(self):
        # a prefix memo kept every substring of the address: 103.6 MiB here
        rng = random.Random(2501)
        pt = Branch("".join(rng.choice("01") for _ in range(800)))
        model = full_binary_model()
        tracemalloc.start()
        try:
            while pt is not ROOT:
                pt = apply_f(model, pt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_rejects_foreign_arcs(self):
        model = word_set_model(["00"])
        with pytest.raises(ValueError):
            apply_f(model, Branch("01"))

    @given(words, params)
    def test_steps_to_root_is_address_length(self, w, t):
        pt = Interior(w, t)
        assert steps_to_root(pt) == len(w)
        for _ in range(len(w)):
            pt = apply_f(FULL, pt)
        assert pt is ROOT

    def test_steps_to_root_variants(self):
        assert steps_to_root(ROOT) == 0
        assert steps_to_root(Branch("0")) == 1
        assert steps_to_root(Interior("10110", Fraction(2, 7))) == 5
        assert steps_to_root(End(PeriodicStream("01"))) == NEVER


class TestPathDist:
    def test_frozen_cases(self):
        assert path_dist(ROOT, Branch("0")) == (Fraction(1, 2), True)
        assert path_dist(ROOT, Interior("0", Fraction(1, 3))) == (Fraction(1, 6), True)
        assert path_dist(Branch("0"), Branch("1")) == (Fraction(1), True)
        assert path_dist(Branch("0"), Branch("00")) == (Fraction(1, 4), True)
        assert path_dist(Branch("01"), Branch("01")) == (Fraction(0), True)

    def test_end_to_vertex(self):
        e = End(PeriodicStream("0"))
        assert path_dist(e, Branch("00")) == (Fraction(1, 4), True)
        assert path_dist(End(PeriodicStream("1")), Branch("00")) == (
            Fraction(7, 4),
            True,
        )
        assert path_dist(e, ROOT) == (Fraction(1), True)

    def test_end_pair_from_lcp(self):
        u = End(PeriodicStream("01"))
        v = End(PeriodicStream("00"))
        # streams agree for exactly one symbol
        assert path_dist(u, v) == (Fraction(1), True)

    def test_end_pair_saturation(self):
        u = End(PeriodicStream("01"))
        assert path_dist(u, u, cap=30) == (Fraction(2, 2**30), False)

    def test_symmetry(self):
        cases = [
            (Branch("01"), Interior("0", Fraction(1, 5))),
            (End(PeriodicStream("10")), Branch("101")),
            (ROOT, Interior("11", Fraction(1, 2))),
        ]
        for u, v in cases:
            assert path_dist(u, v) == path_dist(v, u)

    @given(words, params, params)
    def test_f_doubles_same_arc_distances(self, w, t1, t2):
        u, v = Interior(w, t1), Interior(w, t2)
        d0 = path_dist(u, v)
        d1 = path_dist(apply_f(FULL, u), apply_f(FULL, v))
        if len(w) >= 2:
            assert d1.value == 2 * d0.value
        else:
            # the whole first-level arc collapses to the root
            assert d1.value == 0

    @given(
        st.text("01", min_size=1, max_size=6),
        st.text("01", min_size=1, max_size=6),
    )
    def test_end_metric_ratio_exactly_four(self, wu, wv):
        x, y = PeriodicStream(wu), PeriodicStream(wv)
        cap = 40
        pd = path_dist(End(x), End(y), cap=cap)
        sd = dist(x, y, cap)
        if pd.exact:
            assert pd.value == 4 * sd.value
        else:
            assert not sd.exact


class TestModels:
    def test_conjunctive_prefix_closure(self):
        # An oracle accepting only length-2 words yields an empty model:
        # every 2-word has a rejected prefix.
        m = DendriteModel(lambda w: len(w) == 2)
        assert not m.accepts("01")
        assert accepted_words(m, 2) == []

    def test_word_set_model_closure(self):
        m = word_set_model(["0110"])
        assert m.accepts("011")
        assert not m.accepts("1")
        assert accepted_words(m, 2) == ["01"]

    def test_family_model_basics(self):
        m = family_model(horizon=10_000)
        assert m.accepts("0")
        assert m.accepts("1")
        assert not m.accepts("1010101010")

    def test_long_address_is_decided_without_recursion(self):
        # accepts used to recurse once per symbol and hit the recursion limit
        m = full_binary_model()
        assert m.accepts("01" * 5000)
        assert not word_set_model(["0" * 4000]).accepts("0" * 3000 + "1")

    def test_prefix_walk_stops_at_the_first_rejection(self):
        seen = []
        m = DendriteModel(lambda w: seen.append(w) or not w.endswith("11"))
        assert not m.accepts("0110")
        assert seen == ["0", "01", "011"]
        # no memo: a second call walks the prefixes again
        assert not m.accepts("0110")
        assert seen == ["0", "01", "011"] * 2

    def test_tree_walks_make_one_oracle_call_per_child(self):
        seen = []
        m = DendriteModel(lambda w: seen.append(w) or True)
        assert len(accepted_words(m, 3)) == 8
        assert len(seen) == 2 + 4 + 8
        seen.clear()
        # levels 1..2, then per base word two children at each of two depths
        assert no_isolated_points_check(m, 2, 2).passed
        assert len(seen) == 2 + 4 + 4 * 4

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_family_model_rejects_nonpositive_horizon(self, horizon):
        with pytest.raises(ValueError, match=f"^horizon must be >= 1, not {horizon}$"):
            family_model(horizon=horizon)

    def test_accepted_words_full_binary(self):
        out = accepted_words(FULL, 3)
        assert len(out) == 8
        assert out == sorted(out)
        with pytest.raises(ValueError):
            accepted_words(FULL, -1)


class TestStructuralChecks:
    def test_family_has_no_isolated_points_at_small_depth(self):
        rep = no_isolated_points_check(family_model(horizon=10_000), 5, 10)
        assert rep.passed
        assert rep.accepted_count == 22
        assert rep.violators == []

    def test_single_code_eventually_isolates(self):
        rep = no_isolated_points_check(family_model(["000"], horizon=4000), 8, 10)
        assert not rep.passed
        assert rep.accepted_count == 67
        assert len(rep.violators) == 13
        assert rep.violators[0] == "00111110"

    def test_check_rejects_bad_params(self):
        with pytest.raises(ValueError):
            no_isolated_points_check(FULL, 0, 1)

    def test_f_invariance_family_clean(self):
        assert f_invariance_check(family_model(horizon=2000), 6) == []

    def test_f_invariance_negative_control(self):
        # closure of "01" accepts "0" and "01" but not the tail "1"
        assert f_invariance_check(word_set_model(["01"]), 2) == ["01"]

    def test_f_invariance_orders_by_length_then_word(self):
        m = word_set_model(["001", "1011"])
        assert f_invariance_check(m, 4) == ["001", "101", "1011"]
        assert f_invariance_check(m, 3) == ["001", "101"]
        assert f_invariance_check(m, 1) == []


class TestGraph:
    def test_full_binary_depth3(self):
        g = emit_graph(FULL, 3)
        lines = g.splitlines()
        assert lines[0] == "digraph dendrite {"
        assert lines[1] == "  root;"
        assert lines[-1] == "}"
        node_lines = [l for l in lines if l.endswith('";')]
        edge_lines = [l for l in lines if "->" in l]
        assert len(node_lines) == 14
        assert len(edge_lines) == 14
        assert '  root -> "0" [len="2^-1"];' in edge_lines
        assert '  "11" -> "111" [len="2^-3"];' in edge_lines
        assert len(lines) == 31

    def test_graph_counts_match_language(self):
        m = family_model(horizon=4000)
        g = emit_graph(m, 6)
        node_lines = [l for l in g.splitlines() if l.endswith('";')]
        want = sum(len(accepted_words(m, k)) for k in range(1, 7))
        assert len(node_lines) == want

    def test_graph_is_deterministic(self):
        m = family_model(horizon=2000)
        assert emit_graph(m, 4) == emit_graph(m, 4)

    def test_depth_bounds(self):
        with pytest.raises(ValueError):
            emit_graph(FULL, 0)
        with pytest.raises(ValueError):
            emit_graph(FULL, 25)
