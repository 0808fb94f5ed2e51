import random

import pytest

from c4ramsey import (
    BoundQuery,
    CannotDeriveError,
    DerivationTree,
    RamseyFact,
    Registry,
    derive,
    replay,
    seed_registry,
    theorem_mt_bound,
)
from c4ramsey.derive import _RULES, ReplayError, _option_sort_key, _ordered_deletions, _reach, plan_size
from c4ramsey.registry import ContradictionError
from c4ramsey.targets import EMPTY, WITH_ISOLATED, delete_options, parse_target, parse_targets

from conftest import oracle_vertex_count

from test_derive_golden import GOLDEN
from test_derive_json import POOLS, TABLE_ROWS


def registry_with(*lines):
    return Registry([RamseyFact.from_line(line) for line in lines])


class TestTableCases:
    def test_k11_from_k10(self):
        reg = registry_with("C4,K10 | exact | 36 | [LaLR] | paper")
        tree = derive(parse_targets("C4,K11"), reg)
        assert tree.value == 43
        replay(tree)

    def test_k12_chains_through_k11(self):
        reg = registry_with("C4,K10 | exact | 36 | [LaLR] | paper")
        tree = derive(parse_targets("C4,K12"), reg)
        assert tree.value == 51
        assert tree.children[0].value == 43  # the derived K11 bound
        replay(tree)

    def test_k4_k4_from_registry_29(self):
        reg = registry_with("C4,K3,K4 | upper | 29 | computation | computational")
        tree = derive(parse_targets("C4,K4,K4"), reg)
        assert tree.value == 66
        replay(tree, reg)

    def test_k3_cubed_uses_k2_elimination(self):
        reg = registry_with("C4,K3,K3 | exact | 17 | [ExRe] | paper")
        tree = derive(parse_targets("C4,K3,K3,K3"), reg)
        assert tree.value == 57
        # r_i resolution goes through (C4,K2,K3,K3) == (C4,K3,K3)
        assert all(c.targets.key() == "C4,K3,K3" for c in tree.children)
        replay(tree)

    def test_two_c4_chain(self):
        reg = registry_with(
            "C4,C4,K4 | upper | 21 | [LidP] | paper",
            "C4,C4,K3,K3 | upper | 36 | [XuR2] | paper",
        )
        assert derive(parse_targets("C4,C4,K3,K4"), reg).value == 75
        tree = derive(parse_targets("C4,C4,K4,K4"), reg)
        assert tree.value == 177
        assert {c.value for c in tree.children} == {75}
        replay(tree)


class TestRules:
    def test_registry_leaf_wins_over_weaker_derivation(self):
        reg = seed_registry()
        tree = derive(parse_targets("C4,K3,K4"), reg)
        assert tree.rule == "Registry" and tree.value == 29

    def test_trivial_empty(self):
        tree = derive(parse_targets("C4,5K1"), Registry())
        assert tree.rule == "TrivialEmpty" and tree.value == 5
        replay(tree)

    def test_union_k1(self):
        reg = registry_with("C4,K3 | exact | 7 | small search | computational")
        tree = derive(parse_targets("C4,K3+1K1"), reg)
        assert tree.value == max(7, 4) == 7
        replay(tree, reg)

    def test_union_k1_floor_dominates(self):
        reg = registry_with("C4,K5 | upper | 5 | fake | user")
        tree = derive(parse_targets("C4,K5+1K1"), reg)
        assert (tree.rule, tree.value, tree.notes) == ("UnionK1", 6, {"floors": [6]})  # |V(K5)| + 1
        replay(tree, reg)

    # Parsons' bound and the paper's book and multicolor star corollaries are
    # Theorem MT with r_i = k_i, from the S_k -> kK1 deletions, or with r_1 a
    # bound on R(C4,S_k), from the B_k -> S_k deletion

    def test_parsons_shortcut(self):
        tree = derive(parse_targets("C4,S7"), Registry())
        assert (tree.rule, tree.value, tree.notes["deletions"]) == ("TheoremMT", theorem_mt_bound(BoundQuery(1, (7,))), ["S7->7K1"])
        assert tree.value == 11
        replay(tree)

    def test_book_uses_registry_star_fact(self):
        tree = derive(parse_targets("C4,B17"), seed_registry())
        assert (tree.rule, tree.value, tree.notes["deletions"]) == ("TheoremMT", 28, ["B17->S17"])
        (star,) = tree.children
        assert (star.rule, star.value, star.citation) == ("Registry", 22, "[Par3]")
        replay(tree)

    def test_book_without_star_fact(self):
        tree = derive(parse_targets("C4,B17"), Registry())
        assert tree.value == 29

    def test_stars_multicolor(self):
        tree = derive(parse_targets("C4,C4,S3,S4"), Registry())
        assert (tree.rule, tree.value, tree.notes["r"]) == ("TheoremMT", theorem_mt_bound(BoundQuery(2, (3, 4))), [3, 4])
        replay(tree)

    def test_pure_c4_block(self):
        tree = derive(parse_targets("C4,C4,C4"), Registry())
        assert tree.value == 13
        replay(tree)


class TestCannotDerive:
    def test_missing_facts_listed(self):
        with pytest.raises(CannotDeriveError) as e:
            derive(parse_targets("C4,K11"), Registry())
        assert any("K10" in k or "C4" in k for k in e.value.missing)

    def test_m1_k2_only_cannot_derive(self):
        with pytest.raises(CannotDeriveError):
            derive(parse_targets("C4,K2"), Registry())


class TestDeletionOrder:
    def test_cached_order_is_the_sorted_options(self):
        # every target the derive-cli pools reach by deleting vertices
        todo = [parse_target(text) for pool in POOLS.values() for text in pool]
        seen = set()
        while todo:
            t = todo.pop()
            if t in seen or t.vertex_count < 2:
                continue
            seen.add(t)
            want = sorted(delete_options(t), key=_option_sort_key)
            assert _ordered_deletions(t) == tuple((o, f"{t}->{o}") for o in want)
            todo.extend(want)
        assert len(seen) > 50


class TestPlanSize:
    # every kind the parser accepts, each base kind also with isolated vertices
    SHAPES = ["1K1", "4K1", "K2", "K5", "S1", "S4", "B1", "B3", "P3", "C4",
              "K4+2K1", "S3+1K1", "B2+2K1", "P3+1K1", "C4+1K1", "C4+3K1"]

    @pytest.mark.parametrize("text", SHAPES)
    def test_reach_counts_what_deletions_reach(self, text):
        t = parse_target(text)
        seen, todo = set(), [t]
        while todo:
            s = todo.pop()
            if s not in seen:
                seen.add(s)
                todo.extend(delete_options(s) if s.vertex_count > 1 else ())
        # H + tK1 and H' + tK1 can flatten to the same jK1, so that count is a bound
        if t.kind == WITH_ISOLATED:
            assert len(seen) <= _reach(t)
        else:
            assert len(seen) == _reach(t)

    @pytest.mark.parametrize("text", [s for s in SHAPES if s != "C4"])  # a C4 is never deleted from
    def test_every_kind_has_a_plan_size(self, text):
        t = parse_target(text)
        assert plan_size(parse_targets(f"C4,K3,{text}")) == 3 * _reach(t) * (3 + t.vertex_count)


class LookupLog(Registry):
    """A registry that records every list it is asked about."""

    def __init__(self, facts=()):
        self.asked = []
        super().__init__(facts)

    def best_upper(self, targets):
        self.asked.append(targets.key())
        return super().best_upper(targets)


class TestEdgelessEntry:
    # a list with a kK1 entry is settled by Registry or TrivialEmpty alone
    def test_trivial_empty_plans_no_child(self):
        reg = LookupLog(seed_registry().facts())
        tree = derive(parse_targets("C4,C4,K11,3K1"), reg)
        assert (tree.rule, tree.value, tree.children) == ("TrivialEmpty", 3, ())
        assert reg.asked == [parse_targets("C4,C4,K11,3K1").key()]
        replay(tree)

    @pytest.mark.parametrize(
        "fact_value, rule, value",
        [(3, "Registry", 3), (9, "TrivialEmpty", 3)],
    )
    def test_registry_against_trivial_empty(self, fact_value, rule, value):
        reg = registry_with(f"C4,K4,3K1 | upper | {fact_value} | fake | user")
        tree = derive(parse_targets("C4,K4,3K1"), reg)
        assert (tree.rule, tree.value, tree.children) == (rule, value, ())

    def test_registry_below_trivial_empty_is_refused(self):
        # 3K1 needs 3 vertices, so R(C4,K4,3K1) >= 3 and an upper bound 2 is false
        with pytest.raises(ContradictionError, match="upper bound 2 for C4,3K1,K4 is below the trivial lower bound 3"):
            registry_with("C4,K4,3K1 | upper | 2 | fake | user")


def trivial_lower_bound(tl):
    """R(L) >= the largest entry's vertex count, or the least k of a kK1 entry
    if smaller: K_{T-1} in the color of a largest entry avoids every entry."""
    return min([max(oracle_vertex_count(t) for t in tl)] + [t.k for t in tl if t.kind == EMPTY])


class TestFloorRespectingRegistries:
    # registry facts at or up to 20 above the trivial lower bound
    FACT_LISTS = ["C4", "C4,C4", "C4,P3", "C4,K3", "C4,2K1", "C4,S2", "C4,K4", "C4,B2", "C4,C4,P3", "C4,C4,K3",
                  "C4,K3,K3", "C4,P3,K3", "C4,K3+1K1", "C4,K5", "C4,S3", "C4,C4,C4", "C4,K3,K4"]
    LISTS = ["C4,K5", "C4,K6", "C4,K4,K4", "C4,C4,K4", "C4,B3", "C4,S4,K3", "C4,K4+1K1", "C4,C4,K3,P3",
             "C4,K4,3K1", "C4,C4,C4,K3", "C4,K3+1K1,K4", "C4,C4,B2+1K1"]

    def test_no_derived_value_is_below_the_trivial_lower_bound(self):
        rng = random.Random(7)
        mt_nodes = 0
        for _ in range(100):
            facts = {}
            for text in rng.sample(self.FACT_LISTS, rng.randint(3, len(self.FACT_LISTS))):
                value = trivial_lower_bound(parse_targets(text)) + rng.randint(0, 20)
                facts[text] = f"{text} | {rng.choice(['exact', 'upper'])} | {value} | random | user"
            reg = registry_with(*facts.values())
            for text in self.LISTS:
                try:
                    tree = derive(parse_targets(text), reg)
                except CannotDeriveError:
                    continue
                replay(tree, reg)
                for node in tree.to_dict()["nodes"]:
                    assert node["value"] >= trivial_lower_bound(parse_targets(node["targets"])), node
                    if node["rule"] == "TheoremMT":
                        mt_nodes += 1
                        targets = parse_targets(node["targets"])
                        assert node["value"] > max(oracle_vertex_count(t) for t in targets), node
        assert mt_nodes > 1000


class TestNoCap:
    def test_k1200_iterates_the_main_bound(self):
        r = 36  # R(C4,K10) in the seed registry
        for _ in range(11, 1201):
            r = theorem_mt_bound(BoundQuery(1, (r,)))
        assert r == 367_690
        tree = derive(parse_targets("C4,K1200"), seed_registry())
        assert tree.value == r
        replay(tree)

    def test_shared_subtrees_are_replayed_once(self):
        # written out, this tree has about 1.7e10 nodes; derive() shares them
        tree = derive(parse_targets("C4,C4,K20,K20"), seed_registry())
        assert len(tree.to_dict()["nodes"]) < 10**4
        replay(tree)

    def test_rendered_lines_write_each_subtree_once(self):
        reg = seed_registry()
        for key in ["C4,K3,K4", "C4,K11", "C4,C4,K4,K4", "C4,C4,K8,K8", "C4,K8,K4+1K1", "C4,B17"]:
            tree = derive(parse_targets(key), reg)
            nodes = tree.to_dict()["nodes"]
            # the root's line, then one line per child slot of each node written in full
            assert len(tree.render_text().splitlines()) == 1 + sum(len(n["children"]) for n in nodes)


class TestTreeSerialization:
    def test_dict_round_trip(self):
        tree = derive(parse_targets("C4,C4,K4,K4"), seed_registry())
        again = DerivationTree.from_dict(tree.to_dict())
        assert again.to_dict() == tree.to_dict()
        replay(again)

    def test_stable_field_names(self):
        d = derive(parse_targets("C4,K11"), seed_registry()).to_dict()
        assert set(d) == {"nodes"}
        for node in d["nodes"]:
            assert set(node) == {"targets", "rule", "value", "kind", "citation", "notes", "children"}

    @pytest.mark.parametrize("children", [[1], [2], [-1], [True], ["0"]])
    def test_child_must_be_an_earlier_node(self, children):
        leaf = {"targets": "C4,K3", "rule": "Registry", "value": 7, "kind": "exact",
                "citation": "", "notes": {}, "children": []}
        with pytest.raises(ValueError, match="earlier"):
            DerivationTree.from_dict({"nodes": [leaf, {**leaf, "children": children}]})

    def test_empty_node_table(self):
        with pytest.raises(ValueError, match="empty"):
            DerivationTree.from_dict({"nodes": []})

    def test_render_text_mentions_rule_and_value(self):
        tree = derive(parse_targets("C4,K11"), seed_registry())
        text = tree.render_text()
        assert "43" in text and "TheoremMT" in text and "Registry" in text

    def test_repeated_subtree_is_marked_see_above(self):
        tree = derive(parse_targets("C4,C4,K4,K4"), seed_registry())
        marked = [line for line in tree.render_text().splitlines() if line.endswith("  (see above)")]
        assert marked and all(line.strip().startswith("R(C4,C4,K3,K4) <= 75") for line in marked)


class TestReplay:
    def test_tampered_value_detected(self):
        tree = derive(parse_targets("C4,K11"), seed_registry())
        bad = DerivationTree(
            targets=tree.targets,
            rule=tree.rule,
            value=tree.value + 1,
            kind=tree.kind,
            children=tree.children,
            notes=tree.notes,
        )
        with pytest.raises(ReplayError):
            replay(bad)

    @pytest.mark.parametrize(
        "text, rule, extra",
        [
            ("C4,3K1", "TrivialEmpty", ()),
            ("C4,S3", "TheoremMT", ()),  # Parsons' bound
            ("C4,B17", "TheoremMT", ()),  # the book corollary on the registry's C4,S17
            ("C4,B5", "TheoremMT", ()),  # the book corollary on Parsons' bound
            ("C4,C4,S3", "TheoremMT", ()),  # the multicolor star corollary
            ("C4,B3+1K1", "UnionK1", ()),
            ("C4,K11", "TheoremMT", ()),
        ],
    )
    def test_tampered_value_detected_for_each_rule(self, text, rule, extra):
        reg = registry_with(*extra) if extra else seed_registry()
        d = derive(parse_targets(text), reg).to_dict()
        nodes = [n for n in d["nodes"] if n["rule"] == rule]
        assert nodes, f"{text} has no {rule} node"
        replay(DerivationTree.from_dict(d), reg)
        nodes[-1]["value"] += 1
        with pytest.raises(ReplayError):
            replay(DerivationTree.from_dict(d), reg)

    @staticmethod
    def _table(text):
        return derive(parse_targets(text), seed_registry()).to_dict()

    def test_trivial_empty_needs_an_edgeless_entry(self):
        d = self._table("C4,3K1")
        d["nodes"][-1]["targets"] = "C4,K3"
        with pytest.raises(ReplayError, match="TrivialEmpty does not apply to C4,K3"):
            replay(DerivationTree.from_dict(d))

    def test_book_star_bound_must_match_its_child(self):
        d = self._table("C4,B17")
        leaf = d["nodes"][0]
        assert leaf["rule"] == "Registry"
        leaf["value"] += 1  # TheoremMT's r_1 is its child's value, the registry's star bound
        with pytest.raises(ReplayError, match=r"TheoremMT on C4,B17: notes \(r-values\)"):
            replay(DerivationTree.from_dict(d))

    def test_book_child_is_fixed_by_the_registry(self):
        # the seed registry's C4,S17 fact (22) beats Parsons' 23, so the book
        # tree stands on it, and a registry without the fact rejects that leaf
        seeded = self._table("C4,B17")
        with pytest.raises(ReplayError, match="Registry does not apply to C4,S17"):
            replay(DerivationTree.from_dict(seeded), Registry())
        bare = derive(parse_targets("C4,B17"), Registry())
        assert bare.children[0].rule == "TheoremMT" and bare.value == theorem_mt_bound(BoundQuery(1, (23,)))
        replay(bare, Registry())

    def test_theorem_mt_r_must_match_its_children(self):
        d = self._table("C4,K11")
        d["nodes"][-1]["notes"]["r"] = [35]
        with pytest.raises(ReplayError, match="r-values"):
            replay(DerivationTree.from_dict(d))

    def test_unknown_rule_rejected(self):
        d = self._table("C4,S3")
        d["nodes"][-1]["rule"] = "Magic"
        with pytest.raises(ReplayError, match="unknown rule"):
            replay(DerivationTree.from_dict(d))

    def test_relabelled_theorem_mt_children_rejected(self):
        d = self._table("C4,K4,K4")
        root = d["nodes"][-1]
        assert root["rule"] == "TheoremMT"
        for c in root["children"]:
            d["nodes"][c]["targets"] = "C4,K50"
        with pytest.raises(ReplayError):
            replay(DerivationTree.from_dict(d))

    def test_registry_leaf_must_match_the_registry(self):
        d = self._table("C4,K3,K4")
        (leaf,) = d["nodes"]
        assert leaf["rule"] == "Registry"
        leaf["value"] = 1
        with pytest.raises(ReplayError):
            replay(DerivationTree.from_dict(d))

    def test_parsons_reads_k_from_the_targets(self):
        # Parsons' bound on C4,S9 is Theorem MT over C4,9K1; notes written as
        # for C4,S2 do not replay, because the rule rebuilds them from the list
        d = self._table("C4,S9")
        leaf, root = d["nodes"]
        assert (root["rule"], leaf["rule"]) == ("TheoremMT", "TrivialEmpty")
        root["notes"].update(r=[2], deletions=["S2->2K1"])
        root["value"] = theorem_mt_bound(BoundQuery(1, (2,)))
        with pytest.raises(ReplayError, match="TheoremMT on C4,S9: notes"):
            replay(DerivationTree.from_dict(d))

    def test_all_seed_derivations_replay(self):
        reg = seed_registry()
        for key in ["C4,K11", "C4,K12", "C4,K4,K4", "C4,K3,K3,K3",
                    "C4,C4,K3,K4", "C4,C4,K4,K4", "C4,B17", "C4,S7"]:
            replay(derive(parse_targets(key), reg))


# the retired rule names must be rejected as unknown
RULES = (*_RULES, "MaxWithVertexCount", "Parsons", "BookCor", "StarsCor")

# Every derivable golden list but C4,K500, whose 491-node chain adds no node
# shape that the C4,K20 chain lacks; the paper's table rows are among them.
SWEEP_LISTS = [text for text in GOLDEN if text not in ("C4,K3", "C4,K500")]


def _edited(value):
    """One change to a notes value of a shape the planner writes."""
    if isinstance(value, list):
        return [_edited(value[0])] + value[1:] if value else [1]
    return value + ("x" if isinstance(value, str) else 1)


def single_field_edits(table):
    """(description, table) for each single-field edit of a node table: value
    +-1, kind, citation, rule, targets, each notes key (edited, dropped, one
    added) and each child (dropped, repointed, one added)."""
    nodes = table["nodes"]
    for i, node in enumerate(nodes):

        def edit(what, **changes):
            return f"node {i} ({node['targets']} {node['rule']}): {what}", {
                "nodes": nodes[:i] + [{**node, **changes}] + nodes[i + 1 :]
            }

        yield edit("value +1", value=node["value"] + 1)
        yield edit("value -1", value=node["value"] - 1)
        yield edit("kind", kind="upper" if node["kind"] == "exact" else "exact")
        yield edit("citation", citation=node["citation"] + "x")
        for rule in RULES:
            if rule != node["rule"]:
                yield edit(f"rule {rule}", rule=rule)
        yield edit("targets +C4", targets="C4," + node["targets"])
        if i and nodes[i - 1]["targets"] != node["targets"]:
            yield edit("targets of the node before", targets=nodes[i - 1]["targets"])
        notes = node["notes"]
        for key in notes:
            yield edit(f"notes {key} edited", notes={**notes, key: _edited(notes[key])})
            yield edit(f"notes {key} dropped", notes={k: v for k, v in notes.items() if k != key})
        yield edit("notes key added", notes={**notes, "extra": 1})
        kids = node["children"]
        for slot, c in enumerate(kids):
            yield edit(f"child {slot} dropped", children=kids[:slot] + kids[slot + 1 :])
            other = c - 1 if c else c + 1
            if other < i:
                yield edit(f"child {slot} repointed", children=kids[:slot] + [other] + kids[slot + 1 :])
        if i:
            yield edit("child added", children=kids + [i - 1])


class TestMutationSweep:
    def test_single_field_edits_are_rejected_or_keep_the_root_value(self):
        assert set(TABLE_ROWS) <= set(SWEEP_LISTS) and len(SWEEP_LISTS) == 19
        reg = seed_registry()
        edits, accepted = 0, []
        for text in SWEEP_LISTS:
            table = derive(parse_targets(text), reg).to_dict()
            root_value = table["nodes"][-1]["value"]
            for what, edited in single_field_edits(table):
                edits += 1
                tree = DerivationTree.from_dict(edited)
                try:
                    replay(tree)
                except ReplayError:
                    continue
                assert tree.value == root_value, f"{text}, {what}: replays to {tree.value}"
                accepted.append(f"{text}, {what}")
        # 2,718 edits with the live rule names and MaxWithVertexCount, and 420
        # more with the three retired corollary names
        assert edits == 3138
        # a true bound: C4,C4,3K1,B3 needs no more than 3 vertices either
        assert accepted == ["C4,3K1,B3, node 0 (C4,3K1,B3 TrivialEmpty): targets +C4"]
