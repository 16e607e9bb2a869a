"""Synthetic grid generator: counts, determinism, reference-scale ratio."""

import pytest

from ctmdist.errors import ScenarioError
from ctmdist.gridgen import generate_grid, grid_counts
from ctmdist.scenario import serialize_scenario


def count_elements(scenario):
    return len(scenario.nodes), len(scenario.links)


class TestCounts:
    def test_smallest_tile(self):
        s = generate_grid(1, 1)
        # one junction, one source pendant, one sink pendant
        assert count_elements(s) == (3, 2)
        assert grid_counts(1, 1) == (3, 2)
        assert len(s.connections) == 1  # source straight through to sink

    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 5), (4, 4), (7, 3), (10, 10)])
    def test_formula_matches_direct_count(self, rows, cols):
        s = generate_grid(rows, cols)
        assert count_elements(s) == grid_counts(rows, cols)

    def test_2x2_composition(self):
        nodes, links = grid_counts(2, 2)
        # 4 junctions all on the boundary, each with a source/sink pendant
        # pair; 4 two-way horizontal + 3 vertical (one column one-way)
        assert nodes == 4 + 2 * 4
        assert links == 4 + 3 + 2 * 4
        s = generate_grid(2, 2)
        assert count_elements(s) == (nodes, links)

    def test_boundary_sources_only(self):
        s = generate_grid(5, 5)
        sources = [l for l in s.links.values() if l.is_source]
        # every boundary junction gets exactly one source link
        assert len(sources) == 5 * 5 - 3 * 3
        for l in sources:
            assert len(s.in_conns[l.id]) == 0

    def test_every_nonsink_link_has_turns(self):
        s = generate_grid(4, 6)
        turning = {c.in_link for c in s.connections.values()}
        for l in s.links.values():
            if not l.is_sink:
                assert l.id in turning

    def test_uniform_splits(self):
        s = generate_grid(3, 3)
        for row in s.splits:
            outs = sorted({c.out_link for c in s.connections.values() if c.in_link == row.in_link})
            assert row.ratios == tuple((o, 1.0 / len(outs)) for o in outs)


class TestScale:
    def test_reference_scale_ratio_from_formula(self):
        # target ratio 268000/81250 within 10%, checked on the closed-form
        # counts at a grid size near the reference node count
        nodes, links = grid_counts(270, 270)
        assert 70_000 <= nodes <= 95_000
        ratio = links / nodes
        target = 268_000 / 81_250
        assert abs(ratio - target) <= 0.10 * target

    def test_bench_scale_ratio_constructed(self):
        s = generate_grid(60, 60)
        nodes, links = count_elements(s)
        assert (nodes, links) == grid_counts(60, 60)
        ratio = links / nodes
        target = 268_000 / 81_250
        assert abs(ratio - target) <= 0.10 * target


class TestDeterminism:
    def test_identical_inputs_identical_bytes(self):
        a = serialize_scenario(generate_grid(3, 4, demand_vph_per_lane=1500.0))
        b = serialize_scenario(generate_grid(3, 4, demand_vph_per_lane=1500.0))
        assert a == b

    def test_zero_dimensions_rejected(self):
        with pytest.raises(ScenarioError):
            generate_grid(0, 3)
        with pytest.raises(ScenarioError):
            grid_counts(3, 0)
