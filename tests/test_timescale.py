import math

import pytest
from hypothesis import given, settings

from helpers import probe_points, rho_oracle, scales, sigma_oracle
from tsvar import Segment, TimeScale, grid_from_points, parse_timescale, timescale
from tsvar.errors import (
    DegenerateScaleError,
    DomainError,
    InputFormatError,
    ParameterError,
)

UNIT = TimeScale.interval(0.0, 1.0)
UNIT_PLUS_POINT = TimeScale.from_segments([Segment(0.0, 1.0), Segment(2.0, 2.0)])
INTEGERS = TimeScale.of_points(0, 1, 2, 3, 4)


class TestConstruction:
    def test_segments_must_be_ordered(self):
        with pytest.raises(ParameterError):
            TimeScale((Segment(0.0, 1.0), Segment(0.5, 2.0)))

    def test_from_segments_merges_overlaps(self):
        ts = TimeScale.from_segments(
            [Segment(0.5, 2.0), Segment(0.0, 1.0), Segment(1.0, 1.0), Segment(3.0, 3.0)])
        assert [(s.left, s.right) for s in ts.segments] == [(0.0, 2.0), (3.0, 3.0)]

    def test_endpoints(self):
        assert UNIT_PLUS_POINT.a == 0.0
        assert UNIT_PLUS_POINT.b == 2.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            Segment(0.0, math.inf)


class TestContains:
    def test_interval_interior(self):
        assert UNIT_PLUS_POINT.contains(0.5)

    def test_gap_point(self):
        assert not UNIT_PLUS_POINT.contains(1.5)

    def test_isolated_point(self):
        assert UNIT_PLUS_POINT.contains(2.0)


class TestJumpOperators:
    def test_sigma_next_integer(self):
        assert INTEGERS.sigma(1.0) == 2.0

    def test_sigma_right_dense(self):
        assert UNIT.sigma(0.5) == 0.5

    def test_sigma_across_gap(self):
        # inf of {2} over points strictly after 1
        assert UNIT_PLUS_POINT.sigma(1.0) == 2.0

    def test_sigma_top_fixed(self):
        assert UNIT_PLUS_POINT.sigma(2.0) == 2.0

    def test_rho_previous_integer(self):
        assert INTEGERS.rho(1.0) == 0.0

    def test_rho_left_dense(self):
        assert UNIT.rho(0.5) == 0.5

    def test_rho_across_gap(self):
        # sup of [0,1] over points strictly before 2
        assert UNIT_PLUS_POINT.rho(2.0) == 1.0

    def test_rho_bottom_fixed(self):
        assert UNIT.rho(0.0) == 0.0

    def test_outside_scale_is_domain_error(self):
        with pytest.raises(DomainError):
            UNIT_PLUS_POINT.sigma(1.5)
        with pytest.raises(DomainError):
            UNIT_PLUS_POINT.rho(-1.0)


class TestGraininess:
    def test_h_lattice(self):
        h_lattice = TimeScale.of_points(0.0, 0.25, 0.5, 0.75, 1.0)
        assert h_lattice.mu(0.5) == 0.25

    def test_dense_point(self):
        assert UNIT.mu(0.3) == 0.0
        assert UNIT.nu(0.3) == 0.0

    def test_gap_adjacent(self):
        assert UNIT_PLUS_POINT.mu(1.0) == 1.0
        assert UNIT_PLUS_POINT.nu(1.0) == 0.0


class TestClassify:
    def test_isolated(self):
        assert INTEGERS.classify(2.0).isolated

    def test_dense(self):
        assert UNIT.classify(0.5).dense

    def test_mixed(self):
        cls = UNIT_PLUS_POINT.classify(1.0)
        assert cls.left_dense and cls.right_scattered

    def test_endpoint_conventions(self):
        # sigma(b) = b and rho(a) = a make the extremes one-sided dense
        cls_b = INTEGERS.classify(4.0)
        assert cls_b.right_dense and cls_b.left_scattered
        cls_a = INTEGERS.classify(0.0)
        assert cls_a.left_dense and cls_a.right_scattered


class TestTruncations:
    def test_kappa_removes_scattered_max(self):
        assert INTEGERS.truncate_kappa() == TimeScale.of_points(0, 1, 2, 3)

    def test_kappa_keeps_dense_max(self):
        assert UNIT.truncate_kappa() == UNIT

    def test_kappa_sub_keeps_dense_min(self):
        assert UNIT_PLUS_POINT.truncate_kappa_sub() == UNIT_PLUS_POINT

    def test_kappa_sub_removes_scattered_min(self):
        assert INTEGERS.truncate_kappa_sub() == TimeScale.of_points(1, 2, 3, 4)

    def test_kappa_total_on_two_points(self):
        two = TimeScale.of_points(0, 1)
        assert two.truncate_kappa() == TimeScale.of_points(0)


class TestInteriorKK2:
    def test_integers(self):
        # two kappa cuts from the top leave {0,1,2}, two from the bottom
        # {2,3,4}; the doubly truncated interior is the intersection {2}
        got = INTEGERS.interior_kk2()
        assert [(s.left, s.right) for s in got.segments] == [(2.0, 2.0)]

    def test_dense_interval_unchanged(self):
        assert UNIT.interior_kk2() == UNIT

    def test_too_few_points(self):
        with pytest.raises(DegenerateScaleError):
            TimeScale.of_points(0, 1).interior_kk2()

    def test_matches_index_arithmetic_on_discrete_scales(self):
        pts = [0.0, 0.4, 1.1, 1.5, 2.0, 3.7, 4.0]
        got = TimeScale.of_points(*pts).interior_kk2()
        assert [s.left for s in got.segments] == pts[2:-2]


@settings(max_examples=200)
@given(scales())
def test_interior_is_where_both_double_cuts_meet(scale):
    top = scale.truncate_kappa().truncate_kappa()
    bottom = scale.truncate_kappa_sub().truncate_kappa_sub()
    probe = probe_points(scale)
    both = [top.contains(p) and bottom.contains(p) for p in probe]
    if not any(both):
        with pytest.raises(DegenerateScaleError):
            scale.interior_kk2()
        return
    interior = scale.interior_kk2()
    assert [interior.contains(p) for p in probe] == both


class TestDiscretize:
    def test_purely_discrete_is_identity(self):
        scale = TimeScale.of_points(0, 1, 2)
        grid = scale.discretize(0.3)
        assert grid.points.tolist() == [0.0, 1.0, 2.0]
        assert not any(grid.dense_flags)

    def test_uniform_split(self):
        grid = UNIT.discretize(0.5)
        assert grid.points.tolist() == [0.0, 0.5, 1.0]
        assert grid.dense_flags.tolist() == [False, True, False]

    def test_per_segment_subdivision(self):
        grid = UNIT_PLUS_POINT.discretize(0.5)
        assert grid.points.tolist() == [0.0, 0.5, 1.0, 2.0]
        assert grid.dense_flags.tolist() == [False, True, False, False]

    @pytest.mark.parametrize("right, h", [(1.0, math.inf), (5e-324, 1e300)])
    def test_step_past_the_interval_keeps_both_endpoints(self, right, h):
        grid = TimeScale.interval(0.0, right).discretize(h)
        assert grid.points.tolist() == [0.0, right]
        assert grid.dense_flags.tolist() == [False, False]

    def test_idempotent_on_discrete_scales(self):
        scale = TimeScale.of_points(0.1, 0.7, 1.9)
        for h in (1.0, 0.01, 123.0):
            assert scale.discretize(h).points.tolist() == [0.1, 0.7, 1.9]

    def test_near_integer_ratio_does_not_degenerate(self):
        # span/h barely above 10 must still give 10 steps, not 11
        span = 1.0
        h = span / 10 * (1 - 1e-14)
        grid = TimeScale.interval(0.0, span).discretize(h)
        assert len(grid.points) == 11

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ParameterError):
            UNIT.discretize(0.0)

    def test_step_bound_holds(self):
        grid = TimeScale.interval(0.0, 1.0).discretize(0.3)
        gaps = [q - p for p, q in zip(grid.points, grid.points[1:])]
        assert all(g <= 0.3 + 1e-15 for g in gaps)


class TestGridFromPoints:
    def test_flags_recovered(self):
        grid = grid_from_points(UNIT_PLUS_POINT, [0.0, 0.25, 1.0, 2.0])
        assert grid.dense_flags.tolist() == [False, True, False, False]

    def test_missing_endpoint_rejected(self):
        with pytest.raises(DomainError):
            grid_from_points(UNIT_PLUS_POINT, [0.0, 1.0])

    def test_foreign_point_rejected(self):
        with pytest.raises(DomainError):
            grid_from_points(UNIT_PLUS_POINT, [0.0, 1.0, 1.5, 2.0])


class TestLiteralSyntax:
    def test_union_of_lines(self):
        ts = parse_timescale("interval 0 1\npoints 2 3\n")
        assert [(s.left, s.right) for s in ts.segments] == [(0.0, 1.0), (2.0, 2.0), (3.0, 3.0)]

    def test_semicolons_and_comments(self):
        ts = parse_timescale("# lattice\npoints 0 1; points 2")
        assert len(ts.segments) == 3

    def test_bad_directive(self):
        with pytest.raises(InputFormatError):
            parse_timescale("segment 0 1")

    def test_bad_number_reports_line(self):
        with pytest.raises(InputFormatError) as err:
            parse_timescale("points 0\ninterval 1 x")
        assert err.value.line == 2

    def test_empty(self):
        with pytest.raises(InputFormatError):
            parse_timescale("  \n# nothing\n")


@settings(max_examples=60)
@given(scales())
def test_jump_operator_invariants(scale):
    probe = probe_points(scale, per_segment=13)
    for t in probe:
        assert scale.rho(t) <= t <= scale.sigma(t)
        assert scale.mu(t) >= 0.0
        assert scale.nu(t) >= 0.0
        cls = scale.classify(t)
        assert cls.right_scattered == (scale.sigma(t) > t)
        assert cls.left_scattered == (scale.rho(t) < t)


@settings(max_examples=60)
@given(scales())
def test_sigma_monotone_on_probe(scale):
    probe = probe_points(scale, per_segment=13)
    sig = [scale.sigma(t) for t in probe]
    rho = [scale.rho(t) for t in probe]
    assert all(a <= b for a, b in zip(sig, sig[1:]))
    assert all(a <= b for a, b in zip(rho, rho[1:]))


@settings(max_examples=60)
@given(scales())
def test_scattered_gaps_are_empty(scale):
    probe = probe_points(scale, per_segment=13)
    for t in probe:
        s = scale.sigma(t)
        if s > t:
            for k in range(1, 8):
                q = t + (s - t) * k / 8
                assert not scale.contains(q)


@settings(max_examples=60)
@given(scales())
def test_sigma_rho_agree_with_probe_oracle(scale):
    # the probe oracle resolves jumps only down to the probe spacing
    per = 29
    probe = probe_points(scale, per_segment=per)
    resolution = max(
        (seg.right - seg.left) / per for seg in scale.segments) if any(
        not s.is_point for s in scale.segments) else 0.0
    for t in probe:
        assert abs(scale.sigma(t) - sigma_oracle(probe, t)) <= resolution + 1e-12
        assert abs(scale.rho(t) - rho_oracle(probe, t)) <= resolution + 1e-12


@settings(max_examples=40)
@given(scales())
def test_discretize_endpoints_exact(scale):
    grid = scale.discretize(0.37)
    pts = set(grid.points)
    for seg in scale.segments:
        assert seg.left in pts and seg.right in pts
    for p, flag in zip(grid.points, grid.dense_flags):
        assert scale.contains(p)
        if flag:
            assert scale.sigma(p) == p and scale.rho(p) == p


@settings(max_examples=60)
@given(scales())
def test_infinite_step_gives_the_segment_endpoints(scale):
    ends = [p for seg in scale.segments
            for p in ((seg.left,) if seg.is_point else (seg.left, seg.right))]
    assert scale.discretize(math.inf).points.tolist() == ends


class TestGridBudget:
    def test_too_fine_step_is_refused_before_building(self):
        with pytest.raises(ParameterError, match="more than 10000000 grid points"):
            UNIT.discretize(1e-12)

    def test_step_ratio_overflowing_to_inf(self):
        with pytest.raises(ParameterError, match="grid points"):
            UNIT.discretize(1e-320)

    def test_budget_counts_every_segment(self, monkeypatch):
        monkeypatch.setattr(timescale, "MAX_GRID_POINTS", 12)
        # 11 points on [0, 1] and one isolated point: at the budget
        assert len(UNIT_PLUS_POINT.discretize(0.1)) == 12
        with pytest.raises(ParameterError):
            UNIT_PLUS_POINT.discretize(0.09)
        with pytest.raises(ParameterError):
            TimeScale.of_points(*range(13)).discretize(1.0)
