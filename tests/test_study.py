"""Batch harness, statistics, Ruckle sweep, two-box study, CSV round-trips."""

import pytest

import boxsearch.study as study_module
import ruckle_oracle
from boxsearch import SCHEMES, future_benefit, ruckle_sweep, run_batch, summarize
from boxsearch.errors import BoxSearchError, EmptyGame
from boxsearch.study import (
    BatchRecord,
    _ruckle_game,
    _ruckle_max_h,
    _ruckle_pstar,
    _ruckle_tie_strategy,
    _ruckle_value,
    read_batch_csv,
    read_ruckle_csv,
    two_box_games,
    two_box_study,
    write_batch_csv,
    write_ruckle_csv,
)
from ruckle_oracle import (
    closed_form_value,
    extract_tie_index,
    scan_pstar,
    scan_sweep,
)

# every alpha of the c3 acceptance test, i/40 and four small alphas
_RUCKLE_GRID = sorted(
    {i / 40 for i in range(1, 40)}
    | {0.001, 0.003, 0.005, 0.01, 0.3, 0.35, 0.4, 0.5, 0.6, 0.65, 0.7, 0.9}
)


def record(**overrides) -> BatchRecord:
    base = dict(
        index=0, scheme="varied", t=(1.0, 2.0), alpha=(0.3, 0.7),
        v_star=5.0, u_p0=5.0, p0_optimal=True, pct_below=0.0,
        iterations=0, wall_time=0.01, error=None,
    )
    base.update(overrides)
    return BatchRecord(**base)


class TestRunBatch:
    def test_single_game_reproducible(self):
        a = run_batch(SCHEMES["high"], 2, 1, epsilon=1e-3, seed=11)
        b = run_batch(SCHEMES["high"], 2, 1, epsilon=1e-3, seed=11)
        assert len(a) == 1
        assert a[0] == b[0] or (
            # wall_time is the only nondeterministic field
            a[0].v_star == b[0].v_star
            and a[0].u_p0 == b[0].u_p0
            and a[0].pct_below == b[0].pct_below
            and a[0].iterations == b[0].iterations
        )

    def test_heuristic_never_beats_optimum(self):
        records = run_batch(SCHEMES["varied"], 2, 30, epsilon=1e-6, seed=12)
        for r in records:
            assert r.error is None
            assert r.u_p0 <= r.v_star * (1 + 1e-9)
            assert r.pct_below >= -1e-6
            if r.p0_optimal:
                assert r.pct_below < 1e-5
                assert r.iterations == 0
            else:
                assert r.iterations >= 1

    def test_p0_optimal_records_read_exactly_zero(self):
        records = run_batch(SCHEMES["varied"], 3, 20, epsilon=1e-6, seed=14)
        optimal = [r for r in records if r.p0_optimal]
        assert optimal
        for r in optimal:
            assert r.pct_below == 0.0

    def test_tests_p0_at_every_n(self):
        records = run_batch(SCHEMES["varied"], 8, 2, epsilon=1e-3, seed=13)
        assert all(r.error is None for r in records)
        assert all(r.p0_optimal is not None for r in records)

    def test_per_game_failure_recorded_batch_continues(self, monkeypatch):
        import boxsearch.study as study_mod
        from boxsearch.errors import NumericalFailure

        calls = {"n": 0}
        original = study_mod.test_p0_optimality

        def flaky(game, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise NumericalFailure("injected")
            return original(game, **kwargs)

        monkeypatch.setattr(study_mod, "test_p0_optimality", flaky)
        records = run_batch(SCHEMES["high"], 2, 3, epsilon=1e-3, seed=18)
        assert len(records) == 3
        assert records[1].error == "NumericalFailure: injected"
        assert records[0].error is None and records[2].error is None

    def test_unconverged_solve_is_recorded_as_an_error(self):
        # below the payoff brackets' 1e-10 tolerance every solve stalls
        records = run_batch(SCHEMES["varied"], 3, 12, epsilon=1e-13, seed=5)
        solved = [r for r in records if r.p0_optimal is False]
        assert len(solved) == 9
        for r in solved:
            assert r.error.startswith("stalled: gap ")
            assert r.iterations >= 1 and r.v_star >= r.u_p0
        assert all(r.error is None for r in records if r.p0_optimal)
        stats = summarize(records)
        assert stats.count == 3 and stats.solved == 0
        # a stalled solve leaves the record's p0 decision valid, so the
        # fraction counts all 12 tested games, not only the 3 clean ones
        assert stats.frac_p0_optimal == 0.25


class TestSummarize:
    def test_all_optimal(self):
        stats = summarize([record(), record(index=1)])
        assert stats.mean_pct_below == 0.0
        assert stats.p95_pct_below == 0.0
        assert stats.frac_p0_optimal == 1.0
        assert stats.mean_iterations is None

    def test_mean_of_two(self):
        stats = summarize([
            record(),
            record(index=1, p0_optimal=False, pct_below=2.0, iterations=4),
        ])
        assert stats.mean_pct_below == 1.0
        assert stats.frac_p0_optimal == 0.5
        assert stats.mean_iterations == 4.0

    def test_empty_batch(self):
        with pytest.raises(EmptyGame):
            summarize([])
        with pytest.raises(EmptyGame):
            summarize([record(error="NumericalFailure: boom")])

    def test_untested_records_have_no_fraction(self):
        stats = summarize([record(p0_optimal=None, iterations=3)])
        assert stats.frac_p0_optimal is None


class TestRuckleSweep:
    def test_table_values(self):
        records = {r.alpha: r for r in ruckle_sweep([0.7, 0.5, 0.3])}
        assert records[0.7].h == 1
        assert records[0.7].p_star_1 == pytest.approx(1 / 1.7, rel=1e-9)
        assert records[0.5].h == 2
        assert records[0.5].p_star_1 == pytest.approx(0.8, rel=1e-9)
        assert records[0.3].h == 3

    def test_h_one_iff_p0(self):
        for r in ruckle_sweep([0.65, 0.6]):
            if r.h == 1:
                assert r.p_star_1 == pytest.approx(r.p0_1, abs=1e-6)
            else:
                assert r.p_star_1 > r.p0_1 + 1e-6

    def test_small_alpha_reports_the_peak(self):
        # u(p_h) peaks near h = 1/alpha = 1000, past the scan's old cap of
        # 512 searches, where u was still rising
        (r,) = ruckle_sweep([0.001])
        game = _ruckle_game(0.001)
        u = {h: _ruckle_value(game, _ruckle_tie_strategy(0.001, h))
             for h in (r.h - 1, r.h, r.h + 1)}
        assert u[r.h] >= max(u[r.h - 1], u[r.h + 1])
        assert r.h > 512
        assert r.p_star_1 == _ruckle_tie_strategy(0.001, r.h).p[0]

    def test_scan_that_ends_before_the_peak_raises(self, monkeypatch):
        # the search, and the scan it replaced, both refuse to report a
        # peak they have not seen u decrease after
        monkeypatch.setattr(study_module, "_ruckle_max_h", lambda alpha: 512)
        with pytest.raises(BoxSearchError, match="not past its peak by h = 512"):
            _ruckle_pstar(0.001)
        with pytest.raises(BoxSearchError, match="not past its peak"):
            ruckle_sweep([0.5, 0.001])
        monkeypatch.setattr(ruckle_oracle, "_ruckle_max_h", lambda alpha: 512)
        with pytest.raises(BoxSearchError, match="not past its peak"):
            scan_pstar(0.001)
        with pytest.raises(BoxSearchError, match="no index tie within 512"):
            extract_tie_index(0.001, _ruckle_tie_strategy(0.001, 1000).p[0])

    def test_extract_tie_index_at_kinks(self):
        # p* is the tie strategy of the reported h: its two indices meet
        # at search h, p alpha (1-alpha)^(h-1) = 1 - p
        for alpha, h in ((0.5, 2), (0.3, 3), (0.35, 3)):
            (r,) = ruckle_sweep([alpha])
            assert r.h == h
            p = 1.0 / (1.0 + alpha * (1.0 - alpha) ** (h - 1))
            assert r.p_star_1 == p
            assert extract_tie_index(alpha, r.p_star_1) == h
            assert p * alpha * (1.0 - alpha) ** (h - 1) == pytest.approx(
                1.0 - p, rel=1e-12
            )

    def test_records_equal_the_scan(self):
        def hexed(r):
            return r.alpha.hex(), r.p0_1.hex(), r.p_star_1.hex(), r.h

        assert ([hexed(r) for r in ruckle_sweep(_RUCKLE_GRID)]
                == [hexed(r) for r in scan_sweep(_RUCKLE_GRID)])

    def test_search_finds_the_closed_form_peak(self):
        for alpha in _RUCKLE_GRID:
            (r,) = ruckle_sweep([alpha])
            if r.h == 1:
                continue
            values = [closed_form_value(alpha, h)
                      for h in range(1, _ruckle_max_h(alpha) + 1)]
            assert r.h == 1 + values.index(max(values)), f"alpha={alpha}"

    def test_tiny_alpha_reports_the_closed_form_peak(self):
        # the scan would evaluate 10 000 counters here
        (r,) = ruckle_sweep([1e-4])
        values = [closed_form_value(1e-4, h)
                  for h in range(1, _ruckle_max_h(1e-4) + 1)]
        assert r.h == 1 + values.index(max(values)) == 10000
        assert r.p_star_1 == _ruckle_tie_strategy(1e-4, r.h).p[0]


class TestTwoBoxStudy:
    def test_relabel_postcondition(self):
        for game in two_box_games(25, seed=14):
            assert future_benefit(game, 0) <= future_benefit(game, 1)

    def test_counts_partition(self):
        result = two_box_study(20, seed=15, epsilon=1e-5)
        assert result.n_pstar_greater + result.n_pstar_smaller == result.n_suboptimal
        assert result.n_suboptimal <= 20

    def test_single_game_contract(self):
        result = two_box_study(1, seed=16)
        assert result.n_suboptimal in (0, 1)
        if result.n_suboptimal == 0:
            assert result == (0, 0, 0)


class TestCsvRoundTrip:
    def test_batch_records(self, tmp_path):
        records = run_batch(SCHEMES["medium"], 2, 4, epsilon=1e-3, seed=17)
        path = tmp_path / "batch.csv"
        write_batch_csv(records, path)
        assert read_batch_csv(path) == records
        assert path.read_text().startswith("# boxsearch-batch-v1")

    def test_batch_none_and_bool_fields(self, tmp_path):
        records = [
            record(),
            record(index=1, p0_optimal=None, iterations=7),
            record(index=2, p0_optimal=False, pct_below=0.25, iterations=3),
        ]
        path = tmp_path / "batch.csv"
        write_batch_csv(records, path)
        assert read_batch_csv(path) == records

    def test_ruckle_records(self, tmp_path):
        records = ruckle_sweep([0.7, 0.4])
        path = tmp_path / "ruckle.csv"
        write_ruckle_csv(records, path)
        assert read_ruckle_csv(path) == records
        assert path.read_bytes().decode() == (
            "# boxsearch-ruckle-v1\n"
            "alpha,p0_1,p_star_1,h\r\n"
            f"0.7,{records[0].p0_1!r},{records[0].p_star_1!r},1\r\n"
            f"0.4,{records[1].p0_1!r},{records[1].p_star_1!r},{records[1].h}\r\n"
        )

    def test_error_record_round_trip(self, tmp_path):
        import math as _math

        bad = record(
            index=9, v_star=_math.nan, u_p0=_math.nan,
            p0_optimal=None, pct_below=_math.nan,
            error="NumericalFailure: injected",
        )
        path = tmp_path / "batch.csv"
        write_batch_csv([bad], path)
        back = read_batch_csv(path)[0]
        assert back.error == bad.error
        assert back.index == 9
        assert _math.isnan(back.v_star) and _math.isnan(back.pct_below)

    def test_batch_file_layout(self, tmp_path):
        # a comma and quotes in the error text are quoted by the csv
        # module; None is an empty cell; floats are written by repr
        records = [
            record(p0_optimal=None, v_star=float("nan"),
                   error='stalled: gap 1e-12, "late"'),
            record(index=1, t=(0.1, 2.5), pct_below=1.25e-7),
        ]
        path = tmp_path / "batch.csv"
        write_batch_csv(records, path)
        assert path.read_bytes().decode() == (
            "# boxsearch-batch-v1\n"
            "index,scheme,t,alpha,v_star,u_p0,p0_optimal,pct_below,"
            "iterations,wall_time,error\r\n"
            '0,varied,1.0 2.0,0.3 0.7,nan,5.0,,0.0,0,0.01,'
            '"stalled: gap 1e-12, ""late"""\r\n'
            "1,varied,0.1 2.5,0.3 0.7,5.0,5.0,True,1.25e-07,0,0.01,\r\n"
        )
        back = read_batch_csv(path)
        assert back[1] == records[1]
        assert back[0].error == records[0].error and back[0].p0_optimal is None

    def test_version_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,known,header\n")
        with pytest.raises(BoxSearchError):
            read_batch_csv(path)
        with pytest.raises(BoxSearchError):
            read_ruckle_csv(path)
