"""The racing portfolio engine: verdicts, winners, cancellation, caching."""

import pytest

from repro.core import CoverageOptions
from repro.designs import get_design
from repro.engines import (
    CancelToken,
    Cancelled,
    PortfolioEngine,
    check_cancelled,
    engine_from_options,
    get_engine,
    using_cancel_token,
)
from repro.engines.portfolio import DEFAULT_MEMBERS
from repro.obs.trace import add_sink, remove_sink
from repro.runner.cache import ResultCache, using_result_cache

_BMC_BOUND = 6
_DESIGNS = ["mal_fig2", "mal_fig4", "paper_example", "telemetry_bank"]


class TestCancellation:
    def test_token_starts_clear(self):
        token = CancelToken()
        assert not token.cancelled
        with using_cancel_token(token):
            check_cancelled()  # must not raise

    def test_cancelled_token_raises_at_poll(self):
        token = CancelToken()
        token.cancel()
        with using_cancel_token(token):
            with pytest.raises(Cancelled):
                check_cancelled()

    def test_no_token_never_raises(self):
        check_cancelled()

    def test_token_scoping_restores_previous(self):
        outer, inner = CancelToken(), CancelToken()
        inner.cancel()
        with using_cancel_token(outer):
            with using_cancel_token(inner):
                with pytest.raises(Cancelled):
                    check_cancelled()
            check_cancelled()  # outer token is clear again


class TestPollCounters:
    def test_polls_counted_per_member(self):
        token = CancelToken()
        with using_cancel_token(token, member="bmc"):
            for _ in range(5):
                check_cancelled()
        snap = token.progress_snapshot()
        assert snap == {"bmc": {"polls": 5, "polls_after_cancel": 0}}

    def test_cancel_observed_at_first_poll(self):
        token = CancelToken()
        with using_cancel_token(token, member="explicit"):
            check_cancelled()
            token.cancel()
            with pytest.raises(Cancelled):
                check_cancelled()
        snap = token.progress_snapshot()
        # Cooperative shutdown: the member dies at its first poll after the
        # cancel, so exactly one poll lands past the cancellation point.
        assert snap["explicit"]["polls"] == 2
        assert snap["explicit"]["polls_after_cancel"] == 1

    def test_anonymous_polls_are_not_counted(self):
        token = CancelToken()
        with using_cancel_token(token):  # no member name
            check_cancelled()
        assert token.progress_snapshot() == {}

    def test_parallel_race_reports_loser_progress(self):
        # A real race: the result must carry the per-member snapshot, and no
        # losing member may keep polling past the handful it needs to observe
        # the winner's cancellation.
        problem = get_design("paper_example").builder()
        engine = get_engine("portfolio", max_bound=_BMC_BOUND)
        compiled = engine.compile(
            problem.composed_module(), list(problem.rtl_properties)
        )
        result = engine.find_run(compiled)
        assert result.progress is not None
        for member, entry in result.progress.items():
            assert member in ("explicit", "bmc", "symbolic")
            assert entry["polls"] >= 1
            assert entry["polls_after_cancel"] <= 2, (member, entry)


class TestRegistry:
    def test_aliases(self):
        assert isinstance(get_engine("portfolio"), PortfolioEngine)
        assert isinstance(get_engine("race"), PortfolioEngine)

    def test_member_validation(self):
        with pytest.raises(ValueError):
            PortfolioEngine(members=())
        with pytest.raises(ValueError):
            PortfolioEngine(members=("portfolio",))

    def test_kwarg_forwarding(self):
        engine = get_engine("portfolio", max_bound=4, slicing=False)
        assert engine.max_bound == 4
        assert engine.slicing is False

    def test_members_get_every_engine_setting(self):
        """``--engine portfolio --bdd-reorder`` reaches the symbolic member."""
        options = CoverageOptions(
            engine="portfolio", bmc_max_bound=5, slicing=False, bdd_reorder=True
        )
        members = engine_from_options(options)._member_engines()
        assert [member.name for member in members] == list(DEFAULT_MEMBERS)
        for member in members:
            settings = (member.max_bound, member.slicing, getattr(member, "bdd_reorder", None))
            assert settings == (5, False, True), member.name


@pytest.mark.parametrize("design", _DESIGNS)
class TestVerdicts:
    def test_matches_catalog_and_records_winner(self, design):
        entry = get_design(design)
        verdict = get_engine("portfolio", max_bound=_BMC_BOUND).check_primary(
            entry.builder()
        )
        assert verdict.covered == entry.expected_covered
        assert verdict.engine == "portfolio"
        assert verdict.winner in ("explicit", "bmc", "symbolic")
        assert verdict.complete
        if not verdict.covered:
            assert verdict.witness is not None

    def test_serial_ladder_agrees(self, design):
        entry = get_design(design)
        verdict = PortfolioEngine(max_bound=_BMC_BOUND, parallel=False).check_primary(
            entry.builder()
        )
        assert verdict.covered == entry.expected_covered
        assert verdict.winner in ("explicit", "bmc", "symbolic")


class TestDecisiveness:
    def test_witness_from_bounded_member_is_decisive(self):
        # A gap design: bmc's satisfiable verdict is concrete and final.
        problem = get_design("mal_fig4").builder()
        engine = PortfolioEngine(max_bound=_BMC_BOUND, members=("bmc",), parallel=False)
        verdict = engine.check_primary(problem)
        assert not verdict.covered
        assert verdict.winner == "bmc"
        assert verdict.complete  # refutations are definitive

    def test_bounded_unsat_fallback_is_incomplete(self):
        # A covered design with only the bounded member: the race has no
        # decisive verdict and must fall back to the bounded one, saying so.
        problem = get_design("mal_fig2").builder()
        engine = PortfolioEngine(max_bound=_BMC_BOUND, members=("bmc",), parallel=False)
        verdict = engine.check_primary(problem)
        assert verdict.covered
        assert verdict.winner == "bmc"
        assert not verdict.complete

    def test_complete_member_beats_bounded_fallback(self):
        problem = get_design("mal_fig2").builder()
        engine = PortfolioEngine(
            max_bound=_BMC_BOUND, members=("bmc", "explicit"), parallel=False
        )
        verdict = engine.check_primary(problem)
        assert verdict.covered
        assert verdict.winner == "explicit"
        assert verdict.complete


class TestCaching:
    def test_cached_replay_preserves_winner_and_completeness(self):
        problem = get_design("mal_fig4").builder()
        engine = get_engine("portfolio", max_bound=_BMC_BOUND)
        with using_result_cache(ResultCache()):
            first = engine.check_primary(problem)
            second = engine.check_primary(problem)
        assert first.covered == second.covered
        assert second.winner == first.winner
        assert second.complete == first.complete

    def test_race_populates_member_cache_keys(self):
        # The winning member's own cache entry must exist so a later pinned
        # run (--engine <winner>) replays instead of re-searching.
        problem = get_design("mal_fig4").builder()
        cache = ResultCache()
        with using_result_cache(cache):
            verdict = get_engine("portfolio", max_bound=_BMC_BOUND).check_primary(problem)
            winner = verdict.winner
            before = cache.stats.hits
            pinned = get_engine(winner, max_bound=_BMC_BOUND).check_primary(problem)
        assert pinned.covered == verdict.covered
        assert cache.stats.hits > before


class _RaceModes:
    """Trace sink collecting the ``mode`` of every ``portfolio_race`` span."""

    def __init__(self):
        self.modes = []

    def record(self, record):
        if record.name == "portfolio_race":
            self.modes.append(record.attrs["mode"])

    def __enter__(self):
        add_sink(self)
        return self.modes

    def __exit__(self, *exc):
        remove_sink(self)
        return False


class TestRaceMode:
    def test_race_records_mode(self):
        with _RaceModes() as modes:
            get_engine("portfolio", max_bound=_BMC_BOUND).check_primary(
                get_design("mal_fig2").builder()
            )
        assert modes == ["race"]

    def test_ladder_records_mode(self):
        with _RaceModes() as modes:
            PortfolioEngine(max_bound=_BMC_BOUND, parallel=False).check_primary(
                get_design("mal_fig2").builder()
            )
        assert modes == ["ladder"]


class TestLadderWinner:
    """Regression: the serial ladder must report winners everywhere the
    parallel race does — on the verdict, in suite rows and in cache payloads
    (including the bounded-fallback rung)."""

    def test_ladder_winner_on_verdict(self):
        for design in _DESIGNS:
            entry = get_design(design)
            verdict = PortfolioEngine(max_bound=_BMC_BOUND, parallel=False).check_primary(
                entry.builder()
            )
            assert verdict.winner in ("explicit", "bmc", "symbolic"), design

    def test_ladder_bounded_fallback_still_names_winner(self):
        from repro.ltl.ast import Not

        problem = get_design("mal_fig2").builder()
        engine = PortfolioEngine(max_bound=_BMC_BOUND, members=("bmc",), parallel=False)
        # The primary coverage query of a covered design: unsatisfiable, so
        # the bounded member can only answer "unsat up to the bound".
        result = engine.find_run(
            problem.composed_module(),
            [Not(problem.architectural_conjunction())] + problem.all_rtl_formulas(),
        )
        assert result.winner == "bmc"
        assert result.complete is False
        assert result.outcomes["bmc"] == "won"

    def test_ladder_winner_survives_cache_replay(self):
        problem = get_design("mal_fig2").builder()
        engine = PortfolioEngine(max_bound=_BMC_BOUND, parallel=False)
        with using_result_cache(ResultCache()):
            first = engine.check_primary(problem)
            second = engine.check_primary(problem)
        assert first.winner is not None
        assert second.winner == first.winner

    def test_ladder_winner_in_suite_rows(self):
        from repro.runner import expand_jobs, run_suite

        jobs = [
            job
            for job in expand_jobs(
                ["mal_fig2"], engine="portfolio", bound=_BMC_BOUND
            )
            if job.kind == "primary"
        ]
        result = run_suite(jobs, workers=1, use_cache=False)
        assert result.succeeded
        for shard in result.shards:
            row = shard.row()
            assert row["winner"] in ("explicit", "bmc", "symbolic")

    def test_thread_start_failure_falls_back_with_winner(self, monkeypatch):
        """Mid-start thread failures must stop started members, ladder, and
        still report a winner."""
        import threading

        real_start = threading.Thread.start
        calls = {"n": 0}

        def flaky_start(self):
            if self.name.startswith("portfolio-"):
                calls["n"] += 1
                if calls["n"] >= 2:
                    raise RuntimeError("can't start new thread")
            return real_start(self)

        monkeypatch.setattr(threading.Thread, "start", flaky_start)
        entry = get_design("mal_fig2")
        with _RaceModes() as modes:
            verdict = get_engine("portfolio", max_bound=_BMC_BOUND).check_primary(
                entry.builder()
            )
        assert verdict.covered == entry.expected_covered
        assert verdict.winner in ("explicit", "bmc", "symbolic")
        assert modes == ["ladder"]
        assert calls["n"] >= 2

