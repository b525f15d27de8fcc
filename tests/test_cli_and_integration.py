"""CLI smoke tests and end-to-end integration tests."""

import pytest

from repro.cli import build_parser, main
from repro.core import CoverageOptions, SpecMatcher
from repro.designs import build_cache_logic, build_masking_glue_fig4
from repro.ltl import implies
from repro.service import RequestValidationError, validate_request


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["check", "mal_fig2"])
        assert args.command == "check" and args.design == "mal_fig2"

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mal_fig2" in out and "amba_ahb" in out

    def test_check_covered_design(self, capsys):
        assert main(["check", "mal_fig2"]) == 0
        out = capsys.readouterr().out
        assert "covered  : True" in out

    def test_check_gap_design(self, capsys):
        assert main(["check", "mal_fig4"]) == 0
        out = capsys.readouterr().out
        assert "covered  : False" in out
        assert "witness" in out

    def test_timing_diagrams(self, capsys):
        assert main(["timing"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3(a)" in out and "Figure 3(b)" in out
        assert "wait" in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("specmatcher ")
        # The reported version is the package's (installed metadata or the
        # source fallback) — a dotted version number either way.
        version = out.split()[1]
        assert version[0].isdigit() and "." in version

    def test_check_portfolio_reports_winner(self, capsys):
        assert main(["check", "mal_fig4", "--engine", "portfolio"]) == 0
        out = capsys.readouterr().out
        assert "engine   : portfolio" in out
        assert "winner   :" in out

    def test_check_race_alias(self, capsys):
        assert main(["check", "mal_fig4", "--engine", "race"]) == 0
        out = capsys.readouterr().out
        assert "engine   : portfolio" in out

    def test_check_no_slice_agrees(self, capsys):
        assert main(["check", "telemetry_bank"]) == 0
        sliced = capsys.readouterr().out
        assert main(["check", "telemetry_bank", "--no-slice"]) == 0
        unsliced = capsys.readouterr().out
        assert "covered  : True" in sliced
        assert "covered  : True" in unsliced


    @pytest.mark.parametrize(
        "field, flag, value, message",
        [
            ("depth", "--depth", 0, "must be >= 1, got 0"),
            ("max_witnesses", "--max-witnesses", -1, "must be >= 0, got -1"),
        ],
    )
    def test_analyze_rejects_what_the_service_rejects(self, field, flag, value, message, capsys):
        """`--depth 0` unfolds no terms, so it would report only the exact hole."""
        with pytest.raises(RequestValidationError) as excinfo:
            validate_request("analyze", {"design": "mal_fig2", field: value})
        assert excinfo.value.entries() == [{"field": field, "message": message}]
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "mal_fig2", flag, str(value)])
        assert exit_info.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err


class TestCacheCommand:
    def test_stats_and_clear_roundtrip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert (
            main(
                ["suite", "--designs", "mal_fig2", "--no-signals",
                 "--cache-dir", cache_dir]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries   :" in out and "entries   : 0" not in out
        assert "misses    : 0" not in out  # the cold run recorded misses
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries   : 0" in out
        assert "hits      : 0" in out

    def test_stats_on_missing_dir(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert main(["cache", "stats", "--cache-dir", missing]) == 0
        out = capsys.readouterr().out
        assert "(absent)" in out
        assert main(["cache", "clear", "--cache-dir", missing]) == 0
        out = capsys.readouterr().out
        assert "does not exist" in out

    def test_cache_default_dir_matches_suite_default(self):
        parser = build_parser()
        cache_args = parser.parse_args(["cache", "stats"])
        suite_args = parser.parse_args(["suite"])
        assert cache_args.cache_dir == suite_args.cache_dir


class TestSpecMatcherFacade:
    def test_fluent_construction_and_primary_query(self):
        matcher = SpecMatcher("facade-test")
        matcher.add_architectural_property("G(!wait & r1 & X(r1 U r2) -> X(!d2 U d1))")
        matcher.add_rtl_properties(["G(n1 <-> X g1)", "G((!n1 & n2) <-> X g2)", "!g1 & !g2"])
        matcher.add_assumption("G(wait -> F hit)")
        matcher.add_concrete_module(build_masking_glue_fig4())
        matcher.add_concrete_module(build_cache_logic())
        result = matcher.primary_coverage()
        assert not result.covered
        hole = matcher.coverage_hole()
        assert implies(hole.architectural, hole.formula)
        assert "facade-test" in matcher.summary()

    def test_hdl_text_module_entry(self):
        matcher = SpecMatcher("hdl-entry")
        matcher.add_architectural_property("G(a -> X y)")
        matcher.add_rtl_property("G(a -> X y)")
        matcher.add_concrete_module(
            "module inv(input a, output y); reg y init 0; y <= a; endmodule"
        )
        assert matcher.primary_coverage().covered


@pytest.mark.slow
class TestEndToEnd:
    def test_full_mal_gap_analysis_finds_verified_gap(self, mal_gap_problem):
        options = CoverageOptions(
            max_witnesses=2, unfold_depth=5, max_closure_checks=8, max_reported_gaps=2
        )
        matcher = SpecMatcher("MAL end-to-end", options)
        matcher.problem = mal_gap_problem
        report = matcher.run()
        assert not report.covered
        analysis = report.analyses[0]
        if analysis.gap_properties:
            assert analysis.gap_verified
            for candidate in analysis.gap_properties:
                assert implies(analysis.property_formula, candidate.formula)
        else:
            assert analysis.fallback_to_hole
        row = report.table1_row()
        assert row["rtl_properties"] == 4
        assert row["gap_finding_seconds"] > 0
