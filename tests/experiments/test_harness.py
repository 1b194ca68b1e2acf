"""The experiment runner's caching and table rendering (the paper's
findings are checked in test_paper_shapes.py)."""

from repro.experiments.runner import format_table


class TestRunnerCaching:
    def test_traces_memoized(self, runner):
        first = runner.original_trace("crc32", "small")
        second = runner.original_trace("crc32", "small")
        assert first is second

    def test_profiles_memoized(self, runner):
        assert runner.profile("crc32", "small") is runner.profile("crc32", "small")

    def test_clone_cached(self, runner):
        assert runner.clone("crc32", "small") is runner.clone("crc32", "small")


class TestFormatTable:
    def test_renders_floats_and_strings(self):
        text = format_table(["a", "b"], [["x", 1.23456], ["yy", 2]], "T")
        assert "T" in text
        assert "1.235" in text
        assert "yy" in text
