"""Guard the examples against bitrot.

Every example must at least compile against the current API; the quick one
is executed end-to-end.  (The larger scenarios run for tens of seconds and
are exercised manually instead.)
"""

import os
import py_compile
import runpy

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def example_paths():
    return sorted(
        os.path.join(EXAMPLES_DIR, name)
        for name in os.listdir(EXAMPLES_DIR)
        if name.endswith(".py")
    )


class TestExamples:
    def test_six_examples_present(self):
        names = {os.path.basename(path) for path in example_paths()}
        assert names == {
            "quickstart.py",
            "email_influencers.py",
            "viral_cascades.py",
            "window_sensitivity.py",
            "live_monitoring.py",
            "serve_demo.py",
        }

    @pytest.mark.parametrize("path", example_paths(), ids=os.path.basename)
    def test_example_compiles(self, path):
        py_compile.compile(path, doraise=True)

    def test_quickstart_runs_end_to_end(self, capsys):
        runpy.run_path(
            os.path.join(EXAMPLES_DIR, "quickstart.py"), run_name="__main__"
        )
        output = capsys.readouterr().out
        assert "paper Algorithm" not in output  # sanity: no stray debug text
        assert "top-2 seeds by greedy IRS coverage: ['a', 'e']" in output
        assert "TCIC spread" in output

    def test_examples_import_only_public_api(self):
        """Examples must not reach into underscore-private attributes."""
        for path in example_paths():
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            assert "._" not in source, os.path.basename(path)
