"""Tests for the shared provenance helpers (machine and code fingerprints)."""

import os

from repro.utils import provenance


class TestMachineFingerprint:
    def test_expected_fields(self):
        fingerprint = provenance.machine_fingerprint()
        assert set(fingerprint) == {
            "python",
            "implementation",
            "platform",
            "machine",
            "cpu_count",
        }
        assert fingerprint["cpu_count"] >= 0


class TestCodeFingerprint:
    def test_stable_within_a_process(self):
        assert provenance.code_fingerprint() == provenance.code_fingerprint()
        assert len(provenance.code_fingerprint()) == 16

    def test_content_changes_the_digest(self, tmp_path):
        root = tmp_path / "pkg"
        root.mkdir()
        (root / "a.py").write_text("x = 1\n")
        first = provenance.code_fingerprint(str(root))
        (root / "a.py").write_text("x = 2\n")
        provenance._CODE_FINGERPRINTS.pop(os.path.abspath(str(root)), None)
        second = provenance.code_fingerprint(str(root))
        assert first != second

    def test_rename_changes_the_digest(self, tmp_path):
        root = tmp_path / "pkg"
        root.mkdir()
        (root / "a.py").write_text("x = 1\n")
        first = provenance.code_fingerprint(str(root))
        provenance._CODE_FINGERPRINTS.pop(os.path.abspath(str(root)), None)
        (root / "a.py").rename(root / "b.py")
        second = provenance.code_fingerprint(str(root))
        assert first != second

    def test_non_python_files_ignored(self, tmp_path):
        root = tmp_path / "pkg"
        root.mkdir()
        (root / "a.py").write_text("x = 1\n")
        first = provenance.code_fingerprint(str(root))
        provenance._CODE_FINGERPRINTS.pop(os.path.abspath(str(root)), None)
        (root / "notes.txt").write_text("irrelevant\n")
        second = provenance.code_fingerprint(str(root))
        assert first == second

    def test_cached_per_root(self, tmp_path):
        root = tmp_path / "pkg"
        root.mkdir()
        (root / "a.py").write_text("x = 1\n")
        first = provenance.code_fingerprint(str(root))
        # A second call returns the cached digest even after an edit...
        (root / "a.py").write_text("x = 3\n")
        assert provenance.code_fingerprint(str(root)) == first
