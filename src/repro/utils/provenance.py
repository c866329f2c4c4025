"""Run provenance: where did these numbers come from?

Every persisted measurement in the repository — experiment-matrix cell
results (:mod:`repro.xp.store`) above all — must be attributable to the
machine that produced it and the code that was running.  This module is
the single definition of both fingerprints:

* :func:`machine_fingerprint` — interpreter, platform, CPU count; the
  reader of a snapshot uses it to judge whether a timing comparison is
  even meaningful (a laptop baseline must not gate a CI runner).
* :func:`code_fingerprint` — a content hash over the ``repro`` package
  sources; the experiment runner uses it to decide whether a persisted
  cell result is still *fresh* (same parameters **and** same code) or
  must be recomputed on resume.
"""

from __future__ import annotations

import hashlib
import os
import platform
from typing import Dict, Optional

__all__ = ["machine_fingerprint", "code_fingerprint"]


def machine_fingerprint() -> Dict[str, object]:
    """Where the numbers came from: interpreter, platform, CPU count."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 0,
    }


#: Cached digest per source root (the walk reads every ``.py`` file once
#: per process; results cannot change mid-run because installs are
#: immutable while the interpreter holds the imported modules).
_CODE_FINGERPRINTS: Dict[str, str] = {}


def code_fingerprint(root: Optional[str] = None) -> str:
    """Short content hash of every ``.py`` file under ``root``.

    ``root`` defaults to the installed ``repro`` package directory.  The
    digest covers relative paths *and* file contents in sorted order, so
    renaming, editing or deleting any module changes it.  Used as the
    freshness component of experiment-cell keys: a persisted result is
    reusable only when parameters and code fingerprint both match.
    """
    if root is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
    root = os.path.abspath(root)
    cached = _CODE_FINGERPRINTS.get(root)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for directory, subdirs, files in sorted(os.walk(root)):
        subdirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            relative = os.path.relpath(path, root)
            digest.update(relative.encode("utf-8"))
            digest.update(b"\x00")
            with open(path, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\x00")
    fingerprint = digest.hexdigest()[:16]
    _CODE_FINGERPRINTS[root] = fingerprint
    return fingerprint
