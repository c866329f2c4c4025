"""REPRO_OBS environment activation is read once at import time."""

from __future__ import annotations

import os
import subprocess
import sys

from repro.obs import OBS_ENV

PROBE = (
    "import repro.obs as obs; "
    "print('enabled' if obs.enabled() else 'disabled')"
)


def _run(env_value, code=PROBE, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop(OBS_ENV, None)
    if env_value is not None:
        env[OBS_ENV] = env_value
    env.update(extra_env or {})
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_unset_or_zero_stays_disabled():
    assert _run(None) == "disabled"
    assert _run("") == "disabled"
    assert _run("0") == "disabled"


def test_any_other_value_enables_at_import():
    assert _run("1") == "enabled"
    assert _run("jsonl") == "enabled"


LAZY = ("repro.obs.slo",)


def test_import_core_leaves_slo_unloaded():
    code = f"import sys, repro.core; print([m for m in {LAZY!r} if m in sys.modules])"
    assert _run(None, code) == "[]"


def test_import_core_and_obs_load_no_lint_module():
    # The runtime layers (contracts, locktrace) live outside repro.lint,
    # so the algorithm layer never pays for the static analyser.
    code = (
        "import sys, repro.core, repro.obs; "
        "print([m for m in sys.modules if m.split('.')[:2] == ['repro', 'lint']])"
    )
    assert _run(None, code) == "[]"


def test_slo_loads_on_first_attribute_access():
    code = (
        "import sys, repro.obs as obs; "
        "print(obs.slo.__name__, "
        f"all(m in sys.modules for m in {LAZY!r}))"
    )
    assert _run(None, code) == "repro.obs.slo True"


def test_unknown_attribute_still_raises():
    code = "import repro.obs as obs; print(hasattr(obs, 'no_such_layer'))"
    assert _run(None, code) == "False"


def test_profiler_env_opt_in_still_binds_at_import():
    code = (
        "import repro.obs as obs; "
        "print(obs.enabled(), obs.profile.is_enabled())"
    )
    assert _run(None, code, {"REPRO_OBS_PROFILE": "1"}) == "True True"
