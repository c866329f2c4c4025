"""Tests for matrix specs: validation, expansion determinism, cell keys."""

import json
import os

import pytest

from repro.xp.spec import (
    AXES,
    BUILTIN_SPECS,
    EXPERIMENTS,
    Block,
    Cell,
    ExperimentDef,
    MatrixSpec,
    load_spec,
    paper_spec,
    smoke_spec,
    spec_from_dict,
)


def _runtime_spec(**overrides):
    block = {
        "experiment": "runtime",
        "datasets": ["enron-sim"],
        "window_percents": [1, 10],
        "precisions": [7],
        "seeds": [1, 2],
    }
    block.update(overrides)
    return {"name": "t", "scale": 0.05, "blocks": [block]}


class TestRegistry:
    def test_every_experiment_is_well_formed(self):
        for name, definition in EXPERIMENTS.items():
            assert isinstance(definition, ExperimentDef)
            assert definition.name == name
            assert set(definition.axes) <= set(AXES)
            for _metric, direction in definition.metrics:
                assert direction in ("lower", "higher")

    def test_blocks_construct_directly(self):
        # Programmatic construction (no dict) is part of the public API.
        spec = MatrixSpec(
            name="direct",
            blocks=(
                Block(
                    experiment="runtime",
                    datasets=("enron-sim",),
                    window_percents=(1,),
                    precisions=(7,),
                    seeds=(1,),
                ),
            ),
            scale=0.05,
        )
        (cell,) = spec.cells()
        assert cell.experiment == "runtime"
        assert spec.to_dict()["blocks"][0]["experiment"] == "runtime"


class TestValidation:
    def test_minimal_spec_loads(self):
        spec = spec_from_dict(_runtime_spec())
        assert spec.name == "t"
        assert len(spec.cells()) == 4  # 2 windows x 2 seeds

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            spec_from_dict(_runtime_spec(experiment="telepathy"))

    def test_unknown_dataset(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            spec_from_dict(_runtime_spec(datasets=["atlantis"]))

    def test_inapplicable_axis_rejected(self):
        # runtime has no method axis; declaring one must fail loudly.
        with pytest.raises(ValueError, match="does not apply"):
            spec_from_dict(_runtime_spec(methods=["HD"]))

    def test_unknown_method(self):
        raw = {
            "name": "t",
            "blocks": [
                {
                    "experiment": "spread",
                    "datasets": ["enron-sim"],
                    "methods": ["GUESSWORK"],
                }
            ],
        }
        with pytest.raises(ValueError, match="unknown method"):
            spec_from_dict(raw)

    def test_precision_range(self):
        with pytest.raises(ValueError, match="out of range"):
            spec_from_dict(_runtime_spec(precisions=[3]))
        with pytest.raises(ValueError, match="out of range"):
            spec_from_dict(_runtime_spec(precisions=[17]))

    def test_window_range(self):
        with pytest.raises(ValueError, match="out of range"):
            spec_from_dict(_runtime_spec(window_percents=[0]))
        with pytest.raises(ValueError, match="out of range"):
            spec_from_dict(_runtime_spec(window_percents=[101]))

    def test_duplicate_axis_values(self):
        with pytest.raises(ValueError, match="duplicate entries"):
            spec_from_dict(_runtime_spec(seeds=[1, 1]))

    def test_unknown_params_key(self):
        raw = {
            "name": "t",
            "blocks": [
                {
                    "experiment": "spread",
                    "datasets": ["enron-sim"],
                    "params": {"warp_factor": 9},
                }
            ],
        }
        with pytest.raises(ValueError, match="unknown params key"):
            spec_from_dict(raw)

    @pytest.mark.parametrize(
        "params, problem",
        [
            ({"ks": []}, "non-empty list"),
            ({"runs": "many"}, "positive int"),
            ({"ks": [], "runs": "many"}, "non-empty list"),
            ({"ks": 5}, "non-empty list"),
            ({"ks": [5, 0]}, "positive ints"),
            ({"ks": [5, 2.5]}, "positive ints"),
            ({"ks": [True]}, "positive ints"),
            ({"probabilities": ["half"]}, "positive floats"),
            ({"probabilities": [-0.5]}, "positive floats"),
            ({"runs": 0}, "positive int"),
            ({"runs": [3]}, "positive int"),
            ({"runs": False}, "positive int"),
        ],
    )
    def test_params_must_fit_the_default_shape(self, params, problem):
        """A params value the cells cannot run fails at load time, not in
        every cell at run time."""
        raw = {
            "name": "t",
            "blocks": [
                {"experiment": "spread", "datasets": ["enron-sim"], "params": params}
            ],
        }
        with pytest.raises(ValueError, match=problem):
            spec_from_dict(raw)

    def test_params_of_the_default_shape_load(self):
        raw = {
            "name": "t",
            "blocks": [
                {
                    "experiment": "spread",
                    "datasets": ["enron-sim"],
                    # An int is a number in a float slot.
                    "params": {"ks": [2], "probabilities": [1, 0.5], "runs": 1},
                }
            ],
        }
        (block,) = spec_from_dict(raw).blocks
        assert dict(block.params) == {"ks": (2,), "probabilities": (1, 0.5), "runs": 1}

    def test_accuracy_beta_must_be_power_of_two(self):
        raw = {
            "name": "t",
            "blocks": [
                {
                    "experiment": "accuracy",
                    "datasets": ["higgs-sim"],
                    "params": {"betas": [24]},
                }
            ],
        }
        with pytest.raises(ValueError, match="power of two"):
            spec_from_dict(raw)

    def test_duplicate_cells_rejected(self):
        raw = _runtime_spec()
        raw["blocks"] = raw["blocks"] * 2
        with pytest.raises(ValueError, match="duplicate cell"):
            spec_from_dict(raw)

    def test_bad_scale(self):
        raw = _runtime_spec()
        raw["scale"] = -1
        with pytest.raises(ValueError, match="'scale'"):
            spec_from_dict(raw)


class TestExpansion:
    def test_deterministic_order_and_keys(self):
        first = spec_from_dict(_runtime_spec()).cells()
        second = spec_from_dict(_runtime_spec()).cells()
        assert [c.key() for c in first] == [c.key() for c in second]
        assert [c.label() for c in first] == [
            "runtime/enron-sim/w1%/p7/s1",
            "runtime/enron-sim/w1%/p7/s2",
            "runtime/enron-sim/w10%/p7/s1",
            "runtime/enron-sim/w10%/p7/s2",
        ]

    def test_inapplicable_axes_excluded_from_params(self):
        (cell,) = spec_from_dict(
            {"name": "t", "blocks": [{"experiment": "datasets", "datasets": ["enron-sim"]}]}
        ).cells()
        params = cell.params()
        assert "method" not in params and "window_pct" not in params
        assert params["experiment"] == "datasets"

    def test_key_is_parameter_content_hash(self):
        cell = Cell(
            experiment="runtime",
            dataset="enron-sim",
            window_pct=1,
            precision=7,
            method=None,
            seed=1,
            scale=0.05,
            dataset_rng=1,
        )
        twin = Cell(**{**cell.__dict__})
        assert cell.key() == twin.key()
        other = Cell(**{**cell.__dict__, "seed": 2})
        assert cell.key() != other.key()
        assert len(cell.key()) == 16

    def test_missing_axes_fall_back_to_grid(self):
        spec = spec_from_dict(
            {"name": "t", "blocks": [{"experiment": "memory", "datasets": ["enron-sim"]}]}
        )
        cells = spec.cells()
        assert [c.window_pct for c in cells] == [1, 10, 20]
        assert {c.precision for c in cells} == {9}

    def test_spec_hash_changes_with_content(self):
        base = spec_from_dict(_runtime_spec())
        changed = spec_from_dict(_runtime_spec(seeds=[1, 2, 3]))
        assert base.spec_hash() != changed.spec_hash()


class TestBuiltins:
    def test_smoke_spec_is_small(self):
        cells = smoke_spec().cells()
        assert 0 < len(cells) <= 32
        assert {c.experiment for c in cells} == {"runtime", "spread"}

    def test_paper_spec_covers_every_experiment(self):
        spec = paper_spec()
        assert {c.experiment for c in spec.cells()} == set(EXPERIMENTS)

    def test_paper_spec_uses_shared_grid(self):
        runtime_cells = [c for c in paper_spec().cells() if c.experiment == "runtime"]
        assert sorted({c.window_pct for c in runtime_cells}) == [1, 5, 10, 20, 40, 60, 80, 100]

    def test_smoke_cells_match_committed_baseline(self):
        # `repro xp diff benchmarks/results/XP_9 <run>` pairs groups by
        # these parameters; a changed cell identity orphans the baseline.
        cells_dir = os.path.join(
            os.path.dirname(__file__), "..", "..", "benchmarks", "results", "XP_9", "cells"
        )
        for cell in smoke_spec().cells():
            with open(os.path.join(cells_dir, f"{cell.key()}.json"), encoding="utf-8") as handle:
                stored = json.load(handle)
            assert stored["params"] == json.loads(json.dumps(cell.params())), cell.label()

    def test_builtin_names_resolve(self):
        for name in BUILTIN_SPECS:
            assert load_spec(name).name == name


class TestLoading:
    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_runtime_spec()))
        assert load_spec(str(path)).spec_hash() == spec_from_dict(_runtime_spec()).spec_hash()

    def test_toml_file(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(
            'name = "t"\nscale = 0.05\n[[blocks]]\nexperiment = "runtime"\n'
            'datasets = ["enron-sim"]\nwindow_percents = [1, 10]\n'
            "precisions = [7]\nseeds = [1, 2]\n"
        )
        assert len(load_spec(str(path)).cells()) == 4

    def test_missing_file_one_line_error(self):
        with pytest.raises(ValueError, match="cannot read matrix spec"):
            load_spec("/nonexistent/spec.json")

    def test_invalid_json_one_line_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_spec(str(path))
