"""Declarative experiment-matrix specs and deterministic cell expansion.

A *matrix spec* declares which slices of the evaluation space to run:

.. code-block:: json

    {
      "name": "smoke",
      "scale": 0.05,
      "blocks": [
        {"experiment": "runtime",
         "datasets": ["enron-sim", "slashdot-sim"],
         "window_percents": [1, 10],
         "precisions": [7],
         "seeds": [1, 2]}
      ]
    }

Each *block* names one experiment (one paper artefact, see
:data:`EXPERIMENTS`) and the axis values to sweep; expansion is the
cartesian product over the axes that experiment actually uses, in
declaration order — deterministic, so a spec always produces the same
cell list and the same cell keys.  Axes an experiment does not use must
not be declared (validation rejects them: a silently-ignored axis is how
grids drift).  Missing applicable axes fall back to the canonical paper
grid (:mod:`repro.analysis.grid`).

Specs load from JSON or TOML files (suffix-dispatch) or by built-in
name: ``paper`` (the full Table 2–6 / Figure 3–5 matrix, the A1–A6
ablations and the cross-judge check) and ``smoke``
(a minutes-scale matrix used by CI and the committed ``XP_9`` baseline).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis import grid
from repro.analysis.experiments import ALL_METHODS, CROSS_JUDGE_METHODS, EXTRA_METHODS
from repro.datasets.catalog import dataset_names

__all__ = [
    "AXES",
    "ExperimentDef",
    "EXPERIMENTS",
    "Cell",
    "Block",
    "MatrixSpec",
    "spec_from_dict",
    "load_spec",
    "paper_spec",
    "smoke_spec",
    "BUILTIN_SPECS",
]

#: Sweep axes beyond the always-present dataset axis, in expansion order.
AXES = ("window_pct", "precision", "method", "seed")

#: Spec-file keys carrying each axis's value list.
_AXIS_KEYS = {
    "window_pct": "window_percents",
    "precision": "precisions",
    "method": "methods",
    "seed": "seeds",
}

_KNOWN_METHODS = tuple(ALL_METHODS) + tuple(EXTRA_METHODS)


@dataclass(frozen=True)
class ExperimentDef:
    """Declarative description of one runnable experiment (paper artefact)."""

    name: str
    artifact: str
    #: Axes (beyond dataset) whose values vary the computation.
    axes: Tuple[str, ...]
    #: Numeric row columns the report/diff layer compares, with direction
    #: (``"lower"``: smaller is better — timings; ``"higher"``: spread).
    metrics: Tuple[Tuple[str, str], ...]
    #: Non-metric row columns identifying a sub-measurement within a cell
    #: (e.g. ``beta`` for accuracy rows, ``k`` for spread rows).
    group_columns: Tuple[str, ...]
    #: Default datasets when a block omits the ``datasets`` key.
    default_datasets: Tuple[str, ...]
    #: Default method panel (only for experiments with a method axis).
    default_methods: Tuple[str, ...] = ()
    #: Extra tunables with defaults, overridable via a block's ``params``.
    default_params: Mapping[str, object] = field(default_factory=dict)


#: All runnable experiments, keyed by spec name.  ``seed`` doubles as the
#: replicate axis for the timing experiments (same computation, repeated
#: measurement) and as the sketch salt / rng stream elsewhere, so every
#: experiment can carry per-seed replicates for significance testing.
EXPERIMENTS: Dict[str, ExperimentDef] = {
    definition.name: definition
    for definition in (
        ExperimentDef(
            name="datasets",
            artifact="Table 2",
            axes=(),
            metrics=(),
            group_columns=(),
            default_datasets=tuple(dataset_names()),
        ),
        ExperimentDef(
            name="accuracy",
            artifact="Table 3",
            axes=("window_pct", "seed"),
            metrics=(("avg_rel_error", "lower"),),
            group_columns=("beta",),
            default_datasets=grid.ACCURACY_DATASETS,
            default_params={"betas": list(grid.BETAS)},
        ),
        ExperimentDef(
            name="memory",
            artifact="Table 4",
            axes=("window_pct", "precision"),
            metrics=(("megabytes", "lower"),),
            group_columns=(),
            default_datasets=tuple(dataset_names()),
        ),
        ExperimentDef(
            name="runtime",
            artifact="Figure 3",
            axes=("window_pct", "precision", "seed"),
            metrics=(("seconds", "lower"),),
            group_columns=(),
            default_datasets=tuple(dataset_names()),
        ),
        ExperimentDef(
            name="query",
            artifact="Figure 4",
            axes=("precision", "seed"),
            metrics=(("milliseconds", "lower"),),
            group_columns=("num_seeds",),
            default_datasets=grid.QUERY_DATASETS,
            default_params={
                "seed_counts": list(grid.SEED_COUNTS),
                "window_percent": grid.QUERY_WINDOW_PERCENT,
                "repetitions": 3,
            },
        ),
        ExperimentDef(
            name="spread",
            artifact="Figure 5",
            axes=("window_pct", "precision", "method", "seed"),
            metrics=(("spread", "higher"),),
            group_columns=("k", "probability"),
            default_datasets=grid.SPREAD_DATASETS,
            default_methods=tuple(grid.SPREAD_METHODS),
            default_params={
                "ks": list(grid.SPREAD_KS),
                "probabilities": list(grid.SPREAD_PROBABILITIES),
                "runs": 3,
            },
        ),
        ExperimentDef(
            name="overlap",
            artifact="Table 5",
            axes=("precision",),
            metrics=(("common", "higher"),),
            group_columns=("pair",),
            default_datasets=tuple(dataset_names()),
            default_params={
                "window_percents": list(grid.WINDOW_PERCENTS),
                "k": grid.OVERLAP_K,
            },
        ),
        ExperimentDef(
            name="seed_time",
            artifact="Table 6",
            axes=("window_pct", "precision", "method", "seed"),
            metrics=(("seconds", "lower"),),
            group_columns=(),
            default_datasets=grid.SMALL_DATASETS,
            default_methods=tuple(grid.SEED_TIME_METHODS),
            default_params={"k": grid.SEED_TIME_K},
        ),
        ExperimentDef(
            name="selectors",
            artifact="Ablation A1",
            axes=("window_pct", "seed"),
            metrics=(
                ("oracle_spread", "higher"),
                ("gain_calls", "lower"),
                ("seconds", "lower"),
            ),
            group_columns=("selector",),
            default_datasets=("slashdot-sim", "facebook-sim"),
        ),
        ExperimentDef(
            name="vhll_lists",
            artifact="Ablation A2",
            axes=("window_pct", "precision"),
            metrics=(("max_cell_list", "lower"),),
            group_columns=("lemma4_bound",),
            default_datasets=grid.SMALL_DATASETS,
        ),
        ExperimentDef(
            name="exact_vs_sketch",
            artifact="Ablation A3",
            axes=("window_pct", "precision", "seed"),
            metrics=(
                ("exact_s", "lower"),
                ("sketch_s", "lower"),
                ("exact_mb", "lower"),
                ("sketch_mb", "lower"),
                ("exact_entries", "lower"),
                ("sketch_entries", "lower"),
            ),
            group_columns=(),
            default_datasets=grid.SMALL_DATASETS,
        ),
        ExperimentDef(
            name="sketch_backends",
            artifact="Ablation A4",
            axes=("window_pct", "precision"),
            metrics=(
                ("vhll_err", "lower"),
                ("bottomk_err", "lower"),
                ("vhll_pairs", "lower"),
                ("bottomk_pairs", "lower"),
            ),
            group_columns=(),
            default_datasets=("lkml-sim", "slashdot-sim", "facebook-sim"),
        ),
        ExperimentDef(
            name="multiwindow",
            artifact="Ablation A5",
            axes=("seed",),
            metrics=(
                ("multi_s", "lower"),
                ("repeated_exact_s", "lower"),
                ("multi_entries", "lower"),
                ("max_frontier", "lower"),
            ),
            group_columns=(),
            default_datasets=("slashdot-sim", "lkml-sim"),
        ),
        ExperimentDef(
            name="tcic_judges",
            artifact="Ablation A6",
            axes=("window_pct",),
            metrics=(("literal_spread", "higher"), ("prose_spread", "higher")),
            group_columns=(),
            default_datasets=("lkml-sim", "slashdot-sim"),
        ),
        ExperimentDef(
            name="cross_judge",
            artifact="Cross-judge (TCIC vs TCLT)",
            axes=("window_pct", "precision", "method", "seed"),
            metrics=(("tcic_spread", "higher"), ("tclt_spread", "higher")),
            group_columns=(),
            default_datasets=("enron-sim", "facebook-sim"),
            default_methods=CROSS_JUDGE_METHODS,
        ),
    )
}


@dataclass(frozen=True)
class Cell:
    """One executable point of the matrix (one persisted result).

    Axes the experiment does not use are ``None`` and excluded from the
    parameter document, so a cell's identity covers exactly the knobs
    that influence its computation.
    """

    experiment: str
    dataset: str
    window_pct: Optional[float]
    precision: Optional[int]
    method: Optional[str]
    seed: Optional[int]
    scale: float
    dataset_rng: int
    extra: Tuple[Tuple[str, object], ...] = ()

    def params(self) -> Dict[str, object]:
        """The cell's full parameter document (stable key order)."""
        doc: Dict[str, object] = {
            "experiment": self.experiment,
            "dataset": self.dataset,
            "scale": self.scale,
            "dataset_rng": self.dataset_rng,
        }
        for axis in AXES:
            value = getattr(self, axis)
            if value is not None:
                doc[axis] = value
        for key, value in self.extra:
            doc[key] = value
        return doc

    def key(self) -> str:
        """Content hash of the parameters — the persisted-cell identity.

        Stable across runs and machines; *not* covering the code
        fingerprint (that is stored alongside the result and checked at
        resume time), so prior-run stores remain matchable for trend
        deltas after the code changes.
        """
        canonical = json.dumps(self.params(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def label(self) -> str:
        """Short human-readable identity for progress lines and reports."""
        parts = [self.experiment, self.dataset]
        if self.window_pct is not None:
            parts.append(f"w{self.window_pct:g}%")
        if self.precision is not None:
            parts.append(f"p{self.precision}")
        if self.method is not None:
            parts.append(self.method)
        if self.seed is not None:
            parts.append(f"s{self.seed}")
        return "/".join(parts)


def _canonical_extra(value: object) -> object:
    """Normalise params values to JSON-stable plain types."""
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_extra(item) for item in value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    raise ValueError(f"unsupported params value {value!r} (use numbers/strings/lists)")


def _jsonable(value: object) -> object:
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    return value


@dataclass(frozen=True)
class Block:
    """One experiment plus the axis values it sweeps."""

    experiment: str
    datasets: Tuple[str, ...]
    window_percents: Tuple[float, ...] = ()
    precisions: Tuple[int, ...] = ()
    methods: Tuple[str, ...] = ()
    seeds: Tuple[int, ...] = ()
    params: Tuple[Tuple[str, object], ...] = ()

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {"experiment": self.experiment}
        doc["datasets"] = list(self.datasets)
        for axis, key in _AXIS_KEYS.items():
            values = getattr(self, key)
            if values:
                doc[key] = [_jsonable(v) for v in values]
        if self.params:
            doc["params"] = {k: _jsonable(v) for k, v in self.params}
        return doc


@dataclass(frozen=True)
class MatrixSpec:
    """A named, validated experiment matrix."""

    name: str
    blocks: Tuple[Block, ...]
    scale: float = 1.0
    dataset_rng: int = 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "scale": self.scale,
            "dataset_rng": self.dataset_rng,
            "blocks": [block.to_dict() for block in self.blocks],
        }

    def spec_hash(self) -> str:
        """Content hash of the whole spec (recorded in the run manifest)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def cells(self) -> List[Cell]:
        """Deterministic expansion: blocks in order, axes nested in
        :data:`AXES` order, values in declaration order."""
        cells: List[Cell] = []
        seen: Dict[str, str] = {}
        for block in self.blocks:
            definition = EXPERIMENTS[block.experiment]
            axis_values: Dict[str, Sequence[object]] = {}
            for axis in AXES:
                if axis in definition.axes:
                    axis_values[axis] = getattr(self, "_axis_values")(block, definition, axis)
                else:
                    axis_values[axis] = (None,)
            extra = _merged_params(block, definition)
            for dataset in block.datasets:
                for window_pct in axis_values["window_pct"]:
                    for precision in axis_values["precision"]:
                        for method in axis_values["method"]:
                            for seed in axis_values["seed"]:
                                cell = Cell(
                                    experiment=block.experiment,
                                    dataset=dataset,
                                    window_pct=window_pct,  # type: ignore[arg-type]
                                    precision=precision,  # type: ignore[arg-type]
                                    method=method,  # type: ignore[arg-type]
                                    seed=seed,  # type: ignore[arg-type]
                                    scale=self.scale,
                                    dataset_rng=self.dataset_rng,
                                    extra=extra,
                                )
                                key = cell.key()
                                previous = seen.get(key)
                                if previous is not None:
                                    raise ValueError(
                                        f"matrix spec {self.name!r}: duplicate cell "
                                        f"{cell.label()} (same parameters declared "
                                        f"twice, first as {previous})"
                                    )
                                seen[key] = cell.label()
                                cells.append(cell)
        return cells

    @staticmethod
    def _axis_values(block: Block, definition: ExperimentDef, axis: str) -> Sequence[object]:
        declared = getattr(block, _AXIS_KEYS[axis])
        if declared:
            return declared
        if axis == "window_pct":
            return grid.WINDOW_PERCENTS
        if axis == "precision":
            return (grid.DEFAULT_PRECISION,)
        if axis == "method":
            return definition.default_methods
        return (0,)  # seed


def _merged_params(block: Block, definition: ExperimentDef) -> Tuple[Tuple[str, object], ...]:
    merged = {key: _canonical_extra(value) for key, value in definition.default_params.items()}
    for key, value in block.params:
        merged[key] = value
    return tuple(sorted(merged.items()))


# ---------------------------------------------------------------------------
# Validation + loading
# ---------------------------------------------------------------------------

def _fail(spec_name: str, message: str) -> ValueError:
    return ValueError(f"matrix spec {spec_name!r}: {message}")


def _validate_block(spec_name: str, index: int, raw: Mapping[str, object]) -> Block:
    where = f"blocks[{index}]"
    if not isinstance(raw, Mapping):
        raise _fail(spec_name, f"{where} must be an object")
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise _fail(
            spec_name,
            f"{where}: unknown experiment {experiment!r}; known: {known}",
        )
    definition = EXPERIMENTS[experiment]
    allowed_keys = {"experiment", "datasets", "params"} | {
        _AXIS_KEYS[axis] for axis in definition.axes
    }
    for key in raw:
        if key in allowed_keys:
            continue
        if key in _AXIS_KEYS.values():
            raise _fail(
                spec_name,
                f"{where} ({experiment}): axis {key!r} does not apply to this "
                f"experiment (it sweeps: "
                f"{', '.join(_AXIS_KEYS[a] for a in definition.axes) or 'datasets only'})",
            )
        raise _fail(spec_name, f"{where} ({experiment}): unknown key {key!r}")

    datasets_raw = raw.get("datasets", list(definition.default_datasets))
    if not isinstance(datasets_raw, Sequence) or isinstance(datasets_raw, str) or not datasets_raw:
        raise _fail(spec_name, f"{where}: 'datasets' must be a non-empty list")
    known_datasets = set(dataset_names())
    for dataset in datasets_raw:
        if dataset not in known_datasets:
            raise _fail(
                spec_name,
                f"{where}: unknown dataset {dataset!r}; known: "
                f"{', '.join(sorted(known_datasets))}",
            )

    def _numbers(key: str, kind: type, check, describe: str) -> Tuple:
        values = raw.get(key, [])
        if not isinstance(values, Sequence) or isinstance(values, str):
            raise _fail(spec_name, f"{where}: {key!r} must be a list")
        out = []
        for value in values:
            if isinstance(value, bool) or not isinstance(value, kind):
                raise _fail(spec_name, f"{where}: {key!r} entry {value!r} must be {describe}")
            if not check(value):
                raise _fail(spec_name, f"{where}: {key!r} entry {value!r} out of range ({describe})")
            out.append(value)
        if len(set(out)) != len(out):
            raise _fail(spec_name, f"{where}: {key!r} has duplicate entries")
        return tuple(out)

    window_percents = _numbers(
        "window_percents", (int, float), lambda v: 0 < v <= 100, "a % in (0, 100]"
    )
    precisions = _numbers("precisions", int, lambda v: 4 <= v <= 16, "an int in [4, 16]")
    seeds = _numbers("seeds", int, lambda v: v >= 0, "a non-negative int")

    methods_raw = raw.get("methods", [])
    if not isinstance(methods_raw, Sequence) or isinstance(methods_raw, str):
        raise _fail(spec_name, f"{where}: 'methods' must be a list")
    for method in methods_raw:
        if method not in _KNOWN_METHODS:
            raise _fail(
                spec_name,
                f"{where}: unknown method {method!r}; known: {', '.join(_KNOWN_METHODS)}",
            )
    if len(set(methods_raw)) != len(methods_raw):
        raise _fail(spec_name, f"{where}: 'methods' has duplicate entries")

    params_raw = raw.get("params", {})
    if not isinstance(params_raw, Mapping):
        raise _fail(spec_name, f"{where}: 'params' must be an object")
    for key in params_raw:
        if key not in definition.default_params:
            known = ", ".join(sorted(definition.default_params)) or "(none)"
            raise _fail(
                spec_name,
                f"{where} ({experiment}): unknown params key {key!r}; known: {known}",
            )
    try:
        params = tuple(
            sorted((str(k), _canonical_extra(v)) for k, v in params_raw.items())
        )
    except ValueError as exc:
        raise _fail(spec_name, f"{where}: {exc}") from exc

    if experiment == "accuracy":
        betas = dict(params).get("betas", dict(_merged_params(Block(experiment, ()), definition)).get("betas"))
        for beta in betas:  # type: ignore[union-attr]
            if not isinstance(beta, int) or beta <= 0 or beta & (beta - 1):
                raise _fail(
                    spec_name,
                    f"{where}: accuracy beta {beta!r} must be a positive power of two",
                )

    return Block(
        experiment=str(experiment),
        datasets=tuple(str(d) for d in datasets_raw),
        window_percents=window_percents,
        precisions=precisions,
        methods=tuple(str(m) for m in methods_raw),
        seeds=seeds,
        params=params,
    )


def spec_from_dict(raw: Mapping[str, object]) -> MatrixSpec:
    """Validate a parsed spec document; every failure is one clear line."""
    if not isinstance(raw, Mapping):
        raise ValueError("matrix spec must be a JSON/TOML object")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError("matrix spec: 'name' must be a non-empty string")
    for key in raw:
        if key not in ("name", "scale", "dataset_rng", "blocks"):
            raise _fail(name, f"unknown key {key!r}")
    scale = raw.get("scale", 1.0)
    if isinstance(scale, bool) or not isinstance(scale, (int, float)) or scale <= 0:
        raise _fail(name, f"'scale' must be a positive number, got {scale!r}")
    dataset_rng = raw.get("dataset_rng", 1)
    if isinstance(dataset_rng, bool) or not isinstance(dataset_rng, int) or dataset_rng < 0:
        raise _fail(name, f"'dataset_rng' must be a non-negative int, got {dataset_rng!r}")
    blocks_raw = raw.get("blocks")
    if not isinstance(blocks_raw, Sequence) or isinstance(blocks_raw, str) or not blocks_raw:
        raise _fail(name, "'blocks' must be a non-empty list")
    blocks = tuple(
        _validate_block(name, index, block) for index, block in enumerate(blocks_raw)
    )
    spec = MatrixSpec(
        name=name, blocks=blocks, scale=float(scale), dataset_rng=dataset_rng
    )
    spec.cells()  # surfaces duplicate-cell declarations at load time
    return spec


def paper_spec(scale: float = 1.0, seeds: Sequence[int] = (0, 1, 2)) -> MatrixSpec:
    """The full paper matrix (Tables 2–6, Figures 3–5) on the shared grid,
    plus the A1–A6 ablations and the cross-judge check.

    ``seeds`` controls the replicate count of every experiment with a
    seed axis — three replicates is the floor for the rank-based
    significance tests to have any resolution.
    """
    seed_list = list(seeds)
    return spec_from_dict(
        {
            "name": "paper",
            "scale": scale,
            "blocks": [
                {"experiment": "datasets"},
                {
                    "experiment": "accuracy",
                    "window_percents": list(grid.WINDOW_PERCENTS),
                    "seeds": seed_list,
                },
                {
                    "experiment": "memory",
                    "window_percents": list(grid.WINDOW_PERCENTS),
                    "precisions": [grid.DEFAULT_PRECISION],
                },
                {
                    "experiment": "runtime",
                    "window_percents": list(grid.WINDOW_SWEEP),
                    "precisions": [grid.DEFAULT_PRECISION],
                    "seeds": seed_list,
                },
                {
                    "experiment": "query",
                    "precisions": [grid.DEFAULT_PRECISION],
                    "seeds": seed_list,
                },
                {
                    "experiment": "spread",
                    "window_percents": list(grid.SPREAD_WINDOW_PERCENTS),
                    "precisions": [grid.DEFAULT_PRECISION],
                    "methods": list(grid.SPREAD_METHODS),
                    "seeds": seed_list,
                },
                {
                    "experiment": "overlap",
                    "precisions": [grid.DEFAULT_PRECISION],
                },
                {
                    "experiment": "seed_time",
                    "window_percents": [grid.SEED_TIME_WINDOW_PERCENT],
                    "precisions": [grid.DEFAULT_PRECISION],
                    "methods": list(grid.SEED_TIME_METHODS),
                    "seeds": seed_list,
                },
                {
                    "experiment": "selectors",
                    "window_percents": [10],
                    "seeds": seed_list,
                },
                {
                    "experiment": "vhll_lists",
                    "window_percents": list(grid.WINDOW_PERCENTS),
                    "precisions": [grid.DEFAULT_PRECISION],
                },
                {
                    "experiment": "exact_vs_sketch",
                    "window_percents": [20],
                    "precisions": [grid.DEFAULT_PRECISION],
                    "seeds": seed_list,
                },
                {
                    "experiment": "sketch_backends",
                    "window_percents": [1, 10],
                    "precisions": [grid.DEFAULT_PRECISION],
                },
                {"experiment": "multiwindow", "seeds": seed_list},
                {"experiment": "tcic_judges", "window_percents": [1]},
                {
                    "experiment": "cross_judge",
                    "window_percents": [1],
                    "precisions": [grid.DEFAULT_PRECISION],
                    "seeds": seed_list,
                },
            ],
        }
    )


def smoke_spec() -> MatrixSpec:
    """A minutes-scale matrix for CI and the committed ``XP_9`` baseline:
    two datasets × two windows × one precision, two seeds per cell."""
    return spec_from_dict(
        {
            "name": "smoke",
            "scale": 0.05,
            "blocks": [
                {
                    "experiment": "runtime",
                    "datasets": ["enron-sim", "slashdot-sim"],
                    "window_percents": [1, 10],
                    "precisions": [7],
                    "seeds": [1, 2],
                },
                {
                    "experiment": "spread",
                    "datasets": ["enron-sim", "slashdot-sim"],
                    "window_percents": [1, 10],
                    "precisions": [7],
                    "methods": ["HD", "IRS-approx"],
                    "seeds": [1, 2],
                    "params": {"ks": [2, 4], "probabilities": [1.0], "runs": 2},
                },
            ],
        }
    )


BUILTIN_SPECS = {"paper": paper_spec, "smoke": smoke_spec}


def load_spec(name_or_path: str) -> MatrixSpec:
    """Load a matrix spec by built-in name or file path.

    ``.toml`` files parse via :mod:`tomllib`, everything else as JSON.
    Every failure mode — missing file, bad syntax, invalid matrix — is a
    one-line ``ValueError`` naming the source.
    """
    builtin = BUILTIN_SPECS.get(name_or_path)
    if builtin is not None:
        return builtin()
    path = name_or_path
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ValueError(
            f"{path}: cannot read matrix spec: {exc.strerror or exc} "
            f"(built-in specs: {', '.join(sorted(BUILTIN_SPECS))})"
        ) from exc
    if path.endswith(".toml"):
        import tomllib

        try:
            raw = tomllib.loads(data.decode("utf-8"))
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: invalid TOML: {exc}") from exc
    else:
        try:
            raw = json.loads(data.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return spec_from_dict(raw)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
