"""JSON persistence for profiles and fitted models.

Profiling is the expensive step of the paper's methodology (O(A)
machine runs per process), so real deployments profile once and reuse
the vectors across scheduling decisions.  This module round-trips the
three artefacts a deployment needs to persist:

- :class:`~repro.core.feature.FeatureVector` (performance side),
- :class:`~repro.core.feature.ProfileVector` (power side, PF_i),
- :class:`~repro.core.power_model.CorePowerModel` (fitted Eq. 9).

Beyond the persisted artefacts, every public *result* type —
equilibrium solutions, predictions, assignment decisions, and the
:mod:`repro.api` result bundles — has a ``<type>_to_dict`` /
``<type>_from_dict`` converter pair here, and the dataclasses expose
them as ``to_dict()`` / ``from_dict()`` methods.  All conversions
round-trip exactly (a property test pins this).

The format is plain JSON with an explicit ``kind``/``version`` header
so files are self-describing and future-proof.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Any, Dict, Union

import numpy as np

from repro.core.assignment import AssignmentDecision
from repro.core.equilibrium import EquilibriumResult, SolverTelemetry
from repro.core.feature import FeatureVector, ProfileVector
from repro.core.histogram import ReuseDistanceHistogram
from repro.core.performance_model import CoRunPrediction, ProcessPrediction
from repro.core.power_model import CorePowerModel
from repro.core.spi import SpiModel
from repro.errors import ConfigurationError
from repro.events import PAPER_NAMES, RATE_EVENTS

Pathish = Union[str, pathlib.Path]

FORMAT_VERSION = 1


def _check_header(data: Dict, kind: str) -> None:
    if not isinstance(data, dict):
        raise ConfigurationError("malformed document: expected a JSON object")
    if data.get("kind") != kind:
        raise ConfigurationError(
            f"expected kind={kind!r}, found {data.get('kind')!r}"
        )
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported format version {version!r} (supported: {FORMAT_VERSION})"
        )


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------
def histogram_to_dict(histogram: ReuseDistanceHistogram) -> Dict:
    """Plain-JSON representation of a histogram."""
    return {
        "probs": [float(p) for p in histogram.probs],
        "inf_mass": histogram.inf_mass,
    }


def histogram_from_dict(data: Dict) -> ReuseDistanceHistogram:
    try:
        return ReuseDistanceHistogram(data["probs"], data["inf_mass"])
    except KeyError as missing:
        raise ConfigurationError(f"histogram document missing {missing}") from None


# ----------------------------------------------------------------------
# Feature vectors
# ----------------------------------------------------------------------
def feature_to_dict(feature: FeatureVector) -> Dict:
    return {
        "kind": "feature_vector",
        "version": FORMAT_VERSION,
        "name": feature.name,
        "api": feature.api,
        "alpha": feature.alpha,
        "beta": feature.beta,
        "spi_fit_r2": feature.spi_model.r_squared,
        "histogram": histogram_to_dict(feature.histogram),
    }


def feature_from_dict(data: Dict) -> FeatureVector:
    _check_header(data, "feature_vector")
    try:
        return FeatureVector(
            name=data["name"],
            histogram=histogram_from_dict(data["histogram"]),
            api=data["api"],
            spi_model=SpiModel(
                alpha=data["alpha"],
                beta=data["beta"],
                r_squared=data.get("spi_fit_r2", 1.0),
            ),
        )
    except KeyError as missing:
        raise ConfigurationError(f"feature document missing {missing}") from None


# ----------------------------------------------------------------------
# Profile vectors
# ----------------------------------------------------------------------
def profile_to_dict(profile: ProfileVector) -> Dict:
    return {
        "kind": "profile_vector",
        "version": FORMAT_VERSION,
        "name": profile.name,
        "p_alone": profile.p_alone,
        "l1rpi": profile.l1rpi,
        "l2rpi": profile.l2rpi,
        "brpi": profile.brpi,
        "fppi": profile.fppi,
    }


def profile_from_dict(data: Dict) -> ProfileVector:
    _check_header(data, "profile_vector")
    try:
        return ProfileVector(
            name=data["name"],
            p_alone=data["p_alone"],
            l1rpi=data["l1rpi"],
            l2rpi=data["l2rpi"],
            brpi=data["brpi"],
            fppi=data["fppi"],
        )
    except KeyError as missing:
        raise ConfigurationError(f"profile document missing {missing}") from None


# ----------------------------------------------------------------------
# Power models
# ----------------------------------------------------------------------
def power_model_to_dict(model: CorePowerModel) -> Dict:
    coefficients = model.coefficients
    return {
        "kind": "power_model",
        "version": FORMAT_VERSION,
        "p_idle": model.p_idle,
        "coefficients": coefficients,
        "r_squared": model.r_squared,
    }


def power_model_from_dict(data: Dict) -> CorePowerModel:
    _check_header(data, "power_model")
    try:
        p_idle = float(data["p_idle"])
        coefficients = [
            float(data["coefficients"][PAPER_NAMES[event]]) for event in RATE_EVENTS
        ]
    except KeyError as missing:
        raise ConfigurationError(f"power-model document missing {missing}") from None
    # Restore the fitted state directly (the document *is* the model:
    # slopes, pinned intercept, training R²), so documents round-trip
    # bit-exactly — the repro.api property tests rely on that.
    model = CorePowerModel()
    model._regression.coefficients = np.asarray(coefficients, dtype=float)
    model._regression.intercept = p_idle
    recorded_r2 = data.get("r_squared")
    model._regression.r_squared = (
        float(recorded_r2) if recorded_r2 is not None else 1.0
    )
    return model


# ----------------------------------------------------------------------
# Solver telemetry and equilibrium results
# ----------------------------------------------------------------------
def telemetry_to_dict(telemetry: SolverTelemetry) -> Dict:
    return {
        "kind": "solver_telemetry",
        "version": FORMAT_VERSION,
        "strategy": telemetry.strategy,
        "solver": telemetry.solver,
        "jacobian": telemetry.jacobian,
        "iterations": telemetry.iterations,
        "residual_norm": telemetry.residual_norm,
        "fallback_reason": telemetry.fallback_reason,
    }


def telemetry_from_dict(data: Dict) -> SolverTelemetry:
    # Older documents also carry a ``warm_started`` flag; every solve
    # now starts cold, so it is ignored.
    _check_header(data, "solver_telemetry")
    try:
        return SolverTelemetry(
            strategy=data["strategy"],
            solver=data["solver"],
            jacobian=data["jacobian"],
            iterations=int(data["iterations"]),
            residual_norm=float(data["residual_norm"]),
            fallback_reason=data.get("fallback_reason"),
        )
    except KeyError as missing:
        raise ConfigurationError(f"telemetry document missing {missing}") from None


def equilibrium_result_to_dict(result: EquilibriumResult) -> Dict:
    return {
        "kind": "equilibrium_result",
        "version": FORMAT_VERSION,
        "sizes": [float(s) for s in result.sizes],
        "mpas": [float(m) for m in result.mpas],
        "spis": [float(s) for s in result.spis],
        "solver": result.solver,
        "iterations": result.iterations,
        "contended": result.contended,
        "telemetry": (
            telemetry_to_dict(result.telemetry)
            if result.telemetry is not None
            else None
        ),
    }


def equilibrium_result_from_dict(data: Dict) -> EquilibriumResult:
    _check_header(data, "equilibrium_result")
    try:
        telemetry_doc = data.get("telemetry")
        return EquilibriumResult(
            sizes=tuple(float(s) for s in data["sizes"]),
            mpas=tuple(float(m) for m in data["mpas"]),
            spis=tuple(float(s) for s in data["spis"]),
            solver=data["solver"],
            iterations=int(data["iterations"]),
            contended=bool(data["contended"]),
            telemetry=(
                telemetry_from_dict(telemetry_doc)
                if telemetry_doc is not None
                else None
            ),
        )
    except KeyError as missing:
        raise ConfigurationError(
            f"equilibrium-result document missing {missing}"
        ) from None


# ----------------------------------------------------------------------
# Predictions
# ----------------------------------------------------------------------
def process_prediction_to_dict(prediction: ProcessPrediction) -> Dict:
    return {
        "kind": "process_prediction",
        "version": FORMAT_VERSION,
        "name": prediction.name,
        "effective_size": prediction.effective_size,
        "mpa": prediction.mpa,
        "spi": prediction.spi,
    }


def process_prediction_from_dict(data: Dict) -> ProcessPrediction:
    _check_header(data, "process_prediction")
    try:
        return ProcessPrediction(
            name=data["name"],
            effective_size=float(data["effective_size"]),
            mpa=float(data["mpa"]),
            spi=float(data["spi"]),
        )
    except KeyError as missing:
        raise ConfigurationError(
            f"process-prediction document missing {missing}"
        ) from None


def corun_prediction_to_dict(prediction: CoRunPrediction) -> Dict:
    return {
        "kind": "corun_prediction",
        "version": FORMAT_VERSION,
        "processes": [process_prediction_to_dict(p) for p in prediction.processes],
        "solver": prediction.solver,
        "contended": prediction.contended,
    }


def corun_prediction_from_dict(data: Dict) -> CoRunPrediction:
    _check_header(data, "corun_prediction")
    try:
        return CoRunPrediction(
            processes=tuple(
                process_prediction_from_dict(p) for p in data["processes"]
            ),
            solver=data["solver"],
            contended=bool(data["contended"]),
        )
    except KeyError as missing:
        raise ConfigurationError(
            f"corun-prediction document missing {missing}"
        ) from None


# ----------------------------------------------------------------------
# Assignment decisions
# ----------------------------------------------------------------------
def assignment_decision_to_dict(decision: AssignmentDecision) -> Dict:
    return {
        "kind": "assignment_decision",
        "version": FORMAT_VERSION,
        # JSON object keys are strings; core ids are re-parsed on load.
        "assignment": {
            str(core): list(names) for core, names in decision.assignment.items()
        },
        "predicted_watts": decision.predicted_watts,
        "predicted_ips": decision.predicted_ips,
        "objective": decision.objective,
        "score": decision.score,
        "candidates_evaluated": decision.candidates_evaluated,
    }


def assignment_decision_from_dict(data: Dict) -> AssignmentDecision:
    _check_header(data, "assignment_decision")
    try:
        return AssignmentDecision(
            assignment={
                int(core): tuple(names)
                for core, names in data["assignment"].items()
            },
            predicted_watts=float(data["predicted_watts"]),
            predicted_ips=float(data["predicted_ips"]),
            objective=data["objective"],
            score=float(data["score"]),
            candidates_evaluated=int(data["candidates_evaluated"]),
        )
    except KeyError as missing:
        raise ConfigurationError(
            f"assignment-decision document missing {missing}"
        ) from None


# ----------------------------------------------------------------------
# Facade result bundles (repro.api)
# ----------------------------------------------------------------------
def profile_suite_result_to_dict(result) -> Dict:
    # Same ``profile_suite`` kind as :func:`save_profile_suite` (plus a
    # ``machine`` key), so facade-written files stay loadable by
    # :func:`load_profile_suite` and vice versa.
    return {
        "kind": "profile_suite",
        "version": FORMAT_VERSION,
        "machine": result.machine,
        "features": {
            name: feature_to_dict(f) for name, f in result.features.items()
        },
        "profiles": {
            name: profile_to_dict(p) for name, p in result.profiles.items()
        },
    }


def profile_suite_result_from_dict(data: Dict):
    from repro.api import ProfileSuiteResult

    _check_header(data, "profile_suite")
    return ProfileSuiteResult(
        machine=data.get("machine", ""),
        features={
            name: feature_from_dict(d)
            for name, d in data.get("features", {}).items()
        },
        profiles={
            name: profile_from_dict(d)
            for name, d in data.get("profiles", {}).items()
        },
    )


def mix_prediction_to_dict(result) -> Dict:
    return {
        "kind": "mix_prediction",
        "version": FORMAT_VERSION,
        "ways": result.ways,
        "names": list(result.names),
        "prediction": corun_prediction_to_dict(result.prediction),
    }


def mix_prediction_from_dict(data: Dict):
    from repro.api import MixPrediction

    _check_header(data, "mix_prediction")
    try:
        return MixPrediction(
            ways=int(data["ways"]),
            names=tuple(data["names"]),
            prediction=corun_prediction_from_dict(data["prediction"]),
        )
    except KeyError as missing:
        raise ConfigurationError(
            f"mix-prediction document missing {missing}"
        ) from None


def power_training_result_to_dict(result) -> Dict:
    return {
        "kind": "power_training_result",
        "version": FORMAT_VERSION,
        "machine": result.machine,
        "model": power_model_to_dict(result.model),
        "training_windows": result.training_windows,
        "r_squared": result.r_squared,
    }


def power_training_result_from_dict(data: Dict):
    from repro.api import PowerTrainingResult

    _check_header(data, "power_training_result")
    try:
        return PowerTrainingResult(
            machine=data["machine"],
            model=power_model_from_dict(data["model"]),
            training_windows=int(data["training_windows"]),
            r_squared=float(data["r_squared"]),
        )
    except KeyError as missing:
        raise ConfigurationError(
            f"power-training-result document missing {missing}"
        ) from None


def assignment_pick_to_dict(result) -> Dict:
    return {
        "kind": "assignment_pick",
        "version": FORMAT_VERSION,
        "machine": result.machine,
        "strategy": result.strategy,
        "decision": assignment_decision_to_dict(result.decision),
    }


def assignment_pick_from_dict(data: Dict):
    from repro.api import AssignmentPick

    _check_header(data, "assignment_pick")
    try:
        return AssignmentPick(
            machine=data["machine"],
            strategy=data["strategy"],
            decision=assignment_decision_from_dict(data["decision"]),
        )
    except KeyError as missing:
        raise ConfigurationError(
            f"assignment-pick document missing {missing}"
        ) from None


# ----------------------------------------------------------------------
# Fleet assignment (repro.fleet)
# ----------------------------------------------------------------------
def _field(data: Any, key: str, path: str) -> Any:
    """Required-field lookup that names the exact JSON path on failure.

    The fleet documents are accepted over HTTP (``/v2/assign``), where
    "``fleet.groups[1].count`` is missing" beats a bare ``KeyError``.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path} must be a JSON object")
    if key not in data:
        raise ConfigurationError(f"{path}.{key} is missing")
    return data[key]


def _cast(value: Any, caster, path: str) -> Any:
    try:
        return caster(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{path} has invalid value {value!r}"
        ) from None


def _optional(data: Dict, key: str, caster, path: str) -> Any:
    value = data.get(key)
    if value is None:
        return None
    return _cast(value, caster, f"{path}.{key}")


def hetero_spec_to_dict(spec) -> Dict:
    return {
        "kind": "hetero_machine_spec",
        "version": FORMAT_VERSION,
        "machine": spec.machine,
        "core_types": [
            {
                "name": core_type.name,
                "perf_scale": core_type.perf_scale,
                "dynamic_scale": core_type.dynamic_scale,
                "static_scale": core_type.static_scale,
                "pstates": [
                    {
                        "name": pstate.name,
                        "frequency_ratio": pstate.frequency_ratio,
                        "voltage_ratio": pstate.voltage_ratio,
                    }
                    for pstate in core_type.pstates
                ],
            }
            for core_type in spec.core_types
        ],
        "core_type_of": list(spec.core_type_of),
    }


def hetero_spec_from_dict(data: Dict, path: str = "hetero_machine_spec"):
    from repro.hetero.types import CoreType, HeteroMachineSpec, PState

    _check_header(data, "hetero_machine_spec")
    core_types_doc = _field(data, "core_types", path)
    if not isinstance(core_types_doc, list):
        raise ConfigurationError(f"{path}.core_types must be a list")
    core_types = []
    for index, type_doc in enumerate(core_types_doc):
        type_path = f"{path}.core_types[{index}]"
        if not isinstance(type_doc, dict):
            raise ConfigurationError(f"{type_path} must be a JSON object")
        pstates_doc = type_doc.get("pstates", [{"name": "nominal"}])
        if not isinstance(pstates_doc, list):
            raise ConfigurationError(f"{type_path}.pstates must be a list")
        pstates = []
        for pstate_index, pstate_doc in enumerate(pstates_doc):
            pstate_path = f"{type_path}.pstates[{pstate_index}]"
            if not isinstance(pstate_doc, dict):
                raise ConfigurationError(f"{pstate_path} must be a JSON object")
            pstates.append(
                PState(
                    name=_cast(
                        _field(pstate_doc, "name", pstate_path),
                        str,
                        f"{pstate_path}.name",
                    ),
                    frequency_ratio=_cast(
                        pstate_doc.get("frequency_ratio", 1.0),
                        float,
                        f"{pstate_path}.frequency_ratio",
                    ),
                    voltage_ratio=_cast(
                        pstate_doc.get("voltage_ratio", 1.0),
                        float,
                        f"{pstate_path}.voltage_ratio",
                    ),
                )
            )
        core_types.append(
            CoreType(
                name=_cast(
                    _field(type_doc, "name", type_path),
                    str,
                    f"{type_path}.name",
                ),
                perf_scale=_cast(
                    type_doc.get("perf_scale", 1.0),
                    float,
                    f"{type_path}.perf_scale",
                ),
                dynamic_scale=_cast(
                    type_doc.get("dynamic_scale", 1.0),
                    float,
                    f"{type_path}.dynamic_scale",
                ),
                static_scale=_cast(
                    type_doc.get("static_scale", 1.0),
                    float,
                    f"{type_path}.static_scale",
                ),
                pstates=tuple(pstates),
            )
        )
    core_type_of_doc = _field(data, "core_type_of", path)
    if not isinstance(core_type_of_doc, list):
        raise ConfigurationError(f"{path}.core_type_of must be a list")
    return HeteroMachineSpec(
        machine=_cast(_field(data, "machine", path), str, f"{path}.machine"),
        core_types=tuple(core_types),
        core_type_of=tuple(
            _cast(value, int, f"{path}.core_type_of[{index}]")
            for index, value in enumerate(core_type_of_doc)
        ),
    )


def fleet_spec_to_dict(spec) -> Dict:
    return {
        "kind": "fleet_spec",
        "version": FORMAT_VERSION,
        "groups": [
            {
                "machine": group.machine,
                "count": group.count,
                "sets": group.sets,
                "power_cap_watts": group.power_cap_watts,
                "hetero": (
                    hetero_spec_to_dict(group.hetero)
                    if group.hetero is not None
                    else None
                ),
            }
            for group in spec.groups
        ],
    }


def fleet_spec_from_dict(data: Dict, path: str = "fleet"):
    from repro.fleet.spec import FleetSpec, MachineGroup

    _check_header(data, "fleet_spec")
    groups_doc = _field(data, "groups", path)
    if not isinstance(groups_doc, list):
        raise ConfigurationError(f"{path}.groups must be a list")
    groups = []
    for index, group_doc in enumerate(groups_doc):
        group_path = f"{path}.groups[{index}]"
        if not isinstance(group_doc, dict):
            raise ConfigurationError(f"{group_path} must be a JSON object")
        hetero_doc = group_doc.get("hetero")
        hetero = (
            hetero_spec_from_dict(hetero_doc, path=f"{group_path}.hetero")
            if hetero_doc is not None
            else None
        )
        groups.append(
            MachineGroup(
                machine=_cast(
                    _field(group_doc, "machine", group_path),
                    str,
                    f"{group_path}.machine",
                ),
                count=_cast(
                    group_doc.get("count", 1), int, f"{group_path}.count"
                ),
                sets=_cast(group_doc.get("sets", 128), int, f"{group_path}.sets"),
                power_cap_watts=_optional(
                    group_doc, "power_cap_watts", float, group_path
                ),
                hetero=hetero,
            )
        )
    return FleetSpec(groups=tuple(groups))


def assignment_request_to_dict(request) -> Dict:
    return {
        "kind": "assignment_request",
        "version": FORMAT_VERSION,
        "processes": list(request.processes),
        "objective": request.objective,
        "solver": request.solver,
        "fleet": (
            fleet_spec_to_dict(request.fleet)
            if request.fleet is not None
            else None
        ),
        "machine": request.machine,
        "sets": request.sets,
        "max_per_core": request.max_per_core,
        "power_budget_watts": request.power_budget_watts,
        "machine_power_cap_watts": request.machine_power_cap_watts,
        "budget_s": request.budget_s,
        "max_iterations": request.max_iterations,
        "seed": request.seed,
    }


def assignment_request_from_dict(data: Dict):
    from repro.fleet.types import AssignmentRequest

    _check_header(data, "assignment_request")
    path = "assignment_request"
    processes = _field(data, "processes", path)
    if not isinstance(processes, list) or not all(
        isinstance(name, str) for name in processes
    ):
        raise ConfigurationError(f"{path}.processes must be a list of strings")
    fleet_doc = data.get("fleet")
    fleet = (
        fleet_spec_from_dict(fleet_doc, path=f"{path}.fleet")
        if fleet_doc is not None
        else None
    )
    return AssignmentRequest(
        processes=tuple(processes),
        objective=_cast(
            data.get("objective", "min-power"), str, f"{path}.objective"
        ),
        solver=_cast(data.get("solver", "auto"), str, f"{path}.solver"),
        fleet=fleet,
        machine=_cast(
            data.get("machine", "4-core-server"), str, f"{path}.machine"
        ),
        sets=_cast(data.get("sets", 128), int, f"{path}.sets"),
        max_per_core=_optional(data, "max_per_core", int, path),
        power_budget_watts=_optional(data, "power_budget_watts", float, path),
        machine_power_cap_watts=_optional(
            data, "machine_power_cap_watts", float, path
        ),
        budget_s=_optional(data, "budget_s", float, path),
        max_iterations=_optional(data, "max_iterations", int, path),
        seed=_cast(data.get("seed", 0), int, f"{path}.seed"),
    )


def machine_assignment_to_dict(machine) -> Dict:
    return {
        "kind": "machine_assignment",
        "version": FORMAT_VERSION,
        "machine": machine.machine,
        "group": machine.group,
        "index": machine.index,
        # JSON object keys are strings; core ids are re-parsed on load.
        "assignment": {
            str(core): list(names) for core, names in machine.assignment.items()
        },
        "predicted_watts": machine.predicted_watts,
        "predicted_ips": machine.predicted_ips,
        "pstates": (
            {str(core): pstate for core, pstate in machine.pstates.items()}
            if machine.pstates is not None
            else None
        ),
    }


def machine_assignment_from_dict(data: Dict, path: str = "machine_assignment"):
    from repro.fleet.types import MachineAssignment

    _check_header(data, "machine_assignment")
    assignment_doc = _field(data, "assignment", path)
    if not isinstance(assignment_doc, dict):
        raise ConfigurationError(f"{path}.assignment must be a JSON object")
    pstates_doc = data.get("pstates")
    if pstates_doc is not None and not isinstance(pstates_doc, dict):
        raise ConfigurationError(f"{path}.pstates must be a JSON object")
    pstates = (
        {
            _cast(core, int, f"{path}.pstates[{core!r}]"): _cast(
                pstate, int, f"{path}.pstates[{core!r}]"
            )
            for core, pstate in pstates_doc.items()
        }
        if pstates_doc is not None
        else None
    )
    return MachineAssignment(
        machine=_cast(_field(data, "machine", path), str, f"{path}.machine"),
        group=_cast(_field(data, "group", path), int, f"{path}.group"),
        index=_cast(_field(data, "index", path), int, f"{path}.index"),
        assignment={
            _cast(core, int, f"{path}.assignment[{core!r}]"): tuple(names)
            for core, names in assignment_doc.items()
        },
        predicted_watts=_cast(
            _field(data, "predicted_watts", path),
            float,
            f"{path}.predicted_watts",
        ),
        predicted_ips=_cast(
            _field(data, "predicted_ips", path), float, f"{path}.predicted_ips"
        ),
        pstates=pstates,
    )


def fleet_assignment_to_dict(result) -> Dict:
    return {
        "kind": "fleet_assignment",
        "version": FORMAT_VERSION,
        "objective": result.objective,
        "solver": result.solver,
        "refinement": result.refinement,
        "fleet": fleet_spec_to_dict(result.fleet),
        "processes": list(result.processes),
        "machines": [machine_assignment_to_dict(m) for m in result.machines],
        "predicted_watts": result.predicted_watts,
        "predicted_ips": result.predicted_ips,
        "score": result.score,
        "evaluations": result.evaluations,
        "iterations": result.iterations,
        "improvements": [
            [iteration, score] for iteration, score in result.improvements
        ],
        "seed": result.seed,
    }


def fleet_assignment_from_dict(data: Dict):
    from repro.fleet.types import FleetAssignment

    _check_header(data, "fleet_assignment")
    path = "fleet_assignment"
    machines_doc = _field(data, "machines", path)
    if not isinstance(machines_doc, list):
        raise ConfigurationError(f"{path}.machines must be a list")
    improvements_doc = data.get("improvements", [])
    improvements = tuple(
        (
            _cast(entry[0], int, f"{path}.improvements[{index}][0]"),
            _cast(entry[1], float, f"{path}.improvements[{index}][1]"),
        )
        for index, entry in enumerate(improvements_doc)
    )
    return FleetAssignment(
        objective=_cast(
            _field(data, "objective", path), str, f"{path}.objective"
        ),
        solver=_cast(_field(data, "solver", path), str, f"{path}.solver"),
        refinement=_cast(
            data.get("refinement", "none"), str, f"{path}.refinement"
        ),
        fleet=fleet_spec_from_dict(
            _field(data, "fleet", path), path=f"{path}.fleet"
        ),
        processes=tuple(_field(data, "processes", path)),
        machines=tuple(
            machine_assignment_from_dict(doc, path=f"{path}.machines[{index}]")
            for index, doc in enumerate(machines_doc)
        ),
        predicted_watts=_cast(
            _field(data, "predicted_watts", path),
            float,
            f"{path}.predicted_watts",
        ),
        predicted_ips=_cast(
            _field(data, "predicted_ips", path), float, f"{path}.predicted_ips"
        ),
        score=_cast(_field(data, "score", path), float, f"{path}.score"),
        evaluations=_cast(
            data.get("evaluations", 0), int, f"{path}.evaluations"
        ),
        iterations=_cast(data.get("iterations", 0), int, f"{path}.iterations"),
        improvements=improvements,
        seed=_cast(data.get("seed", 0), int, f"{path}.seed"),
    )


def load_fleet_assignment(path: Pathish):
    """Load a bundle saved by :meth:`FleetAssignment.save`."""
    return fleet_assignment_from_dict(load_json(path))


# ----------------------------------------------------------------------
# Suites and files
# ----------------------------------------------------------------------
def _require_finite(node: Any, path: str = "$") -> None:
    """Reject NaN/Infinity anywhere in a JSON-bound structure.

    ``json.dumps`` defaults to ``allow_nan=True`` and would emit bare
    ``NaN``/``Infinity`` tokens — invalid JSON that breaks round-trips
    and strict parsers.  This walk names the offending key path, which
    the ``ValueError`` from ``allow_nan=False`` alone does not.
    """
    if isinstance(node, float):
        if not math.isfinite(node):
            raise ConfigurationError(
                f"non-finite value {node!r} at {path}: JSON documents must "
                "be finite — fix the producing computation or sanitize the "
                "field (see sanitize_non_finite) before saving"
            )
    elif isinstance(node, dict):
        for key, value in node.items():
            _require_finite(value, f"{path}.{key}")
    elif isinstance(node, (list, tuple)):
        for index, value in enumerate(node):
            _require_finite(value, f"{path}[{index}]")


def sanitize_non_finite(node: Any) -> Any:
    """Deep copy with NaN/±Infinity floats replaced by string markers.

    For documents that must always export (observability traces of a
    *failing* run are exactly what one wants to look at), raising on a
    stray NaN attribute would be worse than recording it; the markers
    ``"NaN"`` / ``"Infinity"`` / ``"-Infinity"`` keep the document
    valid strict JSON while preserving what happened.
    """
    if isinstance(node, float):
        if math.isnan(node):
            return "NaN"
        if math.isinf(node):
            return "Infinity" if node > 0 else "-Infinity"
        return node
    if isinstance(node, dict):
        return {key: sanitize_non_finite(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [sanitize_non_finite(value) for value in node]
    return node


def save_json(data: Dict, path: Pathish) -> None:
    """Write a document as strict JSON (non-finite floats rejected)."""
    _require_finite(data)
    pathlib.Path(path).write_text(
        json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )


def load_json(path: Pathish) -> Dict:
    return json.loads(pathlib.Path(path).read_text())


def save_feature(feature: FeatureVector, path: Pathish) -> None:
    """Write one feature vector to a JSON file."""
    save_json(feature_to_dict(feature), path)


def load_feature(path: Pathish) -> FeatureVector:
    """Read one feature vector from a JSON file."""
    return feature_from_dict(load_json(path))


def save_profile_suite(
    features: Dict[str, FeatureVector],
    profiles: Dict[str, ProfileVector],
    path: Pathish,
) -> None:
    """Persist a whole profiled suite (features + PF vectors) to JSON."""
    if set(features) != set(profiles):
        raise ConfigurationError("features and profiles must cover the same names")
    document = {
        "kind": "profile_suite",
        "version": FORMAT_VERSION,
        "features": {name: feature_to_dict(f) for name, f in features.items()},
        "profiles": {name: profile_to_dict(p) for name, p in profiles.items()},
    }
    save_json(document, path)


def load_profile_suite(path: Pathish):
    """Load a suite saved by :func:`save_profile_suite`.

    Returns:
        ``(features, profiles)`` dictionaries keyed by process name.
    """
    data = load_json(path)
    _check_header(data, "profile_suite")
    features = {
        name: feature_from_dict(d) for name, d in data.get("features", {}).items()
    }
    profiles = {
        name: profile_from_dict(d) for name, d in data.get("profiles", {}).items()
    }
    return features, profiles


def save_power_model(model: CorePowerModel, path: Pathish) -> None:
    """Persist a fitted Eq. 9 model to JSON."""
    save_json(power_model_to_dict(model), path)


def load_power_model(path: Pathish) -> CorePowerModel:
    """Load a fitted Eq. 9 model from JSON."""
    return power_model_from_dict(load_json(path))
