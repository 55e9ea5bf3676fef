"""Unified spec -> envelope contract for the experiment modules.

This module is the other half of the
:class:`~repro.experiments.common.TownTrialSpec` redesign, lifted from one
trial to one whole experiment:

* :class:`ExperimentSpec` is the frozen, picklable base spec carrying the
  vocabulary shared by (almost) every experiment — ``seeds``,
  ``duration_s``, ``town``, and the :mod:`repro.runner` knobs ``workers``
  / ``timeout_s`` / ``retries``.  Each module subclasses it with its own
  extras (fractions, labels, fleet sizes, ...) and may override defaults.
  Analytic experiments (fig3, fig4) simply ignore the fields that have no
  meaning for them; the shared CLI can still address every experiment with
  one flag vocabulary.
* ``run_spec(spec) -> TrialResult`` is the one entry point every module
  exposes: it executes the experiment and returns the same
  :class:`~repro.runner.TrialResult` envelope the trial pool uses, so a
  failed experiment reports ``ok=False`` with a diagnosis instead of
  unwinding a whole artifact regeneration.  ``envelope.unwrap()`` gives
  raise-on-failure semantics.
* :func:`register` wires a module's spec class and runner into the global
  :data:`REGISTRY`, which is what ``python -m repro`` — the one
  command-line entry point — dispatches from.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from ..runner import TrialResult
from ..sim.cc import TransportSpec
from ..sim.contention import ContentionSpec
from .common import DEFAULT_TRIAL_DURATION_S

__all__ = [
    "ExperimentSpec",
    "Experiment",
    "REGISTRY",
    "register",
    "get_experiment",
    "experiment_names",
    "run_experiment",
    "spec_from_options",
    "to_jsonable",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """Shared vocabulary every experiment spec inherits.

    Like :class:`~repro.experiments.common.TownTrialSpec`, a spec is a
    frozen, picklable value object: running the same spec twice yields the
    same result.  Fields an experiment does not use are ignored (fig3 and
    fig4 are pure analytic models, so ``seeds`` and ``town`` have no
    effect there); ``workers``/``timeout_s``/``retries`` default to the
    ``REPRO_WORKERS``/``REPRO_TRIAL_TIMEOUT``/``REPRO_TRIAL_RETRIES``
    environment resolution in :mod:`repro.runner`.
    """

    seeds: Tuple[int, ...] = (0, 1)
    duration_s: float = DEFAULT_TRIAL_DURATION_S
    town: str = "amherst"
    workers: Optional[int] = None
    timeout_s: Optional[float] = None
    retries: Optional[int] = None
    #: Capture :mod:`repro.obs` telemetry per trial.  Town-trial-based
    #: experiments thread this into their TownTrialSpec grid; analytic
    #: experiments ignore it.  Telemetry never perturbs simulation
    #: results — metrics are bit-identical either way.
    telemetry: bool = False
    #: Trial-result cache: ``True``/``False`` force it on/off, ``None``
    #: defers to the ``REPRO_CACHE`` environment variable.  The experiment
    #: registry activates the resolved :class:`repro.cache.TrialCache`
    #: around the runner, so every trial fan-out underneath (including
    #: sharded fleets) memoizes transparently.  Warm results — telemetry
    #: snapshots included — are byte-identical to cold ones.
    cache: Optional[bool] = None
    #: Cache directory (``None``: ``REPRO_CACHE_DIR`` or ``.repro_cache``).
    cache_dir: Optional[str] = None
    #: Transport selection (congestion controller + split-TCP proxying)
    #: for every trial the experiment spawns.  ``None`` keeps the
    #: historical Reno / no-split behaviour byte-identical; the CLI fills
    #: it from ``--cc``/``--split`` (or ``REPRO_CC``/``REPRO_SPLIT``) via
    #: :func:`repro.sim.cc.resolve_transport`.
    transport: Optional[TransportSpec] = None
    #: Contention selection (CSMA/CA multi-cell MAC with per-cell spatial
    #: airtime reuse + optional beacon stagger) for every world the
    #: experiment builds.  ``None`` keeps the historical global
    #: per-channel airtime FIFO byte-identical; the CLI fills it from
    #: ``--contention`` (or ``REPRO_CONTENTION``) via
    #: :func:`repro.sim.contention.resolve_contention`.
    contention: Optional[ContentionSpec] = None

    @property
    def seed(self) -> int:
        """First seed — for experiments that consume a single seed."""
        return self.seeds[0] if self.seeds else 0


@dataclass(frozen=True)
class Experiment:
    """One registry entry: the spec type and the function that runs it."""

    name: str
    spec_cls: Type[ExperimentSpec]
    runner: Callable[[ExperimentSpec], Any]
    summary: str = ""


#: Experiment name -> :class:`Experiment`, in registration order.  The CLI
#: builds its subcommand list from this.
REGISTRY: Dict[str, Experiment] = {}


def register(
    name: str, spec_cls: Type[ExperimentSpec], summary: str = ""
) -> Callable[[Callable[[Any], Any]], Callable[..., TrialResult]]:
    """Register ``fn`` as the runner for ``name`` and return ``run_spec``.

    Used as a decorator on a module's bare runner::

        @register("fig5", Fig5Spec, summary="association success vs f6")
        def run_spec(spec):            # receives a Fig5Spec
            ...                        # returns the bare Fig5Result

    The decorated name is rebound to an enveloping wrapper: calling it
    (with a spec, or with no argument for the spec class's defaults)
    executes the runner and wraps the outcome in a
    :class:`~repro.runner.TrialResult` tagged ``(name, spec)``.
    """

    def decorate(fn: Callable[[Any], Any]) -> Callable[..., TrialResult]:
        experiment = Experiment(
            name=name, spec_cls=spec_cls, runner=fn, summary=summary
        )
        REGISTRY[name] = experiment

        def run_spec(spec: Optional[ExperimentSpec] = None) -> TrialResult:
            return _execute(experiment, spec)

        run_spec.__name__ = "run_spec"
        run_spec.__qualname__ = f"{name}.run_spec"
        run_spec.__doc__ = (
            f"Run the {name!r} experiment from a {spec_cls.__name__} "
            f"(defaults when ``None``); returns a TrialResult envelope."
        )
        run_spec.experiment = experiment  # type: ignore[attr-defined]
        return run_spec

    return decorate


def _execute(
    experiment: Experiment,
    spec: Optional[ExperimentSpec],
    fabric: Any = None,
) -> TrialResult:
    """Run one experiment, converting any raise into an error envelope.

    ``fabric`` routes the experiment's trial fan-outs through a sweep
    fabric (a fabric instance, a ``--fabric`` spec string, or ``None`` for
    the ambient/``REPRO_FABRIC`` default).  It is deliberately *not* a
    spec field: the spec is serialized into the result envelope's tag, and
    where a sweep ran must never change what it produced.
    """
    if spec is None:
        spec = experiment.spec_cls()
    tag = (experiment.name, spec)
    if not isinstance(spec, experiment.spec_cls):
        return TrialResult(
            ok=False,
            error=(
                f"experiment {experiment.name!r} expects "
                f"{experiment.spec_cls.__name__}, got {type(spec).__name__}"
            ),
            tag=tag,
        )
    from ..cache import activate, resolve_cache
    from ..fabric import activate as activate_fabric
    from ..fabric import resolve_fabric

    try:
        with activate(resolve_cache(spec.cache, spec.cache_dir)):
            with activate_fabric(resolve_fabric(fabric)):
                value = experiment.runner(spec)
    except Exception as exc:  # envelope, never unwind the caller
        return TrialResult(
            ok=False, error=f"{type(exc).__name__}: {exc}", tag=tag
        )
    return TrialResult(ok=True, value=value, tag=tag)


def get_experiment(name: str) -> Optional[Experiment]:
    """Look up a registered experiment (``None`` when unknown)."""
    return REGISTRY.get(name)


def experiment_names() -> List[str]:
    """All registered experiment names, in registration order."""
    return list(REGISTRY)


def run_experiment(
    name: str, spec: Optional[ExperimentSpec] = None, fabric: Any = None
) -> TrialResult:
    """Run a registered experiment by name; raises ``KeyError`` if unknown.

    ``fabric`` (optional) routes the experiment's trial fan-outs through a
    distributed sweep fabric — see :mod:`repro.fabric`.
    """
    experiment = REGISTRY[name]
    return _execute(experiment, spec, fabric=fabric)


def spec_from_options(spec_cls: Type[ExperimentSpec], **overrides: Any) -> ExperimentSpec:
    """Build a spec from CLI-style overrides, dropping what doesn't apply.

    ``None`` values and names the spec class doesn't declare are ignored,
    so one flag vocabulary (``--seed``, ``--trials``, ``--duration``,
    ``--workers``) can drive every experiment, including the analytic ones
    that ignore half of it.
    """
    names = {f.name for f in fields(spec_cls)}
    kept = {k: v for k, v in overrides.items() if v is not None and k in names}
    return spec_cls(**kept)


def to_jsonable(obj: Any) -> Any:
    """Recursively convert specs/results/envelopes to JSON-serialisable data.

    Dataclasses become dicts, tuples become lists, dict keys are
    stringified; anything else non-primitive (factories, join logs with
    methods) falls back to ``repr`` so ``--json-out`` never fails on an
    exotic field.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)
