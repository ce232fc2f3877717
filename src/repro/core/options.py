"""Run options: the simulator's per-invocation settings, parsed once.

One frozen :class:`RunOptions` carries every setting an experiment run
takes from the command line — sanitizing, a fault plan, time-series
sampling, concurrency tracking, serving overrides, the flight-recorder
directory, the worker count, and the sweep seed and JSON dump. The CLI
parses it once, at the edge (:meth:`RunOptions.from_args`), so a bad
value exits before any experiment runs and a plan file edited mid-run
changes nothing.

Contexts built without ``options=`` take the *active* options, which
:func:`using_options` sets for the length of a ``with`` block and
always restores. ``fanout_map`` pickles the active options into its
pool workers, so the settings reach every process an experiment runs
in. The paper's own ``TF_*`` environment surface
(:meth:`~repro.core.config.SwitchFlowConfig.from_env`) is separate.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterator, Mapping, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.faults.plan import FaultPlan
    from repro.serving.config import ServingConfig

DEFAULT_TIMESERIES_CAPACITY = 512


class OptionsError(ValueError):
    """A run option failed validation; the message names its flag."""


@dataclass(frozen=True)
class RunOptions:
    """Every run setting; the defaults attach nothing."""

    #: Verify the paper's trace invariants after every run; ERROR
    #: findings raise :class:`~repro.analysis.integration.SanitizationError`.
    sanitize: bool = False
    #: Fault plan injected into every run (:mod:`repro.faults`).
    faults: Optional["FaultPlan"] = None
    #: ``(interval_ms, capacity)`` of windowed metric sampling.
    timeseries: Optional[Tuple[float, int]] = None
    #: Concurrency tracker mode, ``"hb"`` or ``"lockset"``.
    concurrency: Optional[str] = None
    #: File each run's concurrency report is appended to.
    concurrency_report: Optional[str] = None
    #: Overrides applied to every served-model spec.
    serving: Optional["ServingConfig"] = None
    #: Directory flight records are written to on an aborted run.
    flight_dir: Optional[str] = None
    #: Worker processes for ``fanout_map`` calls that name none.
    jobs: int = 1
    #: Root seed of the fault, cluster and serving sweeps.
    seed: int = 0
    #: Path the fault, cluster or serving sweep dumps its rows to.
    json: Optional[str] = None

    @classmethod
    def from_args(cls, args) -> "RunOptions":
        """Parse the experiment runner's flags.

        Raises :class:`OptionsError` naming the first bad flag.
        """
        faults = serving = None
        if args.faults is not None:
            from repro.faults.plan import FaultPlan, FaultPlanError
            try:
                faults = FaultPlan.load(args.faults)
            except FaultPlanError as exc:
                raise OptionsError(f"--faults: {exc}") from None
        if args.serving is not None:
            from repro.serving.config import ServingConfig, \
                ServingConfigError
            try:
                serving = ServingConfig.parse(args.serving)
            except ServingConfigError as exc:
                raise OptionsError(f"--serving: {exc}") from None
        timeseries = None if args.timeseries is None \
            else parse_timeseries(args.timeseries)
        if args.concurrency not in (None, "hb", "lockset"):
            raise OptionsError(f"--concurrency: expected 'hb' or "
                               f"'lockset', got {args.concurrency!r}")
        if args.concurrency_report is not None and args.concurrency is None:
            raise OptionsError("--concurrency-report needs --concurrency")
        return cls(sanitize=args.sanitize, faults=faults,
                   timeseries=timeseries, concurrency=args.concurrency,
                   concurrency_report=args.concurrency_report,
                   serving=serving, flight_dir=args.flight_dir,
                   jobs=max(1, args.jobs),
                   seed=0 if args.seed is None else args.seed,
                   json=args.json)


def parse_timeseries(spec: str) -> Tuple[float, int]:
    """``"MS[:capacity]"`` -> ``(interval_ms, capacity)``."""
    interval, _, capacity = str(spec).strip().partition(":")
    try:
        interval_ms = float(interval)
        cap = int(capacity) if capacity else DEFAULT_TIMESERIES_CAPACITY
        if interval_ms <= 0 or cap < 1:
            raise ValueError
    except ValueError:
        raise OptionsError(
            f"--timeseries: expected 'MS[:capacity]' with a positive "
            f"interval, got {spec!r}") from None
    return interval_ms, cap


_active = RunOptions()


def active_options() -> RunOptions:
    """The options a context made without ``options=`` takes."""
    return _active


@contextmanager
def using_options(options: RunOptions) -> Iterator[RunOptions]:
    """Make ``options`` active inside the block; restore on exit."""
    global _active
    previous, _active = _active, options
    try:
        yield options
    finally:
        _active = previous


# ---------------------------------------------------------------------------
# Stale-environment guard
# ---------------------------------------------------------------------------
#: Prefix of the environment variables that carried run options before
#: the flags replaced them. Each was named after its field (``_JOBS``
#: -> ``jobs``); the per-sweep ``*_SEED``/``*_JSON`` pairs became
#: ``seed``/``json``.
STALE_PREFIX = "REPRO_"


def stale_environment(
        environ: Optional[Mapping[str, str]] = None) -> Optional[str]:
    """An error naming each set run-option variable and its flag.

    None when no such variable is set. CLIs exit on it, so a setting
    left in the environment cannot silently stop applying.
    """
    environ = os.environ if environ is None else environ
    names = {field.name for field in fields(RunOptions)}
    lines = []
    for variable in sorted(environ):
        if not variable.startswith(STALE_PREFIX):
            continue
        name = variable[len(STALE_PREFIX):].lower()
        if name.endswith(("_seed", "_json")):
            name = name[-4:]
        flag = "--" + name.replace("_", "-") if name in names \
            else "the command-line flags"
        lines.append(f"${variable} is no longer read; use {flag} instead")
    return "\n".join(lines) or None
