"""Deterministic fault injection for the execution runtime.

The fault-tolerance layer (checkpoint/resume, per-item retry) needs
reproducible failures to test against: a work item that dies on its
first attempt and succeeds on the retry, a worker that is killed
mid-sweep, a checkpoint file that arrives corrupted.  This module
expresses those as a declarative :class:`FaultPlan` — a list of
stateless :class:`FaultRule` records matched on *(item index, item
label, attempt number)* — so the same plan produces the same failures
on every backend and in every worker process.

Spec grammar (the CLI's ``--inject-faults`` and :func:`parse_fault_plan`)::

    SPEC    := RULE (';' RULE)*
    RULE    := KIND [':' FIELD (',' FIELD)*]
    KIND    := 'raise' | 'kill' | 'slow' | 'corrupt'
    FIELD   := 'item=' INT      -- match one work-item index
             | 'label=' GLOB    -- fnmatch pattern on the item label
             | 'attempt=' INT   -- fire only on that attempt number
             | 'times=' INT     -- fire while attempt < times (-1 = always)
             | 'seconds=' FLOAT -- sleep duration for 'slow'
             | 'exc=' NAME      -- 'fault' (default) | 'kill' | 'strict'

Examples::

    raise:item=2                     # item 2 fails its first attempt
    raise:item=2,times=-1            # item 2 fails every attempt
    kill:label=batch:*,attempt=0     # every epoch solve shard dies once
    slow:item=1,seconds=0.05         # item 1 takes 50 ms longer
    corrupt:item=0                   # item 0's checkpoint is corrupted
    raise:item=0,exc=strict          # item 0 raises StrictNumericsError

Matching is **stateless**: a rule with ``times=1`` (the default) fires
when ``attempt == 0`` and never again, regardless of which process
re-executes the item — that is what makes transient-fault tests
deterministic across serial and process-pool backends.  The attempt
counter is threaded in by the retry loop of
:class:`~repro.runtime.resumable.ResumableExecutor`; plain executors
always run attempt 0.

Activation: :func:`install_faults` installs a plan in-process and (by
default) exports it via the ``REPRO_INJECT_FAULTS`` environment
variable so freshly spawned pool workers pick it up on their first
work item.  :func:`repro.runtime.plan.execute_item` consults
:func:`active_fault_plan` before running each item.
"""

from __future__ import annotations

import fnmatch
import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

FAULT_ENV_VAR = "REPRO_INJECT_FAULTS"
"""Environment variable carrying the active fault spec to workers."""

FAULT_KINDS = ("raise", "kill", "slow", "corrupt")


class FaultSpecError(ValueError):
    """A fault spec string that does not parse."""


class InjectedFault(RuntimeError):
    """The transient failure raised by a ``raise`` rule."""


class WorkerKilled(InjectedFault):
    """Raised by a ``kill`` rule: simulates a worker dying mid-item.

    A subclass (not ``SystemExit``/``os._exit``) on purpose: a real
    process kill would take the whole ``ProcessPoolExecutor`` down as
    ``BrokenProcessPool``, which is unrecoverable by design — the
    retry/resume machinery treats any in-item exception as the worker
    loss it recovers from.
    """


@dataclass(frozen=True)
class FaultRule:
    """One stateless trigger inside a fault plan.

    ``attempt`` (exact match) takes precedence over ``times``
    (``attempt < times``); ``times=-1`` means every attempt.
    """

    kind: str
    item: Optional[int] = None
    label: Optional[str] = None
    attempt: Optional[int] = None
    times: int = 1
    seconds: float = 0.0
    exc: str = "fault"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.exc not in ("fault", "kill", "strict"):
            raise FaultSpecError(
                f"unknown exception name {self.exc!r}; expected fault/kill/strict"
            )
        if self.kind == "slow" and self.seconds < 0:
            raise FaultSpecError(f"slow seconds must be >= 0, got {self.seconds}")

    def matches(self, index: int, label: str, attempt: int) -> bool:
        if self.item is not None and index != self.item:
            return False
        if self.label is not None and not fnmatch.fnmatchcase(label, self.label):
            return False
        if self.attempt is not None:
            return attempt == self.attempt
        if self.times < 0:
            return True
        return attempt < self.times

    def build_exception(self, label: str, attempt: int) -> BaseException:
        detail = f"injected fault on {label or 'item'}[attempt {attempt}]"
        if self.kind == "kill" or self.exc == "kill":
            return WorkerKilled(detail)
        if self.exc == "strict":
            # Imported here to keep this module import-light; the
            # strict exception lives with the telemetry facade.
            from repro.obs.telemetry import StrictNumericsError

            return StrictNumericsError("injected", detail)
        return InjectedFault(detail)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of fault rules plus the spec that produced it."""

    rules: Tuple[FaultRule, ...]
    spec: str = ""

    def before_item(self, index: int, label: str, attempt: int = 0) -> None:
        """Apply every matching pre-execution rule for this attempt.

        ``slow`` rules sleep (all that match); the first matching
        ``raise``/``kill`` rule raises.  ``corrupt`` rules are not
        handled here — they fire in the checkpoint-save path via
        :meth:`corrupts`.
        """
        for rule in self.rules:
            if rule.kind == "slow" and rule.matches(index, label, attempt):
                time.sleep(rule.seconds)
        for rule in self.rules:
            if rule.kind in ("raise", "kill") and rule.matches(index, label, attempt):
                raise rule.build_exception(label, attempt)

    def corrupts(self, index: int, label: str) -> bool:
        """Whether a just-saved checkpoint for this item must be damaged."""
        return any(
            rule.kind == "corrupt" and rule.matches(index, label, 0)
            for rule in self.rules
        )


_INT_FIELDS = ("item", "attempt", "times")


def parse_fault_plan(spec: str) -> FaultPlan:
    """Parse a ``--inject-faults`` spec string into a :class:`FaultPlan`.

    Raises :class:`FaultSpecError` on anything malformed — unknown
    kinds or fields, non-numeric values, empty clauses.
    """
    text = str(spec).strip()
    if not text:
        raise FaultSpecError("fault spec is empty")
    rules = []
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            raise FaultSpecError(f"empty fault clause in spec {spec!r}")
        kind, _, rest = clause.partition(":")
        kind = kind.strip().lower()
        if kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {kind!r} in {clause!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        fields = {}
        if rest.strip():
            for pair in rest.split(","):
                key, sep, value = pair.partition("=")
                key, value = key.strip().lower(), value.strip()
                if not sep or not key or not value:
                    raise FaultSpecError(
                        f"fault field {pair!r} in {clause!r} is not key=value"
                    )
                if key in _INT_FIELDS:
                    try:
                        fields[key] = int(value)
                    except ValueError:
                        raise FaultSpecError(
                            f"fault field {key!r} needs an integer, got {value!r}"
                        ) from None
                elif key == "seconds":
                    try:
                        fields[key] = float(value)
                    except ValueError:
                        raise FaultSpecError(
                            f"fault field 'seconds' needs a number, got {value!r}"
                        ) from None
                elif key in ("label", "exc"):
                    fields[key] = value
                else:
                    raise FaultSpecError(
                        f"unknown fault field {key!r} in {clause!r}"
                    )
        try:
            rules.append(FaultRule(kind=kind, **fields))
        except FaultSpecError:
            raise
        except TypeError as err:
            raise FaultSpecError(f"bad fault clause {clause!r}: {err}") from None
    return FaultPlan(rules=tuple(rules), spec=text)


# ----------------------------------------------------------------------
# Activation (process-global, worker-inherited)
# ----------------------------------------------------------------------
_UNSET = object()
_active = _UNSET  # _UNSET -> consult the environment once; None -> off


def install_faults(plan, export_env: bool = True) -> FaultPlan:
    """Activate a fault plan (spec string or :class:`FaultPlan`).

    With ``export_env`` the spec is also written to
    :data:`FAULT_ENV_VAR`, so process-pool workers spawned after this
    call inherit the same plan.
    """
    global _active
    if isinstance(plan, str):
        plan = parse_fault_plan(plan)
    _active = plan
    if export_env and plan.spec:
        os.environ[FAULT_ENV_VAR] = plan.spec
    return plan


def clear_faults() -> None:
    """Deactivate fault injection and drop the environment export."""
    global _active
    _active = None
    os.environ.pop(FAULT_ENV_VAR, None)


def active_fault_plan() -> Optional[FaultPlan]:
    """The currently active plan, if any.

    First call in a fresh process (e.g. a pool worker) parses
    :data:`FAULT_ENV_VAR`; the result — including "nothing active" —
    is cached until :func:`install_faults`/:func:`clear_faults`.
    """
    global _active
    if _active is _UNSET:
        spec = os.environ.get(FAULT_ENV_VAR)
        _active = parse_fault_plan(spec) if spec else None
    return _active
