"""Request/response vocabulary of the verification service.

A *submit request* is a JSON document describing a batch of
verification jobs — either an explicit ``configs`` list or a ``grid``
string (the ``NxK,...`` shorthand of :func:`repro.core.cli.parse_grid`),
plus shared method/criterion/family/bug options (``family`` may also be
set per config), the certification switch, and optional per-attempt base
budgets.  :meth:`SubmitRequest.parse` validates it into campaign
:class:`~repro.campaign.jobs.Job` objects, refusing unknown fields in
every object of it (the body, ``bug``, each ``configs[i]`` and
``budgets``) and any job that can only fail (an invalid configuration,
or a bug its design has no logic for); :func:`job_options` distills the
verdict-relevant options of one job into the mapping
:func:`repro.core.keys.canonical_key` hashes for the result cache.

Budgets are deliberately *not* part of :func:`job_options`: they bound
the search, not the verdict, and the cache only ever stores definitive
outcomes (see :mod:`repro.service.cache`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..campaign.jobs import BUDGET_FIELDS, Job
from ..core.cli import parse_grid
from ..core.verifier import METHODS, budget_problem
from ..errors import CampaignError
from ..processor.bugs import BugKind
from ..processor.correctness import CRITERIA
from ..processor.families import family_names

__all__ = ["ServiceError", "SubmitRequest", "job_options"]

#: Hard ceiling on jobs per submit: a single request cannot smuggle in
#: an unbounded campaign; callers split larger sweeps across sessions.
MAX_JOBS_PER_REQUEST = 256


class ServiceError(CampaignError):
    """A request the service refuses; carries the HTTP status to answer.

    ``retry_after`` is set on backpressure refusals (429) so the
    transport layer can emit a ``Retry-After`` header.
    """

    def __init__(
        self, status: int, message: str, retry_after: Optional[float] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def _typed(value: Any, name: str, kind: Any, noun: str) -> Any:
    """``value`` if it is a JSON ``noun`` of Python type ``kind``; a 400
    naming ``name`` otherwise.  A bool is no number."""
    if not isinstance(value, kind) or (
        isinstance(value, bool) and kind is not bool
    ):
        raise ServiceError(400, f"{name} must be {noun}, got {value!r}")
    return value


def _integer(value: Any, name: str) -> int:
    """``value`` if it is a JSON integer; a 400 naming ``name`` otherwise."""
    return _typed(value, name, int, "an integer")


def _family(value: Any) -> str:
    """``value`` if it names a workload family; a 400 otherwise."""
    if not isinstance(value, str) or value not in family_names():
        raise ServiceError(
            400, f"unknown family {value!r}; use one of {family_names()}"
        )
    return value


def _refuse_unknown(
    fields: Mapping[str, Any], allowed: Tuple[str, ...], name: str
) -> None:
    """A 400 naming the keys of ``fields`` outside ``allowed``."""
    unknown = set(fields) - set(allowed)
    if unknown:
        raise ServiceError(
            400,
            f"unknown {name} field(s): {sorted(unknown)}; "
            f"use {sorted(allowed)}",
        )


def job_options(job: Job, certify: bool) -> Dict[str, Any]:
    """The verdict-relevant options of one job, for cache keying.

    Everything that changes the verdict or its recorded evidence is
    here — method, criterion, the planted bug, and the certify switch
    (it decides whether witness artifacts exist in the cached record).
    Budgets are excluded by design.
    """
    return {
        "method": job.method,
        "criterion": job.criterion,
        "bug_kind": job.bug_kind,
        "bug_entry": job.bug_entry if job.bug_kind is not None else None,
        "bug_operand": job.bug_operand if job.bug_kind is not None else None,
        "certify": certify or None,
    }


@dataclass
class SubmitRequest:
    """One validated submit request: jobs plus shared run options."""

    jobs: List[Job]
    certify: bool = False
    #: free-form client label, echoed in session records (provenance).
    client: str = ""
    #: raw budget fields forwarded to the jobs (already applied).
    budgets: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def parse(cls, payload: Any) -> "SubmitRequest":
        """Validate a decoded JSON body; raises :class:`ServiceError`."""
        if not isinstance(payload, Mapping):
            raise ServiceError(400, "request body must be a JSON object")
        _refuse_unknown(payload, (
            "configs", "grid", "method", "criterion", "family", "bug",
            "certify", "client", "budgets",
        ), "request")
        certify = _typed(
            payload.get("certify", False), "certify", bool, "a JSON boolean"
        )
        client = _typed(payload.get("client", ""), "client", str, "a string")
        method = payload.get("method", "rewriting")
        if method not in METHODS:
            raise ServiceError(
                400, f"unknown method {method!r}; use one of {METHODS}"
            )
        criterion = payload.get("criterion", "disjunction")
        if criterion not in CRITERIA:
            raise ServiceError(
                400,
                f"unknown criterion {criterion!r}; use one of {CRITERIA}",
            )
        family = _family(payload.get("family", "reg-reg"))
        bug = payload.get("bug")
        bug_fields: Dict[str, Any] = {}
        if bug is not None:
            if not isinstance(bug, Mapping) or "kind" not in bug:
                raise ServiceError(
                    400, "bug must be an object with a 'kind' field"
                )
            _refuse_unknown(bug, ("kind", "entry", "operand"), "bug")
            if bug["kind"] not in BugKind.ALL:
                raise ServiceError(
                    400,
                    f"unknown bug kind {bug['kind']!r}; "
                    f"use one of {BugKind.ALL}",
                )
            bug_fields = {
                "bug_kind": bug["kind"],
                "bug_entry": _integer(bug.get("entry", 1), "bug.entry"),
                "bug_operand": _integer(
                    bug.get("operand", 1), "bug.operand"
                ),
            }
        budgets_in = payload.get("budgets")
        if budgets_in is None:
            budgets_in = {}
        if not isinstance(budgets_in, Mapping):
            raise ServiceError(400, "budgets must be a JSON object")
        _refuse_unknown(budgets_in, BUDGET_FIELDS, "budget")
        budgets = {
            name: budgets_in[name]
            for name in BUDGET_FIELDS
            if budgets_in.get(name) is not None
        }
        for name, value in budgets.items():
            if name == "max_conflicts":
                _integer(value, "budgets.max_conflicts")
            else:
                _typed(value, f"budgets.{name}", (int, float), "a number")
            problem = budget_problem(name, value)
            if problem:
                raise ServiceError(
                    400, f"budgets.{name} {problem}, got {value!r}"
                )

        configs: List[Dict[str, Any]] = []
        raw_configs = payload.get("configs")
        if raw_configs is not None:
            if not isinstance(raw_configs, list):
                raise ServiceError(400, "configs must be a JSON list")
            for index, item in enumerate(raw_configs):
                if not isinstance(item, Mapping) or "n_rob" not in item \
                        or "issue_width" not in item:
                    raise ServiceError(
                        400,
                        "each config needs n_rob and issue_width "
                        "(optionally retire_width, family)",
                    )
                _refuse_unknown(
                    item,
                    ("n_rob", "issue_width", "retire_width", "family"),
                    f"configs[{index}]",
                )
                item_family = _family(item.get("family", family))
                retire_width = item.get("retire_width")
                if retire_width is not None:
                    retire_width = _integer(
                        retire_width, f"configs[{index}].retire_width"
                    )
                configs.append({
                    "n_rob": _integer(
                        item["n_rob"], f"configs[{index}].n_rob"
                    ),
                    "issue_width": _integer(
                        item["issue_width"], f"configs[{index}].issue_width"
                    ),
                    "retire_width": retire_width,
                    "family": item_family,
                })
        grid = payload.get("grid")
        if grid is not None:
            if not isinstance(grid, str):
                raise ServiceError(400, "grid must be a string like '4x2,8x2'")
            try:
                for n_rob, width in parse_grid(grid):
                    configs.append({"n_rob": n_rob, "issue_width": width,
                                    "retire_width": None, "family": family})
            except ValueError as exc:
                raise ServiceError(400, str(exc))
        if not configs:
            raise ServiceError(
                400, "request names no work: provide configs and/or grid"
            )
        if len(configs) > MAX_JOBS_PER_REQUEST:
            raise ServiceError(
                400,
                f"request names {len(configs)} jobs; the per-request "
                f"ceiling is {MAX_JOBS_PER_REQUEST}",
            )

        jobs: List[Job] = []
        seen_ids: Dict[str, int] = {}
        for spec in configs:
            try:
                job = Job.build(
                    spec["n_rob"],
                    spec["issue_width"],
                    retire_width=spec["retire_width"],
                    family=spec["family"],
                    method=method,
                    criterion=criterion,
                    **bug_fields,
                    **budgets,
                )
                # Job.build defers configuration validation to run time
                # (campaign semantics: a bad config lands INCONCLUSIVE);
                # the service rejects it up front instead of admitting a
                # job that can only fail.
                config = job.config()
            except (CampaignError, ValueError) as exc:
                raise ServiceError(400, f"bad configuration {spec}: {exc}")
            try:
                bug = job.bug()
                if bug is not None:
                    bug.check(config)
            except ValueError as exc:
                raise ServiceError(
                    400, f"bad bug for configuration {spec}: {exc}"
                )
            # Duplicate configurations in one request keep distinct job
            # ids (the journal requires uniqueness); the session dedupes
            # them by cache key before any work runs.
            count = seen_ids.get(job.job_id, 0)
            seen_ids[job.job_id] = count + 1
            if count:
                job = Job.from_dict(
                    {**job.to_dict(), "job_id": f"{job.job_id}~{count + 1}"}
                )
            jobs.append(job)
        return cls(
            jobs=jobs,
            certify=certify,
            client=client,
            budgets=budgets,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Durable form written to the session directory (restart food)."""
        return {
            "jobs": [job.to_dict() for job in self.jobs],
            "certify": self.certify,
            "client": self.client,
            "budgets": self.budgets,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SubmitRequest":
        # Requests that older builds wrote may hold an ``analyze`` switch
        # (the findings now come from ``repro lint``); it is not read.
        return cls(
            jobs=[Job.from_dict(spec) for spec in data.get("jobs", [])],
            certify=bool(data.get("certify", False)),
            client=str(data.get("client", "")),
            budgets=dict(data.get("budgets", {})),
        )
