"""Request-vocabulary tests (repro.service.protocol)."""

import math

import pytest

from repro.campaign import Job
from repro.service.protocol import (
    MAX_JOBS_PER_REQUEST,
    ServiceError,
    SubmitRequest,
    job_options,
)


def _status(excinfo):
    return excinfo.value.status


class TestParseHappyPath:
    def test_grid_shorthand(self):
        request = SubmitRequest.parse({"grid": "4x2,8x2"})
        assert [(job.n_rob, job.issue_width) for job in request.jobs] == \
            [(4, 2), (8, 2)]
        assert request.certify is False

    def test_explicit_configs_and_grid_combine(self):
        request = SubmitRequest.parse({
            "configs": [{"n_rob": 2, "issue_width": 1}],
            "grid": "4x2",
        })
        assert [(job.n_rob, job.issue_width) for job in request.jobs] == \
            [(2, 1), (4, 2)]

    def test_options_ride_on_every_job(self):
        request = SubmitRequest.parse({
            "grid": "4x2",
            "method": "positive_equality",
            "criterion": "case_split",
            "bug": {"kind": "forward-wrong-source", "entry": 3},
            "certify": True,
            "client": "tester",
            "budgets": {"max_conflicts": 100, "max_wall_seconds": 2,
                        "max_memory_mb": 64},
        })
        (job,) = request.jobs
        assert job.method == "positive_equality"
        assert job.criterion == "case_split"
        assert job.bug_kind == "forward-wrong-source"
        assert job.bug_entry == 3
        assert job.max_conflicts == 100
        assert job.max_wall_seconds == 2
        assert job.max_memory_mb == 64
        assert request.certify
        assert request.client == "tester"

    def test_duplicate_configs_get_distinct_job_ids(self):
        request = SubmitRequest.parse({"grid": "4x2,4x2,4x2"})
        ids = [job.job_id for job in request.jobs]
        assert len(set(ids)) == 3  # the journal requires unique ids

    def test_roundtrip_through_durable_form(self):
        request = SubmitRequest.parse({
            "grid": "4x2", "certify": True, "client": "rt",
            "budgets": {"max_conflicts": 10},
        })
        again = SubmitRequest.from_dict(request.to_dict())
        assert [job.to_dict() for job in again.jobs] == \
            [job.to_dict() for job in request.jobs]
        assert again.certify == request.certify
        assert again.client == request.client
        assert again.budgets == request.budgets


class TestParseRejections:
    def test_non_object_body(self):
        with pytest.raises(ServiceError) as excinfo:
            SubmitRequest.parse(["not", "an", "object"])
        assert _status(excinfo) == 400

    def test_unknown_fields(self):
        with pytest.raises(ServiceError) as excinfo:
            SubmitRequest.parse({"grid": "4x2", "bogus": 1})
        assert _status(excinfo) == 400
        assert "bogus" in str(excinfo.value)

    def test_retired_analyze_field_is_a_400(self):
        # The soundness findings have one route, ``repro lint``.
        with pytest.raises(ServiceError) as excinfo:
            SubmitRequest.parse({"grid": "4x2", "analyze": True})
        assert _status(excinfo) == 400
        assert "unknown request field(s): ['analyze']" in str(excinfo.value)

    @pytest.mark.parametrize("value", ["false", 1, None])
    def test_certify_must_be_a_json_boolean(self, value):
        # Coerced with bool(), "false" would certify the job and key it
        # under the certified cache key.
        with pytest.raises(ServiceError) as excinfo:
            SubmitRequest.parse({"grid": "4x2", "certify": value})
        assert _status(excinfo) == 400
        assert "certify must be a JSON boolean" in str(excinfo.value)

    def test_client_must_be_a_string(self):
        with pytest.raises(ServiceError) as excinfo:
            SubmitRequest.parse({"grid": "4x2", "client": 5})
        assert _status(excinfo) == 400
        assert "client must be a string, got 5" in str(excinfo.value)

    def test_unknown_bug_field_is_a_400_naming_it(self):
        # Dropped silently, the typo would plant the bug at entry 1.
        with pytest.raises(ServiceError) as excinfo:
            SubmitRequest.parse({"grid": "4x2", "bug": {
                "kind": "retire-ignores-valid", "entyr": 2,
            }})
        assert _status(excinfo) == 400
        assert "unknown bug field(s): ['entyr']" in str(excinfo.value)

    def test_unknown_config_field_is_a_400_naming_it(self):
        # Dropped silently, the typo would run the default retire width.
        with pytest.raises(ServiceError) as excinfo:
            SubmitRequest.parse({"configs": [
                {"n_rob": 8, "issue_width": 2},
                {"n_rob": 8, "issue_width": 2, "retire_widht": 1},
            ]})
        assert _status(excinfo) == 400
        assert "unknown configs[1] field(s): ['retire_widht']" in \
            str(excinfo.value)

    def test_unknown_method_and_criterion(self):
        with pytest.raises(ServiceError):
            SubmitRequest.parse({"grid": "4x2", "method": "magic"})
        with pytest.raises(ServiceError):
            SubmitRequest.parse({"grid": "4x2", "criterion": "vibes"})

    def test_bad_bug(self):
        with pytest.raises(ServiceError):
            SubmitRequest.parse({"grid": "4x2", "bug": "not-an-object"})
        with pytest.raises(ServiceError):
            SubmitRequest.parse({"grid": "4x2", "bug": {"kind": "no-such"}})

    @pytest.mark.parametrize("value", [0, False, [], ""])
    def test_budgets_that_are_no_object_are_a_400(self, value):
        # Only null means no budgets; a falsy value is still no object.
        with pytest.raises(ServiceError) as excinfo:
            SubmitRequest.parse({"grid": "2x1", "budgets": value})
        assert _status(excinfo) == 400
        assert "budgets must be a JSON object" in str(excinfo.value)

    def test_bad_budget_field(self):
        with pytest.raises(ServiceError) as excinfo:
            SubmitRequest.parse({"grid": "4x2",
                                 "budgets": {"max_lightyears": 3}})
        assert "max_lightyears" in str(excinfo.value)

    def test_retired_max_seconds_budget_lists_the_allowed_fields(self):
        with pytest.raises(ServiceError) as excinfo:
            SubmitRequest.parse({"grid": "2x1", "budgets": {"max_seconds": 5}})
        assert _status(excinfo) == 400
        message = str(excinfo.value)
        assert "max_seconds" in message
        for allowed in ("max_conflicts", "max_wall_seconds", "max_memory_mb"):
            assert allowed in message

    @pytest.mark.parametrize("name, value", [
        ("max_conflicts", -1),
        ("max_wall_seconds", -0.5),
        ("max_memory_mb", -64),
    ])
    def test_negative_budget_is_a_400_naming_it(self, name, value):
        # Admitted, the job could only exhaust its budget and fail.
        with pytest.raises(ServiceError) as excinfo:
            SubmitRequest.parse({"grid": "2x1", "budgets": {name: value}})
        assert _status(excinfo) == 400
        assert f"budgets.{name}" in str(excinfo.value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["max_wall_seconds", "max_memory_mb"])
    def test_non_finite_budget_is_a_400_naming_it(self, name, value):
        with pytest.raises(ServiceError) as excinfo:
            SubmitRequest.parse({"grid": "2x1", "budgets": {name: value}})
        assert _status(excinfo) == 400
        assert f"budgets.{name} must be a finite number" in str(excinfo.value)

    @pytest.mark.parametrize("name", ["max_conflicts", "max_wall_seconds"])
    def test_zero_budget_is_admitted(self, name):
        zero = SubmitRequest.parse({"grid": "2x1", "budgets": {name: 0}})
        assert getattr(zero.jobs[0], name) == 0

    def test_zero_memory_budget_is_a_400_naming_it(self):
        # No run fits in zero bytes; admitted, the job would crash.
        with pytest.raises(ServiceError) as excinfo:
            SubmitRequest.parse(
                {"grid": "2x1", "budgets": {"max_memory_mb": 0}}
            )
        assert _status(excinfo) == 400
        assert "budgets.max_memory_mb must be positive" in str(excinfo.value)

    def test_empty_request(self):
        with pytest.raises(ServiceError) as excinfo:
            SubmitRequest.parse({})
        assert "no work" in str(excinfo.value)

    def test_bad_grid_string(self):
        with pytest.raises(ServiceError) as excinfo:
            SubmitRequest.parse({"grid": "4by2"})
        assert _status(excinfo) == 400

    def test_config_missing_fields(self):
        with pytest.raises(ServiceError):
            SubmitRequest.parse({"configs": [{"n_rob": 4}]})

    def test_invalid_config_values(self):
        with pytest.raises(ServiceError):
            SubmitRequest.parse(
                {"configs": [{"n_rob": 0, "issue_width": 1}]}
            )

    @pytest.mark.parametrize("payload, field", [
        ({"configs": [{"n_rob": "abc", "issue_width": 1}]},
         "configs[0].n_rob"),
        ({"configs": [{"n_rob": 2, "issue_width": "1"}]},
         "configs[0].issue_width"),
        ({"configs": [{"n_rob": 2, "issue_width": 1},
                      {"n_rob": 2.5, "issue_width": 1}]},
         "configs[1].n_rob"),
        ({"configs": [{"n_rob": True, "issue_width": 1}]},
         "configs[0].n_rob"),
        ({"configs": [{"n_rob": 2, "issue_width": 1,
                       "retire_width": "two"}]},
         "configs[0].retire_width"),
        ({"grid": "2x1", "bug": {"kind": "dropped-flush", "entry": "x"}},
         "bug.entry"),
        ({"grid": "2x1",
          "bug": {"kind": "forward-wrong-source", "operand": [2]}},
         "bug.operand"),
        ({"grid": "2x1", "budgets": {"max_conflicts": "lots"}},
         "budgets.max_conflicts"),
        ({"grid": "2x1", "budgets": {"max_conflicts": 1.5}},
         "budgets.max_conflicts"),
        ({"grid": "2x1", "budgets": {"max_wall_seconds": "soon"}},
         "budgets.max_wall_seconds"),
        ({"grid": "2x1", "budgets": {"max_memory_mb": False}},
         "budgets.max_memory_mb"),
    ])
    def test_non_numeric_field_is_a_400_naming_it(self, payload, field):
        with pytest.raises(ServiceError) as excinfo:
            SubmitRequest.parse(payload)
        assert _status(excinfo) == 400
        assert field in str(excinfo.value)

    @pytest.mark.parametrize("payload", [
        {"grid": "4x2", "bug": {"kind": "store-order", "entry": 2}},
        {"grid": "4x2",
         "bug": {"kind": "forward-wrong-source", "entry": 2, "operand": 3}},
        {"grid": "4x2", "bug": {"kind": "forward-wrong-source", "entry": 9}},
        {"grid": "4x1", "bug": {"kind": "pc-single-increment"}},
    ], ids=["family-lacks-memory", "operand-3", "entry-past-rob",
            "width-1-pc-bug"])
    def test_bug_that_can_only_fail_is_a_400_naming_it(self, payload):
        # Admitted, each job would spend its attempts and end INCONCLUSIVE.
        with pytest.raises(ServiceError) as excinfo:
            SubmitRequest.parse(payload)
        assert _status(excinfo) == 400
        assert "bug" in str(excinfo.value)

    def test_job_ceiling(self):
        configs = [{"n_rob": 2, "issue_width": 1}] * (
            MAX_JOBS_PER_REQUEST + 1
        )
        with pytest.raises(ServiceError) as excinfo:
            SubmitRequest.parse({"configs": configs})
        assert "ceiling" in str(excinfo.value)


class TestJobOptions:
    def test_budgets_never_leak_into_the_cache_key_options(self):
        job = Job.build(4, 2, max_conflicts=100, max_wall_seconds=1.0)
        options = job_options(job, certify=False)
        assert "max_conflicts" not in options
        assert "max_wall_seconds" not in options

    def test_bug_fields_are_none_without_a_bug(self):
        job = Job.build(4, 2)
        options = job_options(job, certify=False)
        assert options["bug_kind"] is None
        assert options["bug_entry"] is None
        assert options["bug_operand"] is None

    def test_certify_matters(self):
        job = Job.build(4, 2)
        plain = job_options(job, certify=False)
        certified = job_options(job, certify=True)
        assert plain != certified

    def test_key_schema_is_stable_and_backend_free(self):
        # The cache-key vocabulary is frozen: verdicts are a function of
        # (config, these options, registry version) only.  How the CNF
        # is solved never appears here.
        job = Job.build(4, 2)
        options = job_options(job, certify=True)
        assert sorted(options) == [
            "bug_entry", "bug_kind", "bug_operand",
            "certify", "criterion", "method",
        ]
        assert "sat_backend" not in options
        assert "incremental_sat" not in options

    @pytest.mark.parametrize("certify, key", [
        (True,
         "f1dfa717e87bfe94f7c5636bd4dac0dbf5e64b38f3397518078d00bf1887bd1c"),
        (False,
         "c7707cc83a1c51f90132fc4ac93216fefaa7ab5f6d5fd88fb9a51898de202618"),
    ])
    def test_cache_keys_are_pinned(self, certify, key):
        # Results cached by earlier builds stay reachable: the keys of
        # requests that named no ``analyze`` switch never moved.
        from repro.core.keys import canonical_key

        job = Job.build(4, 2)
        assert canonical_key(
            job.config(), job_options(job, certify=certify),
            registry_version="5r-6f868c6c16c8",
        ) == key


class TestFamilyField:
    def test_top_level_family_rides_on_every_job(self):
        request = SubmitRequest.parse({"grid": "4x2,8x2", "family": "mem"})
        assert [job.family for job in request.jobs] == ["mem", "mem"]
        assert [job.config().family for job in request.jobs] == ["mem", "mem"]

    def test_per_config_family_overrides_the_shared_one(self):
        request = SubmitRequest.parse({
            "family": "branch",
            "configs": [
                {"n_rob": 2, "issue_width": 1},
                {"n_rob": 2, "issue_width": 1, "family": "mixed"},
            ],
        })
        assert [job.family for job in request.jobs] == ["branch", "mixed"]

    def test_family_default_is_reg_reg(self):
        request = SubmitRequest.parse({"grid": "4x2"})
        (job,) = request.jobs
        assert job.family == "reg-reg"
        assert job.job_id == "rw-N4-k2"  # seed ids unchanged

    def test_unknown_top_level_family_is_a_400(self):
        with pytest.raises(ServiceError) as excinfo:
            SubmitRequest.parse({"grid": "4x2", "family": "vliw"})
        assert _status(excinfo) == 400

    def test_unknown_per_config_family_is_a_400(self):
        with pytest.raises(ServiceError) as excinfo:
            SubmitRequest.parse({
                "configs": [
                    {"n_rob": 2, "issue_width": 1, "family": "vliw"}
                ],
            })
        assert _status(excinfo) == 400

    def test_family_reaches_the_cache_key_options(self):
        # Distinct families must never collide in the result cache.
        from repro.core.keys import canonical_key

        keys = set()
        for family in ("reg-reg", "branch", "mem", "mixed"):
            job = Job.build(4, 2, family=family)
            keys.add(canonical_key(
                {"n_rob": 4, "issue_width": 2, "retire_width": None,
                 "family": family},
                job_options(job, certify=False),
                registry_version="t",
            ))
        assert len(keys) == 4
